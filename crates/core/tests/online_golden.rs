//! Golden digest of the §7 adaptive controller: it pins every output bit
//! of `core::online`, so a change that moves a result must re-commit it
//! and state how far the results moved.
//!
//! The digest folds, for every case of a fixed grid, the IEEE-754 bits of
//! every numeric `AdaptiveOutcome` field, `state_lost`, and each
//! `Decision`'s instant and action. The grid covers all nine Table-3
//! configurations × Specjbb and Memcached × the Figure-1(b) and the
//! Weibull-bucketed predictors × four outage lengths (30 s, 190 s,
//! 2,100 s, 42,400 s), plus a half-power 10-minute UPS at risks 0.01 and
//! 0.4 over an 8-hour outage for the hibernate path. The DG configurations
//! exercise the infinite-endurance skip, `NoUPS` the no-battery sleep
//! fallback, and `SmallPUPS` a full-speed load above the UPS power cap.

use dcb_core::online::{AdaptiveController, AdaptiveOutcome};
use dcb_core::{BackupConfig, Cluster};
use dcb_fleet::StableHasher;
use dcb_outage::{DurationDistribution, DurationPredictor, WeibullDuration};
use dcb_units::{Fraction, Seconds};
use dcb_workload::Workload;

/// The digest of [`grid_digest`]. The per-outage plan reproduced the
/// fixed-step controller's digest, `0x76a5_4ef2_aa31_727d_dd6f_9d15_d831_b098`,
/// bit for bit. The depletion fix then counted the whole final step as
/// downtime when the battery dies while the cluster is entering sleep,
/// asleep or saving. That moved only the 17 cases that lose state outside
/// `Serving`: the 42,400-s outages on NoDG, SmallPUPS, LargeEUPS and
/// SmallP-LargeEUPS, and the half-power UPS at risk 0.4, to
/// `0x08c7_2e1e_b7c3_0552_f277_495b_0cec_02cf`.
///
/// Release 0.14.0 made the controller event-driven. It re-plans at the
/// located instant a re-plan would choose a different mode, not at every
/// step of `max(outage/7200, 0.25 s)`, and it looks a constant 0.25 s
/// ahead. Decision instants left the step grid, so the digest moved. The
/// stepped loop is kept as the oracle in `online.rs`'s unit tests. Over
/// this grid plus 600-, 5,000- and 12,000-s outages (254 cases), every
/// case keeps its `state_lost` and its action sequence, and the largest
/// deviations from the oracle are:
///
/// - a decision instant: 0.94 of a stepped step;
/// - `perf_during_outage`: 1.41e-3;
/// - expected downtime: 0.90 of a step.
///
/// `event_driven_controller_tracks_the_stepped_loop` bounds them at one
/// step, 2e-3 and one step, for every downtime field.
const GOLDEN: u128 = 0xefc1_75e5_4ba9_24d2_a448_c440_0afb_342b;

fn fold(hasher: &mut StableHasher, outcome: &AdaptiveOutcome) {
    hasher.write_f64(outcome.outage.value());
    hasher.write_f64(outcome.perf_during_outage.value());
    hasher.write_f64(outcome.downtime.min.value());
    hasher.write_f64(outcome.downtime.expected.value());
    hasher.write_f64(outcome.downtime.max.value());
    hasher.write_u64(u64::from(outcome.state_lost));
    hasher.write_u64(outcome.decisions.len() as u64);
    for decision in &outcome.decisions {
        hasher.write_f64(decision.at.value());
        hasher.write_str(&decision.action);
    }
}

fn grid_digest() -> (u128, usize) {
    let predictors = [
        DurationPredictor::from_distribution(&DurationDistribution::us_business()),
        DurationPredictor::from_distribution(&WeibullDuration::fit_us_business().to_bucketed()),
    ];
    let durations = [30.0, 190.0, 2_100.0, 42_400.0].map(Seconds::new);
    let mut hasher = StableHasher::new();
    let mut cases = 0;
    for config in BackupConfig::table3() {
        for workload in [Workload::specjbb(), Workload::memcached()] {
            let cluster = Cluster::rack(workload);
            for predictor in &predictors {
                let controller = AdaptiveController::new(predictor.clone());
                for &outage in &durations {
                    fold(&mut hasher, &controller.simulate(&cluster, &config, outage));
                    cases += 1;
                }
            }
        }
    }
    let hibernate = BackupConfig::custom(
        "UPS 50% × 10min",
        Fraction::ZERO,
        Fraction::HALF,
        Seconds::from_minutes(10.0),
    );
    let cluster = Cluster::rack(Workload::specjbb());
    for risk in [0.01, 0.4] {
        let controller = AdaptiveController::new(predictors[0].clone()).with_risk(risk);
        fold(
            &mut hasher,
            &controller.simulate(&cluster, &hibernate, Seconds::from_hours(8.0)),
        );
        cases += 1;
    }
    (hasher.finish(), cases)
}

#[test]
fn adaptive_controller_matches_golden_digest() {
    let (digest, cases) = grid_digest();
    assert_eq!(cases, 146);
    assert_eq!(digest, GOLDEN, "digest {digest:#034x} over {cases} cases");
}

/// Once the cluster starts entering sleep it serves nothing, so when the
/// battery then dies mid-step the whole step is downtime: the outage
/// downtime must equal the time from the enter-sleep instant to the end.
#[test]
fn state_lost_asleep_counts_all_time_after_enter_sleep_as_downtime() {
    let cluster = Cluster::rack(Workload::specjbb());
    let outage = WeibullDuration::fit_us_business().quantile(0.99);
    let controller = AdaptiveController::new(DurationPredictor::from_distribution(
        &DurationDistribution::us_business(),
    ));
    let out = controller.simulate(&cluster, &BackupConfig::large_e_ups(), outage);
    assert!(out.state_lost, "decisions: {:?}", out.decisions);
    let slept = out
        .decisions
        .iter()
        .find(|d| d.action == "enter-sleep")
        .map(|d| d.at)
        .expect("the controller enters sleep");
    let recovery = cluster.workload().recovery();
    let crash_tail = cluster.spec().boot_time()
        + recovery.app_start
        + recovery.reload_time()
        + recovery.warmup
        + recovery.recompute.expected;
    let asleep = (outage - slept).value();
    let counted = (out.downtime.expected - crash_tail).value();
    assert!(
        (counted - asleep).abs() <= asleep * 1e-9,
        "{counted} s of outage downtime for {asleep} s after enter-sleep"
    );
}
