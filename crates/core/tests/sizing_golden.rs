//! Golden digest of the §6.2 minimum-cost UPS sizing search: the oracle
//! that any change to `core::sizing` must reproduce bit for bit.
//!
//! `repro_golden` pins only the printed precision of Figures 6–9. This
//! digest folds, with the fleet `StableHasher`, the full bits of every
//! sized point: the configuration through its `StableHash`, the
//! normalized cost, the configuration and technique names, and every
//! `SimOutcome` field, with a one-byte tag that tells `None` (no UPS size
//! works) from a point. The searches are the ones the exhibits make:
//!
//! * `technique_tradeoffs` over the paper catalog, executed to plan, for
//!   Specjbb at the five paper durations (Figure 6) and for Memcached,
//!   Web-search, SpecCPU and the OLTP extension at 30 s, 30 min and
//!   120 min (Figures 7–9 and `extension-oltp`);
//! * the direct `min_cost_ups` calls of `repro verify`: claim 3's 60-min
//!   throttle at ≥ 58 % performance and ≤ 1 s downtime, and claim 4's
//!   30-s and 120-min searches;
//! * the 60-min searches of the `ablation-chemistry` exhibit.

use dcb_core::evaluate::paper_durations;
use dcb_core::sizing::{min_cost_ups, technique_tradeoffs, SizedPoint, SizingTargets};
use dcb_core::{Cluster, SimOutcome, Technique};
use dcb_fleet::{StableHash, StableHasher};
use dcb_server::{PState, TState, ThrottleLevel};
use dcb_units::Seconds;
use dcb_workload::Workload;

/// The digest of [`sizing_digest`], taken with the blind search: every
/// power fraction probed at its ceiling and bisected to the minute.
const GOLDEN: u128 = 0xb335_a7d1_0aca_27d2_6a35_a744_936d_a676;

/// Cases [`sizing_digest`] folds: 13 × 5 Figure 6 cells, 4 × 13 × 3
/// Figure 7–9 and OLTP cells, and 6 direct searches.
const CASES: usize = 65 + 156 + 6;

fn fold_outcome(hasher: &mut StableHasher, outcome: &SimOutcome) {
    hasher.write_f64(outcome.outage.value());
    hasher.write_u64(u64::from(outcome.feasible));
    hasher.write_u64(u64::from(outcome.state_lost));
    hasher.write_f64(outcome.peak_power.value());
    hasher.write_f64(outcome.peak_power_fraction.value());
    hasher.write_f64(outcome.energy.value());
    hasher.write_f64(outcome.perf_during_outage.value());
    hasher.write_f64(outcome.downtime.min.value());
    hasher.write_f64(outcome.downtime.expected.value());
    hasher.write_f64(outcome.downtime.max.value());
    hasher.write_f64(outcome.downtime_during_outage.value());
    hasher.write_bytes(format!("{:?}", outcome.final_state).as_bytes());
    hasher.write_bytes(&[0xFE]);
}

fn fold_point(hasher: &mut StableHasher, point: Option<&SizedPoint>) {
    let Some(point) = point else {
        hasher.write_bytes(&[0]);
        return;
    };
    hasher.write_bytes(&[1]);
    point.config.stable_hash(hasher);
    let p = &point.performability;
    hasher.write_f64(p.cost);
    hasher.write_str(&p.config);
    hasher.write_str(&p.technique);
    fold_outcome(hasher, &p.outcome);
}

fn sizing_digest() -> (u128, usize) {
    let mut hasher = StableHasher::new();
    let mut cases = 0;
    let to_plan = SizingTargets::execute_to_plan();
    let short_medium_long = [
        Seconds::new(30.0),
        Seconds::from_minutes(30.0),
        Seconds::from_minutes(120.0),
    ];
    let figures = [
        (Workload::specjbb(), paper_durations()),
        (Workload::memcached(), short_medium_long.to_vec()),
        (Workload::web_search(), short_medium_long.to_vec()),
        (Workload::spec_cpu(), short_medium_long.to_vec()),
        (Workload::oltp_database(), short_medium_long.to_vec()),
    ];
    for (workload, durations) in figures {
        let cluster = Cluster::rack(workload);
        for (_, _, point) in
            technique_tradeoffs(&cluster, &Technique::catalog(), &durations, &to_plan)
        {
            fold_point(&mut hasher, point.as_ref());
            cases += 1;
        }
    }

    let specjbb = Cluster::rack(Workload::specjbb());
    let claim3 = SizingTargets {
        require_state_preserved: true,
        min_perf: Some(0.58),
        max_downtime: Some(Seconds::new(1.0)),
    };
    let p3 = Technique::throttle(ThrottleLevel {
        p: PState::new(3),
        t: TState::full(),
    });
    let hybrid = Technique::throttle_sleep_l(ThrottleLevel {
        p: PState::slowest(),
        t: TState::full(),
    });
    let hour = Seconds::from_minutes(60.0);
    let direct = [
        (p3, hour, claim3),
        (Technique::throttle_deepest(), Seconds::new(30.0), to_plan),
        (hybrid, Seconds::from_minutes(120.0), to_plan),
        (
            Technique::throttle_deepest(),
            Seconds::from_minutes(120.0),
            to_plan,
        ),
        (Technique::throttle_deepest(), hour, to_plan),
        (Technique::proactive_hibernate(), hour, to_plan),
    ];
    for (technique, duration, targets) in direct {
        let point = min_cost_ups(&specjbb, &technique, duration, &targets);
        fold_point(&mut hasher, point.as_ref());
        cases += 1;
    }
    (hasher.finish(), cases)
}

#[test]
fn sizing_matches_golden_digest() {
    let (digest, cases) = sizing_digest();
    assert_eq!(cases, CASES);
    assert_eq!(digest, GOLDEN, "digest {digest:#034x} over {cases} cases");
}
