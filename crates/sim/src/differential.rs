//! Differential tests: the event-driven kernel against the fixed-step
//! oracle.
//!
//! The stepped solver is the original engine and survives only to check
//! the kernel: on the full Table-3 configuration × Table-4/6 technique ×
//! duration grid the two must agree on feasibility and state loss exactly
//! and on the continuous metrics to within the stepper's own
//! discretization error, and the disagreement must shrink as the step
//! does (the kernel is the dt → 0 limit).

use crate::{Cluster, OutageSim, SimOutcome, Technique};
use dcb_power::BackupConfig;
use dcb_units::Seconds;
use dcb_workload::Workload;
use proptest::prelude::*;

/// The historical step rule of the stepped engine.
fn default_step(outage: Seconds) -> f64 {
    (outage.value() / 7200.0).max(0.25)
}

/// Durations spanning the paper's 30 s–2 h evaluation window.
fn durations() -> [Seconds; 5] {
    [
        Seconds::new(30.0),
        Seconds::new(300.0),
        Seconds::new(1800.0),
        Seconds::new(3600.0),
        Seconds::new(7200.0),
    ]
}

struct Deviation {
    scenario: String,
    downtime: f64,
    perf: f64,
}

/// Compares one scenario, panicking on any boolean disagreement and
/// returning the continuous-metric deviations.
fn compare(sim: &OutageSim, outage: Seconds, step: Seconds, label: &str) -> Deviation {
    let kernel = sim.run(outage);
    let mut backup = sim.config().instantiate(sim.cluster().peak_power());
    let stepped = sim.run_with_backup_stepped_at(outage, &mut backup, step);
    assert_eq!(
        kernel.feasible, stepped.feasible,
        "{label}: feasibility disagrees (kernel {:?} vs stepped {:?})",
        kernel, stepped
    );
    assert_eq!(
        kernel.state_lost, stepped.state_lost,
        "{label}: state_lost disagrees"
    );
    let energy_scale = stepped.energy.value().abs().max(1.0);
    assert!(
        (kernel.energy.value() - stepped.energy.value()).abs()
            < 0.05 * energy_scale + step.value() * sim.cluster().peak_power().value() / 3600.0,
        "{label}: energy {} vs {}",
        kernel.energy,
        stepped.energy
    );
    Deviation {
        scenario: label.to_owned(),
        downtime: (kernel.downtime.expected - stepped.downtime.expected)
            .value()
            .abs(),
        perf: (kernel.perf_during_outage.value() - stepped.perf_during_outage.value()).abs(),
    }
}

#[test]
fn kernel_matches_stepper_on_the_full_grid() {
    let cluster = Cluster::rack(Workload::specjbb());
    let mut worst_downtime = Deviation {
        scenario: String::new(),
        downtime: 0.0,
        perf: 0.0,
    };
    let mut worst_perf = Deviation {
        scenario: String::new(),
        downtime: 0.0,
        perf: 0.0,
    };
    for config in BackupConfig::table3() {
        for technique in Technique::extended_catalog() {
            let sim = OutageSim::new(cluster, config.clone(), technique.clone());
            for outage in durations() {
                let dt = default_step(outage);
                let label = format!("{config} / {technique} / {outage}");
                let dev = compare(&sim, outage, Seconds::new(dt), &label);
                // The stepper quantizes every event to its grid; a handful
                // of events each contribute up to one step of error.
                let downtime_tol = (5.0 * dt).max(2.0);
                let perf_tol = (10.0 * dt / outage.value()).max(0.01);
                assert!(
                    dev.downtime < downtime_tol,
                    "{label}: downtime deviates {}s (tol {downtime_tol})",
                    dev.downtime
                );
                assert!(
                    dev.perf < perf_tol,
                    "{label}: perf deviates {} (tol {perf_tol})",
                    dev.perf
                );
                if dev.downtime > worst_downtime.downtime {
                    worst_downtime = Deviation {
                        scenario: label.clone(),
                        ..dev
                    };
                } else if dev.perf > worst_perf.perf {
                    worst_perf = Deviation {
                        scenario: label,
                        ..dev
                    };
                }
            }
        }
    }
    println!(
        "worst downtime dev: {}s at {}; worst perf dev: {} at {}",
        worst_downtime.downtime, worst_downtime.scenario, worst_perf.perf, worst_perf.scenario
    );
}

/// The metrics the dt-refinement test tracks.
fn metrics(o: &SimOutcome) -> (f64, f64) {
    (o.downtime.expected.value(), o.perf_during_outage.value())
}

#[test]
fn stepped_error_tightens_as_dt_shrinks() {
    // Scenarios with genuinely event-shaped trajectories: a mid-outage
    // battery death, a hybrid fallback, and a DG-powered crash recovery.
    let cluster = Cluster::rack(Workload::specjbb());
    let cases = [
        (
            BackupConfig::no_dg(),
            Technique::ride_through(),
            Seconds::new(600.0),
        ),
        (
            BackupConfig::small_p_large_e_ups(),
            Technique::throttle_sleep_l(crate::low_power_level()),
            Seconds::new(7200.0),
        ),
        (
            BackupConfig::no_ups(),
            Technique::ride_through(),
            Seconds::new(7200.0),
        ),
    ];
    for (config, technique, outage) in cases {
        let sim = OutageSim::new(cluster, config.clone(), technique.clone());
        let kernel = metrics(&sim.run(outage));
        let mut last_err = f64::INFINITY;
        for dt in [4.0, 1.0, 0.25] {
            let mut backup = sim.config().instantiate(sim.cluster().peak_power());
            let stepped =
                metrics(&sim.run_with_backup_stepped_at(outage, &mut backup, Seconds::new(dt)));
            let err = (kernel.0 - stepped.0).abs().max(
                // Weight perf into the same scale as downtime seconds.
                (kernel.1 - stepped.1).abs() * outage.value(),
            );
            // Refinement may plateau once fp noise dominates, so allow a
            // small slack factor rather than demanding strict decrease.
            assert!(
                err <= last_err.max(2.0 * dt) + 1e-9,
                "{config} / {technique}: error {err} at dt={dt} worse than {last_err}"
            );
            last_err = err;
        }
        // At the finest step the two solvers are close in absolute terms.
        assert!(
            last_err < 2.0,
            "{config} / {technique}: residual error {last_err}s at dt=0.25"
        );
    }
}

proptest! {
    // Randomized scenario draw: any technique, any Table-3 config, any
    // duration in the 30 s–2 h window (not just the five grid points).
    #[test]
    fn kernel_matches_stepper_on_random_scenarios(
        config_ix in 0usize..9,
        technique_ix in 0usize..16,
        duration_s in 30.0f64..7200.0,
    ) {
        let cluster = Cluster::rack(Workload::specjbb());
        let config = BackupConfig::table3().swap_remove(config_ix);
        let technique = Technique::extended_catalog().swap_remove(technique_ix);
        let outage = Seconds::new(duration_s);
        let dt = default_step(outage);
        let sim = OutageSim::new(cluster, config.clone(), technique.clone());
        let label = format!("{config} / {technique} / {outage}");
        let dev = compare(&sim, outage, Seconds::new(dt), &label);
        prop_assert!(dev.downtime < (5.0 * dt).max(2.0), "{label}: downtime dev {}", dev.downtime);
        prop_assert!(dev.perf < (10.0 * dt / outage.value()).max(0.01), "{label}: perf dev {}", dev.perf);
    }
}
