//! The DG ramp milestones a trace shows agree with the DG model for a
//! fuel-limited generator: the fuel runs out at `start_delay +
//! fuel_runtime`, where `DieselGenerator::available_power` drops to zero,
//! and a generator whose fuel runs out mid-ramp never reaches full power.

use dcb_power::{BackupConfig, BackupSystem, DieselGenerator, Ups};
use dcb_sim::{Cluster, OutageSim, Technique};
use dcb_trace::EventKind;
use dcb_units::Seconds;
use dcb_workload::Workload;

/// The `(phase, µs)` of every `dg_ramp_phase` event one run of `outage`
/// emits, on a full-size DG with 60 s of fuel (it starts at 25 s, would
/// reach full power at 120 s, and stops at 85 s) beside a full UPS.
fn milestones(outage: Seconds) -> Vec<(String, Option<u64>)> {
    let sim = OutageSim::new(
        Cluster::rack(Workload::specjbb()),
        BackupConfig::max_perf(),
        Technique::ride_through(),
    );
    let peak = sim.cluster().peak_power();
    let mut backup = BackupSystem::new(
        Some(DieselGenerator::new(peak).with_fuel_runtime(Seconds::new(60.0))),
        Some(Ups::new(peak, Seconds::from_minutes(10.0))),
    );
    dcb_trace::set_enabled(true);
    let (_, events) = dcb_trace::capture(|| sim.run_with_backup_trajectory(outage, &mut backup));
    events
        .into_iter()
        .filter_map(|event| match event.kind {
            EventKind::DgRampPhase { phase } => Some((phase.to_owned(), event.at_us)),
            _ => None,
        })
        .collect()
}

fn at(phase: &str, seconds: u64) -> (String, Option<u64>) {
    (phase.to_owned(), Some(seconds * 1_000_000))
}

#[test]
fn fuel_runs_out_after_the_start_delay_and_before_full_power() {
    assert_eq!(
        milestones(Seconds::from_minutes(10.0)),
        vec![at("engine_start", 25), at("fuel_exhausted", 85)]
    );
}

#[test]
fn an_outage_ending_before_the_fuel_runs_out_shows_no_exhaustion() {
    assert_eq!(milestones(Seconds::new(70.0)), vec![at("engine_start", 25)]);
}
