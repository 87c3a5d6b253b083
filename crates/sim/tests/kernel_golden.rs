//! Golden digest of the outage kernel: the oracle that any change to the
//! kernel's hot path must reproduce bit for bit.
//!
//! The digest folds, with the fleet `StableHasher`, the IEEE-754 bits of
//! every `SimOutcome` field and of every `Segment` (`start`, `end`,
//! `load`, `throughput`, `in_downtime`, `ended_by`). Three families of
//! runs cover every path of the kernel's located-event searches:
//!
//! * the grid: all nine Table-3 configurations × the extended technique
//!   catalog × Specjbb and Memcached × five outage lengths (30 s, 190 s,
//!   1,800 s, 7,200 s, 42,400 s), each on a fully charged battery;
//! * yearly traces: 20 seeded `OutageSampler` years for every
//!   (configuration, catalog technique) pair on Specjbb, whose later
//!   outages start their searches on a partly charged battery, plus the
//!   trace's battery wear;
//! * a fuel-limited DG, whose supply drops back to zero mid-outage: the
//!   one phase boundary the Table-3 configurations never reach.
//!
//! The same cases fanned out over 1, 2 and 8 fleet workers must fold to
//! the same digest: a run reads no thread state, and the pool returns
//! results in input order.

use dcb_fleet::{FleetPool, StableHasher};
use dcb_outage::{OutageSampler, OutageTrace};
use dcb_power::{BackupConfig, BackupSystem, DieselGenerator, Ups};
use dcb_sim::{Cluster, OutageSim, SimOutcome, Technique, TraceOutcome, Trajectory};
use dcb_units::Seconds;
use dcb_workload::Workload;

/// The digest of [`kernel_digest`], taken before the located-event
/// searches were planned once per search.
const GOLDEN: u128 = 0xbcf8_249f_0ba9_bb31_3e67_b268_b2c7_a5da;

/// Cases [`kernel_digest`] folds: 9 × 16 × 2 × 5 grid runs, 9 × 16 traces
/// and 4 × 16 × 3 fuel-limited runs.
const CASES: usize = 1_440 + 144 + 192;

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
    // The terminal state's `Debug` name and a 0xFE terminator: the bytes
    // the digest was first pinned with.
    hasher.write_bytes(format!("{:?}", outcome.final_state).as_bytes());
    hasher.write_bytes(&[0xFE]);
}

fn fold_trajectory(hasher: &mut StableHasher, trajectory: &Trajectory) {
    hasher.write_u64(trajectory.segments.len() as u64);
    for segment in &trajectory.segments {
        hasher.write_f64(segment.start.value());
        hasher.write_f64(segment.end.value());
        hasher.write_f64(segment.load.value());
        hasher.write_f64(segment.throughput);
        hasher.write_u64(u64::from(segment.in_downtime));
        hasher.write_str(segment.ended_by.as_str());
    }
    fold_outcome(hasher, &trajectory.outcome);
}

/// One case of [`kernel_digest`], in fold order.
enum Case {
    /// One outage on a fully charged battery.
    Run(OutageSim, Seconds),
    /// A (configuration, technique) pair replayed over every sampled year.
    Years(OutageSim),
    /// One outage behind a fuel-limited DG of `dg_share` of the peak with
    /// `fuel` seconds of fuel and a half-power, 15-minute UPS.
    FuelLimited {
        sim: OutageSim,
        outage: Seconds,
        dg_share: f64,
        fuel: f64,
    },
}

/// What one case folds into the digest.
enum Folded {
    Trajectory(Trajectory),
    Years(Vec<TraceOutcome>),
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let durations = [30.0, 190.0, 1_800.0, 7_200.0, 42_400.0].map(Seconds::new);
    for config in BackupConfig::table3() {
        for technique in Technique::extended_catalog() {
            for workload in [Workload::specjbb(), Workload::memcached()] {
                let sim =
                    OutageSim::new(Cluster::rack(workload), config.clone(), technique.clone());
                for &outage in &durations {
                    cases.push(Case::Run(sim.clone(), outage));
                }
            }
        }
    }

    for config in BackupConfig::table3() {
        for technique in Technique::extended_catalog() {
            cases.push(Case::Years(OutageSim::new(
                Cluster::rack(Workload::specjbb()),
                config.clone(),
                technique.clone(),
            )));
        }
    }

    // Sixty seconds of fuel run out mid-ramp (at 85 s); ten minutes run
    // out after the DG took over (at 625 s). The 60 % DG never carries
    // the full load, so its residual jumps back to the whole load when
    // the fuel is gone.
    let cluster = Cluster::rack(Workload::specjbb());
    for (dg_share, fuel) in [(1.0, 60.0), (1.0, 600.0), (0.6, 60.0), (0.6, 600.0)] {
        for technique in Technique::extended_catalog() {
            let sim = OutageSim::new(cluster, BackupConfig::max_perf(), technique);
            for outage in [190.0, 1_800.0, 7_200.0].map(Seconds::new) {
                cases.push(Case::FuelLimited {
                    sim: sim.clone(),
                    outage,
                    dg_share,
                    fuel,
                });
            }
        }
    }
    cases
}

fn run_case(case: &Case, years: &[OutageTrace]) -> Folded {
    match case {
        Case::Run(sim, outage) => Folded::Trajectory(sim.run_trajectory(*outage)),
        Case::Years(sim) => {
            let year = Seconds::from_hours(365.0 * 24.0);
            Folded::Years(
                years
                    .iter()
                    .map(|trace| sim.run_trace(trace, year))
                    .collect(),
            )
        }
        Case::FuelLimited {
            sim,
            outage,
            dg_share,
            fuel,
        } => {
            let peak = sim.cluster().peak_power();
            let mut backup = BackupSystem::new(
                Some(DieselGenerator::new(peak * *dg_share).with_fuel_runtime(Seconds::new(*fuel))),
                Some(Ups::new(peak * 0.5, Seconds::from_minutes(15.0))),
            );
            Folded::Trajectory(sim.run_with_backup_trajectory(*outage, &mut backup))
        }
    }
}

fn fold(results: &[Folded]) -> u128 {
    let mut hasher = StableHasher::new();
    for result in results {
        match result {
            Folded::Trajectory(trajectory) => fold_trajectory(&mut hasher, trajectory),
            Folded::Years(outcomes) => {
                for outcome in outcomes {
                    hasher.write_u64(outcome.outcomes.len() as u64);
                    for o in &outcome.outcomes {
                        fold_outcome(&mut hasher, o);
                    }
                    hasher.write_f64(outcome.battery_cycles);
                }
            }
        }
    }
    hasher.finish()
}

fn years() -> Vec<OutageTrace> {
    OutageSampler::seeded(2014).sample_years(20)
}

fn kernel_digest() -> (u128, usize) {
    let cases = cases();
    let years = years();
    let results: Vec<Folded> = cases.iter().map(|case| run_case(case, &years)).collect();
    (fold(&results), cases.len())
}

#[test]
fn kernel_matches_golden_digest() {
    let (digest, cases) = kernel_digest();
    assert_eq!(cases, CASES);
    assert_eq!(digest, GOLDEN, "digest {digest:#034x} over {cases} cases");
}

#[test]
fn kernel_digest_is_the_same_on_every_thread_count() {
    let cases = cases();
    let years = years();
    for threads in [1, 2, 8] {
        let results =
            FleetPool::with_threads(threads).run_all(&cases, |case| run_case(case, &years));
        let digest = fold(&results);
        assert_eq!(digest, GOLDEN, "digest {digest:#034x} on {threads} threads");
    }
}
