//! `repro explain` ground-truth test: for every Table-3 grid point the
//! timeline rebuilt from the flight recorder must agree with the kernel's
//! own trajectory — segment count and end-cause tallies exactly, downtime
//! to the recorder's microsecond resolution. The explanation is the
//! kernel's *actual* event stream, not a parallel re-derivation, so any
//! disagreement is an instrumentation bug. The subcommand resolves its
//! names as a topology spec does, and an unknown name exits 2.

use dcb_bench::explain::explain_scenario;
use dcb_power::BackupConfig;
use dcb_sim::Technique;
use dcb_units::Seconds;
use std::collections::BTreeMap;
use std::process::{Command, Output};
use std::sync::Mutex;

/// Serializes the tests in this file: `explain_scenario` toggles the
/// process-wide trace flag, so concurrent tests would race on it.
static GUARD: Mutex<()> = Mutex::new(());

#[test]
fn explain_tally_matches_the_kernel_for_every_table3_point() {
    let _guard = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for config in BackupConfig::table3() {
        for technique in Technique::catalog() {
            for minutes in [0.5, 30.0, 120.0] {
                let duration = Seconds::from_minutes(minutes);
                let explained = explain_scenario(&config, &technique, duration);
                let label = format!("{} / {} / {minutes}min", config.label(), technique.name());
                let trajectory = &explained.trajectory;

                // Segment count and end-cause histogram: exact.
                assert_eq!(
                    explained.tally.segments,
                    trajectory.segments.len() as u64,
                    "segment count drifted: {label}"
                );
                let mut expected: BTreeMap<String, u64> = BTreeMap::new();
                for segment in &trajectory.segments {
                    *expected
                        .entry(segment.ended_by.as_str().to_owned())
                        .or_default() += 1;
                }
                let expected: Vec<(String, u64)> = expected.into_iter().collect();
                assert_eq!(explained.tally.end_causes, expected, "end causes: {label}");

                // Downtime: the trace stores each segment span rounded to
                // whole microseconds, so the tally must equal the same
                // rounded sum exactly...
                let micros_sum: u64 = trajectory
                    .segments
                    .iter()
                    .filter(|segment| segment.in_downtime)
                    .map(|segment| {
                        dcb_trace::micros(segment.end) - dcb_trace::micros(segment.start)
                    })
                    .sum();
                assert_eq!(explained.tally.downtime_us, micros_sum, "downtime: {label}");

                // ...and match the kernel's continuous tally to within one
                // microsecond of rounding per segment.
                let tolerance = 1e-6 * (trajectory.segments.len() as f64 + 1.0);
                let kernel_downtime = trajectory.outcome.downtime_during_outage.value();
                assert!(
                    (explained.tally.downtime_us as f64 / 1e6 - kernel_downtime).abs() <= tolerance,
                    "downtime vs outcome: {label}: trace={} kernel={kernel_downtime}",
                    explained.tally.downtime_us as f64 / 1e6
                );

                // The rendered timeline mentions every end cause.
                for (cause, _) in &explained.tally.end_causes {
                    assert!(
                        explained.timeline.contains(cause.as_str()),
                        "timeline missing end cause {cause}: {label}\n{}",
                        explained.timeline
                    );
                }
            }
        }
    }
}

#[test]
fn explain_leaves_tracing_disabled_and_buffers_empty() {
    let _guard = GUARD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    assert!(!dcb_trace::enabled(), "tests run with tracing off");
    let explained = explain_scenario(
        &BackupConfig::table3()[0],
        &Technique::catalog()[0],
        Seconds::from_minutes(10.0),
    );
    assert!(explained.tally.segments > 0);
    assert!(
        !dcb_trace::enabled(),
        "explain_scenario must restore the enabled flag"
    );
    assert!(
        dcb_trace::drain().is_empty(),
        "explain_scenario must not leak events outside its lane"
    );
}

fn repro_explain(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("explain")
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn explain_matches_names_as_in_a_topology_spec() {
    let loose = repro_explain(&["max-perf", "Ride-Through", "5m"]);
    let exact = repro_explain(&["MaxPerf", "RideThrough", "5m"]);
    assert_eq!(loose.status.code(), Some(0), "{loose:?}");
    assert_eq!(loose.stdout, exact.stdout);

    let unknown = repro_explain(&["max-perf", "Ride-Thru", "5m"]);
    assert_eq!(unknown.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&unknown.stderr);
    assert!(
        stderr.contains("unknown technique `Ride-Thru` (available: Crash, RideThrough,"),
        "{stderr}"
    );
}
