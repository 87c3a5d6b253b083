//! The `dcbackup` binary end to end: numeric arguments out of range and
//! malformed command lines are reported as errors, never as panics,
//! nonsense figures or a silent run with defaults.

use std::process::{Command, Output};

fn dcbackup(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcbackup"))
        .args(args)
        .output()
        .expect("dcbackup runs")
}

/// `dcbackup args` exits 2 with an `error:` line and prints no result.
fn assert_rejected(args: &[&str]) {
    let out = dcbackup(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(
        stderr.lines().any(|line| line.starts_with("error: ")),
        "{args:?}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed a result");
}

#[test]
fn out_of_range_numbers_exit_2_with_an_error() {
    let cases: [&[&str]; 11] = [
        &["size", "sleep", "-5"],
        &["size", "sleep", "inf"],
        &["size", "sleep", "1e308"],
        &["size", "sleep", "nan"],
        &["simulate", "NoDG", "sleep", "-5"],
        &["cost", "NoDG", "--peak-mw", "nan"],
        &["cost", "NoDG", "--peak-mw", "inf"],
        &["cost", "NoDG", "--peak-mw", "-1"],
        &["cost", "NoDG", "--peak-mw", "0"],
        &["cost", "NoDG", "--peak-mw", "1e308"],
        &["availability", "NoDG", "sleep", "--years", "0"],
    ];
    for args in cases {
        assert_rejected(args);
    }
}

#[test]
fn malformed_command_lines_exit_2_with_an_error() {
    let cases: [&[&str]; 10] = [
        // A flag without a value.
        &["simulate", "MaxPerf", "sleep", "5", "--workload"],
        &["cost", "NoDG", "--peak-mw"],
        &["availability", "NoDG", "sleep", "--years"],
        // A flag the command does not take.
        &["cost", "NoDG", "--bogus", "3"],
        &["size", "sleep", "30", "--peak-mw", "5"],
        // A repeated flag.
        &["cost", "NoDG", "--peak-mw", "5", "--peak-mw", "6"],
        // An extra positional argument.
        &["size", "sleep", "30", "extra"],
        &["list", "extra"],
        // An unknown command.
        &["bogus"],
        &["bogus", "--workload", "specjbb"],
    ];
    for args in cases {
        assert_rejected(args);
    }
}

#[test]
fn a_flag_may_stand_before_the_positional_arguments() {
    let after = dcbackup(&["cost", "NoDG", "--peak-mw", "5"]);
    let before = dcbackup(&["cost", "--peak-mw", "5", "NoDG"]);
    assert_eq!(after.status.code(), Some(0));
    assert_eq!(before.status.code(), Some(0));
    assert_eq!(before.stdout, after.stdout);
    assert!(String::from_utf8_lossy(&after.stdout).contains("datacenter peak    5 MW"));
}

#[test]
fn size_sleep_30_prints_its_sized_backup() {
    let out = dcbackup(&["size", "sleep", "30"]);
    assert_eq!(out.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "cheapest UPS for Sleep to cover 30 min on Specjbb (18 GB):\n\
         \x20 UPS 100% × 2min (DG 0%, UPS 100% × 2 min)\n\
         \x20 normalized cost 0.38\n\
         \x20 perf 0%, downtime 30.1 min\n"
    );
}
