//! The `dcbackup` binary end to end: numeric arguments out of range are
//! reported as errors, never as panics or nonsense figures.

use std::process::{Command, Output};

fn dcbackup(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dcbackup"))
        .args(args)
        .output()
        .expect("dcbackup runs")
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
