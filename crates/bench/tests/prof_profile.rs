//! Profiler determinism, asserted end to end through the `repro` binary.
//!
//! The acceptance contract (ISSUE 10 / OBSERVABILITY.md): with
//! `DCB_PROF=collapsed` (or `svg`), `repro profile fig5` output is
//! *byte-identical* across repeat runs and across `DCB_THREADS`
//! settings, and the process only exits 0 when the profile's per-kind
//! work tally reconciles **exactly** with the telemetry counters — so a
//! green run is itself the reconciliation assertion. Each configuration
//! gets its own process because the global fleet pool initializes from
//! the environment at first use.

use std::process::Command;

/// Runs `repro profile fig5` and returns stdout bytes.
fn repro_profile(threads: &str, mode: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["profile", "fig5"])
        .env("DCB_THREADS", threads)
        .env("DCB_PROF", mode)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro profile fig5 failed (threads={threads}, mode={mode}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn collapsed_profile_is_byte_identical_across_threads_and_reconciles() {
    let reference = repro_profile("1", "collapsed");
    let text = String::from_utf8(reference.clone()).expect("collapsed output is utf-8");

    // The fig5 sweep exercises every instrumented layer: the kernel's
    // per-owner cycles, its segments, the locate root finder, and the
    // evaluation cache. (No topology resolve in fig5 — node-steps stays
    // zero and absent.)
    for needle in [
        "fig5;sweep_configs;evaluate;engine;",
        ";[cycles] ",
        "fig5;sweep_configs;evaluate;sim-kernel;outage_end;[segments] ",
        "fig5;sweep_configs;evaluate;locate;[locate-iters] ",
        "fig5;sweep_configs;eval-cache;[cache-misses] ",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // Canonical: strictly sorted lines, each a stack ending in its
    // bracketed kind and a positive weight.
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 5, "suspiciously small profile:\n{text}");
    assert!(
        lines.windows(2).all(|pair| pair[0] < pair[1]),
        "not sorted:\n{text}"
    );
    for line in lines {
        let weight = line
            .rsplit_once("] ")
            .map(|(_, weight)| weight.parse::<u64>());
        assert!(
            matches!(weight, Some(Ok(weight)) if weight > 0),
            "malformed line {line:?}"
        );
    }

    for threads in ["1", "2", "8"] {
        assert_eq!(
            repro_profile(threads, "collapsed"),
            reference,
            "collapsed profile drifted at DCB_THREADS={threads}"
        );
    }
}

#[test]
fn svg_profile_is_byte_identical_across_threads() {
    let reference = repro_profile("1", "svg");
    let text = String::from_utf8(reference.clone()).expect("svg output is utf-8");
    assert!(text.starts_with("<svg "), "not an svg:\n{text}");
    assert!(text.trim_end().ends_with("</svg>"), "unterminated svg");
    assert!(text.contains("sim-kernel"), "missing frames:\n{text}");
    assert!(text.contains("totals:"), "missing legend:\n{text}");
    for threads in ["2", "8"] {
        assert_eq!(
            repro_profile(threads, "svg"),
            reference,
            "svg profile drifted at DCB_THREADS={threads}"
        );
    }
}

#[test]
fn text_mode_reports_reconciliation_and_wall_overlay() {
    let out = repro_profile("2", "text");
    let text = String::from_utf8(out).expect("stdout is utf-8");
    assert!(
        text.contains("totals (reconciled exactly with telemetry):"),
        "missing reconciliation:\n{text}"
    );
    assert!(
        text.contains("== engine.cycles"),
        "missing counter mapping:\n{text}"
    );
    assert!(
        text.contains("wall-time overlay (volatile"),
        "missing overlay:\n{text}"
    );
    assert!(text.contains("fig5/sweep_configs"), "missing span:\n{text}");
}

#[test]
fn unknown_exhibit_exits_2_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["profile", "not-an-exhibit"])
        .output()
        .expect("repro binary runs");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown exhibit"), "{err}");
    assert!(err.contains("usage:"), "{err}");
}
