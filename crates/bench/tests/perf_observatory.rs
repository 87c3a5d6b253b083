//! Perf-observatory regression detection, asserted end to end through
//! the `repro` binary against a fixture history with an injected
//! regression.
//!
//! The fixture (`tests/fixtures/history_regression.jsonl`) mirrors the
//! real file's full schema surface — a legacy line without the
//! `"bench"` key, tagged engine-v2 lines, topology lines using
//! `"facilities"` — plus one injected collapse: `engine/fig5_sweep`
//! falls from a stable ~100× band to 8×. The observatory must flag the
//! regression in `report` and fail `check` (the 8× newest point is far
//! below the ratcheted ~34× floor), while every healthy series passes.

use std::process::Command;

fn fixture_path() -> String {
    concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/history_regression.jsonl"
    )
    .to_string()
}

fn repro_perf(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("perf")
        .args(args)
        .output()
        .expect("repro binary runs")
}

#[test]
fn injected_regression_is_flagged_in_the_report() {
    let out = repro_perf(&["report", "--file", &fixture_path()]);
    assert!(out.status.success(), "report must not fail");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(
        text.contains("engine/fig5_sweep") && text.contains("REGRESSION"),
        "regression not flagged:\n{text}"
    );
    assert!(
        text.contains("regression: engine/fig5_sweep fell to 8.00x"),
        "missing detail line:\n{text}"
    );
    // Healthy series carry no flag: the warning is specific, not global.
    for line in text.lines() {
        if line.contains("two_hour_monte_carlo") || line.contains("dc_1k_racks") {
            assert!(!line.contains("REGRESSION"), "false positive: {line}");
        }
    }
    assert!(
        text.contains("1 legacy pre-\"bench\"-key line(s)"),
        "legacy line not surfaced:\n{text}"
    );
}

#[test]
fn check_fails_on_the_regressed_series_only() {
    let out = repro_perf(&["check", "--file", &fixture_path()]);
    assert_eq!(out.status.code(), Some(2), "check must exit 2");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        err.contains("engine/fig5_sweep") && err.contains("below ratcheted floor"),
        "missing violation:\n{err}"
    );
    assert!(
        !err.contains("two_hour_monte_carlo") && !err.contains("dc_1k_racks"),
        "healthy series misflagged:\n{err}"
    );
}

#[test]
fn floors_ratchet_above_the_hand_coded_baseline() {
    let out = repro_perf(&["floors", "--file", &fixture_path()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    // ~100x-stable series ratchet to ~34x — 7x the old hand-coded 5x.
    assert!(
        text.contains("engine/fig5_sweep 34.30"),
        "unexpected floors:\n{text}"
    );
    // Series with < 2 prior entries keep the base floor (topology: 10x).
    assert!(
        text.contains("topology/dc_1k_racks 10.00"),
        "unexpected floors:\n{text}"
    );
}

#[test]
fn validate_accepts_fixture_and_rejects_schema_drift() {
    let out = repro_perf(&["validate", "--file", &fixture_path()]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    assert!(text.contains("8 entries valid"), "{text}");
    assert!(text.contains("1 legacy line(s)"), "{text}");

    // A drifted line (min_speedup contradicting its workloads) is caught
    // with its line number.
    let dir = std::env::temp_dir();
    let bad = dir.join("dcb_history_bad.jsonl");
    std::fs::write(
        &bad,
        "{\"bench\": \"engine\", \"unix_s\": 1, \"mode\": \"smoke\", \"min_speedup\": 50.0, \
         \"workloads\": [{\"name\": \"w\", \"speedup\": 2.0}]}\n",
    )
    .expect("write temp fixture");
    let out = repro_perf(&["validate", "--file", bad.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        err.contains("line 1") && err.contains("does not match"),
        "{err}"
    );
    let _ = std::fs::remove_file(bad);
}

#[test]
fn deeply_nested_history_is_a_schema_error_not_a_crash() {
    let path = std::env::temp_dir().join("dcb_history_deep.jsonl");
    std::fs::write(&path, format!("{}\n", "[".repeat(200_000))).expect("write temp fixture");
    let out = repro_perf(&["validate", "--file", path.to_str().expect("utf-8 path")]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(2), "validate must exit 2");
    let err = String::from_utf8(out.stderr).expect("utf-8");
    assert!(
        err.contains("line 1:") && !err.contains("overflow"),
        "{err}"
    );
}

#[test]
fn the_committed_repo_history_passes_the_ci_gate() {
    // No --file: the default path is the repo's own BENCH_history.jsonl.
    // This is the same invocation ci.sh gates on.
    for action in ["validate", "check"] {
        let out = repro_perf(&[action]);
        assert!(
            out.status.success(),
            "repro perf {action} failed on the committed history: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
