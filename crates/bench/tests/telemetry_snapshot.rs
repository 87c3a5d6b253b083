//! Telemetry determinism, asserted end to end through the `repro` binary.
//!
//! The acceptance contract (OBSERVABILITY.md): for a fixed workload,
//! `DCB_TELEMETRY=json` output is byte-identical across repeat runs and
//! across `DCB_THREADS` settings. We assert on the binary's *entire
//! stdout* — figure plus snapshot — because the global fleet pool and
//! cache initialize from the environment at first use, so each
//! configuration needs its own process.

use std::process::Command;

/// Runs `repro fig5` with the given environment and returns its stdout.
fn repro_fig5(threads: &str, telemetry: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("fig5")
        .env("DCB_THREADS", threads)
        .env("DCB_TELEMETRY", telemetry)
        .output()
        .expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro fig5 failed (threads={threads}): {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn json_snapshot_is_byte_identical_across_threads_and_runs() {
    let reference = repro_fig5("1", "json");
    let text = String::from_utf8(reference.clone()).expect("stdout is utf-8");
    // The snapshot carries the headline metrics the docs promise.
    assert!(text.contains("\"dcb_telemetry\""), "no snapshot:\n{text}");
    assert!(text.contains("\"fleet.cache.hit_rate\""), "no hit rate");
    assert!(text.contains("\"fleet.cache.misses\""), "no cache misses");
    // Derived histogram means fill the once-empty "derived" block.
    assert!(
        text.contains("\"sim.kernel.segments_per_outage_mean\""),
        "no derived segments-per-outage mean:\n{text}"
    );
    assert!(
        text.contains("\"engine.locate.bisection_iters_per_search_mean\""),
        "no derived bisections-per-search mean:\n{text}"
    );
    // The engine core's own run accounting reaches the snapshot too.
    assert!(text.contains("\"engine.runs\""), "no engine runs:\n{text}");
    assert!(
        text.contains("\"engine.fired.technique-controller\""),
        "no per-component fired counters:\n{text}"
    );
    assert!(
        text.contains("\"sim.kernel.segments\""),
        "no kernel segments"
    );
    assert!(
        text.contains("\"path\":\"fig5/sweep_configs\""),
        "no span tree"
    );
    // Volatile scheduling metrics must never reach the stable snapshot.
    assert!(!text.contains("fleet.pool.workers_spawned"), "{text}");
    assert!(!text.contains("wall_ns"), "{text}");
    for threads in ["1", "2", "8"] {
        assert_eq!(
            repro_fig5(threads, "json"),
            reference,
            "stdout drifted at DCB_THREADS={threads}"
        );
    }
    // The value is trimmed and read in any ASCII case, as DCB_TRACE is.
    assert_eq!(
        repro_fig5("1", "JSON"),
        reference,
        "DCB_TELEMETRY=JSON differs from json"
    );
}

#[test]
fn text_prints_the_text_report() {
    let text = String::from_utf8(repro_fig5("2", "text")).expect("stdout is utf-8");
    assert!(text.contains("Figure 5"), "figure missing:\n{text}");
    assert!(text.contains("dcb-telemetry report"), "no report:\n{text}");
    assert!(text.contains("fleet.cache.misses"), "no counters:\n{text}");
}

#[test]
fn unset_telemetry_emits_no_snapshot() {
    let text = String::from_utf8(repro_fig5("2", "")).expect("stdout is utf-8");
    assert!(text.contains("Figure 5"), "figure missing:\n{text}");
    assert!(!text.contains("dcb_telemetry"), "snapshot leaked:\n{text}");
}
