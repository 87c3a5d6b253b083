//! Golden digests of the three observability outputs, asserted end to
//! end through the `repro` binary:
//!
//! 1. the Chrome trace of `repro fig5`;
//! 2. the collapsed profile of `repro profile fig5 fig6 fig7 fig8 fig9`;
//! 3. the stdout of `DCB_TELEMETRY=json repro fig5 fig6 fig7 fig8 fig9`;
//! 4. the Chrome trace of `repro all`, which records every kind of event
//!    the paper pass records (ten of the twelve);
//! 5. the stdout of `DCB_TRACE=timeline repro all`;
//! 6. the Chrome trace of `repro topo` on `fixtures/capped_feed.topo`, a
//!    facility whose capped feed makes the resolver shed and brown out, so
//!    it records `topo_resolve` and `topo_shed`.
//!
//! Each output is byte-identical across `DCB_THREADS` settings
//! (`trace_chrome`, `prof_profile` and `telemetry_snapshot` check that),
//! so each digest holds for any thread count. A change to the model, the
//! instrumentation or an exporter that moves any byte moves its digest;
//! a deliberate change re-commits the constant with a CHANGES.md line
//! naming what moved. Each run gets its own process because the global
//! fleet pool, telemetry, tracer and profiler initialize from the
//! environment at first use.

use dcb_fleet::StableHasher;
use std::process::Command;

/// Digest of the `repro fig5` Chrome trace.
const CHROME_FIG5: u128 = 0x8dea_3cb1_9420_e97e_31d5_40e7_0e04_ed09;
/// Digest of the `repro profile fig5 … fig9` collapsed profile.
const COLLAPSED_FIG5_TO_FIG9: u128 = 0x4141_2bec_c96b_73e4_6a81_74d1_3013_5422;
/// Digest of the `DCB_TELEMETRY=json repro fig5 … fig9` stdout.
/// Re-committed when the kernel stopped searching for crash-recovery and
/// unthrottle instants a system without a DG cannot reach:
/// `engine.locate.first_true_calls` fell from 2,280 to 443, and nothing
/// else moved.
const TELEMETRY_FIG5_TO_FIG9: u128 = 0x81bb_1b74_a860_0ddb_cdf1_4ac2_5989_6d49;

/// Digest of the `repro all` Chrome trace.
const CHROME_ALL: u128 = 0x1e68_e169_a219_6b18_f8d9_027c_44ad_4971;
/// Digest of the `DCB_TRACE=timeline repro all` stdout.
const TIMELINE_ALL: u128 = 0x5193_5917_83b7_c547_11d1_027f_addf_4383;
/// Digest of the `repro topo fixtures/capped_feed.topo` Chrome trace.
const CHROME_TOPO_CAPPED_FEED: u128 = 0xe467_d47a_d6d5_f3b8_409a_61ed_e12d_1e11;

const FIGURES: [&str; 5] = ["fig5", "fig6", "fig7", "fig8", "fig9"];

/// Runs `repro` with `args` and `env` and returns its stdout.
fn repro(args: &[&str], env: &[(&str, &std::ffi::OsStr)]) -> Vec<u8> {
    let mut command = Command::new(env!("CARGO_BIN_EXE_repro"));
    command
        .args(args)
        .env_remove("DCB_TELEMETRY")
        .env_remove("DCB_TRACE")
        .env_remove("DCB_TRACE_FILE")
        .env_remove("DCB_PROF");
    for (key, value) in env {
        command.env(key, value);
    }
    let out = command.output().expect("repro binary runs");
    assert!(
        out.status.success(),
        "repro {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn digest(bytes: &[u8]) -> u128 {
    let mut hasher = StableHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// Runs `repro` with `args` under `DCB_TRACE=chrome`, writing the trace
/// into a temporary directory, and returns the trace file's bytes.
fn chrome_trace(args: &[&str], tag: &str) -> Vec<u8> {
    let file = std::env::temp_dir().join(format!(
        "dcb_observability_golden_{tag}_{}.json",
        std::process::id()
    ));
    repro(
        args,
        &[
            ("DCB_TRACE", "chrome".as_ref()),
            ("DCB_TRACE_FILE", file.as_os_str()),
        ],
    );
    let trace = std::fs::read(&file).expect("trace file written");
    let _ = std::fs::remove_file(&file);
    trace
}

fn assert_digest(bytes: &[u8], want: u128) {
    let got = digest(bytes);
    assert_eq!(got, want, "digest {got:#034x} over {} bytes", bytes.len());
}

#[test]
fn fig5_chrome_trace_matches_golden_digest() {
    assert_digest(&chrome_trace(&["fig5"], "fig5"), CHROME_FIG5);
}

#[test]
fn repro_all_chrome_trace_matches_golden_digest() {
    assert_digest(&chrome_trace(&["all"], "all"), CHROME_ALL);
}

#[test]
fn repro_all_timeline_matches_golden_digest() {
    let stdout = repro(&["all"], &[("DCB_TRACE", "timeline".as_ref())]);
    assert_digest(&stdout, TIMELINE_ALL);
}

#[test]
fn capped_feed_topology_chrome_trace_matches_golden_digest() {
    let spec = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/capped_feed.topo"
    );
    assert_digest(
        &chrome_trace(&["topo", spec], "topo"),
        CHROME_TOPO_CAPPED_FEED,
    );
}

#[test]
fn fig5_to_fig9_collapsed_profile_matches_golden_digest() {
    let mut args = vec!["profile"];
    args.extend(FIGURES);
    let profile = repro(&args, &[("DCB_PROF", "collapsed".as_ref())]);
    let got = digest(&profile);
    assert_eq!(
        got,
        COLLAPSED_FIG5_TO_FIG9,
        "digest {got:#034x} over {} bytes",
        profile.len()
    );
}

#[test]
fn fig5_to_fig9_telemetry_json_matches_golden_digest() {
    let stdout = repro(&FIGURES, &[("DCB_TELEMETRY", "json".as_ref())]);
    let got = digest(&stdout);
    assert_eq!(
        got,
        TELEMETRY_FIG5_TO_FIG9,
        "digest {got:#034x} over {} bytes",
        stdout.len()
    );
}
