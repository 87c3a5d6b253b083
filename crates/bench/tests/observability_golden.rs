//! Golden digests of the three observability outputs, asserted end to
//! end through the `repro` binary:
//!
//! 1. the Chrome trace of `repro fig5`;
//! 2. the collapsed profile of `repro profile fig5 fig6 fig7 fig8 fig9`;
//! 3. the stdout of `DCB_TELEMETRY=json repro fig5 fig6 fig7 fig8 fig9`.
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

#[test]
fn fig5_chrome_trace_matches_golden_digest() {
    let file = std::env::temp_dir().join(format!(
        "dcb_observability_golden_{}.json",
        std::process::id()
    ));
    repro(
        &["fig5"],
        &[
            ("DCB_TRACE", "chrome".as_ref()),
            ("DCB_TRACE_FILE", file.as_os_str()),
        ],
    );
    let trace = std::fs::read(&file).expect("trace file written");
    let _ = std::fs::remove_file(&file);
    let got = digest(&trace);
    assert_eq!(
        got,
        CHROME_FIG5,
        "digest {got:#034x} over {} bytes",
        trace.len()
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
