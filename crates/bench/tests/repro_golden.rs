//! Golden digest of what `repro all` prints: every paper exhibit, every
//! extra exhibit, the state-size sensitivity table and the headline-claim
//! lines, folded byte for byte in the order the binary prints them.
//!
//! The output is byte-identical across `DCB_THREADS` settings, so the
//! digest holds for any thread count. A change to the models that moves
//! any printed digit moves this digest.

use dcb_bench::{all_exhibits, extra_exhibits, tables, verify};
use dcb_fleet::StableHasher;

/// The digest of [`repro_all_digest`]: the 128-bit FNV-1a digest of the
/// release `repro all` stdout, byte for byte.
const GOLDEN: u128 = 0x6853_98be_e051_673b_8c3b_f03e_7b7a_1f71;

/// `repro all`'s stdout, without the optional telemetry report.
fn repro_all_output() -> String {
    let mut out = String::new();
    for (_, generate) in all_exhibits().into_iter().chain(extra_exhibits()) {
        out.push_str(&generate());
        out.push('\n');
    }
    out.push_str(&tables::state_size_sensitivity());
    out.push('\n');
    out.push_str("== Headline claim verification ==\n");
    for (claim, check) in verify::verify_all() {
        match check {
            Ok(summary) => out.push_str(&format!("  PASS {claim}: {summary}\n")),
            Err(err) => out.push_str(&format!("  FAIL {claim}: {err}\n")),
        }
    }
    out.push('\n');
    out
}

fn repro_all_digest() -> (u128, usize) {
    let output = repro_all_output();
    let mut hasher = StableHasher::new();
    hasher.write_bytes(output.as_bytes());
    (hasher.finish(), output.len())
}

#[test]
fn repro_all_matches_golden_digest() {
    let (digest, bytes) = repro_all_digest();
    assert_eq!(digest, GOLDEN, "digest {digest:#034x} over {bytes} bytes");
}
