//! Event generators shared by the property tests: payload strings drawn
//! from hostile pools, and one of every event kind.

use dcb_trace::EventKind;

/// Characters the Chrome escaper must handle: each of its escape classes
/// (quote, backslash, `\n`, `\t`, `\r`, other control characters) plus
/// benign text, JSON-syntax look-alikes and multi-byte unicode.
const POOL: &[char] = &[
    'a', 'Z', '7', ' ', '"', '\\', '\n', '\t', '\r', '\u{1}', '\u{1f}', '=', '-', '{', '}', '±',
    '∞',
];

/// Fixed-vocabulary names (DG phases, technique modes, end causes,
/// levels) are `&'static str`, so they come from this pool: every escape
/// class alone and mixed with plain and multi-byte text.
const NAMES: [&str; 15] = [
    "",
    "outage_end",
    "\"",
    "\\",
    "\n",
    "\t",
    "\r",
    "\u{1}",
    "\u{1f}",
    "±∞",
    "a \"quoted\" \\ name",
    "line\nbreak\ttab\rreturn",
    "ctl\u{1}\u{1f}end",
    "{\"k\":[-1]}",
    "Z7 = -",
];

/// Builds a string of up to 12 pool characters from 64 selector bits.
fn string_from(bits: u64) -> String {
    let len = (bits % 13) as usize;
    let mut out = String::new();
    let mut cursor = bits;
    for _ in 0..len {
        cursor = cursor
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        out.push(POOL[(cursor >> 33) as usize % POOL.len()]);
    }
    out
}

/// Picks one of the hostile names from 64 selector bits.
fn name_from(bits: u64) -> &'static str {
    NAMES[(bits.wrapping_mul(6_364_136_223_846_793_005) >> 33) as usize % NAMES.len()]
}

/// A digest from two selector words, covering both halves of the `u128`.
fn digest_from(bits: u64, number: u64) -> u128 {
    u128::from(bits) << 64 | u128::from(number)
}

/// Builds one of the event kinds from a selector and payload bits.
pub fn kind_from(selector: u8, bits: u64, number: u64) -> EventKind {
    match selector {
        0 => EventKind::OutageStart {
            config: string_from(bits),
            technique: string_from(bits.rotate_left(17)),
            outage_us: number,
        },
        1 => EventKind::DgRampPhase {
            phase: name_from(bits),
        },
        2 => EventKind::BatteryDeplete,
        3 => EventKind::TechniqueTransition {
            from: name_from(bits),
            to: name_from(bits.rotate_left(29)),
        },
        4 => EventKind::SegmentCommit {
            end_cause: name_from(bits),
            load_mw: number,
            throughput_pm: number % 1001,
            in_downtime: bits & 1 == 1,
        },
        5 => EventKind::DustSnap,
        6 => EventKind::CacheHit {
            digest: digest_from(bits, number),
        },
        7 => EventKind::CacheMiss {
            digest: digest_from(bits, number),
        },
        8 => EventKind::ShortfallRoot { bisections: number },
        9 => EventKind::Evaluate {
            config: string_from(bits),
            technique: string_from(bits.rotate_left(41)),
            feasible: bits & 1 == 0,
        },
        10 => EventKind::TopoResolve {
            level: name_from(bits),
            name: string_from(bits.rotate_left(11)),
            multiplicity: number,
            feasible: bits & 1 == 1,
        },
        _ => EventKind::TopoShed {
            level: name_from(bits),
            name: string_from(bits.rotate_left(23)),
            servers: number,
        },
    }
}
