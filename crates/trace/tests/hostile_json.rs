//! Hostile JSON: whatever text the workspace's one JSON reader is handed,
//! `json::parse` and `chrome::validate` return `Ok` or `Err` and never
//! panic. The inputs are `chrome::export` output of random events after
//! one mutation: a truncation, a byte flip, spliced deep nesting, a long
//! string or spliced non-ASCII text. A fixed table then holds one
//! document per strict rule of the reader, each of which must be an
//! error while its corrected twin parses.

use dcb_trace::json::{self, MAX_DEPTH};
use dcb_trace::{chrome, Event, EventKind};
use proptest::prelude::*;

/// Payload characters: every escape class of the exporter plus
/// multi-byte text.
const POOL: &[char] = &['a', ' ', '"', '\\', '\n', '\u{1}', '±', '🔋'];

/// End causes are `&'static str`, so they come from fixed names built
/// of the same characters.
const CAUSES: [&str; 5] = ["", "a \"a\"", " \\\n", "\u{1}±", "🔋 a"];

/// Text spliced in by the non-ASCII mutation, including JSON syntax.
const ODD: [&str; 10] = [
    "é", "\u{3000}", "🔋", "\u{0}", "\u{feff}", "\\ud800", "\"", "\\", "{", "]",
];

/// The body of a valid JSON string: escapes and multi-byte characters.
const FILL: &str = "é🔋 x\\\\\\n\\u00e9\\\"";

fn next(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 11
}

fn text(state: &mut u64) -> String {
    let len = next(state) % 9;
    (0..len)
        .map(|_| POOL[(next(state) % POOL.len() as u64) as usize])
        .collect()
}

/// `count` events over three lanes, from a seeded generator.
fn events(count: usize, seed: u64) -> Vec<Event> {
    let mut state = seed;
    (0..count)
        .map(|i| {
            let bits = next(&mut state);
            let kind = match bits % 4 {
                0 => EventKind::OutageStart {
                    config: text(&mut state),
                    technique: text(&mut state),
                    outage_us: bits,
                },
                1 => EventKind::SegmentCommit {
                    end_cause: CAUSES[(next(&mut state) % CAUSES.len() as u64) as usize],
                    load_mw: bits,
                    throughput_pm: bits % 1001,
                    in_downtime: bits & 8 == 8,
                },
                2 => EventKind::CacheHit {
                    digest: u128::from(next(&mut state)) << 64 | u128::from(bits),
                },
                _ => EventKind::BatteryDeplete,
            };
            Event {
                lane: (next(&mut state) % 3) << 32,
                seq: i as u32,
                parent: None,
                at_us: (bits & 16 == 16).then(|| next(&mut state) % (1 << 40)),
                dur_us: next(&mut state) % (1 << 40),
                kind,
            }
        })
        .collect()
}

fn mutate(doc: &str, kind: usize, at: u64, pick: usize) -> String {
    let cut = usize::try_from(at % (doc.len() as u64 + 1)).unwrap_or(0);
    let splice = match kind % 5 {
        // Truncation at any byte (lossy where it splits a character).
        0 => return String::from_utf8_lossy(&doc.as_bytes()[..cut]).into_owned(),
        // One byte flipped to an arbitrary value.
        1 => {
            let mut bytes = doc.as_bytes().to_vec();
            if let Some(byte) = bytes.get_mut(cut) {
                *byte ^= u8::try_from(pick % 255 + 1).unwrap_or(1);
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        // Nesting around the reader's limit, or far past it.
        2 => {
            let depth = [MAX_DEPTH - 2, MAX_DEPTH, MAX_DEPTH + 1, 100_000][pick % 4];
            let (open, close) = if (pick / 4).is_multiple_of(2) {
                ("[", "]")
            } else {
                ("{\"k\":", "}")
            };
            format!("{}0{}", open.repeat(depth), close.repeat(depth))
        }
        // A long string value.
        3 => format!("\"{}\"", FILL.repeat(1 + pick * 16)),
        // Non-ASCII or syntax characters.
        _ => ODD[pick % ODD.len()].to_owned(),
    };
    let at = (0..=cut)
        .rev()
        .find(|&i| doc.is_char_boundary(i))
        .unwrap_or(0);
    format!("{}{splice}{}", &doc[..at], &doc[at..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every mutated trace parses or fails cleanly, and a trace that
    /// validates is JSON.
    #[test]
    fn mutated_traces_error_or_parse(
        count in 0usize..24,
        seed in 0u64..u64::MAX,
        kind in 0usize..5,
        at in 0u64..u64::MAX,
        pick in 0usize..1_000,
    ) {
        let doc = mutate(&chrome::export(&events(count, seed)), kind, at, pick);
        let parsed = json::parse(&doc);
        if chrome::validate(&doc).is_ok() {
            prop_assert!(parsed.is_ok(), "validated but not JSON: {doc:?}");
        }
    }

    /// Spliced into the event array, nesting parses exactly up to
    /// `MAX_DEPTH` (the document and the array hold two levels), and the
    /// trace stays invalid rather than crashing the validator.
    #[test]
    fn nesting_parses_exactly_up_to_the_limit(
        count in 0usize..8,
        seed in 0u64..u64::MAX,
        depth in 1usize..200,
    ) {
        let doc = chrome::export(&events(count, seed));
        let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        let doc = doc.replacen("\"traceEvents\":[", &format!("\"traceEvents\":[{nested},"), 1);
        prop_assert_eq!(json::parse(&doc).is_ok(), depth + 2 <= MAX_DEPTH);
        prop_assert!(chrome::validate(&doc).is_err());
    }

    /// A long string inside an event leaves the trace valid.
    #[test]
    fn long_strings_keep_a_trace_valid(
        count in 1usize..8,
        seed in 0u64..u64::MAX,
        repeats in 1usize..5_000,
    ) {
        let events = events(count, seed);
        let doc = chrome::export(&events);
        let long = format!("\"name\":\"{}", FILL.repeat(repeats));
        let doc = doc.replacen("\"name\":\"", &long, 1);
        prop_assert_eq!(chrome::validate(&doc), Ok(events.len()));
    }
}

/// One document per strict rule, beside a corrected twin that parses.
const STRICT_RULES: [(&str, &str, &str); 7] = [
    ("duplicate key", r#"{"a":1,"a":2}"#, r#"{"a":1,"b":2}"#),
    ("leading `.`", "[.5]", "[0.5]"),
    ("leading `+`", "[+1]", "[1]"),
    ("raw control character", "[\"a\u{1}b\"]", r#"["a\u0001b"]"#),
    ("lone surrogate", r#"["\ud800"]"#, r#"["\u00e9"]"#),
    ("signed \\u escape", r#"["\u+041"]"#, r#"["\u0041"]"#),
    ("short \\u escape", r#"["\u41"]"#, r#"["\u0041"]"#),
];

#[test]
fn each_strict_rule_rejects_its_case() {
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let cases = STRICT_RULES
        .iter()
        .map(|&(rule, bad, good)| (rule, bad.to_owned(), good.to_owned()))
        .chain([("nesting", nested(MAX_DEPTH + 1), nested(MAX_DEPTH))]);
    for (rule, bad, good) in cases {
        assert!(json::parse(&bad).is_err(), "{rule}: accepted {bad:?}");
        assert!(json::parse(&good).is_ok(), "{rule}: rejected {good:?}");
        let trace = format!(r#"{{"traceEvents":[{{"ph":"M","args":{bad}}}]}}"#);
        assert!(chrome::validate(&trace).is_err(), "{rule}: validated");
    }
}
