//! Property tests for the canonical event line encoding: for arbitrary
//! events — including payload strings drawn from a hostile character pool
//! (quotes, backslashes, control characters, `=`, unicode) — `encode →
//! parse → re-encode` must reproduce the original event and the original
//! bytes exactly. This is the determinism keystone: byte-identical traces
//! across `DCB_THREADS` settings reduce to byte-identical per-event lines.
//!
//! Hostile input: a canonical line after one mutation (a truncation, a
//! deleted character, or a delimiter, escape, digit or non-ASCII text
//! inserted or put in place of a character) must parse or fail cleanly,
//! never panic, and a line that parses must re-encode and re-parse to the
//! same event.

mod common;

use common::kind_from;
use dcb_trace::{chrome, Event};
use proptest::prelude::*;

/// Text the hostile mutations splice in: the line's field delimiters, the
/// escaper's escapes, digits and signs, and non-ASCII characters.
const SPLICE: [&str; 18] = [
    " ",
    "=",
    "\"",
    "-",
    "\\",
    "\\\"",
    "\\n",
    "\\u{1}",
    "\\u{001f}",
    "\\u{d800}",
    "\\u{110000}",
    "0",
    "9",
    "+",
    "é",
    "∞",
    "🔋",
    "\u{feff}",
];

/// `line` after one mutation at the character boundary `at` selects:
/// truncation there, deletion of the character there, or insertion or
/// replacement of that character by the splice `pick` selects.
fn mutate(line: &str, kind: usize, at: u64, pick: usize) -> String {
    let bounds: Vec<usize> = line
        .char_indices()
        .map(|(i, _)| i)
        .chain([line.len()])
        .collect();
    let i = bounds[usize::try_from(at % bounds.len() as u64).unwrap_or(0)];
    let next = bounds.iter().copied().find(|&b| b > i).unwrap_or(i);
    let splice = SPLICE[pick % SPLICE.len()];
    match kind % 4 {
        0 => line[..i].to_owned(),
        1 => format!("{}{}", &line[..i], &line[next..]),
        2 => format!("{}{splice}{}", &line[..i], &line[i..]),
        _ => format!("{}{splice}{}", &line[..i], &line[next..]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(768))]

    #[test]
    fn encode_parse_reencode_is_byte_identical(
        lane in 0u64..=u64::MAX,
        seq in 0u32..=u32::MAX,
        parent_bits in 0u64..=u64::MAX,
        at_bits in 0u64..=u64::MAX,
        dur in 0u64..=u64::MAX,
        selector in 0u8..12,
        bits in 0u64..=u64::MAX,
        number in 0u64..=u64::MAX,
    ) {
        let event = Event {
            lane,
            seq,
            parent: (parent_bits & 1 == 1).then_some((parent_bits >> 1) as u32),
            at_us: (at_bits & 1 == 1).then_some(at_bits >> 1),
            dur_us: dur,
            kind: kind_from(selector, bits, number),
        };
        let line = event.encode();
        let parsed = Event::parse(&line);
        prop_assert!(parsed.is_ok(), "canonical line failed to parse: {line:?}");
        let parsed = parsed.unwrap();
        prop_assert_eq!(&parsed, &event);
        prop_assert_eq!(parsed.encode(), line);
    }

    #[test]
    fn mutated_lines_error_or_round_trip(
        lane in 0u64..=u64::MAX,
        seq in 0u32..=u32::MAX,
        selector in 0u8..12,
        bits in 0u64..=u64::MAX,
        number in 0u64..=u64::MAX,
        kind in 0usize..4,
        at in 0u64..=u64::MAX,
        pick in 0usize..1_000,
    ) {
        let event = Event {
            lane,
            seq,
            parent: (bits & 2 == 2).then_some((bits >> 2) as u32),
            at_us: (bits & 4 == 4).then_some(number >> 1),
            dur_us: number,
            kind: kind_from(selector, bits, number),
        };
        let line = mutate(&event.encode(), kind, at, pick);
        if let Ok(parsed) = Event::parse(&line) {
            let encoded = parsed.encode();
            prop_assert_eq!(Event::parse(&encoded), Ok(parsed), "{:?} re-encoded as {:?}", line, encoded);
        }
    }

    #[test]
    fn arbitrary_event_sets_export_valid_chrome_traces(
        count in 0usize..40,
        seed in 0u64..=u64::MAX,
    ) {
        let mut cursor = seed;
        let mut next = || {
            cursor = cursor.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1442695040888963407);
            cursor
        };
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let bits = next();
            let number = next();
            let at = next();
            events.push(Event {
                // A few lanes so the exporter exercises multiple tracks.
                lane: (next() % 3) << 32,
                seq: i as u32,
                parent: (bits & 2 == 2).then_some((bits >> 2) as u32),
                // Bounded timestamps keep f64 round-trips in the validator exact.
                at_us: (at & 1 == 1).then_some((at >> 1) % (1 << 50)),
                dur_us: next() % (1 << 50),
                kind: kind_from((bits % 12) as u8, bits, number),
            });
        }
        let document = chrome::export(&events);
        let validated = chrome::validate(&document);
        prop_assert!(validated.is_ok(), "invalid trace: {:?}", validated);
        prop_assert_eq!(validated.unwrap(), events.len());
    }
}
