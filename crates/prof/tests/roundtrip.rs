//! Property tests for the collapsed-stack encoding: arbitrary profiles
//! built from a safe frame-name alphabet must satisfy `render → parse →
//! encode` byte-identity, and parsed lines must tally to the same
//! per-kind totals as the profile they came from. This is the
//! determinism keystone for the profiler: byte-identical exports across
//! `DCB_THREADS` reduce to canonical per-line encoding plus the sorted
//! line order.
//!
//! Hostile input: a rendered profile after one mutation (a truncation, a
//! deleted character, or a delimiter, escape, digit or non-ASCII text
//! inserted or put in place of a character) must parse or fail cleanly,
//! never panic, and text that parses must re-parse from its encoding to
//! the same lines.

use dcb_prof::collapsed::{self, CollapsedLine};
use dcb_prof::{ProfNode, Profile, WorkKind};
use proptest::prelude::*;

/// Legal frame-name characters (no `;`, whitespace, or brackets).
const POOL: &[char] = &[
    'a', 'k', 'z', 'A', 'Q', '0', '7', '-', '_', '.', ':', '/', '±',
];

/// Builds a 1–10 character frame name from 64 selector bits.
fn name_from(bits: u64) -> String {
    let len = 1 + (bits % 10) as usize;
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

/// Builds a small random attribution tree: up to `budget` nodes, each
/// with weights drawn from the selector stream.
fn tree_from(seed: u64, budget: &mut u32, depth: u32) -> ProfNode {
    let mut cursor = seed;
    let mut next = || {
        cursor = cursor
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        cursor
    };
    let mut weights = [0u64; 5];
    for w in &mut weights {
        let bits = next();
        // Mostly-zero weights exercise the "skip empty lines" path.
        *w = if bits & 3 == 0 {
            (bits >> 2) % 10_000
        } else {
            0
        };
    }
    let mut children = Vec::new();
    if depth < 4 {
        let fanout = (next() % 4) as u32;
        for _ in 0..fanout {
            if *budget == 0 {
                break;
            }
            *budget -= 1;
            children.push(tree_from(next(), budget, depth + 1));
        }
    }
    // Children must be unique by name and name-sorted, as snapshot()
    // guarantees; dedup keeps the invariant for colliding names.
    children.sort_by(|a: &ProfNode, b: &ProfNode| a.name.cmp(&b.name));
    children.dedup_by(|a, b| a.name == b.name);
    ProfNode {
        name: name_from(next()),
        weights,
        children,
    }
}

/// Text the hostile mutations splice in: the format's delimiters, line
/// breaks, an escape, digits and signs, and non-ASCII characters.
const SPLICE: [&str; 16] = [
    ";", " ", "[", "]", "\n", "\t", "\r", "\\", "0", "9", "-", "+", "é", "🔋", "\u{3000}",
    "\u{feff}",
];

/// `text` after one mutation at the character boundary `at` selects:
/// truncation there, deletion of the character there, or insertion or
/// replacement of that character by the splice `pick` selects.
fn mutate(text: &str, kind: usize, at: u64, pick: usize) -> String {
    let bounds: Vec<usize> = text
        .char_indices()
        .map(|(i, _)| i)
        .chain([text.len()])
        .collect();
    let i = bounds[usize::try_from(at % bounds.len() as u64).unwrap_or(0)];
    let next = bounds.iter().copied().find(|&b| b > i).unwrap_or(i);
    let splice = SPLICE[pick % SPLICE.len()];
    match kind % 4 {
        0 => text[..i].to_owned(),
        1 => format!("{}{}", &text[..i], &text[next..]),
        2 => format!("{}{splice}{}", &text[..i], &text[i..]),
        _ => format!("{}{splice}{}", &text[..i], &text[next..]),
    }
}

/// The lines in `encode`'s order, for comparing parses as multisets.
fn sorted(mut lines: Vec<CollapsedLine>) -> Vec<CollapsedLine> {
    lines.sort_by(|a, b| {
        (&a.frames, a.kind.label(), a.weight).cmp(&(&b.frames, b.kind.label(), b.weight))
    });
    lines
}

fn totals_of_lines(lines: &[CollapsedLine]) -> [u64; 5] {
    let mut totals = [0u64; 5];
    for line in lines {
        let idx = WorkKind::ALL
            .iter()
            .position(|k| *k == line.kind)
            .expect("kind in ALL");
        totals[idx] += line.weight;
    }
    totals
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_parse_encode_is_byte_identical(seed in 0u64..=u64::MAX) {
        let mut budget = 24u32;
        let root_body = tree_from(seed, &mut budget, 0);
        let profile = Profile {
            root: ProfNode {
                name: String::new(),
                weights: root_body.weights,
                children: root_body.children,
            },
        };
        let text = collapsed::render(&profile);
        let parsed = collapsed::parse(&text);
        prop_assert!(parsed.is_ok(), "canonical render failed to parse: {:?}", parsed);
        let parsed = parsed.unwrap();
        prop_assert_eq!(collapsed::encode(&parsed), text);

        // The parsed lines must tally to the profile's per-kind totals.
        let totals = totals_of_lines(&parsed);
        for kind in WorkKind::ALL {
            let idx = WorkKind::ALL.iter().position(|k| *k == kind).unwrap();
            prop_assert_eq!(totals[idx], profile.total(kind));
        }
    }

    #[test]
    fn encode_of_parsed_lines_is_a_fixed_point(seed in 0u64..=u64::MAX) {
        let mut cursor = seed;
        let mut next = || {
            cursor = cursor
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            cursor
        };
        let count = (next() % 12) as usize;
        let lines: Vec<CollapsedLine> = (0..count)
            .map(|_| {
                let frames = (0..(next() % 4)).map(|_| name_from(next())).collect();
                CollapsedLine {
                    frames,
                    kind: WorkKind::ALL[(next() % 5) as usize],
                    weight: next() % 1_000_000,
                }
            })
            .collect();
        let text = collapsed::encode(&lines);
        let reparsed = collapsed::parse(&text);
        prop_assert!(reparsed.is_ok(), "{:?}", reparsed);
        prop_assert_eq!(collapsed::encode(&reparsed.unwrap()), text);
    }

    #[test]
    fn mutated_profiles_error_or_round_trip(
        seed in 0u64..=u64::MAX,
        kind in 0usize..4,
        at in 0u64..=u64::MAX,
        pick in 0usize..1_000,
    ) {
        let mut budget = 12u32;
        let profile = Profile {
            root: tree_from(seed, &mut budget, 0),
        };
        let text = mutate(&collapsed::render(&profile), kind, at, pick);
        if let Ok(lines) = collapsed::parse(&text) {
            let reparsed = collapsed::parse(&collapsed::encode(&lines));
            prop_assert!(reparsed.is_ok(), "{text:?} re-encoded fails: {reparsed:?}");
            prop_assert_eq!(sorted(reparsed.unwrap()), sorted(lines), "{:?}", text);
        }
    }
}
