//! Property test for the collapsed-stack render: over arbitrary profiles
//! built from a safe frame-name alphabet, every line is
//! `frame;…;[label] weight` with legal frame names, the lines are sorted
//! and no stack repeats, and each kind's weights sum to the profile's
//! total. This is the determinism keystone for the profiler:
//! byte-identical exports across `DCB_THREADS` reduce to canonical
//! per-line rendering plus the sorted line order.

use dcb_prof::collapsed;
use dcb_prof::{ProfNode, Profile, WorkKind};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn render_is_canonical_and_tallies_to_the_totals(seed in 0u64..=u64::MAX) {
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
        prop_assert!(text.is_empty() || text.ends_with('\n'), "{text:?}");
        let lines: Vec<&str> = text.lines().collect();
        prop_assert!(lines.windows(2).all(|pair| pair[0] < pair[1]), "unsorted:\n{text}");

        let mut totals = [0u64; 5];
        let mut stacks = BTreeSet::new();
        for line in &lines {
            let (stack, weight_text) = line.rsplit_once(' ').unwrap_or(("", line));
            let weight = weight_text.parse::<u64>().unwrap_or(0);
            prop_assert!(weight > 0, "{line:?}: weight is not a positive integer");
            prop_assert!(weight.to_string() == weight_text, "{line:?}: weight is not canonical");
            let mut frames: Vec<&str> = stack.split(';').collect();
            let leaf = frames.pop().unwrap_or_default();
            let kind = WorkKind::ALL
                .iter()
                .position(|kind| leaf == format!("[{}]", kind.label()));
            prop_assert!(kind.is_some(), "{line:?}: leaf {leaf:?} is not a [kind] frame");
            for frame in frames {
                prop_assert!(
                    !frame.is_empty() && !frame.contains([' ', '\t', '\n', '[', ']']),
                    "{line:?}: illegal frame name {frame:?}"
                );
            }
            prop_assert!(stacks.insert(stack), "{line:?}: stack repeats");
            totals[kind.unwrap_or(0)] += weight;
        }
        prop_assert!(!text.contains('\r'), "{text:?}");
        for (kind, total) in WorkKind::ALL.into_iter().zip(totals) {
            prop_assert_eq!(total, profile.total(kind));
        }
    }
}
