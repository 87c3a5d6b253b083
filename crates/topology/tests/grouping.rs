//! `collapse` groups siblings exactly as their name-blind `Debug`
//! renderings do.
//!
//! The structural fingerprint ([`unit_digest`]) hashes each field's typed
//! encoding; this suite keeps the `Debug` text as an independent oracle
//! and checks, over random small trees with repeated and near-repeated
//! payloads, that both agree on which subtrees are the same — and so
//! that the collapsed tree keeps the same multiplicities and child order.

use dcb_power::BackupConfig;
use dcb_server::ServerSpec;
use dcb_sim::{Cluster, Technique};
use dcb_topology::{collapse, unit_digest, Body, Consumer, DeficitPolicy, Level, Node};
use dcb_units::Watts;
use dcb_workload::Workload;
use proptest::prelude::*;
use proptest::TestRng;

/// One copy's `Debug` text with every display name blanked and the
/// node's own multiplicity cleared: what the fingerprint must capture.
fn oracle_key(node: &Node) -> String {
    fn blank_names(node: &mut Node) {
        node.name.clear();
        if let Body::Group(children) = &mut node.body {
            children.iter_mut().for_each(blank_names);
        }
    }
    let mut blind = node.clone();
    blind.multiplicity = 1;
    blank_names(&mut blind);
    format!("{blind:?}")
}

/// `collapse` with the oracle key in place of the digest.
fn oracle_collapse(node: &Node) -> Node {
    let mut out = node.clone();
    if let Body::Group(children) = &node.body {
        let mut merged: Vec<(String, Node)> = Vec::new();
        for child in children.iter().map(oracle_collapse) {
            let key = oracle_key(&child);
            match merged.iter_mut().find(|(k, _)| *k == key) {
                Some((_, existing)) => existing.multiplicity += child.multiplicity,
                None => merged.push((key, child)),
            }
        }
        out.body = Body::Group(merged.into_iter().map(|(_, child)| child).collect());
    }
    out
}

fn pick<T: Clone>(rng: &mut TestRng, options: &[T]) -> T {
    options[rng.index(options.len())].clone()
}

fn small_count(rng: &mut TestRng) -> u32 {
    pick(rng, &[1, 1, 2, 3])
}

fn leaf(rng: &mut TestRng) -> Node {
    let cluster = pick(
        rng,
        &[
            Cluster::rack(Workload::specjbb()),
            Cluster::rack(Workload::memcached()),
            Cluster::new(8, ServerSpec::paper_testbed(), Workload::specjbb()),
        ],
    );
    let technique = pick(
        rng,
        &[
            Technique::ride_through(),
            Technique::sleep(),
            Technique::throttle_deepest(),
        ],
    );
    let policy = pick(
        rng,
        &[
            DeficitPolicy::Shed,
            DeficitPolicy::Brownout(Technique::throttle_deepest()),
            DeficitPolicy::Brownout(Technique::sleep()),
        ],
    );
    let priority = pick(rng, &[0u8, 0, 1]);
    let consumer = Consumer::new(cluster, technique)
        .with_priority(priority)
        .with_deficit_policy(policy);
    let mut node = Node::consumer(format!("leaf{}", rng.index(100)), Level::Rack, consumer)
        .times(small_count(rng));
    decorate(rng, &mut node);
    node
}

/// Optional feed capacity and backup, from pools that include values
/// `Debug` and bit patterns both tell apart (`0.0` against `-0.0`, the
/// same configuration under another label).
fn decorate(rng: &mut TestRng, node: &mut Node) {
    node.feed_capacity = pick(
        rng,
        &[
            None,
            None,
            Some(Watts::new(4_000.0)),
            Some(Watts::new(0.0)),
            Some(Watts::new(-0.0)),
        ],
    );
    node.backup = pick(
        rng,
        &[
            None,
            None,
            None,
            Some(BackupConfig::max_perf()),
            Some(BackupConfig::max_perf().with_label("MaxPerf ")),
        ],
    );
}

/// A sibling that is a renamed copy of `node`, or a copy with one field
/// nudged.
fn sibling_of(rng: &mut TestRng, node: &Node) -> Node {
    let mut copy = node.clone();
    copy.name = format!("copy{}", rng.index(100));
    copy.multiplicity = small_count(rng);
    match rng.index(6) {
        0 => copy.feed_capacity = Some(Watts::new(-0.0)),
        1 => copy.feed_capacity = Some(Watts::new(0.0)),
        2 => {
            if let Body::Consumer(consumer) = &mut copy.body {
                consumer.priority ^= 1;
            }
        }
        3 => {
            if let Body::Group(children) = &mut copy.body {
                if let Some(first) = children.first_mut() {
                    first.multiplicity += 1;
                }
            }
        }
        _ => {}
    }
    copy
}

fn tree(rng: &mut TestRng, depth: usize) -> Node {
    if depth == 0 || rng.index(4) == 0 {
        return leaf(rng);
    }
    let mut children: Vec<Node> = Vec::new();
    for _ in 0..1 + rng.index(5) {
        let child = match children.len() {
            0 => tree(rng, depth - 1),
            n if rng.index(3) > 0 => {
                let original = children[rng.index(n)].clone();
                sibling_of(rng, &original)
            }
            _ => tree(rng, depth - 1),
        };
        children.push(child);
    }
    let level = pick(rng, &[Level::Cluster, Level::Cluster, Level::Datacenter]);
    let mut node =
        Node::group(format!("group{}", rng.index(100)), level, children).times(small_count(rng));
    decorate(rng, &mut node);
    node
}

fn subtrees<'a>(node: &'a Node, out: &mut Vec<&'a Node>) {
    out.push(node);
    if let Body::Group(children) = &node.body {
        for child in children {
            subtrees(child, out);
        }
    }
}

/// Where two `Debug` renderings first part, as the field name in front
/// of the difference (empty when they are equal).
fn first_difference(a: &str, b: &str) -> String {
    let Some(at) = a.bytes().zip(b.bytes()).position(|(x, y)| x != y) else {
        return String::new();
    };
    let head = &a[..at];
    let field = head
        .rfind(": ")
        .map(|colon| {
            let start = head[..colon]
                .rfind(|c: char| !(c.is_alphanumeric() || c == '_'))
                .map_or(0, |i| i + 1);
            &head[start..colon]
        })
        .unwrap_or("");
    format!(
        "field `{field}` near `{}`",
        &head[head.len().saturating_sub(60)..]
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Fingerprints agree with the oracle on every pair of subtrees, and
    /// `collapse` builds exactly the oracle's tree: the same nodes, the
    /// same merged multiplicities, the same child order.
    #[test]
    fn collapse_groups_as_debug_text_does(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seeded(seed);
        let root = tree(&mut rng, 3);
        let mut nodes = Vec::new();
        subtrees(&root, &mut nodes);
        let keyed: Vec<(u128, String)> =
            nodes.iter().map(|node| (unit_digest(node), oracle_key(node))).collect();
        for (i, (digest_a, key_a)) in keyed.iter().enumerate() {
            for (digest_b, key_b) in &keyed[i + 1..] {
                prop_assert_eq!(
                    digest_a == digest_b,
                    key_a == key_b,
                    "fingerprint and Debug text disagree ({})",
                    first_difference(key_a, key_b)
                );
            }
        }
        prop_assert_eq!(collapse(&root), oracle_collapse(&root));
    }
}

#[test]
fn generated_trees_repeat_payloads() {
    // The generator must actually produce merges for the property to
    // bite: count trees whose collapse merged at least one sibling.
    let mut merging = 0;
    for seed in 0..64 {
        let root = tree(&mut TestRng::seeded(seed), 3);
        let mut before = Vec::new();
        subtrees(&root, &mut before);
        let collapsed = collapse(&root);
        let mut after = Vec::new();
        subtrees(&collapsed, &mut after);
        if after.len() < before.len() {
            merging += 1;
        }
    }
    assert!(merging >= 16, "only {merging} of 64 trees merged siblings");
}
