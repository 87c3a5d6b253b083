//! Structural digests and subtree aggregation.
//!
//! Two subtrees are *structurally identical* when they differ at most in
//! display names: same level, same feed capacity, same backup provisioning,
//! same consumer payloads, and structurally identical children with the
//! same multiplicities. [`unit_digest`] captures that identity as a stable
//! 128-bit fingerprint over the typed [`StableHash`] encoding of those
//! fields (the machinery behind [`dcb_fleet::Scenario`] memoization keys),
//! and [`collapse`] normalizes a tree by merging equal-digest siblings into
//! one node with a summed multiplicity — the transform that lets a
//! million-server datacenter resolve in thousands of node-steps.

use crate::node::{Body, Node, Topology};
use dcb_units::{StableHash, StableHasher};

/// The structural fingerprint of *one copy* of a subtree.
///
/// Display names are deliberately excluded so that `rack#0 … rack#39`
/// produced by [`Node::expand`] collapse back into one aggregated node.
/// The node's own multiplicity is also excluded (it says how many copies
/// exist, not what a copy is), but children's multiplicities are included
/// because they shape the copy's interior.
#[must_use]
pub fn unit_digest(node: &Node) -> u128 {
    match &node.body {
        Body::Consumer(_) => node_digest(node, std::iter::empty()),
        Body::Group(children) => node_digest(
            node,
            children
                .iter()
                .map(|child| (child.multiplicity, unit_digest(child))),
        ),
    }
}

/// One copy of `node`, given the `(multiplicity, unit digest)` of each of
/// its children (none for a consumer).
fn node_digest(node: &Node, children: impl ExactSizeIterator<Item = (u32, u128)>) -> u128 {
    let Node {
        name: _,
        level,
        multiplicity: _,
        feed_capacity,
        backup,
        body,
    } = node;
    let mut hasher = StableHasher::new();
    level.stable_hash(&mut hasher);
    feed_capacity.stable_hash(&mut hasher);
    backup.stable_hash(&mut hasher);
    match body {
        Body::Consumer(consumer) => {
            0u8.stable_hash(&mut hasher);
            consumer.stable_hash(&mut hasher);
        }
        Body::Group(_) => {
            1u8.stable_hash(&mut hasher);
            (children.len() as u64).stable_hash(&mut hasher);
            for (multiplicity, digest) in children {
                multiplicity.stable_hash(&mut hasher);
                hasher.write_bytes(&digest.to_le_bytes());
            }
        }
    }
    hasher.finish()
}

/// Canonicalizes a subtree: children collapse recursively, then siblings
/// with equal [`unit_digest`]s merge into one node with their
/// multiplicities summed (first-seen sibling order is preserved, so
/// deficit allocation order is unchanged — equal digests imply equal
/// priorities, making merged copies interchangeable). A sibling whose
/// count would push the merged multiplicity past `u32::MAX` merges into
/// the next equal sibling with room, or stays a sibling of its own.
#[must_use]
pub fn collapse(node: &Node) -> Node {
    collapse_digested(node).0
}

/// [`collapse`], returning the collapsed node's [`unit_digest`] too: each
/// node is hashed once, from its merged children's digests.
fn collapse_digested(node: &Node) -> (Node, u128) {
    let (body, digest) = match &node.body {
        Body::Consumer(consumer) => (
            Body::Consumer(consumer.clone()),
            node_digest(node, std::iter::empty()),
        ),
        Body::Group(children) => {
            let mut merged: Vec<(u128, Node)> = Vec::with_capacity(children.len());
            for child in children {
                let (child, digest) = collapse_digested(child);
                let room = merged.iter_mut().find(|(d, existing)| {
                    *d == digest
                        && existing
                            .multiplicity
                            .checked_add(child.multiplicity)
                            .is_some()
                });
                match room {
                    Some((_, existing)) => existing.multiplicity += child.multiplicity,
                    None => merged.push((digest, child)),
                }
            }
            let digest = node_digest(
                node,
                merged
                    .iter()
                    .map(|(digest, child)| (child.multiplicity, *digest)),
            );
            let body = Body::Group(merged.into_iter().map(|(_, child)| child).collect());
            (body, digest)
        }
    };
    let collapsed = Node {
        name: node.name.clone(),
        level: node.level,
        multiplicity: node.multiplicity,
        feed_capacity: node.feed_capacity,
        backup: node.backup.clone(),
        body,
    };
    (collapsed, digest)
}

impl Topology {
    /// The canonical aggregated form of this topology (see [`collapse`]).
    #[must_use]
    pub fn collapse(&self) -> Topology {
        Topology::new(collapse(&self.root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Consumer, DeficitPolicy, Level};
    use dcb_power::BackupConfig;
    use dcb_sim::{Cluster, Technique};
    use dcb_units::Watts;
    use dcb_workload::Workload;

    fn rack(name: &str) -> Node {
        Node::consumer(
            name,
            Level::Rack,
            Consumer::new(
                Cluster::rack(Workload::specjbb()),
                Technique::ride_through(),
            ),
        )
    }

    #[test]
    fn names_do_not_affect_the_digest() {
        assert_eq!(unit_digest(&rack("a")), unit_digest(&rack("b")));
    }

    #[test]
    fn structure_does_affect_the_digest() {
        let consumer = || {
            Consumer::new(
                Cluster::rack(Workload::specjbb()),
                Technique::ride_through(),
            )
        };
        let with = |consumer: Consumer| Node::consumer("r", Level::Rack, consumer);
        let group =
            |multiplicity| Node::group("g", Level::Cluster, vec![rack("r").times(multiplicity)]);
        let variants = [
            ("base", rack("r")),
            ("level", Node::consumer("r", Level::Server, consumer())),
            (
                "feed_capacity",
                rack("r").with_feed_capacity(Watts::new(1000.0)),
            ),
            ("backup", rack("r").with_backup(BackupConfig::no_dg())),
            (
                "consumer.cluster",
                with(Consumer::new(
                    Cluster::rack(Workload::memcached()),
                    Technique::ride_through(),
                )),
            ),
            (
                "consumer.technique",
                with(Consumer::new(
                    Cluster::rack(Workload::specjbb()),
                    Technique::sleep(),
                )),
            ),
            ("consumer.priority", with(consumer().with_priority(3))),
            (
                "consumer.on_deficit",
                with(
                    consumer().with_deficit_policy(DeficitPolicy::Brownout(
                        Technique::throttle_deepest(),
                    )),
                ),
            ),
            (
                "consumer.on_deficit.fallback",
                with(consumer().with_deficit_policy(DeficitPolicy::Brownout(Technique::sleep()))),
            ),
            ("group", group(1)),
            ("group.child_multiplicity", group(2)),
            (
                "group.children",
                Node::group("g", Level::Cluster, vec![rack("r"), rack("s")]),
            ),
        ];
        for (i, (name_a, a)) in variants.iter().enumerate() {
            for (name_b, b) in &variants[i + 1..] {
                assert_ne!(
                    unit_digest(a),
                    unit_digest(b),
                    "`{name_a}` and `{name_b}` share a digest"
                );
            }
        }
    }

    #[test]
    fn expansion_collapses_back() {
        let aggregated = Node::group("c", Level::Cluster, vec![rack("r").times(40)]);
        let explicit = Node::group(
            "c",
            Level::Cluster,
            (0..40).map(|i| rack(&format!("r{i}"))).collect(),
        );
        let collapsed = collapse(&explicit);
        assert_eq!(unit_digest(&collapsed), unit_digest(&aggregated));
        match &collapsed.body {
            Body::Group(children) => {
                assert_eq!(children.len(), 1);
                assert_eq!(children[0].multiplicity, 40);
            }
            Body::Consumer(_) => unreachable!("collapsed group stays a group"),
        }
    }

    #[test]
    fn unequal_siblings_stay_separate() {
        let web = rack("web");
        let batch = Node::consumer(
            "batch",
            Level::Rack,
            Consumer::new(Cluster::rack(Workload::spec_cpu()), Technique::hibernate()),
        );
        let group = Node::group("c", Level::Cluster, vec![web, batch]);
        let collapsed = collapse(&group);
        match &collapsed.body {
            Body::Group(children) => assert_eq!(children.len(), 2),
            Body::Consumer(_) => unreachable!(),
        }
    }

    #[test]
    fn multiplicities_merge_additively() {
        let group = Node::group(
            "c",
            Level::Cluster,
            vec![rack("a").times(3), rack("b").times(4)],
        );
        let collapsed = collapse(&group);
        match &collapsed.body {
            Body::Group(children) => {
                assert_eq!(children.len(), 1);
                assert_eq!(children[0].multiplicity, 7);
            }
            Body::Consumer(_) => unreachable!(),
        }
    }
}
