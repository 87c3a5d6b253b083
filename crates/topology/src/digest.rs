//! Structural digests, merge keys and the merged view.
//!
//! Two subtrees are *structurally identical* when they differ at most in
//! display names: same level, same feed capacity, same backup provisioning,
//! same consumer payloads, and structurally identical children with the
//! same multiplicities. [`unit_digest`] captures that identity as a stable
//! 128-bit FNV-1a fingerprint over the typed [`StableHash`] encoding of
//! those fields (the machinery behind [`dcb_fleet::Scenario`] memoization
//! keys): it is the published digest, printed by tools and pinned by
//! tests.
//!
//! The resolver merges without copying the tree. Its merged view walks
//! the document tree once, bottom-up, and gives each node its merged
//! multiplicity, unit demand, priority, server count and merge key:
//! siblings with equal merge keys stand as one entry, borrowed from the
//! first of them, with their multiplicities summed. The merge key is the
//! same identity absorbed word-wise ([`StableHasher::words`]): it groups
//! exactly as [`unit_digest`] does at a fraction of the cost, and never
//! leaves the process. [`collapse`] is that view written out as owned
//! nodes — the transform that lets a million-server datacenter resolve in
//! thousands of node-steps.

use crate::node::{Body, Node, Topology};
use dcb_units::{StableHash, StableHasher, Watts};

/// The structural fingerprint of *one copy* of a subtree.
///
/// Display names are deliberately excluded so that `rack#0 … rack#39`
/// produced by [`Node::expand`] collapse back into one aggregated node.
/// The node's own multiplicity is also excluded (it says how many copies
/// exist, not what a copy is), but children's multiplicities are included
/// because they shape the copy's interior.
#[must_use]
pub fn unit_digest(node: &Node) -> u128 {
    let children = match &node.body {
        Body::Consumer(_) => [].iter(),
        Body::Group(children) => children.iter(),
    };
    node_hash(
        StableHasher::new(),
        node,
        children.map(|child| (child.multiplicity, unit_digest(child))),
    )
}

/// The in-process identity of one copy of `node`, given the
/// `(multiplicity, merge key)` of each of its merged children (none for a
/// consumer): [`unit_digest`]'s encoding, absorbed word-wise.
fn merge_key(node: &Node, children: impl ExactSizeIterator<Item = (u32, u128)>) -> u128 {
    node_hash(StableHasher::words(), node, children)
}

/// One copy of `node` absorbed into `hasher`, given the `(multiplicity,
/// fingerprint)` of each of its children (none for a consumer).
fn node_hash(
    mut hasher: StableHasher,
    node: &Node,
    children: impl ExactSizeIterator<Item = (u32, u128)>,
) -> u128 {
    let Node {
        name: _,
        level,
        multiplicity: _,
        feed_capacity,
        backup,
        body,
    } = node;
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
            for (multiplicity, fingerprint) in children {
                multiplicity.stable_hash(&mut hasher);
                hasher.write_bytes(&fingerprint.to_le_bytes());
            }
        }
    }
    hasher.finish()
}

/// A borrowed view of a document tree: each entry stands for one node,
/// or for a run of equal siblings merged into the first of them.
#[derive(Debug)]
pub(crate) struct View<'a> {
    /// The document node this entry stands for (the first of the merged
    /// siblings): its name, level, feed capacity, backup and payload.
    pub(crate) node: &'a Node,
    /// How many copies exist: the node's own multiplicity, summed over
    /// the siblings merged into it.
    pub(crate) multiplicity: u32,
    /// Nameplate peak demand of one copy.
    pub(crate) unit_demand: Watts,
    /// Highest shedding priority (lowest number) of any consumer in one
    /// copy.
    pub(crate) priority: u8,
    /// Servers in one copy.
    pub(crate) unit_servers: u64,
    /// The merge key of one copy (0 in an unmerged view).
    key: u128,
    /// The merged children (none for a consumer).
    pub(crate) children: Vec<View<'a>>,
}

impl<'a> View<'a> {
    /// The merged view: siblings merge by [`collapse`]'s rule, compared
    /// by merge key.
    pub(crate) fn merged(node: &'a Node) -> Self {
        Self::build(node, true)
    }

    /// The view of every node as it stands, merging nothing.
    pub(crate) fn unmerged(node: &'a Node) -> Self {
        Self::build(node, false)
    }

    fn build(node: &'a Node, merge: bool) -> Self {
        let children = match &node.body {
            Body::Consumer(consumer) => {
                return Self {
                    node,
                    multiplicity: node.multiplicity,
                    unit_demand: consumer.cluster.peak_power(),
                    priority: consumer.priority,
                    unit_servers: u64::from(consumer.cluster.size()),
                    key: if merge {
                        merge_key(node, std::iter::empty())
                    } else {
                        0
                    },
                    children: Vec::new(),
                };
            }
            Body::Group(children) => children,
        };
        let mut merged: Vec<View<'a>> = Vec::with_capacity(children.len());
        for child in children {
            let child = Self::build(child, merge);
            let room = if merge {
                merged.iter_mut().find(|existing| {
                    existing.key == child.key
                        && existing
                            .multiplicity
                            .checked_add(child.multiplicity)
                            .is_some()
                })
            } else {
                None
            };
            match room {
                Some(existing) => existing.multiplicity += child.multiplicity,
                None => merged.push(child),
            }
        }
        let key = if merge {
            merge_key(
                node,
                merged.iter().map(|child| (child.multiplicity, child.key)),
            )
        } else {
            0
        };
        Self {
            node,
            multiplicity: node.multiplicity,
            unit_demand: merged.iter().map(View::demand).sum(),
            priority: merged
                .iter()
                .map(|child| child.priority)
                .min()
                .unwrap_or(u8::MAX),
            // Saturating: `collapse` takes unvalidated trees too, and a
            // validated tree's counts fit.
            unit_servers: merged
                .iter()
                .fold(0, |sum: u64, child| sum.saturating_add(child.servers())),
            key,
            children: merged,
        }
    }

    /// Nameplate peak demand of all copies together.
    pub(crate) fn demand(&self) -> Watts {
        self.unit_demand * f64::from(self.multiplicity)
    }

    /// Servers in all copies together.
    pub(crate) fn servers(&self) -> u64 {
        self.unit_servers
            .saturating_mul(u64::from(self.multiplicity))
    }

    /// This entry written out as an owned node, named after the first of
    /// its merged siblings.
    fn to_node(&self) -> Node {
        let Node {
            name,
            level,
            multiplicity: _,
            feed_capacity,
            backup,
            body,
        } = self.node;
        Node {
            name: name.clone(),
            level: *level,
            multiplicity: self.multiplicity,
            feed_capacity: *feed_capacity,
            backup: backup.clone(),
            body: match body {
                Body::Consumer(consumer) => Body::Consumer(consumer.clone()),
                Body::Group(_) => Body::Group(self.children.iter().map(View::to_node).collect()),
            },
        }
    }
}

/// Canonicalizes a subtree: children collapse recursively, then siblings
/// with equal [`unit_digest`]s merge into one node with their
/// multiplicities summed (first-seen sibling order is preserved, so
/// deficit allocation order is unchanged — equal digests imply equal
/// priorities, making merged copies interchangeable). A sibling whose
/// count would push the merged multiplicity past `u32::MAX` merges into
/// the next equal sibling with room, or stays a sibling of its own.
///
/// This is the resolver's merged view written out as owned nodes; the
/// view compares word-wise merge keys, which group exactly as the
/// digests do.
#[must_use]
pub fn collapse(node: &Node) -> Node {
    View::merged(node).to_node()
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
