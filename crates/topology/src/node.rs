//! The typed power-graph model: a DC → cluster → rack → server tree of
//! producer/storage context and prioritized consumers.
//!
//! A [`Node`] either *consumes* power (a [`Consumer`] leaf: a server group
//! running one workload under one outage technique) or *distributes* it (a
//! group with children). Backup supply — the grid feed plus the diesel
//! generator and UPS battery described by a [`BackupConfig`] — attaches to
//! exactly one node on every root-to-leaf path; the edge feeding a node
//! from its parent may carry a capacity limit, which is what creates
//! deficits during an outage (see [`mod@crate::resolve`]).
//!
//! Identical sibling subtrees are represented once with a `multiplicity`
//! count instead of being repeated — the representation the aggregated
//! resolver exploits ([`crate::digest`]).

use core::fmt;
use dcb_power::BackupConfig;
use dcb_sim::{Cluster, Technique};
use dcb_units::{StableHash, StableHasher, Watts};
use dcb_workload::Workload;

/// The hierarchy level a node sits at (drives reporting and trace lanes;
/// the resolver itself is level-agnostic).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum Level {
    /// The facility root.
    Datacenter,
    /// A cluster (a PDU-scale group of racks).
    Cluster,
    /// A rack.
    Rack,
    /// An individual server group below rack granularity.
    Server,
}

impl Level {
    /// Every level, outermost first.
    pub const ALL: [Level; 4] = [
        Level::Datacenter,
        Level::Cluster,
        Level::Rack,
        Level::Server,
    ];

    /// Stable display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Level::Datacenter => "datacenter",
            Level::Cluster => "cluster",
            Level::Rack => "rack",
            Level::Server => "server",
        }
    }

    /// Position in [`Level::ALL`] (used for per-level trace lanes).
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Level::Datacenter => 0,
            Level::Cluster => 1,
            Level::Rack => 2,
            Level::Server => 3,
        }
    }
}

impl StableHash for Level {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let tag: u8 = match self {
            Level::Datacenter => 0,
            Level::Cluster => 1,
            Level::Rack => 2,
            Level::Server => 3,
        };
        tag.stable_hash(hasher);
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a consumer does when its subtree is in deficit and its allocation
/// falls below nameplate demand.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DeficitPolicy {
    /// Cut the group's power: servers crash and recover after the outage.
    Shed,
    /// Fall back to the given low-power technique if the allocation covers
    /// at least [`crate::resolve::BROWNOUT_FLOOR`] of nameplate; shed
    /// otherwise.
    Brownout(Technique),
}

impl StableHash for DeficitPolicy {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        match self {
            Self::Shed => 0u8.stable_hash(hasher),
            Self::Brownout(fallback) => {
                1u8.stable_hash(hasher);
                fallback.stable_hash(hasher);
            }
        }
    }
}

/// A prioritized consumer: a server group running one workload under one
/// outage-handling technique.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Consumer {
    /// The server group (size × spec × workload).
    pub cluster: Cluster,
    /// The technique executed when an outage strikes.
    pub technique: Technique,
    /// Shedding priority: lower numbers are served first under deficit.
    pub priority: u8,
    /// Response when the allocation cannot cover nameplate demand.
    pub on_deficit: DeficitPolicy,
}

impl Consumer {
    /// A consumer with default priority (0) that sheds under deficit.
    #[must_use]
    pub fn new(cluster: Cluster, technique: Technique) -> Self {
        Self {
            cluster,
            technique,
            priority: 0,
            on_deficit: DeficitPolicy::Shed,
        }
    }

    /// Sets the shedding priority (lower = served first).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deficit response.
    #[must_use]
    pub fn with_deficit_policy(mut self, policy: DeficitPolicy) -> Self {
        self.on_deficit = policy;
        self
    }
}

impl StableHash for Consumer {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            cluster,
            technique,
            priority,
            on_deficit,
        } = self;
        cluster.stable_hash(hasher);
        technique.stable_hash(hasher);
        priority.stable_hash(hasher);
        on_deficit.stable_hash(hasher);
    }
}

/// What a node is: a consumer leaf or a distribution group.
//
// A Consumer dwarfs the Group variant, but collapsed topologies hold a
// handful of nodes, so pattern-matching ergonomics beat boxing here.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Body {
    /// A consumer leaf.
    Consumer(Consumer),
    /// An internal distribution node with children.
    Group(Vec<Node>),
}

/// One node of the power graph.
///
/// `multiplicity` says how many identical copies of this subtree exist
/// side by side; [`crate::digest::collapse`] normalizes a tree so equal
/// siblings merge into one node with a summed multiplicity, and
/// [`Node::expand`] undoes it for the naive flat baseline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Node {
    /// Display name (reporting only; never part of the structural digest).
    pub name: String,
    /// Hierarchy level.
    pub level: Level,
    /// How many identical copies of this subtree exist (≥ 1).
    pub multiplicity: u32,
    /// Capacity of the edge feeding one copy from its parent, if limited.
    pub feed_capacity: Option<Watts>,
    /// Backup supply provisioned at this node for its whole subtree.
    pub backup: Option<BackupConfig>,
    /// Consumer payload or children.
    pub body: Body,
}

impl Node {
    /// A consumer leaf.
    #[must_use]
    pub fn consumer(name: impl Into<String>, level: Level, consumer: Consumer) -> Self {
        Self {
            name: name.into(),
            level,
            multiplicity: 1,
            feed_capacity: None,
            backup: None,
            body: Body::Consumer(consumer),
        }
    }

    /// An internal distribution node.
    #[must_use]
    pub fn group(name: impl Into<String>, level: Level, children: Vec<Node>) -> Self {
        Self {
            name: name.into(),
            level,
            multiplicity: 1,
            feed_capacity: None,
            backup: None,
            body: Body::Group(children),
        }
    }

    /// Sets the multiplicity (how many identical copies exist).
    #[must_use]
    pub fn times(mut self, multiplicity: u32) -> Self {
        self.multiplicity = multiplicity;
        self
    }

    /// Limits the capacity of the edge feeding each copy of this node.
    #[must_use]
    pub fn with_feed_capacity(mut self, capacity: Watts) -> Self {
        self.feed_capacity = Some(capacity);
        self
    }

    /// Provisions backup supply at this node for its subtree.
    #[must_use]
    pub fn with_backup(mut self, config: BackupConfig) -> Self {
        self.backup = Some(config);
        self
    }

    /// Nameplate peak demand of *one copy* of this subtree.
    #[must_use]
    pub fn unit_demand(&self) -> Watts {
        match &self.body {
            Body::Consumer(c) => c.cluster.peak_power(),
            Body::Group(children) => children.iter().map(Node::demand).sum(),
        }
    }

    /// Nameplate peak demand of all copies together.
    #[must_use]
    pub fn demand(&self) -> Watts {
        self.unit_demand() * f64::from(self.multiplicity)
    }

    /// Total servers in all copies of this subtree.
    #[must_use]
    pub fn servers(&self) -> u64 {
        let unit = match &self.body {
            Body::Consumer(c) => u64::from(c.cluster.size()),
            Body::Group(children) => children.iter().map(Node::servers).sum(),
        };
        unit * u64::from(self.multiplicity)
    }

    /// Number of nodes the fully expanded (multiplicity-free) tree has.
    #[must_use]
    pub fn explicit_nodes(&self) -> u64 {
        let below = match &self.body {
            Body::Consumer(_) => 0,
            Body::Group(children) => children.iter().map(Node::explicit_nodes).sum(),
        };
        u64::from(self.multiplicity) * (1 + below)
    }

    /// Number of nodes in this (possibly aggregated) representation.
    #[must_use]
    pub fn represented_nodes(&self) -> u64 {
        let below = match &self.body {
            Body::Consumer(_) => 0,
            Body::Group(children) => children.iter().map(Node::represented_nodes).sum(),
        };
        1 + below
    }

    /// The naive flat expansion: every multiplicity becomes that many
    /// explicit sibling copies (named `name#i`), recursively.
    #[must_use]
    pub fn expand(&self) -> Vec<Node> {
        let unit = Node {
            name: self.name.clone(),
            level: self.level,
            multiplicity: 1,
            feed_capacity: self.feed_capacity,
            backup: self.backup.clone(),
            body: match &self.body {
                Body::Consumer(c) => Body::Consumer(c.clone()),
                Body::Group(children) => {
                    Body::Group(children.iter().flat_map(Node::expand).collect())
                }
            },
        };
        (0..self.multiplicity)
            .map(|i| {
                let mut copy = unit.clone();
                if self.multiplicity > 1 {
                    copy.name = format!("{}#{i}", self.name);
                }
                copy
            })
            .collect()
    }
}

/// A validated power graph: one root node plus the invariants the
/// resolver relies on.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Topology {
    /// The root node (usually [`Level::Datacenter`]).
    pub root: Node,
}

/// A structural problem that makes a topology unresolvable.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum TopologyError {
    /// A consumer has no backup supply anywhere on its path to the root.
    MissingBackup {
        /// Path to the uncovered consumer ("dc/web/rack-0").
        path: String,
    },
    /// Two nodes on one root-to-leaf path both provision backup.
    NestedBackup {
        /// Path to the inner (offending) node.
        path: String,
    },
    /// A node claims zero copies.
    ZeroMultiplicity {
        /// Path to the offending node.
        path: String,
    },
    /// A distribution node has no children.
    EmptyGroup {
        /// Path to the offending node.
        path: String,
    },
    /// A feed-edge capacity is zero or negative.
    InvalidFeedCapacity {
        /// Path to the offending node.
        path: String,
    },
    /// The fully expanded subtree has more nodes or servers than a `u64`
    /// counts, or a level report's server sum would.
    CountOverflow {
        /// Path to the node whose expanded totals overflow.
        path: String,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::MissingBackup { path } => {
                write!(f, "{path}: no backup supply on the path from the root")
            }
            TopologyError::NestedBackup { path } => {
                write!(f, "{path}: backup nested under another backup node")
            }
            TopologyError::ZeroMultiplicity { path } => {
                write!(f, "{path}: multiplicity must be at least 1")
            }
            TopologyError::EmptyGroup { path } => {
                write!(f, "{path}: distribution node has no children")
            }
            TopologyError::InvalidFeedCapacity { path } => {
                write!(f, "{path}: feed capacity must be positive")
            }
            TopologyError::CountOverflow { path } => {
                write!(f, "{path}: expanded node or server count exceeds u64")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Wraps a root node.
    #[must_use]
    pub fn new(root: Node) -> Self {
        Self { root }
    }

    /// The degenerate single-path topology: one backup config at the DC
    /// root feeding one cluster → rack → consumer chain — semantically the
    /// flat scenario the `dcb-sim` kernel evaluates directly.
    #[must_use]
    pub fn single_path(cluster: Cluster, config: BackupConfig, technique: Technique) -> Self {
        let leaf = Node::consumer("rack", Level::Rack, Consumer::new(cluster, technique));
        let group = Node::group("cluster", Level::Cluster, vec![leaf]);
        let root = Node::group("dc", Level::Datacenter, vec![group]).with_backup(config);
        Self::new(root)
    }

    /// A uniform datacenter: `clusters` identical clusters of
    /// `racks_per_cluster` paper-testbed racks each, all running `workload`
    /// under `technique`, backed by `config` at the DC root — expressed in
    /// aggregated (multiplicity) form.
    #[must_use]
    pub fn uniform(
        clusters: u32,
        racks_per_cluster: u32,
        workload: Workload,
        config: BackupConfig,
        technique: Technique,
    ) -> Self {
        let rack = Node::consumer(
            "rack",
            Level::Rack,
            Consumer::new(Cluster::rack(workload), technique),
        )
        .times(racks_per_cluster);
        let cluster = Node::group("cluster", Level::Cluster, vec![rack]).times(clusters);
        let root = Node::group("dc", Level::Datacenter, vec![cluster]).with_backup(config);
        Self::new(root)
    }

    /// Checks the structural invariants the resolver relies on, and that
    /// the fully expanded tree's node and server totals, and each level's
    /// sum of servers below its nodes, fit in a `u64` — which bounds every
    /// count derived from them ([`Node::explicit_nodes`], [`Node::servers`],
    /// the resolver's stats and level reports).
    ///
    /// # Errors
    ///
    /// Returns the first [`TopologyError`] met in a depth-first walk: a
    /// node's own structure is checked before its children, its expanded
    /// totals after them.
    pub fn validate(&self) -> Result<(), TopologyError> {
        match validate_node(&self.root, false, 1, &mut [0; Level::ALL.len()]) {
            Ok(_) => Ok(()),
            Err(invalid) => Err(invalid.into_error()),
        }
    }

    /// The naive flat expansion of the whole topology.
    #[must_use]
    pub fn expand(&self) -> Topology {
        let mut copies = self.root.expand();
        #[expect(
            clippy::expect_used,
            reason = "len() == 1 guarantees an element to pop"
        )]
        let root = if copies.len() == 1 {
            copies.pop().expect("one expanded copy")
        } else {
            // A multiplicity > 1 root expands under a synthetic super-root.
            Node::group("root", self.root.level, copies)
        };
        Topology::new(root)
    }
}

/// Expanded totals of all copies of a subtree.
struct Totals {
    nodes: u64,
    servers: u64,
}

/// A validation failure on its way up to the root: the error to report
/// and the names from the offending node up, so the path is only
/// formatted when something is wrong.
struct Invalid<'a> {
    error: fn(String) -> TopologyError,
    names: Vec<&'a str>,
}

impl Invalid<'_> {
    fn into_error(self) -> TopologyError {
        let mut path = String::new();
        for name in self.names.iter().rev() {
            if !path.is_empty() {
                path.push('/');
            }
            path.push_str(name);
        }
        (self.error)(path)
    }
}

/// Validates `node`, of which `scale` copies of its parent exist in the
/// expanded tree, adding its servers to its level's sum in
/// `level_servers`.
fn validate_node<'a>(
    node: &'a Node,
    covered: bool,
    scale: u64,
    level_servers: &mut [u64; Level::ALL.len()],
) -> Result<Totals, Invalid<'a>> {
    let fail = |error: fn(String) -> TopologyError| Invalid {
        error,
        names: vec![node.name.as_str()],
    };
    if node.multiplicity == 0 {
        return Err(fail(|path| TopologyError::ZeroMultiplicity { path }));
    }
    if let Some(capacity) = node.feed_capacity {
        if !capacity.is_positive() {
            return Err(fail(|path| TopologyError::InvalidFeedCapacity { path }));
        }
    }
    let provisions = node.backup.is_some();
    if provisions && covered {
        return Err(fail(|path| TopologyError::NestedBackup { path }));
    }
    let covered = covered || provisions;
    let copies = u64::from(node.multiplicity);
    let unit = match &node.body {
        Body::Consumer(consumer) => {
            if !covered {
                return Err(fail(|path| TopologyError::MissingBackup { path }));
            }
            Some(Totals {
                nodes: 0,
                servers: u64::from(consumer.cluster.size()),
            })
        }
        Body::Group(children) => {
            if children.is_empty() {
                return Err(fail(|path| TopologyError::EmptyGroup { path }));
            }
            let mut below = Some(Totals {
                nodes: 0,
                servers: 0,
            });
            // A saturated scale can only mean the totals overflow too.
            let child_scale = scale.saturating_mul(copies);
            for child in children {
                let totals = validate_node(child, covered, child_scale, level_servers).map_err(
                    |mut invalid| {
                        invalid.names.push(&node.name);
                        invalid
                    },
                )?;
                below = below.and_then(|sum| {
                    Some(Totals {
                        nodes: sum.nodes.checked_add(totals.nodes)?,
                        servers: sum.servers.checked_add(totals.servers)?,
                    })
                });
            }
            below
        }
    };
    unit.and_then(|unit| {
        // One copy is the node itself plus everything below it.
        let totals = Totals {
            nodes: unit.nodes.checked_add(1)?.checked_mul(copies)?,
            servers: unit.servers.checked_mul(copies)?,
        };
        // Level reports add up the servers below every node of a level,
        // so nested nodes of one level count a server once each: their
        // sum can outgrow the total.
        let level = &mut level_servers[node.level.index()];
        *level = level.checked_add(totals.servers.checked_mul(scale)?)?;
        Some(totals)
    })
    .ok_or_else(|| fail(|path| TopologyError::CountOverflow { path }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_workload::Workload;

    fn consumer() -> Consumer {
        Consumer::new(
            Cluster::rack(Workload::specjbb()),
            Technique::ride_through(),
        )
    }

    #[test]
    fn single_path_validates() {
        let topo = Topology::single_path(
            Cluster::rack(Workload::specjbb()),
            BackupConfig::max_perf(),
            Technique::ride_through(),
        );
        assert!(topo.validate().is_ok());
        assert_eq!(topo.root.servers(), 16);
        assert_eq!(topo.root.explicit_nodes(), 3);
    }

    #[test]
    fn uniform_counts_scale_with_multiplicity() {
        let topo = Topology::uniform(
            10,
            100,
            Workload::specjbb(),
            BackupConfig::max_perf(),
            Technique::ride_through(),
        );
        assert!(topo.validate().is_ok());
        assert_eq!(topo.root.servers(), 10 * 100 * 16);
        // 1 dc + 10 clusters + 1000 racks explicit; 3 represented.
        assert_eq!(topo.root.explicit_nodes(), 1 + 10 + 1000);
        assert_eq!(topo.root.represented_nodes(), 3);
        let expanded = topo.expand();
        assert_eq!(expanded.root.explicit_nodes(), 1 + 10 + 1000);
        assert_eq!(expanded.root.represented_nodes(), 1 + 10 + 1000);
        assert_eq!(expanded.root.demand(), topo.root.demand());
    }

    #[test]
    fn missing_backup_detected() {
        let node = Node::group(
            "dc",
            Level::Datacenter,
            vec![Node::consumer("rack", Level::Rack, consumer())],
        );
        let err = Topology::new(node).validate().unwrap_err();
        assert_eq!(
            err,
            TopologyError::MissingBackup {
                path: "dc/rack".to_owned()
            }
        );
        assert!(err.to_string().contains("no backup supply"));
    }

    #[test]
    fn nested_backup_detected() {
        let inner =
            Node::consumer("rack", Level::Rack, consumer()).with_backup(BackupConfig::no_dg());
        let root =
            Node::group("dc", Level::Datacenter, vec![inner]).with_backup(BackupConfig::max_perf());
        let err = Topology::new(root).validate().unwrap_err();
        assert!(matches!(err, TopologyError::NestedBackup { .. }));
    }

    #[test]
    fn degenerate_structures_rejected() {
        let zero = Node::consumer("r", Level::Rack, consumer())
            .times(0)
            .with_backup(BackupConfig::max_perf());
        assert!(matches!(
            Topology::new(zero).validate(),
            Err(TopologyError::ZeroMultiplicity { .. })
        ));
        let empty =
            Node::group("dc", Level::Datacenter, vec![]).with_backup(BackupConfig::max_perf());
        assert!(matches!(
            Topology::new(empty).validate(),
            Err(TopologyError::EmptyGroup { .. })
        ));
        let bad_feed = Node::consumer("r", Level::Rack, consumer())
            .with_backup(BackupConfig::max_perf())
            .with_feed_capacity(Watts::ZERO);
        assert!(matches!(
            Topology::new(bad_feed).validate(),
            Err(TopologyError::InvalidFeedCapacity { .. })
        ));
    }

    #[test]
    fn priority_propagates_upward() {
        let high = Node::consumer("a", Level::Rack, consumer().with_priority(1));
        let low = Node::consumer("b", Level::Rack, consumer().with_priority(7));
        let group = Node::group("g", Level::Cluster, vec![low, high]);
        assert_eq!(crate::digest::View::merged(&group).priority, 1);
    }
}
