//! The structured event model.
//!
//! Every recorded occurrence is an [`Event`]: a lane/sequence identity, an
//! optional causal parent (the sequence number of an earlier event in the
//! same lane), a virtual timestamp in simulated microseconds, and a typed
//! [`EventKind`] payload.
//!
//! Names a record site always takes from a fixed vocabulary (segment end
//! causes, DG ramp phases, technique modes, topology levels) are
//! `&'static str`: recording borrows the literal, so building one of
//! these events allocates nothing. Cache digests are `u128` and are
//! written as 32 lowercase hex digits.

/// One flight-recorder event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Virtual track the event belongs to: [`crate::ROOT_LANE`] for the
    /// calling thread's default track, or a batch-assigned lane (a pure
    /// function of the workload, never of the thread that ran it — see
    /// [`crate::claim_lanes`]).
    pub lane: u64,
    /// Position within the lane, assigned at record time.
    pub seq: u32,
    /// Sequence number of the causal parent event in the same lane, if
    /// any (e.g. a `SegmentCommit` points at its `OutageStart`).
    pub parent: Option<u32>,
    /// Virtual timestamp in simulated microseconds; `None` inherits the
    /// previous event's resolved time within the lane (0 at lane start).
    pub at_us: Option<u64>,
    /// Duration in simulated microseconds (0 for instants).
    pub dur_us: u64,
    /// The typed payload.
    pub kind: EventKind,
}

/// What happened. Numeric payloads are integers by design: milliwatts,
/// per-mille throughput, and microseconds encode exactly, so two runs that
/// simulated the same scenario serialize byte-identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventKind {
    /// An outage simulation began (the root of a scenario's causal tree).
    OutageStart {
        /// Backup configuration label (Table 3 name).
        config: String,
        /// Technique name.
        technique: String,
        /// Outage length in simulated microseconds.
        outage_us: u64,
    },
    /// The diesel generator crossed a ramp milestone.
    DgRampPhase {
        /// `engine_start`, `full_power`, or `fuel_exhausted`.
        phase: &'static str,
    },
    /// The UPS battery hit exact depletion.
    BatteryDeplete,
    /// The cluster's mode changed (technique state machine step).
    TechniqueTransition {
        /// Mode before the transition.
        from: &'static str,
        /// Mode after the transition.
        to: &'static str,
    },
    /// The kernel committed one constant-load analytic segment.
    SegmentCommit {
        /// Wire name of the segment's end cause
        /// (see `dcb_sim::SegmentEnd::as_str`).
        end_cause: &'static str,
        /// Constant supply load over the segment, in milliwatts.
        load_mw: u64,
        /// Normalized throughput over the segment, in per-mille.
        throughput_pm: u64,
        /// Whether the segment counts as downtime.
        in_downtime: bool,
    },
    /// A battery draw landed on the depletion boundary and floating-point
    /// dust was snapped to exactly empty.
    DustSnap,
    /// The fleet evaluation cache answered a lookup.
    CacheHit {
        /// Scenario digest (the cache key), written as 32 hex digits.
        digest: u128,
    },
    /// The fleet evaluation cache had to compute.
    CacheMiss {
        /// Scenario digest (the cache key), written as 32 hex digits.
        digest: u128,
    },
    /// The first-true root finder bracketed and bisected a predicate flip.
    ShortfallRoot {
        /// Bisection iterations spent converging on the root.
        bisections: u64,
    },
    /// A (config, technique, duration) point finished evaluating.
    Evaluate {
        /// Backup configuration label.
        config: String,
        /// Technique name.
        technique: String,
        /// Whether the technique executed as intended.
        feasible: bool,
    },
    /// A topology node (possibly standing for many identical copies)
    /// finished resolving.
    TopoResolve {
        /// Hierarchy level name (`datacenter`, `cluster`, `rack`, `server`).
        level: &'static str,
        /// Display name of the node.
        name: String,
        /// Explicit copies the resolved node stood for.
        multiplicity: u64,
        /// Whether every consumer below executed its technique as planned.
        feasible: bool,
    },
    /// A deficit decision cut power to a topology consumer class.
    TopoShed {
        /// Hierarchy level name of the shed node.
        level: &'static str,
        /// Display name of the shed node.
        name: String,
        /// Servers shed (counting multiplicities).
        servers: u64,
    },
}
