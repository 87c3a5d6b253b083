//! `dcb-topology`: the hierarchical power-graph layer.
//!
//! The flat `dcb-sim` kernel answers "what happens to *one* homogeneous
//! cluster behind *one* backup configuration during an outage". Real
//! facilities are trees: a datacenter feeds clusters, clusters feed racks,
//! edges have capacity limits, backup is provisioned at one level and
//! shared below it, and different server groups matter differently when
//! power runs short. This crate models that tree and resolves a whole
//! facility through an outage:
//!
//! - [`Node`] / [`Topology`] — the typed graph: producer/storage context
//!   ([`dcb_power::BackupConfig`] attached at exactly one node per path),
//!   capacity-limited feed edges, and prioritized [`Consumer`] leaves
//!   with shed/brownout deficit policies ([`DeficitPolicy`]).
//! - [`digest`] — structural fingerprints ([`unit_digest`]) and the
//!   [`collapse`] transform that merges identical sibling subtrees into
//!   one node × multiplicity, so a million-server DC resolves in
//!   thousands of node-steps instead of millions.
//! - [`resolve`](fn@resolve) — the aggregated deficit-sharing resolver:
//!   plans allocations top-down, runs one `dcb-sim` kernel per *distinct*
//!   leaf class (fanned out over [`dcb_fleet::FleetPool`]), and stitches
//!   outcomes bottom-up into a [`TopologyOutcome`] with per-level
//!   [`LevelReport`]s and [`ResolveStats`].
//! - [`evaluate`] — the leaf-evaluation seam: the planner emits
//!   [`LeafRun`] descriptions and an injectable [`LeafEvaluator`] turns
//!   them into outcomes ([`KernelEvaluator`], the outage kernel, by
//!   default).
//! - [`parse_spec`] — a small text spec format for `repro topo`.
//!
//! A degenerate single-path topology ([`Topology::single_path`]) is
//! bit-identical to running [`dcb_sim::OutageSim`] directly — asserted
//! exhaustively over the Table-3 × technique-catalog grid by this crate's
//! differential test suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digest;
pub mod evaluate;
pub mod node;
pub mod outcome;
pub mod resolve;
pub mod spec;

pub use digest::{collapse, unit_digest};
pub use evaluate::{BackupShare, KernelEvaluator, LeafEvaluator, LeafRun};
pub use node::{Body, Consumer, DeficitPolicy, Level, Node, Topology, TopologyError};
pub use outcome::{LevelReport, ResolveStats, TopologyOutcome};
pub use resolve::{resolve, resolve_with_evaluator, Aggregation, BROWNOUT_FLOOR};
pub use spec::{parse_spec, SpecError};
