//! # dcb-fleet
//!
//! Deterministic, std-only parallel scenario execution for the
//! underprovisioning framework.
//!
//! Every expensive path in the reproduction — configuration sweeps, sizing
//! bisections, planner searches, Monte-Carlo availability analysis — is an
//! embarrassingly parallel loop over independent
//! `(cluster, config, technique, duration)` points. This crate provides the
//! shared machinery those paths fan out on:
//!
//! * [`FleetPool`] — a work-queue thread pool sized from
//!   [`std::thread::available_parallelism`], overridable with the
//!   `DCB_THREADS` environment variable, with a serial fallback at `N = 1`.
//!   Its batch APIs preserve input ordering, so parallel output is
//!   **bit-identical** to the serial reference.
//! * [`EvalCache`] — a sharded memoization map keyed by a 128-bit stable
//!   digest, so repeated sweeps, bisection probes, and planner searches
//!   never re-simulate the same point. Digests come from the typed
//!   [`StableHash`] encoding, re-exported here with its [`StableHasher`].
//! * [`Scenario`] — the canonical evaluation key: one
//!   `(cluster, config, technique, duration)` point with a stable digest.
//!   [`ClusterKey`] computes that digest from the cluster's prefix,
//!   absorbed once for every point on the cluster.
//! * [`FleetPool::monte_carlo`] — sharded Monte-Carlo driving with
//!   per-trial seeding ([`trial_seed`]), making results invariant to the
//!   shard count for a fixed base seed.
//!
//! ## Determinism contract
//!
//! For any inputs and any thread/shard configuration:
//!
//! * `pool.run_all(items, f)[i] == f(&items[i])` element-for-element;
//! * `pool.monte_carlo(seed, n, s, f)` is the same vector for every `s`;
//! * cache hits return clones of the exact value first computed.
//!
//! The pool owns no background threads: each batch call spawns scoped
//! workers that drain an atomic work queue and exit, so there is no global
//! state to poison and nested batch calls simply run inline on the worker
//! that issued them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod pool;
mod scenario;

pub use cache::{CacheStats, EvalCache};
pub use dcb_units::{StableHash, StableHasher};
pub use pool::{trial_seed, FleetPool, Trial};
pub use scenario::{ClusterKey, Scenario};
