//! Outage simulation: clusters riding through power failures with the
//! paper's outage-handling techniques.
//!
//! This crate is the experimental testbed of the reproduction. Where the
//! paper subjects real servers to power-outage scenarios and records power
//! (Yokogawa meter), application performance and down time (§6), we run a
//! calibrated event-driven simulation of a [`Cluster`] backed by a
//! [`dcb_power::BackupSystem`], executing one of the [`Technique`]s of
//! Tables 4–6:
//!
//! * **sustain-execution** — [`Technique::ride_through`],
//!   [`Technique::throttle`], [`Technique::migration`] /
//!   [`Technique::proactive_migration`] (consolidate and shut down);
//! * **save-state** — [`Technique::sleep`] / [`Technique::sleep_l`],
//!   [`Technique::hibernate`] / [`Technique::hibernate_l`] /
//!   [`Technique::proactive_hibernate`];
//! * **hybrids** (Table 6) — serve throttled, then drop to sleep or
//!   hibernate when the battery runs low; or migrate first and sleep later.
//!
//! The simulation yields a [`SimOutcome`] with exactly the quantities the
//! paper's evaluation plots: peak backup power, backup energy, normalized
//! performance during the outage, down time (including the post-restoration
//! tail), and whether volatile state survived.
//!
//! # Examples
//!
//! ```
//! use dcb_power::BackupConfig;
//! use dcb_sim::{Cluster, OutageSim, Technique};
//! use dcb_units::Seconds;
//! use dcb_workload::Workload;
//!
//! let cluster = Cluster::rack(Workload::specjbb());
//! let sim = OutageSim::new(cluster, BackupConfig::large_e_ups(), Technique::ride_through());
//! let outcome = sim.run(Seconds::from_minutes(30.0));
//! // A 30-minute battery carries the full load through a 30-minute outage.
//! assert!(outcome.feasible);
//! assert!(outcome.perf_during_outage.value() > 0.99);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
#[cfg(test)]
mod differential;
mod engine;
mod kernel;
mod outcome;
mod segment;
#[cfg(test)]
mod stepper;
mod technique;
mod trace;

pub use cluster::Cluster;
/// The located-event root finder the kernel runs, for callers that locate
/// their own events (the §7 controller in `dcb-core`).
pub use dcb_engine::locate::first_true;
pub use engine::OutageSim;
pub use outcome::{FinalState, SimOutcome};
pub use segment::{Segment, SegmentEnd, Trajectory};
pub use technique::{low_power_level, Fallback, InitialAction, Technique};
pub use trace::TraceOutcome;
