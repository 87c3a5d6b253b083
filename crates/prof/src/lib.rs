//! # dcb-prof
//!
//! A **deterministic work-attribution profiler** for the
//! underprovisioning framework.
//!
//! ## Work attribution
//!
//! Wall-clock profilers answer "where did the nanoseconds go?" — an
//! inherently scheduling-dependent question. This profiler answers
//! "where did the *model work* go?": its weights are model-work units
//! ([`WorkKind`] — kernel loop iterations, committed kernel segments,
//! bisection iterations of the located-event root finder, topology
//! node-steps, evaluation-cache misses), every one of which is a pure
//! function of the evaluated workload. Cost hooks in `crates/engine`,
//! `crates/sim`, `crates/topology`, and `crates/fleet` attribute each
//! unit to the path of [`frame`]s open where it is recorded: the exhibit
//! (opened by `repro profile`), then `sweep_configs`, `sweep_techniques`
//! or `technique_tradeoffs` and `evaluate` (opened by `dcb-core`), then
//! the hook's own frames — `engine;<owner>` for loop iterations,
//! `sim-kernel;<end cause>` for segments, `locate`, `eval-cache` and
//! `topo-resolve`. The resulting profile — exported as Brendan-Gregg
//! [`collapsed`]-stack text or a self-contained [`svg`] flamegraph — is
//! **byte-identical across `DCB_THREADS` settings** and across repeat
//! runs.
//!
//! Each [`WorkKind`] mirrors one stable `dcb-telemetry` counter
//! ([`WorkKind::counter_name`]); the `repro profile` subcommand asserts
//! that the profile's total tally reconciles *exactly* with the telemetry
//! snapshot, so the flamegraph can be trusted as an attribution of the
//! counted work, not a parallel estimate.
//!
//! Frames propagate across the `dcb-fleet` pool the same way trace lanes
//! do: the submitting thread captures a [`handoff`] in program order and
//! every work item [`enter`]s it on whichever worker runs it, so the
//! attribution path never depends on scheduling.
//!
//! ## Cost when disabled
//!
//! Collection is off by default: every hook pays one relaxed atomic load
//! and a branch ([`enabled`]), mirroring the `dcb-telemetry`/`dcb-trace`
//! discipline. `repro profile` switches it on with [`set_enabled`] for
//! the exhibits it profiles; `DCB_PROF` only picks that report's format
//! ([`mode_from_env`]).
//!
//! ## Read fence
//!
//! Model code may *record* ([`frame`], [`record`], [`handoff`],
//! [`enter`]) but never read a profile back: [`snapshot`], [`reset`], and
//! the [`collapsed`]/[`svg`] exporters are fenced to report edges by the
//! `observe-in-result` audit lint (DESIGN.md §8).
//!
//! ## Example
//!
//! ```
//! use dcb_prof as prof;
//!
//! prof::set_enabled(true);
//! {
//!     let _lane = prof::frame("doc-lane");
//!     let _component = prof::frame("doc-component");
//!     prof::record(prof::WorkKind::Segments, 3);
//! }
//! prof::set_enabled(false);
//! let profile = prof::snapshot();
//! assert_eq!(profile.total(prof::WorkKind::Segments), 3);
//! prof::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collapsed;
pub mod svg;
mod tree;

pub use tree::{
    enter, frame, handoff, record, reset, snapshot, FrameGuard, Handoff, ProfNode, Profile,
};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether attribution is currently enabled: the one relaxed load and
/// branch every cost hook pays when profiling is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns attribution on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Which export format (if any) the `repro profile` subcommand renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfMode {
    /// Human text report: attribution tree, reconciliation, and the
    /// volatile wall-time overlay. The default for `repro profile`.
    Text,
    /// Brendan-Gregg collapsed-stack lines (byte-reproducible).
    Collapsed,
    /// Self-contained flamegraph SVG (byte-reproducible).
    Svg,
}

/// Parses the `DCB_PROF` environment variable: `collapsed` or `svg`
/// (case-insensitive) select a reproducible exporter; anything else (or
/// unset) means the human [`ProfMode::Text`] report.
#[must_use]
pub fn mode_from_env() -> ProfMode {
    match std::env::var("DCB_PROF") {
        Ok(value) => match value.trim().to_ascii_lowercase().as_str() {
            "collapsed" => ProfMode::Collapsed,
            "svg" => ProfMode::Svg,
            _ => ProfMode::Text,
        },
        Err(_) => ProfMode::Text,
    }
}

/// The model-work units the profiler attributes. Each kind mirrors one
/// stable `dcb-telemetry` counter; `repro profile` asserts the profile's
/// per-kind totals reconcile exactly with the telemetry snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WorkKind {
    /// Kernel loop cycles (fired events), attributed per owner.
    Cycles,
    /// Kernel segments committed, attributed per end cause.
    Segments,
    /// Bisection iterations of the located-event root finder.
    LocateIters,
    /// Topology nodes stepped during hierarchical resolution.
    NodeSteps,
    /// Evaluation-cache misses (each one buys a full kernel run).
    CacheMisses,
}

impl WorkKind {
    /// Every kind, in canonical (rendering) order.
    pub const ALL: [WorkKind; 5] = [
        WorkKind::Cycles,
        WorkKind::Segments,
        WorkKind::LocateIters,
        WorkKind::NodeSteps,
        WorkKind::CacheMisses,
    ];

    /// Stable wire label, used as the bracketed leaf frame of collapsed
    /// stacks (`a;b;[segments] 42`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            WorkKind::Cycles => "cycles",
            WorkKind::Segments => "segments",
            WorkKind::LocateIters => "locate-iters",
            WorkKind::NodeSteps => "node-steps",
            WorkKind::CacheMisses => "cache-misses",
        }
    }

    /// The stable `dcb-telemetry` counter this kind mirrors — the
    /// reconciliation contract asserted by `repro profile`.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            WorkKind::Cycles => "engine.cycles",
            WorkKind::Segments => "sim.kernel.segments",
            WorkKind::LocateIters => "engine.locate.bisection_iters",
            WorkKind::NodeSteps => "topo.nodes.resolved",
            WorkKind::CacheMisses => "fleet.cache.misses",
        }
    }

    pub(crate) fn index(self) -> usize {
        match self {
            WorkKind::Cycles => 0,
            WorkKind::Segments => 1,
            WorkKind::LocateIters => 2,
            WorkKind::NodeSteps => 3,
            WorkKind::CacheMisses => 4,
        }
    }
}

/// Serializes tests that toggle the process-wide enabled flag or reset
/// the attribution tree. Mirrors the `dcb-telemetry` test discipline.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct() {
        for kind in WorkKind::ALL {
            assert!(!kind.counter_name().is_empty());
        }
        let mut labels: Vec<&str> = WorkKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), WorkKind::ALL.len());
    }

    #[test]
    fn disabled_by_default_and_toggleable() {
        let _g = test_guard();
        reset();
        record(WorkKind::Cycles, 7); // disabled: dropped
        set_enabled(true);
        record(WorkKind::Cycles, 2);
        set_enabled(false);
        record(WorkKind::Cycles, 9); // disabled again: dropped
        assert_eq!(snapshot().total(WorkKind::Cycles), 2);
        reset();
    }

    #[test]
    fn disabled_recording_is_cheap() {
        // A regression tripwire, not a benchmark: 10M disabled hooks must
        // stay far under a second (one load + branch each).
        let _g = test_guard();
        set_enabled(false);
        let start = std::time::Instant::now();
        for _ in 0..10_000_000u64 {
            record(WorkKind::Segments, 1);
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "disabled-path cost regressed: {:?}",
            start.elapsed()
        );
    }
}
