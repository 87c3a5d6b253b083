//! # dcb-trace
//!
//! A deterministic per-scenario **flight recorder** for the
//! underprovisioning framework: structured events ([`EventKind`]) with
//! causal parent links, buffered in bounded per-thread rings and exported
//! either as Chrome trace-event JSON ([`chrome`], Perfetto-loadable) or as
//! a human timeline ([`timeline`], the `repro explain` subcommand).
//! [`json`] is the workspace's one JSON reader.
//!
//! Where `dcb-telemetry` counts work in aggregate, this crate records one
//! scenario's *causal interleaving* — DG ramp milestones, the battery
//! depletion instant, technique transitions, each committed kernel
//! segment with its end cause — which is exactly the structure the
//! paper's cost/performance/availability arguments hang on (why a point
//! is infeasible at 2 h is always "which event fired first").
//!
//! ## Determinism contract
//!
//! Timestamps are **virtual**: simulated microseconds, never the wall
//! clock. Tracks ("lanes") are a pure function of the workload, not of
//! scheduling: every fleet batch claims a contiguous lane block on the
//! *calling* thread (serial program order), and item `i` of the batch
//! records into lane `base + i` whichever worker runs it. Draining sorts
//! by `(lane, seq)`, so the exported trace is byte-identical across
//! `DCB_THREADS` settings for a fixed workload (asserted by a subprocess
//! test in `dcb-bench`).
//!
//! Events recorded *outside* any lane land in [`ROOT_LANE`], which is
//! only deterministic for single-threaded recording (the main thread);
//! instrumented model code always runs inside a batch lane or a
//! [`capture`] scope.
//!
//! ## Cost when disabled
//!
//! Recording is off by default. Every record site pays one relaxed atomic
//! load and a branch ([`enabled`]); event payloads are built inside
//! closures that never run while disabled. Enable with
//! `DCB_TRACE=chrome|timeline` (via [`init_from_env`]) at binary edges,
//! or programmatically with [`set_enabled`].
//!
//! ## Read fence
//!
//! Like telemetry, trace state lives outside result paths: model code may
//! *record* (the free functions here) but never read events back —
//! [`drain`], [`capture`], [`reset`], and the [`chrome`]/[`timeline`]
//! exporters are fenced to report edges by the `observe-in-result` audit
//! lint (DESIGN.md §8).
//!
//! ## Example
//!
//! ```
//! use dcb_trace as trace;
//!
//! trace::set_enabled(true);
//! let (sum, events) = trace::capture(|| {
//!     let root = trace::instant(Some(0), None, || trace::EventKind::OutageStart {
//!         config: "MaxPerf".to_owned(),
//!         technique: "RideThrough".to_owned(),
//!         outage_us: 1_000_000,
//!     });
//!     trace::complete(0, 1_000_000, root, || trace::EventKind::SegmentCommit {
//!         end_cause: "outage_end".to_owned(),
//!         load_mw: 4_000_000,
//!         throughput_pm: 1000,
//!         in_downtime: false,
//!     });
//!     2 + 2
//! });
//! trace::set_enabled(false);
//! assert_eq!(sum, 4);
//! assert_eq!(events.len(), 2);
//! assert_eq!(events[1].parent, Some(0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
mod event;
pub mod json;
mod ring;
pub mod timeline;

pub use event::{Event, EventKind};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether recording is currently enabled: the one relaxed load and
/// branch every record site pays when tracing is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Which exporter (if any) the binary should run at exit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Recording disabled; no export.
    Off,
    /// Record and export Chrome trace-event JSON (Perfetto-loadable).
    Chrome,
    /// Record and render the human timeline to stdout.
    Timeline,
}

/// Parses the `DCB_TRACE` environment variable: `chrome` or `timeline`
/// (case-insensitive) select an exporter; anything else (or unset) is
/// [`TraceMode::Off`].
#[must_use]
pub fn mode_from_env() -> TraceMode {
    match std::env::var("DCB_TRACE") {
        Ok(value) => match value.trim().to_ascii_lowercase().as_str() {
            "chrome" => TraceMode::Chrome,
            "timeline" => TraceMode::Timeline,
            _ => TraceMode::Off,
        },
        Err(_) => TraceMode::Off,
    }
}

/// Configures recording from `DCB_TRACE` and returns the selected mode.
/// Binaries call this once at startup.
pub fn init_from_env() -> TraceMode {
    let mode = mode_from_env();
    set_enabled(!matches!(mode, TraceMode::Off));
    mode
}

/// The default lane for events recorded outside any batch or capture
/// scope. Only deterministic for single-threaded recording.
pub const ROOT_LANE: u64 = 0;

/// Lanes per claimed batch block: batch `b`, item `i` → lane
/// `(b << 32) | i`.
const LANE_STRIDE: u64 = 1 << 32;

/// Monotone batch-block allocator; block 0 is [`ROOT_LANE`]'s.
static NEXT_BATCH: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The calling thread's `(current lane, next sequence number)`.
    static LANE: Cell<(u64, u32)> = const { Cell::new((ROOT_LANE, 0)) };
}

/// The lane the calling thread currently records into.
#[must_use]
pub fn current_lane() -> u64 {
    LANE.with(|lane| lane.get().0)
}

/// Claims a contiguous block of `count` lanes for a batch and returns its
/// base lane, or `None` when tracing is disabled, the batch is empty or
/// oversized, or the caller is already inside a non-root lane (nested
/// batches inherit their enclosing lane instead of claiming).
///
/// Determinism rests on claims happening on one thread in program order —
/// which they do, because batch entry points (`run_all`, `monte_carlo`,
/// [`capture`]) claim *before* fanning out.
#[must_use]
pub fn claim_lanes(count: usize) -> Option<u64> {
    if !enabled() || count == 0 || count as u64 >= LANE_STRIDE {
        return None;
    }
    if current_lane() != ROOT_LANE {
        return None;
    }
    let batch = NEXT_BATCH.fetch_add(1, Ordering::Relaxed);
    batch.checked_mul(LANE_STRIDE)
}

/// Restores the previous lane (and its sequence cursor) on drop.
#[derive(Debug)]
pub struct LaneGuard {
    prev: Option<(u64, u32)>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            LANE.with(|lane| lane.set(prev));
        }
    }
}

/// Enters `lane` on the calling thread until the guard drops. Each unique
/// lane must be entered at most once per trace (sequence numbers restart
/// at 0 on entry); batch lanes satisfy this by construction.
#[must_use]
pub fn lane_scope(lane: u64) -> LaneGuard {
    if !enabled() {
        return LaneGuard { prev: None };
    }
    let prev = LANE.with(|cell| cell.replace((lane, 0)));
    LaneGuard { prev: Some(prev) }
}

/// Records one event in the current lane and returns its sequence number
/// (usable as a later event's `parent`), or `None` when disabled.
fn record(
    at_us: Option<u64>,
    dur_us: u64,
    parent: Option<u32>,
    make: impl FnOnce() -> EventKind,
) -> Option<u32> {
    if !enabled() {
        return None;
    }
    let (lane, seq) = LANE.with(|cell| {
        let (lane, seq) = cell.get();
        cell.set((lane, seq.wrapping_add(1)));
        (lane, seq)
    });
    ring::push(Event {
        lane,
        seq,
        parent,
        at_us,
        dur_us,
        kind: make(),
    });
    Some(seq)
}

/// Records an instantaneous event. `at_us` is the virtual timestamp in
/// simulated microseconds; `None` inherits the previous event's time in
/// the lane. The payload closure only runs while recording is enabled.
pub fn instant(
    at_us: Option<u64>,
    parent: Option<u32>,
    make: impl FnOnce() -> EventKind,
) -> Option<u32> {
    record(at_us, 0, parent, make)
}

/// Records a spanning event (`dur_us` of simulated time starting at
/// `at_us`). The payload closure only runs while recording is enabled.
pub fn complete(
    at_us: u64,
    dur_us: u64,
    parent: Option<u32>,
    make: impl FnOnce() -> EventKind,
) -> Option<u32> {
    record(Some(at_us), dur_us, parent, make)
}

/// Converts simulated seconds to the recorder's microsecond timestamps
/// (round-to-nearest; saturates at zero for negative inputs).
#[must_use]
pub fn micros(seconds: dcb_units::Seconds) -> u64 {
    let us = (seconds.value() * 1e6).round();
    if us.is_finite() && us > 0.0 {
        us as u64
    } else {
        0
    }
}

/// Takes every buffered event, sorted by `(lane, seq)`. A report-edge
/// read: fenced out of model code by the `observe-in-result` audit lint.
#[must_use]
pub fn drain() -> Vec<Event> {
    ring::drain_all()
}

/// Runs `f` inside a freshly claimed single-lane scope and returns its
/// result together with the events that lane recorded (everything else
/// stays buffered). The backbone of `repro explain`: capture one
/// scenario's causal timeline without disturbing the rest of the trace.
///
/// With tracing disabled — or when called from inside another lane — `f`
/// still runs, but the event list comes back empty. A report-edge read:
/// fenced out of model code by the `observe-in-result` audit lint.
pub fn capture<R>(f: impl FnOnce() -> R) -> (R, Vec<Event>) {
    let Some(base) = claim_lanes(1) else {
        return (f(), Vec::new());
    };
    let result = {
        let _guard = lane_scope(base);
        f()
    };
    (result, ring::drain_lane(base))
}

/// Events discarded because a ring filled up (0 in any healthy run).
#[must_use]
pub fn dropped() -> u64 {
    ring::dropped_count()
}

/// Clears every buffer, the drop counter, the calling thread's lane
/// state, and the batch allocator. A test/report edge helper — fenced out
/// of model code by the `observe-in-result` audit lint.
pub fn reset() {
    ring::clear();
    LANE.with(|lane| lane.set((ROOT_LANE, 0)));
    NEXT_BATCH.store(1, Ordering::Relaxed);
}

/// Serializes tests that toggle the process-wide enabled flag or reset
/// the recorder. Mirrors the `dcb-telemetry` test discipline.
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
    fn disabled_by_default_and_payloads_stay_lazy() {
        let _g = test_guard();
        set_enabled(false);
        let seq = instant(Some(0), None, || {
            unreachable!("payload built while disabled")
        });
        assert_eq!(seq, None);
        assert!(drain().is_empty());
    }

    #[test]
    fn sequence_numbers_and_parents_link_up() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        let root = instant(Some(0), None, || EventKind::DustSnap);
        let child = instant(None, root, || EventKind::BatteryDeplete);
        set_enabled(false);
        let events = drain();
        assert_eq!(root, Some(0));
        assert_eq!(child, Some(1));
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].parent, Some(0));
        assert_eq!(events[1].at_us, None, "inherit timestamps stay unresolved");
        reset();
    }

    #[test]
    fn lanes_isolate_and_capture_filters() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        instant(Some(5), None, || EventKind::DustSnap); // ROOT_LANE
        let (value, captured) = capture(|| {
            instant(Some(7), None, || EventKind::BatteryDeplete);
            42
        });
        set_enabled(false);
        assert_eq!(value, 42);
        assert_eq!(captured.len(), 1, "capture returns only its lane");
        assert!(matches!(captured[0].kind, EventKind::BatteryDeplete));
        assert_ne!(captured[0].lane, ROOT_LANE);
        let rest = drain();
        assert_eq!(rest.len(), 1, "root-lane event stays buffered");
        assert_eq!(rest[0].lane, ROOT_LANE);
        reset();
    }

    #[test]
    fn claims_are_contiguous_blocks_and_nested_claims_inherit() {
        let _g = test_guard();
        reset();
        set_enabled(true);
        let a = claim_lanes(3).expect("top-level claim");
        let b = claim_lanes(1).expect("second claim");
        assert_ne!(a, b);
        {
            let _guard = lane_scope(a);
            assert_eq!(current_lane(), a);
            assert_eq!(claim_lanes(2), None, "nested claims inherit");
        }
        assert_eq!(current_lane(), ROOT_LANE);
        set_enabled(false);
        assert_eq!(claim_lanes(2), None, "disabled claims are free");
        reset();
    }

    #[test]
    fn micros_rounds_and_saturates() {
        let s = dcb_units::Seconds::new;
        assert_eq!(micros(s(0.0)), 0);
        assert_eq!(micros(s(-1.0)), 0);
        assert_eq!(micros(s(1.5e-6)), 2);
        assert_eq!(micros(s(25.0)), 25_000_000);
    }
}
