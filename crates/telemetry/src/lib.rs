//! # dcb-telemetry
//!
//! Deterministic-by-construction observability for the underprovisioning
//! framework: monotonic [`Counter`]s, fixed-bucket log-scale
//! [`Histogram`]s, hierarchical [`span`] timers, and a process-wide
//! [`Registry`] whose [`Snapshot`] is **stable-ordered and
//! byte-reproducible**, so telemetry output can be asserted in tests and
//! diffed across runs.
//!
//! The paper's contribution is a cost/performance/availability trade-off
//! surface (§6, Figures 5–9); trusting a reproduction of it requires
//! knowing *where* simulated work goes — how many analytic segments the
//! event kernel emits per outage (DESIGN.md §9), how often the root finder
//! bisects, how well the fleet cache memoizes (DESIGN.md §7). This crate
//! is the substrate those layers report through.
//!
//! ## Determinism contract
//!
//! Metrics are split into two stability classes at registration time:
//!
//! * **Stable** metrics count *model work* — kernel segments, cache
//!   lookups, bisection iterations. Their values are a pure function of
//!   the evaluated scenario set, so for a fixed workload the stable
//!   snapshot is byte-identical across runs and across `DCB_THREADS`
//!   settings. The JSON report renders *only* this class.
//! * **Volatile** metrics describe *scheduling* — per-worker task counts,
//!   spawned workers, shard layouts. They legitimately vary with thread
//!   count and are rendered only by the human-facing text report, never
//!   by the byte-compared JSON report.
//!
//! Span *structure* (paths and call counts) is stable; span *wall times*
//! are volatile and quarantined the same way. Telemetry state lives
//! entirely outside result paths: nothing in the model layers may read a
//! value back out of this crate (fenced by the `observe-in-result`
//! audit lint, DESIGN.md §8).
//!
//! ## Cost when disabled
//!
//! Collection is off by default: every record operation is a single
//! relaxed atomic load and branch, so instrumented hot paths stay within
//! measurement noise of uninstrumented builds (the engine bench's ≥5×
//! floor in `ci.sh` runs with collection disabled and guards exactly
//! this). Enable with `DCB_TELEMETRY=json|text` (via [`init_from_env`])
//! or programmatically with [`set_enabled`]; [`report`] renders what the
//! variable selects.
//!
//! ## Example
//!
//! ```
//! use dcb_telemetry as telemetry;
//!
//! telemetry::set_enabled(true);
//! telemetry::counter!("doc.example.widgets").add(3);
//! telemetry::histogram!("doc.example.sizes").observe(17);
//! {
//!     let _outer = telemetry::span("doc-outer");
//!     let _inner = telemetry::span("doc-inner"); // path: doc-outer/doc-inner
//! }
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("doc.example.widgets"), Some(3));
//! telemetry::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counter;
mod histogram;
mod registry;
mod span;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use registry::{registry, snapshot, Registry, Snapshot, SpanSnapshot, Stability};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether collection is currently enabled. This is the one branch every
/// record operation pays when telemetry is off.
#[inline]
#[must_use]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns collection on or off process-wide. Registration still works while
/// disabled; record operations become no-ops.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// The report a `DCB_TELEMETRY` value selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    /// The stable subset as byte-reproducible JSON.
    Json,
    /// Everything, volatile metrics and span wall times included.
    Text,
}

/// Reads a `DCB_TELEMETRY` value as `DCB_TRACE` and `DCB_PROF` are read,
/// trimmed and in any ASCII case: `json` or `text`, else `None`.
fn format(value: &str) -> Option<Format> {
    match value.trim().to_ascii_lowercase().as_str() {
        "json" => Some(Format::Json),
        "text" => Some(Format::Text),
        _ => None,
    }
}

fn format_from_env() -> Option<Format> {
    format(&std::env::var("DCB_TELEMETRY").ok()?)
}

/// Configures collection from the `DCB_TELEMETRY` environment variable:
/// `json` or `text` enable collection and select what [`report`]
/// renders; anything else (or unset) leaves collection disabled.
/// Binaries call this once at startup.
pub fn init_from_env() {
    set_enabled(format_from_env().is_some());
}

/// Snapshots the global registry and renders it as `DCB_TELEMETRY`
/// selects: [`Snapshot::to_stable_json`] for `json`, [`Snapshot::to_text`]
/// for `text`. Returns `None` otherwise, so callers can skip printing
/// entirely. The canonical end-of-run call for binaries.
#[must_use]
pub fn report() -> Option<String> {
    let format = format_from_env()?;
    let snapshot = snapshot();
    Some(match format {
        Format::Json => snapshot.to_stable_json(),
        Format::Text => snapshot.to_text(),
    })
}

/// Registers (or finds) the stable counter named by the literal, cached
/// per call site. See [`Registry::counter`].
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().counter($name))
    }};
}

/// Registers (or finds) the volatile counter named by the literal, cached
/// per call site. See [`Registry::volatile_counter`] and the stability
/// discussion in the crate docs.
#[macro_export]
macro_rules! volatile_counter {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Counter> = ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().volatile_counter($name))
    }};
}

/// Registers (or finds) the stable histogram named by the literal, cached
/// per call site. See [`Registry::histogram`].
#[macro_export]
macro_rules! histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().histogram($name))
    }};
}

/// Registers (or finds) the volatile histogram named by the literal,
/// cached per call site. See [`Registry::volatile_histogram`].
#[macro_export]
macro_rules! volatile_histogram {
    ($name:expr) => {{
        static SITE: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        *SITE.get_or_init(|| $crate::registry().volatile_histogram($name))
    }};
}

/// Serializes tests that toggle the process-wide enabled flag. Every unit
/// test touching [`set_enabled`] must hold this guard.
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
    fn disabled_by_default_and_toggleable() {
        let _g = test_guard();
        let c = registry().counter("lib.test.toggle");
        c.add(5); // collection is disabled while the guard is held
        set_enabled(true);
        c.add(2);
        set_enabled(false);
        c.add(9);
        assert_eq!(c.peek(), 2);
    }

    #[test]
    fn disabled_recording_is_cheap() {
        // Not a benchmark, a regression tripwire: 10M disabled increments
        // must stay far under a second (one load + branch each). A real
        // regression (e.g. locking the registry per record) is orders of
        // magnitude slower and trips even on a loaded CI box.
        let _g = test_guard();
        let c = registry().counter("lib.test.disabled_cost");
        let start = std::time::Instant::now();
        for _ in 0..10_000_000u64 {
            c.incr();
        }
        assert!(
            start.elapsed() < std::time::Duration::from_secs(1),
            "disabled-path cost regressed: {:?}",
            start.elapsed()
        );
        assert_eq!(c.peek(), 0);
    }

    #[test]
    fn format_is_trimmed_and_ignores_ascii_case() {
        for json in ["json", "JSON", " Json\n"] {
            assert_eq!(format(json), Some(Format::Json), "{json:?}");
        }
        for text in ["text", "TEXT", "\ttext "] {
            assert_eq!(format(text), Some(Format::Text), "{text:?}");
        }
        for off in ["", "0", "off", "jsonl", "js on"] {
            assert_eq!(format(off), None, "{off:?}");
        }
    }

    #[test]
    fn macros_cache_and_register() {
        let _g = test_guard();
        set_enabled(true);
        counter!("lib.test.macro").incr();
        counter!("lib.test.macro").incr();
        histogram!("lib.test.macro_hist").observe(4);
        set_enabled(false);
        let snap = snapshot();
        assert_eq!(snap.counter("lib.test.macro"), Some(2));
    }
}
