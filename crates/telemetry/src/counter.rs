//! Monotonic event counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonic, thread-safe event counter.
///
/// Increments from any thread accumulate into one relaxed atomic, so the
/// total is invariant to scheduling: a workload that performs N increments
/// reports N regardless of `DCB_THREADS`. When collection is disabled
/// (see [`crate::enabled`]) every record operation is one load + branch.
///
/// Counters are obtained from the [`crate::Registry`] (usually via the
/// [`crate::counter!`] macro) and live for the whole process; they are
/// never read back by model code (fenced by the `observe-in-result`
/// audit lint) — values leave the process only through a
/// [`crate::Snapshot`].
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub(crate) fn new() -> Self {
        Self {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` events, if collection is enabled.
    #[inline]
    pub fn add(&self, n: u64) {
        if !crate::enabled() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one event, if collection is enabled.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value. Crate-internal: snapshots are the only sanctioned
    /// way values leave the telemetry layer.
    pub(crate) fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Test-only read of the raw value (kept out of the public snapshot
    /// path so the `observe-in-result` lint surface stays minimal).
    #[cfg(test)]
    pub(crate) fn peek(&self) -> u64 {
        self.get()
    }

    pub(crate) fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_across_threads() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        crate::set_enabled(false);
        assert_eq!(c.peek(), 4000);
    }

    #[test]
    fn reset_zeroes() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        let c = Counter::new();
        c.add(7);
        c.reset();
        crate::set_enabled(false);
        assert_eq!(c.peek(), 0);
    }
}
