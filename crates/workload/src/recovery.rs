//! Crash-recovery timelines: what happens after volatile state is lost.
//!
//! §4 enumerates the overheads when servers lose power abruptly: (a)
//! re-initialization of server components, (b) consistency checks, (c)
//! reloading OS and application, (d) application-specific warm-ups, and (e)
//! re-computation of work committed to memory but not persisted. The
//! [`RecoveryModel`] composes these into a downtime estimate; where the
//! paper reports a *range* (SpecCPU's recompute depends on when in the run
//! the outage hits), the model yields a [`DowntimeRange`].

use dcb_units::{Gigabytes, MegabytesPerSecond, Seconds, StableHash, StableHasher};

/// A downtime estimate with its best/worst-case spread.
///
/// ```
/// use dcb_workload::DowntimeRange;
/// use dcb_units::Seconds;
/// let d = DowntimeRange::exact(Seconds::new(400.0));
/// assert_eq!(d.expected, Seconds::new(400.0));
/// assert_eq!(d.min, d.max);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DowntimeRange {
    /// Best case.
    pub min: Seconds,
    /// Expected (mid) case.
    pub expected: Seconds,
    /// Worst case.
    pub max: Seconds,
}

impl DowntimeRange {
    /// A degenerate range: min = expected = max.
    #[must_use]
    pub fn exact(value: Seconds) -> Self {
        Self {
            min: value,
            expected: value,
            max: value,
        }
    }

    /// A range spanning `[min, max]` with the midpoint as expectation.
    ///
    /// # Panics
    ///
    /// Panics if `max < min`.
    #[must_use]
    pub fn spread(min: Seconds, max: Seconds) -> Self {
        assert!(max >= min, "downtime range inverted");
        Self {
            min,
            expected: (min + max) / 2.0,
            max,
        }
    }

    /// Adds a fixed offset to all three bounds.
    #[must_use]
    pub fn shift(self, offset: Seconds) -> Self {
        Self {
            min: self.min + offset,
            expected: self.expected + offset,
            max: self.max + offset,
        }
    }

    /// Whether the range is a single point.
    #[must_use]
    pub fn is_exact(&self) -> bool {
        self.min == self.max
    }
}

/// The post-crash recovery behaviour of one application.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RecoveryModel {
    /// Process creation, library loading, socket re-establishment —
    /// overheads (a)–(c) of §4 beyond the OS boot itself.
    pub app_start: Seconds,
    /// Cold data re-fetched from persistent storage before the application
    /// can serve (Memcached's KV reload, Web-search's index pre-population).
    pub reload: Gigabytes,
    /// Effective reload bandwidth (often below raw disk bandwidth: random
    /// access, deserialization, index building).
    pub reload_bandwidth: MegabytesPerSecond,
    /// Application-specific warm-up after serving resumes, during which
    /// performance is so degraded the paper counts it as downtime
    /// (Web-search: 4–5 min of 30–50 % throughput loss, §6.2).
    pub warmup: Seconds,
    /// Re-computation of lost volatile work, as a best/worst range
    /// (SpecCPU may lose anywhere from nothing to its whole run so far).
    pub recompute: DowntimeRange,
}

impl StableHash for DowntimeRange {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self { min, expected, max } = self;
        min.stable_hash(hasher);
        expected.stable_hash(hasher);
        max.stable_hash(hasher);
    }
}

impl StableHash for RecoveryModel {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            app_start,
            reload,
            reload_bandwidth,
            warmup,
            recompute,
        } = self;
        app_start.stable_hash(hasher);
        reload.stable_hash(hasher);
        reload_bandwidth.stable_hash(hasher);
        warmup.stable_hash(hasher);
        recompute.stable_hash(hasher);
    }
}

impl RecoveryModel {
    /// A recovery model with no reload, warm-up, or recompute — just process
    /// restart.
    #[must_use]
    pub fn restart_only(app_start: Seconds) -> Self {
        Self {
            app_start,
            reload: Gigabytes::ZERO,
            reload_bandwidth: MegabytesPerSecond::new(100.0),
            warmup: Seconds::ZERO,
            recompute: DowntimeRange::exact(Seconds::ZERO),
        }
    }

    /// Time to re-fetch cold data.
    #[must_use]
    pub fn reload_time(&self) -> Seconds {
        if self.reload.is_zero() {
            Seconds::ZERO
        } else {
            self.reload.transfer_time(self.reload_bandwidth)
        }
    }

    /// Total downtime after a crash: the outage itself (no service while
    /// power is out), the OS boot once power returns, then application
    /// start, data reload, warm-up, and recompute.
    #[must_use]
    pub fn crash_downtime(&self, outage: Seconds, boot: Seconds) -> DowntimeRange {
        let fixed = outage + boot + self.app_start + self.reload_time() + self.warmup;
        let range = self.recompute.shift(fixed);
        dcb_telemetry::counter!("workload.recovery.events").incr();
        dcb_telemetry::histogram!("workload.recovery.downtime_s")
            .observe(range.expected.value().max(0.0) as u64);
        range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn restart_only_is_boot_plus_start() {
        let r = RecoveryModel::restart_only(Seconds::new(10.0));
        let d = r.crash_downtime(Seconds::new(30.0), Seconds::new(120.0));
        assert_eq!(d.expected, Seconds::new(160.0));
        assert!(d.is_exact());
    }

    #[test]
    fn reload_time_accounts_bandwidth() {
        let r = RecoveryModel {
            reload: Gigabytes::new(20.0),
            reload_bandwidth: MegabytesPerSecond::new(62.5),
            ..RecoveryModel::restart_only(Seconds::ZERO)
        };
        assert_eq!(r.reload_time(), Seconds::new(320.0));
    }

    #[test]
    #[should_panic(expected = "range inverted")]
    fn inverted_spread_rejected() {
        let _ = DowntimeRange::spread(Seconds::new(2.0), Seconds::new(1.0));
    }

    proptest! {
        #[test]
        fn crash_downtime_exceeds_outage(
            outage in 0.0f64..7200.0,
            boot in 0.0f64..300.0,
            start in 0.0f64..300.0,
        ) {
            let r = RecoveryModel::restart_only(Seconds::new(start));
            let d = r.crash_downtime(Seconds::new(outage), Seconds::new(boot));
            prop_assert!(d.min >= Seconds::new(outage));
            prop_assert!(d.min <= d.expected && d.expected <= d.max);
        }
    }
}
