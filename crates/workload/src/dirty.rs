//! Page-dirtying behaviour, driving migration and proactive techniques.

use dcb_units::{Gigabytes, MegabytesPerSecond, StableHash, StableHasher};

/// How fast an application dirties memory, and how much dirty state remains
/// after the proactive (periodic-flush) techniques have been running.
///
/// * `dirty_rate` drives the convergence of pre-copy live migration: each
///   copy round must re-send pages dirtied during the previous round.
/// * `proactive_migration_residual` is the volatile state still unsynced at
///   the instant of a power failure under Remus-style periodic flushing to
///   a remote host (§5) — e.g. 10 GB of Specjbb's 18 GB (§6.2).
/// * `proactive_hibernate_residual` is the analogous residual for periodic
///   flushing to local disk; the paper measures a 22 % save-time reduction
///   for Specjbb (230 s → 179 s, Table 8), i.e. ~13.9 GB left to write.
///
/// ```
/// use dcb_workload::Workload;
/// let jbb = Workload::specjbb();
/// let p = jbb.dirty_profile();
/// assert!(p.proactive_migration_residual < jbb.memory_footprint());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct DirtyProfile {
    /// Sustained page-dirtying rate during normal execution.
    pub dirty_rate: MegabytesPerSecond,
    /// Dirty state left to transfer at failure under proactive migration.
    pub proactive_migration_residual: Gigabytes,
    /// Dirty state left to persist at failure under proactive hibernation.
    pub proactive_hibernate_residual: Gigabytes,
}

impl DirtyProfile {
    /// Creates a profile, validating that residuals are non-negative.
    ///
    /// # Panics
    ///
    /// Panics if any component is negative.
    #[must_use]
    pub fn new(
        dirty_rate: MegabytesPerSecond,
        proactive_migration_residual: Gigabytes,
        proactive_hibernate_residual: Gigabytes,
    ) -> Self {
        assert!(dirty_rate.value() >= 0.0, "dirty rate must be >= 0");
        assert!(
            proactive_migration_residual.value() >= 0.0
                && proactive_hibernate_residual.value() >= 0.0,
            "residuals must be >= 0"
        );
        Self {
            dirty_rate,
            proactive_migration_residual,
            proactive_hibernate_residual,
        }
    }
}

impl StableHash for DirtyProfile {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            dirty_rate,
            proactive_migration_residual,
            proactive_hibernate_residual,
        } = self;
        dirty_rate.stable_hash(hasher);
        proactive_migration_residual.stable_hash(hasher);
        proactive_hibernate_residual.stable_hash(hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let p = DirtyProfile::new(
            MegabytesPerSecond::new(70.0),
            Gigabytes::new(10.0),
            Gigabytes::new(13.9),
        );
        assert_eq!(p.dirty_rate.value(), 70.0);
    }

    #[test]
    #[should_panic(expected = "must be >= 0")]
    fn negative_rate_rejected() {
        let _ = DirtyProfile::new(
            MegabytesPerSecond::new(-1.0),
            Gigabytes::ZERO,
            Gigabytes::ZERO,
        );
    }
}
