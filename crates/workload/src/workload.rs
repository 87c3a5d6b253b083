//! The workload parameter model and the paper's four calibrated instances.

use crate::{DirtyProfile, DowntimeRange, LoadProfile, RecoveryModel};
use core::fmt;
use dcb_units::{Fraction, Gigabytes, MegabytesPerSecond, Seconds, StableHash, StableHasher};

/// Identifies one of the paper's benchmark workloads (Table 7), or a custom
/// parameterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WorkloadKind {
    /// SPECjbb2005 three-tier business logic with an in-memory database.
    Specjbb,
    /// Index-search component of a production search engine.
    WebSearch,
    /// In-memory key-value cache, read-only client mix.
    Memcached,
    /// SpecCPU2006 `mcf` × 8 instances — memory-intensive HPC.
    SpecCpu,
    /// A user-defined workload.
    Custom,
}

impl StableHash for WorkloadKind {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let tag: u8 = match self {
            Self::Specjbb => 0,
            Self::WebSearch => 1,
            Self::Memcached => 2,
            Self::SpecCpu => 3,
            Self::Custom => 4,
        };
        tag.stable_hash(hasher);
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Specjbb => f.write_str("Specjbb"),
            Self::WebSearch => f.write_str("Web-search"),
            Self::Memcached => f.write_str("Memcached"),
            Self::SpecCpu => f.write_str("SpecCPU (mcf*8)"),
            Self::Custom => f.write_str("custom"),
        }
    }
}

/// A datacenter application model: everything the outage simulator needs to
/// know about how an application behaves under throttling, consolidation,
/// state saving, and state loss.
///
/// Construct the paper's workloads with [`Workload::specjbb`],
/// [`Workload::web_search`], [`Workload::memcached`] and
/// [`Workload::spec_cpu`]; derive variants with the `with_*` builders (used
/// by the §6.2 memory-size sensitivity study).
///
/// ```
/// use dcb_workload::Workload;
/// use dcb_units::Gigabytes;
///
/// // The §6.2 sensitivity study shrinks Specjbb's state.
/// let small = Workload::specjbb().with_memory_footprint(Gigabytes::new(6.0));
/// assert!(small.memory_footprint() < Workload::specjbb().memory_footprint());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Workload {
    kind: WorkloadKind,
    memory_footprint: Gigabytes,
    hibernate_image: Gigabytes,
    hibernate_io_efficiency: Fraction,
    stall_fraction: Fraction,
    utilization: Fraction,
    dirty: DirtyProfile,
    recovery: RecoveryModel,
    remote_serve_fraction: Fraction,
    load_profile: Option<LoadProfile>,
}

impl Workload {
    /// All four paper workloads.
    #[must_use]
    pub fn paper_suite() -> Vec<Workload> {
        vec![
            Self::web_search(),
            Self::specjbb(),
            Self::memcached(),
            Self::spec_cpu(),
        ]
    }

    /// SPECjbb2005 (Table 7: 18 GB, latency-constrained ops/sec).
    ///
    /// Calibration: crash downtime ≈ 400 s for a 30 s outage (§6.1);
    /// hibernation save/resume 230 s / 157 s (Table 8); live migration
    /// ~10 min, proactive-migration residual 10 GB → ~5 min (§6.2).
    #[must_use]
    pub fn specjbb() -> Self {
        Self {
            kind: WorkloadKind::Specjbb,
            memory_footprint: Gigabytes::new(18.0),
            hibernate_image: Gigabytes::new(18.0),
            hibernate_io_efficiency: Fraction::ONE,
            // Mostly CPU-bound business logic: throttling hurts nearly 1:1.
            stall_fraction: Fraction::new(0.15),
            utilization: Fraction::new(0.9),
            dirty: DirtyProfile::new(
                MegabytesPerSecond::new(70.0),
                Gigabytes::new(10.0),
                Gigabytes::new(13.9),
            ),
            // Transactional logic cannot run against remote memory alone.
            remote_serve_fraction: Fraction::new(0.05),
            load_profile: None,
            recovery: RecoveryModel {
                // Process tree + tier re-creation.
                app_start: Seconds::new(60.0),
                // In-memory DB rebuild from persisted tables.
                reload: Gigabytes::new(18.0),
                reload_bandwidth: MegabytesPerSecond::new(120.0),
                // Throughput catch-up to the latency-constrained target.
                warmup: Seconds::new(40.0),
                recompute: DowntimeRange::exact(Seconds::ZERO),
            },
        }
    }

    /// Web-search index serving (Table 7: 40 GB in-memory index cache).
    ///
    /// Calibration: crash downtime ≈ 600 s for a 30 s outage — ~2 min
    /// restart, ~3.5 min index pre-population, 4–5 min warm-up (§6.2) —
    /// while hibernation achieves ≈ 400 s because the clean, file-backed
    /// index pages are *not* part of the hibernation image; only the ~18 GB
    /// anonymous heap is written and read back.
    #[must_use]
    pub fn web_search() -> Self {
        Self {
            kind: WorkloadKind::WebSearch,
            memory_footprint: Gigabytes::new(40.0),
            hibernate_image: Gigabytes::new(18.5),
            hibernate_io_efficiency: Fraction::ONE,
            // Pointer-chasing over the index: moderate memory stalls.
            stall_fraction: Fraction::new(0.35),
            utilization: Fraction::new(0.65),
            dirty: DirtyProfile::new(
                MegabytesPerSecond::new(30.0),
                Gigabytes::new(8.0),
                Gigabytes::new(6.0),
            ),
            // Read-only index lookups can be served from remote memory at
            // reduced rate (§7, RDMA over Sleep).
            remote_serve_fraction: Fraction::new(0.25),
            load_profile: None,
            recovery: RecoveryModel {
                app_start: Seconds::new(10.0),
                // Hot-index pre-population before the service opens.
                reload: Gigabytes::new(25.0),
                reload_bandwidth: MegabytesPerSecond::new(125.0),
                // "queries suffer poor performance ... during the first 4-5
                // minutes (warmup duration) which we report as additional
                // down time" (§6.2).
                warmup: Seconds::new(240.0),
                recompute: DowntimeRange::exact(Seconds::ZERO),
            },
        }
    }

    /// Memcached (Table 7: 20 GB, read-only client mix).
    ///
    /// Calibration: crash downtime ≈ 480 s for a 30 s outage, while
    /// hibernation takes ≈ 1140 s (§6.2) — the fully-resident, randomly
    /// touched slab heap hibernates with poor I/O efficiency, so losing the
    /// state and reloading from disk is *cheaper* than persisting it.
    #[must_use]
    pub fn memcached() -> Self {
        Self {
            kind: WorkloadKind::Memcached,
            memory_footprint: Gigabytes::new(20.0),
            hibernate_image: Gigabytes::new(20.0),
            // Scattered slab pages: the suspend image writes far below
            // sequential bandwidth.
            hibernate_io_efficiency: Fraction::new(0.37),
            // Dominated by random DRAM access latency: throttling is cheap
            // ("high memory-related CPU stalls for Memcached", §6.2).
            stall_fraction: Fraction::new(0.6),
            utilization: Fraction::new(0.5),
            dirty: DirtyProfile::new(
                MegabytesPerSecond::new(20.0),
                Gigabytes::new(3.0),
                Gigabytes::new(15.0),
            ),
            // GET-dominated traffic is the best case for remote memory
            // access over RDMA.
            remote_serve_fraction: Fraction::new(0.35),
            load_profile: None,
            recovery: RecoveryModel {
                app_start: Seconds::new(10.0),
                // KV reload from disk at random-read effective bandwidth.
                reload: Gigabytes::new(20.0),
                reload_bandwidth: MegabytesPerSecond::new(62.5),
                warmup: Seconds::ZERO,
                recompute: DowntimeRange::exact(Seconds::ZERO),
            },
        }
    }

    /// SpecCPU2006 `mcf` × 8 (Table 7: 16 GB, completion time).
    ///
    /// Calibration: on a crash the run loses everything since its start —
    /// "the impact on down time can span a large range for MinCost" (§6.2,
    /// Figure 9). We model a representative two-hour run segment, so the
    /// recompute range is 0–2 h.
    #[must_use]
    pub fn spec_cpu() -> Self {
        Self {
            kind: WorkloadKind::SpecCpu,
            memory_footprint: Gigabytes::new(16.0),
            hibernate_image: Gigabytes::new(16.0),
            hibernate_io_efficiency: Fraction::ONE,
            // mcf is notoriously memory-bound.
            stall_fraction: Fraction::new(0.5),
            utilization: Fraction::new(0.95),
            dirty: DirtyProfile::new(
                MegabytesPerSecond::new(80.0),
                Gigabytes::new(12.0),
                Gigabytes::new(14.0),
            ),
            // Batch computation cannot proceed with CPUs off.
            remote_serve_fraction: Fraction::ZERO,
            load_profile: None,
            recovery: RecoveryModel {
                app_start: Seconds::new(5.0),
                reload: Gigabytes::ZERO,
                reload_bandwidth: MegabytesPerSecond::new(100.0),
                warmup: Seconds::ZERO,
                recompute: DowntimeRange::spread(Seconds::ZERO, Seconds::from_hours(2.0)),
            },
        }
    }

    /// An *extension* workload beyond the paper's four: a write-heavy OLTP
    /// database. Included to exercise the opposite corner of the design
    /// space — a large, constantly-dirtied buffer pool that makes proactive
    /// techniques ineffective and crash recovery expensive (WAL replay).
    #[must_use]
    pub fn oltp_database() -> Self {
        Self {
            kind: WorkloadKind::Custom,
            memory_footprint: Gigabytes::new(48.0),
            hibernate_image: Gigabytes::new(48.0),
            hibernate_io_efficiency: Fraction::new(0.8),
            stall_fraction: Fraction::new(0.3),
            utilization: Fraction::new(0.8),
            dirty: DirtyProfile::new(
                // The buffer pool churns as fast as the NIC can copy:
                // pre-copy migration barely converges and proactive
                // flushing leaves most of the state dirty.
                MegabytesPerSecond::new(95.0),
                Gigabytes::new(40.0),
                Gigabytes::new(42.0),
            ),
            remote_serve_fraction: Fraction::new(0.1),
            recovery: RecoveryModel {
                app_start: Seconds::new(20.0),
                // Buffer-pool re-warm from storage.
                reload: Gigabytes::new(30.0),
                reload_bandwidth: MegabytesPerSecond::new(100.0),
                warmup: Seconds::new(120.0),
                // WAL replay of the un-checkpointed window.
                recompute: DowntimeRange::spread(Seconds::ZERO, Seconds::from_minutes(10.0)),
            },
            load_profile: None,
        }
    }

    /// Starts a custom workload from an existing one's parameters.
    #[must_use]
    pub fn custom_from(base: Workload) -> Self {
        Self {
            kind: WorkloadKind::Custom,
            ..base
        }
    }

    /// The workload's identity.
    #[must_use]
    pub fn kind(&self) -> WorkloadKind {
        self.kind
    }

    /// Resident volatile state (what live migration must move).
    #[must_use]
    pub fn memory_footprint(&self) -> Gigabytes {
        self.memory_footprint
    }

    /// Pages written by suspend-to-disk (may be smaller than the footprint
    /// when much of it is clean and file-backed).
    #[must_use]
    pub fn hibernate_image(&self) -> Gigabytes {
        self.hibernate_image
    }

    /// Fraction of sequential disk bandwidth the hibernation image achieves.
    #[must_use]
    pub fn hibernate_io_efficiency(&self) -> Fraction {
        self.hibernate_io_efficiency
    }

    /// The hibernation image inflated by its I/O inefficiency — feed this to
    /// [`dcb_server::TransitionTimes`]-style transfer-time models expecting
    /// sequential bandwidth.
    #[must_use]
    pub fn effective_hibernate_image(&self) -> Gigabytes {
        if self.hibernate_io_efficiency.is_zero() {
            Gigabytes::new(f64::INFINITY)
        } else {
            self.hibernate_image / self.hibernate_io_efficiency.value()
        }
    }

    /// The state volume a hibernation-style save must write: the full
    /// image, or the residual dirty set when the save was pre-staged
    /// proactively, inflated by its I/O inefficiency. This is the
    /// workload side of the simulator's save-time model — the kernel's
    /// technique controller consumes it instead of reassembling the
    /// quotient from the raw image fields.
    #[must_use]
    pub fn hibernate_write_volume(&self, proactive: bool) -> Gigabytes {
        let raw = if proactive {
            self.dirty.proactive_hibernate_residual
        } else {
            self.hibernate_image
        };
        if self.hibernate_io_efficiency.is_zero() {
            Gigabytes::new(f64::INFINITY)
        } else {
            raw / self.hibernate_io_efficiency.value()
        }
    }

    /// The state volume a live migration must move: the full resident
    /// footprint, or the residual dirty set when migration was
    /// pre-staged proactively. The workload side of the simulator's
    /// migration-plan coupling.
    #[must_use]
    pub fn migration_state(&self, proactive: bool) -> Gigabytes {
        if proactive {
            self.dirty.proactive_migration_residual
        } else {
            self.memory_footprint
        }
    }

    /// Fraction of execution time stalled on memory (insensitive to CPU
    /// frequency).
    #[must_use]
    pub fn stall_fraction(&self) -> Fraction {
        self.stall_fraction
    }

    /// Typical CPU utilization under normal load (drives power draw).
    ///
    /// With a [`LoadProfile`] attached this is the profile's *peak* — the
    /// value capacity must be sized against.
    #[must_use]
    pub fn utilization(&self) -> Fraction {
        match self.load_profile {
            Some(profile) => profile.peak(),
            None => self.utilization,
        }
    }

    /// CPU utilization at an absolute time: follows the attached
    /// [`LoadProfile`], or the constant calibrated value without one.
    #[must_use]
    pub fn utilization_at(&self, t: dcb_units::Seconds) -> Fraction {
        match self.load_profile {
            Some(profile) => profile.utilization_at(t),
            None => self.utilization,
        }
    }

    /// The attached load profile, if any.
    #[must_use]
    pub fn load_profile(&self) -> Option<LoadProfile> {
        self.load_profile
    }

    /// Builder: attach a time-varying load profile.
    #[must_use]
    pub fn with_load_profile(mut self, profile: LoadProfile) -> Self {
        self.load_profile = Some(profile);
        self
    }

    /// Builder: freeze the load at a constant utilization, dropping any
    /// attached profile (used by the simulator to resolve a diurnal profile
    /// at an outage's start time).
    #[must_use]
    pub fn with_constant_load(mut self, utilization: Fraction) -> Self {
        self.load_profile = None;
        self.utilization = utilization;
        self
    }

    /// Page-dirtying behaviour.
    #[must_use]
    pub fn dirty_profile(&self) -> DirtyProfile {
        self.dirty
    }

    /// Crash-recovery behaviour.
    #[must_use]
    pub fn recovery(&self) -> RecoveryModel {
        self.recovery
    }

    /// Fraction of normal throughput that can still be served from the
    /// application's memory by remote peers over RDMA while its CPUs sleep
    /// (the §7 "RDMA over Sleep" / barely-alive-server enhancement).
    #[must_use]
    pub fn remote_serve_fraction(&self) -> Fraction {
        self.remote_serve_fraction
    }

    /// Builder: override the remote-serve fraction.
    #[must_use]
    pub fn with_remote_serve_fraction(mut self, fraction: Fraction) -> Self {
        self.remote_serve_fraction = fraction;
        self
    }

    /// Normalized throughput when the CPU runs at `speed` and the
    /// application holds a `share` of its normal resources (consolidation).
    ///
    /// Uses the standard stall-aware slowdown model: execution time scales
    /// as `(1 − s)/speed + s` where `s` is the stall fraction, so
    /// memory-bound applications lose little to DVFS.
    #[must_use]
    pub fn throughput_at(&self, speed: Fraction, share: Fraction) -> Fraction {
        if speed.is_zero() || share.is_zero() {
            return Fraction::ZERO;
        }
        let s = self.stall_fraction.value();
        let slowdown = (1.0 - s) / speed.value() + s;
        Fraction::new(share.value() / slowdown)
    }

    /// Downtime if the application crashes `outage`-deep into a power loss
    /// on a server that takes `boot` to restart.
    #[must_use]
    pub fn crash_downtime(&self, outage: Seconds, boot: Seconds) -> DowntimeRange {
        self.recovery.crash_downtime(outage, boot)
    }

    /// Builder: override the memory footprint, scaling the hibernation
    /// image, reload volume, and proactive residuals proportionally (the
    /// §6.2 state-size sensitivity study).
    ///
    /// # Panics
    ///
    /// Panics if the current footprint is zero.
    #[must_use]
    pub fn with_memory_footprint(mut self, footprint: Gigabytes) -> Self {
        assert!(
            self.memory_footprint.is_positive(),
            "cannot scale a zero-footprint workload"
        );
        let ratio = footprint / self.memory_footprint;
        self.memory_footprint = footprint;
        self.hibernate_image = self.hibernate_image * ratio;
        self.dirty.proactive_migration_residual = self.dirty.proactive_migration_residual * ratio;
        self.dirty.proactive_hibernate_residual = self.dirty.proactive_hibernate_residual * ratio;
        self.recovery.reload = self.recovery.reload * ratio;
        self
    }

    /// Builder: override the stall fraction.
    #[must_use]
    pub fn with_stall_fraction(mut self, stall: Fraction) -> Self {
        self.stall_fraction = stall;
        self
    }

    /// Builder: override the utilization.
    #[must_use]
    pub fn with_utilization(mut self, utilization: Fraction) -> Self {
        self.utilization = utilization;
        self
    }

    /// Builder: override the dirty profile.
    #[must_use]
    pub fn with_dirty_profile(mut self, dirty: DirtyProfile) -> Self {
        self.dirty = dirty;
        self
    }

    /// Builder: override the recovery model.
    #[must_use]
    pub fn with_recovery(mut self, recovery: RecoveryModel) -> Self {
        self.recovery = recovery;
        self
    }
}

impl StableHash for Workload {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            kind,
            memory_footprint,
            hibernate_image,
            hibernate_io_efficiency,
            stall_fraction,
            utilization,
            dirty,
            recovery,
            remote_serve_fraction,
            load_profile,
        } = self;
        kind.stable_hash(hasher);
        memory_footprint.stable_hash(hasher);
        hibernate_image.stable_hash(hasher);
        hibernate_io_efficiency.stable_hash(hasher);
        stall_fraction.stable_hash(hasher);
        utilization.stable_hash(hasher);
        dirty.stable_hash(hasher);
        recovery.stable_hash(hasher);
        remote_serve_fraction.stable_hash(hasher);
        load_profile.stable_hash(hasher);
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.kind, self.memory_footprint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn digest(workload: &Workload) -> u128 {
        let mut hasher = StableHasher::new();
        workload.stable_hash(&mut hasher);
        hasher.finish()
    }

    /// Fields no public builder sets alone are nudged directly here.
    #[test]
    fn every_field_moves_the_stable_hash() {
        let nudges: [fn(&mut Workload); 10] = [
            |w| w.kind = WorkloadKind::Memcached,
            |w| w.memory_footprint = Gigabytes::new(19.0),
            |w| w.hibernate_image = Gigabytes::new(17.0),
            |w| w.hibernate_io_efficiency = Fraction::new(0.9),
            |w| w.stall_fraction = Fraction::new(0.16),
            |w| w.utilization = Fraction::new(0.91),
            |w| w.dirty.dirty_rate = MegabytesPerSecond::new(71.0),
            |w| w.recovery.warmup = Seconds::new(41.0),
            |w| w.remote_serve_fraction = Fraction::new(0.06),
            |w| w.load_profile = Some(LoadProfile::Constant(Fraction::new(0.9))),
        ];
        let base = Workload::specjbb();
        let mut seen = vec![digest(&base)];
        for (field, nudge) in nudges.iter().enumerate() {
            let mut workload = base;
            nudge(&mut workload);
            let d = digest(&workload);
            assert!(!seen.contains(&d), "field {field} does not move the hash");
            seen.push(d);
        }
    }

    #[test]
    fn table7_memory_footprints() {
        assert_eq!(
            Workload::web_search().memory_footprint(),
            Gigabytes::new(40.0)
        );
        assert_eq!(Workload::specjbb().memory_footprint(), Gigabytes::new(18.0));
        assert_eq!(
            Workload::memcached().memory_footprint(),
            Gigabytes::new(20.0)
        );
        assert_eq!(
            Workload::spec_cpu().memory_footprint(),
            Gigabytes::new(16.0)
        );
    }

    #[test]
    fn specjbb_crash_downtime_is_about_400s() {
        // §6.1: "as much as 400 seconds even for a short 30 seconds outage".
        let d = Workload::specjbb().crash_downtime(Seconds::new(30.0), Seconds::new(120.0));
        assert!(
            (d.expected.value() - 400.0).abs() < 10.0,
            "got {}",
            d.expected
        );
    }

    #[test]
    fn memcached_crash_downtime_is_about_480s() {
        let d = Workload::memcached().crash_downtime(Seconds::new(30.0), Seconds::new(120.0));
        assert!(
            (d.expected.value() - 480.0).abs() < 10.0,
            "got {}",
            d.expected
        );
    }

    #[test]
    fn web_search_crash_downtime_is_about_600s() {
        let d = Workload::web_search().crash_downtime(Seconds::new(30.0), Seconds::new(120.0));
        assert!(
            (d.expected.value() - 600.0).abs() < 15.0,
            "got {}",
            d.expected
        );
    }

    #[test]
    fn spec_cpu_crash_downtime_spans_large_range() {
        let d = Workload::spec_cpu().crash_downtime(Seconds::new(30.0), Seconds::new(120.0));
        assert!(!d.is_exact());
        assert!(d.max - d.min >= Seconds::from_hours(1.9));
    }

    #[test]
    fn throttling_order_matches_paper() {
        // §6.2: throttled performance Memcached > Web-search > Specjbb.
        let speed = Fraction::new(0.4);
        let mc = Workload::memcached().throughput_at(speed, Fraction::ONE);
        let ws = Workload::web_search().throughput_at(speed, Fraction::ONE);
        let jbb = Workload::specjbb().throughput_at(speed, Fraction::ONE);
        assert!(mc > ws && ws > jbb, "mc={mc:?} ws={ws:?} jbb={jbb:?}");
    }

    #[test]
    fn full_speed_full_share_is_full_throughput() {
        for w in Workload::paper_suite() {
            assert_eq!(w.throughput_at(Fraction::ONE, Fraction::ONE), Fraction::ONE);
            assert_eq!(
                w.throughput_at(Fraction::ZERO, Fraction::ONE),
                Fraction::ZERO
            );
        }
    }

    #[test]
    fn memcached_effective_image_is_inflated() {
        let mc = Workload::memcached();
        assert!(mc.effective_hibernate_image() > mc.hibernate_image());
    }

    #[test]
    fn memory_scaling_is_proportional() {
        let half = Workload::specjbb().with_memory_footprint(Gigabytes::new(9.0));
        assert_eq!(half.hibernate_image(), Gigabytes::new(9.0));
        assert_eq!(
            half.dirty_profile().proactive_migration_residual,
            Gigabytes::new(5.0)
        );
        assert_eq!(half.kind(), WorkloadKind::Specjbb);
    }

    #[test]
    fn oltp_extension_hits_the_opposite_corner() {
        let oltp = Workload::oltp_database();
        // Proactive migration buys almost nothing for OLTP...
        let ratio = oltp.dirty_profile().proactive_migration_residual / oltp.memory_footprint();
        assert!(ratio > 0.8, "residual ratio {ratio}");
        // ...while for Specjbb it cuts the state nearly in half.
        let jbb = Workload::specjbb();
        let jbb_ratio = jbb.dirty_profile().proactive_migration_residual / jbb.memory_footprint();
        assert!(jbb_ratio < 0.6);
        // Crash recovery carries a WAL-replay range.
        let crash = oltp.crash_downtime(Seconds::new(30.0), Seconds::new(120.0));
        assert!(!crash.is_exact());
    }

    #[test]
    fn load_profile_drives_time_varying_utilization() {
        use crate::LoadProfile;
        use dcb_units::Seconds;
        let w = Workload::web_search()
            .with_load_profile(LoadProfile::typical_diurnal(Fraction::new(0.65)));
        // Peak-hour utilization equals the calibrated peak...
        assert_eq!(w.utilization(), Fraction::new(0.65));
        // ...while the trough sits well below it.
        let trough = w.utilization_at(Seconds::from_hours(8.0));
        assert!(trough < Fraction::new(0.35));
        // Without a profile the value is constant.
        assert_eq!(
            Workload::web_search().utilization_at(Seconds::from_hours(8.0)),
            Workload::web_search().utilization()
        );
    }

    #[test]
    fn remote_serve_ordering_favors_read_caches() {
        assert!(
            Workload::memcached().remote_serve_fraction()
                > Workload::web_search().remote_serve_fraction()
        );
        assert_eq!(Workload::spec_cpu().remote_serve_fraction(), Fraction::ZERO);
    }

    #[test]
    fn custom_from_changes_kind_only() {
        let c = Workload::custom_from(Workload::specjbb());
        assert_eq!(c.kind(), WorkloadKind::Custom);
        assert_eq!(c.memory_footprint(), Workload::specjbb().memory_footprint());
    }

    proptest! {
        #[test]
        fn throughput_monotone_in_speed(
            s1 in 0.01f64..=1.0,
            s2 in 0.01f64..=1.0,
            share in 0.01f64..=1.0,
        ) {
            for w in Workload::paper_suite() {
                let (lo, hi) = if s1 < s2 { (s1, s2) } else { (s2, s1) };
                prop_assert!(
                    w.throughput_at(Fraction::new(hi), Fraction::new(share))
                        >= w.throughput_at(Fraction::new(lo), Fraction::new(share))
                );
            }
        }

        #[test]
        fn throughput_bounded_by_share(speed in 0.01f64..=1.0, share in 0.0f64..=1.0) {
            for w in Workload::paper_suite() {
                let t = w.throughput_at(Fraction::new(speed), Fraction::new(share));
                prop_assert!(t.value() <= share + 1e-12);
            }
        }
    }
}
