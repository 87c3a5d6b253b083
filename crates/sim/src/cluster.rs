//! Clusters: homogeneous groups of servers running one workload.

use dcb_server::ServerSpec;
use dcb_units::{StableHash, StableHasher, Watts};
use dcb_workload::Workload;

/// A homogeneous cluster: `size` identical servers each hosting one
/// instance of the same workload (the paper's per-application evaluations
/// scale a single instrumented server up to the rack/datacenter level).
///
/// ```
/// use dcb_sim::Cluster;
/// use dcb_workload::Workload;
///
/// let c = Cluster::rack(Workload::memcached());
/// assert_eq!(c.size(), 16);
/// assert_eq!(c.peak_power().value(), 16.0 * 250.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Cluster {
    size: u32,
    spec: ServerSpec,
    workload: Workload,
}

impl Cluster {
    /// A rack of 16 paper-testbed servers.
    #[must_use]
    pub fn rack(workload: Workload) -> Self {
        Self::new(16, ServerSpec::paper_testbed(), workload)
    }

    /// A cluster of `size` servers of the given spec.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    #[must_use]
    pub fn new(size: u32, spec: ServerSpec, workload: Workload) -> Self {
        assert!(size > 0, "cluster needs at least one server");
        Self {
            size,
            spec,
            workload,
        }
    }

    /// Number of servers.
    #[must_use]
    pub fn size(&self) -> u32 {
        self.size
    }

    /// The server specification.
    #[must_use]
    pub fn spec(&self) -> &ServerSpec {
        &self.spec
    }

    /// The hosted workload.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Aggregate nameplate peak power — what the backup infrastructure is
    /// provisioned against.
    #[must_use]
    pub fn peak_power(&self) -> Watts {
        self.spec.peak_power() * f64::from(self.size)
    }
}

impl StableHash for Cluster {
    fn stable_hash(&self, hasher: &mut StableHasher) {
        let Self {
            size,
            spec,
            workload,
        } = self;
        size.stable_hash(hasher);
        spec.stable_hash(hasher);
        workload.stable_hash(hasher);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_scales_with_size() {
        let one = Cluster::new(1, ServerSpec::paper_testbed(), Workload::specjbb());
        let many = Cluster::new(40, ServerSpec::paper_testbed(), Workload::specjbb());
        assert_eq!(many.peak_power().value(), 40.0 * one.peak_power().value());
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_cluster_rejected() {
        let _ = Cluster::new(0, ServerSpec::paper_testbed(), Workload::specjbb());
    }
}
