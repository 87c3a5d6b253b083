//! The canonical evaluation key: one (cluster, config, technique, duration)
//! point, digested through [`ClusterKey`], which absorbs the cluster once
//! for every point on it.

use dcb_power::BackupConfig;
use dcb_sim::{Cluster, Technique};
use dcb_units::{Seconds, StableHash, StableHasher};

/// One point in the cost-performability space, as a value: the cluster
/// spec, backup configuration, outage-handling technique, and outage
/// duration that together determine an evaluation.
///
/// Evaluation is a pure function of these four components, which is what
/// makes memoization sound: two scenarios with equal [`Self::digest`]s
/// simulate identically.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The cluster under test.
    pub cluster: Cluster,
    /// The backup power configuration.
    pub config: BackupConfig,
    /// The outage-handling technique.
    pub technique: Technique,
    /// The outage duration.
    pub duration: Seconds,
}

impl Scenario {
    /// Bundles one evaluation point.
    #[must_use]
    pub fn new(
        cluster: &Cluster,
        config: &BackupConfig,
        technique: &Technique,
        duration: Seconds,
    ) -> Self {
        Self {
            cluster: *cluster,
            config: config.clone(),
            technique: technique.clone(),
            duration,
        }
    }

    /// The scenario's stable 128-bit digest, suitable as an
    /// [`crate::EvalCache`] key: [`ClusterKey::digest`] on a fresh key for
    /// its cluster.
    #[must_use]
    pub fn digest(&self) -> u128 {
        let Self {
            cluster,
            config,
            technique,
            duration,
        } = self;
        ClusterKey::new(cluster).digest(config, technique, *duration)
    }
}

/// A cluster with its digest prefix absorbed: the key under which every
/// scenario on that cluster is memoized.
///
/// FNV-1a absorbs one byte after another, so the hasher state after the
/// cluster's encoding (most of a scenario's bytes) can be saved and
/// resumed. A search or sweep that evaluates many points on one cluster
/// builds one key and digests each point from the saved state; the key
/// borrows its cluster, so a prefix cannot be resumed for another.
///
/// ```
/// use dcb_fleet::{ClusterKey, Scenario};
/// use dcb_power::BackupConfig;
/// use dcb_sim::{Cluster, Technique};
/// use dcb_units::Seconds;
/// use dcb_workload::Workload;
///
/// let cluster = Cluster::rack(Workload::specjbb());
/// let key = ClusterKey::new(&cluster);
/// let (config, technique) = (BackupConfig::no_dg(), Technique::sleep());
/// let at = Seconds::new(30.0);
/// let scenario = Scenario::new(&cluster, &config, &technique, at);
/// assert_eq!(key.digest(&config, &technique, at), scenario.digest());
/// ```
#[derive(Debug)]
pub struct ClusterKey<'a> {
    cluster: &'a Cluster,
    prefix: StableHasher,
}

impl<'a> ClusterKey<'a> {
    /// Absorbs `cluster`'s encoding once.
    #[must_use]
    pub fn new(cluster: &'a Cluster) -> Self {
        let mut prefix = StableHasher::new();
        cluster.stable_hash(&mut prefix);
        Self { cluster, prefix }
    }

    /// The cluster whose prefix this key holds.
    #[must_use]
    pub fn cluster(&self) -> &'a Cluster {
        self.cluster
    }

    /// The digest of the scenario (this key's cluster, `config`,
    /// `technique`, `duration`): each component's typed [`StableHash`]
    /// encoding, in that order. Every field — server spec, workload
    /// parameters, DG/UPS fractions, battery runtime and chemistry,
    /// technique actions, the duration — participates, floats by IEEE-754
    /// bit pattern.
    #[must_use]
    pub fn digest(&self, config: &BackupConfig, technique: &Technique, duration: Seconds) -> u128 {
        let mut hasher = self.prefix.clone();
        config.stable_hash(&mut hasher);
        technique.stable_hash(&mut hasher);
        duration.stable_hash(&mut hasher);
        hasher.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_workload::Workload;

    fn base() -> Scenario {
        Scenario::new(
            &Cluster::rack(Workload::specjbb()),
            &BackupConfig::no_dg(),
            &Technique::ride_through(),
            Seconds::from_minutes(5.0),
        )
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(base().digest(), base().digest());
    }

    #[test]
    fn every_component_feeds_the_digest() {
        let reference = base().digest();
        let mut other_workload = base();
        other_workload.cluster = Cluster::rack(Workload::memcached());
        let mut other_config = base();
        other_config.config = BackupConfig::max_perf();
        let mut other_technique = base();
        other_technique.technique = Technique::sleep();
        let mut other_duration = base();
        other_duration.duration = Seconds::from_minutes(5.0 + 1e-9);
        for (what, scenario) in [
            ("workload", other_workload),
            ("config", other_config),
            ("technique", other_technique),
            ("duration", other_duration),
        ] {
            assert_ne!(reference, scenario.digest(), "{what} ignored by digest");
        }
    }

    #[test]
    fn table3_catalog_grid_has_no_collisions() {
        let cluster = Cluster::rack(Workload::specjbb());
        let mut digests = Vec::new();
        for config in BackupConfig::table3() {
            for technique in Technique::catalog() {
                for minutes in [0.5, 5.0, 30.0, 60.0, 120.0] {
                    digests.push(
                        Scenario::new(
                            &cluster,
                            &config,
                            &technique,
                            Seconds::from_minutes(minutes),
                        )
                        .digest(),
                    );
                }
            }
        }
        let total = digests.len();
        digests.sort_unstable();
        digests.dedup();
        assert_eq!(digests.len(), total, "digest collision in the paper grid");
    }
}
