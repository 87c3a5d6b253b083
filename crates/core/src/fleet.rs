//! Process-wide fleet execution: the shared [`FleetPool`] and the
//! [`Performability`] memoization cache that every sweep, sizing search,
//! planner run, and availability analysis routes through.
//!
//! The pool is sized once from the environment (`DCB_THREADS`, then
//! [`std::thread::available_parallelism`]); the cache is keyed by
//! [`ClusterKey::digest`] (the same value as [`Scenario::digest`]), so a
//! point is simulated once per process however many sweeps and searches
//! visit it. Parallel results are bit-identical to serial evaluation —
//! see the determinism contract in [`dcb_fleet`].

use crate::evaluate::{evaluate, Performability};
use dcb_fleet::{CacheStats, ClusterKey, EvalCache, FleetPool, Scenario};
use dcb_power::BackupConfig;
use dcb_sim::Technique;
use dcb_units::Seconds;
use std::sync::OnceLock;

/// The process-wide evaluation pool.
pub fn pool() -> &'static FleetPool {
    static POOL: OnceLock<FleetPool> = OnceLock::new();
    POOL.get_or_init(FleetPool::new)
}

/// The process-wide [`Performability`] memoization cache.
pub fn cache() -> &'static EvalCache<Performability> {
    static CACHE: OnceLock<EvalCache<Performability>> = OnceLock::new();
    CACHE.get_or_init(EvalCache::new)
}

/// Evaluates one scenario through the shared cache: a hit returns the
/// memoized [`Performability`]; a miss simulates and caches it.
#[must_use]
pub fn evaluate_scenario(scenario: &Scenario) -> Performability {
    let Scenario {
        cluster,
        config,
        technique,
        duration,
    } = scenario;
    evaluate_keyed(&ClusterKey::new(cluster), config, technique, *duration)
}

/// [`evaluate_scenario`] for the point (`key`'s cluster, `config`,
/// `technique`, `duration`), digested from the key's saved cluster prefix:
/// a search or sweep over one cluster builds one key for all its points.
///
/// ```
/// use dcb_core::fleet;
/// use dcb_core::{BackupConfig, Cluster, Technique};
/// use dcb_fleet::ClusterKey;
/// use dcb_units::Seconds;
/// use dcb_workload::Workload;
///
/// let cluster = Cluster::rack(Workload::specjbb());
/// let key = ClusterKey::new(&cluster);
/// let results: Vec<_> = Technique::catalog()
///     .iter()
///     .map(|t| fleet::evaluate_keyed(&key, &BackupConfig::max_perf(), t, Seconds::new(30.0)))
///     .collect();
/// assert_eq!(results.len(), Technique::catalog().len());
/// ```
#[must_use]
pub fn evaluate_keyed(
    key: &ClusterKey<'_>,
    config: &BackupConfig,
    technique: &Technique,
    duration: Seconds,
) -> Performability {
    cache().get_or_compute(key.digest(config, technique, duration), || {
        evaluate(key.cluster(), config, technique, duration)
    })
}

/// Hit/miss counters of the shared cache.
#[must_use]
pub fn cache_stats() -> CacheStats {
    cache().stats()
}

/// Drops every memoized evaluation and resets the counters. Benchmarks use
/// this to measure cold-cache behaviour.
pub fn clear_cache() {
    cache().clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcb_sim::Cluster;
    use dcb_workload::Workload;

    #[test]
    fn cached_evaluation_matches_direct() {
        let cluster = Cluster::rack(Workload::specjbb());
        let scenario = Scenario::new(
            &cluster,
            &BackupConfig::no_dg(),
            &Technique::sleep(),
            Seconds::from_minutes(7.0),
        );
        let direct = evaluate(
            &scenario.cluster,
            &scenario.config,
            &scenario.technique,
            scenario.duration,
        );
        assert_eq!(evaluate_scenario(&scenario), direct);
        // Second lookup is answered from the cache and stays identical.
        assert_eq!(evaluate_scenario(&scenario), direct);
    }

    #[test]
    fn keyed_evaluation_matches_direct_and_memoizes() {
        let cluster = Cluster::rack(Workload::memcached());
        let key = ClusterKey::new(&cluster);
        let (config, at) = (BackupConfig::small_pups(), Seconds::from_minutes(11.0));
        for technique in Technique::catalog() {
            let direct = evaluate(&cluster, &config, &technique, at);
            assert_eq!(evaluate_keyed(&key, &config, &technique, at), direct);
            // The first call cached the point under the scenario's digest,
            // so the second is a hit on the same value.
            let digest = Scenario::new(&cluster, &config, &technique, at).digest();
            assert_eq!(cache().get(digest).as_ref(), Some(&direct));
            assert_eq!(evaluate_keyed(&key, &config, &technique, at), direct);
        }
    }
}
