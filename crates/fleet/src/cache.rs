//! The sharded memoization cache for evaluated scenarios.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One shard's map: the workspace's one sanctioned hash container.
#[expect(
    clippy::disallowed_types,
    reason = "key-addressed and never iterated, so the per-process hash seed never reaches a result"
)]
type ShardMap<V> = std::collections::HashMap<u128, V>;

/// Locks a shard, recovering from poisoning: cached values are only ever
/// written whole (a panicked writer leaves either the old map or the new
/// entry, never a torn value), so the poison flag carries no information
/// here and recovery is always safe.
fn lock_shard<V>(shard: &Mutex<ShardMap<V>>) -> MutexGuard<'_, ShardMap<V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A sharded, thread-safe memoization map keyed by 128-bit stable digests
/// (see [`crate::Scenario::digest`] and [`crate::StableHash`]).
///
/// Keys are the digests themselves: with 128-bit digests the accidental
/// collision probability is negligible, so no full key is stored. Lookups
/// lock only the shard owning the key; misses compute *outside* the lock,
/// so a slow simulation never serializes unrelated evaluations (two racing
/// misses on the same key may both compute — the first insert wins, which
/// is harmless because evaluation is deterministic).
///
/// ```
/// use dcb_fleet::EvalCache;
///
/// let cache: EvalCache<u64> = EvalCache::new();
/// assert_eq!(cache.get_or_compute(7, || 41 + 1), 42);
/// assert_eq!(cache.get_or_compute(7, || unreachable!("memoized")), 42);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct EvalCache<V> {
    shards: Box<[Mutex<ShardMap<V>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Hit/miss counters for an [`EvalCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute.
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups answered from the cache (0 when empty).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

const DEFAULT_SHARDS: usize = 16;

impl<V: Clone> EvalCache<V> {
    /// A cache with the default shard count.
    #[must_use]
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// A cache with an explicit shard count (clamped up to 1).
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(ShardMap::new()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u128) -> &Mutex<ShardMap<V>> {
        // The digest's low bits are well-mixed; fold in the high half anyway.
        let fold = (key as u64) ^ ((key >> 64) as u64);
        &self.shards[(fold as usize) % self.shards.len()]
    }

    /// The cached value for `key`, if any.
    #[must_use]
    pub fn get(&self, key: u128) -> Option<V> {
        lock_shard(self.shard(key)).get(&key).cloned()
    }

    /// Stores a value, overwriting any previous entry.
    pub fn insert(&self, key: u128, value: V) {
        lock_shard(self.shard(key)).insert(key, value);
    }

    /// Returns the cached value for `key`, computing and caching it on a
    /// miss. `compute` runs outside the shard lock.
    pub fn get_or_compute(&self, key: u128, compute: impl FnOnce() -> V) -> V {
        // Both counters register up front (registration is a cached
        // OnceLock read) so the derived hit rate appears in snapshots even
        // for all-miss workloads.
        let hit_events = dcb_telemetry::counter!("fleet.cache.hits");
        let miss_events = dcb_telemetry::counter!("fleet.cache.misses");
        if let Some(value) = self.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            hit_events.incr();
            dcb_trace::instant(None, None, || dcb_trace::EventKind::CacheHit {
                digest: format!("{key:032x}"),
            });
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        miss_events.incr();
        dcb_trace::instant(None, None, || dcb_trace::EventKind::CacheMiss {
            digest: format!("{key:032x}"),
        });
        if dcb_prof::enabled() {
            let _cache = dcb_prof::frame("eval-cache");
            dcb_prof::record(dcb_prof::WorkKind::CacheMisses, 1);
        }
        let value = compute();
        lock_shard(self.shard(key))
            .entry(key)
            .or_insert_with(|| value.clone());
        value
    }

    /// Number of cached entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| lock_shard(shard).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and resets the counters.
    pub fn clear(&self) {
        dcb_telemetry::counter!("fleet.cache.evictions").add(self.len() as u64);
        for shard in &self.shards {
            lock_shard(shard).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }

    /// Hit/miss counters since construction (or the last [`Self::clear`]).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

impl<V: Clone> Default for EvalCache<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memoizes_and_counts() {
        let cache: EvalCache<String> = EvalCache::new();
        assert_eq!(cache.get_or_compute(1, || "a".to_owned()), "a");
        assert_eq!(cache.get_or_compute(1, || "b".to_owned()), "a");
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clear_resets_everything() {
        let cache: EvalCache<u8> = EvalCache::with_shards(4);
        for key in 0..100u128 {
            cache.get_or_compute(key * 7, || key as u8);
        }
        assert_eq!(cache.len(), 100);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats(), CacheStats::default());
    }

    #[test]
    fn concurrent_hammering_stays_consistent() {
        let cache: EvalCache<u128> = EvalCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for key in 0..500u128 {
                        assert_eq!(cache.get_or_compute(key, || key * 2), key * 2);
                    }
                });
            }
        });
        assert_eq!(cache.len(), 500);
    }
}
