//! A sharded, version-keyed cache.
//!
//! The serving engine's top-`n` cache invalidates by version: every
//! entry is tagged with the model version that produced it, and an entry
//! is served only while its tag equals the *current* version
//! ([`crate::ModelHandle`]).
//! A model swap therefore invalidates every cached value wholesale with a
//! single version bump — no per-entry work, no stop-the-world sweep on the
//! swap path. Stale entries are evicted lazily (overwritten on the next
//! insert under the same key) or in bulk via [`VersionedCache::purge_stale`]
//! for deployments that want the memory back eagerly.
//!
//! Concurrency: the map is split into power-of-two shards, each behind its
//! own `RwLock`. The read path takes one shard *read* lock (shared, so
//! concurrent readers of a hot shard never serialize) and performs zero
//! per-entry locking — values are handed out as `Arc` clones. Writes touch
//! only the owning shard.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// Default shard count for the serving engine's top-`n` cache.
pub const DEFAULT_SHARDS: usize = 16;

/// One shard: a locked map from key to `(version_tag, value)`.
type Shard<K, V> = RwLock<HashMap<K, (u64, Arc<V>)>>;

/// A sharded map from `K` to version-tagged `Arc<V>` values.
#[derive(Debug)]
pub struct VersionedCache<K, V> {
    shards: Box<[Shard<K, V>]>,
    mask: usize,
}

impl<K: Hash + Eq, V> VersionedCache<K, V> {
    /// Cache with `shards` shards (rounded up to a power of two, min 1).
    pub fn with_shards(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        VersionedCache {
            shards: (0..n).map(|_| RwLock::new(HashMap::new())).collect(),
            mask: n - 1,
        }
    }

    fn shard(&self, key: &K) -> &Shard<K, V> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) & self.mask]
    }

    /// Look up `key`, returning the value only if it was stored under
    /// `version` (the caller passes the *current* model version; anything
    /// else is stale and reported as a miss).
    pub fn get(&self, key: &K, version: u64) -> Option<Arc<V>> {
        let shard = self.shard(key).read().unwrap_or_else(|e| e.into_inner());
        shard
            .get(key)
            .filter(|(v, _)| *v == version)
            .map(|(_, value)| value.clone())
    }

    /// Store `value` under `key`, tagged with `version`. Overwrites any
    /// previous entry for the key (in particular, lazily evicting a stale
    /// one). An insert tagged with an already-superseded version is
    /// harmless: [`VersionedCache::get`] can never return it.
    pub fn insert(&self, key: K, version: u64, value: Arc<V>) {
        let mut shard = self.shard(&key).write().unwrap_or_else(|e| e.into_inner());
        shard.insert(key, (version, value));
    }

    /// Drop every entry whose tag differs from `version`, returning how
    /// many were removed. Optional: correctness never requires it (stale
    /// entries are unreachable through [`VersionedCache::get`]); this only
    /// reclaims their memory eagerly after a swap.
    pub fn purge_stale(&self, version: u64) -> usize {
        let mut removed = 0;
        for shard in self.shards.iter() {
            let mut shard = shard.write().unwrap_or_else(|e| e.into_inner());
            let before = shard.len();
            shard.retain(|_, (v, _)| *v == version);
            removed += before - shard.len();
        }
        removed
    }

    /// Total entries, live and stale (diagnostics/tests).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// True when no entries are stored at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Entries whose tag differs from `version` (diagnostics/tests).
    pub fn stale_len(&self, version: u64) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap_or_else(|e| e.into_inner())
                    .values()
                    .filter(|(v, _)| *v != version)
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_mismatch_is_a_miss() {
        let c: VersionedCache<(usize, usize), Vec<f64>> = VersionedCache::with_shards(4);
        c.insert((3, 5), 1, Arc::new(vec![1.0]));
        assert!(c.get(&(3, 5), 1).is_some());
        assert!(c.get(&(3, 5), 2).is_none(), "stale entry must not serve");
        assert!(c.get(&(0, 0), 1).is_none(), "absent key");
    }

    #[test]
    fn purge_removes_exactly_the_stale() {
        let c: VersionedCache<usize, f64> = VersionedCache::with_shards(2);
        for k in 0..20 {
            c.insert(k, 1, Arc::new(k as f64));
        }
        c.insert(7, 2, Arc::new(-1.0));
        assert_eq!(c.len(), 20);
        assert_eq!(c.stale_len(2), 19);
        assert_eq!(c.purge_stale(2), 19);
        assert_eq!(c.len(), 1);
        assert_eq!(*c.get(&7, 2).unwrap(), -1.0);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c: VersionedCache<usize, usize> = VersionedCache::with_shards(0);
        assert_eq!(c.shards.len(), 1);
        let c: VersionedCache<usize, usize> = VersionedCache::with_shards(9);
        assert_eq!(c.shards.len(), 16);
        // Every key routes to a valid shard and round-trips.
        for k in 0..100 {
            c.insert(k, 1, Arc::new(k));
            assert_eq!(*c.get(&k, 1).unwrap(), k);
        }
        assert!(!c.is_empty());
    }
}
