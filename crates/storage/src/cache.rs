//! A bounded LRU cache of materialized rollback versions.
//!
//! The delta chain pays for its space savings at query time: every
//! `state_at` copies the nearest materialized state and applies the net
//! delta of the chain from there. Rollback workloads are repetitive —
//! audits re-read the same as-of points, differential tests sweep the
//! same transaction range — so the engine shares one
//! [`MaterializationCache`] across all of its stores: reconstructed
//! versions are remembered under `(relation id, floor commit tx)` and a
//! later probe of exactly that version returns an O(1) `Arc`-backed
//! clone instead of the copy and the pass. That is all it buys: a
//! cached version is never a replay seed for another one (the store's
//! checkpoints bound the chain already, and looking for a nearer seed
//! took this lock once per entry walked back).
//!
//! The key is stable by construction. A version's commit transaction
//! number never changes once appended; `truncate_before` keeps the floor
//! version (so surviving keys stay valid and dropped versions are simply
//! never probed again); relation ids are allocated fresh on every
//! `define_relation`, so a deleted-and-redefined relation cannot see its
//! predecessor's entries.
//!
//! Eviction is least-recently-used over a monotonic tick, with a linear
//! scan to find the victim — capacities are small (default
//! [`DEFAULT_CACHE_CAPACITY`]) and the scan is trivially cheaper than the
//! replay a hit saves. A capacity of 0 disables the cache entirely, which
//! the benchmarks use as the uncached baseline.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use txtime_core::StateValue;

use crate::metrics::CacheStats;

/// Default number of materialized versions the engine-wide cache holds.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// A cached materialized version.
struct CacheEntry {
    state: StateValue,
    last_used: u64,
}

struct CacheInner {
    capacity: usize,
    tick: u64,
    entries: HashMap<(u64, u64), CacheEntry>,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    replayed_deltas: u64,
}

/// A bounded, thread-safe LRU cache of reconstructed rollback versions,
/// shared by every delta store of one [`crate::Engine`].
pub struct MaterializationCache {
    inner: Mutex<CacheInner>,
}

impl MaterializationCache {
    /// A cache holding at most `capacity` materialized versions
    /// (0 disables caching).
    pub fn new(capacity: usize) -> MaterializationCache {
        MaterializationCache {
            inner: Mutex::new(CacheInner {
                capacity,
                tick: 0,
                entries: HashMap::new(),
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
                replayed_deltas: 0,
            }),
        }
    }

    /// A cache with the default capacity, ready to share across stores.
    pub fn shared() -> Arc<MaterializationCache> {
        Arc::new(MaterializationCache::new(DEFAULT_CACHE_CAPACITY))
    }

    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        // The cache holds no invariants a panic could break mid-update;
        // recover the guard rather than poisoning every later query.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up the materialized version of relation `rel` committed at
    /// `tx`, counting the probe as a hit or miss.
    pub fn get(&self, rel: u64, tx: u64) -> Option<StateValue> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&(rel, tx)) {
            Some(entry) => {
                entry.last_used = tick;
                let state = entry.state.clone();
                inner.hits += 1;
                Some(state)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Remembers the materialized version of `rel` at `tx`, evicting the
    /// least-recently-used entry if the cache is full. A no-op when the
    /// capacity is 0.
    pub fn insert(&self, rel: u64, tx: u64, state: StateValue) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let tick = inner.tick;
        if !inner.entries.contains_key(&(rel, tx)) && inner.entries.len() >= inner.capacity {
            inner.evict_lru();
        }
        inner.insertions += 1;
        inner.entries.insert(
            (rel, tx),
            CacheEntry {
                state,
                last_used: tick,
            },
        );
    }

    /// Adds `n` to the replayed-delta counter (the work a store did to
    /// reconstruct a version the cache did not have).
    pub fn add_replayed(&self, n: u64) {
        self.lock().replayed_deltas += n;
    }

    /// Drops every entry belonging to relation `rel` (used when the
    /// relation is deleted, so its versions can never be probed again).
    pub fn purge_relation(&self, rel: u64) {
        self.lock().entries.retain(|(r, _), _| *r != rel);
    }

    /// Resizes the cache, evicting least-recently-used entries if the new
    /// capacity is smaller. A capacity of 0 empties and disables it.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        while inner.entries.len() > capacity {
            inner.evict_lru();
        }
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            replayed_deltas: inner.replayed_deltas,
            entries: inner.entries.len(),
            capacity: inner.capacity,
        }
    }

    /// Resets the counters (entries are kept) — lets benchmarks measure a
    /// warm phase in isolation.
    pub fn reset_stats(&self) {
        let mut inner = self.lock();
        inner.hits = 0;
        inner.misses = 0;
        inner.insertions = 0;
        inner.evictions = 0;
        inner.replayed_deltas = 0;
    }
}

impl std::fmt::Debug for MaterializationCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaterializationCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CacheInner {
    fn evict_lru(&mut self) {
        // Linear scan: capacities are small and eviction is rare next to
        // the replay work a hit saves.
        if let Some(&victim) = self
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| k)
        {
            self.entries.remove(&victim);
            self.evictions += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};

    fn snap(vals: &[i64]) -> StateValue {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        StateValue::Snapshot(
            SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap(),
        )
    }

    #[test]
    fn hits_and_misses_are_counted() {
        let c = MaterializationCache::new(4);
        assert!(c.get(1, 10).is_none());
        c.insert(1, 10, snap(&[1]));
        assert_eq!(c.get(1, 10), Some(snap(&[1])));
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let c = MaterializationCache::new(2);
        c.insert(1, 1, snap(&[1]));
        c.insert(1, 2, snap(&[2]));
        let _ = c.get(1, 1); // refresh 1 — 2 is now the LRU victim
        c.insert(1, 3, snap(&[3]));
        assert_eq!(c.stats().evictions, 1);
        assert!(c.get(1, 2).is_none());
        assert_eq!(c.get(1, 1), Some(snap(&[1])));
        assert_eq!(c.get(1, 3), Some(snap(&[3])));
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let c = MaterializationCache::new(0);
        c.insert(1, 1, snap(&[1]));
        assert!(c.get(1, 1).is_none());
        assert_eq!(c.stats().insertions, 0);
    }

    #[test]
    fn shrinking_capacity_evicts_down() {
        let c = MaterializationCache::new(4);
        for t in 0..4 {
            c.insert(1, t, snap(&[t as i64]));
        }
        c.set_capacity(1);
        assert_eq!(c.stats().entries, 1);
        // The most recently inserted entry survives.
        assert_eq!(c.get(1, 3), Some(snap(&[3])));
    }

    #[test]
    fn purge_relation_is_selective() {
        let c = MaterializationCache::new(8);
        c.insert(1, 1, snap(&[1]));
        c.insert(2, 1, snap(&[2]));
        c.purge_relation(1);
        assert!(c.get(1, 1).is_none());
        assert_eq!(c.get(2, 1), Some(snap(&[2])));
    }
}
