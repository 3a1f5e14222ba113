//! A bounded LRU cache of rollback versions, as composed replays or
//! whole.
//!
//! The delta chain pays for its space savings at query time: a version
//! the store does not hold is its nearest checkpoint plus the net delta
//! of the links between (`StateDelta::compose`). Rollback workloads
//! are repetitive — audits re-read the same as-of points, differential
//! tests sweep the same transaction range — so the engine shares one
//! [`MaterializationCache`] across all of its stores, and a version is
//! remembered under `(relation id, floor commit tx)` in one of two forms:
//!
//! * **A composed replay** ([`CachedVersion::Replay`]): the commit
//!   transaction of the checkpoint the replay starts from, and the net
//!   delta, behind an `Arc`. A filtered read (`σ` over `ρ(I, n)`)
//!   inserts the replay it composes; a later filtered read of the same
//!   version filters the checkpoint and the net delta without composing
//!   the links again, and without building the version either.
//! * **The whole version** ([`CachedVersion::Whole`]): what a whole
//!   read (`state_at`, `state_at_many`) built, from the links or from a
//!   cached replay, which it replaces. A repeated whole read is then one
//!   lookup and an O(1) `Arc`-backed clone, and a filtered read filters
//!   it.
//!
//! A cached version is never a replay seed for another one (the store's
//! checkpoints bound the chain already, and looking for a nearer seed
//! took this lock once per entry walked back).
//!
//! The key is stable by construction. A version's commit transaction
//! number never changes once appended, and neither does a link, so a
//! replay stays right as long as its checkpoint stays; compaction only
//! adds checkpoints, and `truncate_before`, the one thing that drops
//! them, purges the relation's entries. Relation ids are allocated fresh
//! on every `define_relation`, so a deleted-and-redefined relation
//! cannot see its predecessor's entries.
//!
//! Eviction is least-recently-used over a monotonic tick, scoped by
//! owner. Each entry records the thread that inserted it. A full cache
//! makes room for a thread's entry from that thread's own entries once
//! it holds its share (the capacity divided among the threads that hold
//! entries and have inserted one lately), and from the least recently
//! used entry of all while it holds less: that is how a new session
//! grows to its share, and how the entries of a session that ended or
//! went quiet are reclaimed. Hits stay shared across sessions, and the
//! capacity bounds the whole cache. Victims are dropped after the lock
//! is released.
//!
//! Ownership is there for the allocator, not for fairness. On one
//! thread the rule is plain LRU, and a linear scan for the victim costs
//! next to nothing beside the replay a hit saves. On two, a cache that
//! lets one session free the replays the other composed made every past
//! read cost about twice what it costs alone, while an eviction order
//! kept without a scan, admission on a second miss and padded entries
//! did not recover it; scoping eviction by owner did, at an unchanged
//! hit rate (EXPERIMENTS E28). A capacity of 0 disables the cache entirely, which
//! the benchmarks use as the uncached baseline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, ThreadId};

use txtime_core::{StateValue, TransactionNumber};

use crate::delta::StateDelta;
use crate::metrics::CacheStats;

/// Default number of versions the engine-wide cache holds.
pub const DEFAULT_CACHE_CAPACITY: usize = 128;

/// What the cache remembers of one version.
#[derive(Debug, Clone, PartialEq)]
pub enum CachedVersion {
    /// The version's composed replay: the commit transaction of the
    /// checkpoint it starts from, and the net delta of the links from
    /// there, shared so a probe never copies it.
    Replay {
        /// The checkpoint's commit transaction.
        seed: TransactionNumber,
        /// The net delta that carries the checkpoint to the version.
        net: Arc<StateDelta>,
    },
    /// The version whole, as a whole read built it.
    Whole(StateValue),
}

/// A cached version, when it was last used, and who inserted it.
struct CacheEntry {
    version: CachedVersion,
    last_used: u64,
    owner: ThreadId,
}

/// What one thread holds of the cache.
struct Holding {
    owner: ThreadId,
    entries: usize,
    /// The cache's insertion count at the thread's latest insertion.
    inserted_at: u64,
}

struct CacheInner {
    capacity: usize,
    tick: u64,
    entries: HashMap<(u64, u64), CacheEntry>,
    /// One holding per thread that holds an entry.
    holdings: Vec<Holding>,
    /// Insertions over the cache's lifetime (the counters reset; this
    /// does not).
    inserted: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

/// A bounded, thread-safe LRU cache of rollback versions, composed
/// replays or whole, shared by every delta store of one
/// [`crate::Engine`], with eviction scoped by the inserting thread.
pub struct MaterializationCache {
    inner: Mutex<CacheInner>,
    /// Kept outside the lock, so counting a replay never takes it.
    replayed_deltas: AtomicU64,
}

impl MaterializationCache {
    /// A cache holding at most `capacity` versions (0 disables caching).
    pub fn new(capacity: usize) -> MaterializationCache {
        MaterializationCache {
            inner: Mutex::new(CacheInner {
                capacity,
                tick: 0,
                entries: HashMap::new(),
                holdings: Vec::new(),
                inserted: 0,
                hits: 0,
                misses: 0,
                insertions: 0,
                evictions: 0,
            }),
            replayed_deltas: AtomicU64::new(0),
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

    /// Looks up the version of relation `rel` committed at `tx`,
    /// counting the probe as a hit or miss.
    pub fn get(&self, rel: u64, tx: u64) -> Option<CachedVersion> {
        let mut inner = self.lock();
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&(rel, tx)) {
            Some(entry) => {
                entry.last_used = tick;
                let version = entry.version.clone();
                inner.hits += 1;
                Some(version)
            }
            None => {
                inner.misses += 1;
                None
            }
        }
    }

    /// Remembers the version of `rel` at `tx` as the calling thread's,
    /// replacing what the cache held of it and, if the cache is full,
    /// evicting the entry [`CacheInner::victim`] names. A no-op when the
    /// capacity is 0.
    pub fn insert(&self, rel: u64, tx: u64, version: CachedVersion) {
        let owner = thread::current().id();
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        inner.tick += 1;
        let entry = CacheEntry {
            version,
            last_used: inner.tick,
            owner,
        };
        let full = !inner.entries.contains_key(&(rel, tx)) && inner.entries.len() >= inner.capacity;
        let victim = if full {
            inner.victim(owner).and_then(|key| inner.evict(key))
        } else {
            None
        };
        inner.insertions += 1;
        inner.inserted += 1;
        inner.hold(owner);
        let replaced = inner.entries.insert((rel, tx), entry);
        if let Some(old) = &replaced {
            inner.release(old.owner);
        }
        // What leaves the cache is freed by this thread, after the lock.
        drop(inner);
        drop((victim, replaced));
    }

    /// Adds `n` to the replayed-delta counter (the work a store did to
    /// reconstruct a version the cache did not have).
    pub fn add_replayed(&self, n: u64) {
        self.replayed_deltas.fetch_add(n, Ordering::Relaxed);
    }

    /// Drops every entry belonging to relation `rel`, whoever inserted
    /// it: when the relation is deleted, so its versions can never be
    /// probed again, and when its chain is truncated, so no replay
    /// outlives its checkpoint.
    pub fn purge_relation(&self, rel: u64) {
        let mut inner = self.lock();
        let keys: Vec<_> = inner
            .entries
            .keys()
            .filter(|(r, _)| *r == rel)
            .copied()
            .collect();
        let purged: Vec<_> = keys.into_iter().filter_map(|k| inner.remove(k)).collect();
        drop(inner);
        drop(purged);
    }

    /// Resizes the cache, evicting the least-recently-used entries of
    /// all owners if the new capacity is smaller. A capacity of 0
    /// empties and disables it.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        let mut evicted = Vec::new();
        while inner.entries.len() > capacity {
            let Some(key) = inner.least_recent(None) else {
                break;
            };
            evicted.extend(inner.evict(key));
        }
        drop(inner);
        drop(evicted);
    }

    /// A snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.lock();
        CacheStats {
            hits: inner.hits,
            misses: inner.misses,
            insertions: inner.insertions,
            evictions: inner.evictions,
            replayed_deltas: self.replayed_deltas.load(Ordering::Relaxed),
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
        self.replayed_deltas.store(0, Ordering::Relaxed);
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
    /// The entry a full cache gives up for one `owner` inserts: the
    /// least recently used of `owner`'s own once it holds its share,
    /// else the least recently used of all.
    ///
    /// The share is the capacity divided among `owner` and the other
    /// threads that hold entries and have inserted one within the last
    /// `capacity` insertions; a thread that has not holds no share, so
    /// its entries go by plain LRU. One thread alone is plain LRU.
    fn victim(&self, owner: ThreadId) -> Option<(u64, u64)> {
        let quiet = |h: &Holding| self.inserted - h.inserted_at > self.capacity as u64;
        let others = self
            .holdings
            .iter()
            .filter(|h| h.owner != owner && !quiet(h))
            .count();
        let share = self.capacity / (others + 1);
        let own = self
            .holdings
            .iter()
            .find(|h| h.owner == owner)
            .is_some_and(|h| h.entries >= share);
        self.least_recent(own.then_some(owner))
    }

    /// The least recently used entry, of `owner`'s alone if given.
    fn least_recent(&self, owner: Option<ThreadId>) -> Option<(u64, u64)> {
        // A linear scan: capacities are small.
        self.entries
            .iter()
            .filter(|(_, e)| owner.is_none_or(|o| e.owner == o))
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
    }

    /// Removes `key` to make room, counting the eviction.
    fn evict(&mut self, key: (u64, u64)) -> Option<CacheEntry> {
        let entry = self.remove(key)?;
        self.evictions += 1;
        Some(entry)
    }

    /// Removes `key`, keeping its owner's holding in step.
    fn remove(&mut self, key: (u64, u64)) -> Option<CacheEntry> {
        let entry = self.entries.remove(&key)?;
        self.release(entry.owner);
        Some(entry)
    }

    /// Counts a new entry of `owner`'s.
    fn hold(&mut self, owner: ThreadId) {
        let inserted_at = self.inserted;
        match self.holdings.iter_mut().find(|h| h.owner == owner) {
            Some(h) => {
                h.entries += 1;
                h.inserted_at = inserted_at;
            }
            None => self.holdings.push(Holding {
                owner,
                entries: 1,
                inserted_at,
            }),
        }
    }

    /// Counts an entry of `owner`'s gone; a thread holding none is
    /// forgotten.
    fn release(&mut self, owner: ThreadId) {
        if let Some(at) = self.holdings.iter().position(|h| h.owner == owner) {
            self.holdings[at].entries -= 1;
            if self.holdings[at].entries == 0 {
                self.holdings.swap_remove(at);
            }
        }
    }
}

#[cfg(test)]
impl MaterializationCache {
    /// The keys held, ascending, after checking that the holdings count
    /// exactly the entries and that the capacity bounds them.
    fn held(&self) -> Vec<(u64, u64)> {
        let inner = self.lock();
        assert!(inner.entries.len() <= inner.capacity);
        let counted: usize = inner.holdings.iter().map(|h| h.entries).sum();
        assert_eq!(counted, inner.entries.len());
        for h in &inner.holdings {
            let owned = inner.entries.values().filter(|e| e.owner == h.owner);
            assert_eq!(owned.count(), h.entries);
        }
        let mut keys: Vec<_> = inner.entries.keys().copied().collect();
        keys.sort_unstable();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};

    type Job = Box<dyn FnOnce(&MaterializationCache) + Send>;

    /// A long-lived thread that runs the jobs it is handed against one
    /// cache, one at a time, as a server session would: each entry it
    /// inserts is its own.
    struct Session {
        jobs: mpsc::Sender<Job>,
        done: mpsc::Receiver<()>,
        thread: thread::JoinHandle<()>,
    }

    impl Session {
        fn start(cache: &Arc<MaterializationCache>) -> Session {
            let (jobs, inbox) = mpsc::channel::<Job>();
            let (finished, done) = mpsc::channel();
            let cache = Arc::clone(cache);
            let thread = thread::spawn(move || {
                for job in inbox {
                    job(&cache);
                    finished.send(()).unwrap();
                }
            });
            Session { jobs, done, thread }
        }

        /// Runs `job` on the session's thread and waits for it.
        fn run(&self, job: impl FnOnce(&MaterializationCache) + Send + 'static) {
            self.jobs.send(Box::new(job)).unwrap();
            self.done.recv().unwrap();
        }

        /// Inserts `(rel, tx)` for every `tx` in `txs`, in order.
        fn insert(&self, rel: u64, txs: std::ops::Range<u64>) {
            self.run(move |c| {
                for tx in txs {
                    c.insert(rel, tx, snap(&[tx as i64]));
                }
            });
        }

        fn end(self) {
            drop(self.jobs);
            self.thread.join().unwrap();
        }
    }

    /// The transactions of relation `rel` the cache holds.
    fn txs_of(c: &MaterializationCache, rel: u64) -> Vec<u64> {
        c.held()
            .into_iter()
            .filter(|(r, _)| *r == rel)
            .map(|(_, tx)| tx)
            .collect()
    }

    fn snap(vals: &[i64]) -> CachedVersion {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        CachedVersion::Whole(StateValue::Snapshot(
            SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap(),
        ))
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

    #[test]
    fn sessions_at_their_shares_evict_only_their_own() {
        let c = Arc::new(MaterializationCache::new(4));
        let (a, b) = (Session::start(&c), Session::start(&c));
        b.insert(2, 0..2);
        a.insert(1, 0..2);
        // Full, two apiece: a's next entry displaces a's least recent
        // one, not b's older ones.
        a.insert(1, 2..4);
        assert_eq!(txs_of(&c, 1), [2, 3]);
        assert_eq!(txs_of(&c, 2), [0, 1]);
        // A hit is shared, and keeps b's entry fresh for b.
        b.run(|c| assert!(c.get(1, 2).is_some()));
        b.insert(2, 2..3);
        assert_eq!(txs_of(&c, 1), [2, 3]);
        assert_eq!(txs_of(&c, 2), [1, 2]);
        assert_eq!(c.stats().evictions, 3);
        a.end();
        b.end();
    }

    #[test]
    fn a_session_arriving_at_a_full_cache_grows_to_its_share() {
        let c = Arc::new(MaterializationCache::new(4));
        let (a, b) = (Session::start(&c), Session::start(&c));
        a.insert(1, 0..4);
        // b holds less than half: it evicts the least recent of all
        // (a's), then its own once it holds two.
        b.insert(2, 0..1);
        assert_eq!(txs_of(&c, 1), [1, 2, 3]);
        b.insert(2, 1..3);
        assert_eq!(txs_of(&c, 1), [2, 3]);
        assert_eq!(txs_of(&c, 2), [1, 2]);
        // a, at its share again, gives up its own.
        a.insert(1, 4..5);
        assert_eq!(txs_of(&c, 1), [3, 4]);
        assert_eq!(txs_of(&c, 2), [1, 2]);
        a.end();
        b.end();
    }

    #[test]
    fn an_ended_sessions_entries_are_reclaimed() {
        let c = Arc::new(MaterializationCache::new(4));
        let a = Session::start(&c);
        a.insert(1, 0..4);
        a.end();
        // Once a has inserted nothing for a capacity's worth of
        // insertions it holds no share, and b takes the whole cache.
        let b = Session::start(&c);
        for tx in 0..8 {
            b.insert(2, tx..tx + 1);
            assert_eq!(c.held().len(), 4);
        }
        assert!(txs_of(&c, 1).is_empty());
        assert_eq!(txs_of(&c, 2), [4, 5, 6, 7]);
        b.end();
    }

    #[test]
    fn the_capacity_bounds_concurrent_sessions() {
        let c = Arc::new(MaterializationCache::new(8));
        thread::scope(|scope| {
            for rel in 0..3u64 {
                let c = &c;
                scope.spawn(move || {
                    for i in 0..400u64 {
                        let tx = (i * 7 + rel) % 24;
                        if c.get(rel % 2, tx).is_none() {
                            c.insert(rel % 2, tx, snap(&[tx as i64]));
                        }
                        assert!(c.stats().entries <= 8);
                    }
                });
            }
        });
        assert_eq!(c.held().len(), 8);
    }

    #[test]
    fn purge_and_resize_act_across_owners() {
        let c = Arc::new(MaterializationCache::new(8));
        let (a, b) = (Session::start(&c), Session::start(&c));
        a.insert(1, 0..2);
        b.insert(1, 2..4);
        a.insert(2, 0..2);
        b.insert(2, 2..4);
        c.purge_relation(1);
        assert_eq!(c.held(), [(2, 0), (2, 1), (2, 2), (2, 3)]);
        // Shrinking evicts the least recent of all, whoever owns them.
        c.set_capacity(1);
        assert_eq!(c.held(), [(2, 3)]);
        c.set_capacity(0);
        assert!(c.held().is_empty());
        a.end();
        b.end();
    }

    #[test]
    fn counting_a_replay_takes_no_lock() {
        let c = MaterializationCache::new(4);
        let guard = c.lock();
        c.add_replayed(3);
        drop(guard);
        assert_eq!(c.stats().replayed_deltas, 3);
        c.reset_stats();
        assert_eq!(c.stats().replayed_deltas, 0);
    }
}
