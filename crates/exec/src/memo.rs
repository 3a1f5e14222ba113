//! Counters for the incremental view memo.
//!
//! The memo itself — hash-consed expression keys, cached states, delta
//! repair — lives above this crate (`txtime-optimizer` owns the
//! hash-consing, `txtime-storage` owns the registry), but its accounting
//! is type-free and belongs here with the other execution counters, so
//! `txtime stats` can surface memo and pool numbers side by side.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Thread-safe counters shared by one view registry.
///
/// All counters are monotonically increasing and relaxed: they are
/// diagnostics, not synchronization.
#[derive(Debug, Default)]
pub struct MemoCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    registrations: AtomicU64,
    propagations: AtomicU64,
    propagated_changes: AtomicU64,
    fallbacks: AtomicU64,
    repairs: AtomicU64,
    invalidations: AtomicU64,
}

impl MemoCounters {
    /// Fresh zeroed counters.
    pub fn new() -> MemoCounters {
        MemoCounters::default()
    }

    /// Records a lookup that returned a cached, still-valid state.
    pub fn add_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a lookup that found nothing usable.
    pub fn add_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an expression entering the memo.
    pub fn add_registration(&self) {
        self.registrations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one memoized node updated by a per-operator delta rule,
    /// carrying `changes` changed tuples/entries.
    pub fn add_propagation(&self, changes: u64) {
        self.propagations.fetch_add(1, Ordering::Relaxed);
        self.propagated_changes
            .fetch_add(changes, Ordering::Relaxed);
    }

    /// Records one memoized node that fell back to targeted
    /// re-evaluation from its (cached) children instead of a delta rule.
    pub fn add_fallback(&self) {
        self.fallbacks.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one lagging cached view that a read found behind its
    /// relations and brought forward instead of re-evaluating.
    pub fn add_repair(&self) {
        self.repairs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `views` cached states dropped by invalidation.
    pub fn add_invalidations(&self, views: u64) {
        self.invalidations.fetch_add(views, Ordering::Relaxed);
    }

    /// A point-in-time snapshot; `roots`, `views`, `log_entries` and
    /// `max_lag` are gauges supplied by the registry that owns the
    /// cached states.
    pub fn snapshot(
        &self,
        roots: usize,
        views: usize,
        log_entries: usize,
        max_lag: usize,
    ) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            registrations: self.registrations.load(Ordering::Relaxed),
            propagations: self.propagations.load(Ordering::Relaxed),
            propagated_changes: self.propagated_changes.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            repairs: self.repairs.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            roots,
            views,
            log_entries,
            max_lag,
        }
    }

    /// Zeroes every counter (gauges are owned by the registry).
    pub fn reset(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.registrations.store(0, Ordering::Relaxed);
        self.propagations.store(0, Ordering::Relaxed);
        self.propagated_changes.store(0, Ordering::Relaxed);
        self.fallbacks.store(0, Ordering::Relaxed);
        self.repairs.store(0, Ordering::Relaxed);
        self.invalidations.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of one view registry's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups answered from a cached, still-valid state.
    pub hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Expressions registered into the memo.
    pub registrations: u64,
    /// Memoized nodes updated by a per-operator delta rule.
    pub propagations: u64,
    /// Changed tuples/entries carried by those delta rules.
    pub propagated_changes: u64,
    /// Memoized nodes recomputed from their cached children because a
    /// delta rule did not apply (×/δ over threshold, unknown delta).
    pub fallbacks: u64,
    /// Lagging cached views that a read brought forward through the
    /// relation logs instead of re-evaluating (each is also a hit, or
    /// an input to the evaluation that demanded it).
    pub repairs: u64,
    /// Cached states dropped by invalidation (reschema, relation
    /// deletion, scheme evolution, history truncation, eviction, or a
    /// view too far behind its relation's log to repair).
    pub invalidations: u64,
    /// Registered root expressions currently held.
    pub roots: usize,
    /// Cached node states currently held (roots plus shared
    /// subexpressions).
    pub views: usize,
    /// Commit-log entries held for lagging views, over all relations.
    pub log_entries: usize,
    /// The largest lag of any registered root: logged commits to a
    /// relation it reads that it has not seen yet (a lower bound for a
    /// root that has fallen off the log).
    pub max_lag: usize,
}

impl MemoStats {
    /// Fraction of lookups that hit, in `[0, 1]` (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl fmt::Display for MemoStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "memo:  {} roots / {} cached views, {} hits / {} misses ({:.1}% hit rate)",
            self.roots,
            self.views,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "       {} registrations, {} repairs, {} propagations ({} changes), {} fallbacks, {} invalidations",
            self.registrations,
            self.repairs,
            self.propagations,
            self.propagated_changes,
            self.fallbacks,
            self.invalidations
        )?;
        writeln!(
            f,
            "       {} log entries held, largest root lag {} commit(s)",
            self.log_entries, self.max_lag
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_reset() {
        let c = MemoCounters::new();
        c.add_hit();
        c.add_hit();
        c.add_miss();
        c.add_registration();
        c.add_propagation(7);
        c.add_propagation(3);
        c.add_fallback();
        c.add_repair();
        c.add_invalidations(4);
        let s = c.snapshot(2, 5, 3, 1);
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
        assert_eq!(s.registrations, 1);
        assert_eq!(s.propagations, 2);
        assert_eq!(s.propagated_changes, 10);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.repairs, 1);
        assert_eq!(s.invalidations, 4);
        assert_eq!((s.roots, s.views), (2, 5));
        assert_eq!((s.log_entries, s.max_lag), (3, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-9);
        c.reset();
        assert_eq!(c.snapshot(0, 0, 0, 0), MemoStats::default());
    }

    #[test]
    fn stats_display_shows_key_numbers() {
        let c = MemoCounters::new();
        c.add_hit();
        c.add_miss();
        let text = c.snapshot(1, 3, 4, 2).to_string();
        assert!(text.contains("1 roots / 3 cached views"));
        assert!(text.contains("0 repairs"));
        assert!(text.contains("4 log entries held, largest root lag 2 commit(s)"));
        assert!(text.contains("50.0% hit rate"));
        assert_eq!(MemoStats::default().hit_rate(), 0.0);
    }
}
