//! Space accounting (experiment E3) and cache accounting (experiment
//! E10).
//!
//! Parallel-execution accounting — per-operator wall time and chunk
//! counts — lives in `txtime_exec` ([`txtime_exec::ExecStats`],
//! re-exported at this crate's root) and is surfaced alongside these
//! reports by [`crate::Engine::exec_stats`] and `txtime stats`.

use std::fmt;

use txtime_core::RelationType;

/// Counters from the engine's state cache
/// ([`crate::cache::MaterializationCache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Counted probes that found a version, as a composed replay or
    /// whole.
    pub hits: u64,
    /// Counted probes that did not.
    pub misses: u64,
    /// Versions remembered, a replay and its later whole version
    /// counted apart.
    pub insertions: u64,
    /// Entries discarded to make room.
    pub evictions: u64,
    /// Deltas the stores replayed for versions the cache did not have —
    /// the work the cache exists to avoid.
    pub replayed_deltas: u64,
    /// Versions currently held.
    pub entries: usize,
    /// Maximum entries held (0 = caching disabled).
    pub capacity: usize,
}

impl CacheStats {
    /// Fraction of counted probes that hit, in `[0, 1]` (0 when no
    /// probes).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Mean deltas replayed per miss (0 when no misses) — how long the
    /// replay chains were when the cache could not help.
    pub fn replay_per_miss(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.replayed_deltas as f64 / self.misses as f64
        }
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cache: {}/{} entries, {} hits / {} misses ({:.1}% hit rate)",
            self.entries,
            self.capacity,
            self.hits,
            self.misses,
            self.hit_rate() * 100.0
        )?;
        writeln!(
            f,
            "       {} insertions, {} evictions, {} deltas replayed ({:.1}/miss)",
            self.insertions,
            self.evictions,
            self.replayed_deltas,
            self.replay_per_miss()
        )
    }
}

/// Size of one per-relation string pool
/// ([`txtime_snapshot::StrInterner`]): the delta-based stores intern
/// every appended state so replay compares strings by pointer. PR 4
/// added the pools; this surfaces them through `txtime stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternerStats {
    /// Distinct strings pooled.
    pub strings: usize,
    /// Approximate resident bytes of the pool.
    pub bytes: usize,
}

impl fmt::Display for InternerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} strings / {} bytes", self.strings, self.bytes)
    }
}

/// Counters from delta-chain compaction: how many passes ran and how
/// much chain they folded into materialized checkpoints
/// ([`crate::DeltaStore::compact`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionStats {
    /// Compaction passes completed.
    pub runs: u64,
    /// Deltas folded into checkpoints across all passes.
    pub deltas_folded: u64,
    /// Tuples/entries written into the materialized checkpoints.
    pub tuples_folded: u64,
}

impl CompactionStats {
    /// Component-wise sum, for catalog-level totals.
    pub fn merged(self, other: CompactionStats) -> CompactionStats {
        CompactionStats {
            runs: self.runs + other.runs,
            deltas_folded: self.deltas_folded + other.deltas_folded,
            tuples_folded: self.tuples_folded + other.tuples_folded,
        }
    }
}

impl fmt::Display for CompactionStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} run(s), {} deltas folded, {} tuples folded",
            self.runs, self.deltas_folded, self.tuples_folded
        )
    }
}

/// Space usage of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationSpace {
    /// Relation name.
    pub name: String,
    /// Relation type.
    pub rtype: RelationType,
    /// Number of stored versions.
    pub versions: usize,
    /// Approximate logical bytes.
    pub bytes: usize,
    /// Compaction counters accumulated over the store's lifetime (zero
    /// for relations that keep one version).
    pub compaction: CompactionStats,
}

impl RelationSpace {
    /// Bytes per stored version (0 when no versions).
    pub fn bytes_per_version(&self) -> f64 {
        if self.versions == 0 {
            0.0
        } else {
            self.bytes as f64 / self.versions as f64
        }
    }
}

/// Space usage across a catalog.
#[derive(Debug, Clone, Default)]
pub struct SpaceReport {
    /// Per-relation rows.
    pub relations: Vec<RelationSpace>,
}

impl SpaceReport {
    /// Total bytes across all relations.
    pub fn total_bytes(&self) -> usize {
        self.relations.iter().map(|r| r.bytes).sum()
    }

    /// Total stored versions across all relations.
    pub fn total_versions(&self) -> usize {
        self.relations.iter().map(|r| r.versions).sum()
    }
}

impl fmt::Display for SpaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:<10} {:>9} {:>12} {:>10}  compaction runs/deltas/tuples",
            "relation", "type", "versions", "bytes", "B/version"
        )?;
        for r in &self.relations {
            let c = r.compaction;
            writeln!(
                f,
                "{:<12} {:<10} {:>9} {:>12} {:>10.1}  {}/{}/{}",
                r.name,
                r.rtype.to_string(),
                r.versions,
                r.bytes,
                r.bytes_per_version(),
                c.runs,
                c.deltas_folded,
                c.tuples_folded
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_ratios_and_display() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            insertions: 2,
            evictions: 1,
            replayed_deltas: 8,
            entries: 2,
            capacity: 4,
        };
        assert_eq!(s.hit_rate(), 0.75);
        assert_eq!(s.replay_per_miss(), 8.0);
        assert!(s.to_string().contains("75.0% hit rate"));
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
        assert_eq!(CacheStats::default().replay_per_miss(), 0.0);
    }

    #[test]
    fn totals_and_ratios() {
        let report = SpaceReport {
            relations: vec![
                RelationSpace {
                    name: "a".into(),
                    rtype: RelationType::Rollback,
                    versions: 4,
                    bytes: 400,
                    compaction: CompactionStats {
                        runs: 1,
                        deltas_folded: 3,
                        tuples_folded: 12,
                    },
                },
                RelationSpace {
                    name: "b".into(),
                    rtype: RelationType::Snapshot,
                    versions: 0,
                    bytes: 0,
                    compaction: CompactionStats::default(),
                },
            ],
        };
        assert_eq!(report.total_bytes(), 400);
        assert_eq!(report.total_versions(), 4);
        assert_eq!(report.relations[0].bytes_per_version(), 100.0);
        assert_eq!(report.relations[1].bytes_per_version(), 0.0);
        let table = report.to_string();
        let row: Vec<_> = table.lines().nth(1).unwrap().split_whitespace().collect();
        assert_eq!(
            row,
            ["a", "rollback", "4", "400", "100.0", "1/3/12"],
            "{table}"
        );
        assert!(table.contains("  1/3/12\n"), "{table}");
    }
}
