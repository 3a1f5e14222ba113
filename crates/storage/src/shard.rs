//! Horizontally sharded relation states.
//!
//! The paper models a rollback relation as one sequence of states
//! indexed by transaction number, and its claim 4 licenses *any*
//! physical organization whose observable effect equals applying the
//! update sequence in order. [`ShardedStore`] exercises that freedom:
//! each relation's sorted runs are hash-partitioned into `K` disjoint
//! shards, each shard keeping its **own** delta chain, interner pool,
//! and checkpoint schedule inside an ordinary inner [`RollbackStore`].
//! Every append partitions the incoming state and writes one
//! (possibly empty) sub-state to every shard, so all shards carry the
//! same transaction-number list and FINDSTATE floors agree shard-wise.
//!
//! Reads run with zero intra-kernel coordination: each shard resolves
//! (and, for pushed-down σ/π, filters) its slice independently — fanned
//! out on the [`ExecPool`] under [`OpKind::Shard`] — and the per-shard
//! runs are merged back with the ∪/∪̂ merge kernels
//! ([`SnapshotState::union_many`], [`HistoricalState::hunion_many`]).
//! σ and π distribute over disjoint union (π̂'s per-image valid times
//! re-union in the merge), so shard count is observationally invisible;
//! the `shard_invariance` differential suite pins exactly that.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::num::NonZeroUsize;
use std::sync::{Arc, Mutex};

use txtime_core::{EvalError, RollbackFilter, StateValue, TransactionNumber};
use txtime_exec::{ExecPool, OpKind};
use txtime_historical::HistoricalState;
use txtime_snapshot::{SnapshotState, Tuple};

use crate::backend::{BackendKind, CheckpointPolicy, RollbackStore};
use crate::cache::MaterializationCache;
use crate::delta::StateDelta;
use crate::metrics::{CompactionStats, InternerStats, ShardReport, ShardSlot};

/// The shard a tuple lives in: a stable hash of its values modulo the
/// shard count. Stability matters for *churn*, not correctness — a
/// tuple that stays in one shard across versions keeps the per-shard
/// deltas as small as the unsharded ones.
fn shard_of(t: &Tuple, k: usize) -> usize {
    let mut h = DefaultHasher::new();
    t.hash(&mut h);
    (h.finish() % k as u64) as usize
}

/// Splits a state into `k` disjoint sub-states over the same scheme.
/// Partitioning a canonical sorted run yields canonical sorted runs, so
/// construction re-validates trivially.
fn partition(state: &StateValue, k: usize) -> Vec<StateValue> {
    match state {
        StateValue::Snapshot(s) => {
            let mut parts: Vec<Vec<Tuple>> = vec![Vec::new(); k];
            for t in s.iter() {
                parts[shard_of(t, k)].push(t.clone());
            }
            parts
                .into_iter()
                .map(|p| {
                    StateValue::Snapshot(
                        SnapshotState::new(s.schema().clone(), p)
                            .expect("a partition of a valid state is valid"),
                    )
                })
                .collect()
        }
        StateValue::Historical(h) => {
            let mut parts: Vec<Vec<(Tuple, txtime_historical::TemporalElement)>> =
                vec![Vec::new(); k];
            for (t, e) in h.iter() {
                parts[shard_of(t, k)].push((t.clone(), e.clone()));
            }
            parts
                .into_iter()
                .map(|p| {
                    StateValue::Historical(
                        HistoricalState::new(h.schema().clone(), p)
                            .expect("a partition of a valid state is valid"),
                    )
                })
                .collect()
        }
    }
}

/// Splits a delta into `k` deltas of the same kind, each listing the
/// tuples of its shard: a listed tuple goes where [`partition`] put (or
/// would put) it, so each part is normalised against its shard's state
/// and a sorted list stays sorted.
fn partition_delta(delta: &StateDelta, k: usize) -> Vec<StateDelta> {
    fn route<T: Clone>(items: &[T], key: impl Fn(&T) -> &Tuple, k: usize) -> Vec<Vec<T>> {
        let mut parts = vec![Vec::new(); k];
        for item in items {
            parts[shard_of(key(item), k)].push(item.clone());
        }
        parts
    }
    match delta {
        StateDelta::Snapshot { added, removed } => route(added, |t| t, k)
            .into_iter()
            .zip(route(removed, |t| t, k))
            .map(|(added, removed)| StateDelta::Snapshot { added, removed })
            .collect(),
        StateDelta::Historical { upserted, removed } => route(upserted, |(t, _)| t, k)
            .into_iter()
            .zip(route(removed, |t| t, k))
            .map(|(upserted, removed)| StateDelta::Historical { upserted, removed })
            .collect(),
        StateDelta::Reschema(_) => unreachable!("a scheme boundary arrives as a state"),
    }
}

/// Merges per-shard resolutions back into the relation's state. The
/// shards are disjoint by value tuple, so ∪/∪̂ reproduce the unsharded
/// run exactly (π may overlap across shards; union dedups, and π̂
/// re-unions the per-image valid times — the global semantics).
fn merge(parts: Vec<StateValue>) -> StateValue {
    let mut snaps: Vec<SnapshotState> = Vec::new();
    let mut hists: Vec<HistoricalState> = Vec::new();
    for p in parts {
        match p {
            StateValue::Snapshot(s) => snaps.push(s),
            StateValue::Historical(h) => hists.push(h),
        }
    }
    if !hists.is_empty() {
        assert!(snaps.is_empty(), "shards of one version share a kind");
        StateValue::Historical(
            HistoricalState::hunion_many(&hists)
                .expect("at least one shard")
                .expect("shards share a schema"),
        )
    } else {
        StateValue::Snapshot(
            SnapshotState::union_many(&snaps)
                .expect("at least one shard")
                .expect("shards share a schema"),
        )
    }
}

/// `K` inner stores behind the one-relation [`RollbackStore`] surface.
///
/// Writes partition; reads fan out per shard on the pool and merge.
/// The merged current state is memoized (it is exactly the state the
/// last append installed), so `current()` stays O(1) like every
/// unsharded backend.
pub struct ShardedStore {
    shards: Vec<Box<dyn RollbackStore>>,
    pool: Arc<ExecPool>,
    /// The last appended state — the merge of all shard currents.
    current: Mutex<Option<StateValue>>,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("kind", &self.shards[0].kind())
            .finish_non_exhaustive()
    }
}

impl ShardedStore {
    /// A store of `shards` inner `kind` stores. When a shared
    /// materialization cache is given, shard `i` registers under
    /// relation id `base + i` — the caller owns that id span and must
    /// purge all of it on relation deletion.
    pub fn new(
        kind: BackendKind,
        shards: NonZeroUsize,
        checkpoints: CheckpointPolicy,
        cache: Option<(Arc<MaterializationCache>, u64)>,
        pool: Arc<ExecPool>,
    ) -> ShardedStore {
        let shards = (0..shards.get() as u64)
            .map(|i| {
                kind.new_store_with_cache(
                    checkpoints,
                    cache.as_ref().map(|(c, base)| (c.clone(), base + i)),
                )
            })
            .collect();
        ShardedStore {
            shards,
            pool,
            current: Mutex::new(None),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Fans `f` out across the shards on the pool (one work item per
    /// shard, results in shard order).
    fn fan_out<R: Send>(&self, f: impl Fn(&dyn RollbackStore) -> R + Sync) -> Vec<R> {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        self.pool
            .map_chunks(OpKind::Shard, &idx, OpKind::Shard.min_chunk(), |chunk| {
                chunk
                    .iter()
                    .map(|&i| f(self.shards[i].as_ref()))
                    .collect::<Vec<R>>()
            })
            .into_iter()
            .flatten()
            .collect()
    }
}

impl RollbackStore for ShardedStore {
    fn append(&mut self, state: &StateValue, tx: TransactionNumber) {
        let parts = partition(state, self.shards.len());
        for (shard, part) in self.shards.iter_mut().zip(parts) {
            shard.append(&part, tx);
        }
        // The merge of what was just written is the written state itself.
        *self.current.lock().unwrap_or_else(|e| e.into_inner()) = Some(state.clone());
    }

    /// Listed tuples go to their shards; a shard with none still appends
    /// (an empty delta), so all shards keep the one transaction list.
    fn append_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        let parts = partition_delta(delta, self.shards.len());
        for (shard, part) in self.shards.iter_mut().zip(&parts) {
            shard.append_delta(part, tx);
        }
        let current = self.current.get_mut().unwrap_or_else(|e| e.into_inner());
        delta.apply_in_place(
            current
                .as_mut()
                .expect("a delta applies to a current state"),
        );
    }

    fn state_at(&self, tx: TransactionNumber) -> Option<StateValue> {
        let parts = self.fan_out(|s| s.state_at(tx));
        // Shards share one tx list: all-or-nothing.
        let parts: Option<Vec<StateValue>> = parts.into_iter().collect();
        parts.map(merge)
    }

    fn state_at_many(&self, txs: &[TransactionNumber]) -> Vec<Option<StateValue>> {
        // Each shard sweeps its own chain once for the whole batch; the
        // positional answers then merge shard-wise.
        let per_shard = self.fan_out(|s| s.state_at_many(txs));
        (0..txs.len())
            .map(|i| {
                let parts: Option<Vec<StateValue>> =
                    per_shard.iter().map(|shard| shard[i].clone()).collect();
                parts.map(merge)
            })
            .collect()
    }

    fn state_at_filtered(
        &self,
        tx: TransactionNumber,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        // σ and π distribute over the disjoint shard union, and the
        // filter's failure modes (predicate compilation, kind mismatch)
        // depend only on scheme and kind — identical in every shard — so
        // per-shard filtering observes exactly the unsharded behavior.
        let parts = self.fan_out(|s| s.state_at_filtered(tx, historical, filter));
        let mut filtered = Vec::with_capacity(parts.len());
        for p in parts {
            match p? {
                Some(s) => filtered.push(s),
                None => return Ok(None),
            }
        }
        Ok(Some(merge(filtered)))
    }

    fn current(&self) -> Option<StateValue> {
        self.current
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    fn current_filtered(
        &self,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        if self.current().is_none() {
            return Ok(None);
        }
        let parts = self.fan_out(|s| s.current_filtered(historical, filter));
        let mut filtered = Vec::with_capacity(parts.len());
        for p in parts {
            match p? {
                Some(s) => filtered.push(s),
                None => return Ok(None),
            }
        }
        Ok(Some(merge(filtered)))
    }

    fn interner_stats(&self) -> Option<InternerStats> {
        self.shards
            .iter()
            .filter_map(|s| s.interner_stats())
            .reduce(InternerStats::merged)
    }

    fn version_count(&self) -> usize {
        self.shards[0].version_count()
    }

    fn first_tx(&self) -> Option<TransactionNumber> {
        self.shards[0].first_tx()
    }

    fn last_tx(&self) -> Option<TransactionNumber> {
        self.shards[0].last_tx()
    }

    fn space_bytes(&self) -> usize {
        self.shards.iter().map(|s| s.space_bytes()).sum()
    }

    fn version_txs(&self) -> Vec<TransactionNumber> {
        self.shards[0].version_txs()
    }

    fn set_pool(&mut self, pool: &Arc<ExecPool>) {
        self.pool = pool.clone();
    }

    fn compact(&mut self, every: NonZeroUsize) -> CompactionStats {
        // Sequential over shards: each shard's fold is one chain replay,
        // and compaction is a rare, explicitly requested maintenance
        // pass.
        self.shards
            .iter_mut()
            .map(|s| s.compact(every))
            .fold(CompactionStats::default(), CompactionStats::merged)
    }

    fn compaction_stats(&self) -> CompactionStats {
        self.shards
            .iter()
            .map(|s| s.compaction_stats())
            .fold(CompactionStats::default(), CompactionStats::merged)
    }

    fn shard_report(&self) -> ShardReport {
        ShardReport {
            shards: self
                .shards
                .iter()
                .map(|s| ShardSlot {
                    versions: s.version_count(),
                    tuples: s.current().map(|c| c.len()).unwrap_or(0),
                    bytes: s.space_bytes(),
                })
                .collect(),
            compaction: self.compaction_stats(),
        }
    }

    fn truncate_before(&mut self, tx: TransactionNumber) -> usize {
        self.shards
            .iter_mut()
            .map(|s| s.truncate_before(tx))
            .max()
            .unwrap_or(0)
    }

    fn kind(&self) -> BackendKind {
        self.shards[0].kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Predicate, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![("x", DomainType::Int)]).unwrap()
    }

    fn snap(vals: &[i64]) -> StateValue {
        StateValue::Snapshot(
            SnapshotState::from_rows(schema(), vals.iter().map(|&v| vec![Value::Int(v)])).unwrap(),
        )
    }

    fn pair(kind: BackendKind, k: usize) -> (Box<dyn RollbackStore>, ShardedStore) {
        let policy = CheckpointPolicy::every_k(8).unwrap();
        let flat = kind.new_store(policy);
        let sharded = ShardedStore::new(
            kind,
            NonZeroUsize::new(k).unwrap(),
            policy,
            None,
            Arc::new(ExecPool::new(2)),
        );
        (flat, sharded)
    }

    #[test]
    fn partition_merge_round_trips() {
        let s = snap(&[1, 2, 3, 4, 5, 6, 7, 8, 9]);
        for k in [1, 2, 3, 8] {
            let parts = partition(&s, k);
            assert_eq!(parts.len(), k);
            assert_eq!(parts.iter().map(StateValue::len).sum::<usize>(), 9);
            assert_eq!(merge(parts), s);
        }
    }

    #[test]
    fn sharded_matches_flat_on_every_probe() {
        for kind in BackendKind::ALL {
            for k in [1, 2, 8] {
                let (mut flat, mut sharded) = pair(kind, k);
                for v in 1..=40u64 {
                    let state = snap(&[v as i64, -(v as i64), (v % 7) as i64]);
                    flat.append(&state, TransactionNumber(v));
                    sharded.append(&state, TransactionNumber(v));
                }
                assert_eq!(flat.version_count(), sharded.version_count());
                assert_eq!(flat.version_txs(), sharded.version_txs());
                assert_eq!(flat.current(), sharded.current());
                let txs: Vec<TransactionNumber> = (0..=41).map(TransactionNumber).collect();
                for &tx in &txs {
                    assert_eq!(
                        flat.state_at(tx),
                        sharded.state_at(tx),
                        "{kind} k={k} at {tx:?}"
                    );
                }
                assert_eq!(flat.state_at_many(&txs), sharded.state_at_many(&txs));
            }
        }
    }

    #[test]
    fn append_delta_routes_listed_tuples_and_keeps_one_tx_list() {
        for kind in BackendKind::ALL {
            for k in [1, 4] {
                crate::backend::testing::assert_append_delta_is_append(
                    || pair(kind, k).1,
                    |plain, delta, at| {
                        // Shard by shard: versions, tuples and bytes.
                        assert_eq!(plain.shard_report(), delta.shard_report(), "{at} k={k}");
                    },
                );
            }
        }
    }

    #[test]
    fn filtered_resolution_distributes_over_shards() {
        let pred = Predicate::gt_const("x", Value::Int(0));
        let project = ["x".to_string()];
        let filter = RollbackFilter {
            predicate: Some(&pred),
            project: Some(&project),
        };
        for kind in BackendKind::ALL {
            let (mut flat, mut sharded) = pair(kind, 4);
            for v in 1..=20u64 {
                let state = snap(&[v as i64, -(v as i64)]);
                flat.append(&state, TransactionNumber(v));
                sharded.append(&state, TransactionNumber(v));
            }
            for tx in 0..=21u64 {
                let a = flat.state_at_filtered(TransactionNumber(tx), false, &filter);
                let b = sharded.state_at_filtered(TransactionNumber(tx), false, &filter);
                assert_eq!(a, b, "{kind} at {tx}");
                // Kind-mismatch errors must agree too.
                let ae = flat.state_at_filtered(TransactionNumber(tx), true, &filter);
                let be = sharded.state_at_filtered(TransactionNumber(tx), true, &filter);
                assert_eq!(ae.is_err(), be.is_err(), "{kind} historical at {tx}");
            }
            assert_eq!(
                flat.current_filtered(false, &filter),
                sharded.current_filtered(false, &filter)
            );
        }
    }

    #[test]
    fn compact_and_truncate_act_shard_wise() {
        let (mut flat, mut sharded) = pair(BackendKind::ReverseDelta, 4);
        for v in 1..=64u64 {
            let state = snap(&[v as i64]);
            flat.append(&state, TransactionNumber(v));
            sharded.append(&state, TransactionNumber(v));
        }
        let pass = sharded.compact(NonZeroUsize::new(4).unwrap());
        assert!(pass.runs >= 1);
        assert_eq!(sharded.compaction_stats().runs, pass.runs);
        for tx in 0..=65u64 {
            assert_eq!(
                flat.state_at(TransactionNumber(tx)),
                sharded.state_at(TransactionNumber(tx))
            );
        }
        let report = sharded.shard_report();
        assert_eq!(report.shard_count(), 4);
        assert!(report.shards.iter().all(|s| s.versions == 64));
        assert_eq!(
            flat.truncate_before(TransactionNumber(30)),
            sharded.truncate_before(TransactionNumber(30))
        );
        for tx in 29..=65u64 {
            assert_eq!(
                flat.state_at(TransactionNumber(tx)),
                sharded.state_at(TransactionNumber(tx))
            );
        }
    }
}
