//! The forward-delta backend: base + per-transaction deltas +
//! checkpoints.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::Arc;

use txtime_core::{EvalError, RollbackFilter, StateValue, TransactionNumber};
use txtime_snapshot::{Schema, StrInterner};

use crate::backend::{BackendKind, CheckpointPolicy, RollbackStore};
use crate::cache::MaterializationCache;
use crate::delta::{intern_state, StateDelta};
use crate::metrics::{CompactionStats, InternerStats};

/// One version in the forward chain.
#[derive(Debug, PartialEq)]
struct Entry {
    /// What carried the previous version to this one; `None` where there
    /// is nothing to have diffed against: the first version, and the new
    /// base a truncation leaves.
    delta: Option<StateDelta>,
    /// The version in full (a checkpoint): wherever `delta` is `None`, at
    /// the policy's positions, and wherever compaction pinned one. The
    /// delta stays beside it, so a span of versions crosses a checkpoint
    /// without a hole.
    state: Option<StateValue>,
    tx: TransactionNumber,
}

/// Stores the first version in full and subsequent versions as forward
/// deltas, materializing a checkpoint every K versions per the policy.
///
/// `state_at` seeks the last version ≤ tx, walks *back* to the nearest
/// checkpoint, composes the deltas in between into their net delta
/// ([`StateDelta::compose`]) and applies that once — so rollback cost is
/// one copy of the checkpoint and one edit pass however long the
/// segment, the segment is bounded by the checkpoint interval, and space
/// is proportional to churn rather than state size.
#[derive(Debug)]
pub struct ForwardDeltaStore {
    policy: CheckpointPolicy,
    entries: Vec<Entry>,
    /// Lifetime compaction counters.
    compaction: CompactionStats,
    /// The last compaction pass's interval and the chain length it saw:
    /// every wanted position below that length is already a checkpoint,
    /// so the next pass at the same interval starts its scan there.
    compacted: Option<(NonZeroUsize, usize)>,
    /// The current state, cached for O(1) appends and current-state reads.
    current: Option<StateValue>,
    /// Shared materialization cache and this relation's id within it.
    cache: Option<(Arc<MaterializationCache>, u64)>,
    /// Per-relation string pool: every appended state is interned, so
    /// replay compares strings by pointer and never re-hashes them.
    interner: StrInterner,
}

impl ForwardDeltaStore {
    /// An empty store with the given checkpoint policy.
    pub fn new(policy: CheckpointPolicy) -> ForwardDeltaStore {
        ForwardDeltaStore::with_cache(policy, None)
    }

    /// An empty store wired to a shared materialization cache under the
    /// given relation id.
    pub fn with_cache(
        policy: CheckpointPolicy,
        cache: Option<(Arc<MaterializationCache>, u64)>,
    ) -> ForwardDeltaStore {
        ForwardDeltaStore {
            policy,
            entries: Vec::new(),
            compaction: CompactionStats::default(),
            compacted: None,
            current: None,
            cache,
            interner: StrInterner::new(),
        }
    }

    /// The index of the version current at `tx`, if there is one yet.
    fn floor(&self, tx: TransactionNumber) -> Option<usize> {
        self.entries.partition_point(|e| e.tx <= tx).checked_sub(1)
    }

    /// Walks back from `index` to the nearest checkpoint: its entry
    /// index and state. Every entry in `(seed, index]` holds a delta.
    fn seed_for(&self, index: usize) -> (usize, &StateValue) {
        (0..=index)
            .rev()
            .find_map(|i| Some((i, self.entries[i].state.as_ref()?)))
            .expect("chain starts with a checkpoint")
    }

    /// The deltas of versions `(from, to]`, oldest first; `None` if one
    /// of them was never diffed against its predecessor.
    fn deltas(&self, from: usize, to: usize) -> Option<Vec<&StateDelta>> {
        self.entries[from + 1..=to]
            .iter()
            .map(|e| e.delta.as_ref())
            .collect()
    }

    /// Version `to` from version `from`, no checkpoint strictly between:
    /// the segment composed into its net delta, applied once.
    fn replay(&self, from: usize, seed: &StateValue, to: usize) -> StateValue {
        let chain = self
            .deltas(from, to)
            .expect("versions after a checkpoint hold deltas");
        match StateDelta::compose(&chain) {
            Some(net) => net.apply(seed),
            None => seed.clone(),
        }
    }

    /// Counts `n` composed deltas in the shared cache's statistics.
    fn note_replayed(&self, n: usize) {
        if let Some((cache, _)) = &self.cache {
            cache.add_replayed(n as u64);
        }
    }

    /// Reconstructs version `index`, consulting the cache for exactly
    /// that version first and replaying from the nearest checkpoint
    /// otherwise.
    fn reconstruct(&self, index: usize) -> StateValue {
        let target_tx = self.entries[index].tx;
        if let Some((cache, rel)) = &self.cache {
            // Counted probe: the caller wanted exactly this version.
            if let Some(state) = cache.get(*rel, target_tx.0) {
                return state;
            }
        }
        let (base, seed) = self.seed_for(index);
        let state = self.replay(base, seed, index);
        self.note_replayed(index - base);
        if let Some((cache, rel)) = &self.cache {
            if index > base {
                // Checkpoints are O(1) to fetch; only replayed versions
                // are worth remembering.
                cache.insert(*rel, target_tx.0, state.clone());
            }
        }
        state
    }

    /// The scheme of snapshot version `index`, read off the nearest
    /// entry at or below it that holds a state; `None` for an historical
    /// version.
    fn snapshot_schema_at(&self, index: usize) -> Option<&Schema> {
        let state = (0..=index).rev().find_map(|i| match &self.entries[i] {
            Entry { state: Some(s), .. } => Some(s),
            Entry {
                delta: Some(StateDelta::Reschema(s)),
                ..
            } => Some(&**s),
            _ => None,
        })?;
        match state {
            StateValue::Snapshot(s) => Some(s.schema()),
            StateValue::Historical(_) => None,
        }
    }
}

impl ForwardDeltaStore {
    /// Writes one version to the chain, the only routine that does: the
    /// `delta` that led to it, and `state` in full beside it at a
    /// checkpoint position (and wherever there is no delta).
    fn push(&mut self, delta: Option<StateDelta>, state: StateValue, tx: TransactionNumber) {
        debug_assert!(self.entries.last().is_none_or(|e| e.tx < tx));
        let pinned = delta.is_none() || self.policy.is_checkpoint(self.entries.len());
        self.entries.push(Entry {
            delta,
            state: pinned.then(|| state.clone()),
            tx,
        });
        self.current = Some(state);
    }
}

impl RollbackStore for ForwardDeltaStore {
    fn append(&mut self, state: &StateValue, tx: TransactionNumber) {
        // Intern once at the door: the delta (whose tuples are clones out
        // of `state`) and every replayed reconstruction then share pooled
        // string allocations with the prior versions.
        let state = intern_state(state, &mut self.interner);
        let delta = self
            .current
            .as_ref()
            .map(|prev| StateDelta::between(prev, &state));
        self.push(delta, state, tx);
    }

    /// The delta is the chain entry as it stands; only its arriving
    /// tuples go through the pool, and `current` is edited in place
    /// (copied first if a reader or a checkpoint still shares its run).
    fn append_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        let delta = delta.interned(&mut self.interner);
        let mut state = self
            .current
            .take()
            .expect("a delta applies to a current state");
        delta.apply_in_place(&mut state);
        self.push(Some(delta), state, tx);
    }

    /// The newest chain entry's delta *is* the wanted one; only the
    /// first version (and a truncation's new base) has none.
    fn last_delta(&self) -> Option<StateDelta> {
        self.entries.last()?.delta.clone()
    }

    fn interner_stats(&self) -> Option<InternerStats> {
        Some(InternerStats {
            strings: self.interner.len(),
            bytes: self.interner.size_bytes(),
        })
    }

    fn state_at(&self, tx: TransactionNumber) -> Option<StateValue> {
        self.floor(tx).map(|i| self.reconstruct(i))
    }

    /// Batched FINDSTATE: the distinct uncached floor versions are
    /// reconstructed in ascending order, each from the nearer of its
    /// checkpoint and the version reconstructed just before it, so no
    /// delta is composed twice per batch (and every wanted version warms
    /// the cache).
    fn state_at_many(&self, txs: &[TransactionNumber]) -> Vec<Option<StateValue>> {
        let floors: Vec<Option<usize>> = txs.iter().map(|tx| self.floor(*tx)).collect();
        // Triage the distinct floor versions through the cache (counted:
        // each was wanted by at least one probe).
        let mut resolved: BTreeMap<usize, StateValue> = BTreeMap::new();
        let mut missing: BTreeSet<usize> = BTreeSet::new();
        for &floor in floors.iter().flatten() {
            if resolved.contains_key(&floor) || missing.contains(&floor) {
                continue;
            }
            if let Some((cache, rel)) = &self.cache {
                if let Some(s) = cache.get(*rel, self.entries[floor].tx.0) {
                    resolved.insert(floor, s);
                    continue;
                }
            }
            missing.insert(floor);
        }
        let mut last: Option<(usize, StateValue)> = None;
        for want in missing {
            let (base, seed) = self.seed_for(want);
            let (from, seed) = match &last {
                Some((at, state)) if *at >= base => (*at, state),
                _ => (base, seed),
            };
            let state = self.replay(from, seed, want);
            self.note_replayed(want - from);
            if let Some((cache, rel)) = &self.cache {
                if want > base {
                    // Same rule as single-probe reconstruction: only
                    // replayed versions are worth caching.
                    cache.insert(*rel, self.entries[want].tx.0, state.clone());
                }
            }
            resolved.insert(want, state.clone());
            last = Some((want, state));
        }
        floors
            .iter()
            .map(|f| f.map(|i| resolved[&i].clone()))
            .collect()
    }

    /// FINDSTATE with the selection evaluated *before* the replay: the
    /// checkpoint is cut to the rows the predicate accepts (a binary
    /// search when it compares the leading attributes with constants),
    /// the segment's net delta is cut to the arrivals it accepts, and the
    /// one is applied to the other, so the full version is never
    /// materialized (experiment E10).
    ///
    /// This is sound because a forward delta identifies changes by tuple
    /// value and a tuple's predicate verdict is fixed: filtering the
    /// arriving entries and applying removals to the reduced state
    /// commutes with σ over the fully replayed version. A scheme (or
    /// kind) boundary inside the segment makes its net delta a
    /// `Reschema`, which carries the version in full.
    fn state_at_filtered(
        &self,
        tx: TransactionNumber,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        let Some(predicate) = filter.predicate else {
            // Projection-only pushdown cannot skip replay work (a
            // projected state cannot seed the next delta); materialize
            // and project, exactly like the default path.
            return match self.state_at(tx) {
                Some(s) => filter.apply(s, historical).map(Some),
                None => Ok(None),
            };
        };
        let Some(target) = self.floor(tx) else {
            return Ok(None);
        };
        if let Some((cache, rel)) = &self.cache {
            // A cached full version short-circuits the replay entirely.
            if let Some(s) = cache.get(*rel, self.entries[target].tx.0) {
                return filter.apply(s, historical).map(Some);
            }
        }
        let (base, seed) = self.seed_for(target);
        let chain = self
            .deltas(base, target)
            .expect("versions after a checkpoint hold deltas");
        // Filtered states never enter the cache — they are not the
        // version — but the replay work is still accounted.
        self.note_replayed(chain.len());
        let net = StateDelta::compose(&chain);
        // Mirror σ/σ̂ error wrapping (see TupleTimestampStore): σ surfaces
        // a SnapshotError, σ̂ an HistoricalError.
        let filtered = match (seed, net) {
            (StateValue::Snapshot(s), Some(StateDelta::Snapshot { added, removed }))
                if !historical =>
            {
                let compiled = predicate.compile(s.schema()).map_err(EvalError::Snapshot)?;
                let mut kept = s.select_compiled(&compiled);
                let added: Vec<_> = added.into_iter().filter(|t| compiled.eval(t)).collect();
                kept.apply_delta(&removed, &added)
                    .expect("stored tuples fit the stored schema");
                StateValue::Snapshot(kept)
            }
            (StateValue::Historical(h), Some(StateDelta::Historical { upserted, removed }))
                if historical =>
            {
                let compiled = predicate
                    .compile(h.schema())
                    .map_err(|e| EvalError::Historical(e.into()))?;
                let mut kept = h.hselect_compiled(&compiled);
                // A revalued entry the predicate rejects is not in
                // `kept` either, so dropping the upsert is all it takes.
                let upserted: Vec<_> = upserted
                    .into_iter()
                    .filter(|(t, _)| compiled.eval(t))
                    .collect();
                kept.apply_delta(&removed, &upserted)
                    .expect("stored entries fit the stored schema");
                StateValue::Historical(kept)
            }
            // A version held in full (a checkpoint itself, or past a
            // boundary), or one of the other kind than the query's:
            // the shared filter code selects, or words the mismatch.
            (_, Some(StateDelta::Reschema(s))) => return filter.apply(*s, historical).map(Some),
            (seed, None) => return filter.apply(seed.clone(), historical).map(Some),
            (seed, Some(net)) => return filter.apply(net.apply(seed), historical).map(Some),
        };
        let remaining = RollbackFilter {
            predicate: None,
            project: filter.project,
        };
        remaining.apply(filtered, historical).map(Some)
    }

    /// `state_at(minuend) − state_at(subtrahend)` read off the chain:
    /// the net delta of the versions between the two says which tuples
    /// the later one gained (its arriving side) and which it lost (its
    /// departing side), and the difference is the one or the other.
    fn version_difference(
        &self,
        minuend: TransactionNumber,
        subtrahend: TransactionNumber,
    ) -> Option<StateValue> {
        let (left, right) = (self.floor(minuend)?, self.floor(subtrahend)?);
        let (lo, hi) = (left.min(right), left.max(right));
        let chain = self.deltas(lo, hi)?;
        let schema = self.snapshot_schema_at(lo)?;
        let answer = StateDelta::difference_across(&chain, left == hi, schema)?;
        self.note_replayed(chain.len());
        Some(answer)
    }

    fn current(&self) -> Option<StateValue> {
        self.current.clone()
    }

    fn version_count(&self) -> usize {
        self.entries.len()
    }

    fn first_tx(&self) -> Option<TransactionNumber> {
        self.entries.first().map(|e| e.tx)
    }

    fn last_tx(&self) -> Option<TransactionNumber> {
        self.entries.last().map(|e| e.tx)
    }

    fn space_bytes(&self) -> usize {
        // The interner pool is real resident memory owned by this store;
        // count it alongside the entries it deduplicates.
        self.interner.size_bytes()
            + self
                .entries
                .iter()
                .map(|e| {
                    8 + e.state.as_ref().map_or(0, StateValue::size_bytes)
                        + e.delta.as_ref().map_or(0, StateDelta::size_bytes)
                })
                .sum::<usize>()
    }

    fn version_txs(&self) -> Vec<TransactionNumber> {
        self.entries.iter().map(|e| e.tx).collect()
    }

    fn compact(&mut self, every: NonZeroUsize) -> CompactionStats {
        // Pin the version at every `every`-th chain position as a
        // checkpoint (its delta stays beside it), so no later probe
        // composes more than `every` deltas. Positions below the
        // previous pass's high-water mark are already pinned; each
        // missing one is replayed from the checkpoint just below it,
        // which is the slot this pass pinned a moment ago.
        let len = self.entries.len();
        let scan_from = match self.compacted {
            Some((e, upto)) if e == every => upto,
            _ => 0,
        };
        self.compacted = Some((every, len));
        let mut pass = CompactionStats::default();
        for i in (scan_from.next_multiple_of(every.get())..len).step_by(every.get()) {
            if self.entries[i].state.is_some() {
                continue;
            }
            let (base, seed) = self.seed_for(i);
            let state = self.replay(base, seed, i);
            pass.runs = 1;
            pass.deltas_folded += (i - base) as u64;
            pass.tuples_folded += state.len() as u64;
            self.entries[i].state = Some(state);
        }
        self.compaction = self.compaction.merged(pass);
        pass
    }

    fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    fn truncate_before(&mut self, tx: TransactionNumber) -> usize {
        match self.floor(tx) {
            Some(floor) if floor > 0 => {
                // Materialize the floor version as the new base
                // checkpoint, then drop everything before it (the delta
                // that led to it included: its predecessor is gone).
                let base = Entry {
                    delta: None,
                    state: Some(self.reconstruct(floor)),
                    tx: self.entries[floor].tx,
                };
                self.entries.drain(..=floor);
                self.entries.insert(0, base);
                // Chain positions shifted: the next pass rescans.
                self.compacted = None;
                floor
            }
            _ => 0,
        }
    }

    fn kind(&self) -> BackendKind {
        BackendKind::ForwardDelta
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

    fn filled(policy: CheckpointPolicy) -> ForwardDeltaStore {
        let mut s = ForwardDeltaStore::new(policy);
        s.append(&snap(&[1]), TransactionNumber(1));
        s.append(&snap(&[1, 2]), TransactionNumber(3));
        s.append(&snap(&[2]), TransactionNumber(4));
        s.append(&snap(&[2, 3]), TransactionNumber(8));
        s
    }

    #[test]
    fn findstate_contract_without_checkpoints() {
        let s = filled(CheckpointPolicy::Never);
        assert_eq!(s.state_at(TransactionNumber(0)), None);
        assert_eq!(s.state_at(TransactionNumber(1)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(2)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(3)), Some(snap(&[1, 2])));
        assert_eq!(s.state_at(TransactionNumber(5)), Some(snap(&[2])));
        assert_eq!(s.state_at(TransactionNumber(9)), Some(snap(&[2, 3])));
        assert_eq!(s.current(), Some(snap(&[2, 3])));
    }

    #[test]
    fn last_delta_is_the_newest_chain_entry_checkpoint_positions_included() {
        let mut s = ForwardDeltaStore::new(CheckpointPolicy::every_k(3).unwrap());
        assert_eq!(s.last_delta(), None);
        let mut prev = None;
        for v in 1..=9u64 {
            let state = snap(&[v as i64, v as i64 + 1]);
            s.append(&state, TransactionNumber(v));
            let want = prev.as_ref().map(|p| StateDelta::between(p, &state));
            assert_eq!(s.last_delta(), want, "version {v}");
            assert_eq!(
                s.entries.last().unwrap().state.is_some(),
                (v - 1) % 3 == 0,
                "version {v}"
            );
            prev = Some(state);
        }
    }

    #[test]
    fn append_delta_writes_the_chain_entry_append_would_diff() {
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(3).unwrap(),
        ] {
            crate::backend::testing::assert_append_delta_is_append(
                || ForwardDeltaStore::new(policy),
                |plain, delta, at| {
                    assert_eq!(plain.entries, delta.entries, "{at}");
                    assert_eq!(plain.current, delta.current, "{at}");
                },
            );
        }
    }

    #[test]
    fn checkpoints_do_not_change_answers() {
        let a = filled(CheckpointPolicy::Never);
        let b = filled(CheckpointPolicy::every_k(2).unwrap());
        for t in 0..10 {
            assert_eq!(
                a.state_at(TransactionNumber(t)),
                b.state_at(TransactionNumber(t)),
                "at tx {t}"
            );
        }
    }

    #[test]
    fn compact_promotes_deltas_without_changing_answers() {
        let mut s = ForwardDeltaStore::new(CheckpointPolicy::Never);
        for v in 1..=60u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        let before: Vec<_> = (0..=61).map(|v| s.state_at(TransactionNumber(v))).collect();
        let pass = s.compact(NonZeroUsize::new(5).unwrap());
        assert_eq!(pass.runs, 1);
        assert!(pass.deltas_folded > 0);
        assert!(pass.tuples_folded > 0);
        let after: Vec<_> = (0..=61).map(|v| s.state_at(TransactionNumber(v))).collect();
        assert_eq!(before, after);
        assert_eq!(s.compact(NonZeroUsize::new(5).unwrap()).runs, 0);
        assert_eq!(s.compaction_stats().runs, 1);
    }

    #[test]
    fn compact_folds_only_what_the_previous_pass_left() {
        // `Never` leaves every slot to compaction, the case the engine's
        // opportunistic pass (every 64 appends) meets on a long chain.
        let every = NonZeroUsize::new(32).unwrap();
        let mut s = ForwardDeltaStore::new(CheckpointPolicy::Never);
        let mut v = 0u64;
        let mut grow = |s: &mut ForwardDeltaStore, n: u64| {
            for _ in 0..n {
                v += 1;
                s.append(&snap(&[v as i64]), TransactionNumber(v));
            }
        };
        grow(&mut s, 1024);
        let first = s.compact(every);
        assert_eq!(first.deltas_folded, 992, "one replay up to the last slot");
        for _ in 0..4 {
            grow(&mut s, 64);
            let pass = s.compact(every);
            assert_eq!(pass.runs, 1);
            assert!(
                pass.deltas_folded <= 64 + 32,
                "a pass 64 appends later folded {} deltas",
                pass.deltas_folded
            );
        }
        // A different interval rescans the chain and still pins it all.
        let before: Vec<_> = (0..=v + 1)
            .map(|t| s.state_at(TransactionNumber(t)))
            .collect();
        assert!(s.compact(NonZeroUsize::new(5).unwrap()).deltas_folded > 1024);
        assert_eq!(s.compact(NonZeroUsize::new(5).unwrap()).runs, 0);
        // Truncation shifts positions; the next pass must not trust the
        // old high-water mark.
        s.truncate_before(TransactionNumber(103));
        assert_eq!(s.compact(NonZeroUsize::new(5).unwrap()).runs, 1);
        let after: Vec<_> = (103..=v + 1)
            .map(|t| s.state_at(TransactionNumber(t)))
            .collect();
        assert_eq!(before[103..], after[..]);
    }

    #[test]
    fn delta_storage_is_smaller_than_full_copy_for_low_churn() {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        let base: Vec<Vec<Value>> = (0..200).map(|i| vec![Value::Int(i)]).collect();
        let mut fd = ForwardDeltaStore::new(CheckpointPolicy::Never);
        let mut fc = crate::FullCopyStore::new();
        for v in 0..20 {
            let mut rows = base.clone();
            rows[v as usize] = vec![Value::Int(1000 + v)];
            let s = StateValue::Snapshot(SnapshotState::from_rows(schema.clone(), rows).unwrap());
            fd.append(&s, TransactionNumber(v as u64 + 1));
            fc.append(&s, TransactionNumber(v as u64 + 1));
        }
        assert!(fd.space_bytes() < fc.space_bytes() / 4);
    }
}
