//! The forward-delta backend: base + per-transaction deltas +
//! checkpoints.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::Arc;

use txtime_core::{EvalError, RollbackFilter, StateValue, TransactionNumber};
use txtime_historical::HistoricalState;
use txtime_snapshot::SnapshotState;

use txtime_snapshot::StrInterner;

use crate::backend::{BackendKind, CheckpointPolicy, RollbackStore};
use crate::cache::MaterializationCache;
use crate::delta::{intern_state, StateDelta};
use crate::metrics::{CompactionStats, InternerStats};

/// One entry in the forward chain.
#[derive(Debug, PartialEq)]
enum Entry {
    /// A materialized full state (version 0 and checkpoints).
    Checkpoint(StateValue),
    /// A delta from the previous version.
    Delta(StateDelta),
}

/// Stores the first version in full and subsequent versions as forward
/// deltas, materializing a checkpoint every K versions per the policy.
///
/// `state_at` seeks the last version ≤ tx, walks *back* to the nearest
/// checkpoint, then replays deltas forward — so rollback cost is bounded
/// by the checkpoint interval, and space is proportional to churn rather
/// than state size.
#[derive(Debug)]
pub struct ForwardDeltaStore {
    policy: CheckpointPolicy,
    entries: Vec<(Entry, TransactionNumber)>,
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

    /// Walks back from `index` to the nearest materialized replay seed —
    /// a checkpoint, or a cached reconstruction of an earlier version
    /// (uncounted probes: these are opportunistic). Returns the seed's
    /// entry index and its materialized state; every entry in
    /// `(seed, index]` is a delta.
    fn seed_for(&self, index: usize) -> (usize, StateValue) {
        let mut base = index;
        let state = loop {
            match &self.entries[base].0 {
                Entry::Checkpoint(s) => break s.clone(),
                Entry::Delta(_) => {
                    if base < index {
                        if let Some((cache, rel)) = &self.cache {
                            if let Some(s) = cache.peek(*rel, self.entries[base].1 .0) {
                                break s;
                            }
                        }
                    }
                    base -= 1;
                }
            }
        };
        (base, state)
    }

    /// Reconstructs version `index` by replay, consulting the cache for
    /// the finished version first and for the nearest materialized replay
    /// seed second.
    fn reconstruct(&self, index: usize) -> StateValue {
        let target_tx = self.entries[index].1;
        if let Some((cache, rel)) = &self.cache {
            // Counted probe: the caller wanted exactly this version.
            if let Some(state) = cache.get(*rel, target_tx.0) {
                return state;
            }
        }
        let (base, mut state) = self.seed_for(index);
        // Replay forward, mutating the one working state in place.
        let mut replayed = 0u64;
        for i in base + 1..=index {
            match &self.entries[i].0 {
                Entry::Delta(d) => {
                    d.apply_in_place(&mut state);
                    replayed += 1;
                }
                Entry::Checkpoint(s) => state = s.clone(),
            }
        }
        if let Some((cache, rel)) = &self.cache {
            cache.add_replayed(replayed);
            if replayed > 0 {
                // Checkpoints are O(1) to fetch; only replayed versions
                // are worth remembering.
                cache.insert(*rel, target_tx.0, state.clone());
            }
        }
        state
    }
}

impl ForwardDeltaStore {
    /// Writes one version to the chain, the only routine that does:
    /// `state` in full at a checkpoint position (and first of all), the
    /// `delta` that led to it anywhere else.
    fn push(&mut self, delta: Option<StateDelta>, state: StateValue, tx: TransactionNumber) {
        debug_assert!(self.entries.last().is_none_or(|(_, t)| *t < tx));
        let entry = match delta {
            Some(d) if !self.policy.is_checkpoint(self.entries.len()) => Entry::Delta(d),
            _ => Entry::Checkpoint(state.clone()),
        };
        self.entries.push((entry, tx));
        self.current = Some(state);
    }
}

impl RollbackStore for ForwardDeltaStore {
    fn append(&mut self, state: &StateValue, tx: TransactionNumber) {
        // Intern once at the door: the delta (whose tuples are clones out
        // of `state`) and every replayed reconstruction then share pooled
        // string allocations with the prior versions.
        let state = intern_state(state, &mut self.interner);
        // A checkpoint position stores the state itself: nothing to diff.
        let delta = match &self.current {
            Some(prev) if !self.policy.is_checkpoint(self.entries.len()) => {
                Some(StateDelta::between(prev, &state))
            }
            _ => None,
        };
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

    /// The newest chain entry *is* the wanted delta, unless it is a
    /// checkpoint, which holds a full state and was never diffed.
    fn last_delta(&self) -> Option<StateDelta> {
        match &self.entries.last()?.0 {
            Entry::Delta(d) => Some(d.clone()),
            Entry::Checkpoint(_) => None,
        }
    }

    fn interner_stats(&self) -> Option<InternerStats> {
        Some(InternerStats {
            strings: self.interner.len(),
            bytes: self.interner.size_bytes(),
        })
    }

    fn state_at(&self, tx: TransactionNumber) -> Option<StateValue> {
        let idx = self.entries.partition_point(|(_, t)| *t <= tx);
        idx.checked_sub(1).map(|i| self.reconstruct(i))
    }

    /// Batched FINDSTATE: one replay pass over the delta chain answers
    /// every probe, instead of one replay per probe. The pass runs from
    /// the seed of the *lowest* uncached floor version to the *highest*,
    /// capturing each wanted version (and warming the cache with it) as
    /// the working state sweeps past it.
    fn state_at_many(&self, txs: &[TransactionNumber]) -> Vec<Option<StateValue>> {
        let floors: Vec<Option<usize>> = txs
            .iter()
            .map(|tx| {
                self.entries
                    .partition_point(|(_, t)| *t <= *tx)
                    .checked_sub(1)
            })
            .collect();
        // Triage the distinct floor versions through the cache (counted:
        // each was wanted by at least one probe).
        let mut resolved: BTreeMap<usize, StateValue> = BTreeMap::new();
        let mut missing: BTreeSet<usize> = BTreeSet::new();
        for &floor in floors.iter().flatten() {
            if resolved.contains_key(&floor) || missing.contains(&floor) {
                continue;
            }
            if let Some((cache, rel)) = &self.cache {
                if let Some(s) = cache.get(*rel, self.entries[floor].1 .0) {
                    resolved.insert(floor, s);
                    continue;
                }
            }
            missing.insert(floor);
        }
        if let (Some(&lo), Some(&hi)) = (missing.first(), missing.last()) {
            let (base, mut state) = self.seed_for(lo);
            if missing.contains(&base) {
                // The lowest wanted version is itself a checkpoint.
                resolved.insert(base, state.clone());
            }
            let mut replayed = 0u64;
            for i in base + 1..=hi {
                match &self.entries[i].0 {
                    Entry::Delta(d) => {
                        d.apply_in_place(&mut state);
                        replayed += 1;
                    }
                    Entry::Checkpoint(s) => state = s.clone(),
                }
                if missing.contains(&i) {
                    resolved.insert(i, state.clone());
                    if let Some((cache, rel)) = &self.cache {
                        if matches!(self.entries[i].0, Entry::Delta(_)) {
                            // Same rule as single-probe reconstruction:
                            // only replayed versions are worth caching.
                            cache.insert(*rel, self.entries[i].1 .0, state.clone());
                        }
                    }
                }
            }
            if let Some((cache, _)) = &self.cache {
                cache.add_replayed(replayed);
            }
        }
        floors
            .iter()
            .map(|f| f.map(|i| resolved[&i].clone()))
            .collect()
    }

    /// FINDSTATE with the selection evaluated *during replay*: the
    /// working state carries only tuples the predicate accepts, so the
    /// full version is never materialized (experiment E10).
    ///
    /// This is sound because a forward delta identifies changes by tuple
    /// value: a tuple's predicate verdict is fixed at compile time, so
    /// filtering `added`/`upserted` entries as they arrive and applying
    /// removals to the reduced state commutes with σ over the fully
    /// replayed version. Scheme (and kind) boundaries reset the chain via
    /// `Reschema`/checkpoint entries, so only the suffix after the last
    /// boundary is replayed filtered — against the one schema the
    /// predicate was compiled for.
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
        let idx = self.entries.partition_point(|(_, t)| *t <= tx);
        let Some(target) = idx.checked_sub(1) else {
            return Ok(None);
        };
        if let Some((cache, rel)) = &self.cache {
            // A cached full version short-circuits the replay entirely.
            if let Some(s) = cache.get(*rel, self.entries[target].1 .0) {
                return filter.apply(s, historical).map(Some);
            }
        }
        let (base, seed) = self.seed_for(target);
        // Every entry in (base, target] is a delta; a `Reschema` delta
        // replaces the state wholesale, so replay effectively starts at
        // the *last* such boundary.
        let mut start = base;
        let mut state = seed;
        for i in base + 1..=target {
            if let Entry::Delta(StateDelta::Reschema(s)) = &self.entries[i].0 {
                start = i;
                state = (**s).clone();
            }
        }
        if state.is_historical() != historical {
            // The suffix after the last boundary keeps this kind, so the
            // query is doomed to a kind mismatch; materialize unfiltered
            // and let the shared filter code produce the exact error the
            // un-pushed path would.
            return filter.apply(self.reconstruct(target), historical).map(Some);
        }
        // Mirror σ/σ̂ error wrapping (see TupleTimestampStore): σ surfaces
        // a SnapshotError, σ̂ an HistoricalError.
        let mut replayed = 0u64;
        let filtered = match &state {
            StateValue::Snapshot(s) => {
                let compiled = match predicate.compile(s.schema()) {
                    Ok(c) => c,
                    Err(e) => return Err(EvalError::Snapshot(e)),
                };
                let mut tuples: BTreeSet<_> =
                    s.iter().filter(|t| compiled.eval(t)).cloned().collect();
                for i in start + 1..=target {
                    let Entry::Delta(StateDelta::Snapshot { added, removed }) = &self.entries[i].0
                    else {
                        unreachable!("suffix after the last boundary is snapshot deltas");
                    };
                    for t in removed {
                        tuples.remove(t);
                    }
                    tuples.extend(added.iter().filter(|t| compiled.eval(t)).cloned());
                    replayed += 1;
                }
                StateValue::Snapshot(
                    SnapshotState::new(s.schema().clone(), tuples)
                        .expect("stored tuples fit the stored schema"),
                )
            }
            StateValue::Historical(h) => {
                let compiled = match predicate.compile(h.schema()) {
                    Ok(c) => c,
                    Err(e) => return Err(EvalError::Historical(e.into())),
                };
                let mut entries: BTreeMap<_, _> = h
                    .iter()
                    .filter(|(t, _)| compiled.eval(t))
                    .map(|(t, e)| (t.clone(), e.clone()))
                    .collect();
                for i in start + 1..=target {
                    let Entry::Delta(StateDelta::Historical { upserted, removed }) =
                        &self.entries[i].0
                    else {
                        unreachable!("suffix after the last boundary is historical deltas");
                    };
                    for t in removed {
                        entries.remove(t);
                    }
                    for (t, e) in upserted {
                        if compiled.eval(t) {
                            entries.insert(t.clone(), e.clone());
                        }
                    }
                    replayed += 1;
                }
                StateValue::Historical(
                    HistoricalState::new(h.schema().clone(), entries)
                        .expect("stored entries fit the stored schema"),
                )
            }
        };
        if let Some((cache, _)) = &self.cache {
            // Filtered states never enter the cache — they are not the
            // version — but the replay work is still accounted.
            cache.add_replayed(replayed);
        }
        let remaining = RollbackFilter {
            predicate: None,
            project: filter.project,
        };
        remaining.apply(filtered, historical).map(Some)
    }

    fn current(&self) -> Option<StateValue> {
        self.current.clone()
    }

    fn version_count(&self) -> usize {
        self.entries.len()
    }

    fn first_tx(&self) -> Option<TransactionNumber> {
        self.entries.first().map(|(_, t)| *t)
    }

    fn last_tx(&self) -> Option<TransactionNumber> {
        self.entries.last().map(|(_, t)| *t)
    }

    fn space_bytes(&self) -> usize {
        // The interner pool is real resident memory owned by this store;
        // count it alongside the entries it deduplicates.
        self.interner.size_bytes()
            + self
                .entries
                .iter()
                .map(|(e, _)| {
                    8 + match e {
                        Entry::Checkpoint(s) => s.size_bytes(),
                        Entry::Delta(d) => d.size_bytes(),
                    }
                })
                .sum::<usize>()
    }

    fn version_txs(&self) -> Vec<TransactionNumber> {
        self.entries.iter().map(|(_, t)| *t).collect()
    }

    fn compact(&mut self, every: NonZeroUsize) -> CompactionStats {
        // Promote the delta entry at every `every`-th chain position to a
        // materialized checkpoint, so no later probe replays more than
        // `every` deltas. Positions below the previous pass's high-water
        // mark are already pinned; one forward replay from the nearest
        // checkpoint below the first missing slot fills the rest.
        let len = self.entries.len();
        let scan_from = match self.compacted {
            Some((e, upto)) if e == every => upto,
            _ => 0,
        };
        self.compacted = Some((every, len));
        let missing: Vec<usize> = (scan_from.next_multiple_of(every.get())..len)
            .step_by(every.get())
            .filter(|&i| matches!(self.entries[i].0, Entry::Delta(_)))
            .collect();
        let (Some(&lo), Some(&hi)) = (missing.first(), missing.last()) else {
            return CompactionStats::default();
        };
        let mut pass = CompactionStats {
            runs: 1,
            ..CompactionStats::default()
        };
        let (seed, mut state) = (0..lo)
            .rev()
            .find_map(|i| match &self.entries[i].0 {
                Entry::Checkpoint(s) => Some((i, s.clone())),
                Entry::Delta(_) => None,
            })
            .expect("chain starts with a checkpoint");
        let mut want = missing.into_iter().peekable();
        for i in seed + 1..=hi {
            match &self.entries[i].0 {
                Entry::Checkpoint(s) => state = s.clone(),
                Entry::Delta(d) => {
                    d.apply_in_place(&mut state);
                    pass.deltas_folded += 1;
                }
            }
            if want.peek() == Some(&i) {
                want.next();
                pass.tuples_folded += state.len() as u64;
                self.entries[i].0 = Entry::Checkpoint(state.clone());
            }
        }
        self.compaction = self.compaction.merged(pass);
        pass
    }

    fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    fn truncate_before(&mut self, tx: TransactionNumber) -> usize {
        let idx = self.entries.partition_point(|(_, t)| *t <= tx);
        match idx.checked_sub(1) {
            Some(floor) if floor > 0 => {
                // Materialize the floor version as the new base
                // checkpoint, then drop everything before it.
                let base = self.reconstruct(floor);
                let base_tx = self.entries[floor].1;
                self.entries.drain(..=floor);
                self.entries.insert(0, (Entry::Checkpoint(base), base_tx));
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
    fn last_delta_is_the_newest_chain_entry_and_none_at_a_checkpoint() {
        let mut s = ForwardDeltaStore::new(CheckpointPolicy::every_k(3).unwrap());
        assert_eq!(s.last_delta(), None);
        let mut prev = None;
        for v in 1..=9u64 {
            let state = snap(&[v as i64, v as i64 + 1]);
            s.append(&state, TransactionNumber(v));
            let want = prev
                .as_ref()
                .filter(|_| (v - 1) % 3 != 0)
                .map(|p| StateDelta::between(p, &state));
            assert_eq!(s.last_delta(), want, "version {v}");
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
