//! The delta backend: one chain of versions joined by forward deltas,
//! with full states at checkpoints.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::Arc;

use txtime_core::{EvalError, RollbackFilter, StateValue, TransactionNumber};
use txtime_snapshot::{Schema, StrInterner};

use crate::backend::{BackendKind, CheckpointPolicy, RollbackStore};
use crate::cache::MaterializationCache;
use crate::delta::{intern_state, StateDelta};
use crate::metrics::{CompactionStats, InternerStats};

/// One version in the chain.
#[derive(Debug, PartialEq)]
struct Entry {
    tx: TransactionNumber,
    /// The delta that carries the previous version to this one; `None`
    /// where there is no previous version: the first, and the new first
    /// a truncation leaves.
    link: Option<StateDelta>,
    /// The version in full (a checkpoint): at the policy's positions,
    /// wherever compaction pinned one, and at the first version. The
    /// link stays beside it, so a span of versions crosses a checkpoint
    /// without a hole.
    state: Option<StateValue>,
}

/// Stores a relation's versions as a chain of deltas plus the current
/// state, materializing checkpoints per the [`CheckpointPolicy`] and
/// wherever [`RollbackStore::compact`] pins one.
///
/// `state_at` answers a version held in full (a checkpoint or the
/// current state) as it stands. Any other version is replayed: the
/// links between the nearest full state at or below it and it are
/// composed into their net delta ([`StateDelta::compose`]) and applied
/// once, so rollback costs one copy of the seed and one edit pass
/// however long the segment, and space is proportional to churn rather
/// than state size.
#[derive(Debug)]
pub struct DeltaStore {
    policy: CheckpointPolicy,
    entries: Vec<Entry>,
    /// The newest version, held in full for O(1) appends and
    /// current-state reads.
    current: Option<StateValue>,
    /// Lifetime compaction counters.
    compaction: CompactionStats,
    /// The last compaction pass's interval and the newest position it
    /// saw: every wanted position below it is already a checkpoint, so
    /// the next pass at the same interval starts its scan there.
    compacted: Option<(NonZeroUsize, usize)>,
    /// Shared materialization cache and this relation's id within it.
    cache: Option<(Arc<MaterializationCache>, u64)>,
    /// Per-relation string pool: every appended state is interned, so
    /// replay compares strings by pointer and never re-hashes them.
    interner: StrInterner,
}

impl DeltaStore {
    /// An empty store checkpointed per `policy` and wired to a shared
    /// materialization cache under the given relation id.
    pub fn new(
        policy: CheckpointPolicy,
        cache: Option<(Arc<MaterializationCache>, u64)>,
    ) -> DeltaStore {
        DeltaStore {
            policy,
            entries: Vec::new(),
            current: None,
            compaction: CompactionStats::default(),
            compacted: None,
            cache,
            interner: StrInterner::new(),
        }
    }

    /// The index of the version current at `tx`, if there is one yet.
    fn floor(&self, tx: TransactionNumber) -> Option<usize> {
        self.entries.partition_point(|e| e.tx <= tx).checked_sub(1)
    }

    /// Version `index` where the store holds it whole: `current` at the
    /// newest, a checkpoint elsewhere.
    fn held(&self, index: usize) -> Option<&StateValue> {
        if index + 1 == self.entries.len() {
            self.current.as_ref()
        } else {
            self.entries[index].state.as_ref()
        }
    }

    /// The nearest version held in full at or below `index`, `index`
    /// itself included: its index and state.
    fn seed(&self, index: usize) -> (usize, &StateValue) {
        (0..=index)
            .rev()
            .find_map(|i| Some((i, self.held(i)?)))
            .expect("a chain holds its first version in full")
    }

    /// The links that carry version `from` up to version `to`, in the
    /// order they apply.
    fn path(&self, from: usize, to: usize) -> Vec<&StateDelta> {
        self.entries[from + 1..=to]
            .iter()
            .map(|e| {
                e.link
                    .as_ref()
                    .expect("versions after the first are linked")
            })
            .collect()
    }

    /// Version `to` from version `from`: the links between composed into
    /// their net delta, applied once.
    fn replay(&self, from: usize, seed: &StateValue, to: usize) -> StateValue {
        match StateDelta::compose(&self.path(from, to)) {
            Some(net) => net.apply(seed),
            None => seed.clone(),
        }
    }

    /// Counts `n` composed links in the shared cache's statistics.
    fn note_replayed(&self, n: usize) {
        if let Some((cache, _)) = &self.cache {
            cache.add_replayed(n as u64);
        }
    }

    /// Version `index` from the cache: a counted probe, since the
    /// caller wanted exactly that version.
    fn cached(&self, index: usize) -> Option<StateValue> {
        let (cache, rel) = self.cache.as_ref()?;
        cache.get(*rel, self.entries[index].tx.0)
    }

    /// Accounts the `replayed` links that rebuilt version `index` and
    /// remembers it in the cache. Only replayed versions go there: one
    /// held in full is O(1) to fetch already.
    fn remember(&self, replayed: usize, index: usize, state: &StateValue) {
        self.note_replayed(replayed);
        if let Some((cache, rel)) = &self.cache {
            cache.insert(*rel, self.entries[index].tx.0, state.clone());
        }
    }

    /// Version `index`: as held, from the cache, or replayed from its
    /// seed.
    fn reconstruct(&self, index: usize) -> StateValue {
        if let Some(state) = self.held(index).cloned().or_else(|| self.cached(index)) {
            return state;
        }
        let (from, seed) = self.seed(index);
        let state = self.replay(from, seed, index);
        self.remember(index - from, index, &state);
        state
    }

    /// The scheme of snapshot version `index`: its seed's, or that of the
    /// last version a scheme boundary on the way carries in full. `None`
    /// for an historical version.
    fn snapshot_schema_at(&self, index: usize) -> Option<&Schema> {
        let (from, seed) = self.seed(index);
        let state = self
            .path(from, index)
            .into_iter()
            .rev()
            .find_map(|link| match link {
                StateDelta::Reschema(s) => Some(&**s),
                _ => None,
            })
            .unwrap_or(seed);
        match state {
            StateValue::Snapshot(s) => Some(s.schema()),
            StateValue::Historical(_) => None,
        }
    }

    /// Writes one version to the chain, the only routine that does: the
    /// `link` to the version before it, and `state` in full beside it at
    /// a checkpoint position.
    fn push(&mut self, link: Option<StateDelta>, state: StateValue, tx: TransactionNumber) {
        debug_assert!(self.entries.last().is_none_or(|e| e.tx < tx));
        let index = self.entries.len();
        let pinned = index == 0 || self.policy.is_checkpoint(index);
        self.entries.push(Entry {
            tx,
            link,
            state: pinned.then(|| state.clone()),
        });
        self.current = Some(state);
    }
}

impl RollbackStore for DeltaStore {
    fn append(&mut self, state: &StateValue, tx: TransactionNumber) {
        // Intern once at the door: the link (whose tuples are clones out
        // of the states) and every replayed reconstruction then share
        // pooled string allocations with the prior versions.
        let state = intern_state(state, &mut self.interner);
        let link = self
            .current
            .as_ref()
            .map(|prev| StateDelta::between(prev, &state));
        self.push(link, state, tx);
    }

    /// The link is the delta as it stands; only its arriving tuples go
    /// through the pool, and `current` is edited in place (copied first
    /// if a reader or a checkpoint still shares its run).
    fn append_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        let delta = delta.interned(&mut self.interner);
        let mut state = self
            .current
            .take()
            .expect("a delta applies to a current state");
        delta.apply_in_place(&mut state);
        self.push(Some(delta), state, tx);
    }

    /// The newest link is the wanted delta: the cost of the changes, not
    /// of a second diff. Only the first version (and a truncation's new
    /// first) has none.
    fn last_delta(&self) -> Option<StateDelta> {
        self.entries.last()?.link.clone()
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

    /// Batched FINDSTATE: the distinct floor versions neither held nor
    /// cached are replayed oldest first, each from the nearer of its
    /// seed and the version replayed just before it, so no link is
    /// composed twice per batch (and every wanted version warms the
    /// cache).
    fn state_at_many(&self, txs: &[TransactionNumber]) -> Vec<Option<StateValue>> {
        let floors: Vec<Option<usize>> = txs.iter().map(|tx| self.floor(*tx)).collect();
        let mut resolved: BTreeMap<usize, StateValue> = BTreeMap::new();
        let mut missing: BTreeSet<usize> = BTreeSet::new();
        for &floor in floors.iter().flatten() {
            if resolved.contains_key(&floor) || missing.contains(&floor) {
                continue;
            }
            match self.held(floor).cloned().or_else(|| self.cached(floor)) {
                Some(state) => {
                    resolved.insert(floor, state);
                }
                None => {
                    missing.insert(floor);
                }
            }
        }
        let mut last: Option<(usize, StateValue)> = None;
        for want in missing {
            let (seed_at, seed) = self.seed(want);
            let (from, seed) = match &last {
                Some((at, state)) if seed_at <= *at => (*at, state),
                _ => (seed_at, seed),
            };
            let state = self.replay(from, seed, want);
            self.remember(want - from, want, &state);
            resolved.insert(want, state.clone());
            last = Some((want, state));
        }
        floors
            .iter()
            .map(|f| f.map(|i| resolved[&i].clone()))
            .collect()
    }

    /// FINDSTATE with the selection evaluated *before* the replay: the
    /// seed is cut to the rows the predicate accepts (a binary search
    /// when it compares the leading attributes with constants), the
    /// segment's net delta is cut to the arrivals it accepts, and the
    /// one is applied to the other, so the full version is never
    /// materialized (experiment E10).
    ///
    /// This is sound because a link identifies changes by tuple value and a tuple's predicate verdict is fixed:
    /// filtering the arriving entries and applying removals to the
    /// reduced state commutes with σ over the fully replayed version. A
    /// scheme (or kind) boundary inside the segment makes its net delta
    /// a `Reschema`, which carries the version in full.
    fn state_at_filtered(
        &self,
        tx: TransactionNumber,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        let Some(predicate) = filter.predicate else {
            // Projection-only pushdown cannot skip replay work (a
            // projected state cannot seed the next link); materialize
            // and project, exactly like the default path.
            return match self.state_at(tx) {
                Some(s) => filter.apply(s, historical).map(Some),
                None => Ok(None),
            };
        };
        let Some(target) = self.floor(tx) else {
            return Ok(None);
        };
        if let Some(s) = self.held(target).cloned().or_else(|| self.cached(target)) {
            return filter.apply(s, historical).map(Some);
        }
        let (from, seed) = self.seed(target);
        let chain = self.path(from, target);
        // Filtered states never enter the cache (they are not the
        // version), but the replay work is still accounted.
        self.note_replayed(chain.len());
        let net = StateDelta::compose(&chain).expect("a version not held has links to its seed");
        // The plain path's σ/σ̂ error wrapping: σ surfaces a
        // SnapshotError, σ̂ an HistoricalError.
        let filtered = match (seed, net) {
            (StateValue::Snapshot(s), StateDelta::Snapshot { added, removed }) if !historical => {
                let compiled = predicate.compile(s.schema()).map_err(EvalError::Snapshot)?;
                let mut kept = s.select_compiled(&compiled);
                let added: Vec<_> = added.into_iter().filter(|t| compiled.eval(t)).collect();
                kept.apply_delta(&removed, &added)
                    .expect("stored tuples fit the stored schema");
                StateValue::Snapshot(kept)
            }
            (StateValue::Historical(h), StateDelta::Historical { upserted, removed })
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
            // A version past a boundary, held in full, or one of the
            // other kind than the query's: the shared filter code
            // selects, or words the mismatch.
            (_, StateDelta::Reschema(s)) => return filter.apply(*s, historical).map(Some),
            (seed, net) => return filter.apply(net.apply(seed), historical).map(Some),
        };
        let remaining = RollbackFilter {
            predicate: None,
            project: filter.project,
        };
        remaining.apply(filtered, historical).map(Some)
    }

    /// `state_at(minuend) − state_at(subtrahend)` read off the chain:
    /// the net delta of the links between the two versions carries one
    /// to the other, so what it adds is what the version it arrives at
    /// gained and what it removes is what that version lost; the
    /// difference is the one or the other.
    fn version_difference(
        &self,
        minuend: TransactionNumber,
        subtrahend: TransactionNumber,
    ) -> Option<StateValue> {
        let left = self.floor(minuend)?;
        let right = self.floor(subtrahend)?;
        let (from, to) = (left.min(right), left.max(right));
        let chain = self.path(from, to);
        let schema = self.snapshot_schema_at(from)?;
        let answer = StateDelta::difference_across(&chain, left == to, schema)?;
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
        // count it alongside the entries it deduplicates, and `current`
        // unless the newest entry holds it as a checkpoint.
        let unpinned_current = self.entries.last().filter(|e| e.state.is_none());
        self.interner.size_bytes()
            + unpinned_current
                .and(self.current.as_ref())
                .map_or(0, StateValue::size_bytes)
            + self
                .entries
                .iter()
                .map(|e| {
                    8 + e.state.as_ref().map_or(0, StateValue::size_bytes)
                        + e.link.as_ref().map_or(0, StateDelta::size_bytes)
                })
                .sum::<usize>()
    }

    fn version_txs(&self) -> Vec<TransactionNumber> {
        self.entries.iter().map(|e| e.tx).collect()
    }

    fn compact(&mut self, every: NonZeroUsize) -> CompactionStats {
        // Pin the version at every `every`-th chain position as a
        // checkpoint (its link stays beside it), so no later probe
        // composes more than `every` links. The newest version is
        // `current` already, and positions below the previous pass's
        // high-water mark are pinned already. The slots are filled
        // oldest first, so each missing one is replayed from the slot
        // this pass pinned a moment ago.
        let newest = self.entries.len().saturating_sub(1);
        let scan_from = match self.compacted {
            Some((e, upto)) if e == every => upto,
            _ => 0,
        };
        self.compacted = Some((every, newest));
        let slots = (scan_from.next_multiple_of(every.get())..newest).step_by(every.get());
        let mut pass = CompactionStats::default();
        for i in slots {
            if self.entries[i].state.is_some() {
                continue;
            }
            let (from, seed) = self.seed(i);
            let state = self.replay(from, seed, i);
            pass.runs = 1;
            pass.deltas_folded += (i - from) as u64;
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
                // The floor version becomes the first: it loses its link
                // (its predecessor is gone), and the chain needs it in
                // full.
                if self.entries[floor].state.is_none() {
                    self.entries[floor].state = Some(self.reconstruct(floor));
                }
                self.entries.drain(..floor);
                self.entries[0].link = None;
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
    use txtime_historical::{HistoricalState, TemporalElement};
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Tuple, Value};

    fn snap(vals: &[i64]) -> StateValue {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        StateValue::Snapshot(
            SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap(),
        )
    }

    fn hist(vals: &[(i64, u32, u32)]) -> StateValue {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        let rows = vals.iter().map(|&(v, s, e)| {
            (
                Tuple::new(vec![Value::Int(v)]),
                TemporalElement::period(s, e),
            )
        });
        StateValue::Historical(HistoricalState::new(schema, rows).unwrap())
    }

    fn policies() -> [CheckpointPolicy; 2] {
        [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(2).unwrap(),
        ]
    }

    fn store(policy: CheckpointPolicy) -> DeltaStore {
        DeltaStore::new(policy, None)
    }

    fn filled(policy: CheckpointPolicy) -> DeltaStore {
        let mut s = store(policy);
        s.append(&snap(&[1]), TransactionNumber(1));
        s.append(&snap(&[1, 2]), TransactionNumber(3));
        s.append(&snap(&[2]), TransactionNumber(4));
        s.append(&snap(&[2, 3]), TransactionNumber(8));
        s
    }

    #[test]
    fn findstate_contract_without_checkpoints() {
        let s = filled(CheckpointPolicy::Never);
        let at = |t| s.state_at(TransactionNumber(t));
        assert_eq!(at(0), None);
        assert_eq!(at(1), Some(snap(&[1])));
        assert_eq!(at(2), Some(snap(&[1])));
        assert_eq!(at(3), Some(snap(&[1, 2])));
        assert_eq!(at(5), Some(snap(&[2])));
        assert_eq!(at(9), Some(snap(&[2, 3])));
        assert_eq!(s.current(), Some(snap(&[2, 3])));
        assert_eq!(s.version_count(), 4);
    }

    #[test]
    fn findstate_contract_snapshot() {
        for policy in policies() {
            let mut s = store(policy);
            s.append(&snap(&[1]), TransactionNumber(1));
            s.append(&snap(&[1, 2]), TransactionNumber(3));
            s.append(&snap(&[2]), TransactionNumber(4));
            s.append(&snap(&[1, 2]), TransactionNumber(7)); // 1 returns
            let at = |t| s.state_at(TransactionNumber(t));
            assert_eq!(at(0), None, "{policy:?}");
            assert_eq!(at(2), Some(snap(&[1])), "{policy:?}");
            assert_eq!(at(3), Some(snap(&[1, 2])), "{policy:?}");
            assert_eq!(at(5), Some(snap(&[2])), "{policy:?}");
            assert_eq!(at(8), Some(snap(&[1, 2])), "{policy:?}");
        }
    }

    #[test]
    fn findstate_contract_historical() {
        for policy in policies() {
            let mut s = store(policy);
            s.append(&hist(&[(1, 0, 5)]), TransactionNumber(1));
            s.append(&hist(&[(1, 0, 9)]), TransactionNumber(4)); // revalued
            s.append(&hist(&[(2, 3, 4)]), TransactionNumber(6));
            let at = |t| s.state_at(TransactionNumber(t));
            assert_eq!(at(2), Some(hist(&[(1, 0, 5)])), "{policy:?}");
            assert_eq!(at(5), Some(hist(&[(1, 0, 9)])), "{policy:?}");
            assert_eq!(at(6), Some(hist(&[(2, 3, 4)])), "{policy:?}");
        }
    }

    /// A version under another scheme is linked in full, and replay
    /// crosses that link.
    #[test]
    fn schema_change_is_linked_in_full() {
        let mut s = store(CheckpointPolicy::Never);
        s.append(&snap(&[1]), TransactionNumber(1));
        let other_schema = Schema::new(vec![("y", DomainType::Int)]).unwrap();
        let other = StateValue::Snapshot(
            SnapshotState::from_rows(other_schema, vec![vec![Value::Int(9)]]).unwrap(),
        );
        s.append(&other, TransactionNumber(2));
        s.append(&snap(&[2]), TransactionNumber(3));
        assert!(matches!(s.entries[1].link, Some(StateDelta::Reschema(_))));
        assert_eq!(s.state_at(TransactionNumber(1)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(2)), Some(other));
    }

    /// An unchanging state is held once, in the first version; every
    /// later link is empty.
    #[test]
    fn stable_tuples_are_stored_once() {
        let mut s = store(CheckpointPolicy::Never);
        let vals: Vec<i64> = (0..100).collect();
        for v in 1..=20u64 {
            s.append(&snap(&vals), TransactionNumber(v));
        }
        assert_eq!(s.entries.iter().filter(|e| e.state.is_some()).count(), 1);
        let links = s.entries.iter().filter_map(|e| e.link.as_ref());
        assert_eq!(links.map(StateDelta::change_count).sum::<usize>(), 0);
        assert_eq!(s.state_at(TransactionNumber(10)), Some(snap(&vals)));
    }

    #[test]
    fn checkpoints_do_not_change_answers() {
        // The chain answers as it does without checkpoints.
        let reference = filled(CheckpointPolicy::Never);
        let s = filled(CheckpointPolicy::every_k(2).unwrap());
        for t in 0..10 {
            assert_eq!(
                s.state_at(TransactionNumber(t)),
                reference.state_at(TransactionNumber(t)),
                "at tx {t}"
            );
        }
    }

    #[test]
    fn append_time_checkpoints_match_never_policy_answers() {
        let mut every = store(CheckpointPolicy::every_k(4).unwrap());
        let mut never = store(CheckpointPolicy::Never);
        for v in 1..=33u64 {
            let state = snap(&[v as i64, -(v as i64)]);
            every.append(&state, TransactionNumber(v));
            never.append(&state, TransactionNumber(v));
        }
        for v in 0..=34u64 {
            assert_eq!(
                every.state_at(TransactionNumber(v)),
                never.state_at(TransactionNumber(v)),
                "at tx {v}"
            );
        }
    }

    #[test]
    fn compact_promotes_deltas_without_changing_answers() {
        let mut s = store(CheckpointPolicy::Never);
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
    fn compact_pins_checkpoints_and_preserves_answers() {
        let mut s = store(CheckpointPolicy::Never);
        for v in 1..=100u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        let before: Vec<_> = (0..=101)
            .map(|v| s.state_at(TransactionNumber(v)))
            .collect();
        s.compact(NonZeroUsize::new(8).unwrap());
        for (i, e) in s.entries.iter().enumerate().take(99) {
            assert_eq!(e.state.is_some(), i % 8 == 0, "position {i}");
        }
        let after: Vec<_> = (0..=101)
            .map(|v| s.state_at(TransactionNumber(v)))
            .collect();
        assert_eq!(before, after);
        // Batched probes agree too.
        let txs: Vec<TransactionNumber> = (0..=101).map(TransactionNumber).collect();
        assert_eq!(s.state_at_many(&txs), before);
    }

    #[test]
    fn truncate_reindexes_checkpoints() {
        let mut s = store(CheckpointPolicy::every_k(4).unwrap());
        for v in 1..=20u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        assert_eq!(s.truncate_before(TransactionNumber(10)), 9);
        assert_eq!(s.first_tx(), Some(TransactionNumber(10)));
        // The new first version has no predecessor to link to.
        assert_eq!(s.entries[0].link, None);
        assert_eq!(s.state_at(TransactionNumber(9)), None);
        for v in 10..=20u64 {
            assert_eq!(
                s.state_at(TransactionNumber(v)),
                Some(snap(&[v as i64])),
                "at tx {v}"
            );
        }
    }

    #[test]
    fn current_access_needs_no_replay() {
        let mut s = store(CheckpointPolicy::Never);
        for v in 1..=50u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        // The current state is materialized, whatever the depth of
        // the history behind it.
        assert_eq!(s.current(), Some(snap(&[50])));
        // And the very first version is still reachable.
        assert_eq!(s.state_at(TransactionNumber(1)), Some(snap(&[1])));
    }

    #[test]
    fn a_batch_composes_each_link_at_most_once() {
        let cache = MaterializationCache::shared();
        let mut s = DeltaStore::new(CheckpointPolicy::Never, Some((cache.clone(), 0)));
        for v in 1..=40u64 {
            s.append(&snap(&[v as i64, 100 + v as i64]), TransactionNumber(v));
        }
        // Unsorted, repeated, and before the first version.
        let txs: Vec<TransactionNumber> = [7, 0, 33, 7, 12, 40, 1, 25, 12]
            .into_iter()
            .map(TransactionNumber)
            .collect();
        let want: Vec<_> = txs
            .iter()
            .map(|&t| (t.0 > 0).then(|| snap(&[t.0 as i64, 100 + t.0 as i64])))
            .collect();
        assert_eq!(s.state_at_many(&txs), want);
        assert!(
            cache.stats().replayed_deltas < 40,
            "a batch composed {} links of a 39-link chain",
            cache.stats().replayed_deltas
        );
    }

    #[test]
    fn append_delta_writes_the_chain_entry_append_would_diff() {
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(3).unwrap(),
        ] {
            crate::backend::testing::assert_append_delta_is_append(
                || store(policy),
                |plain, delta, at| {
                    assert_eq!(plain.entries, delta.entries, "{at}");
                    assert_eq!(plain.current, delta.current, "{at}");
                },
            );
        }
    }

    #[test]
    fn last_delta_is_the_newest_link_checkpoint_positions_included() {
        let mut s = store(CheckpointPolicy::every_k(3).unwrap());
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
    fn the_newest_version_is_current_without_replay() {
        let cache = MaterializationCache::shared();
        let mut s = DeltaStore::new(CheckpointPolicy::Never, Some((cache.clone(), 0)));
        for v in 1..=50u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        for probe in [50, 99] {
            assert_eq!(s.state_at(TransactionNumber(probe)), Some(snap(&[50])));
        }
        let stats = cache.stats();
        assert_eq!(stats.replayed_deltas, 0);
        assert_eq!(stats.insertions, 0);
        // A version in the middle is reached by replay.
        assert_eq!(s.state_at(TransactionNumber(25)), Some(snap(&[25])));
        assert!(cache.stats().replayed_deltas > 0);
    }

    #[test]
    fn a_filtered_replay_is_counted_but_never_cached() {
        let pred = txtime_snapshot::Predicate::gt_const("x", Value::Int(20));
        let filter = RollbackFilter {
            predicate: Some(&pred),
            project: None,
        };
        let cache = MaterializationCache::shared();
        let mut s = DeltaStore::new(CheckpointPolicy::Never, Some((cache.clone(), 0)));
        for v in 1..=30u64 {
            s.append(&snap(&[v as i64, 10 + v as i64]), TransactionNumber(v));
        }
        let filtered = s
            .state_at_filtered(TransactionNumber(15), false, &filter)
            .unwrap();
        assert_eq!(filtered, Some(snap(&[25])));
        let stats = cache.stats();
        assert!(stats.replayed_deltas > 0);
        // σ of a version is not the version: the next plain read
        // still replays.
        assert_eq!(stats.insertions, 0);
        assert_eq!(s.state_at(TransactionNumber(15)), Some(snap(&[15, 25])));
        assert_eq!(cache.stats().insertions, 1);
    }

    #[test]
    fn compact_folds_only_what_the_previous_pass_left() {
        // `Never` leaves every slot to compaction, the case the engine's
        // opportunistic pass (every 64 appends) meets on a long chain.
        let every = NonZeroUsize::new(32).unwrap();
        let mut s = store(CheckpointPolicy::Never);
        let mut v = 0u64;
        let mut grow = |s: &mut DeltaStore, n: u64| {
            for _ in 0..n {
                v += 1;
                s.append(&snap(&[v as i64]), TransactionNumber(v));
            }
        };
        grow(&mut s, 1024);
        let first = s.compact(every);
        // One walk from the pinned first version up to the last slot.
        assert_eq!(first.deltas_folded, 992);
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
        // A different interval rescans the chain and still pins it
        // all.
        let before: Vec<_> = (0..=v + 1)
            .map(|t| s.state_at(TransactionNumber(t)))
            .collect();
        assert!(s.compact(NonZeroUsize::new(5).unwrap()).deltas_folded > 1024);
        assert_eq!(s.compact(NonZeroUsize::new(5).unwrap()).runs, 0);
        // Truncation shifts positions; the next pass must not trust
        // the old high-water mark.
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
        let mut delta = store(CheckpointPolicy::Never);
        let mut full = crate::FullCopyStore::new();
        for v in 0..20 {
            let mut rows = base.clone();
            rows[v as usize] = vec![Value::Int(1000 + v)];
            let s = StateValue::Snapshot(SnapshotState::from_rows(schema.clone(), rows).unwrap());
            delta.append(&s, TransactionNumber(v as u64 + 1));
            full.append(&s, TransactionNumber(v as u64 + 1));
        }
        assert!(delta.space_bytes() < full.space_bytes() / 4);
    }
}
