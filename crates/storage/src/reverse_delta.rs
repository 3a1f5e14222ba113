//! The reverse-delta backend: current state in full, deltas backwards.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::Arc;

use txtime_core::{StateValue, TransactionNumber};
use txtime_snapshot::{Schema, StrInterner};

use crate::backend::{BackendKind, CheckpointPolicy, RollbackStore};
use crate::cache::MaterializationCache;
use crate::delta::{intern_state, StateDelta};
use crate::metrics::{CompactionStats, InternerStats};

/// Stores the current state materialized and, for each superseded version
/// `i`, the reverse delta carrying version `i+1` back to version `i`.
///
/// Current-state access is O(1); `state_at(tx)` composes the reverse
/// deltas between the target version and the current state (or a
/// materialized checkpoint nearer to it) into their net delta and applies
/// that once, so the cost of a rollback is one copy and one edit pass
/// plus the changes listed on the way, which grow with how far in the
/// past it reaches — the natural trade-off when most queries are
/// about the present (the same trade-off made by, e.g., RCS and by Reed's
/// versioned objects). A [`CheckpointPolicy`] and the explicit
/// [`RollbackStore::compact`] pass bound that replay length by pinning
/// full states at interval version indices.
#[derive(Debug, Default)]
pub struct ReverseDeltaStore {
    /// Reverse deltas: `undo[i]` carries version `i+1` to version `i`.
    undo: Vec<StateDelta>,
    /// Transaction numbers of every version, ascending.
    txs: Vec<TransactionNumber>,
    /// The materialized current state.
    current: Option<StateValue>,
    /// Materialized checkpoints keyed by version index: replay seeds
    /// closer to old targets than the current state. Installed at append
    /// time under [`CheckpointPolicy::EveryK`] and retroactively by
    /// [`RollbackStore::compact`].
    ckpts: BTreeMap<usize, StateValue>,
    /// When to checkpoint at append time. `Never` keeps the pure
    /// reverse-delta representation: one current state, deltas all the
    /// way back.
    policy: Option<CheckpointPolicy>,
    /// Lifetime compaction counters.
    compaction: CompactionStats,
    /// Shared materialization cache and this relation's id within it.
    cache: Option<(Arc<MaterializationCache>, u64)>,
    /// Per-relation string pool: every appended state is interned, so
    /// replay compares strings by pointer and never re-hashes them.
    interner: StrInterner,
}

impl ReverseDeltaStore {
    /// An empty store without append-time checkpoints.
    pub fn new() -> ReverseDeltaStore {
        ReverseDeltaStore::default()
    }

    /// An empty store with the given checkpoint policy, wired to a shared
    /// materialization cache under the given relation id.
    pub fn with_cache(
        policy: CheckpointPolicy,
        cache: Option<(Arc<MaterializationCache>, u64)>,
    ) -> ReverseDeltaStore {
        ReverseDeltaStore {
            policy: Some(policy),
            cache,
            ..ReverseDeltaStore::default()
        }
    }

    /// The index of the version current at `tx`, if there is one yet.
    fn floor(&self, tx: TransactionNumber) -> Option<usize> {
        self.txs.partition_point(|t| *t <= tx).checked_sub(1)
    }

    /// The nearest materialized version strictly above `target`: the
    /// closest checkpoint if one exists, else the current state (version
    /// `undo.len()`).
    fn seed_above(&self, target: usize) -> (usize, &StateValue) {
        match self.ckpts.range(target + 1..).next() {
            Some((&j, s)) => (j, s),
            None => (
                self.undo.len(),
                self.current
                    .as_ref()
                    .expect("non-empty store has a current"),
            ),
        }
    }

    /// The undo entries carrying version `from` back to version `to`,
    /// in the order they apply (newest first).
    fn undos(&self, from: usize, to: usize) -> Vec<&StateDelta> {
        self.undo[to..from].iter().rev().collect()
    }

    /// Version `to` from the later version `from`: the undo entries in
    /// between composed into their net delta, applied once.
    fn replay(&self, from: usize, seed: &StateValue, to: usize) -> StateValue {
        match StateDelta::compose(&self.undos(from, to)) {
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

    /// The scheme of snapshot version `index`, read off the nearest
    /// state at or above it: a checkpoint, the current state, or the
    /// version an undo entry restores in full across a boundary. `None`
    /// for an historical version.
    fn snapshot_schema_at(&self, index: usize) -> Option<&Schema> {
        let state = (index..=self.undo.len()).find_map(|i| {
            if let Some(s) = self.ckpts.get(&i) {
                return Some(s);
            }
            match self.undo.get(i) {
                Some(StateDelta::Reschema(s)) => Some(&**s),
                Some(_) => None,
                None => self.current.as_ref(),
            }
        })?;
        match state {
            StateValue::Snapshot(s) => Some(s.schema()),
            StateValue::Historical(_) => None,
        }
    }
}

impl ReverseDeltaStore {
    /// Writes one version, the only routine that does: `undo` carries
    /// `state` back to the version it supersedes (`None` for the first).
    fn push(&mut self, undo: Option<StateDelta>, state: StateValue, tx: TransactionNumber) {
        debug_assert!(self.txs.last().is_none_or(|t| *t < tx));
        self.undo.extend(undo);
        // Opportunistic checkpoint at the policy's interval: an O(1)
        // clone of the state being installed, pinned as a future replay
        // seed. (`Never` pins nothing — index 0 is the *base* for the
        // forward store, but here it would defeat the representation.)
        if let Some(CheckpointPolicy::EveryK(k)) = self.policy {
            let idx = self.txs.len();
            if idx.is_multiple_of(k.get()) {
                self.ckpts.insert(idx, state.clone());
            }
        }
        self.txs.push(tx);
        self.current = Some(state);
    }
}

impl RollbackStore for ReverseDeltaStore {
    fn append(&mut self, state: &StateValue, tx: TransactionNumber) {
        // Intern once at the door (see ForwardDeltaStore::append).
        let state = intern_state(state, &mut self.interner);
        let undo = self
            .current
            .as_ref()
            .map(|prev| StateDelta::between(&state, prev));
        self.push(undo, state, tx);
    }

    /// The undo entry is the delta's mirror image, read off the state it
    /// is about to edit; only the arriving tuples go through the pool.
    fn append_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        let delta = delta.interned(&mut self.interner);
        let mut state = self
            .current
            .take()
            .expect("a delta applies to a current state");
        let undo = delta.mirror(&state);
        delta.apply_in_place(&mut state);
        self.push(Some(undo), state, tx);
    }

    /// The newest undo entry carries the current state back to the
    /// previous one; its mirror image is the wanted delta, at the cost
    /// of the changes rather than of a second diff.
    fn last_delta(&self) -> Option<StateDelta> {
        Some(self.undo.last()?.mirror(self.current.as_ref()?))
    }

    fn state_at(&self, tx: TransactionNumber) -> Option<StateValue> {
        let target = self.floor(tx)?;
        let target_tx = self.txs[target];
        if let Some((cache, rel)) = &self.cache {
            // Counted probe: the caller wanted exactly this version.
            if let Some(state) = cache.get(*rel, target_tx.0) {
                return Some(state);
            }
        }
        // An exact checkpoint answers without any replay.
        if let Some(s) = self.ckpts.get(&target) {
            return Some(s.clone());
        }
        // Replay from the nearest checkpoint above the target, or from
        // the materialized current state.
        let (from, seed) = self.seed_above(target);
        let state = self.replay(from, seed, target);
        self.note_replayed(from - target);
        if let Some((cache, rel)) = &self.cache {
            if from > target {
                // The current state is O(1) to fetch; only replayed
                // versions are worth remembering.
                cache.insert(*rel, target_tx.0, state.clone());
            }
        }
        Some(state)
    }

    /// Batched FINDSTATE: the distinct uncached floor versions are
    /// reconstructed in descending order, each from the nearer of its
    /// seed and the version reconstructed just before it, so no undo
    /// entry is composed twice per batch — instead of one walk per probe
    /// ([`crate::Engine::resolve_many`] is the caller).
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
                if let Some(s) = cache.get(*rel, self.txs[floor].0) {
                    resolved.insert(floor, s);
                    continue;
                }
            }
            if let Some(s) = self.ckpts.get(&floor) {
                resolved.insert(floor, s.clone());
                continue;
            }
            missing.insert(floor);
        }
        let mut last: Option<(usize, StateValue)> = None;
        for want in missing.into_iter().rev() {
            if want == self.undo.len() {
                // The current version: no replay, nothing worth caching.
                let current = self.current.clone().expect("non-empty store has a current");
                resolved.insert(want, current);
                continue;
            }
            let (above, seed) = self.seed_above(want);
            let (from, seed) = match &last {
                Some((at, state)) if *at <= above => (*at, state),
                _ => (above, seed),
            };
            let state = self.replay(from, seed, want);
            self.note_replayed(from - want);
            if let Some((cache, rel)) = &self.cache {
                cache.insert(*rel, self.txs[want].0, state.clone());
            }
            resolved.insert(want, state.clone());
            last = Some((want, state));
        }
        floors
            .iter()
            .map(|f| f.map(|i| resolved[&i].clone()))
            .collect()
    }

    /// `state_at(minuend) − state_at(subtrahend)` read off the chain:
    /// the net delta of the undo entries between the two versions
    /// carries the later one back to the earlier, so what it removes is
    /// what the later version gained and what it adds is what it lost.
    fn version_difference(
        &self,
        minuend: TransactionNumber,
        subtrahend: TransactionNumber,
    ) -> Option<StateValue> {
        let (left, right) = (self.floor(minuend)?, self.floor(subtrahend)?);
        let (lo, hi) = (left.min(right), left.max(right));
        let chain = self.undos(hi, lo);
        let schema = self.snapshot_schema_at(hi)?;
        let answer = StateDelta::difference_across(&chain, left == lo, schema)?;
        self.note_replayed(chain.len());
        Some(answer)
    }

    fn current(&self) -> Option<StateValue> {
        self.current.clone()
    }

    fn interner_stats(&self) -> Option<InternerStats> {
        Some(InternerStats {
            strings: self.interner.len(),
            bytes: self.interner.size_bytes(),
        })
    }

    fn version_count(&self) -> usize {
        self.txs.len()
    }

    fn first_tx(&self) -> Option<TransactionNumber> {
        self.txs.first().copied()
    }

    fn last_tx(&self) -> Option<TransactionNumber> {
        self.txs.last().copied()
    }

    fn space_bytes(&self) -> usize {
        // The interner pool is real resident memory owned by this store;
        // count it alongside the deltas it deduplicates.
        self.current.as_ref().map_or(0, StateValue::size_bytes)
            + self.undo.iter().map(StateDelta::size_bytes).sum::<usize>()
            + self
                .ckpts
                .values()
                .map(StateValue::size_bytes)
                .sum::<usize>()
            + self.txs.len() * 8
            + self.interner.size_bytes()
    }

    fn compact(&mut self, every: NonZeroUsize) -> CompactionStats {
        // Pin a checkpoint at every `every`-th version index, so no later
        // probe composes more than `every` deltas. Each missing slot is
        // replayed from the seed just above it, which (going down) is
        // the slot this pass pinned a moment ago.
        let mut pass = CompactionStats::default();
        for i in (0..self.undo.len())
            .rev()
            .filter(|i| i.is_multiple_of(every.get()))
        {
            if self.ckpts.contains_key(&i) {
                continue;
            }
            let (from, seed) = self.seed_above(i);
            let state = self.replay(from, seed, i);
            pass.runs = 1;
            pass.deltas_folded += (from - i) as u64;
            pass.tuples_folded += state.len() as u64;
            self.ckpts.insert(i, state);
        }
        self.compaction = self.compaction.merged(pass);
        pass
    }

    fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    fn version_txs(&self) -> Vec<TransactionNumber> {
        self.txs.clone()
    }

    fn truncate_before(&mut self, tx: TransactionNumber) -> usize {
        match self.floor(tx) {
            Some(floor) if floor > 0 => {
                // undo[i] carries version i+1 back to version i; dropping
                // versions < floor means dropping undo[0..floor] and
                // re-indexing the surviving checkpoints by −floor.
                self.undo.drain(..floor);
                self.txs.drain(..floor);
                self.ckpts = self
                    .ckpts
                    .split_off(&floor)
                    .into_iter()
                    .map(|(i, s)| (i - floor, s))
                    .collect();
                floor
            }
            _ => 0,
        }
    }

    fn kind(&self) -> BackendKind {
        BackendKind::ReverseDelta
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
    fn findstate_contract() {
        let mut s = ReverseDeltaStore::new();
        s.append(&snap(&[1]), TransactionNumber(1));
        s.append(&snap(&[1, 2]), TransactionNumber(3));
        s.append(&snap(&[2]), TransactionNumber(4));
        assert_eq!(s.state_at(TransactionNumber(0)), None);
        assert_eq!(s.state_at(TransactionNumber(1)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(2)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(3)), Some(snap(&[1, 2])));
        assert_eq!(s.state_at(TransactionNumber(9)), Some(snap(&[2])));
        assert_eq!(s.current(), Some(snap(&[2])));
        assert_eq!(s.version_count(), 3);
    }

    #[test]
    fn last_delta_mirrors_the_newest_undo_entry() {
        let mut s = ReverseDeltaStore::with_cache(CheckpointPolicy::every_k(2).unwrap(), None);
        assert_eq!(s.last_delta(), None);
        let mut prev = None;
        for v in 1..=6u64 {
            let state = snap(&[v as i64, v as i64 + 1]);
            s.append(&state, TransactionNumber(v));
            let want = prev.as_ref().map(|p| StateDelta::between(p, &state));
            assert_eq!(s.last_delta(), want, "version {v}");
            prev = Some(state);
        }
    }

    #[test]
    fn append_delta_mirrors_into_the_undo_entry_append_would_diff() {
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(3).unwrap(),
        ] {
            crate::backend::testing::assert_append_delta_is_append(
                || ReverseDeltaStore::with_cache(policy, None),
                |plain, delta, at| {
                    assert_eq!(plain.undo, delta.undo, "{at}");
                    assert_eq!(plain.ckpts, delta.ckpts, "{at}");
                    assert_eq!(plain.current, delta.current, "{at}");
                },
            );
        }
    }

    #[test]
    fn compact_pins_checkpoints_and_preserves_answers() {
        let mut s = ReverseDeltaStore::new();
        for v in 1..=100u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        let before: Vec<_> = (0..=101)
            .map(|v| s.state_at(TransactionNumber(v)))
            .collect();
        let pass = s.compact(NonZeroUsize::new(8).unwrap());
        assert_eq!(pass.runs, 1);
        assert!(pass.deltas_folded > 0);
        assert!(pass.tuples_folded > 0);
        let after: Vec<_> = (0..=101)
            .map(|v| s.state_at(TransactionNumber(v)))
            .collect();
        assert_eq!(before, after);
        // A second pass at the same interval finds nothing to fold.
        assert_eq!(s.compact(NonZeroUsize::new(8).unwrap()).runs, 0);
        assert_eq!(s.compaction_stats().runs, 1);
        // Batched probes agree too.
        let txs: Vec<TransactionNumber> = (0..=101).map(TransactionNumber).collect();
        assert_eq!(s.state_at_many(&txs), before);
    }

    #[test]
    fn append_time_checkpoints_match_never_policy_answers() {
        let mut every = ReverseDeltaStore::with_cache(CheckpointPolicy::every_k(4).unwrap(), None);
        let mut never = ReverseDeltaStore::new();
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
    fn truncate_reindexes_checkpoints() {
        let mut s = ReverseDeltaStore::with_cache(CheckpointPolicy::every_k(4).unwrap(), None);
        for v in 1..=20u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        assert!(s.truncate_before(TransactionNumber(10)) > 0);
        for v in 10..=20u64 {
            assert_eq!(s.state_at(TransactionNumber(v)), Some(snap(&[v as i64])));
        }
    }

    #[test]
    fn current_access_needs_no_replay() {
        let mut s = ReverseDeltaStore::new();
        for v in 1..=50u64 {
            s.append(&snap(&[v as i64]), TransactionNumber(v));
        }
        // The current state is materialized — identical regardless of
        // history depth.
        assert_eq!(s.current(), Some(snap(&[50])));
        assert_eq!(s.state_at(TransactionNumber(50)), Some(snap(&[50])));
        // And the very first version is still reachable.
        assert_eq!(s.state_at(TransactionNumber(1)), Some(snap(&[1])));
    }
}
