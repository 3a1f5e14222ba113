//! The store: one chain of versions joined by forward deltas, with full
//! states at checkpoints.

use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::sync::Arc;

use txtime_core::{EvalError, RollbackFilter, StateValue, TransactionNumber};
use txtime_snapshot::{Predicate, Schema, SnapshotState, StrInterner, Tuple};

use crate::backend::CheckpointPolicy;
use crate::cache::{CachedVersion, MaterializationCache};
use crate::delta::{intern_state, StateDelta};
use crate::metrics::{CompactionStats, InternerStats};

/// A version the store holds or the cache remembers: whole, or as its
/// checkpoint and the net delta that carries it there.
enum Known<'a> {
    Whole(StateValue),
    Replay(&'a StateValue, Arc<StateDelta>),
}

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
/// wherever [`DeltaStore::compact`] pins one.
///
/// The contract, checked against the reference semantics by the
/// differential tests in [`crate::equiv`], is FINDSTATE's:
/// `state_at(tx)` returns the state of the version with the largest
/// transaction number ≤ `tx`, or `None` before the first version.
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

    /// The checkpoint committed at `tx`, if the chain still holds it.
    fn checkpoint(&self, tx: TransactionNumber) -> Option<&StateValue> {
        let entry = &self.entries[self.floor(tx)?];
        (entry.tx == tx).then_some(entry.state.as_ref()).flatten()
    }

    /// Version `index` as the store holds it or the cache remembers it:
    /// whole, or as a checkpoint and the net delta from there. A cache
    /// probe is counted, since the caller wanted exactly that version.
    fn known(&self, index: usize) -> Option<Known<'_>> {
        if let Some(state) = self.held(index) {
            return Some(Known::Whole(state.clone()));
        }
        let (cache, rel) = self.cache.as_ref()?;
        match cache.get(*rel, self.entries[index].tx.0)? {
            CachedVersion::Whole(state) => Some(Known::Whole(state)),
            // The cache drops a relation's entries when its chain is
            // truncated, so the checkpoint is there; should it not be,
            // the caller composes afresh.
            CachedVersion::Replay { seed, net } => Some(Known::Replay(self.checkpoint(seed)?, net)),
        }
    }

    /// Remembers `version` as version `index` in the cache. Only
    /// versions the store does not hold go there: one held in full is
    /// O(1) to fetch already.
    fn remember(&self, index: usize, version: CachedVersion) {
        if let Some((cache, rel)) = &self.cache {
            cache.insert(*rel, self.entries[index].tx.0, version);
        }
    }

    /// Known version `index` whole: a cached replay is applied to its
    /// checkpoint, and the version remembered whole in its place.
    fn whole(&self, index: usize, known: Known<'_>) -> StateValue {
        match known {
            Known::Whole(state) => state,
            Known::Replay(seed, net) => {
                let state = net.apply(seed);
                self.remember(index, CachedVersion::Whole(state.clone()));
                state
            }
        }
    }

    /// Version `index`: as held, from the cache, or replayed from its
    /// seed. A version the store does not hold is remembered whole.
    fn reconstruct(&self, index: usize) -> StateValue {
        if let Some(known) = self.known(index) {
            return self.whole(index, known);
        }
        let (from, seed) = self.seed(index);
        self.note_replayed(index - from);
        let state = self.replay(from, seed, index);
        self.remember(index, CachedVersion::Whole(state.clone()));
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

    /// Installs a new current state committed at `tx`. Transaction
    /// numbers must be presented in strictly increasing order.
    pub fn append(&mut self, state: &StateValue, tx: TransactionNumber) {
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

    /// Installs the state `delta` carries the current one to, committed
    /// at `tx`: what `append(&delta.apply(&current), tx)` leaves behind,
    /// version for version and byte for byte, at the cost of the listed
    /// tuples. The engine calls this when the command itself said which
    /// rows change (the delta path of `Engine::apply`), so the store does
    /// not diff two states to find them again.
    ///
    /// `delta` is normalised against the current state, as
    /// [`StateDelta::between`] would list it (removals within the state,
    /// arrivals outside it or revalued, both ascending), and is never a
    /// `Reschema`: a scheme or kind boundary arrives as a state, through
    /// [`DeltaStore::append`]. Panics on an empty store, which has no
    /// state for a delta to apply to.
    ///
    /// The link is the delta as it stands; only its arriving tuples go
    /// through the pool, and `current` is edited in place (copied first
    /// if a reader or a checkpoint still shares its run).
    pub fn append_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        let delta = delta.interned(&mut self.interner);
        let mut state = self
            .current
            .take()
            .expect("a delta applies to a current state");
        delta.apply_in_place(&mut state);
        self.push(Some(delta), state, tx);
    }

    /// The [`StateDelta`] that carried the previous version to the
    /// current one: the newest link, so the cost of the changes, never of
    /// the relation. Plain commits (a right-hand side the delta path
    /// declines) are the only caller: `append` diffed for the chain
    /// already, so the view memo logs that delta per commit
    /// ([`crate::ViewRegistry::queue_modify`]) instead of diffing the
    /// relation a second time on the first read, and asks only when a
    /// cached view reads the relation. `None` for the first version (and
    /// a truncation's new first): the memo then diffs the two states on
    /// first demand.
    pub fn last_delta(&self) -> Option<StateDelta> {
        self.entries.last()?.link.clone()
    }

    /// Size of the per-relation string pool every appended state is
    /// interned into.
    pub fn interner_stats(&self) -> InternerStats {
        InternerStats {
            strings: self.interner.len(),
            bytes: self.interner.size_bytes(),
        }
    }

    /// FINDSTATE: the state current at `tx`.
    pub fn state_at(&self, tx: TransactionNumber) -> Option<StateValue> {
        self.floor(tx).map(|i| self.reconstruct(i))
    }

    /// FINDSTATE for a batch of probes, answered together: `result[i]`
    /// is exactly `state_at(txs[i])` ([`crate::Engine::resolve_many`] is
    /// the caller).
    ///
    /// The distinct floor versions neither held nor cached are replayed
    /// oldest first, each from the nearer of its seed and the version
    /// replayed just before it, so no link is composed twice per batch;
    /// a cached replay is applied to its checkpoint. Every wanted
    /// version the store does not hold is remembered whole.
    pub fn state_at_many(&self, txs: &[TransactionNumber]) -> Vec<Option<StateValue>> {
        let floors: Vec<Option<usize>> = txs.iter().map(|tx| self.floor(*tx)).collect();
        let mut resolved: BTreeMap<usize, StateValue> = BTreeMap::new();
        let mut missing: BTreeSet<usize> = BTreeSet::new();
        for &floor in floors.iter().flatten() {
            if resolved.contains_key(&floor) || missing.contains(&floor) {
                continue;
            }
            match self.known(floor) {
                Some(known) => {
                    resolved.insert(floor, self.whole(floor, known));
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
            self.note_replayed(want - from);
            self.remember(want, CachedVersion::Whole(state.clone()));
            resolved.insert(want, state.clone());
            last = Some((want, state));
        }
        floors
            .iter()
            .map(|f| f.map(|i| resolved[&i].clone()))
            .collect()
    }

    /// FINDSTATE with a selection/projection pushed into it, the storage
    /// side of `σ_F(ρ(I, N))` and friends: observably
    /// `filter.apply(state_at(tx))`, errors included, and `Ok(None)`
    /// where there is no version at `tx`.
    ///
    /// The selection is evaluated *before* the replay: the
    /// seed is cut to the rows the predicate accepts (a binary search
    /// when it compares the leading attributes with constants), the
    /// segment's net delta is cut to the arrivals it accepts, and the
    /// one is applied to the other, so the full version is never
    /// materialized (experiment E10). The composed replay (the seed's
    /// position and the net delta) is remembered in the cache, so the
    /// next read of the version, filtered or whole, composes nothing;
    /// a version the cache holds whole is filtered as it stands. A
    /// snapshot read with a projection as well (`π_X(σ_F(ρ(I, n)))`)
    /// builds only the accepted rows' projections, reading the seed's
    /// rows where they lie; an historical one selects, then projects.
    ///
    /// This is sound because a link identifies changes by tuple value and a tuple's predicate verdict is fixed:
    /// filtering the arriving entries and applying removals to the
    /// reduced state commutes with σ over the fully replayed version. A
    /// scheme (or kind) boundary inside the segment makes its net delta
    /// a `Reschema`, which carries the version in full.
    pub fn state_at_filtered(
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
        let (seed, net) = match self.known(target) {
            Some(Known::Whole(state)) => {
                return match (&state, filter.project) {
                    (StateValue::Snapshot(s), Some(attrs)) if !historical => {
                        select_project(s, predicate, attrs, &[], &[])
                    }
                    _ => filter.apply(state, historical),
                }
                .map(Some);
            }
            Some(Known::Replay(seed, net)) => (seed, net),
            None => {
                // A filtered state is not the version, so the cache
                // keeps what it is made from: the seed's position and
                // the net delta.
                let (from, seed) = self.seed(target);
                let chain = self.path(from, target);
                self.note_replayed(chain.len());
                let net = Arc::new(
                    StateDelta::compose(&chain).expect("a version not held has links to its seed"),
                );
                let seed_tx = self.entries[from].tx;
                let replay = CachedVersion::Replay {
                    seed: seed_tx,
                    net: Arc::clone(&net),
                };
                self.remember(target, replay);
                (seed, net)
            }
        };
        // The plain path's σ/σ̂ error wrapping: σ surfaces a
        // SnapshotError, σ̂ an HistoricalError. Only the accepted
        // arrivals are copied out of the (shared) net delta.
        let filtered = match (seed, &*net) {
            (StateValue::Snapshot(s), StateDelta::Snapshot { added, removed }) if !historical => {
                if let Some(attrs) = filter.project {
                    return select_project(s, predicate, attrs, removed, added).map(Some);
                }
                let compiled = predicate.compile(s.schema()).map_err(EvalError::Snapshot)?;
                let mut kept = s.select_compiled(&compiled);
                let added: Vec<_> = added.iter().filter(|t| compiled.eval(t)).cloned().collect();
                kept.apply_delta(removed, &added)
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
                    .iter()
                    .filter(|(t, _)| compiled.eval(t))
                    .cloned()
                    .collect();
                kept.apply_delta(removed, &upserted)
                    .expect("stored entries fit the stored schema");
                StateValue::Historical(kept)
            }
            // A version past a boundary, held in full, or one of the
            // other kind than the query's: the shared filter code
            // selects, or words the mismatch.
            (_, StateDelta::Reschema(s)) => {
                return filter.apply((**s).clone(), historical).map(Some)
            }
            (seed, net) => return filter.apply(net.apply(seed), historical).map(Some),
        };
        let remaining = RollbackFilter {
            predicate: None,
            project: filter.project,
        };
        remaining.apply(filtered, historical).map(Some)
    }

    /// `state_at(minuend) − state_at(subtrahend)` read off the chain
    /// without building either version: the storage side of
    /// `ρ(I, n₂) − ρ(I, n₁)`, the "what changed between two times" query.
    /// The net delta of the links between the two versions carries one
    /// to the other, so what it adds is what the version it arrives at
    /// gained and what it removes is what that version lost; the
    /// difference is the one or the other.
    ///
    /// `None` declines, and the caller resolves both versions and
    /// subtracts them, which decides every value and every error. The
    /// store declines what the net delta cannot decide: a probe before
    /// the first version, a scheme or kind boundary in the span, and
    /// historical versions, whose deltas list a revalued tuple's new
    /// valid time but not the old one `−̂` subtracts.
    pub fn version_difference(
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

    /// The most recent state, if any.
    pub fn current(&self) -> Option<StateValue> {
        self.current.clone()
    }

    /// Number of versions stored.
    pub fn version_count(&self) -> usize {
        self.entries.len()
    }

    /// The transaction number of the first version, if any.
    pub fn first_tx(&self) -> Option<TransactionNumber> {
        self.entries.first().map(|e| e.tx)
    }

    /// The transaction number of the most recent version, if any.
    pub fn last_tx(&self) -> Option<TransactionNumber> {
        self.entries.last().map(|e| e.tx)
    }

    /// Approximate logical footprint in bytes (experiment E3).
    pub fn space_bytes(&self) -> usize {
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

    /// The commit transaction numbers of every stored version, ascending.
    pub fn version_txs(&self) -> Vec<TransactionNumber> {
        self.entries.iter().map(|e| e.tx).collect()
    }

    /// Folds the chain into materialized checkpoints so no rollback probe
    /// replays more than `every` links: the compaction pass bounding
    /// worst-case `state_at` latency.
    pub fn compact(&mut self, every: NonZeroUsize) -> CompactionStats {
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

    /// Compaction counters accumulated over the store's lifetime.
    pub fn compaction_stats(&self) -> CompactionStats {
        self.compaction
    }

    /// Visits every version strictly older than the one current at `tx`
    /// (the versions [`DeltaStore::truncate_before`] drops), oldest
    /// first, and returns how many it visited. Each is the checkpoint
    /// the chain holds or the version before it with its link applied,
    /// so the walk composes no segment twice and neither reads nor fills
    /// the state cache.
    pub fn for_each_version_before<E>(
        &self,
        tx: TransactionNumber,
        mut visit: impl FnMut(&StateValue, TransactionNumber) -> Result<(), E>,
    ) -> Result<usize, E> {
        let end = self.floor(tx).unwrap_or(0);
        let mut previous: Option<StateValue> = None;
        for entry in &self.entries[..end] {
            let version = match &entry.state {
                Some(held) => held.clone(),
                None => {
                    let mut state = previous.take().expect("a chain holds its first version");
                    entry
                        .link
                        .as_ref()
                        .expect("versions after the first are linked")
                        .apply_in_place(&mut state);
                    state
                }
            };
            visit(&version, entry.tx)?;
            previous = Some(version);
        }
        Ok(end)
    }

    /// Discards every version strictly older than the version current at
    /// `tx` (the floor version itself is retained, so `state_at(tx)` is
    /// unchanged at and after the floor). Returns the number of versions
    /// dropped; a `tx` before the first version is a no-op.
    pub fn truncate_before(&mut self, tx: TransactionNumber) -> usize {
        match self.floor(tx) {
            Some(floor) if floor > 0 => {
                // The floor version becomes the first: it loses its link
                // (its predecessor is gone), and the chain needs it in
                // full. It is replayed past the cache, whose entries for
                // this relation go below.
                if self.entries[floor].state.is_none() {
                    let (from, seed) = self.seed(floor);
                    self.entries[floor].state = Some(self.replay(from, seed, floor));
                }
                self.entries.drain(..floor);
                self.entries[0].link = None;
                // A cached replay may start from a dropped checkpoint.
                if let Some((cache, rel)) = &self.cache {
                    cache.purge_relation(*rel);
                }
                // Chain positions shifted: the next pass rescans.
                self.compacted = None;
                floor
            }
            _ => 0,
        }
    }
}

/// `π_X(σ_F((seed − removed) ∪ added))` in one pass that clones no
/// stored tuple ([`SnapshotState::select_project_delta`]); errors as σ
/// then π word them.
fn select_project(
    seed: &SnapshotState,
    predicate: &Predicate,
    attrs: &[String],
    removed: &[Tuple],
    added: &[Tuple],
) -> Result<StateValue, EvalError> {
    let compiled = predicate.compile(seed.schema())?;
    let state = seed.select_project_delta(&compiled, attrs, removed, added)?;
    Ok(StateValue::Snapshot(state))
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

    /// No checkpoints, every version whole, and an interval between.
    fn policies() -> [CheckpointPolicy; 3] {
        [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(1).unwrap(),
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

    /// `append_delta` is apply-then-append: fed one script through each,
    /// two stores hold the same chain entries, the same answers and the
    /// same accounting after every version.
    #[test]
    fn append_delta_is_apply_then_append() {
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(1).unwrap(),
            CheckpointPolicy::every_k(3).unwrap(),
        ] {
            for script in scripts() {
                let (mut plain, mut delta) = (store(policy), store(policy));
                for (i, state) in script.iter().enumerate() {
                    let tx = TransactionNumber(2 * i as u64 + 1);
                    match i.checked_sub(1) {
                        Some(prev) => {
                            let change = StateDelta::between(&script[prev], state);
                            plain.append(&change.apply(&plain.current().unwrap()), tx);
                            delta.append_delta(&change, tx);
                        }
                        None => {
                            plain.append(state, tx);
                            delta.append(state, tx);
                        }
                    }
                    let at = format!("{policy:?} version {i}");
                    assert_eq!(delta.current().as_ref(), Some(state), "{at}");
                    assert_eq!(plain.entries, delta.entries, "{at}");
                    assert_eq!(plain.current, delta.current, "{at}");
                    assert_eq!(plain.space_bytes(), delta.space_bytes(), "{at}");
                    assert_eq!(plain.interner_stats(), delta.interner_stats(), "{at}");
                    for probe in 0..=tx.0 + 1 {
                        let probe = TransactionNumber(probe);
                        assert_eq!(plain.state_at(probe), delta.state_at(probe), "{at}");
                    }
                }
            }
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

    /// A filtered read caches the replay it composes; a whole read of
    /// the same version applies that replay without composing the chain
    /// again and keeps the version whole, which the next whole read
    /// finds.
    #[test]
    fn a_filtered_replay_is_cached_and_a_whole_read_keeps_the_version() {
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
        let at = TransactionNumber(15);
        let filtered = s.state_at_filtered(at, false, &filter).unwrap();
        assert_eq!(filtered, Some(snap(&[25])));
        let stats = cache.stats();
        // Fourteen links from the first version, composed once.
        assert_eq!(
            (stats.replayed_deltas, stats.misses, stats.insertions),
            (14, 1, 1)
        );
        assert_eq!(s.state_at_filtered(at, false, &filter).unwrap(), filtered);
        assert_eq!(s.state_at(at), Some(snap(&[15, 25])));
        let stats = cache.stats();
        assert_eq!(
            (stats.replayed_deltas, stats.hits, stats.insertions),
            (14, 2, 2)
        );
        // The second whole read is a whole-version hit.
        assert_eq!(s.state_at(at), Some(snap(&[15, 25])));
        let stats = cache.stats();
        assert_eq!(
            (stats.replayed_deltas, stats.hits, stats.insertions),
            (14, 3, 2)
        );
        assert_eq!(
            cache.get(0, 15),
            Some(CachedVersion::Whole(snap(&[15, 25])))
        );
        assert_eq!(s.state_at_filtered(at, false, &filter).unwrap(), filtered);
        assert_eq!(cache.stats().replayed_deltas, 14);
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
    fn delta_storage_is_smaller_than_every_version_whole_for_low_churn() {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        let base: Vec<Vec<Value>> = (0..200).map(|i| vec![Value::Int(i)]).collect();
        let mut delta = store(CheckpointPolicy::Never);
        let mut whole = store(CheckpointPolicy::every_k(1).unwrap());
        for v in 0..20 {
            let mut rows = base.clone();
            rows[v as usize] = vec![Value::Int(1000 + v)];
            let s = StateValue::Snapshot(SnapshotState::from_rows(schema.clone(), rows).unwrap());
            delta.append(&s, TransactionNumber(v as u64 + 1));
            whole.append(&s, TransactionNumber(v as u64 + 1));
        }
        assert!(delta.space_bytes() < whole.space_bytes() / 4);
    }

    /// Checkpointing every version holds each one whole: no probe
    /// replays a link, and space grows by a full state per version.
    #[test]
    fn every_1_holds_every_version_and_replays_nothing() {
        let cache = MaterializationCache::shared();
        let empty = DeltaStore::new(CheckpointPolicy::every_k(1).unwrap(), None);
        assert_eq!((empty.version_count(), empty.current()), (0, None));
        let mut s = DeltaStore::new(
            CheckpointPolicy::every_k(1).unwrap(),
            Some((cache.clone(), 0)),
        );
        for v in 1..=30u64 {
            s.append(&snap(&[v as i64, 100 + v as i64]), TransactionNumber(v));
        }
        assert!(s.entries.iter().all(|e| e.state.is_some()));
        let one = snap(&[1, 101]).size_bytes();
        assert!(s.space_bytes() >= 30 * one, "{} bytes", s.space_bytes());
        let txs: Vec<TransactionNumber> = (0..=31).map(TransactionNumber).collect();
        let want: Vec<_> = txs
            .iter()
            .map(|&t| (t.0 > 0).then(|| snap(&[t.0.min(30) as i64, 100 + t.0.min(30) as i64])))
            .collect();
        let one_at_a_time: Vec<_> = txs.iter().map(|&t| s.state_at(t)).collect();
        assert_eq!(one_at_a_time, want);
        assert_eq!(s.state_at_many(&txs), want);
        assert_eq!(cache.stats().replayed_deltas, 0);
        assert_eq!(cache.stats().insertions, 0);
    }

    /// Under `every_k(1)` each version is held whole, so space grows with
    /// the version count even when the state does not change.
    #[test]
    fn space_grows_linearly_with_versions() {
        let mut s = store(CheckpointPolicy::every_k(1).unwrap());
        let state = snap(&[1, 2, 3]);
        let sizes: Vec<usize> = (1..=3)
            .map(|t| {
                s.append(&state, TransactionNumber(t));
                s.space_bytes()
            })
            .collect();
        let step = sizes[1] - sizes[0];
        assert_eq!(sizes[2] - sizes[1], step, "{sizes:?}");
        assert!(step >= state.size_bytes(), "{sizes:?}");
    }

    /// FINDSTATE read off a script whose version `i` commits at `2i + 1`:
    /// the state committed at the greatest transaction ≤ `tx`.
    fn findstate(script: &[StateValue], tx: TransactionNumber) -> Option<StateValue> {
        let committed = (tx.0 as usize).div_ceil(2);
        committed
            .checked_sub(1)
            .map(|i| script[i.min(script.len() - 1)].clone())
    }

    /// A store under `policy` holding `script`, version `i` at `2i + 1`.
    fn holding(script: &[StateValue], policy: CheckpointPolicy) -> DeltaStore {
        let mut s = store(policy);
        for (i, state) in script.iter().enumerate() {
            s.append(state, TransactionNumber(2 * i as u64 + 1));
        }
        s
    }

    /// Every transaction number from before the first commit to past the
    /// last.
    fn probes(script: &[StateValue]) -> Vec<TransactionNumber> {
        (0..=2 * script.len() as u64 + 1)
            .map(TransactionNumber)
            .collect()
    }

    /// Every policy answers every probe, one at a time and batched in any
    /// order, with the state the script committed last at or before it.
    #[test]
    fn every_policy_answers_findstate_on_every_probe() {
        for script in scripts() {
            let txs = probes(&script);
            let want: Vec<_> = txs.iter().map(|&tx| findstate(&script, tx)).collect();
            let committed: Vec<_> = (0..script.len() as u64)
                .map(|i| TransactionNumber(2 * i + 1))
                .collect();
            for policy in policies() {
                let s = holding(&script, policy);
                assert_eq!(s.version_txs(), committed, "{policy:?}");
                assert_eq!(s.first_tx(), committed.first().copied(), "{policy:?}");
                assert_eq!(s.last_tx(), committed.last().copied(), "{policy:?}");
                assert_eq!(s.current(), script.last().cloned(), "{policy:?}");
                for (&tx, w) in txs.iter().zip(&want) {
                    assert_eq!(&s.state_at(tx), w, "{policy:?} at {tx:?}");
                }
                let backwards: Vec<_> = txs.iter().rev().copied().collect();
                let mut batched = s.state_at_many(&backwards);
                batched.reverse();
                assert_eq!(batched, want, "{policy:?} batched");
            }
        }
    }

    /// A filter pushed into resolution answers what resolving and then
    /// filtering answers, under every policy, kind-mismatch errors
    /// included.
    #[test]
    fn filtered_resolution_is_resolve_then_filter() {
        let pred = txtime_snapshot::Predicate::gt_const("id", Value::Int(2));
        let project = ["name".to_string()];
        let filter = RollbackFilter {
            predicate: Some(&pred),
            project: Some(&project),
        };
        for script in scripts() {
            for policy in policies() {
                let s = holding(&script, policy);
                for historical in [false, true] {
                    let unpushed =
                        |v: Option<StateValue>| v.map(|v| filter.apply(v, historical)).transpose();
                    for tx in probes(&script) {
                        assert_eq!(
                            s.state_at_filtered(tx, historical, &filter),
                            unpushed(s.state_at(tx)),
                            "{policy:?} historical={historical} at {tx:?}"
                        );
                    }
                }
            }
        }
    }

    /// Compaction folds chains without changing an answer and reports
    /// its pass in the store's lifetime counters; truncation then drops
    /// the versions below the floor and keeps every later answer.
    #[test]
    fn compact_and_truncate_preserve_every_later_probe() {
        let chain = [scripts(), scripts(), scripts()].concat().concat();
        // Between two commits, well inside the chain: the floor version
        // is the one committed at `floor - 1`.
        let floor = TransactionNumber(chain.len() as u64);
        let kept = (chain.len() - 1) / 2;
        for policy in policies() {
            let mut s = holding(&chain, policy);
            let pass = s.compact(NonZeroUsize::new(3).unwrap());
            assert_eq!(s.compaction_stats(), pass, "{policy:?}");
            // Only a store that holds every version whole has nothing to
            // fold.
            let whole = policy == CheckpointPolicy::every_k(1).unwrap();
            assert_eq!(pass.runs > 0, !whole, "{policy:?}");
            assert_eq!(s.truncate_before(floor), kept, "{policy:?}");
            let committed: Vec<_> = (kept as u64..chain.len() as u64)
                .map(|i| TransactionNumber(2 * i + 1))
                .collect();
            assert_eq!(s.version_txs(), committed, "{policy:?}");
            for tx in probes(&chain) {
                let want = (tx >= committed[0])
                    .then(|| findstate(&chain, tx))
                    .flatten();
                assert_eq!(s.state_at(tx), want, "{policy:?} at {tx:?}");
            }
        }
    }

    fn schema() -> Schema {
        Schema::new(vec![("id", DomainType::Int), ("name", DomainType::Str)]).unwrap()
    }

    fn row(id: i64, name: &str) -> Tuple {
        Tuple::new(vec![Value::Int(id), Value::str(name)])
    }

    fn named(rows: &[(i64, &str)]) -> StateValue {
        let rows = rows.iter().map(|&(id, name)| row(id, name));
        StateValue::Snapshot(SnapshotState::new(schema(), rows).unwrap())
    }

    fn named_hist(rows: &[(i64, &str, u32, u32)]) -> StateValue {
        let rows = rows
            .iter()
            .map(|&(id, name, s, e)| (row(id, name), TemporalElement::period(s, e)));
        StateValue::Historical(HistoricalState::new(schema(), rows).unwrap())
    }

    /// Chains of same-shape versions, strings included so that interning
    /// shows: a version equal to the last, rows arriving (with a string
    /// the pool has not seen), leaving, replaced, revalued, all at once,
    /// everything leaving; long enough to cross checkpoint positions.
    fn scripts() -> Vec<Vec<StateValue>> {
        vec![
            vec![
                named(&[(1, "a"), (2, "b"), (3, "c")]),
                named(&[(1, "a"), (2, "b"), (3, "c")]),
                named(&[(1, "a"), (2, "b"), (3, "c"), (4, "d")]),
                named(&[(1, "a"), (3, "c"), (4, "d")]),
                named(&[(1, "z"), (3, "c"), (4, "d")]),
                named(&[(0, "y"), (3, "c"), (9, "a")]),
                named(&[]),
                named(&[(5, "e")]),
                named(&[(5, "e"), (6, "e")]),
            ],
            vec![
                named_hist(&[(1, "a", 0, 5), (2, "b", 0, 9)]),
                named_hist(&[(1, "a", 0, 7), (2, "b", 0, 9)]),
                named_hist(&[(1, "a", 0, 7), (2, "b", 0, 9)]),
                named_hist(&[(1, "a", 0, 7), (3, "c", 2, 4)]),
                named_hist(&[(1, "a", 3, 4), (3, "q", 2, 4), (4, "b", 1, 2)]),
                named_hist(&[]),
                named_hist(&[(7, "g", 0, 1)]),
            ],
        ]
    }
}
