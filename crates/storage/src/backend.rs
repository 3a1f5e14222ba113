//! The storage-backend abstraction.

use std::fmt;
use std::num::NonZeroUsize;
use std::sync::Arc;

use txtime_core::{EvalError, RollbackFilter, StateValue, TransactionNumber};

use crate::cache::MaterializationCache;
use crate::delta::StateDelta;
use crate::metrics::{CompactionStats, InternerStats};

/// The error from [`CheckpointPolicy::every_k`] for a zero interval.
///
/// Checkpointing "every 0 versions" has no coherent meaning; earlier
/// revisions silently clamped it to 1, which masked caller bugs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZeroCheckpointInterval;

impl fmt::Display for ZeroCheckpointInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("checkpoint interval must be at least 1 (use CheckpointPolicy::Never to disable checkpoints)")
    }
}

impl std::error::Error for ZeroCheckpointInterval {}

/// How often a delta-based store materializes a full checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never checkpoint at append time: deltas only, beside whatever
    /// full state the chain itself needs.
    Never,
    /// A full state every `k` versions. The payload is non-zero by
    /// construction; build it with [`CheckpointPolicy::every_k`].
    EveryK(NonZeroUsize),
}

impl CheckpointPolicy {
    /// A policy that checkpoints every `k` versions, rejecting `k = 0`
    /// instead of guessing what it meant.
    pub fn every_k(k: usize) -> Result<CheckpointPolicy, ZeroCheckpointInterval> {
        NonZeroUsize::new(k)
            .map(CheckpointPolicy::EveryK)
            .ok_or(ZeroCheckpointInterval)
    }

    /// Whether version number `index` (0-based) should be a checkpoint.
    pub fn is_checkpoint(self, index: usize) -> bool {
        match self {
            CheckpointPolicy::Never => false,
            CheckpointPolicy::EveryK(k) => index.is_multiple_of(k.get()),
        }
    }
}

/// A physical representation of one relation's state sequence.
///
/// The contract — checked by the differential tests in [`crate::equiv`] —
/// is FINDSTATE's: `state_at(tx)` returns the state of the version with
/// the largest transaction number ≤ `tx`, or `None` before the first
/// version.
pub trait RollbackStore: Send + Sync {
    /// Installs a new current state committed at `tx`. Transaction numbers
    /// must be presented in strictly increasing order.
    fn append(&mut self, state: &StateValue, tx: TransactionNumber);

    /// Installs the state `delta` carries the current one to, committed
    /// at `tx`: what `append(&delta.apply(&current), tx)` leaves behind,
    /// version for version and byte for byte, at the cost of the listed
    /// tuples where the representation allows it (the provided
    /// implementation is that definition). The engine calls this when the
    /// command itself said which rows change (the delta path of
    /// `Engine::apply`), so no store diffs two states to find them again.
    ///
    /// `delta` is normalised against the current state, as
    /// [`StateDelta::between`] would list it (removals within the state,
    /// arrivals outside it or revalued, both ascending), and is never a
    /// `Reschema`: a scheme or kind boundary arrives as a state, through
    /// [`RollbackStore::append`]. Panics on an empty store, which has no
    /// state for a delta to apply to.
    fn append_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        let current = self.current().expect("a delta applies to a current state");
        self.append(&delta.apply(&current), tx);
    }

    /// The [`StateDelta`] that carried the previous version to the
    /// current one, when the last [`RollbackStore::append`] left it in
    /// the store's own representation. Plain commits (a right-hand side
    /// the delta path declines) are the only caller: the delta store
    /// diffed inside `append` for their own chain, so the view memo logs
    /// that delta per commit ([`crate::ViewRegistry::queue_modify`])
    /// instead of diffing the relation a second time on the first read,
    /// and asks only when a cached view reads the relation. Costs the
    /// listed changes, never the relation. `None` from a store that holds
    /// no such delta (the provided implementation) and for the first
    /// version: the memo then diffs the two states on first demand.
    fn last_delta(&self) -> Option<StateDelta> {
        None
    }

    /// Size of the per-relation string pool, for stores that intern
    /// appended states ([`crate::DeltaStore`]); `None` for stores
    /// without one.
    fn interner_stats(&self) -> Option<InternerStats> {
        None
    }

    /// FINDSTATE: the state current at `tx`.
    fn state_at(&self, tx: TransactionNumber) -> Option<StateValue>;

    /// FINDSTATE for a batch of probes, answered together.
    ///
    /// Answers are positional: `result[i]` is exactly
    /// `state_at(txs[i])`. The provided implementation resolves each
    /// probe independently; the delta-replay backends override it to
    /// replay each chain segment once per batch, capturing every wanted
    /// version along the way, instead of once per probe
    /// ([`crate::Engine::resolve_many`] is the caller).
    fn state_at_many(&self, txs: &[TransactionNumber]) -> Vec<Option<StateValue>> {
        txs.iter().map(|tx| self.state_at(*tx)).collect()
    }

    /// FINDSTATE with a selection/projection pushed into it — the storage
    /// side of `σ_F(ρ(I, N))` and friends.
    ///
    /// The provided implementation materializes the version and then
    /// applies the filter, which is *definitionally* the un-pushed
    /// computation. Stores that can evaluate the filter while scanning
    /// or replaying ([`crate::DeltaStore`]) override it; the
    /// differential tests in [`crate::equiv`] hold every override to the
    /// same observable behavior, errors included. `Ok(None)` means "no
    /// version at `tx`", exactly like [`RollbackStore::state_at`].
    fn state_at_filtered(
        &self,
        tx: TransactionNumber,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        match self.state_at(tx) {
            Some(s) => filter.apply(s, historical).map(Some),
            None => Ok(None),
        }
    }

    /// `state_at(minuend) − state_at(subtrahend)` where the store can
    /// read it off its own representation without building either
    /// version: the storage side of `ρ(I, n₂) − ρ(I, n₁)`, the "what
    /// changed between two times" query.
    ///
    /// `None` declines, and the caller resolves both versions and
    /// subtracts them, which decides every value and every error. The
    /// delta store answers from the net delta of the chain between the
    /// two versions (the arriving side for `minuend ≥ subtrahend`, the
    /// departing side otherwise) and decline what that delta cannot
    /// decide: a probe before the first version, a scheme or kind
    /// boundary or an undiffed version in the span, and historical
    /// versions, whose deltas list a revalued tuple's new valid time but
    /// not the old one `−̂` subtracts. The provided implementation always
    /// declines.
    fn version_difference(
        &self,
        _minuend: TransactionNumber,
        _subtrahend: TransactionNumber,
    ) -> Option<StateValue> {
        None
    }

    /// The most recent state, if any.
    fn current(&self) -> Option<StateValue>;

    /// [`RollbackStore::current`] with a pushed filter; see
    /// [`RollbackStore::state_at_filtered`].
    fn current_filtered(
        &self,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        match self.current() {
            Some(s) => filter.apply(s, historical).map(Some),
            None => Ok(None),
        }
    }

    /// Number of versions stored.
    fn version_count(&self) -> usize;

    /// The transaction number of the first version, if any.
    fn first_tx(&self) -> Option<TransactionNumber>;

    /// The transaction number of the most recent version, if any.
    fn last_tx(&self) -> Option<TransactionNumber>;

    /// Approximate logical footprint in bytes (experiment E3).
    fn space_bytes(&self) -> usize;

    /// The commit transaction numbers of every stored version, ascending.
    fn version_txs(&self) -> Vec<TransactionNumber>;

    /// Folds the store's delta chain into materialized checkpoints so no
    /// rollback probe replays more than `every` deltas — the compaction
    /// pass bounding worst-case `state_at` latency. A backend without a
    /// replay chain (full-copy) has nothing to fold and returns zero
    /// counters.
    fn compact(&mut self, _every: NonZeroUsize) -> CompactionStats {
        CompactionStats::default()
    }

    /// Compaction counters accumulated over the store's lifetime.
    fn compaction_stats(&self) -> CompactionStats {
        CompactionStats::default()
    }

    /// Discards every version strictly older than the version current at
    /// `tx` (the floor version itself is retained, so `state_at(tx)` is
    /// unchanged at and after the floor). Returns the number of versions
    /// dropped; a `tx` before the first version is a no-op.
    fn truncate_before(&mut self, tx: TransactionNumber) -> usize;

    /// The backend's display name.
    fn kind(&self) -> BackendKind;
}

/// The available backend families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// [`crate::FullCopyStore`]
    FullCopy,
    /// [`crate::DeltaStore`]
    ForwardDelta,
}

impl BackendKind {
    /// All backend kinds, for sweeps.
    pub const ALL: [BackendKind; 2] = [BackendKind::FullCopy, BackendKind::ForwardDelta];

    /// Instantiates an empty store of this kind (the delta store uses
    /// the given checkpoint policy; full-copy ignores it).
    pub fn new_store(self, checkpoints: CheckpointPolicy) -> Box<dyn RollbackStore> {
        self.new_store_with_cache(checkpoints, None)
    }

    /// Instantiates an empty store wired to a shared materialization
    /// cache under the given relation id. Only the delta store consults
    /// the cache; full-copy ignores it.
    pub fn new_store_with_cache(
        self,
        checkpoints: CheckpointPolicy,
        cache: Option<(Arc<MaterializationCache>, u64)>,
    ) -> Box<dyn RollbackStore> {
        match self {
            BackendKind::FullCopy => Box::new(crate::FullCopyStore::new()),
            BackendKind::ForwardDelta => Box::new(crate::DeltaStore::new(checkpoints, cache)),
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendKind::FullCopy => "full-copy",
            BackendKind::ForwardDelta => "forward-delta",
        })
    }
}

/// The `append_delta` ≡ `append` harness the per-store tests share.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use txtime_historical::{HistoricalState, TemporalElement};
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![("id", DomainType::Int), ("name", DomainType::Str)]).unwrap()
    }

    fn row(id: i64, name: &str) -> Tuple {
        Tuple::new(vec![Value::Int(id), Value::str(name)])
    }

    fn snap(rows: &[(i64, &str)]) -> StateValue {
        let rows = rows.iter().map(|&(id, name)| row(id, name));
        StateValue::Snapshot(SnapshotState::new(schema(), rows).unwrap())
    }

    fn hist(rows: &[(i64, &str, u32, u32)]) -> StateValue {
        let rows = rows
            .iter()
            .map(|&(id, name, s, e)| (row(id, name), TemporalElement::period(s, e)));
        StateValue::Historical(HistoricalState::new(schema(), rows).unwrap())
    }

    /// Chains of same-shape versions, strings included so that interning
    /// shows: a version equal to the last, rows arriving (with a string
    /// the pool has not seen), leaving, replaced, revalued, all at once,
    /// everything leaving; long enough to cross checkpoint positions.
    pub(crate) fn scripts() -> Vec<Vec<StateValue>> {
        vec![
            vec![
                snap(&[(1, "a"), (2, "b"), (3, "c")]),
                snap(&[(1, "a"), (2, "b"), (3, "c")]),
                snap(&[(1, "a"), (2, "b"), (3, "c"), (4, "d")]),
                snap(&[(1, "a"), (3, "c"), (4, "d")]),
                snap(&[(1, "z"), (3, "c"), (4, "d")]),
                snap(&[(0, "y"), (3, "c"), (9, "a")]),
                snap(&[]),
                snap(&[(5, "e")]),
                snap(&[(5, "e"), (6, "e")]),
            ],
            vec![
                hist(&[(1, "a", 0, 5), (2, "b", 0, 9)]),
                hist(&[(1, "a", 0, 7), (2, "b", 0, 9)]),
                hist(&[(1, "a", 0, 7), (2, "b", 0, 9)]),
                hist(&[(1, "a", 0, 7), (3, "c", 2, 4)]),
                hist(&[(1, "a", 3, 4), (3, "q", 2, 4), (4, "b", 1, 2)]),
                hist(&[]),
                hist(&[(7, "g", 0, 1)]),
            ],
        ]
    }

    /// Feeds every script to one fresh store through `append` and to
    /// another through `append_delta` (after the first version, which
    /// has nothing to be a delta of), and after every version demands
    /// the same answers, the same accounting, and whatever `same`
    /// compares of the stores' own representation.
    pub(crate) fn assert_append_delta_is_append<S: RollbackStore>(
        fresh: impl Fn() -> S,
        same: impl Fn(&S, &S, &str),
    ) {
        for script in scripts() {
            let (mut plain, mut delta) = (fresh(), fresh());
            for (i, state) in script.iter().enumerate() {
                let tx = TransactionNumber(2 * i as u64 + 1);
                plain.append(state, tx);
                match i.checked_sub(1) {
                    Some(prev) => {
                        delta.append_delta(&StateDelta::between(&script[prev], state), tx)
                    }
                    None => delta.append(state, tx),
                }
                let at = format!("{} version {i}", plain.kind());
                assert_eq!(delta.current().as_ref(), Some(state), "{at}");
                assert_eq!(plain.version_txs(), delta.version_txs(), "{at}");
                assert_eq!(plain.space_bytes(), delta.space_bytes(), "{at}");
                assert_eq!(plain.interner_stats(), delta.interner_stats(), "{at}");
                for probe in 0..=tx.0 + 1 {
                    let probe = TransactionNumber(probe);
                    assert_eq!(plain.state_at(probe), delta.state_at(probe), "{at}");
                }
                same(&plain, &delta, &at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{Predicate, Value};

    /// One store of every kind, full-copy first, each holding `states`
    /// committed at transactions 1, 3, 5, …
    fn stores_holding(
        states: &[StateValue],
        policy: CheckpointPolicy,
    ) -> Vec<Box<dyn RollbackStore>> {
        let fill = |kind: &BackendKind| {
            let mut store = kind.new_store(policy);
            for (i, state) in states.iter().enumerate() {
                store.append(state, TransactionNumber(2 * i as u64 + 1));
            }
            store
        };
        BackendKind::ALL.iter().map(fill).collect()
    }

    /// Every transaction number from before the first commit to past the
    /// last.
    fn probes(states: &[StateValue]) -> Vec<TransactionNumber> {
        (0..=2 * states.len() as u64 + 1)
            .map(TransactionNumber)
            .collect()
    }

    /// The provided `append_delta` is the definition; the full-copy
    /// store, the oracle of the others, keeps it.
    #[test]
    fn provided_append_delta_is_apply_then_append() {
        testing::assert_append_delta_is_append(crate::FullCopyStore::new, |_, _, _| {});
    }

    /// Every backend answers every probe, one at a time and batched in
    /// any order, as the full-copy store does.
    #[test]
    fn every_backend_matches_full_copy_on_every_probe() {
        for script in testing::scripts() {
            let stores = stores_holding(&script, CheckpointPolicy::every_k(3).unwrap());
            let (oracle, rest) = stores.split_first().unwrap();
            let txs = probes(&script);
            let want: Vec<_> = txs.iter().map(|&tx| oracle.state_at(tx)).collect();
            for s in rest {
                let kind = s.kind();
                assert_eq!(s.version_txs(), oracle.version_txs(), "{kind}");
                assert_eq!(s.first_tx(), oracle.first_tx(), "{kind}");
                assert_eq!(s.last_tx(), oracle.last_tx(), "{kind}");
                assert_eq!(s.current(), oracle.current(), "{kind}");
                for (&tx, w) in txs.iter().zip(&want) {
                    assert_eq!(&s.state_at(tx), w, "{kind} at {tx:?}");
                }
                let backwards: Vec<_> = txs.iter().rev().copied().collect();
                let mut batched = s.state_at_many(&backwards);
                batched.reverse();
                assert_eq!(batched, want, "{kind} batched");
            }
        }
    }

    /// A filter pushed into resolution answers what resolving and then
    /// filtering answers, on every backend, kind-mismatch errors included.
    #[test]
    fn filtered_resolution_is_resolve_then_filter_on_every_backend() {
        let pred = Predicate::gt_const("id", Value::Int(2));
        let project = ["name".to_string()];
        let filter = RollbackFilter {
            predicate: Some(&pred),
            project: Some(&project),
        };
        for script in testing::scripts() {
            for s in stores_holding(&script, CheckpointPolicy::every_k(3).unwrap()) {
                let kind = s.kind();
                for historical in [false, true] {
                    let unpushed =
                        |v: Option<StateValue>| v.map(|v| filter.apply(v, historical)).transpose();
                    for tx in probes(&script) {
                        assert_eq!(
                            s.state_at_filtered(tx, historical, &filter),
                            unpushed(s.state_at(tx)),
                            "{kind} historical={historical} at {tx:?}"
                        );
                    }
                    assert_eq!(
                        s.current_filtered(historical, &filter),
                        unpushed(s.current()),
                        "{kind} historical={historical}"
                    );
                }
            }
        }
    }

    /// Compaction folds chains without changing an answer and reports
    /// its pass in the store's lifetime counters; truncation then drops
    /// the same versions from every backend and keeps every answer.
    #[test]
    fn compact_and_truncate_preserve_every_later_probe() {
        let chain = [testing::scripts(), testing::scripts(), testing::scripts()].concat();
        let chain = chain.concat();
        let txs = probes(&chain);
        let mut stores = stores_holding(&chain, CheckpointPolicy::Never);
        let (oracle, rest) = stores.split_first_mut().unwrap();
        // Between two commits, well inside the chain.
        let floor = TransactionNumber(chain.len() as u64);
        let dropped = oracle.truncate_before(floor);
        assert!(dropped > 0);
        for s in rest {
            let kind = s.kind();
            let pass = s.compact(NonZeroUsize::new(4).unwrap());
            assert_eq!(s.compaction_stats(), pass, "{kind}");
            let folds = kind == BackendKind::ForwardDelta;
            assert_eq!(pass.runs > 0, folds, "{kind}");
            assert_eq!(s.truncate_before(floor), dropped, "{kind}");
            assert_eq!(s.version_txs(), oracle.version_txs(), "{kind}");
            for &tx in &txs {
                assert_eq!(s.state_at(tx), oracle.state_at(tx), "{kind} at {tx:?}");
            }
        }
    }

    #[test]
    fn checkpoint_policy() {
        let p = CheckpointPolicy::every_k(4).unwrap();
        assert!(p.is_checkpoint(0));
        assert!(!p.is_checkpoint(3));
        assert!(p.is_checkpoint(4));
        assert!(p.is_checkpoint(8));
        assert!(!CheckpointPolicy::Never.is_checkpoint(0));
        assert!(!CheckpointPolicy::Never.is_checkpoint(100));
    }

    #[test]
    fn zero_checkpoint_interval_is_rejected() {
        let err = CheckpointPolicy::every_k(0).unwrap_err();
        assert_eq!(err, ZeroCheckpointInterval);
        assert!(err.to_string().contains("at least 1"));
    }

    #[test]
    fn backend_kinds_instantiate() {
        for k in BackendKind::ALL {
            let s = k.new_store(CheckpointPolicy::every_k(8).unwrap());
            assert_eq!(s.version_count(), 0);
            assert_eq!(s.kind(), k);
            assert!(s.current().is_none());
        }
    }
}
