//! The view memo: incremental re-evaluation of registered expressions.
//!
//! Re-running the same query sentence after every `modify_state` is the
//! dominant access pattern the paper's transaction-time model invites
//! ("what does this view look like *now*?"), and it is exactly the
//! pattern the plain evaluator serves worst: each evaluation recomputes
//! every operator from scratch. The [`ViewRegistry`] turns that cost
//! structure around:
//!
//! * **Identity.** Expressions are hash-consed
//!   ([`txtime_optimizer::ExprInterner`]) into a DAG of [`ExprId`]s, so
//!   structurally identical (sub)expressions — within one sentence or
//!   across sentences — share one node and therefore one cached state.
//! * **Validity.** Each cached node carries a *stamp* per relation its
//!   subtree reads: the relation's id (fresh per `define_relation`, so a
//!   deleted-and-redefined relation can never be confused with its
//!   predecessor) and the transaction number of its latest version.
//!   Commands are the sole mutators of the database state and
//!   transaction numbers increase strictly, so equal stamps imply the
//!   cached state is *the* state the expression denotes — including for
//!   `ρ(I, n)` leaves with `n` in the past, which are immutable once the
//!   clock passes `n`.
//! * **Maintenance.** `modify_state` *queues* an O(1) record — the
//!   relation's state handles before and after the append — via
//!   [`ViewRegistry::queue_modify`]; nothing is diffed or walked on the
//!   write path. On the next memo read ([`ViewRegistry::decide`] or
//!   [`ViewRegistry::eval_and_register`]) the queue is flushed: each
//!   relation's span of queued modifies folds into a single
//!   [`StateDelta`] (`between(first_prev, last_new)` — one linear merge
//!   over the sorted runs), and the registry walks its cached nodes in
//!   ascending id order (ids are topological: children precede parents),
//!   updating each affected view with a per-operator delta rule —
//!   O(changes · log n) single-pass work — falling back to a targeted
//!   re-evaluation from the (already updated) cached children when a
//!   rule does not apply: ×/×̂/δ over the [`delta_beats_reeval`]
//!   threshold, or a child whose own delta was unknown. A write-heavy
//!   burst between reads therefore pays one propagation, not one per
//!   write (the BENCH_5 `memo_modify` write-amplification fix).
//!
//! Node-wise evaluation applies the plain operators rather than the
//! pushdown shapes the engine's un-memoized path uses; the two are
//! observationally identical (value *and* error), which is exactly what
//! the pushdown equivalence tests in [`crate::equiv`] and the memo
//! differential tests pin. Nodes whose evaluation errors are never
//! cached — the next lookup reproduces the error from scratch,
//! identically.
//!
//! ## Delta-rule soundness
//!
//! Every propagated node delta maintains one invariant (and assumes it
//! of its children's deltas): each listed addition/upsert is truly
//! present in the node's *new* state with the listed valid time, each
//! listed removal is truly absent, and every tuple whose membership or
//! valid time actually changed is listed. Deltas may be *supersets* of
//! the actual change (a listed add that was already present); the apply
//! kernels ([`SnapshotState::with_delta`],
//! [`HistoricalState::with_delta`]) are tolerant of exactly that, and
//! every rule below consults the children's *new* states for the final
//! membership truth rather than trusting the lists alone.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::{Mutex, MutexGuard};

use txtime_core::{EvalError, Expr, StateSource, StateValue, TransactionNumber, TxSpec};
use txtime_exec::{MemoCounters, MemoStats};
use txtime_historical::{Entry, HistoricalState, TemporalElement};
use txtime_optimizer::{delta_beats_reeval, ExprId, ExprInterner, ExprNode, NodeOp};
use txtime_snapshot::{SnapshotState, Tuple};

use crate::delta::StateDelta;

/// Default maximum number of registered root expressions.
pub const DEFAULT_MEMO_CAPACITY: usize = 64;

/// Default number of (missed) evaluations before an expression is
/// registered: the first evaluation of a throwaway query should not pay
/// for caching it.
pub const DEFAULT_REGISTER_AFTER: u32 = 2;

/// The interner arena may grow to this multiple of the nodes reachable
/// from registered roots before it is rebuilt from those roots: every
/// distinct expression ever decided is interned, and one-off reads (an
/// as-of stream with a fresh `T` each time) would otherwise pile up for
/// the life of the process.
pub const INTERNER_SLACK: usize = 4;

/// The arena size below which no rebuild is attempted.
pub const INTERNER_FLOOR: usize = 1024;

/// A relation's validity stamp: its catalog id and the transaction
/// number of its latest committed version.
pub type RelStamp = (u64, TransactionNumber);

/// What the memo needs from an engine beyond [`StateSource`]: the
/// current stamp of each defined relation (`None` when undefined or
/// still empty — nothing evaluable caches against such a relation).
pub trait StampSource: StateSource {
    /// The stamp of `ident`, if it is defined and has a version.
    fn relation_stamp(&self, ident: &str) -> Option<RelStamp>;
}

/// The registry's answer to "should this evaluation use the memo?".
#[derive(Debug)]
pub enum MemoDecision {
    /// A cached, stamp-valid state — the evaluation is already done.
    Hit(StateValue),
    /// Evaluate; if `register`, do it through
    /// [`ViewRegistry::eval_and_register`] so the result (and every
    /// subexpression) is cached for next time.
    Evaluate {
        /// Whether the expression crossed the registration threshold.
        register: bool,
    },
}

/// One cached node: its evaluated state and the stamps it is valid
/// under.
struct NodeView {
    state: StateValue,
    /// One stamp per distinct relation the node's subtree reads.
    stamps: Vec<(String, RelStamp)>,
}

impl NodeView {
    fn valid(&self, src: &dyn StampSource) -> bool {
        self.stamps
            .iter()
            .all(|(ident, stamp)| src.relation_stamp(ident) == Some(*stamp))
    }

    fn set_stamp(&mut self, ident: &str, stamp: RelStamp) {
        for (i, s) in &mut self.stamps {
            if i == ident {
                *s = stamp;
                return;
            }
        }
    }
}

/// How one cached node fared during a propagation pass.
enum Status {
    /// Value unchanged; only the stamp moved (e.g. `ρ(I, n)` with `n`
    /// before the new transaction).
    Bumped,
    /// Value replaced. `Some` carries the node's own delta for its
    /// parents' rules; `None` means the node was recomputed and its
    /// delta is unknown (parents recompute too).
    Changed(Option<StateDelta>),
    /// View dropped (its recomputation errored); parents drop as well.
    Dropped,
}

/// What a child contributed to a parent's delta rule.
type SnapDelta<'a> = (&'a [Tuple], &'a [Tuple]);
type HistDelta<'a> = (&'a [Entry], &'a [Tuple]);

/// One relation's queued-but-unflushed span of `modify_state`s: the
/// state handles before the first queued modify and after the last,
/// plus the commit transactions bracketing the span. Enqueueing is O(1)
/// (states are reference-counted handles); the diff is computed once,
/// at flush.
struct PendingSpan {
    rel_id: u64,
    prev: StateValue,
    new: StateValue,
    first_tx: TransactionNumber,
    last_tx: TransactionNumber,
}

struct Inner {
    interner: ExprInterner,
    /// Cached states, keyed by node id. Iterating the map ascending is a
    /// valid bottom-up propagation order (ids are topological).
    views: BTreeMap<ExprId, NodeView>,
    /// Registered roots with their last-use tick (LRU eviction).
    roots: BTreeMap<ExprId, u64>,
    /// Missed-evaluation counts, for the registration threshold.
    seen: HashMap<ExprId, u32>,
    /// The arena size past which [`Inner::bound_interner`] rebuilds.
    interner_limit: usize,
    /// Deferred `modify_state` spans, folded per relation; flushed on
    /// the next read.
    pending: BTreeMap<String, PendingSpan>,
    capacity: usize,
    register_after: u32,
    tick: u64,
}

impl Inner {
    fn bump_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Drops cached views unreachable from any registered root; returns
    /// how many were dropped.
    fn gc(&mut self) -> usize {
        let mut live: BTreeSet<ExprId> = BTreeSet::new();
        let mut stack: Vec<ExprId> = self.roots.keys().copied().collect();
        while let Some(id) = stack.pop() {
            if live.insert(id) {
                stack.extend(self.interner.node(id).children.iter().copied());
            }
        }
        let before = self.views.len();
        self.views.retain(|id, _| live.contains(id));
        before - self.views.len()
    }

    /// Keeps the interner arena within [`INTERNER_SLACK`] times its live
    /// nodes: past the limit, the arena is rebuilt from the registered
    /// roots, cached views follow their nodes to the new ids, and the
    /// `seen` counts (keyed by ids that no longer exist) start over.
    /// Registered views answer exactly as before; an unregistered
    /// expression merely needs its evaluations counted again.
    fn bound_interner(&mut self) {
        if self.interner.len() <= self.interner_limit {
            return;
        }
        let remap = self.interner.retain_reachable(self.roots.keys().copied());
        // A view whose node did not survive was reachable from no root:
        // what `gc` would have dropped.
        self.views = std::mem::take(&mut self.views)
            .into_iter()
            .filter_map(|(id, view)| Some((*remap.get(&id)?, view)))
            .collect();
        self.roots = std::mem::take(&mut self.roots)
            .into_iter()
            .map(|(id, tick)| (remap[&id], tick))
            .collect();
        self.seen.clear();
        self.interner_limit = (INTERNER_SLACK * self.interner.len()).max(INTERNER_FLOOR);
    }

    /// Evicts least-recently-used roots down to `capacity`, then GCs;
    /// returns the number of views dropped.
    fn enforce_capacity(&mut self) -> usize {
        while self.roots.len() > self.capacity {
            let Some((&lru, _)) = self.roots.iter().min_by_key(|(_, tick)| **tick) else {
                break;
            };
            self.roots.remove(&lru);
        }
        self.gc()
    }

    /// Drops every view (and root) whose subtree reads `ident`; returns
    /// the number of views dropped.
    fn purge_relation(&mut self, ident: &str) -> usize {
        // Any queued span for the relation is moot once its readers go.
        self.pending.remove(ident);
        let interner = &self.interner;
        let before = self.views.len();
        self.views
            .retain(|id, _| !interner.node(*id).reads_relation(ident));
        let dropped = before - self.views.len();
        self.roots
            .retain(|id, _| !interner.node(*id).reads_relation(ident));
        dropped + self.gc()
    }

    /// Evaluates node `id` bottom-up, reusing stamp-valid cached views
    /// and caching every successfully evaluated node. Mirrors
    /// [`Expr::eval_with`] exactly: children left-to-right, each checked
    /// for the operator's expected state kind before the next evaluates,
    /// so the selected error is identical to the plain evaluator's.
    fn eval_node(
        &mut self,
        id: ExprId,
        src: &dyn StampSource,
        counters: &MemoCounters,
    ) -> Result<StateValue, EvalError> {
        if let Some(view) = self.views.get(&id) {
            if view.valid(src) {
                return Ok(view.state.clone());
            }
            self.views.remove(&id);
            counters.add_invalidations(1);
        }
        let node = self.interner.node(id).clone();
        let c = |i: usize| node.children[i];
        let state = match &node.op {
            NodeOp::Const(Expr::SnapshotConst(s)) => StateValue::Snapshot(s.clone()),
            NodeOp::Const(Expr::HistoricalConst(h)) => StateValue::Historical(h.clone()),
            NodeOp::Const(_) => unreachable!("interner wraps only constant expressions in Const"),
            NodeOp::Rollback(ident, spec) => src.resolve_rollback(ident, *spec, false)?,
            NodeOp::HRollback(ident, spec) => src.resolve_rollback(ident, *spec, true)?,
            NodeOp::Union => {
                let l = self.eval_snap(c(0), src, counters, "union")?;
                let r = self.eval_snap(c(1), src, counters, "union")?;
                StateValue::Snapshot(l.union(&r)?)
            }
            NodeOp::Difference => {
                let l = self.eval_snap(c(0), src, counters, "minus")?;
                let r = self.eval_snap(c(1), src, counters, "minus")?;
                StateValue::Snapshot(l.difference(&r)?)
            }
            NodeOp::Product => {
                let l = self.eval_snap(c(0), src, counters, "times")?;
                let r = self.eval_snap(c(1), src, counters, "times")?;
                StateValue::Snapshot(l.product(&r)?)
            }
            NodeOp::Project(attrs) => {
                let s = self.eval_snap(c(0), src, counters, "project")?;
                StateValue::Snapshot(s.project(attrs)?)
            }
            NodeOp::Select(p) => {
                let s = self.eval_snap(c(0), src, counters, "select")?;
                StateValue::Snapshot(s.select(p)?)
            }
            NodeOp::HUnion => {
                let l = self.eval_hist(c(0), src, counters, "hunion")?;
                let r = self.eval_hist(c(1), src, counters, "hunion")?;
                StateValue::Historical(l.hunion(&r)?)
            }
            NodeOp::HDifference => {
                let l = self.eval_hist(c(0), src, counters, "hminus")?;
                let r = self.eval_hist(c(1), src, counters, "hminus")?;
                StateValue::Historical(l.hdifference(&r)?)
            }
            NodeOp::HProduct => {
                let l = self.eval_hist(c(0), src, counters, "htimes")?;
                let r = self.eval_hist(c(1), src, counters, "htimes")?;
                StateValue::Historical(l.hproduct(&r)?)
            }
            NodeOp::HProject(attrs) => {
                let h = self.eval_hist(c(0), src, counters, "hproject")?;
                StateValue::Historical(h.hproject(attrs)?)
            }
            NodeOp::HSelect(p) => {
                let h = self.eval_hist(c(0), src, counters, "hselect")?;
                StateValue::Historical(h.hselect(p)?)
            }
            NodeOp::Delta(g, v) => {
                let h = self.eval_hist(c(0), src, counters, "delta")?;
                StateValue::Historical(h.delta(g, v)?)
            }
            NodeOp::Join(spec) => {
                let l = self.eval_snap(c(0), src, counters, "join")?;
                let r = self.eval_snap(c(1), src, counters, "join")?;
                StateValue::Snapshot(l.equi_join(&r, spec)?)
            }
            NodeOp::HJoin(spec) => {
                let l = self.eval_hist(c(0), src, counters, "hjoin")?;
                let r = self.eval_hist(c(1), src, counters, "hjoin")?;
                StateValue::Historical(l.hequi_join(&r, spec)?)
            }
        };
        let mut stamps: Vec<(String, RelStamp)> = Vec::new();
        let mut cacheable = true;
        for (ident, _) in &node.reads {
            if stamps.iter().any(|(i, _)| i == ident) {
                continue;
            }
            match src.relation_stamp(ident) {
                Some(stamp) => stamps.push((ident.clone(), stamp)),
                // A successful evaluation implies every read relation is
                // defined and non-empty, but stay sound if a source
                // disagrees: just don't cache.
                None => {
                    cacheable = false;
                    break;
                }
            }
        }
        if cacheable {
            self.views.insert(
                id,
                NodeView {
                    state: state.clone(),
                    stamps,
                },
            );
        }
        Ok(state)
    }

    fn eval_snap(
        &mut self,
        id: ExprId,
        src: &dyn StampSource,
        counters: &MemoCounters,
        operator: &'static str,
    ) -> Result<SnapshotState, EvalError> {
        self.eval_node(id, src, counters)?
            .into_snapshot()
            .ok_or(EvalError::StateKindMismatch {
                operator,
                expected_historical: false,
            })
    }

    fn eval_hist(
        &mut self,
        id: ExprId,
        src: &dyn StampSource,
        counters: &MemoCounters,
        operator: &'static str,
    ) -> Result<HistoricalState, EvalError> {
        self.eval_node(id, src, counters)?
            .into_historical()
            .ok_or(EvalError::StateKindMismatch {
                operator,
                expected_historical: true,
            })
    }

    /// Settles every queued modify span: one folded delta propagation
    /// per touched relation. Called at the top of each memo read.
    fn flush_pending(&mut self, src: &dyn StampSource, counters: &MemoCounters) {
        if self.pending.is_empty() {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for (ident, span) in pending {
            let delta = StateDelta::between(&span.prev, &span.new);
            self.propagate(
                &ident,
                span.rel_id,
                &delta,
                span.first_tx,
                span.last_tx,
                src,
                counters,
            );
        }
    }

    /// A span of `modify_state`s against relation `ident`, already
    /// applied to the store and folded into one delta: update every
    /// cached view that reads it. `span_start` is the commit transaction
    /// of the span's first modify, `new_tx` of its last (the eager
    /// single-modify path passes them equal).
    #[allow(clippy::too_many_arguments)]
    fn propagate(
        &mut self,
        ident: &str,
        rel_id: u64,
        rel_delta: &StateDelta,
        span_start: TransactionNumber,
        new_tx: TransactionNumber,
        src: &dyn StampSource,
        counters: &MemoCounters,
    ) {
        if matches!(rel_delta, StateDelta::Reschema(_)) {
            // The relation's scheme (or state kind) changed out from
            // under its readers; no delta rule applies.
            let dropped = self.purge_relation(ident);
            counters.add_invalidations(dropped as u64);
            return;
        }
        let stamp = (rel_id, new_tx);
        let ids: Vec<ExprId> = self.views.keys().copied().collect();
        let mut statuses: HashMap<ExprId, Status> = HashMap::new();
        for id in ids {
            if !self.views.contains_key(&id) {
                continue;
            }
            let node = self.interner.node(id).clone();
            if !node.reads_relation(ident) {
                continue;
            }
            match &node.op {
                NodeOp::Rollback(_, spec) | NodeOp::HRollback(_, spec) => {
                    // `state_at(n)` with `n` below the whole span
                    // resolves to a version these appends cannot have
                    // touched (appends only add strictly newer
                    // versions): the value is immutable, only the stamp
                    // moves. A probe at or past the span's last
                    // transaction sees exactly the folded delta. A probe
                    // landing *inside* the span (several modifies folded
                    // into one flush) names an intermediate version the
                    // fold skipped — drop the view and leave no status,
                    // so parents recompute and the next evaluation
                    // re-resolves the probe from the store.
                    if matches!(spec, TxSpec::At(n) if *n >= span_start && *n < new_tx) {
                        self.views.remove(&id);
                        counters.add_invalidations(1);
                        continue;
                    }
                    let affected = match spec {
                        TxSpec::Current => true,
                        TxSpec::At(n) => *n >= new_tx,
                    };
                    if affected {
                        let view = self.views.get_mut(&id).expect("checked above");
                        rel_delta.apply_in_place(&mut view.state);
                        view.set_stamp(ident, stamp);
                        counters.add_propagation(rel_delta.change_count() as u64);
                        statuses.insert(id, Status::Changed(Some(rel_delta.clone())));
                    } else {
                        let view = self.views.get_mut(&id).expect("checked above");
                        view.set_stamp(ident, stamp);
                        statuses.insert(id, Status::Bumped);
                    }
                }
                NodeOp::Const(_) => unreachable!("constants read no relations"),
                _ => {
                    let mut any_dropped = false;
                    let mut any_changed = false;
                    let mut any_unknown = false;
                    for child in &node.children {
                        if !self.interner.node(*child).reads_relation(ident) {
                            continue;
                        }
                        match statuses.get(child) {
                            Some(Status::Bumped) => {}
                            Some(Status::Changed(Some(_))) => any_changed = true,
                            Some(Status::Changed(None)) => any_unknown = true,
                            Some(Status::Dropped) => any_dropped = true,
                            // A reading child without a cached view:
                            // its new value is unknown here.
                            None => any_unknown = true,
                        }
                    }
                    if any_dropped {
                        // The child's evaluation errors; so would this
                        // node's. Drop the view — the next lookup
                        // reproduces the error from scratch.
                        self.views.remove(&id);
                        counters.add_invalidations(1);
                        statuses.insert(id, Status::Dropped);
                    } else if !any_changed && !any_unknown {
                        let view = self.views.get_mut(&id).expect("checked above");
                        view.set_stamp(ident, stamp);
                        statuses.insert(id, Status::Bumped);
                    } else {
                        let ruled = if any_unknown {
                            None
                        } else {
                            self.delta_rule(&node, id, &statuses)
                        };
                        match ruled {
                            Some((_, delta)) if delta.change_count() == 0 => {
                                // The change filtered out entirely below
                                // this node; keep the cached state (and
                                // its shared runs) untouched.
                                let view = self.views.get_mut(&id).expect("checked above");
                                view.set_stamp(ident, stamp);
                                counters.add_propagation(0);
                                statuses.insert(id, Status::Changed(Some(delta)));
                            }
                            Some((state, delta)) => {
                                let view = self.views.get_mut(&id).expect("checked above");
                                view.state = state;
                                view.set_stamp(ident, stamp);
                                counters.add_propagation(delta.change_count() as u64);
                                statuses.insert(id, Status::Changed(Some(delta)));
                            }
                            None => {
                                // Targeted re-evaluation: the children's
                                // views already hold their new states,
                                // so this recomputes exactly one
                                // operator (plus any uncached inputs).
                                self.views.remove(&id);
                                match self.eval_node(id, src, counters) {
                                    Ok(_) => {
                                        counters.add_fallback();
                                        statuses.insert(id, Status::Changed(None));
                                    }
                                    Err(_) => {
                                        counters.add_invalidations(1);
                                        statuses.insert(id, Status::Dropped);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// A child's snapshot-delta contribution: empty when unchanged,
    /// `None` when no rule applies (wrong kind — defensive only).
    fn snap_delta<'a>(
        &self,
        statuses: &'a HashMap<ExprId, Status>,
        child: ExprId,
    ) -> Option<SnapDelta<'a>> {
        match statuses.get(&child) {
            None | Some(Status::Bumped) => Some((&[], &[])),
            Some(Status::Changed(Some(StateDelta::Snapshot { added, removed }))) => {
                Some((added, removed))
            }
            _ => None,
        }
    }

    fn hist_delta<'a>(
        &self,
        statuses: &'a HashMap<ExprId, Status>,
        child: ExprId,
    ) -> Option<HistDelta<'a>> {
        match statuses.get(&child) {
            None | Some(Status::Bumped) => Some((&[], &[])),
            Some(Status::Changed(Some(StateDelta::Historical { upserted, removed }))) => {
                Some((upserted, removed))
            }
            _ => None,
        }
    }

    /// The child's *new* (already propagated) state.
    fn snap_state(&self, child: ExprId) -> Option<&SnapshotState> {
        match &self.views.get(&child)?.state {
            StateValue::Snapshot(s) => Some(s),
            StateValue::Historical(_) => None,
        }
    }

    fn hist_state(&self, child: ExprId) -> Option<&HistoricalState> {
        match &self.views.get(&child)?.state {
            StateValue::Historical(h) => Some(h),
            StateValue::Snapshot(_) => None,
        }
    }

    /// Applies the per-operator delta rule for `node`, whose changed
    /// children all carry exact deltas. Returns the node's new state and
    /// its own delta, or `None` when the rule declines (threshold, or a
    /// defensive kind mismatch) and the caller should recompute.
    fn delta_rule(
        &self,
        node: &ExprNode,
        id: ExprId,
        statuses: &HashMap<ExprId, Status>,
    ) -> Option<(StateValue, StateDelta)> {
        let out_old = &self.views.get(&id)?.state;
        let c = |i: usize| node.children[i];
        match &node.op {
            NodeOp::Select(p) => {
                let (added, removed) = self.snap_delta(statuses, c(0))?;
                let StateValue::Snapshot(s_old) = out_old else {
                    return None;
                };
                let compiled = p.compile(s_old.schema()).ok()?;
                let added: Vec<Tuple> =
                    added.iter().filter(|t| compiled.eval(t)).cloned().collect();
                let removed: Vec<Tuple> = removed
                    .iter()
                    .filter(|t| compiled.eval(t))
                    .cloned()
                    .collect();
                let out = s_old.with_delta(&removed, &added).ok()?;
                Some((
                    StateValue::Snapshot(out),
                    StateDelta::Snapshot { added, removed },
                ))
            }
            NodeOp::Project(attrs) => {
                let (added, removed) = self.snap_delta(statuses, c(0))?;
                let child = self.snap_state(c(0))?;
                let StateValue::Snapshot(s_old) = out_old else {
                    return None;
                };
                let (_, indices) = child.schema().project(attrs).ok()?;
                let added: BTreeSet<Tuple> = added.iter().map(|t| t.project(&indices)).collect();
                // A projected image loses membership only if *no* tuple
                // of the new child still projects to it: one pass over
                // the child run settles the survivors.
                let mut candidates: BTreeSet<Tuple> =
                    removed.iter().map(|t| t.project(&indices)).collect();
                for img in &added {
                    candidates.remove(img);
                }
                if !candidates.is_empty() {
                    for u in child.run() {
                        candidates.remove(&u.project(&indices));
                        if candidates.is_empty() {
                            break;
                        }
                    }
                }
                let added: Vec<Tuple> = added.into_iter().collect();
                let removed: Vec<Tuple> = candidates.into_iter().collect();
                let out = s_old.with_delta(&removed, &added).ok()?;
                Some((
                    StateValue::Snapshot(out),
                    StateDelta::Snapshot { added, removed },
                ))
            }
            NodeOp::Union => {
                let (add_a, rem_a) = self.snap_delta(statuses, c(0))?;
                let (add_b, rem_b) = self.snap_delta(statuses, c(1))?;
                let a_new = self.snap_state(c(0))?;
                let b_new = self.snap_state(c(1))?;
                let StateValue::Snapshot(s_old) = out_old else {
                    return None;
                };
                let added: Vec<Tuple> = add_a.iter().chain(add_b).cloned().collect();
                let removed: Vec<Tuple> = rem_a
                    .iter()
                    .chain(rem_b)
                    .filter(|t| !a_new.contains(t) && !b_new.contains(t))
                    .cloned()
                    .collect();
                let out = s_old.with_delta(&removed, &added).ok()?;
                Some((
                    StateValue::Snapshot(out),
                    StateDelta::Snapshot { added, removed },
                ))
            }
            NodeOp::Difference => {
                let (add_a, rem_a) = self.snap_delta(statuses, c(0))?;
                let (add_b, rem_b) = self.snap_delta(statuses, c(1))?;
                let a_new = self.snap_state(c(0))?;
                let b_new = self.snap_state(c(1))?;
                let StateValue::Snapshot(s_old) = out_old else {
                    return None;
                };
                let affected: BTreeSet<&Tuple> = add_a
                    .iter()
                    .chain(rem_a)
                    .chain(add_b)
                    .chain(rem_b)
                    .collect();
                let mut added = Vec::new();
                let mut removed = Vec::new();
                for t in affected {
                    if a_new.contains(t) && !b_new.contains(t) {
                        added.push(t.clone());
                    } else {
                        removed.push(t.clone());
                    }
                }
                let out = s_old.with_delta(&removed, &added).ok()?;
                Some((
                    StateValue::Snapshot(out),
                    StateDelta::Snapshot { added, removed },
                ))
            }
            NodeOp::Product => {
                let a_changed = matches!(statuses.get(&c(0)), Some(Status::Changed(_)));
                let b_changed = matches!(statuses.get(&c(1)), Some(Status::Changed(_)));
                if a_changed && b_changed {
                    // Δa × Δb cross terms make the rule quadratic in the
                    // deltas; recomputing from the cached children is
                    // simpler and no slower.
                    return None;
                }
                let (delta_side, fixed_side, fixed_is_right) = if a_changed {
                    (c(0), c(1), true)
                } else {
                    (c(1), c(0), false)
                };
                let (add, rem) = self.snap_delta(statuses, delta_side)?;
                let fixed = self.snap_state(fixed_side)?;
                let changed = self.snap_state(delta_side)?;
                // Rule cost is Δ·|fixed| pairs vs |a|·|b| for a
                // recompute (cost.rs holds the headroom factor).
                if !delta_beats_reeval(
                    (add.len() + rem.len()).saturating_mul(fixed.len()),
                    changed.len().saturating_mul(fixed.len()),
                ) {
                    return None;
                }
                let StateValue::Snapshot(s_old) = out_old else {
                    return None;
                };
                let pair = |t: &Tuple, u: &Tuple| {
                    if fixed_is_right {
                        t.concat(u)
                    } else {
                        u.concat(t)
                    }
                };
                let mut added = Vec::with_capacity(add.len() * fixed.len());
                let mut removed = Vec::with_capacity(rem.len() * fixed.len());
                for t in add {
                    for u in fixed.run() {
                        added.push(pair(t, u));
                    }
                }
                for t in rem {
                    for u in fixed.run() {
                        removed.push(pair(t, u));
                    }
                }
                let out = s_old.with_delta(&removed, &added).ok()?;
                Some((
                    StateValue::Snapshot(out),
                    StateDelta::Snapshot { added, removed },
                ))
            }
            NodeOp::HSelect(p) => {
                let (ups, rem) = self.hist_delta(statuses, c(0))?;
                let StateValue::Historical(h_old) = out_old else {
                    return None;
                };
                let compiled = p.compile(h_old.schema()).ok()?;
                let upserted: Vec<Entry> = ups
                    .iter()
                    .filter(|(t, _)| compiled.eval(t))
                    .cloned()
                    .collect();
                let removed: Vec<Tuple> =
                    rem.iter().filter(|t| compiled.eval(t)).cloned().collect();
                let out = h_old.with_delta(&removed, &upserted).ok()?;
                Some((
                    StateValue::Historical(out),
                    StateDelta::Historical { upserted, removed },
                ))
            }
            NodeOp::HProject(attrs) => {
                let (ups, rem) = self.hist_delta(statuses, c(0))?;
                let child = self.hist_state(c(0))?;
                let StateValue::Historical(h_old) = out_old else {
                    return None;
                };
                let (_, indices) = child.schema().project(attrs).ok()?;
                // A changed image's new valid time is the union over all
                // its surviving pre-images: one pass accumulates it.
                let candidates: BTreeSet<Tuple> = ups
                    .iter()
                    .map(|(t, _)| t.project(&indices))
                    .chain(rem.iter().map(|t| t.project(&indices)))
                    .collect();
                let mut acc: BTreeMap<Tuple, TemporalElement> = BTreeMap::new();
                for (u, e) in child.iter() {
                    let img = u.project(&indices);
                    if candidates.contains(&img) {
                        acc.entry(img)
                            .and_modify(|a| *a = a.union(e))
                            .or_insert_with(|| e.clone());
                    }
                }
                let mut upserted = Vec::new();
                let mut removed = Vec::new();
                for img in candidates {
                    match acc.remove(&img) {
                        Some(e) => upserted.push((img, e)),
                        None => removed.push(img),
                    }
                }
                let out = h_old.with_delta(&removed, &upserted).ok()?;
                Some((
                    StateValue::Historical(out),
                    StateDelta::Historical { upserted, removed },
                ))
            }
            NodeOp::HUnion => {
                let (ups_a, rem_a) = self.hist_delta(statuses, c(0))?;
                let (ups_b, rem_b) = self.hist_delta(statuses, c(1))?;
                let a_new = self.hist_state(c(0))?;
                let b_new = self.hist_state(c(1))?;
                let StateValue::Historical(h_old) = out_old else {
                    return None;
                };
                let affected: BTreeSet<&Tuple> = ups_a
                    .iter()
                    .map(|(t, _)| t)
                    .chain(rem_a)
                    .chain(ups_b.iter().map(|(t, _)| t))
                    .chain(rem_b)
                    .collect();
                let mut upserted = Vec::new();
                let mut removed = Vec::new();
                for t in affected {
                    match (a_new.valid_time(t), b_new.valid_time(t)) {
                        (None, None) => removed.push(t.clone()),
                        (Some(x), None) => upserted.push((t.clone(), x.clone())),
                        (None, Some(y)) => upserted.push((t.clone(), y.clone())),
                        (Some(x), Some(y)) => upserted.push((t.clone(), x.union(y))),
                    }
                }
                let out = h_old.with_delta(&removed, &upserted).ok()?;
                Some((
                    StateValue::Historical(out),
                    StateDelta::Historical { upserted, removed },
                ))
            }
            NodeOp::HDifference => {
                let (ups_a, rem_a) = self.hist_delta(statuses, c(0))?;
                let (ups_b, rem_b) = self.hist_delta(statuses, c(1))?;
                let a_new = self.hist_state(c(0))?;
                let b_new = self.hist_state(c(1))?;
                let StateValue::Historical(h_old) = out_old else {
                    return None;
                };
                let affected: BTreeSet<&Tuple> = ups_a
                    .iter()
                    .map(|(t, _)| t)
                    .chain(rem_a)
                    .chain(ups_b.iter().map(|(t, _)| t))
                    .chain(rem_b)
                    .collect();
                let mut upserted = Vec::new();
                let mut removed = Vec::new();
                for t in affected {
                    match a_new.valid_time(t) {
                        None => removed.push(t.clone()),
                        Some(x) => {
                            let e = match b_new.valid_time(t) {
                                Some(y) => x.difference(y),
                                None => x.clone(),
                            };
                            if e.is_empty() {
                                removed.push(t.clone());
                            } else {
                                upserted.push((t.clone(), e));
                            }
                        }
                    }
                }
                let out = h_old.with_delta(&removed, &upserted).ok()?;
                Some((
                    StateValue::Historical(out),
                    StateDelta::Historical { upserted, removed },
                ))
            }
            NodeOp::HProduct => {
                let a_changed = matches!(statuses.get(&c(0)), Some(Status::Changed(_)));
                let b_changed = matches!(statuses.get(&c(1)), Some(Status::Changed(_)));
                if a_changed && b_changed {
                    return None;
                }
                let (delta_side, fixed_side, fixed_is_right) = if a_changed {
                    (c(0), c(1), true)
                } else {
                    (c(1), c(0), false)
                };
                let (ups, rem) = self.hist_delta(statuses, delta_side)?;
                let fixed = self.hist_state(fixed_side)?;
                let changed = self.hist_state(delta_side)?;
                if !delta_beats_reeval(
                    (ups.len() + rem.len()).saturating_mul(fixed.len()),
                    changed.len().saturating_mul(fixed.len()),
                ) {
                    return None;
                }
                let StateValue::Historical(h_old) = out_old else {
                    return None;
                };
                let mut upserted = Vec::new();
                let mut removed = Vec::new();
                for (t, e) in ups {
                    for (u, eu) in fixed.iter() {
                        let (pt, x) = if fixed_is_right {
                            (t.concat(u), e.intersect(eu))
                        } else {
                            (u.concat(t), eu.intersect(e))
                        };
                        if x.is_empty() {
                            removed.push(pt);
                        } else {
                            upserted.push((pt, x));
                        }
                    }
                }
                for t in rem {
                    for (u, _) in fixed.iter() {
                        removed.push(if fixed_is_right {
                            t.concat(u)
                        } else {
                            u.concat(t)
                        });
                    }
                }
                let out = h_old.with_delta(&removed, &upserted).ok()?;
                Some((
                    StateValue::Historical(out),
                    StateDelta::Historical { upserted, removed },
                ))
            }
            NodeOp::Delta(g, v) => {
                let (ups, rem) = self.hist_delta(statuses, c(0))?;
                let child = self.hist_state(c(0))?;
                // δ's rule is O(Δ), but after a large churn the delta
                // approaches the input and a recompute's single fused
                // scan wins.
                if !delta_beats_reeval(ups.len() + rem.len(), child.len()) {
                    return None;
                }
                let StateValue::Historical(h_old) = out_old else {
                    return None;
                };
                let mut upserted = Vec::new();
                let mut removed: Vec<Tuple> = rem.to_vec();
                for (t, e) in ups {
                    if g.eval(e) {
                        let ne = v.eval(e);
                        if ne.is_empty() {
                            removed.push(t.clone());
                        } else {
                            upserted.push((t.clone(), ne));
                        }
                    } else {
                        removed.push(t.clone());
                    }
                }
                let out = h_old.with_delta(&removed, &upserted).ok()?;
                Some((
                    StateValue::Historical(out),
                    StateDelta::Historical { upserted, removed },
                ))
            }
            // Joins have no incremental rule yet (a delta on either side
            // re-probes the whole other side anyway): recompute.
            NodeOp::Join(..) | NodeOp::HJoin(..) => None,
            NodeOp::Const(_) | NodeOp::Rollback(..) | NodeOp::HRollback(..) => None,
        }
    }
}

/// The view memo: hash-consed expression keys over cached, incrementally
/// maintained states. Interior mutability throughout — lookups and
/// propagation take `&self`, so the engine can consult it mid-borrow.
pub struct ViewRegistry {
    inner: Mutex<Inner>,
    counters: MemoCounters,
}

impl Default for ViewRegistry {
    fn default() -> ViewRegistry {
        ViewRegistry::new()
    }
}

impl ViewRegistry {
    /// A registry with the default capacity and registration threshold.
    pub fn new() -> ViewRegistry {
        ViewRegistry::with_capacity(DEFAULT_MEMO_CAPACITY)
    }

    /// A registry holding at most `capacity` root expressions (0
    /// disables the memo entirely).
    pub fn with_capacity(capacity: usize) -> ViewRegistry {
        ViewRegistry {
            inner: Mutex::new(Inner {
                interner: ExprInterner::new(),
                views: BTreeMap::new(),
                roots: BTreeMap::new(),
                seen: HashMap::new(),
                interner_limit: INTERNER_FLOOR,
                pending: BTreeMap::new(),
                capacity,
                register_after: DEFAULT_REGISTER_AFTER,
                tick: 0,
            }),
            counters: MemoCounters::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panicked holder can only have been mid-update of plain maps;
        // recover the data rather than poisoning every later query.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Consults the memo for `expr`: a stamp-valid cached state, or the
    /// instruction to evaluate (and whether to register the result).
    pub fn decide(&self, expr: &Expr, src: &dyn StampSource) -> MemoDecision {
        // Relation-free expressions — notably the constant literal every
        // `modify_state` evaluates — can never be stamped or
        // invalidated, so they are never worth a view. Deciding them
        // before touching the interner keeps the write path from
        // hashing multi-thousand-tuple constant payloads into the DAG
        // (the `reads` walk visits operator nodes only, not payloads).
        if expr.reads().is_empty() {
            return MemoDecision::Evaluate { register: false };
        }
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return MemoDecision::Evaluate { register: false };
        }
        inner.flush_pending(src, &self.counters);
        inner.bound_interner();
        let id = inner.interner.intern(expr);
        if let Some(view) = inner.views.get(&id) {
            if view.valid(src) {
                let state = view.state.clone();
                self.counters.add_hit();
                let tick = inner.bump_tick();
                if let Some(t) = inner.roots.get_mut(&id) {
                    *t = tick;
                }
                return MemoDecision::Hit(state);
            }
            // Stale views are normally repaired by propagation; reaching
            // here means the backing relation changed outside it
            // (evolution, truncation) — drop and re-evaluate.
            inner.views.remove(&id);
            self.counters.add_invalidations(1);
        }
        if inner.interner.node(id).reads.is_empty() {
            // Nothing to stamp against: constant expressions are cheap
            // clones anyway and can never be invalidated soundly.
            return MemoDecision::Evaluate { register: false };
        }
        self.counters.add_miss();
        let register_after = inner.register_after;
        let seen = inner.seen.entry(id).or_insert(0);
        *seen = seen.saturating_add(1);
        let register = *seen >= register_after;
        MemoDecision::Evaluate { register }
    }

    /// Evaluates `expr` node-wise, caching every subexpression's state,
    /// and registers it as a root. Result — value and error — is
    /// identical to the engine's plain evaluation.
    pub fn eval_and_register(
        &self,
        expr: &Expr,
        src: &dyn StampSource,
    ) -> Result<StateValue, EvalError> {
        let mut inner = self.lock();
        inner.flush_pending(src, &self.counters);
        let id = inner.interner.intern(expr);
        let result = inner.eval_node(id, src, &self.counters);
        if result.is_ok() {
            let tick = inner.bump_tick();
            if inner.roots.insert(id, tick).is_none() {
                self.counters.add_registration();
            }
            let dropped = inner.enforce_capacity();
            self.counters.add_invalidations(dropped as u64);
        }
        result
    }

    /// Whether any cached view reads `ident` — the engine's cheap guard
    /// for whether a `modify_state` needs its delta computed at all.
    pub fn has_readers(&self, ident: &str) -> bool {
        let inner = self.lock();
        inner
            .views
            .keys()
            .any(|id| inner.interner.node(*id).reads_relation(ident))
    }

    /// Records one `modify_state` against `ident` (already applied to
    /// the store, committed at `new_tx`) for deferred propagation — the
    /// engine's write-path entry. `prev` is the relation's state just
    /// before the append (`None` for its very first state).
    ///
    /// The call is O(1): states are reference-counted handles, and
    /// consecutive modifies to one relation fold into a single span
    /// whose diff is computed once, on the next memo read. A scheme or
    /// state-kind boundary (no delta rule can cross it) is settled
    /// immediately by purging the relation's readers.
    pub fn queue_modify(
        &self,
        ident: &str,
        rel_id: u64,
        prev: Option<&StateValue>,
        new: &StateValue,
        new_tx: TransactionNumber,
    ) {
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return;
        }
        let comparable = match (prev, new) {
            (Some(StateValue::Snapshot(a)), StateValue::Snapshot(b)) => a.schema() == b.schema(),
            (Some(StateValue::Historical(a)), StateValue::Historical(b)) => {
                a.schema() == b.schema()
            }
            _ => false,
        };
        if !comparable {
            let dropped = inner.purge_relation(ident);
            self.counters.add_invalidations(dropped as u64);
            return;
        }
        if let Some(span) = inner.pending.get_mut(ident) {
            // Fold at enqueue: keep the span's opening state, advance
            // its closing one — `between(prev, new)` at flush covers
            // the whole run of modifies.
            span.new = new.clone();
            span.last_tx = new_tx;
            return;
        }
        if !inner
            .views
            .keys()
            .any(|id| inner.interner.node(*id).reads_relation(ident))
        {
            // No cached view reads the relation; anything registered
            // later evaluates against the already-modified store.
            return;
        }
        let prev = prev.expect("comparable implies a prior state").clone();
        inner.pending.insert(
            ident.to_string(),
            PendingSpan {
                rel_id,
                prev,
                new: new.clone(),
                first_tx: new_tx,
                last_tx: new_tx,
            },
        );
    }

    /// Propagates the delta one `modify_state` applied to `ident`
    /// (already in the store, committed at `new_tx`) through every
    /// cached view that reads it — the eager path
    /// ([`ViewRegistry::queue_modify`] is the engine's deferred one).
    pub fn apply_modify(
        &self,
        ident: &str,
        rel_id: u64,
        delta: &StateDelta,
        new_tx: TransactionNumber,
        src: &dyn StampSource,
    ) {
        let mut inner = self.lock();
        inner.propagate(ident, rel_id, delta, new_tx, new_tx, src, &self.counters);
    }

    /// Folds and propagates every queued `modify_state` span now — the
    /// shutdown path. The lazy write path queues spans to be settled on
    /// the next read; an engine going away with spans still queued must
    /// settle them first so no cached view outlives the writes it has
    /// not yet seen.
    pub fn flush(&self, src: &dyn StampSource) {
        let mut inner = self.lock();
        inner.flush_pending(src, &self.counters);
    }

    /// How many relations have a queued, not-yet-propagated write span.
    pub fn pending_spans(&self) -> usize {
        self.lock().pending.len()
    }

    /// Drops every cached view whose subtree reads `ident` — the sound
    /// response to deletion, scheme evolution, and history truncation.
    pub fn purge_relation(&self, ident: &str) {
        let mut inner = self.lock();
        let dropped = inner.purge_relation(ident);
        self.counters.add_invalidations(dropped as u64);
    }

    /// Drops every cached view and registration (the interner and its
    /// ids survive — they are pure identities).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let dropped = inner.views.len();
        inner.views.clear();
        inner.roots.clear();
        inner.seen.clear();
        inner.pending.clear();
        self.counters.add_invalidations(dropped as u64);
    }

    /// Resizes the root capacity; 0 disables the memo and drops
    /// everything cached.
    pub fn set_capacity(&self, capacity: usize) {
        let mut inner = self.lock();
        inner.capacity = capacity;
        let dropped = if capacity == 0 {
            let d = inner.views.len();
            inner.views.clear();
            inner.roots.clear();
            inner.seen.clear();
            inner.pending.clear();
            d
        } else {
            inner.enforce_capacity()
        };
        self.counters.add_invalidations(dropped as u64);
    }

    /// Sets how many missed evaluations an expression needs before it is
    /// registered (1 = register on first evaluation).
    pub fn set_register_after(&self, evals: u32) {
        self.lock().register_after = evals.max(1);
    }

    /// A point-in-time snapshot of the memo counters and gauges.
    pub fn stats(&self) -> MemoStats {
        let inner = self.lock();
        self.counters.snapshot(inner.roots.len(), inner.views.len())
    }

    /// Zeroes the counters (cached state is untouched).
    pub fn reset_stats(&self) {
        self.counters.reset();
    }

    /// The expression interner's footprint: (distinct nodes, bytes).
    pub fn interner_footprint(&self) -> (usize, usize) {
        let inner = self.lock();
        (inner.interner.len(), inner.interner.size_bytes())
    }
}

impl std::fmt::Debug for ViewRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ViewRegistry")
            .field("roots", &s.roots)
            .field("views", &s.views)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Predicate, Schema, Value};

    /// A miniature stamp source: one snapshot state per relation.
    struct FakeDb {
        rels: BTreeMap<String, (u64, TransactionNumber, StateValue)>,
    }

    impl FakeDb {
        fn new() -> FakeDb {
            FakeDb {
                rels: BTreeMap::new(),
            }
        }

        fn set(&mut self, ident: &str, rel_id: u64, tx: u64, state: StateValue) {
            self.rels
                .insert(ident.to_string(), (rel_id, TransactionNumber(tx), state));
        }
    }

    impl StateSource for FakeDb {
        fn resolve_rollback(
            &self,
            ident: &str,
            _spec: TxSpec,
            _historical: bool,
        ) -> Result<StateValue, EvalError> {
            self.rels
                .get(ident)
                .map(|(_, _, s)| s.clone())
                .ok_or_else(|| EvalError::UndefinedRelation(ident.to_string()))
        }
    }

    impl StampSource for FakeDb {
        fn relation_stamp(&self, ident: &str) -> Option<RelStamp> {
            self.rels.get(ident).map(|(id, tx, _)| (*id, *tx))
        }
    }

    fn snap(vals: &[i64]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    fn positive(e: Expr) -> Expr {
        e.select(Predicate::gt_const("x", Value::Int(0)))
    }

    #[test]
    fn register_then_hit_then_propagate() {
        let mut db = FakeDb::new();
        db.set("r", 7, 3, StateValue::Snapshot(snap(&[-1, 1, 2])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let expr = positive(Expr::current("r"));

        assert!(matches!(
            memo.decide(&expr, &db),
            MemoDecision::Evaluate { register: true }
        ));
        let v = memo.eval_and_register(&expr, &db).unwrap();
        assert_eq!(v, StateValue::Snapshot(snap(&[1, 2])));

        let MemoDecision::Hit(hit) = memo.decide(&expr, &db) else {
            panic!("expected a hit");
        };
        assert_eq!(hit, v);

        // One tuple added, one removed; the view follows without a
        // re-evaluation.
        db.set("r", 7, 4, StateValue::Snapshot(snap(&[-1, 2, 5])));
        let delta = StateDelta::Snapshot {
            added: vec![Tuple::new(vec![Value::Int(5)])],
            removed: vec![Tuple::new(vec![Value::Int(1)])],
        };
        memo.apply_modify("r", 7, &delta, TransactionNumber(4), &db);
        let MemoDecision::Hit(hit) = memo.decide(&expr, &db) else {
            panic!("expected a post-propagation hit");
        };
        assert_eq!(hit, StateValue::Snapshot(snap(&[2, 5])));
        let stats = memo.stats();
        assert_eq!(stats.hits, 2);
        assert!(stats.propagations >= 2, "leaf and select both propagate");
    }

    #[test]
    fn shared_subexpressions_share_views() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1, 2])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        // Both operands read the same ρ(r, ∞): 3 distinct nodes, not 4.
        let expr = positive(Expr::current("r")).union(Expr::current("r"));
        memo.decide(&expr, &db);
        memo.eval_and_register(&expr, &db).unwrap();
        assert_eq!(memo.stats().views, 3);
    }

    #[test]
    fn reschema_and_purge_drop_readers() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1])));
        db.set("s", 2, 2, StateValue::Snapshot(snap(&[2])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let on_r = positive(Expr::current("r"));
        let on_s = positive(Expr::current("s"));
        for e in [&on_r, &on_s] {
            memo.decide(e, &db);
            memo.eval_and_register(e, &db).unwrap();
        }
        assert_eq!(memo.stats().views, 4);

        // A reschema delta invalidates r's readers, leaves s's alone.
        let re = StateDelta::Reschema(Box::new(StateValue::Snapshot(snap(&[9]))));
        memo.apply_modify("r", 1, &re, TransactionNumber(3), &db);
        assert_eq!(memo.stats().views, 2);
        assert!(!memo.has_readers("r"));
        assert!(memo.has_readers("s"));

        memo.purge_relation("s");
        assert_eq!(memo.stats().views, 0);
    }

    #[test]
    fn capacity_zero_disables_and_eviction_bounds_roots() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1])));
        let disabled = ViewRegistry::with_capacity(0);
        assert!(matches!(
            disabled.decide(&Expr::current("r"), &db),
            MemoDecision::Evaluate { register: false }
        ));

        let memo = ViewRegistry::with_capacity(1);
        memo.set_register_after(1);
        for ident in ["a", "b"] {
            db.set(ident, 5, 5, StateValue::Snapshot(snap(&[3])));
            let e = positive(Expr::current(ident));
            memo.decide(&e, &db);
            memo.eval_and_register(&e, &db).unwrap();
        }
        let stats = memo.stats();
        assert_eq!(stats.roots, 1, "LRU eviction keeps one root");
        assert!(stats.views <= 2);
    }

    #[test]
    fn queued_modifies_fold_and_flush_on_read() {
        let mut db = FakeDb::new();
        db.set("r", 7, 3, StateValue::Snapshot(snap(&[-1, 1, 2])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let expr = positive(Expr::current("r"));
        memo.decide(&expr, &db);
        memo.eval_and_register(&expr, &db).unwrap();

        // A burst of writes between reads: each enqueue is O(1), and
        // the flush on the next read folds the burst into one net-delta
        // propagation (+3 +9 −1 through the select).
        let chain = [
            snap(&[-1, 1, 2, 3]),
            snap(&[-1, 2, 3]),
            snap(&[-1, 2, 3, 9]),
        ];
        let mut prev = StateValue::Snapshot(snap(&[-1, 1, 2]));
        for (i, s) in chain.iter().enumerate() {
            let s = StateValue::Snapshot(s.clone());
            let tx = 4 + i as u64;
            db.set("r", 7, tx, s.clone());
            memo.queue_modify("r", 7, Some(&prev), &s, TransactionNumber(tx));
            prev = s;
        }
        let MemoDecision::Hit(hit) = memo.decide(&expr, &db) else {
            panic!("expected a post-flush hit");
        };
        assert_eq!(hit, StateValue::Snapshot(snap(&[2, 3, 9])));
        let stats = memo.stats();
        // The folded span carries 3 net changes; an eager scheme would
        // have propagated each of the 3 writes separately.
        assert!(
            stats.propagations <= 6,
            "one folded propagation pass, not one per write (saw {})",
            stats.propagations
        );
    }

    #[test]
    fn queue_reschema_purges_readers_immediately() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let e = positive(Expr::current("r"));
        memo.decide(&e, &db);
        memo.eval_and_register(&e, &db).unwrap();
        assert!(memo.has_readers("r"));

        // A state-kind flip has no delta rule; the queue settles it on
        // the spot rather than deferring an unusable span.
        let hist = StateValue::Historical(
            txtime_historical::HistoricalState::new(
                Schema::new(vec![("x", DomainType::Int)]).unwrap(),
                [(
                    Tuple::new(vec![Value::Int(1)]),
                    txtime_historical::TemporalElement::period(0, 5),
                )],
            )
            .unwrap(),
        );
        let prev = StateValue::Snapshot(snap(&[1]));
        memo.queue_modify("r", 1, Some(&prev), &hist, TransactionNumber(2));
        assert!(!memo.has_readers("r"));
    }

    #[test]
    fn interner_stays_bounded_under_distinct_reads_and_views_keep_hitting() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[-1, 1, 2])));
        let memo = ViewRegistry::new();
        let view = positive(Expr::current("r"));
        for _ in 0..DEFAULT_REGISTER_AFTER {
            memo.decide(&view, &db);
        }
        let want = memo.eval_and_register(&view, &db).unwrap();
        let (live, _) = memo.interner_footprint();
        // Each one-off read interns two fresh nodes (σ over ρ-at-n).
        let per_read = 2;
        let bound = (INTERNER_SLACK * live).max(INTERNER_FLOOR) + per_read;
        for n in 0..50_000u64 {
            let once = positive(Expr::rollback("r", TxSpec::At(TransactionNumber(n))));
            assert!(matches!(
                memo.decide(&once, &db),
                MemoDecision::Evaluate { register: false }
            ));
            if n % 1_000 == 0 {
                let (nodes, _) = memo.interner_footprint();
                assert!(nodes <= bound, "{nodes} interned nodes after {n} reads");
                let MemoDecision::Hit(hit) = memo.decide(&view, &db) else {
                    panic!("the registered view stopped hitting after {n} reads");
                };
                assert_eq!(hit, want);
            }
        }
        let (nodes, _) = memo.interner_footprint();
        assert!(nodes <= bound, "{nodes} interned nodes at the end");
        assert_eq!(memo.stats().roots, 1);
    }

    #[test]
    fn stale_stamp_misses_instead_of_hitting() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let e = positive(Expr::current("r"));
        memo.decide(&e, &db);
        memo.eval_and_register(&e, &db).unwrap();
        // The relation moved without propagation (as evolution would):
        // the stale view must not be served.
        db.set("r", 1, 9, StateValue::Snapshot(snap(&[4])));
        assert!(matches!(
            memo.decide(&e, &db),
            MemoDecision::Evaluate { register: true }
        ));
        let v = memo.eval_and_register(&e, &db).unwrap();
        assert_eq!(v, StateValue::Snapshot(snap(&[4])));
    }
}
