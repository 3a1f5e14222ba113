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
//!   clock passes `n`. A `ρ/ρ̂(I, ∞)` leaf is the one node that keeps no
//!   view: it *is* the store's current handle, which a view would pin (a
//!   commit could then no longer edit the run in place), and it stands
//!   wherever the source stands.
//! * **What is never registered.** Four kinds of root are answered below
//!   the memo, and never interned, counted or registered:
//!   - a bare `ρ/ρ̂(I, ∞)` (a handle clone);
//!   - a key probe: a `σ/σ̂` straight over a `ρ/ρ̂` leaf whose predicate
//!     bounds the relation's leading attribute, which the store's
//!     filtered resolve answers in O(log n + answer);
//!   - a filtered past read: a chain of `σ/π` (or `σ̂/π̂`) with a `σ`
//!     straight over a `ρ/ρ̂(I, n)` leaf, which the store answers by
//!     filtering a checkpoint and a composed replay it caches;
//!   - a past difference `ρ(I, a) − ρ(I, b)` of one relation, which the
//!     store reads off the links between the two versions.
//!
//!   A view of the first two would cost more to keep current than the
//!   read it saves; registering either of the last two builds both whole
//!   versions the store never needs. A bare `ρ(I, n)`, a π-only chain, a
//!   ×/⋈ over past leaves, a `ρ̂ −̂ ρ̂` (whose answer the store declines)
//!   and any other root register as before.
//! * **Maintenance.** Pull-based: a read repairs the view it asks for
//!   and nothing else. `modify_state` appends one record to the written
//!   relation's *log* via [`ViewRegistry::queue_modify`] — the commit's
//!   transaction number and its small [`StateDelta`], which is the
//!   command's own when the engine folded it from the right-hand side,
//!   and otherwise the one a delta store computes inside `append`
//!   anyway — and walks no view; a
//!   relation no cached view reads has no log, and its commits return at
//!   the first check, before anyone is even asked for that delta.
//!   Every other view simply stays behind, at its stamp. When [`ViewRegistry::decide`] or
//!   [`ViewRegistry::eval_and_register`] meets a cached node whose
//!   stamps lag, it brings forward the nodes *under that node* only,
//!   children first: an operator at stamp `s` composes the log entries
//!   in `(s, now]` into one delta for its `ρ(I, ∞)` children, takes its
//!   other children's deltas from their own repair when they started
//!   from the same stamp, and applies its per-operator delta rule —
//!   O(changes · log n), edited into the cached state in place. A rule
//!   that reads a current leaf's new state borrows the store's handle
//!   for that one repair. It falls back to recomputing that one
//!   operator from its (repaired) children when no rule applies: ×/×̂/δ
//!   over the [`delta_beats_reeval`] threshold, ×/⋈ (and hatted twins)
//!   with both sides changed, a child repaired from a different stamp (a
//!   subexpression another root already brought forward), a child
//!   standing ahead of the node on *another* relation (the rules take
//!   the children's states for the node's own old inputs with one
//!   relation moved; a current leaf of a relation that moved since the
//!   node's stamp is not that), or a `ρ(I, n)` probe that lands inside
//!   the span.
//!   Lagging is sound because stamps are per relation and transaction
//!   numbers increase strictly: a view at stamp `s` *is* the expression's
//!   value as of version `s`, and the entries after `s` are exactly what
//!   happened since. The log is trimmed on the write path by the rule
//!   the operators already use: once the logged changes pass a quarter
//!   of the relation, recomputing wins, so the oldest entries go (the
//!   newest always stays) and a view stamped before them is dropped and
//!   re-evaluated on its next read. Commits to single-version
//!   relations, which keep no store and so no delta, log the two state
//!   handles instead and the diff happens on first demand, so no write
//!   ever diffs a relation for the memo; consecutive such commits share
//!   one entry.
//!
//! Node-wise evaluation applies the plain operators, on the source's
//! worker pool, rather than the pushdown shapes the engine's un-memoized
//! path uses; the two are observationally identical (value *and* error),
//! which is exactly what the pushdown equivalence tests in
//! [`crate::equiv`] and the memo differential tests pin. Nodes whose
//! evaluation errors are never cached — the next lookup reproduces the
//! error from scratch, identically.
//!
//! ## Delta-rule soundness
//!
//! Every propagated node delta maintains one invariant (and assumes it
//! of its children's deltas): each listed addition/upsert is truly
//! present in the node's *new* state with the listed valid time, each
//! listed removal is truly absent, and every tuple whose membership or
//! valid time actually changed is listed. Deltas may be *supersets* of
//! the actual change (a listed add that was already present); the apply
//! kernels ([`SnapshotState::apply_delta`],
//! [`HistoricalState::apply_delta`]) are tolerant of exactly that, and
//! every rule below consults the children's *new* states for the final
//! membership truth rather than trusting the lists alone. A span of log
//! entries composes ([`StateDelta::compose`]) into the net delta of the
//! versions it joins, which is exact for snapshots and keeps the later
//! word per tuple for historical states.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

use txtime_core::{EvalError, Expr, StateSource, StateValue, TransactionNumber, TxSpec};
use txtime_exec::{ExecPool, MemoCounters, MemoStats};
use txtime_historical::{Entry, HistoricalState, TemporalElement};
use txtime_optimizer::{delta_beats_reeval, ExprId, ExprInterner, ExprNode, NodeOp};
use txtime_snapshot::{Schema, SnapshotState, Tuple};

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

/// What the memo needs from an engine beyond [`StateSource`].
pub trait StampSource: StateSource {
    /// The stamp of `ident`, if it is defined and has a version (`None`
    /// when undefined or still empty — nothing evaluable caches against
    /// such a relation).
    fn relation_stamp(&self, ident: &str) -> Option<RelStamp>;

    /// The scheme of `ident`'s newest version, if it has one: its
    /// leading attribute is what a key probe bounds.
    fn relation_schema(&self, ident: &str) -> Option<Schema>;

    /// The worker pool the memo's own evaluation runs its kernels on.
    fn exec_pool(&self) -> &ExecPool;
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

    fn stamp(&self, ident: &str) -> Option<RelStamp> {
        self.stamps
            .iter()
            .find_map(|(i, s)| (i == ident).then_some(*s))
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

/// The relation (and hat) of a `ρ/ρ̂(I, ∞)` leaf, the node that keeps no
/// view.
fn current_leaf(node: &ExprNode) -> Option<(&str, bool)> {
    match &node.op {
        NodeOp::Rollback(ident, TxSpec::Current) => Some((ident, false)),
        NodeOp::HRollback(ident, TxSpec::Current) => Some((ident, true)),
        _ => None,
    }
}

/// Whether the store answers root `expr` at least as cheaply as a view
/// could, building no version it does not return: a bare `ρ/ρ̂(I, ∞)`,
/// a key probe, a filtered past read or a past difference (see the
/// module docs).
fn answered_by_store(expr: &Expr, src: &dyn StampSource) -> bool {
    match expr {
        Expr::Rollback(_, TxSpec::Current) | Expr::HRollback(_, TxSpec::Current) => true,
        Expr::Difference(a, b) => matches!(
            (&**a, &**b),
            (Expr::Rollback(i, TxSpec::At(_)), Expr::Rollback(j, TxSpec::At(_))) if i == j
        ),
        _ => key_probe(expr, src) || filtered_past_read(expr),
    }
}

/// Whether `expr` is a `σ/σ̂` straight over a `ρ/ρ̂` leaf whose predicate
/// bounds the relation's leading attribute.
fn key_probe(expr: &Expr, src: &dyn StampSource) -> bool {
    match expr {
        Expr::Select(p, leaf) | Expr::HSelect(p, leaf) => match &**leaf {
            Expr::Rollback(ident, _) | Expr::HRollback(ident, _) => src
                .relation_schema(ident)
                .is_some_and(|s| p.bounds(&s.attributes()[0].name)),
            _ => false,
        },
        _ => false,
    }
}

/// Whether `expr` is a chain of `σ/π` (`σ̂/π̂`) over one past
/// `ρ/ρ̂(I, n)` leaf with a `σ` straight over the leaf: the store's
/// filtered replay answers the lower operators, and the rest run on
/// what it returns.
fn filtered_past_read(expr: &Expr) -> bool {
    let mut node = expr;
    loop {
        node = match node {
            Expr::Select(_, e) | Expr::HSelect(_, e) => match &**e {
                Expr::Rollback(_, TxSpec::At(_)) | Expr::HRollback(_, TxSpec::At(_)) => {
                    return true
                }
                _ => e,
            },
            Expr::Project(_, e) | Expr::HProject(_, e) => e,
            _ => return false,
        };
    }
}

/// How one cached node fared during a repair pass.
enum Status {
    /// Value unchanged; only the stamp moved (e.g. `ρ(I, n)` with `n`
    /// before the span's first transaction).
    Bumped,
    /// Value replaced. `Some` carries the node's own delta for its
    /// parents' rules; `None` means the node was recomputed and its
    /// delta is unknown (parents recompute too).
    Changed(Option<StateDelta>),
    /// View dropped (its recomputation errored); parents drop as well.
    Dropped,
}

/// The statuses of one repair pass, each with the transaction its node
/// was repaired *from*: a parent may use a child's delta only if both
/// started from the same stamp, i.e. the delta covers the parent's span.
type Done = HashMap<ExprId, (TransactionNumber, Status)>;

/// One repair pass: relation `ident` now stands at `now`, and the nodes
/// under one root that read it are brought there.
struct Pass<'a> {
    ident: &'a str,
    now: RelStamp,
    src: &'a dyn StampSource,
    counters: &'a MemoCounters,
    done: Done,
}

/// What a child contributed to a parent's delta rule.
type SnapDelta<'a> = (&'a [Tuple], &'a [Tuple]);
type HistDelta<'a> = (&'a [Entry], &'a [Tuple]);

/// What one delta rule reads: the changed children's deltas, from the
/// pass, and every child's *new* state — its view's, or for a
/// `ρ/ρ̂(I, ∞)` child the store's current handle, borrowed for this one
/// repair and dropped with it.
struct Inputs<'a> {
    done: &'a Done,
    views: &'a BTreeMap<ExprId, NodeView>,
    leaves: Vec<(ExprId, StateValue)>,
}

impl Inputs<'_> {
    fn changed(&self, child: ExprId) -> bool {
        matches!(self.done.get(&child), Some((_, Status::Changed(_))))
    }

    /// A child's snapshot-delta contribution: empty when unchanged,
    /// `None` when no rule applies (wrong kind — defensive only).
    fn snap_delta(&self, child: ExprId) -> Option<SnapDelta<'_>> {
        match self.done.get(&child) {
            None | Some((_, Status::Bumped)) => Some((&[], &[])),
            Some((_, Status::Changed(Some(StateDelta::Snapshot { added, removed })))) => {
                Some((added, removed))
            }
            _ => None,
        }
    }

    fn hist_delta(&self, child: ExprId) -> Option<HistDelta<'_>> {
        match self.done.get(&child) {
            None | Some((_, Status::Bumped)) => Some((&[], &[])),
            Some((_, Status::Changed(Some(StateDelta::Historical { upserted, removed })))) => {
                Some((upserted, removed))
            }
            _ => None,
        }
    }

    fn state(&self, child: ExprId) -> Option<&StateValue> {
        match self.leaves.iter().find(|(leaf, _)| *leaf == child) {
            Some((_, state)) => Some(state),
            None => Some(&self.views.get(&child)?.state),
        }
    }

    fn snap_state(&self, child: ExprId) -> Option<&SnapshotState> {
        match self.state(child)? {
            StateValue::Snapshot(s) => Some(s),
            StateValue::Historical(_) => None,
        }
    }

    fn hist_state(&self, child: ExprId) -> Option<&HistoricalState> {
        match self.state(child)? {
            StateValue::Historical(h) => Some(h),
            StateValue::Snapshot(_) => None,
        }
    }
}

/// Whether two states share kind and scheme, so that a delta (and the
/// delta rules) can carry one to the other.
fn same_shape(a: &StateValue, b: &StateValue) -> bool {
    match (a, b) {
        (StateValue::Snapshot(a), StateValue::Snapshot(b)) => a.schema() == b.schema(),
        (StateValue::Historical(a), StateValue::Historical(b)) => a.schema() == b.schema(),
        _ => false,
    }
}

/// What one log entry knows about its commit(s).
enum Change {
    /// The delta carrying the previous version to this one, handed out
    /// by the store's own append.
    Delta(StateDelta),
    /// For commits whose store left no delta behind: the state handles
    /// before the entry's first commit and after its last, diffed on
    /// first demand, so that the write path never diffs a relation.
    /// Handles are reference-counted; the diff replaces them.
    Unfolded { prev: StateValue, new: StateValue },
}

impl Change {
    /// What the trim rule weighs: the changes a fold would have to
    /// carry, and at least one step per entry, so that commits that
    /// change nothing cannot pile up either. An entry not yet diffed
    /// weighs that one step.
    fn weight(&self) -> usize {
        match self {
            Change::Delta(d) => d.change_count().max(1),
            Change::Unfolded { .. } => 1,
        }
    }
}

/// One entry of a relation's log: the commits in `first..=last` (one,
/// unless unfolded commits were merged) and what they changed.
struct LogEntry {
    first: TransactionNumber,
    last: TransactionNumber,
    commits: usize,
    change: Change,
}

/// The recent commits of one relation that cached views read: what a
/// view stamped at or after `base` folds to catch up.
struct RelLog {
    rel_id: u64,
    /// The version the first entry applies to. A view stamped below it
    /// has fallen off the log.
    base: TransactionNumber,
    /// Ascending by transaction; each entry applies to the version the
    /// previous one produced.
    entries: VecDeque<LogEntry>,
    /// The summed [`Change::weight`] of the entries.
    weight: usize,
}

impl RelLog {
    fn new(stamp: RelStamp) -> RelLog {
        RelLog {
            rel_id: stamp.0,
            base: stamp.1,
            entries: VecDeque::new(),
            weight: 0,
        }
    }

    /// The newest version the log knows.
    fn head(&self) -> TransactionNumber {
        self.entries.back().map_or(self.base, |e| e.last)
    }

    /// Logs one commit to a relation of `rows` tuples, then trims: while
    /// folding everything held would carry a quarter of the relation,
    /// recomputing beats repairing, so the oldest entry goes. The newest
    /// always stays, so a view one commit behind is always repaired.
    fn push(&mut self, tx: TransactionNumber, change: Change, rows: usize) {
        match (self.entries.back_mut(), change) {
            (
                Some(LogEntry {
                    last,
                    commits,
                    change: Change::Unfolded { new: newest, .. },
                    ..
                }),
                Change::Unfolded { new, .. },
            ) => {
                *newest = new;
                *last = tx;
                *commits += 1;
            }
            (_, change) => {
                self.weight += change.weight();
                self.entries.push_back(LogEntry {
                    first: tx,
                    last: tx,
                    commits: 1,
                    change,
                });
            }
        }
        while self.entries.len() > 1 && !delta_beats_reeval(self.weight, rows) {
            let oldest = self.entries.pop_front().expect("more than one entry");
            self.base = oldest.last;
            self.weight -= oldest.change.weight();
        }
    }

    /// The index of the first entry after the version stamped `from`,
    /// if the log can carry a view from there to `now`: same relation,
    /// the log reaches `now`, and `from` is a version an entry starts at
    /// (not trimmed away, not inside a merged entry).
    fn after(&self, from: RelStamp, now: RelStamp) -> Option<usize> {
        if (from.0, now.0) != (self.rel_id, self.rel_id) || self.head() != now.1 {
            return None;
        }
        let idx = self.entries.partition_point(|e| e.last <= from.1);
        let starts_at = match idx.checked_sub(1) {
            Some(i) => self.entries[i].last,
            None => self.base,
        };
        (starts_at == from.1 && idx < self.entries.len()).then_some(idx)
    }

    /// How many logged commits a view stamped at `tx` has not seen (at
    /// least that many, if it has fallen off the log).
    fn commits_after(&self, tx: TransactionNumber) -> usize {
        self.entries
            .iter()
            .filter(|e| e.last > tx)
            .map(|e| e.commits)
            .sum()
    }

    /// The entries from `idx` on (which [`RelLog::after`] found) composed
    /// into their net delta: for snapshot states exactly the `between` of
    /// the version the first applies to and the newest, for historical
    /// ones the later word on each tuple. Entries not yet diffed are
    /// diffed first, once.
    fn fold(&mut self, idx: usize) -> StateDelta {
        for e in self.entries.range_mut(idx..) {
            if let Change::Unfolded { prev, new } = &e.change {
                let diffed = Change::Delta(StateDelta::between(prev, new));
                self.weight = self.weight - e.change.weight() + diffed.weight();
                e.change = diffed;
            }
        }
        let chain: Vec<&StateDelta> = self
            .entries
            .range(idx..)
            .map(|e| match &e.change {
                Change::Delta(d) => d,
                Change::Unfolded { .. } => unreachable!("diffed above"),
            })
            .collect();
        StateDelta::compose(&chain).expect("the log holds an entry at idx")
    }
}

/// The leading attributes of a child's scheme that a projection keeps,
/// in order: `prefix[j]` is where child attribute `j` lands in the image,
/// for `j = 0, 1, …` while the projection keeps it.
fn kept_prefix(indices: &[usize]) -> Vec<usize> {
    (0..)
        .map_while(|attr| indices.iter().position(|&i| i == attr))
        .collect()
}

/// The rows of `run` (sorted by attribute position, as a state's run
/// is) that can project to `img`: those that agree with it on every kept
/// leading attribute ([`kept_prefix`]), narrowed by binary search one
/// attribute at a time. The whole run when the projection keeps none.
fn preimages<R>(
    run: &[R],
    key: impl Fn(&R) -> &Tuple,
    prefix: &[usize],
    img: &Tuple,
) -> Range<usize> {
    let mut range = 0..run.len();
    for (attr, &at) in prefix.iter().enumerate() {
        let v = img.get(at);
        let rows = &run[range.clone()];
        let lo = rows.partition_point(|r| key(r).get(attr) < v);
        let hi = rows.partition_point(|r| key(r).get(attr) <= v);
        range = range.start + lo..range.start + hi;
    }
    range
}

/// Whether `u` projects onto `img` through `indices`, compared in place.
fn projects_to(u: &Tuple, indices: &[usize], img: &Tuple) -> bool {
    indices
        .iter()
        .zip(img.values())
        .all(|(&i, v)| u.get(i) == v)
}

struct Inner {
    interner: ExprInterner,
    /// Cached states, keyed by node id (ids are topological: a node's
    /// children have smaller ids than the node). No `ρ/ρ̂(I, ∞)` leaf is
    /// among them.
    views: BTreeMap<ExprId, NodeView>,
    /// Registered roots with their last-use tick (LRU eviction).
    roots: BTreeMap<ExprId, u64>,
    /// Missed-evaluation counts, for the registration threshold.
    seen: HashMap<ExprId, u32>,
    /// The arena size past which [`Inner::bound_interner`] rebuilds.
    interner_limit: usize,
    /// One log per relation that a cached view reads; created when the
    /// first such view is cached, dropped with the last.
    logs: BTreeMap<String, RelLog>,
    capacity: usize,
    register_after: u32,
    tick: u64,
}

impl Inner {
    fn bump_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Drops cached views unreachable from any registered root, and the
    /// logs of relations no remaining view reads; returns how many views
    /// were dropped.
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
        let (views, interner) = (&self.views, &self.interner);
        self.logs.retain(|ident, _| {
            views
                .keys()
                .any(|id| interner.node(*id).reads_relation(ident))
        });
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
        // The log is moot once its readers go.
        self.logs.remove(ident);
        let interner = &self.interner;
        let before = self.views.len();
        self.views
            .retain(|id, _| !interner.node(*id).reads_relation(ident));
        let dropped = before - self.views.len();
        self.roots
            .retain(|id, _| !interner.node(*id).reads_relation(ident));
        dropped + self.gc()
    }

    /// The cached state of node `id`, if it has one that is current or
    /// can be brought forward; a view that cannot is dropped.
    fn current(
        &mut self,
        id: ExprId,
        src: &dyn StampSource,
        counters: &MemoCounters,
    ) -> Option<StateValue> {
        let view = self.views.get(&id)?;
        if view.valid(src) {
            return Some(view.state.clone());
        }
        if self.repair(id, src, counters) {
            counters.add_repair();
            return self.views.get(&id).map(|v| v.state.clone());
        }
        // The relation changed outside the log (evolution, truncation,
        // redefinition), or recomputing the node errored: the next
        // evaluation starts from scratch.
        if self.views.remove(&id).is_some() {
            counters.add_invalidations(1);
        }
        None
    }

    /// Evaluates node `id` bottom-up, reusing cached views (repaired
    /// first where their stamps lag) and caching every successfully
    /// evaluated node but a current leaf. Mirrors [`Expr::eval_with`]
    /// exactly: children left-to-right, each checked for the operator's
    /// expected state kind before the next evaluates, so the selected
    /// error is identical to the plain evaluator's; the kernels are the
    /// pool's, as on the engine's own path.
    fn eval_node(
        &mut self,
        id: ExprId,
        src: &dyn StampSource,
        counters: &MemoCounters,
    ) -> Result<StateValue, EvalError> {
        if let Some(state) = self.current(id, src, counters) {
            return Ok(state);
        }
        let node = self.interner.node(id).clone();
        let c = |i: usize| node.children[i];
        let pool = src.exec_pool();
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
                StateValue::Snapshot(l.difference_par(&r, pool)?)
            }
            NodeOp::Product => {
                let l = self.eval_snap(c(0), src, counters, "times")?;
                let r = self.eval_snap(c(1), src, counters, "times")?;
                StateValue::Snapshot(l.product_par(&r, pool)?)
            }
            NodeOp::Project(attrs) => {
                let s = self.eval_snap(c(0), src, counters, "project")?;
                StateValue::Snapshot(s.project_par(attrs, pool)?)
            }
            NodeOp::Select(p) => {
                let s = self.eval_snap(c(0), src, counters, "select")?;
                StateValue::Snapshot(s.select_par(p, pool)?)
            }
            NodeOp::HUnion => {
                let l = self.eval_hist(c(0), src, counters, "hunion")?;
                let r = self.eval_hist(c(1), src, counters, "hunion")?;
                StateValue::Historical(l.hunion(&r)?)
            }
            NodeOp::HDifference => {
                let l = self.eval_hist(c(0), src, counters, "hminus")?;
                let r = self.eval_hist(c(1), src, counters, "hminus")?;
                StateValue::Historical(l.hdifference_par(&r, pool)?)
            }
            NodeOp::HProduct => {
                let l = self.eval_hist(c(0), src, counters, "htimes")?;
                let r = self.eval_hist(c(1), src, counters, "htimes")?;
                StateValue::Historical(l.hproduct_par(&r, pool)?)
            }
            NodeOp::HProject(attrs) => {
                let h = self.eval_hist(c(0), src, counters, "hproject")?;
                StateValue::Historical(h.hproject_par(attrs, pool)?)
            }
            NodeOp::HSelect(p) => {
                let h = self.eval_hist(c(0), src, counters, "hselect")?;
                StateValue::Historical(h.hselect_par(p, pool)?)
            }
            NodeOp::Delta(g, v) => {
                let h = self.eval_hist(c(0), src, counters, "delta")?;
                StateValue::Historical(h.delta(g, v)?)
            }
            NodeOp::Join(spec) => {
                let l = self.eval_snap(c(0), src, counters, "join")?;
                let r = self.eval_snap(c(1), src, counters, "join")?;
                StateValue::Snapshot(l.equi_join_par(&r, spec, pool)?)
            }
            NodeOp::HJoin(spec) => {
                let l = self.eval_hist(c(0), src, counters, "hjoin")?;
                let r = self.eval_hist(c(1), src, counters, "hjoin")?;
                StateValue::Historical(l.hequi_join_par(&r, spec, pool)?)
            }
        };
        if current_leaf(&node).is_some() {
            return Ok(state);
        }
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
            for (ident, stamp) in &stamps {
                // Readers make a relation's commits worth logging. A
                // log that does not end at this very version has missed
                // a commit and can carry nobody here: start over.
                if self
                    .logs
                    .get(ident)
                    .is_none_or(|l| (l.rel_id, l.head()) != *stamp)
                {
                    self.logs.insert(ident.clone(), RelLog::new(*stamp));
                }
            }
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

    /// Brings the cached view of `id` up to the source's stamps, one
    /// pass per relation that moved, walking only the nodes under `id`.
    /// Returns whether the view is valid afterwards.
    fn repair(&mut self, id: ExprId, src: &dyn StampSource, counters: &MemoCounters) -> bool {
        let Some(view) = self.views.get(&id) else {
            return false;
        };
        let moved: Vec<(String, Option<RelStamp>)> = view
            .stamps
            .iter()
            .map(|(ident, stamp)| (ident, *stamp, src.relation_stamp(ident)))
            .filter(|(_, stamp, now)| *now != Some(*stamp))
            .map(|(ident, _, now)| (ident.clone(), now))
            .collect();
        for (ident, now) in &moved {
            // A relation that is gone (or empty) carries nothing forward.
            let Some(now) = *now else {
                return false;
            };
            let mut pass = Pass {
                ident,
                now,
                src,
                counters,
                done: Done::new(),
            };
            self.repair_rel(id, &mut pass);
        }
        self.views.get(&id).is_some_and(|v| v.valid(src))
    }

    /// Brings node `id` and the nodes under it to `pass.now` for the
    /// pass's relation, children first, and records how each fared.
    fn repair_rel(&mut self, id: ExprId, pass: &mut Pass<'_>) {
        if pass.done.contains_key(&id) {
            return;
        }
        let node = self.interner.node(id).clone();
        if !node.reads_relation(pass.ident) {
            return;
        }
        // No view (a current leaf never has one), or one already there (a
        // subexpression another read brought forward): no status, so an
        // operator above recomputes unless the node is a leaf, whose
        // delta comes from the log.
        let Some(from) = self.views.get(&id).and_then(|v| v.stamp(pass.ident)) else {
            return;
        };
        if from == pass.now {
            return;
        }
        match &node.op {
            NodeOp::Rollback(_, spec) | NodeOp::HRollback(_, spec) => {
                let historical = matches!(node.op, NodeOp::HRollback(..));
                self.repair_probe(id, *spec, historical, from, pass);
            }
            NodeOp::Const(_) => unreachable!("constants read no relations"),
            _ => {
                for child in &node.children {
                    self.repair_rel(*child, pass);
                }
                self.repair_op(id, &node, from, pass);
            }
        }
    }

    /// Whether `ρ(ident, spec)` provably names at `now` the very version
    /// it named at `from`: `state_at(n)` cannot see versions committed
    /// after `n`, and appends to one relation only add strictly newer
    /// ones. (`n` may exceed `from` and still precede the first commit
    /// after it — a snapshot pinned on the engine clock — which the log
    /// can tell.)
    fn probe_untouched(&self, ident: &str, spec: TxSpec, from: RelStamp, now: RelStamp) -> bool {
        let TxSpec::At(n) = spec else {
            return false;
        };
        let first_after = || {
            let log = self.logs.get(ident)?;
            Some(log.entries[log.after(from, now)?].first)
        };
        from.0 == now.0 && (n <= from.1 || first_after().is_some_and(|first| n < first))
    }

    /// A cached `ρ/ρ̂(I, n)` probe needs no delta to catch up: unless it
    /// provably still names the version it holds, it re-resolves from
    /// the store. What the probe means to a parent's rule is settled per
    /// parent, in [`Inner::leaf_change`].
    fn repair_probe(
        &mut self,
        id: ExprId,
        spec: TxSpec,
        historical: bool,
        from: RelStamp,
        pass: &mut Pass<'_>,
    ) {
        let resolved = if self.probe_untouched(pass.ident, spec, from, pass.now) {
            None
        } else {
            Some(pass.src.resolve_rollback(pass.ident, spec, historical))
        };
        if let Some(Err(_)) = resolved {
            // The next evaluation reproduces the error from scratch.
            self.views.remove(&id);
            pass.counters.add_invalidations(1);
            return;
        }
        let view = self.views.get_mut(&id).expect("caller saw the view");
        view.set_stamp(pass.ident, pass.now);
        if let Some(Ok(state)) = resolved {
            view.state = state;
            pass.counters.add_propagation(0);
        }
    }

    /// Puts into [`Pass::done`] what leaf `child` contributes over a
    /// parent's span `(from, now]`: unchanged, or the log entries
    /// composed. Leaves no status when that is unknowable — a probe
    /// without a cached state, one naming a version inside the span that
    /// the fold skips, or a parent stamp older than the log — and returns
    /// whether it was the last.
    fn leaf_change(
        &mut self,
        child: ExprId,
        spec: TxSpec,
        from: RelStamp,
        pass: &mut Pass<'_>,
    ) -> bool {
        if matches!(pass.done.get(&child), Some((f, _)) if *f == from.1) {
            // Folded for a sibling parent at the same stamp.
            return false;
        }
        pass.done.remove(&child);
        let status = if self.probe_untouched(pass.ident, spec, from, pass.now) {
            Status::Bumped
        } else {
            // A probe's rules read its cached state, which `repair_rel`
            // just made current; a current leaf's is the store's.
            if matches!(spec, TxSpec::At(_)) && !self.views.contains_key(&child) {
                return false;
            }
            let Some(log) = self.logs.get_mut(pass.ident) else {
                return true;
            };
            let Some(idx) = log.after(from, pass.now) else {
                return true;
            };
            if matches!(spec, TxSpec::At(n) if n < pass.now.1) {
                return false;
            }
            Status::Changed(Some(log.fold(idx)))
        };
        pass.done.insert(child, (from.1, status));
        false
    }

    /// Whether a child of `parent` stands, on some relation other than
    /// the pass's, at a version the parent does not: another root has
    /// brought a cached child forward there (or the child was
    /// re-evaluated), or the child is a current leaf of a relation that
    /// has moved since the parent's stamp — such a leaf stands wherever
    /// the source stands.
    fn out_of_step(&self, parent: &NodeView, child: ExprId, pass: &Pass<'_>) -> bool {
        let apart = |ident: &str, stamp: Option<RelStamp>| {
            ident != pass.ident && parent.stamp(ident) != stamp
        };
        match current_leaf(self.interner.node(child)) {
            Some((ident, _)) => apart(ident, pass.src.relation_stamp(ident)),
            None => self.views.get(&child).is_some_and(|c| {
                c.stamps
                    .iter()
                    .any(|(ident, stamp)| apart(ident, Some(*stamp)))
            }),
        }
    }

    /// The store's current handles of `node`'s `ρ/ρ̂(I, ∞)` children,
    /// for one rule to read.
    fn borrow_leaves(&self, node: &ExprNode, src: &dyn StampSource) -> Vec<(ExprId, StateValue)> {
        node.children
            .iter()
            .filter_map(|&child| {
                let (ident, historical) = current_leaf(self.interner.node(child))?;
                let state = src.resolve_rollback(ident, TxSpec::Current, historical);
                Some((child, state.ok()?))
            })
            .collect()
    }

    /// Brings operator node `id`, stamped `from` and with its children
    /// already repaired, to `pass.now`: by stamp alone if no child
    /// changed, by its delta rule if every changed child's delta covers
    /// `(from, now]` and every child is otherwise the operand the cached
    /// state was computed from, else by recomputing it from the children.
    fn repair_op(&mut self, id: ExprId, node: &ExprNode, from: RelStamp, pass: &mut Pass<'_>) {
        let mut any_dropped = false;
        let mut any_changed = false;
        let mut any_unknown = false;
        let mut off_log = false;
        // The rules read the children's states as this node's old inputs
        // with only the pass's relation moved (× pairs the changed side's
        // removals with the *other* side as it stands). A child that is
        // ahead on another relation is not that input, and the pass for
        // that relation could not make up for it: pairs of two removed
        // rows would appear in neither pass.
        let view = self.views.get(&id).expect("caller saw the view");
        let out_of_step = node
            .children
            .iter()
            .any(|&child| self.out_of_step(view, child, pass));
        for &child in &node.children {
            let cnode = self.interner.node(child);
            if !cnode.reads_relation(pass.ident) {
                continue;
            }
            if let NodeOp::Rollback(_, spec) | NodeOp::HRollback(_, spec) = cnode.op {
                off_log |= self.leaf_change(child, spec, from, pass);
            }
            match pass.done.get(&child) {
                Some((f, status)) if *f == from.1 => match status {
                    Status::Bumped => {}
                    Status::Changed(Some(_)) => any_changed = true,
                    Status::Changed(None) => any_unknown = true,
                    Status::Dropped => any_dropped = true,
                },
                // Uncached, or repaired from another stamp: its change
                // over this node's span is unknown.
                _ => any_unknown = true,
            }
        }
        let status = if any_dropped {
            // The child's evaluation errors; so would this node's. Drop
            // the view — the next lookup reproduces the error from
            // scratch.
            self.views.remove(&id);
            pass.counters.add_invalidations(1);
            Status::Dropped
        } else if !any_changed && !any_unknown {
            let view = self.views.get_mut(&id).expect("caller saw the view");
            view.set_stamp(pass.ident, pass.now);
            Status::Bumped
        } else {
            // Out of the map, the old state has one owner and the rule
            // edits it in place.
            let old = self.views.remove(&id).expect("caller saw the view");
            let ruled = if any_unknown || out_of_step {
                None
            } else {
                let inputs = Inputs {
                    done: &pass.done,
                    views: &self.views,
                    leaves: self.borrow_leaves(node, pass.src),
                };
                delta_rule(node, old.state, &inputs)
            };
            match ruled {
                Some((state, delta)) => {
                    let mut view = NodeView {
                        state,
                        stamps: old.stamps,
                    };
                    view.set_stamp(pass.ident, pass.now);
                    self.views.insert(id, view);
                    pass.counters.add_propagation(delta.change_count() as u64);
                    Status::Changed(Some(delta))
                }
                // Targeted re-evaluation: the children hold their new
                // states, so this recomputes exactly one operator (plus
                // any uncached inputs).
                None => match self.eval_node(id, pass.src, pass.counters) {
                    Ok(_) => {
                        if off_log {
                            // Too far behind to repair: a re-evaluation.
                            pass.counters.add_invalidations(1);
                        } else {
                            pass.counters.add_fallback();
                        }
                        Status::Changed(None)
                    }
                    Err(_) => {
                        pass.counters.add_invalidations(1);
                        Status::Dropped
                    }
                },
            }
        };
        pass.done.insert(id, (from.1, status));
    }
}

/// Applies the per-operator delta rule for `node`, whose changed
/// children all carry exact deltas, to its old state `out_old`, in place
/// when the caller held the only handle. Returns the node's new state
/// and its own delta, or `None` when the rule declines (threshold, both
/// sides of a × or ⋈ changed, or a defensive kind mismatch) and the
/// caller should recompute.
fn delta_rule(
    node: &ExprNode,
    out_old: StateValue,
    inputs: &Inputs<'_>,
) -> Option<(StateValue, StateDelta)> {
    let c = |i: usize| node.children[i];
    match &node.op {
        NodeOp::Select(p) => {
            let (added, removed) = inputs.snap_delta(c(0))?;
            let StateValue::Snapshot(mut out) = out_old else {
                return None;
            };
            let compiled = p.compile(out.schema()).ok()?;
            let added: Vec<Tuple> = added.iter().filter(|t| compiled.eval(t)).cloned().collect();
            let removed: Vec<Tuple> = removed
                .iter()
                .filter(|t| compiled.eval(t))
                .cloned()
                .collect();
            out.apply_delta(&removed, &added).ok()?;
            Some((
                StateValue::Snapshot(out),
                StateDelta::Snapshot { added, removed },
            ))
        }
        NodeOp::Project(attrs) => {
            let (added, removed) = inputs.snap_delta(c(0))?;
            let child = inputs.snap_state(c(0))?;
            let StateValue::Snapshot(mut out) = out_old else {
                return None;
            };
            let (_, indices) = child.schema().project(attrs).ok()?;
            let prefix = kept_prefix(&indices);
            let added: BTreeSet<Tuple> = added.iter().map(|t| t.project(&indices)).collect();
            // A projected image loses membership only if *no* tuple of
            // the new child still projects to it, and only the rows that
            // agree with it on the kept leading attributes can.
            let images: BTreeSet<Tuple> = removed.iter().map(|t| t.project(&indices)).collect();
            let removed: Vec<Tuple> = images
                .into_iter()
                .filter(|img| {
                    let rows = &child.run()[preimages(child.run(), |t| t, &prefix, img)];
                    !added.contains(img) && !rows.iter().any(|u| projects_to(u, &indices, img))
                })
                .collect();
            let added: Vec<Tuple> = added.into_iter().collect();
            out.apply_delta(&removed, &added).ok()?;
            Some((
                StateValue::Snapshot(out),
                StateDelta::Snapshot { added, removed },
            ))
        }
        NodeOp::Union => {
            let (add_a, rem_a) = inputs.snap_delta(c(0))?;
            let (add_b, rem_b) = inputs.snap_delta(c(1))?;
            let a_new = inputs.snap_state(c(0))?;
            let b_new = inputs.snap_state(c(1))?;
            let StateValue::Snapshot(mut out) = out_old else {
                return None;
            };
            let added: Vec<Tuple> = add_a.iter().chain(add_b).cloned().collect();
            let removed: Vec<Tuple> = rem_a
                .iter()
                .chain(rem_b)
                .filter(|t| !a_new.contains(t) && !b_new.contains(t))
                .cloned()
                .collect();
            out.apply_delta(&removed, &added).ok()?;
            Some((
                StateValue::Snapshot(out),
                StateDelta::Snapshot { added, removed },
            ))
        }
        NodeOp::Difference => {
            let (add_a, rem_a) = inputs.snap_delta(c(0))?;
            let (add_b, rem_b) = inputs.snap_delta(c(1))?;
            let a_new = inputs.snap_state(c(0))?;
            let b_new = inputs.snap_state(c(1))?;
            let StateValue::Snapshot(mut out) = out_old else {
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
            out.apply_delta(&removed, &added).ok()?;
            Some((
                StateValue::Snapshot(out),
                StateDelta::Snapshot { added, removed },
            ))
        }
        NodeOp::Product => {
            let a_changed = inputs.changed(c(0));
            if a_changed && inputs.changed(c(1)) {
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
            let (add, rem) = inputs.snap_delta(delta_side)?;
            let fixed = inputs.snap_state(fixed_side)?;
            let changed = inputs.snap_state(delta_side)?;
            // Rule cost is Δ·|fixed| pairs vs |a|·|b| for a
            // recompute (cost.rs holds the headroom factor).
            if !delta_beats_reeval(
                (add.len() + rem.len()).saturating_mul(fixed.len()),
                changed.len().saturating_mul(fixed.len()),
            ) {
                return None;
            }
            let StateValue::Snapshot(mut out) = out_old else {
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
            out.apply_delta(&removed, &added).ok()?;
            Some((
                StateValue::Snapshot(out),
                StateDelta::Snapshot { added, removed },
            ))
        }
        NodeOp::Join(spec) => {
            // The changed side's delta goes through the join's own
            // kernel against the other side's new state: the pairs its
            // additions form arrive, those its removals formed leave. A
            // change on both sides recomputes, as for ×.
            let left = inputs.changed(c(0));
            if left && inputs.changed(c(1)) {
                return None;
            }
            let (changed, fixed) = if left { (c(0), c(1)) } else { (c(1), c(0)) };
            let (add, rem) = inputs.snap_delta(changed)?;
            let schema = inputs.snap_state(changed)?.schema();
            let fixed = inputs.snap_state(fixed)?;
            let pairs = |rows: &[Tuple]| {
                let rows = SnapshotState::new(schema.clone(), rows.iter().cloned()).ok()?;
                let joined = if left {
                    rows.equi_join(fixed, spec)
                } else {
                    fixed.equi_join(&rows, spec)
                };
                Some(joined.ok()?.run().to_vec())
            };
            let (added, removed) = (pairs(add)?, pairs(rem)?);
            let StateValue::Snapshot(mut out) = out_old else {
                return None;
            };
            out.apply_delta(&removed, &added).ok()?;
            Some((
                StateValue::Snapshot(out),
                StateDelta::Snapshot { added, removed },
            ))
        }
        NodeOp::HSelect(p) => {
            let (ups, rem) = inputs.hist_delta(c(0))?;
            let StateValue::Historical(mut out) = out_old else {
                return None;
            };
            let compiled = p.compile(out.schema()).ok()?;
            let upserted: Vec<Entry> = ups
                .iter()
                .filter(|(t, _)| compiled.eval(t))
                .cloned()
                .collect();
            let removed: Vec<Tuple> = rem.iter().filter(|t| compiled.eval(t)).cloned().collect();
            out.apply_delta(&removed, &upserted).ok()?;
            Some((
                StateValue::Historical(out),
                StateDelta::Historical { upserted, removed },
            ))
        }
        NodeOp::HProject(attrs) => {
            let (ups, rem) = inputs.hist_delta(c(0))?;
            let child = inputs.hist_state(c(0))?;
            let StateValue::Historical(mut out) = out_old else {
                return None;
            };
            let (_, indices) = child.schema().project(attrs).ok()?;
            let prefix = kept_prefix(&indices);
            // A changed image's new valid time is the union over all its
            // surviving pre-images, which agree with it on the kept
            // leading attributes.
            let candidates: BTreeSet<Tuple> = ups
                .iter()
                .map(|(t, _)| t.project(&indices))
                .chain(rem.iter().map(|t| t.project(&indices)))
                .collect();
            let mut upserted = Vec::new();
            let mut removed = Vec::new();
            for img in candidates {
                let rows = &child.run()[preimages(child.run(), |(t, _)| t, &prefix, &img)];
                let valid = rows
                    .iter()
                    .filter(|(u, _)| projects_to(u, &indices, &img))
                    .map(|(_, e)| e)
                    .fold(None, |acc: Option<TemporalElement>, e| {
                        Some(acc.map_or_else(|| e.clone(), |a| a.union(e)))
                    });
                match valid {
                    Some(e) => upserted.push((img, e)),
                    None => removed.push(img),
                }
            }
            out.apply_delta(&removed, &upserted).ok()?;
            Some((
                StateValue::Historical(out),
                StateDelta::Historical { upserted, removed },
            ))
        }
        NodeOp::HUnion => {
            let (ups_a, rem_a) = inputs.hist_delta(c(0))?;
            let (ups_b, rem_b) = inputs.hist_delta(c(1))?;
            let a_new = inputs.hist_state(c(0))?;
            let b_new = inputs.hist_state(c(1))?;
            let StateValue::Historical(mut out) = out_old else {
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
            out.apply_delta(&removed, &upserted).ok()?;
            Some((
                StateValue::Historical(out),
                StateDelta::Historical { upserted, removed },
            ))
        }
        NodeOp::HDifference => {
            let (ups_a, rem_a) = inputs.hist_delta(c(0))?;
            let (ups_b, rem_b) = inputs.hist_delta(c(1))?;
            let a_new = inputs.hist_state(c(0))?;
            let b_new = inputs.hist_state(c(1))?;
            let StateValue::Historical(mut out) = out_old else {
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
            out.apply_delta(&removed, &upserted).ok()?;
            Some((
                StateValue::Historical(out),
                StateDelta::Historical { upserted, removed },
            ))
        }
        NodeOp::HProduct => {
            let a_changed = inputs.changed(c(0));
            if a_changed && inputs.changed(c(1)) {
                return None;
            }
            let (delta_side, fixed_side, fixed_is_right) = if a_changed {
                (c(0), c(1), true)
            } else {
                (c(1), c(0), false)
            };
            let (ups, rem) = inputs.hist_delta(delta_side)?;
            let fixed = inputs.hist_state(fixed_side)?;
            let changed = inputs.hist_state(delta_side)?;
            if !delta_beats_reeval(
                (ups.len() + rem.len()).saturating_mul(fixed.len()),
                changed.len().saturating_mul(fixed.len()),
            ) {
                return None;
            }
            let StateValue::Historical(mut out) = out_old else {
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
            out.apply_delta(&removed, &upserted).ok()?;
            Some((
                StateValue::Historical(out),
                StateDelta::Historical { upserted, removed },
            ))
        }
        NodeOp::HJoin(spec) => {
            // As for ⋈, through the hatted kernel. The pairs a listed
            // tuple forms with its new valid time are upserted; every
            // pair it forms at all (its side read with all of time) that
            // is not upserted has left: a removed tuple's, and one whose
            // new valid time no longer meets its partner's.
            let left = inputs.changed(c(0));
            if left && inputs.changed(c(1)) {
                return None;
            }
            let (changed, fixed) = if left { (c(0), c(1)) } else { (c(1), c(0)) };
            let (ups, rem) = inputs.hist_delta(changed)?;
            let schema = inputs.hist_state(changed)?.schema();
            let fixed = inputs.hist_state(fixed)?;
            let pairs = |rows: Vec<Entry>| {
                let rows = HistoricalState::new(schema.clone(), rows).ok()?;
                let joined = if left {
                    rows.hequi_join(fixed, spec)
                } else {
                    fixed.hequi_join(&rows, spec)
                };
                Some(joined.ok()?.run().to_vec())
            };
            let upserted = pairs(ups.to_vec())?;
            let always = TemporalElement::from_chronon(0);
            let listed = rem.iter().chain(ups.iter().map(|(t, _)| t));
            let formed = pairs(listed.map(|t| (t.clone(), always.clone())).collect())?;
            let removed: Vec<Tuple> = formed
                .into_iter()
                .map(|(t, _)| t)
                .filter(|t| upserted.binary_search_by(|(u, _)| u.cmp(t)).is_err())
                .collect();
            let StateValue::Historical(mut out) = out_old else {
                return None;
            };
            out.apply_delta(&removed, &upserted).ok()?;
            Some((
                StateValue::Historical(out),
                StateDelta::Historical { upserted, removed },
            ))
        }
        NodeOp::Delta(g, v) => {
            let (ups, rem) = inputs.hist_delta(c(0))?;
            let child = inputs.hist_state(c(0))?;
            // δ's rule is O(Δ), but after a large churn the delta
            // approaches the input and a recompute's single fused
            // scan wins.
            if !delta_beats_reeval(ups.len() + rem.len(), child.len()) {
                return None;
            }
            let StateValue::Historical(mut out) = out_old else {
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
            out.apply_delta(&removed, &upserted).ok()?;
            Some((
                StateValue::Historical(out),
                StateDelta::Historical { upserted, removed },
            ))
        }
        NodeOp::Const(_) | NodeOp::Rollback(..) | NodeOp::HRollback(..) => None,
    }
}

/// The view memo: hash-consed expression keys over cached, incrementally
/// maintained states. Interior mutability throughout — lookups and
/// repair take `&self`, so the engine can consult it mid-borrow.
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
                logs: BTreeMap::new(),
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
        // A root the store answers without building a version it does
        // not return is not even interned.
        if expr.reads().is_empty() || answered_by_store(expr, src) {
            return MemoDecision::Evaluate { register: false };
        }
        let mut inner = self.lock();
        if inner.capacity == 0 {
            return MemoDecision::Evaluate { register: false };
        }
        inner.bound_interner();
        let id = inner.interner.intern(expr);
        // A cached root answers as it stands when no relation under it
        // has moved, and after a repair of its own nodes when one has.
        if let Some(state) = inner.current(id, src, &self.counters) {
            self.counters.add_hit();
            let tick = inner.bump_tick();
            if let Some(t) = inner.roots.get_mut(&id) {
                *t = tick;
            }
            return MemoDecision::Hit(state);
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

    /// Logs one `modify_state` against `ident` (already applied to the
    /// store, committed at `new_tx`) — the engine's write-path entry and
    /// the only contact between a write and the memo. `delta` yields
    /// what carried the previous state to `new`: the command's own delta
    /// when the engine folded one, else what the store's append left
    /// behind ([`DeltaStore::last_delta`]). `prev`, the relation's
    /// state just before the append, is consulted only when `delta`
    /// yields nothing (a caller with the delta in hand passes `None`
    /// rather than keep a second handle on a state it edits in place):
    /// the two states are then diffed on first demand, and `None` there
    /// means the relation's very first state.
    ///
    /// A relation no cached view reads has no log, and the call returns
    /// at that check, before `delta` is asked. Otherwise it is O(1) in
    /// the number of views and in the relation's size: one entry pushed
    /// (a copy of the commit's changes, or two state handles), the
    /// oldest trimmed. A scheme or state-kind boundary (no delta rule
    /// can cross it) purges the relation's readers and its log.
    ///
    /// [`DeltaStore::last_delta`]: crate::DeltaStore::last_delta
    pub fn queue_modify(
        &self,
        ident: &str,
        rel_id: u64,
        prev: Option<&StateValue>,
        new: &StateValue,
        delta: impl FnOnce() -> Option<StateDelta>,
        new_tx: TransactionNumber,
    ) {
        let mut inner = self.lock();
        let Some(log) = inner.logs.get_mut(ident) else {
            // No cached view reads the relation; anything registered
            // later evaluates against the already-modified store.
            return;
        };
        let change = match (delta(), prev) {
            (Some(StateDelta::Reschema(_)), _) | (None, None) => None,
            (Some(delta), _) => Some(Change::Delta(delta)),
            (None, Some(prev)) => same_shape(prev, new).then(|| Change::Unfolded {
                prev: prev.clone(),
                new: new.clone(),
            }),
        };
        match change.filter(|_| log.rel_id == rel_id) {
            Some(change) => log.push(new_tx, change, new.len()),
            None => {
                let dropped = inner.purge_relation(ident);
                self.counters.add_invalidations(dropped as u64);
            }
        }
    }

    /// Drops every cached view whose subtree reads `ident` — the sound
    /// response to deletion, scheme evolution, and history truncation.
    pub fn purge_relation(&self, ident: &str) {
        let mut inner = self.lock();
        let dropped = inner.purge_relation(ident);
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
            inner.logs.clear();
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
        let log_entries = inner.logs.values().map(|l| l.entries.len()).sum();
        let max_lag = inner
            .roots
            .keys()
            .filter_map(|id| inner.views.get(id))
            .flat_map(|view| &view.stamps)
            .filter_map(|(ident, stamp)| Some(inner.logs.get(ident)?.commits_after(stamp.1)))
            .max()
            .unwrap_or(0);
        self.counters
            .snapshot(inner.roots.len(), inner.views.len(), log_entries, max_lag)
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
    use txtime_core::JoinSpec;
    use txtime_snapshot::{CompOp, DomainType, Operand, Predicate, Value};

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

        fn relation_schema(&self, ident: &str) -> Option<Schema> {
            self.rels.get(ident).map(|(_, _, state)| match state {
                StateValue::Snapshot(s) => s.schema().clone(),
                StateValue::Historical(h) => h.schema().clone(),
            })
        }

        fn exec_pool(&self) -> &ExecPool {
            ExecPool::sequential()
        }
    }

    fn snap(vals: &[i64]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    /// `σ_{x op v}`, spelled `¬(x op' v)` with `op'` the negation of
    /// `op` so that it bounds no key: over a leaf it would otherwise be a
    /// key probe, which is never registered.
    fn where_x(e: Expr, op: CompOp, v: i64) -> Expr {
        let negated = Predicate::Comp(
            Operand::attr("x"),
            op.negate(),
            Operand::Const(Value::Int(v)),
        );
        e.select(negated.not())
    }

    fn positive(e: Expr) -> Expr {
        where_x(e, CompOp::Gt, 0)
    }

    /// Commits `vals` as version `tx` of relation `r` (catalog id 7) and
    /// logs it the way the engine does: with the store's delta, or — for
    /// a store that computes none — with the two state handles alone.
    fn commit(db: &mut FakeDb, memo: &ViewRegistry, tx: u64, vals: &[i64], with_delta: bool) {
        let prev = db.rels.get("r").map(|(_, _, s)| s.clone());
        let new = StateValue::Snapshot(snap(vals));
        db.set("r", 7, tx, new.clone());
        let delta = prev
            .as_ref()
            .filter(|_| with_delta)
            .map(|p| StateDelta::between(p, &new));
        memo.queue_modify("r", 7, prev.as_ref(), &new, || delta, TransactionNumber(tx));
    }

    fn register(memo: &ViewRegistry, db: &FakeDb, expr: &Expr) -> StateValue {
        memo.decide(expr, db);
        memo.eval_and_register(expr, db).unwrap()
    }

    fn hit(memo: &ViewRegistry, db: &FakeDb, expr: &Expr) -> StateValue {
        match memo.decide(expr, db) {
            MemoDecision::Hit(state) => state,
            other => panic!("expected a hit, got {other:?}"),
        }
    }

    #[test]
    fn register_then_hit_then_repair() {
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
        assert_eq!(hit(&memo, &db, &expr), v);

        // One tuple added, one removed; the view follows without a
        // re-evaluation, on the read that asks for it.
        commit(&mut db, &memo, 4, &[-1, 2, 5], true);
        assert_eq!(memo.stats().propagations, 0, "the write walks no view");
        assert_eq!(
            (memo.stats().log_entries, memo.stats().max_lag),
            (1, 1),
            "one commit logged, the root one commit behind"
        );
        assert_eq!(
            hit(&memo, &db, &expr),
            StateValue::Snapshot(snap(&[2, 5])),
            "a repaired view is a hit"
        );
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(
            stats.propagations, 1,
            "the select propagates; the leaf keeps no view"
        );
        assert_eq!((stats.repairs, stats.fallbacks, stats.max_lag), (1, 0, 0));
    }

    /// The pull-model successor of the flush-on-read test: a burst of
    /// writes between reads is logged entry by entry, and the read that
    /// asks folds the entries since *its* stamp into one net delta.
    #[test]
    fn a_write_burst_is_folded_by_the_read_that_asks_and_by_no_other() {
        for with_delta in [true, false] {
            let mut db = FakeDb::new();
            // Large enough that the burst stays under a quarter of it.
            let base: Vec<i64> = (-1..=40).collect();
            db.set("r", 7, 3, StateValue::Snapshot(snap(&base)));
            let memo = ViewRegistry::new();
            memo.set_register_after(1);
            let expr = positive(Expr::current("r"));
            let other = where_x(Expr::current("r"), CompOp::Lt, 0);
            register(&memo, &db, &expr);
            register(&memo, &db, &other);

            // +50, then −1 (which `other` holds), then +51 −50: the net
            // change under `expr` is {+51, −1}.
            let mut vals = base.clone();
            vals.push(50);
            commit(&mut db, &memo, 4, &vals, with_delta);
            vals.retain(|v| *v != -1 && *v != 1);
            commit(&mut db, &memo, 5, &vals, with_delta);
            vals.retain(|v| *v != 50);
            vals.push(51);
            commit(&mut db, &memo, 6, &vals, with_delta);
            let logged = memo.stats();
            assert_eq!(logged.propagations, 0, "writes walk no view");
            assert_eq!(logged.max_lag, 3);
            // A store that hands out no delta shares one unfolded entry
            // across the burst; one that does logs each commit.
            assert_eq!(logged.log_entries, if with_delta { 3 } else { 1 });

            let want: Vec<i64> = vals.iter().copied().filter(|v| *v > 0).collect();
            assert_eq!(
                hit(&memo, &db, &expr),
                StateValue::Snapshot(snap(&want)),
                "with_delta={with_delta}"
            );
            let stats = memo.stats();
            assert_eq!(
                (stats.repairs, stats.propagations, stats.fallbacks),
                (1, 1, 0),
                "one repair of the one view under the root that was read"
            );
            assert_eq!(
                stats.propagated_changes, 2,
                "the fold cancels {{+50, −50}} and the σ keeps {{+51, −1}}"
            );
            // The other root still stands where it stood, and catches
            // up when somebody reads it.
            assert_eq!(stats.max_lag, 3);
            assert_eq!(hit(&memo, &db, &other), StateValue::Snapshot(snap(&[])));
            assert_eq!(memo.stats().max_lag, 0);
        }
    }

    #[test]
    fn the_log_is_trimmed_and_a_view_behind_it_is_re_evaluated() {
        let mut db = FakeDb::new();
        let mut vals: Vec<i64> = (1..=16).collect();
        db.set("r", 7, 3, StateValue::Snapshot(snap(&vals)));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let expr = positive(Expr::current("r"));
        register(&memo, &db, &expr);
        // 10 000 one-row updates with nobody reading: two changes each,
        // and a 16-row relation tolerates four before recomputing wins.
        for i in 0..10_000u64 {
            vals[(i % 16) as usize] += 16;
            commit(&mut db, &memo, 4 + i, &vals, true);
            assert!(memo.stats().log_entries <= 2, "after {i} commits");
        }
        let before = memo.stats();
        assert_eq!(before.propagations, 0);
        assert!(before.max_lag >= 1, "a lower bound once off the log");
        assert_eq!(hit(&memo, &db, &expr), StateValue::Snapshot(snap(&vals)));
        let after = memo.stats();
        assert_eq!(
            (after.fallbacks, after.invalidations),
            (0, before.invalidations + 1),
            "too far behind: re-evaluated, counted as an invalidation"
        );
        // Back on the log, the next commit is repaired by rule again.
        vals[0] += 16;
        commit(&mut db, &memo, 20_000, &vals, true);
        assert_eq!(hit(&memo, &db, &expr), StateValue::Snapshot(snap(&vals)));
        assert_eq!(memo.stats().invalidations, after.invalidations);
    }

    #[test]
    fn a_view_stamped_inside_a_merged_unfolded_entry_is_re_evaluated() {
        let mut db = FakeDb::new();
        let mut vals: Vec<i64> = (1..=64).collect();
        db.set("r", 7, 3, StateValue::Snapshot(snap(&vals)));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let old = positive(Expr::current("r"));
        let young = where_x(Expr::current("r"), CompOp::Gt, 10);
        register(&memo, &db, &old);
        vals.push(100);
        commit(&mut db, &memo, 4, &vals, false);
        // Registered between two delta-less commits: they merge into one
        // entry, whose diff starts before this view's stamp.
        register(&memo, &db, &young);
        vals.push(101);
        commit(&mut db, &memo, 5, &vals, false);
        assert_eq!(memo.stats().log_entries, 1);
        let want = StateValue::Snapshot(snap(&vals));
        assert_eq!(hit(&memo, &db, &old), want, "starts where the entry starts");
        assert_eq!(memo.stats().invalidations, 0);
        let want: Vec<i64> = vals.iter().copied().filter(|v| *v > 10).collect();
        assert_eq!(hit(&memo, &db, &young), StateValue::Snapshot(snap(&want)));
        assert_eq!(memo.stats().invalidations, 1, "recomputed, not repaired");
    }

    /// What a delta store with checkpoints logs: deltas, with an
    /// undiffed entry at every checkpoint position in between.
    #[test]
    fn a_log_mixing_deltas_and_undiffed_entries_folds_and_trims() {
        let tx = TransactionNumber;
        let state = |vals: &[i64]| StateValue::Snapshot(snap(vals));
        let held = |log: &RelLog| log.entries.iter().map(|e| e.change.weight()).sum::<usize>();
        let undiffed = |log: &RelLog| {
            let forms = log.entries.iter();
            forms
                .map(|e| matches!(e.change, Change::Unfolded { .. }))
                .collect::<Vec<_>>()
        };

        // +50; −1 +51 (undiffed); −50.
        let mut vals: Vec<i64> = (1..=40).collect();
        let v0 = state(&vals);
        vals.push(50);
        let v1 = state(&vals);
        vals.retain(|v| *v != 1);
        vals.push(51);
        let v2 = state(&vals);
        vals.retain(|v| *v != 50);
        let v3 = state(&vals);
        let mut log = RelLog::new((7, tx(3)));
        log.push(
            tx(4),
            Change::Delta(StateDelta::between(&v0, &v1)),
            v1.len(),
        );
        let (prev, new) = (v1.clone(), v2.clone());
        log.push(tx(5), Change::Unfolded { prev, new }, v2.len());
        log.push(
            tx(6),
            Change::Delta(StateDelta::between(&v2, &v3)),
            v3.len(),
        );
        assert_eq!(undiffed(&log), [false, true, false]);
        assert_eq!((log.weight, held(&log)), (3, 3), "one step each so far");

        // A view at the newest stamp folds the last delta alone and
        // leaves the undiffed entry as it is.
        let now = (7, tx(6));
        let idx = log.after((7, tx(5)), now).unwrap();
        assert_eq!(log.fold(idx).apply(&v2), v3);
        assert_eq!(undiffed(&log), [false, true, false]);
        // One further back diffs it, once; the trim rule then weighs
        // what the diff found.
        let idx = log.after((7, tx(4)), now).unwrap();
        assert_eq!(log.fold(idx).apply(&v1), v3);
        assert_eq!(undiffed(&log), [false, false, false]);
        assert_eq!((log.weight, held(&log)), (4, 4));
        // From the base, across all three: 50 came and went, and the
        // composition drops it.
        let idx = log.after((7, tx(3)), now).unwrap();
        let folded = log.fold(idx);
        assert_eq!(folded, StateDelta::between(&v0, &v3));
        assert_eq!(folded.change_count(), 2);
        assert_eq!(log.after((7, tx(2)), now), None, "before the base");

        // Trimming: one-row updates, every third one undiffed. Forty
        // rows tolerate ten changes; the sum stays the entries' own.
        let mut versions: BTreeMap<_, _> = (3..).map(tx).zip([v0, v1, v2, v3.clone()]).collect();
        let mut prev = v3;
        for i in 0..300u64 {
            vals[(i % 40) as usize] += 100;
            let new = state(&vals);
            let change = if i % 3 == 0 {
                let (prev, new) = (prev.clone(), new.clone());
                Change::Unfolded { prev, new }
            } else {
                Change::Delta(StateDelta::between(&prev, &new))
            };
            log.push(tx(7 + i), change, new.len());
            assert_eq!(log.weight, held(&log), "after {i} pushes");
            assert!(log.entries.len() <= 10, "{} entries", log.entries.len());
            if i % 7 == 0 {
                // A reader now and then: its fold diffs what it needs.
                let now = (7, tx(7 + i));
                let idx = log.after((7, log.base), now).unwrap();
                let folded = log.fold(idx);
                assert_eq!(folded.apply(&versions[&log.base]), new, "at {i}");
                assert_eq!(log.weight, held(&log), "after a fold at {i}");
            }
            versions.insert(tx(7 + i), new.clone());
            prev = new;
        }
        assert!(log.base > tx(6), "the oldest entries went");
        assert_eq!(log.head(), tx(306));
    }

    /// 300 versions of a 40-row relation, each one to three tuples away
    /// from the last; tuples leave and come back, and historical ones are
    /// revalued (sometimes back to their old valid time).
    fn versions(historical: bool) -> Vec<StateValue> {
        let mut seed = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % bound
        };
        let mut rows: BTreeMap<i64, u32> = (0..40).map(|x| (x, 5)).collect();
        let state = |rows: &BTreeMap<i64, u32>| {
            let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
            let tuples = rows.iter().map(|(&x, &end)| {
                let valid = TemporalElement::period(0, end);
                (Tuple::new(vec![Value::Int(x)]), valid)
            });
            if historical {
                StateValue::Historical(HistoricalState::new(schema, tuples).unwrap())
            } else {
                let tuples = tuples.map(|(t, _)| t);
                StateValue::Snapshot(SnapshotState::new(schema, tuples).unwrap())
            }
        };
        let mut out = vec![state(&rows)];
        for _ in 0..300 {
            for _ in 0..=next(3) {
                let x = next(48) as i64;
                match rows.remove(&x) {
                    Some(end) if next(2) == 0 => {
                        rows.insert(x, 5 + (end + next(2) as u32) % 3);
                    }
                    Some(_) => {}
                    None => {
                        rows.insert(x, 5 + next(3) as u32);
                    }
                }
            }
            out.push(state(&rows));
        }
        out
    }

    /// The historical oracle: every tuple any entry of the span lists,
    /// settled against the newest state.
    fn settled(versions: &[StateValue]) -> StateDelta {
        let StateValue::Historical(current) = versions.last().unwrap() else {
            panic!("historical versions only");
        };
        let mut listed: BTreeSet<Tuple> = BTreeSet::new();
        for pair in versions.windows(2) {
            let StateDelta::Historical { upserted, removed } =
                StateDelta::between(&pair[0], &pair[1])
            else {
                panic!("one kind throughout");
            };
            listed.extend(upserted.into_iter().map(|(t, _)| t).chain(removed));
        }
        let (mut upserted, mut removed) = (Vec::new(), Vec::new());
        for t in listed {
            match current.valid_time(&t) {
                Some(e) => upserted.push((t.clone(), e.clone())),
                None => removed.push(t),
            }
        }
        StateDelta::Historical { upserted, removed }
    }

    /// The fold is the composition of the span it covers: from every
    /// stamp on the log, at every lag from 1 to 300, over a log that
    /// mixes deltas with undiffed entries, exactly `between` the two
    /// versions for snapshots and exactly [`settled`] for historical
    /// states. The trim weight follows the diffs.
    #[test]
    fn a_fold_composes_the_span_from_every_stamp() {
        let tx = TransactionNumber;
        let held = |log: &RelLog| log.entries.iter().map(|e| e.change.weight()).sum::<usize>();
        for historical in [false, true] {
            let versions = versions(historical);
            let mut log = RelLog::new((7, tx(0)));
            for (i, pair) in versions.windows(2).enumerate() {
                let change = if i % 3 == 1 {
                    let (prev, new) = (pair[0].clone(), pair[1].clone());
                    Change::Unfolded { prev, new }
                } else {
                    Change::Delta(StateDelta::between(&pair[0], &pair[1]))
                };
                // A relation large enough that nothing is trimmed.
                log.push(tx(i as u64 + 1), change, 1 << 20);
            }
            let now = (7, tx(300));
            for from in (0..300).rev() {
                let idx = log.after((7, tx(from)), now).unwrap();
                let folded = log.fold(idx);
                let span = &versions[from as usize..];
                let want = if historical {
                    settled(span)
                } else {
                    StateDelta::between(&span[0], &versions[300])
                };
                assert_eq!(folded, want, "historical: {historical}, lag {}", 300 - from);
                assert_eq!(folded.apply(&span[0]), versions[300]);
                assert_eq!(log.weight, held(&log), "lag {}", 300 - from);
            }
        }
    }

    /// A projection that keeps the child's leading attributes finds an
    /// image's pre-images by binary search, one kept attribute at a time:
    /// on a two-attribute key the range holds every row that projects to
    /// the image and no row that disagrees with it on the kept prefix.
    #[test]
    fn the_projection_prefix_bounds_pre_images_on_a_two_attribute_key() {
        let mut run: Vec<Tuple> = (0..4)
            .flat_map(|a| (0..4).flat_map(move |b| (0..3).map(move |c| (a, b, c))))
            .filter(|(a, b, c)| (a + b + c) % 4 != 1)
            .map(|(a, b, c)| Tuple::new(vec![Value::Int(a), Value::Int(2 * b), Value::Int(c)]))
            .collect();
        run.sort();
        let projections: [(&[usize], &[usize]); 6] = [
            (&[0, 1], &[0, 1]),
            (&[1, 0], &[1, 0]),
            (&[0, 2], &[0]),
            (&[2, 0, 1], &[1, 2, 0]),
            (&[1], &[]),
            (&[2, 1], &[]),
        ];
        for (indices, prefix) in projections {
            assert_eq!(kept_prefix(indices), prefix, "{indices:?}");
            // Every image present, and some absent ones between them.
            let mut images: BTreeSet<Tuple> = run.iter().map(|u| u.project(indices)).collect();
            images.extend((-1..9).map(|v| Tuple::new(vec![Value::Int(v); indices.len()])));
            for img in &images {
                let range = preimages(&run, |t| t, prefix, img);
                let agrees = |u: &Tuple| {
                    prefix
                        .iter()
                        .enumerate()
                        .all(|(attr, &at)| u.get(attr) == img.get(at))
                };
                for (i, u) in run.iter().enumerate() {
                    assert_eq!(range.contains(&i), agrees(u), "{indices:?} {img:?} row {i}");
                    assert!(!projects_to(u, indices, img) || range.contains(&i));
                }
            }
        }
    }

    /// A bare current leaf, a key probe (σ over a ρ leaf bounding the
    /// leading attribute, now or in the past, alone or under ∧), a σ/π
    /// chain with a σ straight over a past leaf, and a difference of two
    /// past versions of one relation are answered below the memo: never
    /// interned, counted or registered. The same σ over the current leaf
    /// spelled without a bound is registered as before.
    #[test]
    fn key_probes_and_bare_leaves_are_never_interned_or_counted() {
        let mut db = FakeDb::new();
        db.set("r", 7, 3, StateValue::Snapshot(snap(&[-1, 1, 2])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let at = || Expr::rollback("r", TxSpec::At(TransactionNumber(2)));
        let hat = || Expr::hrollback("r", TxSpec::At(TransactionNumber(2)));
        let bound = Predicate::gt_const("x", Value::Int(0));
        let x = || vec!["x".to_string()];
        let probes = [
            Expr::current("r"),
            Expr::hcurrent("r"),
            Expr::current("r").select(bound.clone()),
            at().select(Predicate::eq_const("x", Value::Int(1)).and(bound.clone().not())),
            Expr::hcurrent("r").hselect(bound.clone()),
            // Filtered past reads: σ straight over the leaf, under any
            // σ/π chain.
            positive(at()),
            positive(at()).project(x()),
            positive(positive(at())).project(x()).select(bound.clone()),
            hat().hselect(bound.clone().not()),
            hat().hselect(bound.clone().not()).hproject(x()),
            // Past differences of one relation, either way round.
            at().difference(Expr::rollback("r", TxSpec::At(TransactionNumber(1)))),
            Expr::rollback("r", TxSpec::At(TransactionNumber(1))).difference(at()),
        ];
        for probe in &probes {
            for _ in 0..3 {
                assert!(
                    matches!(
                        memo.decide(probe, &db),
                        MemoDecision::Evaluate { register: false }
                    ),
                    "{probe}"
                );
            }
        }
        assert_eq!(memo.stats(), MemoStats::default());
        assert_eq!(memo.interner_footprint().0, 0);
        assert!(matches!(
            memo.decide(&positive(Expr::current("r")), &db),
            MemoDecision::Evaluate { register: true }
        ));
        assert_eq!(memo.stats().misses, 1);
    }

    /// Roots the store would answer by building whole versions still
    /// register: a bare past leaf, a π-only chain over one, a σ over a π
    /// over one, ×/⋈ over past leaves, a historical difference (which
    /// the store declines), differences of two relations or of a past
    /// and a current leaf, and any σ or π over a current leaf.
    #[test]
    fn past_reads_the_store_builds_whole_still_register() {
        let mut db = FakeDb::new();
        db.set("r", 7, 3, StateValue::Snapshot(snap(&[-1, 1, 2])));
        db.set("s", 8, 3, StateValue::Snapshot(snap(&[1])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let at = |ident: &str, n| Expr::rollback(ident, TxSpec::At(TransactionNumber(n)));
        let hat = |n| Expr::hrollback("r", TxSpec::At(TransactionNumber(n)));
        let x = || vec!["x".to_string()];
        let keys = JoinSpec {
            keys: vec![("x".to_string(), "x".to_string())],
            residual: Predicate::True,
            physical: txtime_snapshot::JoinPhysical::Hash,
        };
        let roots = [
            at("r", 2),
            hat(2),
            at("r", 2).project(x()),
            hat(2).hproject(x()),
            positive(at("r", 2).project(x())),
            positive(at("r", 2).product(at("s", 1))),
            at("r", 2).join(keys.clone(), at("s", 1)),
            hat(2).hjoin(keys, hat(1)),
            hat(2).hproduct(hat(1)),
            hat(2).hdifference(hat(1)),
            at("r", 2).difference(at("s", 2)),
            at("r", 2).difference(Expr::current("r")),
            Expr::current("r").difference(at("r", 2)),
            positive(at("r", 2)).union(Expr::current("r")),
            positive(Expr::current("r")).project(x()),
            Expr::current("r").project(x()),
        ];
        for (i, root) in roots.iter().enumerate() {
            assert!(
                matches!(
                    memo.decide(root, &db),
                    MemoDecision::Evaluate { register: true }
                ),
                "{root}"
            );
            assert_eq!(memo.stats().misses, i as u64 + 1, "{root}");
        }
    }

    #[test]
    fn shared_subexpressions_share_views() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1, 2])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        // Both operands read the same σ(ρ(r, ∞)): three views (σ, the σ
        // over it, ∪), not four; the ρ(r, ∞) leaf keeps none.
        let shared = positive(Expr::current("r"));
        let narrower = shared
            .clone()
            .select(Predicate::lt_const("x", Value::Int(2)));
        let expr = shared.union(narrower);
        memo.decide(&expr, &db);
        memo.eval_and_register(&expr, &db).unwrap();
        assert_eq!(memo.stats().views, 3);
    }

    #[test]
    fn reschema_and_purge_drop_readers_and_their_log() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1])));
        db.set("s", 2, 2, StateValue::Snapshot(snap(&[2])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let on_r = positive(Expr::current("r"));
        let on_s = positive(Expr::current("s"));
        for e in [&on_r, &on_s] {
            register(&memo, &db, e);
        }
        assert_eq!(memo.stats().views, 2);
        // Lagging views (and the log they would have caught up from) go
        // with a purge like any other.
        for (ident, id, tx, vals) in [("r", 1, 3, [1, 5]), ("s", 2, 4, [2, 6])] {
            let prev = db.rels[ident].2.clone();
            let new = StateValue::Snapshot(snap(&vals));
            db.set(ident, id, tx, new.clone());
            let delta = StateDelta::between(&prev, &new);
            memo.queue_modify(
                ident,
                id,
                Some(&prev),
                &new,
                || Some(delta),
                TransactionNumber(tx),
            );
        }
        assert_eq!(memo.stats().log_entries, 2);

        // A reschema delta invalidates r's readers, leaves s's alone.
        let prev = db.rels["r"].2.clone();
        let other = StateValue::Snapshot(
            SnapshotState::from_rows(
                Schema::new(vec![("y", DomainType::Int)]).unwrap(),
                vec![vec![Value::Int(9)]],
            )
            .unwrap(),
        );
        let re = StateDelta::between(&prev, &other);
        assert!(matches!(re, StateDelta::Reschema(_)));
        memo.queue_modify(
            "r",
            1,
            Some(&prev),
            &other,
            || Some(re),
            TransactionNumber(5),
        );
        assert_eq!((memo.stats().views, memo.stats().log_entries), (1, 1));
        assert!(matches!(
            memo.decide(&on_s, &db),
            MemoDecision::Hit(s) if s == StateValue::Snapshot(snap(&[2, 6]))
        ));

        memo.purge_relation("s");
        assert_eq!((memo.stats().views, memo.stats().log_entries), (0, 0));
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
    fn a_state_kind_flip_purges_readers_at_the_write() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let e = positive(Expr::current("r"));
        register(&memo, &db, &e);
        assert_eq!(memo.stats().views, 1);

        // A state-kind flip has no delta rule; the write settles it on
        // the spot rather than logging an entry nobody could fold.
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
        memo.queue_modify("r", 1, Some(&prev), &hist, || None, TransactionNumber(2));
        assert_eq!((memo.stats().views, memo.stats().log_entries), (0, 0));
    }

    #[test]
    fn a_relation_nobody_reads_is_not_logged() {
        let mut db = FakeDb::new();
        db.set("r", 7, 3, StateValue::Snapshot(snap(&[1])));
        let memo = ViewRegistry::new();
        for tx in 4..100 {
            commit(&mut db, &memo, tx, &[tx as i64], true);
        }
        // The store is not even asked for the commit's delta.
        let (prev, new) = (db.rels["r"].2.clone(), StateValue::Snapshot(snap(&[0])));
        let unasked = || panic!("no reader, no delta");
        memo.queue_modify("r", 7, Some(&prev), &new, unasked, TransactionNumber(100));
        assert_eq!(memo.stats(), MemoStats::default());
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
    fn a_stale_stamp_the_log_cannot_explain_is_never_served() {
        let mut db = FakeDb::new();
        db.set("r", 1, 1, StateValue::Snapshot(snap(&[1])));
        let memo = ViewRegistry::new();
        memo.set_register_after(1);
        let e = positive(Expr::current("r"));
        register(&memo, &db, &e);
        // The relation moved and the memo was not told: the log does not
        // reach the new version, so no delta is trusted. The leaf reads
        // the store and the operator above it is recomputed.
        db.set("r", 1, 9, StateValue::Snapshot(snap(&[4])));
        assert_eq!(hit(&memo, &db, &e), StateValue::Snapshot(snap(&[4])));
        let stats = memo.stats();
        assert_eq!((stats.invalidations, stats.fallbacks), (1, 0));
        // The same under a redefined relation (a fresh catalog id).
        db.set("r", 2, 10, StateValue::Snapshot(snap(&[-3, 6])));
        assert_eq!(hit(&memo, &db, &e), StateValue::Snapshot(snap(&[6])));
    }
}
