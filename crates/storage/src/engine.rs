//! The storage engine: the language executed over an efficient store.
//!
//! `Engine` implements exactly the observable behaviour of the reference
//! semantics (`txtime_core`), but represents each rollback/temporal
//! relation with a [`DeltaStore`] instead of a list of full states, and
//! optionally journals every mutating command to a write-ahead log for
//! recovery. The equivalence is not assumed — it is
//! established by the differential tests in [`crate::equiv`].

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::num::NonZeroUsize;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use txtime_core::{
    Command, CommandOutcome, CoreError, EvalError, Expr, RelationType, RollbackFilter, StateSource,
    StateValue, TransactionNumber, TxSpec,
};
use txtime_exec::{ExecPool, ExecStats, MemoStats, OpKind};
use txtime_optimizer::{
    has_select_over_product, lower_joins, pushdown, CostModel, ExprId, ExprInterner,
    OptimizerStats, PlanReport, SchemaCatalog, SearchStats,
};

use crate::backend::{BackendKind, CheckpointPolicy};
use crate::cache::MaterializationCache;
use crate::delta::StateDelta;
use crate::delta_store::DeltaStore;
use crate::memo::{MemoDecision, RelStamp, StampSource, ViewRegistry};
use crate::metrics::{CacheStats, CompactionStats, InternerStats, RelationSpace, SpaceReport};
use crate::{update, wal};

/// Default fold interval for [`Engine::compact`] when the engine's
/// checkpoint policy is [`CheckpointPolicy::Never`]: compaction pins a
/// checkpoint every this-many versions, bounding worst-case rollback
/// replay to the same figure.
pub const DEFAULT_COMPACT_EVERY: usize = 32;

/// How many appends a relation accumulates before `modify_state`
/// opportunistically compacts its chain (see
/// [`Engine::set_auto_compact`]).
pub const DEFAULT_AUTO_COMPACT: usize = 64;

/// An error from [`Engine::execute_script`].
#[derive(Debug)]
pub enum ScriptError {
    /// The script did not parse.
    Parse(txtime_parser::ParseError),
    /// A command failed during execution.
    Exec(CoreError),
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScriptError::Parse(e) => write!(f, "parse error: {e}"),
            ScriptError::Exec(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for ScriptError {}

/// How one relation's versions are kept.
enum Keeper {
    /// Rollback/temporal relations: an append-only store.
    History(DeltaStore),
    /// Snapshot/historical relations: the single current version.
    Single(Option<(StateValue, TransactionNumber)>),
}

/// The two ways `modify_state` hands a new version to a keeper.
enum Arrival {
    /// The evaluated right-hand side: any expression.
    State(StateValue),
    /// What the right-hand side changes in the current state, folded
    /// from the command without evaluating it ([`Engine::command_delta`]).
    Delta(StateDelta),
}

/// A catalog entry.
struct StoredRelation {
    rtype: RelationType,
    keeper: Keeper,
    /// This relation's id in the shared materialization cache. Allocated
    /// fresh on every `define_relation`, so a deleted-and-redefined
    /// relation can never observe its predecessor's cached versions.
    rel_id: u64,
}

/// What the planner tracks incrementally per relation — enough to build
/// the cost-based searcher's schema catalog and cardinality model in
/// O(catalog) at plan time, without materializing any history.
#[derive(Default)]
struct RelMeta {
    /// The current version's schema, once one exists.
    schema: Option<txtime_snapshot::Schema>,
    /// Whether every version ever written shared that schema. Only
    /// stable relations enter the planner's [`SchemaCatalog`]: the
    /// searcher's rewrite guards require *exact* schema answers, and a
    /// scheme-evolved relation's ρ-at-older-tx leaves would lie.
    stable: bool,
    /// The current version's cardinality.
    card: usize,
}

impl RelMeta {
    fn fresh() -> RelMeta {
        RelMeta {
            schema: None,
            stable: true,
            card: 0,
        }
    }
}

/// The per-generation plan cache: inputs snapshotted at the clock value
/// `at_tx`, plans keyed by the canonical [`ExprId`] of the source
/// expression. A mutation bumps the clock and invalidates everything.
struct Planner {
    at_tx: Option<TransactionNumber>,
    /// Whether this generation's model holds the per-attribute
    /// statistics too, which only the search and `explain` read.
    harvested: bool,
    catalog: SchemaCatalog,
    model: CostModel,
    interner: ExprInterner,
    plans: HashMap<ExprId, Expr>,
    searches: u64,
    cache_hits: u64,
    totals: SearchStats,
}

impl Planner {
    fn new() -> Planner {
        Planner {
            at_tx: None,
            harvested: false,
            catalog: SchemaCatalog::new(),
            model: CostModel::new(),
            interner: ExprInterner::new(),
            plans: HashMap::new(),
            searches: 0,
            cache_hits: 0,
            totals: SearchStats::default(),
        }
    }
}

/// A database engine over delta-chain storage.
pub struct Engine {
    /// The stores' checkpoint interval: the one physical-design setting.
    checkpoints: CheckpointPolicy,
    tx: TransactionNumber,
    catalog: BTreeMap<String, StoredRelation>,
    wal: Option<(PathBuf, std::fs::File)>,
    /// When set, `execute` journals into [`Engine::wal_pending`] instead
    /// of the file; [`Engine::sync_wal`] writes the whole group with one
    /// write and one fsync — the group-commit discipline.
    wal_buffered: bool,
    /// Journal lines buffered since the last [`Engine::sync_wal`].
    wal_pending: Vec<u8>,
    /// How many commands those lines hold.
    wal_pending_cmds: usize,
    /// One materialization cache shared by every delta store.
    cache: Arc<MaterializationCache>,
    next_rel_id: u64,
    /// The worker pool queries run on; one thread ⇒ the exact
    /// sequential evaluator. Shared (`Arc`) with the server, which
    /// sizes its admission gate from it.
    pool: Arc<ExecPool>,
    /// Opportunistic compaction: every this-many appends to one
    /// relation, `modify_state` folds its delta chain (`None` disables).
    auto_compact: Option<NonZeroUsize>,
    /// The view memo: cached states for repeatedly evaluated
    /// expressions, maintained incrementally by `modify_state` deltas
    /// (logged O(1) per write; a read repairs the view it asks for).
    memo: ViewRegistry,
    /// Optimization level for `eval`: 0 = evaluate the expression as
    /// written, 1 = equi-selections over products lowered to joins plus
    /// error-preserving pushdown (the default), 2 = cost-based plan
    /// search over the `ExprId` DAG.
    optimize: u8,
    /// Incremental planner statistics, maintained O(1) per mutation.
    planner_meta: BTreeMap<String, RelMeta>,
    /// The level-2 plan cache (interior mutability: `eval` is `&self`).
    planner: Mutex<Planner>,
}

/// The optimization level from the environment: `TXTIME_OPTIMIZE` if set
/// to 0/1/2, otherwise 1 (join lowering and pushdown, no search).
fn optimize_from_env() -> u8 {
    std::env::var("TXTIME_OPTIMIZE")
        .ok()
        .and_then(|s| s.trim().parse::<u8>().ok())
        .map(|n| n.min(2))
        .unwrap_or(1)
}

/// Parses an opportunistic-compaction threshold (`--auto-compact`,
/// `TXTIME_AUTO_COMPACT`): a positive number of appends. Zero is
/// rejected — it would ask `modify_state` to compact after *every*
/// multiple of nothing; use [`Engine::set_auto_compact`]`(None)` to
/// disable the opportunistic pass instead.
pub fn parse_auto_compact(s: &str) -> Result<NonZeroUsize, String> {
    match s.trim().parse::<usize>() {
        Ok(0) => Err("auto-compact threshold must be at least 1".to_string()),
        Ok(n) => Ok(NonZeroUsize::new(n).expect("checked non-zero")),
        Err(_) => Err(format!("invalid auto-compact threshold {s:?}")),
    }
}

/// The opportunistic-compaction threshold from the environment:
/// `TXTIME_AUTO_COMPACT` if set to a positive integer, otherwise
/// [`DEFAULT_AUTO_COMPACT`]. Rejected values (zero, non-numeric) keep
/// the default — the CLI layer reports them as errors before an engine
/// is built.
fn auto_compact_from_env() -> Option<NonZeroUsize> {
    std::env::var("TXTIME_AUTO_COMPACT")
        .ok()
        .and_then(|s| parse_auto_compact(&s).ok())
        .or(NonZeroUsize::new(DEFAULT_AUTO_COMPACT))
}

impl Engine {
    /// An engine holding everything in memory, its history-keeping
    /// relations checkpointed per `checkpoints`. The [`BackendKind`]
    /// names the one store there is and is ignored; it stays until the
    /// benchmark harness stops passing it.
    pub fn new(_backend: BackendKind, checkpoints: CheckpointPolicy) -> Engine {
        Engine {
            checkpoints,
            tx: TransactionNumber(0),
            catalog: BTreeMap::new(),
            wal: None,
            wal_buffered: false,
            wal_pending: Vec::new(),
            wal_pending_cmds: 0,
            cache: MaterializationCache::shared(),
            next_rel_id: 0,
            pool: Arc::new(ExecPool::from_env()),
            auto_compact: auto_compact_from_env(),
            memo: ViewRegistry::new(),
            optimize: optimize_from_env(),
            planner_meta: BTreeMap::new(),
            planner: Mutex::new(Planner::new()),
        }
    }

    /// An engine that additionally journals every successful mutating
    /// command to the write-ahead log at `path` (created or appended).
    pub fn with_wal(
        checkpoints: CheckpointPolicy,
        path: impl AsRef<Path>,
    ) -> std::io::Result<Engine> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        let mut e = Engine::new(BackendKind::ForwardDelta, checkpoints);
        e.wal = Some((path.as_ref().to_path_buf(), file));
        Ok(e)
    }

    /// The engine's transaction clock.
    pub fn tx(&self) -> TransactionNumber {
        self.tx
    }

    /// The defined relation names, sorted.
    pub fn relations(&self) -> Vec<&str> {
        self.catalog.keys().map(String::as_str).collect()
    }

    /// The type of relation `ident`, if defined.
    pub fn relation_type(&self, ident: &str) -> Option<RelationType> {
        self.catalog.get(ident).map(|r| r.rtype)
    }

    /// Number of stored versions of relation `ident`.
    pub fn version_count(&self, ident: &str) -> Option<usize> {
        self.catalog.get(ident).map(|r| match &r.keeper {
            Keeper::History(s) => s.version_count(),
            Keeper::Single(v) => usize::from(v.is_some()),
        })
    }

    /// Executes one command, journaling it if it mutates and succeeds.
    /// In buffered-WAL mode (see [`Engine::set_wal_buffered`]) the
    /// journal line lands in the pending group instead of the file; the
    /// command is durable only after the next [`Engine::sync_wal`].
    pub fn execute(&mut self, cmd: &Command) -> Result<CommandOutcome, CoreError> {
        let outcome = self.apply(cmd)?;
        if cmd.is_mutation() && self.wal.is_some() {
            if self.wal_buffered {
                wal::append_command(&mut self.wal_pending, cmd)
                    .map_err(|e| CoreError::SchemeChange(format!("WAL write failed: {e}")))?;
                self.wal_pending_cmds += 1;
            } else if let Some((_, file)) = &mut self.wal {
                wal::append_command(file, cmd)
                    .map_err(|e| CoreError::SchemeChange(format!("WAL write failed: {e}")))?;
                let _ = file.flush();
            }
        }
        Ok(outcome)
    }

    /// Switches the journal between write-through (the default: every
    /// mutation is appended and flushed immediately) and group-buffered
    /// mode, where mutations accumulate in memory until
    /// [`Engine::sync_wal`] commits the whole group with one write and
    /// one fsync. Turning buffering *off* flushes anything pending.
    pub fn set_wal_buffered(&mut self, buffered: bool) {
        self.wal_buffered = buffered;
        if !buffered {
            let _ = self.sync_wal();
        }
    }

    /// How many journaled commands are buffered but not yet durable.
    pub fn wal_pending_commands(&self) -> usize {
        self.wal_pending_cmds
    }

    /// Forces the journal to durable storage: the pending group (if any)
    /// is written with a single `write_all`, then the file is fsynced
    /// once — the group-commit point. Callers without buffering get the
    /// per-commit-fsync discipline by calling this after each `execute`.
    /// Returns how many buffered commands the call made durable (the
    /// fsync happens regardless). A no-op without a WAL.
    pub fn sync_wal(&mut self) -> std::io::Result<usize> {
        let Some((_, file)) = &mut self.wal else {
            return Ok(0);
        };
        let flushed = self.wal_pending_cmds;
        if !self.wal_pending.is_empty() {
            file.write_all(&self.wal_pending)?;
            self.wal_pending.clear();
            self.wal_pending_cmds = 0;
        }
        file.flush()?;
        file.sync_all()?;
        Ok(flushed)
    }

    /// Attaches a journal at `path` (created or appended) to an engine
    /// built without one — the serve path recovers an engine from an
    /// existing journal first, then attaches the same file for append.
    pub fn attach_wal(&mut self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path.as_ref())?;
        self.wal = Some((path.as_ref().to_path_buf(), file));
        Ok(())
    }

    /// Flushes what an orderly shutdown must not lose: the pending WAL
    /// group is written and fsynced. `Drop` calls this, so an engine
    /// going out of scope — `txtime serve` winding down, a panicking
    /// test — never strands acked work in memory. Idempotent. (The view
    /// memo dies with its engine and has nothing to settle: a lagging
    /// view is repaired by whoever reads it, or not at all.)
    pub fn shutdown(&mut self) {
        let _ = self.sync_wal();
    }

    /// Executes a batch; stops at the first error (the caller decides
    /// whether to continue, mirroring `Sentence::eval` vs `eval_total`).
    pub fn execute_all(&mut self, cmds: &[Command]) -> Result<Vec<CommandOutcome>, CoreError> {
        cmds.iter().map(|c| self.execute(c)).collect()
    }

    /// Evaluates a query expression against the engine's current
    /// contents.
    ///
    /// The expression is first normalized with the error-preserving
    /// pushdown rules ([`txtime_optimizer::pushdown`]) so that selections
    /// land directly on ρ/ρ̂ leaves, where the evaluator hands them to
    /// [`StateSource::resolve_rollback_filtered`] and the stores filter
    /// during reconstruction. The rewrite is outcome-preserving on every
    /// database, so the engine stays observationally identical to the
    /// reference semantics — the differential tests in [`crate::equiv`]
    /// check exactly this entry point.
    ///
    /// With a multi-thread pool (see [`Engine::set_threads`]) the
    /// rewritten expression runs on the pool-scheduled evaluator, whose
    /// partitioned kernels split operands past their break-even grain;
    /// it is result- and error-identical to the sequential one (the
    /// parallel-determinism property tests pin this), and one thread
    /// takes the exact sequential path.
    ///
    /// The view memo is consulted first: a repeatedly evaluated
    /// expression is answered from its cached state, brought forward
    /// first through the logged `modify_state` deltas if a relation under
    /// it has moved (that view only; every other view stays behind); an
    /// expression crossing the registration threshold is evaluated
    /// node-wise so every subexpression's state is cached. Both paths
    /// are observationally identical — value and error — to the plain
    /// evaluation; the memo differential tests pin this. Only reads
    /// come here: `modify_state` evaluates its expression with
    /// [`Engine::eval_unmemoized`] and touches the memo through
    /// `queue_modify` alone.
    pub fn eval(&self, expr: &Expr) -> Result<StateValue, EvalError> {
        // Level 2: cost-based search first, so the memo keys (and
        // registers views for) the *canonical* plan — every source
        // expression in the plan's equivalence group maps to the same
        // `ExprId`s and therefore hits the same cached views.
        let expr = self.planned(expr);
        match self.memo.decide(&expr, self) {
            MemoDecision::Hit(state) => Ok(state),
            MemoDecision::Evaluate { register: true } => self.memo.eval_and_register(&expr, self),
            MemoDecision::Evaluate { register: false } => self.eval_plan(&expr),
        }
    }

    /// The write path's evaluator: the same plan `eval` would run, on
    /// the plain evaluator. A write decides nothing in the memo, counts
    /// towards no registration and repairs no view while the caller
    /// holds the engine exclusively, so its cost depends on the
    /// relations it reads and not on how many views the memo holds.
    fn eval_unmemoized(&self, expr: &Expr) -> Result<StateValue, EvalError> {
        self.eval_plan(&self.planned(expr))
    }

    /// `expr` itself at optimize level 0, its equi-selections over
    /// products lowered to joins at level 1, the searched plan at 2.
    fn planned<'a>(&self, expr: &'a Expr) -> Cow<'a, Expr> {
        match self.optimize {
            0 => Cow::Borrowed(expr),
            1 => self.lowered(expr).map_or(Cow::Borrowed(expr), Cow::Owned),
            _ => Cow::Owned(self.plan(expr)),
        }
    }

    /// Level 1's join lowering ([`lower_joins`]) against this
    /// generation's schema catalog; `None` when nothing lowers.
    fn lowered(&self, expr: &Expr) -> Option<Expr> {
        if !has_select_over_product(expr) {
            return None;
        }
        let mut planner = self.planner.lock().unwrap_or_else(|e| e.into_inner());
        self.refresh_planner(&mut planner, false);
        lower_joins(expr, &planner.catalog)
    }

    /// Runs a plan on the plain evaluator, which is untouched by
    /// planning.
    fn eval_plan(&self, plan: &Expr) -> Result<StateValue, EvalError> {
        let rewritten = if self.optimize == 0 {
            Cow::Borrowed(plan)
        } else {
            Cow::Owned(pushdown(plan))
        };
        // Join-bearing plans always take the pool path: with a
        // one-thread pool the kernels run inline (identical to the
        // sequential evaluator), and the pool's join counters record
        // build/probe sides either way.
        if self.pool.threads() > 1 || rewritten.contains_join() {
            rewritten.eval_with_pool(self, &self.pool)
        } else {
            rewritten.eval_with(self)
        }
    }

    /// The cost-based plan for `expr` at the current clock, answered
    /// from the per-generation cache when the same expression (by
    /// canonical `ExprId`) was already planned this generation.
    fn plan(&self, expr: &Expr) -> Expr {
        let mut planner = self.planner.lock().unwrap_or_else(|e| e.into_inner());
        self.refresh_planner(&mut planner, true);
        let id = planner.interner.intern(expr);
        if let Some(plan) = planner.plans.get(&id).cloned() {
            planner.cache_hits += 1;
            return plan;
        }
        let started = std::time::Instant::now();
        let report = txtime_optimizer::search(expr, &planner.catalog, &planner.model);
        self.pool.record_external(
            OpKind::Optimize,
            report.stats.plans_enumerated.max(1),
            started.elapsed(),
        );
        planner.searches += 1;
        planner.totals.absorb(&report.stats);
        planner.plans.insert(id, report.plan.clone());
        report.plan
    }

    /// Rebuilds the planner's inputs when the clock has moved since they
    /// were last snapshotted (any mutation bumps the clock, so a stale
    /// catalog or model is impossible to observe): the schema catalog and
    /// the cardinalities, O(catalog) from [`RelMeta`], and with
    /// `with_stats` the per-attribute statistics the search and `explain`
    /// cost plans by, which level 1's lowering never reads.
    fn refresh_planner(&self, planner: &mut Planner, with_stats: bool) {
        if planner.at_tx != Some(self.tx) {
            planner.at_tx = Some(self.tx);
            planner.harvested = false;
            planner.plans.clear();
            planner.interner = ExprInterner::new();
            planner.catalog = SchemaCatalog::new();
            planner.model = CostModel::new();
            for (name, meta) in &self.planner_meta {
                planner
                    .model
                    .set_cardinality(name.clone(), meta.card as f64);
                if let (true, Some(schema)) = (meta.stable, &meta.schema) {
                    planner.catalog.insert(name.clone(), schema.clone());
                }
            }
        }
        if !with_stats || planner.harvested {
            return;
        }
        planner.harvested = true;
        let model = &mut planner.model;
        for (name, meta) in &self.planner_meta {
            let (true, Some(schema)) = (meta.stable, &meta.schema) else {
                continue;
            };
            // Current-version value ranges feed range selectivity. One
            // state clone per stable relation per generation — only when
            // a query to search or explain actually arrives.
            if let Some(state) = self.current_state(name) {
                let (_, ranges, columns) = state_stats(&state);
                if let Some(ranges) = ranges {
                    for (attr, range) in schema.attributes().iter().zip(ranges) {
                        model.note_attr_range(attr.name.to_string(), range);
                    }
                }
                if let Some(columns) = columns {
                    for (attr, col) in schema.attributes().iter().zip(columns) {
                        model.note_attr_distinct(attr.name.to_string(), col.distinct as f64);
                        model.note_attr_mcvs(attr.name.to_string(), col.mcvs);
                    }
                }
            }
        }
    }

    /// Records the schema and cardinality of `ident`'s newest version in
    /// the planner's incremental statistics.
    fn note_state_meta(&mut self, ident: &str, state: &StateValue) {
        let (schema, card) = match state {
            StateValue::Snapshot(s) => (s.schema().clone(), s.len()),
            StateValue::Historical(h) => (h.schema().clone(), h.len()),
        };
        let meta = self
            .planner_meta
            .entry(ident.to_string())
            .or_insert_with(RelMeta::fresh);
        meta.card = card;
        if let Some(prev) = &meta.schema {
            if *prev != schema {
                meta.stable = false;
            }
        }
        meta.schema = Some(schema);
    }

    /// The optimization level `eval` runs at (see [`Engine::set_optimize`]).
    pub fn optimize_level(&self) -> u8 {
        self.optimize
    }

    /// Sets the optimization level: 0 evaluates expressions as written,
    /// 1 applies the error-preserving pushdown rules (the default), 2
    /// runs the cost-based plan search (`txtime --optimize`, REPL
    /// `\optimize`, `TXTIME_OPTIMIZE`). Values above 2 clamp to 2.
    pub fn set_optimize(&mut self, level: u8) {
        self.optimize = level.min(2);
        let mut planner = self.planner.lock().unwrap_or_else(|e| e.into_inner());
        planner.at_tx = None; // force a refresh on the next plan
    }

    /// Lifetime optimizer counters — `txtime stats` and the REPL's
    /// `\optimize` read this.
    pub fn optimizer_stats(&self) -> OptimizerStats {
        let planner = self.planner.lock().unwrap_or_else(|e| e.into_inner());
        OptimizerStats {
            level: self.optimize,
            searches: planner.searches,
            plan_cache_hits: planner.cache_hits,
            totals: planner.totals,
        }
    }

    /// The plan `eval` would run for `expr` at the current level, fully
    /// rendered: the plan tree with per-node row/cost estimates, the
    /// cost summary, and the rewrite trace (`txtime explain`, REPL
    /// `\plan`).
    pub fn explain(&self, expr: &Expr) -> String {
        let mut planner = self.planner.lock().unwrap_or_else(|e| e.into_inner());
        self.refresh_planner(&mut planner, true);
        let report = match self.optimize {
            2 => txtime_optimizer::search(expr, &planner.catalog, &planner.model),
            level => {
                // Levels 0/1 don't search; report the plan they run.
                let plan = if level == 0 {
                    expr.clone()
                } else {
                    let lowered = lower_joins(expr, &planner.catalog);
                    pushdown(lowered.as_ref().unwrap_or(expr))
                };
                PlanReport {
                    cost: txtime_optimizer::estimate_cost(&plan, &planner.model),
                    rows: txtime_optimizer::estimate_rows(&plan, &planner.model),
                    original_cost: txtime_optimizer::estimate_cost(expr, &planner.model),
                    plan,
                    trace: Default::default(),
                    stats: SearchStats::default(),
                }
            }
        };
        txtime_optimizer::render_explain(self.optimize, expr, &report, &planner.model)
    }

    /// Resolves a batch of rollback probes — `(relation, tx)` pairs —
    /// together. `result[i]` is observably identical to evaluating
    /// `ρ(probes[i].0, probes[i].1)` (or ρ̂, per the relation's own type)
    /// with [`Engine::eval`], but the work is batched: probes are grouped
    /// by relation, each delta store replays its chain once per batch via
    /// [`DeltaStore::state_at_many`] instead of once per probe
    /// (warming the materialization cache with every version it passes),
    /// and distinct relations with past probes resolve on concurrent
    /// pool workers.
    pub fn resolve_many(&self, probes: &[(&str, TxSpec)]) -> Vec<Result<StateValue, EvalError>> {
        // With no past probe there is no chain to replay: every answer is
        // a handle clone, so the batch is answered in order, inline,
        // without grouping it or going through the pool.
        if probes.iter().all(|(_, spec)| *spec == TxSpec::Current) {
            let started = std::time::Instant::now();
            let out = probes
                .iter()
                .map(|(ident, _)| self.resolve_current(ident))
                .collect();
            self.pool
                .record_external(OpKind::Resolve, 1, started.elapsed());
            return out;
        }
        let mut groups: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, (ident, _)) in probes.iter().enumerate() {
            groups.entry(ident).or_default().push(i);
        }
        let groups: Vec<(&str, Vec<usize>)> = groups.into_iter().collect();
        // A worker per relation pays only where there is a chain to
        // replay: `ρ(I, ∞)` is a handle clone, far below the cost of a
        // spawn, so a batch fans out only if at least two of its groups
        // carry a past probe.
        let replaying = groups
            .iter()
            .filter(|(_, indices)| {
                indices
                    .iter()
                    .any(|&i| matches!(probes[i].1, TxSpec::At(_)))
            })
            .count();
        let grain = if replaying >= 2 { 1 } else { groups.len() };
        let scattered = self
            .pool
            .map_chunks(OpKind::Resolve, &groups, grain, |chunk| {
                chunk
                    .iter()
                    .flat_map(|(ident, indices)| self.resolve_group(ident, indices, probes))
                    .collect::<Vec<_>>()
            });
        let mut out: Vec<Option<Result<StateValue, EvalError>>> =
            probes.iter().map(|_| None).collect();
        for (i, r) in scattered.into_iter().flatten() {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every probe resolved"))
            .collect()
    }

    /// `ρ(ident, ∞)` (or ρ̂, per the relation's type): a handle clone,
    /// with no replay and no type rule that could fail.
    fn resolve_current(&self, ident: &str) -> Result<StateValue, EvalError> {
        match self.catalog.get(ident).map(|rel| &rel.keeper) {
            None => Err(EvalError::UndefinedRelation(ident.to_string())),
            Some(Keeper::Single(Some((s, _)))) => Ok(s.clone()),
            Some(Keeper::Single(None)) => Err(EvalError::EmptyRelation(ident.to_string())),
            Some(Keeper::History(store)) => Engine::current_of(store, ident),
        }
    }

    /// A store's newest state, or the empty state a rollback before its
    /// first version answers.
    fn current_of(store: &DeltaStore, ident: &str) -> Result<StateValue, EvalError> {
        match store.current() {
            Some(s) => Ok(s),
            None => Engine::empty_like_first(store, ident),
        }
    }

    /// One relation's slice of a [`Engine::resolve_many`] batch: answers
    /// tagged with their probe index.
    fn resolve_group(
        &self,
        ident: &str,
        indices: &[usize],
        probes: &[(&str, TxSpec)],
    ) -> Vec<(usize, Result<StateValue, EvalError>)> {
        let Some(rel) = self.catalog.get(ident) else {
            return indices
                .iter()
                .map(|&i| (i, Err(EvalError::UndefinedRelation(ident.to_string()))))
                .collect();
        };
        // ρ for snapshot-state relations, ρ̂ for historical-state ones —
        // the caller names a relation, not an operator, so the flag comes
        // from the catalog and the shared type rules do the rest (e.g.
        // ρ(s, N) on a snapshot relation still fails).
        let historical = rel.rtype.holds_historical();
        match &rel.keeper {
            Keeper::Single(slot) => indices
                .iter()
                .map(|&i| {
                    let r = self
                        .rollback_relation(ident, probes[i].1, historical)
                        .and_then(|_| match slot {
                            Some((s, _)) => Ok(s.clone()),
                            None => Err(EvalError::EmptyRelation(ident.to_string())),
                        });
                    (i, r)
                })
                .collect(),
            Keeper::History(store) => {
                let mut results = Vec::with_capacity(indices.len());
                let mut at_indices = Vec::new();
                let mut at_txs = Vec::new();
                for &i in indices {
                    match probes[i].1 {
                        TxSpec::Current => results.push((i, Engine::current_of(store, ident))),
                        TxSpec::At(n) => {
                            at_indices.push(i);
                            at_txs.push(n);
                        }
                    }
                }
                let answers = store.state_at_many(&at_txs);
                for (i, ans) in at_indices.into_iter().zip(answers) {
                    let r = match ans {
                        Some(s) => Ok(s),
                        None => Engine::empty_like_first(store, ident),
                    };
                    results.push((i, r));
                }
                results
            }
        }
    }

    /// The pool's thread budget.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Replaces the worker pool with one of `threads` threads, clamped
    /// to the host's available parallelism (0 is clamped to 1 =
    /// sequential) — asking for more threads than cores would only add
    /// contention. Resets the exec counters. The effective (clamped)
    /// budget is echoed by [`Engine::exec_stats`].
    pub fn set_threads(&mut self, threads: usize) {
        self.set_pool(ExecPool::clamped(threads));
    }

    /// Replaces the worker pool outright — the differential suites'
    /// entry for a pool [`Engine::set_threads`] would not build (an
    /// unclamped budget, [`ExecPool::with_unit_grain`]).
    #[doc(hidden)]
    pub fn set_pool(&mut self, pool: ExecPool) {
        self.pool = Arc::new(pool);
    }

    /// Reconfigures opportunistic compaction: every `every` appends to a
    /// relation, `modify_state` folds its delta chain; `None` disables
    /// (the benchmarks' uncompacted baseline).
    pub fn set_auto_compact(&mut self, every: Option<NonZeroUsize>) {
        self.auto_compact = every;
    }

    /// The opportunistic-compaction threshold in effect (`None` =
    /// disabled). Defaults to `TXTIME_AUTO_COMPACT` when the environment
    /// sets it to a positive integer, else [`DEFAULT_AUTO_COMPACT`].
    pub fn auto_compact(&self) -> Option<NonZeroUsize> {
        self.auto_compact
    }

    /// A handle to the engine's worker pool — the server sizes its
    /// admission gate from the pool's thread budget and attributes
    /// per-request service time to it (`OpKind::Serve`).
    pub fn pool(&self) -> Arc<ExecPool> {
        self.pool.clone()
    }

    /// The fold interval [`Engine::compact`] uses when none is given:
    /// the checkpoint policy's own `k`, or [`DEFAULT_COMPACT_EVERY`]
    /// under [`CheckpointPolicy::Never`].
    pub fn default_compact_every(&self) -> NonZeroUsize {
        match self.checkpoints {
            CheckpointPolicy::EveryK(k) => k,
            CheckpointPolicy::Never => {
                NonZeroUsize::new(DEFAULT_COMPACT_EVERY).expect("constant is non-zero")
            }
        }
    }

    /// Folds every history-keeping relation's delta chain into
    /// materialized checkpoints so no rollback probe replays more than
    /// `every` deltas (default: [`Engine::default_compact_every`]).
    /// Relations compact concurrently on the worker pool
    /// (`OpKind::Compact` in [`Engine::exec_stats`]); answers are
    /// unchanged — compaction only pins states the chain already
    /// determines. Returns the merged counters for this pass.
    pub fn compact(&mut self, every: Option<NonZeroUsize>) -> CompactionStats {
        let every = every.unwrap_or_else(|| self.default_compact_every());
        let stores: Vec<Mutex<&mut DeltaStore>> = self
            .catalog
            .values_mut()
            .filter_map(|rel| match &mut rel.keeper {
                Keeper::History(store) => Some(Mutex::new(store)),
                Keeper::Single(_) => None,
            })
            .collect();
        let merged = self
            .pool
            .map_chunks(OpKind::Compact, &stores, 1, |chunk| {
                chunk.iter().fold(CompactionStats::default(), |acc, m| {
                    let stats = m.lock().unwrap_or_else(|e| e.into_inner()).compact(every);
                    acc.merged(stats)
                })
            })
            .into_iter()
            .fold(CompactionStats::default(), |acc, s| acc.merged(s));
        merged
    }

    /// Per-operator counters from the worker pool (wall time, calls,
    /// chunks) — surfaced by `txtime stats`.
    pub fn exec_stats(&self) -> ExecStats {
        self.pool.stats()
    }

    /// Physical-join gauges (kernel invocations, build/probe rows,
    /// probe partitions) — surfaced by `txtime stats` and the REPL.
    pub fn join_stats(&self) -> txtime_exec::JoinStats {
        self.pool.join_stats()
    }

    /// Zeroes the worker pool's counters.
    pub fn reset_exec_stats(&self) {
        self.pool.reset_stats();
    }

    /// Counters from the shared materialization cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Resizes the shared materialization cache; 0 disables caching
    /// (the benchmarks' uncached baseline).
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.cache.set_capacity(capacity);
    }

    /// Resets the cache counters without dropping cached versions.
    pub fn reset_cache_stats(&self) {
        self.cache.reset_stats();
    }

    /// Counters and gauges from the view memo.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Zeroes the memo counters without dropping cached views.
    pub fn reset_memo_stats(&self) {
        self.memo.reset_stats();
    }

    /// Resizes the view memo's root capacity; 0 disables memoization
    /// entirely (the benchmarks' from-scratch baseline).
    pub fn set_memo_capacity(&self, capacity: usize) {
        self.memo.set_capacity(capacity);
    }

    /// Sets how many evaluations an expression needs before it is
    /// registered into the memo (1 = register immediately).
    pub fn set_memo_register_after(&self, evals: u32) {
        self.memo.set_register_after(evals);
    }

    /// Per-relation string-pool sizes of the history-keeping relations,
    /// whose stores intern their appended states — `txtime stats`
    /// reports these alongside the memo counters.
    pub fn interner_report(&self) -> Vec<(String, InternerStats)> {
        self.catalog
            .iter()
            .filter_map(|(name, rel)| match &rel.keeper {
                Keeper::History(store) => Some((name.clone(), store.interner_stats())),
                Keeper::Single(_) => None,
            })
            .collect()
    }

    /// The memo's expression-interner footprint: (distinct nodes,
    /// approximate bytes).
    pub fn memo_interner_footprint(&self) -> (usize, usize) {
        self.memo.interner_footprint()
    }

    /// Harvests a [`StatsCatalog`](txtime_analyze::StatsCatalog) from
    /// the live database: per relation, every stored version's exact
    /// cardinality and per-attribute value ranges, plus the physical
    /// counters (interner pool size, resident bytes) the lint pass and
    /// the optimizer's
    /// [`CostModel::from_stats`](txtime_optimizer::CostModel::from_stats)
    /// seed their estimates from. Historical versions are materialized
    /// through the store's batched `state_at_many` — one replay sweep
    /// per relation, not one per version.
    pub fn stats_catalog(&self) -> txtime_analyze::StatsCatalog {
        let mut stats = txtime_analyze::StatsCatalog::new();
        for (name, rel) in &self.catalog {
            let mut rs = txtime_analyze::RelStats::default();
            match &rel.keeper {
                Keeper::History(store) => {
                    let txs = store.version_txs();
                    for (tx, state) in txs.iter().zip(store.state_at_many(&txs)) {
                        if let Some(state) = state {
                            let (card, ranges, columns) = state_stats(&state);
                            rs.versions.push(txtime_analyze::VersionStats {
                                tx: *tx,
                                card,
                                ranges,
                                columns,
                            });
                        }
                    }
                    rs.interner_strings = Some(store.interner_stats().strings);
                    rs.space_bytes = Some(store.space_bytes());
                }
                Keeper::Single(Some((state, tx))) => {
                    let (card, ranges, columns) = state_stats(state);
                    rs.versions.push(txtime_analyze::VersionStats {
                        tx: *tx,
                        card,
                        ranges,
                        columns,
                    });
                }
                Keeper::Single(None) => {}
            }
            stats.insert(name.clone(), rs);
        }
        stats
    }

    /// Parses and executes a script in the surface syntax, returning the
    /// outcomes in command order. Parse errors are reported with their
    /// source position; execution stops at the first failing command.
    pub fn execute_script(&mut self, source: &str) -> Result<Vec<CommandOutcome>, ScriptError> {
        let sentence = txtime_parser::parse_sentence(source).map_err(ScriptError::Parse)?;
        let mut outcomes = Vec::with_capacity(sentence.commands().len());
        for cmd in sentence.commands() {
            outcomes.push(self.execute(cmd).map_err(ScriptError::Exec)?);
        }
        Ok(outcomes)
    }

    fn apply(&mut self, cmd: &Command) -> Result<CommandOutcome, CoreError> {
        match cmd {
            Command::DefineRelation(ident, rtype) => {
                if self.catalog.contains_key(ident) {
                    return Err(CoreError::AlreadyDefined(ident.clone()));
                }
                let rel_id = self.next_rel_id;
                self.next_rel_id += 1;
                let keeper = if rtype.keeps_history() {
                    let cache = Some((self.cache.clone(), rel_id));
                    Keeper::History(DeltaStore::new(self.checkpoints, cache))
                } else {
                    Keeper::Single(None)
                };
                self.catalog.insert(
                    ident.clone(),
                    StoredRelation {
                        rtype: *rtype,
                        keeper,
                        rel_id,
                    },
                );
                self.planner_meta.insert(ident.clone(), RelMeta::fresh());
                self.tx = self.tx.next();
                Ok(CommandOutcome::Defined)
            }
            Command::ModifyState(ident, expr) => {
                let rtype = self
                    .relation_type(ident)
                    .ok_or_else(|| CoreError::UndefinedRelation(ident.clone()))?;
                let started = std::time::Instant::now();
                let arrival = match self.command_delta(ident, expr) {
                    Some(delta) => Arrival::Delta(delta),
                    None => {
                        let state = self.eval_unmemoized(expr)?;
                        if state.is_historical() != rtype.holds_historical() {
                            return Err(CoreError::StateTypeMismatch {
                                relation: ident.clone(),
                                rtype,
                            });
                        }
                        Arrival::State(state)
                    }
                };
                let next = self.tx.next();
                let auto_compact = self.auto_compact;
                let fold = self.default_compact_every();
                let rel = self.catalog.get_mut(ident).expect("checked above");
                // `prev` is kept only where the memo may have to diff it
                // against `new`: holding a second handle on the state a
                // delta is about to edit would make that edit a copy.
                let (prev, new) = match (&mut rel.keeper, &arrival) {
                    (Keeper::History(store), Arrival::State(state)) => {
                        let prev = store.current();
                        store.append(state, next);
                        (prev, state.clone())
                    }
                    (Keeper::History(store), Arrival::Delta(delta)) => {
                        store.append_delta(delta, next);
                        (None, store.current().expect("just appended"))
                    }
                    (Keeper::Single(slot), Arrival::State(state)) => {
                        let prev = slot.replace((state.clone(), next)).map(|(p, _)| p);
                        (prev, state.clone())
                    }
                    (Keeper::Single(slot), Arrival::Delta(delta)) => {
                        let (state, at) = slot.as_mut().expect("folded against this state");
                        delta.apply_in_place(state);
                        *at = next;
                        (None, state.clone())
                    }
                };
                // One log entry if a cached view reads the relation,
                // nothing otherwise; no view is walked here. The log
                // takes the command's own delta, or the one a delta
                // store diffed for its chain inside a plain `append`,
                // and is asked for either only if the relation has
                // readers (and before a compaction can promote the
                // chain entry to a checkpoint).
                let logged = || match (&arrival, &rel.keeper) {
                    (Arrival::Delta(delta), _) => Some(delta.clone()),
                    (Arrival::State(_), Keeper::History(store)) => store.last_delta(),
                    (Arrival::State(_), Keeper::Single(_)) => None,
                };
                self.memo
                    .queue_modify(ident, rel.rel_id, prev.as_ref(), &new, logged, next);
                // Opportunistic compaction: fold the chain every
                // `auto_compact` appends so no later rollback probe
                // replays more than `fold` deltas. The delta store seeds
                // the replay at the nearest checkpoint to the first
                // unpinned slot, so a pass folds at most the appends
                // since the previous one plus one interval.
                if let (Keeper::History(store), Some(auto)) = (&mut rel.keeper, auto_compact) {
                    if store.version_count().is_multiple_of(auto.get()) {
                        store.compact(fold);
                    }
                }
                self.tx = next;
                self.note_state_meta(ident, &new);
                if let Arrival::Delta(delta) = &arrival {
                    self.pool.record_external(
                        OpKind::DeltaCommit,
                        delta.change_count() as u64,
                        started.elapsed(),
                    );
                }
                Ok(CommandOutcome::Modified)
            }
            Command::DeleteRelation(ident) => {
                let Some(removed) = self.catalog.remove(ident) else {
                    return Err(CoreError::UndefinedRelation(ident.clone()));
                };
                // Its versions can never be probed again (relation ids are
                // never reused); free their cache slots now.
                self.cache.purge_relation(removed.rel_id);
                self.memo.purge_relation(ident);
                self.planner_meta.remove(ident);
                self.tx = self.tx.next();
                Ok(CommandOutcome::Deleted)
            }
            Command::EvolveScheme(ident, change) => {
                let rtype = self
                    .relation_type(ident)
                    .ok_or_else(|| CoreError::UndefinedRelation(ident.clone()))?;
                let current = self.current_state(ident).ok_or_else(|| {
                    CoreError::SchemeChange(format!("relation {ident:?} has no state"))
                })?;
                let new_state = match &current {
                    StateValue::Snapshot(s) => StateValue::Snapshot(change.apply_snapshot(s)?),
                    StateValue::Historical(h) => {
                        StateValue::Historical(change.apply_historical(h)?)
                    }
                };
                let next = self.tx.next();
                self.note_state_meta(ident, &new_state);
                let rel = self.catalog.get_mut(ident).expect("checked above");
                debug_assert_eq!(rel.rtype, rtype);
                match &mut rel.keeper {
                    Keeper::History(store) => store.append(&new_state, next),
                    Keeper::Single(slot) => *slot = Some((new_state, next)),
                }
                self.tx = next;
                // The scheme under every dependent view just changed;
                // no delta rule applies.
                self.memo.purge_relation(ident);
                Ok(CommandOutcome::Evolved)
            }
            Command::Display(expr) => {
                let state = self.eval(expr)?;
                Ok(CommandOutcome::Displayed(state))
            }
        }
    }

    /// The delta `modify_state(ident, expr)` carries the relation's
    /// current state through, if `expr` says so itself: `ρ(ident, ∞)`
    /// under a chain of `− X`, `∪ X`, `σ_F` (or the hatted twins). Each
    /// `X` runs on the write path's evaluator and sees the pre-commit
    /// state. `None` is no verdict on the command: any other shape, a
    /// relation with no state yet or of the other kind, an operand that
    /// fails or does not fit; the plain path then decides, errors
    /// included.
    fn command_delta(&self, ident: &str, expr: &Expr) -> Option<StateDelta> {
        let (historical, steps) = update::recognise(ident, expr)?;
        let current = self.current_state(ident)?;
        if current.is_historical() != historical {
            return None;
        }
        let steps: Vec<_> = steps
            .into_iter()
            .map(|step| step.try_map(|x| self.eval_unmemoized(x)))
            .collect::<Result<_, _>>()
            .ok()?;
        update::fold(&current, &steps)
    }

    fn current_state(&self, ident: &str) -> Option<StateValue> {
        match &self.catalog.get(ident)?.keeper {
            Keeper::History(store) => store.current(),
            Keeper::Single(slot) => slot.as_ref().map(|(s, _)| s.clone()),
        }
    }

    /// The versions of `ident` strictly older than the version current at
    /// `before`, as (state, commit tx) pairs — the candidates for
    /// archival. Snapshot/historical relations have no history to
    /// archive, so the list is empty for them.
    pub(crate) fn versions_before(
        &self,
        ident: &str,
        before: TransactionNumber,
    ) -> Result<Vec<(StateValue, TransactionNumber)>, CoreError> {
        let rel = self
            .catalog
            .get(ident)
            .ok_or_else(|| CoreError::UndefinedRelation(ident.to_string()))?;
        let Keeper::History(store) = &rel.keeper else {
            return Ok(Vec::new());
        };
        let txs = store.version_txs();
        let idx = txs.partition_point(|t| *t <= before);
        let Some(floor) = idx.checked_sub(1) else {
            return Ok(Vec::new());
        };
        Ok(txs[..floor]
            .iter()
            .map(|&t| (store.state_at(t).expect("listed version exists"), t))
            .collect())
    }

    /// Truncates `ident`'s history before the version current at
    /// `before`; see [`DeltaStore::truncate_before`].
    pub(crate) fn truncate_before(
        &mut self,
        ident: &str,
        before: TransactionNumber,
    ) -> Result<usize, CoreError> {
        let rel = self
            .catalog
            .get_mut(ident)
            .ok_or_else(|| CoreError::UndefinedRelation(ident.to_string()))?;
        let dropped = match &mut rel.keeper {
            Keeper::History(store) => store.truncate_before(before),
            Keeper::Single(_) => 0,
        };
        if dropped > 0 {
            // Views over past versions (`ρ(I, n)`) may name versions
            // that no longer exist; their stamps cannot tell.
            self.memo.purge_relation(ident);
        }
        Ok(dropped)
    }

    /// Space accounting across the catalog (experiment E3).
    pub fn space_report(&self) -> SpaceReport {
        SpaceReport {
            relations: self
                .catalog
                .iter()
                .map(|(name, rel)| {
                    let (versions, bytes, compaction) = match &rel.keeper {
                        Keeper::History(s) => {
                            (s.version_count(), s.space_bytes(), s.compaction_stats())
                        }
                        Keeper::Single(v) => (
                            usize::from(v.is_some()),
                            v.as_ref().map_or(0, |(s, _)| s.size_bytes()),
                            CompactionStats::default(),
                        ),
                    };
                    RelationSpace {
                        name: name.clone(),
                        rtype: rel.rtype,
                        versions,
                        bytes,
                        compaction,
                    }
                })
                .collect(),
        }
    }
}

impl Engine {
    /// Catalog lookup plus the rollback type rules — identical to the
    /// reference semantics, shared by the filtered and unfiltered
    /// resolution paths.
    fn rollback_relation(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
    ) -> Result<&StoredRelation, EvalError> {
        let rel = self
            .catalog
            .get(ident)
            .ok_or_else(|| EvalError::UndefinedRelation(ident.to_string()))?;
        if historical != rel.rtype.holds_historical() {
            return Err(EvalError::RollbackTypeMismatch {
                relation: ident.to_string(),
                actual: rel.rtype,
                historical,
            });
        }
        if matches!(spec, TxSpec::At(_)) && !rel.rtype.keeps_history() {
            return if rel.rtype == RelationType::Snapshot {
                Err(EvalError::RollbackOnSnapshot(ident.to_string()))
            } else {
                Err(EvalError::RollbackTypeMismatch {
                    relation: ident.to_string(),
                    actual: rel.rtype,
                    historical,
                })
            };
        }
        Ok(rel)
    }

    /// The empty state carrying the relation's earliest known scheme —
    /// the reference's answer for a rollback before the first version.
    fn empty_like_first(store: &DeltaStore, ident: &str) -> Result<StateValue, EvalError> {
        let first = store
            .first_tx()
            .and_then(|t| store.state_at(t))
            .ok_or_else(|| EvalError::EmptyRelation(ident.to_string()))?;
        Ok(first.empty_like())
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        // The satellite fix behind `txtime serve`'s durability story: an
        // engine dropped with a buffered WAL group writes it out. Cheap
        // when there is nothing pending.
        self.shutdown();
    }
}

impl StampSource for Engine {
    fn relation_stamp(&self, ident: &str) -> Option<RelStamp> {
        let rel = self.catalog.get(ident)?;
        match &rel.keeper {
            Keeper::History(store) => store.last_tx().map(|tx| (rel.rel_id, tx)),
            Keeper::Single(slot) => slot.as_ref().map(|(_, tx)| (rel.rel_id, *tx)),
        }
    }

    fn relation_schema(&self, ident: &str) -> Option<txtime_snapshot::Schema> {
        self.planner_meta.get(ident)?.schema.clone()
    }

    fn exec_pool(&self) -> &ExecPool {
        &self.pool
    }
}

impl StateSource for Engine {
    fn resolve_rollback(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
    ) -> Result<StateValue, EvalError> {
        let rel = self.rollback_relation(ident, spec, historical)?;
        match &rel.keeper {
            Keeper::History(store) => {
                // Fast path: ρ(I, ∞) is the materialized current state —
                // no delta replay (store.last_tx() ≤ engine clock always).
                let lookup = if matches!(spec, TxSpec::Current) {
                    store.current()
                } else {
                    let target = match spec {
                        TxSpec::Current => self.tx,
                        TxSpec::At(n) => n,
                    };
                    store.state_at(target)
                };
                match lookup {
                    Some(s) => Ok(s),
                    None => Engine::empty_like_first(store, ident),
                }
            }
            Keeper::Single(slot) => match slot {
                Some((s, _)) => Ok(s.clone()),
                None => Err(EvalError::EmptyRelation(ident.to_string())),
            },
        }
    }

    /// The pushed-down form of σ/π over ρ: hands the filter to the store,
    /// which may evaluate it during reconstruction (and serves repeated
    /// probes from the materialization cache) instead of building the
    /// full version first.
    fn resolve_rollback_filtered(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<StateValue, EvalError> {
        let rel = self.rollback_relation(ident, spec, historical)?;
        match &rel.keeper {
            Keeper::History(store) => {
                let lookup = if matches!(spec, TxSpec::Current) {
                    store
                        .current()
                        .map(|s| filter.apply(s, historical))
                        .transpose()?
                } else {
                    let target = match spec {
                        TxSpec::Current => self.tx,
                        TxSpec::At(n) => n,
                    };
                    store.state_at_filtered(target, historical, filter)?
                };
                match lookup {
                    Some(s) => Ok(s),
                    None => {
                        // Before the first version: filter the empty
                        // state, exactly as the un-pushed path would.
                        filter.apply(Engine::empty_like_first(store, ident)?, historical)
                    }
                }
            }
            Keeper::Single(slot) => match slot {
                Some((s, _)) => filter.apply(s.clone(), historical),
                None => Err(EvalError::EmptyRelation(ident.to_string())),
            },
        }
    }

    /// `ρ(I, n₂) − ρ(I, n₁)` handed to the store whole: it reads the
    /// answer off the chain between the two versions
    /// ([`DeltaStore::version_difference`]). Anything else declines
    /// (a relation the type rules refuse, one that keeps a single
    /// version, a store without an answer), and the evaluator's own two
    /// resolves and subtraction decide the value or word the error.
    fn resolve_version_difference(
        &self,
        ident: &str,
        minuend: TransactionNumber,
        subtrahend: TransactionNumber,
        historical: bool,
    ) -> Option<StateValue> {
        let rel = self
            .rollback_relation(ident, TxSpec::At(minuend), historical)
            .ok()?;
        let Keeper::History(store) = &rel.keeper else {
            return None;
        };
        let started = std::time::Instant::now();
        let answer = store.version_difference(minuend, subtrahend)?;
        self.pool
            .record_external(OpKind::VersionDiff, answer.len() as u64, started.elapsed());
        Some(answer)
    }
}

/// The exact statistics of one materialized version: its cardinality and
/// (for non-empty states) each attribute's value range.
fn state_stats(
    state: &StateValue,
) -> (
    txtime_analyze::CardInterval,
    Option<Vec<txtime_analyze::ValueRange>>,
    Option<Vec<txtime_analyze::ColumnStats>>,
) {
    use txtime_analyze::{CardInterval, ColumnStats, ValueRange};
    let (len, arity, tuples): (usize, usize, Vec<&txtime_snapshot::Tuple>) = match state {
        StateValue::Snapshot(s) => (s.len(), s.schema().arity(), s.iter().collect()),
        StateValue::Historical(h) => (
            h.len(),
            h.schema().arity(),
            h.iter().map(|(t, _)| t).collect(),
        ),
    };
    let ranges = (!tuples.is_empty()).then(|| {
        (0..arity)
            .map(|i| ValueRange::spanning(tuples.iter().map(|t| t.get(i))))
            .collect()
    });
    let columns = (!tuples.is_empty()).then(|| {
        (0..arity)
            .map(|i| ColumnStats::from_values(tuples.iter().map(|t| t.get(i)), len))
            .collect()
    });
    (CardInterval::exact(len as u64), ranges, columns)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};

    fn snap(vals: &[i64]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    fn engine_with_history(policy: CheckpointPolicy) -> Engine {
        let mut e = Engine::new(BackendKind::ForwardDelta, policy);
        e.execute(&Command::define_relation("r", RelationType::Rollback))
            .unwrap();
        for v in [vec![1], vec![1, 2], vec![2], vec![2, 3]] {
            e.execute(&Command::modify_state("r", Expr::snapshot_const(snap(&v))))
                .unwrap();
        }
        e
    }

    /// Every version whole, and a checkpoint every fourth.
    fn policies() -> [CheckpointPolicy; 2] {
        [1, 4].map(|k| CheckpointPolicy::every_k(k).unwrap())
    }

    #[test]
    fn engine_answers_rollback_queries_under_every_policy() {
        for policy in policies() {
            let e = engine_with_history(policy);
            let cur = e
                .eval(&Expr::current("r"))
                .unwrap()
                .into_snapshot()
                .unwrap();
            assert_eq!(cur, snap(&[2, 3]), "{policy:?}");
            let old = e
                .eval(&Expr::rollback("r", TxSpec::At(TransactionNumber(3))))
                .unwrap()
                .into_snapshot()
                .unwrap();
            assert_eq!(old, snap(&[1, 2]), "{policy:?}");
        }
    }

    #[test]
    fn stats_catalog_reports_exact_versions_under_every_policy() {
        use txtime_analyze::CardInterval;
        for policy in policies() {
            let e = engine_with_history(policy);
            let stats = e.stats_catalog();
            let rs = stats.get("r").unwrap();
            assert_eq!(
                rs.versions.iter().map(|v| v.card).collect::<Vec<_>>(),
                [1, 2, 1, 2].map(CardInterval::exact),
                "{policy:?}"
            );
            // Version txs 2..=5: define commits at 1, writes at 2..=5.
            assert_eq!(
                rs.versions.iter().map(|v| v.tx.0).collect::<Vec<_>>(),
                [2, 3, 4, 5],
                "{policy:?}"
            );
            // The last version holds {2, 3}: the x range is [2, 3].
            let ranges = rs.versions.last().unwrap().ranges.as_ref().unwrap();
            assert!(ranges[0].contains(&Value::Int(2)) && ranges[0].contains(&Value::Int(3)));
            assert!(!ranges[0].contains(&Value::Int(1)), "{policy:?}");
            assert!(rs.space_bytes.is_some(), "{policy:?}");
        }
    }

    #[test]
    fn engine_enforces_rollback_type_rules() {
        let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
        e.execute(&Command::define_relation("s", RelationType::Snapshot))
            .unwrap();
        e.execute(&Command::modify_state(
            "s",
            Expr::snapshot_const(snap(&[1])),
        ))
        .unwrap();
        assert!(matches!(
            e.eval(&Expr::rollback("s", TxSpec::At(TransactionNumber(1)))),
            Err(EvalError::RollbackOnSnapshot(_))
        ));
        assert!(e.eval(&Expr::current("s")).is_ok());
        assert!(matches!(
            e.eval(&Expr::hcurrent("s")),
            Err(EvalError::RollbackTypeMismatch { .. })
        ));
    }

    #[test]
    fn snapshot_relations_keep_single_version() {
        let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
        e.execute(&Command::define_relation("s", RelationType::Snapshot))
            .unwrap();
        e.execute(&Command::modify_state(
            "s",
            Expr::snapshot_const(snap(&[1])),
        ))
        .unwrap();
        e.execute(&Command::modify_state(
            "s",
            Expr::snapshot_const(snap(&[2])),
        ))
        .unwrap();
        assert_eq!(e.version_count("s"), Some(1));
        assert_eq!(
            e.eval(&Expr::current("s"))
                .unwrap()
                .into_snapshot()
                .unwrap(),
            snap(&[2])
        );
    }

    #[test]
    fn delete_and_redefine() {
        let mut e = engine_with_history(CheckpointPolicy::every_k(4).unwrap());
        e.execute(&Command::delete_relation("r")).unwrap();
        assert!(e.relation_type("r").is_none());
        assert!(matches!(
            e.eval(&Expr::current("r")),
            Err(EvalError::UndefinedRelation(_))
        ));
        e.execute(&Command::define_relation("r", RelationType::Snapshot))
            .unwrap();
        assert_eq!(e.relation_type("r"), Some(RelationType::Snapshot));
    }

    #[test]
    fn failed_commands_do_not_advance_the_clock() {
        let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
        e.execute(&Command::define_relation("r", RelationType::Rollback))
            .unwrap();
        let before = e.tx();
        assert!(e
            .execute(&Command::modify_state("ghost", Expr::current("ghost")))
            .is_err());
        assert_eq!(e.tx(), before);
    }

    #[test]
    fn execute_script_round_trip() {
        let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
        let outcomes = e
            .execute_script(
                r#"
                define_relation(emp, rollback);
                modify_state(emp, {(x: int): (1), (2)});
                display(select[x > 1](rho(emp, inf)));
                "#,
            )
            .unwrap();
        assert_eq!(outcomes.len(), 3);
        match &outcomes[2] {
            CommandOutcome::Displayed(s) => assert_eq!(s.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            e.execute_script("not a script"),
            Err(ScriptError::Parse(_))
        ));
        assert!(matches!(
            e.execute_script("modify_state(ghost, rho(ghost, inf));"),
            Err(ScriptError::Exec(_))
        ));
    }

    #[test]
    fn cache_eviction_never_changes_answers() {
        // A 2-entry cache under a 30-version sweep evicts constantly;
        // answers must stay FINDSTATE's through it.
        let mut e = Engine::new(
            BackendKind::ForwardDelta,
            CheckpointPolicy::every_k(8).unwrap(),
        );
        e.set_cache_capacity(2);
        e.execute(&Command::define_relation("r", RelationType::Rollback))
            .unwrap();
        for v in 0..30i64 {
            e.execute(&Command::modify_state(
                "r",
                Expr::snapshot_const(snap(&[v, v + 1])),
            ))
            .unwrap();
        }
        // Version `v` commits at tx `v + 2`; before tx 2 a rollback
        // answers the empty state.
        let findstate = |t: u64| match t.checked_sub(2) {
            Some(v) => snap(&[v.min(29) as i64, v.min(29) as i64 + 1]),
            None => snap(&[]),
        };
        for _round in 0..3 {
            // Each tx twice running: the second probe of a replayed
            // version finds it however hard the sweep evicts.
            for t in (0..=32u64).flat_map(|t| [t, t]) {
                let spec = TxSpec::At(TransactionNumber(t));
                let got = e.eval(&Expr::rollback("r", spec)).unwrap();
                assert_eq!(got.into_snapshot().unwrap(), findstate(t), "at tx {t}");
            }
        }
        let stats = e.cache_stats();
        assert!(stats.evictions > 0, "sweep should overflow the cache");
        assert!(stats.hits > 0, "repeated probes should hit");
        assert!(stats.entries <= 2);
    }

    #[test]
    fn repeated_rollback_probes_hit_the_cache() {
        // `Never` keeps the delta chain checkpoint-free past its first
        // version, so the probe below must replay — this test pins the
        // materialization cache, not the checkpoint shortcut.
        let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
        e.execute(&Command::define_relation("r", RelationType::Rollback))
            .unwrap();
        for v in [vec![1], vec![1, 2], vec![2], vec![2, 3]] {
            e.execute(&Command::modify_state("r", Expr::snapshot_const(snap(&v))))
                .unwrap();
        }
        // With the view memo on, repeated probes would be answered above
        // the cache.
        e.set_memo_capacity(0);
        let spec = TxSpec::At(TransactionNumber(4));
        let first = e.eval(&Expr::rollback("r", spec)).unwrap();
        let before = e.cache_stats();
        assert!(before.replayed_deltas > 0);
        for _ in 0..5 {
            assert_eq!(e.eval(&Expr::rollback("r", spec)).unwrap(), first);
        }
        let after = e.cache_stats();
        assert_eq!(after.hits, before.hits + 5);
        assert_eq!(
            after.replayed_deltas, before.replayed_deltas,
            "hits must not replay deltas"
        );
    }

    #[test]
    fn parse_auto_compact_rejects_zero_and_garbage() {
        assert_eq!(parse_auto_compact("8").unwrap().get(), 8);
        assert_eq!(parse_auto_compact(" 64 ").unwrap().get(), 64);
        let zero = parse_auto_compact("0").unwrap_err();
        assert!(zero.contains("at least 1"), "{zero}");
        assert!(parse_auto_compact("none").is_err());
        assert!(parse_auto_compact("-3").is_err());
    }

    #[test]
    fn auto_compact_defaults_and_reconfigures() {
        let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
        // The environment may override the default in CI legs; either
        // way the threshold is positive unless explicitly disabled.
        assert!(e.auto_compact().is_some());
        e.set_auto_compact(NonZeroUsize::new(8));
        assert_eq!(e.auto_compact().map(NonZeroUsize::get), Some(8));
        e.set_auto_compact(None);
        assert_eq!(e.auto_compact(), None);
    }

    #[test]
    fn buffered_wal_groups_commits_and_drop_flushes() {
        let dir = std::env::temp_dir().join(format!("txtime-wal-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("group.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut e = Engine::with_wal(CheckpointPolicy::Never, &path).unwrap();
            e.set_wal_buffered(true);
            e.execute(&Command::define_relation("r", RelationType::Rollback))
                .unwrap();
            e.execute(&Command::modify_state(
                "r",
                Expr::snapshot_const(snap(&[1])),
            ))
            .unwrap();
            assert_eq!(e.wal_pending_commands(), 2);
            // Nothing has reached the file yet: the group is pending.
            assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
            // Dropping the engine must not lose the buffered group.
        }
        let rec =
            crate::recovery::recover(&path, BackendKind::ForwardDelta, CheckpointPolicy::Never)
                .unwrap();
        assert_eq!(rec.replayed, 2);
        assert_eq!(rec.engine.version_count("r"), Some(1));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn sync_wal_makes_the_group_durable_once() {
        let dir = std::env::temp_dir().join(format!("txtime-wal-sync-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sync.wal");
        let _ = std::fs::remove_file(&path);
        let mut e = Engine::with_wal(CheckpointPolicy::Never, &path).unwrap();
        e.set_wal_buffered(true);
        e.execute(&Command::define_relation("r", RelationType::Rollback))
            .unwrap();
        e.execute(&Command::modify_state(
            "r",
            Expr::snapshot_const(snap(&[1])),
        ))
        .unwrap();
        assert_eq!(e.sync_wal().unwrap(), 2);
        assert_eq!(e.wal_pending_commands(), 0);
        // An empty group still fsyncs (the per-commit baseline path) but
        // reports zero commands flushed.
        assert_eq!(e.sync_wal().unwrap(), 0);
        let rec =
            crate::recovery::recover(&path, BackendKind::ForwardDelta, CheckpointPolicy::Never)
                .unwrap();
        assert_eq!(rec.replayed, 2);
        let _ = std::fs::remove_file(&path);
    }

    /// The pull-model successor of the shutdown-flush test: a view that
    /// lags when the engine shuts down has nothing to settle. Nothing is
    /// walked on its behalf, and if the engine is read again the view is
    /// repaired then.
    #[test]
    fn shutdown_settles_no_view_and_a_later_read_repairs_it() {
        let mut e = Engine::new(
            BackendKind::ForwardDelta,
            CheckpointPolicy::every_k(4).unwrap(),
        );
        e.set_memo_register_after(1);
        e.execute(&Command::define_relation("r", RelationType::Rollback))
            .unwrap();
        e.execute(&Command::modify_state(
            "r",
            Expr::snapshot_const(snap(&[1])),
        ))
        .unwrap();
        // Register a view, then write behind it: the write logs a delta.
        let nonzero = txtime_snapshot::Predicate::Comp(
            txtime_snapshot::Operand::attr("x"),
            txtime_snapshot::CompOp::Ne,
            txtime_snapshot::Operand::Const(Value::Int(0)),
        );
        let expr = Expr::rollback("r", TxSpec::Current).select(nonzero);
        e.eval(&expr).unwrap();
        e.execute(&Command::modify_state(
            "r",
            Expr::snapshot_const(snap(&[1, 2])),
        ))
        .unwrap();
        let lagging = e.memo_stats();
        assert_eq!((lagging.log_entries, lagging.max_lag), (1, 1));
        e.shutdown();
        let after = e.memo_stats();
        assert_eq!(after, lagging, "shutdown touches no view and no log");
        // The lagging view answers the post-write state when asked.
        assert_eq!(
            e.eval(&expr).unwrap().into_snapshot().unwrap(),
            snap(&[1, 2])
        );
        let repaired = e.memo_stats();
        assert_eq!((repaired.repairs, repaired.max_lag), (1, 0));
    }

    /// Demand-driven maintenance, counted: with many roots registered
    /// over one relation, a commit followed by one read touches the
    /// views under that root and no other. (A bare key probe is never
    /// registered; a projection over one is.)
    #[test]
    fn one_read_after_a_commit_repairs_only_the_root_it_asks_for() {
        const ROOTS: i64 = 40;
        for policy in [1, 16].map(|k| CheckpointPolicy::every_k(k).unwrap()) {
            let mut e = Engine::new(BackendKind::ForwardDelta, policy);
            e.set_memo_register_after(1);
            e.execute(&Command::define_relation("acct", RelationType::Rollback))
                .unwrap();
            e.execute(&Command::modify_state(
                "acct",
                Expr::snapshot_const(acct(256)),
            ))
            .unwrap();
            let point = |key: i64| {
                Expr::current("acct")
                    .select(txtime_snapshot::Predicate::eq_const("id", Value::Int(key)))
                    .project(vec!["bal".into(), "id".into()])
            };
            for key in 0..ROOTS {
                e.eval(&point(key)).unwrap();
            }
            let registered = e.memo_stats();
            assert_eq!(registered.roots as i64, ROOTS, "{policy:?}");
            assert_eq!(
                registered.views as i64,
                2 * ROOTS,
                "{policy:?}: π and σ per root; the shared leaf keeps no view"
            );

            e.execute(&update_one_row(3, 99)).unwrap();
            assert_eq!(e.memo_stats().propagations, 0, "{policy:?}: the write");
            let got = e.eval(&point(3)).unwrap().into_snapshot().unwrap();
            assert_eq!(got.len(), 1, "{policy:?}");
            assert!(
                got.contains(&txtime_snapshot::Tuple::new(vec![
                    Value::Int(99),
                    Value::Int(3)
                ])),
                "{policy:?}: {got}"
            );
            let read = e.memo_stats();
            // π and σ: the two views under the root.
            assert!(
                read.propagations <= 2,
                "{policy:?}: {} views touched by one point read",
                read.propagations
            );
            assert_eq!((read.repairs, read.fallbacks), (1, 0), "{policy:?}");
            assert_eq!(read.hits, registered.hits + 1, "{policy:?}");
            // Every other root stays one commit behind until it is read.
            assert_eq!(read.max_lag, 1, "{policy:?}");
            for key in 0..ROOTS {
                let want = i64::from(key == 3) * 99;
                let got = e.eval(&point(key)).unwrap().into_snapshot().unwrap();
                assert!(
                    got.contains(&txtime_snapshot::Tuple::new(vec![
                        Value::Int(want),
                        Value::Int(key)
                    ])),
                    "{policy:?}: key {key}: {got}"
                );
            }
            assert_eq!(e.memo_stats().max_lag, 0, "{policy:?}");
        }
    }

    /// `acct(id, bal)` with ids `0..rows`, and the benchmark's
    /// update-one-row commit against it.
    fn acct(rows: i64) -> SnapshotState {
        let schema = Schema::new(vec![("id", DomainType::Int), ("bal", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(
            schema,
            (0..rows).map(|i| vec![Value::Int(i), Value::Int(0)]),
        )
        .unwrap()
    }

    fn update_one_row(key: i64, bal: i64) -> Command {
        let schema = Schema::new(vec![("id", DomainType::Int), ("bal", DomainType::Int)]).unwrap();
        let row =
            SnapshotState::from_rows(schema, [vec![Value::Int(key), Value::Int(bal)]]).unwrap();
        Command::modify_state(
            "acct",
            Expr::current("acct")
                .difference(
                    Expr::current("acct")
                        .select(txtime_snapshot::Predicate::eq_const("id", Value::Int(key))),
                )
                .union(Expr::snapshot_const(row)),
        )
    }

    /// A 2-thread engine (whatever the host) holding `acct` at `rows`.
    fn two_thread_engine(rows: i64) -> Engine {
        let mut e = Engine::new(
            BackendKind::ForwardDelta,
            CheckpointPolicy::every_k(16).unwrap(),
        );
        e.set_pool(ExecPool::new(2));
        e.execute(&Command::define_relation("acct", RelationType::Rollback))
            .unwrap();
        e.execute(&Command::modify_state(
            "acct",
            Expr::snapshot_const(acct(rows)),
        ))
        .unwrap();
        e.reset_exec_stats();
        e
    }

    fn op_row(e: &Engine, name: &str) -> (u64, u64) {
        let exec = e.exec_stats();
        let op = exec.ops.iter().find(|o| o.name == name).unwrap();
        (op.calls, op.chunks)
    }

    /// The count test of the delta path: an update-one-row commit runs
    /// no − kernel (the plain path runs one per commit), is
    /// recorded as a delta commit listing the two rows it changes, and
    /// touches the memo no more than before.
    #[test]
    fn update_commits_go_by_delta_feed_no_view_memo_and_run_no_set_kernel() {
        let mut e = two_thread_engine(1024);
        // Repeating keys: the same write expression recurs, which is what
        // used to cross the memo's registration threshold.
        for i in 0..2_000i64 {
            e.execute(&update_one_row(i % 7, i)).unwrap();
        }
        let memo = e.memo_stats();
        assert_eq!(
            (memo.registrations, memo.views, memo.propagations),
            (0, 0, 0),
            "{memo:?}"
        );
        assert_eq!((memo.hits, memo.misses), (0, 0), "writes decide nothing");
        assert_eq!(e.memo_interner_footprint().0, 0, "writes intern nothing");
        assert_eq!(op_row(&e, "difference"), (0, 0));
        // The first commit rewrites row 0 with its own values and lists
        // nothing; every other one lists the row out and the row in.
        assert_eq!(op_row(&e, "delta-commit"), (2_000, 2 * 1_999));
        // Every operator kernel (the rows whose chunks are splits, not
        // externally recorded counts such as plans enumerated).
        let exec = e.exec_stats();
        for (kind, op) in OpKind::ALL.iter().zip(&exec.ops) {
            if kind.min_chunk() > 1 {
                assert_eq!(op.chunks, op.calls, "{} split at 1024 rows", op.name);
            }
        }
        assert_eq!(e.version_count("acct"), Some(2_001));
    }

    /// The count test of the version difference: an audit diff
    /// `ρ(acct, T+d) − ρ(acct, T)` on forward-delta is read off the
    /// chain. No − kernel runs, no version is built (so none enters the
    /// state cache), and each answer is a `version-diff` row entry
    /// counting the tuples it returns. The parent ran one `difference`
    /// and inserted two states per diff.
    #[test]
    fn audit_diffs_on_forward_delta_come_off_the_chain() {
        let mut e = two_thread_engine(1024);
        for i in 0..128i64 {
            e.execute(&update_one_row((i * 37) % 1024, i + 1)).unwrap();
        }
        e.reset_exec_stats();
        e.reset_cache_stats();
        // 1 000 distinct spans (a repeated expression would be answered
        // by the view memo), both directions, across checkpoints.
        let first = 2u64; // define at 1, the literal at 2
        let at = |n: u64| Expr::rollback("acct", TxSpec::At(TransactionNumber(n)));
        let mut returned = 0;
        for t in 0..100u64 {
            for d in 1..=10u64 {
                let (later, earlier) = (first + t + d, first + t);
                let (minuend, subtrahend) = if d % 2 == 0 {
                    (later, earlier)
                } else {
                    (earlier, later)
                };
                let got = e.eval(&at(minuend).difference(at(subtrahend))).unwrap();
                // Every commit replaces one row with a fresh balance.
                assert_eq!(got.len() as u64, d, "ρ({minuend}) − ρ({subtrahend})");
                returned += d;
            }
        }
        assert_eq!(op_row(&e, "difference"), (0, 0));
        assert_eq!(op_row(&e, "version-diff"), (1_000, returned));
        let cache = e.cache_stats();
        assert_eq!((cache.insertions, cache.entries), (0, 0), "{cache:?}");
        assert!(cache.replayed_deltas >= returned / 2, "{cache:?}");
        // The same value as resolving both sides and subtracting.
        let (l, r) = (
            e.eval(&at(first + 40)).unwrap().into_snapshot().unwrap(),
            e.eval(&at(first + 23)).unwrap().into_snapshot().unwrap(),
        );
        assert_eq!(
            e.eval(&at(first + 40).difference(at(first + 23))).unwrap(),
            StateValue::Snapshot(l.difference(&r).unwrap())
        );
    }

    /// A right-hand side the delta path declines (its leaf is not the
    /// relation being written) is evaluated as before, on kernels that
    /// split past their break-even grain.
    #[test]
    fn commits_past_the_break_even_still_reach_the_partitioned_kernels() {
        let rows = 2 * OpKind::Difference.min_chunk() as i64;
        let minus =
            Command::modify_state("acct", Expr::current("a").difference(Expr::current("b")));
        let run = |threads: usize| {
            let mut e = two_thread_engine(1);
            e.set_pool(ExecPool::new(threads));
            for (name, from) in [("a", 0), ("b", rows / 2)] {
                let schema =
                    Schema::new(vec![("id", DomainType::Int), ("bal", DomainType::Int)]).unwrap();
                let half = SnapshotState::from_rows(
                    schema,
                    (from..from + rows).map(|i| vec![Value::Int(i), Value::Int(0)]),
                )
                .unwrap();
                e.execute(&Command::define_relation(name, RelationType::Rollback))
                    .unwrap();
                e.execute(&Command::modify_state(name, Expr::snapshot_const(half)))
                    .unwrap();
            }
            e.reset_exec_stats();
            for _ in 0..3 {
                e.execute(&minus).unwrap();
            }
            e
        };
        let e = run(2);
        assert_eq!(
            op_row(&e, "difference"),
            (3, 6),
            "difference splits two ways at {rows} rows a side"
        );
        assert_eq!(op_row(&e, "delta-commit"), (0, 0));
        // Same answer as the sequential engine.
        let seq = run(1);
        let acct = e.eval(&Expr::current("acct")).unwrap();
        assert_eq!(acct.len() as i64, rows / 2);
        assert_eq!(acct, seq.eval(&Expr::current("acct")).unwrap());
    }

    #[test]
    fn resolve_many_fans_out_only_where_chains_replay() {
        let mut e = two_thread_engine(64);
        e.execute(&Command::define_relation("other", RelationType::Rollback))
            .unwrap();
        for v in [1, 2, 3] {
            e.execute(&Command::modify_state(
                "other",
                Expr::snapshot_const(snap(&[v])),
            ))
            .unwrap();
            e.execute(&update_one_row(v, v)).unwrap();
        }
        let resolve_row = |e: &Engine| op_row(e, "resolve");
        let past = TxSpec::At(TransactionNumber(5));
        // Two relations, every probe current: O(1) per leaf, no worker.
        e.reset_exec_stats();
        let now = e.resolve_many(&[("acct", TxSpec::Current), ("other", TxSpec::Current)]);
        assert_eq!(resolve_row(&e), (1, 1), "all-current batch stays inline");
        // One relation with a chain to replay: still nothing to overlap.
        let mixed = e.resolve_many(&[("acct", past), ("other", TxSpec::Current)]);
        assert_eq!(resolve_row(&e), (2, 2), "one replaying group stays inline");
        // Two chains to replay: one worker each.
        let both = e.resolve_many(&[("acct", past), ("other", past), ("other", TxSpec::Current)]);
        assert_eq!(resolve_row(&e), (3, 4), "two replaying groups split");
        // Positional answers, identical to per-probe evaluation.
        for (got, (ident, spec)) in now.iter().chain(&mixed).chain(&both).zip([
            ("acct", TxSpec::Current),
            ("other", TxSpec::Current),
            ("acct", past),
            ("other", TxSpec::Current),
            ("acct", past),
            ("other", past),
            ("other", TxSpec::Current),
        ]) {
            assert_eq!(
                got.as_ref().ok(),
                e.eval(&Expr::rollback(ident, spec)).ok().as_ref(),
                "ρ({ident}, {spec:?})"
            );
        }
    }

    /// A read under commits costs what changed, counted: with a cached
    /// group view `π(σ(ρ(acct, ∞)))` and a join view over `acct` and
    /// `dept` read between one-row commits, no view pins the current run
    /// (each commit edits it in place: the allocation a reply sees stays
    /// put across the commit when no reply is held), and the join is
    /// lowered at level 1 and repaired by its delta rule, so no product
    /// kernel ever runs. Answers match the memo-less engine throughout.
    #[test]
    fn reads_under_commits_pin_no_run_and_run_no_product() {
        use txtime_snapshot::{Predicate, Tuple};
        let schema = || {
            Schema::new(vec![
                ("id", DomainType::Int),
                ("grade", DomainType::Int),
                ("bal", DomainType::Int),
            ])
            .unwrap()
        };
        let rows = |rows: Vec<(i64, i64, i64)>| {
            let rows = rows
                .into_iter()
                .map(|(id, grade, bal)| vec![Value::Int(id), Value::Int(grade), Value::Int(bal)]);
            Expr::snapshot_const(SnapshotState::from_rows(schema(), rows).unwrap())
        };
        let update = |id: i64, grade: i64, bal: i64| {
            let old = Predicate::eq_const("id", Value::Int(id));
            Command::modify_state(
                "acct",
                Expr::current("acct")
                    .difference(Expr::current("acct").select(old))
                    .union(rows(vec![(id, grade, bal)])),
            )
        };
        let dept = SnapshotState::from_rows(
            Schema::new(vec![
                ("dgrade", DomainType::Int),
                ("label", DomainType::Int),
            ])
            .unwrap(),
            (0..4).map(|g| vec![Value::Int(g), Value::Int(100 + g)]),
        )
        .unwrap();
        let group = |g: i64| {
            Expr::current("acct")
                .select(Predicate::eq_const("grade", Value::Int(g)))
                .project(vec!["id".into(), "bal".into()])
        };
        let join = Expr::current("acct")
            .product(Expr::current("dept"))
            .select(Predicate::eq_attrs("grade", "dgrade"))
            .project(vec!["id".into(), "label".into()]);
        let engines: Vec<Engine> = [64, 0]
            .into_iter()
            .map(|capacity| {
                let mut e = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
                e.set_pool(ExecPool::new(2));
                e.set_optimize(1);
                e.set_auto_compact(None);
                e.set_memo_capacity(capacity);
                for cmd in [
                    Command::define_relation("acct", RelationType::Rollback),
                    Command::define_relation("dept", RelationType::Rollback),
                    Command::modify_state("acct", rows((0..64).map(|i| (i, i % 4, 0)).collect())),
                    Command::modify_state("dept", Expr::snapshot_const(dept.clone())),
                    // The literal's version is pinned as the chain's
                    // base; the first delta commit copies it once.
                    update(0, 0, 1),
                ] {
                    e.execute(&cmd).unwrap();
                }
                e.reset_exec_stats();
                e
            })
            .collect();
        let [mut e, mut plain] = <[Engine; 2]>::try_from(engines).ok().unwrap();
        let run = |e: &Engine| {
            let acct = e.eval(&Expr::current("acct")).unwrap();
            acct.into_snapshot().unwrap().run().as_ptr()
        };
        for i in 0..1_000i64 {
            let (id, grade) = ((i * 7) % 64, (i * 3) % 4);
            let before = run(&e);
            e.execute(&update(id, grade, i)).unwrap();
            plain.execute(&update(id, grade, i)).unwrap();
            assert_eq!(run(&e), before, "commit {i} moved the run");
            for q in [&group(i % 4), &join] {
                assert_eq!(e.eval(q).unwrap(), plain.eval(q).unwrap(), "{i}");
            }
        }
        let memo = e.memo_stats();
        assert!(memo.hits >= 1_900 && memo.fallbacks == 0, "{memo:?}");
        assert_eq!(op_row(&e, "product"), (0, 0));
        assert_eq!(op_row(&plain, "product"), (0, 0));
        let joined = e.eval(&join).unwrap().into_snapshot().unwrap();
        assert!(joined.contains(&Tuple::new(vec![Value::Int(0), Value::Int(100)])));
    }

    #[test]
    fn space_report_covers_catalog() {
        for policy in policies() {
            let report = engine_with_history(policy).space_report();
            assert_eq!(report.relations.len(), 1, "{policy:?}");
            assert_eq!(report.relations[0].versions, 4, "{policy:?}");
            assert!(report.relations[0].bytes > 0, "{policy:?}");
        }
    }

    /// Each row of the space report carries its own relation's compaction
    /// counters: a pass's total is their sum, the longer chain folds
    /// more, and a relation that keeps one version reports none.
    #[test]
    fn space_report_carries_each_relations_compaction_counters() {
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(1).unwrap(),
        ] {
            let mut e = Engine::new(BackendKind::ForwardDelta, policy);
            e.set_auto_compact(None);
            for (name, rtype) in [
                ("long", RelationType::Rollback),
                ("short", RelationType::Rollback),
                ("s", RelationType::Snapshot),
            ] {
                e.execute(&Command::define_relation(name, rtype)).unwrap();
            }
            for v in 1..=12 {
                let mut targets = vec!["long", "s"];
                if v % 4 == 0 {
                    targets.push("short");
                }
                for name in targets {
                    let state = Expr::snapshot_const(snap(&[v, v + 1]));
                    e.execute(&Command::modify_state(name, state)).unwrap();
                }
            }
            let folded = |e: &Engine, name: &str| {
                let rows = e.space_report().relations;
                rows.into_iter()
                    .find(|r| r.name == name)
                    .unwrap()
                    .compaction
            };
            assert_eq!(folded(&e, "long"), CompactionStats::default());
            let pass = e.compact(NonZeroUsize::new(2));
            let (long, short) = (folded(&e, "long"), folded(&e, "short"));
            assert_eq!(long.merged(short), pass, "{policy:?}");
            assert_eq!(folded(&e, "s"), CompactionStats::default());
            // Every version whole leaves nothing to fold.
            if policy == CheckpointPolicy::Never {
                assert!(long.deltas_folded > short.deltas_folded, "{policy:?}");
            } else {
                assert_eq!(pass, CompactionStats::default(), "{policy:?}");
            }
        }
    }
}
