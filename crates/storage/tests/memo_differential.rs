//! Differential property tests for the view memo: an engine with the
//! memo fully enabled (registration on first evaluation, so repeated
//! queries hit cached views and every `modify_state` leaves them a delta
//! to catch up from) is observationally identical — values *and* errors —
//! to an engine with the memo disabled and to the denotational evaluator
//! in `txtime-core`, sequentially and partitioned. This
//! is the property that licenses consulting the memo in `Engine::eval` at
//! all — and, since `modify_state` evaluates on the plain path and only
//! logs its delta for the memo, the property that licenses that bypass.
//! Maintenance is demand-driven (a read repairs the view it asks for and
//! no other), so the scripted tests at the end read different roots at
//! different lags behind their relations.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, Database, Expr, RelationType, SchemeChange, TransactionNumber, TxSpec};
use txtime_exec::ExecPool;
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_historical::{HistoricalState, TemporalElement};
use txtime_snapshot::generate::{random_predicate, random_state, GenConfig};
use txtime_snapshot::{
    CompOp, DomainType, Operand, Predicate, Schema, SnapshotState, Tuple, Value,
};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

/// 1 is the sequential oracle; 2 exercises the partitioned kernels that
/// a recomputed operator runs on.
const THREADS: [usize; 2] = [1, 2];

fn schema() -> Schema {
    Schema::new(vec![("a0", DomainType::Int), ("a1", DomainType::Str)]).unwrap()
}

fn gen_cfg() -> CmdGenConfig {
    CmdGenConfig {
        values: GenConfig {
            arity: 2,
            cardinality: 10,
            int_range: 12,
            str_pool: 4,
        },
        relations: vec!["r0".into(), "r1".into()],
        churn: 0.4,
    }
}

/// The engine under test: memo on, registering every expression on its
/// first evaluation so each query's second pass is a hit and every
/// subsequent modification must propagate.
fn memo_engine(threads: usize) -> Engine {
    let mut e = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(3).unwrap(),
    );
    e.set_pool(ExecPool::with_unit_grain(threads));
    e.set_memo_register_after(1);
    e
}

/// The oracle: identical engine with the memo disabled outright, so
/// every evaluation takes the plain plan-and-execute path.
fn plain_engine(threads: usize) -> Engine {
    let mut e = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(3).unwrap(),
    );
    e.set_pool(ExecPool::with_unit_grain(threads));
    e.set_memo_capacity(0);
    e
}

/// Evaluates `q` twice on both engines (the second pass on the memo
/// engine exercises the hit or freshly-propagated path) and once on the
/// oracle, and demands byte-identical results, errors included.
fn assert_agree(memo: &Engine, plain: &Engine, oracle: &Database, q: &Expr, threads: usize) {
    let denoted = q.eval(oracle);
    for pass in 0..2 {
        let want = plain.eval(q);
        let got = memo.eval(q);
        for (who, other) in [("memo", &got), ("oracle", &denoted)] {
            match (&want, other) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{threads} threads, pass {pass}: {q}: plain vs {who}")
                }
                (Err(a), Err(b)) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{threads} threads, pass {pass}: {q}: plain vs {who} error"
                ),
                _ => {
                    panic!("{threads} threads, pass {pass}: {q}: plain {want:?} != {who} {other:?}")
                }
            }
        }
    }
}

/// The engine under test, the memo-less engine and the denotational
/// oracle, driven in lockstep.
struct Rig {
    memo: Engine,
    plain: Engine,
    oracle: Database,
    threads: usize,
}

impl Rig {
    fn new(threads: usize) -> Rig {
        Rig {
            memo: memo_engine(threads),
            plain: plain_engine(threads),
            oracle: Database::empty(),
            threads,
        }
    }

    /// Runs `cmd` on all three and demands the same outcome, errors
    /// included.
    fn exec(&mut self, cmd: &Command) {
        let threads = self.threads;
        let a = self.memo.execute(cmd);
        let b = self.plain.execute(cmd);
        let c = cmd.execute(&self.oracle);
        match (&a, &b) {
            (Ok(_), Ok(_)) => {}
            (Err(x), Err(y)) => assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "{threads} threads: command error diverged"
            ),
            _ => panic!("{threads} threads: command outcome diverged: {a:?} vs {b:?}"),
        }
        match (b, c) {
            (Ok(_), Ok((next, _))) => self.oracle = next,
            (Err(x), Err(y)) => assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "{threads} threads: command error diverged from the oracle"
            ),
            (b, c) => panic!(
                "{threads} threads: {cmd}: engine {b:?} vs oracle {:?}",
                c.map(|_| ())
            ),
        }
    }

    /// Reads `q` everywhere; see [`assert_agree`].
    fn read(&self, q: &Expr) {
        assert_agree(&self.memo, &self.plain, &self.oracle, q, self.threads);
    }
}

/// Runs the command sequence on both engines and the oracle in lockstep,
/// checking the whole query pool after every command — so views
/// registered early see every later modification, deletion, and scheme
/// change as a repair or an invalidation. Commands whose index lies in
/// `unread` are not followed by reads: their writes pile up in the log
/// (or fall off it) until the next read catches its views up.
fn drive(
    cmds: &[Command],
    unread: std::ops::Range<usize>,
    queries: &[Expr],
    threads: usize,
) -> (Engine, Engine) {
    let mut rig = Rig::new(threads);
    for (i, cmd) in cmds.iter().enumerate() {
        rig.exec(cmd);
        if unread.contains(&i) {
            continue;
        }
        for q in queries {
            rig.read(q);
        }
    }
    (rig.memo, rig.plain)
}

/// Snapshot-algebra queries, the same shape pool as the other
/// differential suites (includes the σ/π-over-ρ pushdown forms).
fn random_query(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 {
        let r = ["r0", "r1"][rng.gen_range(0..2usize)];
        return if rng.gen_bool(0.4) {
            Expr::rollback(r, TxSpec::At(TransactionNumber(rng.gen_range(0..30))))
        } else {
            Expr::current(r)
        };
    }
    let values = gen_cfg().values;
    match rng.gen_range(0..6) {
        0 => random_query(rng, depth - 1).union(random_query(rng, depth - 1)),
        1 => random_query(rng, depth - 1).difference(random_query(rng, depth - 1)),
        2 => random_query(rng, depth - 1).select(random_predicate(rng, &schema(), &values, 2)),
        3 => random_query(rng, depth - 1).project(vec!["a0".into()]),
        4 => random_query(rng, depth - 1)
            .select(random_predicate(rng, &schema(), &values, 1))
            .project(vec!["a1".into(), "a0".into()]),
        _ => random_query(rng, 0),
    }
}

/// Historical-algebra queries over t0/h0.
fn random_hquery(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 {
        let r = ["t0", "h0"][rng.gen_range(0..2usize)];
        return if rng.gen_bool(0.4) {
            Expr::hrollback(r, TxSpec::At(TransactionNumber(rng.gen_range(0..30))))
        } else {
            Expr::hcurrent(r)
        };
    }
    let values = gen_cfg().values;
    match rng.gen_range(0..6) {
        0 => random_hquery(rng, depth - 1).hunion(random_hquery(rng, depth - 1)),
        1 => random_hquery(rng, depth - 1).hdifference(random_hquery(rng, depth - 1)),
        2 => random_hquery(rng, depth - 1).hselect(random_predicate(rng, &schema(), &values, 2)),
        3 => random_hquery(rng, depth - 1).hproject(vec!["a0".into()]),
        4 => random_hquery(rng, depth - 1)
            .hselect(random_predicate(rng, &schema(), &values, 1))
            .hproject(vec!["a1".into(), "a0".into()]),
        _ => random_hquery(rng, 0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Snapshot workloads: the memoized engine tracks the plain one
    /// through every modification, at every thread budget.
    /// The pool deliberately includes expressions that always error
    /// (undefined relation, ρ̂ of a snapshot-kind relation) — errors
    /// must never be cached into phantom successes.
    #[test]
    fn memo_matches_plain_on_snapshot_workloads(
        seed in any::<u64>(),
        len in 4usize..18,
        q_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        // The write path bypasses the memo; three shapes where it could
        // have mattered. (a) A write whose expression *is* a registered
        // display root (the union below is in the fixed pool): it must
        // neither be answered from that view nor disturb it.
        let registered_root = Expr::current("r0").union(Expr::current("r1"));
        cmds.push(Command::modify_state("r1", registered_root.clone()));
        // (b) A burst of 100 writes to a relation with registered readers
        // and no read in between: far more change than the log keeps
        // for a ten-row relation, so the next read finds its views off
        // the log. Expression writes and constant writes alternate.
        let burst_start = cmds.len();
        for i in 0..100usize {
            let fresh = Expr::snapshot_const(random_state(&mut rng, &schema(), &gen_cfg().values));
            let expr = if i % 2 == 0 {
                Expr::current("r0")
                    .difference(Expr::current("r1"))
                    .union(fresh)
            } else {
                fresh
            };
            cmds.push(Command::modify_state("r0", expr));
        }
        // Reads resume after the last write of the burst.
        let unread = burst_start..cmds.len() - 1;
        // (c) An as-of reader registered before the burst whose target
        // lands inside the burst: no fold ends at that version, so the
        // view must be re-resolved from the store, not patched. Each
        // successful command advances the clock by one, so command `i`
        // commits at `i + 1` or a little earlier.
        let inside = TransactionNumber((burst_start + 50) as u64);
        let mut qrng = StdRng::seed_from_u64(q_seed);
        let mut queries = vec![
            Expr::current("r0"),
            registered_root,
            Expr::current("r0").difference(Expr::current("r1")),
            Expr::current("r0").product(Expr::current("r1").project(vec!["a0".into()])),
            Expr::rollback("r0", TxSpec::At(inside)),
            Expr::rollback("r0", TxSpec::At(inside)).difference(Expr::current("r0")),
            Expr::current("ghost"),
            Expr::hcurrent("r0"),
        ];
        for _ in 0..3 {
            let depth = qrng.gen_range(1..4);
            queries.push(random_query(&mut qrng, depth));
        }
        for threads in THREADS {
            let (memo, _) = drive(&cmds, unread.clone(), &queries, threads);
            // The fixed pool repeats every step: the memo must have
            // actually answered from cache, not silently fallen
            // through to the plain path each time.
            prop_assert!(
                memo.memo_stats().hits > 0,
                "{} threads: memo never hit",
                threads
            );
        }
    }

    /// Temporal workloads: the ĥ operators' delta rules (element union
    /// and difference, candidate-image re-projection, ×̂ and δ
    /// fallback) track from-scratch evaluation exactly.
    #[test]
    fn memo_matches_plain_on_temporal_workloads(
        seed in any::<u64>(),
        len in 2usize..10,
        q_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hcfg = HistGenConfig {
            values: GenConfig { arity: 2, cardinality: 8, int_range: 10, str_pool: 4 },
            horizon: 40,
            max_periods: 2,
        };
        let mut cmds = vec![
            Command::define_relation("t0", RelationType::Temporal),
            Command::define_relation("h0", RelationType::Historical),
        ];
        for _ in 0..len {
            let target = if rng.gen_bool(0.7) { "t0" } else { "h0" };
            cmds.push(Command::modify_state(
                target,
                Expr::historical_const(random_historical_state(&mut rng, &schema(), &hcfg)),
            ));
        }
        let mut qrng = StdRng::seed_from_u64(q_seed);
        let mut queries = vec![
            Expr::hcurrent("t0"),
            Expr::hcurrent("t0").hunion(Expr::hcurrent("h0")),
            Expr::hcurrent("t0").hdifference(Expr::hcurrent("h0")),
            Expr::current("t0"), // ρ of a temporal relation: always an error
        ];
        for _ in 0..3 {
            let depth = qrng.gen_range(1..4);
            queries.push(random_hquery(&mut qrng, depth));
        }
        for threads in THREADS {
            drive(&cmds, 0..0, &queries, threads);
        }
    }

    /// Churn workloads: deletions, re-definitions, and scheme evolution
    /// interleaved with modifications. Registered views over the
    /// affected relation must be purged — never answered from a state
    /// belonging to the relation's previous life or previous scheme.
    #[test]
    fn memo_matches_plain_under_churn(
        seed in any::<u64>(),
        len in 4usize..14,
        q_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        let defines = gen_cfg().relations.len();
        let spice: Vec<Command> = vec![
            Command::evolve_scheme(
                "r0",
                SchemeChange::AddAttribute {
                    name: "extra".into(),
                    domain: DomainType::Bool,
                    default: Value::Bool(false),
                },
            ),
            Command::delete_relation("r1"),
            Command::define_relation("r1", RelationType::Rollback),
            Command::modify_state("ghost", Expr::current("ghost")), // always fails
        ];
        for s in spice {
            let pos = rng.gen_range(defines..=cmds.len());
            cmds.insert(pos, s);
        }
        let mut qrng = StdRng::seed_from_u64(q_seed);
        let mut queries = vec![
            Expr::current("r0").project(vec!["a0".into()]),
            Expr::current("r1"),
            Expr::current("r0").union(Expr::current("r1").project(vec!["a0".into()])),
        ];
        for _ in 0..2 {
            queries.push(random_query(&mut qrng, 2));
        }
        for threads in THREADS {
            drive(&cmds, 0..0, &queries, threads);
        }
    }
}

// --------------------------------------------------------------------
// Scripted lag scenarios: which root is read when is the whole point, so
// these are plain tests over a fixed script, at every thread budget, against the same two oracles.
// --------------------------------------------------------------------

/// Rows of `acct`: the log keeps a quarter of this in changes, two per
/// update-one-row commit, so a view may lag 32 commits and still repair.
const ACCT_ROWS: i64 = 256;

fn acct_schema() -> Schema {
    Schema::new(vec![("id", DomainType::Int), ("grade", DomainType::Int)]).unwrap()
}

fn acct_rows(rows: impl IntoIterator<Item = (i64, i64)>) -> Expr {
    Expr::snapshot_const(
        SnapshotState::from_rows(
            acct_schema(),
            rows.into_iter()
                .map(|(id, grade)| vec![Value::Int(id), Value::Int(grade)]),
        )
        .unwrap(),
    )
}

/// `acct(id, grade)` with `acct_len` rows, grade `id % 4`, and
/// `dept(dgrade, label)` with sixteen rows, so that losing one stays
/// under the quarter at which × recomputes.
fn lag_setup(acct_len: i64) -> Vec<Command> {
    let dept = SnapshotState::from_rows(
        Schema::new(vec![
            ("dgrade", DomainType::Int),
            ("label", DomainType::Str),
        ])
        .unwrap(),
        (0..16).map(|g| vec![Value::Int(g), Value::str(format!("d{g}"))]),
    )
    .unwrap();
    vec![
        Command::define_relation("acct", RelationType::Rollback),
        Command::define_relation("dept", RelationType::Rollback),
        Command::modify_state("acct", acct_rows((0..acct_len).map(|id| (id, id % 4)))),
        Command::modify_state("dept", Expr::snapshot_const(dept)),
    ]
}

/// The benchmark's update-one-row commit: the row of `id` gets `grade`.
fn update_row(id: i64, grade: i64) -> Command {
    Command::modify_state(
        "acct",
        Expr::current("acct")
            .difference(Expr::current("acct").select(Predicate::eq_const("id", Value::Int(id))))
            .union(acct_rows([(id, grade)])),
    )
}

/// Every row off grade 1: a σ on a non-leading attribute, so a view
/// (`σ_{id < 40}` would be a key probe, which is never registered).
fn off_grade_one() -> Expr {
    let one = Predicate::Comp(
        Operand::attr("grade"),
        CompOp::Ne,
        Operand::Const(Value::Int(1)),
    );
    Expr::current("acct").select(one)
}

fn grade_two_ids() -> Expr {
    Expr::current("acct")
        .select(Predicate::eq_const("grade", Value::Int(2)))
        .project(vec!["id".into()])
}

/// `acct ⋈ dept` on `grade = dgrade`, written as σ over × (level 1
/// lowers it to the physical join).
fn graded() -> Expr {
    Expr::current("acct")
        .product(Expr::current("dept"))
        .select(Predicate::eq_attrs("grade", "dgrade"))
}

fn labelled() -> Expr {
    graded().project(vec!["id".into(), "label".into()])
}

/// A `dept` commit dropping the rows `keep` rejects.
fn trim_dept(keep: Predicate) -> Command {
    Command::modify_state("dept", Expr::current("dept").select(keep))
}

fn dgrade_ne(g: i64) -> Predicate {
    Predicate::Comp(
        Operand::attr("dgrade"),
        CompOp::Ne,
        Operand::Const(Value::Int(g)),
    )
}

fn for_every_configuration(scenario: impl Fn(&mut Rig)) {
    for threads in THREADS {
        let mut rig = Rig::new(threads);
        for cmd in lag_setup(ACCT_ROWS) {
            rig.exec(&cmd);
        }
        scenario(&mut rig);
    }
}

/// (a) Three roots share the `ρ(acct, ∞)` leaf and are read at different
/// lags: each catches up from its own stamp, by its delta rules alone.
#[test]
fn roots_sharing_a_leaf_repair_from_their_own_stamps() {
    for_every_configuration(|rig| {
        let (a, b, join) = (off_grade_one(), grade_two_ids(), labelled());
        for q in [&a, &b, &join] {
            rig.read(q);
        }
        let registered = rig.memo.memo_stats();
        for i in 0..3 {
            rig.exec(&update_row(i, 2));
        }
        rig.read(&b); // at t+3
        rig.read(&join); // at t+3, by the ⋈ rule
        rig.exec(&trim_dept(Predicate::gt_const("dgrade", Value::Int(0))));
        rig.read(&join); // at t+4, by the ⋈ rule from the other side
        for i in 3..10 {
            rig.exec(&update_row(7 * i, (i + 1) % 4));
        }
        assert_eq!(rig.memo.memo_stats().max_lag, 10, "{} threads", rig.threads);
        rig.read(&join); // from t+4
        rig.read(&a); // from t
        rig.read(&b); // from t+3
        let stats = rig.memo.memo_stats();
        assert_eq!(stats.max_lag, 0, "{} threads", rig.threads);
        assert_eq!(
            (stats.fallbacks, stats.invalidations),
            (registered.fallbacks, registered.invalidations),
            "{} threads: every repair went through a delta rule: {stats:?}",
            rig.threads
        );
        assert_eq!(
            stats.repairs,
            registered.repairs + 6,
            "{} threads",
            rig.threads
        );
    });
}

/// A root and its own subexpression are both registered and read at
/// different lags: the subexpression's repair covers only its own span,
/// so the operator above it, further behind, must recompute from it
/// rather than apply a delta that starts too late.
#[test]
fn a_parent_behind_its_shared_child_recomputes_that_operator() {
    for_every_configuration(|rig| {
        let child = Expr::current("acct").select(Predicate::eq_const("grade", Value::Int(2)));
        let parent = grade_two_ids();
        rig.read(&parent);
        rig.read(&child);
        for i in 0..3 {
            rig.exec(&update_row(4 * i, 2)); // three rows join grade 2
        }
        rig.read(&child); // the child moves to t+3, the parent stays at t
        for i in 0..3 {
            rig.exec(&update_row(4 * i + 2, 0)); // three others leave it
        }
        let before = rig.memo.memo_stats();
        rig.read(&parent);
        let after = rig.memo.memo_stats();
        assert_eq!(
            (after.fallbacks, after.invalidations),
            (before.fallbacks + 1, before.invalidations),
            "{} threads: π recomputed from the repaired σ",
            rig.threads
        );
    });
}

/// A temporal relation `(attrs)` holding `rows` as `(values, valid)`.
fn hist(attrs: [(&str, DomainType); 2], rows: Vec<(Vec<Value>, (u32, u32))>) -> Expr {
    Expr::historical_const(
        HistoricalState::new(
            Schema::new(attrs.to_vec()).unwrap(),
            rows.into_iter()
                .map(|(vals, (from, to))| (Tuple::new(vals), TemporalElement::period(from, to))),
        )
        .unwrap(),
    )
}

/// `hacct(id, grade)`: 64 rows, grade `id % 4`, valid over `[0, 10)`,
/// but for the `(id, grade, valid)` overrides in `changed`.
fn hacct(changed: &[(i64, i64, (u32, u32))]) -> Expr {
    let rows = (0..64).map(|id| {
        let (grade, valid) = changed
            .iter()
            .find(|(i, ..)| *i == id)
            .map_or((id % 4, (0, 10)), |&(_, g, v)| (g, v));
        (vec![Value::Int(id), Value::Int(grade)], valid)
    });
    hist(
        [("id", DomainType::Int), ("grade", DomainType::Int)],
        rows.collect(),
    )
}

/// `hdept(dgrade, label)`: sixteen rows valid over `[5, 20)`, less the
/// grades in `dropped`.
fn hdept(dropped: &[i64]) -> Expr {
    let rows = (0..16)
        .filter(|g| !dropped.contains(g))
        .map(|g| (vec![Value::Int(g), Value::str(format!("d{g}"))], (5, 20)));
    hist(
        [("dgrade", DomainType::Int), ("label", DomainType::Str)],
        rows.collect(),
    )
}

fn define_hatted(rig: &mut Rig) {
    for cmd in [
        Command::define_relation("hacct", RelationType::Temporal),
        Command::define_relation("hdept", RelationType::Temporal),
        Command::modify_state("hacct", hacct(&[])),
        Command::modify_state("hdept", hdept(&[])),
    ] {
        rig.exec(&cmd);
    }
}

/// `σ̂_F(hacct ×̂ hdept)`, which level 1 lowers to the hatted join.
fn hgraded(residual: Option<Predicate>) -> Expr {
    let keys = Predicate::eq_attrs("grade", "dgrade");
    let f = residual.map_or(keys.clone(), |r| keys.and(r));
    Expr::hcurrent("hacct")
        .hproduct(Expr::hcurrent("hdept"))
        .hselect(f)
}

/// The third oracle, for the hatted join: snapshot reducibility. At
/// every chronon, the timeslice of the memo engine's `σ̂_F(A ×̂ B)` is
/// `σ_F` over the product of the timeslices.
fn assert_reducible(rig: &Rig, q: &Expr) {
    let Expr::HSelect(f, product) = q else {
        panic!("{q} is not σ̂ over ×̂");
    };
    let Expr::HProduct(a, b) = &**product else {
        panic!("{q} is not σ̂ over ×̂");
    };
    let hist = |e: &Expr| rig.plain.eval(e).unwrap().into_historical().unwrap();
    let got = rig.memo.eval(q).unwrap().into_historical().unwrap();
    let (a, b) = (hist(a), hist(b));
    for c in [0, 2, 5, 9, 10, 19, 20] {
        let sliced = a.timeslice(c).product(&b.timeslice(c)).unwrap();
        assert_eq!(
            got.timeslice(c),
            sliced.select(f).unwrap(),
            "{} threads: {q} at chronon {c}",
            rig.threads
        );
    }
}

/// The shape of the one wrong answer this memo has shipped, for ×, ⋈
/// and their hatted twins: the
/// operator is behind on both relations, and another root (a σ over the
/// right-hand relation) reads that side in between. The right-hand
/// `ρ(I, ∞)` leaf stands where its relation stands, so while the
/// operator catches up on the left-hand relation it is not the operand
/// the cached state was computed from: a rule that paired the removed
/// left rows with it would leave `(removed row, removed row)` in the
/// view for good. The operator is recomputed instead; in step again, the
/// next change goes by rule.
#[test]
fn an_operator_behind_on_both_relations_recomputes() {
    for_every_configuration(|rig| {
        define_hatted(rig);
        let label_ne = |l: &str| {
            Predicate::Comp(
                Operand::attr("label"),
                CompOp::Ne,
                Operand::Const(Value::str(l)),
            )
        };
        let moved = |id: i64, grade: i64| (id, grade, (0, 10));
        // Row 5 leaves grade 1 for grade 3; the right-hand commit drops
        // grade 0 (a pair of the product) or grade 1 (a pair of the join).
        let scripts = [
            (
                Expr::current("acct").product(Expr::current("dept")),
                Expr::current("dept").select(label_ne("d3")),
                update_row(5, 3),
                trim_dept(Predicate::gt_const("dgrade", Value::Int(0))),
                update_row(6, 1),
            ),
            (
                graded(),
                Expr::current("dept").select(label_ne("d3")),
                update_row(9, 3),
                trim_dept(dgrade_ne(1)),
                update_row(10, 1),
            ),
            (
                Expr::hcurrent("hacct").hproduct(Expr::hcurrent("hdept")),
                Expr::hcurrent("hdept").hselect(label_ne("d3")),
                Command::modify_state("hacct", hacct(&[moved(5, 3)])),
                Command::modify_state("hdept", hdept(&[0])),
                Command::modify_state("hacct", hacct(&[moved(6, 3)])),
            ),
            (
                hgraded(None),
                Expr::hcurrent("hdept").hselect(label_ne("d3")),
                Command::modify_state("hacct", hacct(&[moved(9, 3)])),
                Command::modify_state("hdept", hdept(&[0, 1])),
                Command::modify_state("hacct", hacct(&[moved(10, 3)])),
            ),
        ];
        for (operator, other, change_left, drop_right, change_again) in &scripts {
            rig.read(operator);
            rig.read(other);
            rig.exec(change_left);
            rig.exec(drop_right);
            rig.read(other);
            let before = rig.memo.memo_stats();
            rig.read(operator);
            let after = rig.memo.memo_stats();
            assert_eq!(
                (after.fallbacks, after.invalidations),
                (before.fallbacks + 1, before.invalidations),
                "{} threads: {operator}: one operator recomputed",
                rig.threads
            );
            rig.exec(change_again);
            rig.read(operator);
            assert_eq!(rig.memo.memo_stats().fallbacks, after.fallbacks);
            if matches!(operator, Expr::HSelect(..)) {
                assert_reducible(rig, operator);
            }
        }
    });
}

/// ⋈ and ⋈̂ views, with and without a residual conjunct, read between
/// commits to the left side, to the right side, and to both: one side's
/// change goes through the join's kernel against the other side (no
/// recompute); both sides' changes recompute the join once. The hatted
/// commits move valid times too, so that some pairs leave because their
/// times no longer meet.
#[test]
fn joins_repair_from_either_side_and_recompute_when_both_moved() {
    for_every_configuration(|rig| {
        define_hatted(rig);
        let residual = || Predicate::Comp(Operand::attr("id"), CompOp::Gt, Operand::attr("dgrade"));
        let joins = [
            graded(),
            Expr::current("acct")
                .product(Expr::current("dept"))
                .select(Predicate::eq_attrs("grade", "dgrade").and(residual())),
            hgraded(None),
            hgraded(Some(residual())),
        ];
        for q in &joins {
            rig.read(q);
        }
        let steps: [(&[Command], u64); 4] = [
            // id 1 moves to grade 3, where `id > dgrade` rejects it.
            (&[update_row(1, 3), update_row(2, 1)], 0),
            (
                &[
                    Command::modify_state("hacct", hacct(&[(1, 3, (0, 10)), (2, 1, (0, 4))])),
                    trim_dept(dgrade_ne(2)),
                ],
                0,
            ),
            (&[Command::modify_state("hdept", hdept(&[2]))], 0),
            (
                &[
                    update_row(3, 0),
                    trim_dept(Predicate::gt_const("dgrade", Value::Int(0))),
                    Command::modify_state("hacct", hacct(&[(3, 0, (6, 8)), (1, 1, (0, 10))])),
                    Command::modify_state("hdept", hdept(&[0, 2])),
                ],
                // Each of the four joins moved on both sides.
                4,
            ),
        ];
        for (commands, recomputed) in steps {
            for cmd in commands {
                rig.exec(cmd);
            }
            let before = rig.memo.memo_stats();
            for q in &joins {
                rig.read(q);
            }
            let after = rig.memo.memo_stats();
            assert_eq!(
                (after.fallbacks, after.invalidations),
                (before.fallbacks + recomputed, before.invalidations),
                "{} threads: after {commands:?}",
                rig.threads
            );
        }
        for q in &joins[2..] {
            assert_reducible(rig, q);
        }
    });
}

/// π over a join: one projection keeps the join's leading attribute, two
/// drop it; every image has two pre-images (two tags per grade), so an
/// image whose pre-image leaves usually survives through the other, and
/// the π rule must find that one among the rows sharing the kept leading
/// attribute. (Each π reads a join of its own: a join another root has
/// already brought forward would leave its parent to recompute.)
#[test]
fn projections_over_a_join_keep_images_that_another_pre_image_holds() {
    let tag = |dropped: &[(i64, &str)]| {
        let rows = (0..4)
            .flat_map(|g| ["a", "b"].map(|t| (g, t)))
            .filter(|row| !dropped.contains(row));
        let schema = Schema::new(vec![("tgrade", DomainType::Int), ("tag", DomainType::Str)]);
        let rows = rows.map(|(g, t)| vec![Value::Int(g), Value::str(format!("t{g}{t}"))]);
        Expr::snapshot_const(SnapshotState::from_rows(schema.unwrap(), rows).unwrap())
    };
    for_every_configuration(|rig| {
        rig.exec(&Command::define_relation("tag", RelationType::Rollback));
        rig.exec(&Command::modify_state("tag", tag(&[])));
        let tagged = |ids: Predicate| {
            Expr::current("acct")
                .product(Expr::current("tag"))
                .select(Predicate::eq_attrs("grade", "tgrade").and(ids))
        };
        let id = |op, v| Predicate::Comp(Operand::attr("id"), op, Operand::Const(Value::Int(v)));
        let views = [
            tagged(id(CompOp::Ge, 0)).project(vec!["id".into(), "grade".into()]),
            tagged(id(CompOp::Ge, 1)).project(vec!["grade".into(), "tag".into()]),
            tagged(id(CompOp::Lt, 1000)).project(vec!["tag".into()]),
            labelled(),
        ];
        for q in &views {
            rig.read(q);
        }
        let steps = [
            // Every grade-1 image keeps its `b` pre-image.
            Command::modify_state("tag", tag(&[(1, "a")])),
            update_row(5, 2),
            update_row(6, 1),
            // Grade 2 loses both tags: its images go.
            Command::modify_state("tag", tag(&[(1, "a"), (2, "a"), (2, "b")])),
            update_row(7, 2),
            Command::modify_state("tag", tag(&[(2, "b")])),
            trim_dept(dgrade_ne(3)),
        ];
        let before = rig.memo.memo_stats();
        for cmd in &steps {
            rig.exec(cmd);
            for q in &views {
                rig.read(q);
            }
        }
        let after = rig.memo.memo_stats();
        assert_eq!(
            (after.fallbacks, after.invalidations),
            (before.fallbacks, before.invalidations),
            "{} threads: every π repaired by rule",
            rig.threads
        );
    });
}

/// Key probes — `=`, a range, a conjunction with a non-key conjunct, on
/// `ρ(I, ∞)` and on `ρ(I, n)`, and with an unknown attribute — are
/// answered by the store's filtered resolve and never reach the memo:
/// nothing is registered, counted or interned, however often they are
/// read across commits, and values and error text are the oracle's.
#[test]
fn key_probes_are_never_registered_and_answer_as_the_oracle() {
    for_every_configuration(|rig| {
        let id = |op, v| Predicate::Comp(Operand::attr("id"), op, Operand::Const(Value::Int(v)));
        let at = |n| Expr::rollback("acct", TxSpec::At(TransactionNumber(n)));
        let ghost = Predicate::eq_const("ghost", Value::Int(1));
        let probes = [
            Expr::current("acct").select(id(CompOp::Eq, 5)),
            Expr::current("acct").select(id(CompOp::Ge, 10).and(id(CompOp::Lt, 20))),
            Expr::current("acct")
                .select(id(CompOp::Le, 30).and(Predicate::eq_const("grade", Value::Int(2)))),
            at(6).select(id(CompOp::Eq, 2)),
            at(2).select(id(CompOp::Gt, 250)),
            Expr::current("acct").select(id(CompOp::Eq, 1).and(ghost.clone())),
            Expr::current("acct").select(ghost),
            Expr::current("acct").select(Predicate::eq_const("id", Value::str("x"))),
            Expr::current("acct"),
            Expr::current("dept"),
        ];
        for i in 0..6 {
            for q in &probes {
                rig.read(q);
            }
            rig.exec(&update_row(i, (i + 2) % 4));
        }
        let stats = rig.memo.memo_stats();
        assert_eq!(
            (stats.registrations, stats.views, stats.hits),
            (0, 0, 0),
            "{} threads: {stats:?}",
            rig.threads
        );
        // Only the σ on an unknown attribute (not a key probe) was
        // interned and counted, and its error never registers.
        assert!(rig.memo.memo_interner_footprint().0 <= 2);
    });
}

/// (b) A hot root keeps up commit by commit while a cold one falls
/// behind the trimmed log: the cold one is re-evaluated on its next read,
/// not repaired.
#[test]
fn a_view_behind_the_trimmed_log_is_re_evaluated() {
    for_every_configuration(|rig| {
        let (cold, hot) = (off_grade_one(), grade_two_ids());
        rig.read(&cold);
        rig.read(&hot);
        let commits = ACCT_ROWS / 4;
        for i in 0..commits {
            rig.exec(&update_row(i, 2));
            rig.read(&hot);
        }
        let behind = rig.memo.memo_stats();
        assert!(
            behind.log_entries < commits as usize,
            "{} threads: the log was trimmed ({} entries)",
            rig.threads,
            behind.log_entries
        );
        assert_eq!(behind.fallbacks, 0, "{} threads", rig.threads);
        rig.read(&cold);
        let after = rig.memo.memo_stats();
        assert_eq!(
            (after.invalidations, after.fallbacks),
            (behind.invalidations + 1, 0),
            "{} threads: dropped for falling off the log",
            rig.threads
        );
        // Back on the log: the next commit is repaired again.
        rig.exec(&update_row(5, 0));
        rig.read(&cold);
        assert_eq!(
            rig.memo.memo_stats().invalidations,
            after.invalidations,
            "{} threads",
            rig.threads
        );
    });
}

/// (c) An as-of probe whose target lies inside a span that a root has
/// not caught up on: no fold ends there, so the leaf re-resolves from
/// the store and the operator above it is recomputed.
#[test]
fn an_as_of_probe_inside_an_unrepaired_span_re_resolves() {
    for_every_configuration(|rig| {
        // The setup's four commands commit at 1..=4; the updates below
        // at 5..=14.
        let inside = TxSpec::At(TransactionNumber(9));
        let probe = Expr::rollback("acct", inside);
        let since = Expr::current("acct").difference(Expr::rollback("acct", inside));
        let a = off_grade_one();
        for q in [&probe, &since, &a] {
            rig.read(q);
        }
        for i in 0..10 {
            rig.exec(&update_row(i, 3));
        }
        rig.read(&a); // one root moves on; `since` stays behind
        rig.read(&since);
        rig.read(&probe);
        // From here the probe names a version before every new commit.
        let before = rig.memo.memo_stats();
        rig.exec(&update_row(11, 3));
        rig.read(&since);
        rig.read(&probe);
        let after = rig.memo.memo_stats();
        assert_eq!(
            (after.fallbacks, after.invalidations),
            (before.fallbacks, before.invalidations),
            "{} threads: a probe below the span only moves its stamp",
            rig.threads
        );
    });
}

/// (d) Deletion, scheme evolution and truncation while views lag purge
/// the views and the log they would have caught up from.
#[test]
fn churn_under_lagging_views_purges_them_and_the_log() {
    for_every_configuration(|rig| {
        let queries = [off_grade_one(), grade_two_ids(), labelled()];
        let lag = |rig: &mut Rig| {
            for q in &queries {
                rig.read(q);
            }
            for i in 0..5 {
                rig.exec(&update_row(i, 1));
            }
            let stats = rig.memo.memo_stats();
            assert!(stats.log_entries >= 1 && stats.max_lag == 5, "{stats:?}");
        };
        let assert_purged = |rig: &Rig, what: &str| {
            let stats = rig.memo.memo_stats();
            // Nothing reads `dept` alone, and `ρ(dept, ∞)` keeps no view.
            assert!(
                stats.views == 0 && stats.log_entries == 0,
                "{} threads: after {what}: {stats:?}",
                rig.threads
            );
        };

        lag(rig);
        let cutoff = rig.memo.tx();
        for e in [&mut rig.memo, &mut rig.plain] {
            assert!(e.archive_before("acct", cutoff, None).unwrap().archived > 0);
        }
        assert_purged(rig, "truncation");
        for q in &queries {
            rig.read(q);
        }

        lag(rig);
        rig.exec(&Command::evolve_scheme(
            "acct",
            SchemeChange::AddAttribute {
                name: "extra".into(),
                domain: DomainType::Bool,
                default: Value::Bool(false),
            },
        ));
        assert_purged(rig, "evolution");
        for q in &queries {
            rig.read(q);
        }

        // The evolved scheme no longer fits `update_row`'s literal; write
        // through an expression over the relation itself.
        for q in &queries {
            rig.read(q);
        }
        rig.exec(&Command::modify_state(
            "acct",
            Expr::current("acct").select(Predicate::gt_const("id", Value::Int(3))),
        ));
        assert_eq!(rig.memo.memo_stats().max_lag, 1);
        rig.exec(&Command::delete_relation("acct"));
        assert_purged(rig, "deletion");
        rig.exec(&Command::define_relation("acct", RelationType::Rollback));
        rig.exec(&Command::modify_state("acct", acct_rows([(1, 1), (2, 2)])));
        for q in &queries {
            rig.read(q);
        }
    });
}

/// (f) 10 000 commits with no read: the log stays bounded and the read
/// that follows is correct.
#[test]
fn ten_thousand_unread_commits_leave_the_log_bounded() {
    // The denotational oracle copies its whole history per command, so
    // the burst runs on the two engines alone and the oracle is rebuilt
    // at the end from the test's own model of update-one-row.
    const ROWS: i64 = 32;
    let mut rig = Rig::new(1);
    for cmd in lag_setup(ROWS) {
        rig.exec(&cmd);
    }
    let queries = [off_grade_one(), grade_two_ids(), labelled()];
    for q in &queries {
        rig.read(q);
    }
    // A quarter of the relation in changes, at least one per entry.
    let bound = (ROWS / 4) as usize;
    let mut model: Vec<i64> = (0..ROWS).map(|id| id % 4).collect();
    for i in 0..10_000i64 {
        let (id, grade) = (i * 7 % ROWS, i % 4);
        model[id as usize] = grade;
        for e in [&mut rig.memo, &mut rig.plain] {
            e.execute(&update_row(id, grade)).unwrap();
        }
        if i % 500 == 0 {
            let held = rig.memo.memo_stats().log_entries;
            assert!(held <= bound, "{held} entries after {i} commits");
        }
    }
    let stats = rig.memo.memo_stats();
    assert!(stats.log_entries <= bound, "{stats:?}");
    assert_eq!(stats.propagations, 0, "writes walk no view");
    let rows = model.iter().enumerate().map(|(id, g)| (id as i64, *g));
    rig.oracle = Database::empty();
    for mut cmd in lag_setup(ROWS) {
        if matches!(&cmd, Command::ModifyState(ident, _) if ident == "acct") {
            cmd = Command::modify_state("acct", acct_rows(rows.clone()));
        }
        rig.oracle = cmd.execute(&rig.oracle).unwrap().0;
    }
    for q in &queries {
        rig.read(q);
    }
    assert_eq!(rig.memo.memo_stats().max_lag, 0);
}
