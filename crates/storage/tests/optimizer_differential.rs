//! Differential property tests for the cost-based plan search: an
//! engine at optimize level 2 (memoized plan search over the `ExprId`
//! DAG) is observationally identical — values *and* errors — to an
//! engine that evaluates expressions as written (level 0) or with the
//! pushdown pass only (level 1), with the view memo on and off. This is the property that
//! licenses rewriting in `Engine::eval` at all: every enumeration rule
//! in `txtime_optimizer::search` carries a guard precisely so this
//! suite can demand error identity, not just value identity.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, Expr, RelationType, TransactionNumber, TxSpec};
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_historical::{TemporalExpr, TemporalPred};
use txtime_snapshot::generate::{random_predicate, random_state, GenConfig};
use txtime_snapshot::{DomainType, Predicate, Schema, Value};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

const MEMO: [bool; 2] = [false, true];

fn schema() -> Schema {
    Schema::new(vec![("a0", DomainType::Int), ("a1", DomainType::Str)]).unwrap()
}

/// A second, attribute-disjoint schema so products are well-formed.
fn schema_b() -> Schema {
    Schema::new(vec![("b0", DomainType::Int)]).unwrap()
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

fn engine(level: u8, memo: bool) -> Engine {
    let mut e = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(3).unwrap(),
    );
    e.set_optimize(level);
    if memo {
        e.set_memo_register_after(1);
    } else {
        e.set_memo_capacity(0);
    }
    e
}

/// Demands the same observable outcome from both engines: equal states
/// on success, both-error on failure (the engine's error-identity
/// convention — payloads may differ in detail between plans, but an
/// erroring query must never be optimized into a succeeding one, nor
/// the reverse).
fn assert_agree(opt: &Engine, base: &Engine, q: &Expr, label: &str, passes: usize) {
    for pass in 0..passes {
        let want = base.eval(q);
        let got = opt.eval(q);
        match (&want, &got) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}, pass {pass}: {q} diverged"),
            (Err(_), Err(_)) => {}
            _ => panic!("{label}, pass {pass}: {q}: base {want:?} != optimized {got:?}"),
        }
    }
}

/// Runs the command sequence on both engines in lockstep, sweeping the
/// query pool after every command. Memoized engines evaluate each query
/// twice so the second pass exercises the canonical-plan memo hit.
fn drive(cmds: &[Command], queries: &[Expr], opt: &mut Engine, base: &mut Engine, label: &str) {
    let passes = 2;
    for cmd in cmds {
        let a = opt.execute(cmd);
        let b = base.execute(cmd);
        match (&a, &b) {
            (Ok(_), Ok(_)) => {}
            (Err(x), Err(y)) => assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "{label}: command error diverged"
            ),
            _ => panic!("{label}: command outcome diverged: {a:?} vs {b:?}"),
        }
        for q in queries {
            assert_agree(opt, base, q, label, passes);
        }
    }
}

/// Snapshot queries biased toward the shapes the searcher rewrites:
/// σ-over-product chains, σ-over-∪/−, π/σ stacks — plus plain leaves.
fn random_query(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 {
        let r = ["r0", "r1", "q0"][rng.gen_range(0..3usize)];
        return if rng.gen_bool(0.4) {
            Expr::rollback(r, TxSpec::At(TransactionNumber(rng.gen_range(0..30))))
        } else {
            Expr::current(r)
        };
    }
    let values = gen_cfg().values;
    match rng.gen_range(0..8) {
        0 => random_query(rng, depth - 1).union(random_query(rng, depth - 1)),
        1 => random_query(rng, depth - 1).difference(random_query(rng, depth - 1)),
        2 => random_query(rng, depth - 1).select(random_predicate(rng, &schema(), &values, 2)),
        3 => random_query(rng, depth - 1).project(vec!["a0".into()]),
        4 => random_query(rng, depth - 1)
            .select(random_predicate(rng, &schema(), &values, 1))
            .project(vec!["a1".into(), "a0".into()]),
        // The headline shape: a filter over a cross product, with
        // conjuncts the searcher can split across the operands.
        5 | 6 => {
            let left = if rng.gen_bool(0.5) {
                Expr::current("r0")
            } else {
                Expr::current("r1")
            };
            let p = Predicate::gt_const("a0", Value::Int(rng.gen_range(-2..12)))
                .and(Predicate::lt_const("b0", Value::Int(rng.gen_range(-2..12))));
            left.product(Expr::current("q0")).select(p)
        }
        _ => random_query(rng, 0),
    }
}

/// Expressions that must error identically under every plan — wrong
/// kinds, unknown relations and attributes, overlapping product
/// schemes. The searcher's guards exist so these stay errors.
fn error_pool() -> Vec<Expr> {
    vec![
        Expr::current("ghost"),
        Expr::hcurrent("r0"),
        Expr::Select(Predicate::True, Box::new(Expr::hcurrent("r0"))),
        Expr::current("r0").select(Predicate::gt_const("zz", Value::Int(0))),
        Expr::current("r0").project(vec!["zz".into()]),
        // Overlapping schemes: r0 × r1 shares a0/a1.
        Expr::current("r0").product(Expr::current("r1")),
        Expr::current("r0")
            .product(Expr::current("r1"))
            .select(Predicate::gt_const("a0", Value::Int(3))),
        Expr::current("ghost")
            .product(Expr::current("q0"))
            .select(Predicate::gt_const("a0", Value::Int(0))),
        Expr::Delta(
            TemporalPred::True,
            TemporalExpr::ValidTime,
            Box::new(Expr::current("r0")),
        ),
    ]
}

/// Shapes that exercise each guarded rewrite on the success path.
fn guard_pool() -> Vec<Expr> {
    let selective = Predicate::gt_const("a0", Value::Int(4))
        .and(Predicate::lt_const("b0", Value::Int(6)))
        .and(Predicate::eq_attrs("a0", "b0"));
    vec![
        // Product chain with a splittable conjunction on top.
        Expr::current("r0")
            .product(Expr::current("q0"))
            .select(selective),
        // σ below π (attrs(F) ⊆ X) and π cascade / identity shapes.
        Expr::current("r0")
            .project(vec!["a0".into(), "a1".into()])
            .select(Predicate::gt_const("a0", Value::Int(2))),
        Expr::current("r0")
            .project(vec!["a1".into(), "a0".into()])
            .project(vec!["a0".into()]),
        Expr::current("r0").project(vec!["a0".into(), "a1".into()]),
        Expr::current("r0").select(Predicate::True),
        // σ over ∪/− with a fused inner σ.
        Expr::current("r0")
            .union(Expr::current("r1"))
            .select(Predicate::gt_const("a0", Value::Int(1)))
            .select(Predicate::lt_const("a0", Value::Int(9))),
        Expr::current("r0")
            .difference(Expr::current("r1"))
            .select(Predicate::gt_const("a0", Value::Int(0))),
    ]
}

/// Commands for the product operand `q0` over the disjoint schema.
fn q0_commands(rng: &mut StdRng) -> Vec<Command> {
    let values = GenConfig {
        arity: 1,
        cardinality: 8,
        int_range: 12,
        str_pool: 4,
    };
    let mut cmds = vec![Command::define_relation("q0", RelationType::Rollback)];
    for _ in 0..2 {
        cmds.push(Command::modify_state(
            "q0",
            Expr::snapshot_const(random_state(rng, &schema_b(), &values)),
        ));
    }
    cmds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Level 2 vs level 0 (no rewriting at all), memo on and off, with
    /// random command
    /// sequences and a query pool of random, guard-targeting, and
    /// always-erroring shapes.
    #[test]
    fn search_matches_unoptimized_eval(
        seed in any::<u64>(),
        len in 4usize..14,
        q_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        cmds.extend(q0_commands(&mut rng));
        let mut qrng = StdRng::seed_from_u64(q_seed);
        let mut queries = guard_pool();
        queries.extend(error_pool());
        for _ in 0..3 {
            let depth = qrng.gen_range(1..4);
            queries.push(random_query(&mut qrng, depth));
        }
        for memo in MEMO {
            let label = format!("memo={memo}");
            let mut opt = engine(2, memo);
            let mut base = engine(0, memo);
            drive(&cmds, &queries, &mut opt, &mut base, &label);
            prop_assert!(
                opt.optimizer_stats().searches > 0,
                "{}: the search never ran",
                label
            );
        }
    }

    /// Level 2 vs level 1 (the pushdown default) on temporal workloads:
    /// the hatted rewrites (σ̂ fusion and distribution, π̂ cascade, ×̂
    /// rotation, δ-identity) against the pre-search engine behavior.
    #[test]
    fn search_matches_pushdown_on_temporal_workloads(
        seed in any::<u64>(),
        len in 2usize..8,
        q_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hcfg = HistGenConfig {
            values: GenConfig { arity: 2, cardinality: 8, int_range: 10, str_pool: 4 },
            horizon: 40,
            max_periods: 2,
        };
        let bcfg = HistGenConfig {
            values: GenConfig { arity: 1, cardinality: 6, int_range: 10, str_pool: 4 },
            horizon: 40,
            max_periods: 2,
        };
        let mut cmds = vec![
            Command::define_relation("t0", RelationType::Temporal),
            Command::define_relation("h0", RelationType::Historical),
            Command::define_relation("tb", RelationType::Temporal),
        ];
        for _ in 0..len {
            let (target, sch, cfg) = if rng.gen_bool(0.4) {
                ("tb", schema_b(), &bcfg)
            } else if rng.gen_bool(0.5) {
                ("t0", schema(), &hcfg)
            } else {
                ("h0", schema(), &hcfg)
            };
            cmds.push(Command::modify_state(
                target,
                Expr::historical_const(random_historical_state(&mut rng, &sch, cfg)),
            ));
        }
        let mut qrng = StdRng::seed_from_u64(q_seed);
        let hp = Predicate::gt_const("a0", Value::Int(2))
            .and(Predicate::lt_const("b0", Value::Int(7)));
        let mut queries = vec![
            Expr::hcurrent("t0").hselect(Predicate::True),
            Expr::hcurrent("t0")
                .hproduct(Expr::hcurrent("tb"))
                .hselect(hp.clone()),
            Expr::hcurrent("t0")
                .hunion(Expr::hcurrent("h0"))
                .hselect(Predicate::gt_const("a0", Value::Int(0))),
            Expr::hcurrent("t0")
                .hproject(vec!["a0".into(), "a1".into()]),
            Expr::hcurrent("t0")
                .hproject(vec!["a1".into(), "a0".into()])
                .hproject(vec!["a0".into()]),
            Expr::hcurrent("t0").delta(TemporalPred::True, TemporalExpr::ValidTime),
            // ×̂ chain: association order is the searcher's to choose.
            Expr::hcurrent("t0")
                .hproduct(Expr::hcurrent("tb"))
                .hselect(hp)
                .hdifference(Expr::hcurrent("t0").hproduct(Expr::hcurrent("tb"))),
            // Error shapes: wrong kind, unknown relation.
            Expr::current("t0"),
            Expr::hcurrent("nope").hselect(Predicate::True),
            Expr::hcurrent("t0").hproduct(Expr::hcurrent("h0")), // overlapping schemes
        ];
        for _ in 0..2 {
            let depth = qrng.gen_range(1..3);
            queries.push(random_query(&mut qrng, depth)); // snapshot noise on a temporal db
        }
        let label = "vs pushdown".to_string();
        let mut opt = engine(2, true);
        let mut base = engine(1, true);
        drive(&cmds, &queries, &mut opt, &mut base, &label);
    }
}

/// Two source expressions in the same equivalence group canonicalize to
/// the same plan, so the second one is answered by the view memo — the
/// "rewritten plans hit the `ViewRegistry` via canonical `ExprId`s"
/// requirement, stated as a test.
#[test]
fn canonical_plans_share_memoized_views() {
    let mut e = engine(2, true);
    let mut rng = StdRng::seed_from_u64(0xCAFE);
    let values = gen_cfg().values;
    e.execute(&Command::define_relation("r0", RelationType::Rollback))
        .unwrap();
    e.execute(&Command::modify_state(
        "r0",
        Expr::snapshot_const(random_state(&mut rng, &schema(), &values)),
    ))
    .unwrap();
    for cmd in q0_commands(&mut rng) {
        e.execute(&cmd).unwrap();
    }
    let p_left = Predicate::gt_const("a0", Value::Int(3));
    let p_right = Predicate::lt_const("b0", Value::Int(8));
    // Shape 1: one conjunction over the bare product.
    let fused = Expr::current("r0")
        .product(Expr::current("q0"))
        .select(p_left.clone().and(p_right.clone()));
    // Shape 2: the same query already split across the operands.
    let split = Expr::current("r0")
        .select(p_left)
        .product(Expr::current("q0").select(p_right));
    let a = e.eval(&fused).unwrap();
    let hits_before = e.memo_stats().hits;
    let b = e.eval(&split).unwrap();
    assert_eq!(a, b);
    assert!(
        e.memo_stats().hits > hits_before,
        "the split shape should canonicalize onto the fused shape's cached views: {:?}",
        e.memo_stats()
    );
    let stats = e.optimizer_stats();
    assert_eq!(stats.level, 2);
    assert!(stats.searches >= 2, "{stats:?}");
}

/// The per-generation plan cache answers repeated plans without
/// re-searching, and a mutation invalidates it.
#[test]
fn plan_cache_hits_within_a_generation() {
    let mut e = engine(2, false);
    let mut rng = StdRng::seed_from_u64(7);
    let values = gen_cfg().values;
    e.execute(&Command::define_relation("r0", RelationType::Rollback))
        .unwrap();
    e.execute(&Command::modify_state(
        "r0",
        Expr::snapshot_const(random_state(&mut rng, &schema(), &values)),
    ))
    .unwrap();
    // Mutations above also pass through the planner, so count deltas.
    let before = e.optimizer_stats();
    let q = Expr::current("r0").select(Predicate::gt_const("a0", Value::Int(1)));
    e.eval(&q).unwrap();
    e.eval(&q).unwrap();
    let stats = e.optimizer_stats();
    assert_eq!(stats.searches, before.searches + 1, "{stats:?}");
    assert_eq!(
        stats.plan_cache_hits,
        before.plan_cache_hits + 1,
        "{stats:?}"
    );
    // A mutation bumps the clock: the next eval must re-plan.
    e.execute(&Command::modify_state(
        "r0",
        Expr::snapshot_const(random_state(&mut rng, &schema(), &values)),
    ))
    .unwrap();
    e.eval(&q).unwrap();
    assert!(e.optimizer_stats().searches > stats.searches);
}

/// Level 1 lowers `σ_F(A × B)` (and `σ̂_F(A ×̂ B)`) to the physical join
/// where `F` has a cross-operand `=` and the guard holds, and leaves the
/// shape alone where it does not: a scheme-evolved relation (no exact
/// schema), an attribute clash, temporal operands under σ over ×, the
/// hatted twin over snapshot operands, a key of the wrong type. Values
/// and error text match level 0 (σ over × as written) either way, memo
/// on and off.
#[test]
fn level_one_lowers_equi_selections_where_the_guard_holds() {
    use txtime_core::SchemeChange;
    use txtime_historical::{HistoricalState, TemporalElement};
    use txtime_snapshot::{SnapshotState, Tuple};
    let snap = |schema: Schema, rows: Vec<Vec<Value>>| {
        Expr::snapshot_const(SnapshotState::from_rows(schema, rows).unwrap())
    };
    let hist = |schema: Schema, rows: Vec<Vec<Value>>| {
        let entries = rows.into_iter().enumerate().map(|(i, vals)| {
            let valid = TemporalElement::period(i as u32, i as u32 + 3);
            (Tuple::new(vals), valid)
        });
        Expr::historical_const(HistoricalState::new(schema, entries).unwrap())
    };
    let r0 = || {
        let rows = (0..6).map(|i| vec![Value::Int(i), Value::str(format!("s{}", i % 3))]);
        rows.collect::<Vec<_>>()
    };
    let q0 = || (2..8).map(|i| vec![Value::Int(i)]).collect::<Vec<_>>();
    let evolved = Schema::new(vec![("c0", DomainType::Int)]).unwrap();
    let commands = vec![
        Command::define_relation("r0", RelationType::Rollback),
        Command::define_relation("r1", RelationType::Rollback),
        Command::define_relation("q0", RelationType::Rollback),
        Command::define_relation("t0", RelationType::Temporal),
        Command::define_relation("u0", RelationType::Temporal),
        Command::define_relation("ev", RelationType::Rollback),
        Command::modify_state("r0", snap(schema(), r0())),
        Command::modify_state("r1", snap(schema(), r0())),
        Command::modify_state("q0", snap(schema_b(), q0())),
        Command::modify_state("t0", hist(schema(), r0())),
        Command::modify_state("u0", hist(schema_b(), q0())),
        Command::modify_state("ev", snap(evolved, q0())),
        Command::evolve_scheme(
            "ev",
            SchemeChange::AddAttribute {
                name: "c1".into(),
                domain: DomainType::Int,
                default: Value::Int(0),
            },
        ),
    ];
    let key = Predicate::eq_attrs("a0", "b0");
    let filtered = key.clone().and(Predicate::eq_const("a1", Value::str("s1")));
    let lowered = [
        Expr::current("r0")
            .product(Expr::current("q0"))
            .select(key.clone()),
        Expr::current("r0")
            .product(Expr::current("q0"))
            .select(filtered)
            .project(vec!["b0".into()]),
        Expr::rollback("r0", TxSpec::At(TransactionNumber(8)))
            .product(Expr::current("q0"))
            .select(key.clone()),
        Expr::hcurrent("t0")
            .hproduct(Expr::hcurrent("u0"))
            .hselect(key.clone()),
    ];
    let declined = [
        Expr::current("ev")
            .product(Expr::current("q0"))
            .select(Predicate::eq_attrs("c0", "b0")),
        Expr::current("r0")
            .product(Expr::current("r1"))
            .select(Predicate::eq_attrs("a0", "a0")),
        Expr::hcurrent("t0")
            .product(Expr::hcurrent("u0"))
            .select(key.clone()),
        Expr::current("r0")
            .hproduct(Expr::current("q0"))
            .hselect(key),
        Expr::current("r0")
            .product(Expr::current("q0"))
            .select(Predicate::eq_attrs("a1", "b0")),
    ];
    for memo in MEMO {
        let label = format!("memo {memo}");
        let mut level1 = engine(1, memo);
        let mut level0 = engine(0, memo);
        for cmd in &commands {
            level1.execute(cmd).unwrap();
            level0.execute(cmd).unwrap();
        }
        for (q, joins) in lowered
            .iter()
            .map(|q| (q, true))
            .chain(declined.iter().map(|q| (q, false)))
        {
            let plan = level1.explain(q);
            assert_eq!(plan.contains("join["), joins, "{label}: {q}\n{plan}");
            for pass in 0..2 {
                match (level0.eval(q), level1.eval(q)) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}, pass {pass}: {q}"),
                    (Err(a), Err(b)) => {
                        assert_eq!(a.to_string(), b.to_string(), "{label}, pass {pass}: {q}")
                    }
                    (a, b) => panic!("{label}, pass {pass}: {q}: {a:?} vs {b:?}"),
                }
            }
        }
    }
}
