//! Differential property tests for the physical join operators: a
//! `join[spec]`/`hjoin[spec]` plan node is observationally identical —
//! values *and* errors — to its defining `σ_spec(×)`/`σ̂_spec(×̂)` form,
//! with the view memo on and off, at one and two
//! worker threads, for both physical algorithms. This is the contract that lets the plan search emit join
//! nodes at all: the kernels are faster evaluation orders for claim 1's
//! σ-over-× form, never different answers.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, Expr, JoinPhysical, JoinSpec, RelationType, StateValue};
use txtime_exec::ExecPool;
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_snapshot::generate::{random_state, GenConfig};
use txtime_snapshot::{DomainType, Predicate, Schema, Value};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

const MEMO: [bool; 2] = [false, true];
const THREADS: [usize; 2] = [1, 2];
const PHYSICALS: [JoinPhysical; 2] = [JoinPhysical::Hash, JoinPhysical::Merge];

fn schema() -> Schema {
    Schema::new(vec![("a0", DomainType::Int), ("a1", DomainType::Str)]).unwrap()
}

/// A second, attribute-disjoint schema so joins are well-formed.
fn schema_b() -> Schema {
    Schema::new(vec![("b0", DomainType::Int)]).unwrap()
}

fn gen_cfg() -> CmdGenConfig {
    CmdGenConfig {
        values: GenConfig {
            arity: 2,
            cardinality: 10,
            int_range: 8,
            str_pool: 4,
        },
        relations: vec!["r0".into(), "r1".into()],
        churn: 0.4,
    }
}

fn engine(memo: bool, threads: usize) -> Engine {
    let mut e = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(3).unwrap(),
    );
    e.set_pool(ExecPool::with_unit_grain(threads));
    if memo {
        e.set_memo_register_after(1);
    } else {
        e.set_memo_capacity(0);
    }
    e
}

fn spec(keys: &[(&str, &str)], residual: Predicate, physical: JoinPhysical) -> JoinSpec {
    JoinSpec {
        keys: keys
            .iter()
            .map(|&(l, r)| (l.to_string(), r.to_string()))
            .collect(),
        residual,
        physical,
    }
}

/// `(physical plan, defining σ(×) oracle)` pairs over the snapshot
/// relations, including always-erroring shapes (unknown key attribute,
/// clashing schemes, unknown relation) — the kernels replicate the
/// oracle's error discipline, so both sides must fail together.
fn join_pairs() -> Vec<(Expr, Expr)> {
    let mut out = Vec::new();
    for physical in PHYSICALS {
        // a0/b0 are the first schema attribute on both sides, so the
        // merge kernel genuinely rides the canonical runs here.
        let plain = spec(&[("a0", "b0")], Predicate::True, physical);
        let filtered = spec(
            &[("a0", "b0")],
            Predicate::gt_const("a0", Value::Int(2)),
            physical,
        );
        // Off-prefix key (a1 is column 1): merge must fall back to hash.
        let off = spec(&[("a1", "b0")], Predicate::True, physical);
        for s in [plain, filtered, off] {
            out.push((
                Expr::current("r0").join(s.clone(), Expr::current("q0")),
                Expr::current("r0")
                    .product(Expr::current("q0"))
                    .select(s.as_predicate()),
            ));
        }
        // Error shapes, one per kernel error path.
        let bad_attr = spec(&[("zz", "b0")], Predicate::True, physical);
        out.push((
            Expr::current("r0").join(bad_attr.clone(), Expr::current("q0")),
            Expr::current("r0")
                .product(Expr::current("q0"))
                .select(bad_attr.as_predicate()),
        ));
        let clash = spec(&[("a0", "a0")], Predicate::True, physical);
        out.push((
            Expr::current("r0").join(clash.clone(), Expr::current("r1")),
            Expr::current("r0")
                .product(Expr::current("r1"))
                .select(clash.as_predicate()),
        ));
        let ghost = spec(&[("a0", "b0")], Predicate::True, physical);
        out.push((
            Expr::current("ghost").join(ghost.clone(), Expr::current("q0")),
            Expr::current("ghost")
                .product(Expr::current("q0"))
                .select(ghost.as_predicate()),
        ));
    }
    out
}

/// Demands the same observable outcome from the physical plan and its
/// defining form on the same engine: equal states on success, both-error
/// on failure.
fn assert_pairs_agree(e: &Engine, pairs: &[(Expr, Expr)], label: &str) {
    for (join, oracle) in pairs {
        // Two passes so the second exercises the memo hit on memoized
        // engines.
        for pass in 0..2 {
            let want = e.eval(oracle);
            let got = e.eval(join);
            match (&want, &got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a, b, "{label}, pass {pass}: {join} diverged from {oracle}")
                }
                (Err(_), Err(_)) => {}
                _ => panic!("{label}, pass {pass}: {join}: oracle {want:?} != join {got:?}"),
            }
        }
    }
}

/// Commands for the join operand `q0` over the disjoint schema.
fn q0_commands(rng: &mut StdRng) -> Vec<Command> {
    let values = GenConfig {
        arity: 1,
        cardinality: 8,
        int_range: 8,
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

    /// The full snapshot matrix: memo on/off × 1/2 threads,
    /// random command sequences, and the hash/merge pair pool checked
    /// after every command.
    #[test]
    fn physical_joins_match_their_sigma_product_form(
        seed in any::<u64>(),
        len in 3usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        cmds.extend(q0_commands(&mut rng));
        let pairs = join_pairs();
        for memo in MEMO {
            for threads in THREADS {
                let label = format!("memo={memo}, {threads} thread(s)");
                let mut e = engine(memo, threads);
                for cmd in &cmds {
                    let _ = e.execute(cmd);
                }
                assert_pairs_agree(&e, &pairs, &label);
            }
        }
    }

    /// Historical joins: value/error identity against σ̂(×̂), plus the
    /// snapshot-reducibility that makes the hatted operator conservative
    /// — a timeslice of the join equals the join of the timeslices.
    #[test]
    fn historical_joins_reduce_to_snapshot_joins(
        seed in any::<u64>(),
        len in 2usize..6,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let hcfg = HistGenConfig {
            values: GenConfig { arity: 2, cardinality: 8, int_range: 8, str_pool: 4 },
            horizon: 30,
            max_periods: 2,
        };
        let bcfg = HistGenConfig {
            values: GenConfig { arity: 1, cardinality: 6, int_range: 8, str_pool: 4 },
            ..hcfg
        };
        let mut cmds = vec![
            Command::define_relation("t0", RelationType::Temporal),
            Command::define_relation("tb", RelationType::Temporal),
        ];
        for _ in 0..len {
            let (target, sch, cfg) = if rng.gen_bool(0.5) {
                ("tb", schema_b(), &bcfg)
            } else {
                ("t0", schema(), &hcfg)
            };
            cmds.push(Command::modify_state(
                target,
                Expr::historical_const(random_historical_state(&mut rng, &sch, cfg)),
            ));
        }
        let mut pairs = Vec::new();
        for physical in PHYSICALS {
            let s = spec(&[("a0", "b0")], Predicate::True, physical);
            pairs.push((
                Expr::hcurrent("t0").hjoin(s.clone(), Expr::hcurrent("tb")),
                Expr::hcurrent("t0")
                    .hproduct(Expr::hcurrent("tb"))
                    .hselect(s.as_predicate()),
            ));
            // Wrong kind: a snapshot operand under hjoin must error like
            // the σ̂(×̂) form does.
            pairs.push((
                Expr::hcurrent("t0").hjoin(s.clone(), Expr::current("tb")),
                Expr::hcurrent("t0")
                    .hproduct(Expr::current("tb"))
                    .hselect(s.as_predicate()),
            ));
        }
        let slice_spec = spec(&[("a0", "b0")], Predicate::True, JoinPhysical::Hash);
        let hjoin = Expr::hcurrent("t0").hjoin(slice_spec.clone(), Expr::hcurrent("tb"));
        for threads in THREADS {
            let label = format!("{threads} thread(s)");
            let mut e = engine(true, threads);
            for cmd in &cmds {
                let _ = e.execute(cmd);
            }
            assert_pairs_agree(&e, &pairs, &label);
            // Snapshot reducibility on the evaluated states.
            let (Ok(StateValue::Historical(j)),
                 Ok(StateValue::Historical(a)),
                 Ok(StateValue::Historical(b))) = (
                e.eval(&hjoin),
                e.eval(&Expr::hcurrent("t0")),
                e.eval(&Expr::hcurrent("tb")),
            ) else {
                continue; // both temporal relations still empty
            };
            for c in (0..33u32).step_by(4) {
                prop_assert_eq!(
                    j.timeslice(c),
                    a.timeslice(c)
                        .equi_join(&b.timeslice(c), &slice_spec)
                        .unwrap(),
                    "{}: chronon {}",
                    label,
                    c
                );
            }
        }
    }

    /// End-to-end through the planner: a σ with an equi-key conjunct over
    /// × at optimize level 2 (which lowers to a physical join) answers
    /// exactly like the level-0 engine evaluating the query as written.
    #[test]
    fn searched_joins_match_unoptimized_eval(
        seed in any::<u64>(),
        len in 3usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        cmds.extend(q0_commands(&mut rng));
        let queries = vec![
            // Pure equi-key: lowers to a merge-eligible join.
            Expr::current("r0")
                .product(Expr::current("q0"))
                .select(Predicate::eq_attrs("a0", "b0")),
            // Equi-key plus side conjunct plus residual-free shape.
            Expr::current("r0")
                .product(Expr::current("q0"))
                .select(
                    Predicate::eq_attrs("a0", "b0")
                        .and(Predicate::gt_const("a0", Value::Int(1))),
                ),
            // Erroring shape: the lowered join must keep the error.
            Expr::current("r0")
                .product(Expr::current("r1"))
                .select(Predicate::eq_attrs("a0", "a1")),
        ];
        for threads in THREADS {
            let label = format!("{threads} thread(s), level 2 vs 0");
            let mut opt = engine(true, threads);
            opt.set_optimize(2);
            let mut base = engine(true, threads);
            base.set_optimize(0);
            for cmd in &cmds {
                let a = opt.execute(cmd);
                let b = base.execute(cmd);
                assert_eq!(a.is_ok(), b.is_ok(), "{label}: command outcome diverged");
                for q in &queries {
                    let want = base.eval(q);
                    let got = opt.eval(q);
                    match (&want, &got) {
                        (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: {q} diverged"),
                        (Err(_), Err(_)) => {}
                        _ => panic!("{label}: {q}: base {want:?} != opt {got:?}"),
                    }
                }
            }
        }
    }
}

/// Join evaluation feeds the pool's join gauges: after an equi-join
/// evaluates (at any thread count), `joins`, `build_rows`, and
/// `probe_rows` reflect the kernel that ran.
#[test]
fn join_counters_record_build_and_probe_sides() {
    let mut rng = StdRng::seed_from_u64(0xD1FF);
    let mut e = engine(false, 1);
    e.execute(&Command::define_relation("r0", RelationType::Rollback))
        .unwrap();
    e.execute(&Command::modify_state(
        "r0",
        Expr::snapshot_const(random_state(&mut rng, &schema(), &gen_cfg().values)),
    ))
    .unwrap();
    for cmd in q0_commands(&mut rng) {
        e.execute(&cmd).unwrap();
    }
    let s = spec(&[("a0", "b0")], Predicate::True, JoinPhysical::Hash);
    let q = Expr::current("r0").join(s, Expr::current("q0"));
    e.eval(&q).unwrap();
    let stats = e.join_stats();
    assert_eq!(stats.joins, 1, "{stats:?}");
    assert!(stats.probe_rows > 0, "{stats:?}");
    assert!(stats.partitions >= 1, "{stats:?}");
    e.reset_exec_stats();
    assert_eq!(e.join_stats().joins, 0);
}
