//! Differential property tests: the engine, under every checkpoint
//! policy, is observationally equivalent to the reference semantics on random command sequences,
//! including historical/temporal relations, scheme evolution, and
//! deletes.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, Expr, RelationType, SchemeChange};
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_snapshot::generate::GenConfig;
use txtime_snapshot::{DomainType, Schema, Value};
use txtime_storage::{check_equivalence, BackendKind, CheckpointPolicy};

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

/// Random snapshot-relation workloads.
fn arb_snapshot_commands() -> impl Strategy<Value = Vec<Command>> {
    (any::<u64>(), 1usize..25).prop_map(|(seed, len)| {
        let mut rng = StdRng::seed_from_u64(seed);
        random_commands(&mut rng, &schema(), &gen_cfg(), len)
    })
}

/// Random temporal-relation workloads.
fn arb_temporal_commands() -> impl Strategy<Value = Vec<Command>> {
    (any::<u64>(), 1usize..15).prop_map(|(seed, len)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let hcfg = HistGenConfig {
            values: GenConfig {
                arity: 2,
                cardinality: 8,
                int_range: 10,
                str_pool: 4,
            },
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
        cmds
    })
}

/// Workloads salted with extension commands (deletes, scheme evolution)
/// and guaranteed failures.
fn arb_spiced_commands() -> impl Strategy<Value = Vec<Command>> {
    (any::<u64>(), 4usize..20).prop_map(|(seed, len)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        // Insert extension commands at random points (after the defines).
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
            Command::evolve_scheme(
                "r0",
                SchemeChange::RenameAttribute {
                    from: "a1".into(),
                    to: "a1x".into(),
                },
            ),
            Command::delete_relation("r1"),
            Command::define_relation("r1", RelationType::Rollback),
            Command::modify_state("ghost", Expr::current("ghost")), // always fails
            Command::define_relation("r0", RelationType::Snapshot), // always fails
        ];
        for s in spice {
            let pos = rng.gen_range(defines..=cmds.len());
            cmds.insert(pos, s);
        }
        cmds
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn snapshot_workloads_equivalent(cmds in arb_snapshot_commands()) {
        let every = [1, 3].map(|k| CheckpointPolicy::every_k(k).unwrap());
        for ck in [CheckpointPolicy::Never, every[0], every[1]] {
            if let Err(e) = check_equivalence(&cmds, ck) {
                panic!("divergence: {e}");
            }
        }
    }

    #[test]
    fn temporal_workloads_equivalent(cmds in arb_temporal_commands()) {
        if let Err(e) = check_equivalence(&cmds, CheckpointPolicy::every_k(4).unwrap()) {
            panic!("divergence: {e}");
        }
    }

    #[test]
    fn spiced_workloads_equivalent(cmds in arb_spiced_commands()) {
        if let Err(e) = check_equivalence(&cmds, CheckpointPolicy::every_k(2).unwrap()) {
            panic!("divergence: {e}");
        }
    }
}

/// `Engine::eval` — operator pushdown plus the materialization cache —
/// is tuple-for-tuple equal to the reference evaluator on random
/// queries, including a cache small enough to
/// evict on every sweep. Each query runs twice so the second evaluation
/// exercises the cache-hit path.
mod eval_differential {
    use super::*;
    use txtime_core::{Database, TransactionNumber, TxSpec};
    use txtime_snapshot::generate::random_predicate;
    use txtime_storage::Engine;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn engine_eval_matches_reference(
            seed in any::<u64>(),
            len in 4usize..25,
            q_seed in any::<u64>(),
            tiny_cache in any::<bool>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
            let mut reference = Database::empty();
            for cmd in &cmds {
                if let Ok((next, _)) = cmd.execute(&reference) {
                    reference = next;
                }
            }
            let mut engine = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::every_k(3).unwrap());
            if tiny_cache {
                engine.set_cache_capacity(1);
            }
            for cmd in &cmds {
                let _ = engine.execute(cmd);
            }
            let mut qrng = StdRng::seed_from_u64(q_seed);
            for _ in 0..8 {
                let depth = qrng.gen_range(0..4);
                let q = random_query(&mut qrng, depth);
                let want = q.eval(&reference);
                for pass in 0..2 {
                    let got = engine.eval(&q);
                    match (&want, &got) {
                        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "{} (pass {})", q, pass),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(
                            false,
                            "{} (pass {}): reference {:?} != engine {:?}",
                            q, pass, want, got
                        ),
                    }
                }
            }
        }
    }
}

/// WAL recovery on random workloads: rebuild-from-log equals live engine
/// (experiment E10's property form).
mod recovery_differential {
    use super::*;
    use txtime_core::{StateSource, TransactionNumber, TxSpec};
    use txtime_storage::{recovery::recover, Engine};

    fn tmpfile(tag: u64) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("txtime-differential");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("wal-{}-{tag}.log", std::process::id()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn recovery_matches_live_engine(seed in any::<u64>(), len in 1usize..20) {
            let mut rng = StdRng::seed_from_u64(seed);
            let cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
            let path = tmpfile(seed);
            let _ = std::fs::remove_file(&path);

            let mut live = Engine::with_wal(CheckpointPolicy::every_k(4).unwrap(), &path).unwrap();
            for c in &cmds {
                let _ = live.execute(c);
            }

            let rec = recover(&path, BackendKind::ForwardDelta, CheckpointPolicy::every_k(4).unwrap())
                .unwrap();
            prop_assert!(rec.skipped.is_empty());
            prop_assert_eq!(rec.engine.tx(), live.tx());
            for name in live.relations() {
                for t in 0..=live.tx().0 {
                    let spec = TxSpec::At(TransactionNumber(t));
                    let a = live.resolve_rollback(name, spec, false);
                    let b = rec.engine.resolve_rollback(name, spec, false);
                    match (&a, &b) {
                        (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
                        (Err(_), Err(_)) => {}
                        _ => prop_assert!(false, "recovery divergence on {} at {}", name, t),
                    }
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }
}
