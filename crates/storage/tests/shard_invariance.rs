//! Shard-invariance property tests: partitioning a relation's sorted
//! runs across K shards is an implementation detail. Every observation
//! — command outcomes, errors, rollback probes at every transaction
//! number, and composite σ/π/∪/− queries — must be identical across
//! 1/2/8 shards, all four backends, memo on/off, and 1/2 worker
//! threads. A second oracle interleaves `Engine::compact` with the
//! workload and demands the same answers, so background compaction can
//! never be observed through the algebra either.

use std::num::NonZeroUsize;

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, Expr, RelationType, StateSource, TransactionNumber, TxSpec};
use txtime_exec::ExecPool;
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_snapshot::generate::{random_predicate, GenConfig};
use txtime_snapshot::{DomainType, Schema};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

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

/// A mixed workload: random rollback-relation commands salted with a
/// temporal relation (so the historical kernels shard too) and one
/// guaranteed-failing command (so error equality is exercised).
fn workload(seed: u64, len: usize) -> Vec<Command> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
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
    let defines = gen_cfg().relations.len();
    cmds.insert(0, Command::define_relation("t0", RelationType::Temporal));
    for _ in 0..(len / 3).max(1) {
        let pos = rng.gen_range(defines + 1..=cmds.len());
        cmds.insert(
            pos,
            Command::modify_state(
                "t0",
                Expr::historical_const(random_historical_state(&mut rng, &schema(), &hcfg)),
            ),
        );
    }
    let pos = rng.gen_range(defines + 1..=cmds.len());
    cmds.insert(pos, Command::modify_state("ghost", Expr::current("ghost")));
    cmds
}

/// Random composite queries over the workload's relations. Mixing the
/// temporal leaf into snapshot operators is deliberate: those evaluate
/// to errors, and the errors must match across shard counts too.
fn random_query(rng: &mut StdRng, depth: usize) -> Expr {
    if depth == 0 {
        return match rng.gen_range(0..4u8) {
            0 => {
                let r = ["r0", "r1"][rng.gen_range(0..2usize)];
                Expr::rollback(r, TxSpec::At(TransactionNumber(rng.gen_range(0..30))))
            }
            1 => Expr::hrollback("t0", TxSpec::At(TransactionNumber(rng.gen_range(0..30)))),
            2 => Expr::hrollback("t0", TxSpec::Current),
            _ => Expr::current(["r0", "r1"][rng.gen_range(0..2usize)]),
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

fn probe_queries(seed: u64) -> Vec<Expr> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..6)
        .map(|_| {
            let depth = rng.gen_range(0..4);
            random_query(&mut rng, depth)
        })
        .collect()
}

/// Runs the workload, rendering each command's outcome (or error) to a
/// comparable string. `compact_period` interleaves explicit compaction
/// passes mid-workload — the churn oracle.
fn run_engine(engine: &mut Engine, cmds: &[Command], compact_period: Option<usize>) -> Vec<String> {
    let mut log = Vec::with_capacity(cmds.len());
    for (i, cmd) in cmds.iter().enumerate() {
        log.push(match engine.execute(cmd) {
            Ok(txtime_core::CommandOutcome::Displayed(s)) => format!("displayed: {s}"),
            Ok(o) => format!("ok: {o:?}"),
            Err(e) => format!("err: {e}"),
        });
        if let Some(period) = compact_period {
            if (i + 1) % period == 0 {
                engine.compact(NonZeroUsize::new(2));
            }
        }
    }
    log
}

fn render(r: Result<impl std::fmt::Display, impl std::fmt::Display>) -> String {
    match r {
        Ok(s) => format!("ok: {s}"),
        Err(e) => format!("err: {e}"),
    }
}

/// Every observation the algebra affords: rollback probes for every
/// relation at every transaction number (both polarities, so type
/// errors are compared as well), the current state, and the composite
/// queries — each evaluated twice so the second pass exercises the
/// materialization-cache and memo hit paths.
fn observe(engine: &Engine, max_tx: u64, queries: &[Expr]) -> Vec<String> {
    let mut obs = Vec::new();
    let mut rels: Vec<String> = engine.relations().iter().map(|s| s.to_string()).collect();
    rels.sort();
    for name in &rels {
        let historical = matches!(
            engine.relation_type(name),
            Some(RelationType::Historical | RelationType::Temporal)
        );
        for t in 0..=max_tx {
            for h in [false, true] {
                obs.push(render(engine.resolve_rollback(
                    name,
                    TxSpec::At(TransactionNumber(t)),
                    h,
                )));
            }
        }
        obs.push(render(engine.resolve_rollback(
            name,
            TxSpec::Current,
            historical,
        )));
    }
    for q in queries {
        let first = engine.eval(q);
        let first_ok = first.is_ok();
        obs.push(render(first));
        // The second pass exercises the cache/memo hit path. Values must
        // be bit-identical; erroring queries must still error, but the
        // exact message is not pinned — once the memo registers the
        // query, which operator reports a type mismatch first is
        // evaluation-order dependent, independent of sharding.
        match (first_ok, engine.eval(q)) {
            (true, second) => obs.push(render(second)),
            (false, Err(_)) => obs.push("err (second pass)".into()),
            (false, Ok(s)) => obs.push(format!("error became a value on second pass: {s}")),
        }
    }
    obs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full configuration lattice against a flat full-copy oracle.
    #[test]
    fn sharded_engines_match_unsharded_oracle(seed in any::<u64>(), len in 4usize..14) {
        let cmds = workload(seed, len);
        let queries = probe_queries(seed ^ 0x9e3779b97f4a7c15);

        let mut oracle = Engine::new(BackendKind::FullCopy, CheckpointPolicy::every_k(3).unwrap());
        oracle.set_memo_capacity(0);
        let oracle_log = run_engine(&mut oracle, &cmds, None);
        let max_tx = oracle.tx().0 + 1;
        let oracle_obs = observe(&oracle, max_tx, &queries);

        for backend in BackendKind::ALL {
            for shards in [1usize, 2, 8] {
                for memo in [false, true] {
                    for threads in [1usize, 2] {
                        let mut engine =
                            Engine::new(backend, CheckpointPolicy::every_k(3).unwrap());
                        engine.set_shards(shards);
                        engine.set_pool(ExecPool::with_unit_grain(threads));
                        if !memo {
                            engine.set_memo_capacity(0);
                        }
                        let log = run_engine(&mut engine, &cmds, None);
                        prop_assert_eq!(
                            &log, &oracle_log,
                            "command log diverged: {} shards={} memo={} threads={}",
                            backend, shards, memo, threads
                        );
                        let obs = observe(&engine, max_tx, &queries);
                        prop_assert_eq!(
                            &obs, &oracle_obs,
                            "observation diverged: {} shards={} memo={} threads={}",
                            backend, shards, memo, threads
                        );
                    }
                }
            }
        }
    }

    /// Compaction under churn: folding delta chains into checkpoints
    /// mid-workload (every 3 commands, plus a final full pass) must be
    /// invisible to every later observation, on every backend, sharded
    /// or flat, under either checkpoint policy.
    #[test]
    fn compaction_under_churn_preserves_answers(seed in any::<u64>(), len in 4usize..14) {
        let cmds = workload(seed, len);
        let queries = probe_queries(seed ^ 0x6a09e667f3bcc909);

        let mut oracle = Engine::new(BackendKind::FullCopy, CheckpointPolicy::every_k(3).unwrap());
        oracle.set_memo_capacity(0);
        let oracle_log = run_engine(&mut oracle, &cmds, None);
        let max_tx = oracle.tx().0 + 1;
        let oracle_obs = observe(&oracle, max_tx, &queries);

        for backend in BackendKind::ALL {
            for policy in [CheckpointPolicy::Never, CheckpointPolicy::every_k(3).unwrap()] {
                for shards in [1usize, 4] {
                    let mut engine = Engine::new(backend, policy);
                    engine.set_shards(shards);
                    let log = run_engine(&mut engine, &cmds, Some(3));
                    prop_assert_eq!(
                        &log, &oracle_log,
                        "churn log diverged: {} {:?} shards={}",
                        backend, policy, shards
                    );
                    let stats = engine.compact(NonZeroUsize::new(1));
                    let _ = stats; // counters are reported, not asserted: chains may be short
                    let obs = observe(&engine, max_tx, &queries);
                    prop_assert_eq!(
                        &obs, &oracle_obs,
                        "post-compaction observation diverged: {} {:?} shards={}",
                        backend, policy, shards
                    );
                }
            }
        }
    }
}
