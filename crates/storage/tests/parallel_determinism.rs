//! Parallel execution is invisible: `Engine::eval` on a multi-thread
//! worker pool returns byte-identical results — values *and* errors — to
//! the one-thread (exact sequential) pool, on random workloads and
//! queries. This is the property that licenses the partitioned kernels
//! at all. Neither thread budget nor the view memo can be told apart
//! from a sequential, memo-less engine holding every version whole. The
//! pools are unit-grain
//! ([`ExecPool::with_unit_grain`]), so the ten-tuple states here split
//! into several chunks; the shipped break-even grains would keep every
//! kernel inline.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, Expr, RelationType, TransactionNumber, TxSpec};
use txtime_exec::ExecPool;
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_snapshot::generate::{random_predicate, GenConfig};
use txtime_snapshot::{DomainType, Schema};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

/// The thread budgets compared against each other. 1 is the sequential
/// oracle; 2 and 8 cover "one extra worker" and "more workers than work".
const THREADS: [usize; 3] = [1, 2, 8];

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

/// Engines at every thread budget (unclamped: 8 threads on any host),
/// fed the same command sequence.
fn engines(cmds: &[Command], tiny_cache: bool) -> Vec<Engine> {
    THREADS
        .iter()
        .map(|&n| {
            let mut e = Engine::new(
                BackendKind::ForwardDelta,
                CheckpointPolicy::every_k(3).unwrap(),
            );
            e.set_pool(ExecPool::with_unit_grain(n));
            if tiny_cache {
                e.set_cache_capacity(1);
            }
            for c in cmds {
                let _ = e.execute(c);
            }
            e
        })
        .collect()
}

/// Asserts every engine answers `q` identically to the first (sequential)
/// one. Errors must agree in rendered form, not merely in presence.
fn assert_all_agree(engines: &[Engine], q: &Expr) {
    let want = engines[0].eval(q);
    for (e, &threads) in engines.iter().zip(&THREADS).skip(1) {
        let got = e.eval(q);
        match (&want, &got) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{threads} threads: {q} diverged from sequential"),
            (Err(a), Err(b)) => assert_eq!(
                format!("{a:?}"),
                format!("{b:?}"),
                "{threads} threads: {q} error diverged"
            ),
            _ => {
                panic!("{threads} threads: {q}: sequential {want:?} != parallel {got:?}")
            }
        }
    }
}

/// Snapshot-algebra queries, including the σ/π-over-ρ pushdown shapes
/// (which route through `resolve_rollback_filtered` on every path).
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

/// Historical-algebra queries over t0/h0, including the σ̂/π̂-over-ρ̂
/// pushdown shapes and ×̂ against a disjoint-attribute leaf.
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
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Snapshot workloads: 1-, 2-, and 8-thread engines agree, with and
    /// without a capacity-1 (evict-always) cache.
    #[test]
    fn parallel_eval_matches_sequential(
        seed in any::<u64>(),
        len in 4usize..25,
        q_seed in any::<u64>(),
        tiny_cache in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        let engines = engines(&cmds, tiny_cache);
        let mut qrng = StdRng::seed_from_u64(q_seed);
        for _ in 0..8 {
            let depth = qrng.gen_range(0..4);
            let q = random_query(&mut qrng, depth);
            assert_all_agree(&engines, &q);
        }
    }

    /// Memo on or off, at one or two threads, the engine answers a
    /// workload (command outcomes, a failing command included, a probe
    /// at every transaction number, and queries asked twice so the second
    /// asking takes the memo's hit path) as a memo-less sequential
    /// engine holding every version whole does. A query that errs must err again, but which
    /// operator reports first may differ once the memo holds its views.
    #[test]
    fn memo_and_threads_match_the_sequential_memoless_oracle(
        seed in any::<u64>(),
        len in 4usize..14,
        q_seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        cmds.push(Command::modify_state("ghost", Expr::current("ghost")));
        let mut qrng = StdRng::seed_from_u64(q_seed);
        let mut queries: Vec<Expr> = (0..6)
            .map(|_| {
                let depth = qrng.gen_range(0..4);
                random_query(&mut qrng, depth)
            })
            .collect();
        for t in 0..=cmds.len() as u64 + 1 {
            for r in ["r0", "r1"] {
                queries.push(Expr::rollback(r, TxSpec::At(TransactionNumber(t))));
            }
        }
        let observe = |policy: usize, memo: bool, threads: usize| {
            let policy = CheckpointPolicy::every_k(policy).unwrap();
            let mut e = Engine::new(BackendKind::ForwardDelta, policy);
            e.set_pool(ExecPool::with_unit_grain(threads));
            if !memo {
                e.set_memo_capacity(0);
            }
            let mut seen: Vec<String> =
                cmds.iter().map(|c| format!("{:?}", e.execute(c))).collect();
            for q in &queries {
                let first = e.eval(q);
                seen.push(format!("{first:?}"));
                seen.push(match (first.is_err(), e.eval(q)) {
                    (true, Err(_)) => "error again".to_string(),
                    (_, second) => format!("{second:?}"),
                });
            }
            seen
        };
        let oracle = observe(1, false, 1);
        for memo in [false, true] {
            for threads in [1, 2] {
                prop_assert_eq!(
                    &observe(3, memo, threads),
                    &oracle,
                    "memo={} threads={}",
                    memo,
                    threads
                );
            }
        }
    }

    /// Temporal workloads: the ĥ operators agree across thread budgets.
    #[test]
    fn parallel_heval_matches_sequential(
        seed in any::<u64>(),
        len in 2usize..12,
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
        let engines = engines(&cmds, false);
        let mut qrng = StdRng::seed_from_u64(q_seed);
        for _ in 0..6 {
            let depth = qrng.gen_range(0..4);
            let q = random_hquery(&mut qrng, depth);
            assert_all_agree(&engines, &q);
        }
        // ×̂ needs disjoint attribute names: pair each leaf with a
        // small constant relation on c0/c1.
        let other_schema =
            Schema::new(vec![("c0", DomainType::Int), ("c1", DomainType::Str)]).unwrap();
        let small = random_historical_state(
            &mut qrng,
            &other_schema,
            &HistGenConfig {
                values: GenConfig { arity: 2, cardinality: 4, int_range: 6, str_pool: 3 },
                horizon: 40,
                max_periods: 2,
            },
        );
        let q = Expr::hcurrent("t0").hproduct(Expr::historical_const(small));
        assert_all_agree(&engines, &q);
    }

    /// `resolve_many` answers each probe exactly as per-probe `eval` of
    /// the matching ρ/ρ̂ would — same states, same errors — at every
    /// thread budget, with batches mixing relations, current
    /// and past specs, repeats, and an undefined relation, and with each
    /// probe alone (a current one takes the inline path).
    #[test]
    fn resolve_many_matches_repeated_eval(
        seed in any::<u64>(),
        len in 4usize..25,
        p_seed in any::<u64>(),
        tiny_cache in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        let mut prng = StdRng::seed_from_u64(p_seed);
        let names = ["r0", "r1", "ghost"];
        let probes: Vec<(&str, TxSpec)> = (0..24)
            .map(|_| {
                let name = names[prng.gen_range(0..names.len())];
                let spec = if prng.gen_bool(0.25) {
                    TxSpec::Current
                } else {
                    TxSpec::At(TransactionNumber(prng.gen_range(0..30)))
                };
                (name, spec)
            })
            .collect();
        for engine in engines(&cmds, tiny_cache) {
            let batched = engine.resolve_many(&probes);
            prop_assert_eq!(batched.len(), probes.len());
            let alone: Vec<_> = probes
                .iter()
                .flat_map(|p| engine.resolve_many(&[*p]))
                .collect();
            let answers = batched.iter().chain(&alone);
            for ((name, spec), got) in probes.iter().cycle().zip(answers) {
                let historical = engine
                    .relation_type(name)
                    .is_some_and(|t| t.holds_historical());
                let q = if historical {
                    Expr::hrollback(*name, *spec)
                } else {
                    Expr::rollback(*name, *spec)
                };
                let want = engine.eval(&q);
                match (&want, got) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, b, "batched ρ({}, {:?}) diverged", name, spec
                    ),
                    (Err(a), Err(b)) => prop_assert_eq!(
                        format!("{a:?}"),
                        format!("{b:?}"),
                        "batched ρ({}, {:?}) error diverged", name, spec
                    ),
                    _ => prop_assert!(
                        false,
                        "ρ({}, {:?}): eval {:?} != resolve_many {:?}",
                        name, spec, want, got
                    ),
                }
            }
        }
    }
}
