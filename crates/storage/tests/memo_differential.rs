//! Differential property tests for the view memo: an engine with the
//! memo fully enabled (registration on first evaluation, so repeated
//! queries hit cached views and every `modify_state` propagates deltas
//! through them) is observationally identical — values *and* errors —
//! to an engine with the memo disabled and to the denotational evaluator
//! in `txtime-core`, on every backend, sequentially and partitioned. This
//! is the property that licenses consulting the memo in `Engine::eval` at
//! all — and, since `modify_state` evaluates on the plain path and only
//! queues a span for the memo, the property that licenses that bypass.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::generate::{random_commands, CmdGenConfig};
use txtime_core::{Command, Database, Expr, RelationType, SchemeChange, TransactionNumber, TxSpec};
use txtime_exec::ExecPool;
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_snapshot::generate::{random_predicate, random_state, GenConfig};
use txtime_snapshot::{DomainType, Schema, Value};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

/// 1 is the sequential oracle; 2 exercises the partitioned kernels that
/// delta propagation runs beneath (`OpKind::Propagate`).
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
fn memo_engine(backend: BackendKind, threads: usize) -> Engine {
    let mut e = Engine::new(backend, CheckpointPolicy::every_k(3).unwrap());
    e.set_pool(ExecPool::with_unit_grain(threads));
    e.set_memo_register_after(1);
    e
}

/// The oracle: identical engine with the memo disabled outright, so
/// every evaluation takes the plain plan-and-execute path.
fn plain_engine(backend: BackendKind, threads: usize) -> Engine {
    let mut e = Engine::new(backend, CheckpointPolicy::every_k(3).unwrap());
    e.set_pool(ExecPool::with_unit_grain(threads));
    e.set_memo_capacity(0);
    e
}

/// Evaluates `q` twice on both engines (the second pass on the memo
/// engine exercises the hit or freshly-propagated path) and once on the
/// oracle, and demands byte-identical results, errors included.
fn assert_agree(
    memo: &Engine,
    plain: &Engine,
    oracle: &Database,
    q: &Expr,
    backend: BackendKind,
    threads: usize,
) {
    let denoted = q.eval(oracle);
    for pass in 0..2 {
        let want = plain.eval(q);
        let got = memo.eval(q);
        for (who, other) in [("memo", &got), ("oracle", &denoted)] {
            match (&want, other) {
                (Ok(a), Ok(b)) => assert_eq!(
                    a, b,
                    "{backend}, {threads} threads, pass {pass}: {q}: plain vs {who}"
                ),
                (Err(a), Err(b)) => assert_eq!(
                    format!("{a:?}"),
                    format!("{b:?}"),
                    "{backend}, {threads} threads, pass {pass}: {q}: plain vs {who} error"
                ),
                _ => panic!(
                    "{backend}, {threads} threads, pass {pass}: {q}: plain {want:?} != {who} {other:?}"
                ),
            }
        }
    }
}

/// Runs the command sequence on both engines and the oracle in lockstep,
/// checking the whole query pool after every command — so views
/// registered early see every later modification, deletion, and scheme
/// change as a delta propagation or an invalidation. Commands whose
/// index lies in `unread` are not followed by reads: their writes pile
/// up in one queued span that the next read folds and flushes.
fn drive(
    cmds: &[Command],
    unread: std::ops::Range<usize>,
    queries: &[Expr],
    backend: BackendKind,
    threads: usize,
) -> (Engine, Engine) {
    let mut memo = memo_engine(backend, threads);
    let mut plain = plain_engine(backend, threads);
    let mut oracle = Database::empty();
    for (i, cmd) in cmds.iter().enumerate() {
        let a = memo.execute(cmd);
        let b = plain.execute(cmd);
        let c = cmd.execute(&oracle);
        match (&a, &b) {
            (Ok(_), Ok(_)) => {}
            (Err(x), Err(y)) => assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "{backend}, {threads} threads: command error diverged"
            ),
            _ => panic!("{backend}, {threads} threads: command outcome diverged: {a:?} vs {b:?}"),
        }
        match (b, c) {
            (Ok(_), Ok((next, _))) => oracle = next,
            (Err(x), Err(y)) => assert_eq!(
                format!("{x:?}"),
                format!("{y:?}"),
                "{backend}, {threads} threads: command error diverged from the oracle"
            ),
            (b, c) => panic!(
                "{backend}, {threads} threads: {cmd}: engine {b:?} vs oracle {:?}",
                c.map(|_| ())
            ),
        }
        if unread.contains(&i) {
            continue;
        }
        for q in queries {
            assert_agree(&memo, &plain, &oracle, q, backend, threads);
        }
    }
    (memo, plain)
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
    /// through every modification, on every backend and thread budget.
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
        // and no read in between: one folded span, flushed by the next
        // read. Expression writes and constant writes alternate.
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
        // lands inside the folded span: the fold skips that version, so
        // the view must be dropped and re-resolved, not patched. Each
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
        for backend in BackendKind::ALL {
            for threads in THREADS {
                let (memo, _) = drive(&cmds, unread.clone(), &queries, backend, threads);
                // The fixed pool repeats every step: the memo must have
                // actually answered from cache, not silently fallen
                // through to the plain path each time.
                prop_assert!(
                    memo.memo_stats().hits > 0,
                    "{}, {} threads: memo never hit",
                    backend,
                    threads
                );
            }
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
        for backend in BackendKind::ALL {
            for threads in THREADS {
                drive(&cmds, 0..0, &queries, backend, threads);
            }
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
        for backend in BackendKind::ALL {
            for threads in THREADS {
                drive(&cmds, 0..0, &queries, backend, threads);
            }
        }
    }
}
