//! The experiment harness: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p txtime-bench --bin experiments          # all
//! cargo run --release -p txtime-bench --bin experiments e2 e3   # subset
//! ```

use std::num::NonZeroUsize;
use std::time::Instant;

use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_bench::*;
use txtime_benzvi::bridge;
use txtime_core::{
    Command, Database, Expr, RelationType, Sentence, StateSource, StateValue, TransactionNumber,
    TxSpec,
};
use txtime_exec::{ExecPool, OpKind};
use txtime_optimizer::{estimate_cost, optimize, CostModel, SchemaCatalog};
use txtime_snapshot::generate::{mutate_state, random_state, GenConfig};
use txtime_snapshot::reference::RefSnapshot;
use txtime_snapshot::{DomainType, Predicate, Schema, SnapshotState, Tuple, Value};
use txtime_storage::{
    check_equivalence, recovery::recover, BackendKind, CheckpointPolicy, Engine, StateDelta,
};
use txtime_txn::{check_serial_equivalence, ConcurrentManager, Transaction};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");

    println!("txtime experiment harness (seed {SEED:#x})");
    println!("==========================================\n");

    if run("e1") {
        e1_algebraic_laws();
    }
    if run("e2") {
        e2_rollback_cost();
    }
    if run("e3") {
        e3_space();
    }
    if run("e4") {
        e4_modify_state_throughput();
    }
    if run("e5") {
        e5_temporal_queries();
    }
    if run("e6") {
        e6_benzvi_baseline();
    }
    if run("e7") {
        e7_optimizer();
    }
    if run("e8") {
        e8_concurrency();
    }
    if run("e9") {
        e9_findstate();
    }
    if run("e10") {
        e10_cache_pushdown();
    }
    if run("e11") {
        e11_recovery();
    }
    if run("e12") {
        e12_archival();
    }
    if run("e13") {
        e13_parallel();
    }
    if run("e14") {
        e14_sorted_runs();
    }
    if run("e15") {
        e15_incremental();
    }
    if run("e16") {
        e16_compaction();
    }
    if run("e17") {
        e17_plan_search();
    }
    if run("e18") {
        e18_physical_joins();
    }
    // Explicit-only: writes BENCH_2.json with the headline numbers.
    if args.iter().any(|a| a == "bench2") {
        bench2();
    }
    // Explicit-only: writes BENCH_3.json (parallel execution headline).
    if args.iter().any(|a| a == "bench3") {
        bench3();
    }
    // Explicit-only: writes BENCH_4.json (sorted-run layout headline).
    if args.iter().any(|a| a == "bench4") {
        bench4();
    }
    // Explicit-only: writes BENCH_5.json (view-memo headline).
    if args.iter().any(|a| a == "bench5") {
        bench5();
    }
    // Explicit-only: writes BENCH_7.json (compaction headline).
    if args.iter().any(|a| a == "bench7") {
        bench7();
    }
    // Explicit-only: writes BENCH_8.json (cost-based plan search headline).
    if args.iter().any(|a| a == "bench8") {
        bench8();
    }
    // Explicit-only: writes BENCH_9.json (physical join headline).
    if args.iter().any(|a| a == "bench9") {
        bench9();
    }
    if run("e19") {
        e19_server();
    }
    // Explicit-only: writes BENCH_10.json (server group-commit headline).
    if args.iter().any(|a| a == "bench10") {
        bench10();
    }
}

fn time_median<F: FnMut() -> usize>(mut f: F, reps: usize) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let sink = f();
            let dt = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(sink);
            dt
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

// --------------------------------------------------------------------
// E1: the preserved snapshot-algebra properties.
// --------------------------------------------------------------------
fn e1_algebraic_laws() {
    println!("E1. Snapshot-algebra properties preserved (paper §2 claim)");
    println!(
        "{:<28} {:<42} {:>7} {:>7}",
        "law", "statement", "trials", "pass"
    );
    const TRIALS: usize = 200;
    let mut all_pass = true;
    for law in txtime_optimizer::laws::all_laws() {
        let ok = law.run(SEED, TRIALS);
        all_pass &= ok == TRIALS;
        println!(
            "{:<28} {:<42} {:>7} {:>7}",
            law.name, law.statement, TRIALS, ok
        );
    }
    println!("\nE1b. Historical-algebra laws (§4: conservative extension)");
    println!(
        "{:<28} {:<42} {:>7} {:>7}",
        "law", "statement", "trials", "pass"
    );
    for law in txtime_optimizer::laws::historical_laws() {
        let ok = law.run(SEED, TRIALS);
        all_pass &= ok == TRIALS;
        println!(
            "{:<28} {:<42} {:>7} {:>7}",
            law.name, law.statement, TRIALS, ok
        );
    }
    println!(
        "=> {}\n",
        if all_pass {
            "every law held on every trial"
        } else {
            "LAW VIOLATION — see rows above"
        }
    );
}

// --------------------------------------------------------------------
// E2: rollback cost vs history depth per checkpoint interval.
// --------------------------------------------------------------------

/// The checkpoint intervals E2 and E3 sweep: every version whole (what a
/// full-copy store would hold), the benchmark's interval, and a longer
/// one.
const INTERVALS: [usize; 3] = [1, 16, 32];

fn e2_rollback_cost() {
    println!("E2. Rollback cost (µs/query) vs history depth, |R| = 200, churn = 10%");
    println!(
        "{:<16} {:>8} {:>12} {:>12} {:>12}",
        "checkpoint", "versions", "old", "mid", "recent"
    );
    for &versions in &[16usize, 128, 1024] {
        let chain = version_chain(versions, 200, 0.1);
        for every in INTERVALS {
            let engine = engine_with_chain(CheckpointPolicy::every_k(every).unwrap(), &chain);
            engine.set_cache_capacity(0); // raw reconstruction cost; E10 measures caching
            let mut row = format!("{:<16} {:>8}", format!("every {every}"), versions);
            for (_, tx) in probe_txs(versions) {
                let us = time_median(
                    || {
                        touch(
                            &engine
                                .resolve_rollback("r", TxSpec::At(tx), false)
                                .expect("probe answers"),
                        )
                    },
                    9,
                );
                row.push_str(&format!(" {us:>12.1}"));
            }
            println!("{row}");
        }
    }
    println!("=> every 1 is depth-insensitive; longer intervals pay per distance to the\n   checkpoint below the target, and answer the newest version as held.\n");
}

// --------------------------------------------------------------------
// E3: space vs number of versions per checkpoint interval.
// --------------------------------------------------------------------
fn e3_space() {
    println!("E3. Storage space vs versions, |R| = 200");
    println!(
        "{:<16} {:>8} {:>7} {:>14} {:>12}",
        "checkpoint", "versions", "churn", "bytes", "B/version"
    );
    for &versions in &[16usize, 128, 512] {
        for &churn in &[0.02f64, 0.2, 0.5] {
            let chain = version_chain(versions, 200, churn);
            for every in INTERVALS {
                let engine = engine_with_chain(CheckpointPolicy::every_k(every).unwrap(), &chain);
                let report = engine.space_report();
                let bytes = report.total_bytes();
                println!(
                    "{:<16} {:>8} {:>6.0}% {:>14} {:>12.1}",
                    format!("every {every}"),
                    versions,
                    churn * 100.0,
                    bytes,
                    bytes as f64 / versions as f64
                );
            }
        }
    }
    println!("=> with checkpoints apart, space scales with churn; every 1 with state size.\n");
}

// --------------------------------------------------------------------
// E4: modify_state throughput by update mix.
// --------------------------------------------------------------------
fn e4_modify_state_throughput() {
    println!("E4. modify_state throughput (commands/s), |R| = 500, 200 commands");
    println!(
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "checkpoint", "append", "delete", "replace", "mixed", "literal"
    );
    let base = version_chain(1, 500, 0.0).pop().expect("one state");
    {
        let mut row = format!("{:<16}", "every 32");
        // The first four say which rows change and are installed as a
        // delta; `literal` installs the append's result as a constant,
        // the path any other right-hand side takes.
        for mix in ["append", "delete", "replace", "mixed", "literal"] {
            let mut engine = Engine::new(
                BackendKind::ForwardDelta,
                CheckpointPolicy::every_k(32).unwrap(),
            );
            engine
                .execute(&Command::define_relation("r", RelationType::Rollback))
                .unwrap();
            engine
                .execute(&Command::modify_state(
                    "r",
                    Expr::snapshot_const(base.clone()),
                ))
                .unwrap();
            let mut rng = StdRng::seed_from_u64(SEED);
            let cfg = bench_gen_config(1);
            let mut grown = base.clone();
            let cmds: Vec<Command> = (0..200)
                .map(|i| {
                    let fresh =
                        txtime_snapshot::generate::random_state(&mut rng, &bench_schema(), &cfg);
                    let kind = match mix {
                        "mixed" => ["append", "delete", "replace"][i % 3],
                        k => k,
                    };
                    let expr = match kind {
                        "append" => Expr::current("r").union(Expr::snapshot_const(fresh)),
                        "delete" => Expr::current("r").difference(Expr::snapshot_const(fresh)),
                        "literal" => {
                            grown = grown.union(&fresh).expect("same scheme");
                            Expr::snapshot_const(grown.clone())
                        }
                        _ => Expr::current("r")
                            .difference(Expr::snapshot_const(fresh.clone()))
                            .union(Expr::snapshot_const(fresh)),
                    };
                    Command::modify_state("r", expr)
                })
                .collect();
            let t = Instant::now();
            for c in &cmds {
                engine.execute(c).expect("valid command");
            }
            let rate = cmds.len() as f64 / t.elapsed().as_secs_f64();
            row.push_str(&format!(" {rate:>10.0}"));
        }
        println!("{row}");
    }
    println!("=> an update that says which rows change costs those rows (the delta path);\n   a literal costs the relation: evaluate, intern, diff or stamp (the plain path).\n");
}

// --------------------------------------------------------------------
// E5: temporal queries (ρ̂, δ, timeslice) and orthogonality.
// --------------------------------------------------------------------
fn e5_temporal_queries() {
    use txtime_historical::{TemporalElement, TemporalExpr, TemporalPred};
    println!("E5. Temporal queries on a temporal relation (64 versions × |R| = 100)");
    let chain = historical_chain(64, 100);
    let engine = engine_with_temporal(&chain);
    let window = TemporalElement::period(100, 300);

    let queries: Vec<(&str, Expr)> = vec![
        ("ρ̂(t, ∞) — current historical state", Expr::hcurrent("t")),
        (
            "ρ̂(t, mid) — past historical state",
            Expr::hrollback("t", TxSpec::At(TransactionNumber(33))),
        ),
        (
            "δ window-clip of ρ̂(t, ∞)",
            Expr::hcurrent("t").delta(
                TemporalPred::overlaps(
                    TemporalExpr::ValidTime,
                    TemporalExpr::constant(window.clone()),
                ),
                TemporalExpr::intersect(
                    TemporalExpr::ValidTime,
                    TemporalExpr::constant(window.clone()),
                ),
            ),
        ),
        (
            "σ̂ value filter of ρ̂(t, ∞)",
            Expr::hcurrent("t").hselect(Predicate::gt_const("grade", Value::Int(5000))),
        ),
    ];
    println!("{:<42} {:>12} {:>8}", "query", "µs/query", "|result|");
    for (name, q) in &queries {
        let mut size = 0;
        let us = time_median(
            || {
                let s = engine.eval(q).expect("valid query");
                size = s.len();
                size
            },
            9,
        );
        println!("{name:<42} {us:>12.1} {size:>8}");
    }
    // Orthogonality spot-check: rollback then timeslice at all corners.
    let h = engine
        .eval(&Expr::hrollback("t", TxSpec::At(TransactionNumber(33))))
        .unwrap()
        .into_historical()
        .unwrap();
    let us = time_median(|| h.timeslice(200).len(), 9);
    println!(
        "{:<42} {us:>12.1} {:>8}",
        "timeslice(ρ̂(t, mid), 200)",
        h.timeslice(200).len()
    );
    println!("=> transaction-time access (ρ̂) and valid-time access (δ/timeslice) compose\n   in either order: the two dimensions are orthogonal (§4).\n");
}

// --------------------------------------------------------------------
// E6: Ben-Zvi Time-View baseline.
// --------------------------------------------------------------------
fn e6_benzvi_baseline() {
    println!("E6. Ben-Zvi Time-View vs ρ̂∘timeslice (32 versions × |R| = 60)");
    let chain = historical_chain(32, 60);
    let b = bridge::load(&chain);
    match b.check_correspondence(1_000) {
        Ok(()) => {
            println!("correspondence: Time-View(R,tv,tt) = timeslice(ρ̂(R,tt),tv)  ✓ (all tv, tt)")
        }
        Err(e) => println!("correspondence FAILED: {e}"),
    }

    let tt = TransactionNumber(20);
    let tv = 500;
    let trm_us = time_median(|| b.trm.time_view(tv, tt).len(), 9);
    let ours_us = time_median(
        || {
            Expr::hrollback("r", TxSpec::At(tt))
                .eval(&b.database)
                .unwrap()
                .into_historical()
                .unwrap()
                .timeslice(tv)
                .len()
        },
        9,
    );
    let assemble_us = time_median(|| b.trm.assemble_history(tt).len(), 9);
    let rho_us = time_median(
        || {
            Expr::hrollback("r", TxSpec::At(tt))
                .eval(&b.database)
                .unwrap()
                .len()
        },
        9,
    );
    println!("{:<46} {:>12}", "operation", "µs/query");
    println!("{:<46} {:>12.1}", "TRM Time-View(R, tv, tt)", trm_us);
    println!("{:<46} {:>12.1}", "ours timeslice(ρ̂(R, tt), tv)", ours_us);
    println!(
        "{:<46} {:>12.1}",
        "TRM full history at tt (assembled)", assemble_us
    );
    println!(
        "{:<46} {:>12.1}",
        "ours full history at tt (ρ̂ alone)", rho_us
    );
    println!("TRM physical rows: {}", b.trm.row_count());
    println!("=> the models agree on every slice; ρ̂ additionally returns the whole\n   historical state directly, which Time-View's slice-only interface cannot\n   (the paper's §5 critique).\n");
}

// --------------------------------------------------------------------
// E7: optimizer effect.
// --------------------------------------------------------------------
fn e7_optimizer() {
    println!("E7. Optimizer effect (evaluation time, µs/query)");
    // A database with two joinable rollback relations.
    let emp_chain = version_chain(4, 400, 0.1);
    let mut cmds = vec![Command::define_relation("emp", RelationType::Rollback)];
    for s in &emp_chain {
        cmds.push(Command::modify_state(
            "emp",
            Expr::snapshot_const(s.clone()),
        ));
    }
    cmds.push(Command::define_relation("dept", RelationType::Rollback));
    let dept_schema =
        txtime_snapshot::Schema::new(vec![("dno", txtime_snapshot::DomainType::Int)]).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let dept_state =
        txtime_snapshot::generate::random_state(&mut rng, &dept_schema, &bench_gen_config(40));
    cmds.push(Command::modify_state(
        "dept",
        Expr::snapshot_const(dept_state),
    ));
    let db = Sentence::new(cmds).unwrap().eval().unwrap();
    let catalog = SchemaCatalog::from_database(&db);
    let mut model = CostModel::new();
    model.set_cardinality("emp", 400.0);
    model.set_cardinality("dept", 40.0);

    let queries: Vec<(&str, Expr)> = vec![
        (
            "σ over × (pushdown target)",
            Expr::current("emp").product(Expr::current("dept")).select(
                Predicate::lt_const("grade", Value::Int(500))
                    .and(Predicate::lt_const("dno", Value::Int(1000))),
            ),
        ),
        (
            "cascaded σ (fusion target)",
            Expr::current("emp")
                .select(Predicate::gt_const("grade", Value::Int(100)))
                .select(Predicate::lt_const("grade", Value::Int(5000)))
                .select(Predicate::gt_const("id", Value::Int(10))),
        ),
        (
            "σ over ∪ of two rollbacks",
            Expr::rollback("emp", TxSpec::At(TransactionNumber(2)))
                .union(Expr::current("emp"))
                .select(Predicate::lt_const("grade", Value::Int(300))),
        ),
        (
            "σ_false (constant folding)",
            Expr::current("emp")
                .select(Predicate::gt_const("grade", Value::Int(1)).and(Predicate::False)),
        ),
    ];

    println!(
        "{:<32} {:>12} {:>12} {:>8} {:>12} {:>12}",
        "query", "orig µs", "opt µs", "speedup", "est cost", "est cost opt"
    );
    for (name, q) in &queries {
        let o = optimize(q, &catalog);
        let before = time_median(|| q.eval(&db).expect("valid").len(), 7);
        let after = time_median(|| o.eval(&db).expect("valid").len(), 7);
        // Verify equivalence while we are here.
        assert_eq!(q.eval(&db).unwrap(), o.eval(&db).unwrap(), "{name}");
        println!(
            "{:<32} {:>12.1} {:>12.1} {:>7.1}x {:>12.0} {:>12.0}",
            name,
            before,
            after,
            before / after.max(0.001),
            estimate_cost(q, &model),
            estimate_cost(&o, &model)
        );
    }
    println!("=> classical rewrites apply unchanged with ρ as an opaque leaf (§2 claim),\n   and optimized plans evaluate to identical states.\n");
}

// --------------------------------------------------------------------
// E8: concurrent = serial.
// --------------------------------------------------------------------
fn e8_concurrency() {
    println!("E8. Concurrency: optimistic manager vs serial, 200 txns");
    println!(
        "{:<10} {:>8} {:>12} {:>10} {:>10} {:>8}",
        "workload", "threads", "txn/s", "restarts", "commits", "serial≡"
    );
    for (workload, relations) in [("conflict", 1usize), ("disjoint", 16)] {
        for threads in [1usize, 2, 4, 8] {
            let mut setup = Vec::new();
            for r in 0..relations {
                setup.push(Command::define_relation(
                    format!("r{r}"),
                    RelationType::Rollback,
                ));
                setup.push(Command::modify_state(
                    format!("r{r}"),
                    Expr::snapshot_const(version_chain(1, 10, 0.0).pop().unwrap()),
                ));
            }
            let initial = Sentence::new(setup).unwrap().eval().unwrap();
            let mut rng = StdRng::seed_from_u64(SEED ^ threads as u64);
            let txns: Vec<Transaction> = (1..=200u64)
                .map(|id| {
                    let r = format!("r{}", rng.gen_range(0..relations));
                    Transaction::new(
                        id,
                        vec![Command::modify_state(
                            r.clone(),
                            Expr::current(r).union(Expr::snapshot_const(
                                version_chain(1, 1, 0.0).pop().unwrap(),
                            )),
                        )],
                    )
                })
                .collect();
            let t = Instant::now();
            let report = ConcurrentManager::new().run_from(initial.clone(), txns.clone(), threads);
            let rate = 200.0 / t.elapsed().as_secs_f64();
            let ok = check_serial_equivalence(&initial, &txns, &report.commits, &report.database)
                .is_ok();
            println!(
                "{:<10} {:>8} {:>12.0} {:>10} {:>10} {:>8}",
                workload,
                threads,
                rate,
                report.restarts,
                report.commits.len(),
                if ok { "✓" } else { "✗" }
            );
        }
    }
    println!("=> every run is equivalent to a serial execution in commit order with a\n   single monotonically increasing transaction clock (§3.2's condition).\n");
}

// --------------------------------------------------------------------
// E9: FINDSTATE lookup strategies.
// --------------------------------------------------------------------
/// Measures FINDSTATE µs/lookup at the given depth for the three
/// strategies: (interpolating, binary, linear).
fn measure_findstate(versions: usize) -> (f64, f64, f64) {
    // Build a reference relation directly (tiny states; the lookup
    // itself is what we measure).
    let chain = version_chain(versions, 4, 0.5);
    let mut cmds = vec![Command::define_relation("r", RelationType::Rollback)];
    for s in &chain {
        cmds.push(Command::modify_state("r", Expr::snapshot_const(s.clone())));
    }
    let db = Sentence::new(cmds).unwrap().eval().unwrap();
    let rel = db.state.lookup("r").unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);
    let probes: Vec<TransactionNumber> = (0..256)
        .map(|_| TransactionNumber(rng.gen_range(0..versions as u64 + 3)))
        .collect();
    let per = probes.len() as f64;

    let interp = time_median(
        || {
            probes
                .iter()
                .filter_map(|&t| txtime_core::semantics::aux::find_state(rel, t))
                .count()
        },
        9,
    ) / per;
    let binary = time_median(
        || {
            probes
                .iter()
                .filter_map(|&t| txtime_core::semantics::aux::find_state_binary(rel, t))
                .count()
        },
        9,
    ) / per;
    let linear = time_median(
        || {
            probes
                .iter()
                .filter_map(|&t| {
                    rel.versions()
                        .iter()
                        .rev()
                        .find(|v| v.tx <= t)
                        .map(|v| &v.state)
                })
                .count()
        },
        9,
    ) / per;
    (interp, binary, linear)
}

fn e9_findstate() {
    println!("E9. FINDSTATE: interpolation search vs binary search vs linear scan (µs/lookup)");
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>9}",
        "versions", "interpolating", "binary", "linear", "speedup"
    );
    for &versions in &[16usize, 256, 4096] {
        let (interp, binary, linear) = measure_findstate(versions);
        println!(
            "{:<10} {:>14.3} {:>12.3} {:>12.3} {:>8.1}x",
            versions,
            interp,
            binary,
            linear,
            linear / interp.max(1e-9)
        );
    }
    println!("=> the strictly increasing transaction numbers (§3.2) admit O(log log n)\n   interpolation search on the near-uniform commit sequence, which is what\n   makes deep rollback histories practical.\n");
}

// --------------------------------------------------------------------
// E10: materialization cache + operator pushdown.
// --------------------------------------------------------------------

/// Cache headline row: a 16-probe working set of
/// as-of points over a 256-version chain, revisited repeatedly (the
/// audit shape). Returns (uncached µs/sweep, cached µs/sweep, hit rate,
/// deltas replayed per miss).
fn measure_cache() -> (f64, f64, f64, f64) {
    let versions = 256usize;
    let chain = version_chain(versions, 200, 0.1);
    let mut rng = StdRng::seed_from_u64(SEED);
    let probes: Vec<TransactionNumber> = (0..16)
        .map(|_| TransactionNumber(rng.gen_range(2..versions as u64 + 2)))
        .collect();
    let engine = engine_with_chain(CheckpointPolicy::every_k(64).unwrap(), &chain);
    let sweep = |engine: &Engine| {
        probes
            .iter()
            .map(|&t| {
                engine
                    .eval(&Expr::rollback("r", TxSpec::At(t)))
                    .expect("probe answers")
                    .len()
            })
            .sum::<usize>()
    };
    engine.set_cache_capacity(0);
    let uncached = time_median(|| sweep(&engine), 9);
    engine.set_cache_capacity(128);
    sweep(&engine); // warm: first visit per probe pays the replay
    engine.reset_cache_stats();
    let cached = time_median(|| sweep(&engine), 9);
    let stats = engine.cache_stats();
    (uncached, cached, stats.hit_rate(), stats.replay_per_miss())
}

/// Pushdown headline row: σ_F(ρ(r, mid)) evaluated
/// through the engine (the store filters while reconstructing) vs
/// resolving the full version and filtering afterwards. Returns
/// (materialized µs, pushed µs).
fn measure_pushdown() -> (f64, f64) {
    let versions = 128usize;
    let chain = version_chain(versions, 400, 0.1);
    let mid = TransactionNumber(versions as u64 / 2 + 1);
    // int_range is 10_000, so this keeps ~5% of tuples.
    let pred = Predicate::lt_const("id", Value::Int(500));
    let engine = engine_with_chain(CheckpointPolicy::every_k(32).unwrap(), &chain);
    engine.set_cache_capacity(0); // isolate pushdown from caching
    let materialized = time_median(
        || {
            engine
                .resolve_rollback("r", TxSpec::At(mid), false)
                .expect("probe answers")
                .into_snapshot()
                .expect("snapshot relation")
                .select(&pred)
                .expect("predicate compiles")
                .len()
        },
        9,
    );
    let pushed_expr = Expr::rollback("r", TxSpec::At(mid)).select(pred.clone());
    let pushed = time_median(
        || engine.eval(&pushed_expr).expect("probe answers").len(),
        9,
    );
    (materialized, pushed)
}

/// The `e10_pushdown_sigma_over_rho` entry of BENCH_2/BENCH_3, under the
/// `forward-delta` key the dashboards read.
fn pushdown_json() -> String {
    let (materialized, pushed) = measure_pushdown();
    format!(
        "\"forward-delta\": {{\"materialized_us\": {materialized:.1}, \"pushed_us\": {pushed:.1}, \
         \"speedup\": {:.1}}}",
        materialized / pushed.max(1e-9)
    )
}

fn e10_cache_pushdown() {
    println!("E10. Materialization cache + operator pushdown");
    println!("E10a. Repeated rollback probes: 16-probe working set over 256 versions,");
    println!("      |R| = 200, churn = 10%, checkpoint every 64 (µs/sweep)");
    println!(
        "{:<16} {:>12} {:>12} {:>9} {:>9} {:>12}",
        "checkpoint", "uncached", "cached", "speedup", "hit rate", "replay/miss"
    );
    let (uncached, cached, hit_rate, replay_per_miss) = measure_cache();
    println!(
        "{:<16} {:>12.1} {:>12.1} {:>8.1}x {:>8.1}% {:>12.1}",
        "every 64",
        uncached,
        cached,
        uncached / cached.max(1e-9),
        hit_rate * 100.0,
        replay_per_miss
    );
    println!("\nE10b. σ_F(ρ(r, mid)): pushed into resolution vs materialize-then-filter,");
    println!("      |R| = 400, 128 versions, ~5% selectivity (µs/query)");
    println!(
        "{:<16} {:>14} {:>12} {:>9}",
        "checkpoint", "materialized", "pushed", "speedup"
    );
    let (materialized, pushed) = measure_pushdown();
    println!(
        "{:<16} {:>14.1} {:>12.1} {:>8.1}x",
        "every 32",
        materialized,
        pushed,
        materialized / pushed.max(1e-9)
    );
    println!("=> revisited as-of points cost one cache lookup instead of a delta replay;\n   pushdown pays off where the store can filter during the replay.\n");
}

// --------------------------------------------------------------------
// bench2: BENCH_2.json with the headline numbers (explicit-only arm).
// --------------------------------------------------------------------
fn bench2() {
    println!("bench2. Writing BENCH_2.json (e2 / e9 / e10 headline numbers)");

    // E2 headline: rollback µs/query at 1024 versions per checkpoint
    // interval.
    let versions = 1024usize;
    let chain = version_chain(versions, 200, 0.1);
    let mut e2 = String::new();
    for (i, every) in INTERVALS.into_iter().enumerate() {
        let engine = engine_with_chain(CheckpointPolicy::every_k(every).unwrap(), &chain);
        engine.set_cache_capacity(0); // raw reconstruction cost; E10 measures caching
        let mut probes = String::new();
        for (j, (label, tx)) in probe_txs(versions).into_iter().enumerate() {
            let us = time_median(
                || {
                    touch(
                        &engine
                            .resolve_rollback("r", TxSpec::At(tx), false)
                            .expect("probe answers"),
                    )
                },
                9,
            );
            if j > 0 {
                probes.push_str(", ");
            }
            probes.push_str(&format!("\"{label}\": {us:.1}"));
        }
        if i > 0 {
            e2.push_str(", ");
        }
        e2.push_str(&format!("\"every {every}\": {{{probes}}}"));
    }

    let (interp, binary, linear) = measure_findstate(4096);

    let (uncached, cached, hit_rate, replay_per_miss) = measure_cache();
    let e10_cache = format!(
        "\"forward-delta\": {{\"uncached_us\": {uncached:.1}, \"cached_us\": {cached:.1}, \
         \"speedup\": {:.1}, \"hit_rate\": {hit_rate:.3}, \
         \"replayed_per_miss\": {replay_per_miss:.1}}}",
        uncached / cached.max(1e-9)
    );

    let e10_pushdown = pushdown_json();

    let json = format!(
        "{{\n  \"seed\": \"{SEED:#x}\",\n  \
         \"e2_rollback_us_at_1024_versions\": {{{e2}}},\n  \
         \"e9_findstate_us_per_lookup_at_4096\": {{\"interpolating\": {interp:.3}, \
         \"binary\": {binary:.3}, \"linear\": {linear:.3}}},\n  \
         \"e10_cache_16_probe_sweep\": {{{e10_cache}}},\n  \
         \"e10_pushdown_sigma_over_rho\": {{{e10_pushdown}}}\n}}\n"
    );
    std::fs::write("BENCH_2.json", &json).expect("write BENCH_2.json");
    println!("{json}");
}

// --------------------------------------------------------------------
// E11: WAL recovery.
// --------------------------------------------------------------------
fn e11_recovery() {
    println!("E11. WAL recovery: rebuild-from-log ≡ live engine");
    let dir = std::env::temp_dir().join("txtime-experiments");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("e11-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let chain = version_chain(256, 100, 0.1);
    let mut live =
        Engine::with_wal(CheckpointPolicy::every_k(16).unwrap(), &path).expect("wal engine");
    live.execute(&Command::define_relation("r", RelationType::Rollback))
        .unwrap();
    let t = Instant::now();
    for s in &chain {
        live.execute(&Command::modify_state("r", Expr::snapshot_const(s.clone())))
            .unwrap();
    }
    let write_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let rec = recover(
        &path,
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    )
    .expect("recovery");
    let recover_s = t.elapsed().as_secs_f64();

    let mut equal = rec.engine.tx() == live.tx();
    for tx in 0..=live.tx().0 {
        let spec = TxSpec::At(TransactionNumber(tx));
        let a = live.resolve_rollback("r", spec, false).ok();
        let b = rec.engine.resolve_rollback("r", spec, false).ok();
        equal &= a == b;
    }
    println!("commands journaled : {}", rec.replayed);
    println!(
        "journal size       : {} bytes",
        std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0)
    );
    println!("write throughput   : {:.0} cmd/s", 257.0 / write_s);
    println!(
        "recovery throughput: {:.0} cmd/s",
        rec.replayed as f64 / recover_s
    );
    println!("corrupt lines      : {}", rec.skipped.len());
    println!(
        "state equivalence  : {}",
        if equal {
            "✓ (all {0..n} rollbacks equal)"
        } else {
            "✗"
        }
    );

    // And the differential summary per checkpoint interval, for the
    // record.
    let mut cmds = vec![Command::define_relation("r", RelationType::Rollback)];
    for s in version_chain(32, 50, 0.2) {
        cmds.push(Command::modify_state("r", Expr::snapshot_const(s)));
    }
    let mut all_ok = true;
    for every in [1, 8] {
        let ok = check_equivalence(&cmds, CheckpointPolicy::every_k(every).unwrap()).is_ok();
        all_ok &= ok;
        println!(
            "checkpoint {:<13} ≡ reference semantics: {}",
            format!("every {every}"),
            if ok { "✓" } else { "✗" }
        );
    }
    println!(
        "=> {}\n",
        if all_ok && equal {
            "every physical design is observationally equal to the paper's semantics (§5)"
        } else {
            "DIVERGENCE DETECTED"
        }
    );
    let _ = std::fs::remove_file(&path);
    let _ = Database::empty(); // keep the import honest under cfg changes
}

// --------------------------------------------------------------------
// E12: archival ("migrate rollback relations to tape", §3.1).
// --------------------------------------------------------------------
fn e12_archival() {
    println!("E12. Archival: space reclaimed by migrating old versions out");
    let chain = version_chain(256, 200, 0.1);
    println!(
        "{:<16} {:>14} {:>14} {:>10} {:>10}",
        "checkpoint", "before B", "after B", "reclaim", "archived"
    );
    let dir = std::env::temp_dir().join("txtime-experiments");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    for every in [1, 32] {
        let mut engine = engine_with_chain(CheckpointPolicy::every_k(every).unwrap(), &chain);
        let before = engine.space_report().total_bytes();
        let path = dir.join(format!("e12-{}-every-{every}.txq", std::process::id()));
        let _ = std::fs::remove_file(&path);
        // Archive everything older than the version at mid-history.
        let cutoff = TransactionNumber(129);
        let report = engine
            .archive_before("r", cutoff, Some(&path))
            .expect("archive succeeds");
        let after = engine.space_report().total_bytes();
        println!(
            "{:<16} {:>14} {:>14} {:>9.0}% {:>10}",
            format!("every {every}"),
            before,
            after,
            100.0 * (before - after) as f64 / before as f64,
            report.archived
        );
        // The retained half still answers; verify the floor and the head.
        for tx in [129u64, 257] {
            engine
                .resolve_rollback("r", TxSpec::At(TransactionNumber(tx)), false)
                .expect("retained versions answer");
        }
        // The archive replays into a fresh relation.
        let text = format!(
            "define_relation(r, rollback);\n{}",
            std::fs::read_to_string(&path).expect("archive is readable")
        );
        let replayed = txtime_parser::parse_sentence(&text)
            .expect("archive parses")
            .eval()
            .expect("archive replays");
        assert_eq!(
            replayed
                .state
                .lookup("r")
                .expect("relation")
                .versions()
                .len(),
            report.archived
        );
        let _ = std::fs::remove_file(&path);
    }
    println!("=> archived versions replay from the archive script; the live store keeps\n   the floor version, so every retained rollback target is unchanged.\n");
}

// --------------------------------------------------------------------
// E13: parallel execution — worker-pool scaling + batched rollback.
// --------------------------------------------------------------------

/// The partitioned-kernel workloads: constant-leaf queries so evaluation
/// is pure operator work (no rollback resolution in the timed region).
/// Returns (display label, JSON key, query).
fn e13_kernels() -> Vec<(&'static str, &'static str, Expr)> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let schema = bench_schema();
    let big = txtime_snapshot::generate::random_state(&mut rng, &schema, &bench_gen_config(20_000));
    let left = txtime_snapshot::generate::random_state(&mut rng, &schema, &bench_gen_config(300));
    let dept_schema =
        txtime_snapshot::Schema::new(vec![("dno", txtime_snapshot::DomainType::Int)]).unwrap();
    let right =
        txtime_snapshot::generate::random_state(&mut rng, &dept_schema, &bench_gen_config(300));
    // Past every grain by an order of magnitude: does a split pay at all?
    let wide = GenConfig {
        int_range: 10_000_000,
        ..bench_gen_config(100_000)
    };
    let a100k = txtime_snapshot::generate::random_state(&mut rng, &schema, &wide);
    let b100k = txtime_snapshot::generate::random_state(&mut rng, &schema, &wide);
    vec![
        (
            "σ keep-half |R|=20000",
            "select_keep_half_20k",
            Expr::snapshot_const(big).select(Predicate::lt_const("id", Value::Int(5000))),
        ),
        (
            "× 300 × 300",
            "product_300x300",
            Expr::snapshot_const(left).product(Expr::snapshot_const(right)),
        ),
        (
            "− 100000 − 100000",
            "difference_100k_100k",
            Expr::snapshot_const(a100k).difference(Expr::snapshot_const(b100k)),
        ),
    ]
}

/// Kernel µs/query at each thread budget in `E13_THREADS`.
const E13_THREADS: [usize; 4] = [1, 2, 4, 8];

fn measure_kernel(engine: &mut Engine, q: &Expr) -> [f64; 4] {
    let mut out = [0.0f64; 4];
    for (i, &t) in E13_THREADS.iter().enumerate() {
        engine.set_threads(t);
        out[i] = time_median(|| engine.eval(q).expect("constant query").len(), 15);
    }
    out
}

/// Batched rollback: `resolve_many` over a 16-probe
/// set against per-probe `eval` of the matching ρ. No checkpoints and no
/// cache, so per-probe resolution replays each probe's full chain while
/// the batch replays the shared chain once. Returns
/// (per-probe µs/set, batched µs/set).
fn measure_resolve_batching() -> (f64, f64) {
    let versions = 256usize;
    let chain = version_chain(versions, 200, 0.1);
    let mut engine = engine_with_chain(CheckpointPolicy::Never, &chain);
    // Both paths share one 4-thread pool: the measured gap is pure
    // batching (one shared-chain replay per batch), not thread count.
    engine.set_threads(4);
    engine.set_cache_capacity(0);
    // The view memo would otherwise register the repeated per-probe ρ
    // queries and serve them from cache while `resolve_many` replays the
    // chain for real, driving the reported speedup to ~0.
    engine.set_memo_capacity(0);
    let mut rng = StdRng::seed_from_u64(SEED);
    let probes: Vec<(&str, TxSpec)> = (0..16)
        .map(|_| {
            (
                "r",
                TxSpec::At(TransactionNumber(rng.gen_range(2..versions as u64 + 2))),
            )
        })
        .collect();
    let per_probe = time_median(
        || {
            probes
                .iter()
                .map(|(name, spec)| {
                    engine
                        .eval(&Expr::rollback(*name, *spec))
                        .expect("probe answers")
                        .len()
                })
                .sum::<usize>()
        },
        9,
    );
    let batched = time_median(
        || {
            engine
                .resolve_many(&probes)
                .into_iter()
                .map(|r| r.expect("probe answers").len())
                .sum::<usize>()
        },
        9,
    );
    (per_probe, batched)
}

/// What one split costs: a two-chunk `map_chunks` over no work, against
/// the same call run inline — thread spawn, join and chunk bookkeeping
/// exactly as the partitioned kernels pay them. µs, median of 2001.
fn measure_spawn_join() -> f64 {
    let split = ExecPool::with_unit_grain(2);
    let inline = ExecPool::new(1);
    let items = [0u8; 2];
    let call = |pool: &ExecPool| {
        pool.map_chunks(OpKind::Select, &items, 1, |c| c.len())
            .len()
    };
    time_median(|| call(&split), 2001) - time_median(|| call(&inline), 2001)
}

/// Sequential per-unit cost of each partitioned kernel, in the unit its
/// grain is counted in. The inputs are the *cheapest* realistic case per
/// kernel (a keep-half filter, an order-preserving projection, a probe
/// that rarely matches), so the quotient is the largest grain the kernel
/// can need. Returns (kernel, its grain's operator, unit, units per call,
/// µs per call).
fn measure_kernel_units() -> Vec<(&'static str, OpKind, &'static str, usize, f64)> {
    use txtime_core::{JoinPhysical, JoinSpec};
    const N: usize = 16_384;
    let mut rng = StdRng::seed_from_u64(SEED);
    let schema = bench_schema();
    let a = random_state(&mut rng, &schema, &bench_gen_config(N));
    let b = random_state(&mut rng, &schema, &bench_gen_config(N));
    let one = random_state(&mut rng, &schema, &bench_gen_config(1));
    let dno = Schema::new(vec![("dno", DomainType::Int)]).unwrap();
    let dept = random_state(&mut rng, &dno, &bench_gen_config(64));
    let left = random_state(&mut rng, &schema, &bench_gen_config(256));
    let keep_half = Predicate::lt_const("id", Value::Int(5000));
    let spec = JoinSpec {
        keys: vec![("id".into(), "dno".into())],
        residual: Predicate::True,
        physical: JoinPhysical::Hash,
    };
    let hcfg = txtime_historical::generate::HistGenConfig {
        values: bench_gen_config(N),
        horizon: 1_000,
        max_periods: 3,
    };
    let ha = txtime_historical::generate::random_historical_state(&mut rng, &schema, &hcfg);
    const REPS: usize = 41;
    vec![
        (
            "σ keep-half",
            OpKind::Select,
            "input tuple",
            a.len(),
            time_median(|| a.select(&keep_half).unwrap().len(), REPS),
        ),
        (
            "π prefix [id, name]",
            OpKind::Project,
            "input tuple",
            a.len(),
            time_median(|| a.project(&["id", "name"]).unwrap().len(), REPS),
        ),
        (
            "− balanced",
            OpKind::Difference,
            "input tuple (both)",
            a.len() + b.len(),
            time_median(|| a.difference(&b).unwrap().len(), REPS),
        ),
        (
            "− one-row right",
            OpKind::Difference,
            "input tuple (both)",
            a.len() + one.len(),
            time_median(|| a.difference(&one).unwrap().len(), REPS),
        ),
        (
            "× 256 × 64",
            OpKind::Product,
            "output pair",
            left.len() * dept.len(),
            time_median(|| left.product(&dept).unwrap().len(), REPS),
        ),
        (
            "⋈ hash probe, 64-row build",
            OpKind::Join,
            "probe tuple",
            a.len(),
            time_median(|| a.equi_join(&dept, &spec).unwrap().len(), REPS),
        ),
        (
            "σ̂ keep-half",
            OpKind::HSelect,
            "input entry",
            ha.len(),
            time_median(|| ha.hselect(&keep_half).unwrap().len(), REPS),
        ),
    ]
}

/// E13c: the break-even grain of each partitioned kernel on this host —
/// the figures behind `OpKind::min_chunk`.
fn e13_break_even() {
    let spawn_join = measure_spawn_join();
    println!("\nE13c. Break-even grains: one split costs {spawn_join:.1} µs (spawn + join,");
    println!("      median of 2001); a chunk must carry at least that much kernel work");
    println!(
        "{:<30} {:<20} {:>10} {:>10} {:>12} {:>10}",
        "kernel (sequential)", "unit", "µs/call", "ns/unit", "break-even", "shipped"
    );
    for (label, op, unit, units, us) in measure_kernel_units() {
        let ns_per_unit = us * 1e3 / units as f64;
        println!(
            "{:<30} {:<20} {:>10.1} {:>10.1} {:>12.0} {:>10}",
            label,
            unit,
            us,
            ns_per_unit,
            spawn_join * 1e3 / ns_per_unit,
            op.min_chunk()
        );
    }
}

fn e13_parallel() {
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("E13. Parallel execution: worker-pool scaling and batched rollback");
    println!("     (host reports {avail} available core(s); thread budgets are logical)");
    println!("\nE13a. Partitioned-kernel wall time vs thread budget (µs/query)");
    println!(
        "{:<24} {:>10} {:>10} {:>10} {:>10} {:>9}",
        "workload", "1T", "2T", "4T", "8T", "1T/4T"
    );
    let mut engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    for (label, _, q) in &e13_kernels() {
        let us = measure_kernel(&mut engine, q);
        println!(
            "{:<24} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>8.2}x",
            label,
            us[0],
            us[1],
            us[2],
            us[3],
            us[0] / us[2].max(1e-9)
        );
    }
    println!("\nE13b. Batched rollback: resolve_many over a 16-probe set vs per-probe eval,");
    println!("      256 versions, |R| = 200, no checkpoints, cache off (µs/set)");
    println!(
        "{:<16} {:>12} {:>12} {:>9}",
        "checkpoint", "per-probe", "batched", "speedup"
    );
    let (per_probe, batched) = measure_resolve_batching();
    println!(
        "{:<16} {:>12.1} {:>12.1} {:>8.1}x",
        "never",
        per_probe,
        batched,
        per_probe / batched.max(1e-9)
    );
    e13_break_even();
    println!("=> a kernel splits only past its break-even grain (E13c), and then into at\n   most as many chunks as the host has cores (budgets above that clamp, so\n   4T and 8T repeat the 2T column on a 2-core host); which kernels a split\n   then pays for is E13a's answer, not the grain's. Batching is algorithmic —\n   the shared delta chain is replayed once per batch instead of once per\n   probe — so it does not depend on the core count.\n");
}

// --------------------------------------------------------------------
// bench3: BENCH_3.json with the parallel-execution headline numbers.
// --------------------------------------------------------------------
fn bench3() {
    println!("bench3. Writing BENCH_3.json (e13 scaling + batching, refreshed e10 pushdown)");
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut kernels = String::new();
    let mut engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    for (i, (_, key, q)) in e13_kernels().iter().enumerate() {
        let us = measure_kernel(&mut engine, q);
        if i > 0 {
            kernels.push_str(", ");
        }
        // host_cores rides along in every entry so downstream checks can
        // judge each scaling number against the parallelism that was
        // actually available when it was measured.
        kernels.push_str(&format!(
            "\"{key}\": {{\"t1_us\": {:.1}, \"t2_us\": {:.1}, \"t4_us\": {:.1}, \
             \"t8_us\": {:.1}, \"speedup_4t\": {:.2}, \"host_cores\": {avail}}}",
            us[0],
            us[1],
            us[2],
            us[3],
            us[0] / us[2].max(1e-9)
        ));
    }

    let (per_probe, batched) = measure_resolve_batching();
    let batching = format!(
        "\"forward-delta\": {{\"per_probe_us\": {per_probe:.1}, \"batched_us\": {batched:.1}, \
         \"speedup\": {:.1}}}",
        per_probe / batched.max(1e-9)
    );
    let e10_pushdown = pushdown_json();

    let json = format!(
        "{{\n  \"seed\": \"{SEED:#x}\",\n  \
         \"host_cores\": {avail},\n  \
         \"e13_kernel_scaling\": {{{kernels}}},\n  \
         \"e13_resolve_many_batching\": {{{batching}}},\n  \
         \"e10_pushdown_sigma_over_rho\": {{{e10_pushdown}}}\n}}\n"
    );
    std::fs::write("BENCH_3.json", &json).expect("write BENCH_3.json");
    println!("{json}");
}

// --------------------------------------------------------------------
// E14: sorted-run layout vs the BTree layout it replaced.
// --------------------------------------------------------------------

/// Two union-compatible operands of cardinality `n` over [`bench_schema`]
/// plus their BTree-reference twins (conversion cost excluded from every
/// timing below).
fn e14_operands(n: usize) -> (SnapshotState, SnapshotState, RefSnapshot, RefSnapshot) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let schema = bench_schema();
    let cfg = bench_gen_config(n);
    let a = random_state(&mut rng, &schema, &cfg);
    let b = random_state(&mut rng, &schema, &cfg);
    let (ra, rb) = (RefSnapshot::from_state(&a), RefSnapshot::from_state(&b));
    (a, b, ra, rb)
}

/// `(op, json key, btree µs, sorted µs)` rows at cardinality `n`.
fn measure_sorted_run_ops(n: usize) -> Vec<(&'static str, String, f64, f64)> {
    let (a, b, ra, rb) = e14_operands(n);
    let reps = if n >= 100_000 { 5 } else { 11 };
    vec![
        (
            "union",
            format!("union_{n}"),
            time_median(|| ra.union(&rb).unwrap().len(), reps),
            time_median(|| a.union(&b).unwrap().len(), reps),
        ),
        (
            "difference",
            format!("difference_{n}"),
            time_median(|| ra.difference(&rb).unwrap().len(), reps),
            time_median(|| a.difference(&b).unwrap().len(), reps),
        ),
        (
            "project",
            format!("project_{n}"),
            time_median(|| ra.project(&["id", "grade"]).unwrap().len(), reps),
            time_median(|| a.project(&["id", "grade"]).unwrap().len(), reps),
        ),
    ]
}

/// Forward-delta replay over a `versions`-long chain: per-element BTree
/// replay vs the merge-based `apply_in_place`. Returns (btree µs,
/// sorted µs) for replaying the whole chain.
fn measure_delta_replay(versions: usize) -> (f64, f64) {
    let chain = version_chain(versions, 200, 0.1);
    let deltas: Vec<StateDelta> = chain
        .windows(2)
        .map(|w| {
            StateDelta::between(
                &StateValue::Snapshot(w[0].clone()),
                &StateValue::Snapshot(w[1].clone()),
            )
        })
        .collect();
    const REPS: usize = 21;
    let base = StateValue::Snapshot(chain[0].clone());
    let sorted = time_median(
        || {
            let mut working = base.clone();
            for d in &deltas {
                d.apply_in_place(&mut working);
            }
            working.len()
        },
        REPS,
    );
    let ref_base = RefSnapshot::from_state(&chain[0]);
    let btree = time_median(
        || {
            // The BTree-era replay was persistent: `StateDelta::apply`
            // cloned the base's tree and produced a fresh state per step.
            let mut working = ref_base.clone();
            for d in &deltas {
                match d {
                    StateDelta::Snapshot { added, removed } => {
                        let mut next = working.clone();
                        next.apply_delta(removed, added).unwrap();
                        working = next;
                    }
                    _ => unreachable!("a snapshot chain only yields snapshot deltas"),
                }
            }
            working.len()
        },
        REPS,
    );
    (btree, sorted)
}

fn e14_sorted_runs() {
    println!("E14. Sorted-run layout: merge kernels vs the retained BTree layout");
    println!("\nE14a. Set operations, identical seeded operands (µs/op)");
    println!(
        "{:<12} {:>9} {:>12} {:>12} {:>9}",
        "op", "tuples", "btree", "sorted", "speedup"
    );
    for n in [10_000usize, 100_000] {
        for (op, _, btree, sorted) in measure_sorted_run_ops(n) {
            println!(
                "{:<12} {:>9} {:>12.1} {:>12.1} {:>8.2}x",
                op,
                n,
                btree,
                sorted,
                btree / sorted.max(1e-9)
            );
        }
    }
    println!("\nE14b. Forward-delta replay, 1024 versions, |R| = 200, churn 0.1 (µs/chain)");
    println!(
        "{:<16} {:>12} {:>12} {:>9}",
        "replay", "btree", "sorted", "speedup"
    );
    let (btree, sorted) = measure_delta_replay(1024);
    println!(
        "{:<16} {:>12.1} {:>12.1} {:>8.2}x",
        "full chain",
        btree,
        sorted,
        btree / sorted.max(1e-9)
    );
    println!("=> merge kernels stream two sorted runs once instead of issuing one tree\n   insert per tuple; replay edits one uniquely-owned run in place (galloping\n   event location, same-slot overwrites, block moves), where the BTree-era replay cloned\n   a full tree per version — per-version allocation drops to zero.\n");
}

// --------------------------------------------------------------------
// bench4: BENCH_4.json with the sorted-run headline numbers.
// --------------------------------------------------------------------
fn bench4() {
    println!("bench4. Writing BENCH_4.json (sorted-run kernels vs BTree layout)");
    let mut set_ops = String::new();
    for n in [10_000usize, 100_000] {
        for (_, key, btree, sorted) in measure_sorted_run_ops(n) {
            if !set_ops.is_empty() {
                set_ops.push_str(", ");
            }
            set_ops.push_str(&format!(
                "\"{key}\": {{\"btree_us\": {btree:.1}, \"sorted_us\": {sorted:.1}, \
                 \"speedup\": {:.2}}}",
                btree / sorted.max(1e-9)
            ));
        }
    }
    let (btree, sorted) = measure_delta_replay(1024);
    let json = format!(
        "{{\n  \"seed\": \"{SEED:#x}\",\n  \
         \"e14_set_ops\": {{{set_ops}}},\n  \
         \"e14_forward_replay_at_1024_versions\": {{\"btree_us\": {btree:.1}, \
         \"sorted_us\": {sorted:.1}, \"speedup\": {:.2}}}\n}}\n",
        btree / sorted.max(1e-9)
    );
    std::fs::write("BENCH_4.json", &json).expect("write BENCH_4.json");
    println!("{json}");
}

// --------------------------------------------------------------------
// E15: incremental re-evaluation — view memo + delta propagation.
// --------------------------------------------------------------------

/// The repeated query of experiment E15: a three-leaf expression over
/// two 10k-tuple rollback relations that exercises the σ, − and ∪ delta
/// rules at once.
fn e15_query() -> Expr {
    Expr::current("r1")
        .select(Predicate::lt_const("grade", Value::Int(5000)))
        .union(Expr::current("r2").difference(Expr::current("r1")))
}

/// Two engines loaded with identical 10k-tuple relations r1/r2: the
/// engine under test (memo on, registering on first evaluation) and the
/// from-scratch oracle (memo disabled). Returns them with the current
/// r1 state so callers can mutate it further.
fn e15_setup() -> (Engine, Engine, SnapshotState) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let schema = bench_schema();
    let cfg = bench_gen_config(10_000);
    let r1 = random_state(&mut rng, &schema, &cfg);
    let r2 = random_state(&mut rng, &schema, &cfg);
    let cmds = vec![
        Command::define_relation("r1", RelationType::Rollback),
        Command::define_relation("r2", RelationType::Rollback),
        Command::modify_state("r1", Expr::snapshot_const(r1.clone())),
        Command::modify_state("r2", Expr::snapshot_const(r2)),
    ];
    let mut memo = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    memo.set_memo_register_after(1);
    let mut plain = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    plain.set_memo_capacity(0);
    for c in &cmds {
        memo.execute(c).expect("e15 setup");
        plain.execute(c).expect("e15 setup");
    }
    (memo, plain, r1)
}

/// The repeated-query headline: from-scratch evaluation vs a memo hit
/// on the three-operator query, plus the same warmed as-of ρ probe
/// answered both ways — by the memo (memo engine) and by the PR-2
/// materialization cache (memo-disabled engine) — as the
/// apples-to-apples latency comparison the memo must stay within 2× of.
/// Returns (cold µs, memo-hit µs, probe memo-hit µs, probe cache-hit µs).
fn measure_e15_repeated() -> (f64, f64, f64, f64) {
    // Both the PR-2 cache and the memo answer probes that would
    // otherwise replay a delta chain.
    let (memo, plain, r1) = e15_setup();
    let mut memo = memo;
    let mut plain = plain;
    // Grow a few more versions of r1 so the as-of probe below replays
    // when missed and the cache genuinely serves hits.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xE15);
    let cfg = bench_gen_config(10_000);
    let mut state = r1;
    for _ in 0..6 {
        state = mutate_state(&mut rng, &state, &cfg, 0.05);
        let cmd = Command::modify_state("r1", Expr::snapshot_const(state.clone()));
        memo.execute(&cmd).expect("e15 version");
        plain.execute(&cmd).expect("e15 version");
    }
    let q = e15_query();
    let cold = time_median(|| plain.eval(&q).expect("e15 query").len(), 9);
    memo.eval(&q).expect("e15 register");
    let hit = time_median(|| memo.eval(&q).expect("e15 query").len(), 9);
    assert!(
        memo.memo_stats().hits > 0,
        "E15 repeated query never hit the memo"
    );
    // The PR-2 baseline: the same warmed as-of probe, answered by the
    // materialization cache on the memo-disabled engine and by the view
    // memo on the memo engine.
    let probe = Expr::rollback("r1", TxSpec::At(TransactionNumber(5)));
    plain.eval(&probe).expect("warm the cache");
    let probe_cache = time_median(|| plain.eval(&probe).expect("e15 probe").len(), 9);
    memo.eval(&probe).expect("register the probe");
    let probe_memo = time_median(|| memo.eval(&probe).expect("e15 probe").len(), 9);
    (cold, hit, probe_memo, probe_cache)
}

/// One delta-sweep row: mutate `churn` of r1, then re-evaluate the
/// registered query on both engines. Returns (median changed tuples per
/// modification, scratch re-eval µs, memo re-eval µs, scratch modify µs,
/// memo modify µs) — the memo's modify time is the store's append plus
/// one log entry (a copy of the delta the store diffed for its chain);
/// its re-eval time is the repair of the one root that is read.
fn measure_e15_delta(churn: f64) -> (u64, f64, f64, f64, f64) {
    const REPS: usize = 9;
    // Current-state resolution is a handle clone on both engines (the
    // store holds the newest version whole), so the from-scratch side
    // pays only operator work — the conservative comparison for the
    // propagation speedup.
    let (mut memo, mut plain, mut r1) = e15_setup();
    let q = e15_query();
    memo.eval(&q).expect("e15 register");
    memo.eval(&q).expect("e15 warm");
    plain.eval(&q).expect("e15 scratch");
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xDE17A);
    let cfg = bench_gen_config(10_000);
    let mut changes = Vec::with_capacity(REPS);
    let (mut m_mod, mut m_eval, mut p_mod, mut p_eval) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let timed = |f: &mut dyn FnMut() -> usize, out: &mut Vec<f64>| {
        let t = Instant::now();
        let sink = f();
        out.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(sink);
    };
    for _ in 0..REPS {
        let next = mutate_state(&mut rng, &r1, &cfg, churn);
        let delta = StateDelta::between(
            &StateValue::Snapshot(r1.clone()),
            &StateValue::Snapshot(next.clone()),
        );
        changes.push(delta.change_count() as u64);
        let cmd = Command::modify_state("r1", Expr::snapshot_const(next.clone()));
        timed(
            &mut || memo.execute(&cmd).map(|_| 1usize).expect("e15 modify"),
            &mut m_mod,
        );
        timed(
            &mut || memo.eval(&q).expect("e15 re-eval").len(),
            &mut m_eval,
        );
        timed(
            &mut || plain.execute(&cmd).map(|_| 1usize).expect("e15 modify"),
            &mut p_mod,
        );
        timed(
            &mut || plain.eval(&q).expect("e15 re-eval").len(),
            &mut p_eval,
        );
        r1 = next;
    }
    assert!(
        memo.memo_stats().propagations > 0,
        "E15 delta sweep never propagated"
    );
    let med = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    changes.sort_unstable();
    (
        changes[REPS / 2],
        med(p_eval),
        med(m_eval),
        med(p_mod),
        med(m_mod),
    )
}

/// The delta-size sweep as (label, churn) pairs over 10k-tuple inputs.
const E15_SWEEP: [(&str, f64); 3] = [("~1", 0.0001), ("~16", 0.0016), ("~256", 0.0256)];

fn e15_incremental() {
    println!("E15. Incremental re-evaluation: hash-consed view memo + delta propagation");
    println!("\nE15a. Repeated query σ(ρ(r1,∞)) ∪ (ρ(r2,∞) − ρ(r1,∞)), |r1|=|r2|=10k,");
    println!("      checkpoint every 16 (µs/eval)");
    let (cold, hit, probe_memo, probe_cache) = measure_e15_repeated();
    println!("{:<28} {:>12.1}", "cold (memo off)", cold);
    println!(
        "{:<28} {:>12.1} {:>8.1}x vs cold",
        "memo hit",
        hit,
        cold / hit.max(1e-9)
    );
    println!(
        "{:<28} {:>12.1} vs {:.1} from the PR-2 cache ({:.2}x)",
        "warmed ρ probe via memo",
        probe_memo,
        probe_cache,
        probe_memo / probe_cache.max(1e-9)
    );
    println!("\nE15b. Re-evaluation after modify_state(r1), checkpoint every 16 (µs);");
    println!("      memo modify logs the store's delta; memo eval repairs the root read");
    println!(
        "{:<8} {:>9} {:>13} {:>11} {:>9} {:>13} {:>11}",
        "delta", "changes", "scratch-eval", "memo-eval", "speedup", "scratch-mod", "memo-mod"
    );
    for (label, churn) in E15_SWEEP {
        let (changes, p_eval, m_eval, p_mod, m_mod) = measure_e15_delta(churn);
        println!(
            "{:<8} {:>9} {:>13.1} {:>11.1} {:>8.1}x {:>13.1} {:>11.1}",
            label,
            changes,
            p_eval,
            m_eval,
            p_eval / m_eval.max(1e-9),
            p_mod,
            m_mod
        );
    }
    println!("=> a registered view is brought forward on demand by per-operator delta\n   rules (σ̂/π̂/∪̂/−̂ merge kernels over the sorted runs), so re-reading it\n   after a small change costs the change through its own operators, not an\n   operator tree, and views nobody reads cost nothing; × and δ fall back\n   to targeted recomputation past the cost threshold.\n");
}

// --------------------------------------------------------------------
// bench5: BENCH_5.json with the view-memo headline numbers.
// --------------------------------------------------------------------
fn bench5() {
    println!("bench5. Writing BENCH_5.json (view memo: cold vs hit vs delta-propagated)");
    let (cold, hit, probe_memo, probe_cache) = measure_e15_repeated();
    let mut sweep = String::new();
    let mut small_delta_speedup = 0.0f64;
    for (i, (label, churn)) in E15_SWEEP.iter().enumerate() {
        let (changes, p_eval, m_eval, p_mod, m_mod) = measure_e15_delta(*churn);
        let speedup = p_eval / m_eval.max(1e-9);
        if *label == "~16" {
            small_delta_speedup = speedup;
        }
        // Write amplification guard: logging the commit is the only
        // contact between modify_state and the memo. Both sides pay the
        // store's diff of a whole-state right-hand side for its chain;
        // the memo side then logs a copy of that delta (`last_delta`),
        // the cost of the changes, never of the relation. So a write
        // with registered readers must stay within an order of
        // magnitude of the memo-disabled write. (Before the lazy queue,
        // propagation ran inline and this ratio was ~2000x.)
        assert!(
            m_mod <= 10.0 * p_mod.max(1.0),
            "view-memo write amplification regressed at delta {label}: \
             memo_modify_us {m_mod:.1} > 10x scratch_modify_us {p_mod:.1}"
        );
        if i > 0 {
            sweep.push_str(", ");
        }
        let key = label.trim_start_matches('~');
        sweep.push_str(&format!(
            "\"delta_{key}\": {{\"changes\": {changes}, \"scratch_reeval_us\": {p_eval:.1}, \
             \"memo_reeval_us\": {m_eval:.1}, \"speedup\": {speedup:.1}, \
             \"scratch_modify_us\": {p_mod:.1}, \"memo_modify_us\": {m_mod:.1}}}"
        ));
    }
    let json = format!(
        "{{\n  \"seed\": \"{SEED:#x}\",\n  \
         \"e15_repeated_query\": {{\"cold_us\": {cold:.1}, \"memo_hit_us\": {hit:.1}, \
         \"probe_memo_hit_us\": {probe_memo:.1}, \"probe_cache_hit_us\": {probe_cache:.1}, \
         \"memo_hit_vs_cold\": {:.1}}},\n  \
         \"e15_delta_propagation\": {{{sweep}}},\n  \
         \"headline\": {{\"small_delta_speedup\": {small_delta_speedup:.1}, \
         \"memo_hit_vs_cache_hit\": {:.2}}}\n}}\n",
        cold / hit.max(1e-9),
        probe_memo / probe_cache.max(1e-9)
    );
    std::fs::write("BENCH_5.json", &json).expect("write BENCH_5.json");
    println!("{json}");
}

// --------------------------------------------------------------------
// E16: LSM-style compaction of a forward-delta chain.
// --------------------------------------------------------------------

/// The delta chain's worst case at 1024 versions with no checkpoints —
/// the version just below the newest, 1022 links above the pinned first
/// version — before compaction, after `Engine::compact` with a
/// checkpoint at every slot, and on the depth-insensitive floor: a store
/// that checkpoints every version (`every_k(1)`, what a full-copy store
/// holds). Returns (links the uncompacted probe composes, uncompacted
/// µs, compacted µs, floor µs, compact-pass µs, deltas folded by the
/// pass).
fn measure_compaction() -> (u64, f64, f64, f64, f64, u64) {
    let versions = 1024usize;
    let chain = version_chain(versions, 200, 0.1);
    // Define at tx 1, version i at tx i + 2: the next-to-newest is at
    // tx `versions`.
    let worst_tx = TransactionNumber(versions as u64);

    let mut engine = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
    engine.set_auto_compact(None); // keep the full replay chain as the baseline
    engine
        .execute(&Command::define_relation("r", RelationType::Rollback))
        .expect("fresh engine");
    for s in &chain {
        engine
            .execute(&Command::modify_state("r", Expr::snapshot_const(s.clone())))
            .expect("valid modify");
    }
    engine.set_cache_capacity(0); // raw reconstruction cost, as in E2
    let probe = |e: &Engine| {
        time_median(
            || {
                touch(
                    &e.resolve_rollback("r", TxSpec::At(worst_tx), false)
                        .expect("probe answers"),
                )
            },
            9,
        )
    };
    engine.reset_cache_stats();
    engine
        .resolve_rollback("r", TxSpec::At(worst_tx), false)
        .expect("probe answers");
    let links = engine.cache_stats().replayed_deltas;
    assert!(
        links >= 1000,
        "the uncompacted probe must walk the whole chain, composed {links} links"
    );
    let uncompacted = probe(&engine);

    let t = Instant::now();
    let stats = engine.compact(NonZeroUsize::new(1));
    let compact_us = t.elapsed().as_secs_f64() * 1e6;
    let compacted = probe(&engine);

    let whole = engine_with_chain(CheckpointPolicy::every_k(1).unwrap(), &chain);
    whole.set_cache_capacity(0);
    let floor = probe(&whole);
    (
        links,
        uncompacted,
        compacted,
        floor,
        compact_us,
        stats.deltas_folded,
    )
}

fn e16_compaction() {
    println!("E16. LSM-style compaction");
    println!(
        "\nE16b. Forward-delta next-to-newest probe, 1024 versions, no checkpoints (µs/query)"
    );
    let (links, uncompacted, compacted, floor, compact_us, folded) = measure_compaction();
    println!(
        "{:<28} {:>12.1}",
        format!("uncompacted ({links} links)"),
        uncompacted
    );
    println!(
        "{:<28} {:>12.1} {:>8.1}x vs uncompacted, {:.2}x every-1 floor",
        "after compact(every=1)",
        compacted,
        uncompacted / compacted.max(1e-9),
        compacted / floor.max(1e-9)
    );
    println!("{:<28} {:>12.1}", "checkpoint every 1", floor);
    println!(
        "{:<28} {:>12.1} ({folded} deltas folded)",
        "compaction pass", compact_us
    );
    println!("=> compaction replays each chain once, pinning checkpoints so later probes\n   seed from a nearby clone instead of replaying the whole history.\n");
}

// --------------------------------------------------------------------
// bench7: BENCH_7.json with the compaction headline numbers.
// --------------------------------------------------------------------
fn bench7() {
    println!("bench7. Writing BENCH_7.json (forward-delta compaction)");
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (links, uncompacted, compacted, floor, compact_us, folded) = measure_compaction();
    // The key keeps its historical name: the floor is now a store that
    // checkpoints every version, which holds what full-copy held.
    let compacted_vs_floor = compacted / floor.max(1e-9);
    assert!(
        compacted_vs_floor <= 10.0,
        "compacted worst probe must land within 10x of the every-1 floor, got \
         {compacted_vs_floor:.2}x ({compacted:.1}us vs {floor:.1}us)"
    );

    let json = format!(
        "{{\n  \"e16_compaction_fwd_delta_1024_versions\": {{\"uncompacted_links\": {links}, \
         \"uncompacted_worst_us\": {uncompacted:.1}, \
         \"compacted_worst_us\": {compacted:.1}, \"full_copy_worst_us\": {floor:.1}, \
         \"compacted_vs_full_copy\": {compacted_vs_floor:.2}, \
         \"compact_pass_us\": {compact_us:.1}, \"deltas_folded\": {folded}, \
         \"host_cores\": {avail}}},\n  \
         \"headline\": {{\"compacted_vs_full_copy\": {compacted_vs_floor:.2}}}\n}}\n"
    );
    std::fs::write("BENCH_7.json", &json).expect("write BENCH_7.json");
    println!("{json}");
}

// --------------------------------------------------------------------
// E17: cost-based plan search over product-heavy temporal queries.
// --------------------------------------------------------------------

/// One benchmark relation: its name, scheme and cardinality.
type RelationSpec = (&'static str, &'static [(&'static str, DomainType)], usize);

/// Builds the E17 database: three disjoint-scheme rollback relations
/// whose cross product is large (emp × dept × loc = 400·40·25 = 400k
/// rows) while the selective conjunction on top keeps only a handful.
fn e17_engine(level: u8) -> Engine {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x17);
    let mut engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    engine.set_optimize(level);
    // The memo would answer repeats from cached views; disable it so
    // every evaluation measures the plan, not the cache.
    engine.set_memo_capacity(0);
    let specs: [RelationSpec; 3] = [
        (
            "emp",
            &[("eno", DomainType::Int), ("esal", DomainType::Int)],
            400,
        ),
        (
            "dept",
            &[("dno", DomainType::Int), ("dsize", DomainType::Int)],
            40,
        ),
        (
            "loc",
            &[("lno", DomainType::Int), ("lcap", DomainType::Int)],
            25,
        ),
    ];
    for (name, attrs, card) in specs {
        let schema = Schema::new(attrs.to_vec()).expect("e17 schema");
        let tuples = (0..card).map(|i| {
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..100)),
            ])
        });
        let state = SnapshotState::new(schema, tuples).expect("e17 state");
        engine
            .execute(&Command::define_relation(name, RelationType::Rollback))
            .expect("define");
        engine
            .execute(&Command::modify_state(name, Expr::snapshot_const(state)))
            .expect("modify");
    }
    engine
}

/// The product-heavy query: one conjunction over a 3-way cross product,
/// every conjunct pinned to a different operand so the searcher can
/// push each one to its leaf.
fn e17_query() -> Expr {
    let p = Predicate::gt_const("esal", Value::Int(90))
        .and(Predicate::lt_const("dno", Value::Int(4)))
        .and(Predicate::lt_const("lno", Value::Int(3)));
    Expr::rollback("emp", TxSpec::Current)
        .product(Expr::rollback("dept", TxSpec::Current))
        .product(Expr::rollback("loc", TxSpec::Current))
        .select(p)
}

/// (µs/query at level 1, µs/query at level 2, result rows).
fn measure_plan_search() -> (f64, f64, usize) {
    let pushdown = e17_engine(1);
    let searched = e17_engine(2);
    let q = e17_query();
    let a = pushdown.eval(&q).expect("level 1 evaluates");
    let b = searched.eval(&q).expect("level 2 evaluates");
    assert_eq!(a, b, "plan search changed the answer");
    let rows = match &a {
        StateValue::Snapshot(s) => s.tuples().len(),
        _ => 0,
    };
    let us_l1 = time_median(|| touch(&pushdown.eval(&q).expect("level 1")), 9);
    let us_l2 = time_median(|| touch(&searched.eval(&q).expect("level 2")), 9);
    (us_l1, us_l2, rows)
}

fn e17_plan_search() {
    println!("E17. Cost-based plan search: products become filtered joins");
    let (us_l1, us_l2, rows) = measure_plan_search();
    let speedup = us_l1 / us_l2.max(1e-9);
    println!(
        "\nE17a. σ over emp×dept×loc (400·40·25 = 400k product rows, {rows} survive; µs/query)"
    );
    println!("{:<40} {:>12}", "plan", "µs/query");
    println!(
        "{:<40} {:>12.1}",
        "level 1: pushdown only (σ stays on ×)", us_l1
    );
    println!(
        "{:<40} {:>12.1} {:>8.2}x",
        "level 2: cost-based search", us_l2, speedup
    );
    let searched = e17_engine(2);
    println!("\nE17b. the chosen plan (txtime explain):");
    println!("{}", searched.explain(&e17_query()));
    println!(
        "=> the searcher splits the conjunction across the product's operands, so each\n   \
         relation is filtered before the product multiplies cardinalities: the joins\n   \
         see hundreds of rows where the as-written plan materializes 400k.\n"
    );
}

// --------------------------------------------------------------------
// bench8: BENCH_8.json with the plan-search headline numbers.
// --------------------------------------------------------------------
fn bench8() {
    println!("bench8. Writing BENCH_8.json (cost-based plan search headline)");
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (us_l1, us_l2, rows) = measure_plan_search();
    let product_join_speedup = us_l1 / us_l2.max(1e-9);
    // The win is algorithmic (row counts, not cores), so it must hold
    // on any host: the acceptance bar is a 5x cut in query time.
    assert!(
        product_join_speedup >= 5.0,
        "plan search must beat pushdown by 5x on the product workload, got \
         {product_join_speedup:.2}x ({us_l1:.1}us vs {us_l2:.1}us)"
    );
    let searched = e17_engine(2);
    searched.eval(&e17_query()).expect("warm the planner");
    let stats = searched.optimizer_stats();
    let json = format!(
        "{{\n  \"seed\": \"{SEED:#x}\",\n  \
         \"host_cores\": {avail},\n  \
         \"e17_product_join\": {{\"pushdown_us\": {us_l1:.1}, \"searched_us\": {us_l2:.1}, \
         \"result_rows\": {rows}, \"product_rows\": 400000, \
         \"plans_enumerated\": {}, \"groups_memoized\": {}, \"rewrites_fired\": {}, \
         \"host_cores\": {avail}}},\n  \
         \"headline\": {{\"product_join_speedup\": {product_join_speedup:.2}}}\n}}\n",
        stats.totals.plans_enumerated, stats.totals.groups_memoized, stats.totals.rewrites_fired,
    );
    std::fs::write("BENCH_8.json", &json).expect("write BENCH_8.json");
    println!("{json}");
}

// --------------------------------------------------------------------
// E18: physical equi-joins vs product-then-select at 10⁶ product rows.
// --------------------------------------------------------------------

const E18_EMP: usize = 2000;
const E18_DEPT: usize = 500;

/// Builds the E18 database: two disjoint-scheme rollback relations whose
/// cross product is 2000·500 = 10⁶ rows, sharing an integer key (eno and
/// dno are the first attribute of each scheme, so the merge kernel can
/// ride the canonical runs).
fn e18_engine(level: u8) -> Engine {
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x18);
    let mut engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    engine.set_optimize(level);
    engine.set_memo_capacity(0);
    for (name, attrs, card) in e18_specs() {
        let schema = Schema::new(attrs.to_vec()).expect("e18 schema");
        let tuples = (0..card).map(|i| {
            Tuple::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..100)),
            ])
        });
        let state = SnapshotState::new(schema, tuples).expect("e18 state");
        engine
            .execute(&Command::define_relation(name, RelationType::Rollback))
            .expect("define");
        engine
            .execute(&Command::modify_state(name, Expr::snapshot_const(state)))
            .expect("modify");
    }
    engine
}

fn e18_specs() -> [RelationSpec; 2] {
    [
        (
            "emp",
            &[("eno", DomainType::Int), ("esal", DomainType::Int)],
            E18_EMP,
        ),
        (
            "dept",
            &[("dno", DomainType::Int), ("dsize", DomainType::Int)],
            E18_DEPT,
        ),
    ]
}

/// The equi-join query: an `eno = dno` key conjunct (which no pushdown
/// rule can move — it straddles both operands) plus a side conjunct the
/// join lowering pushes below the build side.
fn e18_query() -> Expr {
    let p = Predicate::eq_attrs("eno", "dno").and(Predicate::gt_const("esal", Value::Int(50)));
    Expr::rollback("emp", TxSpec::Current)
        .product(Expr::rollback("dept", TxSpec::Current))
        .select(p)
}

/// (µs as written, µs at level 1, µs at level 2, result rows).
fn measure_equi_join() -> (f64, f64, f64, usize) {
    let written = e18_engine(0);
    let lowered = e18_engine(1);
    let searched = e18_engine(2);
    let q = e18_query();
    let a = written.eval(&q).expect("level 0 evaluates");
    let b = lowered.eval(&q).expect("level 1 evaluates");
    let c = searched.eval(&q).expect("level 2 evaluates");
    assert_eq!(a, b, "level-1 lowering changed the answer");
    assert_eq!(a, c, "plan search changed the answer");
    let rows = match &a {
        StateValue::Snapshot(s) => s.tuples().len(),
        _ => 0,
    };
    // The product legs materialize 10⁶ concatenated tuples per query:
    // fewer reps keep the harness's wall time civil.
    let us_l0 = time_median(|| touch(&written.eval(&q).expect("level 0")), 5);
    let us_l1 = time_median(|| touch(&lowered.eval(&q).expect("level 1")), 9);
    let us_l2 = time_median(|| touch(&searched.eval(&q).expect("level 2")), 9);
    (us_l0, us_l1, us_l2, rows)
}

/// (hash µs, merge µs) for the bare kernels on the E18 states — the
/// plan-independent crossover: merge skips the build phase when the key
/// is the run-order prefix on both sides.
fn measure_join_kernels() -> (f64, f64) {
    use txtime_core::{JoinPhysical, JoinSpec};
    let engine = e18_engine(0);
    let get = |name: &str| match engine.eval(&Expr::current(name)) {
        Ok(StateValue::Snapshot(s)) => s,
        other => panic!("e18 relation {name}: {other:?}"),
    };
    let (emp, dept) = (get("emp"), get("dept"));
    let spec = |physical| JoinSpec {
        keys: vec![("eno".into(), "dno".into())],
        residual: Predicate::gt_const("esal", Value::Int(50)),
        physical,
    };
    let hash = spec(JoinPhysical::Hash);
    let merge = spec(JoinPhysical::Merge);
    assert_eq!(
        emp.equi_join(&dept, &hash).expect("hash join"),
        emp.equi_join(&dept, &merge).expect("merge join"),
        "kernels disagree"
    );
    let hash_us = time_median(|| emp.equi_join(&dept, &hash).expect("hash").len(), 15);
    let merge_us = time_median(|| emp.equi_join(&dept, &merge).expect("merge").len(), 15);
    (hash_us, merge_us)
}

fn e18_physical_joins() {
    println!("E18. Physical equi-joins: hash/merge kernels vs the σ(×) plan");
    let (us_l0, us_l1, us_l2, rows) = measure_equi_join();
    let speedup = |us: f64| us_l0 / us.max(1e-9);
    println!(
        "\nE18a. σ_eno=dno over emp×dept ({E18_EMP}·{E18_DEPT} = 10⁶ product rows, {rows} survive; µs/query)"
    );
    println!("{:<44} {:>12}", "plan", "µs/query");
    println!("{:<44} {:>12.1}", "level 0: as written (σ over ×)", us_l0);
    println!(
        "{:<44} {:>12.1} {:>8.2}x",
        "level 1: lowered to a join, no search",
        us_l1,
        speedup(us_l1)
    );
    println!(
        "{:<44} {:>12.1} {:>8.2}x",
        "level 2: search emits a physical join",
        us_l2,
        speedup(us_l2)
    );
    let (hash_us, merge_us) = measure_join_kernels();
    println!("\nE18b. bare kernels on the same states (prefix key, µs/join)");
    println!("{:<44} {:>12.1}", "hash (build dept, probe emp)", hash_us);
    println!(
        "{:<44} {:>12.1}",
        "merge (two-pointer over the runs)", merge_us
    );
    let searched = e18_engine(2);
    println!("\nE18c. the chosen plan (txtime explain):");
    println!("{}", searched.explain(&e18_query()));
    println!(
        "=> the key conjunct straddles both operands, so no selection pushdown can\n   \
         shrink the product; only the join lowering replaces the 10⁶-pair scan with\n   \
         a {E18_DEPT}-row build and a {E18_EMP}-row probe.\n"
    );
}

// --------------------------------------------------------------------
// bench9: BENCH_9.json with the physical-join headline numbers.
// --------------------------------------------------------------------
fn bench9() {
    println!("bench9. Writing BENCH_9.json (physical equi-join headline)");
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let (us_l0, us_l1, us_l2, rows) = measure_equi_join();
    let join_speedup = us_l0 / us_l2.max(1e-9);
    // The win is algorithmic — build + probe row counts against the
    // product's |A|·|B| — so it must hold on any host, single-core
    // included: the acceptance bar is a 10x cut in query time. (Level 1
    // lowers the same shape, so the product plan is level 0's.)
    assert!(
        join_speedup >= 10.0,
        "the searched join must beat σ over × as written by 10x at 10^6 product rows, \
         got {join_speedup:.2}x ({us_l0:.1}us vs {us_l2:.1}us)"
    );
    let (hash_us, merge_us) = measure_join_kernels();
    let json = format!(
        "{{\n  \"seed\": \"{SEED:#x}\",\n  \
         \"host_cores\": {avail},\n  \
         \"e18_equi_join\": {{\"as_written_us\": {us_l0:.1}, \"pushdown_us\": {us_l1:.1}, \
         \"searched_us\": {us_l2:.1}, \"result_rows\": {rows}, \"product_rows\": 1000000, \
         \"host_cores\": {avail}}},\n  \
         \"e18_kernels\": {{\"hash_us\": {hash_us:.1}, \"merge_us\": {merge_us:.1}, \
         \"host_cores\": {avail}}},\n  \
         \"headline\": {{\"join_speedup\": {join_speedup:.2}}}\n}}\n"
    );
    std::fs::write("BENCH_9.json", &json).expect("write BENCH_9.json");
    println!("{json}");
}

// ---------------------------------------------------------------------------
// e19: the multi-session server — group-commit scaling and MVCC read
// latency under write-heavy load (see crates/server and DESIGN.md §14).

/// Where the server benchmarks journal: under `target/` so the fsyncs
/// hit the real disk the build uses, not a tmpfs.
fn e19_wal(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new("target").join("bench10");
    std::fs::create_dir_all(&dir).expect("bench10 dir");
    let path = dir.join(format!("{tag}.wal"));
    let _ = std::fs::remove_file(&path);
    path
}

fn pctl(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() as f64 - 1.0) * q).round() as usize;
    sorted_us[idx.min(sorted_us.len() - 1)]
}

struct CommitRun {
    throughput: f64,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
    commits_per_fsync: f64,
}

/// Closed-loop commit workload: `clients` sessions each issue
/// `commits_per_client` small writes to their own relation, one
/// outstanding request per session. Group commit on batches concurrent
/// arrivals into one fsync; off is the per-commit-fsync baseline.
fn e19_commit_run(clients: usize, commits_per_client: usize, group: bool) -> CommitRun {
    use std::sync::{Barrier, Mutex};
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = txtime_server::ServerConfig {
        wal_path: Some(e19_wal(&format!(
            "commit-{clients}c-{}",
            if group { "group" } else { "single" }
        ))),
        group_commit: group,
        ..txtime_server::ServerConfig::default()
    };
    let handle = txtime_server::serve(engine, listener, cfg).expect("server starts");
    let addr = handle.addr();

    let start = std::sync::Arc::new(Barrier::new(clients + 1));
    let done = std::sync::Arc::new(Barrier::new(clients + 1));
    let latencies = std::sync::Arc::new(Mutex::new(Vec::<f64>::new()));
    let workers: Vec<_> = (0..clients)
        .map(|i| {
            let start = start.clone();
            let done = done.clone();
            let latencies = latencies.clone();
            std::thread::spawn(move || {
                let mut c = txtime_server::Client::connect(addr).expect("connect");
                let r = c
                    .exec(&format!("define_relation(r{i}, rollback);"))
                    .expect("define");
                assert!(r.is_ok(), "{r:?}");
                let mut local = Vec::with_capacity(commits_per_client);
                start.wait();
                for v in 0..commits_per_client {
                    let cmd = format!("modify_state(r{i}, {{(x: int, v: int): ({i}, {v})}});");
                    let t = Instant::now();
                    let r = c.exec(&cmd).expect("commit");
                    local.push(t.elapsed().as_secs_f64() * 1e6);
                    assert!(r.is_ok(), "{r:?}");
                }
                done.wait();
                latencies.lock().unwrap().extend(local);
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    done.wait();
    let wall = t0.elapsed().as_secs_f64();
    for w in workers {
        w.join().expect("client panicked");
    }
    handle.shutdown();
    let report = handle.wait();
    let mut lat = latencies.lock().unwrap().clone();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total = (clients * commits_per_client) as f64;
    assert_eq!(report.group_commit.commits, total as u64 + clients as u64);
    CommitRun {
        throughput: total / wall,
        p50_us: pctl(&lat, 0.50),
        p95_us: pctl(&lat, 0.95),
        p99_us: pctl(&lat, 0.99),
        commits_per_fsync: report.group_commit.commits_per_fsync(),
    }
}

/// Read-latency workload: one reader evaluates a selective query over a
/// 2048-tuple relation `reads` times while `writers` sessions hammer
/// commits. Returns the reader's sorted latencies (µs). The fsync
/// happens outside the engine lock, so write-heavy load should leave
/// read tails nearly untouched — the MVCC claim BENCH_10 gates.
fn e19_read_run(writers: usize, reads: usize) -> Vec<f64> {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    );
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let cfg = txtime_server::ServerConfig {
        wal_path: Some(e19_wal(&format!("read-{writers}w"))),
        group_commit: true,
        ..txtime_server::ServerConfig::default()
    };
    let handle = txtime_server::serve(engine, listener, cfg).expect("server starts");
    let addr = handle.addr();

    let mut setup = txtime_server::Client::connect(addr).expect("connect");
    assert!(setup
        .exec("define_relation(hot, rollback);")
        .unwrap()
        .is_ok());
    let mut literal = String::from("{(a: int, b: int): ");
    for i in 0..2048 {
        if i > 0 {
            literal.push_str(", ");
        }
        literal.push_str(&format!("({i}, {})", (i * 7) % 1000));
    }
    literal.push('}');
    assert!(setup
        .exec(&format!("modify_state(hot, {literal});"))
        .unwrap()
        .is_ok());

    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer_threads: Vec<_> = (0..writers)
        .map(|i| {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut c = txtime_server::Client::connect(addr).expect("connect");
                let r = c
                    .exec(&format!("define_relation(w{i}, rollback);"))
                    .expect("define");
                assert!(r.is_ok(), "{r:?}");
                let mut v = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let r = c
                        .exec(&format!("modify_state(w{i}, {{(x: int): ({v})}});"))
                        .expect("commit");
                    assert!(r.is_ok(), "{r:?}");
                    v += 1;
                }
            })
        })
        .collect();
    // Let the writers reach steady state before sampling reads.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let mut reader = txtime_server::Client::connect(addr).expect("connect");
    let mut lat = Vec::with_capacity(reads);
    for _ in 0..reads {
        let t = Instant::now();
        let r = reader
            .exec("display(select[b > 500](rho(hot, inf)));")
            .expect("read");
        lat.push(t.elapsed().as_secs_f64() * 1e6);
        assert!(r.is_ok(), "{r:?}");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for w in writer_threads {
        w.join().expect("writer panicked");
    }
    handle.shutdown();
    handle.wait();
    lat.sort_by(|a, b| a.partial_cmp(b).unwrap());
    lat
}

fn e19_server() {
    println!("e19. txtime serve: group-commit scaling (closed-loop clients, fsync per group vs per commit)");
    println!("    clients  mode    commits/s  p50 us  p95 us  p99 us  commits/fsync");
    for clients in [1, 2, 4, 8] {
        for group in [false, true] {
            let run = e19_commit_run(clients, 150, group);
            println!(
                "    {clients:>7}  {:<6}  {:>9.0}  {:>6.0}  {:>6.0}  {:>6.0}  {:>13.2}",
                if group { "group" } else { "single" },
                run.throughput,
                run.p50_us,
                run.p95_us,
                run.p99_us,
                run.commits_per_fsync
            );
        }
    }
    println!("\n    snapshot read latency over 2048 tuples (1 reader, group commit on)");
    println!("    writers  p50 us  p95 us  p99 us");
    for writers in [0, 7] {
        let lat = e19_read_run(writers, 300);
        println!(
            "    {writers:>7}  {:>6.0}  {:>6.0}  {:>6.0}",
            pctl(&lat, 0.50),
            pctl(&lat, 0.95),
            pctl(&lat, 0.99)
        );
    }
    println!();
}

// bench10: BENCH_10.json with the server headline numbers
// (explicit-only arm).
fn bench10() {
    println!("bench10. Writing BENCH_10.json (e19 server group-commit headline)");
    let avail = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let mut scaling = String::new();
    let mut tput_8_group = 0.0;
    let mut tput_8_single = 0.0;
    let mut cpf_8_group = 0.0;
    for clients in [1, 2, 4, 8] {
        for group in [false, true] {
            let run = e19_commit_run(clients, 150, group);
            if clients == 8 {
                if group {
                    tput_8_group = run.throughput;
                    cpf_8_group = run.commits_per_fsync;
                } else {
                    tput_8_single = run.throughput;
                }
            }
            if !scaling.is_empty() {
                scaling.push_str(", ");
            }
            scaling.push_str(&format!(
                "{{\"clients\": {clients}, \"group_commit\": {group}, \
                 \"commits_per_sec\": {:.0}, \"p50_us\": {:.0}, \"p95_us\": {:.0}, \
                 \"p99_us\": {:.0}, \"commits_per_fsync\": {:.2}, \"host_cores\": {avail}}}",
                run.throughput, run.p50_us, run.p95_us, run.p99_us, run.commits_per_fsync
            ));
        }
    }
    let speedup = tput_8_group / tput_8_single.max(1e-9);
    // Unconditional witnesses — true on any host, any core count:
    // batches actually form (the fsync count drops below the commit
    // count), and amortizing the fsync beats paying it per commit.
    assert!(
        cpf_8_group >= 2.0,
        "group commit never batched at 8 clients: {cpf_8_group:.2} commits/fsync"
    );
    assert!(
        speedup >= 1.25,
        "group commit must beat per-commit fsync at 8 clients, \
         got {speedup:.2}x ({tput_8_group:.0}/s vs {tput_8_single:.0}/s)"
    );
    // The 3x scaling claim needs enough cores that group mode is
    // fsync-bound rather than CPU-bound; on a 1-core host every mode
    // converges on the same CPU ceiling. Gate it on host_cores, and
    // record host_cores in every BENCH_10 entry so downstream checks
    // (CI's bench-assert step) can apply the same gate.
    if avail >= 4 {
        assert!(
            speedup >= 3.0,
            "group commit must beat per-commit fsync by 3x at 8 clients \
             on a {avail}-core host, got {speedup:.2}x \
             ({tput_8_group:.0}/s vs {tput_8_single:.0}/s)"
        );
    } else {
        println!(
            "    SKIP strict 3x gate: host has {avail} core(s); \
             measured {speedup:.2}x ({cpf_8_group:.2} commits/fsync)"
        );
    }

    let idle = e19_read_run(0, 300);
    let heavy = e19_read_run(7, 300);
    let (idle_p95, heavy_p95) = (pctl(&idle, 0.95), pctl(&heavy, 0.95));
    // Snapshot reads never wait on a group fsync (it happens outside the
    // engine lock). Unconditional witness: if readers were blocked
    // behind fsyncs the heavy tail would sit at multiple group-flush
    // periods (several ms); 8x idle with a 2ms floor catches that
    // regression while tolerating pure CPU timesharing.
    assert!(
        heavy_p95 <= (8.0 * idle_p95).max(2000.0),
        "read p95 under 7 writers suggests reads block on the commit \
         path: {heavy_p95:.0}us vs idle {idle_p95:.0}us"
    );
    // The tight ratio is a parallelism claim: it holds when the reader
    // does not timeshare one core with 7 writers. The 300us floor
    // absorbs scheduler jitter on sub-100us baselines.
    let read_bound = (1.5 * idle_p95).max(300.0);
    if avail >= 4 {
        assert!(
            heavy_p95 <= read_bound,
            "read p95 under 7 writers must stay within 1.5x of idle \
             (floor 300us) on a {avail}-core host, \
             got {heavy_p95:.0}us vs idle {idle_p95:.0}us"
        );
    } else {
        println!(
            "    SKIP strict read-tail gate: host has {avail} core(s); \
             measured {heavy_p95:.0}us vs idle {idle_p95:.0}us"
        );
    }

    let json = format!(
        "{{\n  \"seed\": \"{SEED:#x}\",\n  \
         \"host_cores\": {avail},\n  \
         \"e19_commit_scaling\": [{scaling}],\n  \
         \"e19_read_latency\": {{\"idle_p50_us\": {:.0}, \"idle_p95_us\": {idle_p95:.0}, \
         \"heavy_p50_us\": {:.0}, \"heavy_p95_us\": {heavy_p95:.0}, \"writers\": 7, \
         \"host_cores\": {avail}}},\n  \
         \"headline\": {{\"group_commit_speedup_8c\": {speedup:.2}, \
         \"read_p95_ratio\": {:.2}}}\n}}\n",
        pctl(&idle, 0.50),
        pctl(&heavy, 0.50),
        heavy_p95 / idle_p95.max(1e-9),
    );
    std::fs::write("BENCH_10.json", &json).expect("write BENCH_10.json");
    println!("{json}");
}
