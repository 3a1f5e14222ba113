//! E10: the materialization cache under repeated rollback probes, and
//! operator pushdown (σ over ρ) vs materialize-then-filter.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_bench::{engine_with_chain, version_chain, SEED};
use txtime_core::{Expr, StateSource, TransactionNumber, TxSpec};
use txtime_snapshot::{Predicate, Value};
use txtime_storage::{BackendKind, CheckpointPolicy};

/// The audit shape: a small working set of as-of points revisited over
/// and over. With the cache on, only the first visit replays deltas.
fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_cache");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let versions = 256usize;
    let chain = version_chain(versions, 200, 0.1);
    let mut rng = StdRng::seed_from_u64(SEED);
    let probes: Vec<TransactionNumber> = (0..16)
        .map(|_| TransactionNumber(rng.gen_range(2..versions as u64 + 2)))
        .collect();
    let backend = BackendKind::ForwardDelta;
    let engine = engine_with_chain(backend, CheckpointPolicy::every_k(64).unwrap(), &chain);
    for (label, capacity) in [("uncached", 0usize), ("cached", 128)] {
        engine.set_cache_capacity(capacity);
        group.bench_with_input(
            BenchmarkId::new(format!("{backend}/{label}"), versions),
            &probes,
            |b, probes| {
                b.iter(|| {
                    probes
                        .iter()
                        .map(|&t| {
                            engine
                                .eval(&Expr::rollback("r", TxSpec::At(t)))
                                .expect("probe answers")
                                .len()
                        })
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

/// σ_F(ρ(r, t)) evaluated through the engine (pushdown: the store filters
/// while reconstructing) vs resolving the full version and filtering it
/// afterwards — the un-pushed plan.
fn bench_pushdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_pushdown");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let versions = 128usize;
    let chain = version_chain(versions, 400, 0.1);
    let mid = TransactionNumber(versions as u64 / 2 + 1);
    // int_range is 10_000, so this keeps ~5% of tuples.
    let pred = Predicate::lt_const("id", Value::Int(500));
    let backend = BackendKind::ForwardDelta;
    let engine = engine_with_chain(backend, CheckpointPolicy::every_k(32).unwrap(), &chain);
    engine.set_cache_capacity(0); // isolate pushdown from caching
    let pushed = Expr::rollback("r", TxSpec::At(mid)).select(pred.clone());
    group.bench_with_input(
        BenchmarkId::new(format!("{backend}/pushed"), versions),
        &pushed,
        |b, pushed| b.iter(|| engine.eval(pushed).expect("probe answers").len()),
    );
    group.bench_with_input(
        BenchmarkId::new(format!("{backend}/materialized"), versions),
        &pred,
        |b, pred| {
            b.iter(|| {
                engine
                    .resolve_rollback("r", TxSpec::At(mid), false)
                    .expect("probe answers")
                    .into_snapshot()
                    .expect("snapshot relation")
                    .select(pred)
                    .expect("predicate compiles")
                    .len()
            })
        },
    );
    group.finish();
}

criterion_group!(benches, bench_cache, bench_pushdown);
criterion_main!(benches);
