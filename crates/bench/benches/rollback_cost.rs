//! E2: rollback cost vs history depth, per checkpoint interval.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use txtime_bench::{engine_with_chain, probe_txs, version_chain};
use txtime_core::{StateSource, TxSpec};
use txtime_storage::CheckpointPolicy;

fn bench_rollback(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_rollback_cost");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    for &versions in &[16usize, 128, 512] {
        let chain = version_chain(versions, 200, 0.1);
        // Every version whole, the benchmark's interval, and a longer one.
        for every in [1, 16, 32] {
            let engine = engine_with_chain(CheckpointPolicy::every_k(every).unwrap(), &chain);
            engine.set_cache_capacity(0); // raw reconstruction cost; e10_pushdown measures caching
            for (age, tx) in probe_txs(versions) {
                group.bench_with_input(
                    BenchmarkId::new(format!("every-{every}/{age}"), versions),
                    &tx,
                    |b, &tx| {
                        b.iter(|| {
                            engine
                                .resolve_rollback("r", TxSpec::At(tx), false)
                                .expect("probe answers")
                                .len()
                        })
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_rollback);
criterion_main!(benches);
