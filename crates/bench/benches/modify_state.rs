//! E4: modify_state throughput by update mix.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::SeedableRng;

use txtime_bench::{bench_gen_config, bench_schema, version_chain, SEED};
use txtime_core::{Command, Expr, RelationType};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

fn loaded_engine() -> Engine {
    let mut e = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(32).unwrap(),
    );
    e.execute(&Command::define_relation("r", RelationType::Rollback))
        .unwrap();
    let base = version_chain(1, 500, 0.0).pop().unwrap();
    e.execute(&Command::modify_state("r", Expr::snapshot_const(base)))
        .unwrap();
    e
}

fn bench_modify(c: &mut Criterion) {
    let mut group = c.benchmark_group("e4_modify_state");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(SEED);
    let delta =
        txtime_snapshot::generate::random_state(&mut rng, &bench_schema(), &bench_gen_config(1));
    for mix in ["append", "delete", "replace"] {
        let expr = match mix {
            "append" => Expr::current("r").union(Expr::snapshot_const(delta.clone())),
            "delete" => Expr::current("r").difference(Expr::snapshot_const(delta.clone())),
            _ => Expr::current("r")
                .difference(Expr::snapshot_const(delta.clone()))
                .union(Expr::snapshot_const(delta.clone())),
        };
        let cmd = Command::modify_state("r", expr);
        group.bench_with_input(BenchmarkId::new("forward-delta", mix), &cmd, |b, cmd| {
            b.iter_batched_ref(
                loaded_engine,
                |engine| engine.execute(cmd).expect("valid command"),
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_modify);
criterion_main!(benches);
