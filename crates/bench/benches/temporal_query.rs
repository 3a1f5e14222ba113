//! E5: temporal query cost on a temporal relation.

use criterion::{criterion_group, criterion_main, Criterion};

use txtime_bench::{engine_with_temporal, historical_chain};
use txtime_core::{Expr, TransactionNumber, TxSpec};
use txtime_historical::{TemporalElement, TemporalExpr, TemporalPred};
use txtime_snapshot::{Predicate, Value};

fn bench_temporal(c: &mut Criterion) {
    let chain = historical_chain(64, 100);
    let engine = engine_with_temporal(&chain);
    let window = TemporalElement::period(100, 300);

    let mut group = c.benchmark_group("e5_temporal_query");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("rho_hat_current", |b| {
        let q = Expr::hcurrent("t");
        b.iter(|| engine.eval(&q).expect("valid").len())
    });
    group.bench_function("rho_hat_past", |b| {
        let q = Expr::hrollback("t", TxSpec::At(TransactionNumber(33)));
        b.iter(|| engine.eval(&q).expect("valid").len())
    });
    group.bench_function("delta_window_clip", |b| {
        let q = Expr::hcurrent("t").delta(
            TemporalPred::overlaps(
                TemporalExpr::ValidTime,
                TemporalExpr::constant(window.clone()),
            ),
            TemporalExpr::intersect(
                TemporalExpr::ValidTime,
                TemporalExpr::constant(window.clone()),
            ),
        );
        b.iter(|| engine.eval(&q).expect("valid").len())
    });
    group.bench_function("hselect_value_filter", |b| {
        let q = Expr::hcurrent("t").hselect(Predicate::gt_const("grade", Value::Int(5000)));
        b.iter(|| engine.eval(&q).expect("valid").len())
    });
    group.bench_function("timeslice", |b| {
        let h = engine
            .eval(&Expr::hcurrent("t"))
            .unwrap()
            .into_historical()
            .unwrap();
        b.iter(|| h.timeslice(200).len())
    });
    group.finish();
}

criterion_group!(benches, bench_temporal);
criterion_main!(benches);
