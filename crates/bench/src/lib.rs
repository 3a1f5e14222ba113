#![warn(missing_docs)]

//! Shared workload builders for the benchmarks and the experiment
//! harness.
//!
//! Every experiment in EXPERIMENTS.md is driven by workloads built here,
//! so the Criterion benches and the table-printing `experiments` binary
//! measure the same thing. All generation is seeded — run-to-run results
//! use identical data.

use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::SeedableRng;

use txtime_core::{Command, Expr, RelationType, StateValue, TransactionNumber};
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_historical::HistoricalState;
use txtime_snapshot::generate::{mutate_state, random_state, GenConfig};
use txtime_snapshot::{DomainType, Schema, SnapshotState};
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

/// The fixed seed for every workload (reproducibility).
pub const SEED: u64 = 0x5EED_1987;

/// The value scheme used by the snapshot workloads.
pub fn bench_schema() -> Schema {
    Schema::new(vec![
        ("id", DomainType::Int),
        ("name", DomainType::Str),
        ("grade", DomainType::Int),
    ])
    .unwrap()
}

/// Generation parameters sized for benchmarking.
pub fn bench_gen_config(cardinality: usize) -> GenConfig {
    GenConfig {
        arity: 3,
        cardinality,
        int_range: 10_000,
        str_pool: 64,
    }
}

/// A chain of `versions` successive snapshot states over
/// [`bench_schema`], each mutating `churn` of the previous.
pub fn version_chain(versions: usize, cardinality: usize, churn: f64) -> Vec<SnapshotState> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let cfg = bench_gen_config(cardinality);
    let schema = bench_schema();
    let mut out = Vec::with_capacity(versions);
    let mut state = random_state(&mut rng, &schema, &cfg);
    for _ in 0..versions {
        out.push(state.clone());
        state = mutate_state(&mut rng, &state, &cfg, churn);
    }
    out
}

/// Loads a version chain into an engine as rollback relation `"r"`.
pub fn engine_with_chain(checkpoints: CheckpointPolicy, chain: &[SnapshotState]) -> Engine {
    let mut e = Engine::new(BackendKind::ForwardDelta, checkpoints);
    e.execute(&Command::define_relation("r", RelationType::Rollback))
        .expect("fresh engine");
    for s in chain {
        e.execute(&Command::modify_state("r", Expr::snapshot_const(s.clone())))
            .expect("valid modify");
    }
    e
}

/// A chain of historical states for temporal workloads (E5/E6).
pub fn historical_chain(versions: usize, cardinality: usize) -> Vec<HistoricalState> {
    let mut rng = StdRng::seed_from_u64(SEED);
    let cfg = HistGenConfig {
        values: bench_gen_config(cardinality),
        horizon: 1_000,
        max_periods: 3,
    };
    (0..versions)
        .map(|_| random_historical_state(&mut rng, &bench_schema(), &cfg))
        .collect()
}

/// Loads an historical chain into an engine as temporal relation `"t"`.
pub fn engine_with_temporal(chain: &[HistoricalState]) -> Engine {
    let mut e = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(16).unwrap(),
    );
    e.execute(&Command::define_relation("t", RelationType::Temporal))
        .expect("fresh engine");
    for h in chain {
        e.execute(&Command::modify_state(
            "t",
            Expr::historical_const(h.clone()),
        ))
        .expect("valid modify");
    }
    e
}

/// The transaction numbers that probe "old / middle / recent" targets in
/// a store whose versions committed at tx 2..=versions+1.
pub fn probe_txs(versions: usize) -> [(&'static str, TransactionNumber); 3] {
    [
        ("old", TransactionNumber(2)),
        ("mid", TransactionNumber(versions as u64 / 2 + 1)),
        ("recent", TransactionNumber(versions as u64 + 1)),
    ]
}

/// Materializes a rollback state, returning its cardinality (a cheap
/// "use" that defeats dead-code elimination without criterion).
pub fn touch(state: &StateValue) -> usize {
    state.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_core::TxSpec;

    #[test]
    fn version_chain_has_requested_shape() {
        let chain = version_chain(10, 50, 0.1);
        assert_eq!(chain.len(), 10);
        assert!(chain.iter().all(|s| s.schema() == &bench_schema()));
    }

    #[test]
    fn engine_loads_and_answers() {
        let chain = version_chain(8, 20, 0.2);
        for k in [1, 4] {
            let e = engine_with_chain(CheckpointPolicy::every_k(k).unwrap(), &chain);
            for (_, tx) in probe_txs(8) {
                let s = e
                    .eval(&Expr::rollback("r", TxSpec::At(tx)))
                    .expect("probe answers");
                assert!(touch(&s) <= 20 + 8); // churn adds at most 1/version
            }
        }
    }

    #[test]
    fn temporal_engine_loads() {
        let chain = historical_chain(5, 20);
        let e = engine_with_temporal(&chain);
        assert!(e.eval(&Expr::hcurrent("t")).is_ok());
    }
}
