//! Random sentence generators, shared by `tests/round_trip.rs` and the
//! front end's differential tests (`src/reference.rs`).

use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::Rng;

use txtime_core::{Expr, TransactionNumber, TxSpec};
use txtime_historical::generate::{random_element, random_historical_state, HistGenConfig};
use txtime_historical::{TemporalExpr, TemporalPred};
use txtime_snapshot::generate::{random_predicate, random_state, GenConfig};
use txtime_snapshot::{DomainType, Schema};

pub fn schema() -> Schema {
    Schema::new(vec![
        ("a0", DomainType::Int),
        ("a1", DomainType::Str),
        ("a2", DomainType::Bool),
    ])
    .unwrap()
}

pub fn cfg() -> GenConfig {
    GenConfig {
        arity: 3,
        cardinality: 6,
        int_range: 20,
        str_pool: 5,
    }
}

/// Generates a random expression of bounded depth mixing the full
/// operator vocabulary. Snapshot-kind and historical-kind subtrees are
/// kept separate so the expression is *syntactically* coherent (the
/// grammar does not prevent kind errors; evaluation does).
pub fn random_expr(rng: &mut StdRng, depth: usize, historical: bool) -> Expr {
    if depth == 0 {
        return random_leaf(rng, historical);
    }
    if historical {
        match rng.gen_range(0..6) {
            0 => random_expr(rng, depth - 1, true).hunion(random_expr(rng, depth - 1, true)),
            1 => random_expr(rng, depth - 1, true).hdifference(random_expr(rng, depth - 1, true)),
            2 => random_expr(rng, depth - 1, true).hproject(vec!["a0".into(), "a1".into()]),
            3 => random_expr(rng, depth - 1, true).hselect(random_predicate(
                rng,
                &schema(),
                &cfg(),
                1,
            )),
            4 => {
                random_expr(rng, depth - 1, true).delta(random_tpred(rng, 1), random_texpr(rng, 1))
            }
            _ => random_leaf(rng, true),
        }
    } else {
        match rng.gen_range(0..6) {
            0 => random_expr(rng, depth - 1, false).union(random_expr(rng, depth - 1, false)),
            1 => random_expr(rng, depth - 1, false).difference(random_expr(rng, depth - 1, false)),
            2 => random_expr(rng, depth - 1, false).project(vec!["a0".into(), "a2".into()]),
            3 => random_expr(rng, depth - 1, false).select(random_predicate(
                rng,
                &schema(),
                &cfg(),
                1,
            )),
            4 => random_expr(rng, depth - 1, false).product(random_expr(rng, depth - 1, false)),
            _ => random_leaf(rng, false),
        }
    }
}

fn random_leaf(rng: &mut StdRng, historical: bool) -> Expr {
    let spec = if rng.gen_bool(0.5) {
        TxSpec::Current
    } else {
        TxSpec::At(TransactionNumber(rng.gen_range(0..50)))
    };
    if historical {
        match rng.gen_range(0..2) {
            0 => Expr::hrollback(format!("h{}", rng.gen_range(0..3)), spec),
            _ => {
                let hcfg = HistGenConfig {
                    values: cfg(),
                    horizon: 30,
                    max_periods: 2,
                };
                Expr::historical_const(random_historical_state(rng, &schema(), &hcfg))
            }
        }
    } else {
        match rng.gen_range(0..2) {
            0 => Expr::rollback(format!("r{}", rng.gen_range(0..3)), spec),
            _ => Expr::snapshot_const(random_state(rng, &schema(), &cfg())),
        }
    }
}

fn random_texpr(rng: &mut StdRng, depth: usize) -> TemporalExpr {
    if depth == 0 {
        return if rng.gen_bool(0.5) {
            TemporalExpr::ValidTime
        } else {
            let hcfg = HistGenConfig {
                values: cfg(),
                horizon: 30,
                max_periods: 2,
            };
            TemporalExpr::constant(random_element(rng, &hcfg))
        };
    }
    match rng.gen_range(0..5) {
        0 => TemporalExpr::union(random_texpr(rng, depth - 1), random_texpr(rng, depth - 1)),
        1 => TemporalExpr::intersect(random_texpr(rng, depth - 1), random_texpr(rng, depth - 1)),
        2 => TemporalExpr::difference(random_texpr(rng, depth - 1), random_texpr(rng, depth - 1)),
        3 => TemporalExpr::first(random_texpr(rng, depth - 1)),
        _ => TemporalExpr::last(random_texpr(rng, depth - 1)),
    }
}

fn random_tpred(rng: &mut StdRng, depth: usize) -> TemporalPred {
    if depth == 0 {
        return match rng.gen_range(0..4) {
            0 => TemporalPred::equals(random_texpr(rng, 1), random_texpr(rng, 1)),
            1 => TemporalPred::subset(random_texpr(rng, 1), random_texpr(rng, 1)),
            2 => TemporalPred::overlaps(random_texpr(rng, 1), random_texpr(rng, 1)),
            _ => TemporalPred::precedes(random_texpr(rng, 1), random_texpr(rng, 1)),
        };
    }
    match rng.gen_range(0..3) {
        0 => random_tpred(rng, depth - 1).and(random_tpred(rng, depth - 1)),
        1 => random_tpred(rng, depth - 1).or(random_tpred(rng, depth - 1)),
        _ => random_tpred(rng, depth - 1).not(),
    }
}
