//! Differential property tests: the sorted-run historical kernels agree
//! byte-for-byte with the retained `BTreeMap` reference implementation
//! ([`txtime_historical::reference::RefHistorical`]) — values *and*
//! errors — sequentially and across partitioned thread counts, including
//! empty operands and schema-mismatch boundary cases.

use proptest::prelude::*;

use txtime_exec::ExecPool;
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_historical::reference::RefHistorical;
use txtime_historical::{HistoricalState, TemporalElement, TemporalExpr, TemporalPred};
use txtime_snapshot::generate::GenConfig;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::SeedableRng;
use txtime_snapshot::{DomainType, Predicate, Schema, Tuple, Value};

fn fixed_schema() -> Schema {
    use DomainType::*;
    Schema::new(vec![("a0", Int), ("a1", Str)]).unwrap()
}

fn random(seed: u64, schema: &Schema, cardinality: usize) -> HistoricalState {
    let cfg = HistGenConfig {
        values: GenConfig {
            arity: schema.arity(),
            cardinality,
            int_range: 12,
            str_pool: 6,
        },
        horizon: 40,
        max_periods: 3,
    };
    let mut rng = StdRng::seed_from_u64(seed);
    random_historical_state(&mut rng, schema, &cfg)
}

/// A state over the shared schema; cardinality 0 pins the empty state.
fn arb_state() -> impl Strategy<Value = HistoricalState> {
    (any::<u64>(), 0usize..30)
        .prop_map(|(seed, cardinality)| random(seed, &fixed_schema(), cardinality))
}

/// A right operand that is sometimes union-compatible, sometimes a
/// disjoint product operand, and sometimes an *incompatible* scheme.
fn arb_other() -> impl Strategy<Value = HistoricalState> {
    (any::<u64>(), 0usize..3, 0usize..15).prop_map(|(seed, kind, cardinality)| {
        use DomainType::*;
        let schema = match kind {
            0 => fixed_schema(),
            1 => Schema::new(vec![("b0", Int), ("b1", Str)]).unwrap(),
            _ => Schema::new(vec![("a0", Str), ("a1", Int)]).unwrap(),
        };
        random(seed, &schema, cardinality)
    })
}

fn arb_predicate() -> impl Strategy<Value = Predicate> {
    any::<u64>().prop_map(|seed| {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig {
            int_range: 12,
            str_pool: 6,
            ..GenConfig::default()
        };
        txtime_snapshot::generate::random_predicate(&mut rng, &fixed_schema(), &cfg, 2)
    })
}

fn arb_attrs() -> impl Strategy<Value = Vec<&'static str>> {
    (0usize..5).prop_map(|i| match i {
        0 => vec!["a0"],
        1 => vec!["a1"],
        2 => vec!["a1", "a0"],
        3 => vec!["a0", "a1"],
        _ => vec!["ghost"],
    })
}

fn norm(r: txtime_historical::Result<HistoricalState>) -> Result<HistoricalState, String> {
    r.map_err(|e| format!("{e:?}"))
}

fn norm_ref(r: txtime_historical::Result<RefHistorical>) -> Result<HistoricalState, String> {
    r.map(|s| s.to_state()).map_err(|e| format!("{e:?}"))
}

const THREADS: [usize; 4] = [1, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hunion_matches_reference(a in arb_state(), b in arb_other()) {
        let (ra, rb) = (RefHistorical::from_state(&a), RefHistorical::from_state(&b));
        let expected = norm_ref(ra.hunion(&rb));
        prop_assert_eq!(norm(a.hunion(&b)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.hunion_par(&b, &pool)), expected.clone());
        }
    }

    #[test]
    fn hdifference_matches_reference(a in arb_state(), b in arb_other()) {
        let (ra, rb) = (RefHistorical::from_state(&a), RefHistorical::from_state(&b));
        let expected = norm_ref(ra.hdifference(&rb));
        prop_assert_eq!(norm(a.hdifference(&b)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.hdifference_par(&b, &pool)), expected.clone());
        }
    }

    #[test]
    fn hproduct_matches_reference(a in arb_state(), b in arb_other()) {
        let (ra, rb) = (RefHistorical::from_state(&a), RefHistorical::from_state(&b));
        let expected = norm_ref(ra.hproduct(&rb));
        prop_assert_eq!(norm(a.hproduct(&b)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.hproduct_par(&b, &pool)), expected.clone());
        }
    }

    #[test]
    fn hproject_matches_reference(a in arb_state(), attrs in arb_attrs()) {
        let ra = RefHistorical::from_state(&a);
        let expected = norm_ref(ra.hproject(&attrs));
        prop_assert_eq!(norm(a.hproject(&attrs)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.hproject_par(&attrs, &pool)), expected.clone());
        }
    }

    #[test]
    fn hselect_matches_reference(a in arb_state(), pred in arb_predicate()) {
        let ra = RefHistorical::from_state(&a);
        let expected = norm_ref(ra.hselect(&pred));
        prop_assert_eq!(norm(a.hselect(&pred)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.hselect_par(&pred, &pool)), expected.clone());
        }
        let ghost = Predicate::eq_const("ghost", Value::Int(0));
        prop_assert_eq!(norm(a.hselect(&ghost)), norm_ref(ra.hselect(&ghost)));
    }

    #[test]
    fn delta_matches_reference(a in arb_state(), c in 0u32..45, lo in 0u32..40, len in 1u32..10) {
        let ra = RefHistorical::from_state(&a);
        let window = TemporalElement::period(lo, lo + len);
        let cases = [
            (TemporalPred::True, TemporalExpr::ValidTime),
            (TemporalPred::valid_at(c), TemporalExpr::ValidTime),
            (
                TemporalPred::True,
                TemporalExpr::intersect(
                    TemporalExpr::ValidTime,
                    TemporalExpr::constant(window.clone()),
                ),
            ),
            (TemporalPred::False, TemporalExpr::constant(window)),
        ];
        for (g, v) in &cases {
            prop_assert_eq!(norm(a.delta(g, v)), norm_ref(ra.delta(g, v)));
        }
    }

    #[test]
    fn apply_delta_matches_reference(
        a in arb_state(),
        b in arb_state(),
        c in arb_state(),
    ) {
        // Removals and upserts drawn from real states exercise present
        // and absent tuples, in unsorted order.
        let mut removed: Vec<Tuple> = b.iter().map(|(t, _)| t.clone()).collect();
        removed.extend(a.iter().take(3).map(|(t, _)| t.clone()));
        let mut upserted: Vec<(Tuple, TemporalElement)> = c
            .iter()
            .map(|(t, e)| (t.clone(), e.clone()))
            .collect();
        upserted.reverse();
        let mut prod = a.clone();
        let mut reference = RefHistorical::from_state(&a);
        prod.apply_delta(&removed, &upserted).unwrap();
        reference.apply_delta(&removed, &upserted).unwrap();
        prop_assert_eq!(reference.to_state(), prod);
    }
}
