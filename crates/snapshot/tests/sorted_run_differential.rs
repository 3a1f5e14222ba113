//! Differential property tests: the sorted-run merge kernels agree
//! byte-for-byte with the retained `BTreeSet` reference implementation
//! ([`txtime_snapshot::reference::RefSnapshot`]) — values *and* errors —
//! sequentially and across partitioned thread counts, including empty
//! operands and schema-mismatch boundary cases.

use proptest::prelude::*;

use txtime_exec::ExecPool;
use txtime_snapshot::generate::{self, GenConfig};
use txtime_snapshot::reference::RefSnapshot;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::SeedableRng;
use txtime_snapshot::{DomainType, Predicate, Schema, SnapshotState, Tuple, Value};

fn fixed_schema() -> Schema {
    use DomainType::*;
    Schema::new(vec![("a0", Int), ("a1", Str), ("a2", Bool)]).unwrap()
}

/// A state over the shared schema; seed 0 is pinned to the empty state so
/// boundary cases always appear in every run.
fn arb_state() -> impl Strategy<Value = SnapshotState> {
    (any::<u64>(), 0usize..40).prop_map(|(seed, cardinality)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = GenConfig {
            arity: 3,
            cardinality,
            int_range: 12,
            str_pool: 6,
        };
        generate::random_state(&mut rng, &fixed_schema(), &cfg)
    })
}

/// A right operand that is sometimes union-compatible, sometimes a
/// disjoint product operand, and sometimes an *incompatible* scheme — so
/// the same differential assertions also pin error selection.
fn arb_other() -> impl Strategy<Value = SnapshotState> {
    (any::<u64>(), 0usize..3, 0usize..20).prop_map(|(seed, kind, cardinality)| {
        use DomainType::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let (schema, arity) = match kind {
            0 => (fixed_schema(), 3),
            1 => (Schema::new(vec![("b0", Int), ("b1", Str)]).unwrap(), 2),
            _ => (Schema::new(vec![("a0", Str), ("a1", Int)]).unwrap(), 2),
        };
        let cfg = GenConfig {
            arity,
            cardinality,
            int_range: 12,
            str_pool: 6,
        };
        generate::random_state(&mut rng, &schema, &cfg)
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
        generate::random_predicate(&mut rng, &fixed_schema(), &cfg, 2)
    })
}

/// Projection targets: valid prefixes/subsets and an unknown attribute
/// (error case).
fn arb_attrs() -> impl Strategy<Value = Vec<&'static str>> {
    (0usize..6).prop_map(|i| match i {
        0 => vec!["a0"],
        1 => vec!["a1"],
        2 => vec!["a0", "a1"],
        3 => vec!["a0", "a1", "a2"],
        4 => vec!["a2", "a0"],
        _ => vec!["ghost"],
    })
}

/// Both sides reduced to a comparable form: states byte-for-byte, errors
/// by their debug rendering (the same `SnapshotError` values flow through
/// both implementations).
fn norm(r: txtime_snapshot::Result<SnapshotState>) -> Result<SnapshotState, String> {
    r.map_err(|e| format!("{e:?}"))
}

fn norm_ref(r: txtime_snapshot::Result<RefSnapshot>) -> Result<SnapshotState, String> {
    r.map(|s| s.to_state()).map_err(|e| format!("{e:?}"))
}

const THREADS: [usize; 4] = [1, 2, 3, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_matches_reference(a in arb_state(), b in arb_other()) {
        let (ra, rb) = (RefSnapshot::from_state(&a), RefSnapshot::from_state(&b));
        let expected = norm_ref(ra.union(&rb));
        prop_assert_eq!(norm(a.union(&b)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.union_par(&b, &pool)), expected.clone());
        }
    }

    #[test]
    fn difference_matches_reference(a in arb_state(), b in arb_other()) {
        let (ra, rb) = (RefSnapshot::from_state(&a), RefSnapshot::from_state(&b));
        let expected = norm_ref(ra.difference(&rb));
        prop_assert_eq!(norm(a.difference(&b)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.difference_par(&b, &pool)), expected.clone());
        }
    }

    #[test]
    fn product_matches_reference(a in arb_state(), b in arb_other()) {
        let (ra, rb) = (RefSnapshot::from_state(&a), RefSnapshot::from_state(&b));
        let expected = norm_ref(ra.product(&rb));
        prop_assert_eq!(norm(a.product(&b)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.product_par(&b, &pool)), expected.clone());
        }
    }

    #[test]
    fn project_matches_reference(a in arb_state(), attrs in arb_attrs()) {
        let ra = RefSnapshot::from_state(&a);
        let expected = norm_ref(ra.project(&attrs));
        prop_assert_eq!(norm(a.project(&attrs)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.project_par(&attrs, &pool)), expected.clone());
        }
    }

    #[test]
    fn select_matches_reference(a in arb_state(), pred in arb_predicate()) {
        let ra = RefSnapshot::from_state(&a);
        let expected = norm_ref(ra.select(&pred));
        prop_assert_eq!(norm(a.select(&pred)), expected.clone());
        for threads in THREADS {
            let pool = ExecPool::with_unit_grain(threads);
            prop_assert_eq!(norm(a.select_par(&pred, &pool)), expected.clone());
        }
        // A predicate compiled for the wrong scheme errors identically.
        let ghost = Predicate::eq_const("ghost", Value::Int(0));
        prop_assert_eq!(
            norm(a.select(&ghost)),
            norm_ref(ra.select(&ghost))
        );
    }

    #[test]
    fn apply_delta_matches_reference(
        a in arb_state(),
        b in arb_state(),
        c in arb_state(),
    ) {
        // Deltas drawn from real states exercise present and absent
        // tuples on both the removal and insertion sides, in unsorted
        // order with duplicates.
        let mut removed: Vec<Tuple> = b.iter().cloned().collect();
        removed.extend(a.iter().take(3).cloned());
        let mut added: Vec<Tuple> = c.iter().cloned().collect();
        added.reverse();
        let mut prod = a.clone();
        let mut reference = RefSnapshot::from_state(&a);
        prod.apply_delta(&removed, &added).unwrap();
        reference.apply_delta(&removed, &added).unwrap();
        prop_assert_eq!(reference.to_state(), prod);
    }
}
