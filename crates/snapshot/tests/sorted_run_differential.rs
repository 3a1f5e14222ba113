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

/// A state over the shared schema holding exactly the given `a0` values.
fn state_of(ids: impl IntoIterator<Item = i64>) -> SnapshotState {
    let rows = ids.into_iter().map(|id| {
        vec![
            Value::Int(id),
            Value::str(format!("s{}", id % 6)),
            Value::Bool(id % 2 == 0),
        ]
    });
    SnapshotState::from_rows(fixed_schema(), rows).unwrap()
}

/// Operand pairs in the shapes a merge cursor meets, `n` rows to a
/// side: interleaved and of equal size (no match, every third a match,
/// every row a match), nested either way, disjoint either way and in
/// alternating blocks, one side huge.
fn shaped_pairs(n: i64) -> Vec<(&'static str, SnapshotState, SnapshotState)> {
    let huge = 40 * n + 500;
    vec![
        (
            "interleaved",
            state_of((0..n).map(|i| 2 * i)),
            state_of((0..n).map(|i| 2 * i + 1)),
        ),
        (
            "interleaved, some equal",
            state_of((0..n).map(|i| 2 * i)),
            state_of((0..n).map(|i| 3 * i)),
        ),
        ("equal by value", state_of(0..n), state_of(0..n)),
        (
            "right nested in left",
            state_of(0..n),
            state_of(n / 4..n / 2),
        ),
        (
            "left nested in right",
            state_of(n / 4..n / 2),
            state_of(0..n),
        ),
        ("left below right", state_of(0..n), state_of(n..2 * n)),
        ("right below left", state_of(n..2 * n), state_of(0..n)),
        (
            "alternating blocks",
            state_of((0..n).filter(|i| (i / 8) % 2 == 0)),
            state_of((0..n).filter(|i| (i / 8) % 2 == 1)),
        ),
        (
            "right huge",
            state_of((0..n).map(|i| 37 * i)),
            state_of(0..huge),
        ),
        (
            "left huge",
            state_of(0..huge),
            state_of((0..n).map(|i| 37 * i)),
        ),
        (
            "right huge and above",
            state_of(0..n),
            state_of(n + 5..huge),
        ),
    ]
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
        prop_assert_eq!(norm(a.union(&b)), norm_ref(ra.union(&rb)));
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

    /// The one-pass cursor of − (and ∪ for free) on every operand
    /// shape: a cursor that failed to step past a match, or stepped past
    /// a row it had not matched, shows in one of them.
    #[test]
    fn merges_match_reference_on_shaped_operands(n in 1i64..120) {
        for (shape, a, b) in shaped_pairs(n) {
            let (ra, rb) = (RefSnapshot::from_state(&a), RefSnapshot::from_state(&b));
            let (minus, union) = (norm_ref(ra.difference(&rb)), norm_ref(ra.union(&rb)));
            prop_assert_eq!(norm(a.difference(&b)), minus.clone(), "{}: −", shape);
            prop_assert_eq!(norm(a.union(&b)), union.clone(), "{}: ∪", shape);
            for threads in THREADS {
                let pool = ExecPool::with_unit_grain(threads);
                prop_assert_eq!(norm(a.difference_par(&b, &pool)), minus.clone(), "{}: −", shape);
            }
        }
    }

    /// Selections that cut the run by its leading attribute before they
    /// scan it, against the reference's full scan.
    #[test]
    fn key_range_select_matches_reference(
        n in 1i64..80,
        k in -2i64..90,
        width in 0i64..20,
        rest in arb_predicate(),
    ) {
        use txtime_snapshot::{CompOp, Operand};
        let a = state_of((0..n).map(|i| i + i / 3));
        let ra = RefSnapshot::from_state(&a);
        let on = |attr: &str, op, v: Value| Predicate::Comp(Operand::attr(attr), op, Operand::Const(v));
        let a0 = |op, v: i64| on("a0", op, Value::Int(v));
        let mut predicates = vec![rest.clone()];
        for op in [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
            predicates.push(a0(op, k));
            predicates.push(a0(op, k).and(rest.clone()));
            predicates.push(rest.clone().and(a0(op, k)));
            predicates.push(a0(op, k).or(rest.clone()));
            predicates.push(a0(op, k).not());
            predicates.push(a0(CompOp::Ge, k).and(a0(op, k + width)));
            predicates.push(a0(CompOp::Eq, k).and(on("a1", op, Value::str(format!("s{}", k.rem_euclid(6))))));
            predicates.push(Predicate::Comp(Operand::Const(Value::Int(k)), op, Operand::attr("a0")));
        }
        for p in &predicates {
            let expected = norm_ref(ra.select(p));
            prop_assert_eq!(norm(a.select(p)), expected.clone(), "{}", p);
            for threads in THREADS {
                let pool = ExecPool::with_unit_grain(threads);
                prop_assert_eq!(norm(a.select_par(p, &pool)), expected.clone(), "{}", p);
            }
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

// ----- the delta edit paths ---------------------------------------------

/// Row `id` of [`state_of`].
fn row(id: i64) -> Tuple {
    revalued(id, &format!("s{}", id % 6))
}

/// Row `id` of [`state_of`] with `a1` replaced: `"a"` sorts before every
/// `a1` of [`state_of`] and `"zz"` after, so the twin lands in the slot
/// the original holds, from below or from above.
fn revalued(id: i64, a1: &str) -> Tuple {
    Tuple::new(vec![
        Value::Int(id),
        Value::str(a1),
        Value::Bool(id % 2 == 0),
    ])
}

/// Applies the delta to `state` (its run held by no other handle) and
/// to the reference, asserts they agree, and returns whether the run
/// stayed in its buffer.
fn edit_unique(mut state: SnapshotState, removed: &[Tuple], added: &[Tuple]) -> bool {
    let mut reference = RefSnapshot::from_state(&state);
    let before = state.run().as_ptr();
    state.apply_delta(removed, added).unwrap();
    reference.apply_delta(removed, added).unwrap();
    assert_eq!(reference.to_state(), state);
    state.run().as_ptr() == before
}

/// Applies the delta to a second handle on `state`'s run and to the
/// reference, and asserts they agree while the first handle keeps its
/// contents.
fn edit_shared(state: &SnapshotState, removed: &[Tuple], added: &[Tuple]) {
    let kept = state.run().to_vec();
    let mut second = state.clone();
    let mut reference = RefSnapshot::from_state(state);
    second.apply_delta(removed, added).unwrap();
    reference.apply_delta(removed, added).unwrap();
    assert_eq!(reference.to_state(), second);
    assert_eq!(state.run(), &kept[..]);
}

/// A revalue into the slot its old value held, at the first, a middle
/// and the last slot, from above and from below: overwritten in place on
/// a unique run, and right on a shared one.
#[test]
fn same_slot_revalue_overwrites_in_place() {
    for id in [0, 17, 39] {
        for a1 in ["a", "zz"] {
            let (removed, added) = ([row(id)], [revalued(id, a1)]);
            assert!(
                edit_unique(state_of(0..40), &removed, &added),
                "revalue of {id} to {a1:?} moved the run"
            );
            edit_shared(&state_of(0..40), &removed, &added);
        }
    }
}

/// An arrival that takes a row to another slot: the rows between the
/// two slots shift by one, either way, across the whole run or part of
/// it.
#[test]
fn arrival_moving_a_row_to_another_slot() {
    let moves = [(0, 39), (39, 0), (5, 20), (20, 5), (0, 40), (39, -1)];
    for (from, to) in moves {
        let (removed, added) = ([row(from)], [row(to)]);
        edit_unique(state_of(0..40), &removed, &added);
        edit_shared(&state_of(0..40), &removed, &added);
    }
}

/// Removing an absent tuple and adding a present one change nothing,
/// and leave a shared run shared.
#[test]
fn absent_removals_and_present_arrivals_change_nothing() {
    let state = state_of(0..40);
    let mut second = state.clone();
    second
        .apply_delta(&[row(40), revalued(3, "a")], &[row(3), row(39)])
        .unwrap();
    assert_eq!(second, state);
    assert!(second.shares_run(&state));
    assert!(edit_unique(state_of(0..40), &[row(40)], &[row(0)]));
}

/// A tuple removed and re-added by one delta stays: insertions win, on
/// a unique and on a shared run, alone or beside other changes.
#[test]
fn remove_and_readd_keeps_the_tuple() {
    let cases: [(Vec<Tuple>, Vec<Tuple>); 3] = [
        (vec![row(7)], vec![row(7)]),
        (vec![row(6), row(7), row(8)], vec![row(7)]),
        (vec![row(7)], vec![revalued(7, "a"), row(7), row(50)]),
    ];
    for (removed, added) in &cases {
        edit_unique(state_of(0..40), removed, added);
        edit_shared(&state_of(0..40), removed, added);
    }
}

/// Deltas that touch much of the run: every other row removed, a row
/// added between every two, every row revalued, the run emptied and
/// refilled.
#[test]
fn many_change_deltas_match_reference() {
    let evens: Vec<Tuple> = (0..40).filter(|i| i % 2 == 0).map(row).collect();
    let halves: Vec<Tuple> = (0..40).map(|i| revalued(i, "s")).collect();
    let all: Vec<Tuple> = (0..40).map(row).collect();
    let revalues: Vec<Tuple> = (0..40).map(|i| revalued(i, "zz")).collect();
    let fresh: Vec<Tuple> = (100..140).map(row).collect();
    let cases: [(&[Tuple], &[Tuple]); 6] = [
        (&evens, &[]),
        (&[], &halves),
        (&evens, &halves),
        (&all, &revalues),
        (&all, &fresh),
        (&all, &[]),
    ];
    for (removed, added) in cases {
        edit_unique(state_of(0..40), removed, added);
        edit_shared(&state_of(0..40), removed, added);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random deltas over a 0–80-row run: removals of present and absent
    /// rows, arrivals that are present rows, fresh rows or revalues
    /// landing on either side of their originals, on a run held once
    /// and on one held twice.
    #[test]
    fn random_edits_match_reference(
        ids in proptest::collection::vec(0i64..120, 0..80),
        removed in proptest::collection::vec(0i64..120, 0..60),
        added in proptest::collection::vec((0i64..120, 0u8..3), 0..60),
    ) {
        let removed: Vec<Tuple> = removed.into_iter().map(row).collect();
        let added: Vec<Tuple> = added
            .into_iter()
            .map(|(id, kind)| match kind {
                0 => row(id),
                1 => revalued(id, "a"),
                _ => revalued(id, "zz"),
            })
            .collect();
        edit_unique(state_of(ids.iter().copied()), &removed, &added);
        edit_shared(&state_of(ids.iter().copied()), &removed, &added);
    }
}
