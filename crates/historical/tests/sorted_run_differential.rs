//! Differential property tests: the sorted-run historical kernels agree
//! byte-for-byte with the retained `BTreeMap` reference implementation
//! ([`txtime_historical::reference::RefHistorical`]) — values *and*
//! errors — sequentially and across partitioned thread counts, including
//! empty operands and schema-mismatch boundary cases.

use proptest::prelude::*;

use txtime_exec::ExecPool;
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_historical::reference::RefHistorical;
use txtime_historical::{Entry, HistoricalState, TemporalElement, TemporalExpr, TemporalPred};
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

/// A state over the shared schema holding exactly the given `a0`
/// values, each valid over a period that depends on the value and on
/// `shift` (so two states agree on some tuples' valid times, overlap on
/// others and are disjoint on the rest).
fn state_of(ids: impl IntoIterator<Item = i64>, shift: u32) -> HistoricalState {
    let entries = ids.into_iter().map(|id| {
        let from = (id % 7) as u32 + shift * (id % 3) as u32;
        (
            Tuple::new(vec![Value::Int(id), Value::str(format!("s{}", id % 6))]),
            TemporalElement::period(from, from + 4 + (id % 5) as u32),
        )
    });
    HistoricalState::new(fixed_schema(), entries).unwrap()
}

/// Operand pairs in the shapes a merge cursor meets, `n` entries to a
/// side: interleaved and of equal size (no tuple shared, every third,
/// every one), nested either way, disjoint either way and in
/// alternating blocks, one side huge.
fn shaped_pairs(n: i64) -> Vec<(&'static str, HistoricalState, HistoricalState)> {
    let huge = 40 * n + 500;
    vec![
        (
            "interleaved",
            state_of((0..n).map(|i| 2 * i), 0),
            state_of((0..n).map(|i| 2 * i + 1), 3),
        ),
        (
            "interleaved, some equal",
            state_of((0..n).map(|i| 2 * i), 0),
            state_of((0..n).map(|i| 3 * i), 3),
        ),
        ("equal tuples", state_of(0..n, 0), state_of(0..n, 3)),
        ("equal by value", state_of(0..n, 2), state_of(0..n, 2)),
        (
            "right nested in left",
            state_of(0..n, 0),
            state_of(n / 4..n / 2, 3),
        ),
        (
            "left nested in right",
            state_of(n / 4..n / 2, 0),
            state_of(0..n, 3),
        ),
        ("left below right", state_of(0..n, 0), state_of(n..2 * n, 3)),
        ("right below left", state_of(n..2 * n, 0), state_of(0..n, 3)),
        (
            "alternating blocks",
            state_of((0..n).filter(|i| (i / 8) % 2 == 0), 0),
            state_of((0..n).filter(|i| (i / 8) % 2 == 1), 3),
        ),
        (
            "right huge",
            state_of((0..n).map(|i| 37 * i), 0),
            state_of(0..huge, 3),
        ),
        (
            "left huge",
            state_of(0..huge, 0),
            state_of((0..n).map(|i| 37 * i), 3),
        ),
        (
            "right huge and above",
            state_of(0..n, 0),
            state_of(n + 5..huge, 3),
        ),
    ]
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
        prop_assert_eq!(norm(a.hunion(&b)), norm_ref(ra.hunion(&rb)));
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

    /// The one-pass cursor of −̂ (and ∪̂ for free) on every operand
    /// shape, against two oracles: the `BTreeMap` reference, and
    /// snapshot reducibility (the timeslice of the result is the
    /// snapshot operator over the timeslices).
    #[test]
    fn merges_match_reference_on_shaped_operands(n in 1i64..100) {
        for (shape, a, b) in shaped_pairs(n) {
            let (ra, rb) = (RefHistorical::from_state(&a), RefHistorical::from_state(&b));
            let (minus, union) = (norm_ref(ra.hdifference(&rb)), norm_ref(ra.hunion(&rb)));
            prop_assert_eq!(norm(a.hdifference(&b)), minus.clone(), "{}: −̂", shape);
            prop_assert_eq!(norm(a.hunion(&b)), union.clone(), "{}: ∪̂", shape);
            for threads in THREADS {
                let pool = ExecPool::with_unit_grain(threads);
                prop_assert_eq!(norm(a.hdifference_par(&b, &pool)), minus.clone(), "{}: −̂", shape);
            }
            let (minus, union) = (minus.unwrap(), union.unwrap());
            for c in (0..24).step_by(3) {
                let (sa, sb) = (a.timeslice(c), b.timeslice(c));
                prop_assert_eq!(minus.timeslice(c), sa.difference(&sb).unwrap(), "{}: −̂ at {}", shape, c);
                prop_assert_eq!(union.timeslice(c), sa.union(&sb).unwrap(), "{}: ∪̂ at {}", shape, c);
            }
        }
    }

    /// Selections that cut the run by its leading attribute before they
    /// scan it, against the reference's full scan.
    #[test]
    fn key_range_hselect_matches_reference(
        n in 1i64..60,
        k in -2i64..70,
        width in 0i64..20,
        rest in arb_predicate(),
    ) {
        use txtime_snapshot::{CompOp, Operand};
        let a = state_of((0..n).map(|i| i + i / 3), 1);
        let ra = RefHistorical::from_state(&a);
        let a0 = |op, v: i64| Predicate::Comp(Operand::attr("a0"), op, Operand::Const(Value::Int(v)));
        let mut predicates = vec![rest.clone()];
        for op in [CompOp::Eq, CompOp::Ne, CompOp::Lt, CompOp::Le, CompOp::Gt, CompOp::Ge] {
            predicates.push(a0(op, k));
            predicates.push(a0(op, k).and(rest.clone()));
            predicates.push(a0(op, k).or(rest.clone()));
            predicates.push(a0(op, k).not());
            predicates.push(a0(CompOp::Ge, k).and(a0(op, k + width)));
            predicates.push(Predicate::Comp(Operand::Const(Value::Int(k)), op, Operand::attr("a0")));
        }
        for p in &predicates {
            let expected = norm_ref(ra.hselect(p));
            prop_assert_eq!(norm(a.hselect(p)), expected.clone(), "{}", p);
            for threads in THREADS {
                let pool = ExecPool::with_unit_grain(threads);
                prop_assert_eq!(norm(a.hselect_par(p, &pool)), expected.clone(), "{}", p);
            }
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

// ----- the delta edit paths ---------------------------------------------

/// Entry `id` of [`state_of`] (at shift 0).
fn entry(id: i64) -> Entry {
    state_of([id], 0).run()[0].clone()
}

/// Tuple `id` of [`state_of`] with `a1` replaced: `"a"` sorts before
/// every `a1` of [`state_of`] and `"zz"` after, so the twin lands in the
/// slot the original holds, from below or from above.
fn revalued(id: i64, a1: &str) -> Tuple {
    Tuple::new(vec![Value::Int(id), Value::str(a1)])
}

/// Applies the delta to `state` (its run held by no other handle) and
/// to the reference, asserts they agree, and returns whether the run
/// stayed in its buffer.
fn edit_unique(mut state: HistoricalState, removed: &[Tuple], upserted: &[Entry]) -> bool {
    let mut reference = RefHistorical::from_state(&state);
    let before = state.run().as_ptr();
    state.apply_delta(removed, upserted).unwrap();
    reference.apply_delta(removed, upserted).unwrap();
    assert_eq!(reference.to_state(), state);
    state.run().as_ptr() == before
}

/// Applies the delta to a second handle on `state`'s run and to the
/// reference, and asserts they agree while the first handle keeps its
/// contents.
fn edit_shared(state: &HistoricalState, removed: &[Tuple], upserted: &[Entry]) {
    let kept = state.run().to_vec();
    let mut second = state.clone();
    let mut reference = RefHistorical::from_state(state);
    second.apply_delta(removed, upserted).unwrap();
    reference.apply_delta(removed, upserted).unwrap();
    assert_eq!(reference.to_state(), second);
    assert_eq!(state.run(), &kept[..]);
}

/// Revalues at the first, a middle and the last slot: a new element for
/// a present tuple, and a tuple replaced by a twin that lands in its
/// slot from above or from below. Overwritten in place on a unique run,
/// and right on a shared one.
#[test]
fn same_slot_revalue_overwrites_in_place() {
    let element = TemporalElement::period(50, 60);
    for id in [0, 17, 39] {
        let mut cases = vec![(vec![], vec![(entry(id).0, element.clone())])];
        for a1 in ["a", "zz"] {
            cases.push((vec![entry(id).0], vec![(revalued(id, a1), element.clone())]));
        }
        for (removed, upserted) in &cases {
            assert!(
                edit_unique(state_of(0..40, 0), removed, upserted),
                "revalue of {id} moved the run"
            );
            edit_shared(&state_of(0..40, 0), removed, upserted);
        }
    }
}

/// An upsert that takes an entry to another slot: the entries between
/// the two slots shift by one, either way.
#[test]
fn arrival_moving_an_entry_to_another_slot() {
    let moves = [(0, 39), (39, 0), (5, 20), (20, 5), (0, 40), (20, 45)];
    for (from, to) in moves {
        let (removed, upserted) = ([entry(from).0], [entry(to)]);
        edit_unique(state_of(0..40, 0), &removed, &upserted);
        edit_shared(&state_of(0..40, 0), &removed, &upserted);
    }
}

/// Removing an absent tuple and upserting an entry exactly as it stands
/// change nothing, and leave a shared run shared.
#[test]
fn absent_removals_and_present_arrivals_change_nothing() {
    let state = state_of(0..40, 0);
    let mut second = state.clone();
    second
        .apply_delta(&[entry(40).0, revalued(3, "a")], &[entry(3), entry(39)])
        .unwrap();
    assert_eq!(second, state);
    assert!(second.shares_run(&state));
    assert!(edit_unique(state_of(0..40, 0), &[entry(40).0], &[entry(0)]));
}

/// A tuple removed and upserted by one delta stays, with the upserted
/// element: upserts win, on a unique and on a shared run.
#[test]
fn remove_and_readd_keeps_the_tuple() {
    let element = TemporalElement::period(50, 60);
    let cases = [
        (vec![entry(7).0], vec![entry(7)]),
        (vec![entry(7).0], vec![(entry(7).0, element.clone())]),
        (
            vec![entry(6).0, entry(7).0, entry(8).0],
            vec![(entry(7).0, element.clone()), entry(50)],
        ),
    ];
    for (removed, upserted) in &cases {
        edit_unique(state_of(0..40, 0), removed, upserted);
        edit_shared(&state_of(0..40, 0), removed, upserted);
    }
}

/// A delta that shifts rows, applied to a run no other handle holds,
/// moves every kept entry into the new run: no element is copied.
#[test]
fn unique_run_moves_its_kept_entries() {
    let mut state = state_of(0..40, 0);
    let removed: Vec<Tuple> = (0..40).step_by(3).map(|i| entry(i).0).collect();
    let upserted: Vec<Entry> = [40, 41, 55].map(entry).into();
    let kept: Vec<(Tuple, *const _)> = state
        .run()
        .iter()
        .filter(|(t, _)| !removed.contains(t))
        .map(|(t, e)| (t.clone(), e.periods().as_ptr()))
        .collect();
    let mut reference = RefHistorical::from_state(&state);
    state.apply_delta(&removed, &upserted).unwrap();
    reference.apply_delta(&removed, &upserted).unwrap();
    assert_eq!(reference.to_state(), state);
    for (tuple, periods) in kept {
        let (_, element) = state.run().iter().find(|(t, _)| *t == tuple).unwrap();
        assert_eq!(element.periods().as_ptr(), periods, "{tuple} was copied");
    }
}

/// New elements for present tuples, on a run no other handle holds:
/// each entry keeps its own tuple handle (not the arrival's) and its
/// element buffer, whose periods are overwritten where they fit.
#[test]
fn a_revalue_writes_only_the_element() {
    let mut state = state_of(0..40, 0);
    let element = TemporalElement::period(50, 60);
    let upserted: Vec<Entry> = (0..40)
        .step_by(4)
        .map(|i| (entry(i).0, element.clone()))
        .collect();
    let held: Vec<(*const Value, *const _)> = state
        .run()
        .iter()
        .map(|(t, e)| (t.values().as_ptr(), e.periods().as_ptr()))
        .collect();
    let mut reference = RefHistorical::from_state(&state);
    state.apply_delta(&[], &upserted).unwrap();
    reference.apply_delta(&[], &upserted).unwrap();
    assert_eq!(reference.to_state(), state);
    for ((t, e), (tuple, periods)) in state.run().iter().zip(held) {
        assert_eq!(t.values().as_ptr(), tuple, "{t}'s tuple was replaced");
        assert_eq!(
            e.periods().as_ptr(),
            periods,
            "{t}'s element was reallocated"
        );
    }
}

/// Deltas that touch much of the run.
#[test]
fn many_change_deltas_match_reference() {
    let element = TemporalElement::period(50, 60);
    let evens: Vec<Tuple> = (0..40).filter(|i| i % 2 == 0).map(|i| entry(i).0).collect();
    let halves: Vec<_> = (0..40)
        .map(|i| (revalued(i, "s"), element.clone()))
        .collect();
    let all: Vec<Tuple> = (0..40).map(|i| entry(i).0).collect();
    let revalues: Vec<_> = (0..40).map(|i| (entry(i).0, element.clone())).collect();
    let fresh: Vec<_> = (100..140).map(entry).collect();
    let cases: [(&[Tuple], &[Entry]); 6] = [
        (&evens, &[]),
        (&[], &halves),
        (&evens, &halves),
        (&[], &revalues),
        (&all, &fresh),
        (&all, &[]),
    ];
    for (removed, upserted) in cases {
        edit_unique(state_of(0..40, 0), removed, upserted);
        edit_shared(&state_of(0..40, 0), removed, upserted);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random deltas over a 0–80-entry run: removals of present and
    /// absent tuples, upserts that restate, revalue or add entries, or
    /// land a twin tuple on either side of its original, on a run held
    /// once and on one held twice.
    #[test]
    fn random_edits_match_reference(
        ids in proptest::collection::vec(0i64..120, 0..80),
        removed in proptest::collection::vec(0i64..120, 0..60),
        upserted in proptest::collection::vec((0i64..120, 0u8..4), 0..60),
    ) {
        let removed: Vec<Tuple> = removed.into_iter().map(|id| entry(id).0).collect();
        let element = TemporalElement::period(50, 60);
        let upserted: Vec<_> = upserted
            .into_iter()
            .map(|(id, kind)| match kind {
                0 => entry(id),
                1 => (entry(id).0, element.clone()),
                2 => (revalued(id, "a"), element.clone()),
                _ => (revalued(id, "zz"), element.clone()),
            })
            .collect();
        edit_unique(state_of(ids.iter().copied(), 0), &removed, &upserted);
        edit_shared(&state_of(ids.iter().copied(), 0), &removed, &upserted);
    }
}
