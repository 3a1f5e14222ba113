//! Differential property tests for the sorted-run delta replay: the
//! merge-based `StateDelta::apply_in_place` agrees byte-for-byte with the
//! per-element `BTreeSet`/`BTreeMap` reference replay, and the store,
//! under every checkpoint policy, reconstructs every version of a random
//! chain byte for byte — including kind changes (snapshot ↔ historical), scheme changes
//! (forced `Reschema` boundaries), and empty states.

use proptest::prelude::*;

use txtime_core::{StateValue, TransactionNumber};
use txtime_historical::generate::{random_historical_state, HistGenConfig};
use txtime_historical::reference::RefHistorical;
use txtime_snapshot::generate::{random_state, GenConfig};
use txtime_snapshot::reference::RefSnapshot;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};
use txtime_snapshot::{DomainType, Schema};
use txtime_storage::{CheckpointPolicy, DeltaStore, StateDelta};

fn schema_a() -> Schema {
    Schema::new(vec![("a0", DomainType::Int), ("a1", DomainType::Str)]).unwrap()
}

fn schema_b() -> Schema {
    Schema::new(vec![("b0", DomainType::Str)]).unwrap()
}

/// A random chain of states mixing snapshot and historical kinds, two
/// schemes (so kind/scheme changes produce `Reschema` deltas), and empty
/// states (cardinality 0).
fn random_chain(seed: u64, len: usize) -> Vec<StateValue> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            let schema = if rng.gen_bool(0.15) {
                schema_b()
            } else {
                schema_a()
            };
            let cardinality = if rng.gen_bool(0.1) {
                0
            } else {
                rng.gen_range(1..20)
            };
            let values = GenConfig {
                arity: schema.arity(),
                cardinality,
                int_range: 10,
                str_pool: 5,
            };
            if rng.gen_bool(0.4) {
                let cfg = HistGenConfig {
                    values,
                    horizon: 40,
                    max_periods: 2,
                };
                StateValue::Historical(random_historical_state(&mut rng, &schema, &cfg))
            } else {
                StateValue::Snapshot(random_state(&mut rng, &schema, &values))
            }
        })
        .collect()
}

/// The reference replay: the same delta applied with the per-element
/// tree algorithms (`RefSnapshot`/`RefHistorical::apply_delta`).
fn apply_reference(delta: &StateDelta, base: &StateValue) -> StateValue {
    match (delta, base) {
        (StateDelta::Snapshot { added, removed }, StateValue::Snapshot(s)) => {
            let mut r = RefSnapshot::from_state(s);
            r.apply_delta(removed, added).unwrap();
            StateValue::Snapshot(r.to_state())
        }
        (StateDelta::Historical { upserted, removed }, StateValue::Historical(h)) => {
            let mut r = RefHistorical::from_state(h);
            r.apply_delta(removed, upserted).unwrap();
            StateValue::Historical(r.to_state())
        }
        (StateDelta::Reschema(s), _) => (**s).clone(),
        _ => panic!("delta kind does not match base state kind"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn apply_in_place_matches_reference_replay(seed in any::<u64>(), len in 2usize..12) {
        let chain = random_chain(seed, len);
        let mut working = chain[0].clone();
        for w in chain.windows(2) {
            let delta = StateDelta::between(&w[0], &w[1]);
            let expected = apply_reference(&delta, &working);
            delta.apply_in_place(&mut working);
            // Merge replay ≡ per-element tree replay ≡ the target state.
            prop_assert_eq!(&working, &expected);
            prop_assert_eq!(&working, &w[1]);
        }
    }

    #[test]
    fn every_policy_reconstructs_every_version(seed in any::<u64>(), len in 1usize..10) {
        let chain = random_chain(seed, len);
        // Sparse transaction numbers: version `i` commits at `2i + 1`, so
        // a probe between versions must floor to the version at or below
        // it (FINDSTATE), and before the first there is none.
        let probes: Vec<TransactionNumber> = (0..=2 * len as u64 + 1).map(TransactionNumber).collect();
        let want: Vec<Option<StateValue>> = probes
            .iter()
            .map(|tx| (tx.0 as usize).div_ceil(2).checked_sub(1).map(|i| chain[i.min(len - 1)].clone()))
            .collect();
        let every = [1, 3].map(|k| CheckpointPolicy::every_k(k).unwrap());
        for policy in [CheckpointPolicy::Never, every[0], every[1]] {
            let mut store = DeltaStore::new(policy, None);
            for (i, state) in chain.iter().enumerate() {
                store.append(state, TransactionNumber(2 * i as u64 + 1));
            }
            let got: Vec<_> = probes.iter().map(|&tx| store.state_at(tx)).collect();
            prop_assert_eq!(&want, &got, "{:?} state_at", policy);
            prop_assert_eq!(&want, &store.state_at_many(&probes), "{:?} state_at_many", policy);
            prop_assert_eq!(chain.last().cloned(), store.current(), "{:?} current", policy);
        }
    }
}
