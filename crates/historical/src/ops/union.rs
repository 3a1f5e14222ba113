//! Historical union (∪̂).

use crate::ops::hmerge::hmerge_union;
use crate::state::HistoricalState;
use crate::Result;

impl HistoricalState {
    /// Historical union `E₁ ∪̂ E₂`.
    ///
    /// Value-equivalent tuples merge, their valid times unioned: a fact
    /// appears in the result valid whenever it was valid in *either*
    /// operand.
    ///
    /// The kernel is a single two-pointer merge over the operands' sorted
    /// runs. When one operand is empty, or both share the same underlying
    /// run (idempotence), the surviving side's run is reused as-is — an
    /// O(1) `Arc` clone.
    pub fn hunion(&self, other: &HistoricalState) -> Result<HistoricalState> {
        self.schema().require_union_compatible(other.schema())?;
        if other.is_empty() || self.shares_run(other) {
            return Ok(self.clone());
        }
        if self.is_empty() {
            return Ok(HistoricalState::from_shared(
                self.schema().clone(),
                other.shared_run().clone(),
            ));
        }
        let out = hmerge_union(self.run(), other.run());
        Ok(HistoricalState::from_sorted_vec(self.schema().clone(), out))
    }
}

#[cfg(test)]
mod tests {
    use crate::{HistoricalState, TemporalElement};
    use txtime_snapshot::{DomainType, Schema, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![("x", DomainType::Str)]).unwrap()
    }

    fn st(entries: &[(&str, u32, u32)]) -> HistoricalState {
        HistoricalState::new(
            schema(),
            entries.iter().map(|&(v, s, e)| {
                (
                    Tuple::new(vec![Value::str(v)]),
                    TemporalElement::period(s, e),
                )
            }),
        )
        .unwrap()
    }

    #[test]
    fn union_merges_valid_times() {
        let u = st(&[("a", 0, 5)]).hunion(&st(&[("a", 5, 10)])).unwrap();
        assert_eq!(u, st(&[("a", 0, 10)]));
    }

    #[test]
    fn union_keeps_distinct_tuples() {
        let u = st(&[("a", 0, 5)]).hunion(&st(&[("b", 0, 5)])).unwrap();
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn union_commutative_and_idempotent() {
        let (a, b) = (st(&[("a", 0, 5), ("b", 2, 8)]), st(&[("a", 3, 9)]));
        assert_eq!(a.hunion(&b).unwrap(), b.hunion(&a).unwrap());
        assert_eq!(a.hunion(&a).unwrap(), a);
    }

    #[test]
    fn union_with_empty_shares_the_run() {
        let a = st(&[("a", 0, 5), ("b", 2, 8)]);
        let empty = HistoricalState::empty(schema());
        let left = a.hunion(&empty).unwrap();
        assert!(a.shares_run(&left));
        let right = empty.hunion(&a).unwrap();
        assert!(a.shares_run(&right));
    }

    #[test]
    fn union_requires_compatibility() {
        let other = Schema::new(vec![("y", DomainType::Str)]).unwrap();
        assert!(st(&[("a", 0, 1)])
            .hunion(&HistoricalState::empty(other))
            .is_err());
    }

    #[test]
    fn hunion_folds_partitions() {
        // A tuple's valid time split across parts coalesces again, in any
        // order, with an empty part in the way.
        let parts = [
            st(&[("a", 0, 5)]),
            st(&[("a", 5, 10), ("b", 0, 2)]),
            HistoricalState::empty(schema()),
            st(&[("a", 3, 7)]),
        ];
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let u = order
                .iter()
                .try_fold(HistoricalState::empty(schema()), |acc, &i| {
                    acc.hunion(&parts[i])
                })
                .unwrap();
            assert_eq!(u, st(&[("a", 0, 10), ("b", 0, 2)]), "order {order:?}");
        }
    }

    #[test]
    fn timeslice_correspondence() {
        let (a, b) = (st(&[("a", 0, 5), ("b", 2, 8)]), st(&[("a", 3, 9)]));
        let u = a.hunion(&b).unwrap();
        for c in 0..12 {
            assert_eq!(
                u.timeslice(c),
                a.timeslice(c).union(&b.timeslice(c)).unwrap(),
                "at chronon {c}"
            );
        }
    }
}
