//! Set union (∪).

use crate::ops::merge::merge_union;
use crate::state::SnapshotState;
use crate::Result;

impl SnapshotState {
    /// Set union of two union-compatible states.
    ///
    /// `E₁ ∪ E₂` contains every tuple in either operand; duplicates
    /// collapse by the set semantics of states.
    ///
    /// The kernel is a single two-pointer merge over the operands' sorted
    /// runs. When one operand is empty, already contains the other, or
    /// both share the same underlying run, the surviving side's run is
    /// reused as-is — an O(1) `Arc` clone, no tuple is copied. Subsumption
    /// is detected *after* the merge by comparing output and operand
    /// lengths (|A ∪ B| = |A| exactly when B ⊆ A), so the common case
    /// costs one pass and no probe.
    pub fn union(&self, other: &SnapshotState) -> Result<SnapshotState> {
        self.schema().require_union_compatible(other.schema())?;
        if other.is_empty() || self.shares_run(other) {
            return Ok(self.clone());
        }
        if self.is_empty() {
            return Ok(SnapshotState::from_shared(
                self.schema().clone(),
                other.shared_run().clone(),
            ));
        }
        let out = merge_union(self.run(), other.run());
        if out.len() == self.len() {
            return Ok(self.clone());
        }
        if out.len() == other.len() {
            return Ok(SnapshotState::from_shared(
                self.schema().clone(),
                other.shared_run().clone(),
            ));
        }
        Ok(SnapshotState::from_sorted_vec(self.schema().clone(), out))
    }
}

#[cfg(test)]
mod tests {
    use crate::{DomainType, Schema, SnapshotState, Value};

    fn schema() -> Schema {
        Schema::new(vec![("x", DomainType::Int)]).unwrap()
    }

    fn state(vals: &[i64]) -> SnapshotState {
        SnapshotState::from_rows(schema(), vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    #[test]
    fn union_merges_and_deduplicates() {
        let u = state(&[1, 2]).union(&state(&[2, 3])).unwrap();
        assert_eq!(u, state(&[1, 2, 3]));
    }

    #[test]
    fn union_with_empty_is_identity() {
        let s = state(&[1, 2]);
        assert_eq!(s.union(&state(&[])).unwrap(), s);
        assert_eq!(state(&[]).union(&s).unwrap(), s);
    }

    #[test]
    fn union_is_commutative() {
        let (a, b) = (state(&[1, 5]), state(&[5, 9]));
        assert_eq!(a.union(&b).unwrap(), b.union(&a).unwrap());
    }

    #[test]
    fn union_is_associative() {
        let (a, b, c) = (state(&[1]), state(&[2]), state(&[3]));
        assert_eq!(
            a.union(&b).unwrap().union(&c).unwrap(),
            a.union(&b.union(&c).unwrap()).unwrap()
        );
    }

    #[test]
    fn union_is_idempotent() {
        let a = state(&[1, 2]);
        assert_eq!(a.union(&a).unwrap(), a);
    }

    #[test]
    fn union_with_empty_shares_the_run() {
        // The identity cases are O(1): the surviving operand's Arc'd run
        // is reused, not copied.
        let s = state(&[1, 2]);
        let right_empty = s.union(&state(&[])).unwrap();
        assert!(s.shares_run(&right_empty));
        let left_empty = state(&[]).union(&s).unwrap();
        assert!(s.shares_run(&left_empty));
    }

    #[test]
    fn union_with_subset_shares_the_superset() {
        let big = state(&[1, 2, 3, 4]);
        let small = state(&[2, 3]);
        let r = big.union(&small).unwrap();
        assert!(big.shares_run(&r));
        let l = small.union(&big).unwrap();
        assert!(big.shares_run(&l));
        let same = big.union(&big).unwrap();
        assert!(big.shares_run(&same));
    }

    #[test]
    fn union_requires_compatibility() {
        let other = Schema::new(vec![("y", DomainType::Int)]).unwrap();
        let o = SnapshotState::empty(other);
        assert!(state(&[1]).union(&o).is_err());
    }

    #[test]
    fn union_folds_partitions() {
        // Parts of a state, overlapping and empty ones included, fold
        // back into the whole in any order.
        let parts = [state(&[1, 4]), state(&[2]), state(&[]), state(&[3, 4])];
        for order in [[0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]] {
            let u = order
                .iter()
                .try_fold(state(&[]), |acc, &i| acc.union(&parts[i]))
                .unwrap();
            assert_eq!(u, state(&[1, 2, 3, 4]), "order {order:?}");
        }
    }
}
