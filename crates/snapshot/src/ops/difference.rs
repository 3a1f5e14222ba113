//! Set difference (−).

use crate::ops::merge::merge_difference;
use crate::state::SnapshotState;
use crate::Result;

impl SnapshotState {
    /// Set difference of two union-compatible states.
    ///
    /// `E₁ − E₂` contains the tuples of the left operand that do not
    /// appear in the right operand.
    ///
    /// The kernel is a one-pass merge: it walks the left run once and
    /// moves the right cursor only forward, past every match, searching
    /// for each left tuple from where the last search ended. Operands
    /// that interleave cost O(|left| + |right|) comparisons, a right
    /// operand much the longer O(|left| · log(|right| / |left|)). When
    /// nothing is removed (including an empty right operand) the left
    /// run is reused as-is — an O(1) `Arc` clone.
    pub fn difference(&self, other: &SnapshotState) -> Result<SnapshotState> {
        self.schema().require_union_compatible(other.schema())?;
        if other.is_empty() || self.is_empty() {
            return Ok(self.clone());
        }
        if self.shares_run(other) {
            return Ok(SnapshotState::empty(self.schema().clone()));
        }
        let out = merge_difference(self.run(), other.run());
        if out.len() == self.len() {
            // Disjoint operands: nothing was removed, share the left run.
            return Ok(self.clone());
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
    fn difference_removes_common_tuples() {
        assert_eq!(
            state(&[1, 2, 3]).difference(&state(&[2, 4])).unwrap(),
            state(&[1, 3])
        );
    }

    #[test]
    fn difference_with_empty_is_identity() {
        let s = state(&[1, 2]);
        assert_eq!(s.difference(&state(&[])).unwrap(), s);
    }

    #[test]
    fn difference_with_self_is_empty() {
        let s = state(&[1, 2]);
        assert!(s.difference(&s).unwrap().is_empty());
    }

    #[test]
    fn difference_is_not_commutative() {
        let (a, b) = (state(&[1, 2]), state(&[2, 3]));
        assert_ne!(a.difference(&b).unwrap(), b.difference(&a).unwrap());
    }

    #[test]
    fn difference_identity_cases_share_the_run() {
        let s = state(&[1, 2]);
        let kept = s.difference(&state(&[])).unwrap();
        assert!(s.shares_run(&kept));
        // Disjoint operands remove nothing, so the left run is shared.
        let disjoint = s.difference(&state(&[7, 8])).unwrap();
        assert!(s.shares_run(&disjoint));
    }

    #[test]
    fn difference_against_large_right_operand() {
        // A right operand much larger than the left exercises the
        // galloping cursor; the answer must match the set semantics.
        let left: Vec<i64> = (0..64).collect();
        let right: Vec<i64> = (0..640).filter(|v| v % 3 == 0).collect();
        let expect: Vec<i64> = (0..64).filter(|v| v % 3 != 0).collect();
        assert_eq!(
            state(&left).difference(&state(&right)).unwrap(),
            state(&expect)
        );
    }

    #[test]
    fn difference_requires_compatibility() {
        let other = Schema::new(vec![("y", DomainType::Int)]).unwrap();
        assert!(state(&[1])
            .difference(&SnapshotState::empty(other))
            .is_err());
    }

    #[test]
    fn intersection_via_double_difference() {
        // R ∩ S = R − (R − S): the classical derivation holds.
        let (r, s) = (state(&[1, 2, 3]), state(&[2, 3, 4]));
        let via_diff = r.difference(&r.difference(&s).unwrap()).unwrap();
        assert_eq!(via_diff, state(&[2, 3]));
    }
}
