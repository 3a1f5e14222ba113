//! Historical difference (−̂).

use crate::ops::hmerge::hmerge_difference;
use crate::state::HistoricalState;
use crate::Result;

impl HistoricalState {
    /// Historical difference `E₁ −̂ E₂`.
    ///
    /// A fact survives exactly over the valid time it had in the left
    /// operand minus the valid time it had in the right; tuples whose
    /// valid time becomes empty disappear.
    ///
    /// The kernel is a one-pass merge: it walks the left run once and
    /// moves the right cursor only forward, past every match, searching
    /// for each left tuple from where the last search ended. Operands
    /// that interleave cost O(|left| + |right|) tuple comparisons, a
    /// right operand much the longer O(|left| · log(|right| / |left|)).
    /// When no element changes (including an empty right operand, or
    /// value/time-disjoint operands), the left run is reused as-is — an
    /// O(1) `Arc` clone.
    pub fn hdifference(&self, other: &HistoricalState) -> Result<HistoricalState> {
        self.schema().require_union_compatible(other.schema())?;
        if other.is_empty() || self.is_empty() {
            return Ok(self.clone());
        }
        if self.shares_run(other) {
            return Ok(HistoricalState::empty(self.schema().clone()));
        }
        let (out, changed) = hmerge_difference(self.run(), other.run());
        if !changed {
            return Ok(self.clone());
        }
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
    fn difference_subtracts_valid_time() {
        let d = st(&[("a", 0, 10)])
            .hdifference(&st(&[("a", 3, 5)]))
            .unwrap();
        let e = d.valid_time(&Tuple::new(vec![Value::str("a")])).unwrap();
        assert!(e.contains(0) && e.contains(2) && !e.contains(3) && e.contains(5));
    }

    #[test]
    fn fully_covered_tuples_disappear() {
        let d = st(&[("a", 2, 5)])
            .hdifference(&st(&[("a", 0, 10)]))
            .unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn unrelated_tuples_survive_intact() {
        let d = st(&[("a", 0, 5)]).hdifference(&st(&[("b", 0, 5)])).unwrap();
        assert_eq!(d, st(&[("a", 0, 5)]));
    }

    #[test]
    fn difference_with_self_is_empty() {
        let a = st(&[("a", 0, 5), ("b", 1, 9)]);
        assert!(a.hdifference(&a).unwrap().is_empty());
    }

    #[test]
    fn difference_identity_cases_share_the_run() {
        let a = st(&[("a", 0, 5), ("b", 1, 9)]);
        let kept = a.hdifference(&HistoricalState::empty(schema())).unwrap();
        assert!(a.shares_run(&kept));
        // Value-disjoint operands remove nothing.
        let disjoint = a.hdifference(&st(&[("z", 0, 99)])).unwrap();
        assert!(a.shares_run(&disjoint));
    }

    #[test]
    fn timeslice_correspondence() {
        let (a, b) = (st(&[("a", 0, 8), ("b", 2, 6)]), st(&[("a", 3, 12)]));
        let d = a.hdifference(&b).unwrap();
        for c in 0..14 {
            assert_eq!(
                d.timeslice(c),
                a.timeslice(c).difference(&b.timeslice(c)).unwrap(),
                "at chronon {c}"
            );
        }
    }
}
