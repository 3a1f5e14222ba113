//! Historical selection (σ̂).

use crate::state::HistoricalState;
use crate::Result;
use txtime_snapshot::{CompiledPredicate, Predicate};

impl HistoricalState {
    /// Historical selection `σ̂_F(E)`: filters on *value* attributes,
    /// leaving valid times untouched. Selection on valid time is the
    /// business of [`HistoricalState::delta`].
    ///
    /// The run is cut to the predicate's key range
    /// ([`CompiledPredicate::key_range`]: a binary search when the
    /// predicate compares the leading attributes of the scheme with
    /// constants, the whole run otherwise) and the entries inside are
    /// evaluated in one scan (a filtered sorted sequence stays sorted);
    /// when every entry passes, the input run is reused as-is — an O(1)
    /// `Arc` clone.
    pub fn hselect(&self, predicate: &Predicate) -> Result<HistoricalState> {
        Ok(self.hselect_compiled(&predicate.compile(self.schema())?))
    }

    /// [`HistoricalState::hselect`] with a predicate already compiled
    /// against this state's scheme.
    pub fn hselect_compiled(&self, compiled: &CompiledPredicate) -> HistoricalState {
        let range = compiled.key_range(self.run(), |(t, _)| t);
        let out: Vec<_> = self.run()[range]
            .iter()
            .filter(|(t, _)| compiled.eval(t))
            .cloned()
            .collect();
        if out.len() == self.len() {
            return self.clone();
        }
        HistoricalState::from_sorted_vec(self.schema().clone(), out)
    }
}

#[cfg(test)]
mod tests {
    use crate::{HistoricalState, TemporalElement};
    use txtime_snapshot::{DomainType, Predicate, Schema, Tuple, Value};

    fn emp() -> HistoricalState {
        let schema =
            Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap();
        HistoricalState::new(
            schema,
            vec![
                (
                    Tuple::new(vec![Value::str("alice"), Value::Int(100)]),
                    TemporalElement::period(0, 5),
                ),
                (
                    Tuple::new(vec![Value::str("bob"), Value::Int(200)]),
                    TemporalElement::period(3, 9),
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_filters_values() {
        let s = emp()
            .hselect(&Predicate::gt_const("sal", Value::Int(150)))
            .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.valid_time(&Tuple::new(vec![Value::str("bob"), Value::Int(200)]))
                .unwrap(),
            &TemporalElement::period(3, 9)
        );
    }

    #[test]
    fn select_on_the_leading_attribute_matches_a_scan() {
        use txtime_snapshot::{CompOp, Operand};
        for (op, want) in [
            (CompOp::Eq, 1),
            (CompOp::Lt, 1),
            (CompOp::Le, 2),
            (CompOp::Gt, 0),
            (CompOp::Ge, 1),
        ] {
            let p = Predicate::Comp(Operand::attr("name"), op, Operand::Const(Value::str("bob")));
            assert_eq!(emp().hselect(&p).unwrap().len(), want, "{p}");
        }
        let e = emp();
        let all = e
            .hselect(&Predicate::gt_const("name", Value::str("a")))
            .unwrap();
        assert!(e.shares_run(&all));
    }

    #[test]
    fn select_true_is_identity() {
        assert_eq!(emp().hselect(&Predicate::True).unwrap(), emp());
    }

    #[test]
    fn select_validates_predicate() {
        assert!(emp()
            .hselect(&Predicate::eq_const("wage", Value::Int(1)))
            .is_err());
    }

    #[test]
    fn timeslice_correspondence() {
        let e = emp();
        let f = Predicate::gt_const("sal", Value::Int(150));
        let s = e.hselect(&f).unwrap();
        for c in 0..11 {
            assert_eq!(
                s.timeslice(c),
                e.timeslice(c).select(&f).unwrap(),
                "at chronon {c}"
            );
        }
    }
}
