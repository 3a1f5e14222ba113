//! Selection (σ).

use crate::predicate::{CompiledPredicate, Predicate};
use crate::run::is_strictly_sorted;
use crate::state::SnapshotState;
use crate::tuple::Tuple;
use crate::Result;

impl SnapshotState {
    /// Selection `σ_F(E)`: the tuples satisfying predicate `F`.
    ///
    /// The predicate is validated against the state's scheme and compiled
    /// once; the run is then cut to the predicate's key range
    /// ([`CompiledPredicate::key_range`]: a binary search when the
    /// predicate compares the leading attributes of the scheme with
    /// constants, the whole run otherwise) and the rows inside are
    /// evaluated in one scan — filtering preserves canonical order. When
    /// every tuple passes, the input run is reused as-is (an O(1) `Arc`
    /// clone).
    pub fn select(&self, predicate: &Predicate) -> Result<SnapshotState> {
        Ok(self.select_compiled(&predicate.compile(self.schema())?))
    }

    /// [`SnapshotState::select`] with a predicate already compiled
    /// against this state's scheme.
    pub fn select_compiled(&self, compiled: &CompiledPredicate) -> SnapshotState {
        let range = compiled.key_range(self.run(), |t| t);
        let out: Vec<_> = self.run()[range]
            .iter()
            .filter(|t| compiled.eval(t))
            .cloned()
            .collect();
        if out.len() == self.len() {
            return self.clone();
        }
        SnapshotState::from_sorted_vec(self.schema().clone(), out)
    }

    /// `π_X(σ_F((self − removed) ∪ added))` in one pass, with `F`
    /// compiled against this state's scheme: the filtered read of a past
    /// version that a checkpoint (`self`) and a net delta carry.
    ///
    /// The checkpoint's rows in `F`'s key range are read where they lie;
    /// a row `F` accepts is looked up in `removed` (ascending, as a delta
    /// lists it) by a merge cursor, and only the kept rows' projections
    /// are built, so no stored tuple is cloned. As with `apply_delta`, a tuple both
    /// removed and added is in the result. Fails, as `project` does, on
    /// an unknown or repeated attribute name.
    pub fn select_project_delta(
        &self,
        compiled: &CompiledPredicate,
        attrs: &[impl AsRef<str>],
        removed: &[Tuple],
        added: &[Tuple],
    ) -> Result<SnapshotState> {
        debug_assert!(is_strictly_sorted(removed), "removals must be ascending");
        let (schema, indices) = self.schema().project(attrs)?;
        let range = compiled.key_range(self.run(), |t| t);
        let mut gone = removed.iter().peekable();
        let mut out = Vec::new();
        for t in self.run()[range].iter().filter(|t| compiled.eval(t)) {
            while gone.next_if(|r| *r < t).is_some() {}
            if gone.next_if(|r| *r == t).is_none() {
                out.push(t.project(&indices));
            }
        }
        out.extend(
            added
                .iter()
                .filter(|t| compiled.eval(t))
                .map(|t| t.project(&indices)),
        );
        Ok(SnapshotState::from_unsorted_vec(schema, out))
    }
}

#[cfg(test)]
mod tests {
    use crate::{DomainType, Predicate, Schema, SnapshotState, Value};

    fn emp() -> SnapshotState {
        let schema =
            Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(
            schema,
            vec![
                vec![Value::str("alice"), Value::Int(100)],
                vec![Value::str("bob"), Value::Int(200)],
                vec![Value::str("carol"), Value::Int(300)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn select_filters() {
        let s = emp()
            .select(&Predicate::gt_const("sal", Value::Int(150)))
            .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.schema(), emp().schema());
    }

    #[test]
    fn select_true_is_identity() {
        assert_eq!(emp().select(&Predicate::True).unwrap(), emp());
    }

    #[test]
    fn select_false_is_empty() {
        assert!(emp().select(&Predicate::False).unwrap().is_empty());
    }

    #[test]
    fn select_commutes() {
        // σ_F1(σ_F2(E)) = σ_F2(σ_F1(E)) — the commutativity the paper
        // promises is preserved.
        let f1 = Predicate::gt_const("sal", Value::Int(150));
        let f2 = Predicate::lt_const("sal", Value::Int(250));
        let a = emp().select(&f1).unwrap().select(&f2).unwrap();
        let b = emp().select(&f2).unwrap().select(&f1).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn cascaded_select_equals_conjunction() {
        let f1 = Predicate::gt_const("sal", Value::Int(150));
        let f2 = Predicate::lt_const("sal", Value::Int(250));
        let cascaded = emp().select(&f1).unwrap().select(&f2).unwrap();
        let conj = emp().select(&f1.clone().and(f2)).unwrap();
        assert_eq!(cascaded, conj);
    }

    #[test]
    fn select_is_idempotent() {
        let f = Predicate::gt_const("sal", Value::Int(150));
        let once = emp().select(&f).unwrap();
        assert_eq!(once.select(&f).unwrap(), once);
    }

    #[test]
    fn select_on_the_leading_attribute_matches_a_scan() {
        let lo = Predicate::Comp(
            crate::Operand::attr("name"),
            crate::CompOp::Ge,
            crate::Operand::Const(Value::str("b")),
        );
        let s = emp().select(&lo).unwrap();
        assert_eq!(s.len(), 2);
        let one = emp()
            .select(&Predicate::eq_const("name", Value::str("bob")))
            .unwrap();
        assert_eq!(one.len(), 1);
        let none = emp()
            .select(&Predicate::eq_const("name", Value::str("bobby")))
            .unwrap();
        assert!(none.is_empty());
        // Everything passes: the run is shared, range or no range.
        let e = emp();
        let all = e
            .select(&Predicate::Comp(
                crate::Operand::attr("name"),
                crate::CompOp::Ge,
                crate::Operand::Const(Value::str("a")),
            ))
            .unwrap();
        assert!(e.shares_run(&all));
    }

    #[test]
    fn select_validates_predicate() {
        assert!(emp()
            .select(&Predicate::eq_const("wage", Value::Int(1)))
            .is_err());
        assert!(emp()
            .select(&Predicate::eq_const("sal", Value::str("x")))
            .is_err());
    }
}
