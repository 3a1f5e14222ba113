//! A retained `BTreeMap`-backed reference implementation of the
//! historical algebra.
//!
//! [`RefHistorical`] preserves the pre-sorted-run formulation of every
//! historical operator (tree-backed states, per-entry map operations).
//! It exists so differential tests and benchmarks can check the
//! merge-kernel implementations in `crate::ops` byte-for-byte against an
//! independently-derived result — including error selection, which goes
//! through the same schema validation in the same order.

use std::collections::BTreeMap;

use txtime_snapshot::{Predicate, Tuple};

use crate::element::TemporalElement;
use crate::state::HistoricalState;
use crate::texpr::TemporalExpr;
use crate::tpred::TemporalPred;
use crate::Result;

/// A historical state held as a `BTreeMap`, with the map-based operator
/// algorithms the sorted-run kernels replaced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefHistorical {
    schema: txtime_snapshot::Schema,
    entries: BTreeMap<Tuple, TemporalElement>,
}

impl RefHistorical {
    /// Converts a production state into the reference representation.
    pub fn from_state(state: &HistoricalState) -> RefHistorical {
        RefHistorical {
            schema: state.schema().clone(),
            entries: state.entries(),
        }
    }

    /// Converts back into the production representation.
    pub fn to_state(&self) -> HistoricalState {
        HistoricalState::from_checked(self.schema.clone(), self.entries.clone())
    }

    /// The state's scheme.
    pub fn schema(&self) -> &txtime_snapshot::Schema {
        &self.schema
    }

    /// Number of distinct value tuples.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the state has no tuples.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Map-based `∪̂`: per-entry insert-or-union into a copy of the left
    /// map.
    pub fn hunion(&self, other: &RefHistorical) -> Result<RefHistorical> {
        self.schema.require_union_compatible(&other.schema)?;
        let mut entries = self.entries.clone();
        for (t, e) in &other.entries {
            match entries.get_mut(t) {
                Some(existing) => *existing = existing.union(e),
                None => {
                    entries.insert(t.clone(), e.clone());
                }
            }
        }
        Ok(RefHistorical {
            schema: self.schema.clone(),
            entries,
        })
    }

    /// Map-based `−̂`: per-entry lookup and element subtraction.
    pub fn hdifference(&self, other: &RefHistorical) -> Result<RefHistorical> {
        self.schema.require_union_compatible(&other.schema)?;
        let mut entries = BTreeMap::new();
        for (t, e) in &self.entries {
            let remaining = match other.entries.get(t) {
                Some(oe) => e.difference(oe),
                None => e.clone(),
            };
            if !remaining.is_empty() {
                entries.insert(t.clone(), remaining);
            }
        }
        Ok(RefHistorical {
            schema: self.schema.clone(),
            entries,
        })
    }

    /// Map-based `×̂`: per-pair insert with element intersection.
    pub fn hproduct(&self, other: &RefHistorical) -> Result<RefHistorical> {
        let schema = self.schema.product(&other.schema)?;
        let mut entries = BTreeMap::new();
        for (l, le) in &self.entries {
            for (r, re) in &other.entries {
                let e = le.intersect(re);
                if !e.is_empty() {
                    entries.insert(l.concat(r), e);
                }
            }
        }
        Ok(RefHistorical { schema, entries })
    }

    /// Map-based `π̂`: per-entry projected insert-or-union.
    pub fn hproject(&self, attrs: &[impl AsRef<str>]) -> Result<RefHistorical> {
        let (schema, indices) = self.schema.project(attrs)?;
        let mut entries: BTreeMap<Tuple, TemporalElement> = BTreeMap::new();
        for (t, e) in &self.entries {
            let p = t.project(&indices);
            match entries.get_mut(&p) {
                Some(existing) => *existing = existing.union(e),
                None => {
                    entries.insert(p, e.clone());
                }
            }
        }
        Ok(RefHistorical { schema, entries })
    }

    /// Map-based `σ̂`: filter into a fresh map.
    pub fn hselect(&self, predicate: &Predicate) -> Result<RefHistorical> {
        let compiled = predicate.compile(&self.schema)?;
        let entries = self
            .entries
            .iter()
            .filter(|(t, _)| compiled.eval(t))
            .map(|(t, e)| (t.clone(), e.clone()))
            .collect();
        Ok(RefHistorical {
            schema: self.schema.clone(),
            entries,
        })
    }

    /// Map-based `δ_{G,V}`.
    pub fn delta(&self, g: &TemporalPred, v: &TemporalExpr) -> Result<RefHistorical> {
        let mut entries = BTreeMap::new();
        for (t, e) in &self.entries {
            if g.eval(e) {
                let ne = v.eval(e);
                if !ne.is_empty() {
                    entries.insert(t.clone(), ne);
                }
            }
        }
        Ok(RefHistorical {
            schema: self.schema.clone(),
            entries,
        })
    }

    /// Per-entry delta replay: remove each removed tuple, then insert
    /// (replacing) each upserted entry — the map formulation of
    /// [`HistoricalState::apply_delta`].
    pub fn apply_delta(
        &mut self,
        removed: &[Tuple],
        upserted: &[(Tuple, TemporalElement)],
    ) -> Result<()> {
        for (t, e) in upserted {
            t.check(&self.schema)?;
            if e.is_empty() {
                return Err(crate::HistoricalError::EmptyValidTime);
            }
        }
        for t in removed {
            self.entries.remove(t);
        }
        for (t, e) in upserted {
            self.entries.insert(t.clone(), e.clone());
        }
        Ok(())
    }
}

/// The text of periods, elements and historical states as the
/// `write!`-based `Display` bodies produced it, before [`crate::encode`]
/// replaced them: the encoder's independent oracle, on top of
/// `txtime_snapshot::reference::render` for tuples and schemes. Compiled
/// for tests only.
#[cfg(test)]
pub mod render {
    use std::fmt::Write;

    use txtime_snapshot::reference::render::{schema, tuple};

    use crate::chronon::FOREVER;
    use crate::element::TemporalElement;
    use crate::period::Period;
    use crate::state::HistoricalState;

    const INFALLIBLE: &str = "writing to a String cannot fail";

    /// `[s, e)` or `[s, forever)`.
    pub fn period(p: &Period) -> String {
        if p.end() == FOREVER {
            format!("[{}, forever)", p.start())
        } else {
            format!("[{}, {})", p.start(), p.end())
        }
    }

    /// `{p1 ∪ p2 …}` or `{}`.
    pub fn element(e: &TemporalElement) -> String {
        if e.periods().is_empty() {
            return "{}".to_string();
        }
        let mut out = String::from("{");
        for (i, p) in e.periods().iter().enumerate() {
            if i > 0 {
                write!(out, " ∪ ").expect(INFALLIBLE);
            }
            write!(out, "{}", period(p)).expect(INFALLIBLE);
        }
        write!(out, "}}").expect(INFALLIBLE);
        out
    }

    /// `schema { t1 @ e1, t2 @ e2 }`, with a blank between the braces
    /// when empty.
    pub fn state(s: &HistoricalState) -> String {
        let mut out = String::new();
        write!(out, "{} {{", schema(s.schema())).expect(INFALLIBLE);
        let mut first = true;
        for (t, e) in s.iter() {
            if !first {
                write!(out, ",").expect(INFALLIBLE);
            }
            write!(out, " {} @ {}", tuple(t), element(e)).expect(INFALLIBLE);
            first = false;
        }
        write!(out, " }}").expect(INFALLIBLE);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Schema, Value};

    fn st(entries: &[(&str, u32, u32)]) -> HistoricalState {
        let schema = Schema::new(vec![("x", DomainType::Str)]).unwrap();
        HistoricalState::new(
            schema,
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
    fn round_trip_preserves_content() {
        let a = st(&[("a", 0, 5), ("b", 2, 8)]);
        assert_eq!(RefHistorical::from_state(&a).to_state(), a);
    }

    #[test]
    fn reference_ops_match_production_on_a_smoke_case() {
        let a = st(&[("a", 0, 5), ("b", 2, 8)]);
        let b = st(&[("a", 3, 9), ("c", 1, 4)]);
        let (ra, rb) = (RefHistorical::from_state(&a), RefHistorical::from_state(&b));
        assert_eq!(ra.hunion(&rb).unwrap().to_state(), a.hunion(&b).unwrap());
        assert_eq!(
            ra.hdifference(&rb).unwrap().to_state(),
            a.hdifference(&b).unwrap()
        );
        assert_eq!(
            ra.hproject(&["x"]).unwrap().to_state(),
            a.hproject(&["x"]).unwrap()
        );
        let pred = Predicate::eq_const("x", Value::str("a"));
        assert_eq!(
            ra.hselect(&pred).unwrap().to_state(),
            a.hselect(&pred).unwrap()
        );
        assert_eq!(
            ra.delta(&TemporalPred::valid_at(3), &TemporalExpr::ValidTime)
                .unwrap()
                .to_state(),
            a.delta(&TemporalPred::valid_at(3), &TemporalExpr::ValidTime)
                .unwrap()
        );
    }

    #[test]
    fn reference_apply_delta_matches_production() {
        let mut prod = st(&[("a", 0, 5), ("b", 2, 8)]);
        let mut reference = RefHistorical::from_state(&prod);
        let removed = vec![Tuple::new(vec![Value::str("b")])];
        let upserted = vec![
            (
                Tuple::new(vec![Value::str("a")]),
                TemporalElement::period(0, 9),
            ),
            (
                Tuple::new(vec![Value::str("z")]),
                TemporalElement::period(1, 2),
            ),
        ];
        prod.apply_delta(&removed, &upserted).unwrap();
        reference.apply_delta(&removed, &upserted).unwrap();
        assert_eq!(reference.to_state(), prod);
    }
}
