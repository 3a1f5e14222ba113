//! Reference BTree implementation of the snapshot algebra.
//!
//! This module retains the pre-sorted-run representation — a
//! `BTreeSet<Tuple>` with per-element tree inserts — exactly as the
//! operators used to compute it. It exists for two purposes:
//!
//! 1. **Differential testing**: the sorted-run kernels must agree
//!    byte-for-byte (values *and* error selection) with these definitions
//!    on every input; the proptest suites in `tests/` enforce it.
//! 2. **Benchmark baselines**: experiment E14 measures the sorted-run
//!    kernels against this layout on identical workloads.
//!
//! It is deliberately *not* optimized: no identity shortcuts beyond what
//! validation requires, no sharing, no interning.

use std::collections::BTreeSet;

use crate::predicate::Predicate;
use crate::schema::Schema;
use crate::state::SnapshotState;
use crate::tuple::Tuple;
use crate::Result;

/// A snapshot state held as a `BTreeSet`, with the original tree-insert
/// operator implementations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSnapshot {
    schema: Schema,
    tuples: BTreeSet<Tuple>,
}

impl RefSnapshot {
    /// Converts from the production representation.
    pub fn from_state(state: &SnapshotState) -> RefSnapshot {
        RefSnapshot {
            schema: state.schema().clone(),
            tuples: state.tuples(),
        }
    }

    /// Converts back to the production representation (for equality
    /// comparison in differential tests).
    pub fn to_state(&self) -> SnapshotState {
        SnapshotState::from_checked(self.schema.clone(), self.tuples.clone())
    }

    /// The state's scheme.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the state has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Set union via per-element tree inserts.
    pub fn union(&self, other: &RefSnapshot) -> Result<RefSnapshot> {
        self.schema.require_union_compatible(&other.schema)?;
        let mut tuples = self.tuples.clone();
        for t in &other.tuples {
            tuples.insert(t.clone());
        }
        Ok(RefSnapshot {
            schema: self.schema.clone(),
            tuples,
        })
    }

    /// Set difference via per-element membership probes.
    pub fn difference(&self, other: &RefSnapshot) -> Result<RefSnapshot> {
        self.schema.require_union_compatible(&other.schema)?;
        let tuples = self
            .tuples
            .iter()
            .filter(|t| !other.tuples.contains(*t))
            .cloned()
            .collect();
        Ok(RefSnapshot {
            schema: self.schema.clone(),
            tuples,
        })
    }

    /// Cartesian product via nested-loop tree inserts.
    pub fn product(&self, other: &RefSnapshot) -> Result<RefSnapshot> {
        let schema = self.schema.product(&other.schema)?;
        let mut tuples = BTreeSet::new();
        for l in &self.tuples {
            for r in &other.tuples {
                tuples.insert(l.concat(r));
            }
        }
        Ok(RefSnapshot { schema, tuples })
    }

    /// Projection via tree inserts (set semantics collapse duplicates).
    pub fn project(&self, attrs: &[impl AsRef<str>]) -> Result<RefSnapshot> {
        let (schema, indices) = self.schema.project(attrs)?;
        let mut tuples = BTreeSet::new();
        for t in &self.tuples {
            tuples.insert(t.project(&indices));
        }
        Ok(RefSnapshot { schema, tuples })
    }

    /// Selection via a filtered rebuild.
    pub fn select(&self, predicate: &Predicate) -> Result<RefSnapshot> {
        let compiled = predicate.compile(&self.schema)?;
        let tuples = self
            .tuples
            .iter()
            .filter(|t| compiled.eval(t))
            .cloned()
            .collect();
        Ok(RefSnapshot {
            schema: self.schema.clone(),
            tuples,
        })
    }

    /// Delta replay via per-element `remove`/`insert` — the original
    /// storage-backend kernel (removals first, then insertions).
    pub fn apply_delta(&mut self, removed: &[Tuple], added: &[Tuple]) -> Result<()> {
        for t in added {
            t.check(&self.schema)?;
        }
        for t in removed {
            self.tuples.remove(t);
        }
        for t in added {
            self.tuples.insert(t.clone());
        }
        Ok(())
    }
}

/// The text of values, tuples, schemes and states as the `write!`-based
/// `Display` bodies produced it, before [`crate::encode`] replaced them.
///
/// Kept as the encoder's independent oracle: the server's replies are
/// checked against the core evaluator's rendering, which is the encoder
/// too, so only this module can catch an encoder that changes the text.
/// Compiled for tests only: `txtime-historical`'s tests reach it through
/// the `test-support` feature.
#[cfg(any(test, feature = "test-support"))]
pub mod render {
    use std::fmt::Write;

    use crate::schema::Schema;
    use crate::state::SnapshotState;
    use crate::tuple::Tuple;
    use crate::value::Value;

    const INFALLIBLE: &str = "writing to a String cannot fail";

    /// `{i}`, `{r}`, `{b}` or `{s:?}`.
    pub fn value(v: &Value) -> String {
        let mut out = String::new();
        match v {
            Value::Int(i) => write!(out, "{i}"),
            Value::Real(r) => write!(out, "{r}"),
            Value::Bool(b) => write!(out, "{b}"),
            Value::Str(s) => write!(out, "{s:?}"),
        }
        .expect(INFALLIBLE);
        out
    }

    /// `(v1, v2, …)`.
    pub fn tuple(t: &Tuple) -> String {
        let mut out = String::new();
        write!(out, "(").expect(INFALLIBLE);
        for (i, v) in t.values().iter().enumerate() {
            if i > 0 {
                write!(out, ", ").expect(INFALLIBLE);
            }
            write!(out, "{}", value(v)).expect(INFALLIBLE);
        }
        write!(out, ")").expect(INFALLIBLE);
        out
    }

    /// `(a1: d1, a2: d2, …)`.
    pub fn schema(s: &Schema) -> String {
        let mut out = String::new();
        write!(out, "(").expect(INFALLIBLE);
        for (i, a) in s.attributes().iter().enumerate() {
            if i > 0 {
                write!(out, ", ").expect(INFALLIBLE);
            }
            write!(out, "{}: {}", a.name, a.domain.keyword()).expect(INFALLIBLE);
        }
        write!(out, ")").expect(INFALLIBLE);
        out
    }

    /// `schema { t1, t2 }`, with a blank between the braces when empty.
    pub fn state(s: &SnapshotState) -> String {
        let mut out = String::new();
        write!(out, "{} {{", schema(s.schema())).expect(INFALLIBLE);
        let mut first = true;
        for t in s.iter() {
            if !first {
                write!(out, ",").expect(INFALLIBLE);
            }
            write!(out, " {}", tuple(t)).expect(INFALLIBLE);
            first = false;
        }
        write!(out, " }}").expect(INFALLIBLE);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainType, Value};

    fn state(vals: &[i64]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    #[test]
    fn round_trip_preserves_content() {
        let s = state(&[3, 1, 2]);
        assert_eq!(RefSnapshot::from_state(&s).to_state(), s);
    }

    #[test]
    fn reference_ops_match_production_on_a_smoke_case() {
        let (a, b) = (state(&[1, 2, 3]), state(&[2, 3, 4]));
        let (ra, rb) = (RefSnapshot::from_state(&a), RefSnapshot::from_state(&b));
        assert_eq!(ra.union(&rb).unwrap().to_state(), a.union(&b).unwrap());
        assert_eq!(
            ra.difference(&rb).unwrap().to_state(),
            a.difference(&b).unwrap()
        );
    }
}
