//! Tuples: immutable, cheaply clonable value sequences.

use std::fmt;
use std::sync::Arc;

use crate::error::SnapshotError;
use crate::schema::Schema;
use crate::value::Value;
use crate::Result;

/// An immutable tuple of attribute values.
///
/// The payload is reference-counted, so cloning a tuple — which the
/// persistent full-copy semantics of rollback relations does constantly —
/// is O(1).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Tuple {
    values: Arc<[Value]>,
}

impl PartialOrd for Tuple {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Tuple {
    /// Lexicographic value order (same as the former derived order), with a
    /// pointer fast path: a tuple compared against a clone of itself — the
    /// common case inside sorted-run merge kernels, where both operands
    /// often share tuples with a parent state — settles without touching
    /// the payload.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if Arc::ptr_eq(&self.values, &other.values) {
            std::cmp::Ordering::Equal
        } else {
            self.values.cmp(&other.values)
        }
    }
}

impl Tuple {
    /// Creates a tuple from values; no scheme checking is performed here
    /// (see [`Tuple::check`]).
    pub fn new(values: Vec<Value>) -> Tuple {
        Tuple {
            values: values.into(),
        }
    }

    /// The values, in attribute order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The value at `index`.
    pub fn get(&self, index: usize) -> &Value {
        &self.values[index]
    }

    /// Validates this tuple against a scheme: arity and per-attribute
    /// domain membership.
    pub fn check(&self, schema: &Schema) -> Result<()> {
        if self.arity() != schema.arity() {
            return Err(SnapshotError::ArityMismatch {
                expected: schema.arity(),
                found: self.arity(),
            });
        }
        for (v, a) in self.values.iter().zip(schema.attributes()) {
            if v.domain() != a.domain {
                return Err(SnapshotError::DomainMismatch {
                    attribute: a.name.to_string(),
                    expected: a.domain,
                    found: v.domain(),
                });
            }
        }
        Ok(())
    }

    /// The sub-tuple given by `indices` (as produced by
    /// [`Schema::project`]).
    pub fn project(&self, indices: &[usize]) -> Tuple {
        Tuple::new(indices.iter().map(|&i| self.values[i].clone()).collect())
    }

    /// Concatenation for cartesian products.
    pub fn concat(&self, other: &Tuple) -> Tuple {
        let mut v = Vec::with_capacity(self.arity() + other.arity());
        v.extend_from_slice(&self.values);
        v.extend_from_slice(&other.values);
        Tuple::new(v)
    }

    /// Whether two tuples share the same payload allocation (used by the
    /// interner to detect no-op rewrites).
    pub(crate) fn shares_values(&self, other: &Tuple) -> bool {
        Arc::ptr_eq(&self.values, &other.values)
    }

    /// Approximate footprint in bytes for space accounting.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Tuple>() + self.values.iter().map(Value::size_bytes).sum::<usize>()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::encode::encode(f, |e| e.tuple(self))
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Tuple {
        Tuple::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainType;

    fn schema() -> Schema {
        Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap()
    }

    fn alice() -> Tuple {
        Tuple::new(vec![Value::str("alice"), Value::Int(100)])
    }

    #[test]
    fn check_accepts_well_typed() {
        assert!(alice().check(&schema()).is_ok());
    }

    #[test]
    fn check_rejects_wrong_arity() {
        let t = Tuple::new(vec![Value::str("alice")]);
        assert!(matches!(
            t.check(&schema()),
            Err(SnapshotError::ArityMismatch {
                expected: 2,
                found: 1
            })
        ));
    }

    #[test]
    fn check_rejects_wrong_domain() {
        let t = Tuple::new(vec![Value::Int(1), Value::Int(100)]);
        assert!(matches!(
            t.check(&schema()),
            Err(SnapshotError::DomainMismatch { .. })
        ));
    }

    #[test]
    fn projection_reorders() {
        let t = alice();
        let p = t.project(&[1, 0]);
        assert_eq!(p.get(0), &Value::Int(100));
        assert_eq!(p.get(1), &Value::str("alice"));
    }

    #[test]
    fn concat_appends() {
        let t = alice().concat(&Tuple::new(vec![Value::Bool(true)]));
        assert_eq!(t.arity(), 3);
        assert_eq!(t.get(2), &Value::Bool(true));
    }

    #[test]
    fn clone_is_shallow() {
        let t = alice();
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.values, &u.values));
    }

    #[test]
    fn display_form() {
        assert_eq!(alice().to_string(), "(\"alice\", 100)");
    }
}
