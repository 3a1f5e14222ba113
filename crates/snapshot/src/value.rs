//! Attribute values and their domains.
//!
//! The paper assumes "a set of domains 𝓓 = {𝓓₁ … 𝓓ₘ}, where each domain is
//! an arbitrary, non-empty, finite or countably infinite set". We provide
//! four concrete domains — integers, reals, booleans, and character
//! strings — which is enough to express every example in the temporal
//! database literature while keeping values totally ordered and hashable
//! (required for set-based states and deterministic display).

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::domain::DomainType;

/// A finite IEEE-754 double with total equality, ordering, and hashing.
///
/// NaN is rejected at construction so that `Real` can participate in the
/// set-based [`crate::SnapshotState`] representation. The ordering is the
/// IEEE total order restricted to non-NaN values (i.e. the usual `<`).
#[derive(Debug, Clone, Copy)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Real(f64);

impl Real {
    /// Creates a `Real`, returning `None` for NaN.
    pub fn new(v: f64) -> Option<Real> {
        if v.is_nan() {
            None
        } else {
            // Normalize -0.0 to 0.0 so bitwise hashing agrees with Eq.
            Some(Real(if v == 0.0 { 0.0 } else { v }))
        }
    }

    /// The underlying double.
    pub fn get(self) -> f64 {
        self.0
    }
}

impl PartialEq for Real {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Real {}

impl PartialOrd for Real {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Real {
    fn cmp(&self, other: &Self) -> Ordering {
        // Safe: NaN is excluded by construction.
        self.0.partial_cmp(&other.0).expect("Real is never NaN")
    }
}

impl std::hash::Hash for Real {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.to_bits().hash(state);
    }
}

impl fmt::Display for Real {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.fract() == 0.0 && self.0.abs() < 1e15 {
            write!(f, "{:.1}", self.0)
        } else {
            write!(f, "{}", self.0)
        }
    }
}

/// A single attribute value drawn from one of the supported domains.
///
/// Values are cheap to clone: strings are reference-counted. With the
/// per-relation interning pool (see [`crate::intern::StrInterner`]) equal
/// strings share one allocation, so the manual [`Ord`] below can settle
/// most string comparisons with a pointer check instead of a byte scan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Value {
    /// An element of the integer domain.
    Int(i64),
    /// An element of the real domain (finite, non-NaN).
    Real(Real),
    /// An element of the boolean domain.
    Bool(bool),
    /// An element of the character-string domain.
    Str(Arc<str>),
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// The derived total order (variants in declaration order, payloads by
    /// their own `Ord`), with one extra fast path: two `Str` values backed
    /// by the *same* allocation — the common case once a relation's
    /// strings are interned — compare equal without touching the bytes.
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => {
                if Arc::ptr_eq(a, b) {
                    Ordering::Equal
                } else {
                    a.cmp(b)
                }
            }
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl Value {
    /// Variant rank matching the declaration (and former derived) order.
    fn rank(&self) -> u8 {
        match self {
            Value::Int(_) => 0,
            Value::Real(_) => 1,
            Value::Bool(_) => 2,
            Value::Str(_) => 3,
        }
    }

    /// Convenience constructor for string values.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// Convenience constructor for real values; panics on NaN.
    pub fn real(v: f64) -> Value {
        Value::Real(Real::new(v).expect("NaN is not a valid Real"))
    }

    /// The domain this value belongs to.
    pub fn domain(&self) -> DomainType {
        match self {
            Value::Int(_) => DomainType::Int,
            Value::Real(_) => DomainType::Real,
            Value::Bool(_) => DomainType::Bool,
            Value::Str(_) => DomainType::Str,
        }
    }

    /// Returns the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the real payload, if this is a `Real`.
    pub fn as_real(&self) -> Option<f64> {
        match self {
            Value::Real(r) => Some(r.get()),
            _ => None,
        }
    }

    /// Approximate heap + inline footprint in bytes, used by storage-space
    /// accounting (experiment E3).
    pub fn size_bytes(&self) -> usize {
        match self {
            Value::Str(s) => std::mem::size_of::<Value>() + s.len(),
            _ => std::mem::size_of::<Value>(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::encode::encode(f, |e| e.value(self))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_rejects_nan() {
        assert!(Real::new(f64::NAN).is_none());
        assert!(Real::new(1.5).is_some());
    }

    #[test]
    fn real_normalizes_negative_zero() {
        let a = Real::new(0.0).unwrap();
        let b = Real::new(-0.0).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.get().to_bits(), b.get().to_bits());
    }

    #[test]
    fn real_total_order() {
        let mut v = [
            Real::new(3.0).unwrap(),
            Real::new(-1.0).unwrap(),
            Real::new(f64::INFINITY).unwrap(),
            Real::new(0.0).unwrap(),
        ];
        v.sort();
        assert_eq!(v[0].get(), -1.0);
        assert_eq!(v[3].get(), f64::INFINITY);
    }

    #[test]
    fn value_domains() {
        assert_eq!(Value::Int(1).domain(), DomainType::Int);
        assert_eq!(Value::real(1.0).domain(), DomainType::Real);
        assert_eq!(Value::Bool(true).domain(), DomainType::Bool);
        assert_eq!(Value::str("x").domain(), DomainType::Str);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(7).as_int(), Some(7));
        assert_eq!(Value::Int(7).as_str(), None);
        assert_eq!(Value::str("hi").as_str(), Some("hi"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::real(2.5).as_real(), Some(2.5));
    }

    #[test]
    fn value_ordering_within_domain() {
        assert!(Value::Int(1) < Value::Int(2));
        assert!(Value::str("a") < Value::str("b"));
    }

    #[test]
    fn value_display() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("x").to_string(), "\"x\"");
        assert_eq!(Value::Bool(false).to_string(), "false");
        assert_eq!(Value::real(2.0).to_string(), "2.0");
    }

    #[test]
    fn str_size_accounts_for_payload() {
        assert!(Value::str("hello world").size_bytes() > Value::Int(0).size_bytes());
    }

    #[test]
    fn ordering_across_domains_follows_declaration_order() {
        let mut v = [
            Value::str("a"),
            Value::Bool(false),
            Value::real(1.0),
            Value::Int(5),
        ];
        v.sort();
        assert!(matches!(v[0], Value::Int(_)));
        assert!(matches!(v[1], Value::Real(_)));
        assert!(matches!(v[2], Value::Bool(_)));
        assert!(matches!(v[3], Value::Str(_)));
    }

    #[test]
    fn shared_string_allocation_compares_equal() {
        let a = Value::str("shared");
        let b = a.clone();
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        // Distinct allocations with equal contents still compare equal.
        assert_eq!(a.cmp(&Value::str("shared")), std::cmp::Ordering::Equal);
    }
}
