//! Per-relation string interning.
//!
//! Sorted-run states compare tuples constantly (merge kernels, binary
//! searches, delta replay). String attributes dominate that cost unless
//! equal strings share one allocation, in which case the pointer fast path
//! in [`crate::Value`]'s `Ord` settles the comparison without a byte scan.
//!
//! A [`StrInterner`] is a deduplicating pool of `Arc<str>`. The storage
//! layer keeps one pool per relation and route every incoming state
//! through [`StrInterner::intern_tuple`], so rollback replay never
//! re-hashes a string it has already seen.

use std::collections::HashSet;
use std::sync::Arc;

use crate::tuple::Tuple;
use crate::value::Value;

/// A deduplicating pool of reference-counted strings.
///
/// Interning is idempotent and content-addressed: two calls with equal
/// string contents return `Arc`s backed by the same allocation.
#[derive(Debug, Clone, Default)]
pub struct StrInterner {
    pool: HashSet<Arc<str>>,
}

impl StrInterner {
    /// An empty pool.
    pub fn new() -> StrInterner {
        StrInterner::default()
    }

    /// The pooled `Arc` for `s`, inserting it on first sight.
    pub fn intern(&mut self, s: &Arc<str>) -> Arc<str> {
        match self.pool.get(&**s) {
            Some(pooled) => pooled.clone(),
            None => {
                self.pool.insert(s.clone());
                s.clone()
            }
        }
    }

    /// Interns the payload of a `Str` value; other domains pass through.
    ///
    /// Returns `None` when the value is already backed by the pooled
    /// allocation (so callers can skip rebuilding containers).
    fn intern_value(&mut self, v: &Value) -> Option<Value> {
        match v {
            Value::Str(s) => {
                let pooled = self.intern(s);
                if Arc::ptr_eq(&pooled, s) {
                    None
                } else {
                    Some(Value::Str(pooled))
                }
            }
            _ => None,
        }
    }

    /// A tuple whose string values are all drawn from the pool.
    ///
    /// The payload array is rebuilt only if at least one value actually
    /// changes allocation; a fully-interned tuple is returned as a shallow
    /// clone.
    pub fn intern_tuple(&mut self, t: &Tuple) -> Tuple {
        let mut rebuilt: Option<Vec<Value>> = None;
        for (i, v) in t.values().iter().enumerate() {
            if let Some(pooled) = self.intern_value(v) {
                rebuilt.get_or_insert_with(|| t.values().to_vec())[i] = pooled;
            }
        }
        match rebuilt {
            Some(values) => Tuple::new(values),
            None => t.clone(),
        }
    }

    /// Number of distinct strings in the pool.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Approximate footprint in bytes, counted by storage-space accounting
    /// alongside the states that reference the pool.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<StrInterner>()
            + self
                .pool
                .iter()
                .map(|s| std::mem::size_of::<Arc<str>>() + s.len())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_shares_allocations() {
        let mut pool = StrInterner::new();
        let a: Arc<str> = Arc::from("alice");
        let b: Arc<str> = Arc::from("alice");
        assert!(!Arc::ptr_eq(&a, &b));
        let ia = pool.intern(&a);
        let ib = pool.intern(&b);
        assert!(Arc::ptr_eq(&ia, &ib));
        assert_eq!(pool.len(), 1);
    }

    fn arc_of(t: &Tuple, i: usize) -> Arc<str> {
        match &t.values()[i] {
            Value::Str(s) => s.clone(),
            other => panic!("expected Str, got {other:?}"),
        }
    }

    #[test]
    fn intern_tuple_rebuilds_only_on_change() {
        let mut pool = StrInterner::new();
        let t = Tuple::new(vec![Value::str("x"), Value::Int(1)]);
        let first = pool.intern_tuple(&t);
        // First sight: the tuple's own allocation becomes the pooled one,
        // so nothing needs rebuilding.
        assert!(Arc::ptr_eq(&arc_of(&first, 0), &arc_of(&t, 0)));
        // A content-equal tuple from a different allocation is rewritten to
        // the pooled string.
        let u = Tuple::new(vec![Value::str("x"), Value::Int(1)]);
        let second = pool.intern_tuple(&u);
        assert_eq!(second, u);
        assert!(Arc::ptr_eq(&arc_of(&second, 0), &arc_of(&first, 0)));
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn size_accounts_for_payload() {
        let mut pool = StrInterner::new();
        let base = pool.size_bytes();
        pool.intern(&Arc::from("a somewhat longer string"));
        assert!(pool.size_bytes() > base);
    }
}
