//! Physical equi-joins: build/probe hash join and sort-merge join.
//!
//! `equi_join[spec](E₁, E₂)` is *defined* as `σ_F(E₁ × E₂)` where `F` is
//! the conjunction of the spec's equality keys and its residual predicate
//! — the paper's claim 1 makes the σ-over-× form legal, and the kernels
//! here are merely faster evaluation orders for it. Observational
//! identity is the contract: the same result state on success, an error
//! exactly when the product-then-select form errors (attribute clash,
//! unknown attribute, predicate type mismatch), on every input.
//!
//! Both kernels keep the canonical-run invariant without a sort:
//! matches are emitted probe-side-major (left run order) with each left
//! tuple's right matches in right run order, and distinct left tuples of
//! equal arity differ before the concatenation point, so the blocked
//! output is already strictly increasing — the same argument as the
//! product kernel's.

use std::collections::HashMap;

use txtime_exec::{ExecPool, OpKind};

use crate::predicate::{CompiledPredicate, Predicate};
use crate::state::SnapshotState;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// The physical algorithm of a [`JoinSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum JoinPhysical {
    /// Build a hash table on the right operand's keys, probe with the
    /// left operand in run order.
    Hash,
    /// Two-pointer merge over the operands' sorted runs; rides the
    /// canonical ordering for free when the single join key is the first
    /// schema attribute on both sides (falls back to hash otherwise).
    Merge,
}

impl std::fmt::Display for JoinPhysical {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JoinPhysical::Hash => write!(f, "hash"),
            JoinPhysical::Merge => write!(f, "merge"),
        }
    }
}

/// The payload of a physical equi-join: cross-operand equality keys, a
/// residual predicate over the concatenated scheme, and the chosen
/// physical algorithm. Only the plan search constructs these — the
/// surface syntax has no join form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct JoinSpec {
    /// Equality keys as `(left attribute, right attribute)` pairs.
    pub keys: Vec<(String, String)>,
    /// The leftover conjuncts, evaluated on each concatenated candidate
    /// pair ([`Predicate::True`] when none).
    pub residual: Predicate,
    /// The physical algorithm.
    pub physical: JoinPhysical,
}

impl JoinSpec {
    /// The defining selection predicate over the concatenated scheme:
    /// `k₁ ∧ k₂ ∧ … ∧ residual` (just `residual` with no keys).
    pub fn as_predicate(&self) -> Predicate {
        let mut pred: Option<Predicate> = None;
        for (l, r) in &self.keys {
            let eq = Predicate::eq_attrs(l, r);
            pred = Some(match pred {
                Some(p) => p.and(eq),
                None => eq,
            });
        }
        match pred {
            Some(p) if self.residual == Predicate::True => p,
            Some(p) => p.and(self.residual.clone()),
            None => self.residual.clone(),
        }
    }
}

impl std::fmt::Display for JoinSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}; ", self.physical)?;
        for (i, (l, r)) in self.keys.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{l} = {r}")?;
        }
        write!(f, "; {}", self.residual)
    }
}

/// The spec's keys resolved to column indices: `(left column, right
/// column)` per key. `None` when a key cannot be resolved side-wise
/// (an attribute missing from its operand's scheme) — the caller then
/// falls back to the nested-loop form, which the compiled predicate
/// already evaluates correctly. Shared with the historical kernel.
pub fn key_columns(
    spec: &JoinSpec,
    left: &crate::schema::Schema,
    right: &crate::schema::Schema,
) -> Option<Vec<(usize, usize)>> {
    spec.keys
        .iter()
        .map(|(l, r)| Some((left.index_of(l)?, right.index_of(r)?)))
        .collect()
}

/// The hash-join build side: right-run indices grouped by key values, in
/// run order (so probe emissions stay canonically sorted).
pub(crate) fn build_table(
    right: &SnapshotState,
    cols: &[(usize, usize)],
) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right.len());
    for (i, r) in right.iter().enumerate() {
        let key: Vec<Value> = cols.iter().map(|&(_, rc)| r.get(rc).clone()).collect();
        table.entry(key).or_default().push(i);
    }
    table
}

/// Whether the sort-merge kernel may run: one key, and it is the first
/// schema attribute on both sides, so both runs are already key-sorted.
pub fn merge_applies(cols: &[(usize, usize)]) -> bool {
    matches!(cols, [(0, 0)])
}

impl SnapshotState {
    /// Physical equi-join `join[spec](self, other)`, observationally
    /// identical to `σ_{spec}(self × other)` — values and errors.
    pub fn equi_join(&self, other: &SnapshotState, spec: &JoinSpec) -> Result<SnapshotState> {
        // Error discipline replicates product-then-select: the schema
        // clash check first, then predicate validation against the
        // concatenated scheme.
        let schema = self.schema().product(other.schema())?;
        let compiled = spec.as_predicate().compile(&schema)?;
        let out = match key_columns(spec, self.schema(), other.schema()) {
            Some(cols)
                if !cols.is_empty()
                    && merge_applies(&cols)
                    && spec.physical == JoinPhysical::Merge =>
            {
                merge_join(self.run(), other.run(), &compiled)
            }
            Some(cols) if !cols.is_empty() => {
                let table = build_table(other, &cols);
                hash_probe(self.run(), other.run(), &cols, &table, &compiled)
            }
            // No side-wise keys: degrade to the defining nested loop.
            _ => nested_loop(self.run(), other.run(), &compiled),
        };
        Ok(SnapshotState::from_sorted_vec(schema, out))
    }

    /// [`SnapshotState::equi_join`] with the probe side partitioned
    /// across the pool on O(1) slice ranges; the build side (hash table
    /// or right run) is built once and shared by every chunk. Chunk
    /// results concatenate in order, so the merged run is identical to
    /// the sequential kernel's.
    pub fn equi_join_par(
        &self,
        other: &SnapshotState,
        spec: &JoinSpec,
        pool: &ExecPool,
    ) -> Result<SnapshotState> {
        let schema = self.schema().product(other.schema())?;
        let compiled = spec.as_predicate().compile(&schema)?;
        let grain = pool.grain(OpKind::Join);
        let cols = key_columns(spec, self.schema(), other.schema());
        let chunks: Vec<Vec<Tuple>> = match cols {
            Some(cols)
                if !cols.is_empty()
                    && merge_applies(&cols)
                    && spec.physical == JoinPhysical::Merge =>
            {
                // Merge probes both runs with two pointers; partitioning
                // the left side would re-scan the right per chunk, so the
                // merge kernel stays single-pass (it is already the
                // cheap, cache-friendly path).
                vec![merge_join(self.run(), other.run(), &compiled)]
            }
            Some(cols) if !cols.is_empty() => {
                let table = build_table(other, &cols);
                pool.map_chunks(OpKind::Join, self.run(), grain, |chunk| {
                    hash_probe(chunk, other.run(), &cols, &table, &compiled)
                })
            }
            _ => pool.map_chunks(OpKind::Join, self.run(), grain, |chunk| {
                nested_loop(chunk, other.run(), &compiled)
            }),
        };
        pool.note_join(other.len() as u64, self.len() as u64, chunks.len() as u64);
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for c in chunks {
            out.extend(c);
        }
        Ok(SnapshotState::from_sorted_vec(schema, out))
    }
}

/// Probe `left` (a contiguous slice of the left run) against the build
/// table; emissions are left-major with right matches ascending, hence
/// sorted.
fn hash_probe(
    left: &[Tuple],
    right: &[Tuple],
    cols: &[(usize, usize)],
    table: &HashMap<Vec<Value>, Vec<usize>>,
    compiled: &CompiledPredicate,
) -> Vec<Tuple> {
    let mut out = Vec::new();
    let mut key: Vec<Value> = Vec::with_capacity(cols.len());
    for l in left {
        key.clear();
        key.extend(cols.iter().map(|&(lc, _)| l.get(lc).clone()));
        if let Some(matches) = table.get(&key) {
            for &ri in matches {
                let pair = l.concat(&right[ri]);
                // The full defining predicate (keys re-checked plus the
                // residual) keeps the kernel trivially faithful to the
                // σ(×) semantics.
                if compiled.eval(&pair) {
                    out.push(pair);
                }
            }
        }
    }
    out
}

/// Two-pointer merge over key-sorted runs (key = column 0 on both
/// sides): equal-key blocks pair up block-major, which preserves the
/// canonical order of the defining product.
fn merge_join(left: &[Tuple], right: &[Tuple], compiled: &CompiledPredicate) -> Vec<Tuple> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let lk = left[i].get(0);
        let rk = right[j].get(0);
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            // Close both equal-key blocks, then pair them.
            let i_end = i + left[i..].partition_point(|t| t.get(0) == lk);
            let j_end = j + right[j..].partition_point(|t| t.get(0) == rk);
            for l in &left[i..i_end] {
                for r in &right[j..j_end] {
                    let pair = l.concat(r);
                    if compiled.eval(&pair) {
                        out.push(pair);
                    }
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out
}

/// The defining nested loop (the σ(×) order), for specs whose keys do
/// not resolve side-wise.
fn nested_loop(left: &[Tuple], right: &[Tuple], compiled: &CompiledPredicate) -> Vec<Tuple> {
    let mut out = Vec::new();
    for l in left {
        for r in right {
            let pair = l.concat(r);
            if compiled.eval(&pair) {
                out.push(pair);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DomainType, Schema, Value};

    fn spec(keys: &[(&str, &str)], physical: JoinPhysical) -> JoinSpec {
        JoinSpec {
            keys: keys
                .iter()
                .map(|&(l, r)| (l.to_string(), r.to_string()))
                .collect(),
            residual: Predicate::True,
            physical,
        }
    }

    fn xs(vals: &[(i64, i64)]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int), ("u", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(
            schema,
            vals.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]),
        )
        .unwrap()
    }

    fn ys(vals: &[(i64, i64)]) -> SnapshotState {
        let schema = Schema::new(vec![("y", DomainType::Int), ("v", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(
            schema,
            vals.iter()
                .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]),
        )
        .unwrap()
    }

    /// The defining oracle: σ_spec(l × r).
    fn oracle(l: &SnapshotState, r: &SnapshotState, s: &JoinSpec) -> Result<SnapshotState> {
        l.product(r)?.select(&s.as_predicate())
    }

    #[test]
    fn hash_join_matches_oracle() {
        let l = xs(&[(1, 10), (2, 20), (2, 21), (3, 30)]);
        let r = ys(&[(2, 200), (3, 300), (3, 301), (9, 900)]);
        let s = spec(&[("x", "y")], JoinPhysical::Hash);
        assert_eq!(l.equi_join(&r, &s).unwrap(), oracle(&l, &r, &s).unwrap());
        // x=2 pairs two left tuples with one right; x=3 pairs one left
        // tuple with two rights.
        assert_eq!(l.equi_join(&r, &s).unwrap().len(), 4);
    }

    #[test]
    fn merge_join_matches_oracle_on_prefix_key() {
        let l = xs(&[(1, 10), (2, 20), (2, 21), (3, 30)]);
        let r = ys(&[(2, 200), (2, 201), (3, 300)]);
        let s = spec(&[("x", "y")], JoinPhysical::Merge);
        assert_eq!(l.equi_join(&r, &s).unwrap(), oracle(&l, &r, &s).unwrap());
    }

    #[test]
    fn merge_falls_back_to_hash_off_prefix() {
        let l = xs(&[(1, 10), (2, 20)]);
        let r = ys(&[(100, 20), (200, 10)]);
        // Key u = v is column 1 on both sides: merge cannot ride the run
        // order, the kernel must still answer correctly.
        let s = spec(&[("u", "v")], JoinPhysical::Merge);
        assert_eq!(l.equi_join(&r, &s).unwrap(), oracle(&l, &r, &s).unwrap());
        assert_eq!(l.equi_join(&r, &s).unwrap().len(), 2);
    }

    #[test]
    fn residual_filters_pairs() {
        let l = xs(&[(1, 10), (2, 20)]);
        let r = ys(&[(1, 100), (1, 5), (2, 200)]);
        let s = JoinSpec {
            keys: vec![("x".into(), "y".into())],
            residual: Predicate::Comp(
                crate::predicate::Operand::attr("u"),
                crate::predicate::CompOp::Lt,
                crate::predicate::Operand::attr("v"),
            ),
            physical: JoinPhysical::Hash,
        };
        assert_eq!(l.equi_join(&r, &s).unwrap(), oracle(&l, &r, &s).unwrap());
        assert_eq!(l.equi_join(&r, &s).unwrap().len(), 2);
    }

    #[test]
    fn errors_match_the_product_select_form() {
        let l = xs(&[(1, 10)]);
        let s = spec(&[("x", "x")], JoinPhysical::Hash);
        // Attribute clash: both error.
        assert!(l.equi_join(&l, &s).is_err());
        assert!(oracle(&l, &l, &s).is_err());
        // Unknown attribute: both error.
        let r = ys(&[(1, 100)]);
        let bad = spec(&[("ghost", "y")], JoinPhysical::Hash);
        assert!(l.equi_join(&r, &bad).is_err());
        assert!(oracle(&l, &r, &bad).is_err());
        // Type mismatch across the key: both error.
        let mixed = SnapshotState::from_rows(
            Schema::new(vec![("y", DomainType::Str)]).unwrap(),
            vec![vec![Value::str("a")]],
        )
        .unwrap();
        let ts = spec(&[("x", "y")], JoinPhysical::Hash);
        assert!(l.equi_join(&mixed, &ts).is_err());
        assert!(oracle(&l, &mixed, &ts).is_err());
    }

    #[test]
    fn empty_keys_degrade_to_filtered_product() {
        let l = xs(&[(1, 10), (2, 20)]);
        let r = ys(&[(1, 100)]);
        let s = JoinSpec {
            keys: vec![],
            residual: Predicate::True,
            physical: JoinPhysical::Hash,
        };
        assert_eq!(l.equi_join(&r, &s).unwrap(), l.product(&r).unwrap());
    }

    /// A deterministic pseudo-random state with a skewed int key (column
    /// 0) big enough to cross the parallel kernel's chunk grain.
    fn pseudo(seed: u64, prefix: (&str, &str), n: u64, key_range: u64) -> SnapshotState {
        let schema = Schema::new(vec![
            (prefix.0, DomainType::Int),
            (prefix.1, DomainType::Int),
        ])
        .unwrap();
        let rows = (0..n).map(|i| {
            let h = seed
                .wrapping_add(i)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .rotate_left(17);
            vec![
                Value::Int((h % key_range) as i64),
                Value::Int((h >> 32) as i64),
            ]
        });
        SnapshotState::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn parallel_join_matches_sequential_and_oracle() {
        for seed in 0..4u64 {
            let l = pseudo(seed, ("x", "u"), 1500, 64);
            let r = pseudo(seed.wrapping_add(99), ("y", "v"), 900, 64);
            for physical in [JoinPhysical::Hash, JoinPhysical::Merge] {
                let s = spec(&[("x", "y")], physical);
                let seq = l.equi_join(&r, &s).unwrap();
                assert_eq!(seq, oracle(&l, &r, &s).unwrap(), "seed {seed} {physical}");
                for threads in [1, 2, 4] {
                    let pool = ExecPool::with_unit_grain(threads);
                    assert_eq!(
                        l.equi_join_par(&r, &s, &pool).unwrap(),
                        seq,
                        "seed {seed} {physical} threads {threads}"
                    );
                }
            }
        }
    }
}
