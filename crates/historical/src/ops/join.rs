//! The hatted physical equi-join: `join̂[spec](E₁, E₂)` ≡ `σ̂_spec(E₁ ×̂ E₂)`.
//!
//! Equi-keys match on value components and the transaction/valid-time
//! elements intersect — pairs with disjoint elements do not appear, just
//! as in the defining ×̂. The kernels reuse the snapshot crate's key
//! resolution ([`key_columns`], [`merge_applies`]) and the same
//! probe-major emission argument: left entries in run order, each left
//! entry's right matches in right run order, so the output run is already
//! canonically sorted and needs no coalescing (distinct value tuples).

use std::collections::HashMap;

use txtime_exec::{ExecPool, OpKind};
use txtime_snapshot::ops::join::{key_columns, merge_applies};
use txtime_snapshot::predicate::CompiledPredicate;
use txtime_snapshot::{JoinPhysical, JoinSpec, Value};

use crate::state::{Entry, HistoricalState};
use crate::Result;

/// The hash-join build side over entries: right-run indices grouped by
/// key values, in run order.
fn build_table(right: &[Entry], cols: &[(usize, usize)]) -> HashMap<Vec<Value>, Vec<usize>> {
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right.len());
    for (i, (r, _)) in right.iter().enumerate() {
        let key: Vec<Value> = cols.iter().map(|&(_, rc)| r.get(rc).clone()).collect();
        table.entry(key).or_default().push(i);
    }
    table
}

impl HistoricalState {
    /// Physical hatted equi-join, observationally identical to
    /// `σ̂_{spec}(self ×̂ other)` — values, elements, and errors.
    pub fn hequi_join(&self, other: &HistoricalState, spec: &JoinSpec) -> Result<HistoricalState> {
        // Error discipline replicates ×̂-then-σ̂: schema clash first, then
        // predicate validation against the concatenated scheme.
        let schema = self.schema().product(other.schema())?;
        let compiled = spec.as_predicate().compile(&schema)?;
        let out = match key_columns(spec, self.schema(), other.schema()) {
            Some(cols)
                if !cols.is_empty()
                    && merge_applies(&cols)
                    && spec.physical == JoinPhysical::Merge =>
            {
                hmerge_join(self.run(), other.run(), &compiled)
            }
            Some(cols) if !cols.is_empty() => {
                let table = build_table(other.run(), &cols);
                hhash_probe(self.run(), other.run(), &cols, &table, &compiled)
            }
            _ => hnested_loop(self.run(), other.run(), &compiled),
        };
        Ok(HistoricalState::from_sorted_vec(schema, out))
    }

    /// [`HistoricalState::hequi_join`] with the probe side partitioned
    /// across the pool on O(1) slice ranges, build side shared.
    pub fn hequi_join_par(
        &self,
        other: &HistoricalState,
        spec: &JoinSpec,
        pool: &ExecPool,
    ) -> Result<HistoricalState> {
        let schema = self.schema().product(other.schema())?;
        let compiled = spec.as_predicate().compile(&schema)?;
        let grain = pool.grain(OpKind::HJoin);
        let cols = key_columns(spec, self.schema(), other.schema());
        let chunks: Vec<Vec<Entry>> = match cols {
            Some(cols)
                if !cols.is_empty()
                    && merge_applies(&cols)
                    && spec.physical == JoinPhysical::Merge =>
            {
                // The merge kernel is a single two-pointer pass; see the
                // snapshot kernel for why it is not partitioned.
                vec![hmerge_join(self.run(), other.run(), &compiled)]
            }
            Some(cols) if !cols.is_empty() => {
                let table = build_table(other.run(), &cols);
                pool.map_chunks(OpKind::HJoin, self.run(), grain, |chunk| {
                    hhash_probe(chunk, other.run(), &cols, &table, &compiled)
                })
            }
            _ => pool.map_chunks(OpKind::HJoin, self.run(), grain, |chunk| {
                hnested_loop(chunk, other.run(), &compiled)
            }),
        };
        pool.note_join(other.len() as u64, self.len() as u64, chunks.len() as u64);
        let mut out = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
        for c in chunks {
            out.extend(c);
        }
        Ok(HistoricalState::from_sorted_vec(schema, out))
    }
}

/// Probe `left` entries against the build table; each surviving pair
/// carries the intersection of its constituents' temporal elements, and
/// empty intersections are dropped — exactly the ×̂ rule.
fn hhash_probe(
    left: &[Entry],
    right: &[Entry],
    cols: &[(usize, usize)],
    table: &HashMap<Vec<Value>, Vec<usize>>,
    compiled: &CompiledPredicate,
) -> Vec<Entry> {
    let mut out = Vec::new();
    let mut key: Vec<Value> = Vec::with_capacity(cols.len());
    for (l, le) in left {
        key.clear();
        key.extend(cols.iter().map(|&(lc, _)| l.get(lc).clone()));
        if let Some(matches) = table.get(&key) {
            for &ri in matches {
                let (r, re) = &right[ri];
                let e = le.intersect(re);
                if e.is_empty() {
                    continue;
                }
                let pair = l.concat(r);
                if compiled.eval(&pair) {
                    out.push((pair, e));
                }
            }
        }
    }
    out
}

/// Two-pointer merge over key-sorted entry runs (key = column 0 on both
/// sides), intersecting temporal elements per pair.
fn hmerge_join(left: &[Entry], right: &[Entry], compiled: &CompiledPredicate) -> Vec<Entry> {
    let mut out = Vec::new();
    let (mut i, mut j) = (0, 0);
    while i < left.len() && j < right.len() {
        let lk = left[i].0.get(0);
        let rk = right[j].0.get(0);
        if lk < rk {
            i += 1;
        } else if lk > rk {
            j += 1;
        } else {
            let i_end = i + left[i..].partition_point(|(t, _)| t.get(0) == lk);
            let j_end = j + right[j..].partition_point(|(t, _)| t.get(0) == rk);
            for (l, le) in &left[i..i_end] {
                for (r, re) in &right[j..j_end] {
                    let e = le.intersect(re);
                    if e.is_empty() {
                        continue;
                    }
                    let pair = l.concat(r);
                    if compiled.eval(&pair) {
                        out.push((pair, e));
                    }
                }
            }
            i = i_end;
            j = j_end;
        }
    }
    out
}

/// The defining nested loop (the σ̂(×̂) order), for specs whose keys do
/// not resolve side-wise.
fn hnested_loop(left: &[Entry], right: &[Entry], compiled: &CompiledPredicate) -> Vec<Entry> {
    let mut out = Vec::new();
    for (l, le) in left {
        for (r, re) in right {
            let e = le.intersect(re);
            if e.is_empty() {
                continue;
            }
            let pair = l.concat(r);
            if compiled.eval(&pair) {
                out.push((pair, e));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HistoricalState, TemporalElement};
    use txtime_snapshot::{DomainType, Predicate, Schema, Tuple};

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

    fn hs(names: (&str, &str), entries: &[(i64, i64, u32, u32)]) -> HistoricalState {
        let schema =
            Schema::new(vec![(names.0, DomainType::Int), (names.1, DomainType::Int)]).unwrap();
        HistoricalState::new(
            schema,
            entries.iter().map(|&(a, b, s, e)| {
                (
                    Tuple::new(vec![Value::Int(a), Value::Int(b)]),
                    TemporalElement::period(s, e),
                )
            }),
        )
        .unwrap()
    }

    /// The defining oracle: σ̂_spec(l ×̂ r).
    fn oracle(l: &HistoricalState, r: &HistoricalState, s: &JoinSpec) -> Result<HistoricalState> {
        l.hproduct(r)?.hselect(&s.as_predicate())
    }

    #[test]
    fn hatted_join_matches_oracle_and_intersects_elements() {
        let l = hs(("x", "u"), &[(1, 10, 0, 10), (2, 20, 2, 8)]);
        let r = hs(("y", "v"), &[(1, 100, 5, 15), (2, 200, 9, 12)]);
        for physical in [JoinPhysical::Hash, JoinPhysical::Merge] {
            let s = spec(&[("x", "y")], physical);
            let j = l.hequi_join(&r, &s).unwrap();
            assert_eq!(j, oracle(&l, &r, &s).unwrap());
            // (1,10,1,100) overlaps on [5,10); (2,…) has disjoint times.
            assert_eq!(j.len(), 1);
            let e = j
                .valid_time(&Tuple::new(vec![
                    Value::Int(1),
                    Value::Int(10),
                    Value::Int(1),
                    Value::Int(100),
                ]))
                .unwrap();
            assert_eq!(e, &TemporalElement::period(5, 10));
        }
    }

    #[test]
    fn errors_match_the_product_select_form() {
        let l = hs(("x", "u"), &[(1, 10, 0, 5)]);
        let s = spec(&[("x", "x")], JoinPhysical::Hash);
        assert!(l.hequi_join(&l, &s).is_err());
        assert!(oracle(&l, &l, &s).is_err());
        let r = hs(("y", "v"), &[(1, 100, 0, 5)]);
        let bad = spec(&[("ghost", "y")], JoinPhysical::Hash);
        assert!(l.hequi_join(&r, &bad).is_err());
        assert!(oracle(&l, &r, &bad).is_err());
    }

    #[test]
    fn timeslice_correspondence() {
        // timeslice(join̂(A, B), c) = join(timeslice(A, c), timeslice(B, c))
        let a = hs(("x", "u"), &[(1, 10, 0, 8), (2, 20, 2, 6), (3, 30, 4, 9)]);
        let b = hs(("y", "v"), &[(1, 100, 3, 12), (3, 300, 0, 5)]);
        let s = spec(&[("x", "y")], JoinPhysical::Hash);
        let j = a.hequi_join(&b, &s).unwrap();
        for c in 0..14 {
            assert_eq!(
                j.timeslice(c),
                a.timeslice(c).equi_join(&b.timeslice(c), &s).unwrap(),
                "at chronon {c}"
            );
        }
    }

    #[test]
    fn parallel_join_matches_sequential() {
        let n = 1200;
        let entries: Vec<(i64, i64, u32, u32)> = (0..n)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .rotate_left(17);
                let start = (h >> 8) % 40;
                (
                    (h % 48) as i64,
                    i as i64,
                    start as u32,
                    (start + 1 + (h >> 16) % 10) as u32,
                )
            })
            .collect();
        let l = hs(("x", "u"), &entries);
        let r_entries: Vec<(i64, i64, u32, u32)> = entries
            .iter()
            .take(700)
            .map(|&(a, b, s, e)| (a, b + 7, s, e))
            .collect();
        let r = hs(("y", "v"), &r_entries);
        for physical in [JoinPhysical::Hash, JoinPhysical::Merge] {
            let s = spec(&[("x", "y")], physical);
            let seq = l.hequi_join(&r, &s).unwrap();
            assert_eq!(seq, oracle(&l, &r, &s).unwrap(), "{physical}");
            for threads in [1, 2, 4] {
                let pool = ExecPool::with_unit_grain(threads);
                assert_eq!(
                    l.hequi_join_par(&r, &s, &pool).unwrap(),
                    seq,
                    "{physical} threads {threads}"
                );
            }
        }
    }
}
