//! Partitioned (parallel) variants of σ, π, × and −.
//!
//! Each `*_par` kernel is observationally identical to its sequential
//! twin — same result, same errors — and differs only in how the work is
//! scheduled: the sorted run is split into contiguous index ranges (an
//! O(1) slice operation — no tree walk, no per-tuple collection), the
//! ranges are evaluated on scoped worker threads, and the per-range
//! results are concatenated **in range order**.
//!
//! Why the merge is deterministic:
//!
//! * σ and − filter each input tuple independently, so each range yields
//!   a sorted run disjoint from (and entirely below) the next range's
//!   run; concatenating runs in order is exactly the sequential scan.
//! * × chunks the *left* operand: distinct same-arity left tuples
//!   `l₁ < l₂` concatenate to `l₁·x < l₂·y` for every `x`, `y`, so the
//!   per-chunk sub-products are again disjoint sorted runs.
//! * − (a two-operand merge) splits both runs at aligned pivots: the
//!   left run is cut at even indices and the right run is cut at the
//!   `partition_point` of each pivot tuple, so every part sees exactly
//!   the tuples of one disjoint key interval and the concatenated merge
//!   outputs are the sequential merge.
//! * π re-sorts the concatenated projection (unless the projection is an
//!   order-preserving prefix), so the result does not depend on chunking.
//!
//! ∪ has no partitioned variant: split two ways it ran at 0.84–1.05× of
//! the one-pass merge at every size up to 10⁵ ∪ 10⁵ on two cores
//! (EXPERIMENTS.md E13a), so the evaluator always calls
//! [`SnapshotState::union`].
//!
//! A kernel splits only when every chunk carries at least the operator's
//! break-even grain ([`ExecPool::grain`]); below that, and on a
//! one-thread pool, it runs inline on the calling thread (see
//! [`ExecPool::map_chunks`]) — the exact sequential path.

use std::ops::Range;

use txtime_exec::{ExecPool, OpKind};

use crate::ops::merge::merge_difference;
use crate::ops::project::is_identity_prefix;
use crate::predicate::Predicate;
use crate::state::SnapshotState;
use crate::tuple::Tuple;
use crate::Result;

/// Splits two sorted runs into at most `want` aligned part ranges: the
/// left run is cut at (roughly) even indices, and the right run is cut at
/// the `partition_point` of each left pivot, so part *i* of both runs
/// covers the same disjoint key interval. O(want · log |right|).
pub(crate) fn aligned_parts(
    left: &[Tuple],
    right: &[Tuple],
    want: usize,
) -> Vec<(Range<usize>, Range<usize>)> {
    let want = want.max(1);
    let mut cuts: Vec<(usize, usize)> = vec![(0, 0)];
    for i in 1..want {
        let l = (left.len() * i) / want;
        let (prev_l, prev_r) = *cuts.last().expect("cuts is non-empty");
        if l <= prev_l || l >= left.len() {
            continue; // degenerate cut: fold into the neighbouring part
        }
        let pivot = &left[l];
        let r = prev_r + right[prev_r..].partition_point(|t| t < pivot);
        cuts.push((l, r));
    }
    cuts.push((left.len(), right.len()));
    cuts.windows(2)
        .map(|w| (w[0].0..w[1].0, w[0].1..w[1].1))
        .collect()
}

impl SnapshotState {
    /// [`SnapshotState::select`] evaluated over partitioned slice ranges.
    pub fn select_par(&self, predicate: &Predicate, pool: &ExecPool) -> Result<SnapshotState> {
        let compiled = predicate.compile(self.schema())?;
        let range = compiled.key_range(self.run(), |t| t);
        let runs = pool.map_chunks(
            OpKind::Select,
            &self.run()[range],
            pool.grain(OpKind::Select),
            |chunk| {
                chunk
                    .iter()
                    .filter(|t| compiled.eval(t))
                    .cloned()
                    .collect::<Vec<Tuple>>()
            },
        );
        let total: usize = runs.iter().map(Vec::len).sum();
        if total == self.len() {
            return Ok(self.clone());
        }
        // Disjoint ascending runs: in-order concatenation is sorted.
        let mut out = Vec::with_capacity(total);
        for run in runs {
            out.extend(run);
        }
        Ok(SnapshotState::from_sorted_vec(self.schema().clone(), out))
    }

    /// [`SnapshotState::project`] evaluated over partitioned slice ranges.
    pub fn project_par(&self, attrs: &[impl AsRef<str>], pool: &ExecPool) -> Result<SnapshotState> {
        let (schema, indices) = self.schema().project(attrs)?;
        let runs = pool.map_chunks(
            OpKind::Project,
            self.run(),
            pool.grain(OpKind::Project),
            |chunk| {
                chunk
                    .iter()
                    .map(|t| t.project(&indices))
                    .collect::<Vec<Tuple>>()
            },
        );
        let mut out = Vec::with_capacity(self.len());
        for run in runs {
            out.extend(run);
        }
        if is_identity_prefix(&indices) {
            // In-order concatenation of an order-preserving projection is
            // already sorted; only adjacent duplicates can occur.
            out.dedup();
            Ok(SnapshotState::from_sorted_vec(schema, out))
        } else {
            Ok(SnapshotState::from_unsorted_vec(schema, out))
        }
    }

    /// [`SnapshotState::product`] with the left operand partitioned.
    pub fn product_par(&self, other: &SnapshotState, pool: &ExecPool) -> Result<SnapshotState> {
        let schema = self.schema().product(other.schema())?;
        // The product's grain counts output pairs; one left tuple fans
        // out over the whole right operand.
        let grain = (pool.grain(OpKind::Product) / other.len().max(1)).max(1);
        let runs = pool.map_chunks(OpKind::Product, self.run(), grain, |chunk| {
            let mut pairs = Vec::with_capacity(chunk.len() * other.len());
            for l in chunk {
                for r in other.iter() {
                    pairs.push(l.concat(r));
                }
            }
            pairs
        });
        let mut out = Vec::with_capacity(self.len() * other.len());
        for run in runs {
            out.extend(run);
        }
        Ok(SnapshotState::from_sorted_vec(schema, out))
    }

    /// [`SnapshotState::difference`] as a merge over aligned partitions
    /// of both runs.
    pub fn difference_par(&self, other: &SnapshotState, pool: &ExecPool) -> Result<SnapshotState> {
        self.schema().require_union_compatible(other.schema())?;
        if self.is_empty() || other.is_empty() || self.shares_run(other) {
            return self.difference(other);
        }
        let want = pool.chunks_for(OpKind::Difference, self.len() + other.len());
        let parts = aligned_parts(self.run(), other.run(), want);
        let runs = pool.map_chunks(OpKind::Difference, &parts, 1, |chunk| {
            let mut out = Vec::new();
            for (lr, rr) in chunk {
                out.extend(merge_difference(
                    &self.run()[lr.clone()],
                    &other.run()[rr.clone()],
                ));
            }
            out
        });
        let total: usize = runs.iter().map(Vec::len).sum();
        if total == self.len() {
            // Disjoint operands: nothing removed, share the left run.
            return Ok(self.clone());
        }
        let mut out = Vec::with_capacity(total);
        for run in runs {
            out.extend(run);
        }
        Ok(SnapshotState::from_sorted_vec(self.schema().clone(), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_state, GenConfig};
    use crate::rng::rngs::StdRng;
    use crate::rng::SeedableRng;
    use crate::{DomainType, Schema, Value};

    fn schema(prefix: &str) -> Schema {
        Schema::new(vec![
            (format!("{prefix}0"), DomainType::Int),
            (format!("{prefix}1"), DomainType::Str),
        ])
        .unwrap()
    }

    fn random(seed: u64, prefix: &str, cardinality: usize) -> SnapshotState {
        let cfg = GenConfig {
            arity: 2,
            cardinality,
            int_range: 64,
            str_pool: 8,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        random_state(&mut rng, &schema(prefix), &cfg)
    }

    #[test]
    fn aligned_parts_cover_both_runs_in_order() {
        let a = random(1, "a", 500);
        let b = random(2, "a", 700);
        for want in [1, 2, 3, 7] {
            let parts = aligned_parts(a.run(), b.run(), want);
            assert!(parts.len() <= want);
            assert_eq!(parts.first().unwrap().0.start, 0);
            assert_eq!(parts.first().unwrap().1.start, 0);
            assert_eq!(parts.last().unwrap().0.end, a.len());
            assert_eq!(parts.last().unwrap().1.end, b.len());
            for w in parts.windows(2) {
                assert_eq!(w[0].0.end, w[1].0.start);
                assert_eq!(w[0].1.end, w[1].1.start);
            }
        }
    }

    /// Every kernel, at several thread counts, against its sequential
    /// twin — results must be equal (and errors must agree).
    #[test]
    fn partitioned_kernels_match_sequential() {
        let a = random(1, "a", 3000);
        let b = random(2, "a", 3000);
        let c = random(3, "c", 40);
        let pred = Predicate::gt_const("a0", Value::Int(20));
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::with_unit_grain(threads);
            assert_eq!(
                a.select(&pred).unwrap(),
                a.select_par(&pred, &pool).unwrap()
            );
            assert_eq!(
                a.project(&["a1"]).unwrap(),
                a.project_par(&["a1"], &pool).unwrap()
            );
            assert_eq!(
                a.difference(&b).unwrap(),
                a.difference_par(&b, &pool).unwrap()
            );
            assert_eq!(a.product(&c).unwrap(), a.product_par(&c, &pool).unwrap());
        }
    }

    #[test]
    fn partitioned_kernels_preserve_errors() {
        let a = random(1, "a", 8);
        let pool = ExecPool::with_unit_grain(4);
        assert!(a
            .select_par(&Predicate::eq_const("ghost", Value::Int(0)), &pool)
            .is_err());
        assert!(a.project_par(&["ghost"], &pool).is_err());
        // Name clash in product; incompatible schemes in difference.
        assert!(a.product_par(&a, &pool).is_err());
        let other = random(2, "z", 8);
        assert!(a.difference_par(&other, &pool).is_err());
    }

    #[test]
    fn partitioned_identity_shortcuts_still_share() {
        let a = random(1, "a", 1200);
        let empty = SnapshotState::empty(schema("a"));
        let pool = ExecPool::with_unit_grain(4);
        let d = a.difference_par(&empty, &pool).unwrap();
        assert!(a.shares_run(&d));
    }
}
