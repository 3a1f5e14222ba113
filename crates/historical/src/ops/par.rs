//! Partitioned (parallel) variants of the historical operators.
//!
//! The same partition/merge discipline as the snapshot kernels
//! (`txtime_snapshot::ops::par`), applied to sorted-run historical
//! states: operands are split on slice ranges of the canonical run
//! (an O(1) partitioning — no per-entry collection), ranges are
//! evaluated on scoped worker threads, and the per-range results are
//! concatenated in range order. σ̂, π̂-free kernels and −̂ yield disjoint
//! sorted runs; ×̂ chunks the left operand so runs stay disjoint and
//! sorted; −̂ splits *both* operands at aligned pivot tuples so each
//! chunk is an independent two-pointer merge. ∪̂, like ∪, is always the
//! one-pass merge ([`HistoricalState::hunion`]).

use std::ops::Range;

use txtime_exec::{ExecPool, OpKind};
use txtime_snapshot::Predicate;

use crate::ops::hmerge::hmerge_difference;
use crate::state::{Entry, HistoricalState};
use crate::Result;

/// Split two sorted runs into at most `want` aligned range pairs: the
/// left run is cut at evenly spaced indices and the right run at the
/// matching pivot tuples, so each pair of ranges can be merged
/// independently and the per-pair outputs concatenated in order.
pub(crate) fn aligned_parts(
    left: &[Entry],
    right: &[Entry],
    want: usize,
) -> Vec<(Range<usize>, Range<usize>)> {
    let want = want.max(1);
    let mut cuts: Vec<(usize, usize)> = Vec::with_capacity(want + 1);
    cuts.push((0, 0));
    let mut prev_l = 0usize;
    for k in 1..want {
        let l = k * left.len() / want;
        if l <= prev_l || l >= left.len() {
            continue;
        }
        let pivot = &left[l].0;
        let r = right.partition_point(|(t, _)| t < pivot);
        cuts.push((l, r));
        prev_l = l;
    }
    cuts.push((left.len(), right.len()));
    cuts.windows(2)
        .map(|w| (w[0].0..w[1].0, w[0].1..w[1].1))
        .collect()
}

impl HistoricalState {
    /// [`HistoricalState::hselect`] evaluated over partitioned chunks.
    pub fn hselect_par(&self, predicate: &Predicate, pool: &ExecPool) -> Result<HistoricalState> {
        let compiled = predicate.compile(self.schema())?;
        let range = compiled.key_range(self.run(), |(t, _)| t);
        let runs = pool.map_chunks(
            OpKind::HSelect,
            &self.run()[range],
            pool.grain(OpKind::HSelect),
            |chunk| {
                chunk
                    .iter()
                    .filter(|(t, _)| compiled.eval(t))
                    .cloned()
                    .collect::<Vec<_>>()
            },
        );
        let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
        for run in runs {
            out.extend(run);
        }
        if out.len() == self.len() {
            return Ok(self.clone());
        }
        Ok(HistoricalState::from_sorted_vec(self.schema().clone(), out))
    }

    /// [`HistoricalState::hproject`] evaluated over partitioned chunks.
    pub fn hproject_par(
        &self,
        attrs: &[impl AsRef<str>],
        pool: &ExecPool,
    ) -> Result<HistoricalState> {
        let (schema, indices) = self.schema().project(attrs)?;
        let runs = pool.map_chunks(
            OpKind::HProject,
            self.run(),
            pool.grain(OpKind::HProject),
            |chunk| {
                chunk
                    .iter()
                    .map(|(t, e)| (t.project(&indices), e.clone()))
                    .collect::<Vec<_>>()
            },
        );
        // Chunks are contiguous input ranges, so the concatenation scans
        // projected entries in input order; from_unsorted_vec coalesces
        // collisions with the same left-to-right element unions as the
        // sequential kernel, independent of chunking.
        let mut out = Vec::with_capacity(self.len());
        for run in runs {
            out.extend(run);
        }
        Ok(HistoricalState::from_unsorted_vec(schema, out))
    }

    /// [`HistoricalState::hproduct`] with the left operand partitioned.
    pub fn hproduct_par(
        &self,
        other: &HistoricalState,
        pool: &ExecPool,
    ) -> Result<HistoricalState> {
        let schema = self.schema().product(other.schema())?;
        let grain = (pool.grain(OpKind::HProduct) / other.len().max(1)).max(1);
        let runs = pool.map_chunks(OpKind::HProduct, self.run(), grain, |chunk| {
            let mut pairs = Vec::new();
            for (l, le) in chunk {
                for (r, re) in other.run() {
                    let e = le.intersect(re);
                    if !e.is_empty() {
                        pairs.push((l.concat(r), e));
                    }
                }
            }
            pairs
        });
        let mut out = Vec::with_capacity(runs.iter().map(Vec::len).sum());
        for run in runs {
            out.extend(run);
        }
        Ok(HistoricalState::from_sorted_vec(schema, out))
    }

    /// [`HistoricalState::hdifference`] partitioned into aligned range
    /// pairs, each subtracted independently.
    pub fn hdifference_par(
        &self,
        other: &HistoricalState,
        pool: &ExecPool,
    ) -> Result<HistoricalState> {
        self.schema().require_union_compatible(other.schema())?;
        if self.is_empty() || other.is_empty() || self.shares_run(other) {
            return self.hdifference(other);
        }
        let want = pool.chunks_for(OpKind::HDifference, self.len() + other.len());
        let parts = aligned_parts(self.run(), other.run(), want);
        let runs = pool.map_chunks(OpKind::HDifference, &parts, 1, |chunk| {
            let mut out = Vec::new();
            let mut changed = false;
            for (lr, rr) in chunk {
                let (survivors, c) =
                    hmerge_difference(&self.run()[lr.clone()], &other.run()[rr.clone()]);
                changed |= c;
                out.extend(survivors);
            }
            (out, changed)
        });
        if !runs.iter().any(|(_, changed)| *changed) {
            // No element changed: share the left run, like the
            // sequential kernel.
            return Ok(self.clone());
        }
        let mut out = Vec::with_capacity(runs.iter().map(|(r, _)| r.len()).sum());
        for (run, _) in runs {
            out.extend(run);
        }
        Ok(HistoricalState::from_sorted_vec(self.schema().clone(), out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{random_historical_state, HistGenConfig};
    use txtime_snapshot::generate::GenConfig;
    use txtime_snapshot::rng::rngs::StdRng;
    use txtime_snapshot::rng::SeedableRng;
    use txtime_snapshot::{DomainType, Schema, Value};

    fn schema(prefix: &str) -> Schema {
        Schema::new(vec![
            (format!("{prefix}0"), DomainType::Int),
            (format!("{prefix}1"), DomainType::Str),
        ])
        .unwrap()
    }

    fn random(seed: u64, prefix: &str, cardinality: usize) -> HistoricalState {
        let cfg = HistGenConfig {
            values: GenConfig {
                arity: 2,
                cardinality,
                int_range: 64,
                str_pool: 8,
            },
            horizon: 50,
            max_periods: 3,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        random_historical_state(&mut rng, &schema(prefix), &cfg)
    }

    #[test]
    fn aligned_parts_cover_both_runs_in_order() {
        let a = random(7, "a", 2000);
        let b = random(8, "a", 1500);
        for want in [1, 2, 5, 16] {
            let parts = aligned_parts(a.run(), b.run(), want);
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

    #[test]
    fn partitioned_kernels_match_sequential() {
        let a = random(1, "a", 2500);
        let b = random(2, "a", 2500);
        let c = random(3, "c", 30);
        let pred = Predicate::gt_const("a0", Value::Int(20));
        for threads in [1, 2, 3, 8] {
            let pool = ExecPool::with_unit_grain(threads);
            assert_eq!(
                a.hselect(&pred).unwrap(),
                a.hselect_par(&pred, &pool).unwrap()
            );
            assert_eq!(
                a.hproject(&["a1"]).unwrap(),
                a.hproject_par(&["a1"], &pool).unwrap()
            );
            assert_eq!(
                a.hdifference(&b).unwrap(),
                a.hdifference_par(&b, &pool).unwrap()
            );
            assert_eq!(a.hproduct(&c).unwrap(), a.hproduct_par(&c, &pool).unwrap());
        }
    }

    #[test]
    fn partitioned_kernels_preserve_errors() {
        let a = random(1, "a", 8);
        let pool = ExecPool::with_unit_grain(4);
        assert!(a
            .hselect_par(&Predicate::eq_const("ghost", Value::Int(0)), &pool)
            .is_err());
        assert!(a.hproject_par(&["ghost"], &pool).is_err());
        assert!(a.hproduct_par(&a, &pool).is_err());
        let other = random(2, "z", 8);
        assert!(a.hdifference_par(&other, &pool).is_err());
    }

    #[test]
    fn partitioned_identity_shortcuts_still_share() {
        let a = random(1, "a", 1200);
        let empty = HistoricalState::empty(schema("a"));
        let pool = ExecPool::with_unit_grain(4);
        let d = a.hdifference_par(&empty, &pool).unwrap();
        assert!(a.shares_run(&d));
        // A value-equal twin with a distinct run still subtracts to keep
        // everything; the left run is shared by the no-change shortcut.
        let twin = HistoricalState::new(schema("a"), a.iter().map(|(t, e)| (t.clone(), e.clone())))
            .unwrap();
        assert!(!a.shares_run(&twin));
        let kept = a
            .hdifference_par(&twin.hdifference_par(&a, &pool).unwrap(), &pool)
            .unwrap();
        assert!(a.shares_run(&kept));
    }
}
