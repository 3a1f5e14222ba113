//! Single-pass merge kernels over sorted runs.
//!
//! Every kernel here takes canonically-ordered (strictly sorted,
//! duplicate-free) slices and produces a canonically-ordered `Vec` in one
//! linear pass — no tree inserts, no per-element allocation beyond the
//! output buffer. The sequential operators call them on whole runs; the
//! partitioned kernels in [`super::par`] call them on aligned sub-ranges
//! and concatenate.

use std::cmp::Ordering;

use crate::run::gallop;
use crate::tuple::Tuple;

/// Two-pointer union merge: every tuple in either input, once.
pub(crate) fn merge_union(left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        match left[i].cmp(&right[j]) {
            Ordering::Less => {
                out.push(left[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(right[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.push(left[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

/// Difference merge: tuples of `left` absent from `right`, in one pass
/// over both runs.
///
/// The right cursor only moves forward: each left tuple is looked for
/// from where the previous search ended ([`seek`]), by exponential
/// probing, so the whole merge costs O(|left| + |right|) comparisons
/// when the operands interleave and O(|left| · log(|right| / |left|))
/// when the right run is much the longer.
pub(crate) fn merge_difference(left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(left.len());
    let mut j = 0usize;
    for t in left {
        let (next, hit) = seek(right, j, t);
        j = next;
        if !hit {
            out.push(t.clone());
        }
    }
    out
}

/// Looks for `t` in `right[j..]`: where the cursor stands afterwards and
/// whether `t` was there. A miss leaves the cursor on the first tuple
/// above `t`; a hit at `j` steps past it, to `j + 1`, because the left
/// run is strictly increasing and no later tuple can match it again.
fn seek(right: &[Tuple], j: usize, t: &Tuple) -> (usize, bool) {
    let j = gallop(right, j, t);
    match right.get(j) {
        Some(r) if r == t => (j + 1, true),
        _ => (j, false),
    }
}

/// Intersection merge: tuples present in both inputs.
pub(crate) fn merge_intersect(left: &[Tuple], right: &[Tuple]) -> Vec<Tuple> {
    let mut out = Vec::with_capacity(left.len().min(right.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        match left[i].cmp(&right[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                out.push(left[i].clone());
                i += 1;
                j += 1;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    fn run(vals: &[i64]) -> Vec<Tuple> {
        vals.iter()
            .map(|&v| Tuple::new(vec![Value::Int(v)]))
            .collect()
    }

    #[test]
    fn union_merges_without_duplicates() {
        let out = merge_union(&run(&[1, 3, 5]), &run(&[2, 3, 6]));
        assert_eq!(out, run(&[1, 2, 3, 5, 6]));
    }

    #[test]
    fn difference_gallops_over_large_right() {
        let left = run(&[5, 500]);
        let right: Vec<Tuple> = run(&(0..1000).filter(|v| v % 2 == 0).collect::<Vec<_>>());
        let out = merge_difference(&left, &right);
        assert_eq!(out, run(&[5]));
    }

    /// The one-pass bound, on the cursor: a hit at `j` is never searched
    /// again (the next search starts at `j + 1`), a miss parks the cursor
    /// on the first tuple above, and the cursor never moves back.
    #[test]
    fn difference_cursor_steps_past_a_hit_and_never_back() {
        let right = run(&[0, 2, 4, 6, 8, 10]);
        for (j, t) in right.iter().enumerate() {
            assert_eq!(seek(&right, j, t), (j + 1, true));
            // Found from any earlier start as well, and stepped past.
            assert_eq!(seek(&right, 0, t), (j + 1, true));
        }
        assert_eq!(seek(&right, 0, &run(&[5])[0]), (3, false));
        assert_eq!(seek(&right, 3, &run(&[5])[0]), (3, false));
        assert_eq!(seek(&right, 6, &run(&[99])[0]), (6, false));
        // Equal runs: one step per row, so the walk is |left| + |right|.
        let mut j = 0;
        for (i, t) in right.iter().enumerate() {
            let (next, hit) = seek(&right, j, t);
            assert!(hit && next == i + 1 && next > j);
            j = next;
        }
        assert!(merge_difference(&right, &right).is_empty());
    }

    #[test]
    fn intersect_keeps_common() {
        let out = merge_intersect(&run(&[1, 2, 3, 4]), &run(&[2, 4, 8]));
        assert_eq!(out, run(&[2, 4]));
    }

    #[test]
    fn empty_inputs() {
        assert!(merge_union(&[], &[]).is_empty());
        assert!(merge_difference(&[], &run(&[1])).is_empty());
        assert!(merge_intersect(&run(&[1]), &[]).is_empty());
    }
}
