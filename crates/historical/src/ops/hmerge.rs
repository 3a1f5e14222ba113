//! Single-pass merge kernels over sorted historical runs.
//!
//! The historical analogues of `txtime_snapshot::ops::merge`: inputs are
//! canonically-ordered entry slices (strictly sorted by value tuple,
//! non-empty coalesced elements) and outputs are canonically-ordered
//! `Vec`s produced in one linear pass. Where the snapshot kernels drop or
//! keep whole tuples, these kernels union / subtract / intersect the
//! valid-time elements of value-equal entries.

use std::cmp::Ordering;

use txtime_snapshot::run::gallop;
use txtime_snapshot::Tuple;

use crate::element::TemporalElement;
use crate::state::Entry;

/// Two-pointer historical union: value-equal entries merge with their
/// elements unioned (non-empty ∪ non-empty is non-empty, so the invariant
/// holds without filtering).
pub(crate) fn hmerge_union(left: &[Entry], right: &[Entry]) -> Vec<Entry> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        match left[i].0.cmp(&right[j].0) {
            Ordering::Less => {
                out.push(left[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                out.push(right[j].clone());
                j += 1;
            }
            Ordering::Equal => {
                out.push((left[i].0.clone(), left[i].1.union(&right[j].1)));
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&left[i..]);
    out.extend_from_slice(&right[j..]);
    out
}

/// Historical difference: each left entry keeps its element minus the
/// right element of the same value tuple; entries whose element empties
/// out disappear. Returns the surviving entries plus whether any element
/// actually changed (the caller's share-the-left-run shortcut).
///
/// One pass over both runs: the right cursor only moves forward, past
/// every match ([`seek`]), so interleaved operands cost
/// O(|left| + |right|) tuple comparisons and a right run much the longer
/// O(|left| · log(|right| / |left|)).
pub(crate) fn hmerge_difference(left: &[Entry], right: &[Entry]) -> (Vec<Entry>, bool) {
    let mut out = Vec::with_capacity(left.len());
    let mut changed = false;
    let mut j = 0usize;
    for (t, e) in left {
        let (next, hit) = seek(right, j, t);
        j = next;
        let remaining = match hit {
            Some(re) => e.difference(re),
            None => e.clone(),
        };
        changed |= &remaining != e;
        if !remaining.is_empty() {
            out.push((t.clone(), remaining));
        }
    }
    (out, changed)
}

/// Looks for `t` in `right[j..]`: where the cursor stands afterwards and
/// the valid time `right` holds under `t`, if any. A miss leaves the
/// cursor on the first entry above `t`; a hit at `j` steps past it, to
/// `j + 1`, because the left run is strictly increasing and no later
/// tuple can match it again.
fn seek<'a>(right: &'a [Entry], j: usize, t: &Tuple) -> (usize, Option<&'a TemporalElement>) {
    let j = gallop(right, j, t);
    match right.get(j) {
        Some((rt, re)) if rt == t => (j + 1, Some(re)),
        _ => (j, None),
    }
}

/// Historical intersection: value-equal entries survive over the
/// intersection of their elements; disjoint elements drop the entry.
pub(crate) fn hmerge_intersect(left: &[Entry], right: &[Entry]) -> Vec<Entry> {
    let mut out = Vec::with_capacity(left.len().min(right.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        match left[i].0.cmp(&right[j].0) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                let common = left[i].1.intersect(&right[j].1);
                if !common.is_empty() {
                    out.push((left[i].0.clone(), common));
                }
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
    use txtime_snapshot::Value;

    fn entry(v: i64, s: u32, e: u32) -> Entry {
        (
            Tuple::new(vec![Value::Int(v)]),
            TemporalElement::period(s, e),
        )
    }

    #[test]
    fn union_merges_elements_on_equal_tuples() {
        let out = hmerge_union(&[entry(1, 0, 5)], &[entry(1, 5, 9), entry(2, 0, 1)]);
        assert_eq!(out, vec![entry(1, 0, 9), entry(2, 0, 1)]);
    }

    #[test]
    fn difference_tracks_changes_and_drops_empties() {
        let (out, changed) =
            hmerge_difference(&[entry(1, 0, 5), entry(2, 0, 5)], &[entry(1, 0, 9)]);
        assert!(changed);
        assert_eq!(out, vec![entry(2, 0, 5)]);
        let (out, changed) = hmerge_difference(&[entry(1, 0, 5)], &[entry(2, 0, 9)]);
        assert!(!changed);
        assert_eq!(out, vec![entry(1, 0, 5)]);
    }

    /// The one-pass bound, on the cursor: a hit at `j` is never searched
    /// again (the next search starts at `j + 1`), a miss parks the cursor
    /// on the first entry above, and the cursor never moves back.
    #[test]
    fn difference_cursor_steps_past_a_hit_and_never_back() {
        let right: Vec<Entry> = (0..6).map(|v| entry(2 * v, 0, 5)).collect();
        for (j, (t, e)) in right.iter().enumerate() {
            assert_eq!(seek(&right, j, t), (j + 1, Some(e)));
            assert_eq!(seek(&right, 0, t), (j + 1, Some(e)));
        }
        let five = entry(5, 0, 1).0;
        assert_eq!(seek(&right, 0, &five), (3, None));
        assert_eq!(seek(&right, 3, &five), (3, None));
        assert_eq!(seek(&right, 6, &entry(99, 0, 1).0), (6, None));
        // Equal runs: one step per row, so the walk is |left| + |right|.
        let mut j = 0;
        for (i, (t, _)) in right.iter().enumerate() {
            let (next, hit) = seek(&right, j, t);
            assert!(hit.is_some() && next == i + 1 && next > j);
            j = next;
        }
        assert_eq!(hmerge_difference(&right, &right), (vec![], true));
    }

    #[test]
    fn intersect_drops_disjoint_elements() {
        let out = hmerge_intersect(
            &[entry(1, 0, 5), entry(2, 0, 5)],
            &[entry(1, 3, 9), entry(2, 7, 9)],
        );
        assert_eq!(out, vec![entry(1, 3, 5)]);
    }
}
