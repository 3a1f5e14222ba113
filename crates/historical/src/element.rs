//! Temporal elements: finite unions of disjoint periods.

use std::fmt;

use crate::chronon::Chronon;
use crate::period::Period;

/// A temporal element: a set of chronons represented as a sorted list of
/// disjoint, non-adjacent (maximally coalesced) periods.
///
/// Temporal elements are closed under union, intersection, difference, and
/// complement, which is what lets the historical operators manipulate
/// valid time set-theoretically. The canonical (coalesced) form makes
/// structural equality coincide with set equality.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TemporalElement {
    periods: Vec<Period>,
}

/// By hand for `clone_from`, which keeps the target's buffer where the
/// source's periods fit: a revalued entry's element is overwritten in
/// place (see `txtime_snapshot::run::Keyed::set_annotation`).
impl Clone for TemporalElement {
    fn clone(&self) -> TemporalElement {
        TemporalElement {
            periods: self.periods.clone(),
        }
    }

    fn clone_from(&mut self, source: &TemporalElement) {
        self.periods.clone_from(&source.periods);
    }
}

impl TemporalElement {
    /// The empty set of chronons.
    pub fn empty() -> TemporalElement {
        TemporalElement::default()
    }

    /// The single period `[start, end)`; panics if `start >= end`
    /// (constant-building convenience).
    pub fn period(start: Chronon, end: Chronon) -> TemporalElement {
        TemporalElement {
            periods: vec![Period::new(start, end).expect("non-empty period")],
        }
    }

    /// The singleton `{c}`.
    pub fn instant(c: Chronon) -> TemporalElement {
        TemporalElement {
            periods: vec![Period::instant(c)],
        }
    }

    /// `[start, FOREVER)`.
    pub fn from_chronon(start: Chronon) -> TemporalElement {
        TemporalElement {
            periods: vec![Period::from(start)],
        }
    }

    /// Builds an element from arbitrary periods, coalescing as needed.
    pub fn from_periods(periods: impl IntoIterator<Item = Period>) -> TemporalElement {
        let mut ps: Vec<Period> = periods.into_iter().collect();
        ps.sort();
        let mut out: Vec<Period> = Vec::with_capacity(ps.len());
        for p in ps {
            match out.last_mut() {
                Some(last) => {
                    if let Some(merged) = last.merge(p) {
                        *last = merged;
                    } else {
                        out.push(p);
                    }
                }
                None => out.push(p),
            }
        }
        TemporalElement { periods: out }
    }

    /// The coalesced periods, sorted ascending.
    pub fn periods(&self) -> &[Period] {
        &self.periods
    }

    /// Whether the element contains no chronon.
    pub fn is_empty(&self) -> bool {
        self.periods.is_empty()
    }

    /// Total number of chronons covered.
    pub fn duration(&self) -> u64 {
        self.periods.iter().map(|p| p.duration()).sum()
    }

    /// Whether chronon `c` is in the element (binary search).
    pub fn contains(&self, c: Chronon) -> bool {
        self.periods
            .binary_search_by(|p| {
                if p.end() <= c {
                    std::cmp::Ordering::Less
                } else if p.start() > c {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// The earliest chronon, if non-empty.
    pub fn first(&self) -> Option<Chronon> {
        self.periods.first().map(|p| p.start())
    }

    /// The latest chronon, if non-empty.
    pub fn last(&self) -> Option<Chronon> {
        self.periods.last().map(|p| p.end() - 1)
    }

    /// Set union.
    pub fn union(&self, other: &TemporalElement) -> TemporalElement {
        TemporalElement::from_periods(self.periods.iter().chain(other.periods.iter()).copied())
    }

    /// Set intersection.
    pub fn intersect(&self, other: &TemporalElement) -> TemporalElement {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.periods.len() && j < other.periods.len() {
            let (a, b) = (self.periods[i], other.periods[j]);
            if let Some(p) = a.intersect(b) {
                out.push(p);
            }
            if a.end() <= b.end() {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Intersection of coalesced inputs is already disjoint and sorted,
        // but adjacent outputs can appear when inputs share boundaries, so
        // normalize anyway.
        TemporalElement::from_periods(out)
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &TemporalElement) -> TemporalElement {
        let mut out = Vec::new();
        let mut j = 0;
        for &a in &self.periods {
            let mut start = a.start();
            // Skip other-periods entirely before this one.
            while j < other.periods.len() && other.periods[j].end() <= start {
                j += 1;
            }
            let mut k = j;
            while k < other.periods.len() && other.periods[k].start() < a.end() {
                let b = other.periods[k];
                if b.start() > start {
                    out.push(Period::new(start, b.start()).expect("non-empty gap"));
                }
                start = start.max(b.end());
                if start >= a.end() {
                    break;
                }
                k += 1;
            }
            if start < a.end() {
                out.push(Period::new(start, a.end()).expect("non-empty tail"));
            }
        }
        TemporalElement { periods: out }
    }

    /// Complement within the whole line `[0, FOREVER)`.
    pub fn complement(&self) -> TemporalElement {
        TemporalElement::from_chronon(0).difference(self)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &TemporalElement) -> bool {
        self.difference(other).is_empty()
    }

    /// Whether the two elements share at least one chronon.
    pub fn overlaps(&self, other: &TemporalElement) -> bool {
        !self.intersect(other).is_empty()
    }

    /// Whether every chronon of `self` precedes every chronon of `other`
    /// (vacuously true if either is empty).
    pub fn precedes(&self, other: &TemporalElement) -> bool {
        match (self.last(), other.first()) {
            (Some(l), Some(f)) => l < f,
            _ => true,
        }
    }

    /// Approximate footprint in bytes for space accounting.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<TemporalElement>() + self.periods.len() * std::mem::size_of::<Period>()
    }

    /// Iterates the chronons in the element. Intended for tests on small
    /// elements; the count can be astronomically large in general.
    pub fn chronons(&self) -> impl Iterator<Item = Chronon> + '_ {
        self.periods.iter().flat_map(|p| p.start()..p.end())
    }
}

impl fmt::Display for TemporalElement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        txtime_snapshot::encode::encode(f, |e| crate::encode::write_element(e, self))
    }
}

impl From<Period> for TemporalElement {
    fn from(p: Period) -> TemporalElement {
        TemporalElement { periods: vec![p] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(pairs: &[(Chronon, Chronon)]) -> TemporalElement {
        TemporalElement::from_periods(pairs.iter().map(|&(s, e)| Period::new(s, e).unwrap()))
    }

    #[test]
    fn construction_coalesces() {
        assert_eq!(el(&[(0, 5), (5, 9)]), el(&[(0, 9)]));
        assert_eq!(el(&[(0, 5), (3, 9)]), el(&[(0, 9)]));
        assert_eq!(el(&[(5, 9), (0, 2)]).periods().len(), 2);
    }

    #[test]
    fn containment() {
        let e = el(&[(0, 5), (10, 15)]);
        assert!(e.contains(0));
        assert!(e.contains(4));
        assert!(!e.contains(5));
        assert!(e.contains(12));
        assert!(!e.contains(20));
        assert!(!TemporalElement::empty().contains(0));
    }

    #[test]
    fn first_and_last() {
        let e = el(&[(3, 5), (10, 15)]);
        assert_eq!(e.first(), Some(3));
        assert_eq!(e.last(), Some(14));
        assert_eq!(TemporalElement::empty().first(), None);
    }

    #[test]
    fn union_merges() {
        assert_eq!(el(&[(0, 5)]).union(&el(&[(3, 9)])), el(&[(0, 9)]));
        assert_eq!(el(&[(0, 2)]).union(&el(&[(5, 7)])).periods().len(), 2);
    }

    #[test]
    fn intersection_cases() {
        assert_eq!(el(&[(0, 10)]).intersect(&el(&[(5, 15)])), el(&[(5, 10)]));
        assert_eq!(
            el(&[(0, 5), (10, 20)]).intersect(&el(&[(3, 12)])),
            el(&[(3, 5), (10, 12)])
        );
        assert!(el(&[(0, 3)]).intersect(&el(&[(5, 7)])).is_empty());
    }

    #[test]
    fn difference_cases() {
        assert_eq!(
            el(&[(0, 10)]).difference(&el(&[(3, 5)])),
            el(&[(0, 3), (5, 10)])
        );
        assert_eq!(
            el(&[(0, 10)]).difference(&el(&[(0, 10)])),
            TemporalElement::empty()
        );
        assert_eq!(el(&[(0, 10)]).difference(&el(&[(10, 20)])), el(&[(0, 10)]));
        assert_eq!(
            el(&[(0, 4), (6, 9)]).difference(&el(&[(2, 7)])),
            el(&[(0, 2), (7, 9)])
        );
    }

    #[test]
    fn complement_round_trip() {
        let e = el(&[(3, 5), (10, 15)]);
        assert_eq!(e.complement().complement(), e);
        assert!(e.intersect(&e.complement()).is_empty());
        assert_eq!(e.union(&e.complement()), TemporalElement::from_chronon(0));
    }

    #[test]
    fn subset_and_overlap() {
        assert!(el(&[(2, 4)]).is_subset(&el(&[(0, 10)])));
        assert!(!el(&[(2, 12)]).is_subset(&el(&[(0, 10)])));
        assert!(el(&[(2, 4)]).overlaps(&el(&[(3, 9)])));
        assert!(!el(&[(2, 4)]).overlaps(&el(&[(4, 9)])));
        assert!(TemporalElement::empty().is_subset(&el(&[(0, 1)])));
    }

    #[test]
    fn precedes_semantics() {
        assert!(el(&[(0, 5)]).precedes(&el(&[(5, 9)])));
        assert!(!el(&[(0, 6)]).precedes(&el(&[(5, 9)])));
        assert!(TemporalElement::empty().precedes(&el(&[(0, 1)])));
    }

    #[test]
    fn duration_sums_periods() {
        assert_eq!(el(&[(0, 5), (10, 12)]).duration(), 7);
        assert_eq!(TemporalElement::empty().duration(), 0);
    }

    #[test]
    fn display_form() {
        assert_eq!(el(&[(0, 5), (7, 9)]).to_string(), "{[0, 5) ∪ [7, 9)}");
        assert_eq!(TemporalElement::empty().to_string(), "{}");
    }

    #[test]
    fn chronon_iteration() {
        let cs: Vec<_> = el(&[(0, 2), (5, 7)]).chronons().collect();
        assert_eq!(cs, vec![0, 1, 5, 6]);
    }
}
