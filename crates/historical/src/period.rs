//! Periods: half-open intervals of chronons.

use std::fmt;

use crate::chronon::{Chronon, FOREVER};
use crate::error::HistoricalError;
use crate::Result;

/// A non-empty half-open period `[start, end)` of chronons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Period {
    start: Chronon,
    end: Chronon,
}

impl Period {
    /// Creates `[start, end)`; fails unless `start < end`.
    pub fn new(start: Chronon, end: Chronon) -> Result<Period> {
        if start < end {
            Ok(Period { start, end })
        } else {
            Err(HistoricalError::EmptyPeriod { start, end })
        }
    }

    /// `[start, FOREVER)` — valid from `start` until changed.
    pub fn from(start: Chronon) -> Period {
        Period {
            start,
            end: FOREVER,
        }
    }

    /// The single-chronon period `[c, c+1)`.
    pub fn instant(c: Chronon) -> Period {
        debug_assert!(c < FOREVER);
        Period {
            start: c,
            end: c + 1,
        }
    }

    /// Inclusive lower bound.
    pub fn start(self) -> Chronon {
        self.start
    }

    /// Exclusive upper bound.
    pub fn end(self) -> Chronon {
        self.end
    }

    /// Number of chronons covered.
    pub fn duration(self) -> u64 {
        u64::from(self.end) - u64::from(self.start)
    }

    /// Whether `c` lies inside the period.
    pub fn contains(self, c: Chronon) -> bool {
        self.start <= c && c < self.end
    }

    /// Whether the two periods share at least one chronon.
    pub fn overlaps(self, other: Period) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Whether the two periods are adjacent (`self.end == other.start` or
    /// vice versa); adjacent periods coalesce.
    pub fn meets(self, other: Period) -> bool {
        self.end == other.start || other.end == self.start
    }

    /// Whether every chronon of `self` precedes every chronon of `other`.
    pub fn precedes(self, other: Period) -> bool {
        self.end <= other.start
    }

    /// The common sub-period, if any.
    pub fn intersect(self, other: Period) -> Option<Period> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        (start < end).then_some(Period { start, end })
    }

    /// The merged period, if the two overlap or meet.
    pub fn merge(self, other: Period) -> Option<Period> {
        (self.overlaps(other) || self.meets(other)).then(|| Period {
            start: self.start.min(other.start),
            end: self.end.max(other.end),
        })
    }
}

impl fmt::Display for Period {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        txtime_snapshot::encode::encode(f, |e| crate::encode::write_period(e, self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: Chronon, e: Chronon) -> Period {
        Period::new(s, e).unwrap()
    }

    #[test]
    fn rejects_empty() {
        assert!(Period::new(5, 5).is_err());
        assert!(Period::new(6, 5).is_err());
    }

    #[test]
    fn containment_is_half_open() {
        let q = p(2, 5);
        assert!(!q.contains(1));
        assert!(q.contains(2));
        assert!(q.contains(4));
        assert!(!q.contains(5));
    }

    #[test]
    fn overlap_cases() {
        assert!(p(0, 5).overlaps(p(4, 10)));
        assert!(!p(0, 5).overlaps(p(5, 10))); // meets, doesn't overlap
        assert!(p(0, 10).overlaps(p(3, 4))); // containment
        assert!(!p(0, 2).overlaps(p(8, 9)));
    }

    #[test]
    fn meets_is_symmetric() {
        assert!(p(0, 5).meets(p(5, 9)));
        assert!(p(5, 9).meets(p(0, 5)));
        assert!(!p(0, 5).meets(p(6, 9)));
    }

    #[test]
    fn precedes_allows_meeting() {
        assert!(p(0, 5).precedes(p(5, 9)));
        assert!(p(0, 5).precedes(p(7, 9)));
        assert!(!p(0, 6).precedes(p(5, 9)));
    }

    #[test]
    fn intersection() {
        assert_eq!(p(0, 5).intersect(p(3, 9)), Some(p(3, 5)));
        assert_eq!(p(0, 5).intersect(p(5, 9)), None);
        assert_eq!(p(0, 10).intersect(p(2, 4)), Some(p(2, 4)));
    }

    #[test]
    fn merge_coalesces_adjacent() {
        assert_eq!(p(0, 5).merge(p(5, 9)), Some(p(0, 9)));
        assert_eq!(p(0, 5).merge(p(3, 9)), Some(p(0, 9)));
        assert_eq!(p(0, 5).merge(p(6, 9)), None);
    }

    #[test]
    fn instant_and_from() {
        assert_eq!(Period::instant(3), p(3, 4));
        assert_eq!(Period::from(7).end(), FOREVER);
        assert_eq!(Period::from(7).to_string(), "[7, forever)");
    }

    #[test]
    fn duration_handles_forever() {
        assert_eq!(p(2, 7).duration(), 5);
        assert_eq!(Period::from(0).duration(), u64::from(FOREVER));
    }
}
