//! The statistics catalog: per-relation, per-version cardinality
//! intervals and attribute value ranges.
//!
//! Two producers fill a [`StatsCatalog`]:
//!
//! * The **linter** maintains one *statically*, replaying a sentence the
//!   same way [`Catalog`](crate::Catalog) does: every `modify_state`
//!   records the abstract facts of its expression (a [`CardInterval`]
//!   plus per-attribute [`ValueRange`]s), every `evolve_scheme`
//!   transforms them, and FINDSTATE over the version list resolves what
//!   a rollback leaf can yield.
//! * The **storage engine** harvests one from data it already holds:
//!   sorted-run lengths give *exact* cardinalities (degenerate
//!   intervals), per-relation interner pools give string-domain
//!   cardinalities, and `space_bytes` summarizes the delta chains.
//!
//! Both feed the same consumers — the abstract interpreter in
//! [`lint`](crate::lint) and the optimizer's cost model — under one
//! soundness contract: **every interval contains the true value**. A
//! static interval contains the cardinality every execution produces; an
//! engine-harvested interval is the cardinality the store produced. The
//! differential proptests in the workspace root hold the static path to
//! this contract against the engine.

use std::collections::BTreeMap;

use txtime_core::TransactionNumber;
use txtime_snapshot::Value;

/// A sound interval of cardinalities: the true cardinality `n` of the
/// abstracted state satisfies `lo ≤ n` and, when `hi` is known,
/// `n ≤ hi`. `hi = None` means "unbounded above" (nothing is known).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CardInterval {
    /// Lower bound (inclusive).
    pub lo: u64,
    /// Upper bound (inclusive), or `None` when no upper bound is known.
    pub hi: Option<u64>,
}

impl CardInterval {
    /// The exact cardinality `n`: the degenerate interval `[n, n]`.
    pub fn exact(n: u64) -> CardInterval {
        CardInterval { lo: n, hi: Some(n) }
    }

    /// The provably empty state: `[0, 0]`.
    pub fn empty() -> CardInterval {
        CardInterval::exact(0)
    }

    /// Nothing known: `[0, ∞)`.
    pub fn unknown() -> CardInterval {
        CardInterval { lo: 0, hi: None }
    }

    /// `[0, hi]` — the result of an operator that can only shrink its
    /// operand (σ with an undecided predicate, δ, −̂ timestamping).
    pub fn at_most(hi: Option<u64>) -> CardInterval {
        CardInterval { lo: 0, hi }
    }

    /// Whether the abstracted state is provably ∅ (`hi = 0`).
    pub fn is_provably_empty(self) -> bool {
        self.hi == Some(0)
    }

    /// Whether a concrete cardinality lies in the interval — the
    /// soundness predicate the proptests check.
    pub fn contains(self, n: u64) -> bool {
        self.lo <= n && self.hi.is_none_or(|h| n <= h)
    }

    /// The interval hull of two intervals (`self ⊔ other`): sound for a
    /// state known to be abstracted by either one.
    pub fn join(self, other: CardInterval) -> CardInterval {
        CardInterval {
            lo: self.lo.min(other.lo),
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Interval sum: `[la + lb, ha + hb]` — the upper bound for ∪
    /// (`|A ∪ B| ≤ |A| + |B|`) paired with the ∪ lower bound
    /// `max(la, lb)` lives in [`CardInterval::union_of`].
    fn add_hi(a: Option<u64>, b: Option<u64>) -> Option<u64> {
        match (a, b) {
            (Some(a), Some(b)) => a.checked_add(b),
            _ => None,
        }
    }

    /// The interval for `A ∪ B` (set union of the tuple sets; also
    /// sound for ∪̂, which merges entries by tuple):
    /// `[max(la, lb), ha + hb]`.
    pub fn union_of(a: CardInterval, b: CardInterval) -> CardInterval {
        CardInterval {
            lo: a.lo.max(b.lo),
            hi: CardInterval::add_hi(a.hi, b.hi),
        }
    }

    /// The interval for `A − B`: `[la − hb, ha]` (saturating; every
    /// result tuple comes from `A`, and at most `hb` of `A`'s tuples
    /// can be removed). Also sound for −̂: an entry of `A` survives
    /// (possibly timestamped down) unless its tuple occurs in `B`.
    pub fn difference_of(a: CardInterval, b: CardInterval) -> CardInterval {
        let lo = match b.hi {
            Some(hb) => a.lo.saturating_sub(hb),
            None => 0,
        };
        CardInterval { lo, hi: a.hi }
    }

    /// The interval for the snapshot product `A × B`: exactly
    /// `[la·lb, ha·hb]` (every pairing appears once).
    pub fn product_of(a: CardInterval, b: CardInterval) -> CardInterval {
        CardInterval {
            lo: a.lo.saturating_mul(b.lo),
            hi: match (a.hi, b.hi) {
                (Some(x), Some(y)) => x.checked_mul(y),
                _ => None,
            },
        }
    }

    /// The interval for the historical product `A ×̂ B`: `[0, ha·hb]` —
    /// a pairing whose valid-time intersection is empty is dropped, so
    /// only the upper bound of the snapshot product survives.
    pub fn hproduct_of(a: CardInterval, b: CardInterval) -> CardInterval {
        CardInterval::at_most(CardInterval::product_of(a, b).hi)
    }

    /// A single representative cardinality for cost estimation: the
    /// midpoint of a bounded interval, the lower bound otherwise.
    pub fn estimate(self) -> f64 {
        match self.hi {
            Some(h) => (self.lo as f64 + h as f64) / 2.0,
            None => self.lo as f64,
        }
    }
}

/// One inclusive/exclusive endpoint of a [`ValueRange`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bound {
    /// The bounding value.
    pub value: Value,
    /// Whether the bound excludes `value` itself.
    pub strict: bool,
}

impl Bound {
    /// An inclusive bound.
    pub fn closed(value: Value) -> Bound {
        Bound {
            value,
            strict: false,
        }
    }

    /// An exclusive bound.
    pub fn open(value: Value) -> Bound {
        Bound {
            value,
            strict: true,
        }
    }
}

/// A sound interval of attribute values: every value the attribute takes
/// in the abstracted state satisfies the bounds (`None` = unbounded on
/// that side). Domains are totally ordered ([`Value`]'s `Ord`), so a
/// range is the natural abstract domain for the comparison predicates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueRange {
    /// Lower bound, if any.
    pub lo: Option<Bound>,
    /// Upper bound, if any.
    pub hi: Option<Bound>,
}

impl ValueRange {
    /// The full range: nothing known.
    pub fn full() -> ValueRange {
        ValueRange::default()
    }

    /// The degenerate range holding exactly `v`.
    pub fn exact(v: Value) -> ValueRange {
        ValueRange {
            lo: Some(Bound::closed(v.clone())),
            hi: Some(Bound::closed(v)),
        }
    }

    /// The tightest closed range containing every value in `values`
    /// (`full` when the iterator is empty — ∅ has no useful range).
    pub fn spanning<'a>(values: impl IntoIterator<Item = &'a Value>) -> ValueRange {
        let mut it = values.into_iter();
        let Some(first) = it.next() else {
            return ValueRange::full();
        };
        let (mut min, mut max) = (first, first);
        for v in it {
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        ValueRange {
            lo: Some(Bound::closed(min.clone())),
            hi: Some(Bound::closed(max.clone())),
        }
    }

    /// Whether no value can satisfy both bounds: the range denotes ∅.
    pub fn is_empty(&self) -> bool {
        match (&self.lo, &self.hi) {
            (Some(l), Some(h)) => {
                l.value > h.value || (l.value == h.value && (l.strict || h.strict))
            }
            _ => false,
        }
    }

    /// Whether `v` lies within the bounds.
    pub fn contains(&self, v: &Value) -> bool {
        let above_lo = match &self.lo {
            Some(b) => {
                if b.strict {
                    *v > b.value
                } else {
                    *v >= b.value
                }
            }
            None => true,
        };
        let below_hi = match &self.hi {
            Some(b) => {
                if b.strict {
                    *v < b.value
                } else {
                    *v <= b.value
                }
            }
            None => true,
        };
        above_lo && below_hi
    }

    /// The range hull (`self ⊔ other`): sound for a value drawn from
    /// either range.
    pub fn join(&self, other: &ValueRange) -> ValueRange {
        fn weaker_lo(a: Option<&Bound>, b: Option<&Bound>) -> Option<Bound> {
            let (a, b) = (a?, b?);
            Some(match a.value.cmp(&b.value) {
                std::cmp::Ordering::Less => a.clone(),
                std::cmp::Ordering::Greater => b.clone(),
                std::cmp::Ordering::Equal => Bound {
                    value: a.value.clone(),
                    strict: a.strict && b.strict,
                },
            })
        }
        fn weaker_hi(a: Option<&Bound>, b: Option<&Bound>) -> Option<Bound> {
            let (a, b) = (a?, b?);
            Some(match a.value.cmp(&b.value) {
                std::cmp::Ordering::Greater => a.clone(),
                std::cmp::Ordering::Less => b.clone(),
                std::cmp::Ordering::Equal => Bound {
                    value: a.value.clone(),
                    strict: a.strict && b.strict,
                },
            })
        }
        ValueRange {
            lo: weaker_lo(self.lo.as_ref(), other.lo.as_ref()),
            hi: weaker_hi(self.hi.as_ref(), other.hi.as_ref()),
        }
    }

    /// Tightens the lower bound to `b` if it is stronger than the
    /// current one.
    pub fn refine_lo(&mut self, b: Bound) {
        let stronger = match &self.lo {
            Some(cur) => b.value > cur.value || (b.value == cur.value && b.strict && !cur.strict),
            None => true,
        };
        if stronger {
            self.lo = Some(b);
        }
    }

    /// Tightens the upper bound to `b` if it is stronger than the
    /// current one.
    pub fn refine_hi(&mut self, b: Bound) {
        let stronger = match &self.hi {
            Some(cur) => b.value < cur.value || (b.value == cur.value && b.strict && !cur.strict),
            None => true,
        };
        if stronger {
            self.hi = Some(b);
        }
    }

    /// The closed integer interval `[lo, hi]` this range denotes, when
    /// both endpoints are integer-valued. Strict bounds are narrowed by
    /// one; `None` for half-open, non-integer, or overflowing ranges.
    /// The returned pair may be inverted (`lo > hi`) when the range is
    /// empty — callers treat a non-positive width as selectivity 0.
    pub fn int_bounds(&self) -> Option<(i64, i64)> {
        let lo = match self.lo.as_ref() {
            Some(Bound {
                value: Value::Int(v),
                strict,
            }) => {
                if *strict {
                    v.checked_add(1)?
                } else {
                    *v
                }
            }
            _ => return None,
        };
        let hi = match self.hi.as_ref() {
            Some(Bound {
                value: Value::Int(v),
                strict,
            }) => {
                if *strict {
                    v.checked_sub(1)?
                } else {
                    *v
                }
            }
            _ => return None,
        };
        Some((lo, hi))
    }
}

/// Per-attribute statistics beyond value ranges: a distinct count plus a
/// small most-common-values sample. Value ranges only help equality
/// selectivity on integer domains (interpolation needs a width); strings
/// and booleans need these instead — `=`/`≠` selectivity reads the
/// matched MCV's frequency, or `1/distinct` for values outside the
/// sample.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ColumnStats {
    /// Distinct values the attribute takes in the version's state.
    pub distinct: u64,
    /// The most common values with the fraction of rows holding each,
    /// most frequent first. At most [`MCV_SAMPLE`] entries.
    pub mcvs: Vec<(Value, f64)>,
}

/// Cap on the most-common-values sample per attribute.
pub const MCV_SAMPLE: usize = 4;

impl ColumnStats {
    /// Harvests a column's statistics from its values: exact distinct
    /// count and the top-[`MCV_SAMPLE`] values by frequency.
    pub fn from_values<'a>(
        values: impl IntoIterator<Item = &'a Value>,
        rows: usize,
    ) -> ColumnStats {
        let mut counts: BTreeMap<&Value, usize> = BTreeMap::new();
        for v in values {
            *counts.entry(v).or_insert(0) += 1;
        }
        let distinct = counts.len() as u64;
        let mut by_freq: Vec<(&Value, usize)> = counts.into_iter().collect();
        by_freq.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let mcvs = by_freq
            .into_iter()
            .take(MCV_SAMPLE)
            .map(|(v, n)| (v.clone(), n as f64 / rows.max(1) as f64))
            .collect();
        ColumnStats { distinct, mcvs }
    }
}

/// Statistics for one stored version of a relation.
#[derive(Debug, Clone, PartialEq)]
pub struct VersionStats {
    /// The version's commit transaction number (mirrors the entry in
    /// [`RelationFacts::versions`](crate::RelationFacts)).
    pub tx: TransactionNumber,
    /// Cardinality interval for the version's state.
    pub card: CardInterval,
    /// Per-attribute value ranges, aligned with the version's scheme
    /// (`None` when unknown).
    pub ranges: Option<Vec<ValueRange>>,
    /// Per-attribute distinct counts and MCV samples, aligned with the
    /// version's scheme (`None` when unknown — the static linter path
    /// cannot count, only the engine harvest can).
    pub columns: Option<Vec<ColumnStats>>,
}

/// Statistics for one relation: its version statistics plus physical
/// figures only the engine can supply.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RelStats {
    /// Per-version statistics, in commit order. Non-history relations
    /// keep only the latest entry (mirroring the catalog).
    pub versions: Vec<VersionStats>,
    /// Distinct strings in the relation's interner pool, when the
    /// backing store has one (engine-harvested catalogs only). An upper
    /// bound on the distinct string values any attribute takes.
    pub interner_strings: Option<usize>,
    /// Logical footprint of the relation's version chain in bytes
    /// (engine-harvested catalogs only).
    pub space_bytes: Option<usize>,
}

impl RelStats {
    /// The statistics of the current (latest) version, if any.
    pub fn current(&self) -> Option<&VersionStats> {
        self.versions.last()
    }

    /// Static FINDSTATE over the statistics: the interval/ranges of the
    /// version current at `tx`. Mirrors
    /// [`RelationFacts::find_state`](crate::RelationFacts::find_state):
    /// before the first version the forced-∅ boundary yields `[0, 0]`;
    /// with no versions at all, nothing is known.
    pub fn find_stats(&self, tx: TransactionNumber) -> (CardInterval, Option<Vec<ValueRange>>) {
        if self.versions.is_empty() {
            return (CardInterval::unknown(), None);
        }
        let idx = self.versions.partition_point(|v| v.tx <= tx);
        match idx.checked_sub(1) {
            Some(i) => (self.versions[i].card, self.versions[i].ranges.clone()),
            None => (CardInterval::empty(), None),
        }
    }

    /// Records a new version's statistics, mirroring the
    /// replace/append dispatch of `modify_state`.
    pub fn push_version(
        &mut self,
        tx: TransactionNumber,
        card: CardInterval,
        ranges: Option<Vec<ValueRange>>,
        keeps_history: bool,
    ) {
        if !keeps_history {
            self.versions.clear();
        }
        self.versions.push(VersionStats {
            tx,
            card,
            ranges,
            columns: None,
        });
    }
}

/// Per-relation statistics, keyed by relation name — the statics-side
/// companion of [`Catalog`](crate::Catalog) and the input the optimizer's
/// cost model seeds itself from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatsCatalog {
    relations: BTreeMap<String, RelStats>,
}

impl StatsCatalog {
    /// An empty catalog.
    pub fn new() -> StatsCatalog {
        StatsCatalog::default()
    }

    /// Looks up one relation's statistics.
    pub fn get(&self, name: &str) -> Option<&RelStats> {
        self.relations.get(name)
    }

    /// Mutable access for recording new versions.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut RelStats> {
        self.relations.get_mut(name)
    }

    /// The relation names with statistics, sorted.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.relations.keys().map(String::as_str)
    }

    /// Registers a freshly defined relation (no versions yet).
    pub fn define(&mut self, name: impl Into<String>) {
        self.relations.insert(name.into(), RelStats::default());
    }

    /// Inserts a fully built entry (the engine-harvest path).
    pub fn insert(&mut self, name: impl Into<String>, stats: RelStats) {
        self.relations.insert(name.into(), stats);
    }

    /// Removes a relation's statistics (`delete_relation`).
    pub fn undefine(&mut self, name: &str) {
        self.relations.remove(name);
    }

    /// The current-version cardinality interval of a relation, if known.
    pub fn current_card(&self, name: &str) -> Option<CardInterval> {
        self.get(name)?.current().map(|v| v.card)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_arithmetic_is_sound_on_samples() {
        let a = CardInterval::exact(3);
        let b = CardInterval { lo: 1, hi: Some(4) };
        let u = CardInterval::union_of(a, b);
        // |A| = 3, |B| ∈ [1,4] ⇒ |A ∪ B| ∈ [3, 7].
        assert_eq!(u, CardInterval { lo: 3, hi: Some(7) });
        for n in 3..=7 {
            assert!(u.contains(n));
        }
        let d = CardInterval::difference_of(a, b);
        assert_eq!(d, CardInterval { lo: 0, hi: Some(3) });
        let p = CardInterval::product_of(a, b);
        assert_eq!(
            p,
            CardInterval {
                lo: 3,
                hi: Some(12)
            }
        );
        assert!(CardInterval::hproduct_of(a, b).contains(0));
        assert!(CardInterval::empty().is_provably_empty());
        assert!(!CardInterval::unknown().is_provably_empty());
        assert!(CardInterval::unknown().contains(u64::MAX));
    }

    #[test]
    fn overflow_widens_instead_of_wrapping() {
        let big = CardInterval::exact(u64::MAX);
        assert_eq!(CardInterval::union_of(big, big).hi, None);
        assert_eq!(CardInterval::product_of(big, big).hi, None);
    }

    #[test]
    fn range_refinement_and_emptiness() {
        let mut r = ValueRange::full();
        r.refine_lo(Bound::open(Value::Int(5))); // v > 5
        r.refine_hi(Bound::closed(Value::Int(9))); // v ≤ 9
        assert!(!r.is_empty());
        assert!(r.contains(&Value::Int(6)));
        assert!(!r.contains(&Value::Int(5)));
        assert!(!r.contains(&Value::Int(10)));
        r.refine_hi(Bound::open(Value::Int(3))); // v < 3: contradiction
        assert!(r.is_empty());
    }

    #[test]
    fn range_join_widens() {
        let a = ValueRange::exact(Value::Int(1));
        let b = ValueRange::exact(Value::Int(9));
        let j = a.join(&b);
        assert!(j.contains(&Value::Int(1)));
        assert!(j.contains(&Value::Int(5)));
        assert!(j.contains(&Value::Int(9)));
        assert!(!j.contains(&Value::Int(0)));
        // Joining with an unbounded range is unbounded.
        let u = a.join(&ValueRange::full());
        assert_eq!(u, ValueRange::full());
    }

    #[test]
    fn spanning_covers_all_values() {
        let vs = [Value::Int(4), Value::Int(-2), Value::Int(7)];
        let r = ValueRange::spanning(vs.iter());
        for v in &vs {
            assert!(r.contains(v));
        }
        assert!(!r.contains(&Value::Int(-3)));
        assert_eq!(ValueRange::spanning([].iter()), ValueRange::full());
    }

    #[test]
    fn find_stats_mirrors_static_findstate() {
        let mut rs = RelStats::default();
        assert_eq!(
            rs.find_stats(TransactionNumber(5)).0,
            CardInterval::unknown()
        );
        rs.push_version(TransactionNumber(2), CardInterval::exact(3), None, true);
        rs.push_version(TransactionNumber(4), CardInterval::exact(5), None, true);
        assert_eq!(rs.find_stats(TransactionNumber(1)).0, CardInterval::empty());
        assert_eq!(
            rs.find_stats(TransactionNumber(3)).0,
            CardInterval::exact(3)
        );
        assert_eq!(
            rs.find_stats(TransactionNumber(9)).0,
            CardInterval::exact(5)
        );
    }

    #[test]
    fn non_history_relations_keep_single_version() {
        let mut rs = RelStats::default();
        rs.push_version(TransactionNumber(2), CardInterval::exact(3), None, false);
        rs.push_version(TransactionNumber(3), CardInterval::exact(7), None, false);
        assert_eq!(rs.versions.len(), 1);
        assert_eq!(rs.current().unwrap().card, CardInterval::exact(7));
    }
}
