//! Historical states: the semantic domain HISTORICAL STATE.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use txtime_snapshot::run::{self, is_strictly_sorted};
use txtime_snapshot::{Schema, SnapshotState, StrInterner, Tuple};

use crate::chronon::Chronon;
use crate::element::TemporalElement;
use crate::error::HistoricalError;
use crate::Result;

/// One `(value tuple, valid time)` entry of an historical state.
pub type Entry = (Tuple, TemporalElement);

/// An historical state: a set of value tuples, each timestamped with the
/// temporal element over which its fact was valid.
///
/// This is the semantic domain *HISTORICAL STATE* — "the domain of all
/// valid historical relations as defined in the historical algebra". Two
/// invariants are maintained:
///
/// 1. **Coalescing** — value-equivalent tuples are merged, so each value
///    tuple appears at most once, and its temporal element is maximally
///    coalesced.
/// 2. **Non-emptiness** — no tuple carries an empty temporal element; a
///    fact valid at no time is simply absent.
///
/// The physical representation is a *sorted run*: a flat, reference-
/// counted slice of entries in strictly increasing value-tuple order.
/// The historical operators run as single-pass merge/scan kernels over
/// the run, lookups are binary searches, and — like [`SnapshotState`] —
/// cloning is O(1) with copy-on-write mutation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct HistoricalState {
    schema: Schema,
    run: Arc<Vec<Entry>>,
}

impl HistoricalState {
    /// The empty historical state over `schema`.
    pub fn empty(schema: Schema) -> HistoricalState {
        HistoricalState {
            schema,
            run: Arc::new(Vec::new()),
        }
    }

    /// Builds a state from `(tuple, valid-time)` pairs, validating tuples
    /// against the scheme, rejecting empty valid times, and coalescing
    /// value-equivalent entries.
    pub fn new(
        schema: Schema,
        entries: impl IntoIterator<Item = Entry>,
    ) -> Result<HistoricalState> {
        let mut run = Vec::new();
        for (t, e) in entries {
            t.check(&schema)?;
            if e.is_empty() {
                return Err(HistoricalError::EmptyValidTime);
            }
            run.push((t, e));
        }
        Ok(HistoricalState::from_unsorted_vec(schema, run))
    }

    /// Internal constructor for operator results that are already in
    /// canonical order (strictly sorted by value tuple, non-empty
    /// coalesced elements).
    pub(crate) fn from_sorted_vec(schema: Schema, run: Vec<Entry>) -> HistoricalState {
        debug_assert!(is_strictly_sorted(&run), "run must be strictly sorted");
        debug_assert!(run.iter().all(|(_, e)| !e.is_empty()));
        HistoricalState {
            schema,
            run: Arc::new(run),
        }
    }

    /// Internal constructor for operator results in arbitrary order:
    /// sorts by value tuple (stably, so value-equivalent entries coalesce
    /// in their original order) and unions adjacent duplicates.
    pub(crate) fn from_unsorted_vec(schema: Schema, mut run: Vec<Entry>) -> HistoricalState {
        debug_assert!(run.iter().all(|(_, e)| !e.is_empty()));
        if !is_strictly_sorted(&run) {
            run.sort_by(|a, b| a.0.cmp(&b.0));
            run.dedup_by(|next, prev| {
                if next.0 == prev.0 {
                    // Temporal-element union is commutative and
                    // associative, so left-to-right coalescing matches the
                    // map-based construction regardless of grouping.
                    prev.1 = prev.1.union(&next.1);
                    true
                } else {
                    false
                }
            });
        }
        HistoricalState {
            schema,
            run: Arc::new(run),
        }
    }

    /// Bridge constructor from a `BTreeMap` (which iterates in exactly
    /// the canonical order). Retained for the reference implementation
    /// and compatibility call sites.
    pub(crate) fn from_checked(
        schema: Schema,
        tuples: BTreeMap<Tuple, TemporalElement>,
    ) -> HistoricalState {
        debug_assert!(tuples.values().all(|e| !e.is_empty()));
        HistoricalState {
            schema,
            run: Arc::new(tuples.into_iter().collect()),
        }
    }

    /// Internal constructor that adopts an already-shared run — the
    /// zero-copy path for operator results that are one of the operands
    /// unchanged.
    pub(crate) fn from_shared(schema: Schema, run: Arc<Vec<Entry>>) -> HistoricalState {
        debug_assert!(is_strictly_sorted(&run), "run must be strictly sorted");
        HistoricalState { schema, run }
    }

    /// The reference-counted run (for zero-copy sharing between operator
    /// results).
    pub(crate) fn shared_run(&self) -> &Arc<Vec<Entry>> {
        &self.run
    }

    /// Applies a batch of removals and upserts: the historical twin of
    /// [`SnapshotState::apply_delta`], through the same kernel
    /// ([`txtime_snapshot::run::edit`]).
    ///
    /// Upserts *replace* an existing entry's temporal element (they do not
    /// union with it) — this is delta-replay semantics, not `hunion`. A
    /// tuple both removed and upserted ends present with the upserted
    /// element. Upserted tuples are checked against the scheme and their
    /// elements must be non-empty.
    pub fn apply_delta(&mut self, removed: &[Tuple], upserted: &[Entry]) -> Result<()> {
        for (t, e) in upserted {
            t.check(&self.schema)?;
            if e.is_empty() {
                return Err(HistoricalError::EmptyValidTime);
            }
        }
        run::edit(&mut self.run, removed, upserted);
        Ok(())
    }

    /// The state's scheme.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of distinct value tuples.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Whether the state has no tuples.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// The valid time of `tuple`, if it is present.
    pub fn valid_time(&self, tuple: &Tuple) -> Option<&TemporalElement> {
        self.run
            .binary_search_by(|(t, _)| t.cmp(tuple))
            .ok()
            .map(|i| &self.run[i].1)
    }

    /// Iterates `(tuple, valid-time)` pairs in deterministic order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &TemporalElement)> {
        self.run.iter().map(|(t, e)| (t, e))
    }

    /// The sorted run: every entry in strictly increasing value-tuple
    /// order.
    pub fn run(&self) -> &[Entry] {
        &self.run
    }

    /// Whether two states share the same physical run allocation — the
    /// observable footprint of the operators' zero-copy shortcuts.
    pub fn shares_run(&self, other: &HistoricalState) -> bool {
        Arc::ptr_eq(&self.run, &other.run)
    }

    /// The entries as a `BTreeMap` — a compatibility accessor that
    /// materializes a fresh tree from the run. Prefer
    /// [`HistoricalState::run`] or [`HistoricalState::iter`] on hot paths.
    pub fn entries(&self) -> BTreeMap<Tuple, TemporalElement> {
        self.run.iter().cloned().collect()
    }

    /// A state equal to this one but with every string value drawn from
    /// `pool` (see [`SnapshotState::interned`]). Returns a shallow clone
    /// when nothing changes.
    pub fn interned(&self, pool: &mut StrInterner) -> HistoricalState {
        let mut changed = false;
        let run: Vec<Entry> = self
            .run
            .iter()
            .map(|(t, e)| {
                let it = pool.intern_tuple(t);
                changed |= it.values().as_ptr() != t.values().as_ptr();
                (it, e.clone())
            })
            .collect();
        if changed {
            HistoricalState::from_sorted_vec(self.schema.clone(), run)
        } else {
            self.clone()
        }
    }

    /// The timeslice at chronon `c`: the snapshot state of facts valid at
    /// `c`. This is the bridge from historical to snapshot semantics.
    pub fn timeslice(&self, c: Chronon) -> SnapshotState {
        let tuples: Vec<Tuple> = self
            .run
            .iter()
            .filter(|(_, e)| e.contains(c))
            .map(|(t, _)| t.clone())
            .collect();
        SnapshotState::new(self.schema.clone(), tuples).expect("tuples were validated at insertion")
    }

    /// Converts a snapshot state into an historical state in which every
    /// tuple is valid exactly over `valid`.
    pub fn from_snapshot(state: &SnapshotState, valid: TemporalElement) -> Result<HistoricalState> {
        if valid.is_empty() {
            return Err(HistoricalError::EmptyValidTime);
        }
        // The snapshot run is already sorted; stamping preserves order.
        let run = state.iter().map(|t| (t.clone(), valid.clone())).collect();
        Ok(HistoricalState::from_sorted_vec(
            state.schema().clone(),
            run,
        ))
    }

    /// Approximate footprint in bytes for space accounting.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<HistoricalState>()
            + self
                .run
                .iter()
                .map(|(t, e)| t.size_bytes() + e.size_bytes())
                .sum::<usize>()
    }
}

impl fmt::Display for HistoricalState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::encode::state(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Value};

    fn schema() -> Schema {
        Schema::new(vec![("name", DomainType::Str)]).unwrap()
    }

    fn t(name: &str) -> Tuple {
        Tuple::new(vec![Value::str(name)])
    }

    #[test]
    fn construction_coalesces_value_equivalent_tuples() {
        let s = HistoricalState::new(
            schema(),
            vec![
                (t("alice"), TemporalElement::period(0, 5)),
                (t("alice"), TemporalElement::period(5, 10)),
            ],
        )
        .unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(
            s.valid_time(&t("alice")).unwrap(),
            &TemporalElement::period(0, 10)
        );
    }

    #[test]
    fn construction_rejects_empty_valid_time() {
        let r = HistoricalState::new(schema(), vec![(t("a"), TemporalElement::empty())]);
        assert_eq!(r.unwrap_err(), HistoricalError::EmptyValidTime);
    }

    #[test]
    fn construction_validates_tuples() {
        let r = HistoricalState::new(
            schema(),
            vec![(
                Tuple::new(vec![Value::Int(1)]),
                TemporalElement::period(0, 1),
            )],
        );
        assert!(matches!(r, Err(HistoricalError::Snapshot(_))));
    }

    #[test]
    fn run_is_strictly_sorted_by_tuple() {
        let s = HistoricalState::new(
            schema(),
            vec![
                (t("zed"), TemporalElement::period(0, 1)),
                (t("alice"), TemporalElement::period(1, 2)),
                (t("mid"), TemporalElement::period(2, 3)),
            ],
        )
        .unwrap();
        assert!(is_strictly_sorted(s.run()));
    }

    #[test]
    fn apply_delta_replaces_and_removes() {
        let mut s = HistoricalState::new(
            schema(),
            vec![
                (t("alice"), TemporalElement::period(0, 5)),
                (t("bob"), TemporalElement::period(0, 5)),
            ],
        )
        .unwrap();
        s.apply_delta(
            &[t("bob")],
            &[
                (t("alice"), TemporalElement::period(0, 9)),
                (t("carol"), TemporalElement::period(1, 2)),
            ],
        )
        .unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(
            s.valid_time(&t("alice")).unwrap(),
            &TemporalElement::period(0, 9)
        );
        assert!(s.valid_time(&t("bob")).is_none());
        assert!(is_strictly_sorted(s.run()));
    }

    #[test]
    fn apply_delta_remove_then_upsert_keeps_tuple() {
        let mut s =
            HistoricalState::new(schema(), vec![(t("a"), TemporalElement::period(0, 5))]).unwrap();
        s.apply_delta(&[t("a")], &[(t("a"), TemporalElement::period(2, 3))])
            .unwrap();
        assert_eq!(
            s.valid_time(&t("a")).unwrap(),
            &TemporalElement::period(2, 3)
        );
    }

    #[test]
    fn timeslice_selects_valid_tuples() {
        let s = HistoricalState::new(
            schema(),
            vec![
                (t("alice"), TemporalElement::period(0, 5)),
                (t("bob"), TemporalElement::period(3, 10)),
            ],
        )
        .unwrap();
        assert_eq!(s.timeslice(0).len(), 1);
        assert_eq!(s.timeslice(4).len(), 2);
        assert_eq!(s.timeslice(7).len(), 1);
        assert_eq!(s.timeslice(20).len(), 0);
    }

    #[test]
    fn from_snapshot_stamps_uniformly() {
        let snap =
            SnapshotState::from_rows(schema(), vec![vec![Value::str("a")], vec![Value::str("b")]])
                .unwrap();
        let h = HistoricalState::from_snapshot(&snap, TemporalElement::period(2, 4)).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.timeslice(3), snap);
        assert!(h.timeslice(4).is_empty());
    }

    #[test]
    fn from_snapshot_rejects_empty_time() {
        let snap = SnapshotState::empty(schema());
        assert!(HistoricalState::from_snapshot(&snap, TemporalElement::empty()).is_err());
    }

    #[test]
    fn display_form() {
        let s =
            HistoricalState::new(schema(), vec![(t("a"), TemporalElement::period(0, 2))]).unwrap();
        assert_eq!(s.to_string(), "(name: str) { (\"a\") @ {[0, 2)} }");
    }
}
