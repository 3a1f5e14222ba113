//! Snapshot states: the semantic domain SNAPSHOT STATE.

use std::borrow::Cow;
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use crate::intern::StrInterner;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// A snapshot state: a finite set of tuples over a scheme.
///
/// This is the paper's semantic domain *SNAPSHOT STATE* — "the domain of
/// all valid snapshot states, as defined in the snapshot algebra
/// \[Maier 1983\]". The physical representation is a *sorted run*: a flat,
/// reference-counted slice of tuples in strictly increasing lexicographic
/// order with no duplicates. Set semantics are untouched — the run is just
/// the canonical enumeration of the set — but the flat layout lets the
/// algebra operators run as single-pass merge/scan kernels over slices,
/// membership tests become binary searches, and the partitioned kernels in
/// `crates/exec` split on index ranges in O(1).
///
/// The run is reference-counted: cloning a state — the basic move of the
/// paper's persistent, full-copy reference semantics — is O(1), and
/// mutation copies on write.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct SnapshotState {
    schema: Schema,
    run: Arc<Vec<Tuple>>,
}

/// Whether `run` is strictly increasing (sorted with no duplicates).
pub(crate) fn is_strictly_sorted(run: &[Tuple]) -> bool {
    run.windows(2).all(|w| w[0] < w[1])
}

impl SnapshotState {
    /// The empty state over `schema`.
    pub fn empty(schema: Schema) -> SnapshotState {
        SnapshotState {
            schema,
            run: Arc::new(Vec::new()),
        }
    }

    /// Builds a state from tuples, validating each against the scheme.
    pub fn new(schema: Schema, tuples: impl IntoIterator<Item = Tuple>) -> Result<SnapshotState> {
        let mut run = Vec::new();
        for t in tuples {
            t.check(&schema)?;
            run.push(t);
        }
        Ok(SnapshotState::from_unsorted_vec(schema, run))
    }

    /// Builds a state from rows of raw values.
    pub fn from_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = Vec<Value>>,
    ) -> Result<SnapshotState> {
        SnapshotState::new(schema, rows.into_iter().map(Tuple::new))
    }

    /// Internal constructor for operator results that are already in
    /// canonical (strictly sorted, duplicate-free) order — the common case
    /// for merge kernels, whose outputs are sorted by construction.
    pub(crate) fn from_sorted_vec(schema: Schema, run: Vec<Tuple>) -> SnapshotState {
        debug_assert!(is_strictly_sorted(&run), "run must be strictly sorted");
        SnapshotState {
            schema,
            run: Arc::new(run),
        }
    }

    /// Internal constructor for operator results in arbitrary order:
    /// sorts and deduplicates to restore the canonical run invariant.
    pub(crate) fn from_unsorted_vec(schema: Schema, mut run: Vec<Tuple>) -> SnapshotState {
        if !is_strictly_sorted(&run) {
            run.sort_unstable();
            run.dedup();
        }
        SnapshotState {
            schema,
            run: Arc::new(run),
        }
    }

    /// Bridge constructor from a `BTreeSet` (which iterates in exactly the
    /// canonical order). Retained for the reference implementation and
    /// compatibility call sites.
    pub(crate) fn from_checked(schema: Schema, tuples: BTreeSet<Tuple>) -> SnapshotState {
        SnapshotState {
            schema,
            run: Arc::new(tuples.into_iter().collect()),
        }
    }

    /// Internal constructor that adopts an already-shared run — the
    /// zero-copy path for operator results that are one of the operands
    /// unchanged.
    pub(crate) fn from_shared(schema: Schema, run: Arc<Vec<Tuple>>) -> SnapshotState {
        debug_assert!(is_strictly_sorted(&run), "run must be strictly sorted");
        SnapshotState { schema, run }
    }

    /// The reference-counted run (for zero-copy sharing between operator
    /// results).
    pub(crate) fn shared_run(&self) -> &Arc<Vec<Tuple>> {
        &self.run
    }

    /// The state's scheme.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.run.len()
    }

    /// Whether the state has no tuples.
    pub fn is_empty(&self) -> bool {
        self.run.is_empty()
    }

    /// Whether `tuple` is a member of the state.
    pub fn contains(&self, tuple: &Tuple) -> bool {
        self.run.binary_search(tuple).is_ok()
    }

    /// Iterates over the tuples in deterministic (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.run.iter()
    }

    /// The sorted run: every tuple in strictly increasing lexicographic
    /// order.
    pub fn run(&self) -> &[Tuple] {
        &self.run
    }

    /// Whether two states share the same physical run allocation — the
    /// observable footprint of the operators' zero-copy shortcuts.
    pub fn shares_run(&self, other: &SnapshotState) -> bool {
        Arc::ptr_eq(&self.run, &other.run)
    }

    /// The tuple set as a `BTreeSet` — a compatibility accessor that
    /// materializes a fresh tree from the run. Prefer [`SnapshotState::run`]
    /// or [`SnapshotState::iter`] on hot paths.
    pub fn tuples(&self) -> BTreeSet<Tuple> {
        self.run.iter().cloned().collect()
    }

    /// A state equal to this one but with every string value drawn from
    /// `pool`, so later comparisons against other interned states settle on
    /// pointer equality. Returns a shallow clone when nothing changes.
    pub fn interned(&self, pool: &mut StrInterner) -> SnapshotState {
        let mut changed = false;
        let run: Vec<Tuple> = self
            .run
            .iter()
            .map(|t| {
                let it = pool.intern_tuple(t);
                changed |= !it.shares_values(t);
                it
            })
            .collect();
        if changed {
            // Interning preserves content equality, hence the sort order.
            SnapshotState::from_sorted_vec(self.schema.clone(), run)
        } else {
            self.clone()
        }
    }

    /// A copy of this state with `tuple` inserted (checked against the
    /// scheme).
    pub fn with_tuple(&self, tuple: Tuple) -> Result<SnapshotState> {
        tuple.check(&self.schema)?;
        match self.run.binary_search(&tuple) {
            Ok(_) => Ok(self.clone()),
            Err(pos) => {
                let mut run = Vec::with_capacity(self.run.len() + 1);
                run.extend_from_slice(&self.run[..pos]);
                run.push(tuple);
                run.extend_from_slice(&self.run[pos..]);
                Ok(SnapshotState::from_sorted_vec(self.schema.clone(), run))
            }
        }
    }

    /// A copy of this state with `tuple` removed.
    pub fn without_tuple(&self, tuple: &Tuple) -> SnapshotState {
        match self.run.binary_search(tuple) {
            Err(_) => self.clone(),
            Ok(pos) => {
                let mut run = Vec::with_capacity(self.run.len() - 1);
                run.extend_from_slice(&self.run[..pos]);
                run.extend_from_slice(&self.run[pos + 1..]);
                SnapshotState::from_sorted_vec(self.schema.clone(), run)
            }
        }
    }

    /// Applies a batch of removals and insertions as an in-place merge of
    /// sorted runs.
    ///
    /// This is the replay kernel of the delta-chain store. A
    /// replay loop threads one working state through every delta in the
    /// chain; because the run is copy-on-write, the first application
    /// copies the shared run once and every later application edits it in
    /// place: removals are one forward compaction pass and insertions one
    /// backward gap merge, so untouched tuples are moved (not cloned) and
    /// no per-delta allocation happens beyond the `Vec`'s own growth.
    /// Semantics match the set formulation — removals apply first, then
    /// insertions, so a tuple present in both slices ends up in the state.
    /// Inserted tuples are checked against the scheme; removals need no
    /// check.
    pub fn apply_delta(&mut self, removed: &[Tuple], added: &[Tuple]) -> Result<()> {
        for t in added {
            t.check(&self.schema)?;
        }
        if removed.is_empty() && added.is_empty() {
            return Ok(());
        }
        let removed = normalize_run(removed);
        let added = normalize_run(added);
        let run = Arc::make_mut(&mut self.run);
        // Pass 1: removals. One galloping sweep locates the present ones
        // (both runs are sorted, so each search costs O(log gap)), then
        // compare-free swaps close the holes — untouched tuples are moved,
        // never cloned or re-compared.
        if !removed.is_empty() {
            let mut holes: Vec<usize> = Vec::with_capacity(removed.len());
            let mut pos = 0;
            for r in removed.iter() {
                pos = gallop(run, pos, r);
                if run.get(pos) == Some(r) {
                    holes.push(pos);
                    pos += 1;
                }
            }
            if !holes.is_empty() {
                let mut d = holes[0];
                for (h, &hole) in holes.iter().enumerate() {
                    let next = holes.get(h + 1).copied().unwrap_or(run.len());
                    for s in hole + 1..next {
                        run.swap(d, s);
                        d += 1;
                    }
                }
                run.truncate(d);
            }
        }
        // Pass 2: insertions. Locate the genuinely fresh tuples the same
        // way (already-present ones are kept — set semantics, which also
        // realizes the insertions-win-ties rule for a tuple removed and
        // re-added by the same delta), open a gap at the tail, and shift
        // blocks up from the back.
        if !added.is_empty() {
            let mut ins: Vec<(usize, usize)> = Vec::with_capacity(added.len());
            let mut pos = 0;
            for (k, a) in added.iter().enumerate() {
                pos = gallop(run, pos, a);
                if run.get(pos) == Some(a) {
                    pos += 1;
                } else {
                    ins.push((pos, k));
                }
            }
            if !ins.is_empty() {
                let m = run.len();
                // Placeholder clones open the gap; every slot at or above
                // the lowest insertion point is overwritten by the shift.
                run.extend(added.iter().take(ins.len()).cloned());
                let (mut s, mut d) = (m, m + ins.len());
                for &(p, k) in ins.iter().rev() {
                    while s > p {
                        s -= 1;
                        d -= 1;
                        run.swap(d, s);
                    }
                    d -= 1;
                    run[d] = added[k].clone();
                }
            }
        }
        debug_assert!(is_strictly_sorted(run));
        Ok(())
    }

    /// Approximate footprint in bytes for space accounting (experiment E3).
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<SnapshotState>() + self.run.iter().map(Tuple::size_bytes).sum::<usize>()
    }
}

/// First index `i >= lo` with `run[i] >= target`, found by exponential
/// probing upward from `lo`. Delta events arrive in sorted order, so a
/// sweep that restarts each search at the previous hit pays O(log gap)
/// comparisons per event instead of O(log n).
pub(crate) fn gallop(run: &[Tuple], lo: usize, target: &Tuple) -> usize {
    if lo >= run.len() || run[lo] >= *target {
        return lo;
    }
    // Invariant: run[prev] < target.
    let (mut prev, mut step) = (lo, 1usize);
    while prev + step < run.len() && run[prev + step] < *target {
        prev += step;
        step *= 2;
    }
    let hi = (prev + step).min(run.len());
    prev + 1 + run[prev + 1..hi].partition_point(|t| t < target)
}

/// Delta slices from [`crate::SnapshotState::apply_delta`] callers are
/// usually already canonical (they come from sorted-set differences); fall
/// back to a local sort+dedup when they are not.
fn normalize_run(run: &[Tuple]) -> Cow<'_, [Tuple]> {
    if is_strictly_sorted(run) {
        Cow::Borrowed(run)
    } else {
        let mut owned = run.to_vec();
        owned.sort_unstable();
        owned.dedup();
        Cow::Owned(owned)
    }
}

impl fmt::Display for SnapshotState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::encode::state(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainType;

    fn schema() -> Schema {
        Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap()
    }

    fn state() -> SnapshotState {
        SnapshotState::from_rows(
            schema(),
            vec![
                vec![Value::str("alice"), Value::Int(100)],
                vec![Value::str("bob"), Value::Int(200)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn duplicate_rows_collapse() {
        let s = SnapshotState::from_rows(
            schema(),
            vec![
                vec![Value::str("alice"), Value::Int(100)],
                vec![Value::str("alice"), Value::Int(100)],
            ],
        )
        .unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn construction_validates_rows() {
        let err = SnapshotState::from_rows(schema(), vec![vec![Value::Int(1)]]);
        assert!(err.is_err());
    }

    #[test]
    fn membership_and_iteration_order() {
        let s = state();
        assert!(s.contains(&Tuple::new(vec![Value::str("bob"), Value::Int(200)])));
        let names: Vec<_> = s
            .iter()
            .map(|t| t.get(0).as_str().unwrap().to_string())
            .collect();
        assert_eq!(names, vec!["alice", "bob"]);
    }

    #[test]
    fn run_is_strictly_sorted() {
        let s = SnapshotState::from_rows(
            schema(),
            vec![
                vec![Value::str("zed"), Value::Int(1)],
                vec![Value::str("alice"), Value::Int(2)],
                vec![Value::str("mid"), Value::Int(3)],
                vec![Value::str("alice"), Value::Int(2)],
            ],
        )
        .unwrap();
        assert_eq!(s.len(), 3);
        assert!(is_strictly_sorted(s.run()));
    }

    #[test]
    fn with_and_without_tuple_are_persistent() {
        let s = state();
        let carol = Tuple::new(vec![Value::str("carol"), Value::Int(50)]);
        let s2 = s.with_tuple(carol.clone()).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s2.len(), 3);
        let s3 = s2.without_tuple(&carol);
        assert_eq!(s3, s);
    }

    #[test]
    fn with_existing_tuple_shares_run() {
        let s = state();
        let bob = Tuple::new(vec![Value::str("bob"), Value::Int(200)]);
        let s2 = s.with_tuple(bob).unwrap();
        assert!(s.shares_run(&s2));
        let s3 = s.without_tuple(&Tuple::new(vec![Value::str("nobody"), Value::Int(0)]));
        assert!(s.shares_run(&s3));
    }

    #[test]
    fn with_tuple_validates() {
        let s = state();
        assert!(s.with_tuple(Tuple::new(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn apply_delta_mutates_and_validates() {
        let mut s = state();
        let carol = Tuple::new(vec![Value::str("carol"), Value::Int(50)]);
        let bob = Tuple::new(vec![Value::str("bob"), Value::Int(200)]);
        s.apply_delta(std::slice::from_ref(&bob), std::slice::from_ref(&carol))
            .unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&carol));
        assert!(!s.contains(&bob));
        // Invalid insertions are rejected before any mutation happens.
        assert!(s
            .apply_delta(&[], &[Tuple::new(vec![Value::Int(1)])])
            .is_err());
    }

    #[test]
    fn apply_delta_remove_then_add_keeps_tuple() {
        let mut s = state();
        let bob = Tuple::new(vec![Value::str("bob"), Value::Int(200)]);
        s.apply_delta(std::slice::from_ref(&bob), std::slice::from_ref(&bob))
            .unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.contains(&bob));
    }

    #[test]
    fn apply_delta_accepts_unsorted_slices() {
        let mut s = SnapshotState::empty(schema());
        let rows: Vec<Tuple> = (0..16)
            .rev()
            .map(|i| Tuple::new(vec![Value::str(format!("n{i:02}")), Value::Int(i)]))
            .collect();
        s.apply_delta(&[], &rows).unwrap();
        assert_eq!(s.len(), 16);
        assert!(is_strictly_sorted(s.run()));
        // Remove odd entries in reverse order.
        let removals: Vec<Tuple> = rows
            .iter()
            .filter(|t| t.get(1).as_int().unwrap() % 2 == 1)
            .cloned()
            .collect();
        s.apply_delta(&removals, &[]).unwrap();
        assert_eq!(s.len(), 8);
        assert!(s.iter().all(|t| t.get(1).as_int().unwrap() % 2 == 0));
    }

    #[test]
    fn apply_delta_copies_on_write_when_shared() {
        let original = state();
        let mut working = original.clone();
        working
            .apply_delta(&[], &[Tuple::new(vec![Value::str("zed"), Value::Int(7)])])
            .unwrap();
        assert_eq!(original.len(), 2); // the shared run is untouched
        assert_eq!(working.len(), 3);
    }

    #[test]
    fn equality_ignores_sharing() {
        let s = state();
        let t = state();
        assert_eq!(s, t);
    }

    #[test]
    fn tuples_compat_accessor_matches_run() {
        let s = state();
        let set = s.tuples();
        assert_eq!(set.len(), s.len());
        assert!(set.iter().zip(s.iter()).all(|(a, b)| a == b));
    }

    #[test]
    fn interned_states_share_string_allocations() {
        let mut pool = StrInterner::new();
        let a = state().interned(&mut pool);
        let b = state().interned(&mut pool);
        for (x, y) in a.iter().zip(b.iter()) {
            match (x.get(0), y.get(0)) {
                (Value::Str(p), Value::Str(q)) => assert!(Arc::ptr_eq(p, q)),
                _ => panic!("expected strings"),
            }
        }
        // A second pass through the pool is a no-op that shares the run.
        let c = a.interned(&mut pool);
        assert!(a.shares_run(&c));
    }

    #[test]
    fn display_form() {
        let s =
            SnapshotState::from_rows(schema(), vec![vec![Value::str("a"), Value::Int(1)]]).unwrap();
        assert_eq!(s.to_string(), "(name: str, sal: int) { (\"a\", 1) }");
    }

    #[test]
    fn empty_state() {
        let s = SnapshotState::empty(schema());
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
    }
}
