//! Sorted runs: the one edit kernel behind both state types.
//!
//! A snapshot state's run holds bare tuples and an historical state's
//! holds `(tuple, element)` entries. Both are strictly increasing by a key
//! tuple ([`Keyed`]), and both take the same delta shape: keys to remove
//! and entries that arrive, each arrival replacing the entry with its key
//! or entering fresh. [`edit`] applies such a delta to a reference-counted
//! run, once for both twins — the tuple is the key, the rest of the entry
//! is its annotation.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use crate::tuple::Tuple;

/// An entry of a sorted run, ordered by its key tuple.
pub trait Keyed: Clone + PartialEq {
    /// The tuple the run is ordered by.
    fn key(&self) -> &Tuple;

    /// Whether `other`, an entry with the same key, carries the same
    /// annotation: whether it would change nothing here.
    fn same_annotation(&self, other: &Self) -> bool;

    /// Takes `other`'s annotation, keeping this entry's key handle;
    /// `other` has the same key.
    fn set_annotation(&mut self, other: &Self);
}

/// A bare tuple is all key.
impl Keyed for Tuple {
    fn key(&self) -> &Tuple {
        self
    }

    fn same_annotation(&self, _: &Tuple) -> bool {
        true
    }

    fn set_annotation(&mut self, _: &Tuple) {}
}

impl<A: Clone + PartialEq> Keyed for (Tuple, A) {
    fn key(&self) -> &Tuple {
        &self.0
    }

    fn same_annotation(&self, other: &Self) -> bool {
        self.1 == other.1
    }

    fn set_annotation(&mut self, other: &Self) {
        self.1.clone_from(&other.1);
    }
}

/// Whether `run` is strictly increasing by key (sorted, no two entries
/// with one key).
pub fn is_strictly_sorted<E: Keyed>(run: &[E]) -> bool {
    run.windows(2).all(|w| w[0].key() < w[1].key())
}

/// First index `i >= lo` with `run[i].key() >= target`, found by
/// exponential probing upward from `lo`. Delta events arrive in sorted
/// order, so a sweep that restarts each search at the previous hit pays
/// O(log gap) comparisons per event instead of O(log n).
pub fn gallop<E: Keyed>(run: &[E], lo: usize, target: &Tuple) -> usize {
    if lo >= run.len() || run[lo].key() >= target {
        return lo;
    }
    // Invariant: run[prev].key() < target.
    let (mut prev, mut step) = (lo, 1usize);
    while prev + step < run.len() && run[prev + step].key() < target {
        prev += step;
        step *= 2;
    }
    let hi = (prev + step).min(run.len());
    prev + 1 + run[prev + 1..hi].partition_point(|e| e.key() < target)
}

/// `entries` in key order with one entry per key, the **last** one given
/// (what inserting them one by one into a map leaves). Delta slices are
/// usually canonical already and are then borrowed as they are.
fn normalize<E: Keyed>(entries: &[E]) -> Cow<'_, [E]> {
    if is_strictly_sorted(entries) {
        return Cow::Borrowed(entries);
    }
    let mut owned = entries.to_vec();
    owned.sort_by(|a, b| a.key().cmp(b.key()));
    let mut kept: Vec<E> = Vec::with_capacity(owned.len());
    for entry in owned {
        match kept.last_mut() {
            Some(last) if last.key() == entry.key() => *last = entry,
            _ => kept.push(entry),
        }
    }
    Cow::Owned(kept)
}

/// One change to a run, at a position of the run before the edit.
enum Edit<'a, E> {
    /// The arrival enters before the entry at this position (or at the
    /// end).
    Insert(usize, &'a E),
    /// The entry at this position leaves.
    Remove(usize),
    /// The arrival takes the entry's slot: a removal whose slot the next
    /// arrival fills.
    Set(usize, &'a E),
    /// The entry at this position takes the arrival's annotation, the
    /// two having one key: a revalue.
    Revalue(usize, &'a E),
}

/// Applies a delta to `run`: the entries keyed by `removed` leave, then
/// every arrival replaces the entry with its key or enters fresh — so a
/// key both removed and arriving ends present, with the arrival. Neither
/// slice need be sorted; an arrival equal to the entry it meets changes
/// nothing.
///
/// The cost is the changes', not the run's:
/// - the changes are located by one galloping sweep, O(changes · log n);
/// - an arrival that lands in the slot a removal vacates overwrites it,
///   so a revalue moves nothing, and an arrival with a present entry's
///   key writes only its annotation (the run keeps its tuple handle);
/// - on a run this handle alone holds, other net shifts move the
///   untouched entries between changes as blocks, each segment once,
///   so the whole edit moves at most about twice the run's length and
///   allocates only the slots it grows by;
/// - a run another handle shares is rebuilt in one merge pass that
///   clones each kept entry once.
///
/// A delta that changes nothing leaves a shared run shared.
pub fn edit<E: Keyed>(run: &mut Arc<Vec<E>>, removed: &[Tuple], arrivals: &[E]) {
    if removed.is_empty() && arrivals.is_empty() {
        return;
    }
    let removed = normalize(removed);
    let arrivals = normalize(arrivals);
    let edits = plan(run, &removed, &arrivals);
    if edits.is_empty() {
        return;
    }
    let shift: isize = edits.iter().map(net).sum();
    let len = run
        .len()
        .checked_add_signed(shift)
        .expect("removals are of present entries");
    match Arc::get_mut(run) {
        Some(v) => edit_in_place(v, &edits, len),
        None => *run = Arc::new(rebuild(run, &edits, len)),
    }
    debug_assert!(is_strictly_sorted(run));
}

/// The net change in length an edit makes.
fn net<E>(edit: &Edit<'_, E>) -> isize {
    match edit {
        Edit::Insert(..) => 1,
        Edit::Remove(_) => -1,
        Edit::Set(..) | Edit::Revalue(..) => 0,
    }
}

/// The edits `removed` and `arrivals` (both strictly sorted) make to
/// `run`, in key order, with every removal whose slot the next arrival
/// fills paired into a [`Edit::Set`], and every arrival for a present
/// key a [`Edit::Revalue`] (or nothing, if the annotations agree).
fn plan<'a, E: Keyed>(run: &[E], removed: &[Tuple], arrivals: &'a [E]) -> Vec<Edit<'a, E>> {
    let mut edits: Vec<Edit<'a, E>> = Vec::with_capacity(removed.len() + arrivals.len());
    let (mut r, mut a, mut pos) = (0, 0, 0);
    loop {
        let (key, arrival) = match (removed.get(r), arrivals.get(a)) {
            (None, None) => break,
            (Some(k), None) => {
                r += 1;
                (k, None)
            }
            (None, Some(e)) => {
                a += 1;
                (e.key(), Some(e))
            }
            (Some(k), Some(e)) => match k.cmp(e.key()) {
                Ordering::Less => {
                    r += 1;
                    (k, None)
                }
                Ordering::Greater => {
                    a += 1;
                    (e.key(), Some(e))
                }
                // Arrivals win ties.
                Ordering::Equal => {
                    r += 1;
                    a += 1;
                    (e.key(), Some(e))
                }
            },
        };
        pos = gallop(run, pos, key);
        let present = run.get(pos).is_some_and(|e| e.key() == key);
        let next = match (arrival, present) {
            (Some(e), true) if run[pos].same_annotation(e) => None,
            (Some(e), true) => Some(Edit::Revalue(pos, e)),
            (Some(e), false) => Some(Edit::Insert(pos, e)),
            (None, true) => Some(Edit::Remove(pos)),
            (None, false) => None,
        };
        if present {
            pos += 1;
        }
        let Some(next) = next else { continue };
        // An arrival that lands just after a removed entry, or just
        // before it, lands in the slot the removal vacates.
        let paired = match (edits.last(), &next) {
            (Some(&Edit::Remove(p)), &Edit::Insert(q, e)) if q == p + 1 => Some(Edit::Set(p, e)),
            (Some(&Edit::Insert(q, e)), &Edit::Remove(p)) if q == p => Some(Edit::Set(p, e)),
            _ => None,
        };
        match paired {
            Some(set) => *edits.last_mut().expect("paired with the last edit") = set,
            None => edits.push(next),
        }
    }
    edits
}

/// Applies `edits` to a run this handle owns, leaving it `len` long.
///
/// Every untouched entry has a final shift: the arrivals before it less
/// the removals before it. Segments shifted left are moved into place
/// front to back, then segments shifted right back to front, so each
/// lands on slots that hold only removed entries, entries already moved
/// away, or filler; arrivals are written last, into what is left.
fn edit_in_place<E: Keyed>(v: &mut Vec<E>, edits: &[Edit<'_, E>], len: usize) {
    let n = v.len();
    let (mut cursor, mut shift) = (0, 0isize);
    for edit in edits {
        let (end, next) = match *edit {
            Edit::Set(p, e) => {
                v[p] = e.clone();
                continue;
            }
            Edit::Revalue(p, e) => {
                v[p].set_annotation(e);
                continue;
            }
            Edit::Insert(q, _) => (q, q),
            Edit::Remove(p) => (p, p + 1),
        };
        if shift < 0 && cursor < end {
            shift_block(v, cursor..end, shift);
        }
        shift += net(edit);
        cursor = next;
    }
    if shift < 0 && cursor < n {
        shift_block(v, cursor..n, shift);
    }
    if len > n {
        let filler = edits.iter().find_map(|edit| match *edit {
            Edit::Insert(_, e) => Some(e),
            _ => None,
        });
        v.resize(len, filler.expect("growth means an arrival").clone());
    }
    let mut cursor = n;
    for edit in edits.iter().rev() {
        let (start, prev) = match *edit {
            Edit::Set(..) | Edit::Revalue(..) => continue,
            Edit::Insert(q, _) => (q, q),
            Edit::Remove(p) => (p + 1, p),
        };
        if shift > 0 && start < cursor {
            shift_block(v, start..cursor, shift);
        }
        shift -= net(edit);
        if let Edit::Insert(q, e) = *edit {
            v[q.checked_add_signed(shift).expect("in bounds")] = e.clone();
        }
        cursor = prev;
    }
    debug_assert_eq!(shift, 0);
    v.truncate(len);
}

/// Moves the entries of `v[seg]` by `shift` slots, onto slots that hold
/// no live entry. A segment at least as far from its target as it is
/// long is swapped across; a nearer one is rotated together with the
/// slots it crosses. Either way no slot is touched more than twice the
/// segment's length.
fn shift_block<E>(v: &mut [E], seg: Range<usize>, shift: isize) {
    let (len, d) = (seg.len(), shift.unsigned_abs());
    let to = seg.start.checked_add_signed(shift).expect("in bounds");
    if d >= len {
        let (lo, hi) = (seg.start.min(to), seg.start.max(to));
        let (below, above) = v.split_at_mut(hi);
        below[lo..lo + len].swap_with_slice(&mut above[..len]);
    } else if shift < 0 {
        v[to..seg.end].rotate_left(d);
    } else {
        v[seg.start..seg.end + d].rotate_right(d);
    }
}

/// The edited run, built afresh in one merge pass over `old`: kept
/// entries are cloned once, block by block, and arrivals once (a
/// revalued entry is the arrival, cloned whole).
fn rebuild<E: Clone>(old: &[E], edits: &[Edit<'_, E>], len: usize) -> Vec<E> {
    let mut out = Vec::with_capacity(len);
    let mut cursor = 0;
    for edit in edits {
        let (kept, next, arrival) = match *edit {
            Edit::Insert(q, e) => (q, q, Some(e)),
            Edit::Remove(p) => (p, p + 1, None),
            Edit::Set(p, e) | Edit::Revalue(p, e) => (p, p + 1, Some(e)),
        };
        out.extend_from_slice(&old[cursor..kept]);
        out.extend(arrival.cloned());
        cursor = next;
    }
    out.extend_from_slice(&old[cursor..]);
    out
}
