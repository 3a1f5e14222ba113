//! Deltas between consecutive states.

use txtime_core::StateValue;
use txtime_historical::TemporalElement;
use txtime_snapshot::{Schema, SnapshotState, StrInterner, Tuple};

/// A state whose string values are all drawn from `pool` (see
/// [`txtime_snapshot::SnapshotState::interned`]). Delta backends route
/// every appended state through one per-relation pool, so replay compares
/// interned strings by pointer instead of re-hashing bytes.
pub(crate) fn intern_state(state: &StateValue, pool: &mut StrInterner) -> StateValue {
    match state {
        StateValue::Snapshot(s) => StateValue::Snapshot(s.interned(pool)),
        StateValue::Historical(h) => StateValue::Historical(h.interned(pool)),
    }
}

/// The difference between two states of the same kind.
///
/// A delta is directional: `delta(a, b).apply(a) == b`. Schema changes are
/// handled by the `Reschema` variant, which simply carries the new state —
/// scheme evolution is rare, and a full copy at scheme boundaries is the
/// standard trick.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum StateDelta {
    /// Tuples added and removed between two snapshot states.
    Snapshot {
        /// Tuples present in the new state only.
        added: Vec<Tuple>,
        /// Tuples present in the old state only.
        removed: Vec<Tuple>,
    },
    /// Entries upserted (inserted or revalued) and removed between two
    /// historical states.
    Historical {
        /// Tuples whose valid time changed or that are new, with their
        /// new valid time.
        upserted: Vec<(Tuple, TemporalElement)>,
        /// Tuples absent from the new state.
        removed: Vec<Tuple>,
    },
    /// A scheme (or state-kind) boundary: the new state verbatim.
    Reschema(Box<StateValue>),
}

impl StateDelta {
    /// Computes the delta carrying `from` to `to`.
    ///
    /// Both states keep their tuples in strictly sorted runs, so the
    /// symmetric difference falls out of one linear merge — O(|a| + |b|),
    /// not one containment probe per tuple.
    pub fn between(from: &StateValue, to: &StateValue) -> StateDelta {
        match (from, to) {
            (StateValue::Snapshot(a), StateValue::Snapshot(b)) if a.schema() == b.schema() => {
                let mut added = Vec::new();
                let mut removed = Vec::new();
                let (mut ai, mut bi) = (a.iter().peekable(), b.iter().peekable());
                loop {
                    match (ai.peek(), bi.peek()) {
                        (None, None) => break,
                        (Some(_), None) => removed.push(ai.next().unwrap().clone()),
                        (None, Some(_)) => added.push(bi.next().unwrap().clone()),
                        (Some(t), Some(u)) => match t.cmp(u) {
                            std::cmp::Ordering::Less => removed.push(ai.next().unwrap().clone()),
                            std::cmp::Ordering::Greater => added.push(bi.next().unwrap().clone()),
                            std::cmp::Ordering::Equal => {
                                ai.next();
                                bi.next();
                            }
                        },
                    }
                }
                StateDelta::Snapshot { added, removed }
            }
            (StateValue::Historical(a), StateValue::Historical(b)) if a.schema() == b.schema() => {
                let mut upserted = Vec::new();
                let mut removed = Vec::new();
                let (mut ai, mut bi) = (a.iter().peekable(), b.iter().peekable());
                loop {
                    match (ai.peek(), bi.peek()) {
                        (None, None) => break,
                        (Some(_), None) => removed.push(ai.next().unwrap().0.clone()),
                        (None, Some(_)) => {
                            let (t, e) = bi.next().unwrap();
                            upserted.push((t.clone(), e.clone()));
                        }
                        (Some((t, ea)), Some((u, eb))) => match t.cmp(u) {
                            std::cmp::Ordering::Less => removed.push(ai.next().unwrap().0.clone()),
                            std::cmp::Ordering::Greater => {
                                let (u, eb) = bi.next().unwrap();
                                upserted.push((u.clone(), eb.clone()));
                            }
                            std::cmp::Ordering::Equal => {
                                if ea != eb {
                                    upserted.push(((*u).clone(), (*eb).clone()));
                                }
                                ai.next();
                                bi.next();
                            }
                        },
                    }
                }
                StateDelta::Historical { upserted, removed }
            }
            _ => StateDelta::Reschema(Box::new(to.clone())),
        }
    }

    /// Applies the delta to `base`, producing the target state.
    ///
    /// Panics if the delta does not match the base's kind — deltas are
    /// internal to the stores, which construct them pairwise.
    pub fn apply(&self, base: &StateValue) -> StateValue {
        let mut state = base.clone();
        self.apply_in_place(&mut state);
        state
    }

    /// Applies the delta to `base` by mutation — the replay kernel.
    ///
    /// A replay loop owns one working state and threads it through every
    /// delta in the chain; because the states' payloads are
    /// reference-counted with copy-on-write, the first application copies
    /// the shared set once and every later application mutates in place,
    /// instead of allocating (and re-validating) a fresh set per delta.
    ///
    /// Panics under the same kind-mismatch condition as
    /// [`StateDelta::apply`].
    pub fn apply_in_place(&self, base: &mut StateValue) {
        match (self, &mut *base) {
            (StateDelta::Snapshot { added, removed }, StateValue::Snapshot(s)) => {
                s.apply_delta(removed, added)
                    .expect("delta preserves tuple validity");
            }
            (StateDelta::Historical { upserted, removed }, StateValue::Historical(h)) => {
                h.apply_delta(removed, upserted)
                    .expect("delta preserves entry validity");
            }
            (StateDelta::Reschema(s), _) => *base = (**s).clone(),
            _ => panic!("delta kind does not match base state kind"),
        }
    }

    /// The net delta of this one followed by `next`: composition, at the
    /// cost of the listed changes. With `self` carrying a state `s` to
    /// `s′` and `next` carrying `s′` on, both listed against the state
    /// they apply to as [`StateDelta::between`] lists them (every chain
    /// entry is), `a.then(&b).apply(&s) == b.apply(&a.apply(&s))`.
    ///
    /// A snapshot composition comes out as `between(s, s″)` would list
    /// it: a tuple that arrives and leaves again, or leaves and comes
    /// back, is dropped from both sides, so `added` is exactly what `s″`
    /// holds and `s` does not, and `removed` the reverse. An historical
    /// one keeps the later word on each tuple; it cannot tell a tuple
    /// that came back with its old valid time from one that was
    /// revalued, and lists both. A `Reschema` on either side makes the
    /// result the later state in full.
    pub fn then(&self, next: &StateDelta) -> StateDelta {
        StateDelta::compose(&[self, next]).expect("two entries compose")
    }

    /// The net delta of a chain segment, oldest entry first (`None` for
    /// an empty one): [`StateDelta::then`] over the whole of it.
    ///
    /// The entries are folded, oldest first, into one list of what has
    /// become of each tuple they name, ascending by tuple. The list
    /// holds references into the entries, so a step copies pointers and
    /// clones nothing; it looks each of the next entry's tuples up by
    /// galloping from the last one found and block-copies what lies
    /// between. A step therefore costs O(|entry| · log gap) comparisons
    /// plus one `memcpy` of the list, and a snapshot list never outgrows
    /// the two states it lies between: no more than replaying the entry
    /// into the state would have cost, and far less when the changes are
    /// few beside the state. Tuples are cloned once, into the result.
    pub(crate) fn compose(chain: &[&StateDelta]) -> Option<StateDelta> {
        // A boundary carries its version in full, and whatever follows
        // applies to that.
        if let Some(at) = chain
            .iter()
            .rposition(|d| matches!(d, StateDelta::Reschema(_)))
        {
            let StateDelta::Reschema(state) = chain[at] else {
                unreachable!("position of a Reschema");
            };
            let state = match StateDelta::compose(&chain[at + 1..]) {
                Some(rest) => rest.apply(state),
                None => (**state).clone(),
            };
            return Some(StateDelta::Reschema(Box::new(state)));
        }
        Some(match chain.first()? {
            StateDelta::Snapshot { .. } => {
                // `true`: the tuple arrives. Out and back in, or in and
                // out again, is no change.
                let net = fold_events(
                    chain,
                    |was, now| (was == now).then_some(now),
                    |d| match d {
                        StateDelta::Snapshot { added, removed } => overlay(
                            removed.iter().map(|t| (t, false)),
                            added.iter().map(|t| (t, true)),
                            |_, arrives| Some(arrives),
                        ),
                        _ => panic!("composed deltas are not of one state kind"),
                    },
                );
                let (mut added, mut removed) = (Vec::new(), Vec::new());
                for (t, arrives) in net {
                    if arrives { &mut added } else { &mut removed }.push(t.clone());
                }
                StateDelta::Snapshot { added, removed }
            }
            StateDelta::Historical { .. } => {
                // The valid time the tuple is given, `None` for a
                // removal; the later word stands.
                let net = fold_events(
                    chain,
                    |_, now| Some(now),
                    |d| match d {
                        StateDelta::Historical { upserted, removed } => overlay(
                            removed.iter().map(|t| (t, None)),
                            upserted.iter().map(|(t, e)| (t, Some(e))),
                            |_, upsert| Some(upsert),
                        ),
                        _ => panic!("composed deltas are not of one state kind"),
                    },
                );
                let (mut upserted, mut removed) = (Vec::new(), Vec::new());
                for (t, held) in net {
                    match held {
                        Some(e) => upserted.push((t.clone(), e.clone())),
                        None => removed.push(t.clone()),
                    }
                }
                StateDelta::Historical { upserted, removed }
            }
            StateDelta::Reschema(_) => unreachable!("handled above"),
        })
    }

    /// One side of the difference between the two snapshot versions a
    /// chain segment joins, read off its net delta: what the version at
    /// the segment's end holds and the one at its start does not
    /// (`arriving`), or the reverse. `None` where the net delta cannot
    /// say: a scheme or kind boundary in the segment, or historical
    /// versions, whose deltas list a revalued tuple's new valid time
    /// but not the old one `−̂` subtracts.
    pub(crate) fn difference_across(
        chain: &[&StateDelta],
        arriving: bool,
        schema: &Schema,
    ) -> Option<StateValue> {
        let tuples = match StateDelta::compose(chain) {
            None => Vec::new(),
            Some(StateDelta::Snapshot { added, .. }) if arriving => added,
            Some(StateDelta::Snapshot { removed, .. }) => removed,
            Some(StateDelta::Reschema(_) | StateDelta::Historical { .. }) => return None,
        };
        let state = SnapshotState::new(schema.clone(), tuples)
            .expect("stored tuples fit the stored schema");
        Some(StateValue::Snapshot(state))
    }

    /// A copy of this delta whose *arriving* tuples draw their strings
    /// from `pool` — what [`intern_state`] over the whole new state
    /// leaves in the pool, at the cost of the listed tuples: the removed
    /// ones come out of a state that went through the pool already.
    pub(crate) fn interned(&self, pool: &mut StrInterner) -> StateDelta {
        match self {
            StateDelta::Snapshot { added, removed } => StateDelta::Snapshot {
                added: added.iter().map(|t| pool.intern_tuple(t)).collect(),
                removed: removed.clone(),
            },
            StateDelta::Historical { upserted, removed } => StateDelta::Historical {
                upserted: upserted
                    .iter()
                    .map(|(t, e)| (pool.intern_tuple(t), e.clone()))
                    .collect(),
                removed: removed.clone(),
            },
            StateDelta::Reschema(s) => StateDelta::Reschema(Box::new(intern_state(s, pool))),
        }
    }

    /// Number of changed tuples/entries carried by the delta.
    pub fn change_count(&self) -> usize {
        match self {
            StateDelta::Snapshot { added, removed } => added.len() + removed.len(),
            StateDelta::Historical { upserted, removed } => upserted.len() + removed.len(),
            StateDelta::Reschema(s) => s.len(),
        }
    }

    /// Approximate footprint in bytes for space accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            StateDelta::Snapshot { added, removed } => {
                added.iter().chain(removed).map(Tuple::size_bytes).sum()
            }
            StateDelta::Historical { upserted, removed } => {
                upserted
                    .iter()
                    .map(|(t, e)| t.size_bytes() + e.size_bytes())
                    .sum::<usize>()
                    + removed.iter().map(Tuple::size_bytes).sum::<usize>()
            }
            StateDelta::Reschema(s) => s.size_bytes(),
        }
    }
}

/// Two event lists, each ascending by tuple with a tuple listed once,
/// merged into one such list; a tuple both lists name keeps what `both`
/// makes of its two events (first list's, then second's), or is dropped.
/// One comparison per event: for the two short lists of one delta.
fn overlay<'a, E>(
    first: impl Iterator<Item = (&'a Tuple, E)>,
    second: impl Iterator<Item = (&'a Tuple, E)>,
    both: impl Fn(E, E) -> Option<E>,
) -> impl Iterator<Item = (&'a Tuple, E)> {
    use std::cmp::Ordering;
    let (mut first, mut second) = (first.peekable(), second.peekable());
    std::iter::from_fn(move || loop {
        let order = match (first.peek(), second.peek()) {
            (Some((t, _)), Some((u, _))) => t.cmp(u),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        match order {
            Ordering::Less => return first.next(),
            Ordering::Greater => return second.next(),
            Ordering::Equal => {
                let (t, was) = first.next().expect("peeked");
                let (_, now) = second.next().expect("peeked");
                if let Some(kept) = both(was, now) {
                    return Some((t, kept));
                }
            }
        }
    })
}

/// Folds the events of each delta of `chain` (`events`: ascending by
/// tuple, a tuple listed once), oldest delta first, into what has become
/// of every tuple they name; a tuple named again keeps what `both` makes
/// of its standing and its new event, or is dropped.
fn fold_events<'a, E: Copy, I: Iterator<Item = (&'a Tuple, E)>>(
    chain: &[&'a StateDelta],
    both: impl Fn(E, E) -> Option<E>,
    events: impl Fn(&'a StateDelta) -> I,
) -> Vec<(&'a Tuple, E)> {
    // Two buffers, swapped after every delta: one allocation each.
    let mut net: Vec<(&Tuple, E)> = Vec::new();
    let mut next = Vec::new();
    for delta in chain {
        next.clear();
        let mut at = 0;
        for (t, now) in events(delta) {
            let to = seek(&net, at, |(u, _)| u, t);
            next.extend_from_slice(&net[at..to]);
            at = to;
            match net.get(at) {
                Some(&(u, was)) if u == t => {
                    at += 1;
                    next.extend(both(was, now).map(|kept| (u, kept)));
                }
                _ => next.push((t, now)),
            }
        }
        next.extend_from_slice(&net[at..]);
        std::mem::swap(&mut net, &mut next);
    }
    net
}

/// The first index at or after `from` whose tuple is not below `key`,
/// found by doubling steps: the callers' keys ascend, so a sweep costs
/// O(log gap) per key and stays linear when the keys are dense.
pub(crate) fn seek<R>(run: &[R], from: usize, key_of: impl Fn(&R) -> &Tuple, key: &Tuple) -> usize {
    let mut step = 1;
    let mut lo = from;
    while lo + step <= run.len() && key_of(&run[lo + step - 1]) < key {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(run.len());
    lo + run[lo..hi].partition_point(|r| key_of(r) < key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_historical::HistoricalState;
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};

    fn schema() -> Schema {
        Schema::new(vec![("x", DomainType::Int)]).unwrap()
    }

    fn snap(vals: &[i64]) -> StateValue {
        StateValue::Snapshot(
            SnapshotState::from_rows(schema(), vals.iter().map(|&v| vec![Value::Int(v)])).unwrap(),
        )
    }

    fn hist(vals: &[(i64, u32, u32)]) -> StateValue {
        StateValue::Historical(
            HistoricalState::new(
                schema(),
                vals.iter().map(|&(v, s, e)| {
                    (
                        Tuple::new(vec![Value::Int(v)]),
                        TemporalElement::period(s, e),
                    )
                }),
            )
            .unwrap(),
        )
    }

    #[test]
    fn snapshot_delta_round_trips() {
        let (a, b) = (snap(&[1, 2, 3]), snap(&[2, 3, 4, 5]));
        let d = StateDelta::between(&a, &b);
        assert_eq!(d.apply(&a), b);
        assert_eq!(d.change_count(), 3); // +4 +5 −1
    }

    #[test]
    fn historical_delta_round_trips() {
        let (a, b) = (hist(&[(1, 0, 5), (2, 0, 9)]), hist(&[(1, 0, 7), (3, 2, 4)]));
        let d = StateDelta::between(&a, &b);
        assert_eq!(d.apply(&a), b);
        // 1 revalued, 3 added, 2 removed.
        assert_eq!(d.change_count(), 3);
    }

    #[test]
    fn apply_in_place_matches_apply_across_a_chain() {
        let chain = [
            snap(&[1, 2, 3]),
            snap(&[2, 3, 4]),
            snap(&[4]),
            hist(&[(4, 0, 5)]), // kind change: Reschema delta
            hist(&[(4, 0, 9), (5, 1, 2)]),
        ];
        let deltas: Vec<StateDelta> = chain
            .windows(2)
            .map(|w| StateDelta::between(&w[0], &w[1]))
            .collect();
        // One working state threaded through the whole chain in place.
        let mut working = chain[0].clone();
        for (d, expect) in deltas.iter().zip(&chain[1..]) {
            d.apply_in_place(&mut working);
            assert_eq!(&working, expect);
        }
    }

    /// Chains of versions of one shape, every pair of neighbours a chain
    /// entry as the stores write them.
    fn chains() -> Vec<Vec<StateValue>> {
        vec![
            vec![
                snap(&[1, 2, 3]),
                snap(&[2, 3, 4]),    // 1 leaves, 4 arrives
                snap(&[1, 2, 3, 4]), // 1 comes back: remove-then-re-add
                snap(&[1, 2, 3]),    // 4 leaves again: add-then-remove
                snap(&[1, 2, 3]),    // nothing
                snap(&[]),
                snap(&[7, 9]),
            ],
            vec![
                hist(&[(1, 0, 5), (2, 0, 9)]),
                hist(&[(1, 0, 7), (2, 0, 9)]), // 1 revalued
                hist(&[(2, 0, 9), (3, 2, 4)]), // 1 leaves, 3 arrives
                hist(&[(1, 0, 5), (2, 0, 9)]), // 1 back as it was, 3 gone
                hist(&[(1, 0, 5), (2, 0, 9)]),
                hist(&[(1, 3, 4), (2, 1, 2)]), // both revalued
                hist(&[]),
            ],
        ]
    }

    fn deltas(chain: &[StateValue]) -> Vec<StateDelta> {
        chain
            .windows(2)
            .map(|w| StateDelta::between(&w[0], &w[1]))
            .collect()
    }

    #[test]
    fn then_is_apply_after_apply_over_every_span() {
        for chain in chains() {
            let deltas = deltas(&chain);
            for from in 0..chain.len() {
                let mut net: Option<StateDelta> = None;
                for to in from + 1..chain.len() {
                    let step = &deltas[to - 1];
                    net = Some(match &net {
                        Some(d) => d.then(step),
                        None => step.clone(),
                    });
                    let net = net.as_ref().unwrap();
                    assert_eq!(net.apply(&chain[from]), chain[to], "{from}..{to}");
                    // The balanced tree over the same entries agrees.
                    let entries: Vec<&StateDelta> = deltas[from..to].iter().collect();
                    let composed = StateDelta::compose(&entries).unwrap();
                    assert_eq!(composed.apply(&chain[from]), chain[to], "{from}..{to}");
                    if !chain[from].is_historical() {
                        // A snapshot composition is the diff itself.
                        let diff = StateDelta::between(&chain[from], &chain[to]);
                        assert_eq!(*net, diff, "{from}..{to}");
                        assert_eq!(composed, diff, "{from}..{to}");
                    }
                }
            }
        }
        assert_eq!(StateDelta::compose(&[]), None);
    }

    #[test]
    fn then_has_the_empty_delta_as_identity_and_is_associative() {
        for chain in chains() {
            let deltas = deltas(&chain);
            let empty = StateDelta::between(&chain[0], &chain[0]);
            assert_eq!(empty.change_count(), 0);
            for (i, d) in deltas.iter().enumerate() {
                assert_eq!(empty.then(d), *d);
                assert_eq!(d.then(&empty), *d);
                if let [a, b, c, ..] = &deltas[i..] {
                    let (left, right) = (a.then(b).then(c), a.then(&b.then(c)));
                    assert_eq!(left, right, "from version {i}");
                }
            }
        }
    }

    #[test]
    fn a_tuple_that_leaves_and_returns_cancels_in_a_snapshot_composition() {
        let (a, b) = (snap(&[1, 2]), snap(&[2]));
        let out_and_back = StateDelta::between(&a, &b).then(&StateDelta::between(&b, &a));
        assert_eq!(out_and_back.change_count(), 0);
        let in_and_out = StateDelta::between(&b, &a).then(&StateDelta::between(&a, &b));
        assert_eq!(in_and_out.change_count(), 0);
        // An historical composition keeps the later word on the tuple:
        // it cannot see whether the valid time that came back is the
        // old one, and applying it gives the right state either way.
        let (a, b) = (hist(&[(1, 0, 5), (2, 0, 9)]), hist(&[(2, 0, 9)]));
        let out_and_back = StateDelta::between(&a, &b).then(&StateDelta::between(&b, &a));
        assert_eq!(out_and_back.apply(&a), a);
        let in_and_out = StateDelta::between(&b, &a).then(&StateDelta::between(&a, &b));
        assert_eq!(in_and_out.apply(&b), b);
        let (c, d) = (hist(&[(1, 0, 5)]), hist(&[(1, 2, 3)]));
        let revalued_twice = StateDelta::between(&c, &d).then(&StateDelta::between(&d, &c));
        assert_eq!(revalued_twice.apply(&c), c);
    }

    #[test]
    fn then_across_a_boundary_is_the_later_state() {
        let versions = [
            snap(&[1, 2]),
            snap(&[2, 3]),
            hist(&[(2, 0, 5)]), // kind boundary
            hist(&[(2, 0, 9), (4, 1, 2)]),
        ];
        let d = deltas(&versions);
        assert!(matches!(d[1], StateDelta::Reschema(_)));
        // Reschema second, first, and in the middle of three.
        assert_eq!(
            d[0].then(&d[1]),
            StateDelta::Reschema(Box::new(versions[2].clone()))
        );
        assert_eq!(
            d[1].then(&d[2]),
            StateDelta::Reschema(Box::new(versions[3].clone()))
        );
        let all: Vec<&StateDelta> = d.iter().collect();
        let net = StateDelta::compose(&all).unwrap();
        assert_eq!(net, StateDelta::Reschema(Box::new(versions[3].clone())));
        assert_eq!(net.apply(&versions[0]), versions[3]);
    }

    #[test]
    fn identical_states_produce_empty_delta() {
        let a = snap(&[1, 2]);
        let d = StateDelta::between(&a, &a);
        assert_eq!(d.change_count(), 0);
        assert_eq!(d.apply(&a), a);
    }

    #[test]
    fn schema_change_becomes_reschema() {
        let a = snap(&[1]);
        let other = StateValue::Snapshot(
            SnapshotState::from_rows(
                Schema::new(vec![("y", DomainType::Int)]).unwrap(),
                vec![vec![Value::Int(9)]],
            )
            .unwrap(),
        );
        let d = StateDelta::between(&a, &other);
        assert!(matches!(d, StateDelta::Reschema(_)));
        assert_eq!(d.apply(&a), other);
    }

    #[test]
    fn kind_change_becomes_reschema() {
        let a = snap(&[1]);
        let b = hist(&[(1, 0, 5)]);
        let d = StateDelta::between(&a, &b);
        assert!(matches!(d, StateDelta::Reschema(_)));
        assert_eq!(d.apply(&a), b);
    }
}
