//! Deltas between consecutive states.

use txtime_core::StateValue;
use txtime_historical::TemporalElement;
use txtime_snapshot::{StrInterner, Tuple};

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

    /// The delta that undoes this one: given `from`, the state this
    /// delta applies to, `d.mirror(&from).apply(&d.apply(&from)) == from`.
    ///
    /// Costs the listed changes, not a diff: a snapshot delta swaps its
    /// lists, an historical one looks each listed tuple's old valid time
    /// up in `from`.
    pub fn mirror(&self, from: &StateValue) -> StateDelta {
        match (self, from) {
            (StateDelta::Snapshot { added, removed }, _) => StateDelta::Snapshot {
                added: removed.clone(),
                removed: added.clone(),
            },
            (StateDelta::Historical { upserted, removed }, StateValue::Historical(h)) => {
                let old = |t: &Tuple| h.valid_time(t).map(|e| (t.clone(), e.clone()));
                let mut restored: Vec<_> = removed
                    .iter()
                    .chain(upserted.iter().map(|(t, _)| t))
                    .filter_map(old)
                    .collect();
                restored.sort_by(|a, b| a.0.cmp(&b.0));
                StateDelta::Historical {
                    upserted: restored,
                    removed: upserted
                        .iter()
                        .map(|(t, _)| t)
                        .filter(|t| h.valid_time(t).is_none())
                        .cloned()
                        .collect(),
                }
            }
            _ => StateDelta::Reschema(Box::new(from.clone())),
        }
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

    #[test]
    fn mirror_undoes_the_delta_it_is_taken_of() {
        let pairs = [
            (snap(&[1, 2, 3]), snap(&[2, 3, 4, 5])),
            (hist(&[(1, 0, 5), (2, 0, 9)]), hist(&[(1, 0, 7), (3, 2, 4)])),
            (snap(&[1]), hist(&[(1, 0, 5)])),
        ];
        for (a, b) in &pairs {
            let d = StateDelta::between(a, b);
            let back = d.mirror(a);
            assert_eq!(back.apply(b), *a);
            // Exactly the reverse diff, not merely an equivalent one.
            assert_eq!(back, StateDelta::between(b, a));
        }
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
