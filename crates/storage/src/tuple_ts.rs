//! The tuple-timestamp backend: one record per tuple per lifetime.
//!
//! Instead of storing states, this backend stores *tuples* stamped with
//! the half-open transaction-time interval \[start, stop) during which
//! they were part of the relation's current state — the physical design
//! used by Ben-Zvi's Time Relational Model and by POSTGRES, here proven
//! equivalent to the paper's state-sequence semantics by the differential
//! tests.
//!
//! Rollback to `tx` is a filter: every tuple whose interval covers `tx`.
//! Space is proportional to the number of tuple *lifetimes*, not to
//! (versions × state size).
//!
//! Scheme (or state-kind) changes start a fresh *epoch*; each epoch has a
//! single scheme, and rollback first locates the epoch covering the
//! target transaction.

use std::collections::BTreeMap;

use txtime_core::{EvalError, RollbackFilter, StateValue, TransactionNumber};
use txtime_historical::{HistoricalState, TemporalElement};
use txtime_snapshot::{Schema, SnapshotState, Tuple};

use crate::backend::{BackendKind, RollbackStore};
use crate::delta::StateDelta;

const OPEN: u64 = u64::MAX;

/// A tuple's presence interval, with the valid-time element it carried
/// (historical states only; `None` for snapshot states).
#[derive(Debug, Clone, PartialEq)]
struct Stamp {
    start: u64,
    stop: u64,
    valid: Option<TemporalElement>,
}

#[derive(Debug)]
struct Epoch {
    /// The transaction at which this epoch begins.
    start_tx: TransactionNumber,
    schema: Schema,
    historical: bool,
    records: BTreeMap<Tuple, Vec<Stamp>>,
}

impl Epoch {
    fn new(state: &StateValue, tx: TransactionNumber) -> Epoch {
        let (schema, historical) = match state {
            StateValue::Snapshot(s) => (s.schema().clone(), false),
            StateValue::Historical(h) => (h.schema().clone(), true),
        };
        let mut epoch = Epoch {
            start_tx: tx,
            schema,
            historical,
            records: BTreeMap::new(),
        };
        epoch.apply(state, tx);
        epoch
    }

    fn compatible(&self, state: &StateValue) -> bool {
        match state {
            StateValue::Snapshot(s) => !self.historical && s.schema() == &self.schema,
            StateValue::Historical(h) => self.historical && h.schema() == &self.schema,
        }
    }

    /// Stamp of `tuple` open at the current end of history, if any.
    fn open_stamp(&mut self, tuple: &Tuple) -> Option<&mut Stamp> {
        self.records
            .get_mut(tuple)
            .and_then(|v| v.last_mut())
            .filter(|s| s.stop == OPEN)
    }

    /// Closes the open stamp of `tuple`, if it has one.
    fn close(&mut self, tuple: &Tuple, tx: TransactionNumber) {
        if let Some(stamp) = self.open_stamp(tuple) {
            stamp.stop = tx.0;
        }
    }

    /// Opens a stamp for `tuple` at `tx`.
    fn open(&mut self, tuple: &Tuple, valid: Option<&TemporalElement>, tx: TransactionNumber) {
        self.records.entry(tuple.clone()).or_default().push(Stamp {
            start: tx.0,
            stop: OPEN,
            valid: valid.cloned(),
        });
    }

    fn apply(&mut self, state: &StateValue, tx: TransactionNumber) {
        match state {
            StateValue::Snapshot(s) => {
                // Close intervals for tuples leaving the state.
                let leaving: Vec<Tuple> = self
                    .records
                    .iter()
                    .filter(|(t, stamps)| {
                        stamps.last().is_some_and(|st| st.stop == OPEN) && !s.contains(t)
                    })
                    .map(|(t, _)| t.clone())
                    .collect();
                for t in leaving {
                    self.close(&t, tx);
                }
                // Open intervals for arriving tuples.
                for t in s.iter() {
                    if self.open_stamp(t).is_none() {
                        self.open(t, None, tx);
                    }
                }
            }
            StateValue::Historical(h) => {
                // Close intervals for tuples leaving or changing valid time.
                let closing: Vec<Tuple> = self
                    .records
                    .iter()
                    .filter(|(t, stamps)| {
                        stamps.last().is_some_and(|st| {
                            st.stop == OPEN && h.valid_time(t) != st.valid.as_ref()
                        })
                    })
                    .map(|(t, _)| t.clone())
                    .collect();
                for t in closing {
                    self.close(&t, tx);
                }
                // Open intervals for arriving/revalued tuples.
                for (t, e) in h.iter() {
                    if self.open_stamp(t).is_none() {
                        self.open(t, Some(e), tx);
                    }
                }
            }
        }
    }

    /// Stamps only the tuples `delta` lists: what [`Epoch::apply`] does
    /// with the state the delta leads to, without scanning the records
    /// for who left. The delta is normalised against the open stamps, so
    /// a removal or a revaluation closes one and an arrival finds none.
    fn apply_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        match delta {
            StateDelta::Snapshot { added, removed } => {
                for t in removed {
                    self.close(t, tx);
                }
                for t in added {
                    self.open(t, None, tx);
                }
            }
            StateDelta::Historical { upserted, removed } => {
                for t in removed {
                    self.close(t, tx);
                }
                for (t, e) in upserted {
                    self.close(t, tx);
                    self.open(t, Some(e), tx);
                }
            }
            StateDelta::Reschema(_) => unreachable!("a scheme boundary arrives as a state"),
        }
    }

    fn state_at(&self, tx: TransactionNumber) -> StateValue {
        if self.historical {
            let entries = self.records.iter().flat_map(|(t, stamps)| {
                stamps
                    .iter()
                    .filter(|s| s.start <= tx.0 && tx.0 < s.stop)
                    .map(|s| {
                        (
                            t.clone(),
                            s.valid.clone().expect("historical stamps carry elements"),
                        )
                    })
            });
            StateValue::Historical(
                HistoricalState::new(self.schema.clone(), entries)
                    .expect("stored entries are valid"),
            )
        } else {
            let tuples: Vec<Tuple> = self
                .records
                .iter()
                .filter(|(_, stamps)| stamps.iter().any(|s| s.start <= tx.0 && tx.0 < s.stop))
                .map(|(t, _)| t.clone())
                .collect();
            StateValue::Snapshot(
                SnapshotState::new(self.schema.clone(), tuples).expect("stored tuples are valid"),
            )
        }
    }

    /// `state_at` with the selection evaluated *while scanning*: tuples
    /// the predicate rejects are never materialized into the result. The
    /// projection (if any) then runs on the already-reduced state via the
    /// shared filter code, so semantics — errors included — stay
    /// identical to the un-pushed `π ∘ σ ∘ state_at`.
    fn state_at_filtered(
        &self,
        tx: TransactionNumber,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<StateValue, EvalError> {
        let Some(predicate) = filter.predicate.filter(|_| self.historical == historical) else {
            // Nothing to evaluate during the scan (projection-only), or
            // the stored kind cannot satisfy the query — materialize and
            // let the shared filter code apply or diagnose, exactly as
            // the un-pushed path would.
            return filter.apply(self.state_at(tx), historical);
        };
        // Mirror σ/σ̂: compile against this epoch's scheme, wrapping a
        // compile failure the way the operator the caller wrote would
        // (σ surfaces a SnapshotError, σ̂ an HistoricalError).
        let compiled = match predicate.compile(&self.schema) {
            Ok(c) => c,
            Err(e) if self.historical => return Err(EvalError::Historical(e.into())),
            Err(e) => return Err(EvalError::Snapshot(e)),
        };
        let covers = |s: &Stamp| s.start <= tx.0 && tx.0 < s.stop;
        let state = if self.historical {
            let entries = self
                .records
                .iter()
                .filter(|(t, _)| compiled.eval(t))
                .flat_map(|(t, stamps)| {
                    stamps.iter().filter(|s| covers(s)).map(|s| {
                        (
                            t.clone(),
                            s.valid.clone().expect("historical stamps carry elements"),
                        )
                    })
                });
            StateValue::Historical(
                HistoricalState::new(self.schema.clone(), entries)
                    .expect("stored entries are valid"),
            )
        } else {
            let tuples: Vec<Tuple> = self
                .records
                .iter()
                .filter(|(t, _)| compiled.eval(t))
                .filter(|(_, stamps)| stamps.iter().any(covers))
                .map(|(t, _)| t.clone())
                .collect();
            StateValue::Snapshot(
                SnapshotState::new(self.schema.clone(), tuples).expect("stored tuples are valid"),
            )
        };
        let remaining = RollbackFilter {
            predicate: None,
            project: filter.project,
        };
        remaining.apply(state, historical)
    }

    fn space_bytes(&self) -> usize {
        self.records
            .iter()
            .map(|(t, stamps)| {
                t.size_bytes()
                    + stamps
                        .iter()
                        .map(|s| 16 + s.valid.as_ref().map_or(0, TemporalElement::size_bytes))
                        .sum::<usize>()
            })
            .sum()
    }
}

/// The tuple-timestamp store: epochs of interval-stamped tuples.
#[derive(Debug, Default)]
pub struct TupleTimestampStore {
    epochs: Vec<Epoch>,
    txs: Vec<TransactionNumber>,
}

impl TupleTimestampStore {
    /// An empty store.
    pub fn new() -> TupleTimestampStore {
        TupleTimestampStore::default()
    }
}

impl RollbackStore for TupleTimestampStore {
    fn append(&mut self, state: &StateValue, tx: TransactionNumber) {
        debug_assert!(self.txs.last().is_none_or(|t| *t < tx));
        self.txs.push(tx);
        match self.epochs.last_mut() {
            Some(e) if e.compatible(state) => e.apply(state, tx),
            _ => self.epochs.push(Epoch::new(state, tx)),
        }
    }

    fn append_delta(&mut self, delta: &StateDelta, tx: TransactionNumber) {
        debug_assert!(self.txs.last().is_none_or(|t| *t < tx));
        self.txs.push(tx);
        // Same scheme and kind by the method's contract: same epoch.
        self.epochs
            .last_mut()
            .expect("a delta applies to a current state")
            .apply_delta(delta, tx);
    }

    fn state_at(&self, tx: TransactionNumber) -> Option<StateValue> {
        if self.txs.first().is_none_or(|t| tx < *t) {
            return None;
        }
        let idx = self.epochs.partition_point(|e| e.start_tx <= tx);
        Some(self.epochs[idx - 1].state_at(tx))
    }

    fn state_at_filtered(
        &self,
        tx: TransactionNumber,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        if self.txs.first().is_none_or(|t| tx < *t) {
            return Ok(None);
        }
        let idx = self.epochs.partition_point(|e| e.start_tx <= tx);
        self.epochs[idx - 1]
            .state_at_filtered(tx, historical, filter)
            .map(Some)
    }

    fn current(&self) -> Option<StateValue> {
        self.last_tx().and_then(|t| self.state_at(t))
    }

    fn current_filtered(
        &self,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<Option<StateValue>, EvalError> {
        match self.last_tx() {
            Some(t) => self.state_at_filtered(t, historical, filter),
            None => Ok(None),
        }
    }

    fn version_count(&self) -> usize {
        self.txs.len()
    }

    fn first_tx(&self) -> Option<TransactionNumber> {
        self.txs.first().copied()
    }

    fn last_tx(&self) -> Option<TransactionNumber> {
        self.txs.last().copied()
    }

    fn space_bytes(&self) -> usize {
        self.epochs.iter().map(Epoch::space_bytes).sum::<usize>() + self.txs.len() * 8
    }

    fn version_txs(&self) -> Vec<TransactionNumber> {
        self.txs.clone()
    }

    fn truncate_before(&mut self, tx: TransactionNumber) -> usize {
        let idx = self.txs.partition_point(|t| *t <= tx);
        let Some(floor) = idx.checked_sub(1) else {
            return 0;
        };
        if floor == 0 {
            return 0;
        }
        let floor_tx = self.txs[floor];
        // Drop epochs that ended before the floor.
        let containing = self
            .epochs
            .partition_point(|e| e.start_tx <= floor_tx)
            .saturating_sub(1);
        self.epochs.drain(..containing);
        // Within the surviving epochs, drop stamps wholly before the
        // floor and then empty record entries.
        for epoch in &mut self.epochs {
            for stamps in epoch.records.values_mut() {
                stamps.retain(|s| s.stop > floor_tx.0);
            }
            epoch.records.retain(|_, stamps| !stamps.is_empty());
        }
        self.txs.drain(..floor);
        floor
    }

    fn kind(&self) -> BackendKind {
        BackendKind::TupleTimestamp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Value};

    fn snap(vals: &[i64]) -> StateValue {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        StateValue::Snapshot(
            SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap(),
        )
    }

    fn hist(vals: &[(i64, u32, u32)]) -> StateValue {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        StateValue::Historical(
            HistoricalState::new(
                schema,
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
    fn findstate_contract_snapshot() {
        let mut s = TupleTimestampStore::new();
        s.append(&snap(&[1]), TransactionNumber(1));
        s.append(&snap(&[1, 2]), TransactionNumber(3));
        s.append(&snap(&[2]), TransactionNumber(4));
        s.append(&snap(&[1, 2]), TransactionNumber(7)); // 1 returns
        assert_eq!(s.state_at(TransactionNumber(0)), None);
        assert_eq!(s.state_at(TransactionNumber(1)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(2)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(3)), Some(snap(&[1, 2])));
        assert_eq!(s.state_at(TransactionNumber(5)), Some(snap(&[2])));
        assert_eq!(s.state_at(TransactionNumber(8)), Some(snap(&[1, 2])));
        assert_eq!(s.current(), Some(snap(&[1, 2])));
    }

    #[test]
    fn findstate_contract_historical() {
        let mut s = TupleTimestampStore::new();
        s.append(&hist(&[(1, 0, 5)]), TransactionNumber(1));
        s.append(&hist(&[(1, 0, 9)]), TransactionNumber(4)); // revalued
        assert_eq!(s.state_at(TransactionNumber(2)), Some(hist(&[(1, 0, 5)])));
        assert_eq!(s.state_at(TransactionNumber(4)), Some(hist(&[(1, 0, 9)])));
    }

    #[test]
    fn append_delta_stamps_what_append_would_stamp() {
        crate::backend::testing::assert_append_delta_is_append(
            TupleTimestampStore::new,
            |plain, delta, at| {
                assert_eq!(plain.epochs.len(), 1, "{at}");
                assert_eq!(plain.epochs[0].records, delta.epochs[0].records, "{at}");
            },
        );
    }

    #[test]
    fn schema_change_starts_new_epoch() {
        let mut s = TupleTimestampStore::new();
        s.append(&snap(&[1]), TransactionNumber(1));
        let other_schema = Schema::new(vec![("y", DomainType::Int)]).unwrap();
        let other = StateValue::Snapshot(
            SnapshotState::from_rows(other_schema, vec![vec![Value::Int(9)]]).unwrap(),
        );
        s.append(&other, TransactionNumber(2));
        assert_eq!(s.state_at(TransactionNumber(1)), Some(snap(&[1])));
        assert_eq!(s.state_at(TransactionNumber(2)), Some(other));
        assert_eq!(s.epochs.len(), 2);
    }

    #[test]
    fn stable_tuples_are_stored_once() {
        let mut s = TupleTimestampStore::new();
        // A 100-tuple state that never changes, 20 versions.
        let vals: Vec<i64> = (0..100).collect();
        for v in 1..=20u64 {
            s.append(&snap(&vals), TransactionNumber(v));
        }
        let records: usize = s.epochs[0].records.values().map(Vec::len).sum();
        assert_eq!(records, 100); // one lifetime per tuple, not 2000
    }
}
