//! The semantic domains of §3.2 and their §4 extensions.

use std::fmt;

use txtime_historical::HistoricalState;
use txtime_snapshot::SnapshotState;

/// TRANSACTION NUMBER ≜ {0, 1, …}
///
/// "A transaction number is a non-negative integer which is used to
/// identify a transaction that modifies the database … the transaction's
/// time-stamp \[is\] the commit time for the transaction."
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct TransactionNumber(pub u64);

impl TransactionNumber {
    /// The next transaction number (`n + 1`).
    pub fn next(self) -> TransactionNumber {
        TransactionNumber(self.0 + 1)
    }
}

impl fmt::Display for TransactionNumber {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for TransactionNumber {
    fn from(n: u64) -> TransactionNumber {
        TransactionNumber(n)
    }
}

/// RELATION TYPE ≜ {snapshot, rollback, historical, temporal}
///
/// The four classes of relations by their support for transaction time
/// and valid time (§1, §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum RelationType {
    /// Neither valid nor transaction time: a single snapshot state.
    Snapshot,
    /// Transaction time only: a sequence of snapshot states indexed by
    /// transaction time.
    Rollback,
    /// Valid time only: a single historical state.
    Historical,
    /// Both: a sequence of historical states indexed by transaction time.
    Temporal,
}

impl RelationType {
    /// Whether relations of this type keep their past states.
    pub fn keeps_history(self) -> bool {
        matches!(self, RelationType::Rollback | RelationType::Temporal)
    }

    /// Whether relations of this type hold historical (valid-time) states
    /// rather than snapshot states.
    pub fn holds_historical(self) -> bool {
        matches!(self, RelationType::Historical | RelationType::Temporal)
    }

    /// The surface-syntax keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            RelationType::Snapshot => "snapshot",
            RelationType::Rollback => "rollback",
            RelationType::Historical => "historical",
            RelationType::Temporal => "temporal",
        }
    }

    /// Parses a surface-syntax keyword.
    pub fn from_keyword(s: &str) -> Option<RelationType> {
        match s {
            "snapshot" => Some(RelationType::Snapshot),
            "rollback" => Some(RelationType::Rollback),
            "historical" => Some(RelationType::Historical),
            "temporal" => Some(RelationType::Temporal),
            _ => None,
        }
    }
}

impl fmt::Display for RelationType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A state stored in (or produced by an expression over) the database:
/// either a snapshot state or an historical state.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum StateValue {
    /// An element of SNAPSHOT STATE.
    Snapshot(SnapshotState),
    /// An element of HISTORICAL STATE.
    Historical(HistoricalState),
}

impl StateValue {
    /// Whether this is an historical state.
    pub fn is_historical(&self) -> bool {
        matches!(self, StateValue::Historical(_))
    }

    /// Extracts the snapshot state, if that is the kind.
    pub fn as_snapshot(&self) -> Option<&SnapshotState> {
        match self {
            StateValue::Snapshot(s) => Some(s),
            StateValue::Historical(_) => None,
        }
    }

    /// Extracts the historical state, if that is the kind.
    pub fn as_historical(&self) -> Option<&HistoricalState> {
        match self {
            StateValue::Historical(h) => Some(h),
            StateValue::Snapshot(_) => None,
        }
    }

    /// Consumes into the snapshot state, if that is the kind.
    pub fn into_snapshot(self) -> Option<SnapshotState> {
        match self {
            StateValue::Snapshot(s) => Some(s),
            StateValue::Historical(_) => None,
        }
    }

    /// Consumes into the historical state, if that is the kind.
    pub fn into_historical(self) -> Option<HistoricalState> {
        match self {
            StateValue::Historical(h) => Some(h),
            StateValue::Snapshot(_) => None,
        }
    }

    /// Number of tuples in the state.
    pub fn len(&self) -> usize {
        match self {
            StateValue::Snapshot(s) => s.len(),
            StateValue::Historical(h) => h.len(),
        }
    }

    /// Whether the state has no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An empty state with the same kind and scheme as `self`.
    pub fn empty_like(&self) -> StateValue {
        match self {
            StateValue::Snapshot(s) => {
                StateValue::Snapshot(SnapshotState::empty(s.schema().clone()))
            }
            StateValue::Historical(h) => {
                StateValue::Historical(HistoricalState::empty(h.schema().clone()))
            }
        }
    }

    /// Approximate footprint in bytes for space accounting.
    pub fn size_bytes(&self) -> usize {
        match self {
            StateValue::Snapshot(s) => s.size_bytes(),
            StateValue::Historical(h) => h.size_bytes(),
        }
    }

    /// Writes the state's text (its `Display`) to any [`fmt::Write`] sink:
    /// the state encoders of `txtime-snapshot` and `txtime-historical`.
    pub fn encode<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
        match self {
            StateValue::Snapshot(s) => txtime_snapshot::encode::state(w, s),
            StateValue::Historical(h) => txtime_historical::encode::state(w, h),
        }
    }
}

impl fmt::Display for StateValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.encode(f)
    }
}

impl From<SnapshotState> for StateValue {
    fn from(s: SnapshotState) -> StateValue {
        StateValue::Snapshot(s)
    }
}

impl From<HistoricalState> for StateValue {
    fn from(h: HistoricalState) -> StateValue {
        StateValue::Historical(h)
    }
}

/// One element of a relation's state sequence: a (state, transaction
/// number) pair.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Version {
    /// The state that became current at `tx`.
    pub state: StateValue,
    /// The commit-time transaction number.
    pub tx: TransactionNumber,
}

/// RELATION ≜ RELATION TYPE × \[STATE × TRANSACTION NUMBER\]*
///
/// "A relation is an ordered pair consisting of a relation type, and a
/// sequence of (state, transaction number) pairs." The sequence invariant
/// — strictly increasing transaction numbers — is enforced by
/// [`Relation::push_version`]; for snapshot and historical relations the
/// sequence never exceeds one element.
#[derive(Debug, Clone, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct Relation {
    rtype: RelationType,
    versions: Vec<Version>,
}

impl Relation {
    /// A newly defined relation: the given type and an empty sequence.
    pub fn new(rtype: RelationType) -> Relation {
        Relation {
            rtype,
            versions: Vec::new(),
        }
    }

    /// RTYPE: the relation's type.
    pub fn rtype(&self) -> RelationType {
        self.rtype
    }

    /// RSTATE: the relation's state sequence.
    pub fn versions(&self) -> &[Version] {
        &self.versions
    }

    /// The most recent version, if any.
    pub fn current(&self) -> Option<&Version> {
        self.versions.last()
    }

    /// Whether the state kind matches the relation type.
    pub fn accepts(&self, state: &StateValue) -> bool {
        state.is_historical() == self.rtype.holds_historical()
    }

    /// Installs a new state at transaction `tx`.
    ///
    /// For snapshot/historical relations the single element is replaced;
    /// for rollback/temporal relations the pair is appended. The caller
    /// must have checked [`Relation::accepts`]; monotonicity of `tx` is
    /// enforced here (debug assertion plus silent clamp avoidance: the
    /// method panics in debug builds and is checked by callers in release
    /// paths through the sentence discipline).
    pub(crate) fn push_version(&mut self, state: StateValue, tx: TransactionNumber) {
        debug_assert!(self.accepts(&state), "state kind matches relation type");
        debug_assert!(
            self.versions.last().is_none_or(|v| v.tx < tx),
            "transaction numbers must be strictly increasing"
        );
        if self.rtype.keeps_history() {
            self.versions.push(Version { state, tx });
        } else {
            self.versions.clear();
            self.versions.push(Version { state, tx });
        }
    }

    /// Approximate footprint in bytes for space accounting.
    pub fn size_bytes(&self) -> usize {
        std::mem::size_of::<Relation>()
            + self
                .versions
                .iter()
                .map(|v| v.state.size_bytes() + std::mem::size_of::<TransactionNumber>())
                .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Schema, Value};

    fn snap(vals: &[i64]) -> StateValue {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        StateValue::Snapshot(
            SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap(),
        )
    }

    #[test]
    fn transaction_number_ordering() {
        assert!(TransactionNumber(1) < TransactionNumber(2));
        assert_eq!(TransactionNumber(1).next(), TransactionNumber(2));
    }

    #[test]
    fn relation_type_predicates() {
        assert!(RelationType::Rollback.keeps_history());
        assert!(RelationType::Temporal.keeps_history());
        assert!(!RelationType::Snapshot.keeps_history());
        assert!(RelationType::Temporal.holds_historical());
        assert!(!RelationType::Rollback.holds_historical());
    }

    #[test]
    fn relation_type_keywords_round_trip() {
        for t in [
            RelationType::Snapshot,
            RelationType::Rollback,
            RelationType::Historical,
            RelationType::Temporal,
        ] {
            assert_eq!(RelationType::from_keyword(t.keyword()), Some(t));
        }
        assert_eq!(RelationType::from_keyword("blob"), None);
    }

    #[test]
    fn snapshot_relation_keeps_single_version() {
        let mut r = Relation::new(RelationType::Snapshot);
        r.push_version(snap(&[1]), TransactionNumber(1));
        r.push_version(snap(&[2]), TransactionNumber(2));
        assert_eq!(r.versions().len(), 1);
        assert_eq!(r.current().unwrap().tx, TransactionNumber(2));
    }

    #[test]
    fn rollback_relation_appends_versions() {
        let mut r = Relation::new(RelationType::Rollback);
        r.push_version(snap(&[1]), TransactionNumber(1));
        r.push_version(snap(&[2]), TransactionNumber(3));
        assert_eq!(r.versions().len(), 2);
        assert_eq!(r.versions()[0].tx, TransactionNumber(1));
        assert_eq!(r.current().unwrap().tx, TransactionNumber(3));
    }

    #[test]
    fn accepts_checks_state_kind() {
        let r = Relation::new(RelationType::Rollback);
        assert!(r.accepts(&snap(&[1])));
        let h = Relation::new(RelationType::Temporal);
        assert!(!h.accepts(&snap(&[1])));
    }

    #[test]
    fn state_value_accessors() {
        let s = snap(&[1, 2]);
        assert_eq!(s.len(), 2);
        assert!(!s.is_historical());
        assert!(s.as_snapshot().is_some());
        assert!(s.as_historical().is_none());
        assert!(s.empty_like().is_empty());
    }
}
