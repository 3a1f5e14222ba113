//! The semantic function **E** (§3.4, §4).
//!
//! ```text
//! E : EXPRESSION → [DATABASE → [STATE]]
//! ```
//!
//! "The result of evaluating an expression on a specific database is a
//! \[snapshot or historical\] state. Note that evaluation of an expression
//! on a specific database does not change that database." Accordingly the
//! evaluator takes `&Database` and returns a fresh [`StateValue`].

use txtime_exec::ExecPool;
use txtime_historical::HistoricalState;
use txtime_snapshot::{Predicate, SnapshotState};

use crate::error::EvalError;
use crate::semantics::aux::find_state;
use crate::semantics::database::Database;
use crate::semantics::domains::{Relation, RelationType, StateValue, TransactionNumber};
use crate::syntax::expr::{Expr, TxSpec};

/// A selection/projection pair pushed down into rollback resolution.
///
/// When **E** meets `σ_F(ρ(I, N))`, `π_X(ρ(I, N))`, or
/// `π_X(σ_F(ρ(I, N)))` (and the ρ̂ counterparts), the operators can run
/// *during* resolution instead of on a fully materialized state — a
/// storage engine that reconstructs versions tuple-by-tuple never has to
/// build the tuples the filter would discard. The filter carries borrowed
/// pieces of the expression; [`RollbackFilter::apply`] applies them with
/// exactly the operators — and exactly the errors — the un-pushed
/// evaluation would have used.
#[derive(Debug, Clone, Copy)]
pub struct RollbackFilter<'a> {
    /// The selection predicate `F`, applied first (it is the innermost
    /// wrapper in the canonical `π_X(σ_F(·))` shape).
    pub predicate: Option<&'a Predicate>,
    /// The projection attribute list `X`, applied after selection.
    pub project: Option<&'a [String]>,
}

impl<'a> RollbackFilter<'a> {
    /// A filter that passes the state through unchanged.
    pub fn none() -> RollbackFilter<'a> {
        RollbackFilter {
            predicate: None,
            project: None,
        }
    }

    /// Whether the filter does anything at all.
    pub fn is_empty(&self) -> bool {
        self.predicate.is_none() && self.project.is_none()
    }

    /// Applies the filter to a resolved state: σ then π, dispatching to
    /// the snapshot or historical operators to match the wrapping
    /// expression (`historical` is the same flag that was passed to
    /// [`StateSource::resolve_rollback`]).
    ///
    /// Error behavior is identical to evaluating the un-pushed
    /// expression: a state of the wrong kind is diagnosed with the same
    /// `StateKindMismatch` (named after the innermost wrapping operator,
    /// which evaluates first), and predicate/attribute errors surface
    /// unchanged from the same operator implementations.
    pub fn apply(&self, value: StateValue, historical: bool) -> Result<StateValue, EvalError> {
        match (value, historical) {
            (StateValue::Snapshot(s), false) => {
                let s = match self.predicate {
                    Some(p) => s.select(p)?,
                    None => s,
                };
                let s = match self.project {
                    Some(attrs) => s.project(attrs)?,
                    None => s,
                };
                Ok(StateValue::Snapshot(s))
            }
            (StateValue::Historical(h), true) => {
                let h = match self.predicate {
                    Some(p) => h.hselect(p)?,
                    None => h,
                };
                let h = match self.project {
                    Some(attrs) => h.hproject(attrs)?,
                    None => h,
                };
                Ok(StateValue::Historical(h))
            }
            (value, historical) => {
                if self.is_empty() {
                    return Ok(value);
                }
                // The innermost wrapper evaluates first in the un-pushed
                // expression, so its name carries the diagnostic.
                let operator = match (self.predicate.is_some(), historical) {
                    (true, false) => "select",
                    (false, false) => "project",
                    (true, true) => "hselect",
                    (false, true) => "hproject",
                };
                Err(EvalError::StateKindMismatch {
                    operator,
                    expected_historical: historical,
                })
            }
        }
    }
}

/// Anything that can answer rollback lookups — the single point where
/// expression evaluation touches stored data.
///
/// The reference semantics implements this for [`Database`] via FINDSTATE;
/// the efficient engines in `txtime-storage` implement it over their own
/// representations. Everything else in **E** — the operators — is shared,
/// which is exactly what makes "demonstrating the equivalence of their
/// semantics with the simple semantics presented here" (§5) a matter of
/// testing this one method.
pub trait StateSource {
    /// Resolves `ρ(ident, spec)` (`historical = false`) or
    /// `ρ̂(ident, spec)` (`historical = true`).
    fn resolve_rollback(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
    ) -> Result<StateValue, EvalError>;

    /// Resolves a rollback with a selection/projection pushed into it.
    ///
    /// The provided implementation resolves and then applies the filter,
    /// which is *definitionally* what the un-pushed expression computes —
    /// so the reference [`Database`] semantics is untouched by pushdown.
    /// Storage engines override this to filter while reconstructing.
    fn resolve_rollback_filtered(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
        filter: &RollbackFilter<'_>,
    ) -> Result<StateValue, EvalError> {
        filter.apply(self.resolve_rollback(ident, spec, historical)?, historical)
    }

    /// Offers `ρ(ident, minuend) − ρ(ident, subtrahend)` (`historical =
    /// false`) or `ρ̂(ident, minuend) −̂ ρ̂(ident, subtrahend)` to the
    /// source as one question: what one relation held at one time and no
    /// longer (or not yet) at another.
    ///
    /// `None` declines, and the evaluator then resolves the two leaves
    /// and subtracts them, which is the definition and therefore decides
    /// every value and every error; a source answers only where it can
    /// give that same value without building both states. The provided
    /// implementation always declines, so the reference [`Database`]
    /// semantics is untouched.
    fn resolve_version_difference(
        &self,
        _ident: &str,
        _minuend: TransactionNumber,
        _subtrahend: TransactionNumber,
        _historical: bool,
    ) -> Option<StateValue> {
        None
    }
}

/// The source's own answer to `a − b` (`a −̂ b` for `historical`) when
/// both operands are ρ (ρ̂) leaves of one relation at fixed transaction
/// numbers and the source has one; see
/// [`StateSource::resolve_version_difference`].
fn version_difference(
    db: &impl StateSource,
    a: &Expr,
    b: &Expr,
    historical: bool,
) -> Option<StateValue> {
    match (a, b, historical) {
        (
            Expr::Rollback(ident, TxSpec::At(minuend)),
            Expr::Rollback(other, TxSpec::At(subtrahend)),
            false,
        )
        | (
            Expr::HRollback(ident, TxSpec::At(minuend)),
            Expr::HRollback(other, TxSpec::At(subtrahend)),
            true,
        ) if ident == other => {
            db.resolve_version_difference(ident, *minuend, *subtrahend, historical)
        }
        _ => None,
    }
}

impl StateSource for Database {
    fn resolve_rollback(
        &self,
        ident: &str,
        spec: TxSpec,
        historical: bool,
    ) -> Result<StateValue, EvalError> {
        rollback(self, ident, spec, historical)
    }
}

impl Expr {
    /// Evaluates the expression against `db` (the denotation
    /// `E⟦self⟧ db`).
    pub fn eval(&self, db: &Database) -> Result<StateValue, EvalError> {
        self.eval_with(db)
    }

    /// Evaluates against any [`StateSource`].
    pub fn eval_with(&self, db: &impl StateSource) -> Result<StateValue, EvalError> {
        match self {
            Expr::SnapshotConst(s) => Ok(StateValue::Snapshot(s.clone())),
            Expr::HistoricalConst(h) => Ok(StateValue::Historical(h.clone())),

            Expr::Union(a, b) => {
                let (l, r) = (a.eval_snapshot(db, "union")?, b.eval_snapshot(db, "union")?);
                Ok(StateValue::Snapshot(l.union(&r)?))
            }
            Expr::Difference(a, b) => {
                if let Some(state) = version_difference(db, a, b, false) {
                    return Ok(state);
                }
                let (l, r) = (a.eval_snapshot(db, "minus")?, b.eval_snapshot(db, "minus")?);
                Ok(StateValue::Snapshot(l.difference(&r)?))
            }
            Expr::Product(a, b) => {
                let (l, r) = (a.eval_snapshot(db, "times")?, b.eval_snapshot(db, "times")?);
                Ok(StateValue::Snapshot(l.product(&r)?))
            }
            Expr::Project(attrs, e) => match &**e {
                // π_X(ρ(I, N)) and π_X(σ_F(ρ(I, N))): push the operators
                // into rollback resolution.
                Expr::Rollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: None,
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, false, &filter)
                }
                Expr::Select(p, inner) if matches!(&**inner, Expr::Rollback(..)) => {
                    let Expr::Rollback(ident, spec) = &**inner else {
                        unreachable!("guard matched Rollback");
                    };
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, false, &filter)
                }
                _ => {
                    let s = e.eval_snapshot(db, "project")?;
                    Ok(StateValue::Snapshot(s.project(attrs)?))
                }
            },
            Expr::Select(p, e) => match &**e {
                // σ_F(ρ(I, N)): push the selection into resolution.
                Expr::Rollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: None,
                    };
                    db.resolve_rollback_filtered(ident, *spec, false, &filter)
                }
                _ => {
                    let s = e.eval_snapshot(db, "select")?;
                    Ok(StateValue::Snapshot(s.select(p)?))
                }
            },
            Expr::Rollback(ident, spec) => db.resolve_rollback(ident, *spec, false),

            Expr::HUnion(a, b) => {
                let (l, r) = (
                    a.eval_historical(db, "hunion")?,
                    b.eval_historical(db, "hunion")?,
                );
                Ok(StateValue::Historical(l.hunion(&r)?))
            }
            Expr::HDifference(a, b) => {
                if let Some(state) = version_difference(db, a, b, true) {
                    return Ok(state);
                }
                let (l, r) = (
                    a.eval_historical(db, "hminus")?,
                    b.eval_historical(db, "hminus")?,
                );
                Ok(StateValue::Historical(l.hdifference(&r)?))
            }
            Expr::HProduct(a, b) => {
                let (l, r) = (
                    a.eval_historical(db, "htimes")?,
                    b.eval_historical(db, "htimes")?,
                );
                Ok(StateValue::Historical(l.hproduct(&r)?))
            }
            Expr::HProject(attrs, e) => match &**e {
                // π̂_X(ρ̂(I, N)) and π̂_X(σ̂_F(ρ̂(I, N))): the historical
                // pushdown shapes.
                Expr::HRollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: None,
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, true, &filter)
                }
                Expr::HSelect(p, inner) if matches!(&**inner, Expr::HRollback(..)) => {
                    let Expr::HRollback(ident, spec) = &**inner else {
                        unreachable!("guard matched HRollback");
                    };
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, true, &filter)
                }
                _ => {
                    let h = e.eval_historical(db, "hproject")?;
                    Ok(StateValue::Historical(h.hproject(attrs)?))
                }
            },
            Expr::HSelect(p, e) => match &**e {
                // σ̂_F(ρ̂(I, N)): push the selection into resolution.
                Expr::HRollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: None,
                    };
                    db.resolve_rollback_filtered(ident, *spec, true, &filter)
                }
                _ => {
                    let h = e.eval_historical(db, "hselect")?;
                    Ok(StateValue::Historical(h.hselect(p)?))
                }
            },
            Expr::Delta(g, v, e) => {
                let h = e.eval_historical(db, "delta")?;
                Ok(StateValue::Historical(h.delta(g, v)?))
            }
            Expr::HRollback(ident, spec) => db.resolve_rollback(ident, *spec, true),

            Expr::Join(spec, a, b) => {
                let (l, r) = (a.eval_snapshot(db, "join")?, b.eval_snapshot(db, "join")?);
                Ok(StateValue::Snapshot(l.equi_join(&r, spec)?))
            }
            Expr::HJoin(spec, a, b) => {
                let (l, r) = (
                    a.eval_historical(db, "hjoin")?,
                    b.eval_historical(db, "hjoin")?,
                );
                Ok(StateValue::Historical(l.hequi_join(&r, spec)?))
            }
        }
    }

    /// Evaluates against any [`StateSource`] with work scheduled on an
    /// [`ExecPool`] — the parallel twin of [`Expr::eval_with`].
    ///
    /// The tree is walked exactly as [`Expr::eval_with`] walks it — left
    /// operand, then right, so error selection is the same — and each
    /// operator but ∪/∪̂ (always the one-pass merge) runs its
    /// partitioned kernel (`*_par` in `txtime-snapshot`/
    /// `txtime-historical`), which splits only an operand large enough
    /// to pay for the spawn. The result — value
    /// *and* error — is identical to the sequential evaluation: chunk
    /// merges preserve the canonical state order. A one-thread pool runs
    /// everything inline. The parallel-determinism property tests in
    /// `txtime-storage` pin this equivalence.
    pub fn eval_with_pool<S: StateSource>(
        &self,
        db: &S,
        pool: &ExecPool,
    ) -> Result<StateValue, EvalError> {
        match self {
            Expr::SnapshotConst(s) => Ok(StateValue::Snapshot(s.clone())),
            Expr::HistoricalConst(h) => Ok(StateValue::Historical(h.clone())),

            Expr::Union(a, b) => {
                let l = a.eval_snapshot_pool(db, pool, "union")?;
                let r = b.eval_snapshot_pool(db, pool, "union")?;
                Ok(StateValue::Snapshot(l.union(&r)?))
            }
            Expr::Difference(a, b) => {
                if let Some(state) = version_difference(db, a, b, false) {
                    return Ok(state);
                }
                let l = a.eval_snapshot_pool(db, pool, "minus")?;
                let r = b.eval_snapshot_pool(db, pool, "minus")?;
                Ok(StateValue::Snapshot(l.difference_par(&r, pool)?))
            }
            Expr::Product(a, b) => {
                let l = a.eval_snapshot_pool(db, pool, "times")?;
                let r = b.eval_snapshot_pool(db, pool, "times")?;
                Ok(StateValue::Snapshot(l.product_par(&r, pool)?))
            }
            Expr::Project(attrs, e) => match &**e {
                // The pushdown shapes resolve exactly as in the
                // sequential evaluator — the store does the filtering.
                Expr::Rollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: None,
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, false, &filter)
                }
                Expr::Select(p, inner) if matches!(&**inner, Expr::Rollback(..)) => {
                    let Expr::Rollback(ident, spec) = &**inner else {
                        unreachable!("guard matched Rollback");
                    };
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, false, &filter)
                }
                _ => {
                    let s = e.eval_snapshot_pool(db, pool, "project")?;
                    Ok(StateValue::Snapshot(s.project_par(attrs, pool)?))
                }
            },
            Expr::Select(p, e) => match &**e {
                Expr::Rollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: None,
                    };
                    db.resolve_rollback_filtered(ident, *spec, false, &filter)
                }
                _ => {
                    let s = e.eval_snapshot_pool(db, pool, "select")?;
                    Ok(StateValue::Snapshot(s.select_par(p, pool)?))
                }
            },
            Expr::Rollback(ident, spec) => db.resolve_rollback(ident, *spec, false),

            Expr::HUnion(a, b) => {
                let l = a.eval_historical_pool(db, pool, "hunion")?;
                let r = b.eval_historical_pool(db, pool, "hunion")?;
                Ok(StateValue::Historical(l.hunion(&r)?))
            }
            Expr::HDifference(a, b) => {
                if let Some(state) = version_difference(db, a, b, true) {
                    return Ok(state);
                }
                let l = a.eval_historical_pool(db, pool, "hminus")?;
                let r = b.eval_historical_pool(db, pool, "hminus")?;
                Ok(StateValue::Historical(l.hdifference_par(&r, pool)?))
            }
            Expr::HProduct(a, b) => {
                let l = a.eval_historical_pool(db, pool, "htimes")?;
                let r = b.eval_historical_pool(db, pool, "htimes")?;
                Ok(StateValue::Historical(l.hproduct_par(&r, pool)?))
            }
            Expr::HProject(attrs, e) => match &**e {
                Expr::HRollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: None,
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, true, &filter)
                }
                Expr::HSelect(p, inner) if matches!(&**inner, Expr::HRollback(..)) => {
                    let Expr::HRollback(ident, spec) = &**inner else {
                        unreachable!("guard matched HRollback");
                    };
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: Some(attrs),
                    };
                    db.resolve_rollback_filtered(ident, *spec, true, &filter)
                }
                _ => {
                    let h = e.eval_historical_pool(db, pool, "hproject")?;
                    Ok(StateValue::Historical(h.hproject_par(attrs, pool)?))
                }
            },
            Expr::HSelect(p, e) => match &**e {
                Expr::HRollback(ident, spec) => {
                    let filter = RollbackFilter {
                        predicate: Some(p),
                        project: None,
                    };
                    db.resolve_rollback_filtered(ident, *spec, true, &filter)
                }
                _ => {
                    let h = e.eval_historical_pool(db, pool, "hselect")?;
                    Ok(StateValue::Historical(h.hselect_par(p, pool)?))
                }
            },
            Expr::Delta(g, v, e) => {
                // δ_{G,V} rewrites valid-time components per entry; it
                // stays sequential.
                let h = e.eval_historical_pool(db, pool, "delta")?;
                Ok(StateValue::Historical(h.delta(g, v)?))
            }
            Expr::HRollback(ident, spec) => db.resolve_rollback(ident, *spec, true),

            Expr::Join(spec, a, b) => {
                let l = a.eval_snapshot_pool(db, pool, "join")?;
                let r = b.eval_snapshot_pool(db, pool, "join")?;
                Ok(StateValue::Snapshot(l.equi_join_par(&r, spec, pool)?))
            }
            Expr::HJoin(spec, a, b) => {
                let l = a.eval_historical_pool(db, pool, "hjoin")?;
                let r = b.eval_historical_pool(db, pool, "hjoin")?;
                Ok(StateValue::Historical(l.hequi_join_par(&r, spec, pool)?))
            }
        }
    }

    /// [`Expr::eval_snapshot`] through the pool-scheduled evaluator.
    fn eval_snapshot_pool<S: StateSource>(
        &self,
        db: &S,
        pool: &ExecPool,
        operator: &'static str,
    ) -> Result<SnapshotState, EvalError> {
        self.eval_with_pool(db, pool)?
            .into_snapshot()
            .ok_or(EvalError::StateKindMismatch {
                operator,
                expected_historical: false,
            })
    }

    /// [`Expr::eval_historical`] through the pool-scheduled evaluator.
    fn eval_historical_pool<S: StateSource>(
        &self,
        db: &S,
        pool: &ExecPool,
        operator: &'static str,
    ) -> Result<HistoricalState, EvalError> {
        self.eval_with_pool(db, pool)?
            .into_historical()
            .ok_or(EvalError::StateKindMismatch {
                operator,
                expected_historical: true,
            })
    }

    /// Evaluates, requiring a snapshot state.
    pub fn eval_snapshot(
        &self,
        db: &impl StateSource,
        operator: &'static str,
    ) -> Result<SnapshotState, EvalError> {
        self.eval_with(db)?
            .into_snapshot()
            .ok_or(EvalError::StateKindMismatch {
                operator,
                expected_historical: false,
            })
    }

    /// Evaluates, requiring an historical state.
    pub fn eval_historical(
        &self,
        db: &impl StateSource,
        operator: &'static str,
    ) -> Result<HistoricalState, EvalError> {
        self.eval_with(db)?
            .into_historical()
            .ok_or(EvalError::StateKindMismatch {
                operator,
                expected_historical: true,
            })
    }
}

/// The denotations of ρ(I, N) and ρ̂(I, N):
///
/// ```text
/// E⟦ρ(I, N)⟧ d ≜ if N = ∞ then FINDSTATE(r, n) else FINDSTATE(r, N⟦N⟧)
/// ```
///
/// where `d = (b, n)` and `r = b(I)`. Type rules (§3.1/§4):
///
/// * `ρ(I, ∞)` — `I` may be snapshot or rollback;
/// * `ρ(I, N)`, `N ≠ ∞` — `I` must be rollback ("The rollback operator
///   cannot retrieve a past state of a snapshot relation");
/// * `ρ̂` mirrors this for historical/temporal relations.
///
/// When FINDSTATE finds no element (the paper's "empty set" result) we
/// return an empty state with the relation's earliest known scheme; if the
/// relation has no states at all there is no scheme to give ∅ and we
/// diagnose `EmptyRelation`.
fn rollback(
    db: &Database,
    ident: &str,
    spec: TxSpec,
    historical: bool,
) -> Result<StateValue, EvalError> {
    let relation = db
        .state
        .lookup(ident)
        .ok_or_else(|| EvalError::UndefinedRelation(ident.to_string()))?;

    check_rollback_type(relation, ident, spec, historical)?;

    let tx = match spec {
        TxSpec::Current => db.tx,
        TxSpec::At(n) => n,
    };
    match find_state(relation, tx) {
        Some(state) => Ok(state.clone()),
        None => empty_like_first_version(relation, ident),
    }
}

fn check_rollback_type(
    relation: &Relation,
    ident: &str,
    spec: TxSpec,
    historical: bool,
) -> Result<(), EvalError> {
    let rtype = relation.rtype();
    if historical != rtype.holds_historical() {
        return Err(EvalError::RollbackTypeMismatch {
            relation: ident.to_string(),
            actual: rtype,
            historical,
        });
    }
    if matches!(spec, TxSpec::At(_)) && !rtype.keeps_history() {
        // ρ(I, N) with N ≠ ∞ on a snapshot relation (or ρ̂ on an
        // historical relation) is illegal.
        return if rtype == RelationType::Snapshot {
            Err(EvalError::RollbackOnSnapshot(ident.to_string()))
        } else {
            Err(EvalError::RollbackTypeMismatch {
                relation: ident.to_string(),
                actual: rtype,
                historical,
            })
        };
    }
    Ok(())
}

fn empty_like_first_version(relation: &Relation, ident: &str) -> Result<StateValue, EvalError> {
    match relation.versions().first() {
        Some(v) => Ok(v.state.empty_like()),
        // A defined relation with an empty sequence: even ∅ needs a
        // scheme in a typed implementation.
        None => Err(EvalError::EmptyRelation(ident.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::domains::TransactionNumber;
    use crate::syntax::command::Command;
    use crate::syntax::sentence::Sentence;
    use txtime_historical::TemporalElement;
    use txtime_snapshot::{DomainType, Predicate, Schema, Tuple, Value};

    fn schema() -> Schema {
        Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap()
    }

    fn snap(rows: &[(&str, i64)]) -> SnapshotState {
        SnapshotState::from_rows(
            schema(),
            rows.iter()
                .map(|&(n, s)| vec![Value::str(n), Value::Int(s)]),
        )
        .unwrap()
    }

    fn hist(rows: &[(&str, i64, u32, u32)]) -> HistoricalState {
        HistoricalState::new(
            schema(),
            rows.iter().map(|&(n, s, f, t)| {
                (
                    Tuple::new(vec![Value::str(n), Value::Int(s)]),
                    TemporalElement::period(f, t),
                )
            }),
        )
        .unwrap()
    }

    /// A database: rollback `emp` with three versions (tx 2, 3, 4) and a
    /// snapshot `cur` with one.
    fn db() -> Database {
        Sentence::new(vec![
            Command::define_relation("emp", RelationType::Rollback),
            Command::modify_state("emp", Expr::snapshot_const(snap(&[("alice", 100)]))),
            Command::modify_state(
                "emp",
                Expr::snapshot_const(snap(&[("alice", 100), ("bob", 200)])),
            ),
            Command::modify_state("emp", Expr::snapshot_const(snap(&[("bob", 250)]))),
            Command::define_relation("cur", RelationType::Snapshot),
            Command::modify_state("cur", Expr::snapshot_const(snap(&[("zoe", 1)]))),
        ])
        .unwrap()
        .eval()
        .unwrap()
    }

    fn tdb() -> Database {
        Sentence::new(vec![
            Command::define_relation("hemp", RelationType::Temporal),
            Command::modify_state(
                "hemp",
                Expr::historical_const(hist(&[("alice", 100, 0, 10)])),
            ),
            Command::modify_state(
                "hemp",
                Expr::historical_const(hist(&[("alice", 100, 0, 10), ("bob", 200, 5, 20)])),
            ),
        ])
        .unwrap()
        .eval()
        .unwrap()
    }

    #[test]
    fn constants_evaluate_to_themselves() {
        let s = snap(&[("a", 1)]);
        assert_eq!(
            Expr::snapshot_const(s.clone())
                .eval(&Database::empty())
                .unwrap(),
            StateValue::Snapshot(s)
        );
    }

    #[test]
    fn evaluation_does_not_change_database() {
        let d = db();
        let before = d.clone();
        let _ = Expr::current("emp").eval(&d).unwrap();
        let _ = Expr::rollback("emp", TxSpec::At(TransactionNumber(2))).eval(&d);
        assert_eq!(d, before);
    }

    #[test]
    fn rollback_current_returns_latest() {
        let s = Expr::current("emp").eval(&db()).unwrap();
        assert_eq!(s.into_snapshot().unwrap(), snap(&[("bob", 250)]));
    }

    #[test]
    fn rollback_interpolates() {
        let d = db();
        let at2 = Expr::rollback("emp", TxSpec::At(TransactionNumber(2)))
            .eval(&d)
            .unwrap();
        assert_eq!(at2.into_snapshot().unwrap(), snap(&[("alice", 100)]));
        let at3 = Expr::rollback("emp", TxSpec::At(TransactionNumber(3)))
            .eval(&d)
            .unwrap();
        assert_eq!(
            at3.into_snapshot().unwrap(),
            snap(&[("alice", 100), ("bob", 200)])
        );
    }

    #[test]
    fn rollback_before_first_version_is_empty_state() {
        let d = db();
        let s = Expr::rollback("emp", TxSpec::At(TransactionNumber(1)))
            .eval(&d)
            .unwrap()
            .into_snapshot()
            .unwrap();
        assert!(s.is_empty());
        assert_eq!(s.schema(), &schema());
    }

    #[test]
    fn rollback_on_snapshot_with_past_tx_is_illegal() {
        let d = db();
        assert!(matches!(
            Expr::rollback("cur", TxSpec::At(TransactionNumber(1))).eval(&d),
            Err(EvalError::RollbackOnSnapshot(_))
        ));
        // But ∞ is fine.
        assert!(Expr::current("cur").eval(&d).is_ok());
    }

    #[test]
    fn rollback_on_undefined_relation() {
        assert!(matches!(
            Expr::current("ghost").eval(&Database::empty()),
            Err(EvalError::UndefinedRelation(_))
        ));
    }

    #[test]
    fn rho_requires_snapshot_family() {
        let d = tdb();
        assert!(matches!(
            Expr::current("hemp").eval(&d),
            Err(EvalError::RollbackTypeMismatch { .. })
        ));
    }

    #[test]
    fn hrho_requires_historical_family() {
        let d = db();
        assert!(matches!(
            Expr::hcurrent("emp").eval(&d),
            Err(EvalError::RollbackTypeMismatch { .. })
        ));
    }

    #[test]
    fn hrollback_retrieves_past_historical_state() {
        let d = tdb();
        let h1 = Expr::hrollback("hemp", TxSpec::At(TransactionNumber(2)))
            .eval(&d)
            .unwrap()
            .into_historical()
            .unwrap();
        assert_eq!(h1, hist(&[("alice", 100, 0, 10)]));
        let h2 = Expr::hcurrent("hemp")
            .eval(&d)
            .unwrap()
            .into_historical()
            .unwrap();
        assert_eq!(h2.len(), 2);
    }

    #[test]
    fn algebra_over_rollback_results() {
        let d = db();
        // π_name(σ_{sal>150}(ρ(emp, 3)))
        let e = Expr::rollback("emp", TxSpec::At(TransactionNumber(3)))
            .select(Predicate::gt_const("sal", Value::Int(150)))
            .project(vec!["name".into()]);
        let s = e.eval(&d).unwrap().into_snapshot().unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.iter().next().unwrap().get(0), &Value::str("bob"));
    }

    #[test]
    fn union_of_two_rollback_times() {
        let d = db();
        let e = Expr::rollback("emp", TxSpec::At(TransactionNumber(2))).union(Expr::current("emp"));
        let s = e.eval(&d).unwrap().into_snapshot().unwrap();
        assert_eq!(s, snap(&[("alice", 100), ("bob", 250)]));
    }

    #[test]
    fn kind_mismatch_is_diagnosed() {
        let d = tdb();
        // Snapshot union over an historical operand.
        let e = Expr::hcurrent("hemp").union(Expr::hcurrent("hemp"));
        assert!(matches!(
            e.eval(&d),
            Err(EvalError::StateKindMismatch {
                operator: "union",
                ..
            })
        ));
    }

    #[test]
    fn empty_relation_has_no_scheme_for_rollback() {
        let d = Sentence::new(vec![Command::define_relation(
            "fresh",
            RelationType::Rollback,
        )])
        .unwrap()
        .eval()
        .unwrap();
        assert!(matches!(
            Expr::current("fresh").eval(&d),
            Err(EvalError::EmptyRelation(_))
        ));
    }
}
