//! The delta path of `modify_state`: a right-hand side that says which
//! rows change is folded into a [`StateDelta`], never into a state.
//!
//! The paper (§3.5) has `modify_state` "effectively perform append,
//! delete, and replace", and `txtime_core::ext::update` compiles exactly
//! those to algebra over `ρ(I, ∞)`: `ρ(I,∞) ∪ A`, `σ_{¬F}(ρ(I,∞))`,
//! `(ρ(I,∞) − σ_F(ρ(I,∞))) ∪ …`. Evaluating such an expression builds a
//! fresh state the size of the relation, and installing it makes the
//! delta store diff that state against the previous one to recover the
//! few rows the command started from. Claim 3 licenses any
//! implementation observationally equal to evaluating **E**⟦e⟧ and
//! installing the result, so when the command is `ρ(I, ∞)` of the
//! relation being written under a chain of `· − X`, `· ∪ X`, `σ_F(·)`
//! (or the hatted twins over `ρ̂(I, ∞)`), the engine evaluates only the
//! operands `X` and this module folds the chain into the one delta that
//! [`StateDelta::between`] would have found between the previous state
//! and the evaluated one, value for value: `removed` within the current
//! state, `added` outside it, both ascending.
//!
//! The selection is by the shape of the input alone. [`recognise`] looks
//! at operator nodes down the left spine and never into an operand, so a
//! constant right-hand side is turned away at its root; [`fold`] walks
//! each operand once, in step with the current run, so an operand as
//! large as the relation costs what evaluating the union would have.
//! Whatever neither can decide (another leaf, mixed kinds, a scheme
//! mismatch, a predicate that does not compile) is `None`, and the
//! engine runs the plain path, which also words the error.

use txtime_core::{Expr, StateValue, TxSpec};
use txtime_historical::{Entry, TemporalElement};
use txtime_snapshot::{Predicate, Schema, Tuple};

use crate::delta::{seek, StateDelta};

/// One operator applied to the state being written, with its operand as
/// `X`: the expression when recognised, its value when folded.
pub(crate) enum Step<'a, X> {
    /// `· ∪ X`, `· ∪̂ X`
    Union(X),
    /// `· − X`, `· −̂ X`
    Minus(X),
    /// `σ_F(·)`, `σ̂_F(·)`
    Keep(&'a Predicate),
}

impl<'a, X> Step<'a, X> {
    /// The same step over `f` of its operand.
    pub(crate) fn try_map<Y, E>(self, f: impl FnOnce(X) -> Result<Y, E>) -> Result<Step<'a, Y>, E> {
        Ok(match self {
            Step::Union(x) => Step::Union(f(x)?),
            Step::Minus(x) => Step::Minus(f(x)?),
            Step::Keep(p) => Step::Keep(p),
        })
    }
}

/// The steps `expr` applies to `ρ(ident, ∞)` (`false`) or `ρ̂(ident, ∞)`
/// (`true`), innermost first, if that is all it is.
pub(crate) fn recognise<'a>(
    ident: &str,
    expr: &'a Expr,
) -> Option<(bool, Vec<Step<'a, &'a Expr>>)> {
    let mut steps = Vec::new();
    let mut hats = None;
    let mut at = expr;
    let historical = loop {
        let (hatted, step, inner) = match at {
            Expr::Union(l, x) => (false, Step::Union(&**x), l),
            Expr::Difference(l, x) => (false, Step::Minus(&**x), l),
            Expr::Select(f, l) => (false, Step::Keep(f), l),
            Expr::HUnion(l, x) => (true, Step::Union(&**x), l),
            Expr::HDifference(l, x) => (true, Step::Minus(&**x), l),
            Expr::HSelect(f, l) => (true, Step::Keep(f), l),
            Expr::Rollback(i, TxSpec::Current) if i == ident => break false,
            Expr::HRollback(i, TxSpec::Current) if i == ident => break true,
            _ => return None,
        };
        // Operators of both kinds in one chain, or of the other kind
        // than the leaf, are a kind error, which the evaluator words.
        if *hats.get_or_insert(hatted) != hatted {
            return None;
        }
        steps.push(step);
        at = inner;
    };
    if hats.is_some_and(|hatted| hatted != historical) {
        return None;
    }
    steps.reverse();
    Some((historical, steps))
}

/// Folds `steps` over `cur` into the delta carrying `cur` to the state
/// the steps denote; `None` if an operand is not of `cur`'s kind and
/// scheme or a predicate does not compile against it.
pub(crate) fn fold(cur: &StateValue, steps: &[Step<'_, StateValue>]) -> Option<StateDelta> {
    Some(match cur {
        StateValue::Snapshot(s) => {
            let (added, removed) = fold_rows(s.run(), s.schema(), steps)?;
            StateDelta::Snapshot {
                added: added.into_iter().map(|(t, ())| t).collect(),
                removed,
            }
        }
        StateValue::Historical(h) => {
            let (upserted, removed) = fold_rows(h.run(), h.schema(), steps)?;
            StateDelta::Historical { upserted, removed }
        }
    })
}

/// One row of a sorted run as the fold sees it: the tuple it is sorted
/// by and what the state holds under that tuple (nothing more for a
/// snapshot state, the valid time for an historical one).
trait Row: Clone {
    type Held: Clone + PartialEq;

    fn key(&self) -> &Tuple;

    fn held(&self) -> &Self::Held;

    /// The run of `state`, if it is of this kind and over `schema`.
    fn run_of<'a>(state: &'a StateValue, schema: &Schema) -> Option<&'a [Self]>;

    /// What `was ∪ x` (`union`) or `was − x` holds under one tuple.
    fn combine(union: bool, was: Option<&Self::Held>, x: &Self::Held) -> Option<Self::Held>;
}

impl Row for Tuple {
    type Held = ();

    fn key(&self) -> &Tuple {
        self
    }

    fn held(&self) -> &() {
        &()
    }

    fn run_of<'a>(state: &'a StateValue, schema: &Schema) -> Option<&'a [Tuple]> {
        match state {
            StateValue::Snapshot(s) if s.schema() == schema => Some(s.run()),
            _ => None,
        }
    }

    fn combine(union: bool, _: Option<&()>, _: &()) -> Option<()> {
        union.then_some(())
    }
}

impl Row for Entry {
    type Held = TemporalElement;

    fn key(&self) -> &Tuple {
        &self.0
    }

    fn held(&self) -> &TemporalElement {
        &self.1
    }

    fn run_of<'a>(state: &'a StateValue, schema: &Schema) -> Option<&'a [Entry]> {
        match state {
            StateValue::Historical(h) if h.schema() == schema => Some(h.run()),
            _ => None,
        }
    }

    fn combine(
        union: bool,
        was: Option<&TemporalElement>,
        x: &TemporalElement,
    ) -> Option<TemporalElement> {
        match (union, was) {
            (true, None) => Some(x.clone()),
            (true, Some(was)) => Some(was.union(x)),
            (false, was) => was.map(|w| w.difference(x)).filter(|e| !e.is_empty()),
        }
    }
}

/// What the steps folded so far leave under each tuple they touched,
/// ascending by tuple; `None`: nothing.
type Touched<H> = Vec<(Tuple, Option<H>)>;

/// The arriving rows (with what they hold) and the leaving tuples.
type Settled<H> = (Vec<(Tuple, H)>, Vec<Tuple>);

fn fold_rows<R: Row>(
    cur: &[R],
    schema: &Schema,
    steps: &[Step<'_, StateValue>],
) -> Option<Settled<R::Held>> {
    let mut touched = Vec::new();
    for step in steps {
        touched = match step {
            Step::Union(x) => merge(cur, touched, R::run_of(x, schema)?, true),
            Step::Minus(x) => merge(cur, touched, R::run_of(x, schema)?, false),
            Step::Keep(predicate) => {
                let compiled = predicate.compile(schema).ok()?;
                for (t, held) in &mut touched {
                    if !compiled.eval(t) {
                        *held = None;
                    }
                }
                let failing: Vec<R> = cur
                    .iter()
                    .filter(|r| !compiled.eval(r.key()))
                    .cloned()
                    .collect();
                merge(cur, touched, &failing, false)
            }
        };
    }
    // Settle against the current run: a touched tuple left as it was is
    // no change, so the delta comes out as `between` would list it.
    let (mut arriving, mut leaving) = (Vec::new(), Vec::new());
    let mut at = 0;
    for (t, now) in touched {
        at = seek(cur, at, R::key, &t);
        let was = cur.get(at).filter(|r| *r.key() == t).map(R::held);
        match now {
            None if was.is_some() => leaving.push(t),
            Some(now) if was != Some(&now) => arriving.push((t, now)),
            _ => {}
        }
    }
    Some((arriving, leaving))
}

/// One `∪ x` (`union`) or `− x` over the state `touched` describes on
/// top of `cur`: a single pass over `x`, in step with both.
fn merge<R: Row>(cur: &[R], touched: Touched<R::Held>, x: &[R], union: bool) -> Touched<R::Held> {
    let mut out = Vec::with_capacity(touched.len() + x.len());
    let mut old = touched.into_iter().peekable();
    let mut at = 0;
    for row in x {
        while let Some(below) = old.next_if(|(t, _)| t < row.key()) {
            out.push(below);
        }
        out.push(match old.next_if(|(t, _)| t == row.key()) {
            Some((t, was)) => (t, R::combine(union, was.as_ref(), row.held())),
            None => {
                at = seek(cur, at, R::key, row.key());
                let was = cur.get(at).filter(|r| r.key() == row.key());
                // A tuple the state holds is listed as the state holds
                // it (its strings went through the store's pool).
                let t = was.map_or(row.key(), R::key).clone();
                (t, R::combine(union, was.map(R::held), row.held()))
            }
        });
    }
    out.extend(old);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_historical::HistoricalState;
    use txtime_snapshot::{DomainType, SnapshotState, Value};

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

    fn above(n: i64) -> Predicate {
        Predicate::gt_const("x", Value::Int(n))
    }

    #[test]
    fn recognise_reads_the_left_spine_and_nothing_else() {
        let update = Expr::current("r")
            .difference(Expr::current("r").select(above(3)))
            .union(Expr::current("other"));
        let (historical, steps) = recognise("r", &update).unwrap();
        assert!(!historical);
        assert!(matches!(
            steps[..],
            [
                Step::Minus(Expr::Select(..)),
                Step::Union(Expr::Rollback(..))
            ]
        ));
        assert!(recognise("r", &Expr::current("r")).unwrap().1.is_empty());
        assert!(
            recognise("r", &Expr::hcurrent("r").hselect(above(1)))
                .unwrap()
                .0
        );
        // Another relation, a past version, a constant, a mixed chain.
        assert!(recognise("other", &update).is_none());
        let past = Expr::rollback("r", TxSpec::At(txtime_core::TransactionNumber(3)));
        assert!(recognise("r", &past.union(Expr::current("r"))).is_none());
        let StateValue::Snapshot(constant) = snap(&[1]) else {
            unreachable!()
        };
        assert!(recognise("r", &Expr::snapshot_const(constant)).is_none());
        assert!(recognise("r", &Expr::hcurrent("r").select(above(1))).is_none());
        assert!(recognise("r", &Expr::current("r").project(vec!["x".into()])).is_none());
    }

    /// Every chain folds to exactly the delta `between` finds from the
    /// current state to the evaluated one.
    #[test]
    fn fold_equals_between_over_the_evaluated_state() {
        let cur = snap(&[1, 2, 3, 4, 5, 6]);
        let keep = above(2);
        let chains: Vec<Vec<Step<'_, StateValue>>> = vec![
            vec![],
            vec![Step::Union(snap(&[2, 9]))],
            vec![Step::Minus(snap(&[2, 9]))],
            vec![Step::Keep(&keep)],
            // Replace: out and back in, out and elsewhere, a no-op row.
            vec![Step::Minus(snap(&[3, 4])), Step::Union(snap(&[3, 7, 5]))],
            vec![
                Step::Union(snap(&[0, 8])),
                Step::Keep(&keep),
                Step::Minus(snap(&[8, 4])),
                Step::Union(snap(&[1])),
            ],
            vec![Step::Minus(cur.clone()), Step::Union(snap(&[6]))],
        ];
        for steps in &chains {
            let StateValue::Snapshot(mut want) = cur.clone() else {
                unreachable!()
            };
            for step in steps {
                want = match step {
                    Step::Union(StateValue::Snapshot(x)) => want.union(x).unwrap(),
                    Step::Minus(StateValue::Snapshot(x)) => want.difference(x).unwrap(),
                    Step::Keep(p) => want.select(p).unwrap(),
                    _ => unreachable!(),
                };
            }
            let want = StateValue::Snapshot(want);
            let delta = fold(&cur, steps).unwrap();
            assert_eq!(delta, StateDelta::between(&cur, &want));
            assert_eq!(delta.apply(&cur), want);
        }
    }

    #[test]
    fn historical_fold_unions_and_subtracts_valid_time() {
        let cur = hist(&[(1, 0, 5), (2, 0, 9), (3, 2, 4)]);
        let keep = above(1);
        let chains: Vec<Vec<Step<'_, StateValue>>> = vec![
            // Revalued, untouched in effect, new.
            vec![Step::Union(hist(&[(1, 5, 7), (2, 1, 3), (4, 0, 1)]))],
            // Shortened, emptied, absent.
            vec![Step::Minus(hist(&[(2, 0, 4), (3, 0, 9), (7, 0, 1)]))],
            vec![
                Step::Minus(hist(&[(3, 0, 9)])),
                Step::Union(hist(&[(3, 2, 4)])),
                Step::Keep(&keep),
            ],
        ];
        for steps in &chains {
            let StateValue::Historical(mut want) = cur.clone() else {
                unreachable!()
            };
            for step in steps {
                want = match step {
                    Step::Union(StateValue::Historical(x)) => want.hunion(x).unwrap(),
                    Step::Minus(StateValue::Historical(x)) => want.hdifference(x).unwrap(),
                    Step::Keep(p) => want.hselect(p).unwrap(),
                    _ => unreachable!(),
                };
            }
            let want = StateValue::Historical(want);
            let delta = fold(&cur, steps).unwrap();
            assert_eq!(delta, StateDelta::between(&cur, &want));
        }
    }

    #[test]
    fn fold_declines_what_the_evaluator_would_refuse() {
        let cur = snap(&[1, 2]);
        let other = StateValue::Snapshot(
            SnapshotState::from_rows(
                Schema::new(vec![("y", DomainType::Int)]).unwrap(),
                vec![vec![Value::Int(1)]],
            )
            .unwrap(),
        );
        assert!(fold(&cur, &[Step::Union(other)]).is_none());
        assert!(fold(&cur, &[Step::Minus(hist(&[(1, 0, 1)]))]).is_none());
        let unknown = Predicate::gt_const("nope", Value::Int(0));
        assert!(fold(&cur, &[Step::Keep(&unknown)]).is_none());
    }

    #[test]
    fn seek_finds_the_lower_bound_from_any_start() {
        let StateValue::Snapshot(s) = snap(&[1, 3, 5, 7, 9, 11, 13]) else {
            unreachable!()
        };
        let run = s.run();
        for from in 0..=run.len() {
            for k in 0..15 {
                let key = Tuple::new(vec![Value::Int(k)]);
                let want = run.partition_point(|t| *t < key).max(from);
                assert_eq!(seek(run, from, |t| t, &key), want, "from {from}, key {k}");
            }
        }
    }
}
