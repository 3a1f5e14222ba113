//! `txtime-lint`: abstract interpretation over the hash-consed
//! expression DAG plus a flow-sensitive analysis over command sequences.
//!
//! The checker ([`crate::check`]) answers "is this sentence legal?"; the
//! linter answers "does this legal sentence compute anything?". It runs
//! two cooperating analyses:
//!
//! * **Expression-level abstract interpretation.** Every subexpression
//!   is interned into the [`ExprInterner`] DAG and assigned an
//!   [`ExprAbstract`]: a [`CardInterval`] cardinality bound, the result
//!   scheme, and per-attribute [`ValueRange`]s. Constants are abstracted
//!   exactly; ρ/ρ̂ leaves resolve through the [`StatsCatalog`]'s static
//!   FINDSTATE; every operator has a sound transfer function. On top of
//!   the domains sit the `W001`–`W008` judgments: unsatisfiable and
//!   tautological selections, provably-∅ operands, `E − E`,
//!   identity projections, and the two rollback range warnings.
//! * **Flow-sensitive command analysis.** Replaying the sentence with
//!   the same exact-clock discipline as [`Checker`], the linter tracks
//!   each relation's lifetime (define → writes/reads → delete) and the
//!   display census the view memo uses, issuing the `W020`–`W022` dead
//!   command warnings.
//!
//! **Soundness contract** (checked by differential proptests against the
//! storage engine, view memo on and off): every warning states a fact that holds in
//! *every* execution. Machine-checkable versions of the expression-level
//! facts are exported as [`Claim`]s — a provably-∅ claim means the
//! subexpression evaluates to ∅, an equals-operand claim means the
//! operator returns its operand unchanged — and dead-write indices are
//! exported so tests can verify that neutering a warned write changes no
//! observable output.

use std::collections::{BTreeMap, HashMap, HashSet};

use txtime_core::{Command, CommandSpans, Expr, ExprSpans, Sentence, SentenceSpans, Span, TxSpec};
use txtime_snapshot::{CompOp, Operand, Predicate, Schema, Value};

use crate::catalog::{Catalog, StaticState};
use crate::check::Checker;
use crate::diagnostic::{Diagnostic, WarnCode, Warning};
use crate::interner::{ExprId, ExprInterner};
use crate::stats::{Bound, CardInterval, StatsCatalog, ValueRange};

/// What abstract interpretation knows about one subexpression.
#[derive(Debug, Clone)]
pub struct ExprAbstract {
    /// The subexpression's identity in the hash-consed DAG.
    pub id: ExprId,
    /// Sound bounds on the result cardinality.
    pub card: CardInterval,
    /// The result scheme, when statically known.
    pub schema: Option<Schema>,
    /// Per-attribute value ranges aligned with `schema` (`None` when the
    /// scheme or the contents are unknown).
    pub ranges: Option<Vec<ValueRange>>,
}

impl ExprAbstract {
    fn unknown(id: ExprId) -> ExprAbstract {
        ExprAbstract {
            id,
            card: CardInterval::unknown(),
            schema: None,
            ranges: None,
        }
    }
}

/// The machine-checkable content of an expression-level warning,
/// located by its operand path from the analyzed root (`[]` is the root,
/// `[1]` the second operand, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Claim {
    /// Operand indices from the root to the claimed node.
    pub path: Vec<usize>,
    /// What the linter asserts about that node.
    pub kind: ClaimKind,
}

/// The assertion a [`Claim`] makes; each variant is verified by the
/// lint-soundness differential tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClaimKind {
    /// The node provably evaluates to ∅.
    Empty,
    /// The node provably evaluates to exactly its first operand's value
    /// (tautological σ, identity π, redundant `∪ ∅` / `− ∅`).
    EqualsOperand,
    /// The rollback node provably evaluates to the relation's *current*
    /// state at this point in the sentence (`ρ(I, n)` with `n` beyond
    /// the clock).
    EqualsCurrentRollback,
}

/// The result of abstractly interpreting one expression.
#[derive(Debug, Clone)]
pub struct ExprAnalysis {
    /// The root's abstract value.
    pub root: ExprAbstract,
    /// Cardinality bounds for every distinct node of the interned
    /// sub-DAG, ascending by id — the per-[`ExprId`] export the
    /// optimizer's cost model consumes.
    pub bounds: Vec<(ExprId, CardInterval)>,
    /// The `W001`–`W007` warnings found in this expression.
    pub warnings: Vec<Warning>,
    /// Machine-checkable versions of the warnings' factual content.
    pub claims: Vec<Claim>,
    /// Whether a warning already explains why the *root* is ∅ (used to
    /// suppress the generic `W008`).
    pub root_cause_warned: bool,
}

/// Abstractly interprets `expr` against the static database state,
/// reusing (and growing) the caller's interner so structurally identical
/// subexpressions share ids — a shared subexpression is analyzed and
/// warned once.
pub fn analyze_expr(
    expr: &Expr,
    spans: Option<&ExprSpans>,
    catalog: &Catalog,
    stats: &StatsCatalog,
    interner: &mut ExprInterner,
) -> ExprAnalysis {
    let mut pass = ExprPass {
        catalog,
        stats,
        interner,
        memo: HashMap::new(),
        warnings: Vec::new(),
        claims: Vec::new(),
        claimed_empty: HashSet::new(),
    };
    let root = pass.analyze(expr, spans, &mut Vec::new());
    let mut bounds: Vec<(ExprId, CardInterval)> =
        pass.memo.iter().map(|(id, a)| (*id, a.card)).collect();
    bounds.sort_by_key(|(id, _)| *id);
    let root_cause_warned = pass.claimed_empty.contains(&root.id);
    ExprAnalysis {
        root,
        bounds,
        warnings: pass.warnings,
        claims: pass.claims,
        root_cause_warned,
    }
}

/// Three-valued truth: what a predicate is known to evaluate to over
/// every tuple abstracted by a set of value ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Truth {
    True,
    False,
    Unknown,
}

struct ExprPass<'a> {
    catalog: &'a Catalog,
    stats: &'a StatsCatalog,
    interner: &'a mut ExprInterner,
    /// Per-ExprId abstract values: a memo hit skips re-analysis *and*
    /// duplicate warnings for shared subexpressions.
    memo: HashMap<ExprId, ExprAbstract>,
    warnings: Vec<Warning>,
    claims: Vec<Claim>,
    /// Nodes whose emptiness a specific warning already explains.
    claimed_empty: HashSet<ExprId>,
}

/// The span of `spans`' node, or unknown.
fn at(spans: Option<&ExprSpans>) -> Span {
    spans.map_or_else(Span::unknown, |s| s.span)
}

/// The span table of the `i`-th operand.
fn child(spans: Option<&ExprSpans>, i: usize) -> Option<&ExprSpans> {
    spans.and_then(|s| s.children.get(i))
}

impl ExprPass<'_> {
    fn warn(&mut self, code: WarnCode, span: Span, msg: String, help: String) {
        self.warnings
            .push(Warning::new(code, span, msg).with_help(help));
    }

    fn claim(&mut self, path: &[usize], kind: ClaimKind) {
        self.claims.push(Claim {
            path: path.to_vec(),
            kind,
        });
    }

    fn analyze(
        &mut self,
        expr: &Expr,
        spans: Option<&ExprSpans>,
        path: &mut Vec<usize>,
    ) -> ExprAbstract {
        let id = self.interner.intern(expr);
        if let Some(a) = self.memo.get(&id) {
            return a.clone();
        }
        let abs = self.analyze_node(expr, id, spans, path);
        self.memo.insert(id, abs.clone());
        abs
    }

    fn operand(
        &mut self,
        expr: &Expr,
        i: usize,
        spans: Option<&ExprSpans>,
        path: &mut Vec<usize>,
    ) -> ExprAbstract {
        path.push(i);
        let abs = self.analyze(expr.operands()[i], child(spans, i), path);
        path.pop();
        abs
    }

    fn analyze_node(
        &mut self,
        expr: &Expr,
        id: ExprId,
        spans: Option<&ExprSpans>,
        path: &mut Vec<usize>,
    ) -> ExprAbstract {
        let span = at(spans);
        match expr {
            Expr::SnapshotConst(s) => ExprAbstract {
                id,
                card: CardInterval::exact(s.len() as u64),
                ranges: const_ranges(s.schema(), &s.iter().collect::<Vec<_>>()),
                schema: Some(s.schema().clone()),
            },
            Expr::HistoricalConst(h) => ExprAbstract {
                id,
                card: CardInterval::exact(h.len() as u64),
                ranges: const_ranges(h.schema(), &h.iter().map(|(t, _)| t).collect::<Vec<_>>()),
                schema: Some(h.schema().clone()),
            },

            Expr::Union(..) | Expr::HUnion(..) => {
                let fa = self.operand(expr, 0, spans, path);
                let fb = self.operand(expr, 1, spans, path);
                for (i, (f, other)) in [(&fa, &fb), (&fb, &fa)].into_iter().enumerate() {
                    if f.card.is_provably_empty() && !other.card.is_provably_empty() {
                        self.warn(
                            WarnCode::EmptyOperand,
                            at(child(spans, i)),
                            format!(
                                "this operand of `{}` is provably empty; the union returns the other operand unchanged",
                                expr.operator_name()
                            ),
                            "drop the provably empty operand".to_string(),
                        );
                        // The union provably equals its other operand —
                        // claim it as equals-operand when ∅ is on the right.
                        if i == 1 {
                            self.claim(path, ClaimKind::EqualsOperand);
                        }
                    }
                }
                let ranges = if fa.card.is_provably_empty() {
                    fb.ranges.clone()
                } else if fb.card.is_provably_empty() {
                    fa.ranges.clone()
                } else {
                    join_ranges(fa.ranges.as_ref(), fb.ranges.as_ref())
                };
                ExprAbstract {
                    id,
                    card: CardInterval::union_of(fa.card, fb.card),
                    schema: fa.schema.or(fb.schema),
                    ranges,
                }
            }

            Expr::Difference(..) | Expr::HDifference(..) => {
                let fa = self.operand(expr, 0, spans, path);
                let fb = self.operand(expr, 1, spans, path);
                if fa.id == fb.id {
                    self.warn(
                        WarnCode::SelfDifference,
                        span,
                        format!(
                            "both operands of `{}` are structurally identical: `E − E` provably yields ∅",
                            expr.operator_name()
                        ),
                        "replace the difference with an empty constant of the same scheme"
                            .to_string(),
                    );
                    self.claim(path, ClaimKind::Empty);
                    self.claimed_empty.insert(id);
                    return ExprAbstract {
                        id,
                        card: CardInterval::empty(),
                        schema: fa.schema,
                        ranges: None,
                    };
                }
                if fb.card.is_provably_empty() {
                    self.warn(
                        WarnCode::EmptyOperand,
                        at(child(spans, 1)),
                        format!(
                            "subtracting a provably empty expression: `{}` returns its left operand unchanged",
                            expr.operator_name()
                        ),
                        "drop the subtraction".to_string(),
                    );
                    self.claim(path, ClaimKind::EqualsOperand);
                }
                ExprAbstract {
                    id,
                    card: CardInterval::difference_of(fa.card, fb.card),
                    schema: fa.schema,
                    ranges: fa.ranges,
                }
            }

            Expr::Product(..) | Expr::HProduct(..) => {
                let fa = self.operand(expr, 0, spans, path);
                let fb = self.operand(expr, 1, spans, path);
                for (i, f) in [&fa, &fb].into_iter().enumerate() {
                    if f.card.is_provably_empty() {
                        self.warn(
                            WarnCode::EmptyOperand,
                            at(child(spans, i)),
                            format!(
                                "this operand of `{}` is provably empty, so the whole product is provably empty",
                                expr.operator_name()
                            ),
                            "the product can be replaced by an empty constant".to_string(),
                        );
                        self.claim(path, ClaimKind::Empty);
                        self.claimed_empty.insert(id);
                    }
                }
                let card = if matches!(expr, Expr::Product(..)) {
                    CardInterval::product_of(fa.card, fb.card)
                } else {
                    CardInterval::hproduct_of(fa.card, fb.card)
                };
                let schema = match (&fa.schema, &fb.schema) {
                    (Some(a), Some(b)) => a.product(b).ok(),
                    _ => None,
                };
                let ranges = match (&schema, fa.ranges, fb.ranges) {
                    (Some(_), Some(mut ra), Some(rb)) => {
                        ra.extend(rb);
                        Some(ra)
                    }
                    _ => None,
                };
                ExprAbstract {
                    id,
                    card,
                    schema,
                    ranges,
                }
            }

            // A physical equi-join is σ_spec(E₁ × E₂): the product's
            // scheme and ranges (sound for any subset), with the product
            // cardinality as upper bound and 0 as lower (the keys may
            // match nothing).
            Expr::Join(..) | Expr::HJoin(..) => {
                let fa = self.operand(expr, 0, spans, path);
                let fb = self.operand(expr, 1, spans, path);
                for f in [&fa, &fb] {
                    if f.card.is_provably_empty() {
                        self.claim(path, ClaimKind::Empty);
                        self.claimed_empty.insert(id);
                    }
                }
                let prod = if matches!(expr, Expr::Join(..)) {
                    CardInterval::product_of(fa.card, fb.card)
                } else {
                    CardInterval::hproduct_of(fa.card, fb.card)
                };
                let card = CardInterval { lo: 0, hi: prod.hi };
                let schema = match (&fa.schema, &fb.schema) {
                    (Some(a), Some(b)) => a.product(b).ok(),
                    _ => None,
                };
                let ranges = match (&schema, fa.ranges, fb.ranges) {
                    (Some(_), Some(mut ra), Some(rb)) => {
                        ra.extend(rb);
                        Some(ra)
                    }
                    _ => None,
                };
                ExprAbstract {
                    id,
                    card,
                    schema,
                    ranges,
                }
            }

            Expr::Project(attrs, _) | Expr::HProject(attrs, _) => {
                let f = self.operand(expr, 0, spans, path);
                let mut full_scheme = false;
                let mut schema = None;
                let mut ranges = None;
                if let Some(s) = &f.schema {
                    full_scheme = attrs.len() == s.arity() && attrs.iter().all(|a| s.contains(a));
                    let identity = attrs.len() == s.arity()
                        && attrs
                            .iter()
                            .zip(s.attributes())
                            .all(|(a, attr)| a.as_str() == &*attr.name);
                    if identity {
                        self.warn(
                            WarnCode::IdentityProjection,
                            span,
                            format!(
                                "`{}` lists the operand's full scheme in order: the projection provably returns its operand unchanged",
                                expr.operator_name()
                            ),
                            "drop the projection".to_string(),
                        );
                        self.claim(path, ClaimKind::EqualsOperand);
                    }
                    if let Ok((projected, _)) = s.project(attrs) {
                        if let Some(rs) = &f.ranges {
                            ranges = Some(
                                attrs
                                    .iter()
                                    .map(|a| {
                                        rs[s.index_of(a).expect("projected attr exists")].clone()
                                    })
                                    .collect(),
                            );
                        }
                        schema = Some(projected);
                    }
                }
                // A full-scheme projection (any permutation) is injective
                // on tuples, so the cardinality carries over exactly;
                // otherwise tuples can merge, but a non-empty state stays
                // non-empty.
                let card = if full_scheme {
                    f.card
                } else {
                    CardInterval {
                        lo: f.card.lo.min(1),
                        hi: f.card.hi,
                    }
                };
                ExprAbstract {
                    id,
                    card,
                    schema,
                    ranges,
                }
            }

            Expr::Select(p, _) | Expr::HSelect(p, _) => {
                let f = self.operand(expr, 0, spans, path);
                let schema = f.schema.clone();
                match pred_truth(p, schema.as_ref(), f.ranges.as_ref()) {
                    Truth::True => {
                        self.warn(
                            WarnCode::TautologicalSelect,
                            span,
                            format!(
                                "`{}` predicate `{p}` is provably satisfied by every tuple of its operand: the selection is redundant",
                                expr.operator_name()
                            ),
                            "drop the selection".to_string(),
                        );
                        self.claim(path, ClaimKind::EqualsOperand);
                        ExprAbstract {
                            id,
                            card: f.card,
                            schema,
                            ranges: f.ranges,
                        }
                    }
                    Truth::False => {
                        self.unsatisfiable(expr, p, id, span, path);
                        ExprAbstract {
                            id,
                            card: CardInterval::empty(),
                            schema,
                            ranges: None,
                        }
                    }
                    Truth::Unknown => {
                        let refined = refine_ranges(p, schema.as_ref(), f.ranges);
                        if refined
                            .as_ref()
                            .is_some_and(|rs| rs.iter().any(ValueRange::is_empty))
                        {
                            // The conjunction's own bounds contradict each
                            // other (e.g. `x > 5 and x < 3`): no tuple of
                            // *any* operand can satisfy the predicate.
                            self.unsatisfiable(expr, p, id, span, path);
                            return ExprAbstract {
                                id,
                                card: CardInterval::empty(),
                                schema,
                                ranges: None,
                            };
                        }
                        ExprAbstract {
                            id,
                            card: CardInterval::at_most(f.card.hi),
                            schema,
                            ranges: refined,
                        }
                    }
                }
            }

            Expr::Delta(..) => {
                let f = self.operand(expr, 0, spans, path);
                // δ filters entries by the temporal predicate and remaps
                // valid times; tuple values are untouched, so the value
                // ranges carry over while the cardinality can only shrink.
                ExprAbstract {
                    id,
                    card: CardInterval::at_most(f.card.hi),
                    schema: f.schema,
                    ranges: f.ranges,
                }
            }

            Expr::Rollback(ident, spec) | Expr::HRollback(ident, spec) => {
                self.rollback(expr, ident, *spec, id, span, path)
            }
        }
    }

    fn unsatisfiable(
        &mut self,
        expr: &Expr,
        p: &Predicate,
        id: ExprId,
        span: Span,
        path: &[usize],
    ) {
        self.warn(
            WarnCode::UnsatisfiableSelect,
            span,
            format!(
                "`{}` predicate `{p}` is provably unsatisfiable: the selection provably yields ∅",
                expr.operator_name()
            ),
            "no tuple of the operand can pass this predicate".to_string(),
        );
        self.claim(path, ClaimKind::Empty);
        self.claimed_empty.insert(id);
    }

    fn rollback(
        &mut self,
        expr: &Expr,
        ident: &str,
        spec: TxSpec,
        id: ExprId,
        span: Span,
        path: &[usize],
    ) -> ExprAbstract {
        let Some(facts) = self.catalog.get(ident) else {
            // The checker already rejected this expression; stay silent.
            return ExprAbstract::unknown(id);
        };
        let op = expr.operator_name();
        if let TxSpec::At(n) = spec {
            if n > self.catalog.tx && facts.has_states() {
                self.warn(
                    WarnCode::RollbackPastClock,
                    span,
                    format!(
                        "`{op}({ident}, {})` names a transaction number beyond the clock (currently {}): it provably resolves to the current version",
                        n.0, self.catalog.tx.0
                    ),
                    format!("write `{op}({ident}, inf)` if the current state is intended"),
                );
                self.claim(path, ClaimKind::EqualsCurrentRollback);
            }
        }
        let resolved = self.catalog.resolve_tx(spec);
        match facts.find_state(resolved) {
            StaticState::NoStates => ExprAbstract::unknown(id),
            StaticState::EmptyWithForcedScheme(schema) => {
                self.warn(
                    WarnCode::RollbackBeforeFirstState,
                    span,
                    format!(
                        "`{op}({ident}, {})` rolls back to before the relation's first stored version: FINDSTATE provably yields ∅",
                        resolved.0
                    ),
                    format!(
                        "the first version of {ident:?} commits at transaction {}",
                        facts.versions.first().map_or(0, |(t, _)| t.0)
                    ),
                );
                self.claim(path, ClaimKind::Empty);
                self.claimed_empty.insert(id);
                ExprAbstract {
                    id,
                    card: CardInterval::empty(),
                    schema,
                    ranges: None,
                }
            }
            StaticState::Version(schema) => {
                let (card, ranges) = self
                    .stats
                    .get(ident)
                    .map(|rs| rs.find_stats(resolved))
                    .unwrap_or((CardInterval::unknown(), None));
                ExprAbstract {
                    id,
                    card,
                    schema,
                    ranges,
                }
            }
        }
    }
}

/// Exact per-attribute ranges of a constant state (`None` for ∅, whose
/// cardinality bound `[0, 0]` already says everything).
fn const_ranges(schema: &Schema, tuples: &[&txtime_snapshot::Tuple]) -> Option<Vec<ValueRange>> {
    if tuples.is_empty() {
        return None;
    }
    Some(
        (0..schema.arity())
            .map(|i| ValueRange::spanning(tuples.iter().map(|t| t.get(i))))
            .collect(),
    )
}

/// Position-wise range hull of two union-compatible operands.
fn join_ranges(
    a: Option<&Vec<ValueRange>>,
    b: Option<&Vec<ValueRange>>,
) -> Option<Vec<ValueRange>> {
    match (a, b) {
        (Some(a), Some(b)) if a.len() == b.len() => {
            Some(a.iter().zip(b).map(|(x, y)| x.join(y)).collect())
        }
        _ => None,
    }
}

/// What the predicate evaluates to over every tuple abstracted by
/// `ranges`: `True`/`False` only when provable for *all* such tuples.
fn pred_truth(p: &Predicate, schema: Option<&Schema>, ranges: Option<&Vec<ValueRange>>) -> Truth {
    match p {
        Predicate::True => Truth::True,
        Predicate::False => Truth::False,
        Predicate::Comp(l, op, r) => comp_truth(l, *op, r, schema, ranges),
        Predicate::And(a, b) => {
            match (pred_truth(a, schema, ranges), pred_truth(b, schema, ranges)) {
                (Truth::False, _) | (_, Truth::False) => Truth::False,
                (Truth::True, Truth::True) => Truth::True,
                _ => Truth::Unknown,
            }
        }
        Predicate::Or(a, b) => match (pred_truth(a, schema, ranges), pred_truth(b, schema, ranges))
        {
            (Truth::True, _) | (_, Truth::True) => Truth::True,
            (Truth::False, Truth::False) => Truth::False,
            _ => Truth::Unknown,
        },
        Predicate::Not(a) => match pred_truth(a, schema, ranges) {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        },
    }
}

/// The known range of an attribute, or the full range when nothing is
/// known about it.
fn attr_range(name: &str, schema: Option<&Schema>, ranges: Option<&Vec<ValueRange>>) -> ValueRange {
    schema
        .and_then(|s| s.index_of(name))
        .and_then(|i| ranges.and_then(|rs| rs.get(i).cloned()))
        .unwrap_or_else(ValueRange::full)
}

fn comp_truth(
    l: &Operand,
    op: CompOp,
    r: &Operand,
    schema: Option<&Schema>,
    ranges: Option<&Vec<ValueRange>>,
) -> Truth {
    match (l, r) {
        (Operand::Const(a), Operand::Const(b)) => known(op.apply(a, b)),
        (Operand::Attr(a), Operand::Const(c)) => {
            range_vs_const(&attr_range(a, schema, ranges), op, c)
        }
        (Operand::Const(c), Operand::Attr(a)) => {
            range_vs_const(&attr_range(a, schema, ranges), op.flip(), c)
        }
        (Operand::Attr(a), Operand::Attr(b)) => {
            if a == b {
                // The same attribute compared with itself folds without
                // any range information.
                return match op {
                    CompOp::Eq | CompOp::Le | CompOp::Ge => Truth::True,
                    CompOp::Ne | CompOp::Lt | CompOp::Gt => Truth::False,
                };
            }
            range_vs_range(
                &attr_range(a, schema, ranges),
                op,
                &attr_range(b, schema, ranges),
            )
        }
    }
}

fn known(b: bool) -> Truth {
    if b {
        Truth::True
    } else {
        Truth::False
    }
}

/// Decides a comparison from the over-approximated set of possible
/// orderings of its operands: `True` when every possible ordering
/// satisfies the operator, `False` when none does.
fn decide(op: CompOp, lt: bool, eq: bool, gt: bool) -> Truth {
    let satisfies = |o: CompOp, is_lt: bool, is_eq: bool| match o {
        CompOp::Lt => is_lt,
        CompOp::Le => is_lt || is_eq,
        CompOp::Gt => !is_lt && !is_eq,
        CompOp::Ge => !is_lt,
        CompOp::Eq => is_eq,
        CompOp::Ne => !is_eq,
    };
    let mut any_sat = false;
    let mut any_unsat = false;
    for (possible, is_lt, is_eq) in [(lt, true, false), (eq, false, true), (gt, false, false)] {
        if possible {
            if satisfies(op, is_lt, is_eq) {
                any_sat = true;
            } else {
                any_unsat = true;
            }
        }
    }
    match (any_sat, any_unsat) {
        (true, false) => Truth::True,
        (false, true) => Truth::False,
        _ => Truth::Unknown,
    }
}

fn range_vs_const(r: &ValueRange, op: CompOp, c: &Value) -> Truth {
    if r.is_empty() {
        return Truth::Unknown;
    }
    // Possible orderings of an attribute value v against c,
    // over-approximated (a flag may be true even if no v realizes it —
    // that can only weaken True/False to Unknown, never unsound).
    let lt = r.lo.as_ref().is_none_or(|b| b.value < *c);
    let gt = r.hi.as_ref().is_none_or(|b| b.value > *c);
    let eq = r.contains(c);
    decide(op, lt, eq, gt)
}

fn range_vs_range(a: &ValueRange, op: CompOp, b: &ValueRange) -> Truth {
    if a.is_empty() || b.is_empty() {
        return Truth::Unknown;
    }
    let lt = match (&a.lo, &b.hi) {
        (Some(x), Some(y)) => x.value < y.value,
        _ => true,
    };
    let gt = match (&a.hi, &b.lo) {
        (Some(x), Some(y)) => x.value > y.value,
        _ => true,
    };
    let eq = overlaps(a, b);
    decide(op, lt, eq, gt)
}

/// Whether two ranges can share a value.
fn overlaps(a: &ValueRange, b: &ValueRange) -> bool {
    let disjoint = |lo: &Option<Bound>, hi: &Option<Bound>| match (lo, hi) {
        (Some(l), Some(h)) => l.value > h.value || (l.value == h.value && (l.strict || h.strict)),
        _ => false,
    };
    !(disjoint(&a.lo, &b.hi) || disjoint(&b.lo, &a.hi))
}

/// The value ranges of the tuples *surviving* the selection: the operand
/// ranges tightened by every top-level conjunct of the form
/// `attr ⊙ const`. Sound because a surviving tuple satisfies every
/// conjunct; an empty refined range therefore proves the predicate
/// unsatisfiable.
fn refine_ranges(
    p: &Predicate,
    schema: Option<&Schema>,
    base: Option<Vec<ValueRange>>,
) -> Option<Vec<ValueRange>> {
    let schema = schema?;
    let mut rs = base.unwrap_or_else(|| vec![ValueRange::full(); schema.arity()]);
    refine_into(p, schema, &mut rs);
    Some(rs)
}

fn refine_into(p: &Predicate, schema: &Schema, rs: &mut [ValueRange]) {
    match p {
        Predicate::And(a, b) => {
            refine_into(a, schema, rs);
            refine_into(b, schema, rs);
        }
        Predicate::Comp(Operand::Attr(a), op, Operand::Const(c)) => {
            refine_comp(rs, schema, a, *op, c);
        }
        Predicate::Comp(Operand::Const(c), op, Operand::Attr(a)) => {
            refine_comp(rs, schema, a, op.flip(), c);
        }
        // Disjunctions, negations, attr-attr comparisons and the
        // constants refine nothing (sound: wider ranges only).
        _ => {}
    }
}

fn refine_comp(rs: &mut [ValueRange], schema: &Schema, attr: &str, op: CompOp, c: &Value) {
    let Some(i) = schema.index_of(attr) else {
        return;
    };
    match op {
        CompOp::Lt => rs[i].refine_hi(Bound::open(c.clone())),
        CompOp::Le => rs[i].refine_hi(Bound::closed(c.clone())),
        CompOp::Gt => rs[i].refine_lo(Bound::open(c.clone())),
        CompOp::Ge => rs[i].refine_lo(Bound::closed(c.clone())),
        CompOp::Eq => {
            rs[i].refine_lo(Bound::closed(c.clone()));
            rs[i].refine_hi(Bound::closed(c.clone()));
        }
        CompOp::Ne => {}
    }
}

/// One relation's flow state between its definition and deletion.
#[derive(Debug, Clone)]
struct GenState {
    keeps_history: bool,
    /// Whether any command has read the relation in this lifetime.
    ever_read: bool,
    /// Writes (`modify_state` command index + head span) not yet
    /// followed by a read.
    pending: Vec<(usize, Span)>,
}

/// A query displayed often enough that the engine's view memo registers
/// it (the memo's default threshold is a second display).
#[derive(Debug, Clone)]
struct RegisteredView {
    rendered: String,
    reads: Vec<String>,
}

/// The number of displays after which the engine's view memo registers a
/// query as an incrementally maintained view (mirrors
/// `Engine::set_memo_register_after`'s default).
pub const VIEW_REGISTER_AFTER: u32 = 2;

/// The stateful linter: a [`Checker`] plus the statistics catalog, the
/// hash-consed DAG, and the flow-sensitive command state.
///
/// Use [`lint_sentence`] for the whole-sentence case; construct a
/// `Linter` for incremental use (the REPL checks each command, executes
/// it, then [`Linter::commit`]s exactly the commands the engine ran).
#[derive(Debug, Default)]
pub struct Linter {
    checker: Checker,
    stats: StatsCatalog,
    interner: ExprInterner,
    displayed: HashMap<ExprId, u32>,
    views: Vec<RegisteredView>,
    gens: BTreeMap<String, GenState>,
    warnings: Vec<Warning>,
    /// Command indices of `modify_state`s proven dead (exported for the
    /// mutation-based soundness tests).
    dead_writes: Vec<usize>,
    cmd_index: usize,
}

impl Linter {
    /// A linter at the empty database — where every sentence starts.
    pub fn new() -> Linter {
        Linter::default()
    }

    /// The static database state accumulated so far.
    pub fn catalog(&self) -> &Catalog {
        self.checker.catalog()
    }

    /// The statistics accumulated so far.
    pub fn stats(&self) -> &StatsCatalog {
        &self.stats
    }

    /// Every warning issued so far, in emission order.
    pub fn warnings(&self) -> &[Warning] {
        &self.warnings
    }

    /// Command indices of writes proven dead so far.
    pub fn dead_writes(&self) -> &[usize] {
        &self.dead_writes
    }

    /// Checks one command against the current state without committing
    /// it (delegates to the [`Checker`]).
    pub fn check(&self, command: &Command, spans: Option<&CommandSpans>) -> Vec<Diagnostic> {
        self.checker.check(command, spans)
    }

    /// Lints a command and records its effect on the static state,
    /// returning the warnings this command surfaced. Call only for
    /// commands that checked clean and (will) actually execute —
    /// erroring commands are the no-ops the paper's total semantics
    /// makes them, and linting them would warn about nonsense.
    ///
    /// A returned warning may be anchored at an *earlier* command's span:
    /// a `delete_relation` is what proves an old write dead.
    pub fn commit(&mut self, command: &Command, spans: Option<&CommandSpans>) -> Vec<Warning> {
        let head = spans.map_or_else(Span::unknown, |s| s.head);
        let expr_spans = spans.and_then(|s| s.expr.as_ref());
        let before = self.warnings.len();

        // Expression-level abstract interpretation against the
        // pre-command state. Only a `display` root needs an id that
        // outlives the call (`displayed` counts it); every other command
        // is analysed in a scratch arena, so a long-lived linter does
        // not keep every constant it was ever sent.
        let mut scratch = ExprInterner::new();
        let interner = match command {
            Command::Display(_) => &mut self.interner,
            _ => &mut scratch,
        };
        let analysis = command
            .expr()
            .map(|e| analyze_expr(e, expr_spans, self.checker.catalog(), &self.stats, interner));
        if let Some(an) = &analysis {
            self.warnings.extend(an.warnings.iter().cloned());
            if matches!(command, Command::Display(_))
                && an.root.card.is_provably_empty()
                && !an.root_cause_warned
            {
                self.warnings.push(
                    Warning::new(
                        WarnCode::DeadDisplay,
                        expr_spans.map_or(head, |s| s.span),
                        "this `display` provably shows ∅".to_string(),
                    )
                    .with_help("the expression's cardinality bound is exactly zero"),
                );
            }
        }

        // Flow-sensitive half: a command's expression reads happen
        // before its own write commits, so process reads first.
        let mut reads: Vec<&str> = command.read_set();
        if let Command::EvolveScheme(ident, _) = command {
            // evolve_scheme derives the new version from the current
            // state: it reads what the last write produced.
            reads.push(ident);
        }
        for name in reads {
            if let Some(gen) = self.gens.get_mut(name) {
                gen.ever_read = true;
                gen.pending.clear();
            }
        }
        match command {
            Command::DefineRelation(ident, rtype) => {
                self.gens.insert(
                    ident.clone(),
                    GenState {
                        keeps_history: rtype.keeps_history(),
                        ever_read: false,
                        pending: Vec::new(),
                    },
                );
            }
            Command::ModifyState(ident, _) => {
                if let Some(gen) = self.gens.get_mut(ident) {
                    if !gen.keeps_history {
                        // A non-history relation keeps only its latest
                        // version: unread earlier writes are gone for good.
                        let overwritten = std::mem::take(&mut gen.pending);
                        for (idx, wspan) in overwritten {
                            self.warnings.push(
                                Warning::new(
                                    WarnCode::DeadWrite,
                                    wspan,
                                    format!(
                                        "the state this `modify_state` writes to {ident:?} is overwritten before any command reads it"
                                    ),
                                )
                                .with_help(
                                    "the relation's type keeps no history; this version is unobservable",
                                ),
                            );
                            self.dead_writes.push(idx);
                        }
                    }
                    gen.pending.push((self.cmd_index, head));
                }
            }
            Command::DeleteRelation(ident) => {
                if let Some(gen) = self.gens.remove(ident) {
                    if !gen.ever_read {
                        self.warnings.push(
                            Warning::new(
                                WarnCode::DeadRelation,
                                head,
                                format!(
                                    "relation {ident:?} is deleted without ever having been read: its whole lifetime is dead"
                                ),
                            )
                            .with_help("every state it held was provably unobservable"),
                        );
                        self.dead_writes.extend(gen.pending.iter().map(|(i, _)| *i));
                    } else {
                        for (idx, wspan) in gen.pending {
                            self.warnings.push(
                                Warning::new(
                                    WarnCode::DeadWrite,
                                    wspan,
                                    format!(
                                        "the state this `modify_state` writes to {ident:?} is deleted before any command reads it"
                                    ),
                                )
                                .with_help(
                                    "no read falls between this write and the relation's deletion",
                                ),
                            );
                            self.dead_writes.push(idx);
                        }
                    }
                }
            }
            Command::EvolveScheme(ident, _) => {
                for view in &self.views {
                    if view.reads.iter().any(|r| r == ident) {
                        self.warnings.push(
                            Warning::new(
                                WarnCode::StaleView,
                                head,
                                format!(
                                    "evolving the scheme of {ident:?} invalidates the registered view `{}`",
                                    view.rendered
                                ),
                            )
                            .with_help(
                                "the view memo must discard and rebuild the cached answer on its next display",
                            ),
                        );
                    }
                }
            }
            Command::Display(e) => {
                let id = analysis
                    .as_ref()
                    .expect("display has an expression")
                    .root
                    .id;
                let count = self.displayed.entry(id).or_insert(0);
                *count += 1;
                if *count == VIEW_REGISTER_AFTER {
                    let mut names: Vec<String> = Vec::new();
                    for (name, _) in &self.interner.node(id).reads {
                        if !names.contains(name) {
                            names.push(name.clone());
                        }
                    }
                    self.views.push(RegisteredView {
                        rendered: e.to_string(),
                        reads: names,
                    });
                }
            }
        }

        // Statistics bookkeeping (against the pre-commit catalog), then
        // the catalog commit itself.
        match command {
            Command::DefineRelation(ident, _) => self.stats.define(ident.clone()),
            Command::ModifyState(ident, _) => {
                let keeps = self
                    .catalog()
                    .get(ident)
                    .is_some_and(|f| f.rtype.keeps_history());
                let tx = self.catalog().tx.next();
                let root = &analysis
                    .as_ref()
                    .expect("modify_state has an expression")
                    .root;
                let (card, ranges) = (root.card, root.ranges.clone());
                if let Some(rs) = self.stats.get_mut(ident) {
                    rs.push_version(tx, card, ranges, keeps);
                }
            }
            Command::DeleteRelation(ident) => self.stats.undefine(ident),
            Command::EvolveScheme(ident, change) => {
                let keeps = self
                    .catalog()
                    .get(ident)
                    .is_some_and(|f| f.rtype.keeps_history());
                let schema = self
                    .catalog()
                    .get(ident)
                    .and_then(|f| f.current_schema())
                    .cloned();
                let tx = self.catalog().tx.next();
                let (card, ranges) = evolved_stats(
                    self.stats.get(ident).and_then(|rs| rs.current()),
                    schema.as_ref(),
                    change,
                );
                if let Some(rs) = self.stats.get_mut(ident) {
                    rs.push_version(tx, card, ranges, keeps);
                }
            }
            Command::Display(_) => {}
        }
        self.checker.commit(command);
        self.cmd_index += 1;
        self.warnings[before..].to_vec()
    }

    /// [`Linter::check`] then, when clean, [`Linter::commit`]. Returns
    /// `(diagnostics, warnings)` — at most one of the two is non-empty.
    pub fn check_and_commit(
        &mut self,
        command: &Command,
        spans: Option<&CommandSpans>,
    ) -> (Vec<Diagnostic>, Vec<Warning>) {
        let diags = self.check(command, spans);
        if diags.is_empty() {
            let warns = self.commit(command, spans);
            (diags, warns)
        } else {
            // An erroring command is a no-op, but it still occupies a
            // position in the sentence.
            self.cmd_index += 1;
            (diags, Vec::new())
        }
    }
}

/// The statistics of the version an `evolve_scheme` produces.
fn evolved_stats(
    current: Option<&crate::stats::VersionStats>,
    schema: Option<&Schema>,
    change: &txtime_core::SchemeChange,
) -> (CardInterval, Option<Vec<ValueRange>>) {
    use txtime_core::SchemeChange;
    let Some(v) = current else {
        return (CardInterval::unknown(), None);
    };
    match change {
        // Adding an attribute assigns every tuple the default value:
        // the cardinality is unchanged and the new column's range is
        // exact.
        SchemeChange::AddAttribute { default, .. } => {
            let ranges = match (&v.ranges, schema) {
                (Some(rs), _) => {
                    let mut rs = rs.clone();
                    rs.push(ValueRange::exact(default.clone()));
                    Some(rs)
                }
                (None, Some(s)) => {
                    let mut rs = vec![ValueRange::full(); s.arity()];
                    rs.push(ValueRange::exact(default.clone()));
                    Some(rs)
                }
                (None, None) => None,
            };
            (v.card, ranges)
        }
        // Dropping an attribute can merge tuples that agreed elsewhere:
        // a non-empty state stays non-empty, and nothing can grow.
        SchemeChange::DropAttribute(name) => {
            let card = CardInterval {
                lo: v.card.lo.min(1),
                hi: v.card.hi,
            };
            let ranges = match (&v.ranges, schema.and_then(|s| s.index_of(name))) {
                (Some(rs), Some(i)) => {
                    let mut rs = rs.clone();
                    rs.remove(i);
                    Some(rs)
                }
                _ => None,
            };
            (card, ranges)
        }
        // Renaming changes no tuple and no position.
        SchemeChange::RenameAttribute { .. } => (v.card, v.ranges.clone()),
    }
}

/// The result of linting a whole sentence.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// The checker's errors, in source order (a command that errors is
    /// not linted).
    pub diagnostics: Vec<Diagnostic>,
    /// The lint warnings, sorted by source position.
    pub warnings: Vec<Warning>,
    /// The statically maintained statistics at the end of the sentence.
    pub stats: StatsCatalog,
    /// Command indices of `modify_state`s proven dead.
    pub dead_writes: Vec<usize>,
}

/// Checks and lints a whole sentence from the empty database.
pub fn lint_sentence(sentence: &Sentence, spans: Option<&SentenceSpans>) -> LintReport {
    Linter::new().lint_sentence(sentence, spans)
}

impl Linter {
    /// Checks and lints a whole sentence from the state this linter has
    /// reached (the empty database for [`Linter::new`]; a state already
    /// committed to, such as a journal's commands, otherwise). The report
    /// holds the warnings the sentence's commands surfaced, and command
    /// indices count every command the linter has seen.
    pub fn lint_sentence(
        mut self,
        sentence: &Sentence,
        spans: Option<&SentenceSpans>,
    ) -> LintReport {
        let before = self.warnings.len();
        let mut diagnostics = Vec::new();
        for (i, command) in sentence.commands().iter().enumerate() {
            let cspans = spans.and_then(|s| s.commands.get(i));
            let (diags, _) = self.check_and_commit(command, cspans);
            diagnostics.extend(diags);
        }
        let Linter {
            stats,
            warnings: mut seen,
            dead_writes,
            ..
        } = self;
        let mut warnings = seen.split_off(before);
        warnings.sort_by_key(|w| (w.span.line, w.span.col));
        LintReport {
            diagnostics,
            warnings,
            stats,
            dead_writes,
        }
    }
}

/// Resolves a [`Claim`]'s operand path against the expression it was
/// made about.
pub fn claim_target<'e>(expr: &'e Expr, claim: &Claim) -> &'e Expr {
    let mut cur = expr;
    for &i in &claim.path {
        cur = cur.operands()[i];
    }
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_core::{Command, RelationType, Sentence, TransactionNumber};
    use txtime_snapshot::{DomainType, SnapshotState};

    fn emp_state(rows: &[(&str, i64)]) -> SnapshotState {
        SnapshotState::from_rows(
            Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap(),
            rows.iter()
                .map(|(n, s)| vec![Value::str(*n), Value::Int(*s)])
                .collect::<Vec<_>>(),
        )
        .unwrap()
    }

    fn lint(commands: Vec<Command>) -> LintReport {
        lint_sentence(&Sentence::new(commands).unwrap(), None)
    }

    fn codes(report: &LintReport) -> Vec<WarnCode> {
        report.warnings.iter().map(|w| w.code).collect()
    }

    #[test]
    fn clean_sentence_produces_no_warnings() {
        let report = lint(vec![
            Command::define_relation("emp", RelationType::Rollback),
            Command::modify_state("emp", Expr::snapshot_const(emp_state(&[("a", 10)]))),
            Command::display(Expr::current("emp")),
        ]);
        assert!(report.diagnostics.is_empty());
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
        assert!(report.dead_writes.is_empty());
    }

    #[test]
    fn unsatisfiable_and_tautological_selects() {
        let base = Expr::snapshot_const(emp_state(&[("a", 10), ("b", 20)]));
        let report = lint(vec![
            Command::display(
                base.clone().select(
                    Predicate::gt_const("sal", Value::Int(5))
                        .and(Predicate::lt_const("sal", Value::Int(3))),
                ),
            ),
            Command::display(base.select(Predicate::gt_const("sal", Value::Int(0)))),
        ]);
        let cs = codes(&report);
        assert!(cs.contains(&WarnCode::UnsatisfiableSelect), "{cs:?}");
        assert!(cs.contains(&WarnCode::TautologicalSelect), "{cs:?}");
        // W008 is suppressed: W001 already explains the empty display.
        assert!(!cs.contains(&WarnCode::DeadDisplay), "{cs:?}");
    }

    #[test]
    fn self_difference_and_empty_operands() {
        let base = Expr::snapshot_const(emp_state(&[("a", 10)]));
        let dept_empty = SnapshotState::from_rows(
            Schema::new(vec![("dept", DomainType::Int)]).unwrap(),
            Vec::new(),
        )
        .unwrap();
        let report = lint(vec![
            Command::display(base.clone().difference(base.clone()).union(base.clone())),
            Command::display(
                base.clone()
                    .difference(Expr::snapshot_const(emp_state(&[]))),
            ),
            Command::display(base.product(Expr::snapshot_const(dept_empty))),
        ]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        let cs = codes(&report);
        assert!(cs.contains(&WarnCode::SelfDifference), "{cs:?}");
        // `(E−E) ∪ E` (empty union operand), `E − ∅` (redundant
        // subtraction), and `E × ∅` (empty product operand) each fire W003.
        assert_eq!(
            cs.iter().filter(|c| **c == WarnCode::EmptyOperand).count(),
            3,
            "{cs:?}"
        );
        // The empty product claims ∅ at its own root, so the generic
        // W008 stays silent.
        assert!(!cs.contains(&WarnCode::DeadDisplay), "{cs:?}");
    }

    #[test]
    fn rollback_range_warnings() {
        let report = lint(vec![
            Command::define_relation("r", RelationType::Rollback),
            Command::modify_state("r", Expr::snapshot_const(emp_state(&[("a", 1)]))),
            // First version commits at tx 2; tx 1 is the forced-∅ boundary.
            Command::display(Expr::rollback("r", TxSpec::At(TransactionNumber(1)))),
            // The clock is at 2; tx 99 resolves to the current version.
            Command::display(Expr::rollback("r", TxSpec::At(TransactionNumber(99)))),
            // Emptiness derived (not claimed) at the root: W008 fires.
            Command::display(
                Expr::rollback("r", TxSpec::At(TransactionNumber(1)))
                    .project(vec!["name".to_string()]),
            ),
        ]);
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        let cs = codes(&report);
        assert!(cs.contains(&WarnCode::RollbackBeforeFirstState), "{cs:?}");
        assert!(cs.contains(&WarnCode::RollbackPastClock), "{cs:?}");
        assert!(cs.contains(&WarnCode::DeadDisplay), "{cs:?}");
    }

    #[test]
    fn dead_write_and_dead_relation() {
        let report = lint(vec![
            // Overwritten before any read (snapshot keeps no history).
            Command::define_relation("s", RelationType::Snapshot),
            Command::modify_state("s", Expr::snapshot_const(emp_state(&[("a", 1)]))),
            Command::modify_state("s", Expr::snapshot_const(emp_state(&[("b", 2)]))),
            Command::display(Expr::current("s")),
            // Whole lifetime dead.
            Command::define_relation("tmp", RelationType::Rollback),
            Command::modify_state("tmp", Expr::snapshot_const(emp_state(&[("c", 3)]))),
            Command::delete_relation("tmp"),
        ]);
        let cs = codes(&report);
        assert!(cs.contains(&WarnCode::DeadWrite), "{cs:?}");
        assert!(cs.contains(&WarnCode::DeadRelation), "{cs:?}");
        assert_eq!(report.dead_writes, vec![1, 5]);
    }

    #[test]
    fn read_keeps_writes_alive() {
        let report = lint(vec![
            Command::define_relation("r", RelationType::Rollback),
            Command::modify_state("r", Expr::snapshot_const(emp_state(&[("a", 1)]))),
            Command::display(Expr::current("r")),
            Command::delete_relation("r"),
        ]);
        assert!(codes(&report).is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn stale_view_on_evolve() {
        let q = Expr::current("r").select(Predicate::gt_const("sal", Value::Int(5)));
        let report = lint(vec![
            Command::define_relation("r", RelationType::Rollback),
            Command::modify_state("r", Expr::snapshot_const(emp_state(&[("a", 10)]))),
            Command::display(q.clone()),
            Command::display(q), // second display: the memo registers it
            Command::evolve_scheme(
                "r",
                txtime_core::SchemeChange::RenameAttribute {
                    from: "name".into(),
                    to: "who".into(),
                },
            ),
        ]);
        assert!(codes(&report).contains(&WarnCode::StaleView));
    }

    #[test]
    fn claims_resolve_to_nodes() {
        let base = Expr::snapshot_const(emp_state(&[("a", 10)]));
        let expr = base
            .clone()
            .union(base.clone().difference(base.clone()))
            .select(Predicate::gt_const("sal", Value::Int(0)));
        let mut interner = ExprInterner::new();
        let analysis = analyze_expr(
            &expr,
            None,
            &Catalog::new(),
            &StatsCatalog::new(),
            &mut interner,
        );
        let empty: Vec<_> = analysis
            .claims
            .iter()
            .filter(|c| c.kind == ClaimKind::Empty)
            .collect();
        assert_eq!(empty.len(), 1);
        assert!(matches!(
            claim_target(&expr, empty[0]),
            Expr::Difference(..)
        ));
    }

    #[test]
    fn stats_track_modify_and_evolve() {
        let mut linter = Linter::new();
        for cmd in [
            Command::define_relation("r", RelationType::Rollback),
            Command::modify_state("r", Expr::snapshot_const(emp_state(&[("a", 1), ("b", 2)]))),
            Command::evolve_scheme(
                "r",
                txtime_core::SchemeChange::AddAttribute {
                    name: "dept".into(),
                    domain: DomainType::Int,
                    default: Value::Int(7),
                },
            ),
        ] {
            let (diags, _) = linter.check_and_commit(&cmd, None);
            assert!(diags.is_empty(), "{diags:?}");
        }
        let rs = linter.stats().get("r").unwrap();
        assert_eq!(rs.versions.len(), 2);
        assert_eq!(rs.versions[0].card, CardInterval::exact(2));
        assert_eq!(rs.versions[1].card, CardInterval::exact(2));
        let ranges = rs.versions[1].ranges.as_ref().unwrap();
        assert_eq!(ranges.len(), 3);
        assert_eq!(ranges[2], ValueRange::exact(Value::Int(7)));
    }

    /// A write's expression is analysed and dropped: after a thousand
    /// `modify_state`s with distinct constants the arena holds no more
    /// nodes than after the first.
    #[test]
    fn committed_writes_do_not_grow_the_arena() {
        let mut linter = Linter::new();
        linter.commit(
            &Command::define_relation("emp", RelationType::Rollback),
            None,
        );
        let write = |i: i64| {
            let row = Expr::snapshot_const(emp_state(&[("a", i)]));
            Command::modify_state("emp", Expr::current("emp").union(row))
        };
        linter.commit(&write(0), None);
        let after_first = linter.interner.len();
        for i in 1..1_000 {
            linter.commit(&write(i), None);
        }
        assert!(
            linter.interner.len() <= after_first,
            "{} nodes after 1000 writes, {after_first} after the first",
            linter.interner.len()
        );
    }

    #[test]
    fn bounds_cover_every_subexpression() {
        let base = Expr::snapshot_const(emp_state(&[("a", 10)]));
        let expr = base
            .clone()
            .union(base)
            .select(Predicate::gt_const("sal", Value::Int(0)));
        let mut interner = ExprInterner::new();
        let analysis = analyze_expr(
            &expr,
            None,
            &Catalog::new(),
            &StatsCatalog::new(),
            &mut interner,
        );
        // const, union, select — the shared const interns once.
        assert_eq!(analysis.bounds.len(), 3);
        assert!(analysis
            .bounds
            .iter()
            .any(|(id, _)| *id == analysis.root.id));
    }
}
