//! Cost-based plan search over the hash-consed `ExprId` DAG.
//!
//! A memoized, cascades-lite enumerator: every subexpression is interned
//! into an [`ExprInterner`] group, each group enumerates the alternative
//! shapes reachable through the paper-sanctioned laws (§2's claim that
//! "commutativity of select, distributivity of select over join" survive
//! the transaction-time extension — each rule below is a verified law in
//! [`crate::laws`]), and the cheapest shape under
//! [`estimate_cost`](crate::cost::estimate_cost) wins. The headline
//! rewrite is product ordering: splitting a selection's conjuncts across
//! a product chain turns `σ_F(A × B × C)` into a chain of *filtered*
//! products whose intermediates are a fraction of the unfiltered
//! cross-product, with the fractions read off the statistics catalog's
//! value ranges ([`CostModel::predicate_selectivity`]).
//!
//! # Equivalence convention (stricter than `rules::optimize`)
//!
//! Unlike [`crate::optimize`], which is partially correct (it may turn an
//! erroring expression into a succeeding one), every alternative this
//! searcher enumerates is *observationally identical* to the original:
//! same value when the original succeeds, an error exactly when the
//! original errors. That is the contract `Engine::eval` needs, and it is
//! why each rule carries a guard:
//!
//! - `select-fusion`, `select-through-union`, `select-through-difference`
//!   (and the hatted mirrors) need no guard — both sides evaluate the
//!   same operands and compile the same predicates.
//! - `select-true-elim` / `hselect-true-elim` are guarded on the operand
//!   kind: `σ_true(ρ̂(…))` must keep erroring after the rewrite.
//! - `select-through-product` (and `σ̂` over `×̂`) demands *exact* operand
//!   schemas from the catalog, so a conjunct moved under the product
//!   compiles against the same attribute/domain environment it saw above.
//!   The engine's catalog only contains schema-stable relations, which
//!   makes every catalog answer exact.
//! - `select-below-project` is guarded on `attrs(F) ⊆ X` (syntactic):
//!   then σ's compile outcome is unchanged and π's own failures are
//!   reproduced by the π that remains on top.
//! - `project-cascade` is guarded on `X ⊆ Y` plus an exact schema for
//!   the inner projection (so the dropped π_Y could not have failed);
//!   `project-identity-elim` on an exact full-scheme match in order.
//! - `product-rotate` (×/×̂ associativity) needs no guard: both
//!   association orders concatenate the same schemes in the same column
//!   order and fail disjointness on exactly the same attribute overlap.
//! - `delta-identity-elim` is guarded on the operand being historical.
//!
//! Rules from `rules.rs` that *cannot* be guarded statically —
//! `select-false-to-empty` and the `∅`-elimination pair, which erase a
//! subexpression whose evaluation might error at runtime — are excluded,
//! exactly as they are from the `pushdown` pass.

use std::collections::HashMap;
use std::fmt;

use txtime_analyze::schema_infer::{infer_schema, SchemaCatalog};
use txtime_core::{Expr, JoinPhysical, JoinSpec};
use txtime_historical::{TemporalExpr, TemporalPred};
use txtime_snapshot::{CompOp, Operand, Predicate};

use crate::cost::{estimate_cost, estimate_rows, CostModel};
use crate::interner::{ExprId, ExprInterner};
use crate::pushdown::{is_historical_kind, is_snapshot_kind};
use crate::rules::{conjuncts, subset, RewriteTrace};
use txtime_snapshot::Schema;

/// Work counters for one search (or, summed, for an engine's lifetime).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Distinct plan shapes costed.
    pub plans_enumerated: u64,
    /// Expression groups (interned subexpressions) memoized.
    pub groups_memoized: u64,
    /// Rewrite rule applications that produced a new candidate.
    pub rewrites_fired: u64,
}

impl SearchStats {
    /// Accumulates another search's counters into this one.
    pub fn absorb(&mut self, other: &SearchStats) {
        self.plans_enumerated += other.plans_enumerated;
        self.groups_memoized += other.groups_memoized;
        self.rewrites_fired += other.rewrites_fired;
    }
}

/// The chosen plan plus everything `explain` wants to show about it.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// The cheapest observationally-equivalent plan found.
    pub plan: Expr,
    /// Its estimated cost ([`estimate_cost`]).
    pub cost: f64,
    /// Its estimated output cardinality.
    pub rows: f64,
    /// The original expression's estimated cost, for the explain diff.
    pub original_cost: f64,
    /// Rules that fired while enumerating, in application order.
    pub trace: RewriteTrace,
    /// Search work counters.
    pub stats: SearchStats,
}

/// Bound on the alternatives enumerated per group: a termination
/// backstop for pathological rule interplay (the per-group `seen` set
/// already deduplicates via interning, so real queries stay far below).
const MAX_CANDIDATES_PER_GROUP: usize = 32;

/// Searches for the cheapest plan observationally equivalent to `expr`.
///
/// `catalog` must answer with *exact* current schemas (the engine feeds
/// only schema-stable relations); `model` supplies cardinalities and
/// attribute value ranges for selectivity.
pub fn search(expr: &Expr, catalog: &SchemaCatalog, model: &CostModel) -> PlanReport {
    let mut searcher = Searcher {
        catalog,
        model,
        interner: ExprInterner::new(),
        best: HashMap::new(),
        stats: SearchStats::default(),
        trace: RewriteTrace::default(),
    };
    let plan = searcher.best_plan(expr);
    PlanReport {
        cost: estimate_cost(&plan, model),
        rows: estimate_rows(&plan, model),
        original_cost: estimate_cost(expr, model),
        plan,
        trace: searcher.trace,
        stats: searcher.stats,
    }
}

struct Searcher<'a> {
    catalog: &'a SchemaCatalog,
    model: &'a CostModel,
    interner: ExprInterner,
    /// Group representative → its best plan and cost. Every candidate
    /// enumerated for a group is keyed here too (same equivalence
    /// class), so re-encountering any shape of the group is a hit.
    best: HashMap<ExprId, (Expr, f64)>,
    stats: SearchStats,
    trace: RewriteTrace,
}

impl Searcher<'_> {
    /// The cheapest known plan for `expr`'s equivalence group.
    ///
    /// Terminates because every alternative's children are strictly
    /// smaller (by node count) than the candidate that produced them,
    /// and the per-group frontier is capped.
    fn best_plan(&mut self, expr: &Expr) -> Expr {
        let id = self.interner.intern(expr);
        if let Some((plan, _)) = self.best.get(&id) {
            return plan.clone();
        }
        self.stats.groups_memoized += 1;

        // Seed with the original shape over optimized children.
        let seeded = self.with_best_children(expr);
        let mut best = estimate_cost(&seeded, self.model);
        let mut best_plan = seeded.clone();
        self.stats.plans_enumerated += 1;

        let mut seen = vec![self.interner.intern(&seeded)];
        let mut frontier = vec![seeded];
        while let Some(candidate) = frontier.pop() {
            if seen.len() >= MAX_CANDIDATES_PER_GROUP {
                break;
            }
            for (rule, alt) in root_alternatives(&candidate, self.catalog) {
                // A new root shape exposes new child shapes (e.g. the σ
                // halves of a distributed union): optimize those too.
                let alt = self.with_best_children(&alt);
                let alt_id = self.interner.intern(&alt);
                if seen.contains(&alt_id) {
                    continue;
                }
                seen.push(alt_id);
                self.stats.rewrites_fired += 1;
                self.stats.plans_enumerated += 1;
                self.trace.applied.push(rule);
                let cost = estimate_cost(&alt, self.model);
                if cost < best {
                    best = cost;
                    best_plan = alt.clone();
                }
                frontier.push(alt);
            }
        }

        // Every shape seen belongs to the same group: key them all so
        // any later encounter (from a different query corner) hits.
        self.best.insert(id, (best_plan.clone(), best));
        for shape in seen {
            self.best
                .entry(shape)
                .or_insert_with(|| (best_plan.clone(), best));
        }
        best_plan
    }

    /// `expr` with each direct child replaced by its group's best plan.
    fn with_best_children(&mut self, expr: &Expr) -> Expr {
        match expr {
            Expr::SnapshotConst(_)
            | Expr::HistoricalConst(_)
            | Expr::Rollback(..)
            | Expr::HRollback(..) => expr.clone(),
            Expr::Union(a, b) => self.best_plan(a).union(self.best_plan(b)),
            Expr::Difference(a, b) => self.best_plan(a).difference(self.best_plan(b)),
            Expr::Product(a, b) => self.best_plan(a).product(self.best_plan(b)),
            Expr::Project(x, e) => self.best_plan(e).project(x.clone()),
            Expr::Select(p, e) => self.best_plan(e).select(p.clone()),
            Expr::HUnion(a, b) => self.best_plan(a).hunion(self.best_plan(b)),
            Expr::HDifference(a, b) => self.best_plan(a).hdifference(self.best_plan(b)),
            Expr::HProduct(a, b) => self.best_plan(a).hproduct(self.best_plan(b)),
            Expr::HProject(x, e) => self.best_plan(e).hproject(x.clone()),
            Expr::HSelect(p, e) => self.best_plan(e).hselect(p.clone()),
            Expr::Delta(g, v, e) => self.best_plan(e).delta(g.clone(), v.clone()),
            Expr::Join(spec, a, b) => self.best_plan(a).join(spec.clone(), self.best_plan(b)),
            Expr::HJoin(spec, a, b) => self.best_plan(a).hjoin(spec.clone(), self.best_plan(b)),
        }
    }
}

/// The observationally-equivalent single-step rewrites of `expr`'s root.
fn root_alternatives(expr: &Expr, catalog: &SchemaCatalog) -> Vec<(&'static str, Expr)> {
    let mut out = Vec::new();
    match expr {
        Expr::Select(p, e) => {
            if *p == Predicate::True && is_snapshot_kind(e) {
                out.push(("select-true-elim", (**e).clone()));
            }
            match &**e {
                Expr::Select(q, inner) => out.push((
                    "select-fusion",
                    Expr::Select(q.clone().and(p.clone()), inner.clone()),
                )),
                Expr::Union(a, b) => out.push(("select-through-union", sel(p, a).union(sel(p, b)))),
                Expr::Difference(a, b) => {
                    out.push(("select-through-difference", sel(p, a).difference(sel(p, b))))
                }
                Expr::Project(x, inner) => {
                    let names: Vec<String> = p.attributes().iter().map(|a| a.to_string()).collect();
                    if subset(&names, x) {
                        out.push((
                            "select-below-project",
                            Expr::Select(p.clone(), inner.clone()).project(x.clone()),
                        ));
                    }
                }
                Expr::Product(a, b) => {
                    if let Some(alt) = split_over_product(p, a, b, catalog, false) {
                        out.push(("select-through-product", alt));
                    }
                    for (rule, alt) in lower_to_join(p, a, b, catalog, false) {
                        out.push((rule, alt));
                    }
                }
                _ => {}
            }
        }
        Expr::HSelect(p, e) => {
            if *p == Predicate::True && is_historical_kind(e) {
                out.push(("hselect-true-elim", (**e).clone()));
            }
            match &**e {
                Expr::HSelect(q, inner) => out.push((
                    "hselect-fusion",
                    Expr::HSelect(q.clone().and(p.clone()), inner.clone()),
                )),
                Expr::HUnion(a, b) => {
                    out.push(("hselect-through-hunion", hsel(p, a).hunion(hsel(p, b))))
                }
                Expr::HDifference(a, b) => out.push((
                    "hselect-through-hdifference",
                    hsel(p, a).hdifference(hsel(p, b)),
                )),
                Expr::HProduct(a, b) => {
                    if let Some(alt) = split_over_product(p, a, b, catalog, true) {
                        out.push(("hselect-through-hproduct", alt));
                    }
                    for (rule, alt) in lower_to_join(p, a, b, catalog, true) {
                        out.push((rule, alt));
                    }
                }
                _ => {}
            }
        }
        Expr::Project(x, e) => {
            if let Expr::Project(y, inner) = &**e {
                // The inner π must be exactly checkable so dropping it
                // cannot erase one of its own failure modes.
                if subset(x, y) && infer_schema(e, catalog).is_some() {
                    out.push(("project-cascade", inner.clone().project(x.clone())));
                }
            }
            if is_snapshot_kind(e) && projects_full_scheme(x, e, catalog) {
                out.push(("project-identity-elim", (**e).clone()));
            }
        }
        Expr::HProject(x, e) => {
            if let Expr::HProject(y, inner) = &**e {
                if subset(x, y) && infer_schema(e, catalog).is_some() {
                    out.push(("hproject-cascade", inner.clone().hproject(x.clone())));
                }
            }
            // π̂ over the full scheme in order merges nothing: identity.
            if is_historical_kind(e) && projects_full_scheme(x, e, catalog) {
                out.push(("hproject-identity-elim", (**e).clone()));
            }
        }
        Expr::Product(a, b) => {
            if let Expr::Product(a1, a2) = &**a {
                out.push((
                    "product-right-rotate",
                    (**a1)
                        .clone()
                        .product((**a2).clone().product((**b).clone())),
                ));
            }
            if let Expr::Product(b1, b2) = &**b {
                out.push((
                    "product-left-rotate",
                    (**a)
                        .clone()
                        .product((**b1).clone())
                        .product((**b2).clone()),
                ));
            }
        }
        Expr::HProduct(a, b) => {
            if let Expr::HProduct(a1, a2) = &**a {
                out.push((
                    "hproduct-right-rotate",
                    (**a1)
                        .clone()
                        .hproduct((**a2).clone().hproduct((**b).clone())),
                ));
            }
            if let Expr::HProduct(b1, b2) = &**b {
                out.push((
                    "hproduct-left-rotate",
                    (**a)
                        .clone()
                        .hproduct((**b1).clone())
                        .hproduct((**b2).clone()),
                ));
            }
        }
        Expr::Delta(g, v, e)
            if *g == TemporalPred::True
                && *v == TemporalExpr::ValidTime
                && is_historical_kind(e) =>
        {
            out.push(("delta-identity-elim", (**e).clone()));
        }
        _ => {}
    }
    out
}

fn sel(p: &Predicate, e: &Expr) -> Expr {
    e.clone().select(p.clone())
}

fn hsel(p: &Predicate, e: &Expr) -> Expr {
    e.clone().hselect(p.clone())
}

/// Whether `x` names the operand's full scheme, in order (exact catalog
/// schema required).
fn projects_full_scheme(x: &[String], e: &Expr, catalog: &SchemaCatalog) -> bool {
    infer_schema(e, catalog).is_some_and(|schema| {
        schema.arity() == x.len()
            && schema
                .attributes()
                .iter()
                .zip(x)
                .all(|(a, b)| &*a.name == b.as_str())
    })
}

/// Splits `p`'s conjuncts across `a × b` (or `a ×̂ b`) by scheme
/// coverage. Requires exact schemas for both operands; returns `None`
/// when no conjunct can move.
fn split_over_product(
    p: &Predicate,
    a: &Expr,
    b: &Expr,
    catalog: &SchemaCatalog,
    historical: bool,
) -> Option<Expr> {
    let sa = infer_schema(a, catalog)?;
    let sb = infer_schema(b, catalog)?;
    let mut left: Option<Predicate> = None;
    let mut right: Option<Predicate> = None;
    let mut rest: Option<Predicate> = None;
    let mut pushed = false;
    for conj in conjuncts(p) {
        let attrs = conj.attributes();
        let target = if attrs.iter().all(|n| sa.contains(n)) {
            pushed = true;
            &mut left
        } else if attrs.iter().all(|n| sb.contains(n)) {
            pushed = true;
            &mut right
        } else {
            &mut rest
        };
        *target = Some(match target.take() {
            Some(acc) => acc.and(conj.clone()),
            None => conj.clone(),
        });
    }
    if !pushed {
        return None;
    }
    let wrap = |f: Option<Predicate>, e: &Expr| match f {
        Some(f) if historical => e.clone().hselect(f),
        Some(f) => e.clone().select(f),
        None => e.clone(),
    };
    let product = if historical {
        wrap(left, a).hproduct(wrap(right, b))
    } else {
        wrap(left, a).product(wrap(right, b))
    };
    Some(match (rest, historical) {
        (Some(f), true) => product.hselect(f),
        (Some(f), false) => product.select(f),
        (None, _) => product,
    })
}

/// A conjunct of the shape `l.a = r.b` with one attribute in each
/// operand's scheme, normalized to `(left attr, right attr)`.
fn equi_key(conj: &Predicate, sa: &Schema, sb: &Schema) -> Option<(String, String)> {
    let Predicate::Comp(Operand::Attr(x), CompOp::Eq, Operand::Attr(y)) = conj else {
        return None;
    };
    if sa.contains(x.as_ref()) && sb.contains(y.as_ref()) {
        return Some((x.to_string(), y.to_string()));
    }
    if sa.contains(y.as_ref()) && sb.contains(x.as_ref()) {
        return Some((y.to_string(), x.to_string()));
    }
    None
}

/// Whether `expr` holds a σ directly over a × (or σ̂ over ×̂), the only
/// shape [`lower_joins`] rewrites: a read without one needs no catalog.
pub fn has_select_over_product(expr: &Expr) -> bool {
    match expr {
        Expr::Select(_, e) if matches!(**e, Expr::Product(..)) => true,
        Expr::HSelect(_, e) if matches!(**e, Expr::HProduct(..)) => true,
        _ => expr.operands().into_iter().any(has_select_over_product),
    }
}

/// Optimize level 1's rewrite beside pushdown: every `σ_F(A × B)`
/// (`σ̂_F(A ×̂ B)`) that [`lower_to_join`] can lower becomes the physical
/// equi-join, bottom-up. Level 1 has no cost model to consult, so it
/// takes the merge kernel where the single key leads both runs and the
/// hash kernel otherwise. `None` when nothing lowers.
pub fn lower_joins(expr: &Expr, catalog: &SchemaCatalog) -> Option<Expr> {
    let low = |e: &Expr| lower_joins(e, catalog);
    let both = |a: &Expr, b: &Expr| match (low(a), low(b)) {
        (None, None) => None,
        (x, y) => Some((
            x.unwrap_or_else(|| a.clone()),
            y.unwrap_or_else(|| b.clone()),
        )),
    };
    let rebuilt = match expr {
        Expr::SnapshotConst(_)
        | Expr::HistoricalConst(_)
        | Expr::Rollback(..)
        | Expr::HRollback(..) => None,
        Expr::Union(a, b) => both(a, b).map(|(a, b)| a.union(b)),
        Expr::Difference(a, b) => both(a, b).map(|(a, b)| a.difference(b)),
        Expr::Product(a, b) => both(a, b).map(|(a, b)| a.product(b)),
        Expr::Project(x, e) => low(e).map(|e| e.project(x.clone())),
        Expr::Select(p, e) => low(e).map(|e| e.select(p.clone())),
        Expr::HUnion(a, b) => both(a, b).map(|(a, b)| a.hunion(b)),
        Expr::HDifference(a, b) => both(a, b).map(|(a, b)| a.hdifference(b)),
        Expr::HProduct(a, b) => both(a, b).map(|(a, b)| a.hproduct(b)),
        Expr::HProject(x, e) => low(e).map(|e| e.hproject(x.clone())),
        Expr::HSelect(p, e) => low(e).map(|e| e.hselect(p.clone())),
        Expr::Delta(g, v, e) => low(e).map(|e| e.delta(g.clone(), v.clone())),
        Expr::Join(spec, a, b) => both(a, b).map(|(a, b)| a.join(spec.clone(), b)),
        Expr::HJoin(spec, a, b) => both(a, b).map(|(a, b)| a.hjoin(spec.clone(), b)),
    };
    let lowered = match rebuilt.as_ref().unwrap_or(expr) {
        Expr::Select(p, e) => match &**e {
            Expr::Product(a, b) => lower_to_join(p, a, b, catalog, false).pop(),
            _ => None,
        },
        Expr::HSelect(p, e) => match &**e {
            Expr::HProduct(a, b) => lower_to_join(p, a, b, catalog, true).pop(),
            _ => None,
        },
        _ => None,
    };
    lowered.map(|(_, join)| join).or(rebuilt)
}

/// Lowers `σ_F(A × B)` (or the hatted form) to physical equi-join
/// candidates: cross-operand `=` conjuncts become the key list,
/// single-side conjuncts push onto their operand, and the rest rides as
/// the join's residual. The same exact-schema guard as
/// [`split_over_product`] keeps the rewrite observationally equivalent
/// (the kernels are *defined* as `σ_spec(×)` — `laws.rs` pins this),
/// and two more keep it so where the σ(×) form fails: both operands
/// must be of the operator's state kind (the kind error names the
/// operator), and `F` must compile against the product's scheme (the
/// kernel compiles its keys before its residual, and a pushed conjunct
/// compiles against its own operand before the clash check). Emits a
/// hash join always and additionally a merge join when the single key
/// is the first schema attribute on both sides (the only shape whose
/// runs are already key-sorted).
fn lower_to_join(
    p: &Predicate,
    a: &Expr,
    b: &Expr,
    catalog: &SchemaCatalog,
    historical: bool,
) -> Vec<(&'static str, Expr)> {
    let of_kind = if historical {
        is_historical_kind
    } else {
        is_snapshot_kind
    };
    if !(of_kind(a) && of_kind(b)) {
        return Vec::new();
    }
    let (Some(sa), Some(sb)) = (infer_schema(a, catalog), infer_schema(b, catalog)) else {
        return Vec::new();
    };
    if sa.product(&sb).and_then(|s| p.validate(&s)).is_err() {
        return Vec::new();
    }
    let mut keys: Vec<(String, String)> = Vec::new();
    let mut left: Option<Predicate> = None;
    let mut right: Option<Predicate> = None;
    let mut residual: Option<Predicate> = None;
    for conj in conjuncts(p) {
        if let Some(key) = equi_key(conj, &sa, &sb) {
            keys.push(key);
            continue;
        }
        let attrs = conj.attributes();
        let target = if attrs.iter().all(|n| sa.contains(n)) {
            &mut left
        } else if attrs.iter().all(|n| sb.contains(n)) {
            &mut right
        } else {
            &mut residual
        };
        *target = Some(match target.take() {
            Some(acc) => acc.and(conj.clone()),
            None => conj.clone(),
        });
    }
    if keys.is_empty() {
        return Vec::new();
    }
    let wrap = |f: Option<Predicate>, e: &Expr| match f {
        Some(f) if historical => e.clone().hselect(f),
        Some(f) => e.clone().select(f),
        None => e.clone(),
    };
    let (la, rb) = (wrap(left, a), wrap(right, b));
    let residual = residual.unwrap_or(Predicate::True);
    let join_with = |physical: JoinPhysical| {
        let spec = JoinSpec {
            keys: keys.clone(),
            residual: residual.clone(),
            physical,
        };
        if historical {
            la.clone().hjoin(spec, rb.clone())
        } else {
            la.clone().join(spec, rb.clone())
        }
    };
    let mut out = vec![(
        if historical {
            "hselect-to-hash-join"
        } else {
            "select-to-hash-join"
        },
        join_with(JoinPhysical::Hash),
    )];
    if keys.len() == 1 && sa.index_of(&keys[0].0) == Some(0) && sb.index_of(&keys[0].1) == Some(0) {
        out.push((
            if historical {
                "hselect-to-merge-join"
            } else {
                "select-to-merge-join"
            },
            join_with(JoinPhysical::Merge),
        ));
    }
    out
}

// ---------------------------------------------------------------------
// Explain rendering
// ---------------------------------------------------------------------

/// One node's label in an explain tree: operator + arguments, without
/// recursing into operand expressions.
fn node_label(expr: &Expr) -> String {
    match expr {
        Expr::SnapshotConst(s) => format!("const[{} rows]", s.len()),
        Expr::HistoricalConst(h) => format!("hconst[{} entries]", h.len()),
        Expr::Rollback(i, n) => format!("rho({i}, {n})"),
        Expr::HRollback(i, n) => format!("hrho({i}, {n})"),
        Expr::Union(..) => "union".to_string(),
        Expr::Difference(..) => "minus".to_string(),
        Expr::Product(..) => "times".to_string(),
        Expr::Project(x, _) => format!("project[{}]", x.join(", ")),
        Expr::Select(p, _) => format!("select[{p}]"),
        Expr::HUnion(..) => "hunion".to_string(),
        Expr::HDifference(..) => "hminus".to_string(),
        Expr::HProduct(..) => "htimes".to_string(),
        Expr::HProject(x, _) => format!("hproject[{}]", x.join(", ")),
        Expr::HSelect(p, _) => format!("hselect[{p}]"),
        Expr::Delta(g, v, _) => format!("delta[{g}; {v}]"),
        Expr::Join(spec, ..) | Expr::HJoin(spec, ..) => {
            let name = if matches!(expr, Expr::Join(..)) {
                "join"
            } else {
                "hjoin"
            };
            match spec.physical {
                JoinPhysical::Hash => format!("{name}[{spec}; build=right, probe=left]"),
                JoinPhysical::Merge => format!("{name}[{spec}; merge both runs]"),
            }
        }
    }
}

/// Renders a plan as an indented tree, one node per line, with the cost
/// model's per-node row and cumulative cost estimates.
pub fn render_plan(expr: &Expr, model: &CostModel) -> String {
    let mut out = String::new();
    render_node(expr, model, 1, &mut out);
    out
}

fn render_node(expr: &Expr, model: &CostModel, depth: usize, out: &mut String) {
    use std::fmt::Write as _;
    let _ = writeln!(
        out,
        "{:indent$}{}  (rows≈{:.1}, cost≈{:.1})",
        "",
        node_label(expr),
        estimate_rows(expr, model),
        estimate_cost(expr, model),
        indent = depth * 2,
    );
    for child in expr.operands() {
        render_node(child, model, depth + 1, out);
    }
}

/// The full `txtime explain` / REPL `\plan` block: chosen plan tree,
/// cost summary, and the deduplicated rewrite trace.
pub fn render_explain(
    level: u8,
    original: &Expr,
    report: &PlanReport,
    model: &CostModel,
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "plan (optimize level {level}):");
    out.push_str(&render_plan(&report.plan, model));
    let _ = writeln!(
        out,
        "estimated rows: {:.1}, cost: {:.1} (original cost: {:.1})",
        report.rows, report.cost, report.original_cost,
    );
    if report.plan == *original {
        let _ = writeln!(out, "rewrites: none (original plan kept)");
    } else {
        let _ = writeln!(out, "rewrites: {}", summarize_trace(&report.trace));
    }
    out
}

/// Collapses a trace to `rule ×count` form, first-firing order.
pub fn summarize_trace(trace: &RewriteTrace) -> String {
    if trace.applied.is_empty() {
        return "none".to_string();
    }
    let mut order: Vec<&'static str> = Vec::new();
    let mut counts: HashMap<&'static str, usize> = HashMap::new();
    for rule in &trace.applied {
        if !counts.contains_key(rule) {
            order.push(rule);
        }
        *counts.entry(rule).or_insert(0) += 1;
    }
    order
        .iter()
        .map(|rule| {
            let n = counts[rule];
            if n > 1 {
                format!("{rule} ×{n}")
            } else {
                (*rule).to_string()
            }
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// Lifetime optimizer counters for one engine, shown by `txtime stats`
/// alongside the `MemoStats` block in the same style.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizerStats {
    /// The engine's current optimization level (0/1/2).
    pub level: u8,
    /// Plan searches run (level 2 only; cache misses).
    pub searches: u64,
    /// Searches answered from the per-generation plan cache.
    pub plan_cache_hits: u64,
    /// Summed search work counters.
    pub totals: SearchStats,
}

impl fmt::Display for OptimizerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "optim: level {}, {} search(es) / {} plan-cache hit(s)",
            self.level, self.searches, self.plan_cache_hits,
        )?;
        writeln!(
            f,
            "       {} plan(s) enumerated, {} group(s) memoized, {} rewrite(s) fired",
            self.totals.plans_enumerated, self.totals.groups_memoized, self.totals.rewrites_fired,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_snapshot::{DomainType, Schema, Value};

    fn catalog() -> SchemaCatalog {
        let mut c = SchemaCatalog::new();
        c.insert(
            "emp",
            Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap(),
        );
        c.insert(
            "dept",
            Schema::new(vec![("dname", DomainType::Str), ("dno", DomainType::Int)]).unwrap(),
        );
        c.insert(
            "loc",
            Schema::new(vec![("city", DomainType::Str), ("lno", DomainType::Int)]).unwrap(),
        );
        c
    }

    fn model() -> CostModel {
        let mut m = CostModel::new();
        m.set_cardinality("emp", 1000.0);
        m.set_cardinality("dept", 50.0);
        m.set_cardinality("loc", 20.0);
        m
    }

    fn selective() -> Predicate {
        Predicate::gt_const("sal", Value::Int(90))
            .and(Predicate::lt_const("dno", Value::Int(3)))
            .and(Predicate::lt_const("lno", Value::Int(2)))
    }

    #[test]
    fn product_chain_becomes_filtered_join() {
        let original = Expr::current("emp")
            .product(Expr::current("dept"))
            .product(Expr::current("loc"))
            .select(selective());
        let report = search(&original, &catalog(), &model());
        assert!(report.cost < report.original_cost / 2.0, "{report:?}");
        assert!(report.trace.applied.contains(&"select-through-product"));
        // No bare select over a product survives: every conjunct sits on
        // its own leaf.
        fn no_sigma_over_product(e: &Expr) -> bool {
            if let Expr::Select(_, inner) = e {
                if matches!(**inner, Expr::Product(..)) {
                    return false;
                }
            }
            e.operands().iter().all(|c| no_sigma_over_product(c))
        }
        assert!(no_sigma_over_product(&report.plan), "{}", report.plan);
    }

    #[test]
    fn equi_select_over_product_lowers_to_hash_join() {
        let original = Expr::current("emp")
            .product(Expr::current("dept"))
            .select(Predicate::eq_attrs("sal", "dno"));
        let report = search(&original, &catalog(), &model());
        assert!(
            report.trace.applied.contains(&"select-to-hash-join"),
            "{:?}",
            report.trace.applied
        );
        assert!(matches!(report.plan, Expr::Join(..)), "{}", report.plan);
        assert!(report.cost < report.original_cost, "{report:?}");
        // The searched join plan is a fixpoint too.
        let second = search(&report.plan, &catalog(), &model());
        assert_eq!(report.plan, second.plan);
    }

    #[test]
    fn lowering_emits_merge_only_on_prefix_keys() {
        let cat = catalog();
        let (a, b) = (Expr::current("emp"), Expr::current("dept"));
        // name/dname are column 0 on both sides: hash + merge candidates.
        let alts = lower_to_join(&Predicate::eq_attrs("name", "dname"), &a, &b, &cat, false);
        let rules: Vec<_> = alts.iter().map(|(r, _)| *r).collect();
        assert_eq!(rules, vec!["select-to-hash-join", "select-to-merge-join"]);
        // sal/dno are column 1: the merge kernel cannot ride the runs.
        let alts = lower_to_join(&Predicate::eq_attrs("sal", "dno"), &a, &b, &cat, false);
        let rules: Vec<_> = alts.iter().map(|(r, _)| *r).collect();
        assert_eq!(rules, vec!["select-to-hash-join"]);
        // No cross-operand equality: nothing to lower.
        let alts = lower_to_join(
            &Predicate::gt_const("sal", Value::Int(5)),
            &a,
            &b,
            &cat,
            false,
        );
        assert!(alts.is_empty());
    }

    #[test]
    fn level_one_lowering_picks_one_kernel_and_declines_where_the_forms_could_fail_apart() {
        let cat = catalog();
        let (emp, dept) = (Expr::current("emp"), Expr::current("dept"));
        let lowered = |e: &Expr| lower_joins(e, &cat);
        // Fires bottom-up under other operators; merge where the key
        // leads both runs, hash otherwise.
        let on = |p: Predicate| emp.clone().product(dept.clone()).select(p);
        let q = on(Predicate::eq_attrs("name", "dname")).project(vec!["sal".into()]);
        assert!(has_select_over_product(&q));
        let Some(Expr::Project(_, join)) = lowered(&q) else {
            panic!("π(σ(×)) did not lower");
        };
        assert!(matches!(&*join, Expr::Join(s, ..) if s.physical == JoinPhysical::Merge));
        let hashed = lowered(&on(Predicate::eq_attrs("sal", "dno"))).unwrap();
        assert!(matches!(&hashed, Expr::Join(s, ..) if s.physical == JoinPhysical::Hash));
        let hatted = Expr::hcurrent("emp")
            .hproduct(Expr::hcurrent("dept"))
            .hselect(Predicate::eq_attrs("sal", "dno"));
        assert!(matches!(lowered(&hatted), Some(Expr::HJoin(..))));
        // Declines: nothing to lower, no cross-operand `=`, an unknown
        // (or unstable) relation, operands of the other kind, a scheme
        // clash, and a predicate that does not fit the product's scheme.
        assert!(!has_select_over_product(&emp));
        assert_eq!(lowered(&emp), None);
        assert_eq!(
            lowered(&on(Predicate::gt_const("sal", Value::Int(1)))),
            None
        );
        let ghost = Expr::current("ghost").product(dept.clone());
        assert_eq!(
            lowered(&ghost.select(Predicate::eq_attrs("sal", "dno"))),
            None
        );
        let temporal = Expr::hcurrent("emp")
            .product(Expr::hcurrent("dept"))
            .select(Predicate::eq_attrs("sal", "dno"));
        assert_eq!(lowered(&temporal), None);
        let twin = emp
            .clone()
            .hproduct(dept.clone())
            .hselect(Predicate::eq_attrs("sal", "dno"));
        assert_eq!(lowered(&twin), None);
        let clash = emp
            .clone()
            .product(emp.clone())
            .select(Predicate::eq_attrs("sal", "sal"));
        assert_eq!(lowered(&clash), None);
        assert_eq!(lowered(&on(Predicate::eq_attrs("name", "dno"))), None);
        let unknown =
            Predicate::eq_attrs("sal", "dno").and(Predicate::gt_const("x", Value::Int(0)));
        assert_eq!(lowered(&on(unknown)), None);
    }

    #[test]
    fn lowering_pushes_single_side_conjuncts_below_the_join() {
        let cat = catalog();
        let (a, b) = (Expr::current("emp"), Expr::current("dept"));
        let p = Predicate::eq_attrs("sal", "dno").and(Predicate::gt_const("sal", Value::Int(5)));
        let alts = lower_to_join(&p, &a, &b, &cat, false);
        let Expr::Join(spec, left, _) = &alts[0].1 else {
            panic!("expected a join, got {}", alts[0].1);
        };
        assert_eq!(spec.keys, vec![("sal".to_string(), "dno".to_string())]);
        assert_eq!(spec.residual, Predicate::True);
        assert!(matches!(**left, Expr::Select(..)), "{left}");
    }

    #[test]
    fn search_is_idempotent_on_its_own_output() {
        let original = Expr::current("emp")
            .product(Expr::current("dept"))
            .select(selective());
        let first = search(&original, &catalog(), &model());
        let second = search(&first.plan, &catalog(), &model());
        assert_eq!(first.plan, second.plan);
        assert_eq!(first.cost, second.cost);
    }

    #[test]
    fn unguarded_shapes_are_left_alone() {
        // σ_true over a historical operand errors; the searcher must
        // keep the erroring shape.
        let e = Expr::Select(Predicate::True, Box::new(Expr::hcurrent("h")));
        let report = search(&e, &catalog(), &model());
        assert_eq!(report.plan, e);
        // Unknown schemas: the product split cannot fire.
        let unknown = Expr::current("ghost")
            .product(Expr::current("spirit"))
            .select(Predicate::gt_const("x", Value::Int(0)));
        let report = search(&unknown, &catalog(), &model());
        assert!(!report.trace.applied.contains(&"select-through-product"));
    }

    #[test]
    fn memoized_groups_are_shared_across_the_dag() {
        // The same subexpression twice: one group, searched once.
        let sub = Expr::current("emp").select(Predicate::gt_const("sal", Value::Int(5)));
        let e = sub.clone().union(sub);
        let report = search(&e, &catalog(), &model());
        // Groups: ρ(emp), σ(ρ), ∪ — the duplicate σ(ρ) is a hit.
        assert!(report.stats.groups_memoized <= 3, "{:?}", report.stats);
    }

    #[test]
    fn explain_renders_tree_costs_and_trace() {
        let original = Expr::current("emp")
            .product(Expr::current("dept"))
            .select(selective());
        let model = model();
        let report = search(&original, &catalog(), &model);
        let text = render_explain(2, &original, &report, &model);
        assert!(text.contains("plan (optimize level 2):"), "{text}");
        assert!(text.contains("rho(emp, inf)"), "{text}");
        assert!(text.contains("rows≈"), "{text}");
        assert!(text.contains("select-through-product"), "{text}");
        // An already-optimal plan reports no rewrites.
        let leaf = Expr::current("emp");
        let r = search(&leaf, &catalog(), &model);
        let text = render_explain(2, &leaf, &r, &model);
        assert!(text.contains("rewrites: none"), "{text}");
    }

    #[test]
    fn optimizer_stats_display_matches_house_style() {
        let s = OptimizerStats {
            level: 2,
            searches: 3,
            plan_cache_hits: 4,
            totals: SearchStats {
                plans_enumerated: 10,
                groups_memoized: 7,
                rewrites_fired: 5,
            },
        };
        let text = s.to_string();
        assert!(text.starts_with("optim: level 2, 3 search(es)"), "{text}");
        assert!(text.contains("10 plan(s) enumerated"), "{text}");
    }
}
