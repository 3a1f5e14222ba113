//! The rewrite rules and the fixpoint driver.

use txtime_analyze::schema_infer::{infer_schema, SchemaCatalog};
use txtime_core::Expr;
use txtime_snapshot::{Predicate, SnapshotState};

/// A record of which rules fired, in order.
#[derive(Debug, Clone, Default)]
pub struct RewriteTrace {
    /// Rule names in application order.
    pub applied: Vec<&'static str>,
}

/// Optimizes an expression to a fixpoint of the rule set.
pub fn optimize(expr: &Expr, catalog: &SchemaCatalog) -> Expr {
    optimize_with_trace(expr, catalog).0
}

/// Optimizes, also reporting which rules fired.
pub fn optimize_with_trace(expr: &Expr, catalog: &SchemaCatalog) -> (Expr, RewriteTrace) {
    let mut trace = RewriteTrace::default();
    let mut current = expr.clone();
    // Each pass rewrites bottom-up; iterate until nothing changes, with a
    // generous bound as a termination backstop.
    for _ in 0..32 {
        let next = rewrite_bottom_up(&current, catalog, &mut trace);
        if next == current {
            break;
        }
        current = next;
    }
    (current, trace)
}

fn rewrite_bottom_up(expr: &Expr, catalog: &SchemaCatalog, trace: &mut RewriteTrace) -> Expr {
    // First rewrite children…
    let expr = match expr {
        Expr::Union(a, b) => Expr::Union(
            Box::new(rewrite_bottom_up(a, catalog, trace)),
            Box::new(rewrite_bottom_up(b, catalog, trace)),
        ),
        Expr::Difference(a, b) => Expr::Difference(
            Box::new(rewrite_bottom_up(a, catalog, trace)),
            Box::new(rewrite_bottom_up(b, catalog, trace)),
        ),
        Expr::Product(a, b) => Expr::Product(
            Box::new(rewrite_bottom_up(a, catalog, trace)),
            Box::new(rewrite_bottom_up(b, catalog, trace)),
        ),
        Expr::Project(attrs, e) => Expr::Project(
            attrs.clone(),
            Box::new(rewrite_bottom_up(e, catalog, trace)),
        ),
        Expr::Select(p, e) => Expr::Select(
            simplify_predicate(p, trace),
            Box::new(rewrite_bottom_up(e, catalog, trace)),
        ),
        Expr::HUnion(a, b) => Expr::HUnion(
            Box::new(rewrite_bottom_up(a, catalog, trace)),
            Box::new(rewrite_bottom_up(b, catalog, trace)),
        ),
        Expr::HDifference(a, b) => Expr::HDifference(
            Box::new(rewrite_bottom_up(a, catalog, trace)),
            Box::new(rewrite_bottom_up(b, catalog, trace)),
        ),
        Expr::HProduct(a, b) => Expr::HProduct(
            Box::new(rewrite_bottom_up(a, catalog, trace)),
            Box::new(rewrite_bottom_up(b, catalog, trace)),
        ),
        Expr::HProject(attrs, e) => Expr::HProject(
            attrs.clone(),
            Box::new(rewrite_bottom_up(e, catalog, trace)),
        ),
        Expr::HSelect(p, e) => Expr::HSelect(
            simplify_predicate(p, trace),
            Box::new(rewrite_bottom_up(e, catalog, trace)),
        ),
        Expr::Delta(g, v, e) => Expr::Delta(
            g.clone(),
            v.clone(),
            Box::new(rewrite_bottom_up(e, catalog, trace)),
        ),
        leaf => leaf.clone(),
    };
    // …then this node.
    rewrite_node(expr, catalog, trace)
}

fn rewrite_node(expr: Expr, catalog: &SchemaCatalog, trace: &mut RewriteTrace) -> Expr {
    match expr {
        // ---- σ rules -------------------------------------------------
        Expr::Select(p, e) => rewrite_select(p, *e, catalog, trace),
        Expr::HSelect(p, e) => match p {
            Predicate::True => {
                trace.applied.push("hselect-true-elim");
                *e
            }
            p => match *e {
                Expr::HSelect(q, inner) => {
                    trace.applied.push("hselect-fusion");
                    Expr::HSelect(q.and(p), inner)
                }
                other => Expr::HSelect(p, Box::new(other)),
            },
        },

        // ---- π rules -------------------------------------------------
        Expr::Project(attrs, e) => match *e {
            // π_X(π_Y(E)) → π_X(E)  (X ⊆ Y whenever the original is valid)
            Expr::Project(inner_attrs, inner) if subset(&attrs, &inner_attrs) => {
                trace.applied.push("project-cascade");
                Expr::Project(attrs, inner)
            }
            other => {
                // π over the full scheme in order is the identity.
                if let Some(schema) = infer_schema(&other, catalog) {
                    let full: Vec<&str> = schema.attributes().iter().map(|a| &*a.name).collect();
                    if full.len() == attrs.len()
                        && full.iter().zip(&attrs).all(|(a, b)| *a == b.as_str())
                    {
                        trace.applied.push("project-identity-elim");
                        return other;
                    }
                }
                Expr::Project(attrs, Box::new(other))
            }
        },
        Expr::HProject(attrs, e) => match *e {
            Expr::HProject(inner_attrs, inner) if subset(&attrs, &inner_attrs) => {
                trace.applied.push("hproject-cascade");
                Expr::HProject(attrs, inner)
            }
            other => Expr::HProject(attrs, Box::new(other)),
        },

        // ---- ∪/− with ∅ ----------------------------------------------
        Expr::Union(a, b) => {
            if is_empty_const_with_schema(&b, &a, catalog) {
                trace.applied.push("union-empty-elim");
                return *a;
            }
            if is_empty_const_with_schema(&a, &b, catalog) {
                trace.applied.push("union-empty-elim");
                return *b;
            }
            Expr::Union(a, b)
        }
        Expr::Difference(a, b) => {
            if is_empty_const_with_schema(&b, &a, catalog) {
                trace.applied.push("difference-empty-elim");
                return *a;
            }
            Expr::Difference(a, b)
        }

        // ---- δ identity ----------------------------------------------
        Expr::Delta(g, v, e) => {
            use txtime_historical::{TemporalExpr, TemporalPred};
            if g == TemporalPred::True && v == TemporalExpr::ValidTime {
                trace.applied.push("delta-identity-elim");
                *e
            } else {
                Expr::Delta(g, v, e)
            }
        }

        other => other,
    }
}

fn rewrite_select(
    p: Predicate,
    e: Expr,
    catalog: &SchemaCatalog,
    trace: &mut RewriteTrace,
) -> Expr {
    // σ_true(E) → E
    if p == Predicate::True {
        trace.applied.push("select-true-elim");
        return e;
    }
    // σ_false(E) → ∅ when the scheme is statically known.
    if p == Predicate::False {
        if let Some(schema) = infer_schema(&e, catalog) {
            trace.applied.push("select-false-to-empty");
            return Expr::snapshot_const(SnapshotState::empty(schema));
        }
    }
    match e {
        // σ_F1(σ_F2(E)) → σ_{F2 ∧ F1}(E)
        Expr::Select(q, inner) => {
            trace.applied.push("select-fusion");
            Expr::Select(q.and(p), inner)
        }
        // σ_F(π_X(E)) → π_X(σ_F(E)) — push the cheap filter below the
        // (deduplicating) projection. Sound because validity of the
        // original implies attrs(F) ⊆ X.
        Expr::Project(attrs, inner) => {
            trace.applied.push("select-below-project");
            Expr::Project(attrs, Box::new(Expr::Select(p, inner)))
        }
        // σ_F(A ∪ B) → σ_F(A) ∪ σ_F(B)
        Expr::Union(a, b) => {
            trace.applied.push("select-through-union");
            Expr::Union(
                Box::new(Expr::Select(p.clone(), a)),
                Box::new(Expr::Select(p, b)),
            )
        }
        // σ_F(A − B) → σ_F(A) − σ_F(B)
        Expr::Difference(a, b) => {
            trace.applied.push("select-through-difference");
            Expr::Difference(
                Box::new(Expr::Select(p.clone(), a)),
                Box::new(Expr::Select(p, b)),
            )
        }
        // σ_F(A × B): split conjuncts and push each to the side whose
        // scheme covers it — "distributivity of select over join".
        Expr::Product(a, b) => {
            let (sa, sb) = (infer_schema(&a, catalog), infer_schema(&b, catalog));
            if let (Some(sa), Some(sb)) = (sa, sb) {
                let mut left: Option<Predicate> = None;
                let mut right: Option<Predicate> = None;
                let mut rest: Option<Predicate> = None;
                let mut pushed = false;
                for conj in conjuncts(&p) {
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
                if pushed {
                    trace.applied.push("select-through-product");
                    let new_a = match left {
                        Some(f) => Box::new(Expr::Select(f, a)),
                        None => a,
                    };
                    let new_b = match right {
                        Some(f) => Box::new(Expr::Select(f, b)),
                        None => b,
                    };
                    let product = Expr::Product(new_a, new_b);
                    return match rest {
                        Some(f) => Expr::Select(f, Box::new(product)),
                        None => product,
                    };
                }
            }
            Expr::Select(p, Box::new(Expr::Product(a, b)))
        }
        other => Expr::Select(p, Box::new(other)),
    }
}

/// Flattens the top-level conjunction of a predicate.
pub(crate) fn conjuncts(p: &Predicate) -> Vec<&Predicate> {
    match p {
        Predicate::And(a, b) => {
            let mut out = conjuncts(a);
            out.extend(conjuncts(b));
            out
        }
        other => vec![other],
    }
}

pub(crate) fn subset(xs: &[String], ys: &[String]) -> bool {
    xs.iter().all(|x| ys.contains(x))
}

fn is_empty_const_with_schema(candidate: &Expr, other: &Expr, catalog: &SchemaCatalog) -> bool {
    match candidate {
        Expr::SnapshotConst(s) if s.is_empty() => {
            infer_schema(other, catalog).is_some_and(|sch| &sch == s.schema())
        }
        _ => false,
    }
}

/// Constant-folds and simplifies a predicate.
pub fn simplify_predicate(p: &Predicate, trace: &mut RewriteTrace) -> Predicate {
    use txtime_snapshot::Operand;
    match p {
        Predicate::True | Predicate::False => p.clone(),
        Predicate::Comp(Operand::Const(l), op, Operand::Const(r)) if l.domain() == r.domain() => {
            trace.applied.push("predicate-constant-fold");
            if op.apply(l, r) {
                Predicate::True
            } else {
                Predicate::False
            }
        }
        Predicate::Comp(..) => p.clone(),
        Predicate::And(a, b) => {
            let (a, b) = (simplify_predicate(a, trace), simplify_predicate(b, trace));
            match (&a, &b) {
                (Predicate::True, _) => {
                    trace.applied.push("and-true-elim");
                    b
                }
                (_, Predicate::True) => {
                    trace.applied.push("and-true-elim");
                    a
                }
                (Predicate::False, _) | (_, Predicate::False) => {
                    trace.applied.push("and-false-collapse");
                    Predicate::False
                }
                _ => a.and(b),
            }
        }
        Predicate::Or(a, b) => {
            let (a, b) = (simplify_predicate(a, trace), simplify_predicate(b, trace));
            match (&a, &b) {
                (Predicate::False, _) => {
                    trace.applied.push("or-false-elim");
                    b
                }
                (_, Predicate::False) => {
                    trace.applied.push("or-false-elim");
                    a
                }
                (Predicate::True, _) | (_, Predicate::True) => {
                    trace.applied.push("or-true-collapse");
                    Predicate::True
                }
                _ => a.or(b),
            }
        }
        Predicate::Not(a) => {
            let a = simplify_predicate(a, trace);
            match a {
                Predicate::True => {
                    trace.applied.push("not-constant-fold");
                    Predicate::False
                }
                Predicate::False => {
                    trace.applied.push("not-constant-fold");
                    Predicate::True
                }
                Predicate::Not(inner) => {
                    trace.applied.push("double-negation-elim");
                    *inner
                }
                Predicate::Comp(l, op, r) => {
                    trace.applied.push("negated-comparison-fold");
                    Predicate::Comp(l, op.negate(), r)
                }
                other => other.not(),
            }
        }
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
            Schema::new(vec![("dname", DomainType::Str), ("bldg", DomainType::Str)]).unwrap(),
        );
        c
    }

    #[test]
    fn select_fusion_fires() {
        let e = Expr::current("emp")
            .select(Predicate::gt_const("sal", Value::Int(10)))
            .select(Predicate::lt_const("sal", Value::Int(90)));
        let (o, trace) = optimize_with_trace(&e, &catalog());
        assert!(trace.applied.contains(&"select-fusion"));
        assert!(matches!(o, Expr::Select(Predicate::And(..), _)));
    }

    #[test]
    fn select_true_eliminated() {
        let e = Expr::current("emp").select(Predicate::True);
        assert_eq!(optimize(&e, &catalog()), Expr::current("emp"));
    }

    #[test]
    fn select_false_becomes_empty_constant() {
        let e = Expr::current("emp").select(Predicate::False);
        match optimize(&e, &catalog()) {
            Expr::SnapshotConst(s) => {
                assert!(s.is_empty());
                assert!(s.schema().contains("sal"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_false_kept_without_schema() {
        // Unknown relation: no scheme, no rewrite.
        let e = Expr::current("ghost").select(Predicate::False);
        assert_eq!(optimize(&e, &catalog()), e);
    }

    #[test]
    fn select_pushes_through_product() {
        let e = Expr::current("emp").product(Expr::current("dept")).select(
            Predicate::gt_const("sal", Value::Int(10))
                .and(Predicate::eq_const("bldg", Value::str("sitterson"))),
        );
        let (o, trace) = optimize_with_trace(&e, &catalog());
        assert!(trace.applied.contains(&"select-through-product"));
        // Both conjuncts pushed; top node is the product itself.
        match o {
            Expr::Product(a, b) => {
                assert!(matches!(*a, Expr::Select(..)));
                assert!(matches!(*b, Expr::Select(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mixed_conjunct_stays_above_product() {
        let e = Expr::current("emp")
            .product(Expr::current("dept"))
            .select(Predicate::eq_attrs("name", "dname"));
        let o = optimize(&e, &catalog());
        // The cross-operand comparison cannot be pushed.
        assert!(matches!(o, Expr::Select(..)));
    }

    #[test]
    fn project_cascade_collapses() {
        // The inner projection reorders (so it is not an identity and
        // survives on its own); the cascade still collapses the pair.
        let e = Expr::current("emp")
            .project(vec!["sal".into(), "name".into()])
            .project(vec!["name".into()]);
        let (o, trace) = optimize_with_trace(&e, &catalog());
        assert!(trace.applied.contains(&"project-cascade"));
        assert_eq!(o, Expr::current("emp").project(vec!["name".into()]));

        // An identity inner projection is removed by its own rule; the
        // final plan is identical.
        let e2 = Expr::current("emp")
            .project(vec!["name".into(), "sal".into()])
            .project(vec!["name".into()]);
        assert_eq!(
            optimize(&e2, &catalog()),
            Expr::current("emp").project(vec!["name".into()])
        );
    }

    #[test]
    fn identity_projection_eliminated() {
        let e = Expr::current("emp").project(vec!["name".into(), "sal".into()]);
        let o = optimize(&e, &catalog());
        assert_eq!(o, Expr::current("emp"));
    }

    #[test]
    fn reordering_projection_is_kept() {
        let e = Expr::current("emp").project(vec!["sal".into(), "name".into()]);
        assert_eq!(optimize(&e, &catalog()), e);
    }

    #[test]
    fn union_with_empty_constant_eliminated() {
        let schema = catalog().get("emp").unwrap().clone();
        let e = Expr::current("emp").union(Expr::snapshot_const(SnapshotState::empty(schema)));
        assert_eq!(optimize(&e, &catalog()), Expr::current("emp"));
    }

    #[test]
    fn predicate_constant_folding() {
        let mut trace = RewriteTrace::default();
        let p = Predicate::Comp(
            txtime_snapshot::Operand::Const(Value::Int(1)),
            txtime_snapshot::CompOp::Lt,
            txtime_snapshot::Operand::Const(Value::Int(2)),
        );
        assert_eq!(simplify_predicate(&p, &mut trace), Predicate::True);
        let q = Predicate::gt_const("sal", Value::Int(1)).and(Predicate::False);
        assert_eq!(simplify_predicate(&q, &mut trace), Predicate::False);
        let r = Predicate::gt_const("sal", Value::Int(1)).not().not();
        assert_eq!(
            simplify_predicate(&r, &mut trace),
            Predicate::gt_const("sal", Value::Int(1))
        );
    }

    #[test]
    fn negated_comparison_folds_into_opposite() {
        let mut trace = RewriteTrace::default();
        let p = Predicate::gt_const("sal", Value::Int(1)).not();
        assert_eq!(
            simplify_predicate(&p, &mut trace),
            Predicate::Comp(
                txtime_snapshot::Operand::attr("sal"),
                txtime_snapshot::CompOp::Le,
                txtime_snapshot::Operand::Const(Value::Int(1))
            )
        );
    }

    #[test]
    fn delta_identity_eliminated() {
        use txtime_historical::{TemporalExpr, TemporalPred};
        let e = Expr::hcurrent("hist").delta(TemporalPred::True, TemporalExpr::ValidTime);
        assert_eq!(optimize(&e, &catalog()), Expr::hcurrent("hist"));
    }

    #[test]
    fn optimization_terminates_on_pathological_nesting() {
        let mut e = Expr::current("emp");
        for i in 0..40 {
            e = e.select(Predicate::gt_const("sal", Value::Int(i)));
        }
        let o = optimize(&e, &catalog());
        // All 40 selects fused into one.
        assert!(matches!(o, Expr::Select(..)));
        assert_eq!(o.node_count(), 2);
    }
}
