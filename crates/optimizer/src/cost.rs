//! A cardinality-based cost model.
//!
//! The model is deliberately simple — System-R-style selectivity
//! constants over estimated cardinalities — because its job is to *rank*
//! plans for experiment E7 and to show that the classical cost reasoning
//! applies unchanged once ρ/ρ̂ are treated as base-relation leaves.
//!
//! PR 8 grows it in two directions, both fed by the lint pass's
//! statistics substrate (`txtime-analyze`):
//!
//! - **value-range selectivity** — per-attribute [`ValueRange`]s turn a
//!   comparison like `sal > 95` into a linear-interpolated fraction of
//!   the attribute's observed `[lo, hi]` interval instead of the blanket
//!   0.5 constant, which is what lets the plan searcher rank a product
//!   ordering by how selective each side's conjuncts actually are;
//! - **numeric hygiene** — every arithmetic combine point is routed
//!   through [`sanitize_rows`], so deep products cannot overflow into
//!   `inf`/NaN and poison the `<` comparisons the searcher ranks with,
//!   and every selectivity is clamped to `[0, 1]`.

use std::collections::BTreeMap;

use txtime_analyze::ValueRange;
use txtime_core::Expr;
use txtime_snapshot::{CompOp, Operand, Predicate, Value};

/// Per-relation cardinality statistics plus per-attribute value ranges.
#[derive(Debug, Clone)]
pub struct CostModel {
    cardinalities: BTreeMap<String, f64>,
    /// Observed value range per attribute name, joined (hulled) across
    /// the relations that expose the attribute. Sound for selectivity
    /// because a hull only widens the denominator.
    attr_ranges: BTreeMap<String, ValueRange>,
    /// Distinct-value count per attribute name (max across relations —
    /// the widest denominator keeps equality selectivity conservative).
    attr_distincts: BTreeMap<String, f64>,
    /// Most-common-values sample per attribute: `(value, frequency)`
    /// pairs, most frequent first.
    attr_mcvs: BTreeMap<String, Vec<(Value, f64)>>,
    /// Cardinality assumed for relations without statistics.
    pub default_cardinality: f64,
    /// Selectivity assumed per selection predicate conjunct.
    pub selectivity: f64,
}

impl Default for CostModel {
    fn default() -> CostModel {
        CostModel {
            cardinalities: BTreeMap::new(),
            attr_ranges: BTreeMap::new(),
            attr_distincts: BTreeMap::new(),
            attr_mcvs: BTreeMap::new(),
            default_cardinality: 100.0,
            selectivity: 0.5,
        }
    }
}

impl CostModel {
    /// An empty model with defaults.
    pub fn new() -> CostModel {
        CostModel::default()
    }

    /// A model seeded from the lint pass's statistics catalog: each
    /// relation's current cardinality interval collapses to its point
    /// estimate. This is the planned optimizer feed — the same
    /// statistics that power the `W`-series warnings rank plans here.
    pub fn from_stats(stats: &txtime_analyze::StatsCatalog) -> CostModel {
        let mut model = CostModel::new();
        for name in stats.names() {
            if let Some(card) = stats.current_card(name) {
                model.set_cardinality(name, card.estimate());
            }
        }
        model
    }

    /// [`from_stats`](CostModel::from_stats) plus value ranges: the
    /// catalog's per-version ranges are positional (aligned with the
    /// scheme, no attribute names), so the schema catalog supplies the
    /// names to key them by. Only relations with a known (stable)
    /// schema contribute ranges.
    pub fn from_stats_with_schemas(
        stats: &txtime_analyze::StatsCatalog,
        schemas: &crate::SchemaCatalog,
    ) -> CostModel {
        let mut model = CostModel::from_stats(stats);
        let names: Vec<String> = stats.names().map(str::to_string).collect();
        for name in names {
            let (Some(rel), Some(schema)) = (stats.get(&name), schemas.get(&name)) else {
                continue;
            };
            let Some(ranges) = rel.current().and_then(|v| v.ranges.as_ref()) else {
                continue;
            };
            if ranges.len() != schema.arity() {
                continue;
            }
            for (i, range) in ranges.iter().enumerate() {
                model.note_attr_range(schema.attribute(i).name.to_string(), range.clone());
            }
            let Some(columns) = rel.current().and_then(|v| v.columns.as_ref()) else {
                continue;
            };
            if columns.len() != schema.arity() {
                continue;
            }
            for (i, col) in columns.iter().enumerate() {
                let name = schema.attribute(i).name.to_string();
                model.note_attr_distinct(name.clone(), col.distinct as f64);
                if !col.mcvs.is_empty() {
                    model.note_attr_mcvs(name, col.mcvs.clone());
                }
            }
        }
        model
    }

    /// Sets the cardinality statistic for a relation.
    pub fn set_cardinality(&mut self, relation: impl Into<String>, rows: f64) {
        self.cardinalities.insert(relation.into(), rows);
    }

    /// Records the observed value range of an attribute; a repeated
    /// attribute name widens to the hull of both ranges.
    pub fn note_attr_range(&mut self, attr: impl Into<String>, range: ValueRange) {
        self.attr_ranges
            .entry(attr.into())
            .and_modify(|r| *r = r.join(&range))
            .or_insert(range);
    }

    /// Records an attribute's distinct-value count; a repeated name
    /// keeps the larger count (conservative: a wider denominator gives
    /// the smaller, safer equality selectivity).
    pub fn note_attr_distinct(&mut self, attr: impl Into<String>, count: f64) {
        self.attr_distincts
            .entry(attr.into())
            .and_modify(|c| *c = c.max(count))
            .or_insert(count);
    }

    /// Records an attribute's most-common-values sample (first writer
    /// wins across relations sharing a name).
    pub fn note_attr_mcvs(&mut self, attr: impl Into<String>, mcvs: Vec<(Value, f64)>) {
        self.attr_mcvs.entry(attr.into()).or_insert(mcvs);
    }

    fn cardinality(&self, relation: &str) -> f64 {
        self.cardinalities
            .get(relation)
            .copied()
            .unwrap_or(self.default_cardinality)
    }

    /// Estimated fraction of input rows a predicate retains, always in
    /// `[0, 1]`. Comparisons against integer constants interpolate over
    /// the attribute's observed range when one is known; everything
    /// else falls back to the per-conjunct [`selectivity`] constant.
    /// Conjunctions multiply, disjunctions combine by inclusion–
    /// exclusion, negation complements — the independence assumptions
    /// of System R.
    ///
    /// [`selectivity`]: CostModel::selectivity
    pub fn predicate_selectivity(&self, p: &Predicate) -> f64 {
        let s = match p {
            Predicate::True => 1.0,
            Predicate::False => 0.0,
            Predicate::And(a, b) => self.predicate_selectivity(a) * self.predicate_selectivity(b),
            Predicate::Or(a, b) => {
                let (sa, sb) = (self.predicate_selectivity(a), self.predicate_selectivity(b));
                sa + sb - sa * sb
            }
            Predicate::Not(q) => 1.0 - self.predicate_selectivity(q),
            Predicate::Comp(l, op, r) => self.comp_selectivity(l, *op, r),
        };
        if s.is_finite() {
            s.clamp(0.0, 1.0)
        } else {
            self.selectivity
        }
    }

    fn comp_selectivity(&self, l: &Operand, op: CompOp, r: &Operand) -> f64 {
        // Normalize `const ⊙ attr` to `attr ⊙⁻¹ const`.
        let (attr, op, value) = match (l, r) {
            (Operand::Attr(a), Operand::Const(v)) => (a, op, v),
            (Operand::Const(v), Operand::Attr(a)) => (a, flip(op), v),
            (Operand::Const(a), Operand::Const(b)) => {
                // Same-domain constant folds are exact; mixed domains
                // would error at compile time, so stay neutral.
                return match (a, b) {
                    (Value::Int(_), Value::Int(_))
                    | (Value::Real(_), Value::Real(_))
                    | (Value::Bool(_), Value::Bool(_))
                    | (Value::Str(_), Value::Str(_)) => {
                        if op.apply(a, b) {
                            1.0
                        } else {
                            0.0
                        }
                    }
                    _ => self.selectivity,
                };
            }
            // attr-attr comparisons: equality keys get the classical
            // 1/max(d_l, d_r) from distinct counts — the estimate the
            // join costing rides on.
            (Operand::Attr(a), Operand::Attr(b)) => {
                let (da, db) = (
                    self.attr_distincts.get(a.as_ref()),
                    self.attr_distincts.get(b.as_ref()),
                );
                let (Some(&da), Some(&db)) = (da, db) else {
                    return self.selectivity;
                };
                let eq = 1.0 / da.max(db).max(1.0);
                return match op {
                    CompOp::Eq => eq,
                    CompOp::Ne => 1.0 - eq,
                    _ => self.selectivity,
                };
            }
        };
        let bounds = self
            .attr_ranges
            .get(attr.as_ref())
            .and_then(|r| r.int_bounds());
        let (Some((lo, hi)), Value::Int(c)) = (bounds, value) else {
            // No usable integer range (string/boolean/real domains, or
            // no statistics): equality estimates come from the MCV
            // sample and the distinct count instead of the fixed guess.
            return self.eq_selectivity_from_columns(attr.as_ref(), op, value);
        };
        // All arithmetic in f64: extreme i64 endpoints must not wrap.
        let (lo, hi, c): (f64, f64, f64) = (lo as f64, hi as f64, *c as f64);
        let width = hi - lo + 1.0;
        if width <= 0.0 {
            return 0.0; // provably-empty range: nothing satisfies anything
        }
        let eq = if lo <= c && c <= hi { 1.0 / width } else { 0.0 };
        let frac = match op {
            CompOp::Eq => eq,
            CompOp::Ne => 1.0 - eq,
            CompOp::Lt => (c - lo) / width,
            CompOp::Le => (c - lo + 1.0) / width,
            CompOp::Gt => (hi - c) / width,
            CompOp::Ge => (hi - c + 1.0) / width,
        };
        frac.clamp(0.0, 1.0)
    }

    /// `=`/`≠` selectivity for `attr ⊙ const` on domains the integer
    /// range interpolation cannot serve. A constant found in the MCV
    /// sample answers with its observed frequency; otherwise the
    /// remaining mass spreads evenly over the non-MCV distinct values.
    fn eq_selectivity_from_columns(&self, attr: &str, op: CompOp, value: &Value) -> f64 {
        if !matches!(op, CompOp::Eq | CompOp::Ne) {
            return self.selectivity;
        }
        let mcvs = self.attr_mcvs.get(attr).map(Vec::as_slice).unwrap_or(&[]);
        let eq = if let Some((_, freq)) = mcvs.iter().find(|(v, _)| v == value) {
            *freq
        } else if let Some(&distinct) = self.attr_distincts.get(attr) {
            let covered: f64 = mcvs.iter().map(|(_, f)| f).sum();
            let rest = (distinct - mcvs.len() as f64).max(1.0);
            ((1.0 - covered).max(0.0) / rest).clamp(0.0, 1.0)
        } else {
            return self.selectivity;
        };
        match op {
            CompOp::Eq => eq,
            _ => 1.0 - eq,
        }
    }

    /// The work of one physical equi-join beyond its children: scan the
    /// build side once, probe with every left row, and materialize the
    /// output. Linear in its inputs — the whole point over the
    /// `|A| × |B|` product node it replaces.
    pub fn join_cost(&self, left_rows: f64, right_rows: f64, out_rows: f64) -> f64 {
        sanitize_rows(left_rows + right_rows + out_rows)
    }
}

fn flip(op: CompOp) -> CompOp {
    match op {
        CompOp::Eq => CompOp::Eq,
        CompOp::Ne => CompOp::Ne,
        CompOp::Lt => CompOp::Gt,
        CompOp::Le => CompOp::Ge,
        CompOp::Gt => CompOp::Lt,
        CompOp::Ge => CompOp::Le,
    }
}

/// Clamps a row estimate to a finite non-negative value: deep product
/// chains overflow `f64` into `inf`, and `0 × inf` poisons a whole plan
/// ranking with NaN. `MAX` (not `inf`) keeps `<` comparisons total.
pub fn sanitize_rows(rows: f64) -> f64 {
    if rows.is_nan() {
        f64::MAX
    } else {
        rows.clamp(0.0, f64::MAX)
    }
}

/// Estimated output cardinality of an expression.
pub fn estimate_rows(expr: &Expr, model: &CostModel) -> f64 {
    let rows = match expr {
        Expr::SnapshotConst(s) => s.len() as f64,
        Expr::HistoricalConst(h) => h.len() as f64,
        Expr::Rollback(i, _) | Expr::HRollback(i, _) => model.cardinality(i),
        Expr::Union(a, b) | Expr::HUnion(a, b) => estimate_rows(a, model) + estimate_rows(b, model),
        Expr::Difference(a, b) | Expr::HDifference(a, b) => {
            let _ = b;
            estimate_rows(a, model) * 0.5
        }
        Expr::Product(a, b) | Expr::HProduct(a, b) => {
            estimate_rows(a, model) * estimate_rows(b, model)
        }
        Expr::Project(_, e) | Expr::HProject(_, e) => estimate_rows(e, model) * 0.9,
        Expr::Select(p, e) | Expr::HSelect(p, e) => {
            estimate_rows(e, model) * model.predicate_selectivity(p)
        }
        Expr::Delta(_, _, e) => estimate_rows(e, model) * model.selectivity,
        Expr::Join(spec, a, b) | Expr::HJoin(spec, a, b) => {
            estimate_rows(a, model)
                * estimate_rows(b, model)
                * model.predicate_selectivity(&spec.as_predicate())
        }
    };
    sanitize_rows(rows)
}

/// Decides whether propagating a delta of `delta_changes` changed
/// tuples/entries through one memoized operator beats recomputing that
/// operator from its (cached) inputs of `recompute_rows` total rows.
///
/// The same System-R-flavoured reasoning as [`estimate_cost`], collapsed
/// to a ratio: a delta rule touches O(Δ) items (each with a log-factor
/// membership probe against the sorted runs), a recompute touches every
/// input row. The probe constant is folded into a 4× headroom factor, so
/// propagation must be at least 4× smaller than the recompute before it
/// is chosen — the view memo consults this for the operators whose delta
/// rules have super-linear fan-out (×, ×̂) or where the delta can
/// approach the input (δ after a large churn).
pub fn delta_beats_reeval(delta_changes: usize, recompute_rows: usize) -> bool {
    // A delta too large to even scale can never beat the recompute.
    delta_changes
        .checked_mul(4)
        .is_some_and(|scaled| scaled <= recompute_rows)
}

/// Estimated total work of evaluating an expression: the sum of every
/// node's output cardinality (each intermediate state must be
/// materialized in the paper's semantics). A join node's own work is
/// [`CostModel::join_cost`] — linear in its inputs plus its output,
/// where the product it replaces pays the full `|A| × |B|`.
pub fn estimate_cost(expr: &Expr, model: &CostModel) -> f64 {
    if let Expr::Join(_, a, b) | Expr::HJoin(_, a, b) = expr {
        let own = model.join_cost(
            estimate_rows(a, model),
            estimate_rows(b, model),
            estimate_rows(expr, model),
        );
        return sanitize_rows(own + estimate_cost(a, model) + estimate_cost(b, model));
    }
    let own = estimate_rows(expr, model);
    let children = match expr {
        Expr::SnapshotConst(_)
        | Expr::HistoricalConst(_)
        | Expr::Rollback(..)
        | Expr::HRollback(..) => 0.0,
        Expr::Union(a, b)
        | Expr::Difference(a, b)
        | Expr::Product(a, b)
        | Expr::HUnion(a, b)
        | Expr::HDifference(a, b)
        | Expr::HProduct(a, b) => estimate_cost(a, model) + estimate_cost(b, model),
        Expr::Project(_, e)
        | Expr::Select(_, e)
        | Expr::HProject(_, e)
        | Expr::HSelect(_, e)
        | Expr::Delta(_, _, e) => estimate_cost(e, model),
        Expr::Join(..) | Expr::HJoin(..) => unreachable!("handled above"),
    };
    sanitize_rows(own + children)
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_analyze::schema_infer::SchemaCatalog;
    use txtime_analyze::Bound;
    use txtime_snapshot::{DomainType, Predicate, Schema, Value};

    fn model() -> CostModel {
        let mut m = CostModel::new();
        m.set_cardinality("emp", 1000.0);
        m.set_cardinality("dept", 50.0);
        m
    }

    #[test]
    fn select_reduces_estimated_rows() {
        let base = Expr::current("emp");
        let sel = base
            .clone()
            .select(Predicate::gt_const("sal", Value::Int(1)));
        assert!(estimate_rows(&sel, &model()) < estimate_rows(&base, &model()));
    }

    #[test]
    fn product_multiplies() {
        let e = Expr::current("emp").product(Expr::current("dept"));
        assert_eq!(estimate_rows(&e, &model()), 50_000.0);
    }

    #[test]
    fn pushdown_lowers_cost() {
        // σ over a product vs the pushed-down form: the optimizer's
        // preferred plan must cost less under the model.
        let mut catalog = SchemaCatalog::new();
        catalog.insert(
            "emp",
            Schema::new(vec![("name", DomainType::Str), ("sal", DomainType::Int)]).unwrap(),
        );
        catalog.insert(
            "dept",
            Schema::new(vec![("dname", DomainType::Str)]).unwrap(),
        );
        let original = Expr::current("emp")
            .product(Expr::current("dept"))
            .select(Predicate::gt_const("sal", Value::Int(10)));
        let optimized = crate::optimize(&original, &catalog);
        assert!(estimate_cost(&optimized, &model()) < estimate_cost(&original, &model()));
    }

    #[test]
    fn delta_threshold_prefers_small_deltas() {
        // A handful of changes against 10k rows: propagate.
        assert!(delta_beats_reeval(16, 10_000));
        // Delta comparable to the input: recompute.
        assert!(!delta_beats_reeval(5_000, 10_000));
        // Boundary and degenerate cases.
        assert!(delta_beats_reeval(0, 0));
        assert!(!delta_beats_reeval(1, 0));
        assert!(!delta_beats_reeval(usize::MAX, usize::MAX));
    }

    #[test]
    fn unknown_relations_use_default() {
        let m = CostModel::new();
        assert_eq!(estimate_rows(&Expr::current("mystery"), &m), 100.0);
    }

    #[test]
    fn model_from_stats_uses_interval_estimates() {
        use txtime_analyze::{CardInterval, StatsCatalog};
        use txtime_core::TransactionNumber;

        let mut stats = StatsCatalog::new();
        stats.define("emp");
        stats.get_mut("emp").unwrap().push_version(
            TransactionNumber(1),
            CardInterval::exact(40),
            None,
            true,
        );
        // A defined relation without any version stays at the default.
        stats.define("dept");
        let m = CostModel::from_stats(&stats);
        assert_eq!(estimate_rows(&Expr::current("emp"), &m), 40.0);
        assert_eq!(estimate_rows(&Expr::current("dept"), &m), 100.0);
    }

    fn int_range(lo: i64, hi: i64) -> ValueRange {
        ValueRange {
            lo: Some(Bound::closed(Value::Int(lo))),
            hi: Some(Bound::closed(Value::Int(hi))),
        }
    }

    #[test]
    fn range_selectivity_interpolates_and_clamps() {
        let mut m = CostModel::new();
        m.note_attr_range("sal", int_range(0, 99));
        let sel = |p: &Predicate| m.predicate_selectivity(p);
        // sal > 89 keeps 10 of the 100 possible values.
        assert!((sel(&Predicate::gt_const("sal", Value::Int(89))) - 0.1).abs() < 1e-9);
        // Out-of-range comparisons clamp to [0, 1], never go negative.
        assert_eq!(sel(&Predicate::gt_const("sal", Value::Int(1000))), 0.0);
        assert_eq!(sel(&Predicate::lt_const("sal", Value::Int(1000))), 1.0);
        // Eq inside the range is 1/width; outside, 0.
        assert!((sel(&Predicate::eq_const("sal", Value::Int(5))) - 0.01).abs() < 1e-9);
        assert_eq!(sel(&Predicate::eq_const("sal", Value::Int(-1))), 0.0);
        // Attributes without statistics use the generic constant.
        assert_eq!(sel(&Predicate::gt_const("age", Value::Int(0))), 0.5);
    }

    #[test]
    fn connective_selectivities_stay_in_unit_interval() {
        let mut m = CostModel::new();
        m.note_attr_range("a", int_range(0, 9));
        let p = Predicate::gt_const("a", Value::Int(4));
        let q = Predicate::lt_const("a", Value::Int(2));
        for pred in [
            p.clone().and(q.clone()),
            p.clone().or(q.clone()),
            p.clone().not(),
            p.clone().and(q.clone()).not().or(p.clone()),
            Predicate::True,
            Predicate::False,
        ] {
            let s = m.predicate_selectivity(&pred);
            assert!((0.0..=1.0).contains(&s), "{pred:?} -> {s}");
        }
    }

    #[test]
    fn extreme_int_bounds_do_not_overflow() {
        // i64::MIN..=i64::MAX would wrap in integer arithmetic; the
        // f64 path must stay finite and in-range.
        let mut m = CostModel::new();
        m.note_attr_range("x", int_range(i64::MIN, i64::MAX));
        let s = m.predicate_selectivity(&Predicate::gt_const("x", Value::Int(0)));
        assert!((0.0..=1.0).contains(&s), "{s}");
    }

    #[test]
    fn empty_range_is_zero_selectivity() {
        let mut m = CostModel::new();
        m.note_attr_range("x", int_range(10, 5)); // contradiction range
        assert_eq!(
            m.predicate_selectivity(&Predicate::eq_const("x", Value::Int(7))),
            0.0
        );
    }

    #[test]
    fn deep_product_chain_stays_finite() {
        // 2^1000 rows overflows f64 into inf without the sanitizer;
        // the estimate must clamp to MAX so plan ranking stays total.
        let mut m = CostModel::new();
        m.set_cardinality("big", 1e308);
        let mut e = Expr::current("big");
        for _ in 0..64 {
            e = e.product(Expr::current("big"));
        }
        let rows = estimate_rows(&e, &m);
        let cost = estimate_cost(&e, &m);
        assert!(rows.is_finite() && rows == f64::MAX, "{rows}");
        assert!(cost.is_finite(), "{cost}");
        // A select over the overflowed product must not produce NaN.
        let sel = e.select(Predicate::eq_const("zzz", Value::Int(0)));
        assert!(estimate_rows(&sel, &m).is_finite());
    }

    #[test]
    fn empty_plans_estimate_zero() {
        use txtime_snapshot::SnapshotState;
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        let empty = Expr::SnapshotConst(SnapshotState::empty(schema));
        let m = CostModel::new();
        assert_eq!(estimate_rows(&empty, &m), 0.0);
        let u = empty.clone().union(empty.clone()).product(empty.clone());
        assert_eq!(estimate_rows(&u, &m), 0.0);
        assert_eq!(estimate_cost(&u, &m), 0.0);
    }

    #[test]
    fn sanitize_rows_boundaries() {
        assert_eq!(sanitize_rows(f64::NAN), f64::MAX);
        assert_eq!(sanitize_rows(f64::INFINITY), f64::MAX);
        assert_eq!(sanitize_rows(f64::NEG_INFINITY), 0.0);
        assert_eq!(sanitize_rows(-1.0), 0.0);
        assert_eq!(sanitize_rows(42.0), 42.0);
    }

    #[test]
    fn distinct_counts_drive_attr_attr_equality() {
        let mut m = CostModel::new();
        m.note_attr_distinct("a", 20.0);
        m.note_attr_distinct("b", 50.0);
        let eq = m.predicate_selectivity(&Predicate::eq_attrs("a", "b"));
        // 1 / max(distinct) — the System-R join-key estimate.
        assert!((eq - 0.02).abs() < 1e-9, "{eq}");
        let ne = m.predicate_selectivity(&Predicate::Comp(
            Operand::attr("a"),
            CompOp::Ne,
            Operand::attr("b"),
        ));
        assert!((ne - 0.98).abs() < 1e-9, "{ne}");
        // Without distincts the generic constant still answers.
        let unknown = m.predicate_selectivity(&Predicate::eq_attrs("x", "y"));
        assert_eq!(unknown, m.selectivity);
    }

    #[test]
    fn mcv_sample_answers_string_equality() {
        let mut m = CostModel::new();
        m.note_attr_distinct("city", 10.0);
        m.note_attr_mcvs(
            "city",
            vec![(Value::str("oslo"), 0.5), (Value::str("bergen"), 0.25)],
        );
        // An MCV hit answers with its observed frequency.
        let s = m.predicate_selectivity(&Predicate::eq_const("city", Value::str("oslo")));
        assert!((s - 0.5).abs() < 1e-9, "{s}");
        // A miss spreads the uncovered mass over the remaining distincts:
        // (1 - 0.75) / (10 - 2) = 0.03125.
        let s = m.predicate_selectivity(&Predicate::eq_const("city", Value::str("tromso")));
        assert!((s - 0.03125).abs() < 1e-9, "{s}");
        // ≠ is the complement of the = estimate.
        let s = m.predicate_selectivity(&Predicate::Comp(
            Operand::attr("city"),
            CompOp::Ne,
            Operand::Const(Value::str("oslo")),
        ));
        assert!((s - 0.5).abs() < 1e-9, "{s}");
    }

    #[test]
    fn join_estimate_beats_product_select() {
        use txtime_core::{JoinPhysical, JoinSpec};
        let m = {
            let mut m = model();
            m.note_attr_distinct("sal", 100.0);
            m.note_attr_distinct("dno", 25.0);
            m
        };
        let spec = JoinSpec {
            keys: vec![("sal".into(), "dno".into())],
            residual: Predicate::True,
            physical: JoinPhysical::Hash,
        };
        let join = Expr::current("emp").join(spec, Expr::current("dept"));
        let product = Expr::current("emp")
            .product(Expr::current("dept"))
            .select(Predicate::eq_attrs("sal", "dno"));
        // Same output estimate (both are σ_k(×) semantically)…
        assert_eq!(estimate_rows(&join, &m), estimate_rows(&product, &m));
        // …but the join pays build + probe + output, not |A|·|B|.
        assert!(estimate_cost(&join, &m) < estimate_cost(&product, &m));
        assert_eq!(m.join_cost(1000.0, 50.0, 500.0), 1550.0);
    }
}
