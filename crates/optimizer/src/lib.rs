#![warn(missing_docs)]

//! Algebraic optimization for txtime expressions.
//!
//! The paper's §2 claim: "we preserve all the properties of the snapshot
//! algebra (e.g., commutativity of select, distributivity of select over
//! join), permitting the full application of previously developed
//! algebraic optimizations". This crate *applies* those optimizations to
//! the extended language — selections fuse and push toward leaves,
//! projections cascade, predicates fold — and proves, by property test,
//! that every rewrite is equivalence-preserving. The rollback operators ρ
//! and ρ̂ behave as opaque leaves, exactly as base relations do in the
//! classical theory, which is why the classical rules carry over
//! unchanged.
//!
//! Equivalence convention: `optimize(e)` evaluates to the same state as
//! `e` on every database where `e` evaluates successfully (partial
//! correctness — rewrites may turn some erroring expressions into
//! succeeding ones, e.g. `σ_false(π_ghost(E)) → ∅` never probes the bad
//! projection, but never the other way round).
//!
//! # Example
//!
//! ```
//! use txtime_core::Expr;
//! use txtime_optimizer::{optimize, SchemaCatalog};
//! use txtime_snapshot::{Predicate, Value};
//!
//! let e = Expr::current("emp")
//!     .select(Predicate::gt_const("sal", Value::Int(10)))
//!     .select(Predicate::lt_const("sal", Value::Int(90)));
//! let optimized = optimize(&e, &SchemaCatalog::default());
//! // The cascaded selections fused into one conjunction.
//! assert_eq!(optimized.node_count(), e.node_count() - 1);
//! ```

pub mod cost;
pub mod laws;
pub mod pushdown;
pub mod rules;
pub mod search;

/// The hash-consed expression arena now lives in `txtime-analyze` (the
/// lint pass walks the same DAG); re-exported here so the memo layer and
/// older callers keep their `txtime_optimizer::interner` paths.
pub use txtime_analyze::interner;

pub use cost::{delta_beats_reeval, estimate_cost, estimate_rows, sanitize_rows, CostModel};
pub use interner::{ExprId, ExprInterner, ExprNode, NodeOp};
pub use pushdown::pushdown;
pub use rules::{optimize, optimize_with_trace, simplify_predicate, RewriteTrace};
pub use search::{
    has_select_over_product, lower_joins, render_explain, render_plan, search, OptimizerStats,
    PlanReport, SearchStats,
};
pub use txtime_analyze::schema_infer::SchemaCatalog;
