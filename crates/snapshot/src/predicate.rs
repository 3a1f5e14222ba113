//! The boolean-expression domain 𝓕 used by selection.
//!
//! The paper defines 𝓕 as "boolean expressions of elements from the
//! domains IDENTIFIER and STRING, the relational operators, and the
//! logical operators". We generalize STRING to any [`Value`] constant and
//! provide the six relational comparisons plus ∧, ∨, ¬ and the constants
//! true/false.
//!
//! Predicates are *validated* against a scheme (attribute existence and
//! domain compatibility) before evaluation; a validated predicate can be
//! [compiled](Predicate::compile) to a [`CompiledPredicate`] whose
//! evaluation is infallible and index-based (no name lookups per tuple).

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::domain::DomainType;
use crate::error::SnapshotError;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;
use crate::Result;

/// One side of a comparison: an attribute reference or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Operand {
    /// An attribute of the operand state, by name.
    Attr(Arc<str>),
    /// A literal constant.
    Const(Value),
}

impl Operand {
    /// Convenience constructor for attribute operands.
    pub fn attr(name: impl AsRef<str>) -> Operand {
        Operand::Attr(Arc::from(name.as_ref()))
    }

    /// The domain the operand will produce under `schema`.
    fn domain(&self, schema: &Schema) -> Result<DomainType> {
        match self {
            Operand::Attr(name) => Ok(schema.attribute(schema.require(name)?).domain),
            Operand::Const(v) => Ok(v.domain()),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Attr(a) => write!(f, "{a}"),
            Operand::Const(v) => write!(f, "{v}"),
        }
    }
}

/// The six relational comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum CompOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CompOp {
    /// Applies the comparison to two values of the same domain.
    pub fn apply(self, l: &Value, r: &Value) -> bool {
        match self {
            CompOp::Eq => l == r,
            CompOp::Ne => l != r,
            CompOp::Lt => l < r,
            CompOp::Le => l <= r,
            CompOp::Gt => l > r,
            CompOp::Ge => l >= r,
        }
    }

    /// The logically negated comparison (used by predicate simplification).
    pub fn negate(self) -> CompOp {
        match self {
            CompOp::Eq => CompOp::Ne,
            CompOp::Ne => CompOp::Eq,
            CompOp::Lt => CompOp::Ge,
            CompOp::Le => CompOp::Gt,
            CompOp::Gt => CompOp::Le,
            CompOp::Ge => CompOp::Lt,
        }
    }

    /// The comparison with operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CompOp {
        match self {
            CompOp::Lt => CompOp::Gt,
            CompOp::Le => CompOp::Ge,
            CompOp::Gt => CompOp::Lt,
            CompOp::Ge => CompOp::Le,
            other => other,
        }
    }

    /// Surface-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CompOp::Eq => "=",
            CompOp::Ne => "<>",
            CompOp::Lt => "<",
            CompOp::Le => "<=",
            CompOp::Gt => ">",
            CompOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CompOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A boolean expression over one state's attributes (the domain 𝓕).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Predicate {
    /// The constant `true`.
    True,
    /// The constant `false`.
    False,
    /// A comparison between two operands.
    Comp(Operand, CompOp, Operand),
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `attr = const`
    pub fn eq_const(attr: impl AsRef<str>, v: Value) -> Predicate {
        Predicate::Comp(Operand::attr(attr), CompOp::Eq, Operand::Const(v))
    }

    /// `attr < const`
    pub fn lt_const(attr: impl AsRef<str>, v: Value) -> Predicate {
        Predicate::Comp(Operand::attr(attr), CompOp::Lt, Operand::Const(v))
    }

    /// `attr > const`
    pub fn gt_const(attr: impl AsRef<str>, v: Value) -> Predicate {
        Predicate::Comp(Operand::attr(attr), CompOp::Gt, Operand::Const(v))
    }

    /// `left_attr = right_attr` (the equijoin predicate shape).
    pub fn eq_attrs(l: impl AsRef<str>, r: impl AsRef<str>) -> Predicate {
        Predicate::Comp(Operand::attr(l), CompOp::Eq, Operand::attr(r))
    }

    /// `self ∧ other`
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `¬self`
    #[allow(clippy::should_implement_trait)] // deliberate: mirrors the paper's ¬, returns Self
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// The set of attribute names referenced by this predicate.
    pub fn attributes(&self) -> Vec<Arc<str>> {
        let mut out = Vec::new();
        self.collect_attrs(&mut out);
        out
    }

    fn collect_attrs(&self, out: &mut Vec<Arc<str>>) {
        match self {
            Predicate::True | Predicate::False => {}
            Predicate::Comp(l, _, r) => {
                for op in [l, r] {
                    if let Operand::Attr(a) = op {
                        if !out.iter().any(|x| x == a) {
                            out.push(a.clone());
                        }
                    }
                }
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.collect_attrs(out);
                b.collect_attrs(out);
            }
            Predicate::Not(a) => a.collect_attrs(out),
        }
    }

    /// Whether a conjunct reachable through ∧ alone compares `attr` with
    /// a constant by `=`, `<`, `≤`, `>` or `≥`: on a run sorted by `attr`
    /// first, the bound [`CompiledPredicate::key_range`] cuts by binary
    /// search.
    pub fn bounds(&self, attr: &str) -> bool {
        match self {
            Predicate::And(a, b) => a.bounds(attr) || b.bounds(attr),
            Predicate::Comp(Operand::Attr(a), op, Operand::Const(_))
            | Predicate::Comp(Operand::Const(_), op, Operand::Attr(a)) => {
                **a == *attr && *op != CompOp::Ne
            }
            _ => false,
        }
    }

    /// Validates this predicate against `schema`: every referenced
    /// attribute must exist, and each comparison's operands must share a
    /// domain.
    pub fn validate(&self, schema: &Schema) -> Result<()> {
        match self {
            Predicate::True | Predicate::False => Ok(()),
            Predicate::Comp(l, op, r) => {
                let ld = l.domain(schema)?;
                let rd = r.domain(schema)?;
                if ld != rd {
                    return Err(SnapshotError::PredicateTypeMismatch {
                        comparison: format!("{l} {op} {r}"),
                        left: ld,
                        right: rd,
                    });
                }
                Ok(())
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.validate(schema)?;
                b.validate(schema)
            }
            Predicate::Not(a) => a.validate(schema),
        }
    }

    /// Validates and compiles this predicate for fast repeated evaluation
    /// against tuples of `schema`.
    pub fn compile(&self, schema: &Schema) -> Result<CompiledPredicate> {
        self.validate(schema)?;
        let node = self.compile_node(schema);
        let mut bounds = Vec::new();
        node.key_bounds(&mut bounds);
        Ok(CompiledPredicate { node, bounds })
    }

    fn compile_node(&self, schema: &Schema) -> CompiledNode {
        match self {
            Predicate::True => CompiledNode::Const(true),
            Predicate::False => CompiledNode::Const(false),
            Predicate::Comp(l, op, r) => {
                CompiledNode::Comp(compile_operand(l, schema), *op, compile_operand(r, schema))
            }
            Predicate::And(a, b) => CompiledNode::And(
                Box::new(a.compile_node(schema)),
                Box::new(b.compile_node(schema)),
            ),
            Predicate::Or(a, b) => CompiledNode::Or(
                Box::new(a.compile_node(schema)),
                Box::new(b.compile_node(schema)),
            ),
            Predicate::Not(a) => CompiledNode::Not(Box::new(a.compile_node(schema))),
        }
    }

    /// One-off evaluation (validates first); use [`Predicate::compile`]
    /// when evaluating against many tuples.
    pub fn eval(&self, schema: &Schema, tuple: &Tuple) -> Result<bool> {
        Ok(self.compile(schema)?.eval(tuple))
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "true"),
            Predicate::False => write!(f, "false"),
            Predicate::Comp(l, op, r) => write!(f, "{l} {op} {r}"),
            Predicate::And(a, b) => write!(f, "({a} and {b})"),
            Predicate::Or(a, b) => write!(f, "({a} or {b})"),
            Predicate::Not(a) => write!(f, "(not {a})"),
        }
    }
}

fn compile_operand(op: &Operand, schema: &Schema) -> CompiledOperand {
    match op {
        Operand::Attr(name) => CompiledOperand::Attr(
            schema
                .index_of(name)
                .expect("operand validated before compilation"),
        ),
        Operand::Const(v) => CompiledOperand::Const(v.clone()),
    }
}

#[derive(Debug, Clone)]
enum CompiledOperand {
    Attr(usize),
    Const(Value),
}

impl CompiledOperand {
    fn resolve<'a>(&'a self, tuple: &'a Tuple) -> &'a Value {
        match self {
            CompiledOperand::Attr(i) => tuple.get(*i),
            CompiledOperand::Const(v) => v,
        }
    }
}

#[derive(Debug, Clone)]
enum CompiledNode {
    Const(bool),
    Comp(CompiledOperand, CompOp, CompiledOperand),
    And(Box<CompiledNode>, Box<CompiledNode>),
    Or(Box<CompiledNode>, Box<CompiledNode>),
    Not(Box<CompiledNode>),
}

impl CompiledNode {
    fn eval(&self, tuple: &Tuple) -> bool {
        match self {
            CompiledNode::Const(b) => *b,
            CompiledNode::Comp(l, op, r) => op.apply(l.resolve(tuple), r.resolve(tuple)),
            CompiledNode::And(a, b) => a.eval(tuple) && b.eval(tuple),
            CompiledNode::Or(a, b) => a.eval(tuple) || b.eval(tuple),
            CompiledNode::Not(a) => !a.eval(tuple),
        }
    }

    /// Collects the `attribute ⋈ constant` comparisons every satisfying
    /// tuple must pass: those reachable from the root through ∧ alone
    /// (a conjunct that fails makes the whole predicate fail; nothing
    /// under ∨ or ¬ is that strong). `constant ⋈ attribute` is listed
    /// flipped.
    fn key_bounds(&self, out: &mut Vec<(usize, CompOp, Value)>) {
        match self {
            CompiledNode::And(a, b) => {
                a.key_bounds(out);
                b.key_bounds(out);
            }
            CompiledNode::Comp(CompiledOperand::Attr(i), op, CompiledOperand::Const(v)) => {
                out.push((*i, *op, v.clone()));
            }
            CompiledNode::Comp(CompiledOperand::Const(v), op, CompiledOperand::Attr(i)) => {
                out.push((*i, op.flip(), v.clone()));
            }
            _ => {}
        }
    }
}

/// A predicate resolved against a fixed scheme; evaluation is infallible.
#[derive(Debug, Clone)]
pub struct CompiledPredicate {
    node: CompiledNode,
    /// The top-level conjuncts of the form `attribute ⋈ constant`, as
    /// `(attribute index, ⋈, constant)`; see
    /// [`CompiledPredicate::key_range`].
    bounds: Vec<(usize, CompOp, Value)>,
}

impl CompiledPredicate {
    /// Evaluates against a tuple of the scheme the predicate was compiled
    /// for.
    pub fn eval(&self, tuple: &Tuple) -> bool {
        self.node.eval(tuple)
    }

    /// The index range of `run` that holds every row the predicate can
    /// accept, found by binary search; the predicate is false on every
    /// row outside it, so a selection need only evaluate the rows inside.
    ///
    /// `run` is sorted by `key`, lexicographically by attribute position,
    /// as a state's run is. A top-level conjunct comparing the leading
    /// attribute with a constant by `=`, `<`, `≤`, `>` or `≥` cuts the
    /// run to the rows that pass it; while the conjuncts pin an attribute
    /// with `=`, the rows left are sorted by the next one and its
    /// conjuncts cut again. A predicate with no such conjunct (a
    /// non-leading attribute, `≠`, anything under ∨ or ¬) keeps the whole
    /// run.
    pub fn key_range<R>(&self, run: &[R], key: impl Fn(&R) -> &Tuple) -> Range<usize> {
        let mut range = 0..run.len();
        for attr in 0.. {
            let mut pinned = false;
            for (_, op, v) in self.bounds.iter().filter(|(i, ..)| *i == attr) {
                let rows = &run[range.clone()];
                let below = || rows.partition_point(|r| key(r).get(attr) < v);
                let through = || rows.partition_point(|r| key(r).get(attr) <= v);
                let (lo, hi) = match op {
                    CompOp::Eq => (below(), through()),
                    CompOp::Lt => (0, below()),
                    CompOp::Le => (0, through()),
                    CompOp::Gt => (through(), rows.len()),
                    CompOp::Ge => (below(), rows.len()),
                    CompOp::Ne => continue,
                };
                range = range.start + lo..range.start + hi;
                pinned |= *op == CompOp::Eq;
            }
            if !pinned {
                break;
            }
        }
        range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("name", DomainType::Str),
            ("sal", DomainType::Int),
            ("mgr", DomainType::Str),
        ])
        .unwrap()
    }

    fn alice() -> Tuple {
        Tuple::new(vec![
            Value::str("alice"),
            Value::Int(100),
            Value::str("bob"),
        ])
    }

    #[test]
    fn comparison_semantics() {
        assert!(CompOp::Eq.apply(&Value::Int(1), &Value::Int(1)));
        assert!(CompOp::Lt.apply(&Value::Int(1), &Value::Int(2)));
        assert!(CompOp::Ge.apply(&Value::str("b"), &Value::str("a")));
        assert!(!CompOp::Ne.apply(&Value::Bool(true), &Value::Bool(true)));
    }

    #[test]
    fn negate_and_flip_are_involutions() {
        for op in [
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ] {
            assert_eq!(op.negate().negate(), op);
            assert_eq!(op.flip().flip(), op);
        }
    }

    #[test]
    fn flip_matches_swapped_operands() {
        let (a, b) = (Value::Int(1), Value::Int(2));
        for op in [
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ] {
            assert_eq!(op.apply(&a, &b), op.flip().apply(&b, &a));
        }
    }

    #[test]
    fn eval_comparisons() {
        let s = schema();
        assert!(Predicate::eq_const("name", Value::str("alice"))
            .eval(&s, &alice())
            .unwrap());
        assert!(Predicate::gt_const("sal", Value::Int(50))
            .eval(&s, &alice())
            .unwrap());
        assert!(!Predicate::lt_const("sal", Value::Int(50))
            .eval(&s, &alice())
            .unwrap());
    }

    #[test]
    fn eval_attr_to_attr() {
        let s = schema();
        let p = Predicate::eq_attrs("name", "mgr");
        assert!(!p.eval(&s, &alice()).unwrap());
        let t = Tuple::new(vec![Value::str("bob"), Value::Int(1), Value::str("bob")]);
        assert!(p.eval(&s, &t).unwrap());
    }

    #[test]
    fn eval_connectives() {
        let s = schema();
        let p = Predicate::gt_const("sal", Value::Int(50))
            .and(Predicate::eq_const("name", Value::str("alice")));
        assert!(p.eval(&s, &alice()).unwrap());
        let q = Predicate::gt_const("sal", Value::Int(500))
            .or(Predicate::eq_const("name", Value::str("alice")));
        assert!(q.eval(&s, &alice()).unwrap());
        assert!(!q.clone().not().eval(&s, &alice()).unwrap());
        assert!(Predicate::True.eval(&s, &alice()).unwrap());
        assert!(!Predicate::False.eval(&s, &alice()).unwrap());
    }

    #[test]
    fn validate_rejects_unknown_attribute() {
        let p = Predicate::eq_const("wage", Value::Int(1));
        assert!(matches!(
            p.validate(&schema()),
            Err(SnapshotError::UnknownAttribute(_))
        ));
    }

    #[test]
    fn validate_rejects_domain_mismatch() {
        let p = Predicate::eq_const("sal", Value::str("high"));
        assert!(matches!(
            p.validate(&schema()),
            Err(SnapshotError::PredicateTypeMismatch { .. })
        ));
    }

    #[test]
    fn attributes_are_deduplicated() {
        let p = Predicate::gt_const("sal", Value::Int(1))
            .and(Predicate::lt_const("sal", Value::Int(10)));
        let attrs = p.attributes();
        assert_eq!(attrs.len(), 1);
        assert_eq!(&*attrs[0], "sal");
    }

    #[test]
    fn display_round_readable() {
        let p = Predicate::gt_const("sal", Value::Int(50))
            .and(Predicate::eq_const("name", Value::str("a")).not());
        assert_eq!(p.to_string(), "(sal > 50 and (not name = \"a\"))");
    }

    /// The key range holds every accepted row and is found on the
    /// leading attributes alone: checked against a full scan for every
    /// comparison, alone and under ∧/∨/¬, on a two-attribute key.
    #[test]
    fn key_range_brackets_exactly_what_a_scan_accepts() {
        let s = Schema::new(vec![
            ("a", DomainType::Int),
            ("b", DomainType::Int),
            ("c", DomainType::Int),
        ])
        .unwrap();
        let mut run: Vec<Tuple> = (0..4)
            .flat_map(|a| (0..4).map(move |b| (a, b)))
            .map(|(a, b)| Tuple::new(vec![Value::Int(a), Value::Int(2 * b), Value::Int(a + b)]))
            .collect();
        run.sort();
        let comp = |attr: &str, op, v| {
            Predicate::Comp(Operand::attr(attr), op, Operand::Const(Value::Int(v)))
        };
        let ops = [
            CompOp::Eq,
            CompOp::Ne,
            CompOp::Lt,
            CompOp::Le,
            CompOp::Gt,
            CompOp::Ge,
        ];
        let mut predicates = vec![Predicate::True, Predicate::False];
        for op in ops {
            for v in -1..=5 {
                predicates.push(comp("a", op, v));
                predicates.push(comp("c", op, v));
                // The constant on the left.
                predicates.push(Predicate::Comp(
                    Operand::Const(Value::Int(v)),
                    op,
                    Operand::attr("a"),
                ));
                for op2 in ops {
                    predicates.push(comp("a", CompOp::Eq, 2).and(comp("b", op2, v)));
                    predicates.push(comp("a", op, 2).and(comp("b", op2, v)));
                    predicates.push(comp("a", op, 1).and(comp("a", op2, v)));
                    predicates.push(comp("a", op, v).or(comp("b", op2, 2)));
                    predicates.push(comp("a", op, v).not().and(comp("a", op2, 2)));
                }
            }
        }
        let mut narrowed = 0;
        for p in &predicates {
            let c = p.compile(&s).unwrap();
            let range = c.key_range(&run, |t| t);
            for (i, t) in run.iter().enumerate() {
                assert!(!c.eval(t) || range.contains(&i), "{p}: row {i} cut off");
            }
            narrowed += usize::from(range.len() < run.len());
            // Only a bound on the leading attribute cuts.
            assert!(p.bounds("a") || range == (0..run.len()), "{p}");
        }
        assert!(comp("a", CompOp::Eq, 2)
            .and(comp("c", CompOp::Ne, 1))
            .bounds("a"));
        assert!(!comp("a", CompOp::Ne, 2).bounds("a"));
        assert!(!comp("c", CompOp::Eq, 2).bounds("a"));
        assert!(narrowed > predicates.len() / 2);
        // A pinned prefix narrows to exactly the matching rows.
        let point = comp("a", CompOp::Eq, 2).and(comp("b", CompOp::Eq, 4));
        let range = point.compile(&s).unwrap().key_range(&run, |t| t);
        assert_eq!(range.len(), 1);
        assert_eq!(run[range.start].get(2), &Value::Int(4));
        // A non-leading attribute keeps the whole run.
        let c = comp("b", CompOp::Eq, 4).compile(&s).unwrap();
        assert_eq!(c.key_range(&run, |t| t), 0..run.len());
    }

    #[test]
    fn compiled_matches_interpreted() {
        let s = schema();
        let p =
            Predicate::gt_const("sal", Value::Int(50)).or(Predicate::eq_attrs("name", "mgr").not());
        let c = p.compile(&s).unwrap();
        assert_eq!(c.eval(&alice()), p.eval(&s, &alice()).unwrap());
    }
}
