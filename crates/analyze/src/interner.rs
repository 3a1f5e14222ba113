//! Hash-consed expression identities, shared by the view memo and the
//! lint pass.
//!
//! Expressions are trees; memoizing their evaluated states needs a *key*
//! that two structurally identical expressions share. [`ExprInterner`]
//! assigns every distinct subexpression a small [`ExprId`] by structural
//! identity: interning walks the tree bottom-up, renders each node's
//! non-expression payload (predicates, attribute lists, rollback
//! targets, constants) to its canonical surface syntax — [`Expr`]'s
//! `Display` round-trips through the parser, so the rendering is a
//! faithful structural fingerprint — and looks the (tag, payload,
//! child-ids) triple up in a hash table before allocating a fresh arena
//! slot.
//!
//! Two consequences the memo layer builds on:
//!
//! * **Common-subexpression sharing.** Identical subexpressions anywhere
//!   in one sentence (or across sentences) intern to the *same*
//!   [`ExprId`], so one cached state serves every occurrence — e.g. both
//!   sides of `σ_F(ρ(r, ∞)) − σ_G(ρ(r, ∞))` share the `ρ(r, ∞)` node.
//! * **Topological ids.** Children are interned before their parent, so
//!   `child.index() < parent.index()` always. Walking cached nodes in
//!   ascending id order is a valid bottom-up evaluation (and delta
//!   propagation) order — no separate dependency sort is ever needed.

use std::collections::HashMap;
use std::fmt::Write as _;

use txtime_core::{Expr, JoinSpec, TxSpec};
use txtime_historical::{TemporalExpr, TemporalPred};
use txtime_snapshot::Predicate;

/// The identity of one interned (sub)expression: an index into the
/// interner's arena. Ids are topological — a node's id is strictly
/// greater than each of its children's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(u32);

impl ExprId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The shallow operator of an interned node: the node's own payload with
/// children replaced by [`ExprId`]s. Constants keep the full `Expr` node
/// (they are self-contained); everything else carries exactly what the
/// memo's delta rules need to recompute the node from its children.
#[derive(Debug, Clone)]
pub enum NodeOp {
    /// A constant state (`Expr::SnapshotConst` / `Expr::HistoricalConst`),
    /// kept whole.
    Const(Expr),
    /// `E₁ ∪ E₂`
    Union,
    /// `E₁ − E₂`
    Difference,
    /// `E₁ × E₂`
    Product,
    /// `π_X(E)`
    Project(Vec<String>),
    /// `σ_F(E)`
    Select(Predicate),
    /// `ρ(I, N)`
    Rollback(String, TxSpec),
    /// `E₁ ∪̂ E₂`
    HUnion,
    /// `E₁ −̂ E₂`
    HDifference,
    /// `E₁ ×̂ E₂`
    HProduct,
    /// `π̂_X(E)`
    HProject(Vec<String>),
    /// `σ̂_F(E)`
    HSelect(Predicate),
    /// `δ_{G,V}(E)`
    Delta(TemporalPred, TemporalExpr),
    /// `ρ̂(I, N)`
    HRollback(String, TxSpec),
    /// `join[spec](E₁, E₂)` — the physical equi-join, ≡ `σ_spec(E₁ × E₂)`
    Join(JoinSpec),
    /// `hjoin[spec](E₁, E₂)` — the hatted physical equi-join
    HJoin(JoinSpec),
}

/// One interned node: its operator, children, and transitive read set.
#[derive(Debug, Clone)]
pub struct ExprNode {
    /// The node's operator and non-expression payload.
    pub op: NodeOp,
    /// Children as interned ids, in syntactic order. Each child id is
    /// strictly smaller than this node's own id.
    pub children: Vec<ExprId>,
    /// The distinct `(relation, spec)` pairs read anywhere in this
    /// node's subtree, in first-occurrence order.
    pub reads: Vec<(String, TxSpec)>,
}

impl ExprNode {
    /// Whether any read in this subtree targets `ident`.
    pub fn reads_relation(&self, ident: &str) -> bool {
        self.reads.iter().any(|(i, _)| i == ident)
    }
}

/// A hash-consing arena for [`Expr`] trees.
#[derive(Debug, Default)]
pub struct ExprInterner {
    nodes: Vec<ExprNode>,
    table: HashMap<NodeKey, ExprId>,
}

/// The structural identity of one node: operator tag, rendered payload,
/// and child ids. Rendering reuses the surface syntax (which round-trips
/// through the parser), so equal keys mean structurally equal
/// subexpressions.
#[derive(Debug, PartialEq, Eq, Hash)]
struct NodeKey {
    tag: u8,
    payload: String,
    children: Vec<ExprId>,
}

impl ExprInterner {
    /// An empty interner.
    pub fn new() -> ExprInterner {
        ExprInterner::default()
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind an id.
    pub fn node(&self, id: ExprId) -> &ExprNode {
        &self.nodes[id.index()]
    }

    /// Approximate resident bytes of the arena and hash table payloads.
    pub fn size_bytes(&self) -> usize {
        self.table
            .keys()
            .map(|k| {
                std::mem::size_of::<NodeKey>()
                    + k.payload.len()
                    + k.children.len() * std::mem::size_of::<ExprId>()
            })
            .sum::<usize>()
            + self.nodes.len() * std::mem::size_of::<ExprNode>()
    }

    /// Interns an expression tree, returning the id of its root. Every
    /// subexpression is interned along the way; structurally identical
    /// subtrees — within this call or across calls — share one id.
    pub fn intern(&mut self, expr: &Expr) -> ExprId {
        let children: Vec<ExprId> = expr.operands().iter().map(|c| self.intern(c)).collect();
        let key = NodeKey {
            tag: tag_of(expr),
            payload: payload_of(expr),
            children,
        };
        if let Some(&id) = self.table.get(&key) {
            return id;
        }
        let id = ExprId(u32::try_from(self.nodes.len()).expect("arena fits in u32"));
        let reads = self.subtree_reads(expr, &key.children);
        self.nodes.push(ExprNode {
            op: op_of(expr),
            children: key.children.clone(),
            reads,
        });
        self.table.insert(key, id);
        id
    }

    /// Drops every node not reachable from `roots` and renumbers the
    /// survivors densely, returning the old-to-new id map of the
    /// survivors. Relative order is kept, so ids stay topological and a
    /// map keyed by `ExprId` keeps its iteration order under the
    /// renumbering; interning a surviving expression again yields its
    /// new id.
    pub fn retain_reachable(
        &mut self,
        roots: impl IntoIterator<Item = ExprId>,
    ) -> HashMap<ExprId, ExprId> {
        let mut live = vec![false; self.nodes.len()];
        let mut stack: Vec<ExprId> = roots.into_iter().collect();
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut live[id.index()], true) {
                stack.extend(self.nodes[id.index()].children.iter().copied());
            }
        }
        let mut remap: HashMap<ExprId, ExprId> = HashMap::new();
        let mut nodes = Vec::new();
        for (old, mut node) in std::mem::take(&mut self.nodes).into_iter().enumerate() {
            if !live[old] {
                continue;
            }
            // Children precede their parent, so they are already mapped.
            for c in &mut node.children {
                *c = remap[c];
            }
            remap.insert(ExprId(old as u32), ExprId(nodes.len() as u32));
            nodes.push(node);
        }
        self.nodes = nodes;
        self.table = std::mem::take(&mut self.table)
            .into_iter()
            .filter_map(|(mut key, id)| {
                let id = *remap.get(&id)?;
                for c in &mut key.children {
                    *c = remap[c];
                }
                Some((key, id))
            })
            .collect();
        remap
    }

    /// The distinct `(relation, spec)` reads of a node being interned:
    /// its own rollback target (for ρ/ρ̂ leaves) plus its children's,
    /// first occurrence wins.
    fn subtree_reads(&self, expr: &Expr, children: &[ExprId]) -> Vec<(String, TxSpec)> {
        let mut reads: Vec<(String, TxSpec)> = Vec::new();
        if let Expr::Rollback(ident, spec) | Expr::HRollback(ident, spec) = expr {
            reads.push((ident.clone(), *spec));
        }
        for &c in children {
            for r in &self.nodes[c.index()].reads {
                if !reads.contains(r) {
                    reads.push(r.clone());
                }
            }
        }
        reads
    }
}

fn tag_of(expr: &Expr) -> u8 {
    match expr {
        Expr::SnapshotConst(_) => 0,
        Expr::HistoricalConst(_) => 1,
        Expr::Union(..) => 2,
        Expr::Difference(..) => 3,
        Expr::Product(..) => 4,
        Expr::Project(..) => 5,
        Expr::Select(..) => 6,
        Expr::Rollback(..) => 7,
        Expr::HUnion(..) => 8,
        Expr::HDifference(..) => 9,
        Expr::HProduct(..) => 10,
        Expr::HProject(..) => 11,
        Expr::HSelect(..) => 12,
        Expr::Delta(..) => 13,
        Expr::HRollback(..) => 14,
        Expr::Join(..) => 15,
        Expr::HJoin(..) => 16,
    }
}

/// The node's non-expression payload rendered to canonical surface
/// syntax (empty for the pure binary operators).
fn payload_of(expr: &Expr) -> String {
    let mut s = String::new();
    match expr {
        Expr::SnapshotConst(c) => write!(s, "{c}").expect("write to String"),
        Expr::HistoricalConst(c) => write!(s, "{c}").expect("write to String"),
        Expr::Union(..)
        | Expr::Difference(..)
        | Expr::Product(..)
        | Expr::HUnion(..)
        | Expr::HDifference(..)
        | Expr::HProduct(..) => {}
        Expr::Project(attrs, _) | Expr::HProject(attrs, _) => {
            write!(s, "{}", attrs.join(", ")).expect("write to String")
        }
        Expr::Select(p, _) | Expr::HSelect(p, _) => write!(s, "{p}").expect("write to String"),
        Expr::Rollback(ident, spec) | Expr::HRollback(ident, spec) => {
            write!(s, "{ident}, {spec}").expect("write to String")
        }
        Expr::Delta(g, v, _) => write!(s, "{g}; {v}").expect("write to String"),
        Expr::Join(spec, ..) | Expr::HJoin(spec, ..) => {
            write!(s, "{spec}").expect("write to String")
        }
    }
    s
}

fn op_of(expr: &Expr) -> NodeOp {
    match expr {
        Expr::SnapshotConst(_) | Expr::HistoricalConst(_) => NodeOp::Const(expr.clone()),
        Expr::Union(..) => NodeOp::Union,
        Expr::Difference(..) => NodeOp::Difference,
        Expr::Product(..) => NodeOp::Product,
        Expr::Project(attrs, _) => NodeOp::Project(attrs.clone()),
        Expr::Select(p, _) => NodeOp::Select(p.clone()),
        Expr::Rollback(ident, spec) => NodeOp::Rollback(ident.clone(), *spec),
        Expr::HUnion(..) => NodeOp::HUnion,
        Expr::HDifference(..) => NodeOp::HDifference,
        Expr::HProduct(..) => NodeOp::HProduct,
        Expr::HProject(attrs, _) => NodeOp::HProject(attrs.clone()),
        Expr::HSelect(p, _) => NodeOp::HSelect(p.clone()),
        Expr::Delta(g, v, _) => NodeOp::Delta(g.clone(), v.clone()),
        Expr::HRollback(ident, spec) => NodeOp::HRollback(ident.clone(), *spec),
        Expr::Join(spec, ..) => NodeOp::Join(spec.clone()),
        Expr::HJoin(spec, ..) => NodeOp::HJoin(spec.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_core::TransactionNumber;
    use txtime_snapshot::{Predicate, Value};

    fn query() -> Expr {
        Expr::current("r")
            .select(Predicate::gt_const("x", Value::Int(1)))
            .union(Expr::current("r").select(Predicate::gt_const("x", Value::Int(9))))
    }

    #[test]
    fn identical_expressions_share_one_id() {
        let mut i = ExprInterner::new();
        let a = i.intern(&query());
        let n = i.len();
        let b = i.intern(&query());
        assert_eq!(a, b);
        assert_eq!(i.len(), n, "re-interning allocates nothing");
    }

    #[test]
    fn common_subexpressions_share_within_one_sentence() {
        let mut i = ExprInterner::new();
        let root = i.intern(&query());
        // ρ(r, ∞) appears twice but interns once: the tree has 5 distinct
        // nodes (ρ, σ>1, σ>9, ∪) — 4, not 5.
        assert_eq!(i.len(), 4);
        let node = i.node(root);
        assert!(matches!(node.op, NodeOp::Union));
        let left = i.node(node.children[0]);
        let right = i.node(node.children[1]);
        assert_eq!(left.children[0], right.children[0], "shared rho leaf");
    }

    #[test]
    fn distinct_payloads_get_distinct_ids() {
        let mut i = ExprInterner::new();
        let a = i.intern(&Expr::current("r"));
        let b = i.intern(&Expr::rollback("r", TxSpec::At(TransactionNumber(3))));
        let c = i.intern(&Expr::hcurrent("r"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn ids_are_topological() {
        let mut i = ExprInterner::new();
        let root = i.intern(&query());
        for (idx, node) in (0..i.len()).map(|k| (k, i.node(ExprId(k as u32)))) {
            for c in &node.children {
                assert!(c.index() < idx, "child precedes parent");
            }
        }
        assert_eq!(root.index(), i.len() - 1);
    }

    #[test]
    fn reads_collect_distinct_relation_spec_pairs() {
        let mut i = ExprInterner::new();
        let id =
            i.intern(&query().difference(Expr::rollback("s", TxSpec::At(TransactionNumber(2)))));
        let node = i.node(id);
        assert_eq!(
            node.reads,
            vec![
                ("r".to_string(), TxSpec::Current),
                ("s".to_string(), TxSpec::At(TransactionNumber(2))),
            ]
        );
        assert!(node.reads_relation("r"));
        assert!(!node.reads_relation("ghost"));
    }

    #[test]
    fn retain_reachable_renumbers_survivors_and_keeps_identity() {
        let mut i = ExprInterner::new();
        let dead = i.intern(&Expr::current("gone").select(Predicate::True));
        let kept = i.intern(&query());
        let before = i.len();
        let remap = i.retain_reachable([kept]);
        assert_eq!(i.len(), 4, "the query's four nodes survive");
        assert!(i.len() < before);
        assert!(!remap.contains_key(&dead));
        let new_kept = remap[&kept];
        assert_eq!(new_kept.index(), i.len() - 1, "ids stay topological");
        for node in (0..i.len()).map(|k| i.node(ExprId(k as u32))) {
            assert!(node.children.iter().all(|c| c.index() < i.len()));
        }
        // Re-interning a survivor finds it; a dropped expression is new.
        assert_eq!(i.intern(&query()), new_kept);
        assert_eq!(i.len(), 4);
        i.intern(&Expr::current("gone"));
        assert_eq!(i.len(), 5);
    }

    #[test]
    fn size_bytes_grows_with_arena() {
        let mut i = ExprInterner::new();
        assert!(i.is_empty());
        let before = i.size_bytes();
        i.intern(&query());
        assert!(i.size_bytes() > before);
    }
}
