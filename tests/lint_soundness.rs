//! Lint-soundness differential tests: every fact `txtime-lint` states
//! must hold in the actual execution, with the view memo on and off.
//!
//! Three properties, each over random spiced command sequences:
//!
//! 1. **Claims hold.** A provably-∅ claim means the claimed
//!    subexpression evaluates to ∅; an equals-operand claim means the
//!    operator returns its operand's value; an equals-current-rollback
//!    claim means `ρ(I, n)` beyond the clock equals `ρ(I, inf)` — all
//!    verified by evaluating both sides, memo on and off.
//! 2. **Cardinality bounds contain reality.** Every subexpression's
//!    static [`CardInterval`] contains the evaluated cardinality, and
//!    the end-of-sentence [`StatsCatalog`] intervals contain the true
//!    cardinality (and value ranges the true values) of every stored
//!    version.
//! 3. **Dead writes are dead.** Neutering every write the linter proved
//!    dead (replacing its expression with `σ_false` of itself) changes
//!    no display output and no final relation state.

use proptest::prelude::*;
use txtime::snapshot::rng::rngs::StdRng;
use txtime::snapshot::rng::{Rng, SeedableRng};

use txtime::analyze::{
    analyze_expr, claim_target, lint_sentence, Checker, ClaimKind, ExprInterner, Linter, ValueRange,
};
use txtime::core::generate::{random_commands, CmdGenConfig};
use txtime::core::{
    Command, CommandOutcome, Expr, RelationType, SchemeChange, Sentence, TransactionNumber, TxSpec,
};
use txtime::snapshot::generate::GenConfig;
use txtime::snapshot::{DomainType, Predicate, Schema, Value};
use txtime::storage::{BackendKind, CheckpointPolicy, Engine};

fn schema() -> Schema {
    Schema::new(vec![("a0", DomainType::Int), ("a1", DomainType::Str)]).unwrap()
}

fn gen_cfg() -> CmdGenConfig {
    CmdGenConfig {
        values: GenConfig {
            arity: 2,
            cardinality: 8,
            int_range: 12,
            str_pool: 4,
        },
        relations: vec!["r0".into(), "r1".into()],
        churn: 0.4,
    }
}

/// A random query over the generated relations, biased toward shapes the
/// lint pass has judgments for: out-of-range rollbacks (W006/W007),
/// contradictory and vacuous selections against the statistics catalog's
/// value ranges (W001/W002), self-differences (W004), and identity
/// projections (W005).
fn random_query(rng: &mut StdRng) -> Expr {
    fn leaf(rng: &mut StdRng, rel: &str) -> Expr {
        if rng.gen_bool(0.6) {
            Expr::current(rel)
        } else {
            // Deliberately spans [1, 20]: below the first version, inside
            // the history, and beyond the clock are all reachable.
            Expr::rollback(rel, TxSpec::At(TransactionNumber(rng.gen_range(1..21))))
        }
    }
    let rel = if rng.gen_bool(0.5) { "r0" } else { "r1" };
    match rng.gen_range(0..8) {
        0 => leaf(rng, rel),
        1 => {
            let c = rng.gen_range(-20i64..21);
            leaf(rng, rel).select(Predicate::gt_const("a0", Value::Int(c)))
        }
        2 => {
            // Sometimes contradictory (lo ≥ hi), sometimes narrow.
            let lo = rng.gen_range(-15i64..16);
            let hi = rng.gen_range(-15i64..16);
            leaf(rng, rel).select(
                Predicate::gt_const("a0", Value::Int(lo))
                    .and(Predicate::lt_const("a0", Value::Int(hi))),
            )
        }
        3 => {
            let l = leaf(rng, rel);
            let r = leaf(rng, rel);
            l.minus_expr(r)
        }
        4 => {
            let e = leaf(rng, rel);
            e.clone().minus_expr(e)
        }
        5 => leaf(rng, rel).project(vec!["a0".to_string(), "a1".to_string()]),
        6 => leaf(rng, rel).project(vec!["a1".to_string()]),
        7 => leaf(rng, rel).union(Expr::current(if rel == "r0" { "r1" } else { "r0" })),
        _ => unreachable!(),
    }
}

/// `minus` without consuming ambiguity with std's `Sub`.
trait MinusExt {
    fn minus_expr(self, other: Expr) -> Expr;
}
impl MinusExt for Expr {
    fn minus_expr(self, other: Expr) -> Expr {
        self.difference(other)
    }
}

/// Random workload: generated modify_states over two rollback relations,
/// spiced with displays of lint-interesting queries, a delete/redefine,
/// and a scheme evolution.
fn arb_commands() -> impl Strategy<Value = Vec<Command>> {
    (any::<u64>(), 4usize..16).prop_map(|(seed, len)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cmds = random_commands(&mut rng, &schema(), &gen_cfg(), len);
        let defines = gen_cfg().relations.len();
        let mut spice: Vec<Command> = (0..6)
            .map(|_| Command::display(random_query(&mut rng)))
            .collect();
        spice.push(Command::delete_relation("r1"));
        spice.push(Command::define_relation("r1", RelationType::Rollback));
        spice.push(Command::evolve_scheme(
            "r0",
            SchemeChange::AddAttribute {
                name: "extra".into(),
                domain: DomainType::Bool,
                default: Value::Bool(false),
            },
        ));
        for s in spice {
            let pos = rng.gen_range(defines..=cmds.len());
            cmds.insert(pos, s);
        }
        cmds
    })
}

/// Memo on/off: the lint's claims must hold on each.
fn all_engines() -> Vec<(String, Engine)> {
    let mut engines = Vec::new();
    for memo in [true, false] {
        let engine = Engine::new(
            BackendKind::ForwardDelta,
            CheckpointPolicy::every_k(3).unwrap(),
        );
        if !memo {
            engine.set_memo_capacity(0);
        }
        engines.push((format!("memo={memo}"), engine));
    }
    engines
}

/// Collects every distinct subexpression (including the root).
fn subtrees<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    out.push(e);
    for c in e.operands() {
        subtrees(c, out);
    }
}

/// The current-state query matching a relation's kind.
fn current_of(rtype: RelationType, name: &str) -> Expr {
    match rtype {
        RelationType::Historical | RelationType::Temporal => Expr::hcurrent(name),
        _ => Expr::current(name),
    }
}

/// The as-of query matching a relation's kind.
fn rollback_of(rtype: RelationType, name: &str, tx: TransactionNumber) -> Expr {
    match rtype {
        RelationType::Historical | RelationType::Temporal => Expr::hrollback(name, TxSpec::At(tx)),
        _ => Expr::rollback(name, TxSpec::At(tx)),
    }
}

/// Asserts a state's tuples fall inside the per-attribute value ranges.
fn assert_ranges_contain(state: &txtime::core::StateValue, ranges: &[ValueRange], context: &str) {
    use txtime::core::StateValue;
    let check = |tuples: Vec<&txtime::snapshot::Tuple>| {
        for t in tuples {
            for (i, r) in ranges.iter().enumerate() {
                assert!(
                    r.contains(t.get(i)),
                    "{context}: value {:?} escapes static range {r:?} at position {i}",
                    t.get(i)
                );
            }
        }
    };
    match state {
        StateValue::Snapshot(s) => check(s.iter().collect()),
        StateValue::Historical(h) => check(h.iter().map(|(t, _)| t).collect()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Properties 1 and 2: replay the sentence command-by-command (the
    /// REPL discipline — check, execute everywhere, commit), verifying
    /// every expression-level claim and cardinality bound against every
    /// engine at the moment the claim is made, and the statistics
    /// catalog against the surviving relations at the end.
    #[test]
    fn lint_claims_and_bounds_hold_on_every_engine(cmds in arb_commands()) {
        let mut linter = Linter::new();
        let mut engines = all_engines();
        let mut interner = ExprInterner::new();

        for cmd in &cmds {
            if !linter.check(cmd, None).is_empty() {
                continue; // erroring commands are no-ops everywhere
            }
            if let Some(e) = cmd.expr() {
                let analysis = analyze_expr(e, None, linter.catalog(), linter.stats(), &mut interner);
                // Claims: machine-checkable warning content, against the
                // pre-command state of every engine.
                for claim in &analysis.claims {
                    let node = claim_target(e, claim);
                    for (label, engine) in &engines {
                        match &claim.kind {
                            ClaimKind::Empty => {
                                let got = engine.eval(node).expect("claimed node evaluates");
                                prop_assert_eq!(
                                    got.len(), 0,
                                    "{}: ∅-claimed `{}` evaluated to {} tuples", label, node, got.len()
                                );
                            }
                            ClaimKind::EqualsOperand => {
                                let got = engine.eval(node).expect("claimed node evaluates");
                                let want = engine.eval(node.operands()[0]).expect("operand evaluates");
                                prop_assert_eq!(
                                    &got, &want,
                                    "{}: `{}` claimed equal to its operand", label, node
                                );
                            }
                            ClaimKind::EqualsCurrentRollback => {
                                let current = match node {
                                    Expr::Rollback(ident, _) => Expr::rollback(ident.clone(), TxSpec::Current),
                                    Expr::HRollback(ident, _) => Expr::hrollback(ident.clone(), TxSpec::Current),
                                    other => panic!("rollback claim on non-rollback {other}"),
                                };
                                let got = engine.eval(node).expect("claimed node evaluates");
                                let want = engine.eval(&current).expect("current evaluates");
                                prop_assert_eq!(
                                    &got, &want,
                                    "{}: `{}` claimed to resolve to the current version", label, node
                                );
                            }
                        }
                    }
                }
                // Bounds: every subexpression's static interval contains
                // its true cardinality (reference engine suffices — all
                // engines are pinned equivalent by the differential suite).
                let mut nodes = Vec::new();
                subtrees(e, &mut nodes);
                let reference = &engines[0].1;
                for sub in nodes {
                    let id = interner.intern(sub);
                    // `bounds` covers every distinct node of the interned
                    // DAG, so the lookup must succeed.
                    let bound = analysis
                        .bounds
                        .iter()
                        .find(|(b, _)| *b == id)
                        .map(|(_, c)| *c)
                        .unwrap_or_else(|| panic!("no bound recorded for `{sub}`"));
                    let got = reference.eval(sub).expect("subexpression evaluates");
                    prop_assert!(
                        bound.contains(got.len() as u64),
                        "static bound {bound:?} excludes true cardinality {} of `{sub}`",
                        got.len()
                    );
                }
            }
            for (label, engine) in &mut engines {
                engine.execute(cmd).unwrap_or_else(|e| panic!("{label}: clean command failed: {e}"));
            }
            linter.commit(cmd, None);
        }

        // The statistics catalog: every surviving relation's recorded
        // versions must contain the true cardinalities and value ranges.
        let reference = &engines[0].1;
        let names: Vec<String> = linter.stats().names().map(str::to_string).collect();
        for name in names {
            let rtype = linter.catalog().get(&name).expect("stats ⊆ catalog").rtype;
            let rs = linter.stats().get(&name).expect("listed");
            for v in &rs.versions {
                let q = if rtype.keeps_history() {
                    rollback_of(rtype, &name, v.tx)
                } else {
                    current_of(rtype, &name)
                };
                let got = reference.eval(&q).expect("stored version evaluates");
                prop_assert!(
                    v.card.contains(got.len() as u64),
                    "stats interval {:?} excludes true cardinality {} of {name} at tx {}",
                    v.card, got.len(), v.tx.0
                );
                if let Some(ranges) = &v.ranges {
                    assert_ranges_contain(&got, ranges, &format!("{name}@tx{}", v.tx.0));
                }
            }
        }
    }

    /// Property 3: neutering every dead write (σ_false of its own
    /// expression, preserving schema and transaction numbering) changes
    /// no display output and no surviving relation's final state.
    #[test]
    fn dead_writes_are_observationally_dead(cmds in arb_commands()) {
        let sentence = Sentence::new(cmds.clone()).expect("generated commands form a sentence");
        let report = lint_sentence(&sentence, None);
        if report.dead_writes.is_empty() {
            return Ok(()); // nothing proved dead in this case
        }

        // Neuter each dead write, picking σ̂ for historical-kind writes.
        let mut types: std::collections::BTreeMap<String, RelationType> = Default::default();
        let mut mutated = cmds.clone();
        let mut seen_errors = Checker::new();
        for (i, cmd) in cmds.iter().enumerate() {
            // Track types through the *clean* prefix exactly as the
            // linter did (erroring commands are no-ops).
            let clean = seen_errors.check(cmd, None).is_empty();
            if clean {
                seen_errors.commit(cmd);
                if let Command::DefineRelation(ident, rtype) = cmd {
                    types.insert(ident.clone(), *rtype);
                }
            }
            if report.dead_writes.contains(&i) {
                if let Command::ModifyState(ident, e) = cmd {
                    let historical = matches!(
                        types.get(ident),
                        Some(RelationType::Historical | RelationType::Temporal)
                    );
                    let neutered = if historical {
                        e.clone().hselect(Predicate::False)
                    } else {
                        e.clone().select(Predicate::False)
                    };
                    mutated[i] = Command::modify_state(ident.clone(), neutered);
                }
            }
        }

        let run = |commands: &[Command]| {
            let mut engine = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::every_k(3).unwrap());
            let mut checker = Checker::new();
            let mut displays = Vec::new();
            for cmd in commands {
                if !checker.check(cmd, None).is_empty() {
                    continue;
                }
                if let CommandOutcome::Displayed(state) =
                    engine.execute(cmd).expect("clean command executes")
                {
                    displays.push(state);
                }
                checker.commit(cmd);
            }
            let finals: Vec<_> = engine
                .relations()
                .iter()
                .map(|name| {
                    let rtype = engine.relation_type(name).expect("listed");
                    (name.to_string(), engine.eval(&current_of(rtype, name)).ok())
                })
                .collect();
            (displays, finals)
        };
        let (displays_orig, finals_orig) = run(&cmds);
        let (displays_mut, finals_mut) = run(&mutated);
        prop_assert_eq!(
            &displays_orig, &displays_mut,
            "neutering dead writes changed a display"
        );
        prop_assert_eq!(
            &finals_orig, &finals_mut,
            "neutering dead writes changed a final state"
        );
    }
}

/// The warnings themselves never contradict execution on the checked-in
/// example scripts: they lint clean, so nothing to contradict — pinned
/// here so the CI lint-scripts gate and the test suite agree.
#[test]
fn example_scripts_lint_clean() {
    for entry in std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/examples/scripts"))
        .expect("scripts directory exists")
    {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("txq") {
            continue;
        }
        let source = std::fs::read_to_string(&path).expect("script reads");
        let (sentence, spans) =
            txtime::parser::parse_sentence_spanned(&source).expect("script parses");
        let report = lint_sentence(&sentence, Some(&spans));
        assert!(
            report.diagnostics.is_empty(),
            "{}: {:#?}",
            path.display(),
            report.diagnostics
        );
        assert!(
            report.warnings.is_empty(),
            "{}: {:#?}",
            path.display(),
            report.warnings
        );
    }
}
