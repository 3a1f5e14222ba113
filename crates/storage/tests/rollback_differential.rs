//! Differential tests for the rollback read path: a past read must cost
//! what it returns and still be unobservable. Composed replay, key-range
//! selection, the filtered replay and the version difference a delta
//! store reads off its chain all answer `ρ(I, n)` shapes, and every
//! answer — value *and* error text — must be the `txtime-core`
//! evaluator's.
//!
//! Generated histories (one-row updates in the benchmark's shape, bulk
//! replaces, appends and deletes, scheme evolution, a relation deleted
//! and redefined with the other kind, `compact`, `archive_before`) run
//! on the oracle and on engines with memo on/off ×
//! `EveryK(1)`/`EveryK(3)`/`EveryK(16)`/`Never`. Then every probe shape is asked at
//! every transaction number from before the first version to beyond the
//! clock:
//!
//! * `ρ(I, n)`, `σ_F(ρ(I, n))` with `F` an `=`/`<`/`≤`/`>`/`≥` on the
//!   leading attribute, a two-sided range, a pinned two-attribute prefix,
//!   a non-leading attribute, ∧/∨/¬ mixes, an unknown attribute and a
//!   domain mismatch; `π(σ(ρ))`;
//! * `ρ(I, n₂) − ρ(I, n₁)` with n₂ >, = and < n₁, near and far, across
//!   checkpoints and scheme changes, before the first version and beyond
//!   the clock;
//! * the hatted twins of all of them, and each operator on a relation of
//!   the other kind (the error text).
//!
//! A version difference is also checked against the engine's own two
//! leaves subtracted here, which still holds below an archival cutoff,
//! where the oracle remembers versions the engine dropped. One history
//! folds its chains every third step and once more before the reads. A
//! last test drives the delta store directly, through scheme and kind
//! boundaries no engine command can put into one chain, and holds
//! `version_difference` to "the plain answer, or decline".

use std::collections::HashMap;

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::{Command, Database, Expr, StateValue, TransactionNumber, TxSpec};
use txtime_historical::{HistoricalState, TemporalElement};
use txtime_parser::parse_command;
use txtime_snapshot::{
    CompOp, DomainType, Operand, Predicate, Schema, SnapshotState, Tuple, Value,
};
use txtime_storage::{BackendKind, CheckpointPolicy, DeltaStore, Engine};

/// Rows of a freshly loaded relation; ids are drawn from twice as many.
const ROWS: i64 = 12;

/// One step of a history.
enum Step {
    /// A command, for the oracle and every engine.
    Run(String),
    /// `Engine::compact` at this interval (the oracle has nothing to fold).
    Compact(usize),
    /// `Engine::archive_before` on the relation at the transaction number
    /// this many per cent of the way through the clock so far.
    Archive(&'static str, u64),
}

/// The attributes of `acct` as the history evolves them, in scheme order.
#[derive(Clone)]
struct Scheme(Vec<&'static str>);

impl Scheme {
    fn text(&self) -> String {
        let attrs: Vec<String> = self
            .0
            .iter()
            .map(|a| format!("{a}: {}", if *a == "owner" { "str" } else { "int" }))
            .collect();
        format!("({})", attrs.join(", "))
    }

    fn row(&self, id: i64, rng: &mut StdRng) -> String {
        let values: Vec<String> = self
            .0
            .iter()
            .map(|a| match *a {
                "id" => id.to_string(),
                "owner" => format!("\"o{}\"", rng.gen_range(0..4)),
                _ => rng.gen_range(0..50i64).to_string(),
            })
            .collect();
        format!("({})", values.join(", "))
    }

    fn literal(&self, ids: impl Iterator<Item = i64>, rng: &mut StdRng) -> String {
        let rows: Vec<String> = ids.map(|id| self.row(id, rng)).collect();
        format!("{{{}: {}}}", self.text(), rows.join(", "))
    }
}

fn historical_literal(rng: &mut StdRng, rows: usize) -> String {
    let rows: Vec<String> = (0..rows)
        .map(|_| {
            let from = rng.gen_range(0..20u32);
            format!(
                "({}, \"o{}\") @ {{[{from}, {})}}",
                rng.gen_range(0..2 * ROWS),
                rng.gen_range(0..3),
                from + rng.gen_range(1..10u32)
            )
        })
        .collect();
    format!("historical {{(id: int, owner: str): {}}}", rows.join(", "))
}

/// A history over `acct` (rollback: keyed updates, bulk replaces, scheme
/// evolution, compaction, archival), `temp` (temporal: the hatted
/// updates) and `flip` (deleted and redefined with the other kind).
fn history(seed: u64, len: usize) -> Vec<Step> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rng = &mut rng;
    let mut scheme = Scheme(vec!["id", "owner", "bal"]);
    let mut flip_is_temporal = false;
    let run = |s: String| Step::Run(s);
    let mut steps = vec![
        run("define_relation(acct, rollback)".into()),
        run("define_relation(temp, temporal)".into()),
        run("define_relation(flip, rollback)".into()),
        run(format!(
            "modify_state(acct, {})",
            scheme.literal(0..ROWS, rng)
        )),
        run(format!(
            "modify_state(temp, {})",
            historical_literal(rng, 6)
        )),
        run(format!("modify_state(flip, {})", scheme.literal(0..4, rng))),
    ];
    for i in 0..len {
        let id = rng.gen_range(0..2 * ROWS);
        let step = match rng.gen_range(0..100) {
            // The benchmark's update: one id out, one row in.
            0..=44 => run(format!(
                "modify_state(acct, (rho(acct, inf) minus select[id = {id}](rho(acct, inf))) union {})",
                scheme.literal(std::iter::once(id), rng)
            )),
            // A bulk replace: a constant right-hand side, the plain path.
            45..=52 => {
                let from = rng.gen_range(0..ROWS);
                run(format!(
                    "modify_state(acct, {})",
                    scheme.literal(from..from + ROWS, rng)
                ))
            }
            53..=58 => run(format!(
                "modify_state(acct, select[not id > {id}](rho(acct, inf)))"
            )),
            59..=64 => run(format!(
                "modify_state(acct, rho(acct, inf) union {})",
                scheme.literal(id..id + 3, rng)
            )),
            65..=76 => {
                let op = if rng.gen_bool(0.5) { "hunion" } else { "hminus" };
                run(format!(
                    "modify_state(temp, hrho(temp, inf) {op} {})",
                    historical_literal(rng, 3)
                ))
            }
            // A write that changes nothing still adds a version.
            77..=79 => run("modify_state(acct, rho(acct, inf))".into()),
            80..=84 => match scheme.0.iter().position(|a| *a == "owner") {
                Some(at) => {
                    scheme.0.remove(at);
                    run("evolve_scheme(acct, drop owner)".into())
                }
                None => {
                    scheme.0.push("owner");
                    run("evolve_scheme(acct, add owner: str default \"n\")".into())
                }
            },
            85..=89 => Step::Compact(rng.gen_range(2..6)),
            90..=93 => {
                steps.push(run("delete_relation(flip)".into()));
                flip_is_temporal = !flip_is_temporal;
                let (kind, state) = if flip_is_temporal {
                    ("temporal", historical_literal(rng, 4))
                } else {
                    ("rollback", Scheme(vec!["id", "owner"]).literal(0..4, rng))
                };
                steps.push(run(format!("define_relation(flip, {kind})")));
                run(format!("modify_state(flip, {state})"))
            }
            // Archival only once there is a history to cut.
            94..=96 if i > len / 2 => Step::Archive("acct", rng.gen_range(20..60)),
            _ => {
                let (hat, state) = if flip_is_temporal {
                    ("h", historical_literal(rng, 4))
                } else {
                    // Whatever scheme `flip` was last given.
                    ("", String::new())
                };
                if state.is_empty() {
                    run(format!(
                        "modify_state(flip, select[not id = {}](rho(flip, inf)))",
                        id % 4
                    ))
                } else {
                    run(format!(
                        "modify_state(flip, {hat}rho(flip, inf) {hat}union {state})"
                    ))
                }
            }
        };
        steps.push(step);
    }
    steps
}

/// An engine of the matrix.
struct Rig {
    engine: Engine,
    memo: bool,
    label: String,
}

/// Memo off/on × four checkpoint policies, every version whole among
/// them.
fn rigs() -> Vec<Rig> {
    let policies = [
        CheckpointPolicy::every_k(1).unwrap(),
        CheckpointPolicy::every_k(3).unwrap(),
        CheckpointPolicy::every_k(16).unwrap(),
        CheckpointPolicy::Never,
    ];
    let mut rigs = Vec::new();
    for memo in [false, true] {
        for policy in policies {
            let mut engine = Engine::new(BackendKind::ForwardDelta, policy);
            // Histories are short: let auto-compaction meet them.
            engine.set_auto_compact(std::num::NonZeroUsize::new(8));
            if !memo {
                engine.set_memo_capacity(0);
            }
            rigs.push(Rig {
                engine,
                memo,
                label: format!("{policy:?}, memo {memo}"),
            });
        }
    }
    rigs
}

/// Runs `steps` on the oracle and on every rig, commands in lockstep
/// (same outcome, same error text). Returns the oracle and, per
/// relation, the transaction number below which an engine may have
/// archived versions the oracle still holds.
fn drive(steps: &[Step], rigs: &mut [Rig]) -> (Database, Vec<(&'static str, u64)>) {
    let mut oracle = Database::empty();
    let mut cutoffs: Vec<(&'static str, u64)> = Vec::new();
    for step in steps {
        match step {
            Step::Run(source) => {
                let cmd: Command =
                    parse_command(source).unwrap_or_else(|e| panic!("{source}: {e}"));
                let want = cmd.execute(&oracle);
                for rig in rigs.iter_mut() {
                    let got = rig.engine.execute(&cmd);
                    match (&want, &got) {
                        (Ok(_), Ok(_)) => {}
                        (Err(a), Err(b)) => {
                            assert_eq!(a.to_string(), b.to_string(), "{}: {source}", rig.label)
                        }
                        _ => panic!("{}: {source}: engine {got:?}", rig.label),
                    }
                }
                if let Ok((next, _)) = want {
                    oracle = next;
                }
            }
            Step::Compact(every) => {
                for rig in rigs.iter_mut() {
                    rig.engine.compact(std::num::NonZeroUsize::new(*every));
                }
            }
            Step::Archive(ident, percent) => {
                let before = oracle.tx.0 * percent / 100;
                for rig in rigs.iter_mut() {
                    rig.engine
                        .archive_before(ident, TransactionNumber(before), None)
                        .unwrap_or_else(|e| panic!("{}: archive: {e}", rig.label));
                }
                cutoffs.retain(|(name, _)| name != ident);
                cutoffs.push((*ident, before));
            }
        }
    }
    (oracle, cutoffs)
}

fn at(n: u64) -> TxSpec {
    TxSpec::At(TransactionNumber(n))
}

fn comp(attr: &str, op: CompOp, v: Value) -> Predicate {
    Predicate::Comp(Operand::attr(attr), op, Operand::Const(v))
}

/// The selection predicates of the probe shapes, over `(id, owner, bal)`
/// (whichever of them a version's scheme still has decides between a
/// value and an error).
fn predicates(n: u64) -> Vec<Predicate> {
    let k = Value::Int((n % (2 * ROWS as u64)) as i64);
    let hi = Value::Int((n % (2 * ROWS as u64)) as i64 + 5);
    let id = |op| comp("id", op, k.clone());
    vec![
        id(CompOp::Eq),
        id(CompOp::Lt),
        id(CompOp::Le),
        id(CompOp::Gt),
        id(CompOp::Ge),
        id(CompOp::Ne),
        // A two-sided range and a pinned two-attribute prefix.
        id(CompOp::Ge).and(comp("id", CompOp::Lt, hi.clone())),
        id(CompOp::Eq).and(comp("owner", CompOp::Eq, Value::str("o1"))),
        id(CompOp::Eq).and(comp("owner", CompOp::Ge, Value::str("o2"))),
        // The constant on the left.
        Predicate::Comp(Operand::Const(k.clone()), CompOp::Lt, Operand::attr("id")),
        // Non-leading attributes, alone and beside the key.
        comp("bal", CompOp::Lt, Value::Int(25)),
        comp("owner", CompOp::Eq, Value::str("o0")),
        id(CompOp::Le).and(comp("bal", CompOp::Ge, Value::Int(10))),
        // ∨ and ¬ keep the whole run.
        id(CompOp::Eq).or(comp("bal", CompOp::Eq, Value::Int(7))),
        id(CompOp::Eq).not(),
        id(CompOp::Lt).and(id(CompOp::Eq).not().or(comp("id", CompOp::Gt, hi))),
        // Errors: an unknown attribute, a domain mismatch.
        comp("nope", CompOp::Eq, Value::Int(1)),
        comp("id", CompOp::Eq, Value::str("x")),
    ]
}

fn leaf(ident: &str, hatted: bool, n: u64) -> Expr {
    if hatted {
        Expr::hrollback(ident, at(n))
    } else {
        Expr::rollback(ident, at(n))
    }
}

/// The single-leaf probe shapes over `ident` at transaction `n`,
/// `hatted` or not: the leaf, its projection, and a third of the
/// selections (a different third at each `n`), some projected.
fn probes(ident: &str, hatted: bool, n: u64) -> Vec<Expr> {
    let select = |e: Expr, p: Predicate| if hatted { e.hselect(p) } else { e.select(p) };
    let project = |e: Expr| {
        let attrs = vec!["id".to_string()];
        if hatted {
            e.hproject(attrs)
        } else {
            e.project(attrs)
        }
    };
    let mut out = vec![leaf(ident, hatted, n), project(leaf(ident, hatted, n))];
    for (i, p) in predicates(n).into_iter().enumerate() {
        if !(i as u64 + n).is_multiple_of(3) {
            continue;
        }
        let selected = select(leaf(ident, hatted, n), p);
        if i % 2 == 0 {
            out.push(project(selected.clone()));
        }
        out.push(selected);
    }
    out
}

/// The transaction numbers a difference from `n` reaches to: itself, its
/// neighbours, across a checkpoint interval either way, the two ends.
fn spans(n: u64, clock: u64) -> Vec<u64> {
    let mut others = vec![n, n + 1, n + 2, n + 5, n + 17, 0, clock + 2];
    others.extend([1, 3, 16].iter().filter_map(|d| n.checked_sub(*d)));
    others
}

/// An evaluation as the comparisons see it: the state, or the error text.
type Outcome = Result<StateValue, String>;

fn outcome(r: Result<StateValue, txtime_core::EvalError>) -> Outcome {
    r.map_err(|e| e.to_string())
}

/// What the test itself makes of `l − r` (`l −̂ r`) from the two sides'
/// outcomes, when both are states of one kind.
fn subtract(l: &Outcome, r: &Outcome) -> Option<StateValue> {
    match (l, r) {
        (Ok(StateValue::Snapshot(l)), Ok(StateValue::Snapshot(r))) => {
            l.difference(r).ok().map(StateValue::Snapshot)
        }
        (Ok(StateValue::Historical(l)), Ok(StateValue::Historical(r))) => {
            l.hdifference(r).ok().map(StateValue::Historical)
        }
        _ => None,
    }
}

/// Asks `rig` for `probe` and returns its answer: once with the memo
/// off; with it on, every fourth probe three times over (the second
/// asking registers the view, the third is answered from it).
fn ask(rig: &Rig, probe: &Expr, nth: usize, want: Option<&Outcome>) -> Outcome {
    let passes = if rig.memo && nth.is_multiple_of(4) {
        3
    } else {
        1
    };
    let mut got = None;
    for pass in 0..passes {
        let answer = outcome(rig.engine.eval(probe));
        if let Some(want) = want {
            assert_eq!(&answer, want, "{}: pass {pass}: {probe}", rig.label);
        }
        if let Some(first) = &got {
            assert_eq!(&answer, first, "{}: pass {pass}: {probe}", rig.label);
        }
        got.get_or_insert(answer);
    }
    got.expect("asked at least once")
}

/// Asks every rig every probe and compares with the oracle (from each
/// relation's archival cutoff on) and, for a version difference, with
/// the rig's own two leaves subtracted here (everywhere).
fn check(oracle: &Database, cutoffs: &[(&'static str, u64)], rigs: &[Rig]) {
    let clock = oracle.tx.0;
    for ident in ["acct", "temp", "flip", "ghost"] {
        let holds_historical = oracle
            .state
            .lookup(ident)
            .is_some_and(|r| r.rtype().holds_historical());
        let cutoff = cutoffs
            .iter()
            .find(|(name, _)| *name == ident)
            .map_or(0, |(_, tx)| *tx);
        for hatted in [false, true] {
            // The operator of the other kind, and any operator on a
            // relation that does not exist, is an error whatever `n`
            // is: a few of them say so.
            let sparse = hatted != holds_historical || ident == "ghost";
            let all_times: Vec<u64> = (0..=clock + 2)
                .filter(|n| !sparse || n.is_multiple_of(9))
                .collect();
            let mut asked: Vec<(u64, Expr, Option<Outcome>)> = Vec::new();
            for &n in &all_times {
                for probe in probes(ident, hatted, n) {
                    let want = (n >= cutoff).then(|| outcome(probe.eval(oracle)));
                    asked.push((n, probe, want));
                }
            }
            let oracle_leaf = |n: u64| outcome(leaf(ident, hatted, n).eval(oracle));
            for rig in rigs {
                for (nth, (_, probe, want)) in asked.iter().enumerate() {
                    let _ = ask(rig, probe, nth, want.as_ref());
                }
                // Each leaf a difference names, resolved once per rig.
                let mut leaves: HashMap<u64, Outcome> = HashMap::new();
                let mut rig_leaf = |n: u64| {
                    let resolve = || outcome(rig.engine.eval(&leaf(ident, hatted, n)));
                    leaves.entry(n).or_insert_with(resolve).clone()
                };
                let mut nth = 0;
                for &n in &all_times {
                    for other in spans(n, clock) {
                        let (l, r) = (leaf(ident, hatted, n), leaf(ident, hatted, other));
                        let probe = if hatted {
                            l.hdifference(r)
                        } else {
                            l.difference(r)
                        };
                        // The oracle's leaves give its difference, or
                        // the probe itself its error.
                        let want = (n.min(other) >= cutoff).then(|| {
                            match subtract(&oracle_leaf(n), &oracle_leaf(other)) {
                                Some(state) => Ok(state),
                                None => outcome(probe.eval(oracle)),
                            }
                        });
                        let got = ask(rig, &probe, nth, want.as_ref());
                        nth += 1;
                        if let Some(plain) = subtract(&rig_leaf(n), &rig_leaf(other)) {
                            assert_eq!(got, Ok(plain), "{}: {probe}", rig.label);
                        }
                    }
                }
            }
        }
    }
}

fn version_diffs(e: &Engine) -> u64 {
    let exec = e.exec_stats();
    exec.ops
        .iter()
        .find(|o| o.name == "version-diff")
        .unwrap()
        .calls
}

/// Every store read a difference off its chain: a checkpoint keeps its
/// link, so even a store holding every version whole answers there.
fn check_every_store_answered_off_its_chain(rigs: &[Rig]) {
    for rig in rigs {
        assert!(version_diffs(&rig.engine) > 0, "{}", rig.label);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn generated_histories_read_back_as_the_oracle_reads_them(seed in any::<u64>()) {
        let steps = history(seed, 36);
        let mut rigs = rigs();
        let (oracle, cutoffs) = drive(&steps, &mut rigs);
        check(&oracle, &cutoffs, &rigs);
        check_every_store_answered_off_its_chain(&rigs);
    }
}

/// A fixed history that is sure to hold every ingredient: updates on
/// both sides of checkpoint positions, a scheme change and its undoing, a
/// compaction, a kind flip, an archival, and writes after each.
#[test]
fn a_history_with_every_ingredient_reads_back_as_the_oracle_reads_it() {
    let mut rng = StdRng::seed_from_u64(1987);
    let rng = &mut rng;
    let mut scheme = Scheme(vec!["id", "owner", "bal"]);
    let update = |scheme: &Scheme, id: i64, rng: &mut StdRng| {
        Step::Run(format!(
            "modify_state(acct, (rho(acct, inf) minus select[id = {id}](rho(acct, inf))) union {})",
            scheme.literal(std::iter::once(id), rng)
        ))
    };
    let mut steps = history(7, 0);
    for id in 0..20 {
        steps.push(update(&scheme, id % 7, rng));
    }
    steps.push(Step::Run(format!(
        "modify_state(acct, {})",
        scheme.literal(3..3 + ROWS, rng)
    )));
    steps.push(Step::Run("evolve_scheme(acct, drop owner)".into()));
    scheme.0.remove(1);
    for id in 0..6 {
        steps.push(update(&scheme, 2 * id, rng));
    }
    steps.push(Step::Compact(4));
    steps.push(Step::Run(
        "evolve_scheme(acct, add owner: str default \"n\")".into(),
    ));
    scheme.0.push("owner");
    for id in 0..6 {
        steps.push(update(&scheme, 3 * id, rng));
    }
    steps.push(Step::Run("delete_relation(flip)".into()));
    steps.push(Step::Run("define_relation(flip, temporal)".into()));
    steps.push(Step::Run(format!(
        "modify_state(flip, {})",
        historical_literal(rng, 5)
    )));
    for _ in 0..5 {
        steps.push(Step::Run(format!(
            "modify_state(flip, hrho(flip, inf) hunion {})",
            historical_literal(rng, 2)
        )));
        steps.push(Step::Run(format!(
            "modify_state(temp, hrho(temp, inf) hminus {})",
            historical_literal(rng, 2)
        )));
    }
    steps.push(Step::Archive("acct", 30));
    for id in 0..5 {
        steps.push(update(&scheme, id, rng));
    }
    let mut rigs = rigs();
    let (oracle, cutoffs) = drive(&steps, &mut rigs);
    assert_eq!(cutoffs.len(), 1);
    check(&oracle, &cutoffs, &rigs);
    check_every_store_answered_off_its_chain(&rigs);
}

/// Compaction under churn: a generated history with a fold (interval 2)
/// after every third step and a full fold (interval 1) before the reads,
/// a schedule denser than any generated history is sure to hit. Folding
/// chains into checkpoints is invisible to every later read.
#[test]
fn compaction_under_churn_preserves_answers() {
    let mut steps = Vec::new();
    for (i, step) in history(1987, 36).into_iter().enumerate() {
        steps.push(step);
        if i % 3 == 2 {
            steps.push(Step::Compact(2));
        }
    }
    steps.push(Step::Compact(1));
    let mut rigs = rigs();
    let (oracle, cutoffs) = drive(&steps, &mut rigs);
    check(&oracle, &cutoffs, &rigs);
}

fn snap(schema: &Schema, rows: &[(i64, i64)]) -> StateValue {
    let rows = rows
        .iter()
        .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]);
    StateValue::Snapshot(SnapshotState::from_rows(schema.clone(), rows).unwrap())
}

fn hist(schema: &Schema, rows: &[(i64, i64, u32, u32)]) -> StateValue {
    let rows = rows.iter().map(|&(a, b, from, to)| {
        (
            Tuple::new(vec![Value::Int(a), Value::Int(b)]),
            TemporalElement::period(from, to),
        )
    });
    StateValue::Historical(HistoricalState::new(schema.clone(), rows).unwrap())
}

/// A chain no engine command can write into one store: snapshot
/// versions, a scheme change, a kind change, historical versions with
/// revalued entries, and back.
fn boundary_chain() -> Vec<StateValue> {
    let ab = Schema::new(vec![("a", DomainType::Int), ("b", DomainType::Int)]).unwrap();
    let cd = Schema::new(vec![("c", DomainType::Int), ("d", DomainType::Int)]).unwrap();
    let mut chain = Vec::new();
    let mut rows: Vec<(i64, i64)> = (0..8).map(|i| (i, 0)).collect();
    for v in 0..9 {
        rows[(3 * v) % 8].1 = v as i64 + 1;
        chain.push(snap(&ab, &rows));
    }
    chain.push(snap(&ab, &rows)); // a version equal to the last
    for v in 0..5 {
        rows[v].1 += 10;
        chain.push(snap(&cd, &rows));
    }
    chain.push(hist(&cd, &[(1, 1, 0, 5), (2, 2, 0, 9)]));
    chain.push(hist(&cd, &[(1, 1, 0, 7), (2, 2, 0, 9)]));
    chain.push(hist(&cd, &[(1, 1, 0, 7), (3, 3, 2, 4)]));
    chain.push(hist(&cd, &[(1, 1, 2, 3)]));
    for v in 0..6 {
        rows[v + 1].0 += 100;
        rows.sort();
        chain.push(snap(&ab, &rows));
    }
    chain
}

#[test]
fn a_store_answers_a_version_difference_as_the_plain_path_or_declines() {
    let chain = boundary_chain();
    let policies = [
        CheckpointPolicy::every_k(1).unwrap(),
        CheckpointPolicy::every_k(3).unwrap(),
        CheckpointPolicy::every_k(16).unwrap(),
        CheckpointPolicy::Never,
    ];
    for policy in policies {
        let mut store = DeltaStore::new(policy, None);
        let label = format!("{policy:?}");
        // Versions at tx 2, 4, 6, …: odd probes fall between them.
        // Every other one arrives as a delta, as a keyed update does.
        for (i, state) in chain.iter().enumerate() {
            let tx = TransactionNumber(2 * i as u64 + 2);
            let same_shape = i > 0
                && chain[i - 1].is_historical() == state.is_historical()
                && chain[i - 1].empty_like() == state.empty_like();
            if same_shape && i % 2 == 0 {
                let delta = txtime_storage::StateDelta::between(&chain[i - 1], state);
                store.append_delta(&delta, tx);
            } else {
                store.append(state, tx);
            }
        }
        let last = 2 * chain.len() as u64 + 3;
        let sweep = |store: &DeltaStore, from: u64, at: &str| {
            let (mut answered, mut declined) = (0, 0);
            for n2 in from..=last {
                for n1 in from..=last {
                    let (n2, n1) = (TransactionNumber(n2), TransactionNumber(n1));
                    let Some(got) = store.version_difference(n2, n1) else {
                        declined += 1;
                        continue;
                    };
                    answered += 1;
                    let plain = match (store.state_at(n2), store.state_at(n1)) {
                        (Some(StateValue::Snapshot(l)), Some(StateValue::Snapshot(r))) => {
                            StateValue::Snapshot(l.difference(&r).unwrap())
                        }
                        sides => panic!("{label}: {at}: answered {n2} − {n1} over {sides:?}"),
                    };
                    assert_eq!(got, plain, "{label}: {at}: {n2} − {n1}");
                }
            }
            (answered, declined)
        };
        let (answered, declined) = sweep(&store, 0, "as written");
        // Within each of the three snapshot stretches, and nowhere
        // across a boundary, before the first version or over the
        // historical stretch: both happen, many times.
        assert!(
            answered > 400 && declined > 400,
            "{label}: {answered}/{declined}"
        );
        store.compact(std::num::NonZeroUsize::new(4).unwrap());
        assert_eq!(
            sweep(&store, 0, "compacted"),
            (answered, declined),
            "{label}: compaction changes no answer and no refusal"
        );
        // The filtered replay against the definition, on the way.
        for n in 0..=last {
            let key = comp("a", CompOp::Eq, Value::Int((n % 8) as i64));
            for historical in [false, true] {
                let filter = txtime_core::RollbackFilter {
                    predicate: Some(&key),
                    project: None,
                };
                let n = TransactionNumber(n);
                let want = match store.state_at(n) {
                    Some(s) => filter.apply(s, historical).map(Some),
                    None => Ok(None),
                };
                let got = store.state_at_filtered(n, historical, &filter);
                assert_eq!(
                    got.map_err(|e| e.to_string()),
                    want.map_err(|e| e.to_string()),
                    "{label}: σ at {n}, historical {historical}"
                );
            }
        }
        let cut = 2 * 12 + 3;
        assert!(store.truncate_before(TransactionNumber(cut)) > 0);
        let (answered_after, _) = sweep(&store, cut, "truncated");
        assert!(answered_after > 0 && answered_after < answered, "{label}");
    }
}

/// Asks every rig, for every transaction number from before the first
/// version to beyond the clock (from `cutoff` on), `σ_F(ρ(I, n))` for
/// the relation's kind and, with `leaves`, `ρ(I, n)`, each against the
/// oracle. Per `n` a selection comes first (it composes the replay and
/// caches it), then the leaf (which applies that replay and keeps the
/// version whole), then the selections again (which filter the whole
/// version); a second sweep, newest first, asks only the selections.
fn check_past_reads(oracle: &Database, cutoff: u64, rigs: &[Rig], leaves: bool, phase: &str) {
    let clock = oracle.tx.0;
    for (ident, hatted) in [("acct", false), ("temp", true)] {
        let selections = |n: u64| -> Vec<Expr> {
            let all = predicates(n);
            [0, 1, 10, 11, 13, 16]
                .into_iter()
                .map(|i| {
                    let p = all[i].clone();
                    if hatted {
                        leaf(ident, hatted, n).hselect(p)
                    } else {
                        leaf(ident, hatted, n).select(p)
                    }
                })
                .collect()
        };
        let mut asks: Vec<Expr> = Vec::new();
        for n in cutoff..=clock + 2 {
            let sel = selections(n);
            asks.push(sel[0].clone());
            asks.extend(leaves.then(|| leaf(ident, hatted, n)));
            asks.extend(sel);
            asks.extend(leaves.then(|| leaf(ident, hatted, n)));
        }
        for n in (cutoff..=clock + 2).rev() {
            asks.extend(selections(n));
        }
        for probe in &asks {
            let want = outcome(probe.eval(oracle));
            for rig in rigs {
                let got = outcome(rig.engine.eval(probe));
                assert_eq!(got, want, "{}: {phase}: {probe}", rig.label);
            }
        }
    }
}

/// The state cache holds composed replays (a checkpoint's commit tx and
/// a net delta) and whole versions, and neither is ever observable: every
/// past read and every selection over one answers as the oracle does with
/// the cache off, holding one version and holding them all, under two
/// checkpoint policies; after `compact` pins checkpoints nearer than the
/// ones the cached replays start from; and after `archive_before` drops
/// the checkpoints they start from. A replay whose checkpoint has moved
/// or gone is never served.
#[test]
fn the_state_cache_never_changes_a_past_read() {
    let steps: Vec<Step> = history(2024, 40)
        .into_iter()
        .filter(|step| matches!(step, Step::Run(_)))
        .collect();
    let mut rigs = Vec::new();
    for capacity in [0, 1, 128] {
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(8).unwrap(),
        ] {
            let mut engine = Engine::new(BackendKind::ForwardDelta, policy);
            engine.set_auto_compact(None);
            engine.set_memo_capacity(0);
            engine.set_cache_capacity(capacity);
            rigs.push(Rig {
                engine,
                memo: false,
                label: format!("{policy:?}, cache {capacity}"),
            });
        }
    }
    let (oracle, _) = drive(&steps, &mut rigs);
    check_past_reads(&oracle, 0, &rigs, true, "as written");
    // Replays only: each cache emptied, then refilled by selections
    // alone, from the first version and the policy's checkpoints.
    let refill = |rigs: &mut [Rig], cutoff: u64, phase: &str| {
        for rig in rigs.iter_mut() {
            let capacity = rig.engine.cache_stats().capacity;
            rig.engine.set_cache_capacity(0);
            rig.engine.set_cache_capacity(capacity);
        }
        check_past_reads(&oracle, cutoff, rigs, false, phase);
    };
    refill(&mut rigs, 0, "replays cached");
    // Pin checkpoints nearer than the ones the cached replays start
    // from, then read through those replays and whole.
    for rig in &mut rigs {
        rig.engine.compact(std::num::NonZeroUsize::new(3));
    }
    check_past_reads(&oracle, 0, &rigs, false, "compacted, old replays");
    check_past_reads(&oracle, 0, &rigs, true, "compacted");
    // Drop the checkpoints the cached replays start from: `acct` loses
    // one, two or three versions at a time, so the chain's positions
    // shift by every residue of the compaction interval, and by the
    // interval itself, which puts another checkpoint where each dropped
    // one stood.
    let versions: Vec<u64> = oracle
        .state
        .lookup("acct")
        .expect("acct is defined")
        .versions()
        .iter()
        .map(|v| v.tx.0)
        .collect();
    let (mut first, mut cutoff) = (0, 0);
    for shift in [3, 1, 3, 2] {
        refill(&mut rigs, cutoff, "replays cached before archival");
        first += shift;
        cutoff = versions[first];
        for rig in &mut rigs {
            for ident in ["acct", "temp"] {
                rig.engine
                    .archive_before(ident, TransactionNumber(cutoff), None)
                    .unwrap_or_else(|e| panic!("{}: archive: {e}", rig.label));
            }
        }
        let phase = format!("archived before {cutoff}");
        check_past_reads(&oracle, cutoff, &rigs, false, &phase);
        check_past_reads(&oracle, cutoff, &rigs, true, &phase);
    }
    let cache = rigs[rigs.len() - 1].engine.cache_stats();
    assert!(cache.hits > 0 && cache.misses > 0, "{cache:?}");
}

/// The past reads two sessions interleave at transaction `n`: `ρ(I, n)`;
/// σ over it, under projections that keep every row, collapse rows
/// (`π[owner]`, `π[bal]`), reorder attributes or name one the version
/// lacks; and version differences either way. `temp` gets the hatted
/// twins.
fn session_reads(ident: &str, hatted: bool, n: u64) -> Vec<Expr> {
    let k = Value::Int((n % (2 * ROWS as u64)) as i64);
    let attrs = |names: &[&str]| names.iter().map(|a| a.to_string()).collect::<Vec<_>>();
    let past = || leaf(ident, hatted, n);
    let diff = |a: u64, b: u64| {
        let (l, r) = (leaf(ident, hatted, a), leaf(ident, hatted, b));
        if hatted {
            l.hdifference(r)
        } else {
            l.difference(r)
        }
    };
    if hatted {
        return vec![
            past(),
            past().hselect(comp("id", CompOp::Ge, k.clone())),
            past()
                .hselect(comp("id", CompOp::Lt, k))
                .hproject(attrs(&["owner"])),
            diff(n + 1, n),
        ];
    }
    vec![
        past(),
        past().select(comp("id", CompOp::Ge, k.clone())),
        past()
            .select(comp("id", CompOp::Ge, k.clone()))
            .project(attrs(&["owner"])),
        past()
            .select(comp("bal", CompOp::Lt, Value::Int(25)))
            .project(attrs(&["bal"])),
        past()
            .select(comp("id", CompOp::Lt, k.clone()))
            .project(attrs(&["bal", "id"])),
        past()
            .select(comp("owner", CompOp::Ne, Value::str("o1")))
            .project(attrs(&["owner", "id"])),
        past()
            .select(comp("id", CompOp::Eq, k))
            .project(attrs(&["grade"])),
        diff(n + 1, n),
        diff(n, n + 3),
        diff(n + 17, n),
    ]
}

/// Two sessions on one engine read its past at once, each comparing
/// every answer with the oracle's: every read of [`session_reads`] at
/// every transaction number from `cutoff` to beyond the clock, twice
/// over, the second session seven reads behind the first, so the two
/// keep asking for the same versions, hitting and evicting each other's
/// entries.
fn check_two_sessions(oracle: &Database, cutoff: u64, rigs: &[Rig], phase: &str) {
    let clock = oracle.tx.0;
    let mut asks: Vec<(Expr, Outcome)> = Vec::new();
    for (ident, hatted) in [("acct", false), ("temp", true)] {
        for n in cutoff..=clock + 2 {
            for probe in session_reads(ident, hatted, n) {
                let want = outcome(probe.eval(oracle));
                asks.push((probe, want));
            }
        }
    }
    for rig in rigs {
        std::thread::scope(|scope| {
            for session in 0..2 {
                let asks = &asks;
                scope.spawn(move || {
                    let lag = asks.len() - 7 * session;
                    for (probe, want) in asks.iter().cycle().skip(lag).take(2 * asks.len()) {
                        let got = outcome(rig.engine.eval(probe));
                        assert_eq!(
                            &got, want,
                            "{}: session {session}: {phase}: {probe}",
                            rig.label
                        );
                    }
                });
            }
        });
    }
}

/// Past reads from two sessions at once are still the oracle's: σ/π
/// over `ρ(I, n)` (the fused σ∘π kernel among them, with projections
/// that collapse rows), bare `ρ(I, n)` and `ρ(I, a) − ρ(I, b)`,
/// interleaved by two threads sharing one engine, at state-cache
/// capacities of 1, 2 and 128 (where each session keeps evicting the
/// other's entries, where each holds one, and where both fit), as
/// written, after `compact` and after an `archive_before` cut.
#[test]
fn two_sessions_reading_the_past_at_once_read_as_the_oracle_does() {
    let steps: Vec<Step> = history(1987, 96)
        .into_iter()
        .filter(|step| matches!(step, Step::Run(_)))
        .collect();
    let mut rigs = Vec::new();
    for capacity in [1, 2, 128] {
        for policy in [
            CheckpointPolicy::Never,
            CheckpointPolicy::every_k(8).unwrap(),
        ] {
            let mut engine = Engine::new(BackendKind::ForwardDelta, policy);
            engine.set_auto_compact(None);
            engine.set_memo_capacity(0);
            engine.set_cache_capacity(capacity);
            rigs.push(Rig {
                engine,
                memo: false,
                label: format!("{policy:?}, cache {capacity}"),
            });
        }
    }
    let (oracle, _) = drive(&steps, &mut rigs);
    check_two_sessions(&oracle, 0, &rigs, "as written");
    for rig in &mut rigs {
        rig.engine.compact(std::num::NonZeroUsize::new(3));
    }
    check_two_sessions(&oracle, 0, &rigs, "compacted");
    let versions = oracle.state.lookup("acct").expect("acct").versions();
    let cutoff = versions[versions.len() / 3].tx.0;
    for rig in &mut rigs {
        for ident in ["acct", "temp"] {
            rig.engine
                .archive_before(ident, TransactionNumber(cutoff), None)
                .unwrap_or_else(|e| panic!("{}: archive: {e}", rig.label));
        }
    }
    check_two_sessions(&oracle, cutoff, &rigs, &format!("archived before {cutoff}"));
    let (tight, roomy) = (rigs[0].engine.cache_stats(), rigs[5].engine.cache_stats());
    assert!(tight.evictions > 0 && roomy.hits > 0, "{tight:?} {roomy:?}");
}
