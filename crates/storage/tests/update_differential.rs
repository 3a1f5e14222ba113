//! Differential tests for the delta path of `modify_state`: a command
//! whose right-hand side says which rows change (`ρ(I, ∞)` under a chain
//! of `− X`, `∪ X`, `σ_F`, or the hatted twins) is folded into a delta
//! and handed to the store as one, and that must be unobservable.
//!
//! Three engines per case, driven in lockstep:
//!
//! * the engine under test, fed the commands as written;
//! * its *literal twin*, fed `modify_state(I, {the oracle's new state})`
//!   for every `modify_state`, which takes the plain path by
//!   construction (a constant right-hand side is what the recogniser
//!   turns away first), so no switch is needed to compare the two;
//! * the denotational evaluator in `txtime-core`, the oracle for values
//!   and for error text.
//!
//! After every command the engine and its twin must hold the same
//! history, value for value: every version of every relation, the
//! `space_report()` rows (for the delta store that is the chain
//! entries, byte for byte, and the compaction counters) and the interner
//! pools; and a reader registered with the view memo must see what the
//! oracle computes, so the log takes the right delta. All of it with
//! memo on/off.

use proptest::prelude::*;
use txtime_snapshot::rng::rngs::StdRng;
use txtime_snapshot::rng::{Rng, SeedableRng};

use txtime_core::{
    append, delete_where, replace_where, Assignment, Command, Database, Expr, StateValue,
    TransactionNumber, TxSpec,
};
use txtime_parser::parse_command;
use txtime_snapshot::generate::{random_predicate, random_state, GenConfig};
use txtime_snapshot::{DomainType, Predicate, Schema, Value};
use txtime_storage::metrics::RelationSpace;
use txtime_storage::recovery::recover;
use txtime_storage::{BackendKind, CheckpointPolicy, Engine};

/// Checkpoint every third version, so a script of a dozen commits lands
/// delta commits on checkpoint positions.
fn policy() -> CheckpointPolicy {
    CheckpointPolicy::every_k(3).unwrap()
}

/// Compaction is attempted every fourth append; it has something to fold
/// under [`CheckpointPolicy::Never`] once a chain passes 32 versions.
fn engine(checkpoints: CheckpointPolicy) -> Engine {
    let mut e = Engine::new(BackendKind::ForwardDelta, checkpoints);
    e.set_auto_compact(std::num::NonZeroUsize::new(4));
    e
}

/// `ρ(ident, spec)` or `ρ̂(ident, spec)`, by what the relation holds.
fn leaf(db: &Database, ident: &str, spec: TxSpec) -> Expr {
    let historical = db
        .state
        .lookup(ident)
        .is_some_and(|r| r.rtype().holds_historical());
    if historical {
        Expr::hrollback(ident, spec)
    } else {
        Expr::rollback(ident, spec)
    }
}

fn literal(state: StateValue) -> Expr {
    match state {
        StateValue::Snapshot(s) => Expr::snapshot_const(s),
        StateValue::Historical(h) => Expr::historical_const(h),
    }
}

/// The engine under test, its literal twin and the oracle.
struct Rig {
    engine: Engine,
    twin: Engine,
    oracle: Database,
    /// Whether a reader over every relation is registered with the memo.
    reader: bool,
    label: String,
}

impl Rig {
    fn new(reader: bool, checkpoints: CheckpointPolicy) -> Rig {
        let under_test = engine(checkpoints);
        if reader {
            under_test.set_memo_register_after(1);
        } else {
            under_test.set_memo_capacity(0);
        }
        Rig {
            engine: under_test,
            twin: engine(checkpoints),
            oracle: Database::empty(),
            reader,
            label: format!("{checkpoints:?}, reader {reader}"),
        }
    }

    /// Memo off, and on with a registered reader.
    fn all(checkpoints: CheckpointPolicy) -> Vec<Rig> {
        [false, true]
            .map(|reader| Rig::new(reader, checkpoints))
            .into()
    }

    fn run(&mut self, source: &str) {
        let cmd = parse_command(source).unwrap_or_else(|e| panic!("{source}: {e}"));
        self.exec(&cmd);
    }

    /// Runs `cmd` on the oracle and the engine (same outcome, same error
    /// text), the literal form on the twin, then compares histories.
    fn exec(&mut self, cmd: &Command) {
        let label = &self.label;
        let want = cmd.execute(&self.oracle);
        let got = self.engine.execute(cmd);
        match (&want, &got) {
            (Ok(_), Ok(_)) => {}
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}: {cmd:?}"),
            _ => panic!(
                "{label}: {cmd:?}: oracle {:?}, engine {got:?}",
                want.as_ref().map(|(_, outcome)| outcome)
            ),
        }
        if let Ok((next, _)) = want {
            let for_twin = match cmd {
                Command::ModifyState(ident, _) => {
                    let new = leaf(&next, ident, TxSpec::Current)
                        .eval(&next)
                        .expect("just written");
                    Command::modify_state(ident.clone(), literal(new))
                }
                other => other.clone(),
            };
            self.twin
                .execute(&for_twin)
                .unwrap_or_else(|e| panic!("{label}: twin: {e}"));
            self.oracle = next;
        }
        // Versions are immutable once written: the newest few now, the
        // whole history when the script ends.
        let newest = self.oracle.tx.0.saturating_sub(2);
        self.check(newest, &format!("{label}: after {cmd:?}"));
    }

    /// Compares the three from transaction `from` on.
    fn check(&self, from: u64, at: &str) {
        assert_eq!(self.engine.tx(), self.oracle.tx, "{at}");
        assert_eq!(self.twin.tx(), self.oracle.tx, "{at}");
        assert_eq!(
            rows(&self.engine),
            rows(&self.twin),
            "{at}: space_report against the literal twin"
        );
        assert_eq!(
            self.engine.interner_report(),
            self.twin.interner_report(),
            "{at}"
        );
        for name in self.engine.relations() {
            for n in from..=self.oracle.tx.0 + 1 {
                let probe = leaf(&self.oracle, name, TxSpec::At(TransactionNumber(n)));
                let want = probe.eval(&self.oracle).map_err(|e| e.to_string());
                for (who, e) in [("engine", &self.engine), ("twin", &self.twin)] {
                    let got = e.eval(&probe).map_err(|e| e.to_string());
                    assert_eq!(got, want, "{at}: {who}: {probe}");
                }
            }
            if self.reader {
                // Twice: the repaired view, then the hit.
                let view = leaf(&self.oracle, name, TxSpec::Current);
                let view = if view.is_historical() {
                    view.hselect(Predicate::True)
                } else {
                    view.select(Predicate::True)
                };
                let want = view.eval(&self.oracle).map_err(|e| e.to_string());
                for pass in 0..2 {
                    let got = self.engine.eval(&view).map_err(|e| e.to_string());
                    assert_eq!(got, want, "{at}: reader pass {pass}: {view}");
                }
            }
        }
    }
}

/// `space_report()` as comparable rows.
fn rows(e: &Engine) -> Vec<RelationSpace> {
    e.space_report().relations
}

fn delta_commits(e: &Engine) -> u64 {
    let exec = e.exec_stats();
    exec.ops
        .iter()
        .find(|o| o.name == "delta-commit")
        .unwrap()
        .calls
}

// The generated scripts use the generators of
// `crates/core/tests/update_mapping.rs`: random states and predicates
// over a three-attribute scheme, and the three Quel-style updates.

fn gen_schema() -> Schema {
    Schema::new(vec![
        ("a0", DomainType::Int),
        ("a1", DomainType::Str),
        ("a2", DomainType::Bool),
    ])
    .unwrap()
}

fn gen_cfg() -> GenConfig {
    GenConfig {
        arity: 3,
        cardinality: 16,
        int_range: 10,
        str_pool: 4,
    }
}

/// One of `append` / `delete_where` / `replace_where` against `r`; the
/// last compiles to `(ρ − σ_F(ρ)) ∪ π(π(σ_F(ρ)) × c)`, a union operand
/// that is itself a four-operator expression over the relation.
fn random_update(rng: &mut StdRng) -> Command {
    let (schema, cfg) = (gen_schema(), gen_cfg());
    match rng.gen_range(0..3) {
        0 => {
            let few = GenConfig {
                cardinality: 3,
                ..cfg
            };
            append("r", random_state(rng, &schema, &few))
        }
        1 => delete_where("r", random_predicate(rng, &schema, &cfg, 2)),
        _ => {
            let pred = random_predicate(rng, &schema, &cfg, 2);
            let assignments = match rng.gen_range(0..3) {
                0 => vec![Assignment::new("a0", Value::Int(rng.gen_range(0..10)))],
                1 => vec![Assignment::new(
                    "a1",
                    Value::str(format!("s{}", rng.gen_range(0..4))),
                )],
                _ => vec![
                    Assignment::new("a0", Value::Int(rng.gen_range(0..10))),
                    Assignment::new("a2", Value::Bool(rng.gen())),
                ],
            };
            replace_where("r", &schema, pred, &assignments).unwrap()
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_updates_leave_the_literal_twins_history(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = random_state(&mut rng, &gen_schema(), &gen_cfg());
        let script: Vec<Command> = (0..10).map(|_| random_update(&mut rng)).collect();
        for mut rig in Rig::all(policy()) {
            rig.run("define_relation(r, rollback)");
            rig.exec(&Command::modify_state("r", Expr::snapshot_const(base.clone())));
            for cmd in &script {
                rig.exec(cmd);
            }
            rig.check(0, &rig.label);
            // Every generated update has the recognised shape.
            prop_assert_eq!(delta_commits(&rig.engine), script.len() as u64);
            prop_assert_eq!(delta_commits(&rig.twin), 0);
        }
    }
}

const ACCT: &str = "(id: int, owner: str, bal: int)";

/// The hand-written edges, in one history so that they also meet
/// checkpoint positions and compaction passes. `true` marks a command
/// the delta path must take, `false` one it must decline.
fn edge_script() -> Vec<(bool, String)> {
    let acct = |rows: &str| format!("{{{ACCT}: {rows}}}");
    let update = |id: i64, row: &str| {
        format!(
            "modify_state(acct, (rho(acct, inf) minus select[id = {id}](rho(acct, inf))) union {})",
            acct(row)
        )
    };
    let mut script: Vec<(bool, String)> = vec![
        (false, "define_relation(acct, rollback)".into()),
        (false, "define_relation(other, rollback)".into()),
        (false, "define_relation(snap, snapshot)".into()),
        (false, "define_relation(temp, temporal)".into()),
        // First commit to a relation with no state: the leaf has nothing
        // to resolve to, and the oracle's error is the answer.
        (
            false,
            format!(
                "modify_state(acct, rho(acct, inf) union {})",
                acct("(1, \"a\", 10)")
            ),
        ),
        (
            false,
            format!(
                "modify_state(acct, {})",
                acct("(1, \"a\", 10), (2, \"b\", 20), (3, \"c\", 30), (4, \"d\", 40), (5, \"e\", 50), (6, \"f\", 60)")
            ),
        ),
        (
            false,
            format!(
                "modify_state(other, {})",
                acct("(2, \"b\", 20), (7, \"g\", 70), (8, \"h\", 80)")
            ),
        ),
        // tx 6. Three updates that change nothing still append a version.
        (true, update(1, "(1, \"a\", 10)")),
        (true, "modify_state(acct, select[not id = 99](rho(acct, inf)))".into()),
        (
            true,
            format!(
                "modify_state(acct, rho(acct, inf) union {})",
                acct("(2, \"b\", 20)")
            ),
        ),
        (true, "modify_state(acct, rho(acct, inf))".into()),
        // The benchmark's shape, with a string the pool has not seen.
        (true, update(3, "(3, \"zed\", 31)")),
        // `F` matching many rows.
        (true, "modify_state(acct, select[not bal > 35](rho(acct, inf)))".into()),
        // `X` reading another relation, as a whole and filtered.
        (true, "modify_state(acct, rho(acct, inf) union rho(other, inf))".into()),
        (
            true,
            "modify_state(acct, rho(acct, inf) minus select[id > 7](rho(other, inf)))".into(),
        ),
        // `X` reading the relation's own past: the rows of tx 6 return.
        (true, "modify_state(acct, rho(acct, inf) union rho(acct, 6))".into()),
        // A past version as the leaf is any other expression.
        (false, "modify_state(acct, rho(acct, 6) union rho(other, inf))".into()),
        // Chains of three steps, a selection in the middle and on top.
        (
            true,
            format!(
                "modify_state(acct, (select[bal < 70](rho(acct, inf)) minus rho(other, inf)) union {})",
                acct("(9, \"i\", 90), (1, \"a\", 11)")
            ),
        ),
        (
            true,
            format!(
                "modify_state(acct, select[id > 1]((rho(acct, inf) union {}) minus {}))",
                acct("(0, \"o\", 0), (10, \"j\", 5)"),
                acct("(9, \"i\", 90)")
            ),
        ),
        // Delete everything (the operand is the state itself), start over.
        (true, "modify_state(acct, rho(acct, inf) minus rho(acct, inf))".into()),
        (
            true,
            format!(
                "modify_state(acct, rho(acct, inf) union {})",
                acct("(1, \"a\", 1), (2, \"b\", 2)")
            ),
        ),
        // Errors: the oracle's text, and the clock stays.
        (
            false,
            "modify_state(acct, rho(acct, inf) union {(x: int): (1)})".into(),
        ),
        (false, "modify_state(acct, select[nope = 1](rho(acct, inf)))".into()),
        (
            false,
            "modify_state(acct, rho(acct, inf) minus rho(ghost, inf))".into(),
        ),
        (
            false,
            "modify_state(acct, rho(acct, inf) hunion hrho(temp, inf))".into(),
        ),
        // A snapshot-type relation keeps one version; same two arrivals.
        (false, format!("modify_state(snap, {})", acct("(1, \"a\", 1)"))),
        (
            true,
            format!(
                "modify_state(snap, rho(snap, inf) union {})",
                acct("(2, \"b\", 2), (3, \"c\", 3)")
            ),
        ),
        (true, "modify_state(snap, select[not id = 2](rho(snap, inf)))".into()),
        (true, "modify_state(snap, rho(snap, inf) minus rho(acct, inf))".into()),
        // A temporal relation through the hatted operators: valid time
        // extended, a new fact, valid time cut and emptied, a selection.
        (
            false,
            format!(
                "modify_state(temp, historical {{{ACCT}: (1, \"a\", 1) @ {{[0, 5)}}, (2, \"b\", 2) @ {{[0, 9)}}, (3, \"c\", 3) @ {{[2, 4)}}}})"
            ),
        ),
        (
            true,
            format!(
                "modify_state(temp, hrho(temp, inf) hunion historical {{{ACCT}: (1, \"a\", 1) @ {{[5, 7)}}, (2, \"b\", 2) @ {{[1, 3)}}, (4, \"d\", 4) @ {{[0, 1)}}}})"
            ),
        ),
        (
            true,
            format!(
                "modify_state(temp, hrho(temp, inf) hminus historical {{{ACCT}: (2, \"b\", 2) @ {{[0, 4)}}, (3, \"c\", 3) @ {{[0, 9)}}, (8, \"h\", 8) @ {{[0, 1)}}}})"
            ),
        ),
        (true, "modify_state(temp, hselect[not id = 4](hrho(temp, inf)))".into()),
        (
            true,
            "modify_state(temp, (hrho(temp, inf) hminus hrho(temp, inf)) hunion hrho(temp, 30))"
                .into(),
        ),
        (false, "modify_state(temp, select[id = 1](hrho(temp, inf)))".into()),
        // Across a scheme change the delta path goes on under the new
        // scheme, and an operand under the old one is a mismatch.
        (false, "evolve_scheme(acct, drop owner)".into()),
        (
            true,
            "modify_state(acct, rho(acct, inf) union {(id: int, bal: int): (5, 50)})".into(),
        ),
        (false, "modify_state(acct, rho(acct, inf) union rho(other, inf))".into()),
    ];
    // A run of one-row updates that takes the chain past 32 versions on
    // the delta path alone: several checkpoint positions under `EveryK`,
    // a compaction pass with something to fold under `Never`.
    for i in 0..24 {
        script.push((
            true,
            format!(
                "modify_state(acct, (rho(acct, inf) minus select[id = {}](rho(acct, inf))) union {{(id: int, bal: int): ({}, {})}})",
                i % 3,
                i % 3,
                100 + i
            ),
        ));
    }
    script
}

#[test]
fn hand_written_edges_leave_the_literal_twins_history() {
    let whole = CheckpointPolicy::every_k(1).unwrap();
    for checkpoints in [whole, policy(), CheckpointPolicy::Never] {
        for mut rig in Rig::all(checkpoints) {
            for (by_delta, source) in edge_script() {
                let before = delta_commits(&rig.engine);
                rig.run(&source);
                assert_eq!(
                    delta_commits(&rig.engine) - before,
                    u64::from(by_delta),
                    "{}: {source}",
                    rig.label
                );
            }
            rig.check(0, &rig.label);
            assert_eq!(delta_commits(&rig.twin), 0, "{}", rig.label);
            // Auto-compaction fired mid-script, between delta commits,
            // wherever there is a chain and no policy pinned it already.
            let compactions: u64 = rows(&rig.engine).iter().map(|r| r.compaction.runs).sum();
            let folds = checkpoints == CheckpointPolicy::Never;
            assert_eq!(compactions > 0, folds, "{}", rig.label);
        }
    }
}

/// Recovery replays the journal through `Engine::execute`, so it takes
/// the delta path for the same commands and must reach the same bytes.
#[test]
fn recovering_the_journal_reaches_the_same_space_report() {
    let dir = std::env::temp_dir().join(format!("txtime-update-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("journal.wal");
    let _ = std::fs::remove_file(&path);
    // Compaction as the environment gives it: recovery builds its
    // engine the same way.
    let mut live = Engine::with_wal(policy(), &path).unwrap();
    for (_, source) in edge_script() {
        let _ = live.execute(&parse_command(&source).unwrap());
    }
    let by_delta = delta_commits(&live);
    assert!(by_delta > 20, "{by_delta}");
    let recovered = recover(&path, BackendKind::ForwardDelta, policy()).unwrap();
    assert!(recovered.skipped.is_empty());
    assert_eq!(recovered.engine.tx(), live.tx());
    assert_eq!(rows(&recovered.engine), rows(&live));
    assert_eq!(delta_commits(&recovered.engine), by_delta);
    assert_eq!(recovered.engine.interner_report(), live.interner_report());
    let _ = std::fs::remove_file(&path);
}
