//! The differential harness: engine ≡ reference semantics.
//!
//! "Verifying the correctness of such implementations would involve
//! demonstrating the equivalence of their semantics with the simple
//! semantics presented here" (§5). This module performs that
//! demonstration mechanically: it executes the same command sequence on
//! the reference [`txtime_core::Database`] and on an [`Engine`], then
//! compares every observable — the current state and the rollback result
//! of every relation at every transaction number, including error cases.

use txtime_core::{Command, Database, Expr, StateSource, StateValue, TransactionNumber, TxSpec};
use txtime_snapshot::{Predicate, Value};

use crate::backend::{BackendKind, CheckpointPolicy};
use crate::engine::Engine;

/// Probe expressions wrapping one ρ/ρ̂ leaf in the σ/π shapes the engine
/// pushes into resolution, so the differential check exercises the
/// filtered paths (scan-time evaluation, cache seeding) and their error
/// cases, not just bare rollback.
fn rollback_probes(
    name: &str,
    spec: TxSpec,
    historical: bool,
    resolved: Option<&StateValue>,
) -> Vec<Expr> {
    let leaf = || {
        if historical {
            Expr::hrollback(name, spec)
        } else {
            Expr::rollback(name, spec)
        }
    };
    type SelectCtor = fn(Expr, Predicate) -> Expr;
    type ProjectCtor = fn(Expr, Vec<String>) -> Expr;
    let (wrap_select, wrap_project): (SelectCtor, ProjectCtor) = if historical {
        (Expr::hselect, Expr::hproject)
    } else {
        (Expr::select, Expr::project)
    };
    // Error paths: an attribute no scheme has.
    let mut probes = vec![
        wrap_select(leaf(), Predicate::eq_const("absent_attr", Value::Int(0))),
        wrap_project(leaf(), vec!["absent_attr".into()]),
    ];
    // Schema-aware probes, when the reference resolved a state to read a
    // scheme from (its first attribute drives the filters; a type-unaware
    // comparison constant also covers the compile-error path).
    let schema = resolved.map(|s| match s {
        StateValue::Snapshot(s) => s.schema(),
        StateValue::Historical(h) => h.schema(),
    });
    if let Some(schema) = schema {
        let a0 = schema.attribute(0).name.to_string();
        probes.push(wrap_select(leaf(), Predicate::eq_attrs(&a0, &a0)));
        probes.push(wrap_select(leaf(), Predicate::gt_const(&a0, Value::Int(1))));
        probes.push(wrap_project(leaf(), vec![a0.clone()]));
        probes.push(wrap_project(
            wrap_select(leaf(), Predicate::eq_attrs(&a0, &a0)),
            vec![a0],
        ));
    }
    probes
}

/// Runs `commands` against both the reference semantics and an engine
/// whose stores checkpoint per `checkpoints`, and compares every rollback
/// observation. Returns a description of the first divergence, or `Ok`
/// if observationally equal.
pub fn check_equivalence(
    commands: &[Command],
    checkpoints: CheckpointPolicy,
) -> Result<(), String> {
    // Reference execution (total semantics: failures are no-ops).
    let mut reference = Database::empty();
    let mut engine = Engine::new(BackendKind::ForwardDelta, checkpoints);
    let engine_label = format!("the engine (checkpoint {checkpoints})");
    for (i, cmd) in commands.iter().enumerate() {
        let ref_result = cmd.execute(&reference);
        let eng_result = engine.execute(cmd);
        match (&ref_result, &eng_result) {
            (Ok((next, _)), Ok(_)) => reference = next.clone(),
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => {
                return Err(format!(
                    "command {i} ({cmd}) succeeded on reference but failed on {engine_label}: {e}"
                ))
            }
            (Err(e), Ok(_)) => {
                return Err(format!(
                    "command {i} ({cmd}) failed on reference ({e}) but succeeded on {engine_label}"
                ))
            }
        }
        if reference.tx != engine.tx() {
            return Err(format!(
                "after command {i}: reference tx {} != engine tx {}",
                reference.tx,
                engine.tx()
            ));
        }
    }

    // Compare every rollback observation for every relation at every
    // transaction number from 0 to the final clock (plus one beyond).
    let final_tx = reference.tx.0;
    for (name, rel) in reference.state.iter() {
        let historical = rel.rtype().holds_historical();
        for t in 0..=final_tx + 1 {
            for spec in [TxSpec::At(TransactionNumber(t)), TxSpec::Current] {
                let want = reference.resolve_rollback(name, spec, historical);
                let got = engine.resolve_rollback(name, spec, historical);
                match (&want, &got) {
                    (Ok(a), Ok(b)) if a == b => {}
                    (Err(_), Err(_)) => {}
                    _ => {
                        return Err(format!(
                            "{engine_label}: relation {name} at {spec:?}: reference {want:?} != engine {got:?}"
                        ))
                    }
                }
                // σ/π over ρ — the shapes the engine pushes into
                // resolution — must agree observably too.
                for probe in rollback_probes(name, spec, historical, want.as_ref().ok()) {
                    let want = probe.eval(&reference);
                    let got = engine.eval(&probe);
                    match (&want, &got) {
                        (Ok(a), Ok(b)) if a == b => {}
                        (Err(_), Err(_)) => {}
                        _ => {
                            return Err(format!(
                                "{engine_label}: relation {name}: probe {probe} at {spec:?}: reference {want:?} != engine {got:?}"
                            ))
                        }
                    }
                }
            }
        }
        // Current state via the expression layer too.
        let cur_expr = if historical {
            Expr::hcurrent(name.clone())
        } else {
            Expr::current(name.clone())
        };
        let want = cur_expr.eval(&reference);
        let got = engine.eval(&cur_expr);
        match (&want, &got) {
            (Ok(a), Ok(b)) if a == b => {}
            (Err(_), Err(_)) => {}
            _ => {
                return Err(format!(
                    "{engine_label}: relation {name} current-state mismatch: {want:?} vs {got:?}"
                ))
            }
        }
    }
    // The engine must not have relations the reference lacks.
    for name in engine.relations() {
        if reference.state.lookup(name).is_none() {
            return Err(format!("{engine_label}: engine has extra relation {name}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use txtime_core::RelationType;
    use txtime_snapshot::{DomainType, Schema, SnapshotState, Value};

    fn snap(vals: &[i64]) -> SnapshotState {
        let schema = Schema::new(vec![("x", DomainType::Int)]).unwrap();
        SnapshotState::from_rows(schema, vals.iter().map(|&v| vec![Value::Int(v)])).unwrap()
    }

    #[test]
    fn hand_written_sequence_is_equivalent_under_every_policy() {
        let cmds = vec![
            Command::define_relation("r", RelationType::Rollback),
            Command::modify_state("r", Expr::snapshot_const(snap(&[1]))),
            Command::modify_state(
                "r",
                Expr::current("r").union(Expr::snapshot_const(snap(&[2]))),
            ),
            Command::define_relation("s", RelationType::Snapshot),
            Command::modify_state("s", Expr::snapshot_const(snap(&[9]))),
            Command::modify_state("r", Expr::current("r").difference(Expr::current("s"))),
        ];
        for policy in [1, 2].map(|k| CheckpointPolicy::every_k(k).unwrap()) {
            check_equivalence(&cmds, policy).unwrap();
        }
        check_equivalence(&cmds, CheckpointPolicy::Never).unwrap();
    }

    #[test]
    fn failing_commands_stay_equivalent() {
        let cmds = vec![
            Command::define_relation("r", RelationType::Rollback),
            Command::define_relation("r", RelationType::Snapshot), // fails on both
            Command::modify_state("ghost", Expr::current("ghost")), // fails on both
            Command::modify_state("r", Expr::snapshot_const(snap(&[1]))),
        ];
        check_equivalence(&cmds, CheckpointPolicy::Never).unwrap();
    }
}
