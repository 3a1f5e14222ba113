//! Answer checks, made after the measured window: sampled replies against the
//! denotational evaluator in `txtime::core`, the journal against the live
//! engine, and the writers' acked commits against the same evaluator.

use txtime::core::{Command, Database, Expr, StateValue};
use txtime::parser::parse_command;
use txtime::storage::Engine;

use crate::load::{recover_journal, Sample, SessionResult};
use crate::workload::Plan;

fn parse(text: &str) -> Result<Command, String> {
    parse_command(text).map_err(|e| format!("cannot parse generated command {text:?}: {e}"))
}

fn parse_request(text: &str) -> Result<Command, String> {
    parse(text.strip_prefix("EXEC ").unwrap_or(text))
}

/// The database after the set-up commands, by the reference semantics.
fn oracle_after_setup(setup: &[String]) -> Result<Database, String> {
    let mut db = Database::empty();
    for text in setup {
        let (next, _) = parse(text)?
            .execute(&db)
            .map_err(|e| format!("oracle rejects set-up command: {e}"))?;
        db = next;
    }
    Ok(db)
}

/// Re-evaluates every sampled request on the oracle; the reply must match the
/// oracle's rendering byte for byte. Only for workloads whose window makes no
/// commit, so the database the replies saw is the one after set-up.
pub fn check_samples(plan: &Plan, results: &[SessionResult; 2]) -> Result<usize, String> {
    let db = oracle_after_setup(&plan.setup)?;
    let mut checked = 0;
    for result in results {
        for Sample { request, reply } in &result.samples {
            let Command::Display(expr) = parse_request(request)? else {
                return Err("a sampled request is not a display".to_string());
            };
            let expected = match expr.eval(&db) {
                Ok(state) => format!("VAL\n{state}"),
                Err(e) => return Err(format!("oracle fails on {request:?}: {e}")),
            };
            if *reply != expected {
                return Err(format!(
                    "wrong answer to {request:?}: server {:?}, oracle {:?}",
                    reply.chars().take(200).collect::<String>(),
                    expected.chars().take(200).collect::<String>()
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

fn current_state(engine: &Engine, relation: &str) -> Result<StateValue, String> {
    engine
        .eval(&Expr::current(relation))
        .map_err(|e| format!("cannot read {relation} from an engine: {e}"))
}

/// What the journal check measured, for the `recover_us` layer metric.
pub struct Recovered {
    pub commands: usize,
    pub seconds: f64,
}

/// Recovers the run's journal into a fresh engine, which must reach the live
/// engine's clock and the live engine's current state of every relation.
pub fn check_journal(journal: &std::path::Path, live: &Engine) -> Result<Recovered, String> {
    let started = std::time::Instant::now();
    let recovery = recover_journal(journal)?;
    let seconds = started.elapsed().as_secs_f64();
    if recovery.engine.tx() != live.tx() {
        return Err(format!(
            "recovered clock {:?} is not the live clock {:?}",
            recovery.engine.tx(),
            live.tx()
        ));
    }
    for relation in live.relations() {
        if current_state(&recovery.engine, relation)? != current_state(live, relation)? {
            return Err(format!(
                "recovered state of {relation} differs from the live one"
            ));
        }
    }
    Ok(Recovered {
        commands: recovery.replayed,
        seconds,
    })
}

/// Replays the writers' acked commits on the oracle; the final state of every
/// written relation must be the live engine's.
///
/// The oracle keeps the written relations as `snapshot` relations: an
/// update-one-row commit reads only the current state, and on a snapshot
/// relation `modify_state` replaces it, so the final state is the one the
/// rollback relation ends in while the oracle's history does not grow with
/// the run (the reference semantics copies the version list on every commit).
pub fn check_acked_commits(
    plan: &Plan,
    results: &[SessionResult; 2],
    live: &Engine,
) -> Result<u64, String> {
    let setup: Vec<String> = plan
        .setup
        .iter()
        .map(|c| match c.strip_suffix(", rollback)") {
            Some(head) if c.starts_with("define_relation(") => format!("{head}, snapshot)"),
            _ => c.clone(),
        })
        .collect();
    let mut db = oracle_after_setup(&setup)?;
    let mut acked = 0;
    // Each writer has its own relation, or is the only writer, so replaying
    // one writer after the other gives the state any interleaving gives.
    for (stream, result) in plan.sessions.iter().zip(results) {
        if !stream.commits() {
            continue;
        }
        if result.failed > 0 {
            return Err("a writer saw failures, so its acked commits are not known".to_string());
        }
        for request in stream.requests().take(result.attempted as usize) {
            let (next, _) = parse_request(&request.text)?
                .execute(&db)
                .map_err(|e| format!("oracle rejects an acked commit: {e}"))?;
            db = next;
            acked += 1;
        }
    }
    let expected_tx = plan.setup.len() as u64 + acked;
    if live.tx().0 != expected_tx {
        return Err(format!(
            "live clock {} after {} set-up commands and {acked} acked commits",
            live.tx().0,
            plan.setup.len()
        ));
    }
    for relation in live.relations() {
        let expected = Expr::current(relation)
            .eval(&db)
            .map_err(|e| format!("oracle cannot read {relation}: {e}"))?;
        if current_state(live, relation)? != expected {
            return Err(format!(
                "final state of {relation} differs from the oracle's after {acked} acked commits"
            ));
        }
    }
    Ok(acked)
}
