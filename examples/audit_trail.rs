//! An audit scenario on a rollback database, driven through the textual
//! surface language and the WAL-backed storage engine.
//!
//! ```text
//! cargo run --example audit_trail
//! ```
//!
//! A payroll relation is mutated over several transactions, including a
//! (deliberate) bad update. Because rollback relations are append-only —
//! "while only the most recent state of snapshot relations is saved, all
//! past states of rollback relations are saved" — the auditor can answer
//! *what did we believe, and when did we start believing it?* and the
//! engine can be rebuilt from its journal after a crash.

use txtime::core::{Expr, StateSource, TransactionNumber, TxSpec};
use txtime::parser::parse_sentence;
use txtime::storage::{recovery::recover, BackendKind, CheckpointPolicy, Engine};

fn main() {
    let wal_path = std::env::temp_dir().join(format!("txtime-audit-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal_path);

    // The day's activity, as a script in the surface language.
    let script = r#"
        -- tx 1: payroll is born as a rollback relation: full audit trail.
        define_relation(payroll, rollback);

        -- tx 2: initial load.
        modify_state(payroll, {(name: str, sal: int):
            ("alice", 100), ("bob", 120), ("carol", 90)});

        -- tx 3: legitimate raise for alice.
        modify_state(payroll,
            (rho(payroll, inf) minus {(name: str, sal: int): ("alice", 100)})
            union {(name: str, sal: int): ("alice", 115)});

        -- tx 4: the BAD update — someone fat-fingers bob's salary.
        modify_state(payroll,
            (rho(payroll, inf) minus {(name: str, sal: int): ("bob", 120)})
            union {(name: str, sal: int): ("bob", 1200)});

        -- tx 5: correction, computed from the pre-mistake state:
        -- current − (what changed since tx 3) ∪ (bob as of tx 3).
        modify_state(payroll,
            (rho(payroll, inf) minus {(name: str, sal: int): ("bob", 1200)})
            union select[name = "bob"](rho(payroll, 3)));
    "#;
    let sentence = parse_sentence(script).expect("script parses");

    // Execute on a delta-compressed, journaled engine.
    let mut engine =
        Engine::with_wal(CheckpointPolicy::every_k(8).unwrap(), &wal_path).expect("journal opens");
    for cmd in sentence.commands() {
        engine.execute(cmd).expect("command valid");
    }

    println!("== audit: bob's salary across transaction time ==");
    for tx in 2..=engine.tx().0 {
        let state = engine
            .eval(&Expr::rollback(
                "payroll",
                TxSpec::At(TransactionNumber(tx)),
            ))
            .expect("rollback answers")
            .into_snapshot()
            .expect("snapshot state");
        let bob: Vec<String> = state
            .iter()
            .filter(|t| t.get(0).as_str() == Some("bob"))
            .map(|t| t.get(1).to_string())
            .collect();
        println!("  as of tx {tx}: bob earns {}", bob.join(", "));
    }

    // When was bob's salary wrong? Find transactions where it exceeded 500.
    let suspicious: Vec<u64> = (2..=engine.tx().0)
        .filter(|&tx| {
            engine
                .eval(
                    &Expr::rollback("payroll", TxSpec::At(TransactionNumber(tx))).select(
                        txtime::snapshot::Predicate::gt_const(
                            "sal",
                            txtime::snapshot::Value::Int(500),
                        ),
                    ),
                )
                .map(|s| !s.is_empty())
                .unwrap_or(false)
        })
        .collect();
    println!("\nsalaries exceeded 500 exactly during transactions: {suspicious:?}");
    assert_eq!(suspicious, vec![4]);

    // Crash! … and recovery from the journal.
    let live_tx = engine.tx();
    drop(engine);
    let rec = recover(
        &wal_path,
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    )
    .expect("journal replays");
    println!(
        "\nrecovered {} commands from the journal; clock {} (live was {})",
        rec.replayed,
        rec.engine.tx(),
        live_tx
    );
    assert_eq!(rec.engine.tx(), live_tx);

    // The recovered engine still answers historical questions.
    let bad = rec
        .engine
        .resolve_rollback("payroll", TxSpec::At(TransactionNumber(4)), false)
        .expect("past state survives recovery");
    println!(
        "the bad state at tx 4 is still on record after recovery ({} tuples)",
        bad.len()
    );

    let _ = std::fs::remove_file(&wal_path);
}
