//! End-to-end integration: surface syntax → parser → (optimizer) →
//! reference semantics and storage engines → WAL → recovery.

use txtime::core::{StateSource, TransactionNumber, TxSpec};
use txtime::optimizer::{optimize, SchemaCatalog};
use txtime::parser::{parse_expr, parse_sentence};
use txtime::storage::{
    check_equivalence, recovery::recover, BackendKind, CheckpointPolicy, Engine,
};

const SCRIPT: &str = r#"
    -- a rollback relation and a snapshot helper
    define_relation(emp, rollback);
    modify_state(emp, {(name: str, dept: str, sal: int):
        ("alice", "cs", 100), ("bob", "ee", 120)});
    modify_state(emp, rho(emp, inf) union
        {(name: str, dept: str, sal: int): ("carol", "cs", 90)});
    modify_state(emp,
        (rho(emp, inf) minus {(name: str, dept: str, sal: int): ("bob", "ee", 120)})
        union {(name: str, dept: str, sal: int): ("bob", "ee", 150)});

    define_relation(dept, snapshot);
    modify_state(dept, {(dname: str, bldg: str):
        ("cs", "sitterson"), ("ee", "phillips")});

    -- a temporal relation
    define_relation(staff, temporal);
    modify_state(staff, historical {(name: str):
        ("alice") @ {[0, 10)}, ("bob") @ {[3, forever)}});
    modify_state(staff, historical {(name: str):
        ("alice") @ {[0, 12)}, ("bob") @ {[3, forever)}});
"#;

#[test]
fn script_runs_on_reference_and_all_engines() {
    let sentence = parse_sentence(SCRIPT).expect("script parses");
    let db = sentence.eval().expect("script evaluates");
    assert_eq!(db.tx, TransactionNumber(9));

    // The same commands run identically on every storage engine.
    for backend in BackendKind::ALL {
        check_equivalence(
            sentence.commands(),
            backend,
            CheckpointPolicy::every_k(2).unwrap(),
        )
        .unwrap_or_else(|e| panic!("{backend}: {e}"));
    }
}

#[test]
fn parsed_queries_agree_before_and_after_optimization() {
    let db = parse_sentence(SCRIPT).unwrap().eval().unwrap();
    let catalog = SchemaCatalog::from_database(&db);

    let queries = [
        r#"project[name](select[sal > 100](rho(emp, inf)))"#,
        r#"select[dept = "cs"](rho(emp, 3)) union select[dept = "cs"](rho(emp, inf))"#,
        r#"select[sal > 100 and dname = "sitterson"](rho(emp, inf) times rho(dept, inf))"#,
        r#"project[name](project[name, sal](rho(emp, inf)))"#,
        r#"select[false](rho(emp, inf))"#,
    ];
    for text in queries {
        let q = parse_expr(text).expect("query parses");
        let o = optimize(&q, &catalog);
        let expected = q.eval(&db).expect("query evaluates");
        let got = o.eval(&db).expect("optimized query evaluates");
        assert_eq!(got, expected, "query {text}");
    }
}

#[test]
fn temporal_queries_compose_across_crates() {
    let db = parse_sentence(SCRIPT).unwrap().eval().unwrap();
    // δ parsed from text, evaluated against ρ̂ of a past transaction.
    let q =
        parse_expr("delta[valid overlaps {[9, 11)}; valid intersect {[9, 11)}](hrho(staff, 8))")
            .unwrap();
    let h = q.eval(&db).unwrap().into_historical().unwrap();
    // At tx 8 alice was valid over [0,10): she overlaps [9,11) at {9}.
    // bob is valid forever from 3.
    assert_eq!(h.len(), 2);
    let q8 =
        parse_expr("delta[valid overlaps {[9, 11)}; valid intersect {[9, 11)}](hrho(staff, 9))")
            .unwrap();
    let h8 = q8.eval(&db).unwrap().into_historical().unwrap();
    // After the tx-9 revision alice extends to 12: both chronons survive.
    let alice = txtime::snapshot::Tuple::new(vec![txtime::snapshot::Value::str("alice")]);
    assert!(h8.valid_time(&alice).unwrap().contains(10));
    assert!(!h.valid_time(&alice).unwrap().contains(10));
}

#[test]
fn wal_round_trip_through_the_parser() {
    let dir = std::env::temp_dir().join("txtime-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let sentence = parse_sentence(SCRIPT).unwrap();
    for backend in BackendKind::ALL {
        let path = dir.join(format!("e2e-{}-{backend}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut live =
            Engine::with_wal(backend, CheckpointPolicy::Never, &path).expect("wal engine");
        for c in sentence.commands() {
            live.execute(c).expect("command valid");
        }
        let rec = recover(&path, backend, CheckpointPolicy::Never).expect("recovery succeeds");
        assert!(rec.skipped.is_empty(), "{backend}");
        assert_eq!(rec.engine.tx(), live.tx(), "{backend}");
        for name in live.relations() {
            let historical = matches!(
                live.relation_type(name),
                Some(txtime::core::RelationType::Historical | txtime::core::RelationType::Temporal)
            );
            for t in 0..=live.tx().0 {
                let spec = TxSpec::At(TransactionNumber(t));
                let a = live.resolve_rollback(name, spec, historical).ok();
                let b = rec.engine.resolve_rollback(name, spec, historical).ok();
                assert_eq!(a, b, "{backend}: relation {name} at tx {t}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn pretty_printed_scripts_round_trip() {
    let sentence = parse_sentence(SCRIPT).unwrap();
    let printed = txtime::parser::print::print_sentence(&sentence);
    let reparsed = parse_sentence(&printed).expect("printed script reparses");
    assert_eq!(reparsed, sentence);
    assert_eq!(
        reparsed.eval().unwrap(),
        sentence.eval().unwrap(),
        "round-tripped script evaluates identically"
    );
}

#[test]
fn transactions_over_parsed_commands() {
    use txtime::txn::{Transaction, TransactionManager};
    let mgr = TransactionManager::new();
    let setup = parse_sentence(SCRIPT).unwrap();
    mgr.submit(&Transaction::new(1, setup.commands().to_vec()))
        .expect("setup transaction commits");

    // A failing transaction leaves everything untouched.
    let bad = parse_sentence(
        r#"
        modify_state(emp, rho(emp, inf) minus rho(emp, inf));
        modify_state(ghost, rho(ghost, inf));
        "#,
    )
    .unwrap();
    let before = mgr.snapshot();
    assert!(mgr
        .submit(&Transaction::new(2, bad.commands().to_vec()))
        .is_err());
    assert_eq!(mgr.snapshot(), before);

    // The data is still fully queryable.
    let cur = mgr
        .query(&parse_expr("rho(emp, inf)").unwrap())
        .expect("query runs");
    assert_eq!(cur.len(), 3);
}
