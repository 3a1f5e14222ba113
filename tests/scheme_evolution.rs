//! Scheme evolution end-to-end: "changes to the scheme are properly the
//! province of transaction time" (§5).
//!
//! A relation's scheme changes over transaction time; past versions keep
//! their old schemes and stay reachable by ρ. This must hold identically
//! in the reference semantics and in every storage engine (the delta
//! chain carries a scheme boundary as the new version in full).

use txtime::core::prelude::*;
use txtime::core::{SchemeChange, StateSource};
use txtime::optimizer::SchemaCatalog;
use txtime::parser::parse_sentence;
use txtime::snapshot::{DomainType, Value};
use txtime::storage::{check_equivalence, BackendKind, CheckpointPolicy, Engine};

const SCRIPT: &str = r#"
    define_relation(emp, rollback);
    modify_state(emp, {(name: str, sal: int): ("alice", 100), ("bob", 200)});
    -- grow the scheme: everyone gets a department, defaulted.
    evolve_scheme(emp, add dept: str default "unassigned");
    modify_state(emp,
        (rho(emp, inf) minus {(name: str, sal: int, dept: str): ("alice", 100, "unassigned")})
        union {(name: str, sal: int, dept: str): ("alice", 100, "cs")});
    -- rename, then shrink.
    evolve_scheme(emp, rename sal to salary);
    evolve_scheme(emp, drop salary);
"#;

#[test]
fn evolution_history_is_fully_reachable() {
    let db = parse_sentence(SCRIPT).unwrap().eval().unwrap();
    let versions = db.state.lookup("emp").unwrap().versions();
    assert_eq!(versions.len(), 5);

    // Each version's scheme reflects the evolution step that created it.
    let schemes: Vec<Vec<String>> = versions
        .iter()
        .map(|v| {
            v.state
                .as_snapshot()
                .unwrap()
                .schema()
                .attributes()
                .iter()
                .map(|a| a.name.to_string())
                .collect()
        })
        .collect();
    assert_eq!(schemes[0], vec!["name", "sal"]);
    assert_eq!(schemes[1], vec!["name", "sal", "dept"]);
    assert_eq!(schemes[2], vec!["name", "sal", "dept"]);
    assert_eq!(schemes[3], vec!["name", "salary", "dept"]);
    assert_eq!(schemes[4], vec!["name", "dept"]);

    // Old-scheme queries still run against old versions.
    let old = Expr::rollback("emp", TxSpec::At(TransactionNumber(2)))
        .select(txtime::snapshot::Predicate::gt_const(
            "sal",
            Value::Int(150),
        ))
        .eval(&db)
        .unwrap()
        .into_snapshot()
        .unwrap();
    assert_eq!(old.len(), 1);

    // New-scheme queries run against the present.
    let now = Expr::current("emp")
        .select(txtime::snapshot::Predicate::eq_const(
            "dept",
            Value::str("cs"),
        ))
        .eval(&db)
        .unwrap()
        .into_snapshot()
        .unwrap();
    assert_eq!(now.len(), 1);
    assert!(!now.schema().contains("sal"));
}

#[test]
fn engines_agree_with_reference_under_evolution() {
    let sentence = parse_sentence(SCRIPT).unwrap();
    check_equivalence(sentence.commands(), CheckpointPolicy::every_k(2).unwrap())
        .unwrap_or_else(|e| panic!("{e}"));
}

#[test]
fn catalog_refuses_unstable_schemes_for_optimization() {
    let db = parse_sentence(SCRIPT).unwrap().eval().unwrap();
    let catalog = SchemaCatalog::from_database(&db);
    // emp's scheme varied across versions, so scheme-sensitive rewrites
    // must be disabled for it.
    assert!(catalog.get("emp").is_none());
}

#[test]
fn evolution_on_historical_relations() {
    let mut engine = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
    engine
        .execute_script(
            r#"
            define_relation(h, temporal);
            modify_state(h, historical {(name: str): ("alice") @ {[0, 10)}});
            "#,
        )
        .unwrap();
    engine
        .execute(&Command::evolve_scheme(
            "h",
            SchemeChange::AddAttribute {
                name: "grade".into(),
                domain: DomainType::Int,
                default: Value::Int(0),
            },
        ))
        .unwrap();

    // The evolved version carries the new attribute; the old one doesn't.
    let new = engine
        .resolve_rollback("h", TxSpec::Current, true)
        .unwrap()
        .into_historical()
        .unwrap();
    assert!(new.schema().contains("grade"));
    let old = engine
        .resolve_rollback("h", TxSpec::At(TransactionNumber(2)), true)
        .unwrap()
        .into_historical()
        .unwrap();
    assert!(!old.schema().contains("grade"));
    // Valid times survived the evolution.
    assert_eq!(new.iter().next().unwrap().1.first(), Some(0));
}

#[test]
fn evolution_survives_archival() {
    let mut engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(2).unwrap(),
    );
    let sentence = parse_sentence(SCRIPT).unwrap();
    for c in sentence.commands() {
        engine.execute(c).unwrap();
    }
    // Archive everything older than the rename (tx 5).
    let report = engine
        .archive_before("emp", TransactionNumber(5), None)
        .unwrap();
    assert_eq!(report.archived, 3);
    // The renamed and dropped versions still answer with their schemes.
    let renamed = engine
        .resolve_rollback("emp", TxSpec::At(TransactionNumber(5)), false)
        .unwrap()
        .into_snapshot()
        .unwrap();
    assert!(renamed.schema().contains("salary"));
    let current = engine
        .resolve_rollback("emp", TxSpec::Current, false)
        .unwrap()
        .into_snapshot()
        .unwrap();
    assert!(!current.schema().contains("salary"));
}
