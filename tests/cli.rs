//! Integration tests for the `txtime` CLI binary (run / recover / check).

use std::path::PathBuf;
use std::process::{Command, Output};

fn txtime(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_txtime"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join("txtime-cli-tests");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    dir
}

fn write_script(name: &str, contents: &str) -> PathBuf {
    let path = tmpdir().join(format!("{}-{name}", std::process::id()));
    std::fs::write(&path, contents).expect("script written");
    path
}

const SCRIPT: &str = r#"
    define_relation(emp, rollback);
    modify_state(emp, {(name: str, sal: int): ("alice", 100), ("bob", 200)});
    modify_state(emp, rho(emp, inf) union {(name: str, sal: int): ("carol", 50)});
    display(project[name](select[sal > 60](rho(emp, inf))));
"#;

#[test]
fn run_executes_and_prints_displays() {
    let script = write_script("run.txq", SCRIPT);
    let out = txtime(&["run", script.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("alice"));
    assert!(stdout.contains("bob"));
    assert!(!stdout.contains("carol")); // filtered by sal > 60
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("clock at tx 3"));
    let _ = std::fs::remove_file(&script);
}

/// There is one store, so there is no `--backend` to choose it with:
/// the flag is refused like any other unknown argument, wherever it
/// stands, and `--checkpoint 1` (every version held whole, what the
/// removed full-copy store held) runs the script.
#[test]
fn run_refuses_the_backend_flag_and_takes_checkpoint_1() {
    let script = write_script("one-store.txq", SCRIPT);
    let path = script.to_str().unwrap();
    for args in [
        ["run", path, "--backend", "fwd-delta"],
        ["run", "--backend", "fwd-delta", path],
    ] {
        let out = txtime(&args);
        assert!(!out.status.success(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unexpected argument \"--backend\""),
            "{args:?}: {stderr}"
        );
    }
    let out = txtime(&["run", path, "--checkpoint", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("clock at tx 3"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

/// Every `--checkpoint` interval, none and every version whole
/// included, answers past and current probes alike; a non-number is
/// refused.
#[test]
fn run_supports_every_checkpoint_flag() {
    let script = write_script(
        "checkpoints.txq",
        &format!("{SCRIPT}    display(rho(emp, 2));\n    display(rho(emp, inf));\n"),
    );
    let path = script.to_str().unwrap();
    let default = txtime(&["run", path]);
    assert!(default.status.success());
    assert!(String::from_utf8_lossy(&default.stdout).contains("alice"));
    for k in ["0", "1", "2", "16"] {
        let out = txtime(&["run", path, "--checkpoint", k]);
        assert!(
            out.status.success(),
            "--checkpoint {k}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.stdout, default.stdout, "--checkpoint {k}");
    }
    let out = txtime(&["run", path, "--checkpoint", "btree"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("invalid checkpoint interval"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_file(&script);
}

/// `run --wal` resumes a journal that already holds commands, as `serve`
/// does: the script is checked and executed against the state the
/// journal replays, and what it commits extends that history, so the
/// journal stays recoverable.
#[test]
fn run_resumes_a_non_empty_journal() {
    let define = write_script("resume-a.txq", "define_relation(r, rollback);");
    let modify = write_script("resume-b.txq", "modify_state(r, {(x: int): (1), (2)});");
    let wal = tmpdir().join(format!("{}-resume.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let wal_arg = wal.to_str().unwrap();
    let run = |script: &PathBuf| txtime(&["run", script.to_str().unwrap(), "--wal", wal_arg]);

    let out = run(&define);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let out = run(&modify);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("recovered 1 commands"), "stderr: {stderr}");
    assert!(stderr.contains("clock at tx 2"), "stderr: {stderr}");
    let out = txtime(&["recover", wal_arg]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("recovered 2 commands"), "stderr: {stderr}");
    assert!(
        stderr.contains("r: rollback (1 versions)"),
        "stderr: {stderr}"
    );

    // Defining the relation again fails against the resumed state, with
    // and without the static check, and journals nothing.
    let journaled = std::fs::read(&wal).unwrap();
    let out = run(&define);
    assert!(!out.status.success());
    let out = txtime(&[
        "run",
        define.to_str().unwrap(),
        "--wal",
        wal_arg,
        "--no-check",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success());
    assert!(stderr.contains("already defined"), "stderr: {stderr}");
    assert_eq!(std::fs::read(&wal).unwrap(), journaled);
    let out = txtime(&["recover", wal_arg]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("recovered 2 commands"), "stderr: {stderr}");

    for path in [&define, &modify, &wal] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn run_reports_parse_errors_with_position() {
    let script = write_script("bad.txq", "define_relation(emp rollback);");
    let out = txtime(&["run", script.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("parse error"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn wal_then_recover_round_trips() {
    let script = write_script("journal.txq", SCRIPT);
    let wal = tmpdir().join(format!("{}-journal.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);

    let out = txtime(&[
        "run",
        script.to_str().unwrap(),
        "--wal",
        wal.to_str().unwrap(),
    ]);
    assert!(out.status.success());

    let out = txtime(&["recover", wal.to_str().unwrap()]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("recovered 3 commands"), "stderr: {stderr}");
    assert!(stderr.contains("emp: rollback (2 versions)"));

    let _ = std::fs::remove_file(&script);
    let _ = std::fs::remove_file(&wal);
}

/// `check` verifies the configured checkpoint interval and the store
/// holding every version whole, once each.
#[test]
fn check_verifies_each_checkpoint_policy() {
    let script = write_script("check.txq", SCRIPT);
    let path = script.to_str().unwrap();
    for (args, policies) in [
        (vec!["check", path], vec!["every 16", "every 1"]),
        (
            vec!["check", path, "--checkpoint", "0"],
            vec!["never", "every 1"],
        ),
        (vec!["check", path, "--checkpoint", "1"], vec!["every 1"]),
    ] {
        let out = txtime(&args);
        assert!(out.status.success());
        let stderr = String::from_utf8_lossy(&out.stderr);
        for policy in &policies {
            assert!(
                stderr.contains(&format!("checkpoint {policy}: ≡ reference semantics")),
                "{args:?}: {stderr}"
            );
        }
        assert_eq!(
            stderr.matches("≡ reference semantics").count(),
            policies.len(),
            "{args:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&script);
}

/// A script that checks clean but trips W001 (contradictory select) and
/// W021 (relation written then deleted, never read).
const WARNED: &str = r#"
    define_relation(emp, rollback);
    modify_state(emp, {(name: str, sal: int): ("alice", 100), ("bob", 200)});
    display(select[sal > 100 and sal < 60](rho(emp, inf)));
    define_relation(tmp, rollback);
    modify_state(tmp, {(x: int): (1)});
    delete_relation(tmp);
"#;

#[test]
fn check_lint_warns_but_exits_zero() {
    let script = write_script("lint-warn.txq", WARNED);
    let out = txtime(&["check", script.to_str().unwrap(), "--lint"]);
    assert!(
        out.status.success(),
        "warnings alone must not fail the check: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[W001]"), "stderr: {stderr}");
    assert!(stderr.contains("warning[W021]"), "stderr: {stderr}");
    assert!(stderr.contains("lint: 2 warning(s)"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn check_deny_warnings_exits_nonzero() {
    let script = write_script("lint-deny.txq", WARNED);
    let out = txtime(&["check", script.to_str().unwrap(), "--deny-warnings"]);
    assert!(
        !out.status.success(),
        "--deny-warnings must fail on a warned script"
    );
    // The warnings are still printed so the user can see what to fix.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[W001]"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn check_without_lint_ignores_warnings() {
    let script = write_script("lint-off.txq", WARNED);
    let out = txtime(&["check", script.to_str().unwrap()]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("warning[W"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn check_deny_warnings_still_reports_errors_first() {
    // An erroring script under --deny-warnings fails for the E-series
    // diagnostic, not the lint.
    let script = write_script("lint-err.txq", "display(rho(ghost, inf));");
    let out = txtime(&["check", script.to_str().unwrap(), "--deny-warnings"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error[E"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn run_lint_prints_warnings_and_still_executes() {
    let script = write_script("lint-run.txq", WARNED);
    let out = txtime(&["run", script.to_str().unwrap(), "--lint"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[W001]"), "stderr: {stderr}");
    // The provably-∅ display still ran and printed an empty state.
    assert!(stderr.contains("clock at tx"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn bundled_example_scripts_pass_strict_lint() {
    // The CI gate in words: every checked-in example script must parse,
    // check, and lint clean under --deny-warnings.
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scripts");
    let mut seen = 0;
    for entry in std::fs::read_dir(dir).expect("scripts directory exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("txq") {
            continue;
        }
        seen += 1;
        let out = txtime(&["check", path.to_str().unwrap(), "--lint", "--deny-warnings"]);
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(seen >= 3, "expected the bundled scripts, found {seen}");
}

#[test]
fn usage_on_bad_invocation() {
    let out = txtime(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    let out = txtime(&["run"]);
    assert!(!out.status.success());
}

/// The space table carries each relation's compaction counters
/// (runs/deltas/tuples folded): `stats` shows none for a chain nothing
/// has folded, and `compact` reports its pass and then the table with
/// the fold counted.
#[test]
fn stats_and_compact_report_compaction_per_relation() {
    let script = write_script(
        "compaction.txq",
        r#"
        define_relation(emp, rollback);
        modify_state(emp, {(name: str, sal: int): ("alice", 100), ("bob", 200)});
        modify_state(emp, rho(emp, inf) union {(name: str, sal: int): ("carol", 50)});
        modify_state(emp, select[not name = "alice"](rho(emp, inf)));
        "#,
    );
    let emp_row = |stdout: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with("emp "))
            .unwrap_or_else(|| panic!("no emp row: {stdout}"))
            .split_whitespace()
            .last()
            .unwrap()
            .to_string()
    };
    let path = script.to_str().unwrap();
    let run = |cmd: &str| {
        let out = txtime(&[cmd, path, "--checkpoint", "0", "--every", "1"]);
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let stdout = run("stats");
    assert!(
        stdout.contains("compaction runs/deltas/tuples"),
        "stdout: {stdout}"
    );
    assert_eq!(emp_row(&stdout), "0/0/0", "stdout: {stdout}");

    // Three versions, the first held in full: the pass folds the one
    // link above it into a checkpoint of the middle version's three
    // tuples.
    let stdout = run("compact");
    assert!(
        stdout.contains("compacted every 1 versions: 1 run(s), 1 deltas folded"),
        "stdout: {stdout}"
    );
    assert_eq!(emp_row(&stdout), "1/1/3", "stdout: {stdout}");
    let _ = std::fs::remove_file(&script);
}

/// An audit diff is read off the store's chain: `txtime stats`
/// shows it as a `version-diff` row (calls = answers, chunks = tuples
/// returned) and no `difference` kernel row beside it.
#[test]
fn stats_reports_version_differences_read_off_the_chain() {
    let script = write_script(
        "audit.txq",
        r#"
        define_relation(emp, rollback);
        modify_state(emp, {(name: str, sal: int): ("alice", 100), ("bob", 200)});
        modify_state(emp, rho(emp, inf) union {(name: str, sal: int): ("carol", 50)});
        modify_state(emp, select[not name = "alice"](rho(emp, inf)));
        display(rho(emp, 4) minus rho(emp, 2));
        display(rho(emp, 2) minus rho(emp, 4));
        "#,
    );
    let out = txtime(&["stats", script.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let row = stdout
        .lines()
        .find(|l| l.contains("version-diff"))
        .unwrap_or_else(|| panic!("no version-diff row: {stdout}"));
    let cols: Vec<&str> = row.split_whitespace().collect();
    // Two answers, one tuple each ("carol" arrived, "alice" left).
    assert_eq!((cols[1], cols[3]), ("2", "2"), "{row}");
    assert!(!stdout.contains(" difference "), "{stdout}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn stats_reports_memo_and_interner_pools() {
    let script = write_script("stats.txq", SCRIPT);
    let out = txtime(&["stats", script.to_str().unwrap(), "--threads", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Space and cache counters from earlier milestones still lead.
    assert!(stdout.contains("cache:"), "stdout: {stdout}");
    // The pool schedules kernels only: no `subtree` row, and at three
    // rows no operator kernel split (`N calls N chunks`; the optimize
    // row counts plans, not splits).
    assert!(stdout.contains("exec:"), "stdout: {stdout}");
    assert!(!stdout.contains("subtree"), "stdout: {stdout}");
    for row in stdout.lines().filter(|l| l.contains(" calls ")) {
        let cols: Vec<&str> = row.split_whitespace().collect();
        if cols[0] != "optimize" {
            assert_eq!(cols[1], cols[3], "a three-row operand was split: {row}");
        }
    }
    // View-memo counters and the hash-consed expression DAG footprint.
    assert!(stdout.contains("memo:"), "stdout: {stdout}");
    assert!(stdout.contains("hit rate"), "stdout: {stdout}");
    // Demand-driven maintenance: repairs beside propagations and
    // fallbacks, and what the lagging views hold.
    let counters = stdout
        .lines()
        .find(|l| l.contains(" registrations, "))
        .unwrap_or_else(|| panic!("no memo counter line: {stdout}"));
    for word in ["repairs", "propagations", "fallbacks", "invalidations"] {
        assert!(counters.contains(word), "{word} missing: {counters}");
    }
    assert!(
        stdout.contains("log entries held, largest root lag"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("expr interner:"), "stdout: {stdout}");
    // The stores expose their per-relation string pools.
    assert!(stdout.contains("pool:  emp:"), "stdout: {stdout}");
    assert!(stdout.contains("strings"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&script);
}

/// A product-heavy script: the shape the cost-based searcher rewrites
/// into a filtered join (conjuncts split across the product's operands).
const PRODUCT: &str = r#"
    define_relation(emp, rollback);
    modify_state(emp, {(name: str, sal: int): ("alice", 50), ("bob", 70)});
    define_relation(dept, rollback);
    modify_state(dept, {(dno: int): (1), (2)});
    display(select[sal > 60 and dno < 2](rho(emp, inf) times rho(dept, inf)));
"#;

#[test]
fn explain_prints_costed_plan_and_rewrites() {
    let script = write_script("explain.txq", PRODUCT);
    let out = txtime(&["explain", script.to_str().unwrap(), "--optimize", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The chosen tree, with per-node cardinality/cost annotations.
    assert!(
        stdout.contains("plan (optimize level 2):"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("rho(emp, inf)"), "stdout: {stdout}");
    assert!(stdout.contains("rows≈"), "stdout: {stdout}");
    assert!(stdout.contains("cost≈"), "stdout: {stdout}");
    // The searcher split the conjunction across the product and says so.
    assert!(
        stdout.contains("select-through-product"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("estimated rows:"), "stdout: {stdout}");
    // Plans, not states: the display's tuples are never printed.
    assert!(!stdout.contains("alice"), "stdout: {stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("1 plan(s) explained at optimize level 2"),
        "stderr: {stderr}"
    );
    let _ = std::fs::remove_file(&script);
}

#[test]
fn explain_levels_change_the_printed_plan() {
    let script = write_script("explain-levels.txq", PRODUCT);
    // Level 0 explains the query exactly as written: σ over ×.
    let out = txtime(&["explain", script.to_str().unwrap(), "--optimize", "0"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("plan (optimize level 0):"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("rewrites: none (original plan kept)"),
        "stdout: {stdout}"
    );
    // Levels above 2 are rejected up front.
    let out = txtime(&["explain", script.to_str().unwrap(), "--optimize", "3"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--optimize takes"), "stderr: {stderr}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn a_bad_optimize_level_is_refused_with_what_each_level_does() {
    let script = write_script("optimize-levels.txq", PRODUCT);
    for cmd in ["run", "stats", "explain"] {
        let out = txtime(&[cmd, script.to_str().unwrap(), "--optimize", "3"]);
        assert!(!out.status.success(), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for level in [
            "0 (as written)",
            "1 (join lowering and pushdown)",
            "2 (cost-based search)",
        ] {
            assert!(stderr.contains(level), "{cmd} stderr: {stderr}");
        }
        let out = txtime(&[cmd, script.to_str().unwrap(), "--optimize", "x"]);
        assert!(!out.status.success(), "{cmd}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid optimization level"),
            "{cmd} stderr: {stderr}"
        );
    }
    let _ = std::fs::remove_file(&script);
}

#[test]
fn explain_honors_check_and_lint_flags() {
    // A script that fails the static checker: explain refuses...
    let script = write_script("explain-bad.txq", "display(rho(ghost, inf));");
    let out = txtime(&["explain", script.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("static check failed"), "stderr: {stderr}");
    // ...unless --no-check forces it; the plan is still printable since
    // explain estimates rather than evaluates.
    let out = txtime(&["explain", script.to_str().unwrap(), "--no-check"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("rho(ghost, inf)"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&script);

    // Warned scripts explain fine, but --deny-warnings is fatal.
    let script = write_script("explain-warned.txq", WARNED);
    let out = txtime(&["explain", script.to_str().unwrap(), "--lint"]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("warning[W001]"), "stderr: {stderr}");
    let out = txtime(&["explain", script.to_str().unwrap(), "--deny-warnings"]);
    assert!(!out.status.success());
    let _ = std::fs::remove_file(&script);
}

#[test]
fn stats_reports_optimizer_counters() {
    let script = write_script("optim-stats.txq", PRODUCT);
    let out = txtime(&["stats", script.to_str().unwrap(), "--optimize", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optim: level 2"), "stdout: {stdout}");
    assert!(stdout.contains("search(es)"), "stdout: {stdout}");
    assert!(stdout.contains("rewrite(s) fired"), "stdout: {stdout}");
    // Levels 0/1 keep the line (house style: every subsystem reports).
    let out = txtime(&["stats", script.to_str().unwrap(), "--optimize", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optim: level 1"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&script);
}

/// An equi-join script: the cross-operand key `sal = dno` is exactly
/// the σ(×) shape the searcher lowers to a physical hash join. Three
/// rows a side, because at 2×2 the join's build+probe cost ties the
/// product's row count and the searcher keeps the original plan.
const EQUIJOIN: &str = r#"
    define_relation(emp, rollback);
    modify_state(emp, {(name: str, sal: int): ("alice", 1), ("bob", 2), ("carol", 3)});
    define_relation(dept, rollback);
    modify_state(dept, {(dno: int): (1), (3), (4)});
    display(select[sal = dno](rho(emp, inf) times rho(dept, inf)));
"#;

#[test]
fn explain_lowers_equi_select_to_physical_join() {
    let script = write_script("explain-join.txq", EQUIJOIN);
    let out = txtime(&["explain", script.to_str().unwrap(), "--optimize", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The chosen plan is a physical join node with labeled sides, not a
    // filtered product; the lowering rule announces itself.
    assert!(stdout.contains("join[hash"), "stdout: {stdout}");
    assert!(
        stdout.contains("build=right, probe=left"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("select-to-hash-join"), "stdout: {stdout}");
    // Level 1 lowers the shape too, without a search to report.
    let out = txtime(&["explain", script.to_str().unwrap(), "--optimize", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("join[hash"), "stdout: {stdout}");
    // Level 0 explains the query exactly as written: σ over ×, no join.
    let out = txtime(&["explain", script.to_str().unwrap(), "--optimize", "0"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("join["), "stdout: {stdout}");
    assert!(stdout.contains("times"), "stdout: {stdout}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn stats_reports_join_counters() {
    let script = write_script("join-stats.txq", EQUIJOIN);
    let out = txtime(&["stats", script.to_str().unwrap(), "--optimize", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The display query lowered to one hash join; the gauges record the
    // build/probe sides it actually ran with.
    assert!(stdout.contains("joins: 1 ("), "stdout: {stdout}");
    assert!(stdout.contains("build rows"), "stdout: {stdout}");
    assert!(stdout.contains("probe rows"), "stdout: {stdout}");
    // Level 1 lowers the same shape without searching; as written
    // (level 0) the σ(×) shape never becomes a join, and the gauge stays
    // at zero (house style: the line itself still prints).
    let out = txtime(&["stats", script.to_str().unwrap(), "--optimize", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("joins: 1 ("), "stdout: {stdout}");
    let out = txtime(&["stats", script.to_str().unwrap(), "--optimize", "0"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("joins: 0 ("), "stdout: {stdout}");
    let _ = std::fs::remove_file(&script);
}

#[test]
fn auto_compact_flag_rejects_zero_and_garbage() {
    let script = write_script("auto-compact.txq", SCRIPT);
    let out = txtime(&["run", script.to_str().unwrap(), "--auto-compact", "0"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("auto-compact threshold must be at least 1"),
        "stderr: {stderr}"
    );
    let out = txtime(&["run", script.to_str().unwrap(), "--auto-compact", "soon"]);
    assert!(!out.status.success());
    // A valid threshold is accepted and the run succeeds.
    let out = txtime(&["run", script.to_str().unwrap(), "--auto-compact", "2"]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let _ = std::fs::remove_file(&script);
}

#[test]
fn serve_requires_a_bindable_listen_address() {
    // An unparseable listen address fails fast with a clear error
    // instead of hanging a server.
    let out = txtime(&["serve", "--listen", "not-an-address"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot bind"), "stderr: {stderr}");
}

#[test]
fn stats_addr_reports_unreachable_server() {
    // --addr with nothing listening is a connection error, not a hang
    // (port 1 is reserved and never bound in the test environment).
    let out = txtime(&["stats", "--addr", "127.0.0.1:1"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot query"), "stderr: {stderr}");
}
