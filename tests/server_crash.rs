//! Crash-recovery test for group commit: kill the server at the
//! failpoint between the group's WAL sync and the client acks, then
//! assert recovery replays a prefix of the journal consistent with
//! monotonically increasing transaction numbers (the paper's §3.2
//! commit-clock discipline) — nothing durable is lost, nothing torn is
//! replayed.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

use txtime::core::TransactionNumber;
use txtime::server::{Client, FAILPOINT_EXIT_CODE};
use txtime::storage::{recovery::recover, BackendKind, CheckpointPolicy};
use txtime::txn::is_monotone;

fn tmp_wal(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("txtime-server-crash");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join(format!("{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// Spawns `txtime serve --listen 127.0.0.1:0 --wal <wal>` (plus `env`)
/// and parses the bound address from its stderr banner.
fn spawn_server(wal: &PathBuf, env: &[(&str, &str)]) -> (Child, std::net::SocketAddr) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_txtime"));
    cmd.args(["serve", "--listen", "127.0.0.1:0", "--wal"])
        .arg(wal)
        .stderr(Stdio::piped())
        .stdout(Stdio::null());
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd.spawn().expect("server spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("server banner before EOF")
            .expect("stderr readable");
        if let Some(rest) = line.strip_prefix("listening on ") {
            let addr = rest.split_whitespace().next().expect("addr in banner");
            break addr.parse().expect("addr parses");
        }
    };
    // Keep draining stderr so the child never blocks on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

/// The bytes of `wal`'s lines: everything before its first NUL, where a
/// journal's reserved space begins.
fn lines_len(wal: &PathBuf) -> u64 {
    let data = std::fs::read(wal).expect("wal readable");
    data.iter().position(|&b| b == 0).unwrap_or(data.len()) as u64
}

/// Phases 1 and 2 of the crash tests: a healthy server commits three
/// writes and shuts down cleanly (its journal then holds exactly its
/// lines), and a restarted one with the failpoint armed makes a fourth
/// write durable and dies before acking it (its journal then holds its
/// reserved space too).
fn commit_then_crash_before_the_ack(wal: &PathBuf) {
    // Phase 1: a healthy server commits a base history and shuts down.
    let (mut child, addr) = spawn_server(wal, &[]);
    let mut c = Client::connect_timeout(&addr, std::time::Duration::from_secs(5)).expect("connect");
    assert!(c.exec("define_relation(led, rollback);").unwrap().is_ok());
    assert!(c
        .exec("modify_state(led, {(x: int): (1)});")
        .unwrap()
        .is_ok());
    assert!(c
        .exec("modify_state(led, rho(led, inf) union {(x: int): (2)});")
        .unwrap()
        .is_ok());
    assert!(c.request("SHUTDOWN").unwrap().is_ok());
    let status = child.wait().expect("server exits");
    assert!(status.success(), "clean shutdown failed: {status:?}");
    let len = std::fs::metadata(wal).expect("wal exists").len();
    assert_eq!(
        len,
        lines_len(wal),
        "a clean shutdown left reserved space behind"
    );
    assert!(std::fs::read(wal).unwrap().ends_with(b"\n"));

    // Phase 2: restart with the failpoint armed. The write is made
    // durable (journal write + sync), then the process dies before the
    // ack — the client sees silence, not an OK.
    let (mut child, addr) = spawn_server(wal, &[("TXTIME_FAILPOINT", "group-commit-ack")]);
    let mut c = Client::connect_timeout(&addr, std::time::Duration::from_secs(5)).expect("connect");
    let unacked = c.exec("modify_state(led, rho(led, inf) union {(x: int): (3)});");
    assert!(
        unacked.is_err(),
        "failpoint should kill the server before the ack, got {unacked:?}"
    );
    let status = child.wait().expect("server exits");
    assert_eq!(
        status.code(),
        Some(FAILPOINT_EXIT_CODE),
        "expected the failpoint exit code, got {status:?}"
    );
    assert!(
        lines_len(wal) > len,
        "the durable write is not in the journal"
    );
    assert!(
        std::fs::metadata(wal).unwrap().len() > lines_len(wal),
        "the crash left no reserved space to recover across"
    );
}

#[test]
fn crash_between_group_fsync_and_ack_recovers_the_durable_prefix() {
    let wal = tmp_wal("group-ack");
    commit_then_crash_before_the_ack(&wal);

    // Phase 3: recovery replays the durable prefix — the 3 acked commands
    // AND the durable-but-unacked one — with monotone commit clocks.
    let rec = recover(
        wal.to_str().unwrap(),
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    )
    .expect("recovery succeeds");
    assert_eq!(
        rec.skipped.len(),
        0,
        "torn lines in the journal: {:?}",
        rec.skipped
    );
    assert_eq!(
        rec.replayed, 4,
        "acked prefix plus the durable unacked commit"
    );
    assert_eq!(rec.engine.tx(), TransactionNumber(4));
    let clocks: Vec<TransactionNumber> = (1..=rec.replayed as u64).map(TransactionNumber).collect();
    assert!(is_monotone(&clocks));
    let state = rec
        .engine
        .eval(&txtime::core::Expr::current("led"))
        .expect("recovered state evaluates");
    let rendered = state.to_string();
    for v in 1..=3 {
        assert!(
            rendered.contains(&format!("({v})")),
            "lost tuple {v}: {rendered}"
        );
    }

    // Phase 4: a restarted server continues the same clock — the next
    // commit is tx 5, exactly as if the crash had never happened (the
    // sequential-semantics guarantee the whole design defends).
    let (mut child, addr) = spawn_server(&wal, &[]);
    let mut c = Client::connect_timeout(&addr, std::time::Duration::from_secs(5)).expect("connect");
    match c
        .exec("modify_state(led, rho(led, inf) union {(x: int): (4)});")
        .expect("post-recovery write")
    {
        txtime::server::Response::Ok(detail) => {
            assert!(detail.contains("tx=5"), "clock did not continue: {detail}")
        }
        other => panic!("post-recovery write failed: {other:?}"),
    }
    assert!(c.request("SHUTDOWN").unwrap().is_ok());
    assert!(child.wait().expect("server exits").success());

    let _ = std::fs::remove_file(&wal);
}

/// `txtime run --wal` over the journal a crash left — lines, then
/// reserved space — appends right after the last line, not after the
/// reserve, and the next recovery replays it with the rest.
#[test]
fn run_after_a_crash_appends_right_after_the_last_line() {
    let wal = tmp_wal("run-after-crash");
    commit_then_crash_before_the_ack(&wal);
    let lines = lines_len(&wal);

    let script = wal.with_extension("txq");
    std::fs::write(
        &script,
        "modify_state(led, rho(led, inf) union {(x: int): (5)});",
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_txtime"))
        .arg("run")
        .arg(&script)
        .arg("--wal")
        .arg(&wal)
        .output()
        .expect("txtime run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("recovered 4 commands") && stderr.contains("0 corrupt line(s) skipped"),
        "stderr: {stderr}"
    );

    let data = std::fs::read(&wal).unwrap();
    assert_eq!(data.len() as u64, lines_len(&wal), "reserved space left");
    assert!(data.len() as u64 > lines && data.ends_with(b"\n"));
    let rec = recover(
        wal.to_str().unwrap(),
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    )
    .expect("recovery succeeds");
    assert!(rec.skipped.is_empty(), "{:?}", rec.skipped);
    assert_eq!(rec.replayed, 5);
    assert_eq!(rec.engine.tx(), TransactionNumber(5));

    let _ = std::fs::remove_file(&wal);
    let _ = std::fs::remove_file(&script);
}

/// A server restarted over a journal with a torn tail must not append
/// new commits after the dead bytes: recovery's prefix discipline would
/// discard everything after the corruption on the *next* restart, losing
/// acked-and-fsynced writes. The server truncates the tail before
/// attaching the journal, so post-restart commits survive re-recovery.
#[test]
fn acked_commits_after_a_torn_tail_survive_the_next_recovery() {
    let wal = tmp_wal("torn-tail");

    // Phase 1: a healthy server commits a base history and shuts down.
    let (mut child, addr) = spawn_server(&wal, &[]);
    let mut c = Client::connect_timeout(&addr, std::time::Duration::from_secs(5)).expect("connect");
    assert!(c.exec("define_relation(led, rollback);").unwrap().is_ok());
    assert!(c
        .exec("modify_state(led, {(x: int): (1)});")
        .unwrap()
        .is_ok());
    assert!(c.request("SHUTDOWN").unwrap().is_ok());
    assert!(child.wait().expect("server exits").success());

    // Tear the journal's tail: a partial line with no terminator, the
    // classic artifact of a crash mid-append.
    let clean_len = std::fs::metadata(&wal).expect("wal exists").len();
    let mut data = std::fs::read(&wal).unwrap();
    data.extend_from_slice(b"deadbeef torn partial li");
    std::fs::write(&wal, data).unwrap();

    // Phase 2: restart over the torn journal and commit a new write. The
    // server must truncate the dead bytes before appending — the new
    // journal line may not merge into (or follow) the torn one.
    let (mut child, addr) = spawn_server(&wal, &[]);
    let mut c = Client::connect_timeout(&addr, std::time::Duration::from_secs(5)).expect("connect");
    match c
        .exec("modify_state(led, rho(led, inf) union {(x: int): (2)});")
        .expect("post-restart write")
    {
        txtime::server::Response::Ok(detail) => {
            assert!(detail.contains("tx=3"), "clock did not continue: {detail}")
        }
        other => panic!("post-restart write failed: {other:?}"),
    }
    assert!(c.request("SHUTDOWN").unwrap().is_ok());
    assert!(child.wait().expect("server exits").success());
    assert!(
        std::fs::metadata(&wal).unwrap().len() > clean_len,
        "the new commit was not journaled"
    );

    // Phase 3: recovery replays the base history AND the post-restart
    // commit — nothing torn, nothing lost.
    let rec = recover(
        wal.to_str().unwrap(),
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    )
    .expect("recovery succeeds");
    assert_eq!(
        rec.skipped.len(),
        0,
        "torn bytes still in the journal: {:?}",
        rec.skipped
    );
    assert_eq!(rec.replayed, 3, "acked post-restart commit was discarded");
    assert_eq!(rec.engine.tx(), TransactionNumber(3));
    let state = rec
        .engine
        .eval(&txtime::core::Expr::current("led"))
        .expect("recovered state evaluates");
    let rendered = state.to_string();
    for v in 1..=2 {
        assert!(
            rendered.contains(&format!("({v})")),
            "lost tuple {v}: {rendered}"
        );
    }

    let _ = std::fs::remove_file(&wal);
}
