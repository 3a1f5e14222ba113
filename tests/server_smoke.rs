//! Smoke tests for `txtime serve`: many concurrent sessions against one
//! in-process server, clean shutdown, MVCC snapshot reads, and the
//! admission-control rejections.

use std::net::TcpListener;
use std::sync::Arc;

use txtime::server::{serve, Client, Response, ServerConfig};
use txtime::storage::{BackendKind, CheckpointPolicy, Engine};

fn listener() -> TcpListener {
    TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port")
}

/// Eight concurrent write/read sessions on disjoint relations: every
/// request is acked, shutdown is clean, and the final engine state is
/// exactly what each session's commands produce in isolation (disjoint
/// relations make the expected state interleave-independent).
#[test]
fn eight_concurrent_sessions_and_clean_shutdown() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    const SESSIONS: usize = 8;
    const WRITES: usize = 10;
    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let rel = format!("r{i}");
                let r = c
                    .exec(&format!("define_relation({rel}, rollback);"))
                    .expect("define");
                assert!(r.is_ok(), "define failed: {r:?}");
                for v in 0..WRITES {
                    // The first state is a literal; later ones extend it
                    // (ρ of a stateless relation has no scheme — E010).
                    let expr = if v == 0 {
                        format!("{{(x: int): ({v})}}")
                    } else {
                        format!("rho({rel}, inf) union {{(x: int): ({v})}}")
                    };
                    let r = c
                        .exec(&format!("modify_state({rel}, {expr});"))
                        .expect("modify");
                    assert!(r.is_ok(), "modify failed: {r:?}");
                }
                let r = c
                    .exec(&format!("display(rho({rel}, inf));"))
                    .expect("display");
                match r {
                    Response::Val(state) => {
                        for v in 0..WRITES {
                            assert!(
                                state.contains(&format!("({v})")),
                                "session {i} lost tuple {v}: {state}"
                            );
                        }
                    }
                    other => panic!("display failed: {other:?}"),
                }
                assert!(c.request("QUIT").expect("quit").is_ok());
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker panicked");
    }

    handle.shutdown();
    let report = handle.wait();
    assert_eq!(report.sessions.accepted, SESSIONS as u64);
    assert_eq!(report.sessions.active, 0);
    assert_eq!(report.sessions.writes, (SESSIONS * (WRITES + 1)) as u64);
    assert_eq!(
        report.group_commit.commits,
        (SESSIONS * (WRITES + 1)) as u64
    );
    // One fsync per group; groups never exceed commits.
    assert_eq!(report.group_commit.fsyncs, report.group_commit.groups);
    assert_eq!(report.engine.relations().len(), SESSIONS);
    // The commit clock saw every write exactly once.
    assert_eq!(report.engine.tx().0, (SESSIONS * (WRITES + 1)) as u64);
}

/// A pinned snapshot is repeatable: concurrent commits never leak into
/// it, and unpinning sees them all (the MVCC read path).
#[test]
fn snapshot_reads_are_repeatable_under_concurrent_writes() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(1).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let mut writer = Client::connect(addr).expect("connect");
    assert!(writer
        .exec("define_relation(emp, rollback);")
        .unwrap()
        .is_ok());
    assert!(writer
        .exec("modify_state(emp, {(x: int): (1)});")
        .unwrap()
        .is_ok());

    let mut reader = Client::connect(addr).expect("connect");
    let pinned = reader.snapshot().expect("snapshot");
    assert!(pinned.is_ok(), "{pinned:?}");
    let before = reader.exec("display(rho(emp, inf));").expect("read");

    // Another session commits after the pin.
    assert!(writer
        .exec("modify_state(emp, rho(emp, inf) union {(x: int): (2)});")
        .unwrap()
        .is_ok());

    let after = reader.exec("display(rho(emp, inf));").expect("read");
    assert_eq!(
        before, after,
        "pinned read changed under a concurrent commit"
    );
    match &after {
        Response::Val(state) => assert!(!state.contains("(2)"), "pin leaked: {state}"),
        other => panic!("read failed: {other:?}"),
    }

    assert!(reader.request("SNAPSHOT OFF").unwrap().is_ok());
    match reader.exec("display(rho(emp, inf));").expect("read") {
        Response::Val(state) => assert!(state.contains("(2)"), "unpinned read stale: {state}"),
        other => panic!("read failed: {other:?}"),
    }

    handle.shutdown();
    handle.wait();
}

/// `SNAPSHOT AT n` pins a version that can no longer change: `n` beyond
/// the applied clock is refused (`ρ(I, n)` would be the current state
/// and move with every commit), `n` at the clock is a repeatable read.
#[test]
fn snapshot_at_refuses_a_pin_beyond_the_applied_clock() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(1).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert!(c.exec("define_relation(emp, rollback);").unwrap().is_ok());
    assert!(c
        .exec("modify_state(emp, {(x: int): (1)});")
        .unwrap()
        .is_ok());

    match c.request("SNAPSHOT AT 3").expect("pin beyond the clock") {
        Response::Err { kind, message } => {
            assert_eq!(kind, "proto");
            assert!(
                message.contains("beyond the applied clock (tx=2)"),
                "{message}"
            );
        }
        other => panic!("a pin beyond the clock was accepted: {other:?}"),
    }
    // The refusal left the session unpinned.
    assert!(c
        .exec("modify_state(emp, rho(emp, inf) union {(x: int): (2)});")
        .unwrap()
        .is_ok());
    match c.exec("display(rho(emp, inf));").expect("read") {
        Response::Val(state) => assert!(state.contains("(2)"), "{state}"),
        other => panic!("read failed: {other:?}"),
    }

    // At the clock: the same read gives the same reply across a commit.
    match c.request("SNAPSHOT AT 3").expect("pin at the clock") {
        Response::Ok(detail) => assert_eq!(detail, "snapshot tx=3"),
        other => panic!("a pin at the clock was refused: {other:?}"),
    }
    let before = c.exec("display(rho(emp, inf));").expect("read");
    assert!(c
        .exec("modify_state(emp, rho(emp, inf) union {(x: int): (3)});")
        .unwrap()
        .is_ok());
    let after = c.exec("display(rho(emp, inf));").expect("read");
    assert_eq!(before, after, "a pin at the clock moved with a commit");
    match &after {
        Response::Val(state) => assert!(!state.contains("(3)"), "pin leaked: {state}"),
        other => panic!("read failed: {other:?}"),
    }

    handle.shutdown();
    handle.wait();
}

/// `SNAPSHOT DURABLE` pins to the fsynced clock: after an acked write
/// the durable gauge covers it (acks are sent only after the group's
/// fsync returns), so the pin equals the applied clock here and the read
/// can never observe state a crash would take back.
#[test]
fn snapshot_durable_pins_to_the_fsynced_clock() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(1).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let mut c = Client::connect(addr).expect("connect");
    assert!(c.exec("define_relation(emp, rollback);").unwrap().is_ok());
    assert!(c
        .exec("modify_state(emp, {(x: int): (1)});")
        .unwrap()
        .is_ok());

    // Both writes are acked, therefore durable: the pin is exactly tx 2.
    match c.snapshot_durable().expect("snapshot durable") {
        Response::Ok(detail) => assert_eq!(detail, "snapshot tx=2"),
        other => panic!("snapshot durable failed: {other:?}"),
    }
    match c.exec("display(rho(emp, inf));").expect("read") {
        Response::Val(state) => assert!(state.contains("(1)"), "durable read stale: {state}"),
        other => panic!("read failed: {other:?}"),
    }
    assert_eq!(handle.group_commit_stats().durable_tx, 2);
    let stats = c.stats().expect("stats");
    assert!(
        stats.contains("durable at tx 2"),
        "durable gauge missing from STATS: {stats}"
    );

    handle.shutdown();
    handle.wait();
}

/// The `STATS` memo line says what an operator can act on under
/// demand-driven maintenance: how much log the lagging views hold, and
/// how far behind the furthest registered root is.
#[test]
fn stats_reports_the_memo_log_and_the_largest_root_lag() {
    let engine = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert!(c.exec("define_relation(emp, rollback);").unwrap().is_ok());
    assert!(c
        .exec("modify_state(emp, {(x: int): (1), (2), (3), (4), (5), (6), (7), (8)});")
        .unwrap()
        .is_ok());
    let memo_line = |c: &mut Client| {
        let stats = c.stats().expect("stats");
        stats
            .lines()
            .find(|l| l.starts_with("memo:"))
            .unwrap_or_else(|| panic!("no memo line in STATS: {stats}"))
            .to_string()
    };
    assert_eq!(
        memo_line(&mut c),
        "memo: 0 root(s), 0 log entries held, largest root lag 0 commit(s)"
    );
    // The second display registers the root (the shipped threshold).
    // (`x > 2` would bound the leading attribute: a key probe, which the
    // store answers and the memo never registers.)
    let root = "display(select[x <> 2](rho(emp, inf)));";
    for _ in 0..2 {
        assert!(c.exec(root).unwrap().is_ok());
    }
    for v in [9, 10] {
        let write = format!("modify_state(emp, rho(emp, inf) union {{(x: int): ({v})}});");
        assert!(c.exec(&write).unwrap().is_ok());
    }
    assert_eq!(
        memo_line(&mut c),
        "memo: 1 root(s), 2 log entries held, largest root lag 2 commit(s)"
    );
    // Reading the root repairs it; the log stays for whoever else lags.
    match c.exec(root).unwrap() {
        Response::Val(state) => assert!(state.contains("(10)"), "stale read: {state}"),
        other => panic!("read failed: {other:?}"),
    }
    assert_eq!(
        memo_line(&mut c),
        "memo: 1 root(s), 2 log entries held, largest root lag 0 commit(s)"
    );
    handle.shutdown();
    handle.wait();
}

/// Connections beyond `max_sessions` get `ERR busy` at the door.
#[test]
fn sessions_beyond_the_cap_are_rejected_busy() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(1).unwrap(),
    );
    let cfg = ServerConfig {
        max_sessions: 1,
        ..ServerConfig::default()
    };
    let handle = serve(engine, listener(), cfg).expect("server starts");
    let addr = handle.addr();

    let mut first = Client::connect(addr).expect("connect");
    assert!(first.request("PING").unwrap().is_ok());

    // The second connection is turned away with a busy frame. The reject
    // happens at accept time, so poll until the acceptor has seen us.
    let mut rejected = false;
    for _ in 0..50 {
        let mut second = match Client::connect(addr) {
            Ok(c) => c,
            Err(_) => continue,
        };
        match second.request("PING") {
            Ok(Response::Err { kind, .. }) if kind == "busy" => {
                rejected = true;
                break;
            }
            Ok(_) => std::thread::sleep(std::time::Duration::from_millis(20)),
            Err(_) => {}
        }
    }
    assert!(rejected, "no busy rejection despite max_sessions=1");
    assert!(handle.session_stats().rejected_sessions >= 1);

    handle.shutdown();
    handle.wait();
}

/// Check rejections carry diagnostics with spans into the client's text,
/// and parse errors are reported without touching the engine.
#[test]
fn diagnostics_flow_back_to_the_client() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(1).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let mut c = Client::connect(addr).expect("connect");
    match c.exec("display(rho(ghost, inf));").expect("exec") {
        Response::Err { kind, message } => {
            assert_eq!(kind, "check");
            assert!(message.contains("E001"), "missing code: {message}");
            assert!(message.contains("ghost"), "missing ident: {message}");
        }
        other => panic!("expected check error, got {other:?}"),
    }
    match c.exec("not a command").expect("exec") {
        Response::Err { kind, .. } => assert_eq!(kind, "parse"),
        other => panic!("expected parse error, got {other:?}"),
    }
    // Unknown verbs are protocol errors, not session killers.
    match c.request("FROBNICATE").expect("request") {
        Response::Err { kind, .. } => assert_eq!(kind, "proto"),
        other => panic!("expected proto error, got {other:?}"),
    }
    assert!(c.request("PING").expect("still alive").is_ok());

    let stats = handle.session_stats();
    assert!(stats.check_rejected >= 1);

    handle.shutdown();
    handle.wait();
}

/// A client `SHUTDOWN` frame stops the whole server; `wait` returns the
/// flushed engine.
#[test]
fn client_shutdown_verb_stops_the_server() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(4).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let mut c = Client::connect(addr).expect("connect");
    assert!(c.exec("define_relation(r, rollback);").unwrap().is_ok());
    assert!(c.request("SHUTDOWN").unwrap().is_ok());

    let report = handle.wait();
    assert_eq!(report.engine.relations(), vec!["r"]);
    // New connections are refused or dead after shutdown.
    assert!(
        Client::connect(addr)
            .and_then(|mut c| c.request("PING"))
            .is_err(),
        "server still serving after shutdown"
    );
}

/// The server and an `Arc` of it are usable from multiple client threads
/// hammering reads while a writer commits — reads never error.
#[test]
fn readers_never_fail_under_concurrent_writes() {
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(8).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let mut setup = Client::connect(addr).expect("connect");
    assert!(setup
        .exec("define_relation(hot, rollback);")
        .unwrap()
        .is_ok());
    assert!(setup
        .exec("modify_state(hot, {(x: int): (0)});")
        .unwrap()
        .is_ok());

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let writer = {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("connect");
            let mut v = 1;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let r = c
                    .exec(&format!(
                        "modify_state(hot, rho(hot, inf) union {{(x: int): ({v})}});"
                    ))
                    .expect("write");
                assert!(r.is_ok(), "{r:?}");
                v += 1;
            }
        })
    };
    let readers: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                for _ in 0..30 {
                    let r = c.exec("display(rho(hot, inf));").expect("read");
                    assert!(r.is_ok(), "read failed under write load: {r:?}");
                }
            })
        })
        .collect();
    for r in readers {
        r.join().expect("reader panicked");
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    writer.join().expect("writer panicked");

    handle.shutdown();
    handle.wait();
}

/// A raw connection to `addr`, for tests that shape the bytes on the wire.
fn raw_session(
    addr: std::net::SocketAddr,
) -> (std::net::TcpStream, std::io::BufReader<std::net::TcpStream>) {
    let stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).ok();
    let reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    (stream, reader)
}

/// A frame's payload that arrives well after its header (longer than the
/// session's shutdown poll, shorter than the frame timeout) is waited for,
/// not dropped.
#[test]
fn a_payload_that_lags_its_header_still_gets_a_reply() {
    use std::io::Write;
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(1).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let (mut stream, mut reader) = raw_session(handle.addr());
    stream.write_all(b"4 ").unwrap();
    std::thread::sleep(std::time::Duration::from_millis(300));
    stream.write_all(b"PING\n").unwrap();
    let reply = txtime::server::protocol::read_frame(&mut reader).unwrap();
    assert_eq!(reply.as_deref(), Some("OK pong"));
    handle.shutdown();
    handle.wait();
}

/// Two frames that reach the server in one write get two replies, in the
/// order they were sent.
#[test]
fn two_frames_in_one_write_get_two_replies_in_order() {
    use std::io::Write;
    let engine = Engine::new(
        BackendKind::ForwardDelta,
        CheckpointPolicy::every_k(1).unwrap(),
    );
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let (mut stream, mut reader) = raw_session(handle.addr());
    stream.write_all(b"4 PING\n12 SNAPSHOT OFF\n").unwrap();
    let first = txtime::server::protocol::read_frame(&mut reader).unwrap();
    let second = txtime::server::protocol::read_frame(&mut reader).unwrap();
    assert_eq!(first.as_deref(), Some("OK pong"));
    assert_eq!(second.as_deref(), Some("OK snapshot off"));
    handle.shutdown();
    handle.wait();
}

/// A session reuses one reply buffer: a small reply after a 1 024-row one
/// is exactly its own text, with nothing left over from the big one.
#[test]
fn a_small_reply_after_a_large_one_carries_nothing_over() {
    let engine = Engine::new(BackendKind::ForwardDelta, CheckpointPolicy::Never);
    let handle = serve(engine, listener(), ServerConfig::default()).expect("server starts");
    let mut c = Client::connect(handle.addr()).expect("connect");
    let rows: Vec<String> = (0..1024).map(|x| format!("({x})")).collect();
    assert!(c.exec("define_relation(r, rollback);").unwrap().is_ok());
    let literal = format!("{{(x: int): {}}}", rows.join(", "));
    assert!(c
        .exec(&format!("modify_state(r, {literal});"))
        .unwrap()
        .is_ok());
    let big = c.request_raw("EXEC display(rho(r, inf))").unwrap();
    assert_eq!(big, format!("VAL\n(x: int) {{ {} }}", rows.join(", ")));
    let small = c
        .request_raw("EXEC display(select[x = 5](rho(r, inf)))")
        .unwrap();
    assert_eq!(small, "VAL\n(x: int) { (5) }");
    assert_eq!(c.request_raw("PING").unwrap(), "OK pong");
    handle.shutdown();
    handle.wait();
}
