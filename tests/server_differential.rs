//! The concurrent-session differential suite: N sessions running an
//! interleaved mix of reads and writes must be observationally identical
//! — values AND errors — to *some* sequential ordering of the same
//! commands (the paper's §3.2 claim 4: concurrency is legal exactly when
//! its effect equals sequential update with monotonically increasing
//! transaction numbers).
//!
//! The oracle is constructed from the server's own acks: every acked
//! write carries its commit-time transaction number, so replaying the
//! acked writes in tx order on a fresh single-threaded engine *is* the
//! sequential ordering the server claims to have implemented. The suite
//! then checks, across memo on/off × every backend (and the delta
//! chain without checkpoints and under compaction):
//!
//! * every version of every relation matches the oracle's (the full
//!   rollback history, not just the final state);
//! * every concurrent read returned a state the oracle actually passed
//!   through (reads are consistent with some prefix);
//! * scripted error commands failed identically on server and oracle.

use std::net::TcpListener;
use std::num::NonZeroUsize;
use std::sync::{Arc, Barrier, Mutex};

use txtime::core::{Expr, TransactionNumber, TxSpec};
use txtime::server::{serve, Client, Response, ServerConfig};
use txtime::storage::{BackendKind, CheckpointPolicy, Engine};

const SESSIONS: usize = 4;
const ROUNDS: usize = 4;

/// One session's observation log: the command text sent and the parsed
/// response, in order.
type Log = Vec<(String, Response)>;

fn ack_tx(resp: &Response) -> Option<u64> {
    match resp {
        Response::Ok(detail) => detail
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("tx=")?.parse().ok()),
        _ => None,
    }
}

/// One engine configuration, given to the server and its oracle alike.
#[derive(Debug, Clone, Copy)]
struct Setup {
    backend: BackendKind,
    checkpoints: CheckpointPolicy,
    /// Replaces the engine's own auto-compaction threshold when set.
    auto_compact: Option<NonZeroUsize>,
    memo: bool,
    /// Contended rounds per session.
    rounds: usize,
}

impl Setup {
    /// A checkpoint every 4 versions and the engine's own compaction
    /// threshold.
    fn new(backend: BackendKind, memo: bool) -> Setup {
        Setup {
            backend,
            checkpoints: CheckpointPolicy::every_k(4).unwrap(),
            auto_compact: None,
            memo,
            rounds: ROUNDS,
        }
    }

    fn engine(self) -> Engine {
        let mut engine = Engine::new(self.backend, self.checkpoints);
        if self.auto_compact.is_some() {
            engine.set_auto_compact(self.auto_compact);
        }
        engine.set_memo_capacity(if self.memo { 256 } else { 0 });
        engine
    }
}

/// Drives `SESSIONS` concurrent sessions through an interleaved script
/// against a freshly configured server; returns the per-session logs and
/// the server's final engine.
fn run_server(setup: Setup) -> (Vec<Log>, Engine) {
    let engine = setup.engine();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let handle = serve(engine, listener, ServerConfig::default()).expect("server starts");
    let addr = handle.addr();

    let barrier = Arc::new(Barrier::new(SESSIONS));
    let logs: Arc<Mutex<Vec<Log>>> = Arc::new(Mutex::new(vec![Vec::new(); SESSIONS]));
    let workers: Vec<_> = (0..SESSIONS)
        .map(|i| {
            let barrier = barrier.clone();
            let logs = logs.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                let mut log = Log::new();
                let send = |c: &mut Client, log: &mut Log, cmd: String| {
                    let resp = c.exec(&cmd).expect("request survives");
                    log.push((cmd, resp));
                };
                // Private setup: disjoint relations, no interleaving
                // hazards.
                send(&mut c, &mut log, format!("define_relation(p{i}, rollback);"));
                send(
                    &mut c,
                    &mut log,
                    format!("modify_state(p{i}, {{(x: int): ({i})}});"),
                );
                // Session 0 owns the shared relation's definition and
                // seed; everyone synchronizes before touching it.
                if i == 0 {
                    send(&mut c, &mut log, "define_relation(shared, rollback);".into());
                    send(
                        &mut c,
                        &mut log,
                        "modify_state(shared, {(s: int, v: int): (99, 99)});".into(),
                    );
                }
                barrier.wait();
                // The contended phase: every session appends to the
                // shared relation, reads it back, reads its private
                // relation, and fires a deterministic error.
                for round in 0..setup.rounds {
                    send(
                        &mut c,
                        &mut log,
                        format!(
                            "modify_state(shared, rho(shared, inf) union {{(s: int, v: int): ({i}, {round})}});"
                        ),
                    );
                    send(&mut c, &mut log, "display(rho(shared, inf));".into());
                    send(&mut c, &mut log, format!("display(rho(p{i}, inf));"));
                    // `nosuch` is never defined by any session, so this
                    // check error is interleave-independent.
                    send(&mut c, &mut log, "display(rho(nosuch, inf));".into());
                }
                assert!(c.request("QUIT").expect("quit").is_ok());
                logs.lock().unwrap()[i] = log;
            })
        })
        .collect();
    for w in workers {
        w.join().expect("session panicked");
    }
    handle.shutdown();
    let report = handle.wait();
    let logs = Arc::try_unwrap(logs).unwrap().into_inner().unwrap();
    (logs, report.engine)
}

/// Replays the acked writes in commit-clock order on a fresh engine of
/// the same configuration — the sequential oracle.
fn replay_oracle(setup: Setup, logs: &[Log]) -> Engine {
    let mut writes: Vec<(u64, &str)> = Vec::new();
    for log in logs {
        for (cmd, resp) in log {
            if let Some(tx) = ack_tx(resp) {
                writes.push((tx, cmd));
            }
        }
    }
    writes.sort_by_key(|(tx, _)| *tx);
    // The commit clocks the sessions saw form one gapless monotone
    // sequence — claim 4's "monotonically increasing transaction time".
    let clocks: Vec<TransactionNumber> = writes
        .iter()
        .map(|(tx, _)| TransactionNumber(*tx))
        .collect();
    assert!(
        txtime::txn::is_monotone(&clocks),
        "acked commit clocks are not monotone: {clocks:?}"
    );
    assert_eq!(
        clocks.first(),
        Some(&TransactionNumber(1)),
        "history does not start at tx 1"
    );
    assert_eq!(
        clocks.last().map(|t| t.0),
        Some(writes.len() as u64),
        "gaps in the acked commit clocks"
    );

    let mut oracle = setup.engine();
    for (tx, cmd) in &writes {
        let script = format!("{cmd}\n");
        oracle
            .execute_script(&script)
            .unwrap_or_else(|e| panic!("oracle replay failed at tx {tx} ({cmd}): {e}"));
        assert_eq!(oracle.tx().0, *tx, "oracle clock diverged at {cmd}");
    }
    oracle
}

fn rendered(engine: &Engine, expr: &Expr) -> Result<String, String> {
    engine
        .eval(expr)
        .map(|s| s.to_string())
        .map_err(|e| e.to_string())
}

/// Runs `setup` on the server and the oracle, checks the three
/// properties above, and returns the server's final engine.
fn assert_differential(setup: Setup) -> Engine {
    let label = format!("{setup:?}");
    let (logs, server_engine) = run_server(setup);
    let oracle = replay_oracle(setup, &logs);

    // 1. The full version history of every relation matches: server and
    //    oracle agree on ρ(r, t) — value or error — for every t.
    let final_tx = oracle.tx().0;
    assert_eq!(server_engine.tx().0, final_tx, "[{label}] clock mismatch");
    let mut relations = server_engine.relations();
    relations.sort_unstable();
    let mut oracle_relations = oracle.relations();
    oracle_relations.sort_unstable();
    assert_eq!(relations, oracle_relations, "[{label}] catalog mismatch");
    for rel in &relations {
        for t in 0..=final_tx {
            let at = Expr::rollback(*rel, TxSpec::At(TransactionNumber(t)));
            assert_eq!(
                rendered(&server_engine, &at),
                rendered(&oracle, &at),
                "[{label}] version divergence at rho({rel}, {t})"
            );
        }
    }

    // 2. Every concurrent read of the shared relation returned a state
    //    the sequential oracle actually passes through.
    let shared_versions: Vec<String> = (0..=final_tx)
        .filter_map(|t| {
            rendered(
                &oracle,
                &Expr::rollback("shared", TxSpec::At(TransactionNumber(t))),
            )
            .ok()
        })
        .collect();
    for (i, log) in logs.iter().enumerate() {
        for (cmd, resp) in log {
            if cmd != "display(rho(shared, inf));" {
                continue;
            }
            match resp {
                Response::Val(state) => assert!(
                    shared_versions.iter().any(|v| v == state),
                    "[{label}] session {i} read a state outside the sequential history: {state}"
                ),
                other => panic!("[{label}] shared read failed: {other:?}"),
            }
        }
    }

    // 3. Error parity: the scripted failing reads erred identically on
    //    both sides (kind and diagnostic), and nothing else erred.
    let oracle_nosuch =
        rendered(&oracle, &Expr::current("nosuch")).expect_err("oracle accepts undefined relation");
    for (i, log) in logs.iter().enumerate() {
        for (cmd, resp) in log {
            if cmd == "display(rho(nosuch, inf));" {
                match resp {
                    Response::Err { kind, message } => {
                        assert_eq!(kind, "check", "[{label}] wrong error class");
                        assert!(
                            message.contains("E001") && message.contains("nosuch"),
                            "[{label}] diagnostic mismatch: {message}"
                        );
                    }
                    other => panic!(
                        "[{label}] session {i} error divergence: {cmd} got {other:?}, oracle said {oracle_nosuch}"
                    ),
                }
            } else {
                assert!(
                    resp.is_ok(),
                    "[{label}] session {i} unexpected failure on {cmd}: {resp:?}"
                );
            }
        }
    }
    server_engine
}

#[test]
fn full_copy_matches_sequential_oracle() {
    for memo in [true, false] {
        assert_differential(Setup::new(BackendKind::FullCopy, memo));
    }
}

#[test]
fn forward_delta_matches_sequential_oracle() {
    for memo in [true, false] {
        assert_differential(Setup::new(BackendKind::ForwardDelta, memo));
    }
}

/// No checkpoints: every past read of the shared relation replays the
/// chain up from its first version.
#[test]
fn forward_delta_without_checkpoints_matches_sequential_oracle() {
    for memo in [true, false] {
        assert_differential(Setup {
            checkpoints: CheckpointPolicy::Never,
            ..Setup::new(BackendKind::ForwardDelta, memo)
        });
    }
}

/// Compaction runs on every second append, between the sessions' reads;
/// past the fold interval (32 versions without checkpoints) it pins a
/// checkpoint in the shared relation's chain.
#[test]
fn forward_delta_compacting_every_two_appends_matches_sequential_oracle() {
    for memo in [true, false] {
        let engine = assert_differential(Setup {
            checkpoints: CheckpointPolicy::Never,
            auto_compact: NonZeroUsize::new(2),
            rounds: 10,
            ..Setup::new(BackendKind::ForwardDelta, memo)
        });
        let report = engine.space_report();
        let shared = report.relations.iter().find(|r| r.name == "shared");
        let folded = shared.map(|r| r.compaction.deltas_folded);
        assert!(folded > Some(0), "memo={memo}: {shared:?}");
    }
}
