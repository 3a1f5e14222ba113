#![warn(missing_docs)]

//! `txtime serve` — a multi-session TCP front end for the storage engine.
//!
//! The paper fixes what concurrency must *mean*, not how it is built:
//! "Implementations may also permit concurrent transactions, again as
//! long as the semantics of sequential update with a monotonically
//! increasing transaction time is preserved" (§3.2, claim 4). This crate
//! is the front door that earns that license at the wire:
//!
//! * **Sessions** — each TCP connection is a session running its own
//!   parse → static-check → plan pipeline. Commands are checked against
//!   a shared [`Linter`] catalog (kept in lock-step with the engine by
//!   committing it in commit order), so ill-formed commands are rejected
//!   with `E0xx` diagnostics carrying spans into the client's own text
//!   before any state is touched.
//! * **MVCC snapshot reads** — the rollback stores are append-only, so
//!   any past version stays materializable forever. A session that pins
//!   a snapshot (`SNAPSHOT [AT n]`) has its ρ/ρ̂-at-∞ leaves rewritten to
//!   ρ-at-`n`; its reads are then repeatable regardless of interleaved
//!   commits, and hold the engine's read lock only while one expression
//!   evaluates — never across requests, so readers never gate writers.
//!   `SNAPSHOT DURABLE` pins to the newest *fsynced* transaction instead
//!   of the applied clock, for clients that must never observe state a
//!   crash could take back (DESIGN.md §14, "the durability window").
//! * **Group commit** — all writes funnel through a single committer
//!   thread: a batch is validated and applied under the write lock,
//!   journal lines for the *successful* commands are formatted with
//!   [`wal::append_commands`], and then — outside the lock — written
//!   with one `write_all` and made durable with one fsync before any
//!   client is acked. One fsync per group instead of one per commit is
//!   the throughput lever BENCH_10 measures; acks after fsync is the
//!   durability story. A single committer makes commit order a total
//!   order, so commit clocks are monotone by construction
//!   ([`txtime_txn::is_monotone`] asserts it per batch).
//! * **Admission control** — connections beyond `max_sessions` are
//!   turned away (`ERR busy`); requests queue on a gate sized from the
//!   engine's [`ExecPool`] thread budget and are load-shed
//!   (`ERR overloaded`) rather than queued without bound. Gauges are
//!   [`SessionStats`] and [`GroupCommitStats`], surfaced by the `STATS`
//!   verb and `txtime stats --addr`.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use txtime_analyze::Linter;
use txtime_core::{Command, CommandOutcome, Expr, TransactionNumber, TxSpec};
use txtime_exec::{ExecPool, OpKind};
use txtime_parser::parse_command_spanned;
use txtime_storage::{wal, Engine};

pub mod client;
pub mod protocol;
mod stats;

pub use client::{Client, Response};
pub use stats::{GroupCommitStats, SessionStats};

use stats::{GroupCommitCounters, SessionCounters};

/// How often blocked session reads wake to poll the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(100);
/// How long a session waits for the rest of a frame once its first byte
/// has arrived.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// The most commits one group flushes (bounds write-lock hold time).
const MAX_GROUP: usize = 64;
/// How long a session waits for its commit ack before giving up. Hitting
/// it does NOT mean the write failed — the commit may still be applied
/// and become durable — so the response uses the dedicated `ERR timeout`
/// kind, never `ERR exec` (which is reserved for definite failures).
const ACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Crash injection points for the recovery tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// Kill the process after a commit group's WAL append + fsync but
    /// before any client is acked — the window the crash-recovery suite
    /// pins: everything durable replays, nothing acked is lost.
    CrashBeforeGroupAck,
}

impl Failpoint {
    /// Reads `TXTIME_FAILPOINT` (value `group-commit-ack`).
    pub fn from_env() -> Option<Failpoint> {
        match std::env::var("TXTIME_FAILPOINT").ok()?.as_str() {
            "group-commit-ack" => Some(Failpoint::CrashBeforeGroupAck),
            _ => None,
        }
    }
}

/// The process exit code a tripped failpoint uses (distinguishable from
/// panics and clean exits in the crash tests).
pub const FAILPOINT_EXIT_CODE: i32 = 86;

/// Server tuning. `Default` is sized for tests and small deployments.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Journal path; `None` serves memory-only (no durability).
    pub wal_path: Option<PathBuf>,
    /// Batch write commits into one fsync (`false` = the per-commit
    /// fsync baseline BENCH_10 compares against).
    pub group_commit: bool,
    /// Connections beyond this are refused with `ERR busy`.
    pub max_sessions: usize,
    /// Concurrently *executing* requests; `0` derives `2 × pool threads`
    /// from the engine's worker pool, floored at 8 so small hosts can
    /// still overlap request pipelines with the fsync stage.
    pub max_inflight: usize,
    /// How long a request may wait for an execution permit before being
    /// load-shed with `ERR overloaded`.
    pub queue_wait: Duration,
    /// Bound on the committer's queue; pushes beyond it are load-shed.
    pub commit_queue_depth: usize,
    /// Crash injection for the recovery tests (see [`Failpoint`]).
    pub failpoint: Option<Failpoint>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            wal_path: None,
            group_commit: true,
            max_sessions: 64,
            max_inflight: 0,
            queue_wait: Duration::from_millis(500),
            commit_queue_depth: 1024,
            failpoint: None,
        }
    }
}

/// What [`ServerHandle::wait`] returns: the engine (flushed and synced)
/// plus the final gauge snapshots.
pub struct ServerReport {
    /// The engine, recovered from the server after every thread joined.
    pub engine: Engine,
    /// Final session/admission gauges.
    pub sessions: SessionStats,
    /// Final group-commit gauges.
    pub group_commit: GroupCommitStats,
}

type WriteAck = Result<(CommandOutcome, TransactionNumber, Vec<String>), String>;

struct WriteReq {
    cmd: Command,
    ack: mpsc::Sender<WriteAck>,
}

#[derive(Default)]
struct QueueInner {
    q: VecDeque<WriteReq>,
    closed: bool,
}

/// The bounded commit queue (push from sessions, drain by the committer).
struct CommitQueue {
    inner: Mutex<QueueInner>,
    nonempty: Condvar,
    depth: usize,
}

impl CommitQueue {
    fn new(depth: usize) -> CommitQueue {
        CommitQueue {
            inner: Mutex::new(QueueInner::default()),
            nonempty: Condvar::new(),
            depth: depth.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `Err(true)` = queue full (shed), `Err(false)` = closed (shutdown).
    fn push(&self, req: WriteReq, gauges: &GroupCommitCounters) -> Result<(), bool> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(false);
        }
        if inner.q.len() >= self.depth {
            return Err(true);
        }
        inner.q.push_back(req);
        gauges.note_queue_depth(inner.q.len());
        self.nonempty.notify_one();
        Ok(())
    }

    /// Blocks for work. `group` drains up to [`MAX_GROUP`] requests;
    /// otherwise exactly one (the per-commit-fsync baseline). `None` =
    /// closed and drained.
    fn pop_batch(&self, group: bool) -> Option<Vec<WriteReq>> {
        let mut inner = self.lock();
        loop {
            if !inner.q.is_empty() {
                let take = if group {
                    MAX_GROUP.min(inner.q.len())
                } else {
                    1
                };
                return Some(inner.q.drain(..take).collect());
            }
            if inner.closed {
                return None;
            }
            inner = self
                .nonempty
                .wait_timeout(inner, POLL_INTERVAL)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.nonempty.notify_all();
    }
}

/// A counting gate over the worker pool: at most `permits` requests
/// execute at once; the rest wait up to `queue_wait` and are then shed.
struct Gate {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Gate {
        Gate {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self, wait: Duration) -> bool {
        let deadline = Instant::now() + wait;
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if *permits > 0 {
                *permits -= 1;
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            permits = self
                .freed
                .wait_timeout(permits, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn release(&self) {
        let mut permits = self.permits.lock().unwrap_or_else(|e| e.into_inner());
        *permits += 1;
        self.freed.notify_one();
    }
}

struct Shared {
    engine: RwLock<Engine>,
    linter: Mutex<Linter>,
    pool: Arc<ExecPool>,
    cfg: ServerConfig,
    queue: CommitQueue,
    gate: Gate,
    sessions: SessionCounters,
    commits: GroupCommitCounters,
    shutdown: AtomicBool,
}

impl Shared {
    fn read_engine(&self) -> std::sync::RwLockReadGuard<'_, Engine> {
        self.engine.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_engine(&self) -> std::sync::RwLockWriteGuard<'_, Engine> {
        self.engine.write().unwrap_or_else(|e| e.into_inner())
    }

    fn stats_text(&self) -> String {
        let (tx, relations, memo) = {
            let eng = self.read_engine();
            (eng.tx(), eng.relations().len(), eng.memo_stats())
        };
        format!(
            "{}{}engine: clock at tx {tx} (durable at tx {}), {relations} relation(s)\nmemo: {} root(s), {} log entries held, largest root lag {} commit(s)\nwal: {}\n",
            self.sessions.snapshot(),
            self.commits.snapshot(),
            self.commits.durable_tx(),
            memo.roots,
            memo.log_entries,
            memo.max_lag,
            self.cfg
                .wal_path
                .as_ref()
                .map_or("none".to_string(), |p| p.display().to_string()),
        )
    }
}

/// A running server: the listener, committer, and session threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<std::thread::JoinHandle<()>>,
    committer: Option<std::thread::JoinHandle<()>>,
}

/// Starts a server on `listener`, taking ownership of `engine`.
///
/// The engine should *not* have a WAL attached ([`Engine::with_wal`]);
/// the server journals through `cfg.wal_path` itself so the group fsync
/// happens outside the engine's write lock — readers are never stalled
/// behind a disk flush. Use [`txtime_storage::recovery::recover`] first
/// to continue an existing journal; before attaching it for append, the
/// server truncates any corrupt tail ([`wal::truncate_to_verified_prefix`])
/// so new commits extend exactly the prefix recovery replayed — appending
/// after dead bytes would let the *next* recovery discard acked writes.
pub fn serve(
    engine: Engine,
    listener: TcpListener,
    cfg: ServerConfig,
) -> std::io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let pool = engine.pool();
    let inflight = if cfg.max_inflight == 0 {
        (pool.threads() * 2).max(8)
    } else {
        cfg.max_inflight
    };
    let wal_file = match &cfg.wal_path {
        Some(path) => {
            // Recovery replays only the verified prefix of the journal;
            // anything after the first corrupt line is dead bytes. They
            // must be truncated *before* we attach in append mode —
            // otherwise new (acked, fsynced) commits would land after
            // the corruption and the next recovery would silently
            // discard them.
            if std::fs::metadata(path)
                .map(|m| m.len() > 0)
                .unwrap_or(false)
            {
                let dropped = wal::truncate_to_verified_prefix(path)?;
                if dropped > 0 {
                    eprintln!(
                        "wal: truncated {dropped} corrupt trailing byte(s) from {} before appending",
                        path.display()
                    );
                }
            }
            Some(
                std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?,
            )
        }
        None => None,
    };
    // Seed the checker's catalog from an engine that already has state
    // (the recovery path): replaying relation definitions would need the
    // original commands, so instead start the linter from the live
    // catalog the engine exposes.
    let linter = seed_linter(&engine);
    let commits = GroupCommitCounters::default();
    // Everything the engine holds at startup came from the recovered
    // journal (or is a fresh empty database): the durable clock starts
    // at the engine clock, not 0.
    commits.note_durable(engine.tx().0);
    let shared = Arc::new(Shared {
        engine: RwLock::new(engine),
        linter: Mutex::new(linter),
        pool,
        queue: CommitQueue::new(cfg.commit_queue_depth),
        gate: Gate::new(inflight),
        sessions: SessionCounters::default(),
        commits,
        shutdown: AtomicBool::new(false),
        cfg,
    });

    let committer = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("txtime-commit".into())
            .spawn(move || committer_loop(&shared, wal_file))?
    };
    let listener_thread = {
        let shared = shared.clone();
        std::thread::Builder::new()
            .name("txtime-accept".into())
            .spawn(move || accept_loop(&shared, listener))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        listener: Some(listener_thread),
        committer: Some(committer),
    })
}

impl ServerHandle {
    /// The bound address (resolves `:0` listeners).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Current session/admission gauges.
    pub fn session_stats(&self) -> SessionStats {
        self.shared.sessions.snapshot()
    }

    /// Current group-commit gauges.
    pub fn group_commit_stats(&self) -> GroupCommitStats {
        self.shared.commits.snapshot()
    }

    /// Asks the server to stop: no new sessions, live sessions finish
    /// their in-flight request. Equivalent to a client `SHUTDOWN`.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until the server has shut down (via [`ServerHandle::shutdown`]
    /// or a client `SHUTDOWN`), joins every thread, drains the commit
    /// queue, flushes the engine, and returns the final report.
    pub fn wait(mut self) -> ServerReport {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL_INTERVAL);
        }
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
        // Sessions poll the flag at POLL_INTERVAL; wait for them to
        // drain before closing the commit queue so no enqueue races the
        // close. A stuck session (peer holding a half-frame) is bounded
        // by FRAME_TIMEOUT.
        let deadline = Instant::now() + FRAME_TIMEOUT + Duration::from_secs(5);
        while self.shared.sessions.snapshot().active > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.shared.queue.close();
        if let Some(t) = self.committer.take() {
            let _ = t.join();
        }
        let sessions = self.shared.sessions.snapshot();
        let group_commit = self.shared.commits.snapshot();
        let shared = self.shared;
        // Every thread has joined; the Arc is now unique.
        let shared = Arc::try_unwrap(shared)
            .unwrap_or_else(|_| panic!("server threads joined but Shared still aliased"));
        let mut engine = shared
            .engine
            .into_inner()
            .unwrap_or_else(|e| e.into_inner());
        engine.shutdown();
        ServerReport {
            engine,
            sessions,
            group_commit,
        }
    }
}

/// Builds a [`Linter`] whose catalog matches a live engine's by replaying
/// synthetic commands (recovery path: the journal's commands are not
/// retained, but the catalog is fully described by the engine): a
/// `define_relation` per relation, plus — when the relation has states —
/// a `modify_state` of its current state as a constant, so the checker
/// knows the scheme and does not reject ρ of a recovered relation as
/// stateless (E010).
fn seed_linter(engine: &Engine) -> Linter {
    // A synthetic seeding command that fails its own check means the
    // rebuilt catalog is missing an entry the engine has — a restarted
    // server would then `ERR check` commands a fresh one accepts. That
    // must never be silent: loud in tests, logged in production.
    fn seed(linter: &mut Linter, cmd: &Command, what: &str, name: &str) {
        let diags = linter.check(cmd, None);
        if diags.is_empty() {
            let _ = linter.commit(cmd, None);
        } else {
            let rendered: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
            debug_assert!(
                false,
                "seed_linter: synthetic {what} for {name:?} rejected, catalog drifts from engine: {rendered:?}"
            );
            eprintln!(
                "warning: linter catalog drift: synthetic {what} for {name:?} rejected ({}); \
                 post-recovery checks of {name:?} may diverge from a fresh server",
                rendered.join("; ")
            );
        }
    }
    let mut linter = Linter::new();
    for name in engine.relations() {
        let Some(rtype) = engine.relation_type(name) else {
            continue;
        };
        seed(
            &mut linter,
            &Command::define_relation(name, rtype),
            "define_relation",
            name,
        );
        let current = engine
            .eval(&Expr::current(name))
            .or_else(|_| engine.eval(&Expr::HRollback(name.to_string(), TxSpec::Current)));
        if let Ok(state) = current {
            let constant = match state {
                txtime_core::StateValue::Snapshot(s) => Expr::SnapshotConst(s),
                txtime_core::StateValue::Historical(h) => Expr::HistoricalConst(h),
            };
            seed(
                &mut linter,
                &Command::modify_state(name, constant),
                "modify_state",
                name,
            );
        }
    }
    linter
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    let mut session_threads: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                session_threads.retain(|t| !t.is_finished());
                let active = shared.sessions.active.load(Ordering::Relaxed);
                if active >= shared.cfg.max_sessions {
                    shared
                        .sessions
                        .rejected_sessions
                        .fetch_add(1, Ordering::Relaxed);
                    let mut stream = stream;
                    let _ = protocol::write_frame(
                        &mut stream,
                        &format!(
                            "ERR busy: {active} session(s) active (max {}), retry later",
                            shared.cfg.max_sessions
                        ),
                    );
                    continue;
                }
                shared.sessions.accepted.fetch_add(1, Ordering::Relaxed);
                shared.sessions.active.fetch_add(1, Ordering::Relaxed);
                let session_shared = shared.clone();
                let spawned = std::thread::Builder::new()
                    .name("txtime-session".into())
                    .spawn(move || {
                        session_loop(&session_shared, stream);
                        session_shared
                            .sessions
                            .active
                            .fetch_sub(1, Ordering::Relaxed);
                    });
                match spawned {
                    Ok(t) => session_threads.push(t),
                    Err(_) => {
                        // Spawn failure: undo the active count; the
                        // stream drops and the client sees a close.
                        shared.sessions.active.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for t in session_threads {
        let _ = t.join();
    }
}

/// One session: frames in, frames out, until QUIT/EOF/shutdown.
fn session_loop(shared: &Arc<Shared>, stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(reader_stream);
    // Every reply is built in this one buffer and sent from it.
    let mut frame = protocol::Frame::new();
    // A session's pinned snapshot: reads rewrite ρ(·, ∞) to ρ(·, At(n)).
    let mut snapshot: Option<TransactionNumber> = None;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = protocol::write_frame(&mut writer, "ERR shutdown: server stopping");
            return;
        }
        // Poll for the first byte so shutdown is honored promptly, then
        // allow FRAME_TIMEOUT for the rest of the frame.
        reader.get_ref().set_read_timeout(Some(POLL_INTERVAL)).ok();
        match std::io::BufRead::fill_buf(&mut reader) {
            Ok([]) => return, // clean EOF between frames
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        }
        reader.get_ref().set_read_timeout(Some(FRAME_TIMEOUT)).ok();
        let request = match protocol::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            Ok(None) => return,
            Err(e) => {
                let _ = protocol::write_frame(&mut writer, &format!("ERR proto: {e}"));
                return;
            }
        };
        shared.sessions.requests.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let quit = handle_request(shared, &request, &mut snapshot, &mut frame);
        shared
            .pool
            .record_external(OpKind::Serve, 1, started.elapsed());
        if frame.send(&mut writer).is_err() || quit {
            return;
        }
    }
}

/// Dispatches one request payload, writing the response into `frame`;
/// returns whether to close the session.
fn handle_request(
    shared: &Arc<Shared>,
    request: &str,
    snapshot: &mut Option<TransactionNumber>,
    frame: &mut protocol::Frame,
) -> bool {
    let request = request.trim();
    if let Some(text) = request.strip_prefix("EXEC ") {
        // Admission: a permit to execute, or shed under saturation. The
        // permit covers the CPU-bound pipeline (parse, check, evaluate,
        // render a read's answer, enqueue) — NOT the wait for a commit
        // ack, which burns no CPU and is bounded separately by the
        // commit queue's depth. Holding the permit across the fsync wait
        // would cap concurrent commits at the gate width and starve the
        // group-commit batcher.
        if !shared.gate.acquire(shared.cfg.queue_wait) {
            shared
                .sessions
                .shed_requests
                .fetch_add(1, Ordering::Relaxed);
            frame.push_str("ERR overloaded: execution queue saturated, retry");
            return false;
        }
        let pending = exec_command(shared, text, *snapshot, frame);
        shared.gate.release();
        if let Some(rx) = pending {
            match rx.recv_timeout(ACK_TIMEOUT) {
                Ok(Ok((outcome, tx, warnings))) => {
                    shared.sessions.writes.fetch_add(1, Ordering::Relaxed);
                    frame.push_str(&format!("OK {} tx={}", outcome_name(&outcome), tx.0));
                    for w in warnings {
                        frame.push_str("\n");
                        frame.push_str(&w);
                    }
                }
                Ok(Err(e)) => frame.push_str(&format!("ERR exec: {e}")),
                // No ack in time: the commit's outcome is UNKNOWN (it may
                // yet be applied and fsynced), which is not the same
                // thing as a definite `exec` failure — a client that
                // retried on `exec` here could double-apply a write.
                Err(_) => frame.push_str(
                    "ERR timeout: commit outcome unknown (no ack within 60s) — \
                     the write may still become durable; consult the journal",
                ),
            }
        }
        return false;
    }
    match request {
        "PING" => frame.push_str("OK pong"),
        "STATS" => frame.push_str(&format!("OK stats\n{}", shared.stats_text())),
        "QUIT" => {
            frame.push_str("OK bye");
            return true;
        }
        "SHUTDOWN" => {
            shared.shutdown.store(true, Ordering::SeqCst);
            frame.push_str("OK stopping");
            return true;
        }
        "SNAPSHOT" => {
            let tx = shared.read_engine().tx();
            *snapshot = Some(tx);
            frame.push_str(&format!("OK snapshot tx={}", tx.0));
        }
        "SNAPSHOT DURABLE" => {
            // Crash-consistent reads: pin to the newest transaction whose
            // group fsync has returned, never to applied-but-unsynced
            // state (the durability window DESIGN.md §14 documents).
            let tx = TransactionNumber(shared.commits.durable_tx());
            *snapshot = Some(tx);
            frame.push_str(&format!("OK snapshot tx={}", tx.0));
        }
        "SNAPSHOT OFF" => {
            *snapshot = None;
            frame.push_str("OK snapshot off");
        }
        other if other.starts_with("SNAPSHOT AT ") => {
            match other["SNAPSHOT AT ".len()..].trim().parse::<u64>() {
                Ok(n) => {
                    // `ρ(I, n)` for `n` at or past the clock is the
                    // *current* state: a pin beyond the applied clock
                    // would move with every commit up to `n`, and a
                    // snapshot is a version that can no longer change.
                    let now = shared.read_engine().tx();
                    if n > now.0 {
                        frame.push_str(&format!(
                            "ERR proto: SNAPSHOT AT {n} is beyond the applied clock (tx={})",
                            now.0
                        ));
                    } else {
                        *snapshot = Some(TransactionNumber(n));
                        frame.push_str(&format!("OK snapshot tx={n}"));
                    }
                }
                Err(_) => frame.push_str("ERR proto: SNAPSHOT AT takes a transaction number"),
            }
        }
        other => frame.push_str(&format!(
            "ERR proto: unknown verb {:?} (EXEC, SNAPSHOT [AT n|DURABLE|OFF], PING, STATS, QUIT, SHUTDOWN)",
            other.split_whitespace().next().unwrap_or("")
        )),
    }
    false
}

/// The per-session pipeline for one command: parse → check → execute,
/// with reads evaluated under the shared read lock and writes funneled
/// through the group committer. This is the gated stage: a finished
/// response is written into `frame` here, and a commit hands back its
/// pending ack, to be awaited *after* the admission permit is released.
fn exec_command(
    shared: &Arc<Shared>,
    text: &str,
    snapshot: Option<TransactionNumber>,
    frame: &mut protocol::Frame,
) -> Option<mpsc::Receiver<WriteAck>> {
    let (cmd, spans) = match parse_command_spanned(text.trim().trim_end_matches(';')) {
        Ok(pair) => pair,
        Err(e) => {
            frame.push_str(&format!("ERR parse: {e}"));
            return None;
        }
    };
    // Static check against the shared catalog — diagnostics carry spans
    // into the text the client sent.
    let diags = {
        let linter = shared.linter.lock().unwrap_or_else(|e| e.into_inner());
        linter.check(&cmd, Some(&spans))
    };
    if !diags.is_empty() {
        shared
            .sessions
            .check_rejected
            .fetch_add(1, Ordering::Relaxed);
        frame.push_str(&format!("ERR check: {} diagnostic(s)", diags.len()));
        for d in &diags {
            frame.push_str("\n");
            frame.push_str(&d.to_string());
        }
        return None;
    }
    if cmd.is_mutation() {
        let (ack_tx, ack_rx) = mpsc::channel();
        let req = WriteReq { cmd, ack: ack_tx };
        match shared.queue.push(req, &shared.commits) {
            Ok(()) => return Some(ack_rx),
            Err(true) => {
                shared
                    .sessions
                    .shed_requests
                    .fetch_add(1, Ordering::Relaxed);
                frame.push_str("ERR overloaded: commit queue full, retry");
            }
            Err(false) => frame.push_str("ERR shutdown: server stopping"),
        }
        return None;
    }
    // Reads: evaluate under the read lock, pinned if the session holds a
    // snapshot. The lock spans one evaluation only; the answer is a
    // reference-counted handle, so rendering it into the session's frame
    // (the larger part of a big reply) happens after the guard is gone
    // and never keeps the apply thread waiting.
    shared.sessions.reads.fetch_add(1, Ordering::Relaxed);
    let Command::Display(expr) = &cmd else {
        frame.push_str("ERR exec: unsupported non-mutating command");
        return None;
    };
    let expr = match snapshot {
        Some(tx) => pin_expr(expr, tx),
        None => expr.clone(),
    };
    let answer = shared.read_engine().eval(&expr);
    match answer {
        Ok(state) => {
            frame.push_str("VAL\n");
            state
                .encode(frame)
                .expect("a frame's buffer accepts every write");
        }
        Err(e) => frame.push_str(&format!("ERR exec: {e}")),
    }
    None
}

fn outcome_name(outcome: &CommandOutcome) -> &'static str {
    match outcome {
        CommandOutcome::Defined => "defined",
        CommandOutcome::Modified => "modified",
        CommandOutcome::Deleted => "deleted",
        CommandOutcome::Evolved => "evolved",
        CommandOutcome::Displayed(_) => "displayed",
    }
}

/// Rewrites every ρ(·, ∞)/ρ̂(·, ∞) leaf to the pinned transaction number
/// — the MVCC read: append-only stores answer any past version, so the
/// pinned expression is repeatable under concurrent commits.
pub fn pin_expr(expr: &Expr, tx: TransactionNumber) -> Expr {
    let pin = |spec: &TxSpec| match spec {
        TxSpec::Current => TxSpec::At(tx),
        at => *at,
    };
    let rec = |e: &Expr| Box::new(pin_expr(e, tx));
    match expr {
        Expr::SnapshotConst(_) | Expr::HistoricalConst(_) => expr.clone(),
        Expr::Rollback(ident, spec) => Expr::Rollback(ident.clone(), pin(spec)),
        Expr::HRollback(ident, spec) => Expr::HRollback(ident.clone(), pin(spec)),
        Expr::Union(a, b) => Expr::Union(rec(a), rec(b)),
        Expr::Difference(a, b) => Expr::Difference(rec(a), rec(b)),
        Expr::Product(a, b) => Expr::Product(rec(a), rec(b)),
        Expr::Project(attrs, e) => Expr::Project(attrs.clone(), rec(e)),
        Expr::Select(pred, e) => Expr::Select(pred.clone(), rec(e)),
        Expr::HUnion(a, b) => Expr::HUnion(rec(a), rec(b)),
        Expr::HDifference(a, b) => Expr::HDifference(rec(a), rec(b)),
        Expr::HProduct(a, b) => Expr::HProduct(rec(a), rec(b)),
        Expr::HProject(attrs, e) => Expr::HProject(attrs.clone(), rec(e)),
        Expr::HSelect(pred, e) => Expr::HSelect(pred.clone(), rec(e)),
        Expr::Delta(pred, texpr, e) => Expr::Delta(pred.clone(), texpr.clone(), rec(e)),
        Expr::Join(spec, a, b) => Expr::Join(spec.clone(), rec(a), rec(b)),
        Expr::HJoin(spec, a, b) => Expr::HJoin(spec.clone(), rec(a), rec(b)),
    }
}

/// One applied-but-not-yet-durable commit, in flight between the apply
/// stage and the sync stage.
struct SyncItem {
    journal: Vec<u8>,
    ack_to: mpsc::Sender<WriteAck>,
    ack: WriteAck,
}

/// The hand-off queue between the apply stage and the sync stage.
#[derive(Default)]
struct SyncQueue {
    inner: Mutex<(VecDeque<SyncItem>, bool)>,
    nonempty: Condvar,
}

impl SyncQueue {
    fn push(&self, item: SyncItem) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.0.push_back(item);
        self.nonempty.notify_one();
    }

    /// Everything applied since the last fsync, up to [`MAX_GROUP`];
    /// `None` once closed and drained.
    fn drain_group(&self) -> Option<Vec<SyncItem>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if !inner.0.is_empty() {
                let take = MAX_GROUP.min(inner.0.len());
                return Some(inner.0.drain(..take).collect());
            }
            if inner.1 {
                return None;
            }
            inner = self
                .nonempty
                .wait_timeout(inner, POLL_INTERVAL)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    fn close(&self) {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).1 = true;
        self.nonempty.notify_all();
    }
}

/// Makes one group durable (single write + fsync) and acks it. The
/// group-commit core: every item in `group` shares the one fsync.
fn sync_group(shared: &Arc<Shared>, wal_file: &mut Option<std::fs::File>, group: Vec<SyncItem>) {
    let mut journal: Vec<u8> = Vec::new();
    for item in &group {
        journal.extend_from_slice(&item.journal);
    }
    let mut sync_err: Option<String> = None;
    if let (Some(file), false) = (wal_file.as_mut(), journal.is_empty()) {
        let sync = file
            .write_all(&journal)
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_all());
        if let Err(e) = sync {
            sync_err = Some(format!("WAL sync failed: {e}"));
        }
    }
    let committed = group.iter().filter(|i| i.ack.is_ok()).count();
    if committed > 0 && sync_err.is_none() {
        if let Some(Failpoint::CrashBeforeGroupAck) = shared.cfg.failpoint {
            // The crash-recovery window: the group is durable, the acks
            // are not sent. Recovery must replay it; clients must treat
            // the silence as "unknown, consult the log".
            eprintln!("failpoint group-commit-ack: crashing before ack");
            std::process::exit(FAILPOINT_EXIT_CODE);
        }
        // The group's fsync has returned: advance the durable clock to
        // the newest commit it covered, *before* any ack goes out — an
        // acked commit is therefore always ≤ the durable gauge. (With no
        // journal attached there is nothing more durable to wait for;
        // the gauge then tracks the applied clock.)
        if let Some(tx) = group
            .iter()
            .filter_map(|i| i.ack.as_ref().ok().map(|(_, tx, _)| tx.0))
            .max()
        {
            shared.commits.note_durable(tx);
        }
    }
    shared.commits.record_group(committed);
    for item in group {
        let ack = match (&sync_err, item.ack) {
            // The state applied but is not durable: report the failure
            // instead of acking a commit that may not survive a crash.
            (Some(e), Ok(_)) => Err(e.clone()),
            (_, ack) => ack,
        };
        let _ = item.ack_to.send(ack);
    }
}

/// The apply stage of the committer: drains the session queue, applies
/// each command under a briefly-held write lock (readers interleave
/// between commands, never wait out a whole group), then, with the lock
/// released, formats its journal line, brings the static catalog along,
/// and hands it to the sync stage.
///
/// With group commit on, the sync stage runs in its own thread: while it
/// fsyncs group K, this stage keeps applying group K+1, so batches form
/// from genuine concurrency — no artificial batching window. With group
/// commit off, apply and fsync run in lockstep here, one fsync per
/// commit: the baseline BENCH_10 compares against.
fn committer_loop(shared: &Arc<Shared>, mut wal_file: Option<std::fs::File>) {
    let group_commit = shared.cfg.group_commit;
    let sync_queue = Arc::new(SyncQueue::default());
    let syncer = if group_commit {
        let shared = shared.clone();
        let sync_queue = sync_queue.clone();
        let mut wal_file = wal_file.take();
        Some(
            std::thread::Builder::new()
                .name("txtime-sync".into())
                .spawn(move || {
                    while let Some(group) = sync_queue.drain_group() {
                        sync_group(&shared, &mut wal_file, group);
                    }
                    // Closed and drained: one final sync so an empty
                    // tail can never leave buffered bytes behind.
                    if let Some(file) = &mut wal_file {
                        let _ = file.flush();
                        let _ = file.sync_all();
                    }
                })
                .expect("spawn sync stage"),
        )
    } else {
        None
    };

    let mut last_tx = TransactionNumber(0);
    while let Some(batch) = shared.queue.pop_batch(group_commit) {
        for req in batch {
            // The write guard covers `Engine::execute` and nothing else:
            // readers wait out one apply, never the journal formatting
            // or the catalog update below. Commit order is still total
            // (this thread is the only writer, and it finishes one
            // request before it takes the next), which is what keeps the
            // clocks monotone and the static catalog in commit order.
            // The invariant the later steps rest on: an ack leaves only
            // after the sync stage, which comes after everything here,
            // so a client that has been told of a commit always checks
            // its next command against a catalog that contains it.
            let (result, tx) = {
                let mut eng = shared.write_engine();
                let result = eng.execute(&req.cmd);
                (result, eng.tx())
            };
            let (ack, journal) = match result {
                Ok(outcome) => {
                    // Claim 4's invariant, checked at every commit: one
                    // committer, one total order, strictly increasing
                    // transaction numbers.
                    assert!(
                        txtime_txn::is_monotone(&[last_tx, tx]),
                        "commit clock regressed: {last_tx:?} then {tx:?}"
                    );
                    last_tx = tx;
                    // The engine has no WAL attached in serve mode; the
                    // journal line is formatted here and made durable by
                    // the sync stage.
                    let mut line = Vec::new();
                    let _ = wal::append_command(&mut line, &req.cmd);
                    let warnings = shared
                        .linter
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .commit(&req.cmd, None)
                        .iter()
                        .map(|w| w.to_string())
                        .collect();
                    (Ok((outcome, tx, warnings)), line)
                }
                Err(e) => (Err(e.to_string()), Vec::new()),
            };
            let item = SyncItem {
                journal,
                ack_to: req.ack,
                ack,
            };
            if group_commit {
                sync_queue.push(item);
            } else {
                sync_group(shared, &mut wal_file, vec![item]);
            }
        }
    }
    sync_queue.close();
    if let Some(t) = syncer {
        let _ = t.join();
    }
    if let Some(file) = &mut wal_file {
        let _ = file.flush();
        let _ = file.sync_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pin_rewrites_current_leaves_only() {
        let e = Expr::current("r")
            .union(Expr::rollback("s", TxSpec::At(TransactionNumber(3))))
            .select(txtime_snapshot::Predicate::True);
        let pinned = pin_expr(&e, TransactionNumber(9));
        match pinned {
            Expr::Select(_, inner) => match *inner {
                Expr::Union(a, b) => {
                    assert_eq!(*a, Expr::rollback("r", TxSpec::At(TransactionNumber(9))));
                    assert_eq!(*b, Expr::rollback("s", TxSpec::At(TransactionNumber(3))));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gate_sheds_when_saturated() {
        let gate = Gate::new(1);
        assert!(gate.acquire(Duration::from_millis(1)));
        assert!(!gate.acquire(Duration::from_millis(10)));
        gate.release();
        assert!(gate.acquire(Duration::from_millis(1)));
    }

    #[test]
    fn queue_bounds_and_closes() {
        let gauges = GroupCommitCounters::default();
        let q = CommitQueue::new(1);
        let (tx, _rx) = mpsc::channel();
        let req = |t: &mpsc::Sender<WriteAck>| WriteReq {
            cmd: Command::delete_relation("r"),
            ack: t.clone(),
        };
        assert!(q.push(req(&tx), &gauges).is_ok());
        assert_eq!(q.push(req(&tx), &gauges), Err(true));
        q.close();
        assert_eq!(q.push(req(&tx), &gauges), Err(false));
        // Drain the queued request, then the closed queue reports done.
        assert_eq!(q.pop_batch(true).map(|b| b.len()), Some(1));
        assert!(q.pop_batch(true).is_none());
    }
}
