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
//! * **Group commit** — a session commits its own write. Under one apply
//!   mutex it executes the command (the engine's write guard held around
//!   [`Engine::execute`] alone), asserts the clock is monotone
//!   ([`txtime_txn::is_monotone`]), formats the journal line into a
//!   pending buffer and brings the static catalog along, so commit order
//!   is one total order and journal order is commit order. Then, outside
//!   every lock, it makes the write durable before it answers: if no
//!   other session is syncing, it takes every pending line — its own and
//!   whatever was applied meanwhile — and writes and syncs them as one
//!   group ([`wal::JournalWriter`]); otherwise it waits for a sync that
//!   covers it. One sync per group instead of one per commit is the
//!   throughput lever BENCH_10 measures; acks after the covering sync
//!   is the durability story.
//! * **Admission control** — connections beyond `max_sessions` are
//!   turned away (`ERR busy`); requests queue on a gate sized from the
//!   engine's [`ExecPool`] thread budget and are load-shed
//!   (`ERR overloaded`) rather than queued without bound. Gauges are
//!   [`SessionStats`] and [`GroupCommitStats`], surfaced by the `STATS`
//!   verb and `txtime stats --addr`.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
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
/// How long a session waits for a sync that covers its commit before
/// giving up. Hitting it does NOT mean the write failed — the commit is
/// applied and may yet become durable — so the response uses the
/// dedicated `ERR timeout` kind, never `ERR exec` (which is reserved for
/// definite failures).
const ACK_TIMEOUT: Duration = Duration::from_secs(60);

/// Crash injection points for the recovery tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failpoint {
    /// Kill the process after a commit group's WAL write + sync but
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
    /// Batch write commits into one sync (`false` = the per-commit sync
    /// baseline BENCH_10 compares against: each commit is synced before
    /// the next one applies).
    pub group_commit: bool,
    /// Connections beyond this are refused with `ERR busy`.
    pub max_sessions: usize,
    /// Concurrently *executing* requests; `0` derives `2 × pool threads`
    /// from the engine's worker pool, floored at 8 so small hosts can
    /// still overlap request pipelines with commits waiting on a sync.
    pub max_inflight: usize,
    /// How long a request may wait for an execution permit before being
    /// load-shed with `ERR overloaded`.
    pub queue_wait: Duration,
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

/// Locks `m`, shrugging off poison: every mutex but the apply mutex
/// guards data that each update leaves whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Commits applied and not yet taken by a sync.
#[derive(Default)]
struct Group {
    /// Their journal lines, in commit order (none serving memory-only).
    lines: Vec<u8>,
    /// How many commits.
    commits: usize,
    /// The newest one's transaction number.
    newest: u64,
}

/// What the apply mutex guards: the commit order.
#[derive(Default)]
struct Applied {
    /// The last commit's clock, for claim 4's monotonicity check.
    last_tx: TransactionNumber,
    /// Applied since the last sync took its group.
    pending: Group,
}

/// How far the syncs have got.
#[derive(Default)]
struct Syncs {
    /// A session is writing and syncing a group now.
    syncing: bool,
    /// Every commit at or below this transaction number has been through
    /// a sync, successful or not.
    settled: u64,
    /// Groups whose sync failed: the commits after `.0` up to `.1`, and
    /// the error.
    failed: Vec<(u64, u64, String)>,
}

struct Shared {
    engine: RwLock<Engine>,
    linter: Mutex<Linter>,
    pool: Arc<ExecPool>,
    cfg: ServerConfig,
    /// Held across one commit's apply ([`Shared::commit`]).
    applied: Mutex<Applied>,
    /// The journal, `None` serving memory-only. Only the session syncing
    /// takes it.
    journal: Mutex<Option<wal::JournalWriter>>,
    syncs: Mutex<Syncs>,
    /// Signalled whenever a sync settles.
    synced: Condvar,
    gate: Gate,
    sessions: SessionCounters,
    commits: GroupCommitCounters,
    shutdown: AtomicBool,
}

impl Shared {
    /// Commits `cmd` from the calling session and writes the reply into
    /// `frame` once the commit is durable: `OK <outcome> tx=<n>` and any
    /// lint warnings, or an `ERR`.
    ///
    /// The apply mutex is held from the execution to the catalog update,
    /// so commits apply one at a time, in the order their journal lines
    /// take; the engine's write guard covers `Engine::execute` alone, so
    /// readers wait out one apply and never the journal formatting, the
    /// catalog update or a sync. The reply leaves only after a sync that
    /// covers the commit, which comes after everything done here, so a
    /// client told of a commit checks its next command against a catalog
    /// that holds it.
    fn commit(&self, cmd: &Command, frame: &mut protocol::Frame) {
        let mut applied = self.apply_lock();
        let (result, tx) = {
            let mut eng = self.write_engine();
            let result = eng.execute(cmd);
            (result, eng.tx())
        };
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(e) => {
                frame.push_str(&format!("ERR exec: {e}"));
                return;
            }
        };
        // Claim 4's invariant, checked at every commit: one apply at a
        // time, one total order, strictly increasing transaction numbers.
        assert!(
            txtime_txn::is_monotone(&[applied.last_tx, tx]),
            "commit clock regressed: {:?} then {tx:?}",
            applied.last_tx
        );
        applied.last_tx = tx;
        let pending = &mut applied.pending;
        if self.cfg.wal_path.is_some() {
            let _ = wal::append_command(&mut pending.lines, cmd);
        }
        pending.commits += 1;
        pending.newest = tx.0;
        self.commits
            .note_unsynced(tx.0.saturating_sub(self.commits.durable_tx()));
        let warnings = lock(&self.linter).commit(cmd, None);
        let durable = if self.cfg.group_commit {
            drop(applied);
            self.await_sync(tx.0)
        } else {
            // The per-commit baseline: the sync runs inside the apply
            // mutex, so the next commit applies only after it.
            let group = std::mem::take(&mut applied.pending);
            self.sync_group(&group)
                .map_err(|e| format!("ERR exec: {e}"))
        };
        if let Err(reply) = durable {
            frame.push_str(&reply);
            return;
        }
        self.sessions.writes.fetch_add(1, Ordering::Relaxed);
        frame.push_str(&format!("OK {} tx={}", outcome_name(&outcome), tx.0));
        for w in &warnings {
            frame.push_str("\n");
            frame.push_str(&w.to_string());
        }
    }

    /// The apply mutex. A commit that panicked under it may have
    /// changed the engine without journaling the change, so no later
    /// commit may follow it: the poison stays.
    fn apply_lock(&self) -> MutexGuard<'_, Applied> {
        self.applied
            .lock()
            .expect("a commit panicked while applying; the journal may lack it")
    }

    /// Returns once a sync covers commit `tx`, `Err` holding the reply
    /// if that sync failed or none came within [`ACK_TIMEOUT`]. When no
    /// other session is syncing, this one does: it takes every pending
    /// line — its own and whatever was applied meanwhile — as one group.
    /// Otherwise it waits for the running sync to settle, and then
    /// either is covered or takes the next group itself.
    fn await_sync(&self, tx: u64) -> Result<(), String> {
        let deadline = Instant::now() + ACK_TIMEOUT;
        let mut syncs = lock(&self.syncs);
        loop {
            if syncs.settled >= tx {
                return match syncs.failed.iter().find(|f| f.0 < tx && tx <= f.1) {
                    // The state applied but is not durable: report the
                    // failure instead of acking a commit that may not
                    // survive a crash.
                    Some((_, _, e)) => Err(format!("ERR exec: {e}")),
                    None => Ok(()),
                };
            }
            if !syncs.syncing {
                syncs.syncing = true;
                drop(syncs);
                // No sync is running and this commit is unsettled, so its
                // line is still pending and lands in this group.
                let group = std::mem::take(&mut self.apply_lock().pending);
                debug_assert!(group.commits > 0 && group.newest >= tx);
                let synced = self.sync_group(&group);
                syncs = lock(&self.syncs);
                if let Err(e) = synced {
                    let after = syncs.settled;
                    syncs.failed.push((after, group.newest, e));
                }
                syncs.settled = group.newest;
                syncs.syncing = false;
                self.synced.notify_all();
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                // The commit's outcome is UNKNOWN (it may yet be synced),
                // which is not the same thing as a definite `exec`
                // failure — a client that retried on `exec` here could
                // double-apply a write.
                return Err("ERR timeout: commit outcome unknown (no ack within 60s) — \
                     the write may still become durable; consult the journal"
                    .into());
            }
            syncs = self
                .synced
                .wait_timeout(syncs, deadline - now)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }

    /// Makes one group durable — one write and one `sync_data` for all
    /// of its commits, none serving memory-only — and then advances the
    /// durable clock to its newest commit, before any of them is
    /// answered: an acked commit is therefore always ≤ the durable
    /// gauge.
    fn sync_group(&self, group: &Group) -> Result<(), String> {
        let synced = match lock(&self.journal).as_mut() {
            Some(journal) => journal
                .write_group(&group.lines)
                .map_err(|e| format!("WAL sync failed: {e}")),
            None => Ok(()),
        };
        if synced.is_ok() {
            if let Some(Failpoint::CrashBeforeGroupAck) = self.cfg.failpoint {
                // The crash-recovery window: the group is durable, the
                // acks are not sent. Recovery must replay it; clients
                // must treat the silence as "unknown, consult the log".
                eprintln!("failpoint group-commit-ack: crashing before ack");
                std::process::exit(FAILPOINT_EXIT_CODE);
            }
            self.commits.note_durable(group.newest);
        }
        self.commits.record_group(group.commits);
        synced
    }

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

/// A running server: the listener and session threads.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    listener: Option<std::thread::JoinHandle<()>>,
}

/// Starts a server on `listener`, taking ownership of `engine`.
///
/// The engine should *not* have a WAL attached ([`Engine::with_wal`]);
/// the server journals through `cfg.wal_path` itself so the group sync
/// happens outside the engine's write lock — readers are never stalled
/// behind a disk flush. Use [`txtime_storage::recovery::recover`] first
/// to continue an existing journal; the server opens it with
/// [`wal::JournalWriter::open`], which cuts any corrupt tail first, so
/// new commits extend exactly the prefix recovery replayed — appending
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
    let journal = match &cfg.wal_path {
        Some(path) => {
            let (journal, dropped) = wal::JournalWriter::open(path)?;
            if dropped > 0 {
                eprintln!(
                    "wal: cut {dropped} byte(s) after the last verified line of {} before appending",
                    path.display()
                );
            }
            Some(journal)
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
    // at the engine clock, not 0, and so does the settled one.
    commits.note_durable(engine.tx().0);
    let syncs = Syncs {
        settled: engine.tx().0,
        ..Syncs::default()
    };
    let applied = Applied {
        last_tx: engine.tx(),
        ..Applied::default()
    };
    let shared = Arc::new(Shared {
        engine: RwLock::new(engine),
        linter: Mutex::new(linter),
        pool,
        applied: Mutex::new(applied),
        journal: Mutex::new(journal),
        syncs: Mutex::new(syncs),
        synced: Condvar::new(),
        gate: Gate::new(inflight),
        sessions: SessionCounters::default(),
        commits,
        shutdown: AtomicBool::new(false),
        cfg,
    });

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
    /// or a client `SHUTDOWN`), joins every thread, syncs what is still
    /// pending, closes the journal (trimming its reserved space), flushes
    /// the engine, and returns the final report.
    pub fn wait(mut self) -> ServerReport {
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL_INTERVAL);
        }
        // The acceptor joins every session thread before it returns. A
        // stuck session (peer holding a half-frame) is bounded by
        // FRAME_TIMEOUT.
        if let Some(t) = self.listener.take() {
            let _ = t.join();
        }
        let sessions = self.shared.sessions.snapshot();
        let group_commit = self.shared.commits.snapshot();
        // Every thread has joined; the Arc is now unique.
        let shared = Arc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("server threads joined but Shared still aliased"));
        // Lines stay pending only behind a session that gave up waiting
        // (`ERR timeout`); they go out before the journal closes.
        let pending = shared
            .applied
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .pending;
        if let Some(mut journal) = shared
            .journal
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
        {
            let closed = if pending.lines.is_empty() {
                Ok(())
            } else {
                journal.write_group(&pending.lines)
            };
            if let Err(e) = closed.and_then(|()| journal.close()) {
                eprintln!("wal: cannot close the journal cleanly: {e}");
            }
        }
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
        // render a read's answer) — NOT a commit, which runs after the
        // permit is released: its apply is serialized by the apply mutex
        // and its wait for a sync burns no CPU. Holding the permit across
        // them would cap concurrent commits at the gate width and starve
        // group commit; `max_sessions` bounds the commits in flight.
        if !shared.gate.acquire(shared.cfg.queue_wait) {
            shared
                .sessions
                .shed_requests
                .fetch_add(1, Ordering::Relaxed);
            frame.push_str("ERR overloaded: execution queue saturated, retry");
            return false;
        }
        let write = exec_command(shared, text, *snapshot, frame);
        shared.gate.release();
        if let Some(cmd) = write {
            shared.commit(&cmd, frame);
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
/// with reads evaluated under the shared read lock. This is the gated
/// stage: a read's response is written into `frame` here, and a checked
/// write is handed back, to be committed ([`Shared::commit`]) *after* the
/// admission permit is released.
fn exec_command(
    shared: &Arc<Shared>,
    text: &str,
    snapshot: Option<TransactionNumber>,
    frame: &mut protocol::Frame,
) -> Option<Command> {
    let (cmd, spans) = match parse_command_spanned(text.trim().trim_end_matches(';')) {
        Ok(pair) => pair,
        Err(e) => {
            frame.push_str(&format!("ERR parse: {e}"));
            return None;
        }
    };
    // Static check against the shared catalog — diagnostics carry spans
    // into the text the client sent.
    let diags = lock(&shared.linter).check(&cmd, Some(&spans));
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
        return Some(cmd);
    }
    // Reads: evaluate under the read lock, pinned if the session holds a
    // snapshot. The lock spans one evaluation only; the answer is a
    // reference-counted handle, so rendering it into the session's frame
    // (the larger part of a big reply) happens after the guard is gone
    // and never keeps a committing session waiting.
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
}
