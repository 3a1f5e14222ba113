//! The system under load: an in-process `txtime::server::serve` (the function
//! `txtime serve` calls) in the fixed configuration, and the closed-loop
//! sessions that drive it.

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use txtime::parser::parse_command;
use txtime::server::{serve, Client, ServerConfig, ServerHandle};
use txtime::storage::recovery::{recover, Recovery};
use txtime::storage::{wal, BackendKind, CheckpointPolicy, Engine};

use crate::workload::{Class, Request, Stream};

/// Forward deltas with a checkpoint every 16 versions: the backend on which
/// chain replay, checkpoints, the state cache, filtered replay and compaction
/// all run (`full-copy` would leave the resolve layer idle).
pub const BACKEND: BackendKind = BackendKind::ForwardDelta;
pub const CHECKPOINT_EVERY: usize = 16;

pub fn checkpoint_policy() -> CheckpointPolicy {
    CheckpointPolicy::every_k(CHECKPOINT_EVERY).expect("a positive checkpoint interval")
}

/// The product's tuning knobs; all are cleared so shipped defaults apply.
pub const TXTIME_ENV: [&str; 5] = [
    "TXTIME_THREADS",
    "TXTIME_SHARDS",
    "TXTIME_OPTIMIZE",
    "TXTIME_AUTO_COMPACT",
    "TXTIME_FAILPOINT",
];

/// A fresh engine in the fixed configuration.
pub fn new_engine() -> Engine {
    Engine::new(BACKEND, checkpoint_policy())
}

/// Writes the set-up commands as a journal, in the product's own format: the
/// file a server that had executed them would have left behind.
pub fn write_setup_journal(journal: &Path, setup: &[String]) -> Result<(), String> {
    let mut lines = Vec::new();
    for text in setup {
        let command = parse_command(text).map_err(|e| format!("set-up command: {e}"))?;
        wal::append_command(&mut lines, &command).map_err(|e| format!("set-up journal: {e}"))?;
    }
    std::fs::write(journal, lines).map_err(|e| format!("cannot write {}: {e}", journal.display()))
}

/// Recovers a journal into a fresh engine in the fixed configuration; a
/// journal with a corrupt line is an error here.
pub fn recover_journal(journal: &Path) -> Result<Recovery, String> {
    let recovery = recover(journal, BACKEND, checkpoint_policy())
        .map_err(|e| format!("journal does not recover: {e}"))?;
    if recovery.skipped.is_empty() {
        Ok(recovery)
    } else {
        Err(format!("journal has corrupt lines: {:?}", recovery.skipped))
    }
}

/// Serves `engine`, journaling to `journal`, with `ServerConfig::default()`
/// otherwise: group commit on, one fsync per commit group. This is the
/// restart path of `txtime serve --wal`: recover the journal, then serve.
pub fn start_server(engine: Engine, journal: &Path) -> std::io::Result<ServerHandle> {
    let cfg = ServerConfig {
        wal_path: Some(journal.to_path_buf()),
        ..ServerConfig::default()
    };
    serve(engine, TcpListener::bind("127.0.0.1:0")?, cfg)
}

/// The benchmark's own directory, `benchmark/` in the checkout.
pub fn package_dir() -> PathBuf {
    std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string())
        .into()
}

/// Where a run keeps its journal and trace: `target/data` under the
/// benchmark's own directory, inside the checkout and ignored by git.
pub fn data_dir() -> std::io::Result<PathBuf> {
    let dir = package_dir().join("target").join("data");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// How many rows a `VAL` reply holds; `None` if the reply is not a rendered
/// state. The rendering is `VAL\n(scheme) { (row), (row) }`.
pub fn reply_rows(reply: &str) -> Option<usize> {
    let state = reply.strip_prefix("VAL\n")?;
    let body = state[state.find('{')? + 1..].strip_suffix('}')?;
    let (mut rows, mut depth, mut quoted, mut escaped) = (0, 0usize, false, false);
    for c in body.chars() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            '(' if !quoted => {
                if depth == 0 {
                    rows += 1;
                }
                depth += 1;
            }
            ')' if !quoted => depth = depth.checked_sub(1)?,
            _ => {}
        }
    }
    (depth == 0 && !quoted).then_some(rows)
}

/// Whether `reply` is a success of the kind `class` expects. Any `ERR`, and a
/// point lookup that does not return exactly one row, is a failure.
pub fn reply_is_good(class: Class, reply: &str) -> bool {
    match class {
        Class::Commit => reply.starts_with("OK modified tx="),
        Class::Point => reply_rows(reply) == Some(1),
        Class::Group | Class::Join | Class::AuditDiff => reply.starts_with("VAL\n"),
    }
}

/// One request and its reply, kept for the oracle check after the window.
pub struct Sample {
    pub request: String,
    pub reply: String,
}

/// What one closed-loop session measured.
#[derive(Default)]
pub struct SessionResult {
    /// Latency of every reply inside the window, in nanoseconds.
    pub latencies_ns: Vec<u32>,
    /// Replies in each whole second of the window.
    pub per_second: Vec<u64>,
    /// Requests sent from the start of the warm-up to the end of the window.
    /// A writer without failures has had exactly the first `attempted`
    /// requests of its stream acked.
    pub attempted: u64,
    /// Requests that got an `ERR`, an I/O error or a wrong answer.
    pub failed: u64,
    /// The first failure, for the report.
    pub first_failure: Option<String>,
    pub samples: Vec<Sample>,
    /// Peak resident set of the process when this session ended its warm-up.
    pub rss_after_warmup_mb: f64,
}

/// Every `SAMPLE_STRIDE`-th reply of the window is kept for the oracle check,
/// `SAMPLES_PER_SESSION` per session: 256 per read workload.
pub const SAMPLES_PER_SESSION: usize = 128;
const SAMPLE_STRIDE: usize = 31;

/// One session: a warm-up of a fixed number of requests, then the measured
/// window. The next request is sent when the previous reply has arrived.
fn run_session(
    addr: std::net::SocketAddr,
    stream: &Stream,
    warmup: usize,
    window: Duration,
    start: &Barrier,
) -> SessionResult {
    let mut out = SessionResult {
        per_second: vec![0; window.as_secs() as usize],
        ..SessionResult::default()
    };
    let fail = |out: &mut SessionResult, what: String| {
        out.failed += 1;
        out.first_failure.get_or_insert(what);
    };
    let mut client = match Client::connect(addr) {
        Ok(client) => client,
        Err(e) => {
            fail(&mut out, format!("connect: {e}"));
            start.wait();
            return out;
        }
    };
    let mut send = |out: &mut SessionResult, request: &Request| -> Option<String> {
        out.attempted += 1;
        match client.request_raw(&request.text) {
            Ok(reply) if reply_is_good(request.class, &reply) => Some(reply),
            Ok(reply) => {
                let shown: String = reply.chars().take(120).collect();
                fail(out, format!("{:?} answered {shown:?}", request.text));
                None
            }
            Err(e) => {
                fail(out, format!("{:?}: {e}", request.text));
                None
            }
        }
    };

    let mut requests = stream.requests();
    for _ in 0..warmup {
        send(&mut out, &requests.next_request());
    }
    match peak_rss_mb() {
        Ok(mb) => out.rss_after_warmup_mb = mb,
        Err(e) => fail(&mut out, e),
    }
    // Both sessions open the window together.
    start.wait();
    let opened = Instant::now();
    loop {
        // The request is drawn before its clock starts.
        let request = requests.next_request();
        let sent = Instant::now();
        if sent.duration_since(opened) >= window {
            break;
        }
        let reply = send(&mut out, &request);
        let done = Instant::now();
        let second = done.duration_since(opened).as_secs() as usize;
        // A reply that arrives after the window closed is not counted.
        if second < out.per_second.len() {
            if let Some(reply) = reply {
                out.per_second[second] += 1;
                let nanos = done.duration_since(sent).as_nanos();
                out.latencies_ns
                    .push(u32::try_from(nanos).unwrap_or(u32::MAX));
                if out.latencies_ns.len().is_multiple_of(SAMPLE_STRIDE)
                    && out.samples.len() < SAMPLES_PER_SESSION
                {
                    out.samples.push(Sample {
                        request: request.text,
                        reply,
                    });
                }
            }
        }
    }
    out
}

/// Runs both sessions against `server` and returns what each measured.
pub fn run_sessions(
    server: &ServerHandle,
    streams: &[Stream; 2],
    warmup: [usize; 2],
    window: Duration,
) -> [SessionResult; 2] {
    let start = Barrier::new(streams.len());
    let addr = server.addr();
    std::thread::scope(|scope| {
        let handles = [0, 1].map(|i| {
            let (stream, start) = (&streams[i], &start);
            scope.spawn(move || run_session(addr, stream, warmup[i], window, start))
        });
        handles.map(|h| h.join().expect("a session thread panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_parser_counts_rows() {
        assert_eq!(reply_rows("VAL\n(id: int) { }"), Some(0));
        assert_eq!(
            reply_rows("VAL\n(id: int, owner: str) { (1, \"o1\") }"),
            Some(1)
        );
        assert_eq!(
            reply_rows("VAL\n(id: int, owner: str) { (1, \"a)(\"), (2, \"q\\\"(\") }"),
            Some(2)
        );
        assert_eq!(reply_rows("OK modified tx=3"), None);
        assert_eq!(reply_rows("ERR exec: nope"), None);
        assert_eq!(reply_rows("VAL\n(id: int) { (1"), None);
    }

    #[test]
    fn replies_are_judged_by_class() {
        assert!(reply_is_good(Class::Commit, "OK modified tx=9"));
        assert!(!reply_is_good(
            Class::Commit,
            "ERR overloaded: commit queue full, retry"
        ));
        assert!(reply_is_good(Class::Point, "VAL\n(id: int) { (4) }"));
        assert!(!reply_is_good(Class::Point, "VAL\n(id: int) { }"));
        assert!(!reply_is_good(Class::Point, "VAL\n(id: int) { (4), (5) }"));
        assert!(reply_is_good(Class::Group, "VAL\n(id: int) { }"));
        assert!(!reply_is_good(Class::Join, "ERR exec: boom"));
    }
}
