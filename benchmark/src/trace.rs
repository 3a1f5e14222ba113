//! The traced run: the request stream driven single-threaded through the
//! public functions of each layer, on an engine loaded like the server's, with
//! one span around each call. The spans come from this file, around the calls
//! into the program; spans inside the program are a later change.
//!
//! The pipeline mirrors `txtime::server`'s session and committer code: frame
//! in, parse, check, then either evaluate and render, or apply, journal and
//! fsync, and frame out. `plan` and `resolve` are re-measurements of work
//! that also happens inside `eval`: `pushdown` stand-alone on the same
//! expression, and `Engine::resolve_many` on the expression's rho leaves on a
//! twin engine, so that it does not warm the state cache for `eval`.

use std::hint::black_box;
use std::io::{Cursor, Write};
use std::path::Path;
use std::time::Instant;

use txtime::analyze::Linter;
use txtime::core::Command;
use txtime::optimizer::pushdown;
use txtime::parser::parse_command_spanned;
use txtime::server::protocol::{read_frame, write_frame};
use txtime::storage::{wal, Engine};

use crate::load::new_engine;
use crate::workload::{Plan, Request};

/// The stages, in the order a request passes them.
pub const STAGES: [&str; 10] = [
    "frame",
    "parse",
    "check",
    "plan",
    "resolve",
    "eval",
    "render",
    "apply",
    "wal_append",
    "fsync",
];
/// Stages that re-measure a part of `eval` and so are not on the path twice.
const INSIDE_EVAL: [&str; 2] = ["plan", "resolve"];

pub struct Span {
    /// The request the span belongs to; spans of one request share it.
    pub request: u32,
    pub id: u32,
    /// The span that caused this one; 0 for a request's root span.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory; with `on` false it only runs the calls.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    request: u32,
    root: u32,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open_request(&mut self, request: u32) {
        self.request = request;
        if self.on {
            let id = self.spans.len() as u32 + 1;
            let start_ns = self.now();
            self.spans.push(Span {
                request,
                id,
                parent: 0,
                name: "request",
                start_ns,
                end_ns: start_ns,
            });
            self.root = id;
        }
    }

    fn close_request(&mut self) {
        if self.on {
            let end_ns = self.now();
            self.spans[self.root as usize - 1].end_ns = end_ns;
        }
    }

    fn stage<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        if !self.on {
            return call();
        }
        let start_ns = self.now();
        let out = call();
        let end_ns = self.now();
        self.spans.push(Span {
            request: self.request,
            id: self.spans.len() as u32 + 1,
            parent: self.root,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// An engine and a checker loaded with the set-up commands, as the server's
/// are after set-up through the front door.
struct Loaded {
    engine: Engine,
    linter: Linter,
}

fn load(setup: &[String]) -> Result<Loaded, String> {
    let mut loaded = Loaded {
        engine: new_engine(),
        linter: Linter::new(),
    };
    for text in setup {
        let (cmd, _) = parse_command_spanned(text).map_err(|e| format!("set-up parse: {e}"))?;
        loaded
            .engine
            .execute(&cmd)
            .map_err(|e| format!("set-up apply: {e}"))?;
        loaded.linter.commit(&cmd, None);
    }
    Ok(loaded)
}

/// Frames `payload` onto a wire buffer and reads it back, as the two ends of
/// a connection do.
fn through_frame(wire: &mut Vec<u8>, payload: &str) -> Result<String, String> {
    wire.clear();
    write_frame(wire, payload).map_err(|e| format!("write_frame: {e}"))?;
    read_frame(&mut Cursor::new(&wire[..]))
        .map_err(|e| format!("read_frame: {e}"))?
        .ok_or_else(|| "read_frame: empty wire".to_string())
}

struct Pipeline<'a> {
    main: Loaded,
    /// Resolves rho leaves apart from `main`.
    twin: Engine,
    /// Whether commits are applied to the twin too: only where reads follow.
    twin_follows: bool,
    journal: std::fs::File,
    wire: Vec<u8>,
    wal_bytes: u64,
    commits: u64,
    tracer: &'a mut Tracer,
}

impl Pipeline<'_> {
    fn request(&mut self, number: u32, request: &Request) -> Result<(), String> {
        let t = &mut *self.tracer;
        t.open_request(number);
        let payload = t.stage("frame", || through_frame(&mut self.wire, &request.text))?;
        let text = payload
            .trim()
            .strip_prefix("EXEC ")
            .ok_or("a generated request is not an EXEC")?;
        let (cmd, spans) = t
            .stage("parse", || {
                parse_command_spanned(text.trim().trim_end_matches(';'))
            })
            .map_err(|e| format!("parse: {e}"))?;
        let diagnostics = t.stage("check", || self.main.linter.check(&cmd, Some(&spans)));
        if !diagnostics.is_empty() {
            return Err(format!("check rejects {text:?}"));
        }
        let reply = if let Command::Display(expr) = &cmd {
            black_box(t.stage("plan", || pushdown(expr)));
            // One call per leaf, as `eval` resolves them; one call for all
            // would time the fan-out of a batch over the worker pool instead.
            for leaf in expr.reads() {
                let resolved = t.stage("resolve", || self.twin.resolve_many(&[leaf]));
                if resolved.iter().any(|r| r.is_err()) {
                    return Err(format!("resolve fails on {text:?}"));
                }
            }
            let state = t
                .stage("eval", || self.main.engine.eval(expr))
                .map_err(|e| format!("eval: {e}"))?;
            t.stage("render", || format!("VAL\n{state}"))
        } else {
            t.stage("apply", || self.main.engine.execute(&cmd))
                .map_err(|e| format!("apply: {e}"))?;
            let tx = self.main.engine.tx();
            let mut line = Vec::new();
            t.stage("wal_append", || wal::append_command(&mut line, &cmd))
                .map_err(|e| format!("wal append: {e}"))?;
            t.stage("check", || self.main.linter.commit(&cmd, None));
            // One commit is one group here: the server's sync stage does the
            // same write, flush and `sync_all` for each group it drains.
            t.stage("fsync", || {
                self.journal
                    .write_all(&line)
                    .and_then(|()| self.journal.flush())
                    .and_then(|()| self.journal.sync_all())
            })
            .map_err(|e| format!("fsync: {e}"))?;
            self.wal_bytes += line.len() as u64;
            self.commits += 1;
            if self.twin_follows {
                self.twin
                    .execute(&cmd)
                    .map_err(|e| format!("twin apply: {e}"))?;
            }
            format!("OK modified tx={}", tx.0)
        };
        let back = t.stage("frame", || through_frame(&mut self.wire, &reply))?;
        black_box(back);
        t.close_request();
        Ok(())
    }
}

/// Per-stage totals of one traced pass.
pub struct StageReport {
    pub name: &'static str,
    pub calls: u64,
    pub busy_ns: u64,
    pub p50_ns: u64,
}

/// What the traced run found, for one kind of request (reads or commits).
#[derive(Default)]
pub struct PathReport {
    pub requests: u64,
    /// Time in the stages on the path, `plan` and `resolve` left out because
    /// `eval` contains them.
    pub path_ns: u64,
    pub stages: Vec<StageReport>,
}

impl PathReport {
    pub fn stage(&self, name: &str) -> Option<&StageReport> {
        self.stages.iter().find(|s| s.name == name)
    }

    /// Mean time per request in the stages on the path; 0 with no request.
    pub fn path_mean_us(&self) -> f64 {
        self.path_ns as f64 / self.requests.max(1) as f64 / 1e3
    }

    /// A stage's share of the path time. For `plan` and `resolve` it is the
    /// share of the path their stand-alone measurement amounts to.
    pub fn share(&self, name: &str) -> f64 {
        match self.stage(name) {
            Some(stage) if self.path_ns > 0 => stage.busy_ns as f64 / self.path_ns as f64,
            _ => 0.0,
        }
    }
}

pub struct TraceReport {
    pub reads: PathReport,
    pub commits: PathReport,
    pub wal_bytes_per_commit: f64,
    /// Hit rate of the twin's state cache, which only `resolve` touches.
    pub resolve_cache_hit_rate: f64,
    /// Hit rate of the view memo of the engine `eval` runs on.
    pub memo_hit_rate: f64,
    /// Seconds the pipeline took with span recording on, and with it off.
    pub traced_s: f64,
    pub untraced_s: f64,
    pub spans_written: usize,
}

fn path_report(spans: &[Span], commit_requests: &[bool], want_commits: bool) -> PathReport {
    let on_path = |s: &&Span| commit_requests[s.request as usize] == want_commits;
    let mut report = PathReport {
        requests: spans
            .iter()
            .filter(on_path)
            .filter(|s| s.parent == 0)
            .count() as u64,
        ..PathReport::default()
    };
    for name in STAGES {
        let mut durations: Vec<u64> = spans
            .iter()
            .filter(on_path)
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        if durations.is_empty() {
            continue;
        }
        durations.sort_unstable();
        let busy_ns: u64 = durations.iter().sum();
        if !INSIDE_EVAL.contains(&name) {
            report.path_ns += busy_ns;
        }
        report.stages.push(StageReport {
            name,
            calls: durations.len() as u64,
            busy_ns,
            p50_ns: durations[(durations.len() - 1) / 2],
        });
    }
    report
}

fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.request, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

/// The requests of the traced run, in order: session 0's alone where both
/// sessions do the same, and in `mixed` one commit of session 0 after every
/// `reads_per_commit` reads of session 1, the ratio the untraced window showed.
fn schedule(plan: &Plan, requests: usize, reads_per_commit: usize) -> Vec<Request> {
    let [s0, s1] = &plan.sessions;
    if s0.commits() == s1.commits() {
        return s0.requests().take(requests).collect();
    }
    let (mut writes, mut reads) = (s0.requests(), s1.requests());
    (0..requests)
        .map(|i| {
            if i % (reads_per_commit + 1) == reads_per_commit {
                writes.next_request()
            } else {
                reads.next_request()
            }
        })
        .collect()
}

/// What one pass of the pipeline measured beside its spans.
struct Pass {
    seconds: f64,
    wal_bytes_per_commit: f64,
    twin_cache_hit_rate: f64,
    memo_hit_rate: f64,
}

/// One pass of the pipeline over `order`, on freshly loaded engines.
fn pass(
    plan: &Plan,
    order: &[Request],
    journal: &Path,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let mut pipeline = Pipeline {
        main: load(&plan.setup)?,
        twin: load(&plan.setup)?.engine,
        twin_follows: order.iter().any(|r| !r.class.is_commit()),
        journal: std::fs::File::create(journal).map_err(|e| format!("trace journal: {e}"))?,
        wire: Vec::new(),
        wal_bytes: 0,
        commits: 0,
        tracer,
    };
    let started = Instant::now();
    for (number, request) in order.iter().enumerate() {
        pipeline.request(number as u32, request)?;
    }
    let seconds = started.elapsed().as_secs_f64();
    let wal_bytes_per_commit = if pipeline.commits == 0 {
        0.0
    } else {
        pipeline.wal_bytes as f64 / pipeline.commits as f64
    };
    Ok(Pass {
        seconds,
        wal_bytes_per_commit,
        twin_cache_hit_rate: pipeline.twin.cache_stats().hit_rate(),
        memo_hit_rate: pipeline.main.engine.memo_stats().hit_rate(),
    })
}

/// Runs the pipeline twice over the same requests, first with span recording
/// off and then with it on, and writes the spans to `spans_path`.
pub fn run(
    plan: &Plan,
    requests: usize,
    reads_per_commit: usize,
    journal: &Path,
    spans_path: &Path,
) -> Result<TraceReport, String> {
    let order = schedule(plan, requests, reads_per_commit);
    let commit_requests: Vec<bool> = order.iter().map(|r| r.class.is_commit()).collect();
    let mut tracer = Tracer {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        request: 0,
        root: 0,
    };
    let untraced = pass(plan, &order, journal, &mut tracer)?;
    tracer.on = true;
    tracer.spans.reserve(order.len() * 10);
    let traced = pass(plan, &order, journal, &mut tracer)?;
    let spans = tracer.spans;
    write_spans(spans_path, &spans).map_err(|e| format!("writing spans: {e}"))?;
    Ok(TraceReport {
        reads: path_report(&spans, &commit_requests, false),
        commits: path_report(&spans, &commit_requests, true),
        wal_bytes_per_commit: traced.wal_bytes_per_commit,
        resolve_cache_hit_rate: traced.twin_cache_hit_rate,
        memo_hit_rate: traced.memo_hit_rate,
        traced_s: traced.seconds,
        untraced_s: untraced.seconds,
        spans_written: spans.len(),
    })
}
