//! One run of one workload: set-up by recovering the set-up journal, warm-up,
//! the measured window, the answer checks and self-checks, and with `--trace 1`
//! the traced run. Prints a report, and the result object as the last line.

use std::time::{Duration, Instant};

use txtime::server::ServerHandle;

use crate::check;
use crate::load::{self, SessionResult};
use crate::metrics::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported_percentile, percentile, window_median};
use crate::trace::{self, PathReport, TraceReport, STAGES};
use crate::workload::{self, Plan, Workload};

/// Set-ups per run; `setup_s` is their median. At least five, and more while
/// they have taken under a second together: the small set-ups take under a
/// millisecond, and a process's first half second runs at half speed on this
/// kind of host, so their median has to come from well beyond it.
const SETUP_REPEATS_MIN: usize = 5;
const SETUP_BUDGET_S: f64 = 1.0;
/// Requests each session sends before the window opens: a fixed number, not a
/// fixed time, so that the memory read after the warm-up has seen the same
/// work on every commit of the repository, however fast it is.
const WARMUP_COMMITS: usize = 500;
const WARMUP_READS: usize = 8_000;
/// Requests of the traced run, and the most commits among them: a traced
/// commit costs over a millisecond (apply, its own fsync, and the same on the
/// twin engine), and the run has to fit the driver's time cap.
const TRACE_REQUESTS: usize = 20_000;
const TRACE_MAX_COMMITS: usize = 1_000;
/// The server's `MAX_GROUP`: the most commits one fsync may cover.
const MAX_GROUP: u64 = 64;

pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// A run's result: what the last line of the output says.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(Metric, f64)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn stop(server: ServerHandle) -> txtime::server::ServerReport {
    server.shutdown();
    server.wait()
}

/// Latency figures of one session, or of several pooled.
struct Latency {
    samples: usize,
    /// Replies in each whole second of the window: shows drift and stalls.
    per_second: Vec<u64>,
    per_s: f64,
    mean_us: f64,
    p50_us: f64,
    p95_us: f64,
    /// The highest percentile with ten samples beyond it, and its value.
    tail: Option<(f64, f64)>,
}

fn latency(results: &[&SessionResult]) -> Result<Latency, String> {
    let mut sorted: Vec<u32> = results
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    if sorted.is_empty() {
        return Err("a session measured no reply inside the window".to_string());
    }
    sorted.sort_unstable();
    let seconds = results[0].per_second.len();
    let per_second: Vec<u64> = (0..seconds)
        .map(|s| results.iter().map(|r| r.per_second[s]).sum())
        .collect();
    let sum_ns: u64 = sorted.iter().map(|&n| u64::from(n)).sum();
    Ok(Latency {
        samples: sorted.len(),
        per_s: window_median(&per_second),
        per_second,
        mean_us: sum_ns as f64 / sorted.len() as f64 / 1e3,
        p50_us: percentile(&sorted, 50.0) / 1e3,
        p95_us: percentile(&sorted, 95.0) / 1e3,
        tail: highest_supported_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p) / 1e3)),
    })
}

fn print_latency(what: &str, l: &Latency) {
    println!(
        "metric {what}_per_s {} 1/s   (median of the 1-second counts)",
        l.per_s
    );
    println!(
        "metric {what}_p50_us {} us   ({} samples)",
        l.p50_us, l.samples
    );
    println!("metric {what}_p95_us {} us", l.p95_us);
    match l.tail {
        Some((p, v)) => println!(
            "diag   {what}_p{p}_us {v} us   (highest percentile with ten samples beyond it)"
        ),
        None => println!("diag   {what}: too few samples for any percentile"),
    }
    println!("diag   {what}s per second: {:?}", l.per_second);
}

/// `total / count`, and 0 where nothing was counted.
fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn print_path(what: &str, path: &PathReport) {
    if path.requests == 0 {
        return;
    }
    println!(
        "trace  {what} path: {} requests, {:.3} us per request in the stages",
        path.requests,
        path.path_mean_us()
    );
    println!(
        "trace  {:<11} {:>8} {:>11} {:>10} {:>10} {:>7}",
        "stage", "calls", "busy_ms", "p50_us", "mean_us", "share"
    );
    for name in STAGES {
        if let Some(s) = path.stage(name) {
            println!(
                "trace  {:<11} {:>8} {:>11.3} {:>10.3} {:>10.3} {:>6.1}%",
                s.name,
                s.calls,
                s.busy_ns as f64 / 1e6,
                s.p50_ns as f64 / 1e3,
                s.busy_ns as f64 / path.requests as f64 / 1e3,
                path.share(name) * 100.0
            );
        }
    }
}

/// Mean time per request of a stage, over the requests that pass it.
fn stage_us(trace: &TraceReport, name: &str) -> f64 {
    let (mut busy, mut requests) = (0u64, 0u64);
    for path in [&trace.reads, &trace.commits] {
        if let Some(stage) = path.stage(name) {
            busy += stage.busy_ns;
            requests += path.requests;
        }
    }
    per(busy as f64 / 1e3, requests)
}

/// Runs one workload and prints its report. `Err` is a run that could not be
/// made at all; a run that was made but is wrong is an `Outcome` that says so.
pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    // Shipped defaults: no tuning knob of the product is set. Nothing else
    // runs in this process yet, so changing the environment is safe.
    for var in load::TXTIME_ENV {
        std::env::remove_var(var);
    }
    let workload = args.workload;
    let plan: Plan = workload::generate(workload, args.seed);
    let dir = load::data_dir().map_err(|e| format!("data directory: {e}"))?;
    let journal = dir.join(format!("journal-{}.wal", workload.name()));
    let window = Duration::from_secs(args.seconds);
    println!(
        "run    workload={} seed={:#x} window_s={} trace={} stream_digest={:016x}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload::stream_digest(&plan, 10_000)
    );
    println!(
        "env    {}",
        crate::report::environment(args.seed, args.seconds)
    );

    // Set-up: the server's restart path. The set-up commands are written as a
    // journal, and the timed part is `recover` of that journal, several times;
    // the last engine is the one served. (Loading through the front door costs
    // one fsync per command, and on this kind of host the time of an fsync
    // moves by a third from one minute to the next; recovery is CPU-bound.)
    load::write_setup_journal(&journal, &plan.setup)?;
    let mut setup_s = Vec::new();
    let mut engine = None;
    while setup_s.len() < SETUP_REPEATS_MIN || setup_s.iter().sum::<f64>() < SETUP_BUDGET_S {
        drop(engine.take());
        let started = Instant::now();
        let recovery = load::recover_journal(&journal)?;
        setup_s.push(started.elapsed().as_secs_f64());
        if recovery.replayed != plan.setup.len() {
            return Err(format!(
                "set-up replayed {} of {} commands",
                recovery.replayed,
                plan.setup.len()
            ));
        }
        engine = Some(recovery.engine);
    }
    println!(
        "diag   {} set-ups, the first five: {:?}",
        setup_s.len(),
        &setup_s[..SETUP_REPEATS_MIN]
    );
    let server = load::start_server(engine.expect("at least one set-up"), &journal)
        .map_err(|e| format!("cannot serve: {e}"))?;

    // Warm-up and window. The commit counters are read around both, so
    // `commits_per_fsync` covers the warm-up too.
    let warmup = [0, 1].map(|i| {
        if plan.sessions[i].commits() {
            WARMUP_COMMITS
        } else {
            WARMUP_READS
        }
    });
    let before = server.group_commit_stats();
    let results = load::run_sessions(&server, &plan.sessions, warmup, window);
    let after = server.group_commit_stats();
    let session_stats = server.session_stats();
    let report = stop(server);
    let live = &report.engine;

    let mut problems: Vec<String> = Vec::new();
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = results.iter().map(|r| r.failed).sum();
    for (i, r) in results.iter().enumerate() {
        if let Some(what) = &r.first_failure {
            problems.push(format!(
                "session {i}: {} failed request(s), first: {what}",
                r.failed
            ));
        }
    }

    // End-to-end figures.
    let s0 = latency(&[&results[0]])?;
    let s1 = latency(&[&results[1]])?;
    let (writers, readers): (Vec<_>, Vec<_>) = plan
        .sessions
        .iter()
        .zip(&results)
        .partition(|(stream, _)| stream.commits());
    let writers: Vec<&SessionResult> = writers.into_iter().map(|(_, r)| r).collect();
    let readers: Vec<&SessionResult> = readers.into_iter().map(|(_, r)| r).collect();
    if !writers.is_empty() {
        print_latency("commit", &latency(&writers)?);
    }
    if !readers.is_empty() {
        print_latency("read", &latency(&readers)?);
    }
    println!("metric attempted_ops {attempted} count");

    // The product's own counters.
    let window_commits = after.commits - before.commits;
    let window_fsyncs = after.fsyncs - before.fsyncs;
    let commits_per_fsync = per(window_commits as f64, window_fsyncs);
    let cache = live.cache_stats();
    let memo = live.memo_stats();
    let optimizer = live.optimizer_stats();
    let space = live.space_report();
    let store_bytes_per_version = per(space.total_bytes() as f64, space.total_versions() as u64);
    println!(
        "layer  group commit: {window_commits} commits / {window_fsyncs} fsyncs in warm-up and window ({commits_per_fsync:.3} per fsync), max group {}, queue peak {}",
        report.group_commit.max_group, report.group_commit.queue_peak
    );
    println!(
        "layer  sessions: {} requests, {} reads, {} writes, {} shed, {} check-rejected",
        session_stats.requests,
        session_stats.reads,
        session_stats.writes,
        session_stats.shed_requests,
        session_stats.check_rejected
    );
    println!(
        "layer  state cache: {} hits / {} misses (rate {:.4}), {} evictions, {:.2} deltas replayed per miss",
        cache.hits, cache.misses, cache.hit_rate(), cache.evictions, cache.replay_per_miss()
    );
    println!(
        "layer  view memo: {} hits / {} misses (rate {:.4}), {} views; optimizer level {}, {} searches",
        memo.hits, memo.misses, memo.hit_rate(), memo.views, optimizer.level, optimizer.searches
    );
    println!(
        "layer  store: {} versions, {} bytes ({store_bytes_per_version:.1} per version)",
        space.total_versions(),
        space.total_bytes()
    );

    // Answer checks, outside the window.
    if !writers.is_empty() {
        match check::check_acked_commits(&plan, &results, live) {
            Ok(acked) => {
                println!("check  {acked} acked commits replayed on the oracle: final states agree")
            }
            Err(e) => problems.push(e),
        }
    } else {
        match check::check_samples(&plan, &results) {
            Ok(n) if n == 2 * load::SAMPLES_PER_SESSION => {
                println!("check  {n} sampled replies equal the oracle's byte for byte")
            }
            Ok(n) => problems.push(format!("only {n} replies were sampled for the oracle")),
            Err(e) => problems.push(e),
        }
    }
    let recovered = match check::check_journal(&journal, live) {
        Ok(r) => {
            println!(
                "check  journal recovers to the live clock and states ({} commands, {:.3} s)",
                r.commands, r.seconds
            );
            Some(r)
        }
        Err(e) => {
            problems.push(e);
            None
        }
    };

    // Self-checks: the workload must reach the layer it is there to stress.
    let ops = |r: &SessionResult| r.attempted - r.failed;
    match workload {
        Workload::CommitOnly => {
            if session_stats.reads != 0 {
                problems.push(format!("commit-only made {} reads", session_stats.reads));
            }
            if window_fsyncs * MAX_GROUP < window_commits {
                problems.push(format!(
                    "{window_fsyncs} fsyncs cannot cover {window_commits} commits"
                ));
            }
        }
        Workload::ReadCurrent => {
            if memo.hit_rate() <= 0.0 {
                problems.push("read-current never hit the view memo".to_string());
            }
        }
        Workload::ReadAsof => {
            if !(cache.hit_rate() > 0.0 && cache.hit_rate() < 1.0) {
                problems.push(format!(
                    "read-asof state cache hit rate {} is not strictly between 0 and 1",
                    cache.hit_rate()
                ));
            }
        }
        Workload::Mixed => {
            if results.iter().any(|r| ops(r) < 1_000) {
                problems.push(format!(
                    "mixed sessions completed {} and {} operations, under 1000",
                    ops(&results[0]),
                    ops(&results[1])
                ));
            }
        }
    }
    if writers.is_empty() && window_commits != 0 {
        problems.push(format!(
            "a read-only workload made {window_commits} commits"
        ));
    }

    let metrics: Vec<(Metric, f64)> = if args.trace {
        let reads: u64 = readers.iter().map(|r| r.latencies_ns.len() as u64).sum();
        let commits: u64 = writers.iter().map(|r| r.latencies_ns.len() as u64).sum();
        let reads_per_commit = (reads as f64 / commits.max(1) as f64).round() as usize;
        let requests = if writers.is_empty() {
            TRACE_REQUESTS
        } else {
            TRACE_REQUESTS.min(TRACE_MAX_COMMITS * (reads_per_commit + 1))
        };
        // A window shorter than the standard one, as `--smoke` asks for, gets
        // a trace shorter in proportion.
        let requests = requests * (args.seconds.min(crate::RUN_SECONDS) as usize)
            / crate::RUN_SECONDS as usize;
        let spans_path = dir.join(format!("trace-{}.jsonl", workload.name()));
        let t = trace::run(
            &plan,
            requests,
            reads_per_commit,
            &dir.join("trace-journal.wal"),
            &spans_path,
        )?;
        print_path("read", &t.reads);
        print_path("commit", &t.commits);
        println!(
            "trace  {} spans in {}; pipeline {:.3} s traced, {:.3} s untraced (ratio {:.4})",
            t.spans_written,
            spans_path.display(),
            t.traced_s,
            t.untraced_s,
            t.traced_s / t.untraced_s
        );
        println!(
            "trace  twin state cache hit rate {:.4} (resolve only), traced memo hit rate {:.4}",
            t.resolve_cache_hit_rate, t.memo_hit_rate
        );
        let path_of = |i: usize| {
            if plan.sessions[i].commits() {
                &t.commits
            } else {
                &t.reads
            }
        };
        let wait = [
            s0.mean_us - path_of(0).path_mean_us(),
            s1.mean_us - path_of(1).path_mean_us(),
        ];
        for (i, (l, w)) in [(&s0, wait[0]), (&s1, wait[1])].into_iter().enumerate() {
            println!(
                "trace  session {i}: mean latency {:.3} us = {:.3} us in the stages + {:.3} us waiting (queues, locks, sockets, scheduler)",
                l.mean_us,
                path_of(i).path_mean_us(),
                w
            );
        }
        self_check_shares(workload, &t, &mut problems);
        let recover_us = recovered
            .as_ref()
            .map_or(0.0, |r| per(r.seconds * 1e6, r.commands as u64));
        let value = |name: &str| match name {
            "s0_wait_us" => wait[0],
            "s1_wait_us" => wait[1],
            "cache_hit_rate" => cache.hit_rate(),
            "resolve_cache_hit_rate" => t.resolve_cache_hit_rate,
            "memo_hit_rate" => memo.hit_rate(),
            "commits_per_fsync" => commits_per_fsync,
            "wal_bytes_per_commit" => t.wal_bytes_per_commit,
            "max_queue_depth" => report.group_commit.queue_peak as f64,
            "shed" => session_stats.shed_requests as f64,
            "store_bytes_per_version" => store_bytes_per_version,
            "recover_us" => recover_us,
            "trace_overhead_ratio" => t.traced_s / t.untraced_s,
            stage => stage_us(&t, stage.strip_suffix("_us").unwrap_or(stage)),
        };
        PER_LAYER.iter().map(|m| (*m, value(m.name))).collect()
    } else {
        let rss = results
            .iter()
            .map(|r| r.rss_after_warmup_mb)
            .fold(0.0, f64::max);
        println!(
            "diag   s0_p95_us {} us, s1_p50_us {} us, s1_p95_us {} us   (not gated: see metrics.rs)",
            s0.p95_us, s1.p50_us, s1.p95_us
        );
        println!(
            "diag   rss_end_mb {} MB   (peak at the end of the run, after the checks)",
            load::peak_rss_mb()?
        );
        let value = |name: &str| match name {
            "setup_s" => crate::stats::median(&setup_s),
            "s0_per_s" => s0.per_s,
            "s0_p50_us" => s0.p50_us,
            "s1_per_s" => s1.per_s,
            "peak_rss_mb" => rss,
            other => unreachable!("no end-to-end metric {other}"),
        };
        END_TO_END.iter().map(|m| (*m, value(m.name))).collect()
    };
    for (m, v) in &metrics {
        println!("result {} {v} {}", m.name, m.unit);
    }

    if !problems.is_empty() && failed == 0 {
        // A failed check is a failed run even when every reply looked fine.
        failed = 1;
    }
    for p in &problems {
        println!("FAILED {p}");
    }
    println!("metric failed_ops {failed} count");
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: attempted.max(1),
        failed,
        metrics,
    })
}

/// The self-checks that need the trace: where the read path's time goes.
fn self_check_shares(workload: Workload, t: &TraceReport, problems: &mut Vec<String>) {
    let resolve = t.reads.share("resolve");
    match workload {
        Workload::ReadAsof => {
            // `eval` contains `resolve`, so the comparison is with the stages
            // beside `eval`. What is left of `eval` is printed, not judged:
            // it is a difference of times measured on two engines, and it
            // holds the filtered replay that level-1 pushdown gives
            // select-over-rho, which `resolve_many` does not go through.
            let (stage, other) = ["frame", "parse", "check", "plan", "render"]
                .into_iter()
                .map(|s| (s, t.reads.share(s)))
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("a non-empty list");
            println!(
                "check  read-asof: resolve is {:.1}% of the read path, the largest stage beside eval is {stage} at {:.1}%, and {:.1}% is eval without plan and resolve",
                resolve * 100.0,
                other * 100.0,
                (t.reads.share("eval") - resolve - t.reads.share("plan")) * 100.0
            );
            if resolve <= other || resolve < 0.25 {
                problems.push(format!(
                    "read-asof: resolve is {:.1}% of the read path ({stage} has {:.1}%): the workload does not stress it",
                    resolve * 100.0,
                    other * 100.0
                ));
            }
        }
        Workload::ReadCurrent => {
            println!(
                "check  read-current: resolve is {:.2}% of the read path",
                resolve * 100.0
            );
            if resolve >= 0.05 {
                problems.push(format!(
                    "read-current: resolve is {:.1}% of the read path, not under 5%",
                    resolve * 100.0
                ));
            }
        }
        Workload::CommitOnly | Workload::Mixed => {}
    }
}
