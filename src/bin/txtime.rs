//! The `txtime` command-line tool: execute scripts in the surface syntax
//! against a storage engine.
//!
//! ```text
//! txtime run script.txq                       # check + lint + execute, print displays
//! txtime run script.txq --no-check            # skip the static checker (and the lint)
//! txtime run script.txq --checkpoint 1        # hold every version whole
//! txtime run script.txq --wal journal.wal     # resume + journal mutations
//! txtime recover journal.wal                  # rebuild + summarize
//! txtime check script.txq                     # static check + verify engine ≡ reference
//! txtime check script.txq --lint              # also run txtime-lint (W-series warnings)
//! txtime check script.txq --deny-warnings     # lint warnings become fatal
//! txtime stats script.txq                     # execute, report space/cache/exec counters
//! txtime stats script.txq --threads 4         # size the query worker pool
//! txtime compact script.txq --every 8         # execute, then fold delta chains
//! txtime explain script.txq                   # print chosen plans for displays
//! txtime explain script.txq --optimize 2      # ...under cost-based plan search
//! txtime serve --listen 127.0.0.1:7617        # multi-session TCP server
//! txtime serve --wal journal.wal              # ...recovering + journaling durably
//! txtime serve --no-group-commit              # fsync per commit (baseline)
//! txtime stats --addr 127.0.0.1:7617          # gauges from a running server
//! ```
//!
//! `run` and `check` both start by parsing and statically checking the
//! script; diagnostics are printed as `file:line:col: error[E0xx]: ...`
//! and lint warnings as `file:line:col: warning[W0xx]: ...`. Exit code 0
//! on success, 1 on any parse/check/execution error. Warnings do not
//! affect the exit code unless `--deny-warnings` is given (which implies
//! `--lint`).

use std::num::NonZeroUsize;
use std::process::ExitCode;

use txtime::analyze::{Diagnostic, Linter, Warning};
use txtime::core::{Command, CommandOutcome, Sentence, SentenceSpans};
use txtime::parser::parse_sentence_spanned;
use txtime::server::{Client, Failpoint, ServerConfig};
use txtime::storage::{
    check_equivalence, parse_auto_compact, recovery::recover, wal, BackendKind, CheckpointPolicy,
    Engine,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => run(rest),
        Some((cmd, rest)) if cmd == "recover" => recover_cmd(rest),
        Some((cmd, rest)) if cmd == "check" => check(rest),
        Some((cmd, rest)) if cmd == "stats" => stats(rest),
        Some((cmd, rest)) if cmd == "compact" => compact(rest),
        Some((cmd, rest)) if cmd == "explain" => explain(rest),
        Some((cmd, rest)) if cmd == "serve" => serve_cmd(rest),
        _ => {
            eprintln!("usage: txtime <run|recover|check|stats|compact|explain|serve> <file> [--wal FILE] [--checkpoint K] [--threads N] [--every N] [--optimize L] [--auto-compact N] [--no-check] [--lint] [--deny-warnings]");
            eprintln!("       txtime serve [--listen ADDR] [--wal FILE] [--no-group-commit] [--max-sessions N] [tuning flags]");
            eprintln!("       txtime stats --addr ADDR    # gauges from a running server");
            eprintln!("--checkpoint K holds every K-th version whole (default 16; 1 = every version, 0 = none)");
            ExitCode::FAILURE
        }
    }
}

struct Options {
    /// The script (or journal) file. Optional because `serve` and
    /// `stats --addr` operate without one.
    file: Option<String>,
    wal: Option<String>,
    checkpoint: CheckpointPolicy,
    no_check: bool,
    /// Run the `txtime-lint` pass and print W-series warnings.
    lint: bool,
    /// Treat lint warnings as errors (implies `lint`).
    deny_warnings: bool,
    /// Worker-pool size for query evaluation; `None` defers to the
    /// engine's default (`TXTIME_THREADS` / available parallelism).
    threads: Option<usize>,
    /// Fold interval for `txtime compact`; `None` defers to the
    /// checkpoint policy's own interval.
    every: Option<usize>,
    /// Optimization level 0/1/2; `None` defers to the engine's default
    /// (`TXTIME_OPTIMIZE`, else 1 = join lowering and pushdown).
    optimize: Option<u8>,
    /// Opportunistic compaction threshold; `None` defers to the engine's
    /// default (`TXTIME_AUTO_COMPACT`, else 64).
    auto_compact: Option<NonZeroUsize>,
    /// `serve`: the address to listen on.
    listen: String,
    /// `serve`: fsync once per commit instead of once per group.
    no_group_commit: bool,
    /// `serve`: connection cap before `ERR busy`.
    max_sessions: usize,
    /// `stats`: query a running server instead of executing a script.
    addr: Option<String>,
}

fn parse_options(rest: &[String]) -> Result<Options, String> {
    let mut file = None;
    let mut wal = None;
    let mut checkpoint = CheckpointPolicy::every_k(16).unwrap();
    let mut no_check = false;
    let mut lint = false;
    let mut deny_warnings = false;
    let mut threads = None;
    let mut every = None;
    let mut optimize = None;
    let mut auto_compact = None;
    let mut listen = "127.0.0.1:7617".to_string();
    let mut no_group_commit = false;
    let mut max_sessions = 64usize;
    let mut addr = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--no-check" => no_check = true,
            "--every" => {
                let v = it.next().ok_or("--every needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid compaction interval {v:?}"))?;
                if n == 0 {
                    return Err("--every must be at least 1".to_string());
                }
                every = Some(n);
            }
            "--optimize" => {
                let v = it.next().ok_or("--optimize needs a value")?;
                let n: u8 = v
                    .parse()
                    .map_err(|_| format!("invalid optimization level {v:?}"))?;
                if n > 2 {
                    return Err(
                        "--optimize takes 0 (as written), 1 (join lowering and pushdown), or 2 (cost-based search)"
                            .to_string(),
                    );
                }
                optimize = Some(n);
            }
            "--auto-compact" => {
                let v = it.next().ok_or("--auto-compact needs a value")?;
                auto_compact = Some(parse_auto_compact(v)?);
            }
            "--listen" => listen = it.next().ok_or("--listen needs a value")?.clone(),
            "--no-group-commit" => no_group_commit = true,
            "--max-sessions" => {
                let v = it.next().ok_or("--max-sessions needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid session cap {v:?}"))?;
                if n == 0 {
                    return Err("--max-sessions must be at least 1".to_string());
                }
                max_sessions = n;
            }
            "--addr" => addr = Some(it.next().ok_or("--addr needs a value")?.clone()),
            "--lint" => lint = true,
            "--deny-warnings" => {
                lint = true;
                deny_warnings = true;
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("invalid thread count {v:?}"))?;
                if n == 0 {
                    return Err("--threads must be at least 1".to_string());
                }
                threads = Some(n);
            }
            "--wal" => wal = Some(it.next().ok_or("--wal needs a value")?.clone()),
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a value")?;
                let k: usize = v
                    .parse()
                    .map_err(|_| format!("invalid checkpoint interval {v:?}"))?;
                // 0 keeps its CLI meaning of "no checkpoints".
                checkpoint = CheckpointPolicy::every_k(k).unwrap_or(CheckpointPolicy::Never);
            }
            other if file.is_none() && !other.starts_with("--") => file = Some(other.to_string()),
            other => return Err(format!("unexpected argument {other:?}")),
        }
    }
    Ok(Options {
        file,
        wal,
        checkpoint,
        no_check,
        lint,
        deny_warnings,
        threads,
        every,
        optimize,
        auto_compact,
        listen,
        no_group_commit,
        max_sessions,
        addr,
    })
}

impl Options {
    /// The positional file argument, for the subcommands that need one.
    fn require_file(&self) -> Result<&str, String> {
        self.file
            .as_deref()
            .ok_or_else(|| "missing input file".to_string())
    }
}

/// Applies the `--threads`/`--optimize`/`--auto-compact` tuning flags.
fn tune(engine: &mut Engine, opts: &Options) {
    if let Some(n) = opts.threads {
        engine.set_threads(n);
    }
    if let Some(l) = opts.optimize {
        engine.set_optimize(l);
    }
    if let Some(n) = opts.auto_compact {
        engine.set_auto_compact(Some(n));
    }
}

/// An engine in the fixed configuration: the one store, checkpointed per
/// `--checkpoint`.
fn new_engine(opts: &Options) -> Engine {
    Engine::new(BackendKind::ForwardDelta, opts.checkpoint)
}

/// The engine `run` and `serve` start from: a non-empty `--wal` journal
/// is replayed, so the clock continues where the last process stopped,
/// and cut back to the prefix it replayed, so what is appended next
/// extends exactly that history; otherwise the empty database. No
/// journal is attached: `run` attaches it, `serve` hands it to the
/// server's committer.
fn resume(opts: &Options) -> Result<Engine, String> {
    let Some(path) = journal(opts) else {
        return Ok(new_engine(opts));
    };
    let rec = recover(path, BackendKind::ForwardDelta, opts.checkpoint)
        .map_err(|e| format!("cannot recover {path}: {e}"))?;
    eprintln!(
        "recovered {} commands from {path}; clock at tx {}; {} corrupt line(s) skipped",
        rec.replayed,
        rec.engine.tx(),
        rec.skipped.len()
    );
    wal::truncate_to_verified_prefix(path)
        .map_err(|e| format!("cannot truncate {path} to its verified prefix: {e}"))?;
    Ok(rec.engine)
}

/// `--wal`'s journal, if it holds anything.
fn journal(opts: &Options) -> Option<&String> {
    opts.wal
        .as_ref()
        .filter(|p| std::fs::metadata(p).is_ok_and(|m| m.len() > 0))
}

/// The commands `--wal`'s journal holds once [`resume`] has cut it back:
/// the state a resumed script is checked against.
fn journaled(opts: &Options) -> Result<Vec<Command>, String> {
    let Some(path) = journal(opts) else {
        return Ok(Vec::new());
    };
    let file = std::fs::File::open(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let entries = wal::read_journal(std::io::BufReader::new(file))
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(entries
        .into_iter()
        .map_while(|entry| match entry {
            wal::WalEntry::Command(cmd) => Some(cmd),
            wal::WalEntry::Corrupt { .. } => None,
        })
        .collect())
}

/// Parses the script with spans and runs the static checker (plus, when
/// `lint`, the `txtime-lint` pass) against the state the `journaled`
/// commands leave, the state the script will execute against; prints
/// diagnostics and warnings. Returns the parsed sentence, whether it
/// checked clean, and the number of lint warnings — or `None` on a parse
/// error (already reported).
fn parse_and_check(
    source: &str,
    file: &str,
    lint: bool,
    journaled: &[Command],
) -> Option<(Sentence, SentenceSpans, bool, usize)> {
    let (sentence, spans) = match parse_sentence_spanned(source) {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("parse error: {e}");
            return None;
        }
    };
    // The linter embeds the checker, so one sentence replay produces
    // both the E-series diagnostics and (when asked) the W-series.
    let mut linter = Linter::new();
    for cmd in journaled {
        linter.commit(cmd, None);
    }
    let report = linter.lint_sentence(&sentence, Some(&spans));
    for d in &report.diagnostics {
        print_diagnostic(file, d);
    }
    let mut warnings = 0;
    if lint {
        for w in &report.warnings {
            print_warning(file, w);
        }
        warnings = report.warnings.len();
    }
    let clean = report.diagnostics.is_empty();
    Some((sentence, spans, clean, warnings))
}

fn print_diagnostic(file: &str, d: &Diagnostic) {
    if d.span.is_known() {
        eprintln!("{file}:{}: error[{}]: {}", d.span, d.code, d.message);
    } else {
        eprintln!("{file}: error[{}]: {}", d.code, d.message);
    }
    if let Some(h) = &d.help {
        eprintln!("  help: {h}");
    }
}

fn print_warning(file: &str, w: &Warning) {
    if w.span.is_known() {
        eprintln!("{file}:{}: warning[{}]: {}", w.span, w.code, w.message);
    } else {
        eprintln!("{file}: warning[{}]: {}", w.code, w.message);
    }
    if let Some(h) = &w.help {
        eprintln!("  help: {h}");
    }
}

fn run(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match opts.require_file() {
        Ok(f) => f.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut engine = match resume(&opts) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The script is checked against the state it will execute against:
    // the empty database, or what the journal replayed. Lint warnings
    // are printed but never stop a run unless --deny-warnings asks them
    // to.
    if !opts.no_check {
        let journaled = match journaled(&opts) {
            Ok(commands) => commands,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        match parse_and_check(&source, &file, true, &journaled) {
            Some((_, _, true, warnings)) => {
                if warnings > 0 && opts.deny_warnings {
                    eprintln!("error: {warnings} lint warning(s) denied by --deny-warnings");
                    return ExitCode::FAILURE;
                }
            }
            Some((_, _, false, _)) => {
                eprintln!("error: static check failed (rerun with --no-check to force)");
                return ExitCode::FAILURE;
            }
            None => return ExitCode::FAILURE,
        }
    }
    if let Some(path) = &opts.wal {
        if let Err(e) = engine.attach_wal(path) {
            eprintln!("error: cannot open WAL {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    tune(&mut engine, &opts);
    match engine.execute_script(&source) {
        Ok(outcomes) => {
            for o in &outcomes {
                if let CommandOutcome::Displayed(state) = o {
                    println!("{state}");
                }
            }
            eprintln!(
                "ok: {} commands, clock at tx {}, {} relations",
                outcomes.len(),
                engine.tx(),
                engine.relations().len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn recover_cmd(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match opts.require_file() {
        Ok(f) => f.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match recover(&file, BackendKind::ForwardDelta, opts.checkpoint) {
        Ok(rec) => {
            eprintln!(
                "recovered {} commands; clock at tx {}; {} corrupt line(s) skipped",
                rec.replayed,
                rec.engine.tx(),
                rec.skipped.len()
            );
            for (line, reason) in &rec.skipped {
                eprintln!("  line {line}: {reason}");
            }
            for name in rec.engine.relations() {
                eprintln!(
                    "  {name}: {} ({} versions)",
                    rec.engine.relation_type(name).expect("listed"),
                    rec.engine.version_count(name).unwrap_or(0)
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Executes the script and reports the physical picture: per-relation
/// space usage and the materialization-cache counters the run produced.
/// With `--addr`, instead asks a running `txtime serve` for its gauges.
fn stats(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(addr) = &opts.addr {
        return match Client::connect(addr.as_str()).and_then(|mut c| c.stats()) {
            Ok(report) => {
                let report = report.strip_prefix("OK stats\n").unwrap_or(&report);
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: cannot query {addr}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let file = match opts.require_file() {
        Ok(f) => f.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut engine = new_engine(&opts);
    tune(&mut engine, &opts);
    if let Err(e) = engine.execute_script(&source) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // Space and compaction counters per relation.
    println!("{}", engine.space_report());
    print!("{}", engine.cache_stats());
    // Per-operator wall time and chunk counts from the worker pool (the
    // header echoes the thread budget the run used).
    print!("{}", engine.exec_stats());
    // Physical-join gauges: kernel invocations, build/probe volume, and
    // how many probe partitions the pool scheduled.
    println!("       {}", engine.join_stats());
    // The optimizer's counters: level, plan searches vs. plan-cache
    // hits, and the summed search work (plans enumerated, groups
    // memoized, rewrites fired).
    print!("{}", engine.optimizer_stats());
    // The view memo's counters, the hash-consed expression DAG behind
    // it, and the per-relation string pools inside the stores.
    print!("{}", engine.memo_stats());
    let (nodes, bytes) = engine.memo_interner_footprint();
    println!("       expr interner: {nodes} nodes / {bytes} bytes");
    for (name, interner) in engine.interner_report() {
        println!("pool:  {name}: {interner}");
    }
    ExitCode::SUCCESS
}

/// Executes the script, then folds every relation's delta chain into
/// materialized checkpoints (`--every N` overrides the checkpoint
/// policy's own interval) and reports what the pass did.
fn compact(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match opts.require_file() {
        Ok(f) => f.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut engine = new_engine(&opts);
    tune(&mut engine, &opts);
    if let Err(e) = engine.execute_script(&source) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let every = opts.every.and_then(std::num::NonZeroUsize::new);
    let stats = engine.compact(every);
    println!(
        "compacted every {} versions: {stats}",
        every
            .unwrap_or_else(|| engine.default_compact_every())
            .get()
    );
    print!("{}", engine.space_report());
    ExitCode::SUCCESS
}

/// Executes the script's mutations, but for each `display` prints the
/// plan the engine would run — the chosen tree annotated with per-node
/// cardinality/cost estimates and the rewrites that produced it —
/// instead of the evaluated state. Honors `--no-check`, `--lint`, and
/// `--deny-warnings` exactly as `run` does.
fn explain(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match opts.require_file() {
        Ok(f) => f.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let sentence = if opts.no_check {
        match parse_sentence_spanned(&source) {
            Ok((s, _)) => s,
            Err(e) => {
                eprintln!("parse error: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match parse_and_check(&source, &file, opts.lint || opts.deny_warnings, &[]) {
            Some((s, _, true, warnings)) => {
                if warnings > 0 && opts.deny_warnings {
                    eprintln!("error: {warnings} lint warning(s) denied by --deny-warnings");
                    return ExitCode::FAILURE;
                }
                s
            }
            Some((_, _, false, _)) => {
                eprintln!("error: static check failed (rerun with --no-check to force)");
                return ExitCode::FAILURE;
            }
            None => return ExitCode::FAILURE,
        }
    };
    let mut engine = new_engine(&opts);
    tune(&mut engine, &opts);
    let mut shown = 0;
    for cmd in sentence.commands() {
        match cmd {
            Command::Display(e) => {
                if shown > 0 {
                    println!();
                }
                println!("{}", engine.explain(e));
                shown += 1;
            }
            other => {
                if let Err(e) = engine.execute(other) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    eprintln!(
        "ok: {} plan(s) explained at optimize level {}",
        shown,
        engine.optimize_level()
    );
    ExitCode::SUCCESS
}

fn check(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let file = match opts.require_file() {
        Ok(f) => f.to_string(),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let source = match std::fs::read_to_string(&file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (sentence, warnings) = match parse_and_check(&source, &file, opts.lint, &[]) {
        Some((s, _, true, w)) => (s, w),
        Some((_, _, false, _)) => {
            eprintln!("static check: FAILED");
            return ExitCode::FAILURE;
        }
        None => return ExitCode::FAILURE,
    };
    if opts.lint {
        eprintln!(
            "parse: ok ({} commands); static check: ok; lint: {warnings} warning(s)",
            sentence.commands().len()
        );
    } else {
        eprintln!(
            "parse: ok ({} commands); static check: ok",
            sentence.commands().len()
        );
    }
    if warnings > 0 && opts.deny_warnings {
        eprintln!("error: {warnings} lint warning(s) denied by --deny-warnings");
        return ExitCode::FAILURE;
    }
    // The configured interval and the store holding every version whole.
    let mut policies = vec![opts.checkpoint, CheckpointPolicy::every_k(1).unwrap()];
    policies.dedup();
    let mut failed = false;
    for policy in policies {
        match check_equivalence(sentence.commands(), policy) {
            Ok(()) => eprintln!("checkpoint {policy}: ≡ reference semantics"),
            Err(e) => {
                eprintln!("checkpoint {policy}: DIVERGENCE — {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Starts the multi-session server: recover the journal (if any), bind,
/// and serve until a client sends `SHUTDOWN`. Group commit is on by
/// default; `--no-group-commit` is the per-commit-fsync baseline.
fn serve_cmd(rest: &[String]) -> ExitCode {
    let opts = match parse_options(rest) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The committer appends to the journal the engine was resumed from.
    let mut engine = match resume(&opts) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    tune(&mut engine, &opts);
    let listener = match std::net::TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    let cfg = ServerConfig {
        wal_path: opts.wal.clone().map(std::path::PathBuf::from),
        group_commit: !opts.no_group_commit,
        max_sessions: opts.max_sessions,
        failpoint: Failpoint::from_env(),
        ..ServerConfig::default()
    };
    let handle = match txtime::server::serve(engine, listener, cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "listening on {} (checkpoint {}, group commit {})",
        handle.addr(),
        opts.checkpoint,
        if opts.no_group_commit { "off" } else { "on" }
    );
    let report = handle.wait();
    eprint!("{}{}", report.sessions, report.group_commit);
    eprintln!(
        "stopped: clock at tx {}, {} relation(s)",
        report.engine.tx(),
        report.engine.relations().len()
    );
    ExitCode::SUCCESS
}
