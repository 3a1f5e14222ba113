//! The repository's benchmark: closed-loop workloads against an in-process
//! `txtime::server::serve`, end-to-end and per-layer metrics, answer checks
//! and a traced run. See `README.md` beside this package.
//!
//! ```text
//! txtime-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run
//! txtime-benchmark all [--seed N] [--seconds S] [--runs R] [--smoke] [--out FILE]
//! txtime-benchmark compare A.json B.json
//! ```

mod check;
mod json;
mod load;
mod metrics;
mod report;
mod rng;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use run::RunArgs;
use workload::Workload;

/// The default seed of `all`.
pub const DEFAULT_SEED: u64 = 0x5EED_1987;
/// The measured window of one run, the `run_seconds` of `BENCHMARK.json`: the
/// same for all four workloads and on every commit.
pub const RUN_SECONDS: u64 = 15;
/// The window of `--smoke`: short, with every check on.
pub const SMOKE_SECONDS: u64 = 2;

fn parse_u64(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    };
    parsed.map_err(|_| format!("not a whole number: {text:?}"))
}

/// `--name value` pairs and bare flags, after the subcommand.
pub(crate) struct Options(Vec<(String, Option<String>)>);

impl Options {
    pub(crate) fn parse(args: &[String], flags: &[&str]) -> Result<Options, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let name = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
            let value = if flags.contains(&name) {
                None
            } else {
                Some(
                    it.next()
                        .ok_or_else(|| format!("--{name} needs a value"))?
                        .clone(),
                )
            };
            out.push((name.to_string(), value));
        }
        Ok(Options(out))
    }

    pub(crate) fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| n == name)
    }

    pub(crate) fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    pub(crate) fn number(&self, name: &str) -> Result<Option<u64>, String> {
        self.value(name).map(parse_u64).transpose()
    }

    /// The measured window: `--seconds`, else 2 s with `--smoke`, else the
    /// standard one.
    pub(crate) fn window_seconds(&self) -> Result<u64, String> {
        let seconds = match self.number("seconds")? {
            Some(s) => s,
            None if self.has("smoke") => SMOKE_SECONDS,
            None => RUN_SECONDS,
        };
        if (1..=60).contains(&seconds) {
            Ok(seconds)
        } else {
            Err("--seconds is a whole number from 1 to 60".to_string())
        }
    }

    pub(crate) fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }
}

fn one_run(args: &[String]) -> Result<ExitCode, String> {
    let options = Options::parse(args, &["smoke"])?;
    options.only(&["workload", "seed", "seconds", "trace", "smoke"])?;
    let name = options.value("workload").ok_or("--workload is required")?;
    let workload = Workload::from_name(name).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let seconds = options.window_seconds()?;
    let trace = match options.value("trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace is 0 or 1, not {other:?}")),
    };
    let outcome = run::run(&RunArgs {
        workload,
        seed: options.number("seed")?.unwrap_or(DEFAULT_SEED),
        seconds,
        trace,
    })?;
    println!("{}", outcome.to_json());
    Ok(if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => report::compare(&args[1..]),
        Some("all") => report::all(&args[1..]),
        None => report::all(&[]),
        Some(_) => one_run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("txtime-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
