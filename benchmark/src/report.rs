//! `all`: every workload in a child process each, collected into one result
//! file. `compare`: two such files, one row per workload and end-to-end metric.

use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{quote, Json};
use crate::load::{self, CHECKPOINT_EVERY, TXTIME_ENV};
use crate::metrics::{Metric, END_TO_END};
use crate::stats::{median, quartiles};
use crate::workload::Workload;
use crate::{Options, DEFAULT_SEED};

/// The commit of the checkout, read from `.git` without running git; a
/// checkout that is not a git repository has none.
fn git_commit(root: &Path) -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let head = read(&root.join(".git/HEAD"));
    match head.as_deref().map(|h| h.strip_prefix("ref: ").ok_or(h)) {
        Some(Ok(reference)) => read(&root.join(".git").join(reference)),
        Some(Err(hash)) => Some(hash.to_string()),
        None => None,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how a result was measured: recorded with every result.
pub fn environment(seed: u64, seconds: u64) -> String {
    let root = load::package_dir().join("..");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"host_cores\": {cores}, \"rustc\": {}, \"commit\": {}, \"seed\": {seed}, \"window_s\": {seconds}, \
         \"config\": {{\"backend\": \"forward-delta\", \"checkpoint_every\": {CHECKPOINT_EVERY}, \
         \"server\": \"ServerConfig::default() with a journal, one fsync per commit group\", \
         \"sessions\": 2, \"cleared_env\": [{}], \
         \"defaults\": \"optimize level 1, memo 64 views, state cache 128, auto-compact 64, pool = available parallelism, 1 shard\"}}}}",
        quote(&rustc_version()),
        quote(&git_commit(&root)),
        TXTIME_ENV.map(quote).join(", ")
    )
}

/// Runs this program again for one workload, so that memory and caches do not
/// leak from one workload into the next; echoes the child's report and returns
/// its last line.
fn child_run(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or("").to_string();
    if Json::parse(&last)
        .ok()
        .and_then(|j| j.get("metrics").cloned())
        .is_none()
    {
        return Err(format!(
            "the run of {} printed no result ({})",
            workload.name(),
            output.status
        ));
    }
    Ok(last)
}

/// `all`: every workload, `--runs` times untraced on consecutive seeds and once
/// traced, into one result file.
pub fn all(args: &[String]) -> Result<ExitCode, String> {
    let options = Options::parse(args, &["smoke"])?;
    options.only(&["seed", "seconds", "runs", "smoke", "out"])?;
    let seed = options.number("seed")?.unwrap_or(DEFAULT_SEED);
    let seconds = options.window_seconds()?;
    let runs = options.number("runs")?.unwrap_or(1).max(1);
    let out = match options.value("out") {
        Some(path) => Path::new(path).to_path_buf(),
        None => load::data_dir()
            .map_err(|e| format!("data directory: {e}"))?
            .join("results.json"),
    };

    let mut records = Vec::new();
    let mut all_correct = true;
    for workload in Workload::ALL {
        for (run_seed, trace) in (0..runs).map(|i| (seed + i, false)).chain([(seed, true)]) {
            let result = child_run(workload, run_seed, seconds, trace)?;
            all_correct &= result.contains("\"correct\": true");
            records.push(format!(
                "{{\"workload\": {}, \"seed\": {run_seed}, \"trace\": {}, \"result\": {result}}}",
                quote(workload.name()),
                u8::from(trace)
            ));
        }
    }
    // This benchmark defines the baseline; it claims no gain.
    let file = format!(
        "{{\"schema\": 1,\n \"env\": {},\n \"runs\": [\n  {}\n ],\n \"claim\": null}}\n",
        environment(seed, seconds),
        records.join(",\n  ")
    );
    std::fs::write(&out, &file).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!("results written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The values of one end-to-end metric over a file's untraced runs of one
/// workload.
fn values(file: &Json, workload: Workload, metric: &Metric) -> Vec<f64> {
    file.get("runs")
        .map_or(&[][..], Json::items)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::str) == Some(workload.name()))
        .filter(|r| r.get("trace").and_then(Json::number) == Some(0.0))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric.name)?
                .get("value")?
                .number()
        })
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Improved,
    Regressed,
    /// The medians differ by less than the metric's bound.
    Unresolved,
}

/// Judges `change` against `base` by the metric's bound.
pub fn verdict(metric: &Metric, base: f64, change: f64) -> Verdict {
    let worse_by = if metric.lower_is_better {
        (change - base) / base
    } else {
        (base - change) / base
    };
    if worse_by > metric.bound {
        Verdict::Regressed
    } else if worse_by < -metric.bound {
        Verdict::Improved
    } else {
        Verdict::Unresolved
    }
}

fn load_results(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `compare A.json B.json`: one row per workload and end-to-end metric, with
/// both medians, the ratio with its base, and the verdict.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [a_path, b_path] = args else {
        return Err("usage: compare <a.json> <b.json>".to_string());
    };
    let (a, b) = (load_results(a_path)?, load_results(b_path)?);
    println!(
        "{:<13} {:<12} {:>14} {:>14} {:>26} {:>7} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "spread"
    );
    let mut regressed = false;
    for workload in Workload::ALL {
        for metric in &END_TO_END {
            let (va, vb) = (values(&a, workload, metric), values(&b, workload, metric));
            if va.is_empty() || vb.is_empty() {
                println!(
                    "{:<13} {:<12} missing in one of the files",
                    workload.name(),
                    metric.name
                );
                regressed = true;
                continue;
            }
            let (ma, mb) = (median(&va), median(&vb));
            // The spread between a's own runs, as a share of its median.
            let spread = if va.len() >= 2 {
                let (q1, q3) = quartiles(&va);
                format!("{:.3}", (q3 - q1) / ma)
            } else {
                "-".to_string()
            };
            let v = verdict(metric, ma, mb);
            regressed |= v == Verdict::Regressed;
            // Four significant digits: the metrics run from 0.0006 s to 18 000 /s.
            let digits = |v: f64| {
                let decimals = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
                format!("{v:.decimals$}")
            };
            println!(
                "{:<13} {:<12} {:>14} {:>14} {:>26} {:>7.2} {:>7}  {}",
                workload.name(),
                metric.name,
                digits(ma),
                digits(mb),
                format!("{:.4} of {} {}", mb / ma, digits(ma), metric.unit),
                metric.bound,
                spread,
                format!("{v:?}").to_lowercase()
            );
        }
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_follows_direction_and_bound() {
        let metric = |lower_is_better| Metric {
            name: "m",
            unit: "u",
            lower_is_better,
            bound: 0.10,
        };
        let (latency, rate) = (&metric(true), &metric(false));
        assert_eq!(verdict(latency, 100.0, 111.0), Verdict::Regressed);
        assert_eq!(verdict(latency, 100.0, 109.0), Verdict::Unresolved);
        assert_eq!(verdict(latency, 100.0, 89.0), Verdict::Improved);
        assert_eq!(verdict(rate, 1000.0, 889.0), Verdict::Regressed);
        assert_eq!(verdict(rate, 1000.0, 950.0), Verdict::Unresolved);
        assert_eq!(verdict(rate, 1000.0, 1101.0), Verdict::Improved);
    }

    #[test]
    fn compare_reads_medians_of_untraced_runs() {
        let file = Json::parse(
            r#"{"runs": [
              {"workload": "mixed", "seed": 1, "trace": 0, "result": {"metrics": {"s0_per_s": {"value": 10, "unit": "1/s"}}}},
              {"workload": "mixed", "seed": 2, "trace": 0, "result": {"metrics": {"s0_per_s": {"value": 30, "unit": "1/s"}}}},
              {"workload": "mixed", "seed": 3, "trace": 0, "result": {"metrics": {"s0_per_s": {"value": 20, "unit": "1/s"}}}},
              {"workload": "mixed", "seed": 1, "trace": 1, "result": {"metrics": {"s0_per_s": {"value": 99, "unit": "1/s"}}}},
              {"workload": "read-asof", "seed": 1, "trace": 0, "result": {"metrics": {"s0_per_s": {"value": 7, "unit": "1/s"}}}}
            ]}"#,
        )
        .unwrap();
        let rate = END_TO_END.iter().find(|m| m.name == "s0_per_s").unwrap();
        assert_eq!(median(&values(&file, Workload::Mixed, rate)), 20.0);
        assert_eq!(values(&file, Workload::CommitOnly, rate), Vec::<f64>::new());
    }
}
