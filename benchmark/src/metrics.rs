//! The benchmark's metrics, as `BENCHMARK.json` at the root of the repository
//! declares them; a test holds the two lists equal.

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    /// The share of the parent's median by which the metric may get worse
    /// before a change counts as a regression; per-layer metrics have none.
    pub bound: f64,
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: f64,
) -> Metric {
    Metric {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, lower_is_better: bool) -> Metric {
    gated(name, unit, lower_is_better, 0.0)
}

/// What a client of the server sees, per closed-loop session: session 0 and
/// session 1 commit in `commit-only`, read in the two read workloads, and in
/// `mixed` session 0 commits while session 1 reads.
///
/// The 95th percentiles and session 1's median are printed but not gated:
/// over ten runs of one commit the quartile distance of a p95 reached 27 % of
/// its median on the read workloads, past any bound the contract allows, and
/// for the reader of `mixed` the median falls between the reads that wait for
/// the write lock and those that do not, so it jumps by a factor of four from
/// run to run (where the sessions do the same, it repeats `s0_p50_us`).
pub const END_TO_END: [Metric; 5] = [
    gated("setup_s", "s", true, 0.25),
    gated("s0_per_s", "1/s", false, 0.25),
    gated("s0_p50_us", "us", true, 0.25),
    gated("s1_per_s", "1/s", false, 0.25),
    gated("peak_rss_mb", "MB", true, 0.25),
];

/// What single layers do inside those requests. The `_us` stage metrics are
/// mean time per request that passes the stage, from the traced run.
pub const PER_LAYER: [Metric; 22] = [
    layer("frame_us", "us", true),
    layer("parse_us", "us", true),
    layer("check_us", "us", true),
    layer("plan_us", "us", true),
    layer("resolve_us", "us", true),
    layer("eval_us", "us", true),
    layer("render_us", "us", true),
    layer("apply_us", "us", true),
    layer("wal_append_us", "us", true),
    layer("fsync_us", "us", true),
    layer("recover_us", "us", true),
    layer("s0_wait_us", "us", true),
    layer("s1_wait_us", "us", true),
    layer("cache_hit_rate", "ratio", false),
    layer("resolve_cache_hit_rate", "ratio", false),
    layer("memo_hit_rate", "ratio", false),
    layer("commits_per_fsync", "ratio", false),
    layer("wal_bytes_per_commit", "B", true),
    layer("max_queue_depth", "count", true),
    layer("shed", "count", true),
    layer("store_bytes_per_version", "B", true),
    layer("trace_overhead_ratio", "ratio", true),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::Workload;

    type Row = (String, String, bool, f64);

    fn declared(list: &Json, with_bound: bool) -> Vec<Row> {
        let text = |m: &Json, key: &str| m.get(key).unwrap().str().unwrap().to_string();
        list.items()
            .iter()
            .map(|m| {
                let bound = if with_bound {
                    m.get("bound").unwrap().number().unwrap()
                } else {
                    0.0
                };
                (
                    text(m, "name"),
                    text(m, "unit"),
                    text(m, "better") == "lower",
                    bound,
                )
            })
            .collect()
    }

    fn ours(list: &[Metric]) -> Vec<Row> {
        list.iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    m.unit.to_string(),
                    m.lower_is_better,
                    m.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_the_same_metrics_and_workloads() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the root of the repository");
        let json = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            declared(json.get("end_to_end").unwrap(), true),
            ours(&END_TO_END)
        );
        assert_eq!(
            declared(json.get("per_layer").unwrap(), false),
            ours(&PER_LAYER)
        );
        let workloads: Vec<&str> = json
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| w.get("name").unwrap().str().unwrap())
            .collect();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
        assert_eq!(
            json.get("run_seconds").unwrap().number().unwrap() as u64,
            crate::RUN_SECONDS
        );
    }
}
