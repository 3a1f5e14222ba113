//! The benchmark's summary statistics: the percentile rule, the median of the
//! per-second window counts, and quartiles for `compare`.

/// The percentiles a latency report may quote, lowest first, in tenths of a
/// percent so that the rule below is exact.
const PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile with at least ten samples beyond it; `None` below
/// twenty samples, where not even the median qualifies.
pub fn highest_supported_percentile(samples: usize) -> Option<f64> {
    PER_MILLE
        .into_iter()
        .rev()
        .find(|p| samples * (1000 - p) >= 10 * 1000)
        .map(|p| p as f64 / 10.0)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u32], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    f64::from(sorted[rank.clamp(1, sorted.len()) - 1])
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Throughput of a run: the median of the replies counted in each whole
/// second of the window, so that one stalled second does not move it.
pub fn window_median(counts: &[u64]) -> f64 {
    median(&counts.iter().map(|&c| c as f64).collect::<Vec<_>>())
}

/// First and third quartile, as Python's `statistics.quantiles(v, n=4)` gives
/// them (the exclusive method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |quarter: usize| {
        let pos = quarter * (n + 1);
        let index = (pos / 4).clamp(1, n - 1);
        let frac = (pos as f64 / 4.0 - index as f64).clamp(0.0, 1.0);
        sorted[index - 1] + frac * (sorted[index] - sorted[index - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 95.0), 95.0);
        assert_eq!(percentile(&sorted, 99.9), 100.0);
        assert_eq!(percentile(&[7], 50.0), 7.0);
    }

    #[test]
    fn window_median_ignores_one_stalled_second() {
        assert_eq!(window_median(&[100, 101, 3, 99, 100]), 100.0);
        assert_eq!(window_median(&[10, 20]), 15.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&values);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
