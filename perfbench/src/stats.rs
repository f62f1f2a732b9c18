//! Order statistics for the reported timings.

/// Median of a sample (mean of the two middle values for an even count;
/// 0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in (0, 1] of a sample: the value at rank
/// `ceil(p·n)` of the sorted sample (0 for an empty sample).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil().clamp(1.0, v.len() as f64) as usize;
    v[rank - 1]
}

/// Median, across passes, of each operation's latency: `passes[i][j]` is
/// operation `j` of pass `i`, and every pass runs the same operations.
/// A workload with few operations per pass reports its percentiles over
/// these, so that one stalled pass cannot set its slowest operation.
pub fn per_op_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    let ops = passes.first().map_or(0, Vec::len);
    (0..ops)
        .map(|j| median(&passes.iter().map(|p| p[j]).collect::<Vec<_>>()))
        .collect()
}

/// Number of samples strictly beyond the nearest-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (p * n as f64).ceil().clamp(1.0, n as f64) as usize;
    n - rank
}

/// Whether a sample of `n` leaves at least ten samples beyond percentile
/// `p`, so that the percentile rests on more than a handful of outliers.
pub fn tail_is_supported(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn per_op_medians_take_each_operation_across_passes() {
        let passes = vec![vec![1.0, 10.0], vec![3.0, 90.0], vec![2.0, 11.0]];
        assert_eq!(per_op_medians(&passes), vec![2.0, 11.0]);
        assert!(per_op_medians(&[]).is_empty());
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples leave exactly ten beyond p99; 999 leave nine.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert!(tail_is_supported(1000, 0.99));
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert!(!tail_is_supported(999, 0.99));
        assert!(!tail_is_supported(100, 0.99));
        assert!(tail_is_supported(20, 0.50));
        assert!(!tail_is_supported(0, 0.50));
    }
}
