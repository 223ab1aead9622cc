//! Order statistics used for every reported timing.

/// Sorts `values` and returns them (timings are finite).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    sorted
}

/// The median (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value at rank `round(p × (n − 1))` of the sorted values, `p` in
/// `0..=1`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

/// The quartiles `(q1, q2, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the acceptance driver computes spreads with that function, so the `aa`
/// subcommand must too.
///
/// # Panics
///
/// Panics on fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let sorted = sorted(values);
    let n = sorted.len();
    assert!(n >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// Median of `sample / reference` over `(sample, reference)` pairs: the
/// speed-normalised statistic (see `refkernel`).
pub fn median_of_ratios(pairs: &[(f64, f64)]) -> f64 {
    let ratios: Vec<f64> = pairs.iter().map(|&(s, r)| s / r).collect();
    median(&ratios)
}

/// The highest percentile of `values` that still has at least ten samples
/// beyond it, as `(percentile in 0..=100, value)`; `None` below eleven
/// samples.
pub fn highest_supported_percentile(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values);
    let n = sorted.len();
    (n >= 11).then(|| (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_takes_the_nearest_rank() {
        let values = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 0.5), 3.0);
        assert_eq!(percentile(&values, 0.99), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 15.0, 22.5));
        assert_eq!(spread(&ten), 1.0);
    }

    #[test]
    fn median_of_ratios_cancels_a_common_slowdown() {
        // The third pair ran on a host 2× slower: both times doubled.
        let pairs = [(1.0, 0.01), (1.1, 0.01), (2.0, 0.02), (0.9, 0.01)];
        assert!((median_of_ratios(&pairs) - 100.0).abs() < 1e-9);
        assert_eq!(median_of_ratios(&[(3.0, 2.0)]), 1.5);
    }

    #[test]
    fn highest_percentile_keeps_ten_samples_beyond() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&hundred), Some((90.0, 90.0)));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(highest_supported_percentile(&twenty), Some((50.0, 10.0)));
        assert_eq!(highest_supported_percentile(&twenty[..10]), None);
    }
}
