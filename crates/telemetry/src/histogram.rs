//! The shared log-bucketed histogram primitive.
//!
//! Values land in power-of-two buckets: bucket 0 covers `[0, 2)`, bucket
//! `i ≥ 1` covers `[2^i, 2^(i+1))`. Recording is two relaxed `fetch_add`s
//! (bucket + sum) plus a count; quantiles are estimated by **linear
//! interpolation of the rank within the covering bucket**, so a quantile
//! falling in bucket `[lo, hi)` reports `lo + frac·(hi − lo)` with `frac`
//! the rank's position among the bucket's samples — not the bucket edge,
//! and not a fixed midpoint. The service's `ServiceMetrics` p50/p99 are
//! views over exactly this estimator.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two buckets; covers the full `u64` value range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// The bucket index holding `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < 2 {
        0
    } else {
        (63 - value.leading_zeros()) as usize
    }
}

/// The `[low, high)` value range of bucket `index` (saturating at the top).
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        return (0, 2);
    }
    let low = 1u64 << index;
    let high = if index + 1 >= 64 {
        u64::MAX
    } else {
        1u64 << (index + 1)
    };
    (low, high)
}

/// The `q`-quantile (0 ≤ q ≤ 1) of a bucket-count vector, linearly
/// interpolated within the covering bucket; 0 when nothing was recorded.
pub fn quantile_from_counts(counts: &[u64], q: f64) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // Continuous rank in (0, total]; the sample at rank r is the ⌈r⌉-th
    // smallest recorded value.
    let target = (q.clamp(0.0, 1.0) * total as f64).max(f64::MIN_POSITIVE);
    let rank = (target.ceil() as u64).clamp(1, total);
    let mut cumulative = 0u64;
    for (index, &count) in counts.iter().enumerate() {
        if count == 0 {
            continue;
        }
        cumulative += count;
        if cumulative >= rank {
            let (low, high) = bucket_bounds(index);
            let before = (cumulative - count) as f64;
            let frac = ((target - before) / count as f64).clamp(0.0, 1.0);
            return low as f64 + frac * (high as f64 - low as f64);
        }
    }
    unreachable!("rank is clamped to the total count")
}

/// The shared atomic cell behind a registered histogram.
#[derive(Debug)]
pub(crate) struct HistogramCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for HistogramCell {
    fn default() -> Self {
        HistogramCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl HistogramCell {
    pub(crate) fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum
            .fetch_add(value.saturating_mul(n), Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|bucket| bucket.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// A point-in-time copy of one histogram's buckets and aggregates.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all recorded values (saturating).
    pub sum: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Raw per-bucket counts, indexed by [`bucket_index`].
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Arithmetic mean of the recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Linearly interpolated `q`-quantile (see [`quantile_from_counts`]).
    pub fn quantile(&self, q: f64) -> f64 {
        quantile_from_counts(&self.buckets, q)
    }

    /// The non-empty buckets as `(low, high, count)` triples.
    pub fn occupied_buckets(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0)
            .map(|(index, &count)| {
                let (low, high) = bucket_bounds(index);
                (low, high, count)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), 63);
        for i in 0..HISTOGRAM_BUCKETS {
            let (low, high) = bucket_bounds(i);
            assert_eq!(bucket_index(low), i);
            if high != u64::MAX {
                assert_eq!(bucket_index(high - 1), i);
            }
        }
    }

    #[test]
    fn quantiles_interpolate_within_the_bucket() {
        // 100 samples of value 10 → bucket [8, 16). The p50 sample is the
        // 50th of 100, half way into the bucket: 8 + 0.5·8 = 12.
        let cell = HistogramCell::default();
        cell.record_n(10, 100);
        let snap = cell.snapshot();
        assert_eq!(snap.quantile(0.5), 12.0);
        // p100 reaches the bucket's upper edge, p→0 its lower edge.
        assert_eq!(snap.quantile(1.0), 16.0);
        assert!(snap.quantile(0.001) < 9.0);

        // Two buckets, 50 samples each: [8,16) then [64,128). p25 is half
        // way through the first (12), p75 half way through the second (96),
        // and p50 is the last sample of the first bucket (16).
        let cell = HistogramCell::default();
        cell.record_n(10, 50);
        cell.record_n(100, 50);
        let snap = cell.snapshot();
        assert_eq!(snap.quantile(0.25), 12.0);
        assert_eq!(snap.quantile(0.50), 16.0);
        assert_eq!(snap.quantile(0.75), 96.0);
        assert_eq!(snap.count, 100);
        assert_eq!(snap.max, 100);
        assert_eq!(snap.mean(), 55.0);

        // Uniform 25/25/25/25 over four buckets: each quartile boundary
        // lands exactly on its bucket's upper edge.
        let cell = HistogramCell::default();
        for value in [2u64, 4, 8, 16] {
            cell.record_n(value, 25);
        }
        let snap = cell.snapshot();
        assert_eq!(snap.quantile(0.25), 4.0);
        assert_eq!(snap.quantile(0.50), 8.0);
        assert_eq!(snap.quantile(0.75), 16.0);
        assert_eq!(snap.quantile(1.00), 32.0);
    }

    #[test]
    fn quantile_accuracy_is_bounded_by_the_covering_bucket() {
        // Whatever the distribution, a quantile estimate never leaves the
        // bucket of the true quantile sample: relative error ≤ 2×.
        let cell = HistogramCell::default();
        let values = [1u64, 3, 7, 9, 120, 5000, 5001, 5002, 640_000, 9];
        for &v in &values {
            cell.record_n(v, 1);
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable();
        let snap = cell.snapshot();
        for (q, index) in [(0.1, 0usize), (0.5, 4), (0.9, 8), (1.0, 9)] {
            let truth = sorted[index] as f64;
            let estimate = snap.quantile(q);
            let (low, high) = bucket_bounds(bucket_index(sorted[index]));
            assert!(
                estimate >= low as f64 && estimate <= high as f64,
                "q={q}: estimate {estimate} escaped bucket [{low}, {high}) of true {truth}"
            );
        }
    }

    #[test]
    fn empty_histogram_quantiles_are_zero() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.quantile(0.5), 0.0);
        assert_eq!(snap.mean(), 0.0);
        assert!(snap.occupied_buckets().is_empty());
    }
}
