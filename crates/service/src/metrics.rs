//! Live service metrics: counters, gauges and a log-bucketed latency
//! histogram cheap enough to update on every frame.
//!
//! The legacy [`ServiceMetrics`] snapshot (stable JSON keys, served by the
//! TCP front-end since the first service release) is kept as-is; every
//! counter it reports is *also* mirrored into a shared
//! [`qccd_telemetry::Registry`] under `service.*` names, alongside the
//! per-stage spans (`service.stage.batcher_wait` / `decode` / `delivery`)
//! that have no legacy equivalent. The registry is the unified snapshot the
//! `metrics` command exports as JSON and Prometheus-style text.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qccd_telemetry::{quantile_from_counts, Counter, Gauge, Registry, Stage};
use serde_json::Value;

/// Number of exponential latency buckets (bucket `i` covers
/// `[2^i, 2^(i+1))` microseconds; bucket 0 also absorbs sub-microsecond
/// completions).
const LATENCY_BUCKETS: usize = 32;

/// A fixed, lock-free latency histogram with power-of-two microsecond
/// buckets. Quantiles are estimated with the shared
/// [`qccd_telemetry::quantile_from_counts`] estimator: linear
/// interpolation of the quantile sample's rank within its covering bucket.
#[derive(Debug, Default)]
pub(crate) struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
}

impl LatencyHistogram {
    #[cfg(test)]
    pub(crate) fn record(&self, latency: Duration) {
        self.record_n(latency, 1);
    }

    /// Records `n` samples sharing one latency (frames of a batch
    /// submission share their submit timestamp, so this is exact for
    /// batched runs).
    pub(crate) fn record_n(&self, latency: Duration, n: u64) {
        let micros = latency.as_micros().max(1) as u64;
        let bucket = (63 - micros.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[bucket].fetch_add(n, Ordering::Relaxed);
    }

    /// The `q`-quantile (0 < q ≤ 1) in microseconds, linearly interpolated
    /// within the bucket holding the quantile sample (bucket `i` covers
    /// `[2^i, 2^(i+1))` µs); 0 when nothing was recorded.
    pub(crate) fn quantile_us(&self, q: f64) -> f64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        quantile_from_counts(&counts, q)
    }
}

/// Which legacy flush counter a batcher flush books under (the service's
/// `FlushCause` folds shutdown into deadline before calling in).
#[derive(Debug, Clone, Copy)]
pub(crate) enum FlushStat {
    /// The batch reached its word bound.
    FullWord,
    /// The latency deadline (or the shutdown drain) forced the flush.
    Deadline,
    /// The last contributing stream closed.
    Close,
}

/// The unified-registry mirrors of the legacy counters, plus the per-stage
/// span handles. All handles are inert when the service's telemetry is
/// disabled, so every mirror call degenerates to one branch.
#[derive(Debug)]
pub(crate) struct UnifiedMetrics {
    frames_submitted: Counter,
    frames_completed: Counter,
    queue_depth: Gauge,
    words_flushed: Counter,
    full_word_flushes: Counter,
    deadline_flushes: Counter,
    close_flushes: Counter,
    latency_us: qccd_telemetry::Histogram,
    /// Submit→flush wait of each frame run, booked by the batcher at flush
    /// time from the run's own submit instant.
    pub(crate) batcher_wait: Stage,
    /// Transpose + decode of one job, timed around the decoder call.
    pub(crate) decode: Stage,
    /// Correction routing (reorder heaps, channel sends, backpressure).
    pub(crate) delivery: Stage,
}

impl UnifiedMetrics {
    fn new(registry: &Registry) -> Self {
        UnifiedMetrics {
            frames_submitted: registry.counter("service.frames_submitted"),
            frames_completed: registry.counter("service.frames_completed"),
            queue_depth: registry.gauge("service.queue_depth"),
            words_flushed: registry.counter("service.words_flushed"),
            full_word_flushes: registry.counter("service.flushes.full_word"),
            deadline_flushes: registry.counter("service.flushes.deadline"),
            close_flushes: registry.counter("service.flushes.close"),
            latency_us: registry.histogram("service.latency_us"),
            batcher_wait: registry.stage("service.stage.batcher_wait"),
            decode: registry.stage("service.stage.decode"),
            delivery: registry.stage("service.stage.delivery"),
        }
    }
}

/// The service's internal counter block (shared across workers and streams).
#[derive(Debug)]
pub(crate) struct MetricsInner {
    started: Instant,
    submitted: AtomicU64,
    completed: AtomicU64,
    /// Frames currently in flight across every stream (the live queue
    /// depth).
    queue_depth: AtomicU64,
    words_flushed: AtomicU64,
    full_word_flushes: AtomicU64,
    deadline_flushes: AtomicU64,
    close_flushes: AtomicU64,
    /// Nanoseconds (since service start) of the first submission / the most
    /// recent completion — bounds of the active window shots/s is computed
    /// over. 0 = "not yet".
    first_submit_ns: AtomicU64,
    last_complete_ns: AtomicU64,
    pub(crate) latency: LatencyHistogram,
    /// Unified-registry mirrors and stage handles (inert when disabled).
    pub(crate) unified: UnifiedMetrics,
}

impl MetricsInner {
    pub(crate) fn new(registry: &Registry) -> Self {
        MetricsInner {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            queue_depth: AtomicU64::new(0),
            words_flushed: AtomicU64::new(0),
            full_word_flushes: AtomicU64::new(0),
            deadline_flushes: AtomicU64::new(0),
            close_flushes: AtomicU64::new(0),
            first_submit_ns: AtomicU64::new(0),
            last_complete_ns: AtomicU64::new(0),
            latency: LatencyHistogram::default(),
            unified: UnifiedMetrics::new(registry),
        }
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().max(1) as u64
    }

    #[cfg(test)]
    pub(crate) fn note_submitted(&self) {
        self.note_submitted_many(1);
    }

    pub(crate) fn note_submitted_many(&self, n: u64) {
        self.submitted.fetch_add(n, Ordering::Relaxed);
        self.queue_depth.fetch_add(n, Ordering::Relaxed);
        self.unified.frames_submitted.add(n);
        self.unified.queue_depth.add(n as i64);
        let now = self.now_ns();
        let _ = self
            .first_submit_ns
            .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn note_completed(&self, latency: Duration) {
        self.note_completed_many(latency, 1);
    }

    /// Marks `n` frames sharing one submit timestamp as completed (frames
    /// of one batched run share their timestamp, so one histogram update
    /// covers the run exactly).
    pub(crate) fn note_completed_many(&self, latency: Duration, n: u64) {
        self.completed.fetch_add(n, Ordering::Relaxed);
        self.queue_depth.fetch_sub(n, Ordering::Relaxed);
        self.latency.record_n(latency, n);
        self.unified.frames_completed.add(n);
        self.unified.queue_depth.add(-(n as i64));
        self.unified
            .latency_us
            .record_n(latency.as_micros().max(1) as u64, n);
        self.last_complete_ns
            .store(self.now_ns(), Ordering::Relaxed);
    }

    /// Books one batcher flush: `words` 64-shot words left for the decode
    /// queue under `cause` (legacy counters and unified mirrors together).
    pub(crate) fn note_flush(&self, words: u64, cause: FlushStat) {
        self.words_flushed.fetch_add(words, Ordering::Relaxed);
        self.unified.words_flushed.add(words);
        let (legacy, mirror) = match cause {
            FlushStat::FullWord => (&self.full_word_flushes, &self.unified.full_word_flushes),
            FlushStat::Deadline => (&self.deadline_flushes, &self.unified.deadline_flushes),
            FlushStat::Close => (&self.close_flushes, &self.unified.close_flushes),
        };
        legacy.fetch_add(1, Ordering::Relaxed);
        mirror.inc();
    }

    pub(crate) fn snapshot(&self, streams_open: usize) -> ServiceMetrics {
        let completed = self.completed.load(Ordering::Relaxed);
        let first = self.first_submit_ns.load(Ordering::Relaxed);
        let last = self.last_complete_ns.load(Ordering::Relaxed);
        let window_s = if last > first && first > 0 {
            (last - first) as f64 / 1e9
        } else {
            0.0
        };
        ServiceMetrics {
            streams_open,
            frames_submitted: self.submitted.load(Ordering::Relaxed),
            frames_completed: completed,
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            words_flushed: self.words_flushed.load(Ordering::Relaxed),
            full_word_flushes: self.full_word_flushes.load(Ordering::Relaxed),
            deadline_flushes: self.deadline_flushes.load(Ordering::Relaxed),
            close_flushes: self.close_flushes.load(Ordering::Relaxed),
            shots_per_sec: if window_s > 0.0 {
                completed as f64 / window_s
            } else {
                0.0
            },
            p50_latency_us: self.latency.quantile_us(0.50),
            p99_latency_us: self.latency.quantile_us(0.99),
        }
    }
}

/// A point-in-time snapshot of the service's live metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceMetrics {
    /// Streams currently open.
    pub streams_open: usize,
    /// Frames accepted since service start.
    pub frames_submitted: u64,
    /// Frames decoded and routed back since service start.
    pub frames_completed: u64,
    /// Frames currently in flight (submitted − completed).
    pub queue_depth: u64,
    /// 64-shot words flushed to the decode queue.
    pub words_flushed: u64,
    /// Flushes triggered by a full word.
    pub full_word_flushes: u64,
    /// Flushes triggered by the latency deadline (partial words). Shutdown
    /// drains book here too.
    pub deadline_flushes: u64,
    /// Flushes triggered by the last contributing stream closing.
    pub close_flushes: u64,
    /// Completed frames per second over the active window (first submission
    /// to latest completion).
    pub shots_per_sec: f64,
    /// Median submit→correction latency (µs, bucket-resolution).
    pub p50_latency_us: f64,
    /// 99th-percentile submit→correction latency (µs, bucket-resolution).
    pub p99_latency_us: f64,
}

impl ServiceMetrics {
    /// The metrics as a JSON object (the `metrics` response of the TCP
    /// front-end).
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "streams_open": self.streams_open as u64,
            "frames_submitted": self.frames_submitted,
            "frames_completed": self.frames_completed,
            "queue_depth": self.queue_depth,
            "words_flushed": self.words_flushed,
            "full_word_flushes": self.full_word_flushes,
            "deadline_flushes": self.deadline_flushes,
            "close_flushes": self.close_flushes,
            "shots_per_sec": self.shots_per_sec,
            "p50_latency_us": self.p50_latency_us,
            "p99_latency_us": self.p99_latency_us,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_follow_bucket_boundaries() {
        let h = LatencyHistogram::default();
        assert_eq!(h.quantile_us(0.5), 0.0);
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket 3: [8, 16)
        }
        h.record(Duration::from_millis(100)); // bucket 16: [65536, ...)
        let p50 = h.quantile_us(0.50);
        assert!((8.0..16.0).contains(&p50), "{p50}");
        let p99 = h.quantile_us(0.99);
        assert!(p99 < 65536.0, "99 of 100 samples are fast: {p99}");
        let p100 = h.quantile_us(1.0);
        assert!(p100 >= 65536.0, "{p100}");
        // Sub-microsecond records land in the first bucket, not a panic.
        h.record(Duration::from_nanos(5));
    }

    #[test]
    fn histogram_quantiles_interpolate_linearly_not_at_bucket_edges() {
        // 100 identical 10 µs samples fill bucket [8, 16). The p50 sample
        // is the 50th of 100, so linear interpolation puts it half way into
        // the bucket — 12 exactly, not the edge (8/16) and not the old
        // geometric midpoint (8·√2 ≈ 11.31).
        let h = LatencyHistogram::default();
        h.record_n(Duration::from_micros(10), 100);
        assert_eq!(h.quantile_us(0.50), 12.0);
        assert_eq!(h.quantile_us(1.0), 16.0);

        // 99 fast + 1 slow: p50 = 8 + 8·(50/99), p99 is the last fast
        // sample (the bucket's upper edge), p100 the slow bucket's.
        let h = LatencyHistogram::default();
        h.record_n(Duration::from_micros(10), 99);
        h.record(Duration::from_millis(100)); // 100_000 µs → [65536, 131072)
        let p50 = h.quantile_us(0.50);
        assert!((p50 - (8.0 + 8.0 * 50.0 / 99.0)).abs() < 1e-9, "{p50}");
        assert_eq!(h.quantile_us(0.99), 16.0);
        assert_eq!(h.quantile_us(1.0), 131072.0);

        // Uniform 25/25/25/25 over four buckets: each quartile boundary
        // lands exactly on its bucket's upper edge.
        let h = LatencyHistogram::default();
        for v in [2u64, 4, 8, 16] {
            h.record_n(Duration::from_micros(v), 25);
        }
        assert_eq!(h.quantile_us(0.25), 4.0);
        assert_eq!(h.quantile_us(0.50), 8.0);
        assert_eq!(h.quantile_us(0.75), 16.0);
        assert_eq!(h.quantile_us(1.00), 32.0);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = MetricsInner::new(&Registry::disabled());
        m.note_submitted();
        m.note_submitted();
        m.note_completed(Duration::from_micros(100));
        let snap = m.snapshot(3);
        assert_eq!(snap.streams_open, 3);
        assert_eq!(snap.frames_submitted, 2);
        assert_eq!(snap.frames_completed, 1);
        assert_eq!(snap.queue_depth, 1);
        assert!(snap.p50_latency_us > 0.0);
        let json = snap.to_json();
        assert_eq!(
            json.get("frames_submitted").and_then(|v| v.as_u64()),
            Some(2)
        );
    }

    #[test]
    fn unified_registry_mirrors_the_legacy_counters() {
        let registry = Registry::enabled();
        let m = MetricsInner::new(&registry);
        m.note_submitted_many(10);
        m.note_completed_many(Duration::from_micros(100), 4);
        m.note_flush(2, FlushStat::FullWord);
        m.note_flush(1, FlushStat::Deadline);
        m.note_flush(1, FlushStat::Close);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("service.frames_submitted"), 10);
        assert_eq!(snap.counter("service.frames_completed"), 4);
        assert_eq!(snap.gauges.get("service.queue_depth"), Some(&6));
        assert_eq!(snap.counter("service.words_flushed"), 4);
        assert_eq!(snap.counter("service.flushes.full_word"), 1);
        assert_eq!(snap.counter("service.flushes.deadline"), 1);
        assert_eq!(snap.counter("service.flushes.close"), 1);
        let latency = snap.histogram("service.latency_us").expect("registered");
        assert_eq!(latency.count, 4);
        // The legacy snapshot reports the same story from its own atomics.
        let legacy = m.snapshot(0);
        assert_eq!(legacy.frames_submitted, 10);
        assert_eq!(legacy.words_flushed, 4);
        assert_eq!(legacy.full_word_flushes, 1);
    }
}
