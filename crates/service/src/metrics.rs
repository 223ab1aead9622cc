//! Live service metrics: counters, a queue-depth gauge and a log-bucketed
//! latency histogram cheap enough to update on every frame.
//!
//! There is one store: cells of the service's own
//! [`qccd_telemetry::Registry`] (the one it exports), registered under
//! `service.*` names next to the per-stage spans
//! (`service.stage.batcher_wait` / `decode` / `delivery`) and the workers'
//! `decoder.*` counters. The registry snapshot is what the `metrics` command
//! exports as JSON and Prometheus-style text; [`ServiceMetrics`] (stable
//! JSON keys, served by the TCP front-end since the first service release)
//! is a view read from the same cells, and [`StageBreakdown`] reads the
//! per-stage spans back out of a snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qccd_decoder::CacheStats;
use qccd_telemetry::{Counter, Gauge, Histogram, Registry, RegistrySnapshot, Stage};
use serde_json::Value;

/// Which flush counter a batcher flush books under (the service's
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

/// The service's metric handles (shared across workers and streams).
#[derive(Debug)]
pub(crate) struct MetricsInner {
    started: Instant,
    frames_submitted: Counter,
    frames_completed: Counter,
    /// Frames currently in flight across every stream.
    queue_depth: Gauge,
    words_flushed: Counter,
    full_word_flushes: Counter,
    deadline_flushes: Counter,
    close_flushes: Counter,
    /// Submit→correction latency in µs (sub-microsecond completions book
    /// as 1).
    latency_us: Histogram,
    /// Nanoseconds (since service start) of the first submission / the most
    /// recent completion — bounds of the active window shots/s is computed
    /// over. 0 = "not yet".
    first_submit_ns: AtomicU64,
    last_complete_ns: AtomicU64,
    /// Submit→flush wait of each frame run, booked by the batcher at flush
    /// time from the run's own submit instant.
    pub(crate) batcher_wait: Stage,
    /// One decode job, timed around the decoder call.
    pub(crate) decode: Stage,
    /// Correction routing (reorder heaps, channel sends, backpressure).
    pub(crate) delivery: Stage,
    /// The workers' decoder counters: memo outcome per noisy shot and
    /// verdict per 64-shot word (see [`MetricsInner::publish_decoded`]).
    memo_hits: Counter,
    memo_misses: Counter,
    uncacheable: Counter,
    quiet_words: Counter,
    sparse_words: Counter,
    dense_words: Counter,
}

impl MetricsInner {
    /// Registers every one of the service's cells in `registry`, the one
    /// the service exports.
    pub(crate) fn new(registry: &Registry) -> Self {
        MetricsInner {
            started: Instant::now(),
            frames_submitted: registry.counter("service.frames_submitted"),
            frames_completed: registry.counter("service.frames_completed"),
            queue_depth: registry.gauge("service.queue_depth"),
            words_flushed: registry.counter("service.words_flushed"),
            full_word_flushes: registry.counter("service.flushes.full_word"),
            deadline_flushes: registry.counter("service.flushes.deadline"),
            close_flushes: registry.counter("service.flushes.close"),
            latency_us: registry.histogram("service.latency_us"),
            first_submit_ns: AtomicU64::new(0),
            last_complete_ns: AtomicU64::new(0),
            batcher_wait: registry.stage("service.stage.batcher_wait"),
            decode: registry.stage("service.stage.decode"),
            delivery: registry.stage("service.stage.delivery"),
            memo_hits: registry.counter("decoder.memo_hits"),
            memo_misses: registry.counter("decoder.memo_misses"),
            uncacheable: registry.counter("decoder.uncacheable"),
            quiet_words: registry.counter("decoder.quiet_words"),
            sparse_words: registry.counter("decoder.sparse_words"),
            dense_words: registry.counter("decoder.dense_words"),
        }
    }

    /// Adds a worker's decoder counters accumulated since its last publish
    /// and zeroes them. Workers call this only when they run out of jobs
    /// (and once on exit), so the decode path itself writes no atomics for
    /// these; zero fields are skipped.
    pub(crate) fn publish_decoded(&self, decoded: &mut CacheStats) {
        for (counter, value) in [
            (&self.memo_hits, decoded.hits),
            (&self.memo_misses, decoded.misses),
            (&self.uncacheable, decoded.uncacheable),
            (&self.quiet_words, decoded.quiet_words),
            (&self.sparse_words, decoded.sparse_words),
            (&self.dense_words, decoded.dense_words),
        ] {
            if value > 0 {
                counter.add(value);
            }
        }
        *decoded = CacheStats::default();
    }

    fn now_ns(&self) -> u64 {
        self.started.elapsed().as_nanos().max(1) as u64
    }

    pub(crate) fn note_submitted_many(&self, n: u64) {
        self.frames_submitted.add(n);
        self.queue_depth.add(n as i64);
        let now = self.now_ns();
        let _ = self
            .first_submit_ns
            .compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// Marks `n` frames sharing one submit timestamp as completed (frames
    /// of one batched run share their timestamp, so one histogram update
    /// covers the run exactly).
    pub(crate) fn note_completed_many(&self, latency: Duration, n: u64) {
        self.frames_completed.add(n);
        self.queue_depth.add(-(n as i64));
        self.latency_us
            .record_n(latency.as_micros().max(1) as u64, n);
        self.last_complete_ns
            .store(self.now_ns(), Ordering::Relaxed);
    }

    /// Books one batcher flush: `words` 64-shot words left for the decode
    /// queue under `cause`.
    pub(crate) fn note_flush(&self, words: u64, cause: FlushStat) {
        self.words_flushed.add(words);
        match cause {
            FlushStat::FullWord => &self.full_word_flushes,
            FlushStat::Deadline => &self.deadline_flushes,
            FlushStat::Close => &self.close_flushes,
        }
        .inc();
    }

    pub(crate) fn snapshot(&self, streams_open: usize) -> ServiceMetrics {
        let completed = self.frames_completed.value();
        let first = self.first_submit_ns.load(Ordering::Relaxed);
        let last = self.last_complete_ns.load(Ordering::Relaxed);
        let window_s = if last > first && first > 0 {
            (last - first) as f64 / 1e9
        } else {
            0.0
        };
        let latency = self.latency_us.snapshot();
        ServiceMetrics {
            streams_open,
            frames_submitted: self.frames_submitted.value(),
            frames_completed: completed,
            // Never negative: a run is booked in before it is booked out.
            queue_depth: self.queue_depth.value().max(0) as u64,
            words_flushed: self.words_flushed.value(),
            full_word_flushes: self.full_word_flushes.value(),
            deadline_flushes: self.deadline_flushes.value(),
            close_flushes: self.close_flushes.value(),
            shots_per_sec: if window_s > 0.0 {
                completed as f64 / window_s
            } else {
                0.0
            },
            p50_latency_us: latency.quantile(0.50),
            p99_latency_us: latency.quantile(0.99),
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

    /// Reads the server's `metrics` JSON back (the inverse of
    /// [`ServiceMetrics::to_json`]).
    pub(crate) fn from_json(metrics_json: &Value) -> ServiceMetrics {
        let read = |key: &str| metrics_json.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let read_u = |key: &str| metrics_json.get(key).and_then(Value::as_u64).unwrap_or(0);
        ServiceMetrics {
            streams_open: read_u("streams_open") as usize,
            frames_submitted: read_u("frames_submitted"),
            frames_completed: read_u("frames_completed"),
            queue_depth: read_u("queue_depth"),
            words_flushed: read_u("words_flushed"),
            full_word_flushes: read_u("full_word_flushes"),
            deadline_flushes: read_u("deadline_flushes"),
            close_flushes: read_u("close_flushes"),
            shots_per_sec: read("shots_per_sec"),
            p50_latency_us: read("p50_latency_us"),
            p99_latency_us: read("p99_latency_us"),
        }
    }
}

/// Latency summary of one pipeline stage, read from the unified telemetry
/// snapshot: exact call/item counters plus quantiles of the (sampled)
/// duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageSummary {
    /// Stage invocations (exact, unsampled).
    pub calls: u64,
    /// Items (frames/shots) the stage processed (exact, unsampled).
    pub items: u64,
    /// Invocations that were timed (at sampling period 1 this equals
    /// `calls`).
    pub timed: u64,
    /// Mean duration of the timed invocations (µs).
    pub mean_us: f64,
    /// Median duration (µs, linearly interpolated).
    pub p50_us: f64,
    /// 99th-percentile duration (µs, linearly interpolated).
    pub p99_us: f64,
}

impl StageSummary {
    fn from_snapshot(snapshot: &RegistrySnapshot, stage: &str) -> Option<StageSummary> {
        let hist = snapshot.histogram(&format!("{stage}_us"))?;
        Some(StageSummary {
            calls: snapshot.counter(&format!("{stage}_calls")),
            items: snapshot.counter(&format!("{stage}_items")),
            timed: hist.count,
            mean_us: hist.mean(),
            p50_us: hist.quantile(0.50),
            p99_us: hist.quantile(0.99),
        })
    }

    fn to_json(self) -> Value {
        serde_json::json!({
            "calls": self.calls,
            "items": self.items,
            "timed": self.timed,
            "mean_us": self.mean_us,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
        })
    }
}

/// Per-stage latency breakdown of the service pipeline: how long frames
/// waited in the batcher, how long decode jobs took, and how long
/// correction routing took.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Submit→flush wait in the batcher (items = frames).
    pub batcher_wait: StageSummary,
    /// Transpose + decode of one job (items = shots).
    pub decode: StageSummary,
    /// Correction routing and delivery (items = shots).
    pub delivery: StageSummary,
}

impl StageBreakdown {
    /// Reads the breakdown out of a unified telemetry snapshot (`None`
    /// when the snapshot lacks any of the three stages' cells, e.g. one
    /// read back from a malformed or foreign `telemetry` object).
    pub fn from_snapshot(snapshot: &RegistrySnapshot) -> Option<StageBreakdown> {
        Some(StageBreakdown {
            batcher_wait: StageSummary::from_snapshot(snapshot, "service.stage.batcher_wait")?,
            decode: StageSummary::from_snapshot(snapshot, "service.stage.decode")?,
            delivery: StageSummary::from_snapshot(snapshot, "service.stage.delivery")?,
        })
    }

    /// The breakdown as a JSON object.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "batcher_wait": self.batcher_wait.to_json(),
            "decode": self.decode.to_json(),
            "delivery": self.delivery.to_json(),
        })
    }

    /// One table line per stage.
    pub fn render_pretty(&self) -> String {
        let row = |name: &str, s: &StageSummary| {
            format!(
                "  {name:<13} {:>9} calls {:>11} items   mean {:>8.1} µs   p50 {:>8.1} µs   p99 {:>8.1} µs\n",
                s.calls, s.items, s.mean_us, s.p50_us, s.p99_us
            )
        };
        let mut out = String::from("per-stage breakdown (timing sampled):\n");
        out.push_str(&row("batcher_wait", &self.batcher_wait));
        out.push_str(&row("decode", &self.decode));
        out.push_str(&row("delivery", &self.delivery));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_and_registry_snapshot_read_the_same_cells() {
        let registry = Registry::default();
        let m = MetricsInner::new(&registry);
        m.note_submitted_many(10);
        m.note_completed_many(Duration::from_micros(100), 4);
        m.note_flush(2, FlushStat::FullWord);
        m.note_flush(1, FlushStat::Deadline);
        m.note_flush(1, FlushStat::Close);
        let view = m.snapshot(3);
        assert_eq!(view.streams_open, 3);
        assert_eq!(view.frames_submitted, 10);
        assert_eq!(view.frames_completed, 4);
        assert_eq!(view.queue_depth, 6);
        assert_eq!(view.words_flushed, 4);
        assert_eq!(view.full_word_flushes, 1);
        assert_eq!(view.deadline_flushes, 1);
        assert_eq!(view.close_flushes, 1);
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("service.frames_submitted"),
            view.frames_submitted
        );
        assert_eq!(
            snap.counter("service.frames_completed"),
            view.frames_completed
        );
        assert_eq!(snap.gauges.get("service.queue_depth"), Some(&6));
        assert_eq!(snap.counter("service.words_flushed"), view.words_flushed);
        assert_eq!(snap.counter("service.flushes.full_word"), 1);
        assert_eq!(snap.counter("service.flushes.deadline"), 1);
        assert_eq!(snap.counter("service.flushes.close"), 1);
        let latency = snap.histogram("service.latency_us").expect("registered");
        assert_eq!(latency.count, 4);
        assert_eq!(latency.quantile(0.50), view.p50_latency_us);
        assert_eq!(latency.quantile(0.99), view.p99_latency_us);
        assert_eq!(
            view.to_json()
                .get("frames_submitted")
                .and_then(|v| v.as_u64()),
            Some(10)
        );
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = MetricsInner::new(&Registry::default());
        m.note_submitted_many(2);
        // A sub-microsecond completion lands in bucket 0, [0, 2) µs.
        m.note_completed_many(Duration::from_nanos(5), 1);
        m.note_flush(1, FlushStat::Deadline);
        let view = m.snapshot(0);
        assert_eq!(view.frames_submitted, 2);
        assert_eq!(view.frames_completed, 1);
        assert_eq!(view.queue_depth, 1);
        assert_eq!(view.deadline_flushes, 1);
        assert!(view.p50_latency_us > 0.0 && view.p50_latency_us <= 2.0);
    }
}
