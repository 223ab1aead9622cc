//! Lightweight span tracing for pipeline stages.
//!
//! A [`Stage`] bundles the metrics one pipeline stage maintains: an exact
//! call counter, an exact item counter, and a **sampled** duration
//! histogram (`<name>_us`). Sampling keeps the two `Instant` reads off the
//! steady-state hot path — at the default period of 16 only every 16th call
//! is timed — while the counters stay exact, so throughput attribution
//! never lies. At `sample_every = 1` every call is timed (the configuration
//! the bit-identity batteries run under).
//!
//! Spans never touch decoded data: they time around a stage, not inside
//! it, which is how instrumentation stays bit-identity-preserving by
//! construction.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::registry::{Counter, Histogram, Registry, RegistryInner};

/// Decides which span calls get timed: a free-running ticket counter mod
/// the sampling period.
#[derive(Debug)]
struct Sampler {
    every: u32,
    tick: AtomicU32,
}

impl Sampler {
    #[inline]
    fn sample(&self) -> bool {
        self.every == 1
            || self
                .tick
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.every)
    }
}

/// One named pipeline stage. Cloning shares the underlying metrics.
#[derive(Debug, Clone)]
pub struct Stage {
    name: Arc<str>,
    duration_us: Histogram,
    calls: Counter,
    items: Counter,
    sampler: Arc<Sampler>,
    registry: Arc<RegistryInner>,
}

impl Stage {
    /// Registers the stage's metrics in `registry`.
    pub(crate) fn new(registry: &Registry, name: &str) -> Self {
        Stage {
            name: Arc::from(name),
            duration_us: registry.histogram(&format!("{name}_us")),
            calls: registry.counter(&format!("{name}_calls")),
            items: registry.counter(&format!("{name}_items")),
            sampler: Arc::new(Sampler {
                every: registry.inner.sample_every,
                tick: AtomicU32::new(0),
            }),
            registry: Arc::clone(&registry.inner),
        }
    }

    /// Opens a span over one call of this stage. When the call is sampled
    /// the span carries a start timestamp; otherwise it only counts.
    #[inline]
    pub fn start(&self) -> Span<'_> {
        let start = self.sampler.sample().then(Instant::now);
        Span { stage: self, start }
    }

    /// Books a pre-measured duration covering `items` items — for call
    /// sites that already hold a timestamp (e.g. the batcher records each
    /// run's submit→flush wait from the run's own submit instant). Counts
    /// are exact; the histogram update respects the sampling period.
    #[inline]
    pub fn record_duration(&self, duration: Duration, items: u64) {
        self.calls.inc();
        self.items.add(items);
        if self.sampler.sample() {
            self.book(duration, items);
        }
    }

    fn book(&self, duration: Duration, items: u64) {
        let micros = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        self.duration_us.record(micros);
        // The sink is looked up at booking time (under the sampling gate),
        // so a trace attached after wiring still sees every sampled span.
        if let Some(trace) = self.registry.trace.lock().expect("trace sink lock").clone() {
            trace.write_event(&self.name, micros, items);
        }
    }
}

/// An open span; close it with [`Span::finish`].
#[derive(Debug)]
#[must_use = "a span measures nothing until finished"]
pub struct Span<'a> {
    stage: &'a Stage,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Closes the span, booking `items` items into the stage's exact
    /// counters and — when the call was sampled — the elapsed time into
    /// its duration histogram (and the trace sink, if attached).
    #[inline]
    pub fn finish(self, items: u64) {
        self.stage.calls.inc();
        self.stage.items.add(items);
        if let Some(start) = self.start {
            self.stage.book(start.elapsed(), items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TelemetryConfig;

    #[test]
    fn sampled_stage_counts_exactly_but_times_sparsely() {
        let registry = Registry::new(TelemetryConfig::default().with_sample_every(4));
        let stage = registry.stage("test.stage");
        for _ in 0..16 {
            stage.start().finish(3);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("test.stage_calls"), 16);
        assert_eq!(snap.counter("test.stage_items"), 48);
        let hist = snap.histogram("test.stage_us").expect("registered");
        assert_eq!(hist.count, 4, "one in four calls is timed");
    }

    #[test]
    fn full_sampling_times_every_call() {
        let registry = Registry::new(TelemetryConfig { sample_every: 1 });
        let stage = registry.stage("full");
        for _ in 0..5 {
            stage.record_duration(Duration::from_micros(100), 1);
        }
        let hist = registry.snapshot();
        let hist = hist.histogram("full_us").expect("registered");
        assert_eq!(hist.count, 5);
        assert!(hist.quantile(0.5) >= 64.0 && hist.quantile(0.5) <= 128.0);
    }
}
