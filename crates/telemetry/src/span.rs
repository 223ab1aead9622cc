//! Span tracing for pipeline stages.
//!
//! A [`Stage`] bundles the metrics one pipeline stage maintains: a call
//! counter, an item counter and a duration histogram (`<name>_us`). Every
//! span is timed, so the histogram holds one duration per call.
//!
//! Spans never touch decoded data: they time around a stage, not inside
//! it, which is how instrumentation stays bit-identity-preserving by
//! construction.

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::registry::{Counter, Histogram, Registry, RegistryInner};

/// One named pipeline stage. Cloning shares the underlying metrics.
#[derive(Debug, Clone)]
pub struct Stage {
    name: Arc<str>,
    duration_us: Histogram,
    calls: Counter,
    items: Counter,
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
            registry: Arc::clone(&registry.inner),
        }
    }

    /// Opens a span over one call of this stage.
    #[inline]
    pub fn start(&self) -> Span<'_> {
        Span {
            stage: self,
            start: Instant::now(),
        }
    }

    /// Books a pre-measured duration covering `items` items — for call
    /// sites that already hold a timestamp (e.g. the batcher records each
    /// run's submit→flush wait from the run's own submit instant).
    #[inline]
    pub fn record_duration(&self, duration: Duration, items: u64) {
        self.calls.inc();
        self.items.add(items);
        self.book(duration, items);
    }

    fn book(&self, duration: Duration, items: u64) {
        let micros = duration.as_micros().min(u128::from(u64::MAX)) as u64;
        self.duration_us.record(micros);
        // The sink is looked up at booking time, so a trace attached after
        // wiring still sees every later span.
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
    start: Instant,
}

impl Span<'_> {
    /// Closes the span, booking one call and `items` items into the
    /// stage's counters and the elapsed time into its duration histogram
    /// (and the trace sink, if attached).
    #[inline]
    pub fn finish(self, items: u64) {
        self.stage.record_duration(self.start.elapsed(), items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_sampling_times_every_call() {
        let registry = Registry::new();
        let stage = registry.stage("full");
        for _ in 0..5 {
            stage.record_duration(Duration::from_micros(100), 1);
        }
        let hist = registry.snapshot();
        let hist = hist.histogram("full_us").expect("registered");
        assert_eq!(hist.count, 5);
        assert!(hist.quantile(0.5) >= 64.0 && hist.quantile(0.5) <= 128.0);
        for _ in 0..11 {
            stage.start().finish(3);
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter("full_calls"), 16);
        assert_eq!(snap.counter("full_items"), 38);
        assert_eq!(snap.histogram("full_us").map(|h| h.count), Some(16));
    }
}
