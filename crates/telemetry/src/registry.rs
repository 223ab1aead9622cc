//! The metrics registry: named counters, gauges and log-bucketed
//! histograms behind lock-free handles.
//!
//! Registration (looking a name up in the registry) takes a mutex — that is
//! the cold path, done once per metric at wiring time. The handles a
//! registration returns are `Arc`s onto shared atomic cells: incrementing a
//! counter is one relaxed `fetch_add` on one `AtomicU64`, like a gauge's
//! add; recording a histogram sample is two. There is one mode: every
//! registry records, and every [`Stage`] span is timed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::histogram::{HistogramCell, HistogramSnapshot};
use crate::span::Stage;
use crate::trace::TraceSink;

/// A monotonically increasing counter. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`: one relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed value (queue depths, open-stream counts).
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Arc<AtomicI64>,
}

impl Gauge {
    /// Overwrites the value.
    #[inline]
    pub fn set(&self, value: i64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn value(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A log-bucketed histogram handle. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Arc<HistogramCell>,
}

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples sharing one value (e.g. frames of a batch
    /// sharing their submit timestamp).
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        self.cell.record_n(value, n);
    }

    /// A point-in-time snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.cell.snapshot()
    }
}

/// What lives behind a registry.
#[derive(Debug)]
pub(crate) struct RegistryInner {
    pub(crate) started: Instant,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramCell>>>,
    pub(crate) trace: Mutex<Option<Arc<TraceSink>>>,
}

/// A process- or subsystem-wide registry of named metrics.
///
/// Cheap to clone (an `Arc` internally); clones observe the same metrics.
#[derive(Debug, Clone)]
pub struct Registry {
    pub(crate) inner: Arc<RegistryInner>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry {
            inner: Arc::new(RegistryInner {
                started: Instant::now(),
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                trace: Mutex::new(None),
            }),
        }
    }

    /// Registers (or looks up) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        Counter {
            cell: lookup(&self.inner.counters, name),
        }
    }

    /// Registers (or looks up) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        Gauge {
            cell: lookup(&self.inner.gauges, name),
        }
    }

    /// Registers (or looks up) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        Histogram {
            cell: lookup(&self.inner.histograms, name),
        }
    }

    /// Registers a pipeline stage: a `<name>_us` duration histogram plus
    /// `<name>_calls` / `<name>_items` counters, every span timed.
    pub fn stage(&self, name: &str) -> Stage {
        Stage::new(self, name)
    }

    /// Attaches a JSON-lines trace sink; stages write one event per span.
    /// Replaces any previous sink.
    pub fn set_trace_sink(&self, sink: Arc<TraceSink>) {
        *self.inner.trace.lock().expect("trace sink lock") = Some(sink);
    }

    /// A point-in-time snapshot, every map in name order (deterministic
    /// for a quiesced registry).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = &self.inner;
        let counters = inner
            .counters
            .lock()
            .expect("counter registry lock")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let gauges = inner
            .gauges
            .lock()
            .expect("gauge registry lock")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect();
        let histograms = inner
            .histograms
            .lock()
            .expect("histogram registry lock")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.snapshot()))
            .collect();
        RegistrySnapshot {
            uptime_secs: inner.started.elapsed().as_secs_f64(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// The cell registered under `name` in `cells`, created empty on first use.
fn lookup<T: Default>(cells: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    let mut cells = cells.lock().expect("metric registry lock");
    Arc::clone(cells.entry(name.to_string()).or_default())
}

/// A point-in-time read of every metric in a registry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RegistrySnapshot {
    /// Seconds since the registry was created.
    pub uptime_secs: f64,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Whether nothing was registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// The counter `name`, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name)
    }
}
