//! # qccd-telemetry
//!
//! The workspace's unified observability layer: one dependency-light,
//! offline-friendly crate every tier (decoder, service, sweep
//! orchestration, bench harness) instruments itself through.
//!
//! Three pieces:
//!
//! - [`Registry`] — a process- or subsystem-wide registry of named
//!   [`Counter`]s, [`Gauge`]s and log-bucketed [`Histogram`]s. Handles are
//!   lock-free: a counter increment is one relaxed `fetch_add` on one
//!   `AtomicU64`, and a snapshot of a quiesced registry is deterministic
//!   ([`registry`]). There is one mode: every registry records, and
//!   `sample_every` in [`TelemetryConfig`] is the one dial on span
//!   overhead.
//! - [`Stage`] spans — per-pipeline-stage timing with exact call/item
//!   counters and sampled duration histograms, so bit-identity and
//!   steady-state throughput are untouched (spans time *around* stages,
//!   never inside the decoded data path). Sampled spans can stream to a
//!   JSON-lines [`TraceSink`] (`--trace-out`).
//! - Exposition — [`snapshot_to_json`] and Prometheus-style
//!   [`snapshot_to_text`] render the same [`RegistrySnapshot`] served by
//!   the service TCP front-end and written to a sweep store's
//!   `status.json`, and [`render_dashboard`] is the `top`-style live panel
//!   the loadgen's `--top` mode draws.

#![warn(missing_docs)]

pub mod expose;
pub mod histogram;
pub mod registry;
pub mod render;
pub mod span;
pub mod trace;

pub use expose::{sanitize_metric_name, snapshot_from_json, snapshot_to_json, snapshot_to_text};
pub use histogram::{bucket_bounds, bucket_index, quantile_from_counts, HistogramSnapshot};
pub use registry::{Counter, Gauge, Histogram, Registry, RegistrySnapshot, TelemetryConfig};
pub use render::{cursor_home, render_dashboard};
pub use span::{Span, Stage};
pub use trace::TraceSink;
