//! The run driver: [`run_job`] evaluates the store's missing points itself,
//! on the calling thread and in ascending grid order, and keeps the
//! [`Progress`] and `status.json`.
//!
//! Completion ordering is persist-then-count: a point's file is written
//! (atomically) *before* the point is counted done, so a crash in between
//! merely leaves the point missing — it is recomputed, never lost
//! half-recorded. Each missing point is evaluated once: an `Err`, a panic
//! or a failed write is recorded in `failed/`, and the point, having no
//! file, is left to the next `run_job` on the store (`sweep resume`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use qccd_telemetry::{snapshot_to_json, Registry};
use serde_json::Value;

use crate::job::{JobDescriptor, PointJob};
use crate::store::PointStore;

/// Configuration for one run.
pub struct CoordinatorConfig {
    /// How often to reprint progress and rewrite `status.json`: before the
    /// first point, after a point once this much time has passed since the
    /// last write, and after the last point. Zero writes once per point.
    pub progress_interval: Duration,
    /// Suppress the live progress line on stderr.
    pub quiet: bool,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            progress_interval: Duration::from_secs(2),
            quiet: true,
        }
    }
}

/// What a finished run did.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Points evaluated during this run.
    pub computed: usize,
    /// Points already in the store when the run started.
    pub resumed: usize,
    /// Final progress.
    pub progress: Progress,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Monotonic event counters surfaced in `artifacts sweep status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounters {
    /// Always 0: nothing requeues a point any more. Kept only because the
    /// frozen benchmark package reads it — delete with the next benchmark
    /// PR.
    #[doc(hidden)]
    pub requeues: u64,
    /// Always 0: a failed point is not retried inside a run. Kept only
    /// because the frozen benchmark package reads it (ROADMAP item 13 (c)).
    #[doc(hidden)]
    pub retries: u64,
}

/// Aggregate progress of a run.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Finished points (includes those already on disk before this run).
    pub done: usize,
    /// Points not evaluated yet.
    pub pending: usize,
    /// Points whose evaluation or write failed in this run.
    pub failed: usize,
    /// Event counters.
    pub counters: RunCounters,
}

impl Progress {
    /// Grid size this progress describes.
    pub fn total(&self) -> usize {
        self.done + self.pending + self.failed
    }
}

/// Renders the canonical status snapshot — the shape written to
/// `status.json` and printed by `artifacts sweep status`. `eta_secs` is
/// `null` while points are pending and none has been computed: no rate,
/// so no estimate.
fn snapshot_json(
    job: &JobDescriptor,
    progress: &Progress,
    computed: usize,
    uptime_secs: f64,
) -> Value {
    let rate = computed as f64 / uptime_secs.max(1e-9);
    let eta_secs = match (computed, progress.pending) {
        (_, 0) => Some(0.0),
        (0, _) => None,
        (_, pending) => Some(pending as f64 / rate),
    };
    serde_json::json!({
        "job": { "name": job.name, "hash": job.hash },
        "total": progress.total() as u64,
        "done": progress.done as u64,
        "pending": progress.pending as u64,
        "failed": progress.failed as u64,
        "computed_this_run": computed as u64,
        "uptime_secs": uptime_secs,
        "points_per_sec": rate,
        "eta_secs": eta_secs,
    })
}

/// One-line human rendering of a snapshot, for the live progress display;
/// an `eta_secs` that is not a number (`null`: nothing computed yet) reads
/// `ETA ?`.
pub fn render_progress_line(snapshot: &Value) -> String {
    let get = |key: &str| snapshot.get(key).and_then(Value::as_u64).unwrap_or(0);
    let float = |key: &str| snapshot.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let eta = (snapshot.get("eta_secs").and_then(Value::as_f64))
        .map_or_else(|| "?".to_string(), |eta| format!("{eta:.0}s"));
    format!(
        "sweep: {}/{} done, {} pending, {} failed | {:.2} pts/s, ETA {eta}, up {:.0}s",
        get("done"),
        get("total"),
        get("pending"),
        get("failed"),
        float("points_per_sec"),
        float("uptime_secs"),
    )
}

/// Runs every missing point of `job` once against `store`.
///
/// Missing points are taken from the store, so calling this on a partially
/// filled store *is* resume. Returns once every missing point has been
/// evaluated once; a failed one stays missing for the next call.
///
/// # Errors
///
/// Fails on a `status.json` write error; the points evaluated before it
/// stay stored.
pub fn run_job(
    job: &dyn PointJob,
    store: &PointStore,
    config: CoordinatorConfig,
) -> Result<RunSummary, String> {
    let start = Instant::now();
    let missing = store.missing_indices();
    let resumed = store.num_points() - missing.len();
    let telemetry = Registry::new();
    let stage_eval = telemetry.stage("sweep.stage.eval");
    let stage_persist = telemetry.stage("sweep.stage.persist");
    let points_completed = telemetry.counter("sweep.points_completed");
    let eval_failures = telemetry.counter("sweep.eval_failures");
    let mut progress = Progress {
        done: resumed,
        pending: missing.len(),
        ..Progress::default()
    };

    // Mirrors the split into registry gauges and rewrites `status.json`.
    let report = |progress: &Progress| -> Result<(), String> {
        for (gauge, value) in [
            ("sweep.points_done", progress.done),
            ("sweep.points_pending", progress.pending),
            ("sweep.points_failed", progress.failed),
        ] {
            telemetry.gauge(gauge).set(value as i64);
        }
        let mut snapshot = snapshot_json(
            &job.descriptor(),
            progress,
            progress.done - resumed,
            start.elapsed().as_secs_f64(),
        );
        snapshot["telemetry"] = snapshot_to_json(&telemetry.snapshot());
        store.write_status(&snapshot)?;
        if !config.quiet && !missing.is_empty() {
            eprintln!("{}", render_progress_line(&snapshot));
        }
        Ok(())
    };

    report(&progress)?;
    let mut last_report = Instant::now();
    for &index in &missing {
        let span = stage_eval.start();
        let evaluated = catch_unwind(AssertUnwindSafe(|| job.eval(index, store.seed(index))))
            .unwrap_or_else(|panic| {
                let message = (panic.downcast_ref::<&str>().copied())
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("non-string panic payload");
                Err(format!("point {index} panicked: {message}"))
            });
        span.finish(1);
        let stored = evaluated.and_then(|payload| {
            let span = stage_persist.start();
            let stored = store.store_point(index, &payload);
            span.finish(1);
            stored
        });
        match stored {
            Ok(()) => {
                points_completed.inc();
                progress.done += 1;
            }
            Err(error) => {
                eval_failures.inc();
                if let Err(e) = store.record_failure(index, &error) {
                    eprintln!("sweep: recording failure for point {index} failed: {e}");
                }
                progress.failed += 1;
            }
        }
        progress.pending -= 1;
        if progress.pending == 0 || last_report.elapsed() >= config.progress_interval {
            report(&progress)?;
            last_report = Instant::now();
        }
    }

    Ok(RunSummary {
        computed: progress.done - resumed,
        resumed,
        progress,
        elapsed: start.elapsed(),
    })
}
