//! The run driver: worker threads claim the store's missing points in
//! ascending grid order from one shared cursor, evaluate and persist them,
//! and report each outcome to the thread running [`run_job`], which alone
//! keeps the [`Progress`] and rewrites `status.json`.
//!
//! Completion ordering is persist-then-acknowledge: a point's file is
//! written (atomically) *before* its worker reports it done, so a crash in
//! between merely leaves the point missing — it is recomputed, never lost
//! half-recorded. Each claimed point is evaluated once: an `Err`, a panic
//! or a failed write is recorded in `failed/`, and the point, having no
//! file, is left to the next `run_job` on the store (`sweep resume`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicUsize;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use qccd_telemetry::{snapshot_to_json, Counter, Registry, Stage, TelemetryConfig};
use serde_json::Value;

use crate::job::{JobDescriptor, PointJob};
use crate::store::PointStore;

/// Time constant of the per-worker completion-rate EWMA: contributions
/// decay with `exp(-age / 30 s)`, so the estimate tracks the last
/// half-minute of work instead of the whole run.
const EWMA_TAU_SECS: f64 = 30.0;

/// Configuration for one run.
pub struct CoordinatorConfig {
    /// Evaluation threads.
    pub local_workers: usize,
    /// How often to reprint progress and rewrite `status.json`.
    pub progress_interval: Duration,
    /// Suppress the live progress line on stderr.
    pub quiet: bool,
    /// Span sampling period of the run's registry (`status.json`'s `telemetry`).
    pub telemetry: TelemetryConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            local_workers: 1,
            progress_interval: Duration::from_secs(2),
            quiet: true,
            telemetry: TelemetryConfig::default(),
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

/// Live statistics of one worker thread.
#[derive(Debug, Clone, Copy)]
struct WorkerStats {
    completed: u64,
    /// Time-decayed completions/sec estimate (see [`EWMA_TAU_SECS`]).
    ewma_points_per_sec: f64,
    /// Previous completion instant (rate-sample baseline).
    last_complete: Option<Instant>,
    /// Start of the run, or the worker's last reported outcome.
    last_seen: Instant,
}

impl WorkerStats {
    fn new(now: Instant) -> Self {
        WorkerStats {
            completed: 0,
            ewma_points_per_sec: 0.0,
            last_complete: None,
            last_seen: now,
        }
    }

    /// Folds one completion at `now` into the EWMA: the instantaneous rate
    /// `1/dt` since the previous completion, blended with a weight of
    /// `1 − exp(−dt/τ)` so irregular sample spacing decays correctly.
    fn note_complete(&mut self, now: Instant) {
        self.completed += 1;
        if let Some(last) = self.last_complete {
            let dt = now.saturating_duration_since(last).as_secs_f64().max(1e-9);
            let inst = 1.0 / dt;
            let alpha = 1.0 - (-dt / EWMA_TAU_SECS).exp();
            self.ewma_points_per_sec += alpha * (inst - self.ewma_points_per_sec);
        }
        self.last_complete = Some(now);
    }
}

/// Aggregate progress of a run.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Finished points (includes those already on disk before this run).
    pub done: usize,
    /// Points a worker is evaluating.
    pub leased: usize,
    /// Points no worker has claimed yet.
    pub pending: usize,
    /// Points whose evaluation or write failed in this run.
    pub failed: usize,
    /// Event counters.
    pub counters: RunCounters,
    /// One row per worker thread, in id order.
    workers: Vec<WorkerStats>,
}

impl Progress {
    /// Grid size this progress describes.
    pub fn total(&self) -> usize {
        self.done + self.leased + self.pending + self.failed
    }

    /// Folds one worker report into the tallies; `leased` and `pending`
    /// are set from the claim cursor by the caller.
    fn record(&mut self, (worker, outcome, at): Event) {
        let stats = &mut self.workers[worker];
        stats.last_seen = at;
        match outcome {
            Outcome::Done => {
                stats.note_complete(at);
                self.done += 1;
            }
            Outcome::Failed => self.failed += 1,
        }
    }
}

/// What became of a claimed point.
enum Outcome {
    Done,
    Failed,
}

/// One worker report: worker id, outcome, and when it happened.
type Event = (usize, Outcome, Instant);

/// Renders the canonical status snapshot — the shape written to
/// `status.json` and printed by `artifacts sweep status`.
pub fn snapshot_json(
    job: &JobDescriptor,
    progress: &Progress,
    computed: usize,
    elapsed_secs: f64,
) -> Value {
    let per_sec = |count: u64| count as f64 / elapsed_secs.max(1e-9);
    let rate = per_sec(computed as u64);
    let eta_secs = if rate > 0.0 {
        (progress.pending + progress.leased) as f64 / rate
    } else {
        0.0
    };
    let now = Instant::now();
    let workers: Vec<Value> = progress
        .workers
        .iter()
        .enumerate()
        .map(|(id, stats)| {
            serde_json::json!({
                "id": id as u64,
                "completed": stats.completed,
                "points_per_sec": per_sec(stats.completed),
                "ewma_points_per_sec": stats.ewma_points_per_sec,
                // Seconds since the worker last reported an outcome; the
                // key's name predates the local-only runner.
                "since_heartbeat_secs": now.saturating_duration_since(stats.last_seen).as_secs_f64(),
            })
        })
        .collect();
    serde_json::json!({
        "job": { "name": job.name, "hash": job.hash },
        "total": progress.total() as u64,
        "done": progress.done as u64,
        "leased": progress.leased as u64,
        "pending": progress.pending as u64,
        "failed": progress.failed as u64,
        "computed_this_run": computed as u64,
        "elapsed_secs": elapsed_secs,
        "uptime_secs": elapsed_secs,
        "points_per_sec": rate,
        "eta_secs": eta_secs,
        "workers": Value::from(workers),
    })
}

/// One-line human rendering of a snapshot, for the live progress display.
pub fn render_progress_line(snapshot: &Value) -> String {
    let get = |key: &str| snapshot.get(key).and_then(Value::as_u64).unwrap_or(0);
    let float = |key: &str| snapshot.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    format!(
        "sweep: {}/{} done, {} leased, {} pending, {} failed | {:.2} pts/s, ETA {:.0}s, up {:.0}s",
        get("done"),
        get("total"),
        get("leased"),
        get("pending"),
        get("failed"),
        float("points_per_sec"),
        float("eta_secs"),
        float("uptime_secs"),
    )
}

/// Per-worker rendering of a snapshot's `workers` array — one line per
/// worker with completions, EWMA throughput and last-seen age. Empty when
/// the snapshot carries no worker rows (e.g. a pre-telemetry `status.json`).
pub fn render_worker_lines(snapshot: &Value) -> Vec<String> {
    let Some(workers) = snapshot.get("workers").and_then(Value::as_array) else {
        return Vec::new();
    };
    workers
        .iter()
        .map(|worker| {
            let read_u64 = |key: &str| worker.get(key).and_then(Value::as_u64).unwrap_or(0);
            let (id, completed) = (read_u64("id"), read_u64("completed"));
            let read_f64 = |key: &str| worker.get(key).and_then(Value::as_f64);
            let ewma = read_f64("ewma_points_per_sec").unwrap_or(0.0);
            match read_f64("since_heartbeat_secs") {
                Some(age) => format!(
                    "  worker {id}: {completed} done, {ewma:.2} pts/s (ewma), \
                     last seen {age:.1}s ago"
                ),
                None => format!("  worker {id}: {completed} done"),
            }
        })
        .collect()
}

/// Everything a worker thread needs, borrowed for the duration of one run.
struct RunContext<'a> {
    job: &'a dyn PointJob,
    store: &'a PointStore,
    /// The store's missing indices, ascending.
    missing: Vec<usize>,
    /// Next slot of `missing` to claim; at or past its end, nothing is left.
    cursor: AtomicUsize,
    stage_eval: Stage,
    stage_persist: Stage,
    points_completed: Counter,
    eval_failures: Counter,
}

impl RunContext<'_> {
    /// Evaluates `index` (a panic becomes an `Err`), then persists it.
    fn evaluate(&self, index: usize) -> Result<(), String> {
        let span = self.stage_eval.start();
        let evaluated = catch_unwind(AssertUnwindSafe(|| {
            self.job.eval(index, self.store.seed(index))
        }))
        .unwrap_or_else(|panic| {
            let message = (panic.downcast_ref::<&str>().copied())
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("non-string panic payload");
            Err(format!("point {index} panicked: {message}"))
        });
        span.finish(1);
        let payload = evaluated?;
        let span = self.stage_persist.start();
        let stored = self.store.store_point(index, &payload);
        span.finish(1);
        stored
    }

    /// One worker thread: claim → evaluate once → report, until the cursor
    /// runs past the end.
    fn worker(&self, worker: usize, events: &Sender<Event>) {
        while let Some(&index) = self.missing.get(self.cursor.fetch_add(1, Relaxed)) {
            let outcome = match self.evaluate(index) {
                Ok(()) => {
                    self.points_completed.inc();
                    Outcome::Done
                }
                Err(error) => {
                    self.eval_failures.inc();
                    if let Err(e) = self.store.record_failure(index, &error) {
                        eprintln!("sweep: recording failure for point {index} failed: {e}");
                    }
                    Outcome::Failed
                }
            };
            let _ = events.send((worker, outcome, Instant::now()));
        }
    }
}

/// Runs every missing point of `job` once against `store`.
///
/// Missing points are taken from the store, so calling this on a partially
/// filled store *is* resume. Returns once every missing point has been
/// evaluated once; a failed one stays missing for the next call.
///
/// # Errors
///
/// Fails on a `status.json` write error (workers finish the point they hold
/// and claim nothing new) or when points are missing but there are no
/// local workers.
pub fn run_job(
    job: &dyn PointJob,
    store: &PointStore,
    config: CoordinatorConfig,
) -> Result<RunSummary, String> {
    let start = Instant::now();
    let missing = store.missing_indices();
    let outstanding = missing.len();
    let resumed = store.num_points() - outstanding;
    if outstanding > 0 && config.local_workers == 0 {
        return Err(format!("{outstanding} points to run but no workers"));
    }
    let workers = config.local_workers.min(outstanding);

    let telemetry = Registry::new(config.telemetry);
    let context = RunContext {
        job,
        store,
        cursor: AtomicUsize::new(0),
        stage_eval: telemetry.stage("sweep.stage.eval"),
        stage_persist: telemetry.stage("sweep.stage.persist"),
        points_completed: telemetry.counter("sweep.points_completed"),
        eval_failures: telemetry.counter("sweep.eval_failures"),
        missing,
    };
    let context = &context;
    let mut progress = Progress {
        done: resumed,
        workers: vec![WorkerStats::new(start); workers],
        ..Progress::default()
    };

    // Brings `leased`/`pending` up to date from the cursor, mirrors the
    // split into registry gauges and rewrites `status.json`.
    let report = |progress: &mut Progress| -> Result<(), String> {
        let claimed = context.cursor.load(Relaxed).min(outstanding);
        progress.pending = outstanding - claimed;
        progress.leased = claimed - (progress.done - resumed) - progress.failed;
        for (gauge, value) in [
            ("sweep.points_done", progress.done),
            ("sweep.points_leased", progress.leased),
            ("sweep.points_pending", progress.pending),
            ("sweep.points_failed", progress.failed),
            ("sweep.workers", workers),
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
        if !config.quiet && workers > 0 {
            eprintln!("{}", render_progress_line(&snapshot));
        }
        Ok(())
    };

    let (sender, events) = mpsc::channel();
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let sender = sender.clone();
            scope.spawn(move || context.worker(worker, &sender));
        }
        drop(sender);
        let mut next_report = Instant::now();
        loop {
            let wait = next_report.saturating_duration_since(Instant::now());
            let finished = match events.recv_timeout(wait) {
                Ok(event) => {
                    progress.record(event);
                    false
                }
                Err(RecvTimeoutError::Timeout) => false,
                Err(RecvTimeoutError::Disconnected) => true,
            };
            if finished || Instant::now() >= next_report {
                if let Err(error) = report(&mut progress) {
                    context.cursor.store(outstanding, Relaxed);
                    return Err(error);
                }
                next_report = Instant::now() + config.progress_interval;
            }
            if finished {
                return Ok(());
            }
        }
    })?;

    Ok(RunSummary {
        computed: progress.done - resumed,
        resumed,
        progress,
        elapsed: start.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_views_track_ewma_throughput_and_heartbeat_age() {
        let t0 = Instant::now();
        let mut progress = Progress {
            workers: vec![WorkerStats::new(t0); 2],
            ..Progress::default()
        };
        // Worker 0 completes one point per second for 20 seconds; worker 1
        // never reports.
        let mut last = t0;
        for i in 1..=20u64 {
            last = t0 + Duration::from_secs(i);
            progress.record((0, Outcome::Done, last));
        }
        assert_eq!(progress.done, 20);
        let [w0, w1] = progress.workers[..] else {
            panic!("expected two worker rows");
        };
        assert_eq!(w0.completed, 20);
        // Steady 1 pt/s sampled 19 times with τ=30 s: the EWMA has converged
        // to 1 − exp(−19/30) ≈ 0.469 of the true rate and can never exceed
        // it.
        assert!(
            w0.ewma_points_per_sec > 0.4 && w0.ewma_points_per_sec < 1.0,
            "ewma {} out of range",
            w0.ewma_points_per_sec
        );
        // Worker 0 was last seen at its final completion; worker 1 not
        // since the run started.
        assert_eq!(w0.last_seen, last);
        assert_eq!((w1.completed, w1.ewma_points_per_sec), (0, 0.0));
        assert_eq!(w1.last_seen, t0);
    }
}
