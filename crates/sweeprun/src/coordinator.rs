//! The run driver: takes one job to completion over the point store with
//! local worker threads.
//!
//! A run owns the [`Scheduler`] and the [`PointStore`]; each worker thread
//! leases a point, evaluates it and reports back until nothing is left.
//!
//! Completion ordering is persist-then-acknowledge: a point's file is
//! written (atomically) *before* the scheduler marks it done, so a crash in
//! between merely leaves the point pending — it is recomputed, never lost
//! half-recorded.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use qccd_telemetry::{snapshot_to_json, Counter, Registry, Stage, TelemetryConfig};
use serde_json::Value;

use crate::job::{JobDescriptor, PointJob};
use crate::scheduler::{FailReply, LeaseReply, Progress, Scheduler, SchedulerConfig};
use crate::store::PointStore;

/// Configuration for one run.
pub struct CoordinatorConfig {
    /// Evaluation threads.
    pub local_workers: usize,
    /// Retry tuning.
    pub scheduler: SchedulerConfig,
    /// How often to reprint progress and rewrite `status.json`.
    pub progress_interval: Duration,
    /// Suppress the live progress line on stderr.
    pub quiet: bool,
    /// Telemetry registry configuration for this run (stage timings, point
    /// counters; exposed through `status.json`).
    pub telemetry: TelemetryConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            local_workers: 1,
            scheduler: SchedulerConfig::default(),
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
    /// Final progress (includes the retry counter).
    pub progress: Progress,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Renders the canonical status snapshot — the shape written to
/// `status.json` and printed by `artifacts sweep status`.
pub fn snapshot_json(
    job: &JobDescriptor,
    progress: &Progress,
    computed: usize,
    elapsed_secs: f64,
) -> Value {
    let rate = if elapsed_secs > 0.0 {
        computed as f64 / elapsed_secs
    } else {
        0.0
    };
    let outstanding = progress.pending + progress.leased;
    let eta_secs = if rate > 0.0 {
        outstanding as f64 / rate
    } else {
        0.0
    };
    let workers: Vec<Value> = progress
        .workers
        .iter()
        .map(|view| {
            let worker_rate = if elapsed_secs > 0.0 {
                view.completed as f64 / elapsed_secs
            } else {
                0.0
            };
            serde_json::json!({
                "id": view.worker,
                "completed": view.completed,
                "points_per_sec": worker_rate,
                "ewma_points_per_sec": view.ewma_points_per_sec,
                // Seconds since the worker last leased, completed or failed
                // a point; the key's name predates the local-only runner.
                "since_heartbeat_secs": view.since_last_seen_secs,
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
        "retries": progress.counters.retries,
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
    let rate = snapshot
        .get("points_per_sec")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let eta = snapshot
        .get("eta_secs")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    let uptime = snapshot
        .get("uptime_secs")
        .and_then(Value::as_f64)
        .unwrap_or(0.0);
    format!(
        "sweep: {}/{} done, {} leased, {} pending, {} failed | {:.2} pts/s, ETA {:.0}s, up {:.0}s | retries {}",
        get("done"),
        get("total"),
        get("leased"),
        get("pending"),
        get("failed"),
        rate,
        eta,
        uptime,
        get("retries"),
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
            let id = read_u64("id");
            let completed = read_u64("completed");
            let ewma = worker
                .get("ewma_points_per_sec")
                .and_then(Value::as_f64)
                .unwrap_or(0.0);
            match worker.get("since_heartbeat_secs").and_then(Value::as_f64) {
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
    scheduler: Mutex<Scheduler>,
    /// Notified (with `scheduler`) whenever a point becomes terminal, so
    /// [`run_job`] learns of the last one without waiting out its poll.
    terminal: Condvar,
    shutdown: AtomicBool,
    /// Unified telemetry for this run: stage timings plus point counters,
    /// exposed through `status.json`.
    telemetry: Registry,
    stage_lease: Stage,
    stage_eval: Stage,
    stage_persist: Stage,
    points_completed: Counter,
    eval_failures: Counter,
}

impl<'a> RunContext<'a> {
    fn new(
        job: &'a dyn PointJob,
        store: &'a PointStore,
        scheduler: Scheduler,
        telemetry: Registry,
    ) -> Self {
        RunContext {
            job,
            store,
            scheduler: Mutex::new(scheduler),
            terminal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stage_lease: telemetry.stage("sweep.stage.lease"),
            stage_eval: telemetry.stage("sweep.stage.eval"),
            stage_persist: telemetry.stage("sweep.stage.persist"),
            points_completed: telemetry.counter("sweep.points_completed"),
            eval_failures: telemetry.counter("sweep.eval_failures"),
            telemetry,
        }
    }

    /// Mirrors the progress split into registry gauges so the telemetry
    /// object of `status.json` carries it.
    fn update_progress_gauges(&self, progress: &Progress) {
        self.telemetry
            .gauge("sweep.points_done")
            .set(progress.done as i64);
        self.telemetry
            .gauge("sweep.points_leased")
            .set(progress.leased as i64);
        self.telemetry
            .gauge("sweep.points_pending")
            .set(progress.pending as i64);
        self.telemetry
            .gauge("sweep.points_failed")
            .set(progress.failed as i64);
        self.telemetry
            .gauge("sweep.workers")
            .set(progress.workers.len() as i64);
    }

    /// Asks the scheduler for `worker`'s next point.
    fn lease(&self, worker: u64) -> LeaseReply {
        let span = self.stage_lease.start();
        let reply = self.scheduler.lock().unwrap().lease(worker, Instant::now());
        span.finish(1);
        reply
    }

    /// Persists `payload`, then marks the point done: a crash in between
    /// leaves it pending.
    fn complete(&self, worker: u64, index: usize, payload: &Value) -> Result<(), String> {
        let span = self.stage_persist.start();
        let stored = self.store.store_point(index, payload);
        span.finish(1);
        stored?;
        let accepted = self
            .scheduler
            .lock()
            .unwrap()
            .complete(index, worker, Instant::now());
        if accepted {
            self.points_completed.inc();
            self.terminal.notify_one();
        }
        Ok(())
    }

    /// Reports a failed evaluation; an exhausted point is recorded in the
    /// store's `failed/` directory.
    fn fail(&self, worker: u64, index: usize, error: &str) -> Result<(), String> {
        self.eval_failures.inc();
        let (reply, attempts) = {
            let mut scheduler = self.scheduler.lock().unwrap();
            let reply = scheduler.fail(index, worker, Instant::now());
            (reply, scheduler.attempts(index))
        };
        if reply == FailReply::Exhausted {
            let recorded = self.store.record_failure(index, error, attempts);
            self.terminal.notify_one();
            recorded?;
        }
        Ok(())
    }

    /// One worker thread: lease → eval → persist → complete.
    fn local_worker(&self) {
        let worker = self
            .scheduler
            .lock()
            .unwrap()
            .register_worker(Instant::now());
        while !self.shutdown.load(Ordering::Relaxed) {
            match self.lease(worker) {
                LeaseReply::Point(index) => {
                    let span = self.stage_eval.start();
                    let evaluated = self.job.eval(index, self.store.seed(index));
                    span.finish(1);
                    let failure = match evaluated {
                        Ok(payload) => self.complete(worker, index, &payload).err(),
                        Err(error) => Some(error),
                    };
                    if let Some(error) = failure {
                        if let Err(e) = self.fail(worker, index, &error) {
                            eprintln!("sweep: recording failure for point {index} failed: {e}");
                        }
                    }
                }
                LeaseReply::Wait => std::thread::sleep(Duration::from_millis(20)),
                LeaseReply::Finished => return,
            }
        }
    }
}

/// Runs `job` to completion (or terminal failure) against `store`.
///
/// Missing points are taken from the store, so calling this on a partially
/// filled store *is* resume. Returns once every point is done or has
/// exhausted its retries.
///
/// # Errors
///
/// Fails on store I/O errors or when work is outstanding but there are no
/// local workers.
pub fn run_job(
    job: &dyn PointJob,
    store: &PointStore,
    config: CoordinatorConfig,
) -> Result<RunSummary, String> {
    let start = Instant::now();
    let missing = store.missing_indices();
    let resumed = store.num_points() - missing.len();
    if missing.is_empty() {
        let progress = Scheduler::new(Vec::new(), resumed, config.scheduler).progress(start);
        let mut snapshot = snapshot_json(&job.descriptor(), &progress, 0, 0.0);
        // Keep the status shape uniform: an already-complete run still
        // carries a (trivial) telemetry object.
        snapshot["telemetry"] = snapshot_to_json(&Registry::new(config.telemetry).snapshot());
        store.write_status(&snapshot)?;
        return Ok(RunSummary {
            computed: 0,
            resumed,
            progress,
            elapsed: start.elapsed(),
        });
    }
    if config.local_workers == 0 {
        return Err(format!(
            "{} points outstanding but no local workers",
            missing.len()
        ));
    }

    let context = RunContext::new(
        job,
        store,
        Scheduler::new(missing, resumed, config.scheduler),
        Registry::new(config.telemetry),
    );
    let context = &context;

    let run = std::thread::scope(|scope| {
        for _ in 0..config.local_workers {
            scope.spawn(move || context.local_worker());
        }
        // Progress loop doubles as the completion detector.
        let body = || -> Result<(), String> {
            let mut last_report: Option<Instant> = None;
            loop {
                let progress = context.scheduler.lock().unwrap().progress(Instant::now());
                let finished = progress.finished();
                if finished || last_report.is_none_or(|t| t.elapsed() >= config.progress_interval) {
                    context.update_progress_gauges(&progress);
                    let mut snapshot = snapshot_json(
                        &job.descriptor(),
                        &progress,
                        progress.done.saturating_sub(resumed),
                        start.elapsed().as_secs_f64(),
                    );
                    snapshot["telemetry"] = snapshot_to_json(&context.telemetry.snapshot());
                    store.write_status(&snapshot)?;
                    if !config.quiet {
                        eprintln!("{}", render_progress_line(&snapshot));
                    }
                    last_report = Some(Instant::now());
                }
                if finished {
                    return Ok(());
                }
                // Woken when a point turns terminal; the 25 ms ceiling keeps
                // the report cadence and bounds the cost of a notification
                // that lands before this wait begins.
                let scheduler = context.scheduler.lock().unwrap();
                drop(
                    context
                        .terminal
                        .wait_timeout(scheduler, Duration::from_millis(25))
                        .unwrap(),
                );
            }
        };
        let result = body();
        // Always release the worker threads, including on the error paths,
        // or the scope join would hang.
        context.shutdown.store(true, Ordering::Relaxed);
        result
    });
    run?;

    let progress = context.scheduler.lock().unwrap().progress(Instant::now());
    Ok(RunSummary {
        computed: progress.done.saturating_sub(resumed),
        resumed,
        progress,
        elapsed: start.elapsed(),
    })
}
