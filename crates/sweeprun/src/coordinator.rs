//! The coordinator: drives one job to completion over the point store.
//!
//! A run owns the [`Scheduler`] and the [`PointStore`] and feeds points to
//! two kinds of workers at once:
//!
//! - **local worker threads** (in-process), for the plain `sweep run` path;
//! - **remote workers** over TCP JSON-lines (see the protocol below), for
//!   the distributed path.
//!
//! Completion ordering is persist-then-acknowledge: a point's file is
//! written (atomically) *before* the scheduler marks it done, so a crash in
//! between merely leaves the point pending — it is recomputed, never lost
//! half-recorded.
//!
//! # Wire protocol (one JSON request line → one JSON response line)
//!
//! | request | response |
//! |---|---|
//! | `{"cmd":"hello","proto":1}` | `{"ok":true,"worker_id":W,"lease_timeout_ms":T,"job":<descriptor>}` |
//! | `{"cmd":"lease","worker_id":W}` | `{"point":{"index":I,"seed":S}}` · `{"wait_ms":M}` · `{"finished":true}` |
//! | `{"cmd":"complete","worker_id":W,"index":I,"payload":P}` | `{"ok":true,"duplicate":B}` |
//! | `{"cmd":"fail","worker_id":W,"index":I,"error":E}` | `{"ok":true,"disposition":"retry"\|"exhausted"\|"stale"}` |
//! | `{"cmd":"heartbeat","worker_id":W}` | `{"ok":true}` |
//! | `{"cmd":"status"}` | the same snapshot as `status.json` (incl. a `telemetry` object) |
//! | `{"cmd":"status","format":"text"}` | `{"ok":true,"text":<Prometheus-style exposition>}` |
//!
//! Any error is `{"error":"..."}`. Heartbeats may arrive on a second
//! connection so long evaluations don't starve the liveness signal.

use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use qccd_telemetry::{
    snapshot_to_json, snapshot_to_text, Counter, Registry, Stage, TelemetryConfig,
};
use serde_json::Value;

use crate::job::{JobDescriptor, PointJob};
use crate::net::JsonLines;
use crate::scheduler::{
    CompleteReply, FailReply, LeaseReply, Progress, Scheduler, SchedulerConfig,
};
use crate::store::PointStore;

/// Protocol version spoken by [`run_job`] and `run_worker`.
pub const PROTOCOL_VERSION: u64 = 1;

/// How long a worker told to wait should sleep before re-asking.
const WAIT_MS: u64 = 100;

/// Configuration for one coordinator run.
pub struct CoordinatorConfig {
    /// Pre-bound listener for remote workers (`None` = local-only run).
    /// Pre-binding lets callers use port 0 and learn the real address
    /// before workers start.
    pub listener: Option<TcpListener>,
    /// In-process evaluation threads.
    pub local_workers: usize,
    /// Lease/retry tuning.
    pub scheduler: SchedulerConfig,
    /// How often to reprint progress and rewrite `status.json`.
    pub progress_interval: Duration,
    /// Suppress the live progress line on stderr.
    pub quiet: bool,
    /// Telemetry registry configuration for this run (stage timings, point
    /// counters; exposed through `status.json` and the `status` command).
    pub telemetry: TelemetryConfig,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            listener: None,
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
    /// Final progress (includes requeue/retry/duplicate counters).
    pub progress: Progress,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Renders the canonical status snapshot — the shape written to
/// `status.json`, served for `{"cmd":"status"}`, and printed by
/// `artifacts sweep status`.
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
        "requeues": progress.counters.requeues,
        "retries": progress.counters.retries,
        "duplicates": progress.counters.duplicates,
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
        "sweep: {}/{} done, {} leased, {} pending, {} failed | {:.2} pts/s, ETA {:.0}s, up {:.0}s | requeues {}, retries {}, duplicates {}",
        get("done"),
        get("total"),
        get("leased"),
        get("pending"),
        get("failed"),
        rate,
        eta,
        uptime,
        get("requeues"),
        get("retries"),
        get("duplicates"),
    )
}

/// Per-worker rendering of a snapshot's `workers` array — one line per
/// worker with completions, EWMA throughput and heartbeat age. Empty when
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
                     heartbeat {age:.1}s ago"
                ),
                None => format!("  worker {id}: {completed} done"),
            }
        })
        .collect()
}

/// Everything a connection handler or local worker needs, borrowed for the
/// duration of one run.
struct RunContext<'a> {
    job: &'a dyn PointJob,
    store: &'a PointStore,
    scheduler: Mutex<Scheduler>,
    /// Notified (with `scheduler`) whenever a point becomes terminal, so
    /// [`run_job`] learns of the last one without waiting out its poll.
    terminal: Condvar,
    shutdown: AtomicBool,
    lease_timeout_ms: u64,
    /// Points already on disk when the run started (resume credit).
    resumed: usize,
    start: Instant,
    /// Unified telemetry for this run: stage timings plus point counters,
    /// exposed through `status.json` and the `status` command.
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
        lease_timeout_ms: u64,
        resumed: usize,
        start: Instant,
        telemetry: Registry,
    ) -> Self {
        RunContext {
            job,
            store,
            scheduler: Mutex::new(scheduler),
            terminal: Condvar::new(),
            shutdown: AtomicBool::new(false),
            lease_timeout_ms,
            resumed,
            start,
            stage_lease: telemetry.stage("sweep.stage.lease"),
            stage_eval: telemetry.stage("sweep.stage.eval"),
            stage_persist: telemetry.stage("sweep.stage.persist"),
            points_completed: telemetry.counter("sweep.points_completed"),
            eval_failures: telemetry.counter("sweep.eval_failures"),
            telemetry,
        }
    }

    /// Mirrors the progress split into registry gauges so the unified
    /// snapshot (JSON and text exposition) carries it.
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
    /// leaves it pending, and a redundant write of a duplicate is
    /// byte-identical and therefore harmless.
    fn complete(
        &self,
        worker: u64,
        index: usize,
        payload: &Value,
    ) -> Result<CompleteReply, String> {
        let span = self.stage_persist.start();
        let stored = self.store.store_point(index, payload);
        span.finish(1);
        stored?;
        let reply = self
            .scheduler
            .lock()
            .unwrap()
            .complete(index, worker, Instant::now());
        if reply == CompleteReply::Accepted {
            self.points_completed.inc();
            self.terminal.notify_one();
        }
        Ok(reply)
    }

    /// Reports a failed evaluation; an exhausted point is recorded in the
    /// store's `failed/` directory.
    fn fail(&self, worker: u64, index: usize, error: &str) -> Result<FailReply, String> {
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
        Ok(reply)
    }

    /// A local in-process worker: lease → eval → persist → complete.
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

    /// Serves one remote connection until EOF, error, or shutdown.
    fn serve_connection(&self, stream: std::net::TcpStream) {
        let mut lines = match JsonLines::new(stream) {
            Ok(lines) => lines,
            Err(e) => {
                eprintln!("sweep: connection setup failed: {e}");
                return;
            }
        };
        loop {
            let request = match lines.recv(&self.shutdown) {
                Ok(Some(request)) => request,
                Ok(None) => return,
                Err(e) => {
                    let _ = lines.send(&serde_json::json!({ "error": e }));
                    return;
                }
            };
            if lines.send(&self.handle_request(&request)).is_err() {
                return;
            }
        }
    }

    fn handle_request(&self, request: &Value) -> Value {
        let err = |message: String| serde_json::json!({ "error": message });
        let Some(cmd) = request.get("cmd").and_then(Value::as_str) else {
            return err("request needs a string `cmd`".to_string());
        };
        let worker_id = || -> Result<u64, Value> {
            request
                .get("worker_id")
                .and_then(Value::as_u64)
                .ok_or_else(|| err(format!("`{cmd}` needs a numeric `worker_id`")))
        };
        let point_index = || -> Result<usize, Value> {
            let index = request
                .get("index")
                .and_then(Value::as_u64)
                .ok_or_else(|| err(format!("`{cmd}` needs a numeric `index`")))?
                as usize;
            if index >= self.store.num_points() {
                return Err(err(format!(
                    "index {index} out of range for {} points",
                    self.store.num_points()
                )));
            }
            Ok(index)
        };
        match cmd {
            "hello" => {
                if request.get("proto").and_then(Value::as_u64) != Some(PROTOCOL_VERSION) {
                    return err(format!("unsupported protocol; want {PROTOCOL_VERSION}"));
                }
                let worker = self
                    .scheduler
                    .lock()
                    .unwrap()
                    .register_worker(Instant::now());
                serde_json::json!({
                    "ok": true,
                    "worker_id": worker,
                    "lease_timeout_ms": self.lease_timeout_ms,
                    "job": self.job.descriptor().to_json(),
                })
            }
            "lease" => {
                let worker = match worker_id() {
                    Ok(worker) => worker,
                    Err(response) => return response,
                };
                match self.lease(worker) {
                    LeaseReply::Point(index) => serde_json::json!({
                        "point": {
                            "index": index as u64,
                            "seed": Value::from(self.store.seed(index)),
                        }
                    }),
                    LeaseReply::Wait => serde_json::json!({ "wait_ms": WAIT_MS }),
                    LeaseReply::Finished => serde_json::json!({ "finished": true }),
                }
            }
            "complete" => {
                let worker = match worker_id() {
                    Ok(worker) => worker,
                    Err(response) => return response,
                };
                let index = match point_index() {
                    Ok(index) => index,
                    Err(response) => return response,
                };
                let Some(payload) = request.get("payload") else {
                    return err("`complete` needs a `payload`".to_string());
                };
                match self.complete(worker, index, payload) {
                    Ok(reply) => serde_json::json!({
                        "ok": true,
                        "duplicate": reply == CompleteReply::Duplicate,
                    }),
                    Err(e) => err(e),
                }
            }
            "fail" => {
                let worker = match worker_id() {
                    Ok(worker) => worker,
                    Err(response) => return response,
                };
                let index = match point_index() {
                    Ok(index) => index,
                    Err(response) => return response,
                };
                let error = request
                    .get("error")
                    .and_then(Value::as_str)
                    .unwrap_or("unspecified worker error");
                let disposition = match self.fail(worker, index, error) {
                    Ok(FailReply::Retry) => "retry",
                    Ok(FailReply::Exhausted) => "exhausted",
                    Ok(FailReply::Stale) => "stale",
                    Err(e) => return err(e),
                };
                serde_json::json!({ "ok": true, "disposition": disposition })
            }
            "heartbeat" => {
                let worker = match worker_id() {
                    Ok(worker) => worker,
                    Err(response) => return response,
                };
                self.scheduler
                    .lock()
                    .unwrap()
                    .heartbeat(worker, Instant::now());
                serde_json::json!({ "ok": true })
            }
            "status" => {
                let progress = self.scheduler.lock().unwrap().progress(Instant::now());
                let computed = progress.done.saturating_sub(self.resumed);
                self.update_progress_gauges(&progress);
                if request.get("format").and_then(Value::as_str) == Some("text") {
                    // Prometheus-style text exposition of the unified
                    // registry, mirroring the service's `metrics` command.
                    let text = snapshot_to_text(&self.telemetry.snapshot(), "qccd_sweep");
                    return serde_json::json!({ "ok": true, "text": text });
                }
                let mut snapshot = snapshot_json(
                    &self.job.descriptor(),
                    &progress,
                    computed,
                    self.start.elapsed().as_secs_f64(),
                );
                snapshot["telemetry"] = snapshot_to_json(&self.telemetry.snapshot());
                snapshot
            }
            other => err(format!("unknown command `{other}`")),
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
/// Fails on store I/O errors or a configuration that can make no progress
/// (work outstanding but no local workers and no listener).
pub fn run_job(
    job: &dyn PointJob,
    store: &PointStore,
    config: CoordinatorConfig,
) -> Result<RunSummary, String> {
    let start = Instant::now();
    let missing = store.missing_indices();
    let resumed = store.num_points() - missing.len();
    if missing.is_empty() {
        let mut scheduler = Scheduler::new(Vec::new(), resumed, config.scheduler);
        let progress = scheduler.progress(Instant::now());
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
    if config.local_workers == 0 && config.listener.is_none() {
        return Err(format!(
            "{} points outstanding but no local workers and no listener",
            missing.len()
        ));
    }

    let context = RunContext::new(
        job,
        store,
        Scheduler::new(missing, resumed, config.scheduler),
        config.scheduler.lease_timeout.as_millis() as u64,
        resumed,
        start,
        Registry::new(config.telemetry),
    );
    let context = &context;

    let run = std::thread::scope(|scope| {
        let body = || -> Result<(), String> {
            for _ in 0..config.local_workers {
                scope.spawn(move || context.local_worker());
            }
            if let Some(listener) = &config.listener {
                listener
                    .set_nonblocking(true)
                    .map_err(|e| format!("listener nonblocking: {e}"))?;
                scope.spawn(move || {
                    while !context.shutdown.load(Ordering::Relaxed) {
                        match listener.accept() {
                            Ok((stream, _addr)) => {
                                scope.spawn(move || context.serve_connection(stream));
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            Err(e) => {
                                eprintln!("sweep: accept failed: {e}");
                                std::thread::sleep(Duration::from_millis(50));
                            }
                        }
                    }
                });
            }

            // Progress loop doubles as the completion detector.
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
                // lease reaping and the report cadence, and bounds the cost
                // of a notification that lands before this wait begins.
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
        // Always release the worker/acceptor/handler threads, including on
        // the error paths, or the scope join would hang.
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
