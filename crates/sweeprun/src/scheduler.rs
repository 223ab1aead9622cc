//! Point scheduler: the run's in-memory ledger of which point each local
//! worker holds.
//!
//! The ledger lives only in memory — a killed run loses it, which is safe
//! because on resume every point without a finished file in the
//! [store](crate::store::PointStore) simply starts over as pending.
//!
//! Every point is evaluated once per attempt: a leased point stays with its
//! worker thread until that thread reports it done or failed. An evaluation
//! error *retries* with exponential backoff until the bounded attempt budget
//! is spent, then the point goes terminally `Failed`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Tuning knobs for retry behaviour.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Total evaluation attempts per point before it is terminally failed.
    pub max_attempts: u32,
    /// First retry delay; doubles per subsequent retry of the same point.
    pub backoff_base: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_attempts: 3,
            backoff_base: Duration::from_millis(250),
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum PointState {
    /// Eligible once `not_before` passes (backoff gate; `None` = now).
    Pending {
        not_before: Option<Instant>,
    },
    Leased,
    Done,
    Failed,
}

/// What the scheduler tells a worker asking for work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseReply {
    /// Evaluate this grid index.
    Point(usize),
    /// Nothing assignable right now (points leased out or backing off) —
    /// ask again shortly.
    Wait,
    /// Every point is done or terminally failed; the worker can exit.
    Finished,
}

/// Outcome of reporting an evaluation failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailReply {
    /// The point will be retried after backoff.
    Retry,
    /// The attempt budget is spent; the point is terminally failed.
    Exhausted,
}

/// Monotonic event counters surfaced in `artifacts sweep status`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerCounters {
    /// Always 0: nothing requeues a point any more. Kept only because the
    /// frozen benchmark package reads it — delete with the next benchmark
    /// PR.
    #[doc(hidden)]
    pub requeues: u64,
    /// Evaluation failures that were handed back out for another attempt.
    pub retries: u64,
}

/// Time constant of the per-worker completion-rate EWMA: contributions
/// decay with `exp(-age / 30 s)`, so the estimate tracks the last
/// half-minute of work instead of the whole run.
const EWMA_TAU_SECS: f64 = 30.0;

/// Live statistics of one registered worker.
#[derive(Debug, Clone, Copy)]
struct WorkerStats {
    completed: u64,
    /// Time-decayed completions/sec estimate (see [`EWMA_TAU_SECS`]).
    ewma_points_per_sec: f64,
    /// Previous completion instant (rate-sample baseline).
    last_complete: Option<Instant>,
    /// Last lease, completion or failure report.
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

/// One worker's row in a [`Progress`] snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerView {
    /// Run-assigned worker id.
    pub worker: u64,
    /// Points this worker completed.
    pub completed: u64,
    /// Time-decayed completion rate (points/sec; 0 until the second
    /// completion).
    pub ewma_points_per_sec: f64,
    /// Seconds since the worker last leased, completed or failed a point.
    pub since_last_seen_secs: f64,
}

/// Aggregate progress at one instant.
#[derive(Debug, Clone, Default)]
pub struct Progress {
    /// Finished points (includes those already on disk before this run).
    pub done: usize,
    /// Points a worker is evaluating.
    pub leased: usize,
    /// Points waiting for a worker (including backoff waits).
    pub pending: usize,
    /// Terminally failed points.
    pub failed: usize,
    /// Event counters.
    pub counters: SchedulerCounters,
    /// Completions per worker id, for per-worker throughput.
    pub per_worker: Vec<(u64, u64)>,
    /// Per-worker live statistics (EWMA throughput, last-seen age), one row
    /// per registered worker in id order.
    pub workers: Vec<WorkerView>,
}

impl Progress {
    /// Grid size this progress describes.
    pub fn total(&self) -> usize {
        self.done + self.leased + self.pending + self.failed
    }

    /// True once no point can make further progress.
    pub fn finished(&self) -> bool {
        self.leased == 0 && self.pending == 0
    }
}

/// The run's ledger over one job's missing points.
#[derive(Debug)]
pub struct Scheduler {
    config: SchedulerConfig,
    /// State per *missing* grid index; already-done points are only the
    /// `done_offset`.
    states: HashMap<usize, PointState>,
    /// Assignment order: ascending grid index for reproducible scheduling.
    order: Vec<usize>,
    attempts: HashMap<usize, u32>,
    counters: SchedulerCounters,
    workers: HashMap<u64, WorkerStats>,
    /// Points already finished before this run (resume credit).
    done_offset: usize,
    next_worker_id: u64,
}

impl Scheduler {
    /// Builds a scheduler over the still-missing grid indices; `done_offset`
    /// is how many points an earlier run already finished.
    pub fn new(missing: Vec<usize>, done_offset: usize, config: SchedulerConfig) -> Self {
        let mut order = missing;
        order.sort_unstable();
        let states = order
            .iter()
            .map(|&index| (index, PointState::Pending { not_before: None }))
            .collect();
        Scheduler {
            config,
            states,
            order,
            attempts: HashMap::new(),
            counters: SchedulerCounters::default(),
            workers: HashMap::new(),
            done_offset,
            next_worker_id: 0,
        }
    }

    /// Hands out a fresh worker id.
    pub fn register_worker(&mut self, now: Instant) -> u64 {
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        self.workers.insert(id, WorkerStats::new(now));
        id
    }

    /// Records that `worker` was seen at `now`.
    fn touch(&mut self, worker: u64, now: Instant) -> &mut WorkerStats {
        let stats = self
            .workers
            .entry(worker)
            .or_insert_with(|| WorkerStats::new(now));
        stats.last_seen = now;
        stats
    }

    /// Assigns the lowest eligible pending index to `worker`.
    pub fn lease(&mut self, worker: u64, now: Instant) -> LeaseReply {
        self.touch(worker, now);
        let mut saw_wait = false;
        for &index in &self.order {
            match &self.states[&index] {
                PointState::Pending { not_before } => {
                    if not_before.is_none_or(|t| t <= now) {
                        self.states.insert(index, PointState::Leased);
                        return LeaseReply::Point(index);
                    }
                    saw_wait = true;
                }
                PointState::Leased => saw_wait = true,
                PointState::Done | PointState::Failed => {}
            }
        }
        if saw_wait {
            LeaseReply::Wait
        } else {
            LeaseReply::Finished
        }
    }

    /// Marks the leased point `index` done by `worker`. Returns `false`,
    /// changing nothing, if `index` is not leased.
    pub fn complete(&mut self, index: usize, worker: u64, now: Instant) -> bool {
        if self.states.get(&index) != Some(&PointState::Leased) {
            return false;
        }
        self.states.insert(index, PointState::Done);
        self.touch(worker, now).note_complete(now);
        true
    }

    /// Records an evaluation failure of the leased point `index`; retries
    /// with exponential backoff until `max_attempts` is spent.
    ///
    /// # Panics
    ///
    /// If `index` is not leased: only the worker holding a point reports
    /// on it.
    pub fn fail(&mut self, index: usize, worker: u64, now: Instant) -> FailReply {
        assert_eq!(
            self.states.get(&index),
            Some(&PointState::Leased),
            "point {index} failed without being leased"
        );
        self.touch(worker, now);
        let attempts = self.attempts.entry(index).or_insert(0);
        *attempts += 1;
        if *attempts >= self.config.max_attempts {
            self.states.insert(index, PointState::Failed);
            return FailReply::Exhausted;
        }
        let exponent = attempts.saturating_sub(1).min(16);
        let delay = self.config.backoff_base * 2u32.pow(exponent);
        self.states.insert(
            index,
            PointState::Pending {
                not_before: Some(now + delay),
            },
        );
        self.counters.retries += 1;
        FailReply::Retry
    }

    /// Attempts already charged to `index`.
    pub fn attempts(&self, index: usize) -> u32 {
        self.attempts.get(&index).copied().unwrap_or(0)
    }

    /// Progress at `now`.
    pub fn progress(&self, now: Instant) -> Progress {
        let mut progress = Progress {
            done: self.done_offset,
            ..Progress::default()
        };
        for state in self.states.values() {
            match state {
                PointState::Pending { .. } => progress.pending += 1,
                PointState::Leased => progress.leased += 1,
                PointState::Done => progress.done += 1,
                PointState::Failed => progress.failed += 1,
            }
        }
        progress.counters = self.counters;
        let mut workers: Vec<WorkerView> = self
            .workers
            .iter()
            .map(|(&worker, stats)| WorkerView {
                worker,
                completed: stats.completed,
                ewma_points_per_sec: stats.ewma_points_per_sec,
                since_last_seen_secs: now.saturating_duration_since(stats.last_seen).as_secs_f64(),
            })
            .collect();
        workers.sort_unstable_by_key(|view| view.worker);
        progress.per_worker = workers
            .iter()
            .map(|view| (view.worker, view.completed))
            .collect();
        progress.workers = workers;
        progress
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(attempts: u32, backoff_ms: u64) -> SchedulerConfig {
        SchedulerConfig {
            max_attempts: attempts,
            backoff_base: Duration::from_millis(backoff_ms),
        }
    }

    #[test]
    fn leases_in_index_order_and_finishes() {
        let mut s = Scheduler::new(vec![2, 0, 7], 5, config(3, 10));
        let now = Instant::now();
        let w = s.register_worker(now);
        assert_eq!(s.lease(w, now), LeaseReply::Point(0));
        assert_eq!(s.lease(w, now), LeaseReply::Point(2));
        assert_eq!(s.lease(w, now), LeaseReply::Point(7));
        assert_eq!(s.lease(w, now), LeaseReply::Wait);
        for index in [0, 2, 7] {
            assert!(s.complete(index, w, now));
        }
        assert_eq!(s.lease(w, now), LeaseReply::Finished);
        let progress = s.progress(now);
        assert_eq!((progress.done, progress.total()), (8, 8));
        assert!(progress.finished());
        assert_eq!(progress.per_worker, vec![(w, 3)]);
    }

    #[test]
    fn bounded_retry_with_backoff_then_terminal_failure() {
        let mut s = Scheduler::new(vec![0], 0, config(3, 20));
        let t0 = Instant::now();
        let w = s.register_worker(t0);
        assert_eq!(s.lease(w, t0), LeaseReply::Point(0));
        assert_eq!(s.fail(0, w, t0), FailReply::Retry);
        // Backing off: not assignable immediately, assignable after the delay.
        assert_eq!(s.lease(w, t0), LeaseReply::Wait);
        let t1 = t0 + Duration::from_millis(25);
        assert_eq!(s.lease(w, t1), LeaseReply::Point(0));
        assert_eq!(s.fail(0, w, t1), FailReply::Retry);
        // Second backoff doubles: 40ms now.
        assert_eq!(s.lease(w, t1 + Duration::from_millis(25)), LeaseReply::Wait);
        let t2 = t1 + Duration::from_millis(50);
        assert_eq!(s.lease(w, t2), LeaseReply::Point(0));
        assert_eq!(s.fail(0, w, t2), FailReply::Exhausted);
        assert_eq!(s.lease(w, t2), LeaseReply::Finished);
        let progress = s.progress(t2);
        assert_eq!((progress.failed, progress.done), (1, 0));
        assert_eq!(progress.counters.retries, 2);
        assert_eq!(s.attempts(0), 3);
    }

    #[test]
    fn worker_views_track_ewma_throughput_and_heartbeat_age() {
        let mut s = Scheduler::new((0..40).collect(), 0, config(3, 10));
        let t0 = Instant::now();
        let w1 = s.register_worker(t0);
        let w2 = s.register_worker(t0);
        // w1 completes one point per second for 20 seconds; w2 goes silent
        // after registering.
        let mut last = t0;
        for i in 0..20u64 {
            let now = t0 + Duration::from_secs(i);
            let LeaseReply::Point(index) = s.lease(w1, now) else {
                panic!("expected a point");
            };
            last = now + Duration::from_secs(1);
            assert!(s.complete(index, w1, last));
        }
        let progress = s.progress(last + Duration::from_secs(5));
        assert_eq!(progress.per_worker, vec![(w1, 20), (w2, 0)]);
        let [v1, v2] = progress.workers[..] else {
            panic!("expected two worker views");
        };
        assert_eq!((v1.worker, v1.completed), (w1, 20));
        // Steady 1 pt/s sampled 19 times with τ=30 s: the EWMA has converged
        // to 1 − exp(−19/30) ≈ 0.469 of the true rate and can never exceed
        // it.
        assert!(
            v1.ewma_points_per_sec > 0.4 && v1.ewma_points_per_sec < 1.0,
            "ewma {} out of range",
            v1.ewma_points_per_sec
        );
        // w1 was last seen at its final completion, 5 s before the snapshot;
        // w2 has been silent since registration (20 s of leases + 1 s of the
        // last completion + the 5 s gap).
        assert!((v1.since_last_seen_secs - 5.0).abs() < 1e-6);
        assert_eq!((v2.worker, v2.completed), (w2, 0));
        assert_eq!(v2.ewma_points_per_sec, 0.0);
        assert!((v2.since_last_seen_secs - 25.0).abs() < 1e-6);
    }
}
