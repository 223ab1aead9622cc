//! # qccd-sweeprun
//!
//! Resumable sweep running on one host: a killed sweep restarts where it
//! stopped, and its merged result is bit-identical to an uninterrupted run.
//!
//! Three layers, bottom up:
//!
//! - [`store::PointStore`] — a content-hash-keyed persistent store of
//!   per-point results (key = job hash × grid index × per-point seed) with
//!   atomic temp-then-rename writes. A killed run resumes by recomputing
//!   only the missing points; because every point payload is a pure
//!   function of `(job, index, seed)`, the merged artifact is bit-identical
//!   to an uninterrupted single-process run.
//! - [`scheduler::Scheduler`] — the run's in-memory ledger: which worker
//!   thread holds which point, bounded retry with exponential backoff, and
//!   progress counters (`done/leased/pending/failed`, retries, per-worker
//!   throughput).
//! - [`coordinator::run_job`] — local worker threads that lease, evaluate
//!   and persist points until the grid is done, with a `status.json`
//!   progress snapshot.
//!
//! The crate is deliberately domain-agnostic: anything that can describe
//! itself as a [`job::PointJob`] — a fixed grid of points with
//! deterministic seeds and JSON-serializable results — can be stored,
//! scheduled and resumed. The bench crate supplies the experiment-spec
//! flavored job on top.

#![warn(missing_docs)]

pub mod coordinator;
pub mod job;
pub mod scheduler;
pub mod store;

pub use coordinator::{
    render_progress_line, render_worker_lines, run_job, snapshot_json, CoordinatorConfig,
    RunSummary,
};
pub use job::{JobDescriptor, PointJob};
pub use scheduler::{Progress, Scheduler, SchedulerConfig, WorkerView};
pub use store::{write_atomic, PointStore, StoreState};

#[cfg(test)]
mod e2e_tests {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    use serde_json::Value;

    use crate::job::testutil::MockJob;
    use crate::job::{JobDescriptor, PointJob};
    use crate::{run_job, CoordinatorConfig, PointStore, SchedulerConfig};

    fn temp_base(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sweeprun-e2e-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open_store(base: &std::path::Path, job: &MockJob) -> PointStore {
        let seeds = (0..job.num_points()).map(|i| job.point_seed(i)).collect();
        PointStore::open(base, &job.descriptor(), seeds).unwrap().0
    }

    fn fast_scheduler() -> SchedulerConfig {
        SchedulerConfig {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
        }
    }

    #[test]
    fn local_run_completes_and_resumes_with_identical_payloads() {
        let base = temp_base("local");
        let job = MockJob::new(12);

        let store = open_store(&base, &job);
        let summary = run_job(
            &job,
            &store,
            CoordinatorConfig {
                local_workers: 3,
                scheduler: fast_scheduler(),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!((summary.computed, summary.resumed), (12, 0));
        let first: Vec<Value> = (0..12)
            .map(|i| store.load_point(i).unwrap().unwrap())
            .collect();

        // Delete a few points, rerun: only those recompute, bit-identically.
        for index in [2usize, 7, 11] {
            std::fs::remove_file(
                store
                    .root()
                    .join("points")
                    .join(format!("point-{index:06}-{:016x}.json", store.seed(index))),
            )
            .unwrap();
        }
        let store = open_store(&base, &job);
        let summary = run_job(
            &job,
            &store,
            CoordinatorConfig {
                local_workers: 2,
                scheduler: fast_scheduler(),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!((summary.computed, summary.resumed), (3, 9));
        for (index, payload) in first.iter().enumerate() {
            assert_eq!(store.load_point(index).unwrap().as_ref(), Some(payload));
        }
        let status = store.read_status().unwrap();
        assert_eq!(status.get("done").and_then(Value::as_u64), Some(12));
        assert_eq!(status.get("pending").and_then(Value::as_u64), Some(0));
        // The status snapshot carries the unified telemetry object plus
        // per-worker liveness columns.
        assert!(status.get("uptime_secs").and_then(Value::as_f64).is_some());
        let telemetry = &status["telemetry"];
        assert_eq!(
            telemetry["counters"]["sweep.points_completed"].as_u64(),
            Some(3),
            "resume run computed 3 points"
        );
        assert!(telemetry["histograms"]["sweep.stage.eval_us"]["count"]
            .as_u64()
            .is_some());
        let workers = status.get("workers").and_then(Value::as_array).unwrap();
        assert_eq!(workers.len(), 2);
        for worker in workers {
            assert!(worker
                .get("ewma_points_per_sec")
                .and_then(Value::as_f64)
                .is_some());
            assert!(worker
                .get("since_heartbeat_secs")
                .and_then(Value::as_f64)
                .is_some());
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn poisoned_points_retry_then_fail_terminally() {
        let base = temp_base("poison");
        let job = MockJob {
            points: 4,
            poisoned: vec![1],
        };
        let store = open_store(&base, &job);
        let summary = run_job(
            &job,
            &store,
            CoordinatorConfig {
                local_workers: 2,
                scheduler: fast_scheduler(),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.progress.failed, 1);
        assert_eq!(summary.progress.done, 3);
        assert_eq!(summary.progress.counters.retries, 2);
        let failures = store.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 1);
        assert!(failures[0].1.contains("poisoned"));
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `MockJob` that counts `eval` calls per point and spends `slow_eval`
    /// on point `slow`.
    struct CountingJob {
        inner: MockJob,
        slow: usize,
        slow_eval: Duration,
        evals: Vec<AtomicUsize>,
    }

    impl PointJob for CountingJob {
        fn descriptor(&self) -> JobDescriptor {
            self.inner.descriptor()
        }

        fn num_points(&self) -> usize {
            self.inner.num_points()
        }

        fn point_seed(&self, index: usize) -> u64 {
            self.inner.point_seed(index)
        }

        fn eval(&self, index: usize, seed: u64) -> Result<Value, String> {
            self.evals[index].fetch_add(1, Ordering::Relaxed);
            if index == self.slow {
                std::thread::sleep(self.slow_eval);
            }
            self.inner.eval(index, seed)
        }
    }

    /// A worker keeps the point it leased until it reports on it, however
    /// long the evaluation takes, so no point is evaluated twice.
    #[test]
    fn every_missing_point_is_evaluated_exactly_once() {
        let base = temp_base("once");
        let job = CountingJob {
            inner: MockJob::new(6),
            slow: 0,
            slow_eval: Duration::from_secs(1),
            evals: (0..6).map(|_| AtomicUsize::new(0)).collect(),
        };
        let store = open_store(&base, &job.inner);
        let summary = run_job(
            &job,
            &store,
            CoordinatorConfig {
                local_workers: 2,
                scheduler: fast_scheduler(),
                ..CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!((summary.computed, summary.resumed), (6, 0));
        let evals: Vec<usize> = job
            .evals
            .iter()
            .map(|count| count.load(Ordering::Relaxed))
            .collect();
        assert_eq!(evals, vec![1; 6]);
        let _ = std::fs::remove_dir_all(&base);
    }
}
