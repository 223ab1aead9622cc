//! # qccd-sweeprun
//!
//! Resumable sweep running on one host: a killed sweep restarts where it
//! stopped, and its merged result is bit-identical to an uninterrupted run.
//!
//! Two layers, bottom up:
//!
//! - [`store::PointStore`] — a content-hash-keyed persistent store of
//!   per-point results (key = job hash × grid index × per-point seed) with
//!   atomic temp-then-rename writes. A killed run resumes by recomputing
//!   only the missing points; because every point payload is a pure
//!   function of `(job, index, seed)`, the merged artifact is bit-identical
//!   to an uninterrupted single-process run.
//! - [`coordinator::run_job`] — local worker threads that claim points
//!   in ascending grid order from one shared cursor over the store's
//!   missing indices and evaluate and persist each once. A failed point is
//!   recorded in `failed/` and stays missing, so resume is its one retry.
//!   The calling thread folds the workers' reports into [`Progress`] and a
//!   `status.json` snapshot.
//!
//! The crate is deliberately domain-agnostic: anything that can describe
//! itself as a [`job::PointJob`] — a fixed grid of points with
//! deterministic seeds and JSON-serializable results — can be stored,
//! run and resumed. The bench crate supplies the experiment-spec
//! flavored job on top.

#![warn(missing_docs)]

pub mod coordinator;
pub mod job;
pub mod store;

pub use coordinator::{
    render_progress_line, render_worker_lines, run_job, snapshot_json, CoordinatorConfig, Progress,
    RunSummary,
};
pub use job::{JobDescriptor, PointJob};
pub use store::{write_atomic, PointStore, StoreState};

#[cfg(test)]
mod e2e_tests {
    use std::path::PathBuf;
    use std::sync::Mutex;
    use std::time::Duration;

    use serde_json::Value;

    use crate::job::testutil::MockJob;
    use crate::job::{JobDescriptor, PointJob};
    use crate::{run_job, CoordinatorConfig, PointStore};

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

    fn workers(local_workers: usize) -> CoordinatorConfig {
        CoordinatorConfig {
            local_workers,
            ..CoordinatorConfig::default()
        }
    }

    #[test]
    fn local_run_completes_and_resumes_with_identical_payloads() {
        let base = temp_base("local");
        let job = MockJob::new(12);

        let store = open_store(&base, &job);
        let summary = run_job(&job, &store, workers(3)).unwrap();
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
        let summary = run_job(&job, &store, workers(2)).unwrap();
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

    /// `MockJob` that records the order of its `eval` calls, spends
    /// `slow_eval` on point `slow` and panics on point `panics`.
    struct CountingJob {
        inner: MockJob,
        slow: Option<usize>,
        slow_eval: Duration,
        panics: Option<usize>,
        order: Mutex<Vec<usize>>,
    }

    impl CountingJob {
        fn new(points: usize) -> Self {
            CountingJob {
                inner: MockJob::new(points),
                slow: None,
                slow_eval: Duration::ZERO,
                panics: None,
                order: Mutex::new(Vec::new()),
            }
        }

        fn evaluated(&self) -> Vec<usize> {
            self.order.lock().unwrap().clone()
        }
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
            self.order.lock().unwrap().push(index);
            if self.slow == Some(index) {
                std::thread::sleep(self.slow_eval);
            }
            if self.panics == Some(index) {
                panic!("eval blew up on point {index}");
            }
            self.inner.eval(index, seed)
        }
    }

    /// A worker keeps the point it claimed until it reports on it, however
    /// long the evaluation takes, so no point is evaluated twice.
    #[test]
    fn every_missing_point_is_evaluated_exactly_once() {
        let base = temp_base("once");
        let job = CountingJob {
            slow: Some(0),
            slow_eval: Duration::from_secs(1),
            ..CountingJob::new(6)
        };
        let store = open_store(&base, &job.inner);
        let summary = run_job(&job, &store, workers(2)).unwrap();
        assert_eq!((summary.computed, summary.resumed), (6, 0));
        let mut evaluated = job.evaluated();
        evaluated.sort_unstable();
        assert_eq!(evaluated, (0..6).collect::<Vec<_>>());
        let _ = std::fs::remove_dir_all(&base);
    }

    /// One worker over a partially filled store claims exactly the missing
    /// points, in ascending grid order.
    #[test]
    fn claims_follow_ascending_grid_order_after_partial_resume() {
        let base = temp_base("order");
        let job = CountingJob::new(8);
        let store = open_store(&base, &job.inner);
        for index in [0, 2, 3, 7] {
            let payload = job.inner.eval(index, store.seed(index)).unwrap();
            store.store_point(index, &payload).unwrap();
        }
        let store = open_store(&base, &job.inner);
        let summary = run_job(&job, &store, workers(1)).unwrap();
        assert_eq!(job.evaluated(), vec![1, 4, 5, 6]);
        assert_eq!((summary.computed, summary.resumed), (4, 4));
        assert_eq!((summary.progress.done, summary.progress.total()), (8, 8));
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A poisoned point is evaluated once and recorded under `failed/` with
    /// its message while every other point completes; it stays missing.
    #[test]
    fn a_failed_point_is_evaluated_once_and_recorded() {
        let base = temp_base("fail-once");
        let job = CountingJob {
            inner: MockJob {
                points: 4,
                poisoned: vec![1],
            },
            ..CountingJob::new(4)
        };
        let store = open_store(&base, &job.inner);
        let summary = run_job(&job, &store, workers(2)).unwrap();
        let mut evaluated = job.evaluated();
        evaluated.sort_unstable();
        assert_eq!(evaluated, (0..4).collect::<Vec<_>>(), "no point is retried");
        assert_eq!((summary.progress.failed, summary.progress.done), (1, 3));
        let failures = store.failures();
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 1);
        assert!(failures[0].1.contains("poisoned"), "{}", failures[0].1);
        assert_eq!(store.missing_indices(), vec![1]);
        let _ = std::fs::remove_dir_all(&base);
    }

    /// After a run whose poisoned point failed, a `MockJob` without the
    /// poison resumes the store and computes exactly that point, and the
    /// store holds an uninterrupted run's payloads.
    #[test]
    fn a_failed_point_is_computed_by_resume() {
        let base = temp_base("fail-resume");
        let poisoned = MockJob {
            points: 4,
            poisoned: vec![1],
        };
        let store = open_store(&base, &poisoned);
        let summary = run_job(&poisoned, &store, workers(2)).unwrap();
        assert_eq!((summary.progress.failed, summary.progress.done), (1, 3));

        let cured = MockJob::new(4);
        let store = open_store(&base, &cured);
        let summary = run_job(&cured, &store, workers(2)).unwrap();
        assert_eq!((summary.computed, summary.resumed), (1, 3));
        assert_eq!(summary.progress.failed, 0);
        assert!(store.failures().is_empty());
        let reference_base = temp_base("fail-resume-reference");
        let reference = open_store(&reference_base, &cured);
        run_job(&cured, &reference, workers(1)).unwrap();
        for index in 0..4 {
            assert_eq!(
                store.load_point(index).unwrap(),
                reference.load_point(index).unwrap(),
                "point {index}"
            );
        }
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_dir_all(&reference_base);
    }

    /// A panicking `eval` fails its point like an `Err`: the point is
    /// recorded with the panic message, and the run still ends.
    #[test]
    fn panicking_eval_fails_the_point_instead_of_hanging_the_run() {
        let base = temp_base("panic");
        let (done, finished) = std::sync::mpsc::channel();
        let runner_base = base.clone();
        std::thread::spawn(move || {
            let job = CountingJob {
                panics: Some(2),
                ..CountingJob::new(4)
            };
            let store = open_store(&runner_base, &job.inner);
            let summary = run_job(&job, &store, workers(2));
            let _ = done.send((summary, store.failures()));
        });
        let (summary, failures) = finished
            .recv_timeout(Duration::from_secs(10))
            .expect("run_job returns despite a panicking eval");
        let summary = summary.unwrap();
        assert_eq!((summary.progress.failed, summary.progress.done), (1, 3));
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].0, 2);
        assert!(
            failures[0].1.contains("eval blew up on point 2"),
            "{}",
            failures[0].1
        );
        let _ = std::fs::remove_dir_all(&base);
    }
}
