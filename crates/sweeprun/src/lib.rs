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
//! - [`coordinator::run_job`] — evaluates the store's missing points on
//!   the calling thread, in ascending grid order, and persists each once.
//!   A failed point is recorded in `failed/` and stays missing, so resume
//!   is its one retry. The run keeps a [`Progress`] and a `status.json`
//!   snapshot.
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

pub use coordinator::{render_progress_line, run_job, CoordinatorConfig, Progress, RunSummary};
pub use job::{JobDescriptor, PointJob};
pub use store::{write_atomic, PointStore, StoreState};

#[cfg(test)]
mod e2e_tests {
    use std::cell::RefCell;
    use std::path::PathBuf;
    use std::thread::ThreadId;
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

    #[test]
    fn local_run_completes_and_resumes_with_identical_payloads() {
        let base = temp_base("local");
        let job = MockJob::new(12);

        let store = open_store(&base, &job);
        let summary = run_job(&job, &store, CoordinatorConfig::default()).unwrap();
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
        let summary = run_job(&job, &store, CoordinatorConfig::default()).unwrap();
        assert_eq!((summary.computed, summary.resumed), (3, 9));
        for (index, payload) in first.iter().enumerate() {
            assert_eq!(store.load_point(index).unwrap().as_ref(), Some(payload));
        }
        let status = store.read_status().unwrap();
        assert_eq!(status.get("done").and_then(Value::as_u64), Some(12));
        assert_eq!(status.get("pending").and_then(Value::as_u64), Some(0));
        // The status snapshot carries the unified telemetry object.
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
        assert!(status.get("workers").is_none() && status.get("leased").is_none());
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `MockJob` that records the order of its `eval` calls and the thread
    /// of each, and panics on point `panics`.
    struct CountingJob {
        inner: MockJob,
        panics: Option<usize>,
        order: RefCell<Vec<(usize, ThreadId)>>,
    }

    impl CountingJob {
        fn new(points: usize) -> Self {
            CountingJob {
                inner: MockJob::new(points),
                panics: None,
                order: RefCell::default(),
            }
        }

        fn evaluated(&self) -> Vec<usize> {
            self.order
                .borrow()
                .iter()
                .map(|&(index, _)| index)
                .collect()
        }

        fn threads(&self) -> Vec<ThreadId> {
            self.order.borrow().iter().map(|&(_, id)| id).collect()
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
            let thread = std::thread::current().id();
            self.order.borrow_mut().push((index, thread));
            if self.panics == Some(index) {
                panic!("eval blew up on point {index}");
            }
            self.inner.eval(index, seed)
        }
    }

    /// A run over a partially filled store evaluates exactly the missing
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
        let summary = run_job(&job, &store, CoordinatorConfig::default()).unwrap();
        assert_eq!(job.evaluated(), vec![1, 4, 5, 6]);
        assert_eq!((summary.computed, summary.resumed), (4, 4));
        assert_eq!((summary.progress.done, summary.progress.total()), (8, 8));
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `run_job` evaluates a partially filled store's missing points itself:
    /// each once, in ascending grid order, on the calling thread.
    #[test]
    fn missing_points_are_evaluated_in_grid_order_on_the_calling_thread() {
        let base = temp_base("caller");
        let job = CountingJob::new(8);
        let store = open_store(&base, &job.inner);
        for index in [0, 2, 3, 7] {
            let payload = job.inner.eval(index, store.seed(index)).unwrap();
            store.store_point(index, &payload).unwrap();
        }
        let store = open_store(&base, &job.inner);
        run_job(&job, &store, CoordinatorConfig::default()).unwrap();
        assert_eq!(job.evaluated(), vec![1, 4, 5, 6]);
        assert_eq!(job.threads(), vec![std::thread::current().id(); 4]);
        let _ = std::fs::remove_dir_all(&base);
    }

    /// `MockJob` that reads `status.json` before each `eval`.
    struct StatusReadingJob {
        inner: MockJob,
        status: PathBuf,
        seen: RefCell<Vec<Value>>,
    }

    impl StatusReadingJob {
        fn new(inner: MockJob, store: &PointStore) -> Self {
            StatusReadingJob {
                inner,
                status: store.root().join("status.json"),
                seen: RefCell::default(),
            }
        }
    }

    impl PointJob for StatusReadingJob {
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
            let text = std::fs::read_to_string(&self.status).unwrap();
            self.seen
                .borrow_mut()
                .push(serde_json::from_str(&text).unwrap());
            self.inner.eval(index, seed)
        }
    }

    /// Every span of a default run is timed: the final `status.json` holds
    /// one `eval` and one `persist` duration per computed point.
    #[test]
    fn a_default_run_times_every_point() {
        let base = temp_base("timed");
        let job = MockJob::new(20);
        let store = open_store(&base, &job);
        let summary = run_job(&job, &store, CoordinatorConfig::default()).unwrap();
        assert_eq!(summary.computed, 20);
        let histograms = &store.read_status().unwrap()["telemetry"]["histograms"];
        for stage in ["sweep.stage.eval_us", "sweep.stage.persist_us"] {
            assert_eq!(histograms[stage]["count"].as_u64(), Some(20), "{stage}");
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// At a zero progress interval `status.json` is written before the first
    /// point and after every point, so each `eval` sees the points before it.
    #[test]
    fn a_zero_progress_interval_writes_status_after_every_point() {
        let base = temp_base("interval");
        let inner = MockJob::new(4);
        let store = open_store(&base, &inner);
        let job = StatusReadingJob::new(inner, &store);
        let config = CoordinatorConfig {
            progress_interval: Duration::ZERO,
            ..CoordinatorConfig::default()
        };
        run_job(&job, &store, config).unwrap();
        let seen_done: Vec<Option<u64>> = (job.seen.borrow().iter())
            .map(|status| status["done"].as_u64())
            .collect();
        assert_eq!(seen_done, [Some(0), Some(1), Some(2), Some(3)]);
        let status = store.read_status().unwrap();
        assert_eq!(status["done"].as_u64(), Some(4));
        let _ = std::fs::remove_dir_all(&base);
    }

    /// The snapshot written before the first point has no rate to estimate
    /// from: its `eta_secs` is `null` and its line reads `ETA ?`. Once a
    /// point is computed the estimate is a number. The snapshot carries
    /// each of its keys once, and no other.
    #[test]
    fn the_first_snapshot_of_a_run_has_an_unknown_eta() {
        let base = temp_base("eta");
        let inner = MockJob::new(3);
        let store = open_store(&base, &inner);
        let job = StatusReadingJob::new(inner, &store);
        let config = CoordinatorConfig {
            progress_interval: Duration::ZERO,
            ..CoordinatorConfig::default()
        };
        run_job(&job, &store, config).unwrap();
        let seen = job.seen.borrow();
        let first = &seen[0];
        let keys: Vec<&str> = first
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            [
                "computed_this_run",
                "done",
                "eta_secs",
                "failed",
                "job",
                "pending",
                "points_per_sec",
                "telemetry",
                "total",
                "uptime_secs",
            ]
        );
        let counts = ["total", "done", "pending", "failed", "computed_this_run"]
            .map(|key| first[key].as_u64());
        assert_eq!(counts, [Some(3), Some(0), Some(3), Some(0), Some(0)]);
        assert_eq!(first.get("eta_secs"), Some(&Value::Null), "{first}");
        assert_eq!(first["points_per_sec"].as_f64(), Some(0.0));
        assert_eq!(
            crate::render_progress_line(first),
            "sweep: 0/3 done, 3 pending, 0 failed | 0.00 pts/s, ETA ?, up 0s"
        );
        assert!(seen[1]["eta_secs"].as_f64().is_some_and(|eta| eta >= 0.0));
        let last = store.read_status().unwrap();
        assert_eq!(last["eta_secs"].as_f64(), Some(0.0));
        assert!(crate::render_progress_line(&last).contains("ETA 0s"));
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
        let summary = run_job(&job, &store, CoordinatorConfig::default()).unwrap();
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
        let summary = run_job(&poisoned, &store, CoordinatorConfig::default()).unwrap();
        assert_eq!((summary.progress.failed, summary.progress.done), (1, 3));

        let cured = MockJob::new(4);
        let store = open_store(&base, &cured);
        let summary = run_job(&cured, &store, CoordinatorConfig::default()).unwrap();
        assert_eq!((summary.computed, summary.resumed), (1, 3));
        assert_eq!(summary.progress.failed, 0);
        assert!(store.failures().is_empty());
        let reference_base = temp_base("fail-resume-reference");
        let reference = open_store(&reference_base, &cured);
        run_job(&cured, &reference, CoordinatorConfig::default()).unwrap();
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
            let summary = run_job(&job, &store, CoordinatorConfig::default());
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
