//! # qccd-sweeprun
//!
//! Distributed, resumable sweep orchestration: the execution tier that
//! turns week-long below-threshold extrapolation sweeps into
//! interruptible, distributable jobs (ROADMAP item 3).
//!
//! Three layers, bottom up:
//!
//! - [`store::PointStore`] — a content-hash-keyed persistent store of
//!   per-point results (key = job hash × grid index × per-point seed) with
//!   atomic temp-then-rename writes. A killed run resumes by recomputing
//!   only the missing points; because every point payload is a pure
//!   function of `(job, index, seed)`, the merged artifact is bit-identical
//!   to an uninterrupted single-process run.
//! - [`scheduler::Scheduler`] — the coordinator's in-memory lease ledger:
//!   lease timeout → requeue, bounded retry with exponential backoff,
//!   idempotent duplicate-completion resolution by point key, and progress
//!   counters (`done/leased/pending/failed`, requeues, retries,
//!   duplicates, per-worker throughput).
//! - [`coordinator`] / [`worker`] — a TCP JSON-lines protocol (same
//!   patterns as the service crate's net layer) connecting one coordinator
//!   to any number of worker processes, plus in-process local workers for
//!   the single-host path.
//!
//! The crate is deliberately domain-agnostic: anything that can describe
//! itself as a [`job::PointJob`] — a fixed grid of points with
//! deterministic seeds and JSON-serializable results — can be stored,
//! scheduled, distributed, and resumed. The bench crate supplies the
//! experiment-spec flavored job on top.

#![warn(missing_docs)]

pub mod coordinator;
pub mod job;
mod net;
pub mod scheduler;
pub mod store;
pub mod worker;

pub use coordinator::{
    render_progress_line, render_worker_lines, run_job, snapshot_json, CoordinatorConfig,
    RunSummary, PROTOCOL_VERSION,
};
pub use job::{JobDescriptor, JobFactory, PointJob};
pub use scheduler::{Progress, Scheduler, SchedulerConfig, WorkerView};
pub use store::{write_atomic, PointStore, StoreState};
pub use worker::{query_status, run_worker, WorkerOptions, WorkerSummary};

#[cfg(test)]
mod e2e_tests {
    use std::net::TcpListener;
    use std::path::PathBuf;
    use std::time::Duration;

    use serde_json::Value;

    use crate::job::testutil::MockJob;
    use crate::job::{JobDescriptor, PointJob};
    use crate::{
        run_job, run_worker, CoordinatorConfig, PointStore, SchedulerConfig, WorkerOptions,
    };

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

    fn mock_factory(descriptor: &JobDescriptor) -> Result<Box<dyn PointJob>, String> {
        if descriptor.kind != "mock" {
            return Err(format!("unknown job kind {}", descriptor.kind));
        }
        let points = descriptor
            .payload
            .get("points")
            .and_then(Value::as_u64)
            .ok_or("mock payload lacks points")? as usize;
        Ok(Box::new(MockJob::new(points)))
    }

    fn fast_scheduler() -> SchedulerConfig {
        SchedulerConfig {
            lease_timeout: Duration::from_millis(500),
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
    fn tcp_workers_complete_a_distributed_run() {
        let base = temp_base("tcp");
        let job = MockJob::new(10);
        let store = open_store(&base, &job);

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        std::thread::scope(|scope| {
            let store = &store;
            let job = &job;
            let coordinator = scope.spawn(move || {
                run_job(
                    job,
                    store,
                    CoordinatorConfig {
                        listener: Some(listener),
                        local_workers: 0,
                        scheduler: fast_scheduler(),
                        ..CoordinatorConfig::default()
                    },
                )
            });
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    let addr = addr.clone();
                    scope.spawn(move || run_worker(&addr, &mock_factory, WorkerOptions::default()))
                })
                .collect();

            let summary = coordinator.join().unwrap().unwrap();
            assert_eq!((summary.computed, summary.resumed), (10, 0));
            let completed: usize = workers
                .into_iter()
                .map(|w| w.join().unwrap().unwrap().completed)
                .sum();
            assert_eq!(completed, 10);
        });

        // Distributed payloads match a pure local evaluation bit for bit.
        for index in 0..10 {
            let expected = job.eval(index, job.point_seed(index)).unwrap();
            assert_eq!(store.load_point(index).unwrap(), Some(expected));
        }
        let _ = std::fs::remove_dir_all(&base);
    }

    /// A peer that never sends a newline is cut off at the line cap (told
    /// why, then disconnected) instead of growing the coordinator; the run
    /// still completes through a well-behaved worker.
    #[test]
    fn an_endless_line_is_refused_and_the_run_still_completes() {
        use std::io::{Read, Write};

        let base = temp_base("endless");
        let job = MockJob::new(4);
        let store = open_store(&base, &job);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        std::thread::scope(|scope| {
            let store = &store;
            let job = &job;
            // No local workers: the run cannot finish before the hostile
            // connection has been dealt with.
            let coordinator = scope.spawn(move || {
                run_job(
                    job,
                    store,
                    CoordinatorConfig {
                        listener: Some(listener),
                        local_workers: 0,
                        scheduler: fast_scheduler(),
                        ..CoordinatorConfig::default()
                    },
                )
            });
            let mut hostile = std::net::TcpStream::connect(&addr).unwrap();
            hostile
                .write_all(&vec![b'x'; crate::net::MAX_LINE_BYTES + 1])
                .expect("the coordinator reads up to one byte past the cap");
            let mut answer = String::new();
            hostile
                .read_to_string(&mut answer)
                .expect("error line, then the coordinator hangs up");
            assert!(answer.contains("line exceeds"), "{answer}");

            let summary = run_worker(&addr, &mock_factory, WorkerOptions::default()).unwrap();
            assert_eq!(summary.completed, 4);
            let summary = coordinator.join().unwrap().unwrap();
            assert_eq!((summary.computed, summary.resumed), (4, 0));
        });
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

    #[test]
    fn version_skew_is_rejected_by_the_worker() {
        let base = temp_base("skew");
        let job = MockJob::new(3);
        let store = open_store(&base, &job);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();

        std::thread::scope(|scope| {
            let store = &store;
            let job = &job;
            let coordinator = scope.spawn(move || {
                run_job(
                    job,
                    store,
                    CoordinatorConfig {
                        listener: Some(listener),
                        local_workers: 1, // keeps the run finishing regardless
                        scheduler: fast_scheduler(),
                        ..CoordinatorConfig::default()
                    },
                )
            });
            // A factory that rebuilds a *different* grid must be refused.
            let skewed = |_: &JobDescriptor| -> Result<Box<dyn PointJob>, String> {
                Ok(Box::new(MockJob::new(999)))
            };
            let err = run_worker(&addr, &skewed, WorkerOptions::default()).unwrap_err();
            assert!(err.contains("version skew"), "unexpected error: {err}");
            coordinator.join().unwrap().unwrap();
        });
        let _ = std::fs::remove_dir_all(&base);
    }
}
