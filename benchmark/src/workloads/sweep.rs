//! `sweep_fig10_cold`: the researcher's time to an artefact made of many
//! small points — the only workload through `sweeprun` and `bench`.
//!
//! One rep is the builtin `fig10` spec (9 architectures × d ∈ {3, 5}, 2 000
//! shots each) from a cold compile cache to the merged artefact: per point a
//! compile, a detector error model, a decoding graph, a memo warm-up and a
//! short Monte-Carlo run, then lease/persist/fsync/status around it. Set-up
//! costs that the long LER workloads amortise are paid 18 times here.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Instant;

use qccd_bench::{
    merge_artifact, run_spec, spec_point_job, validate_artifact_json, Artifact, ExperimentKind,
    ExperimentRegistry, ExperimentSpec, SpecPointJob,
};
use qccd_core::{compile_cache, Toolflow, ToolflowSpec};
use qccd_sweeprun::{run_job, CoordinatorConfig, JobDescriptor, PointJob, PointStore};
use serde_json::Value;

use crate::trace::Tracer;
use crate::workload::{Counts, LayerValues, RepOutcome, Workload};

/// `SpecPointJob` with every `eval` timed: evaluation runs on the
/// coordinator's worker thread, so its spans are handed to the tracer after
/// `run_job` returns.
struct TimedJob {
    inner: SpecPointJob,
    evals: Mutex<Vec<(Instant, Instant)>>,
    logical_failures: Mutex<u64>,
}

impl PointJob for TimedJob {
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
        let start = Instant::now();
        let payload = self.inner.eval(index, seed);
        let end = Instant::now();
        self.evals.lock().expect("eval log lock").push((start, end));
        if let Ok(payload) = &payload {
            let failures = payload["result"]["ok"]["failures"].as_u64().unwrap_or(0);
            *self.logical_failures.lock().expect("failure count lock") += failures;
        }
        payload
    }
}

pub struct SweepFig10Cold {
    base: PathBuf,
    spec: Option<ExperimentSpec>,
    seed: u64,
    last: Option<(ExperimentSpec, Artifact)>,
    requeues: u64,
    retries: u64,
}

impl SweepFig10Cold {
    /// `base` is where each rep's fresh point store goes.
    pub fn new(base: PathBuf) -> Self {
        SweepFig10Cold {
            base,
            spec: None,
            seed: 0,
            last: None,
            requeues: 0,
            retries: 0,
        }
    }

    fn spec_for(&self, index: u64) -> ExperimentSpec {
        let mut spec = self.spec.clone().expect("prepared before any rep");
        spec.seed = self.seed + index;
        spec
    }
}

impl Workload for SweepFig10Cold {
    fn units_per_rep(&self) -> f64 {
        18.0
    }

    fn reps_per_second(&self) -> f64 {
        2.4
    }

    fn prepare(&mut self, seed: u64) {
        let mut spec = ExperimentRegistry::builtin()
            .get("fig10")
            .expect("fig10 is a builtin spec")
            .clone();
        if let ExperimentKind::LerSweep(kind) = &mut spec.kind {
            kind.estimator = kind.estimator.with_num_threads(1);
        }
        self.spec = Some(spec);
        self.seed = seed;
    }

    fn build(&mut self, _tracer: &mut Tracer) {
        // A cold sweep starts from nothing by definition: each rep clears
        // the compile cache and opens a fresh store itself.
    }

    fn rep(&mut self, index: u64, tracer: &mut Tracer) -> RepOutcome {
        let spec = self.spec_for(index);
        let _ = std::fs::remove_dir_all(&self.base);
        compile_cache::shared().clear();

        let job = tracer
            .time("bench.spec_point_job", 1, || spec_point_job(&spec))
            .expect("fig10 is a LER sweep");
        let job = TimedJob {
            inner: job,
            evals: Mutex::new(Vec::new()),
            logical_failures: Mutex::new(0),
        };
        let store = tracer
            .time("sweeprun.open_store", 1, || {
                PointStore::open(&self.base, &job.descriptor(), job.inner.seed_table())
            })
            .expect("the store directory is writable")
            .0;
        let span = tracer.enter("sweeprun.run_job");
        let summary = run_job(&job, &store, CoordinatorConfig::default()).expect("the sweep runs");
        for &(start, end) in job.evals.lock().expect("eval log lock").iter() {
            tracer.record("bench.eval_point", start, end, 1);
        }
        tracer.exit(span, summary.computed as u64);
        let artifact = tracer.time("bench.merge_artifact", 1, || merge_artifact(&spec, &store));

        self.requeues += summary.progress.counters.requeues;
        self.retries += summary.progress.counters.retries;
        let points = job.num_points() as u64;
        let failed = summary.progress.failed as u64 + u64::from(artifact.is_err());
        if let Ok(artifact) = artifact {
            self.last = Some((spec, artifact));
        }
        let logical_failures = *job.logical_failures.lock().expect("failure count lock");
        RepOutcome {
            logical_failures,
            ops: Counts {
                attempted: points,
                failed,
            },
        }
    }

    fn teardown(&mut self) {
        let _ = std::fs::remove_dir_all(&self.base);
    }

    /// The last merged artefact must be well-formed and carry the rows a
    /// single-process `run_spec` of the same spec produces.
    fn check(&mut self) -> Counts {
        let Some((spec, artifact)) = &self.last else {
            return Counts::one(false);
        };
        let mut counts = Counts::default();
        let valid = validate_artifact_json(&artifact.to_json());
        if let Err(e) = &valid {
            eprintln!("merged artefact is malformed: {e}");
        }
        counts.add(Counts::one(valid.is_ok()));
        let same = run_spec(spec).is_ok_and(|reference| {
            reference.headers == artifact.headers && reference.rows == artifact.rows
        });
        if !same {
            eprintln!("merged artefact differs from run_spec");
        }
        counts.add(Counts::one(same));
        counts
    }

    fn schedule(&mut self) -> (u64, f64) {
        let spec = self.spec.as_ref().expect("prepared");
        let ExperimentKind::LerSweep(kind) = &spec.kind else {
            unreachable!("fig10 is a LER sweep");
        };
        let (mut rounds, mut elapsed_us) = (0, 0.0);
        for configuration in &kind.configurations {
            for &distance in &kind.sample_distances {
                let mut point = ToolflowSpec::new(configuration.build(), distance);
                point.estimate_ler = false;
                let metrics = Toolflow::run_spec(&point).expect("fig10's points compile");
                rounds += distance as u64;
                elapsed_us += metrics.shot_time_us;
            }
        }
        (rounds, elapsed_us)
    }

    fn layer_values(&mut self, values: &mut LayerValues) {
        let stats = compile_cache::shared().stats();
        values.insert("core.cache_hits", stats.hits as f64);
        values.insert("core.cache_misses", stats.misses as f64);
        values.insert("sweeprun.requeues", self.requeues as f64);
        values.insert("sweeprun.retries", self.retries as f64);
    }
}
