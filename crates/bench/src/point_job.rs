//! Experiment-spec glue for the resumable sweep runner.
//!
//! qccd-sweeprun is domain-agnostic: it runs, persists and resumes any
//! [`PointJob`]. This module supplies the experiment-spec flavour of that
//! job — the grid is the spec's [`point_grid`], point `i`'s seed is the
//! same [`sweep_seed`]`(spec seed, i)` a single-process `artifacts run`
//! would use, each point evaluates through the shared
//! [`evaluate_ler_point`] body, and [`merge_artifact`] assembles the stored
//! outcomes with the [`artifact_from_outcomes`] that `run_spec` itself
//! calls — so a merged artifact is bit-identical to `run_spec` output.
//!
//! A job holds one [`ScheduleCache`] for its lifetime: the points it
//! evaluates compile once per (architecture without its gate improvement,
//! distance) and re-weight that schedule's fault table per point, so a
//! full `fig10` run compiles 6 schedules for 18 points and a resumed run
//! compiles only the schedules of the points it still has to compute. The
//! cache never changes an outcome (see [`crate::sweep`]).
//!
//! Only specs with a point grid (LER sweeps) run through the store: they are the Monte-Carlo sweeps whose cost grows with
//! the shot count a user asks for, and their outcomes are pure functions of
//! `(spec, index, seed)`. Timing sweeps are deterministic too (modelled round
//! and shot times), but they are millisecond compiles with no shot count to
//! grow: there is nothing worth persisting.

use serde_json::Value;

use qccd_decoder::{sweep_seed, CacheStats, LogicalErrorEstimate};
use qccd_sweeprun::{JobDescriptor, PointJob, PointStore};

use crate::registry::{artifact_from_outcomes, not_a_grid, point_grid};
use crate::spec::{opt, req, Spelled};
use crate::sweep::{evaluate_ler_point, LerOutcome, LerPoint, ScheduleCache};
use crate::{Artifact, ExperimentSpec};

/// Job kind tag recorded in the store manifest.
pub const JOB_KIND: &str = "experiment_spec";

/// A grid experiment spec as a sweeprun [`PointJob`].
pub struct SpecPointJob {
    spec: ExperimentSpec,
    points: Vec<LerPoint>,
    schedules: ScheduleCache,
}

impl SpecPointJob {
    /// The spec this job runs.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The full per-point seed table, in grid order.
    pub fn seed_table(&self) -> Vec<u64> {
        (0..self.points.len())
            .map(|index| self.point_seed(index))
            .collect()
    }
}

/// Builds the sweeprun job of `spec`.
///
/// # Errors
///
/// Fails for invalid specs and for kinds without a [`point_grid`] (see the
/// [module docs](self)).
pub fn spec_point_job(spec: &ExperimentSpec) -> Result<SpecPointJob, String> {
    spec.validate().map_err(|e| e.to_string())?;
    Ok(SpecPointJob {
        spec: spec.clone(),
        points: point_grid(spec).ok_or_else(|| not_a_grid(spec).to_string())?,
        schedules: ScheduleCache::default(),
    })
}

impl PointJob for SpecPointJob {
    fn descriptor(&self) -> JobDescriptor {
        JobDescriptor {
            kind: JOB_KIND.to_string(),
            name: self.spec.name.clone(),
            hash: self.spec.content_hash(),
            payload: self.spec.to_json(),
        }
    }

    fn num_points(&self) -> usize {
        self.points.len()
    }

    fn point_seed(&self, index: usize) -> u64 {
        sweep_seed(self.spec.seed, index as u64)
    }

    fn eval(&self, index: usize, seed: u64) -> Result<Value, String> {
        let point = self
            .points
            .get(index)
            .ok_or_else(|| format!("point index {index} out of range"))?;
        if seed != self.point_seed(index) {
            return Err(format!(
                "seed {seed:#x} for point {index} is not this spec's grid seed {:#x}",
                self.point_seed(index)
            ));
        }
        // Compile failures round-trip inside the payload (they render as
        // table cells); an Err here means the point cannot be evaluated at
        // all (an index or seed that is not this spec's), which the runner
        // records under `failed/`.
        Ok(outcome_to_json(&evaluate_ler_point(
            point,
            seed,
            &self.schedules,
        )))
    }
}

/// Merges a completed point store back into the spec's artifact.
///
/// # Errors
///
/// Fails if any point is missing (the sweep has not finished — rerun or
/// resume first), a stored payload does not parse, or the spec/store do
/// not correspond.
pub fn merge_artifact(spec: &ExperimentSpec, store: &PointStore) -> Result<Artifact, String> {
    let missing = store.missing_indices();
    if !missing.is_empty() {
        let failures = store.failures();
        let detail = if failures.is_empty() {
            String::new()
        } else {
            format!(
                " ({} failed, e.g. point {}: {})",
                failures.len(),
                failures[0].0,
                failures[0].1
            )
        };
        return Err(format!(
            "{} of {} points still missing{detail}; resume the sweep before merging",
            missing.len(),
            store.num_points()
        ));
    }
    let mut outcomes = Vec::with_capacity(store.num_points());
    for index in 0..store.num_points() {
        let payload = store
            .load_point(index)?
            .ok_or_else(|| format!("point {index} vanished mid-merge"))?;
        outcomes.push(outcome_from_json(&payload)?);
    }
    artifact_from_outcomes(spec, &outcomes).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Outcome store codec
// ---------------------------------------------------------------------------

fn cache_to_json(cache: &CacheStats) -> Value {
    serde_json::json!({
        "hits": cache.hits,
        "misses": cache.misses,
        "uncacheable": cache.uncacheable,
        "quiet_words": cache.quiet_words,
        "sparse_words": cache.sparse_words,
        "dense_words": cache.dense_words,
    })
}

fn cache_from_json(value: &Value) -> Result<CacheStats, String> {
    Ok(CacheStats {
        hits: req(value, "hits")?,
        misses: req(value, "misses")?,
        uncacheable: req(value, "uncacheable")?,
        quiet_words: req(value, "quiet_words")?,
        sparse_words: req(value, "sparse_words")?,
        dense_words: req(value, "dense_words")?,
        ..CacheStats::default()
    })
}

/// Serializes one sweep outcome for the point store.
///
/// Integers stay `u64` and the two LER floats round-trip exactly through
/// the vendored serde_json (shortest-representation `Display`), so decoding
/// with [`outcome_from_json`] reproduces the outcome bit for bit — the
/// foundation of merge bit-identity.
pub fn outcome_to_json(outcome: &LerOutcome) -> Value {
    let result = match &outcome.result {
        Ok(estimate) => serde_json::json!({
            "ok": {
                "shots": estimate.shots as u64,
                "failures": estimate.failures as u64,
                "logical_error_rate": estimate.logical_error_rate,
                "std_error": estimate.std_error,
            }
        }),
        Err(message) => serde_json::json!({ "err": message }),
    };
    serde_json::json!({
        "label": outcome.label,
        "distance": outcome.distance as u64,
        "decoder": outcome.decoder.spelling(),
        "seed": Value::from(outcome.seed),
        "shots_requested": outcome.shots_requested as u64,
        "result": result,
        "cache": outcome.cache.as_ref().map(cache_to_json),
    })
}

/// Parses an outcome back from its [`outcome_to_json`] encoding.
///
/// # Errors
///
/// Returns a message on missing or ill-typed fields.
pub fn outcome_from_json(value: &Value) -> Result<LerOutcome, String> {
    let result: &Value = req(value, "result")?;
    // A present `"ok": null` is a malformed estimate, not a missing one.
    let result = if result.get("ok").is_some() {
        let ok: &Value = req(result, "ok")?;
        Ok(LogicalErrorEstimate {
            shots: req(ok, "shots")?,
            failures: req(ok, "failures")?,
            logical_error_rate: req(ok, "logical_error_rate")?,
            std_error: req(ok, "std_error")?,
        })
    } else {
        Err(req(result, "err")?)
    };
    // `cache` is written as `null` for a point that did not decode, so the
    // key itself must be there.
    if value.get("cache").is_none() {
        return Err("field `cache` is missing; it must be an object or null".to_string());
    }
    Ok(LerOutcome {
        label: req(value, "label")?,
        distance: req(value, "distance")?,
        decoder: req(value, "decoder")?,
        seed: req(value, "seed")?,
        shots_requested: req(value, "shots_requested")?,
        result,
        cache: opt(value, "cache")?.map(cache_from_json).transpose()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ExperimentRegistry;
    use crate::ExperimentKind;
    use qccd_decoder::DecoderKind;

    /// The registry's smallest real LER sweep for tests.
    fn tiny_spec() -> ExperimentSpec {
        let registry = ExperimentRegistry::builtin();
        let mut spec = registry
            .names()
            .iter()
            .filter_map(|name| registry.get(name))
            .find(|spec| matches!(spec.kind, ExperimentKind::LerSweep(_)))
            .expect("the registry has LER sweeps")
            .clone();
        // Shrink the grid so the test evaluates quickly.
        if let ExperimentKind::LerSweep(kind) = &mut spec.kind {
            kind.configurations.truncate(2);
            kind.sample_distances = vec![2, 3];
            kind.shots = 64;
        }
        spec.name = "tiny-sweep-test".to_string();
        spec
    }

    /// fig10's full 3 × 3 × 2 grid at a token shot count.
    fn small_fig10() -> ExperimentSpec {
        let mut spec = ExperimentRegistry::builtin().get("fig10").unwrap().clone();
        let ExperimentKind::LerSweep(kind) = &mut spec.kind else {
            panic!("fig10 changed kind");
        };
        kind.shots = 64;
        spec.name = "small-fig10-test".to_string();
        spec
    }

    #[test]
    fn a_fig10_job_compiles_six_schedules_for_eighteen_points() {
        let job = spec_point_job(&small_fig10()).unwrap();
        assert_eq!(job.num_points(), 18);
        for index in 0..job.num_points() {
            job.eval(index, job.point_seed(index)).unwrap();
        }
        assert_eq!(job.schedules.len(), 6, "3 capacities x 2 distances");
    }

    #[test]
    fn a_resumed_job_compiles_only_the_missing_points_schedule() {
        let spec = small_fig10();
        let base =
            std::env::temp_dir().join(format!("qccd-point-job-schedules-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();
        let job = spec_point_job(&spec).unwrap();
        let (store, _) = PointStore::open(&base, &job.descriptor(), job.seed_table()).unwrap();
        qccd_sweeprun::run_job(&job, &store, qccd_sweeprun::CoordinatorConfig::default()).unwrap();
        assert_eq!(job.schedules.len(), 6);

        let victim = 7usize;
        std::fs::remove_file(store.root().join("points").join(format!(
            "point-{victim:06}-{:016x}.json",
            store.seed(victim)
        )))
        .unwrap();
        let resumed = spec_point_job(&spec).unwrap();
        let summary = qccd_sweeprun::run_job(
            &resumed,
            &store,
            qccd_sweeprun::CoordinatorConfig::default(),
        )
        .unwrap();
        assert_eq!((summary.computed, summary.resumed), (1, 17));
        assert_eq!(resumed.schedules.len(), 1);
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn run_spec_equals_assembly_of_its_outcomes_after_a_codec_round_trip() {
        let spec = tiny_spec();
        let reference = crate::run_spec(&spec).unwrap();
        let points = point_grid(&spec).expect("the tiny spec is a grid");
        let outcomes: Vec<LerOutcome> = crate::run_ler_sweep(spec.seed, &points)
            .iter()
            .map(|outcome| {
                // Through a serialized string, like the store does.
                let text = outcome_to_json(outcome).to_string();
                outcome_from_json(&serde_json::from_str(&text).unwrap()).unwrap()
            })
            .collect();
        let assembled = artifact_from_outcomes(&spec, &outcomes).unwrap();
        assert_eq!(
            assembled.to_json().to_string(),
            reference.to_json().to_string()
        );
    }

    #[test]
    fn outcome_codec_round_trips_bit_exactly() {
        let ok = LerOutcome {
            label: "grid c4".to_string(),
            distance: 3,
            decoder: DecoderKind::ExactMatching,
            seed: 0xdead_beef_cafe_f00d,
            shots_requested: 4096,
            result: Ok(LogicalErrorEstimate {
                shots: 4096,
                failures: 17,
                logical_error_rate: 17.0 / 4096.0,
                std_error: 0.001_234_567_890_123_4,
            }),
            cache: Some(CacheStats {
                hits: 1,
                misses: 2,
                uncacheable: 3,
                quiet_words: 5,
                sparse_words: 6,
                dense_words: u64::MAX,
                ..CacheStats::default()
            }),
        };
        let err = LerOutcome {
            label: "hex c8".to_string(),
            distance: 9,
            decoder: DecoderKind::UnionFind,
            seed: 1,
            shots_requested: 10,
            result: Err("compile failed: capacity".to_string()),
            cache: None,
        };
        for outcome in [&ok, &err] {
            // Round-trip through a serialized string, like the store does.
            let json = outcome_to_json(outcome);
            let reparsed = serde_json::from_str(&json.to_string()).unwrap();
            let decoded = outcome_from_json(&reparsed).unwrap();
            assert_eq!(decoded.label, outcome.label);
            assert_eq!(decoded.distance, outcome.distance);
            assert_eq!(decoded.decoder, outcome.decoder);
            assert_eq!(decoded.seed, outcome.seed);
            assert_eq!(decoded.shots_requested, outcome.shots_requested);
            match (&decoded.result, &outcome.result) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.shots, b.shots);
                    assert_eq!(a.failures, b.failures);
                    assert_eq!(
                        a.logical_error_rate.to_bits(),
                        b.logical_error_rate.to_bits()
                    );
                    assert_eq!(a.std_error.to_bits(), b.std_error.to_bits());
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                other => panic!("result variant changed: {other:?}"),
            }
            assert_eq!(decoded.cache, outcome.cache);
        }
        // Point files written by earlier commits carry one more cache key;
        // they still resume and merge.
        let mut older = outcome_to_json(&ok);
        older["cache"]["prefilled"] = Value::from(72u64);
        let decoded = outcome_from_json(&older).unwrap();
        assert_eq!(
            outcome_to_json(&decoded).to_string(),
            outcome_to_json(&ok).to_string()
        );
    }

    #[test]
    fn non_ler_specs_are_rejected() {
        let registry = ExperimentRegistry::builtin();
        let other = registry
            .names()
            .iter()
            .filter_map(|name| registry.get(name))
            .find(|spec| !matches!(spec.kind, ExperimentKind::LerSweep(_)))
            .expect("the registry has non-LER specs");
        let err = spec_point_job(other)
            .err()
            .expect("non-LER specs must be refused");
        assert!(err.contains("not a LER sweep"), "unexpected error: {err}");
    }

    #[test]
    fn store_merge_is_bit_identical_to_run_spec() {
        let spec = tiny_spec();
        let reference = crate::run_spec(&spec).unwrap();

        let base =
            std::env::temp_dir().join(format!("qccd-point-job-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();

        let job = spec_point_job(&spec).unwrap();
        let (store, _) = PointStore::open(&base, &job.descriptor(), job.seed_table()).unwrap();
        let summary =
            qccd_sweeprun::run_job(&job, &store, qccd_sweeprun::CoordinatorConfig::default())
                .unwrap();
        assert_eq!(summary.computed, 4);

        let merged = merge_artifact(&spec, &store).unwrap();
        // Everything must match bit for bit — the acceptance criterion of
        // the orchestration tier.
        assert_eq!(merged.title, reference.title);
        assert_eq!(merged.headers, reference.headers);
        assert_eq!(merged.rows, reference.rows);
        assert_eq!(merged.notes, reference.notes);
        assert_eq!(merged.data.to_string(), reference.data.to_string());
        assert_eq!(merged.metadata.spec_hash, reference.metadata.spec_hash);

        // Resume path: delete a point, recompute only it, merge again.
        let victim = 2usize;
        std::fs::remove_file(store.root().join("points").join(format!(
            "point-{victim:06}-{:016x}.json",
            store.seed(victim)
        )))
        .unwrap();
        let summary =
            qccd_sweeprun::run_job(&job, &store, qccd_sweeprun::CoordinatorConfig::default())
                .unwrap();
        assert_eq!((summary.computed, summary.resumed), (1, 3));
        let resumed = merge_artifact(&spec, &store).unwrap();
        assert_eq!(resumed.rows, reference.rows);
        assert_eq!(resumed.data.to_string(), reference.data.to_string());

        let _ = std::fs::remove_dir_all(&base);
    }
}
