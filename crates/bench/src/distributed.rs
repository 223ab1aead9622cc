//! Experiment-spec glue for the sweeprun orchestration tier.
//!
//! qccd-sweeprun is domain-agnostic: it schedules, persists, and
//! distributes any [`PointJob`]. This module supplies the experiment-spec
//! flavour of that job — the grid is the spec's [`point_grid`], point seeds
//! come from the same [`SweepEngine`] a single-process `artifacts run`
//! would use, each point evaluates through the shared
//! [`evaluate_ler_point`] body, and [`merge_artifact`] assembles the stored
//! outcomes with the [`artifact_from_outcomes`] that `run_spec` itself
//! calls — so a merged artifact is bit-identical to `run_spec` output.
//!
//! Only specs with a point grid (LER sweeps and rare-event comparisons) are
//! orchestrable: they are the Monte-Carlo sweeps that run for days below
//! threshold, and their outcomes are pure functions of
//! `(spec, index, seed)`. Timing sweeps measure wall-clock and would break
//! bit-identity.

use serde_json::Value;

use qccd_decoder::{CacheStats, LogicalErrorEstimate, SweepEngine};
use qccd_sweeprun::{JobDescriptor, PointJob, PointStore};

use crate::registry::{artifact_from_outcomes, not_a_grid, point_grid};
use crate::spec::{decoder_from_name, decoder_name};
use crate::sweep::{evaluate_ler_point, LerOutcome, LerPoint};
use crate::{Artifact, ExperimentSpec};

/// Job kind tag understood by [`job_factory`].
pub const JOB_KIND: &str = "experiment_spec";

/// A grid experiment spec as a sweeprun [`PointJob`].
pub struct SpecPointJob {
    spec: ExperimentSpec,
    points: Vec<LerPoint>,
    engine: SweepEngine,
}

impl SpecPointJob {
    /// The spec this job runs.
    pub fn spec(&self) -> &ExperimentSpec {
        &self.spec
    }

    /// The full per-point seed table, in grid order.
    pub fn seed_table(&self) -> Vec<u64> {
        (0..self.points.len())
            .map(|index| self.engine.point_seed(index))
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
        engine: SweepEngine::new(spec.seed),
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
        self.engine.point_seed(index)
    }

    fn eval(&self, index: usize, seed: u64) -> Result<Value, String> {
        let point = self
            .points
            .get(index)
            .ok_or_else(|| format!("point index {index} out of range"))?;
        if seed != self.engine.point_seed(index) {
            return Err(format!(
                "seed {seed:#x} for point {index} is not this spec's grid seed {:#x}",
                self.engine.point_seed(index)
            ));
        }
        // Compile failures round-trip inside the payload (they render as
        // table cells); an Err here is reserved for infrastructure faults
        // the scheduler should retry.
        Ok(outcome_to_json(&evaluate_ler_point(point, seed)))
    }
}

/// Rebuilds a [`SpecPointJob`] from a wire descriptor — the factory handed
/// to `sweeprun::run_worker`. Verifies the rebuilt spec's content hash
/// against the descriptor so coordinator/worker version skew is refused.
///
/// # Errors
///
/// Fails on unknown job kinds, unparseable spec payloads, or hash
/// mismatches.
pub fn job_factory(descriptor: &JobDescriptor) -> Result<Box<dyn PointJob>, String> {
    if descriptor.kind != JOB_KIND {
        return Err(format!("unknown job kind `{}`", descriptor.kind));
    }
    let spec = ExperimentSpec::from_json(&descriptor.payload).map_err(|e| e.to_string())?;
    if spec.content_hash() != descriptor.hash {
        return Err(format!(
            "rebuilt spec hashes to {}, descriptor says {} — coordinator/worker version skew",
            spec.content_hash(),
            descriptor.hash
        ));
    }
    Ok(Box::new(spec_point_job(&spec)?))
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
                " ({} terminally failed, e.g. point {}: {})",
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
// Outcome wire/store codec
// ---------------------------------------------------------------------------

/// Field order of [`CacheStats`] in the JSON codec.
const CACHE_FIELDS: [&str; 6] = [
    "hits",
    "misses",
    "uncacheable",
    "quiet_words",
    "sparse_words",
    "dense_words",
];

fn cache_to_json(cache: &CacheStats) -> Value {
    let values = [
        cache.hits,
        cache.misses,
        cache.uncacheable,
        cache.quiet_words,
        cache.sparse_words,
        cache.dense_words,
    ];
    let mut map = serde_json::Map::new();
    for (key, value) in CACHE_FIELDS.iter().zip(values) {
        map.insert((*key).to_string(), Value::from(value));
    }
    Value::Object(map)
}

fn cache_from_json(value: &Value) -> Result<CacheStats, String> {
    let field = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("cache stats need a numeric `{key}`"))
    };
    Ok(CacheStats {
        hits: field("hits")?,
        misses: field("misses")?,
        uncacheable: field("uncacheable")?,
        quiet_words: field("quiet_words")?,
        sparse_words: field("sparse_words")?,
        dense_words: field("dense_words")?,
        ..CacheStats::default()
    })
}

/// Serializes one sweep outcome for the point store / the wire.
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
        "decoder": decoder_name(outcome.decoder),
        "seed": Value::from(outcome.seed),
        "shots_requested": outcome.shots_requested as u64,
        "result": result,
        "cache": match &outcome.cache {
            Some(cache) => cache_to_json(cache),
            None => Value::Null,
        },
    })
}

/// Parses an outcome back from its [`outcome_to_json`] encoding.
///
/// # Errors
///
/// Returns a message on missing or ill-typed fields.
pub fn outcome_from_json(value: &Value) -> Result<LerOutcome, String> {
    let text = |key: &str| -> Result<String, String> {
        value
            .get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("outcome needs a string `{key}`"))
    };
    let number = |key: &str| -> Result<u64, String> {
        value
            .get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("outcome needs a numeric `{key}`"))
    };
    let result_value = value.get("result").ok_or("outcome needs a `result`")?;
    let result = if let Some(ok) = result_value.get("ok") {
        let field = |key: &str| -> Result<&Value, String> {
            ok.get(key)
                .ok_or_else(|| format!("estimate needs a `{key}`"))
        };
        Ok(LogicalErrorEstimate {
            shots: field("shots")?
                .as_u64()
                .ok_or("estimate `shots` must be an integer")? as usize,
            failures: field("failures")?
                .as_u64()
                .ok_or("estimate `failures` must be an integer")? as usize,
            logical_error_rate: field("logical_error_rate")?
                .as_f64()
                .ok_or("estimate `logical_error_rate` must be a number")?,
            std_error: field("std_error")?
                .as_f64()
                .ok_or("estimate `std_error` must be a number")?,
        })
    } else if let Some(err) = result_value.get("err").and_then(Value::as_str) {
        Err(err.to_string())
    } else {
        return Err("outcome `result` needs `ok` or `err`".to_string());
    };
    let cache = match value.get("cache") {
        None => return Err("outcome needs a `cache` (may be null)".to_string()),
        Some(Value::Null) => None,
        Some(cache) => Some(cache_from_json(cache)?),
    };
    Ok(LerOutcome {
        label: text("label")?,
        distance: number("distance")? as usize,
        decoder: decoder_from_name(&text("decoder")?).map_err(|e| e.to_string())?,
        seed: number("seed")?,
        shots_requested: number("shots_requested")? as usize,
        result,
        cache,
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

    /// The registry's rare-event comparison, shrunk to a fast grid.
    fn tiny_rare_event_spec() -> ExperimentSpec {
        let registry = ExperimentRegistry::builtin();
        let mut spec = registry
            .get("rare_event_ler")
            .expect("the registry has the rare-event comparison")
            .clone();
        if let ExperimentKind::RareEventLer(kind) = &mut spec.kind {
            kind.configurations = vec![
                crate::spec::ArchPoint::grid(2, 10.0).with_label("10X c2"),
                crate::spec::ArchPoint::grid(2, 1000.0).with_label("1000X c2"),
            ];
            kind.sample_distances = vec![2, 3];
            kind.shots = 128;
            kind.biased_shots = 64;
            kind.bias = 8.0;
        } else {
            panic!("rare_event_ler changed kind");
        }
        spec.name = "tiny-rare-event-test".to_string();
        spec
    }

    #[test]
    fn rare_event_merge_is_bit_identical_to_run_spec() {
        let spec = tiny_rare_event_spec();
        let reference = crate::run_spec(&spec).unwrap();

        let base = std::env::temp_dir().join(format!(
            "qccd-distributed-rare-event-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();

        let job = spec_point_job(&spec).unwrap();
        // 2 configurations x 2 distances x (plain + biased).
        assert_eq!(job.num_points(), 8);
        let (store, _) = PointStore::open(&base, &job.descriptor(), job.seed_table()).unwrap();
        let summary = qccd_sweeprun::run_job(
            &job,
            &store,
            qccd_sweeprun::CoordinatorConfig {
                local_workers: 2,
                ..qccd_sweeprun::CoordinatorConfig::default()
            },
        )
        .unwrap();
        assert_eq!(summary.computed, 8);

        let merged = merge_artifact(&spec, &store).unwrap();
        assert_eq!(merged.title, reference.title);
        assert_eq!(merged.headers, reference.headers);
        assert_eq!(merged.rows, reference.rows);
        assert_eq!(merged.notes, reference.notes);
        assert_eq!(merged.data.to_string(), reference.data.to_string());
        assert_eq!(merged.metadata.spec_hash, reference.metadata.spec_hash);

        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn run_spec_equals_assembly_of_its_outcomes_after_a_codec_round_trip() {
        for spec in [tiny_spec(), tiny_rare_event_spec()] {
            let reference = crate::run_spec(&spec).unwrap();
            let points = point_grid(&spec).expect("both tiny specs are grids");
            let outcomes: Vec<LerOutcome> =
                crate::run_ler_sweep(&SweepEngine::new(spec.seed), &points)
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
                reference.to_json().to_string(),
                "{}",
                spec.name
            );
        }
    }

    #[test]
    fn outcome_codec_round_trips_bit_exactly() {
        let ok = LerOutcome {
            label: "grid c4".to_string(),
            distance: 3,
            decoder: DecoderKind::GreedyMatching,
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
    fn job_round_trips_through_the_factory() {
        let spec = tiny_spec();
        let job = spec_point_job(&spec).unwrap();
        assert_eq!(job.num_points(), 4);
        let descriptor = job.descriptor();
        assert_eq!(descriptor.hash, spec.content_hash());
        let rebuilt = job_factory(&descriptor).unwrap();
        assert_eq!(rebuilt.num_points(), job.num_points());
        for index in 0..job.num_points() {
            assert_eq!(rebuilt.point_seed(index), job.point_seed(index));
        }

        // Skewed payloads are refused.
        let mut skewed = descriptor.clone();
        skewed.hash = "0000000000000000".to_string();
        let err = job_factory(&skewed).err().expect("skew must be refused");
        assert!(err.contains("version skew"), "unexpected error: {err}");
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
    fn distributed_merge_is_bit_identical_to_run_spec() {
        let spec = tiny_spec();
        let reference = crate::run_spec(&spec).unwrap();

        let base =
            std::env::temp_dir().join(format!("qccd-distributed-merge-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        std::fs::create_dir_all(&base).unwrap();

        let job = spec_point_job(&spec).unwrap();
        let (store, _) = PointStore::open(&base, &job.descriptor(), job.seed_table()).unwrap();
        let summary = qccd_sweeprun::run_job(
            &job,
            &store,
            qccd_sweeprun::CoordinatorConfig {
                local_workers: 2,
                ..qccd_sweeprun::CoordinatorConfig::default()
            },
        )
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
