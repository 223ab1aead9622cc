//! Spec serialization and registry completeness tests.
//!
//! * Property: `ExperimentSpec → JSON text → ExperimentSpec` is the
//!   identity, for randomized specs of every experiment kind (the
//!   "serde-round-trippable" contract of the declarative API).
//! * The built-in registry registers every paper artefact, every spec
//!   validates, round-trips, and hashes uniquely.
//! * Hostile input: specs and stored point payloads with keys dropped,
//!   retyped or nulled and arrays truncated or nested never panic a
//!   decoder, and every spec the decoder still accepts re-encodes to a
//!   document that decodes to the same spec.

use proptest::prelude::*;

use serde_json::Value;

use qccd_bench::point_job::{outcome_from_json, outcome_to_json};
use qccd_bench::spec::{
    ArchPoint, ClusteringAblationSpec, CodeSpec, CompileCase, CompilerBoundsSpec,
    DecoderComparisonSpec, ExperimentKind, ExperimentSpec, LerOutput, LerSweepSpec,
    RareEventLerSpec, SurgerySpec, TimingMetric, TimingSweepSpec,
};
use qccd_bench::{ExperimentRegistry, LerOutcome};
use qccd_decoder::{CacheStats, DecoderKind, EstimatorConfig, LogicalErrorEstimate, MemoConfig};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::MergeKind;

fn topologies() -> impl Strategy<Value = TopologyKind> {
    prop::sample::select(vec![
        TopologyKind::Grid,
        TopologyKind::Linear,
        TopologyKind::Switch,
    ])
}

fn wirings() -> impl Strategy<Value = WiringMethod> {
    prop::sample::select(vec![WiringMethod::Standard, WiringMethod::Wise])
}

fn decoders() -> impl Strategy<Value = DecoderKind> {
    prop::sample::select(vec![DecoderKind::UnionFind, DecoderKind::ExactMatching])
}

fn arch_points() -> impl Strategy<Value = Vec<ArchPoint>> {
    prop::collection::vec(
        (
            topologies(),
            1usize..32,
            wirings(),
            0.5f64..10.0,
            any::<bool>(),
        )
            .prop_map(|(topology, capacity, wiring, improvement, labelled)| {
                let point = ArchPoint::new(topology, capacity, wiring, improvement);
                if labelled {
                    point.with_label(format!("{topology} c{capacity} custom"))
                } else {
                    point
                }
            }),
        1..4,
    )
}

fn compile_cases() -> impl Strategy<Value = Vec<CompileCase>> {
    prop::collection::vec(
        (2usize..8, topologies(), 2usize..8, 0usize..3).prop_map(
            |(distance, topology, capacity, family)| {
                let code = match family {
                    0 => CodeSpec::Repetition { distance },
                    1 => CodeSpec::RotatedSurface { distance },
                    _ => CodeSpec::UnrotatedSurface { distance },
                };
                CompileCase::new(format!("case d={distance}"), code, topology, capacity)
            },
        ),
        1..5,
    )
}

fn estimators() -> impl Strategy<Value = EstimatorConfig> {
    (
        (1usize..100_000, any::<bool>(), any::<bool>(), 1usize..8),
        (any::<bool>(), 1.0f64..64.0),
    )
        .prop_map(
            |((chunk_shots, early_stop, disable_memo, max_defects), (biased, bias))| {
                let mut config = EstimatorConfig::default().with_chunk_shots(chunk_shots);
                if early_stop {
                    config = config.with_target_std_error(1e-3).with_max_failures(100);
                }
                if biased {
                    config = config.with_importance_bias(bias);
                }
                config.with_memo(if disable_memo {
                    MemoConfig::disabled()
                } else {
                    MemoConfig::default().with_max_defects(max_defects)
                })
            },
        )
}

fn ler_outputs() -> impl Strategy<Value = Vec<LerOutput>> {
    (0usize..6, prop::collection::vec(2usize..20, 1..4)).prop_map(|(selector, distances)| {
        let mut outputs = vec![LerOutput::SampledRates, LerOutput::Lambda];
        outputs.push(match selector {
            0 => LerOutput::Projection {
                distances,
                target: 1e-9,
            },
            1 => LerOutput::Electrodes {
                targets: vec![1e-6, 1e-9],
            },
            2 => LerOutput::DataRate {
                targets: vec![1e-6],
                include_power: true,
            },
            3 => LerOutput::DataRate {
                targets: vec![1e-9],
                include_power: false,
            },
            4 => LerOutput::ShotTime {
                targets: vec![1e-6, 1e-12],
            },
            _ => LerOutput::SampledRates,
        });
        outputs
    })
}

/// Every experiment kind built from one randomized parameter draw.
fn spec_suite() -> impl Strategy<Value = Vec<ExperimentSpec>> {
    (
        (arch_points(), compile_cases(), estimators(), ler_outputs()),
        (
            prop::collection::vec(2usize..12, 1..4),
            1usize..1_000_000,
            decoders(),
            any::<u64>(),
            any::<bool>(),
        ),
    )
        .prop_map(
            |((points, cases, estimator, outputs), (distances, shots, decoder, seed, flag))| {
                let spec = |name: &str, kind: ExperimentKind| ExperimentSpec {
                    name: name.to_string(),
                    title: format!("randomized {name}"),
                    seed,
                    kind,
                };
                vec![
                    spec(
                        "ler",
                        ExperimentKind::LerSweep(LerSweepSpec {
                            configurations: points.clone(),
                            sample_distances: distances.clone(),
                            shots,
                            decoder,
                            estimator,
                            outputs,
                        }),
                    ),
                    spec(
                        "rare_event",
                        ExperimentKind::RareEventLer(RareEventLerSpec {
                            configurations: points.clone(),
                            sample_distances: distances.clone(),
                            shots,
                            biased_shots: 1 + shots / 3,
                            bias: 1.0 + (shots % 50) as f64,
                            decoder,
                            estimator,
                        }),
                    ),
                    spec(
                        "timing",
                        ExperimentKind::TimingSweep(TimingSweepSpec {
                            configurations: points,
                            distances: distances.clone(),
                            metric: if flag {
                                TimingMetric::RoundTime
                            } else {
                                TimingMetric::ShotTime
                            },
                            include_bounds: flag,
                        }),
                    ),
                    spec(
                        "bounds",
                        ExperimentKind::CompilerBounds(CompilerBoundsSpec {
                            cases: cases.clone(),
                        }),
                    ),
                    spec(
                        "baselines",
                        ExperimentKind::BaselineComparison(
                            qccd_bench::spec::BaselineComparisonSpec {
                                cases,
                                rounds: 1 + shots % 7,
                            },
                        ),
                    ),
                    spec(
                        "surgery",
                        ExperimentKind::Surgery(SurgerySpec {
                            capacities: distances.clone(),
                            distances: distances.clone(),
                            merge: if flag { MergeKind::ZZ } else { MergeKind::XX },
                            gate_improvement: 1.0 + (shots % 10) as f64 / 2.0,
                        }),
                    ),
                    spec(
                        "decoders",
                        ExperimentKind::DecoderComparison(DecoderComparisonSpec {
                            distances: distances.clone(),
                            improvements: vec![1.0, 5.5],
                            decoders: vec![decoder],
                            shots,
                            capacity: 2 + shots % 5,
                        }),
                    ),
                    spec(
                        "clustering",
                        ExperimentKind::ClusteringAblation(ClusteringAblationSpec {
                            distances,
                            capacities: vec![3, 5],
                        }),
                    ),
                ]
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_spec_kind_round_trips_through_json_text(specs in spec_suite()) {
        for spec in specs {
            let text = serde_json::to_string_pretty(&spec.to_json())
                .expect("spec serialization cannot fail");
            let value = serde_json::from_str(&text).expect("emitted JSON parses");
            let parsed = ExperimentSpec::from_json(&value).expect("round-trip parses");
            prop_assert_eq!(&parsed, &spec, "kind {}", spec.name);
            // The canonical encoding (and therefore the content hash) is
            // reproducible across the round trip.
            prop_assert_eq!(parsed.content_hash(), spec.content_hash());
        }
    }
}

/// One hostile edit of a JSON member or array entry.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Drop,
    Null,
    /// Replace with the value of another JSON type (index into a table).
    Retype(usize),
    /// Keep the first half of an array (other values are left as they are).
    Truncate,
    /// Wrap the value in a one-entry array.
    Nest,
}

fn edits() -> impl Strategy<Value = Vec<(usize, Edit)>> {
    prop::collection::vec(
        (any::<u64>(), 0usize..5, 0usize..8).prop_map(|(target, kind, retype)| {
            let edit = match kind {
                0 => Edit::Drop,
                1 => Edit::Null,
                2 => Edit::Retype(retype),
                3 => Edit::Truncate,
                _ => Edit::Nest,
            };
            (target as usize, edit)
        }),
        1..4,
    )
}

/// Number of object members and array entries in `doc`, at any depth.
fn positions(doc: &Value) -> usize {
    match doc {
        Value::Object(map) => map.values().map(|v| 1 + positions(v)).sum(),
        Value::Array(items) => items.iter().map(|v| 1 + positions(v)).sum(),
        _ => 0,
    }
}

/// Applies `edit` to the position `*left` counts down to (pre-order);
/// returns whether it was reached.
fn apply(node: &mut Value, left: &mut usize, edit: Edit) -> bool {
    let len = match node {
        Value::Object(map) => map.len(),
        Value::Array(items) => items.len(),
        _ => return false,
    };
    for index in 0..len {
        if *left == 0 {
            match (edit, &mut *node) {
                (Edit::Drop, Value::Object(map)) => {
                    let key = map.keys().nth(index).expect("in range").clone();
                    map.remove(&key);
                }
                (Edit::Drop, Value::Array(items)) => drop(items.remove(index)),
                (edit, node) => {
                    let child = child_mut(node, index);
                    *child = edited(child, edit);
                }
            }
            return true;
        }
        *left -= 1;
        if apply(child_mut(node, index), left, edit) {
            return true;
        }
    }
    false
}

fn child_mut(node: &mut Value, index: usize) -> &mut Value {
    match node {
        Value::Object(map) => map.values_mut().nth(index),
        Value::Array(items) => items.get_mut(index),
        _ => None,
    }
    .expect("a child in range")
}

fn edited(value: &Value, edit: Edit) -> Value {
    match edit {
        Edit::Drop => unreachable!("`apply` drops from the parent container"),
        Edit::Null => Value::Null,
        Edit::Retype(which) => [
            serde_json::json!("7"),
            serde_json::json!(7),
            serde_json::json!(-1),
            serde_json::json!(2.5),
            serde_json::json!(true),
            serde_json::json!({}),
            serde_json::json!([]),
            serde_json::json!([1, "x"]),
        ][which % 8]
            .clone(),
        Edit::Truncate => match value {
            Value::Array(items) => Value::Array(items[..items.len() / 2].to_vec()),
            other => other.clone(),
        },
        Edit::Nest => Value::Array(vec![value.clone()]),
    }
}

/// `doc` after `edits`, each at a position picked modulo the current count,
/// then through JSON text like a file on disk.
fn mutated(doc: &Value, edits: &[(usize, Edit)]) -> Value {
    let mut doc = doc.clone();
    for &(target, edit) in edits {
        let count = positions(&doc);
        if count > 0 {
            apply(&mut doc, &mut (target % count), edit);
        }
    }
    serde_json::from_str(&doc.to_string()).expect("a mutated document is still JSON")
}

fn payloads() -> Vec<Value> {
    let ok = LerOutcome {
        label: "grid c2".to_string(),
        distance: 5,
        decoder: DecoderKind::UnionFind,
        seed: 11,
        shots_requested: 2000,
        result: Ok(LogicalErrorEstimate {
            shots: 2000,
            failures: 3,
            logical_error_rate: 0.0015,
            std_error: 0.000_865,
        }),
        cache: Some(CacheStats {
            hits: 4,
            misses: 3,
            uncacheable: 2,
            quiet_words: 9,
            sparse_words: 2,
            dense_words: 1,
            ..CacheStats::default()
        }),
    };
    let failed = LerOutcome {
        result: Err("routing stuck".to_string()),
        cache: None,
        ..ok.clone()
    };
    vec![outcome_to_json(&ok), outcome_to_json(&failed)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hostile_spec_and_payload_json_never_panics_a_decoder(
        specs in spec_suite(),
        edits in edits(),
    ) {
        for spec in specs {
            let doc = mutated(&spec.to_json(), &edits);
            if let Ok(accepted) = ExperimentSpec::from_json(&doc) {
                let text = accepted.canonical_json();
                let again = ExperimentSpec::from_json(&serde_json::from_str(&text).unwrap())
                    .map_err(|e| TestCaseError::fail(format!("{text} no longer decodes: {e}")))?;
                prop_assert_eq!(&again, &accepted);
                prop_assert_eq!(again.content_hash(), accepted.content_hash());
            }
        }
        for payload in payloads() {
            let doc = mutated(&payload, &edits);
            if let Ok(accepted) = outcome_from_json(&doc) {
                let text = outcome_to_json(&accepted).to_string();
                let again = outcome_from_json(&serde_json::from_str(&text).unwrap())
                    .map_err(|e| TestCaseError::fail(format!("{text} no longer decodes: {e}")))?;
                prop_assert_eq!(outcome_to_json(&again).to_string(), text);
            }
        }
    }
}

#[test]
fn registry_is_complete_and_every_spec_resolves_validates_and_round_trips() {
    let registry = ExperimentRegistry::builtin();
    let expected = [
        "ext_ablation_clustering",
        "ext_decoder_comparison",
        "ext_surgery",
        "fig08a",
        "fig08b",
        "fig09",
        "fig10",
        "fig11",
        "fig12",
        "fig13a",
        "fig13b",
        "rare_event_ler",
        "table2",
        "table3",
    ];
    assert_eq!(registry.len(), expected.len());
    let mut hashes = std::collections::BTreeSet::new();
    for name in expected {
        let spec = registry
            .get(name)
            .unwrap_or_else(|| panic!("{name} must be registered"));
        assert_eq!(spec.name, name, "registry key matches spec name");
        spec.validate()
            .unwrap_or_else(|e| panic!("{name} must validate: {e}"));
        let text = serde_json::to_string_pretty(&spec.to_json()).unwrap();
        let round_trip = ExperimentSpec::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(&round_trip, spec, "{name} must round-trip");
        assert!(
            hashes.insert(spec.content_hash()),
            "{name} hash must be unique"
        );
    }
}
