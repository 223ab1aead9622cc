//! Property-based tests for syndrome memoization.
//!
//! The memo must be a pure cache: for random detector-error models and shot
//! streams, a memoized `decode_batch` must be **bit-identical** to a
//! cache-disabled decode — per chunk, across repeated chunks through one
//! warm scratch, for both `DecoderKind`s, and end-to-end through the
//! parallel estimator across chunk sizes and thread counts.

use proptest::prelude::*;

use qccd_decoder::{
    estimate_logical_error_rate_report, DecodeScratch, Decoder, DecoderKind, DecodingGraph,
    EstimatorConfig, ExactMatchingDecoder, MemoConfig, SyndromeChunk, UnionFindDecoder,
};
use qccd_sim::{DemError, DetectorErrorModel, NoiseChannel, NoisyCircuit, CANONICAL_BLOCK_SHOTS};

/// A random mostly-graphlike DEM over `n` detectors: a connected chain for
/// matchability plus extra random edges, with random boundary edges and
/// observable crossings.
fn random_dem(
    n: usize,
    probabilities: &[f64],
    extra_edges: &[(usize, usize, bool)],
) -> DetectorErrorModel {
    let mut errors = Vec::new();
    errors.push(DemError {
        probability: probabilities[0],
        detectors: vec![0],
        observables: vec![0],
    });
    for i in 0..n - 1 {
        errors.push(DemError {
            probability: probabilities[(i + 1) % probabilities.len()],
            detectors: vec![i as u32, i as u32 + 1],
            observables: vec![],
        });
    }
    errors.push(DemError {
        probability: probabilities[n % probabilities.len()],
        detectors: vec![n as u32 - 1],
        observables: vec![],
    });
    for &(a, b, crosses) in extra_edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        errors.push(DemError {
            probability: probabilities[(a + b) % probabilities.len()],
            detectors: vec![a.min(b) as u32, a.max(b) as u32],
            observables: if crosses { vec![0] } else { vec![] },
        });
    }
    DetectorErrorModel {
        num_detectors: n,
        num_observables: 1,
        errors,
    }
}

fn probabilities() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..0.3, 4..10)
}

fn extra_edges() -> impl Strategy<Value = Vec<(usize, usize, bool)>> {
    prop::collection::vec((0usize..16, 0usize..16, any::<bool>()), 0..6)
}

/// Random per-shot syndromes over `n` detectors, with enough shots and
/// defect multiplicity to hit the memo (repeats) and overflow its cap.
fn shots(n: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(
        prop::collection::btree_set(0..n, 0..n).prop_map(|s| s.into_iter().collect()),
        1..40,
    )
}

fn all_decoders(graph: &DecodingGraph) -> Vec<Box<dyn Decoder>> {
    vec![
        Box::new(UnionFindDecoder::new(graph.clone())),
        Box::new(ExactMatchingDecoder::new(graph.clone())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoized_decode_batch_is_bit_identical_to_uncached(
        probabilities in probabilities(),
        extra in extra_edges(),
        syndromes in shots(8),
    ) {
        let n = 8;
        let dem = random_dem(n, &probabilities, &extra);
        let graph = DecodingGraph::from_dem(&dem);
        let packed: Vec<(Vec<usize>, Vec<usize>)> = syndromes
            .iter()
            .map(|fired| (fired.clone(), Vec::new()))
            .collect();
        let chunk = SyndromeChunk::from_shots(n, 1, &packed);

        for decoder in &all_decoders(&graph) {
            let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
            let reference = decoder.decode_batch(&chunk, &mut cold);
            // A disabled memo is a cap of 0: never consulted, every noisy
            // shot uncacheable.
            let noisy = syndromes.iter().filter(|fired| !fired.is_empty()).count() as u64;
            prop_assert_eq!(cold.cache_stats().attempts(), 0, "disabled memo is never consulted");
            prop_assert_eq!(cold.cache_stats().uncacheable, noisy);

            // Memoized decode: identical on a cold cache, on a warm cache
            // (second pass over the same chunk), and with a tiny entry cap.
            let mut memoized = DecodeScratch::new();
            for pass in 0..2 {
                let batch = decoder.decode_batch(&chunk, &mut memoized);
                prop_assert_eq!(&batch, &reference, "pass {}", pass);
            }
            let mut capped = DecodeScratch::with_memo_config(
                MemoConfig { max_entries: 2, ..MemoConfig::default() },
            );
            let batch = decoder.decode_batch(&chunk, &mut capped);
            prop_assert_eq!(&batch, &reference);
            prop_assert!(capped.memo_entries() <= 2);
        }
    }

    #[test]
    fn memoized_estimator_is_bit_identical_across_chunks_and_threads(
        seed in 0u64..1000,
        p in 0.01f64..0.1,
        kind in prop::sample::select(vec![
            DecoderKind::UnionFind,
            DecoderKind::ExactMatching,
        ]),
    ) {
        let circuit = noisy_parity_circuit(p);
        let shots = 2 * CANONICAL_BLOCK_SHOTS + 777;
        let reference = estimate_logical_error_rate_report(
            &circuit,
            shots,
            seed,
            kind,
            &EstimatorConfig {
                memo: MemoConfig::disabled(),
                ..EstimatorConfig::default().with_chunk_shots(1).with_num_threads(1)
            },
        )
        .expect("valid annotations").estimate;
        for (chunk_shots, threads, memo) in [
            (CANONICAL_BLOCK_SHOTS, 4, MemoConfig::default()),
            (3 * CANONICAL_BLOCK_SHOTS, 2, MemoConfig::default()),
            (CANONICAL_BLOCK_SHOTS, 2, MemoConfig { max_defects: 1, ..MemoConfig::default() }),
            (2 * CANONICAL_BLOCK_SHOTS, 3, MemoConfig { max_entries: 4, ..MemoConfig::default() }),
        ] {
            let estimate = estimate_logical_error_rate_report(
                &circuit,
                shots,
                seed,
                kind,
                &EstimatorConfig {
                    memo,
                    ..EstimatorConfig::default()
                        .with_chunk_shots(chunk_shots)
                        .with_num_threads(threads)
                },
            )
            .expect("valid annotations").estimate;
            prop_assert_eq!(estimate.shots, reference.shots);
            prop_assert_eq!(
                estimate.failures,
                reference.failures,
                "decoder={:?} chunk_shots={} threads={} memo={:?}",
                kind,
                chunk_shots,
                threads,
                memo
            );
        }
    }
}

/// A three-qubit parity-check circuit with bit-flip noise; small enough that
/// the property test stays fast at tens of thousands of shots.
fn noisy_parity_circuit(p: f64) -> NoisyCircuit {
    use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};
    let q = |i: u32| QubitId::new(i);
    let mref = |i: u32, occurrence: u32| MeasurementRef::new(q(i), occurrence);
    let mut c = NoisyCircuit::new();
    for i in 0..3 {
        c.push_gate(Instruction::Reset(q(i)));
    }
    for round in 0..2u32 {
        c.push_gate(Instruction::Reset(q(2)));
        c.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
        c.push_gate(Instruction::Cnot {
            control: q(0),
            target: q(2),
        });
        c.push_gate(Instruction::Cnot {
            control: q(1),
            target: q(2),
        });
        c.push_gate(Instruction::Measure(q(2)));
        if round == 0 {
            c.add_detector(Detector::new(vec![mref(2, 0)]));
        } else {
            c.add_detector(Detector::new(vec![mref(2, 0), mref(2, 1)]));
        }
    }
    c.push_gate(Instruction::Measure(q(0)));
    c.add_observable(LogicalObservable::new(vec![mref(0, 0)]));
    c
}
