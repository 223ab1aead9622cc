//! Property battery for the word-parallel batch decode path.
//!
//! `decode_batch` (word-parallel tile scan) must be **bit-identical** to
//! `decode_batch_per_shot` (the per-shot reference loop) and to a cold
//! memo-disabled decode — same prediction bits *and* the same
//! hit/miss/uncacheable counters — for random decoding graphs and shot
//! streams, for all decoder kinds, with the memo on, off, capped or
//! defect-limited; and the
//! estimator must count exactly the failures a per-shot reference loop
//! over the same chunks counts, and the same estimate (including early-stop
//! points) across chunk sizes, thread counts and memo configurations. The shot streams come in two mixes: quiet-to-heavy lanes, and
//! lanes that all carry at least five defects (above the default memo cap,
//! the regime a surface code reaches at physical error rates of 5e-3 and
//! above), so every word is counted dense and every lane ends in a plain
//! `decode_shot`. Non-random sweeps pin the same contract on real rotated
//! surface codes at distances {3, 5, 7} and at a biased-high error rate.

use proptest::prelude::*;

use qccd_decoder::{
    estimate_logical_error_rate_report, CacheStats, DecodeScratch, Decoder, DecoderKind,
    DecodingGraph, EstimatorConfig, ExactMatchingDecoder, MemoConfig, SyndromeChunk,
    UnionFindDecoder, MEMO_KEY_CAPACITY,
};
use qccd_sim::{
    sample_detector_chunks, DemError, DetectorErrorModel, NoiseChannel, NoisyCircuit,
    CANONICAL_BLOCK_SHOTS,
};

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

/// Random per-shot syndromes over `n` detectors. Up to 150 shots so chunks
/// span multiple words, with word-boundary lanes and ragged tails arising
/// naturally; defect multiplicities range from quiet to above the memo cap.
fn shots(n: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(
        prop::collection::btree_set(0..n, 0..n).prop_map(|s| s.into_iter().collect()),
        1..150,
    )
}

/// Heavy shot streams over `n` detectors: every lane fires at least five
/// detectors, above the default memo defect cap of four, so every word is
/// counted dense and every lane is uncacheable.
fn above_cap_shots(n: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(
        prop::collection::btree_set(0..n, 5..n + 1).prop_map(|s| s.into_iter().collect()),
        1..80,
    )
}

fn all_decoders(graph: &DecodingGraph) -> Vec<Box<dyn Decoder>> {
    vec![
        Box::new(UnionFindDecoder::new(graph.clone())),
        Box::new(ExactMatchingDecoder::new(graph.clone())),
        Box::new(ExactMatchingDecoder::new(graph.clone()).with_max_exact_defects(2)),
    ]
}

/// The stats components both paths must agree on (the word path
/// additionally fills the `*_words` counters, which the per-shot
/// loop leaves at zero by construction).
fn comparable(stats: CacheStats) -> (u64, u64, u64) {
    (stats.hits, stats.misses, stats.uncacheable)
}

/// Word path vs per-shot loop vs a cold memo-disabled decode, for every
/// decoder kind under every given memo configuration: identical prediction
/// bits cold and warm, identical comparable stats and entry counts.
fn check_word_parallel_identity(
    n: usize,
    dem: &DetectorErrorModel,
    syndromes: &[Vec<usize>],
    memo_configs: &[MemoConfig],
) -> Result<(), TestCaseError> {
    let graph = DecodingGraph::from_dem(dem);
    let packed: Vec<(Vec<usize>, Vec<usize>)> = syndromes
        .iter()
        .map(|fired| (fired.clone(), Vec::new()))
        .collect();
    let chunk = SyndromeChunk::from_shots(n, 1, &packed);

    for decoder in &all_decoders(&graph) {
        // The ground truth never touches the memo.
        let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
        let truth = decoder.decode_batch_per_shot(&chunk, &mut cold);

        for &memo in memo_configs {
            // Cold pass, then a warm second pass over the same chunk
            // through the same scratches.
            let mut word = DecodeScratch::with_memo_config(memo);
            let mut per_shot = DecodeScratch::with_memo_config(memo);
            for pass in 0..2 {
                let batch = decoder.decode_batch(&chunk, &mut word);
                let reference = decoder.decode_batch_per_shot(&chunk, &mut per_shot);
                prop_assert_eq!(&batch, &reference, "word vs per-shot, pass {}", pass);
                prop_assert_eq!(&batch, &truth, "word vs cold truth, pass {}", pass);
            }
            prop_assert_eq!(
                comparable(word.cache_stats()),
                comparable(per_shot.cache_stats()),
                "hit/miss accounting must match the per-shot loop"
            );
            prop_assert_eq!(word.memo_entries(), per_shot.memo_entries());
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_word_parallel_identity(
        probabilities in probabilities(),
        extra in extra_edges(),
        syndromes in shots(8),
    ) {
        let dem = random_dem(8, &probabilities, &extra);
        check_word_parallel_identity(8, &dem, &syndromes, &[
            MemoConfig::default(),
            MemoConfig::disabled(),
            MemoConfig { max_defects: 1, ..MemoConfig::default() },
            MemoConfig { max_entries: 3, ..MemoConfig::default() },
        ])?;
    }

    /// Every lane above the default cap: the whole stream takes the
    /// uncacheable rung unless the cap is raised to meet it.
    #[test]
    fn prop_above_cap_lanes_identity(
        probabilities in probabilities(),
        extra in extra_edges(),
        syndromes in above_cap_shots(12),
    ) {
        let dem = random_dem(12, &probabilities, &extra);
        check_word_parallel_identity(12, &dem, &syndromes, &[
            MemoConfig::default(),
            MemoConfig::disabled(),
            // Raising the cap to the key capacity makes the 5- and
            // 6-defect lanes cacheable again.
            MemoConfig { max_defects: MEMO_KEY_CAPACITY, ..MemoConfig::default() },
            MemoConfig { max_entries: 3, ..MemoConfig::default() },
        ])?;
    }

    #[test]
    fn estimator_is_identical_on_word_and_per_shot_paths(
        seed in 0u64..1000,
        p in 0.01f64..0.1,
        kind in prop::sample::select(vec![
            DecoderKind::UnionFind,
            DecoderKind::ExactMatching,
        ]),
        early_stop in any::<bool>(),
    ) {
        let circuit = noisy_parity_circuit(p);
        let shots = 2 * CANONICAL_BLOCK_SHOTS + 777;
        // The per-shot side: every chunk through the reference loop with
        // the memo off, failures counted shot by shot.
        let dem = DetectorErrorModel::from_circuit(&circuit).expect("valid annotations");
        let decoder = kind.build(DecodingGraph::from_dem(&dem));
        let sampler = sample_detector_chunks(&circuit, shots, seed, CANONICAL_BLOCK_SHOTS)
            .expect("valid annotations");
        let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
        let mut per_shot_failures = 0usize;
        for chunk in sampler.chunks() {
            let predicted = decoder.decode_batch_per_shot(&chunk, &mut cold);
            per_shot_failures += (0..chunk.num_shots())
                .filter(|&shot| predicted.predicted(shot, 0) != chunk.observable_flipped(shot, 0))
                .count();
        }
        let mut estimates = Vec::new();
        for (chunk_shots, threads, memo) in [
            (CANONICAL_BLOCK_SHOTS, 4, MemoConfig::default()),
            (3 * CANONICAL_BLOCK_SHOTS, 2, MemoConfig::disabled()),
            (CANONICAL_BLOCK_SHOTS, 2, MemoConfig { max_defects: 1, ..MemoConfig::default() }),
        ] {
            let mut config = EstimatorConfig {
                memo,
                ..EstimatorConfig::default()
                    .with_chunk_shots(chunk_shots)
                    .with_num_threads(threads)
            };
            if early_stop {
                // Identical early-stop points are part of the contract.
                config = config.with_max_failures(25);
            }
            let word = estimate_logical_error_rate_report(&circuit, shots, seed, kind, &config)
                .expect("valid annotations").estimate;
            if word.shots == shots {
                prop_assert_eq!(
                    word.failures, per_shot_failures,
                    "chunk_shots={} threads={} memo={:?}", chunk_shots, threads, memo
                );
            }
            estimates.push((word.shots, word.failures));
        }
        // Chunking, threads and the memo must not move the estimate (or
        // its early-stop point) either.
        prop_assert!(estimates.windows(2).all(|pair| pair[0] == pair[1]), "{:?}", estimates);
    }
}

/// A distance-`d` rotated-surface-code memory experiment with depolarizing
/// noise of strength `p` on every data qubit at the start of each round.
fn noisy_surface_code(d: usize, p: f64) -> NoisyCircuit {
    use qccd_circuit::Instruction;
    use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};

    let code = rotated_surface_code(d);
    let exp = memory_experiment(&code, d, MemoryBasis::Z);
    let data = code.data_qubits();
    let mut noisy = NoisyCircuit::new();
    noisy.pad_qubits(exp.circuit.num_qubits());
    let first_ancilla = code.ancilla_qubits()[0];
    for instruction in exp.circuit.iter() {
        if let Instruction::Reset(q) = instruction {
            if *q == first_ancilla {
                for &dq in &data {
                    noisy.push_noise(NoiseChannel::Depolarize1 { qubit: dq, p });
                }
            }
        }
        noisy.push_gate(*instruction);
    }
    for det in exp.circuit.detectors() {
        noisy.add_detector(det.clone());
    }
    for obs in exp.circuit.observables() {
        noisy.add_observable(obs.clone());
    }
    noisy
}

/// One sampled chunk of [`noisy_surface_code`] through every decoder kind:
/// the word path, the per-shot path and a cold memo-disabled decode must
/// agree bit for bit over a cold and a warm pass, with identical comparable
/// stats. Returns the word path's two-pass stats per kind for
/// regime-specific assertions.
fn surface_code_word_stats(d: usize, p: f64, shots: usize, seed: u64) -> Vec<CacheStats> {
    let noisy = noisy_surface_code(d, p);
    let sampler = sample_detector_chunks(&noisy, shots, seed, shots).expect("valid annotations");
    let chunk = sampler.sample_chunk(0);
    let dem = DetectorErrorModel::from_circuit(&noisy).expect("valid annotations");
    let graph = DecodingGraph::from_dem(&dem);
    [DecoderKind::UnionFind, DecoderKind::ExactMatching]
        .into_iter()
        .map(|kind| {
            let decoder = kind.build(graph.clone());
            let mut word = DecodeScratch::new();
            let mut per_shot = DecodeScratch::new();
            let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
            let truth = decoder.decode_batch_per_shot(&chunk, &mut cold);
            for pass in 0..2 {
                let from_word = decoder.decode_batch(&chunk, &mut word);
                let reference = decoder.decode_batch_per_shot(&chunk, &mut per_shot);
                assert_eq!(from_word, reference, "d={d} kind={kind:?} pass={pass}");
                assert_eq!(from_word, truth, "d={d} kind={kind:?} pass={pass}");
            }
            assert_eq!(
                comparable(word.cache_stats()),
                comparable(per_shot.cache_stats()),
                "d={d} kind={kind:?}"
            );
            word.cache_stats()
        })
        .collect()
}

/// Rotated surface codes at the paper's sampled distances: the word path
/// must match the per-shot path bit for bit on real syndrome streams for
/// every decoder kind.
#[test]
fn surface_code_chunks_decode_identically_at_d3_d5_d7() {
    for d in [3usize, 5, 7] {
        let shots = 2048;
        for stats in surface_code_word_stats(d, 0.01, shots, 11) {
            assert_eq!(
                stats.words(),
                2 * (shots as u64).div_ceil(64),
                "every word is counted exactly once per pass (d={d})"
            );
        }
    }
}

/// Biased high (~25x the paper's operating point), so most shots carry more
/// than four defects: above-cap lanes dominate, and each is one plain
/// `decode_shot` on both paths.
#[test]
fn surface_code_above_cap_lanes_are_identical_at_high_p() {
    for d in [3usize, 5] {
        for stats in surface_code_word_stats(d, 0.05, 1024, 17) {
            assert!(
                stats.uncacheable > 0,
                "high p must push lanes above the memo cap (d={d})"
            );
            assert_eq!(
                (
                    stats.dense_hits,
                    stats.dense_misses,
                    stats.cluster_conflicts
                ),
                (0, 0, 0),
                "retired counters stay zero (d={d})"
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
