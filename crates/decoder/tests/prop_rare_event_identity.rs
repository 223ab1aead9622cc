//! Property battery for the importance-sampled (rare-event) estimator.
//!
//! The biased estimate must be **bit-identical** — same decoded shot count,
//! failure count, and the exact f64 bits of the rate and its standard error
//! — no matter how the pipeline is scheduled: across chunk sizes, thread
//! counts and memo configurations. The weighted sums fold block by block
//! in canonical block order, so none of those knobs may move a single bit. A deterministic companion test pins the
//! statistical contract: the reweighted estimate agrees with plain Monte
//! Carlo within two combined standard errors on an overlap point.

use proptest::prelude::*;

use qccd_circuit::{Instruction, QubitId};
use qccd_decoder::{estimate_logical_error_rate_report, DecoderKind, EstimatorConfig, MemoConfig};
use qccd_qec::{memory_experiment, repetition_code, MemoryBasis};
use qccd_sim::{NoiseChannel, NoisyCircuit, CANONICAL_BLOCK_SHOTS};

/// A repetition-code memory experiment with depolarizing noise on every
/// data qubit at the start of each round — the same workload the estimator
/// unit tests use, small enough for a property battery yet with a real
/// logical failure mechanism.
fn noisy_repetition_memory(distance: usize, rounds: usize, p: f64) -> NoisyCircuit {
    let code = repetition_code(distance);
    let exp = memory_experiment(&code, rounds, MemoryBasis::Z);
    let data: Vec<QubitId> = code.data_qubits();
    let mut noisy = NoisyCircuit::new();
    noisy.pad_qubits(exp.circuit.num_qubits());
    let first_ancilla = code.ancilla_qubits()[0];
    for instruction in exp.circuit.iter() {
        if let Instruction::Reset(q) = instruction {
            if *q == first_ancilla {
                for &d in &data {
                    noisy.push_noise(NoiseChannel::Depolarize1 { qubit: d, p });
                }
            }
        }
        noisy.push_gate(*instruction);
    }
    for detector in exp.circuit.detectors() {
        noisy.add_detector(detector.clone());
    }
    for observable in exp.circuit.observables() {
        noisy.add_observable(observable.clone());
    }
    noisy
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The importance-sampled estimate is a pure function of
    /// `(circuit, shots, seed, bias)`: chunk size, thread count and memo
    /// configuration must all reproduce the reference estimate bit for bit.
    #[test]
    fn prop_importance_sampled_estimate_is_schedule_invariant(
        seed in 0u64..500,
        p in 0.01f64..0.08,
        bias in 1.0f64..6.0,
        kind in prop::sample::select(vec![
            DecoderKind::UnionFind,
            DecoderKind::ExactMatching,
        ]),
    ) {
        let circuit = noisy_repetition_memory(3, 2, p);
        let shots = 2 * CANONICAL_BLOCK_SHOTS + 777;
        let base = EstimatorConfig::default().with_importance_bias(bias);
        let reference = estimate_logical_error_rate_report(
            &circuit, shots, seed, kind,
            &base.with_chunk_shots(CANONICAL_BLOCK_SHOTS).with_num_threads(1),
        ).expect("valid annotations").estimate;

        for (chunk_shots, threads, memo) in [
            (CANONICAL_BLOCK_SHOTS, 4, MemoConfig::default()),
            (3 * CANONICAL_BLOCK_SHOTS, 2, MemoConfig::disabled()),
            (usize::MAX, 3, MemoConfig::default().with_max_defects(1)),
        ] {
            let variant = estimate_logical_error_rate_report(
                &circuit, shots, seed, kind,
                &base.with_chunk_shots(chunk_shots)
                    .with_num_threads(threads)
                    .with_memo(memo),
            ).expect("valid annotations").estimate;
            prop_assert_eq!(
                (variant.shots, variant.failures),
                (reference.shots, reference.failures),
                "chunk_shots={} threads={}", chunk_shots, threads
            );
            prop_assert_eq!(
                variant.logical_error_rate.to_bits(),
                reference.logical_error_rate.to_bits(),
                "weighted rate must not depend on scheduling \
                 (chunk_shots={} threads={})",
                chunk_shots, threads
            );
            prop_assert_eq!(
                variant.std_error.to_bits(),
                reference.std_error.to_bits(),
                "weighted error bar must not depend on scheduling \
                 (chunk_shots={} threads={})",
                chunk_shots, threads
            );
        }
    }
}

/// The statistical contract at a pinned overlap point: the reweighted
/// importance-sampled estimate agrees with plain Monte Carlo within two
/// combined standard errors, while decoding several times fewer failures'
/// worth of shots. Fully deterministic (fixed seed), so this is a golden
/// bound, not a flaky statistical one.
#[test]
fn importance_sampling_matches_plain_mc_within_two_sigma() {
    let circuit = noisy_repetition_memory(5, 2, 0.02);
    // ~13 plain failures expected: a zero-failure stream is a 2e-6 event,
    // not a seed to be hunted.
    let shots = 64 * CANONICAL_BLOCK_SHOTS;
    let seed = 21;
    let plain = estimate_logical_error_rate_report(
        &circuit,
        shots,
        seed,
        DecoderKind::UnionFind,
        &EstimatorConfig::default(),
    )
    .expect("valid annotations")
    .estimate;
    let biased = estimate_logical_error_rate_report(
        &circuit,
        shots,
        seed,
        DecoderKind::UnionFind,
        &EstimatorConfig::default().with_importance_bias(5.0),
    )
    .expect("valid annotations")
    .estimate;
    assert!(plain.failures > 0, "plain MC must converge at this point");
    assert!(
        biased.failures > plain.failures,
        "the biased channel must make failures more frequent ({} vs {})",
        biased.failures,
        plain.failures
    );
    let gap = (plain.logical_error_rate - biased.logical_error_rate).abs();
    let sigma = plain.std_error.hypot(biased.std_error);
    assert!(
        gap <= 2.0 * sigma,
        "importance-sampled estimate must agree with plain MC within 2 sigma: \
         gap {gap:.3e}, sigma {sigma:.3e}"
    );
}
