//! Golden pins for the union-find decoder's predicted bits.
//!
//! The union-find kernel may be rewritten for speed, but every bit it
//! predicts is part of the estimator's contract: LER figures, early-stop
//! points and every other golden rest on it. This file pins the FNV-1a of
//! the per-shot predictions of compiled grid c2 memory experiments (the
//! paper's design point), decoded through `decode_batch` with the memo
//! disabled and with the default memo, the same with the memo disabled at
//! denser grid c5 and c12 points, plus a handful of single
//! `Decoder::decode` calls. A pure speed change leaves every constant
//! byte-identical; there is no regeneration switch on purpose. The batch
//! hashes also depend on the sampled stream, so a sampler change that
//! moves `golden_sampler_stream` moves them too.

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{DecodeScratch, Decoder, DecodingGraph, MemoConfig, UnionFindDecoder};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::{sample_detector_chunks, DetectorErrorModel, NoisyCircuit};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// The grid, standard-wiring memory experiment at trap `capacity`,
/// `gate_improvement` and distance `d` (`d` rounds, Z basis).
fn grid(capacity: usize, gate_improvement: f64, d: usize) -> NoisyCircuit {
    let mut arch = ArchitectureConfig::recommended(gate_improvement);
    arch.topology.capacity = capacity;
    Compiler::new(arch)
        .compile_memory_experiment(&rotated_surface_code(d), d, MemoryBasis::Z)
        .expect("the grid design points compile")
        .to_noisy_circuit()
}

fn decoder_for(noisy: &NoisyCircuit) -> UnionFindDecoder {
    let dem = DetectorErrorModel::from_circuit(noisy).expect("consistent annotations");
    UnionFindDecoder::new(DecodingGraph::from_dem(&dem))
}

/// FNV-1a over every shot's predicted observable bits (one byte per
/// observable, shots in order) of `decode_batch` with `memo`.
fn prediction_hash(
    noisy: &NoisyCircuit,
    decoder: &UnionFindDecoder,
    shots: usize,
    seed: u64,
    memo: MemoConfig,
) -> u64 {
    let sampler = sample_detector_chunks(noisy, shots, seed, 1024).expect("consistent annotations");
    let mut scratch = DecodeScratch::with_memo_config(memo);
    let mut hash = FNV_OFFSET;
    for chunk in sampler.chunks() {
        let prediction = decoder.decode_batch(&chunk, &mut scratch);
        for shot in 0..prediction.num_shots() {
            for observable in 0..prediction.num_observables() {
                hash = fnv1a(hash, u8::from(prediction.predicted(shot, observable)));
            }
        }
    }
    hash
}

/// `(gate improvement, distance, shots, seed, FNV-1a)`.
const GOLDEN_POINTS: [(f64, usize, usize, u64, u64); 4] = [
    (1.0, 3, 8192, 2026, 0x4ebe_1fe5_8f4a_3df4),
    (5.0, 5, 8192, 2027, 0x9c91_fd18_34d8_94a3),
    (1.0, 5, 4096, 2028, 0x8672_50b8_d9e4_f102),
    (1000.0, 7, 16384, 2029, 0x00bd_72af_87f5_66db),
];

#[test]
fn batch_predictions_are_pinned_with_and_without_the_memo() {
    for &(gate_improvement, d, shots, seed, expected) in &GOLDEN_POINTS {
        let noisy = grid(2, gate_improvement, d);
        let decoder = decoder_for(&noisy);
        for memo in [MemoConfig::disabled(), MemoConfig::default()] {
            let hash = prediction_hash(&noisy, &decoder, shots, seed, memo);
            assert_eq!(
                hash, expected,
                "{gate_improvement}X d{d}, {shots} shots, seed {seed}, memo {memo:?}: \
                 union-find predictions drifted (got {hash:#018x})"
            );
        }
    }
}

/// `(capacity, gate improvement, shots, seed, FNV-1a)` of grid c5 and c12
/// d = 5 points, fig10's dense regime: at 1X most noisy shots carry 5–16
/// defects. Pinned with the memo disabled, so every noisy shot is decoded.
const DENSE_POINTS: [(usize, f64, usize, u64, u64); 4] = [
    (5, 1.0, 4096, 2030, 0x3f2e_1a75_7b15_0cf9),
    (5, 5.0, 8192, 2031, 0xe12f_3569_aaef_c761),
    (12, 1.0, 4096, 2032, 0x0b1c_572a_8dcb_37df),
    (12, 5.0, 8192, 2033, 0x6d28_fc9e_5226_183f),
];

#[test]
fn dense_grid_predictions_are_pinned() {
    for &(capacity, gate_improvement, shots, seed, expected) in &DENSE_POINTS {
        let noisy = grid(capacity, gate_improvement, 5);
        let decoder = decoder_for(&noisy);
        let hash = prediction_hash(&noisy, &decoder, shots, seed, MemoConfig::disabled());
        assert_eq!(
            hash, expected,
            "grid c{capacity} {gate_improvement}X d5, {shots} shots, seed {seed}: \
             union-find predictions drifted (got {hash:#018x})"
        );
    }
}

/// Defect sets over the 72 detectors of grid c2 d5, from a lone defect to
/// a dense spread, with the prediction each must decode to.
const GOLDEN_SHOTS: [(&[usize], bool); 9] = [
    (&[0], true),
    (&[71], false),
    (&[10, 11], false),
    (&[3, 40], false),
    (&[1, 2, 3, 4, 5], true),
    (&[0, 9, 18, 27, 36, 45, 54, 63], false),
    (&[7, 8, 20, 33, 34, 50, 51, 52, 66, 70], true),
    (
        &[2, 5, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67],
        false,
    ),
    (
        &[
            0, 4, 6, 9, 14, 15, 21, 22, 26, 30, 35, 38, 44, 46, 49, 55, 58, 62, 64, 69,
        ],
        true,
    ),
];

#[test]
fn single_shot_predictions_are_pinned() {
    let decoder = decoder_for(&grid(2, 1.0, 5));
    assert_eq!(decoder.num_observables(), 1);
    for &(fired, expected) in &GOLDEN_SHOTS {
        assert_eq!(
            decoder.decode(fired),
            vec![expected],
            "union-find prediction for {fired:?} drifted"
        );
    }
}
