//! Golden pins for the exact matching decoder's predicted bits.
//!
//! The exact decoder is the accuracy reference the union-find decoder is
//! measured against (`ext_decoder_comparison`), so its searches may be
//! rewritten for speed but every bit it predicts and every matching weight
//! it reports is part of the contract. This file pins the FNV-1a of the
//! per-shot predictions of compiled grid memory experiments, decoded
//! through `decode_batch` with the memo disabled (every noisy shot reaches
//! the decoder): the dense grid c5 and c12 1X d = 5 points and grid c2 1X
//! d = 7, where many shots carry more than 14 defects. It also pins a
//! handful of single `Decoder::decode` calls and the bits of
//! `ExactMatchingDecoder::matching_weight` on grid c2 1X d = 5. A pure speed
//! change leaves every constant byte-identical; there is no regeneration
//! switch on purpose. The batch hashes also depend on the sampled stream,
//! so a sampler change that moves `golden_sampler_stream` moves them too.

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{DecodeScratch, Decoder, DecodingGraph, ExactMatchingDecoder, MemoConfig};
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

fn decoder_for(noisy: &NoisyCircuit) -> ExactMatchingDecoder {
    let dem = DetectorErrorModel::from_circuit(noisy).expect("consistent annotations");
    ExactMatchingDecoder::new(DecodingGraph::from_dem(&dem))
}

/// FNV-1a over every shot's predicted observable bits (one byte per
/// observable, shots in order) of `decode_batch` with the memo disabled.
fn prediction_hash(noisy: &NoisyCircuit, shots: usize, seed: u64) -> u64 {
    let decoder = decoder_for(noisy);
    let sampler = sample_detector_chunks(noisy, shots, seed, 1024).expect("consistent annotations");
    let mut scratch = DecodeScratch::with_memo_config(MemoConfig::disabled());
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

fn check_batch(capacity: usize, d: usize, shots: usize, seed: u64, expected: u64) {
    let hash = prediction_hash(&grid(capacity, 1.0, d), shots, seed);
    assert_eq!(
        hash, expected,
        "grid c{capacity} 1X d{d}, {shots} shots, seed {seed}: \
         exact matching predictions drifted (got {hash:#018x})"
    );
}

#[test]
fn dense_grid_d5_predictions_are_pinned() {
    check_batch(5, 5, 2048, 2040, 0xf630_15c3_eef5_3838);
    check_batch(12, 5, 2048, 2041, 0x1b54_3bc9_fb12_9d06);
}

#[test]
fn grid_c2_d7_predictions_are_pinned() {
    check_batch(2, 7, 2048, 2042, 0x0058_2801_3c76_53f6);
}

/// Defect sets over the 72 detectors of grid c2 1X d5, from a lone defect
/// to a dense spread, with the prediction each must decode to and the bits
/// of its matching weight.
const GOLDEN_SHOTS: [(&[usize], bool, u64); 9] = [
    (&[0], true, 0x4010_f91e_2557_4959),
    (&[71], false, 0x4011_a19c_ac49_f606),
    (&[10, 11], false, 0x400e_2763_50fd_e02f),
    (&[3, 40], false, 0x4023_1241_89ef_c856),
    (&[1, 2, 3, 4, 5], true, 0x4028_a69a_7076_dcbc),
    (
        &[0, 9, 18, 27, 36, 45, 54, 63],
        false,
        0x4032_8915_bb6c_5c30,
    ),
    (
        &[7, 8, 20, 33, 34, 50, 51, 52, 66, 70],
        true,
        0x403f_5515_3596_cf84,
    ),
    (
        &[2, 5, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67],
        false,
        0x4049_80ed_0168_380c,
    ),
    (
        &[
            0, 4, 6, 9, 14, 15, 21, 22, 26, 30, 35, 38, 44, 46, 49, 55, 58, 62, 64, 69,
        ],
        true,
        0x404f_0d03_d00e_9dac,
    ),
];

#[test]
fn single_shot_predictions_and_weights_are_pinned() {
    let decoder = decoder_for(&grid(2, 1.0, 5));
    assert_eq!(decoder.num_observables(), 1);
    for &(fired, flip, weight_bits) in &GOLDEN_SHOTS {
        let weight = decoder.matching_weight(fired).map(f64::to_bits);
        assert_eq!(
            decoder.decode(fired),
            vec![flip],
            "exact matching prediction for {fired:?} drifted"
        );
        assert_eq!(
            weight,
            Some(weight_bits),
            "exact matching weight for {fired:?} drifted (got {:?})",
            weight.map(|w| format!("{w:#018x}"))
        );
    }
}
