//! Golden pins for the fault-signature sampler's stream.
//!
//! Every sampled bit feeds the decoder, the estimator and every LER figure,
//! so a change to how a chunk is laid out or indexed must leave the planes
//! exactly as they were. This file pins the FNV-1a of every detector and
//! observable plane sampled from compiled grid c2 memory experiments (the
//! paper's design point) at 1000X d = 7 and 5X d = 5, at chunk sizes of
//! 4 096 and 16 384 shots, for a total that fills whole blocks and one whose
//! last block is ragged; plus the log-weight sums of
//! `sample_chunk_weighted` at one importance-sampling bias. A change that
//! is not meant to move the stream leaves every constant byte-identical;
//! there is no regeneration switch on purpose.

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::{DetectorChunkSampler, FaultTable, SyndromeChunk};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_word(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The fault table of the grid c2, standard-wiring memory experiment at
/// `gate_improvement` and distance `d` (`d` rounds, Z basis).
fn grid_c2_table(gate_improvement: f64, d: usize) -> FaultTable {
    let noisy = Compiler::new(ArchitectureConfig::recommended(gate_improvement))
        .compile_memory_experiment(&rotated_surface_code(d), d, MemoryBasis::Z)
        .expect("the recommended design point compiles")
        .to_noisy_circuit();
    FaultTable::from_circuit(&noisy).expect("consistent annotations")
}

/// Folds the chunk's shape, then every detector plane and every observable
/// plane, word by word, into `hash`.
fn hash_chunk(mut hash: u64, chunk: &SyndromeChunk) -> u64 {
    hash = fnv1a_word(hash, chunk.shot_offset() as u64);
    hash = fnv1a_word(hash, chunk.num_shots() as u64);
    for detector in 0..chunk.num_detectors() {
        for &word in chunk.detector_plane(detector) {
            hash = fnv1a_word(hash, word);
        }
    }
    for observable in 0..chunk.num_observables() {
        for &word in chunk.observable_plane(observable) {
            hash = fnv1a_word(hash, word);
        }
    }
    hash
}

/// `(gate improvement, distance, seed)` of the two pinned design points.
const POINTS: [(f64, usize, u64); 2] = [(1000.0, 7, 2026), (5.0, 5, 2027)];

/// `(total shots, chunk shots)`: whole blocks, and a ragged last block
/// (10 000 = 2 · 4 096 + 1 808), each at both chunk sizes.
const SHAPES: [(usize, usize); 4] = [
    (16_384, 4_096),
    (16_384, 16_384),
    (10_000, 4_096),
    (10_000, 16_384),
];

/// One FNV-1a per `POINTS × SHAPES` entry, in that order.
const STREAM_HASHES: [u64; 8] = [
    0x5bf3_4161_56a7_65b5,
    0x8087_4f83_f304_dc95,
    0xce49_c4cb_b810_f710,
    0xa838_fe04_de5d_dfd4,
    0x867f_e028_4792_0510,
    0x35b0_e065_3f60_4a34,
    0x8386_efd1_3378_ed00,
    0x448a_9132_d543_01f8,
];

#[test]
fn sampled_planes_are_pinned() {
    let mut expected = STREAM_HASHES.iter();
    for &(gate_improvement, d, seed) in &POINTS {
        let table = grid_c2_table(gate_improvement, d);
        for &(total, chunk_shots) in &SHAPES {
            let sampler = DetectorChunkSampler::from_table(&table, total, seed, chunk_shots);
            let hash = (0..sampler.num_chunks()).fold(FNV_OFFSET, |hash, index| {
                hash_chunk(hash, &sampler.sample_chunk(index))
            });
            assert_eq!(
                hash,
                *expected.next().unwrap(),
                "{gate_improvement}X d{d}, {total} shots in {chunk_shots}-shot chunks: \
                 sampled planes drifted (got {hash:#018x})"
            );
        }
    }
}

/// Importance-sampling bias of the weighted pin.
const BIAS: f64 = 20.0;

/// `(planes FNV-1a, FNV-1a of every chunk's log-weight sum bits)` of the
/// 1000X d = 7 point sampled from its biased table over 10 000 shots in
/// 4 096-shot chunks.
const WEIGHTED_HASHES: (u64, u64) = (0xa389_5165_5673_6908, 0xe807_5d09_d28a_c5cf);

#[test]
fn weighted_planes_and_log_weight_sums_are_pinned() {
    let (gate_improvement, d, seed) = POINTS[0];
    let biased = grid_c2_table(gate_improvement, d).biased(BIAS);
    let sampler = DetectorChunkSampler::from_table(&biased.table, 10_000, seed, 4_096);
    let (mut planes, mut sums) = (FNV_OFFSET, FNV_OFFSET);
    let mut log_weights = Vec::new();
    for index in 0..sampler.num_chunks() {
        let chunk = sampler.sample_chunk_weighted(index, &biased.fire_log_ratios, &mut log_weights);
        assert_eq!(log_weights.len(), chunk.num_shots());
        planes = hash_chunk(planes, &chunk);
        let sum: f64 = log_weights.iter().sum();
        sums = fnv1a_word(sums, sum.to_bits());
    }
    assert_eq!(
        (planes, sums),
        WEIGHTED_HASHES,
        "weighted stream drifted (got {planes:#018x}, {sums:#018x})"
    );
}
