//! Exactness of the syndrome chunk's occupancy index, for every producer.
//!
//! A chunk's index must set bit `w` of tile `t`'s mask for detector `d`
//! exactly when word `64·t + w` of detector `d`'s plane is non-zero, with
//! no bit past the last word — the decoder reads only the words the index
//! names, so a missing bit drops fired shots and a stray bit reads a word
//! that is not there. Checked on zeroed and `from_shots` chunks, on the
//! builder through index frames, word blocks straddling word boundaries,
//! `append`, and `finish` after its planes were sized wider or widened by
//! doubling, on the sampler at 1X, 5X and 1000X on grid c2, and on a tiny
//! circuit whose two certain faults cancel a detector's words back to zero.

use proptest::prelude::*;

use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};
use qccd_core::{ArchitectureConfig, Compiler};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::{
    sample_detector_chunks, NoiseChannel, NoisyCircuit, SyndromeChunk, SyndromeChunkBuilder,
    CANONICAL_BLOCK_SHOTS,
};

/// Panics unless every occupancy bit of `chunk` agrees with its plane word.
fn assert_index_exact(chunk: &SyndromeChunk) {
    for tile in 0..chunk.words().div_ceil(64) {
        let masks = chunk.tile_occupancy(tile);
        assert_eq!(masks.len(), chunk.num_detectors(), "one mask per detector");
        for (detector, &mask) in masks.iter().enumerate() {
            let plane = chunk.detector_plane(detector);
            for w in 0..64 {
                let word = tile * 64 + w;
                let non_zero = word < chunk.words() && plane[word] != 0;
                assert_eq!(
                    mask >> w & 1 == 1,
                    non_zero,
                    "detector {detector}, word {word} of {}: index bit disagrees with the plane",
                    chunk.words()
                );
            }
        }
    }
}

fn fires(seed: u64, shot: usize, detector: usize) -> bool {
    qccd_sim::block_seed(seed ^ shot as u64, detector as u64).is_multiple_of(8)
}

/// `shots` pseudo-random shots over `num_detectors` detectors, about an
/// eighth of the detectors firing per shot and every fourth shot quiet.
fn random_shots(num_detectors: usize, shots: usize, seed: u64) -> Vec<Vec<usize>> {
    (0..shots)
        .map(|s| {
            (0..num_detectors)
                .filter(|&d| !s.is_multiple_of(4) && fires(seed, s, d))
                .collect()
        })
        .collect()
}

fn from_shots(num_detectors: usize, shots: &[Vec<usize>]) -> SyndromeChunk {
    let packed: Vec<(Vec<usize>, Vec<usize>)> = shots
        .iter()
        .map(|fired| (fired.clone(), Vec::new()))
        .collect();
    SyndromeChunk::from_shots(num_detectors, 1, &packed)
}

/// Pushes `shots` into `builder`, alternating index frames and shot-major
/// word blocks of `block` shots (1..=64), so blocks straddle word
/// boundaries whenever `block` does not divide 64.
fn push_mixed(builder: &mut SyndromeChunkBuilder, shots: &[Vec<usize>], block: usize) {
    for (index, group) in shots.chunks(block).enumerate() {
        if index % 2 == 0 {
            for frame in group {
                builder.push_frame(frame);
            }
        } else {
            let mut planes = vec![0u64; builder.num_detectors()];
            for (s, frame) in group.iter().enumerate() {
                for &d in frame {
                    planes[d] |= 1u64 << s;
                }
            }
            builder.push_word_block(&planes, group.len());
        }
    }
}

#[test]
fn zeroed_chunks_have_no_bit_set() {
    // Zero shots, one ragged word, a ragged single tile (2 000 shots = 32
    // words), exactly one tile, and one tile plus a ragged second.
    for shots in [0usize, 1, 2_000, 4_096, 5_000] {
        for detectors in [0usize, 1, 70] {
            let chunk = SyndromeChunk::zeroed(3, 17, shots, detectors, 2);
            assert_index_exact(&chunk);
            assert_eq!(chunk.words(), shots.div_ceil(64));
        }
    }
}

#[test]
fn from_shots_chunks_across_tile_shapes_are_exact() {
    for (shots, seed) in [
        (0usize, 1u64),
        (1, 2),
        (63, 3),
        (2_000, 4),
        (4_096, 5),
        (5_000, 6),
    ] {
        assert_index_exact(&from_shots(37, &random_shots(37, shots, seed)));
    }
    // A detector that fires in one shot of the second tile only.
    let mut shots = vec![Vec::new(); 4_200];
    shots[4_150] = vec![5];
    let chunk = from_shots(6, &shots);
    assert_index_exact(&chunk);
    assert_eq!(chunk.tile_occupancy(0), &[0; 6]);
    assert_eq!(chunk.tile_occupancy(1)[5], 1u64 << (4_150 / 64 - 64));
}

#[test]
fn builder_finish_after_narrowing_and_widening_is_exact() {
    let shots = random_shots(50, 4_500, 9);
    // Sized for 8 192 shots, finished at 4 500 (69 words): narrowed.
    let mut sized = SyndromeChunkBuilder::with_capacity(50, 1, 8_192);
    push_mixed(&mut sized, &shots, 40);
    let narrowed = sized.finish(0, 0);
    assert_index_exact(&narrowed);
    // One word wide at first, doubled to 128 words on the way to 4 500
    // shots, then narrowed by `finish`.
    let mut grown = SyndromeChunkBuilder::new(50, 1);
    push_mixed(&mut grown, &shots, 23);
    let widened = grown.finish(0, 0);
    assert_index_exact(&widened);
    // Exactly the allocated width: no re-lay in `finish`.
    let mut exact = SyndromeChunkBuilder::with_capacity(50, 1, 4_096);
    push_mixed(&mut exact, &shots[..4_096], 64);
    assert_index_exact(&exact.finish(0, 0));
    let reference = from_shots(50, &shots);
    assert_eq!(narrowed, reference);
    assert_eq!(widened, reference);
    // A zero-shot finish of a builder whose planes were handed over.
    assert_index_exact(&grown.finish(0, 0));
}

#[test]
fn appended_builders_are_exact() {
    let shots = random_shots(40, 4_300, 11);
    let mut head = SyndromeChunkBuilder::new(40, 1);
    push_mixed(&mut head, &shots[..4_032], 17);
    let mut tail = SyndromeChunkBuilder::with_capacity(40, 1, 4_096);
    push_mixed(&mut tail, &shots[4_032..], 30);
    head.append(&mut tail);
    let chunk = head.finish(0, 0);
    assert_index_exact(&chunk);
    assert_eq!(chunk, from_shots(40, &shots));
    // The emptied source is reused for a batch of its own.
    push_mixed(&mut tail, &shots[..100], 9);
    assert_index_exact(&tail.finish(0, 0));
}

/// One frame, then a 64-shot block whose only set bit is its shot 63: the
/// block's bits shift out of word 0 entirely and land in word 1.
fn straddling_builder(num_detectors: usize, detector: usize) -> SyndromeChunkBuilder {
    let mut builder = SyndromeChunkBuilder::new(num_detectors, 1);
    builder.push_frame(&[]);
    let mut planes = vec![0u64; num_detectors];
    planes[detector] = 1 << 63;
    builder.push_word_block(&planes, 64);
    builder
}

#[test]
fn a_block_shifted_wholly_into_the_next_word_indexes_only_that_word() {
    let (num_detectors, detector) = (20, 7);
    let mut shots = vec![Vec::new(); 65];
    shots[64] = vec![detector];
    let chunk = straddling_builder(num_detectors, detector).finish(0, 0);
    assert_eq!(chunk.detector_plane(detector), &[0, 1]);
    assert_eq!(chunk.tile_occupancy(0)[detector], 0b10, "word 1 only");
    assert_index_exact(&chunk);
    assert_eq!(chunk, from_shots(num_detectors, &shots));

    // The same builder appended behind 63 words, so its second word opens
    // tile 1.
    let head_shots = random_shots(num_detectors, 63 * 64, 21);
    let mut head = SyndromeChunkBuilder::new(num_detectors, 1);
    push_mixed(&mut head, &head_shots, 64);
    head.append(&mut straddling_builder(num_detectors, detector));
    let chunk = head.finish(0, 0);
    assert_eq!(chunk.detector_plane(detector)[63..], [0, 1]);
    assert_eq!(
        chunk.tile_occupancy(1)[detector],
        1,
        "word 64 is tile 1's word 0"
    );
    assert_index_exact(&chunk);
    assert_eq!(
        chunk,
        from_shots(num_detectors, &[head_shots, shots].concat())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn builder_and_from_shots_chunks_are_exact(
        num_detectors in 1usize..90,
        shots in 0usize..700,
        block in 1usize..65,
        seed in any::<u64>(),
    ) {
        let fired = random_shots(num_detectors, shots, seed);
        let mut builder = SyndromeChunkBuilder::new(num_detectors, 1);
        push_mixed(&mut builder, &fired, block);
        let built = builder.finish(0, 0);
        assert_index_exact(&built);
        let reference = from_shots(num_detectors, &fired);
        assert_index_exact(&reference);
        prop_assert_eq!(built, reference);
    }
}

/// The grid c2, standard-wiring memory experiment at `gate_improvement`
/// and distance `d` (`d` rounds, Z basis).
fn grid_c2(gate_improvement: f64, d: usize) -> NoisyCircuit {
    Compiler::new(ArchitectureConfig::recommended(gate_improvement))
        .compile_memory_experiment(&rotated_surface_code(d), d, MemoryBasis::Z)
        .expect("the recommended design point compiles")
        .to_noisy_circuit()
}

#[test]
fn sampled_chunks_are_exact_from_noisy_to_quiet() {
    for (gate_improvement, d) in [(1.0, 3), (5.0, 3), (1000.0, 5)] {
        let noisy = grid_c2(gate_improvement, d);
        // A ragged last block, in chunks of one block and of two tiles
        // plus a ragged third.
        for chunk_shots in [CANONICAL_BLOCK_SHOTS, 3 * CANONICAL_BLOCK_SHOTS] {
            let sampler = sample_detector_chunks(&noisy, 10_000, 5, chunk_shots)
                .expect("consistent annotations");
            for chunk in sampler.chunks() {
                assert_index_exact(&chunk);
            }
        }
    }
}

fn q(i: u32) -> QubitId {
    QubitId::new(i)
}

/// Qubit 0 takes two bit flips of probability `p` before its measurement,
/// qubit 1 one flip of 0.3; one detector and one observable per qubit.
fn double_flip_circuit(p: f64) -> NoisyCircuit {
    let mut c = NoisyCircuit::new();
    c.push_gate(Instruction::Reset(q(0)));
    c.push_gate(Instruction::Reset(q(1)));
    c.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
    c.push_noise(NoiseChannel::BitFlip {
        qubit: q(1),
        p: 0.3,
    });
    c.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
    c.push_gate(Instruction::Measure(q(0)));
    c.push_gate(Instruction::Measure(q(1)));
    for i in 0..2 {
        let m = MeasurementRef::new(q(i), 0);
        c.add_detector(Detector::new(vec![m]));
        c.add_observable(LogicalObservable::new(vec![m]));
    }
    c
}

/// Detector 0 reads qubit 0 after two flips of probability `p`; a CNOT
/// between them copies the first onto qubit 1, which detector 1 reads.
fn copied_double_flip_circuit(p: f64) -> NoisyCircuit {
    let mut c = NoisyCircuit::new();
    c.push_gate(Instruction::Reset(q(0)));
    c.push_gate(Instruction::Reset(q(1)));
    c.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
    c.push_gate(Instruction::Cnot {
        control: q(0),
        target: q(1),
    });
    c.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
    c.push_gate(Instruction::Measure(q(0)));
    c.push_gate(Instruction::Measure(q(1)));
    for i in 0..2 {
        c.add_detector(Detector::new(vec![MeasurementRef::new(q(i), 0)]));
    }
    c.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q(0), 0)]));
    c
}

#[test]
fn faults_cancelling_a_word_back_to_zero_clear_its_bit() {
    // Two certain flips: every word of detector 0 is written twice and ends
    // zero, while detector 1 keeps its fired words.
    let circuit = double_flip_circuit(1.0);
    let sampler = sample_detector_chunks(&circuit, 5_000, 3, 5_000).expect("valid");
    let chunk = sampler.sample_chunk(0);
    assert!(chunk.detector_plane(0).iter().all(|&word| word == 0));
    assert!(chunk.detector_plane(1).iter().any(|&word| word != 0));
    assert_index_exact(&chunk);
    // One-shot chunks at p = 0.4: qubit 0 flips before and after a CNOT
    // that copies its first flip onto detector 1, so a shot with detector 1
    // fired and detector 0 quiet flipped detector 0's lone word twice, back
    // to zero (about one shot in six).
    let circuit = copied_double_flip_circuit(0.4);
    let mut cancelled = 0;
    for seed in 0..300 {
        let sampler = sample_detector_chunks(&circuit, 1, seed, 1).expect("valid");
        let chunk = sampler.sample_chunk(0);
        assert_index_exact(&chunk);
        if chunk.detector_plane(1)[0] != 0 && chunk.detector_plane(0)[0] == 0 {
            cancelled += 1;
        }
    }
    assert!(cancelled > 0, "no shot flipped qubit 0 twice");
}
