//! The batched, chunked, parallel decode pipeline end-to-end.
//!
//! Builds a noisy repetition-code memory experiment and its fault table
//! (one pass over the circuit, which every step below reads), then shows
//! the three layers the batch engine adds:
//!
//! 1. chunked sampling (`DetectorChunkSampler::from_table`) with memory
//!    bounded by the chunk size;
//! 2. batch decoding (`decode_batch`) with a reusable `DecodeScratch`;
//! 3. the parallel estimator (`estimate_logical_error_rate_from_table`)
//!    with deterministic results and optional early stopping.
//!
//! Run with `cargo run --release --example batch_decoding`.

use qccd_circuit::{Instruction, QubitId};
use qccd_decoder::{
    estimate_logical_error_rate_from_table, DecodeScratch, Decoder, DecoderKind, DecodingGraph,
    EstimatorConfig, UnionFindDecoder,
};
use qccd_qec::{memory_experiment, repetition_code, MemoryBasis};
use qccd_sim::{
    DetectorChunkSampler, FaultTable, NoiseChannel, NoisyCircuit, CANONICAL_BLOCK_SHOTS,
};

fn noisy_memory(distance: usize, rounds: usize, p: f64) -> NoisyCircuit {
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

fn main() {
    let circuit = noisy_memory(5, 3, 0.02);
    let table = FaultTable::from_circuit(&circuit).expect("valid circuit");
    let shots = 6 * CANONICAL_BLOCK_SHOTS;

    // 1. Chunked sampling: peak memory is one chunk, not the whole run.
    let sampler = DetectorChunkSampler::from_table(&table, shots, 7, CANONICAL_BLOCK_SHOTS);
    println!(
        "sampling {} shots as {} chunks of ≤{} shots ({} detectors / shot)",
        sampler.total_shots(),
        sampler.num_chunks(),
        sampler.chunk_shots(),
        sampler.num_detectors(),
    );

    // 2. Batch decoding with one reusable scratch across all chunks.
    let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&table.dem()));
    let mut scratch = DecodeScratch::new();
    let mut failures = 0usize;
    for chunk in sampler.chunks() {
        let predictions = decoder.decode_batch(&chunk, &mut scratch);
        for shot in 0..chunk.num_shots() {
            if (0..chunk.num_observables())
                .any(|o| chunk.observable_flipped(shot, o) != predictions.predicted(shot, o))
            {
                failures += 1;
            }
        }
    }
    println!(
        "manual chunk loop: {failures} failures / {shots} shots = {:.3e}",
        failures as f64 / shots as f64
    );

    // 3. The parallel estimator gives the same answer, bit for bit, for any
    //    chunk size or thread count...
    let estimate = estimate_logical_error_rate_from_table(
        &table,
        shots,
        7,
        DecoderKind::UnionFind,
        &EstimatorConfig::default(),
    )
    .estimate;
    println!(
        "parallel estimator:  {} failures / {} shots = {:.3e} ± {:.1e}",
        estimate.failures, estimate.shots, estimate.logical_error_rate, estimate.std_error
    );
    assert_eq!(
        estimate.failures, failures,
        "pipeline must be deterministic"
    );

    // ...and can stop early once the estimate is good enough.
    let early = estimate_logical_error_rate_from_table(
        &table,
        100 * CANONICAL_BLOCK_SHOTS,
        7,
        DecoderKind::UnionFind,
        &EstimatorConfig::default()
            .with_chunk_shots(CANONICAL_BLOCK_SHOTS)
            .with_max_failures(10),
    )
    .estimate;
    println!(
        "early stop at ≥10 failures: decoded {} of {} shots (LER {:.3e})",
        early.shots,
        100 * CANONICAL_BLOCK_SHOTS,
        early.logical_error_rate
    );
}
