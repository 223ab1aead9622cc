//! Property-based tests for the stabilizer-simulation substrate.
//!
//! These tests build circuits whose correct behaviour is known by
//! construction — compute/uncompute sandwiches, forced errors — and check
//! that the Pauli-frame sampler and the detector machinery reproduce it.
//! This is the invariant the whole logical-error-rate pipeline rests on:
//! noiseless circuits never fire detectors, and a forced fault fires exactly
//! the detectors its symptom says it should.

use proptest::prelude::*;

use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};
use qccd_sim::{
    sample_detector_chunks, verify_detectors, NoiseChannel, NoisyCircuit, SyndromeChunk,
};

const NUM_QUBITS: u32 = 5;

/// Every shot as one chunk.
fn sample(circuit: &NoisyCircuit, shots: usize, seed: u64) -> SyndromeChunk {
    sample_detector_chunks(circuit, shots, seed, shots)
        .expect("annotations are valid")
        .sample_chunk(0)
}

fn popcount(plane: &[u64]) -> usize {
    plane.iter().map(|w| w.count_ones() as usize).sum()
}

/// A random unitary Clifford layer (no measurements, no resets).
fn clifford_layer() -> impl Strategy<Value = Vec<Instruction>> {
    let q = || (0..NUM_QUBITS).prop_map(QubitId::new);
    let two = (0..NUM_QUBITS, 0..NUM_QUBITS - 1).prop_map(|(a, b)| {
        let b = if b >= a { b + 1 } else { b };
        (QubitId::new(a), QubitId::new(b))
    });
    let gate = prop_oneof![
        q().prop_map(Instruction::H),
        q().prop_map(Instruction::S),
        q().prop_map(Instruction::X),
        q().prop_map(Instruction::Z),
        q().prop_map(Instruction::SqrtX),
        two.clone()
            .prop_map(|(control, target)| Instruction::Cnot { control, target }),
        two.prop_map(|(a, b)| Instruction::Cz(a, b)),
    ];
    prop::collection::vec(gate, 0..20)
}

/// Returns the inverse of a unitary Clifford instruction.
fn inverse(instruction: &Instruction) -> Vec<Instruction> {
    match *instruction {
        Instruction::S(q) => vec![Instruction::Sdg(q)],
        Instruction::Sdg(q) => vec![Instruction::S(q)],
        Instruction::SqrtX(q) => vec![Instruction::SqrtXdg(q)],
        Instruction::SqrtXdg(q) => vec![Instruction::SqrtX(q)],
        other => vec![other],
    }
}

/// Builds a compute/uncompute sandwich: reset every qubit, apply `layer`,
/// apply its inverse, and measure every qubit. All outcomes are |0⟩ by
/// construction, so one detector per measurement is deterministic.
fn sandwich_circuit(layer: &[Instruction]) -> NoisyCircuit {
    let mut circuit = NoisyCircuit::new();
    circuit.pad_qubits(NUM_QUBITS as usize);
    for q in 0..NUM_QUBITS {
        circuit.push_gate(Instruction::Reset(QubitId::new(q)));
    }
    for instruction in layer {
        circuit.push_gate(*instruction);
    }
    for instruction in layer.iter().rev() {
        for inv in inverse(instruction) {
            circuit.push_gate(inv);
        }
    }
    for q in 0..NUM_QUBITS {
        circuit.push_gate(Instruction::Measure(QubitId::new(q)));
    }
    for q in 0..NUM_QUBITS {
        circuit.add_detector(Detector::new(vec![MeasurementRef::new(QubitId::new(q), 0)]));
    }
    circuit.add_observable(LogicalObservable::new(vec![MeasurementRef::new(
        QubitId::new(0),
        0,
    )]));
    circuit
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn noiseless_sandwiches_never_fire_detectors(layer in clifford_layer(), seed in 0u64..1000) {
        let circuit = sandwich_circuit(&layer);
        // The tableau reference confirms every detector is deterministic.
        verify_detectors(&circuit, &[seed, seed + 1]).expect("detectors are deterministic");
        // The frame sampler agrees: no detection events, no observable flips.
        let samples = sample(&circuit, 64, seed);
        for detector in 0..samples.num_detectors() {
            prop_assert_eq!(popcount(samples.detector_plane(detector)), 0);
        }
        prop_assert_eq!(popcount(samples.observable_plane(0)), 0);
    }

    #[test]
    fn a_forced_bit_flip_fires_exactly_its_own_detector(
        layer in clifford_layer(),
        victim in 0..NUM_QUBITS,
        seed in 0u64..1000,
    ) {
        // Insert a deterministic X error right before the measurements: only
        // the victim qubit's detector may fire, and it must fire in every
        // shot.
        let mut circuit = sandwich_circuit(&layer);
        let mut with_error = NoisyCircuit::new();
        with_error.pad_qubits(NUM_QUBITS as usize);
        let ops = circuit.ops().to_vec();
        let first_measurement = ops
            .iter()
            .position(|op| matches!(op, qccd_sim::NoisyOp::Gate(g) if g.is_measurement()))
            .unwrap();
        for (i, op) in ops.iter().enumerate() {
            if i == first_measurement {
                with_error.push_noise(NoiseChannel::BitFlip {
                    qubit: QubitId::new(victim),
                    p: 1.0,
                });
            }
            match op {
                qccd_sim::NoisyOp::Gate(g) => with_error.push_gate(*g),
                qccd_sim::NoisyOp::Noise(c) => with_error.push_noise(*c),
            }
        }
        for d in circuit.detectors() {
            with_error.add_detector(d.clone());
        }
        for o in circuit.observables() {
            with_error.add_observable(o.clone());
        }
        circuit = with_error;

        let shots = 32;
        let samples = sample(&circuit, shots, seed);
        for detector in 0..samples.num_detectors() {
            let count = popcount(samples.detector_plane(detector));
            if detector == victim as usize {
                prop_assert_eq!(count, shots, "victim detector must always fire");
            } else {
                prop_assert_eq!(count, 0, "detector {} must stay silent", detector);
            }
        }
        // The observable tracks qubit 0's measurement.
        let expected_flips = if victim == 0 { shots } else { 0 };
        prop_assert_eq!(popcount(samples.observable_plane(0)), expected_flips);
    }

    #[test]
    fn bit_flip_rate_matches_the_channel_probability(p in 0.05f64..0.5, seed in 0u64..100) {
        // Single qubit, reset → noisy → measure: the detector fire rate must
        // match the channel probability to within Monte-Carlo error.
        let q = QubitId::new(0);
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q));
        circuit.push_noise(NoiseChannel::BitFlip { qubit: q, p });
        circuit.push_gate(Instruction::Measure(q));
        circuit.add_detector(Detector::new(vec![MeasurementRef::new(q, 0)]));

        let shots = 4096;
        let samples = sample(&circuit, shots, seed);
        let rate = popcount(samples.detector_plane(0)) as f64 / shots as f64;
        let sigma = (p * (1.0 - p) / shots as f64).sqrt();
        prop_assert!(
            (rate - p).abs() < 6.0 * sigma + 1e-3,
            "rate {rate} too far from p {p}"
        );
    }
}
