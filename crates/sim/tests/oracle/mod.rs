//! The exact leg of the sampler oracle, shared by `sampler_oracle.rs` and
//! the workspace-level `tests/sampler_oracle_compiled.rs`: every component
//! the fault table holds, replayed as a deterministic Pauli through the
//! frame sampler.

use qccd_circuit::QubitId;
use qccd_sim::{FaultTable, FrameSampler, NoiseChannel, NoisyCircuit, NoisyOp};

/// One Pauli factor: `(qubit, has X, has Z)`.
type Factor = (QubitId, bool, bool);

/// The mutually exclusive Paulis of a channel, in the order the fault table
/// documents its components.
fn components_of(channel: &NoiseChannel) -> Vec<Vec<Factor>> {
    match *channel {
        NoiseChannel::BitFlip { qubit, .. } => vec![vec![(qubit, true, false)]],
        NoiseChannel::PhaseFlip { qubit, .. } => vec![vec![(qubit, false, true)]],
        NoiseChannel::Depolarize1 { qubit, .. } => vec![
            vec![(qubit, true, false)],
            vec![(qubit, false, true)],
            vec![(qubit, true, true)],
        ],
        NoiseChannel::Depolarize2 { a, b, .. } => (1u8..16)
            .map(|code| {
                vec![
                    (a, code & 1 != 0, code & 2 != 0),
                    (b, code & 4 != 0, code & 8 != 0),
                ]
            })
            .collect(),
    }
}

/// Runs the circuit's gates over 64 shots with every noise channel removed
/// and `pauli` applied to all shots at op `position`; returns the detectors
/// and observables that fired. Gauge randomness stays on, so a detector
/// that fired in some shots only would show here.
fn fired_by(
    circuit: &NoisyCircuit,
    annotations: &(Vec<Vec<usize>>, Vec<Vec<usize>>),
    position: usize,
    pauli: &[Factor],
    seed: u64,
) -> (Vec<u32>, Vec<u32>) {
    let mut frames = FrameSampler::new(circuit.num_qubits(), 64, seed);
    for (index, op) in circuit.ops().iter().enumerate() {
        match op {
            NoisyOp::Gate(instruction) => frames.apply_gate(instruction),
            NoisyOp::Noise(_) if index == position => {
                for &(qubit, x, z) in pauli {
                    if x {
                        frames.apply_noise(&NoiseChannel::BitFlip { qubit, p: 1.0 });
                    }
                    if z {
                        frames.apply_noise(&NoiseChannel::PhaseFlip { qubit, p: 1.0 });
                    }
                }
            }
            NoisyOp::Noise(_) => {}
        }
    }
    let fired = |parities: &[Vec<usize>]| -> Vec<u32> {
        let mut out = Vec::new();
        for (index, measurements) in parities.iter().enumerate() {
            let word = measurements
                .iter()
                .fold(0u64, |acc, &m| acc ^ frames.measurement_plane(m)[0]);
            assert!(
                word == 0 || word == u64::MAX,
                "op {position}: annotation {index} fired in some shots only ({word:#x})"
            );
            if word != 0 {
                out.push(index as u32);
            }
        }
        out
    };
    (fired(&annotations.0), fired(&annotations.1))
}

/// Asserts that every component of every channel of `circuit`'s fault table
/// carries exactly the signature the frame sampler produces for that Pauli.
/// Returns the number of components checked.
pub fn assert_table_matches_frame_sampler(label: &str, circuit: &NoisyCircuit) -> usize {
    let table = FaultTable::from_circuit(circuit).expect("valid annotations");
    let annotations = circuit.resolve_annotations().expect("valid annotations");
    let mut channel = 0;
    let mut checked = 0;
    for (position, op) in circuit.ops().iter().enumerate() {
        let NoisyOp::Noise(noise) = op else { continue };
        let paulis = components_of(noise);
        let signatures: Vec<_> = table.components(channel).collect();
        assert_eq!(paulis.len(), signatures.len(), "{label}: {noise}");
        for (pauli, (detectors, observables)) in paulis.iter().zip(signatures) {
            let fired = fired_by(circuit, &annotations, position, pauli, checked as u64);
            assert_eq!(
                (fired.0.as_slice(), fired.1.as_slice()),
                (detectors, observables),
                "{label}: channel {channel} ({noise}) component {pauli:?}"
            );
            checked += 1;
        }
        channel += 1;
    }
    assert_eq!(channel, table.num_channels(), "{label}");
    assert_eq!(checked, table.num_components(), "{label}");
    checked
}
