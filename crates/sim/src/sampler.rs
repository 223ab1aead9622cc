//! Detector verification: [`verify_detectors`] uses the exact tableau
//! simulator to confirm that every detector of a circuit has even parity
//! when executed without noise (the defining property of a detector).
//! Sampling lives in [`sample_detector_chunks`](crate::sample_detector_chunks).

use qccd_circuit::MeasurementRef;

use crate::{NoisyCircuit, NoisyOp, TableauSimulator};

/// Problems found while verifying a circuit's detectors.
#[derive(Debug, Clone, PartialEq)]
pub enum VerificationError {
    /// A detector or observable references a measurement that does not
    /// exist.
    DanglingMeasurement(MeasurementRef),
    /// A detector had odd parity in a noiseless execution.
    NonDeterministicDetector {
        /// Index of the offending detector.
        detector: usize,
        /// The seed of the noiseless run that exposed it.
        seed: u64,
    },
}

impl std::fmt::Display for VerificationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerificationError::DanglingMeasurement(m) => {
                write!(f, "annotation references missing measurement {m}")
            }
            VerificationError::NonDeterministicDetector { detector, seed } => write!(
                f,
                "detector {detector} had odd parity in a noiseless run (seed {seed})"
            ),
        }
    }
}

impl std::error::Error for VerificationError {}

/// Verifies that every detector of the circuit has even parity when the
/// circuit is executed without noise, using the exact tableau simulator.
///
/// Several random seeds are used so that measurements with random outcomes
/// are exercised with different collapse choices.
///
/// # Errors
///
/// Returns a [`VerificationError`] naming the offending detector or dangling
/// measurement reference.
pub fn verify_detectors(circuit: &NoisyCircuit, seeds: &[u64]) -> Result<(), VerificationError> {
    let (detectors, _observables) = circuit
        .resolve_annotations()
        .map_err(VerificationError::DanglingMeasurement)?;
    for &seed in seeds {
        let mut sim = TableauSimulator::new(circuit.num_qubits(), seed);
        let mut outcomes = Vec::with_capacity(circuit.num_measurements());
        for op in circuit.ops() {
            if let NoisyOp::Gate(instruction) = op {
                if let Some(outcome) = sim.apply(instruction) {
                    outcomes.push(outcome);
                }
            }
        }
        for (d, measurement_indices) in detectors.iter().enumerate() {
            let parity = measurement_indices
                .iter()
                .fold(false, |acc, &m| acc ^ outcomes[m]);
            if parity {
                return Err(VerificationError::NonDeterministicDetector { detector: d, seed });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sample_detector_chunks, NoiseChannel, SyndromeChunk};
    use qccd_circuit::{Detector, Instruction, LogicalObservable, QubitId};

    /// Every shot as one chunk.
    fn sample(circuit: &NoisyCircuit, shots: usize, seed: u64) -> SyndromeChunk {
        sample_detector_chunks(circuit, shots, seed, shots)
            .unwrap()
            .sample_chunk(0)
    }

    fn popcount(plane: &[u64]) -> usize {
        plane.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn detector_fire_counts(samples: &SyndromeChunk) -> Vec<usize> {
        (0..samples.num_detectors())
            .map(|d| popcount(samples.detector_plane(d)))
            .collect()
    }

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn mref(i: u32, occurrence: u32) -> MeasurementRef {
        MeasurementRef::new(q(i), occurrence)
    }

    /// A two-qubit bit-flip "code": one ZZ parity measurement repeated twice.
    fn tiny_parity_circuit(p: f64) -> NoisyCircuit {
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
        c.push_gate(Instruction::Measure(q(1)));
        c.add_observable(LogicalObservable::new(vec![mref(0, 0)]));
        c
    }

    #[test]
    fn verify_detectors_accepts_valid_circuit() {
        let circuit = tiny_parity_circuit(0.0);
        assert_eq!(verify_detectors(&circuit, &[0, 1, 2]), Ok(()));
    }

    #[test]
    fn verify_detectors_rejects_bogus_detector() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_gate(Instruction::X(q(0)));
        circuit.push_gate(Instruction::Measure(q(0)));
        // This "detector" has odd parity: the measurement is always 1.
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        assert!(matches!(
            verify_detectors(&circuit, &[0]),
            Err(VerificationError::NonDeterministicDetector { detector: 0, .. })
        ));
    }

    #[test]
    fn noiseless_sampling_fires_nothing() {
        let circuit = tiny_parity_circuit(0.0);
        let samples = sample(&circuit, 500, 1);
        assert_eq!(samples.num_shots(), 500);
        assert_eq!(detector_fire_counts(&samples), vec![0, 0]);
        assert_eq!(popcount(samples.observable_plane(0)), 0);
    }

    #[test]
    fn noisy_sampling_fires_detectors_at_expected_rate() {
        let p = 0.2;
        let circuit = tiny_parity_circuit(p);
        let shots = 20_000;
        let samples = sample(&circuit, shots, 7);
        // The first-round error flips detector 0; detector 1 compares rounds
        // so it is flipped by the second-round error only.
        let counts = detector_fire_counts(&samples);
        for (d, count) in counts.iter().enumerate() {
            let rate = *count as f64 / shots as f64;
            assert!(
                (rate - p).abs() < 0.02,
                "detector {d} fired at {rate}, expected ≈{p}"
            );
        }
        // The data qubit 0 ends up flipped if either round's error fired —
        // the observable flip rate is p ⊕ p = 2p(1−p).
        let obs_rate = popcount(samples.observable_plane(0)) as f64 / shots as f64;
        let expected = 2.0 * p * (1.0 - p);
        assert!(
            (obs_rate - expected).abs() < 0.02,
            "observable flipped at {obs_rate}, expected ≈{expected}"
        );
    }

    #[test]
    fn per_shot_accessors_are_consistent_with_counts() {
        let circuit = tiny_parity_circuit(0.3);
        let samples = sample(&circuit, 257, 3);
        let mut recount = vec![0usize; samples.num_detectors()];
        let mut fired = Vec::new();
        for shot in 0..samples.num_shots() {
            samples.fired_detectors_into(shot, &mut fired);
            for &d in &fired {
                recount[d] += 1;
            }
        }
        assert_eq!(recount, detector_fire_counts(&samples));
    }

    #[test]
    fn dangling_reference_reported() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![mref(0, 5)]));
        assert!(sample_detector_chunks(&circuit, 10, 0, 10).is_err());
        assert!(matches!(
            verify_detectors(&circuit, &[0]),
            Err(VerificationError::DanglingMeasurement(_))
        ));
    }
}
