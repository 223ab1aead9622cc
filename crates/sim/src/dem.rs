//! Detector error model (DEM).
//!
//! A detector error model lists every *elementary error mechanism* of a noisy
//! circuit together with the set of detectors it flips and the logical
//! observables it flips. Decoders work entirely from this model; it plays the
//! same role as Stim's `DetectorErrorModel`.
//!
//! The reverse sensitivity pass that finds the mechanisms lives in
//! [`crate::FaultTable`], which keeps them per noise channel for the sampler;
//! the model is that table folded by symptom set. Mechanisms with identical
//! symptom sets are merged by combining their probabilities
//! (`p ← p₁(1−p₂) + p₂(1−p₁)`).

use qccd_circuit::MeasurementRef;

use crate::{FaultTable, NoisyCircuit};

/// One elementary error mechanism of a detector error model.
#[derive(Debug, Clone, PartialEq)]
pub struct DemError {
    /// Probability that this mechanism fires in one shot.
    pub probability: f64,
    /// Indices of the detectors it flips.
    pub detectors: Vec<u32>,
    /// Indices of the logical observables it flips, a set: a repeated index cancels.
    pub observables: Vec<u32>,
}

impl DemError {
    /// Returns `true` if the mechanism flips at most two detectors, i.e. it
    /// maps directly onto an edge of a matching/union-find decoding graph.
    pub fn is_graphlike(&self) -> bool {
        self.detectors.len() <= 2
    }
}

/// The full detector error model of a noisy circuit.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DetectorErrorModel {
    /// Number of detectors in the circuit.
    pub num_detectors: usize,
    /// Number of logical observables in the circuit.
    pub num_observables: usize,
    /// The elementary error mechanisms (deduplicated by symptom set).
    pub errors: Vec<DemError>,
}

impl DetectorErrorModel {
    /// Extracts the detector error model of a noisy circuit.
    ///
    /// # Errors
    ///
    /// Returns the first dangling [`MeasurementRef`] if a detector or
    /// observable references a measurement that does not exist.
    pub fn from_circuit(circuit: &NoisyCircuit) -> Result<Self, MeasurementRef> {
        Ok(FaultTable::from_circuit(circuit)?.dem())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseChannel;
    use qccd_circuit::{Detector, Instruction, LogicalObservable, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn mref(i: u32, occurrence: u32) -> MeasurementRef {
        MeasurementRef::new(q(i), occurrence)
    }

    #[test]
    fn single_bit_flip_mechanism() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.01,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        circuit.add_observable(LogicalObservable::new(vec![mref(0, 0)]));

        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        assert_eq!(dem.num_detectors, 1);
        assert_eq!(dem.num_observables, 1);
        assert_eq!(dem.errors.len(), 1);
        let e = &dem.errors[0];
        assert!((e.probability - 0.01).abs() < 1e-12);
        assert_eq!(e.detectors, vec![0]);
        assert_eq!(e.observables, vec![0]);
    }

    #[test]
    fn z_error_before_z_measurement_is_invisible() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_noise(NoiseChannel::PhaseFlip {
            qubit: q(0),
            p: 0.01,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        assert!(dem.errors.is_empty());
    }

    #[test]
    fn identical_mechanisms_merge_probabilities() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.1,
        });
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.1,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        assert_eq!(dem.errors.len(), 1);
        // Parity of two independent 0.1 events: 0.1·0.9 + 0.9·0.1 = 0.18.
        assert!((dem.errors[0].probability - 0.18).abs() < 1e-12);
    }

    #[test]
    fn cnot_spreads_error_to_both_measurements() {
        // X error on the control before a CNOT flips both subsequent
        // measurements.
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_gate(Instruction::Reset(q(1)));
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.02,
        });
        circuit.push_gate(Instruction::Cnot {
            control: q(0),
            target: q(1),
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.push_gate(Instruction::Measure(q(1)));
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        circuit.add_detector(Detector::new(vec![mref(1, 0)]));
        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        assert_eq!(dem.errors.len(), 1);
        assert_eq!(dem.errors[0].detectors, vec![0, 1]);
    }

    #[test]
    fn depolarize_before_measurement_flips_with_two_thirds_weight() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_noise(NoiseChannel::Depolarize1 {
            qubit: q(0),
            p: 0.3,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        // X and Y mechanisms share the same symptom set and merge:
        // 0.1 ⊕ 0.1 = 0.18.
        assert_eq!(dem.errors.len(), 1);
        assert!((dem.errors[0].probability - 0.18).abs() < 1e-12);
    }

    #[test]
    fn errors_after_reset_are_erased() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.5,
        });
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        assert!(dem.errors.is_empty());
    }

    #[test]
    fn repeated_measurement_detector_cancels_early_error() {
        // An error before both measurements of the same qubit flips both, so
        // a detector comparing them does not fire; an error between them
        // flips only the second.
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.25,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.125,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![mref(0, 0), mref(0, 1)]));
        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        assert_eq!(dem.errors.len(), 1);
        assert!((dem.errors[0].probability - 0.125).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_depolarizing_produces_multiple_mechanisms() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_gate(Instruction::Reset(q(1)));
        circuit.push_noise(NoiseChannel::Depolarize2 {
            a: q(0),
            b: q(1),
            p: 0.15,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.push_gate(Instruction::Measure(q(1)));
        circuit.add_detector(Detector::new(vec![mref(0, 0)]));
        circuit.add_detector(Detector::new(vec![mref(1, 0)]));
        let dem = DetectorErrorModel::from_circuit(&circuit).unwrap();
        // Symptom sets: {D0}, {D1}, {D0,D1} — Z components are invisible.
        assert_eq!(dem.errors.len(), 3);
        let total: f64 = dem.errors.iter().map(|e| e.probability).sum();
        assert!(total > 0.0 && total < 0.15);
        assert!(dem.errors.iter().all(DemError::is_graphlike));
    }

    #[test]
    fn hyperedge_detection() {
        let e = DemError {
            probability: 0.1,
            detectors: vec![0, 1, 2],
            observables: vec![],
        };
        assert!(!e.is_graphlike());
    }
}
