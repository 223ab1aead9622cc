//! Detector error model (DEM) extraction.
//!
//! A detector error model lists every *elementary error mechanism* of a noisy
//! circuit — one entry per possible Pauli fault of every noise channel —
//! together with the set of detectors it flips and the logical observables it
//! flips. Decoders work entirely from this model; it plays the same role as
//! Stim's `DetectorErrorModel`.
//!
//! Extraction runs in a single **reverse pass** over the circuit. For every
//! qubit we maintain two *sensitivity sets*: the detectors/observables that
//! an X (resp. Z) error at the current position would flip. Walking
//! backwards:
//!
//! * a Z-basis measurement adds its detectors to the X sensitivity of the
//!   measured qubit and clears the Z sensitivity (post-collapse Z errors are
//!   gauge);
//! * a reset clears both sensitivities (errors before a reset are erased);
//! * a unitary gate transforms sensitivities according to its conjugation
//!   action (`sens_before(P) = sens_after(U P U†)`);
//! * a noise channel emits one error mechanism per elementary Pauli fault,
//!   with the currently-accumulated sensitivity as its symptom set.
//!
//! Mechanisms with identical symptom sets are merged by combining their
//! probabilities (`p ← p₁(1−p₂) + p₂(1−p₁)`).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use qccd_circuit::{Instruction, MeasurementRef};

use crate::{NoiseChannel, NoisyCircuit, NoisyOp};

/// A set of detector / observable indices, packed as a bitset.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
struct SymptomSet {
    words: Vec<u64>,
}

impl SymptomSet {
    fn new(bits: usize) -> Self {
        SymptomSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn set(&mut self, bit: usize) {
        self.words[bit / 64] |= 1 << (bit % 64);
    }

    fn xor_assign(&mut self, other: &SymptomSet) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn ones(&self) -> Vec<usize> {
        let mut out = Vec::new();
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(w * 64 + b);
                bits &= bits - 1;
            }
        }
        out
    }

    fn xor_of(a: &SymptomSet, b: &SymptomSet) -> SymptomSet {
        let mut out = a.clone();
        out.xor_assign(b);
        out
    }
}

/// One elementary error mechanism of a detector error model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemError {
    /// Probability that this mechanism fires in one shot.
    pub probability: f64,
    /// Indices of the detectors it flips.
    pub detectors: Vec<u32>,
    /// Indices of the logical observables it flips.
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
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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
        let (detectors, observables) = circuit.resolve_annotations()?;
        let num_detectors = detectors.len();
        let num_observables = observables.len();
        let bits = num_detectors + num_observables;

        // measurement index -> symptom bits that include it.
        let num_measurements = circuit.num_measurements();
        let mut meas_symptoms: Vec<SymptomSet> = vec![SymptomSet::new(bits); num_measurements];
        for (d, measurement_indices) in detectors.iter().enumerate() {
            for &m in measurement_indices {
                meas_symptoms[m].set(d);
            }
        }
        for (o, measurement_indices) in observables.iter().enumerate() {
            for &m in measurement_indices {
                meas_symptoms[m].set(num_detectors + o);
            }
        }

        let n = circuit.num_qubits();
        let mut sens_x: Vec<SymptomSet> = vec![SymptomSet::new(bits); n];
        let mut sens_z: Vec<SymptomSet> = vec![SymptomSet::new(bits); n];

        // Accumulate mechanisms keyed by symptom set.
        let mut merged: HashMap<SymptomSet, f64> = HashMap::new();
        let mut record = |symptoms: &SymptomSet, probability: f64| {
            if symptoms.is_empty() || probability <= 0.0 {
                return;
            }
            let entry = merged.entry(symptoms.clone()).or_insert(0.0);
            // p <- p(1-q) + q(1-p): parity of independent events.
            *entry = *entry * (1.0 - probability) + probability * (1.0 - *entry);
        };

        let mut next_measurement = num_measurements;
        for op in circuit.ops().iter().rev() {
            match op {
                NoisyOp::Gate(instruction) => match *instruction {
                    Instruction::Measure(q) => {
                        next_measurement -= 1;
                        sens_x[q.index()].xor_assign(&meas_symptoms[next_measurement]);
                        sens_z[q.index()].clear();
                    }
                    Instruction::MeasureX(q) => {
                        next_measurement -= 1;
                        sens_z[q.index()].xor_assign(&meas_symptoms[next_measurement]);
                        sens_x[q.index()].clear();
                    }
                    Instruction::Reset(q) => {
                        sens_x[q.index()].clear();
                        sens_z[q.index()].clear();
                    }
                    Instruction::I(_)
                    | Instruction::X(_)
                    | Instruction::Y(_)
                    | Instruction::Z(_) => {}
                    Instruction::H(q) => {
                        let q = q.index();
                        std::mem::swap(&mut sens_x[q], &mut sens_z[q]);
                    }
                    Instruction::S(q) | Instruction::Sdg(q) => {
                        // X → Y = X·Z.
                        let q = q.index();
                        let z = sens_z[q].clone();
                        sens_x[q].xor_assign(&z);
                    }
                    Instruction::SqrtX(q) | Instruction::SqrtXdg(q) => {
                        // Z → Y = X·Z.
                        let q = q.index();
                        let x = sens_x[q].clone();
                        sens_z[q].xor_assign(&x);
                    }
                    Instruction::Cnot { control, target } => {
                        let (c, t) = (control.index(), target.index());
                        // X_c → X_c X_t ; Z_t → Z_c Z_t.
                        let xt = sens_x[t].clone();
                        sens_x[c].xor_assign(&xt);
                        let zc = sens_z[c].clone();
                        sens_z[t].xor_assign(&zc);
                    }
                    Instruction::Cz(a, b) => {
                        let (a, b) = (a.index(), b.index());
                        let zb = sens_z[b].clone();
                        sens_x[a].xor_assign(&zb);
                        let za = sens_z[a].clone();
                        sens_x[b].xor_assign(&za);
                    }
                    Instruction::Swap(a, b) => {
                        let (a, b) = (a.index(), b.index());
                        sens_x.swap(a, b);
                        sens_z.swap(a, b);
                    }
                    Instruction::Ms(a, b) => {
                        // X unchanged; Z_a → X_a Z_a X_b ; Z_b → X_a X_b Z_b.
                        let (a, b) = (a.index(), b.index());
                        let xa = sens_x[a].clone();
                        let xb = sens_x[b].clone();
                        sens_z[a].xor_assign(&xa);
                        sens_z[a].xor_assign(&xb);
                        sens_z[b].xor_assign(&xa);
                        sens_z[b].xor_assign(&xb);
                    }
                },
                NoisyOp::Noise(channel) => match *channel {
                    NoiseChannel::BitFlip { qubit, p } => {
                        record(&sens_x[qubit.index()], p);
                    }
                    NoiseChannel::PhaseFlip { qubit, p } => {
                        record(&sens_z[qubit.index()], p);
                    }
                    NoiseChannel::Depolarize1 { qubit, p } => {
                        let q = qubit.index();
                        let each = p / 3.0;
                        record(&sens_x[q], each);
                        record(&sens_z[q], each);
                        record(&SymptomSet::xor_of(&sens_x[q], &sens_z[q]), each);
                    }
                    NoiseChannel::Depolarize2 { a, b, p } => {
                        let (a, b) = (a.index(), b.index());
                        let each = p / 15.0;
                        for code in 1u8..16 {
                            let mut symptoms = SymptomSet::new(bits);
                            if code & 1 != 0 {
                                symptoms.xor_assign(&sens_x[a]);
                            }
                            if code & 2 != 0 {
                                symptoms.xor_assign(&sens_z[a]);
                            }
                            if code & 4 != 0 {
                                symptoms.xor_assign(&sens_x[b]);
                            }
                            if code & 8 != 0 {
                                symptoms.xor_assign(&sens_z[b]);
                            }
                            record(&symptoms, each);
                        }
                    }
                },
            }
        }
        debug_assert_eq!(next_measurement, 0, "every measurement must be visited");

        let mut errors: Vec<DemError> = merged
            .into_iter()
            .map(|(symptoms, probability)| {
                let mut detectors = Vec::new();
                let mut observable_indices = Vec::new();
                for bit in symptoms.ones() {
                    if bit < num_detectors {
                        detectors.push(bit as u32);
                    } else {
                        observable_indices.push((bit - num_detectors) as u32);
                    }
                }
                DemError {
                    probability,
                    detectors,
                    observables: observable_indices,
                }
            })
            .collect();
        errors.sort_by(|a, b| (&a.detectors, &a.observables).cmp(&(&b.detectors, &b.observables)));

        Ok(DetectorErrorModel {
            num_detectors,
            num_observables,
            errors,
        })
    }

    /// Number of mechanisms that are not graph-like (flip more than two
    /// detectors); decoders must decompose these.
    pub fn num_hyperedges(&self) -> usize {
        self.errors.iter().filter(|e| !e.is_graphlike()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{Detector, LogicalObservable, QubitId};

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
        assert_eq!(dem.num_hyperedges(), 0);
    }

    #[test]
    fn hyperedge_detection() {
        let e = DemError {
            probability: 0.1,
            detectors: vec![0, 1, 2],
            observables: vec![],
        };
        assert!(!e.is_graphlike());
        let dem = DetectorErrorModel {
            num_detectors: 3,
            num_observables: 0,
            errors: vec![e],
        };
        assert_eq!(dem.num_hyperedges(), 1);
    }
}
