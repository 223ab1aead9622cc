//! Noisy stabilizer circuits.
//!
//! A [`NoisyCircuit`] is the simulator-facing circuit format: an ordered
//! stream of Clifford operations interleaved with stochastic Pauli noise
//! channels, plus detector and logical-observable annotations. It plays the
//! role Stim's circuit format plays in the paper's toolflow (§6.4): the
//! `qccd-noise` crate lowers a compiled, scheduled QCCD program into a
//! `NoisyCircuit`, and this crate samples it.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use qccd_circuit::{
    Circuit, Detector, Instruction, LogicalObservable, MeasurementRef, QubitId, Qubits,
};

/// Resolved annotation lists: per-detector and per-observable measurement
/// indices, as returned by [`NoisyCircuit::resolve_annotations`].
pub type ResolvedAnnotations = (Vec<Vec<usize>>, Vec<Vec<usize>>);

/// A stochastic Pauli noise channel inserted at a specific point in the
/// circuit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseChannel {
    /// Single-qubit depolarising channel: X, Y or Z each with probability
    /// `p / 3`.
    Depolarize1 {
        /// Affected qubit.
        qubit: QubitId,
        /// Total error probability.
        p: f64,
    },
    /// Two-qubit depolarising channel: each of the 15 non-identity two-qubit
    /// Paulis with probability `p / 15`.
    Depolarize2 {
        /// First qubit.
        a: QubitId,
        /// Second qubit.
        b: QubitId,
        /// Total error probability.
        p: f64,
    },
    /// Bit-flip (X) channel with probability `p`; used for imperfect reset
    /// and measurement (error channels e4 and e5 of §5.1).
    BitFlip {
        /// Affected qubit.
        qubit: QubitId,
        /// Error probability.
        p: f64,
    },
    /// Phase-flip (Z) channel with probability `p`; used for idling /
    /// reconfiguration dephasing (error channel e1 of §5.1).
    PhaseFlip {
        /// Affected qubit.
        qubit: QubitId,
        /// Error probability.
        p: f64,
    },
}

impl NoiseChannel {
    /// The qubits this channel can corrupt.
    pub fn qubits(&self) -> Qubits {
        match *self {
            NoiseChannel::Depolarize1 { qubit, .. }
            | NoiseChannel::BitFlip { qubit, .. }
            | NoiseChannel::PhaseFlip { qubit, .. } => Qubits::one(qubit),
            NoiseChannel::Depolarize2 { a, b, .. } => Qubits::two(a, b),
        }
    }

    /// The total probability that *some* error happens.
    pub fn total_probability(&self) -> f64 {
        match *self {
            NoiseChannel::Depolarize1 { p, .. }
            | NoiseChannel::Depolarize2 { p, .. }
            | NoiseChannel::BitFlip { p, .. }
            | NoiseChannel::PhaseFlip { p, .. } => p,
        }
    }

    /// Returns `true` if the channel can never fire.
    pub fn is_trivial(&self) -> bool {
        self.total_probability() <= 0.0
    }
}

impl fmt::Display for NoiseChannel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NoiseChannel::Depolarize1 { qubit, p } => write!(f, "DEPOLARIZE1({p}) {qubit}"),
            NoiseChannel::Depolarize2 { a, b, p } => write!(f, "DEPOLARIZE2({p}) {a} {b}"),
            NoiseChannel::BitFlip { qubit, p } => write!(f, "X_ERROR({p}) {qubit}"),
            NoiseChannel::PhaseFlip { qubit, p } => write!(f, "Z_ERROR({p}) {qubit}"),
        }
    }
}

/// One element of a noisy circuit: a quantum operation or a noise channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoisyOp {
    /// A Clifford gate, measurement or reset.
    Gate(Instruction),
    /// A stochastic Pauli noise channel.
    Noise(NoiseChannel),
}

/// A stabilizer circuit with noise channels and QEC annotations, ready for
/// sampling.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NoisyCircuit {
    ops: Vec<NoisyOp>,
    num_qubits: usize,
    num_measurements: usize,
    detectors: Vec<Detector>,
    observables: Vec<LogicalObservable>,
}

impl NoisyCircuit {
    /// Creates an empty noisy circuit.
    pub fn new() -> Self {
        NoisyCircuit::default()
    }

    /// Builds a noiseless `NoisyCircuit` from an annotated Clifford circuit,
    /// copying its detectors and observables.
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let mut noisy = NoisyCircuit::new();
        noisy.pad_qubits(circuit.num_qubits());
        for instruction in circuit.iter() {
            noisy.push_gate(*instruction);
        }
        for detector in circuit.detectors() {
            noisy.add_detector(detector.clone());
        }
        for observable in circuit.observables() {
            noisy.add_observable(observable.clone());
        }
        noisy
    }

    /// Appends a quantum operation.
    pub fn push_gate(&mut self, instruction: Instruction) {
        for q in instruction.qubits() {
            self.num_qubits = self.num_qubits.max(q.index() + 1);
        }
        if instruction.is_measurement() {
            self.num_measurements += 1;
        }
        self.ops.push(NoisyOp::Gate(instruction));
    }

    /// Appends a noise channel. Channels with zero probability are dropped.
    pub fn push_noise(&mut self, channel: NoiseChannel) {
        if channel.is_trivial() {
            return;
        }
        for q in channel.qubits() {
            self.num_qubits = self.num_qubits.max(q.index() + 1);
        }
        self.ops.push(NoisyOp::Noise(channel));
    }

    /// Adds a detector annotation (parity of measurement outcomes that is
    /// even in the absence of noise).
    pub fn add_detector(&mut self, detector: Detector) {
        self.detectors.push(detector);
    }

    /// Adds a logical observable annotation.
    pub fn add_observable(&mut self, observable: LogicalObservable) {
        self.observables.push(observable);
    }

    /// Ensures the circuit reports at least `n` qubits.
    pub fn pad_qubits(&mut self, n: usize) {
        self.num_qubits = self.num_qubits.max(n);
    }

    /// The operation stream in execution order.
    pub fn ops(&self) -> &[NoisyOp] {
        &self.ops
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of measurement operations.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Number of noise channels.
    pub fn num_noise_channels(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, NoisyOp::Noise(_)))
            .count()
    }

    /// The detector annotations.
    pub fn detectors(&self) -> &[Detector] {
        &self.detectors
    }

    /// The logical observable annotations.
    pub fn observables(&self) -> &[LogicalObservable] {
        &self.observables
    }

    /// Maps every measurement reference to its global measurement index in
    /// execution order.
    pub fn measurement_index_map(&self) -> HashMap<MeasurementRef, usize> {
        let mut per_qubit: HashMap<QubitId, u32> = HashMap::new();
        let mut map = HashMap::new();
        let mut index = 0usize;
        for op in &self.ops {
            if let NoisyOp::Gate(instruction) = op {
                if instruction.is_measurement() {
                    let qubit = instruction.qubits()[0];
                    let occurrence = per_qubit.entry(qubit).or_insert(0);
                    map.insert(MeasurementRef::new(qubit, *occurrence), index);
                    *occurrence += 1;
                    index += 1;
                }
            }
        }
        map
    }

    /// Resolves detectors and observables into global measurement indices.
    ///
    /// Returns `(detectors, observables)` where each entry lists measurement
    /// indices.
    ///
    /// # Errors
    ///
    /// Returns the first measurement reference that does not correspond to a
    /// measurement in the circuit.
    pub fn resolve_annotations(&self) -> Result<ResolvedAnnotations, MeasurementRef> {
        let map = self.measurement_index_map();
        let resolve = |refs: &[MeasurementRef]| -> Result<Vec<usize>, MeasurementRef> {
            refs.iter().map(|r| map.get(r).copied().ok_or(*r)).collect()
        };
        let detectors = self
            .detectors
            .iter()
            .map(|d| resolve(&d.measurements))
            .collect::<Result<Vec<_>, _>>()?;
        let observables = self
            .observables
            .iter()
            .map(|o| resolve(&o.measurements))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((detectors, observables))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn from_circuit_copies_structure() {
        let mut circuit = Circuit::new();
        circuit.push(Instruction::Reset(q(0)));
        circuit.push(Instruction::H(q(0)));
        circuit.push(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![MeasurementRef::new(q(0), 0)]));
        circuit.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q(0), 0)]));

        let noisy = NoisyCircuit::from_circuit(&circuit);
        assert_eq!(noisy.ops().len(), 3);
        assert_eq!(noisy.num_measurements(), 1);
        assert_eq!(noisy.detectors().len(), 1);
        assert_eq!(noisy.observables().len(), 1);
        assert_eq!(noisy.num_noise_channels(), 0);
    }

    #[test]
    fn zero_probability_noise_is_dropped() {
        let mut noisy = NoisyCircuit::new();
        noisy.push_noise(NoiseChannel::Depolarize1 {
            qubit: q(0),
            p: 0.0,
        });
        assert_eq!(noisy.ops().len(), 0);
        noisy.push_noise(NoiseChannel::Depolarize1 {
            qubit: q(0),
            p: 0.01,
        });
        assert_eq!(noisy.ops().len(), 1);
        assert_eq!(noisy.num_noise_channels(), 1);
    }

    #[test]
    fn measurement_index_map_orders_by_execution() {
        let mut noisy = NoisyCircuit::new();
        noisy.push_gate(Instruction::Measure(q(1)));
        noisy.push_gate(Instruction::Measure(q(0)));
        noisy.push_gate(Instruction::Measure(q(1)));
        let map = noisy.measurement_index_map();
        assert_eq!(map[&MeasurementRef::new(q(1), 0)], 0);
        assert_eq!(map[&MeasurementRef::new(q(0), 0)], 1);
        assert_eq!(map[&MeasurementRef::new(q(1), 1)], 2);
    }

    #[test]
    fn resolve_annotations_detects_dangling_refs() {
        let mut noisy = NoisyCircuit::new();
        noisy.push_gate(Instruction::Measure(q(0)));
        noisy.add_detector(Detector::new(vec![MeasurementRef::new(q(0), 3)]));
        assert_eq!(
            noisy.resolve_annotations(),
            Err(MeasurementRef::new(q(0), 3))
        );
    }

    #[test]
    fn resolve_annotations_success() {
        let mut noisy = NoisyCircuit::new();
        noisy.push_gate(Instruction::Measure(q(0)));
        noisy.push_gate(Instruction::Measure(q(1)));
        noisy.add_detector(Detector::new(vec![
            MeasurementRef::new(q(0), 0),
            MeasurementRef::new(q(1), 0),
        ]));
        noisy.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q(1), 0)]));
        let (detectors, observables) = noisy.resolve_annotations().unwrap();
        assert_eq!(detectors, vec![vec![0, 1]]);
        assert_eq!(observables, vec![vec![1]]);
    }

    #[test]
    fn channel_metadata() {
        let c = NoiseChannel::Depolarize2 {
            a: q(0),
            b: q(3),
            p: 0.05,
        };
        assert_eq!(c.qubits(), vec![q(0), q(3)]);
        assert_eq!(c.total_probability(), 0.05);
        assert!(!c.is_trivial());
        assert!(c.to_string().contains("DEPOLARIZE2"));
    }

    #[test]
    fn every_channel_lists_its_qubits_in_order() {
        let (a, b, p) = (q(6), q(1), 0.01);
        let cases = [
            (NoiseChannel::Depolarize1 { qubit: a, p }, vec![a]),
            (NoiseChannel::Depolarize2 { a, b, p }, vec![a, b]),
            (NoiseChannel::BitFlip { qubit: a, p }, vec![a]),
            (NoiseChannel::PhaseFlip { qubit: a, p }, vec![a]),
        ];
        for (channel, expected) in cases {
            assert_eq!(channel.qubits(), expected, "{channel}");
            assert_eq!(channel.qubits().into_iter().collect::<Vec<_>>(), expected);
        }
    }
}
