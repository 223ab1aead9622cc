//! Circuit container.
//!
//! A [`Circuit`] is an ordered list of [`Instruction`]s together with the
//! annotations a QEC experiment needs: *detectors* (parities of measurement
//! outcomes that are deterministic in the absence of noise) and *logical
//! observables* (parities of measurements whose flip constitutes a logical
//! error).
//!
//! Measurements are referenced by [`MeasurementRef`] — the pair *(qubit,
//! occurrence on that qubit)* — rather than by global position. This makes
//! detector definitions robust against the instruction reordering performed
//! by the QCCD compiler: the compiler may interleave operations on different
//! ions, but it never reorders two operations acting on the same qubit.

use std::collections::HashMap;
use std::fmt;

use crate::{Instruction, QubitId};

/// A stable reference to one measurement outcome.
///
/// `occurrence` counts measurements *on this particular qubit*, starting at
/// zero. The pair is invariant under any schedule transformation that
/// preserves per-qubit operation order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeasurementRef {
    /// Qubit that was measured.
    pub qubit: QubitId,
    /// Zero-based index among measurements of that qubit.
    pub occurrence: u32,
}

impl MeasurementRef {
    /// Creates a measurement reference.
    pub const fn new(qubit: QubitId, occurrence: u32) -> Self {
        MeasurementRef { qubit, occurrence }
    }
}

impl fmt::Display for MeasurementRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.qubit, self.occurrence)
    }
}

/// A detector: a set of measurement outcomes whose parity is deterministic
/// (even) when the circuit is executed without noise.
///
/// The optional coordinate is purely diagnostic metadata (it mirrors Stim's
/// `DETECTOR(x, y, t)` annotation) and is used by decoders and debugging
/// output to localise detection events in space-time.
#[derive(Debug, Clone, PartialEq)]
pub struct Detector {
    /// The measurement outcomes whose parity this detector checks.
    pub measurements: Vec<MeasurementRef>,
    /// Optional (x, y, t) coordinate of the detector in the code layout.
    pub coordinate: Option<[f64; 3]>,
}

impl Detector {
    /// Creates a detector over the given measurements with no coordinate.
    pub fn new(measurements: Vec<MeasurementRef>) -> Self {
        Detector {
            measurements,
            coordinate: None,
        }
    }

    /// Creates a detector with an attached space-time coordinate.
    pub fn with_coordinate(measurements: Vec<MeasurementRef>, coordinate: [f64; 3]) -> Self {
        Detector {
            measurements,
            coordinate: Some(coordinate),
        }
    }
}

/// A logical observable: a parity of measurement outcomes that encodes the
/// value of a logical qubit at the end of the experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalObservable {
    /// The measurement outcomes whose parity defines the observable.
    pub measurements: Vec<MeasurementRef>,
}

impl LogicalObservable {
    /// Creates a logical observable over the given measurements.
    pub fn new(measurements: Vec<MeasurementRef>) -> Self {
        LogicalObservable { measurements }
    }
}

/// Summary statistics of a circuit, produced by [`Circuit::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CircuitStats {
    /// Number of qubits referenced by the circuit.
    pub num_qubits: usize,
    /// Total number of instructions.
    pub num_instructions: usize,
    /// Number of single-qubit unitary gates.
    pub single_qubit_gates: usize,
    /// Number of two-qubit unitary gates.
    pub two_qubit_gates: usize,
    /// Number of measurement instructions.
    pub measurements: usize,
    /// Number of reset instructions.
    pub resets: usize,
}

/// An ordered Clifford + measurement circuit with QEC annotations.
///
/// # Examples
///
/// Building a two-qubit parity measurement:
///
/// ```
/// use qccd_circuit::{Circuit, Instruction, MeasurementRef, QubitId};
///
/// let d0 = QubitId::new(0);
/// let d1 = QubitId::new(1);
/// let anc = QubitId::new(2);
///
/// let mut circuit = Circuit::new();
/// circuit.push(Instruction::Reset(anc));
/// circuit.push(Instruction::Cnot { control: d0, target: anc });
/// circuit.push(Instruction::Cnot { control: d1, target: anc });
/// circuit.push(Instruction::Measure(anc));
///
/// assert_eq!(circuit.num_qubits(), 3);
/// assert_eq!(circuit.num_measurements(), 1);
/// assert_eq!(circuit.measurement_refs(), vec![MeasurementRef::new(anc, 0)]);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    instructions: Vec<Instruction>,
    detectors: Vec<Detector>,
    observables: Vec<LogicalObservable>,
    num_qubits: usize,
    num_measurements: usize,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Creates an empty circuit with instruction capacity reserved.
    pub fn with_capacity(capacity: usize) -> Self {
        Circuit {
            instructions: Vec::with_capacity(capacity),
            ..Circuit::default()
        }
    }

    /// Appends an instruction to the circuit.
    pub fn push(&mut self, instruction: Instruction) {
        for q in instruction.qubits() {
            self.num_qubits = self.num_qubits.max(q.index() + 1);
        }
        if instruction.is_measurement() {
            self.num_measurements += 1;
        }
        self.instructions.push(instruction);
    }

    /// Appends every instruction from an iterator.
    pub fn extend<I: IntoIterator<Item = Instruction>>(&mut self, iter: I) {
        for instruction in iter {
            self.push(instruction);
        }
    }

    /// Adds a detector annotation.
    pub fn add_detector(&mut self, detector: Detector) {
        self.detectors.push(detector);
    }

    /// Adds a logical observable annotation.
    pub fn add_observable(&mut self, observable: LogicalObservable) {
        self.observables.push(observable);
    }

    /// Returns the instructions in program order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Returns the detector annotations.
    pub fn detectors(&self) -> &[Detector] {
        &self.detectors
    }

    /// Returns the logical observable annotations.
    pub fn observables(&self) -> &[LogicalObservable] {
        &self.observables
    }

    /// Number of qubits referenced (highest index + 1).
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Ensures the circuit reports at least `n` qubits even if some are idle.
    pub fn pad_qubits(&mut self, n: usize) {
        self.num_qubits = self.num_qubits.max(n);
    }

    /// Number of measurement instructions.
    pub fn num_measurements(&self) -> usize {
        self.num_measurements
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the circuit contains no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Returns the measurement references of every measurement instruction,
    /// in program order.
    pub fn measurement_refs(&self) -> Vec<MeasurementRef> {
        let mut per_qubit: HashMap<QubitId, u32> = HashMap::new();
        let mut refs = Vec::with_capacity(self.num_measurements);
        for instruction in &self.instructions {
            if instruction.is_measurement() {
                let qubit = instruction.qubits()[0];
                let occurrence = per_qubit.entry(qubit).or_insert(0);
                refs.push(MeasurementRef::new(qubit, *occurrence));
                *occurrence += 1;
            }
        }
        refs
    }

    /// Maps every [`MeasurementRef`] to its global measurement-record index
    /// in program order.
    ///
    /// Simulators use this to resolve detector and observable definitions.
    pub fn measurement_index_map(&self) -> HashMap<MeasurementRef, usize> {
        self.measurement_refs()
            .into_iter()
            .enumerate()
            .map(|(i, r)| (r, i))
            .collect()
    }

    /// Computes summary statistics.
    pub fn stats(&self) -> CircuitStats {
        let mut stats = CircuitStats {
            num_qubits: self.num_qubits,
            num_instructions: self.instructions.len(),
            ..CircuitStats::default()
        };
        for instruction in &self.instructions {
            if instruction.is_measurement() {
                stats.measurements += 1;
            } else if instruction.is_reset() {
                stats.resets += 1;
            } else if instruction.is_two_qubit() {
                stats.two_qubit_gates += 1;
            } else {
                stats.single_qubit_gates += 1;
            }
        }
        stats
    }

    /// Computes the circuit depth: the number of *moments* when instructions
    /// are greedily packed subject only to qubit-availability dependencies.
    ///
    /// This ignores gate durations and hardware constraints; it is a purely
    /// logical measure used in tests and diagnostics.
    pub fn depth(&self) -> usize {
        let mut qubit_depth: HashMap<QubitId, usize> = HashMap::new();
        let mut depth = 0;
        for instruction in &self.instructions {
            let qubits = instruction.qubits();
            let start = qubits
                .iter()
                .map(|q| qubit_depth.get(q).copied().unwrap_or(0))
                .max()
                .unwrap_or(0);
            let end = start + 1;
            for q in qubits {
                qubit_depth.insert(q, end);
            }
            depth = depth.max(end);
        }
        depth
    }

    /// Validates that every detector and observable references a measurement
    /// that actually exists in the circuit.
    ///
    /// # Errors
    ///
    /// Returns the first dangling [`MeasurementRef`] found, if any.
    pub fn validate_annotations(&self) -> Result<(), MeasurementRef> {
        let index_map = self.measurement_index_map();
        for detector in &self.detectors {
            for m in &detector.measurements {
                if !index_map.contains_key(m) {
                    return Err(*m);
                }
            }
        }
        for observable in &self.observables {
            for m in &observable.measurements {
                if !index_map.contains_key(m) {
                    return Err(*m);
                }
            }
        }
        Ok(())
    }
}

impl FromIterator<Instruction> for Circuit {
    fn from_iter<T: IntoIterator<Item = Instruction>>(iter: T) -> Self {
        let mut circuit = Circuit::new();
        circuit.extend(iter);
        circuit
    }
}

impl<'a> IntoIterator for &'a Circuit {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for instruction in &self.instructions {
            writeln!(f, "{instruction}")?;
        }
        for detector in &self.detectors {
            write!(f, "DETECTOR")?;
            for m in &detector.measurements {
                write!(f, " {m}")?;
            }
            writeln!(f)?;
        }
        for (i, observable) in self.observables.iter().enumerate() {
            write!(f, "OBSERVABLE({i})")?;
            for m in &observable.measurements {
                write!(f, " {m}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn sample_circuit() -> Circuit {
        let mut c = Circuit::new();
        c.push(Instruction::Reset(q(2)));
        c.push(Instruction::H(q(2)));
        c.push(Instruction::Cnot {
            control: q(2),
            target: q(0),
        });
        c.push(Instruction::Cnot {
            control: q(2),
            target: q(1),
        });
        c.push(Instruction::H(q(2)));
        c.push(Instruction::Measure(q(2)));
        c
    }

    #[test]
    fn push_tracks_qubits_and_measurements() {
        let c = sample_circuit();
        assert_eq!(c.num_qubits(), 3);
        assert_eq!(c.num_measurements(), 1);
        assert_eq!(c.len(), 6);
        assert!(!c.is_empty());
    }

    #[test]
    fn stats_classify_instructions() {
        let stats = sample_circuit().stats();
        assert_eq!(stats.single_qubit_gates, 2);
        assert_eq!(stats.two_qubit_gates, 2);
        assert_eq!(stats.measurements, 1);
        assert_eq!(stats.resets, 1);
        assert_eq!(stats.num_instructions, 6);
        assert_eq!(stats.num_qubits, 3);
    }

    #[test]
    fn depth_is_longest_qubit_chain() {
        let c = sample_circuit();
        // q2 participates in every instruction, so depth == number of
        // instructions touching q2.
        assert_eq!(c.depth(), 6);

        let mut parallel = Circuit::new();
        parallel.push(Instruction::H(q(0)));
        parallel.push(Instruction::H(q(1)));
        parallel.push(Instruction::H(q(2)));
        assert_eq!(parallel.depth(), 1);
    }

    #[test]
    fn measurement_refs_count_per_qubit_occurrences() {
        let mut c = Circuit::new();
        c.push(Instruction::Measure(q(0)));
        c.push(Instruction::Measure(q(1)));
        c.push(Instruction::Measure(q(0)));
        let refs = c.measurement_refs();
        assert_eq!(
            refs,
            vec![
                MeasurementRef::new(q(0), 0),
                MeasurementRef::new(q(1), 0),
                MeasurementRef::new(q(0), 1),
            ]
        );
        let map = c.measurement_index_map();
        assert_eq!(map[&MeasurementRef::new(q(0), 1)], 2);
    }

    #[test]
    fn annotations_validate() {
        let mut c = sample_circuit();
        c.add_detector(Detector::new(vec![MeasurementRef::new(q(2), 0)]));
        c.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q(2), 0)]));
        assert!(c.validate_annotations().is_ok());

        c.add_detector(Detector::new(vec![MeasurementRef::new(q(2), 5)]));
        assert_eq!(c.validate_annotations(), Err(MeasurementRef::new(q(2), 5)));
    }

    #[test]
    fn from_iterator_collects() {
        let c: Circuit = vec![Instruction::H(q(0)), Instruction::Measure(q(0))]
            .into_iter()
            .collect();
        assert_eq!(c.len(), 2);
        assert_eq!(c.num_measurements(), 1);
    }

    #[test]
    fn pad_qubits_only_grows() {
        let mut c = sample_circuit();
        c.pad_qubits(10);
        assert_eq!(c.num_qubits(), 10);
        c.pad_qubits(2);
        assert_eq!(c.num_qubits(), 10);
    }

    #[test]
    fn display_includes_annotations() {
        let mut c = Circuit::new();
        c.push(Instruction::Measure(q(0)));
        c.add_detector(Detector::new(vec![MeasurementRef::new(q(0), 0)]));
        c.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q(0), 0)]));
        let text = c.to_string();
        assert!(text.contains("M q0"));
        assert!(text.contains("DETECTOR q0#0"));
        assert!(text.contains("OBSERVABLE(0) q0#0"));
    }
}
