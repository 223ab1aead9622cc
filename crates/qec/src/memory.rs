//! Memory (logical identity) experiments.
//!
//! The paper's architectural evaluation uses the *logical identity*
//! operation: initialise a logical qubit, run `rounds` rounds of parity
//! checks, then measure every data qubit (§6.1). The circuit built here
//! carries the detector and logical-observable annotations needed to compute
//! a logical error rate with the stabilizer simulator and decoder.
//!
//! Detector structure: only checks of the memory's deterministic basis
//! (Z-type for a Z-basis memory) are annotated, `rounds + 1` detectors each.
//! A CSS code is decoded one basis at a time, and only that basis's
//! detectors can see a fault that flips the observable; the other basis's
//! checks are still measured every round — they are the code — but their
//! outcomes cannot change any decoded answer, so they carry no detectors.
//!
//! * round 0: the outcome is deterministic because the data qubits start in
//!   the memory basis, so each first-round measurement is its own detector;
//! * rounds `r ≥ 1`: the detector compares the outcome with the previous
//!   round's outcome for the same ancilla;
//! * final data measurement: each check is reconstructed from the data
//!   measurements and compared with the last ancilla measurement.
//!
//! The logical observable is the parity of the final measurements of the
//! data qubits supporting the logical Z (or X) operator.

use serde::{Deserialize, Serialize};

use qccd_circuit::{Circuit, Detector, Instruction, LogicalObservable, MeasurementRef};

use crate::{append_parity_check_round, CodeLayout, StabilizerBasis};

/// The basis in which the logical qubit is stored and measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryBasis {
    /// Store |0⟩_L; Z-type stabilizers and the logical Z are deterministic.
    Z,
    /// Store |+⟩_L; X-type stabilizers and the logical X are deterministic.
    X,
}

impl MemoryBasis {
    /// The stabilizer basis whose outcomes are deterministic for this
    /// experiment.
    pub fn deterministic_basis(self) -> StabilizerBasis {
        match self {
            MemoryBasis::Z => StabilizerBasis::Z,
            MemoryBasis::X => StabilizerBasis::X,
        }
    }
}

/// A memory experiment: the annotated circuit plus bookkeeping metadata.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryExperiment {
    /// The annotated circuit (gates, detectors, logical observable).
    pub circuit: Circuit,
    /// Number of parity-check rounds.
    pub rounds: usize,
    /// Memory basis.
    pub basis: MemoryBasis,
    /// Number of detectors in the circuit.
    pub num_detectors: usize,
}

/// Builds a memory experiment for `layout` with the given number of rounds.
///
/// # Panics
///
/// Panics if `rounds == 0`.
///
/// # Examples
///
/// ```
/// use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};
///
/// let code = rotated_surface_code(3);
/// let experiment = memory_experiment(&code, 3, MemoryBasis::Z);
/// assert_eq!(experiment.rounds, 3);
/// assert!(experiment.circuit.validate_annotations().is_ok());
/// ```
pub fn memory_experiment(
    layout: &CodeLayout,
    rounds: usize,
    basis: MemoryBasis,
) -> MemoryExperiment {
    assert!(rounds > 0, "a memory experiment needs at least one round");
    let mut circuit = Circuit::new();
    circuit.pad_qubits(layout.num_qubits());

    // Initialisation: reset all data qubits; for an X-basis memory, rotate
    // them into |+⟩.
    for data in layout.data_qubits() {
        circuit.push(Instruction::Reset(data));
        if basis == MemoryBasis::X {
            circuit.push(Instruction::H(data));
        }
    }

    // Parity-check rounds.
    for _ in 0..rounds {
        append_parity_check_round(&mut circuit, layout);
    }

    // Final transversal data measurement in the memory basis.
    for data in layout.data_qubits() {
        let instruction = match basis {
            MemoryBasis::Z => Instruction::Measure(data),
            MemoryBasis::X => Instruction::MeasureX(data),
        };
        circuit.push(instruction);
    }

    // Detectors: only the deterministic basis is annotated. A fault that
    // flips the logical observable is seen by checks of that basis alone,
    // so the other basis's syndrome cannot change any decoded answer.
    let deterministic = basis.deterministic_basis();
    let last_round = (rounds - 1) as u32;
    for stab in layout.stabilizers() {
        if stab.basis != deterministic {
            continue;
        }
        let coord = layout.coord(stab.ancilla);
        // First round: the outcome itself is deterministic.
        circuit.add_detector(Detector::with_coordinate(
            vec![MeasurementRef::new(stab.ancilla, 0)],
            [coord.row as f64, coord.col as f64, 0.0],
        ));
        // Round-to-round comparison detectors.
        for r in 1..rounds as u32 {
            circuit.add_detector(Detector::with_coordinate(
                vec![
                    MeasurementRef::new(stab.ancilla, r),
                    MeasurementRef::new(stab.ancilla, r - 1),
                ],
                [coord.row as f64, coord.col as f64, r as f64],
            ));
        }
        // Final round: the check reconstructed from the data measurements.
        let mut measurements = vec![MeasurementRef::new(stab.ancilla, last_round)];
        for data in stab.data_support() {
            measurements.push(MeasurementRef::new(data, 0));
        }
        circuit.add_detector(Detector::with_coordinate(
            measurements,
            [coord.row as f64, coord.col as f64, rounds as f64],
        ));
    }

    // Logical observable: the final measurements of the logical operator's
    // data qubits.
    let logical_support = match basis {
        MemoryBasis::Z => layout.logical_z(),
        MemoryBasis::X => layout.logical_x(),
    };
    circuit.add_observable(LogicalObservable::new(
        logical_support
            .iter()
            .map(|&q| MeasurementRef::new(q, 0))
            .collect(),
    ));

    let num_detectors = circuit.detectors().len();
    MemoryExperiment {
        circuit,
        rounds,
        basis,
        num_detectors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{repetition_code, rotated_surface_code, unrotated_surface_code};

    #[test]
    fn annotations_reference_real_measurements() {
        for layout in [
            repetition_code(3),
            rotated_surface_code(3),
            unrotated_surface_code(3),
        ] {
            for rounds in [1, 2, 4] {
                let exp = memory_experiment(&layout, rounds, MemoryBasis::Z);
                assert!(exp.circuit.validate_annotations().is_ok());
            }
        }
    }

    #[test]
    fn detector_count_formula() {
        // Only deterministic-basis checks are annotated: R+1 detectors each.
        let layout = rotated_surface_code(3);
        let rounds = 4;
        let exp = memory_experiment(&layout, rounds, MemoryBasis::Z);
        let z_checks = layout
            .stabilizers()
            .iter()
            .filter(|s| s.basis == StabilizerBasis::Z)
            .count();
        assert_eq!(exp.num_detectors, z_checks * (rounds + 1));
    }

    #[test]
    fn no_detector_references_the_other_basis() {
        for layout in [rotated_surface_code(3), unrotated_surface_code(3)] {
            for basis in [MemoryBasis::Z, MemoryBasis::X] {
                let exp = memory_experiment(&layout, 3, basis);
                let other: Vec<_> = layout
                    .stabilizers()
                    .iter()
                    .filter(|s| s.basis != basis.deterministic_basis())
                    .map(|s| s.ancilla)
                    .collect();
                assert!(!other.is_empty());
                for detector in exp.circuit.detectors() {
                    for m in &detector.measurements {
                        assert!(!other.contains(&m.qubit), "{basis:?}: {detector:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn measurement_count() {
        let layout = rotated_surface_code(3);
        let rounds = 3;
        let exp = memory_experiment(&layout, rounds, MemoryBasis::Z);
        let expected = layout.stabilizers().len() * rounds + layout.data_qubits().len();
        assert_eq!(exp.circuit.num_measurements(), expected);
    }

    #[test]
    fn x_basis_uses_x_measurements_and_hadamards() {
        let layout = rotated_surface_code(3);
        let exp = memory_experiment(&layout, 2, MemoryBasis::X);
        let mx = exp
            .circuit
            .iter()
            .filter(|i| matches!(i, Instruction::MeasureX(_)))
            .count();
        assert_eq!(mx, layout.data_qubits().len());
        assert!(exp.circuit.validate_annotations().is_ok());
    }

    #[test]
    fn observable_covers_logical_operator() {
        let layout = rotated_surface_code(5);
        let exp = memory_experiment(&layout, 2, MemoryBasis::Z);
        assert_eq!(exp.circuit.observables().len(), 1);
        assert_eq!(
            exp.circuit.observables()[0].measurements.len(),
            layout.distance()
        );
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_rounds_rejected() {
        memory_experiment(&repetition_code(3), 0, MemoryBasis::Z);
    }

    #[test]
    fn repetition_code_memory_has_no_x_detector_rounds() {
        // Repetition code has only Z checks, so every check gets R+1
        // detectors.
        let layout = repetition_code(4);
        let rounds = 3;
        let exp = memory_experiment(&layout, rounds, MemoryBasis::Z);
        assert_eq!(exp.num_detectors, (rounds + 1) * layout.stabilizers().len());
    }
}
