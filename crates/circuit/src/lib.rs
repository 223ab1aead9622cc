//! # qccd-circuit
//!
//! Quantum circuit intermediate representation for the QCCD surface-code
//! architecture study.
//!
//! This crate provides the shared vocabulary used by every other crate in the
//! workspace:
//!
//! * [`QubitId`] / [`MeasurementIndex`] / [`MeasurementRef`] — identifiers,
//!   and [`Qubits`], the inline operand list of an instruction,
//! * [`Instruction`] and [`Circuit`] — Clifford + measurement circuits with
//!   detector and logical-observable annotations,
//! * [`Pauli`] and [`SparsePauli`] — Pauli algebra,
//! * [`clifford`] — conjugation of Pauli strings through Clifford gates,
//! * [`native`] — translation into the trapped-ion native gate set
//!   (Mølmer–Sørensen gates and single-ion rotations) used for timing.
//!
//! # Example
//!
//! Building and inspecting a small parity-check circuit:
//!
//! ```
//! use qccd_circuit::{native, Circuit, Instruction, QubitId};
//!
//! let data = [QubitId::new(0), QubitId::new(1)];
//! let ancilla = QubitId::new(2);
//!
//! let mut circuit = Circuit::new();
//! circuit.push(Instruction::Reset(ancilla));
//! for d in data {
//!     circuit.push(Instruction::Cnot { control: d, target: ancilla });
//! }
//! circuit.push(Instruction::Measure(ancilla));
//!
//! assert_eq!(circuit.stats().two_qubit_gates, 2);
//! // The native translation needs 2 MS gates for the two CNOTs.
//! let ms_gates = circuit.iter().flat_map(native::decompose).filter(|op| op.is_two_qubit());
//! assert_eq!(ms_gates.count(), 2);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod circuit;
pub mod clifford;
mod gate;
pub mod native;
mod pauli;
mod qubit;

pub use circuit::{Circuit, CircuitStats, Detector, LogicalObservable, MeasurementRef};
pub use gate::Instruction;
pub use native::{NativeGateKind, NativeGateOp, NativeOpCounts, RotationAxis};
pub use pauli::{Pauli, SparsePauli};
pub use qubit::{MeasurementIndex, QubitId, Qubits};
