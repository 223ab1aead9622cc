//! Circuit instructions.
//!
//! The instruction set is deliberately restricted to the Clifford group plus
//! measurement and reset: this is exactly what surface-code parity-check
//! circuits require, and it is what a stabilizer simulator can handle
//! efficiently. The translation to the trapped-ion *native* gate set
//! (Mølmer–Sørensen entangling gates and single-ion rotations) lives in
//! [`crate::native`] and is only used for timing/scheduling purposes.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{QubitId, Qubits};

/// A single instruction of a Clifford + measurement circuit.
///
/// Two-qubit instructions list the *control* first where the distinction is
/// meaningful ([`Instruction::Cnot`]); symmetric gates such as
/// [`Instruction::Cz`] and [`Instruction::Swap`] treat both operands
/// equivalently.
///
/// # Examples
///
/// ```
/// use qccd_circuit::{Instruction, QubitId};
///
/// let cnot = Instruction::Cnot {
///     control: QubitId::new(0),
///     target: QubitId::new(1),
/// };
/// assert_eq!(cnot.qubits(), vec![QubitId::new(0), QubitId::new(1)]);
/// assert!(cnot.is_two_qubit());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Instruction {
    /// Identity (explicit idle marker, occasionally useful in schedules).
    I(QubitId),
    /// Pauli X.
    X(QubitId),
    /// Pauli Y.
    Y(QubitId),
    /// Pauli Z.
    Z(QubitId),
    /// Hadamard.
    H(QubitId),
    /// Phase gate `S = diag(1, i)`.
    S(QubitId),
    /// Inverse phase gate `S† = diag(1, -i)`.
    Sdg(QubitId),
    /// Square root of X (`√X`), a Clifford rotation by π/2 about the X axis.
    SqrtX(QubitId),
    /// Inverse square root of X.
    SqrtXdg(QubitId),
    /// Controlled-NOT with explicit control and target.
    Cnot {
        /// Control qubit.
        control: QubitId,
        /// Target qubit.
        target: QubitId,
    },
    /// Controlled-Z (symmetric).
    Cz(QubitId, QubitId),
    /// SWAP (symmetric).
    Swap(QubitId, QubitId),
    /// Mølmer–Sørensen XX(π/4) interaction (symmetric, Clifford).
    ///
    /// This is the native trapped-ion entangling gate. At the Clifford level
    /// it is equivalent to `exp(-i π/4 · X⊗X)`.
    Ms(QubitId, QubitId),
    /// Measurement in the computational (Z) basis, producing one measurement
    /// record.
    Measure(QubitId),
    /// Measurement in the X basis, producing one measurement record.
    MeasureX(QubitId),
    /// Reset to |0⟩.
    Reset(QubitId),
}

impl Instruction {
    /// Returns the qubits this instruction acts on, in operand order.
    pub fn qubits(&self) -> Qubits {
        match *self {
            Instruction::I(q)
            | Instruction::X(q)
            | Instruction::Y(q)
            | Instruction::Z(q)
            | Instruction::H(q)
            | Instruction::S(q)
            | Instruction::Sdg(q)
            | Instruction::SqrtX(q)
            | Instruction::SqrtXdg(q)
            | Instruction::Measure(q)
            | Instruction::MeasureX(q)
            | Instruction::Reset(q) => Qubits::one(q),
            Instruction::Cnot { control, target } => Qubits::two(control, target),
            Instruction::Cz(a, b) | Instruction::Swap(a, b) | Instruction::Ms(a, b) => {
                Qubits::two(a, b)
            }
        }
    }

    /// Returns `true` if this instruction acts on exactly two qubits.
    pub fn is_two_qubit(&self) -> bool {
        matches!(
            self,
            Instruction::Cnot { .. }
                | Instruction::Cz(_, _)
                | Instruction::Swap(_, _)
                | Instruction::Ms(_, _)
        )
    }

    /// Returns `true` if this instruction produces a measurement record.
    pub fn is_measurement(&self) -> bool {
        matches!(self, Instruction::Measure(_) | Instruction::MeasureX(_))
    }

    /// Returns `true` if this instruction is a reset.
    pub fn is_reset(&self) -> bool {
        matches!(self, Instruction::Reset(_))
    }

    /// Returns `true` if this instruction is a unitary Clifford gate
    /// (i.e. not a measurement and not a reset).
    pub fn is_unitary(&self) -> bool {
        !self.is_measurement() && !self.is_reset()
    }

    /// Returns `true` if the instruction acts on the given qubit.
    pub fn acts_on(&self, qubit: QubitId) -> bool {
        self.qubits().contains(&qubit)
    }

    /// A short mnemonic name for the instruction kind.
    pub fn name(&self) -> &'static str {
        match self {
            Instruction::I(_) => "I",
            Instruction::X(_) => "X",
            Instruction::Y(_) => "Y",
            Instruction::Z(_) => "Z",
            Instruction::H(_) => "H",
            Instruction::S(_) => "S",
            Instruction::Sdg(_) => "SDG",
            Instruction::SqrtX(_) => "SQRT_X",
            Instruction::SqrtXdg(_) => "SQRT_X_DAG",
            Instruction::Cnot { .. } => "CNOT",
            Instruction::Cz(_, _) => "CZ",
            Instruction::Swap(_, _) => "SWAP",
            Instruction::Ms(_, _) => "MS",
            Instruction::Measure(_) => "M",
            Instruction::MeasureX(_) => "MX",
            Instruction::Reset(_) => "R",
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        for q in self.qubits() {
            write!(f, " {q}")?;
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

    #[test]
    fn qubit_lists() {
        assert_eq!(Instruction::H(q(3)).qubits(), vec![q(3)]);
        assert_eq!(
            Instruction::Cnot {
                control: q(1),
                target: q(2)
            }
            .qubits(),
            vec![q(1), q(2)]
        );
        assert_eq!(Instruction::Swap(q(5), q(6)).qubits(), vec![q(5), q(6)]);
    }

    #[test]
    fn every_variant_lists_its_operands_in_order() {
        let (a, b) = (q(7), q(2));
        let cases = [
            (Instruction::I(a), vec![a]),
            (Instruction::X(a), vec![a]),
            (Instruction::Y(a), vec![a]),
            (Instruction::Z(a), vec![a]),
            (Instruction::H(a), vec![a]),
            (Instruction::S(a), vec![a]),
            (Instruction::Sdg(a), vec![a]),
            (Instruction::SqrtX(a), vec![a]),
            (Instruction::SqrtXdg(a), vec![a]),
            (
                Instruction::Cnot {
                    control: a,
                    target: b,
                },
                vec![a, b],
            ),
            (Instruction::Cz(a, b), vec![a, b]),
            (Instruction::Swap(a, b), vec![a, b]),
            (Instruction::Ms(a, b), vec![a, b]),
            (Instruction::Measure(a), vec![a]),
            (Instruction::MeasureX(a), vec![a]),
            (Instruction::Reset(a), vec![a]),
        ];
        for (instruction, expected) in cases {
            assert_eq!(instruction.qubits(), expected, "{instruction}");
            assert_eq!(
                instruction.qubits().into_iter().collect::<Vec<_>>(),
                expected
            );
            assert_eq!(instruction.is_two_qubit(), expected.len() == 2);
        }
    }

    #[test]
    fn classification() {
        assert!(Instruction::Cz(q(0), q(1)).is_two_qubit());
        assert!(!Instruction::H(q(0)).is_two_qubit());
        assert!(Instruction::Measure(q(0)).is_measurement());
        assert!(Instruction::MeasureX(q(0)).is_measurement());
        assert!(!Instruction::Reset(q(0)).is_measurement());
        assert!(Instruction::Reset(q(0)).is_reset());
        assert!(Instruction::H(q(0)).is_unitary());
        assert!(!Instruction::Measure(q(0)).is_unitary());
        assert!(!Instruction::Reset(q(0)).is_unitary());
    }

    #[test]
    fn acts_on() {
        let g = Instruction::Cnot {
            control: q(1),
            target: q(4),
        };
        assert!(g.acts_on(q(1)));
        assert!(g.acts_on(q(4)));
        assert!(!g.acts_on(q(2)));
    }

    #[test]
    fn display_format() {
        assert_eq!(Instruction::H(q(2)).to_string(), "H q2");
        assert_eq!(
            Instruction::Cnot {
                control: q(0),
                target: q(1)
            }
            .to_string(),
            "CNOT q0 q1"
        );
        assert_eq!(Instruction::Ms(q(3), q(7)).to_string(), "MS q3 q7");
    }

    #[test]
    fn names_are_unique_per_kind() {
        let gates = [
            Instruction::I(q(0)),
            Instruction::X(q(0)),
            Instruction::Y(q(0)),
            Instruction::Z(q(0)),
            Instruction::H(q(0)),
            Instruction::S(q(0)),
            Instruction::Sdg(q(0)),
            Instruction::SqrtX(q(0)),
            Instruction::SqrtXdg(q(0)),
            Instruction::Cnot {
                control: q(0),
                target: q(1),
            },
            Instruction::Cz(q(0), q(1)),
            Instruction::Swap(q(0), q(1)),
            Instruction::Ms(q(0), q(1)),
            Instruction::Measure(q(0)),
            Instruction::MeasureX(q(0)),
            Instruction::Reset(q(0)),
        ];
        let names: std::collections::HashSet<_> = gates.iter().map(|g| g.name()).collect();
        assert_eq!(names.len(), gates.len());
    }
}
