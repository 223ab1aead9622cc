//! Translation to the native trapped-ion gate set.
//!
//! QCCD trapped-ion hardware exposes a small set of primitive quantum
//! operations (§2 of the paper):
//!
//! * (t1) the two-qubit Mølmer–Sørensen (MS) entangling gate,
//! * (t2–t4) single-ion rotations about the X, Y and Z axes,
//! * (t5) qubit measurement, and
//! * (t6) qubit reset.
//!
//! Surface-code parity-check circuits are written in terms of Hadamard,
//! CNOT, measurement and reset; this module converts those instructions into
//! native-gate sequences using standard gate identities (Figgatt 2018). The
//! translation is used for *timing and scheduling*: the Clifford-level
//! circuit retains the semantics used by the stabilizer simulator, while the
//! native sequence determines how long each parity check takes on hardware
//! and how many serialized operations each trap must execute.

use std::fmt;

use crate::{Instruction, QubitId, Qubits};

/// Rotation axis of a single-ion rotation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RotationAxis {
    /// Rotation about the X axis (t2).
    X,
    /// Rotation about the Y axis (t3).
    Y,
    /// Rotation about the Z axis (t4).
    Z,
}

impl fmt::Display for RotationAxis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RotationAxis::X => write!(f, "X"),
            RotationAxis::Y => write!(f, "Y"),
            RotationAxis::Z => write!(f, "Z"),
        }
    }
}

/// Broad class of a native gate operation, used to look up durations and
/// error rates in the hardware timing model without creating a dependency
/// cycle between the circuit and hardware crates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NativeGateKind {
    /// Two-qubit Mølmer–Sørensen gate (t1).
    TwoQubitMs,
    /// Single-ion rotation (t2–t4).
    Rotation,
    /// Qubit measurement (t5).
    Measurement,
    /// Qubit reset (t6).
    Reset,
}

/// A native trapped-ion quantum operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NativeGateOp {
    /// Two-qubit Mølmer–Sørensen XX(π/4) gate between two ions in the same
    /// trap.
    Ms(QubitId, QubitId),
    /// Single-ion rotation by `angle` radians about `axis`.
    Rotation {
        /// The ion being rotated.
        qubit: QubitId,
        /// Rotation axis.
        axis: RotationAxis,
        /// Rotation angle in radians.
        angle: f64,
    },
    /// State-selective fluorescence measurement of one ion.
    Measure(QubitId),
    /// Optical-pumping reset of one ion to |0⟩.
    Reset(QubitId),
}

impl NativeGateOp {
    /// Convenience constructor for a rotation.
    pub fn rotation(qubit: QubitId, axis: RotationAxis, angle: f64) -> Self {
        NativeGateOp::Rotation { qubit, axis, angle }
    }

    /// The qubits this operation acts on.
    pub fn qubits(&self) -> Qubits {
        match *self {
            NativeGateOp::Ms(a, b) => Qubits::two(a, b),
            NativeGateOp::Rotation { qubit, .. }
            | NativeGateOp::Measure(qubit)
            | NativeGateOp::Reset(qubit) => Qubits::one(qubit),
        }
    }

    /// The timing/error class of this operation.
    pub fn kind(&self) -> NativeGateKind {
        match self {
            NativeGateOp::Ms(_, _) => NativeGateKind::TwoQubitMs,
            NativeGateOp::Rotation { .. } => NativeGateKind::Rotation,
            NativeGateOp::Measure(_) => NativeGateKind::Measurement,
            NativeGateOp::Reset(_) => NativeGateKind::Reset,
        }
    }

    /// Returns `true` if this is a two-qubit operation.
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, NativeGateOp::Ms(_, _))
    }
}

impl fmt::Display for NativeGateOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NativeGateOp::Ms(a, b) => write!(f, "MS {a} {b}"),
            NativeGateOp::Rotation { qubit, axis, angle } => {
                write!(f, "R{axis}({angle:.3}) {qubit}")
            }
            NativeGateOp::Measure(q) => write!(f, "MEASURE {q}"),
            NativeGateOp::Reset(q) => write!(f, "RESET {q}"),
        }
    }
}

use std::f64::consts::{FRAC_PI_2, PI};

/// Decomposes one Clifford-level instruction into native trapped-ion
/// operations.
///
/// The decompositions follow standard trapped-ion identities:
///
/// * `H = RY(π/2) · RX(π)`
/// * `CNOT(c,t) = RY(π/2)_c · MS(π/4) · RX(−π/2)_c · RX(−π/2)_t · RY(−π/2)_c`
/// * `CZ(a,b) = H_b · CNOT(a,b) · H_b`
/// * `SWAP(a,b) = CNOT(a,b) · CNOT(b,a) · CNOT(a,b)` (3 MS gates, as the
///   paper's "gate swap" movement cost assumes)
///
/// Pauli gates, `S`, and `√X` map to single rotations. Measurement in the X
/// basis becomes a basis-change rotation followed by a Z-basis measurement.
///
/// # Examples
///
/// ```
/// use qccd_circuit::{native, Instruction, QubitId};
///
/// let cnot = Instruction::Cnot {
///     control: QubitId::new(0),
///     target: QubitId::new(1),
/// };
/// let ops = native::decompose(&cnot);
/// let ms_count = ops.iter().filter(|op| op.is_two_qubit()).count();
/// assert_eq!(ms_count, 1);
/// assert_eq!(ops.len(), 5);
/// ```
pub fn decompose(instruction: &Instruction) -> Vec<NativeGateOp> {
    use Instruction::*;
    use NativeGateOp as N;
    use RotationAxis as A;

    match *instruction {
        I(_) => vec![],
        X(q) => vec![N::rotation(q, A::X, PI)],
        Y(q) => vec![N::rotation(q, A::Y, PI)],
        Z(q) => vec![N::rotation(q, A::Z, PI)],
        S(q) => vec![N::rotation(q, A::Z, FRAC_PI_2)],
        Sdg(q) => vec![N::rotation(q, A::Z, -FRAC_PI_2)],
        SqrtX(q) => vec![N::rotation(q, A::X, FRAC_PI_2)],
        SqrtXdg(q) => vec![N::rotation(q, A::X, -FRAC_PI_2)],
        H(q) => vec![N::rotation(q, A::Y, FRAC_PI_2), N::rotation(q, A::X, PI)],
        Cnot { control, target } => cnot_sequence(control, target),
        Cz(a, b) => {
            let mut ops = vec![N::rotation(b, A::Y, FRAC_PI_2), N::rotation(b, A::X, PI)];
            ops.extend(cnot_sequence(a, b));
            ops.push(N::rotation(b, A::Y, FRAC_PI_2));
            ops.push(N::rotation(b, A::X, PI));
            ops
        }
        Swap(a, b) => {
            let mut ops = cnot_sequence(a, b);
            ops.extend(cnot_sequence(b, a));
            ops.extend(cnot_sequence(a, b));
            ops
        }
        Ms(a, b) => vec![N::Ms(a, b)],
        Measure(q) => vec![N::Measure(q)],
        MeasureX(q) => vec![N::rotation(q, A::Y, -FRAC_PI_2), N::Measure(q)],
        Reset(q) => vec![N::Reset(q)],
    }
}

fn cnot_sequence(control: QubitId, target: QubitId) -> Vec<NativeGateOp> {
    use NativeGateOp as N;
    use RotationAxis as A;
    vec![
        N::rotation(control, A::Y, FRAC_PI_2),
        N::Ms(control, target),
        N::rotation(control, A::X, -FRAC_PI_2),
        N::rotation(target, A::X, -FRAC_PI_2),
        N::rotation(control, A::Y, -FRAC_PI_2),
    ]
}

/// Counts of native operations produced by decomposing an instruction
/// ([`native_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NativeOpCounts {
    /// Number of two-qubit MS gates.
    pub ms: usize,
    /// Number of single-ion rotations.
    pub rotations: usize,
    /// Number of measurements.
    pub measurements: usize,
    /// Number of resets.
    pub resets: usize,
}

/// Tallies the native operations required by one instruction.
pub fn native_counts(instruction: &Instruction) -> NativeOpCounts {
    let mut counts = NativeOpCounts::default();
    for op in decompose(instruction) {
        match op.kind() {
            NativeGateKind::TwoQubitMs => counts.ms += 1,
            NativeGateKind::Rotation => counts.rotations += 1,
            NativeGateKind::Measurement => counts.measurements += 1,
            NativeGateKind::Reset => counts.resets += 1,
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Circuit;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn hadamard_is_two_rotations() {
        let ops = decompose(&Instruction::H(q(0)));
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|op| op.kind() == NativeGateKind::Rotation));
    }

    #[test]
    fn cnot_uses_one_ms_and_four_rotations() {
        let counts = native_counts(&Instruction::Cnot {
            control: q(0),
            target: q(1),
        });
        assert_eq!(counts.ms, 1);
        assert_eq!(counts.rotations, 4);
        assert_eq!(counts.measurements, 0);
        assert_eq!(counts.resets, 0);
    }

    #[test]
    fn swap_uses_three_ms_gates() {
        let counts = native_counts(&Instruction::Swap(q(0), q(1)));
        assert_eq!(counts.ms, 3, "the paper counts a gate swap as 3 MS gates");
        assert_eq!(counts.rotations, 12);
    }

    #[test]
    fn cz_uses_one_ms() {
        let counts = native_counts(&Instruction::Cz(q(0), q(1)));
        assert_eq!(counts.ms, 1);
    }

    #[test]
    fn pauli_gates_are_single_rotations() {
        for instr in [
            Instruction::X(q(0)),
            Instruction::Y(q(0)),
            Instruction::Z(q(0)),
            Instruction::S(q(0)),
            Instruction::Sdg(q(0)),
            Instruction::SqrtX(q(0)),
            Instruction::SqrtXdg(q(0)),
        ] {
            let ops = decompose(&instr);
            assert_eq!(ops.len(), 1, "{instr} should be one rotation");
            assert_eq!(ops[0].kind(), NativeGateKind::Rotation);
        }
    }

    #[test]
    fn identity_is_free() {
        assert!(decompose(&Instruction::I(q(0))).is_empty());
    }

    #[test]
    fn measurement_and_reset_pass_through() {
        assert_eq!(
            decompose(&Instruction::Measure(q(3))),
            vec![NativeGateOp::Measure(q(3))]
        );
        assert_eq!(
            decompose(&Instruction::Reset(q(3))),
            vec![NativeGateOp::Reset(q(3))]
        );
        let mx = decompose(&Instruction::MeasureX(q(3)));
        assert_eq!(mx.len(), 2);
        assert_eq!(mx[1], NativeGateOp::Measure(q(3)));
    }

    #[test]
    fn decompose_circuit_preserves_counts() {
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
        c.push(Instruction::Measure(q(2)));

        for instruction in c.iter() {
            let counts = native_counts(instruction);
            assert_eq!(
                decompose(instruction).len(),
                counts.ms + counts.rotations + counts.measurements + counts.resets,
                "{instruction}"
            );
        }
    }

    #[test]
    fn native_op_metadata() {
        let ms = NativeGateOp::Ms(q(0), q(1));
        assert!(ms.is_two_qubit());
        assert_eq!(ms.qubits(), vec![q(0), q(1)]);
        assert_eq!(ms.kind(), NativeGateKind::TwoQubitMs);
        let rot = NativeGateOp::rotation(q(2), RotationAxis::Y, FRAC_PI_2);
        assert!(!rot.is_two_qubit());
        assert_eq!(rot.qubits(), vec![q(2)]);
        assert!(rot.to_string().starts_with("RY"));
    }
}
