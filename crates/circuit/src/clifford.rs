//! Clifford conjugation of Pauli operators.
//!
//! Every unitary instruction in this crate is a Clifford gate, so conjugating
//! a Pauli string `P` by a gate `U` yields another Pauli string `U P U†`
//! (with a ±1 sign). The simulators in `qccd-sim` propagate Paulis with
//! their own bit-level update rules; [`conjugate`] is the first-principles
//! reference their tests check those rules against.

use crate::{Instruction, Pauli, QubitId, SparsePauli};

/// Returns the image `U P U†` of the generator Pauli `pauli` acting on
/// `qubit`, under the unitary instruction `instruction`.
///
/// `pauli` must be `X` or `Z` (generators); images of `Y` are derived from
/// `Y = iXZ` by the caller. Qubits not involved in the gate map to
/// themselves.
fn generator_image(instruction: &Instruction, qubit: QubitId, pauli: Pauli) -> SparsePauli {
    use Instruction::*;
    debug_assert!(matches!(pauli, Pauli::X | Pauli::Z));

    let single = |p: Pauli| SparsePauli::single(qubit, p);
    let single_neg = |p: Pauli| {
        let mut s = SparsePauli::single(qubit, p);
        s.set_phase_exponent(2);
        s
    };
    let pair = |p1: Pauli, q2: QubitId, p2: Pauli| {
        let mut s = SparsePauli::single(qubit, p1);
        s.set(q2, p2);
        s
    };
    let pair_neg = |p1: Pauli, q2: QubitId, p2: Pauli| {
        let mut s = pair(p1, q2, p2);
        s.set_phase_exponent(2);
        s
    };

    match (*instruction, pauli) {
        // Single-qubit gates -------------------------------------------------
        (I(_), p) => single(p),
        (X(_), Pauli::X) => single(Pauli::X),
        (X(_), Pauli::Z) => single_neg(Pauli::Z),
        (Y(_), Pauli::X) => single_neg(Pauli::X),
        (Y(_), Pauli::Z) => single_neg(Pauli::Z),
        (Z(_), Pauli::X) => single_neg(Pauli::X),
        (Z(_), Pauli::Z) => single(Pauli::Z),
        (H(_), Pauli::X) => single(Pauli::Z),
        (H(_), Pauli::Z) => single(Pauli::X),
        (S(_), Pauli::X) => single(Pauli::Y),
        (S(_), Pauli::Z) => single(Pauli::Z),
        (Sdg(_), Pauli::X) => single_neg(Pauli::Y),
        (Sdg(_), Pauli::Z) => single(Pauli::Z),
        (SqrtX(_), Pauli::X) => single(Pauli::X),
        (SqrtX(_), Pauli::Z) => single_neg(Pauli::Y),
        (SqrtXdg(_), Pauli::X) => single(Pauli::X),
        (SqrtXdg(_), Pauli::Z) => single(Pauli::Y),

        // Two-qubit gates ----------------------------------------------------
        (Cnot { control, target }, p) => {
            if qubit == control {
                match p {
                    Pauli::X => pair(Pauli::X, target, Pauli::X),
                    _ => single(Pauli::Z),
                }
            } else {
                match p {
                    Pauli::X => single(Pauli::X),
                    _ => pair(Pauli::Z, control, Pauli::Z),
                }
            }
        }
        (Cz(a, b), p) => {
            let other = if qubit == a { b } else { a };
            match p {
                Pauli::X => pair(Pauli::X, other, Pauli::Z),
                _ => single(Pauli::Z),
            }
        }
        (Swap(a, b), p) => {
            let other = if qubit == a { b } else { a };
            SparsePauli::single(other, p)
        }
        (Ms(a, b), p) => {
            // MS = exp(-i π/4 X⊗X):
            //   X_a → X_a,          X_b → X_b,
            //   Z_a → −Y_a X_b,     Z_b → −X_a Y_b.
            let other = if qubit == a { b } else { a };
            match p {
                Pauli::X => single(Pauli::X),
                _ => pair_neg(Pauli::Y, other, Pauli::X),
            }
        }

        // Non-unitary instructions have no conjugation action (the caller
        // filters these out), and the generator argument is always X or Z so
        // the remaining combinations are unreachable in practice.
        (Measure(_), _) | (MeasureX(_), _) | (Reset(_), _) => single(pauli),
        (_, p) => single(p),
    }
}

/// Conjugates a Pauli string through a single unitary instruction, returning
/// `U P U†`.
///
/// Returns `None` if the instruction is not unitary (measurement or reset);
/// those require state-dependent treatment which is the responsibility of the
/// simulators.
///
/// # Examples
///
/// ```
/// use qccd_circuit::{clifford, Instruction, Pauli, QubitId, SparsePauli};
///
/// let q0 = QubitId::new(0);
/// let q1 = QubitId::new(1);
/// let cnot = Instruction::Cnot { control: q0, target: q1 };
///
/// // X on the control propagates to XX.
/// let x0 = SparsePauli::single(q0, Pauli::X);
/// let image = clifford::conjugate(&cnot, &x0).unwrap();
/// assert_eq!(image.get(q0), Pauli::X);
/// assert_eq!(image.get(q1), Pauli::X);
/// ```
pub fn conjugate(instruction: &Instruction, pauli: &SparsePauli) -> Option<SparsePauli> {
    if !instruction.is_unitary() {
        return None;
    }
    let involved = instruction.qubits();
    let mut result = SparsePauli::identity();
    result.set_phase_exponent(pauli.phase_exponent());
    for (q, p) in pauli.iter() {
        if !involved.contains(&q) {
            result.mul_assign(&SparsePauli::single(q, p));
            continue;
        }
        let factor = match p {
            Pauli::I => continue,
            Pauli::X => generator_image(instruction, q, Pauli::X),
            Pauli::Z => generator_image(instruction, q, Pauli::Z),
            Pauli::Y => {
                // Y = i·X·Z, so image(Y) = i·image(X)·image(Z).
                let mut img = generator_image(instruction, q, Pauli::X);
                img.mul_assign(&generator_image(instruction, q, Pauli::Z));
                img.set_phase_exponent((img.phase_exponent() + 1) % 4);
                img
            }
        };
        result.mul_assign(&factor);
    }
    Some(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn single(i: u32, p: Pauli) -> SparsePauli {
        SparsePauli::single(q(i), p)
    }

    #[test]
    fn hadamard_swaps_x_and_z() {
        let h = Instruction::H(q(0));
        assert_eq!(
            conjugate(&h, &single(0, Pauli::X)).unwrap(),
            single(0, Pauli::Z)
        );
        assert_eq!(
            conjugate(&h, &single(0, Pauli::Z)).unwrap(),
            single(0, Pauli::X)
        );
        // H Y H = -Y.
        let y_image = conjugate(&h, &single(0, Pauli::Y)).unwrap();
        assert_eq!(y_image.get(q(0)), Pauli::Y);
        assert_eq!(y_image.phase_exponent(), 2);
    }

    #[test]
    fn phase_gate_action() {
        let s = Instruction::S(q(0));
        assert_eq!(
            conjugate(&s, &single(0, Pauli::X)).unwrap(),
            single(0, Pauli::Y)
        );
        // S Y S† = -X.
        let y_image = conjugate(&s, &single(0, Pauli::Y)).unwrap();
        assert_eq!(y_image.get(q(0)), Pauli::X);
        assert_eq!(y_image.phase_exponent(), 2);
        // S and S† are inverses.
        let sdg = Instruction::Sdg(q(0));
        let round_trip = conjugate(&sdg, &conjugate(&s, &single(0, Pauli::X)).unwrap()).unwrap();
        assert_eq!(round_trip, single(0, Pauli::X));
    }

    #[test]
    fn cnot_propagation_rules() {
        let cnot = Instruction::Cnot {
            control: q(0),
            target: q(1),
        };
        // X on control spreads to the target.
        let img = conjugate(&cnot, &single(0, Pauli::X)).unwrap();
        assert_eq!(img.get(q(0)), Pauli::X);
        assert_eq!(img.get(q(1)), Pauli::X);
        // Z on target spreads to the control.
        let img = conjugate(&cnot, &single(1, Pauli::Z)).unwrap();
        assert_eq!(img.get(q(0)), Pauli::Z);
        assert_eq!(img.get(q(1)), Pauli::Z);
        // Z on control and X on target are unchanged.
        assert_eq!(
            conjugate(&cnot, &single(0, Pauli::Z)).unwrap(),
            single(0, Pauli::Z)
        );
        assert_eq!(
            conjugate(&cnot, &single(1, Pauli::X)).unwrap(),
            single(1, Pauli::X)
        );
    }

    #[test]
    fn cz_propagation_rules() {
        let cz = Instruction::Cz(q(0), q(1));
        let img = conjugate(&cz, &single(0, Pauli::X)).unwrap();
        assert_eq!(img.get(q(0)), Pauli::X);
        assert_eq!(img.get(q(1)), Pauli::Z);
        let img = conjugate(&cz, &single(1, Pauli::X)).unwrap();
        assert_eq!(img.get(q(0)), Pauli::Z);
        assert_eq!(img.get(q(1)), Pauli::X);
        assert_eq!(
            conjugate(&cz, &single(0, Pauli::Z)).unwrap(),
            single(0, Pauli::Z)
        );
    }

    #[test]
    fn swap_exchanges_qubits() {
        let swap = Instruction::Swap(q(0), q(1));
        assert_eq!(
            conjugate(&swap, &single(0, Pauli::Y)).unwrap(),
            single(1, Pauli::Y)
        );
        assert_eq!(
            conjugate(&swap, &single(1, Pauli::Z)).unwrap(),
            single(0, Pauli::Z)
        );
    }

    #[test]
    fn ms_gate_action_is_self_consistent() {
        let ms = Instruction::Ms(q(0), q(1));
        // X factors are untouched.
        assert_eq!(
            conjugate(&ms, &single(0, Pauli::X)).unwrap(),
            single(0, Pauli::X)
        );
        // Applying MS twice must equal conjugation by X⊗X: Z → −Z.
        let once = conjugate(&ms, &single(0, Pauli::Z)).unwrap();
        let twice = conjugate(&ms, &once).unwrap();
        assert_eq!(twice.get(q(0)), Pauli::Z);
        assert_eq!(twice.get(q(1)), Pauli::I);
        assert_eq!(twice.phase_exponent(), 2);
    }

    #[test]
    fn conjugation_preserves_commutation_relations() {
        // For a fixed gate, images of anticommuting operators anticommute and
        // images of commuting operators commute.
        let gates = [
            Instruction::H(q(0)),
            Instruction::S(q(0)),
            Instruction::SqrtX(q(0)),
            Instruction::Cnot {
                control: q(0),
                target: q(1),
            },
            Instruction::Cz(q(0), q(1)),
            Instruction::Ms(q(0), q(1)),
            Instruction::Swap(q(0), q(1)),
        ];
        let paulis = [
            single(0, Pauli::X),
            single(0, Pauli::Y),
            single(0, Pauli::Z),
            single(1, Pauli::X),
            single(1, Pauli::Z),
            SparsePauli::uniform([q(0), q(1)], Pauli::X),
            SparsePauli::uniform([q(0), q(1)], Pauli::Z),
        ];
        for gate in &gates {
            for a in &paulis {
                for b in &paulis {
                    let ia = conjugate(gate, a).unwrap();
                    let ib = conjugate(gate, b).unwrap();
                    assert_eq!(
                        a.commutes_with(b),
                        ia.commutes_with(&ib),
                        "gate {gate} broke commutation of {a} and {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn bell_circuit_stabilizer_flow() {
        // H(0); CNOT(0,1) maps Z0 → X0X1 and Z1 → Z0Z1 (the Bell stabilizers).
        let h = Instruction::H(q(0));
        let cnot = Instruction::Cnot {
            control: q(0),
            target: q(1),
        };
        let flow = |p: SparsePauli| conjugate(&cnot, &conjugate(&h, &p).unwrap()).unwrap();
        let z0 = flow(single(0, Pauli::Z));
        assert_eq!(z0.get(q(0)), Pauli::X);
        assert_eq!(z0.get(q(1)), Pauli::X);
        let z1 = flow(single(1, Pauli::Z));
        assert_eq!(z1.get(q(0)), Pauli::Z);
        assert_eq!(z1.get(q(1)), Pauli::Z);
    }

    #[test]
    fn non_unitary_returns_none() {
        assert!(conjugate(&Instruction::Measure(q(0)), &single(0, Pauli::X)).is_none());
        assert!(conjugate(&Instruction::Reset(q(0)), &single(0, Pauli::X)).is_none());
    }
}
