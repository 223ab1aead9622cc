//! Property-based tests for the circuit intermediate representation.
//!
//! Random instruction streams exercise the bookkeeping the rest of the stack
//! relies on: measurement counting and indexing, qubit usage, depth and
//! statistics.

use proptest::prelude::*;

use qccd_circuit::{Circuit, Instruction, QubitId};

const NUM_QUBITS: u32 = 6;

/// Strategy: one random instruction over qubits `0..NUM_QUBITS`.
fn instruction() -> impl Strategy<Value = Instruction> {
    let q = || (0..NUM_QUBITS).prop_map(QubitId::new);
    let two = (0..NUM_QUBITS, 0..NUM_QUBITS - 1).prop_map(|(a, b)| {
        // Ensure the two operands are distinct.
        let b = if b >= a { b + 1 } else { b };
        (QubitId::new(a), QubitId::new(b))
    });
    prop_oneof![
        q().prop_map(Instruction::X),
        q().prop_map(Instruction::Z),
        q().prop_map(Instruction::H),
        q().prop_map(Instruction::S),
        q().prop_map(Instruction::SqrtX),
        q().prop_map(Instruction::Measure),
        q().prop_map(Instruction::MeasureX),
        q().prop_map(Instruction::Reset),
        two.clone()
            .prop_map(|(control, target)| Instruction::Cnot { control, target }),
        two.clone().prop_map(|(a, b)| Instruction::Cz(a, b)),
        two.clone().prop_map(|(a, b)| Instruction::Ms(a, b)),
        two.prop_map(|(a, b)| Instruction::Swap(a, b)),
    ]
}

/// Strategy: a random circuit of up to 60 instructions.
fn circuit() -> impl Strategy<Value = Circuit> {
    prop::collection::vec(instruction(), 0..60).prop_map(|instructions| {
        let mut circuit = Circuit::new();
        circuit.pad_qubits(NUM_QUBITS as usize);
        circuit.extend(instructions);
        circuit
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn operand_arity_matches_the_two_qubit_predicate(instruction in instruction()) {
        let qubits = instruction.qubits();
        prop_assert_eq!(instruction.is_two_qubit(), qubits.len() == 2);
        prop_assert!(!qubits.is_empty() && qubits.len() <= 2);
        // Two-qubit instructions never have repeated operands in this IR.
        if qubits.len() == 2 {
            prop_assert_ne!(qubits[0], qubits[1]);
        }
    }

    #[test]
    fn measurement_bookkeeping_is_consistent(circuit in circuit()) {
        let expected = circuit
            .iter()
            .filter(|instruction| instruction.is_measurement())
            .count();
        prop_assert_eq!(circuit.num_measurements(), expected);
        let refs = circuit.measurement_refs();
        prop_assert_eq!(refs.len(), expected);

        // The measurement index map inverts the reference list.
        let map = circuit.measurement_index_map();
        prop_assert_eq!(map.len(), refs.len());
        for (index, reference) in refs.iter().enumerate() {
            prop_assert_eq!(map.get(reference).copied(), Some(index));
        }
    }

    #[test]
    fn depth_is_bounded_by_length(circuit in circuit()) {
        prop_assert!(circuit.depth() <= circuit.len());
        if circuit.is_empty() {
            prop_assert_eq!(circuit.depth(), 0);
        } else {
            prop_assert!(circuit.depth() >= 1);
        }
    }

    #[test]
    fn used_qubits_are_within_the_declared_range(circuit in circuit()) {
        for q in circuit.iter().flat_map(|instruction| instruction.qubits()) {
            prop_assert!(q.index() < circuit.num_qubits());
        }
        prop_assert!(circuit.num_qubits() >= NUM_QUBITS as usize);
    }

    #[test]
    fn stats_partition_the_instruction_stream(circuit in circuit()) {
        let stats = circuit.stats();
        let single: usize = circuit
            .iter()
            .filter(|i| i.is_unitary() && !i.is_two_qubit())
            .count();
        let double: usize = circuit.iter().filter(|i| i.is_two_qubit()).count();
        let measurements = circuit.iter().filter(|i| i.is_measurement()).count();
        let resets = circuit.iter().filter(|i| i.is_reset()).count();
        prop_assert_eq!(single + double + measurements + resets, circuit.len());
        // The reported statistics must agree with direct counting.
        prop_assert_eq!(stats.two_qubit_gates, double);
        prop_assert_eq!(stats.measurements, measurements);
        prop_assert_eq!(stats.resets, resets);
    }
}
