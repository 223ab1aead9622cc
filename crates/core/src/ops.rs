//! Routed QCCD operations.
//!
//! The router lowers an abstract Clifford circuit into a stream of
//! [`RoutedOp`]s: quantum gates pinned to specific traps, in-trap gate swaps
//! (ion reordering), and ion-transport primitives referencing the hardware
//! resources they occupy. The scheduler then assigns start times to this
//! stream subject to resource exclusivity.

use serde::{Deserialize, Serialize};

use std::collections::HashMap;

use qccd_circuit::{native, Instruction, QubitId, Qubits};
use qccd_hardware::{
    Device, JunctionId, MovementKind, OperationTimes, SegmentId, TrapId, WiringMethod,
};

use crate::QubitMapping;

/// A hardware resource that serialises the operations using it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Resource {
    /// A trap: gates and reconfiguration steps within one trap execute
    /// serially (§3.1).
    Trap(TrapId),
    /// A junction: holds at most one ion at a time.
    Junction(JunctionId),
    /// A shuttling segment: holds at most one ion at a time.
    Segment(SegmentId),
    /// An ion: its operations respect program order.
    Ion(QubitId),
    /// The shared control system; used by the WISE wiring model to serialise
    /// all ion-transport primitives against each other.
    TransportController,
}

/// The resources one operation occupies, held inline: at most five (a
/// movement's ion, segment, trap, junction and, under WISE, the transport
/// controller). Derefs to `[Resource]` in the order
/// [`RoutedOp::resources`] lists them.
#[derive(Clone, Copy)]
pub struct Resources {
    items: [Resource; 5],
    len: u8,
}

impl Resources {
    fn new() -> Self {
        Resources {
            items: [Resource::TransportController; 5],
            len: 0,
        }
    }

    fn push(&mut self, resource: Resource) {
        self.items[usize::from(self.len)] = resource;
        self.len += 1;
    }
}

impl std::ops::Deref for Resources {
    type Target = [Resource];

    fn deref(&self) -> &[Resource] {
        &self.items[..usize::from(self.len)]
    }
}

impl std::fmt::Debug for Resources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One routed operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum RoutedOp {
    /// A quantum instruction executed inside a trap.
    Gate {
        /// The Clifford-level instruction (used for simulation semantics).
        instruction: Instruction,
        /// The trap executing it.
        trap: TrapId,
        /// Number of ions in the trap's chain at execution time (noise model
        /// input).
        chain_len: usize,
    },
    /// A swap of two neighbouring ions within a trap, used to bring an ion to
    /// the end of the chain before a split. Costs three MS gates.
    GateSwap {
        /// The trap performing the swap.
        trap: TrapId,
        /// One of the swapped ions (the one being repositioned).
        ion: QubitId,
        /// The neighbouring ion it swaps with.
        other: QubitId,
        /// Chain length at the time of the swap.
        chain_len: usize,
    },
    /// An ion-transport primitive (t7–t11).
    Movement {
        /// Which primitive.
        kind: MovementKind,
        /// The ion being moved.
        ion: QubitId,
        /// The trap involved (for splits and merges).
        trap: Option<TrapId>,
        /// The junction involved (for junction entry/exit).
        junction: Option<JunctionId>,
        /// The segment involved.
        segment: SegmentId,
    },
}

impl RoutedOp {
    /// Returns `true` for ion-reconfiguration operations (movement primitives
    /// and gate swaps), the quantity counted by the paper's
    /// "number of movement / routing operations" metric (§6.3).
    pub fn is_movement(&self) -> bool {
        matches!(self, RoutedOp::Movement { .. } | RoutedOp::GateSwap { .. })
    }

    /// The duration of this operation under a timing model, including the
    /// effect of WISE cooling on two-qubit gates.
    pub fn duration_us(&self, times: &OperationTimes, wiring: WiringMethod) -> f64 {
        match self {
            RoutedOp::Gate { instruction, .. } => native::decompose(instruction)
                .iter()
                .map(|op| {
                    if wiring.requires_cooling() {
                        times.gate_duration_with_cooling_us(op.kind())
                    } else {
                        times.gate_duration_us(op.kind())
                    }
                })
                .sum(),
            RoutedOp::GateSwap { .. } => times.movement_duration_us(MovementKind::GateSwap),
            RoutedOp::Movement { kind, .. } => times.movement_duration_us(*kind),
        }
    }

    /// The resources this operation occupies for its whole duration.
    pub fn resources(&self, wiring: WiringMethod) -> Resources {
        let mut r = Resources::new();
        match *self {
            RoutedOp::Gate {
                instruction, trap, ..
            } => {
                r.push(Resource::Trap(trap));
                for q in instruction.qubits() {
                    r.push(Resource::Ion(q));
                }
            }
            RoutedOp::GateSwap {
                trap, ion, other, ..
            } => {
                r.push(Resource::Trap(trap));
                r.push(Resource::Ion(ion));
                r.push(Resource::Ion(other));
            }
            RoutedOp::Movement {
                ion,
                trap,
                junction,
                segment,
                ..
            } => {
                r.push(Resource::Ion(ion));
                r.push(Resource::Segment(segment));
                if let Some(t) = trap {
                    r.push(Resource::Trap(t));
                }
                if let Some(j) = junction {
                    r.push(Resource::Junction(j));
                }
                if wiring.transport_type_exclusive() {
                    r.push(Resource::TransportController);
                }
            }
        }
        r
    }

    /// The qubits (ions) involved in this operation.
    pub fn ions(&self) -> Qubits {
        match *self {
            RoutedOp::Gate { instruction, .. } => instruction.qubits(),
            RoutedOp::GateSwap { ion, other, .. } => Qubits::two(ion, other),
            RoutedOp::Movement { ion, .. } => Qubits::one(ion),
        }
    }
}

/// The full routed program produced by the router.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RoutedProgram {
    /// Operations in routed (dependency-respecting) order.
    pub ops: Vec<RoutedOp>,
}

impl RoutedProgram {
    /// Number of ion-reconfiguration operations (movement primitives plus
    /// gate swaps).
    pub fn num_movement_ops(&self) -> usize {
        self.ops.iter().filter(|op| op.is_movement()).count()
    }

    /// Number of quantum gate operations (excluding swaps).
    pub fn num_gate_ops(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, RoutedOp::Gate { .. }))
            .count()
    }

    /// Total time spent in ion reconfiguration, summed over movement
    /// operations (the paper's "movement time" metric in Table 3).
    pub fn movement_time_us(&self, times: &OperationTimes, wiring: WiringMethod) -> f64 {
        self.ops
            .iter()
            .filter(|op| op.is_movement())
            .map(|op| op.duration_us(times, wiring))
            .sum()
    }
}

/// Replays a routed program from its initial mapping and checks the hardware
/// invariants the router must uphold: no trap ever holds more ions than its
/// capacity, an ion is in transit (split out and not yet merged) exactly
/// while transport primitives act on it, and every gate and gate swap finds
/// its ions in the trap it names. Returns a description of the first
/// violation. Exposed for tests and debugging.
pub fn check_routing_invariants(
    program: &RoutedProgram,
    device: &Device,
    mapping: &QubitMapping,
) -> Result<(), String> {
    // `None` while the ion is in transit.
    let mut location: HashMap<QubitId, Option<TrapId>> = HashMap::new();
    let mut occupancy: HashMap<TrapId, usize> = HashMap::new();
    for (&trap, chain) in mapping.chains() {
        occupancy.insert(trap, chain.len());
        location.extend(chain.iter().map(|&q| (q, Some(trap))));
    }
    let expect_at =
        |location: &HashMap<_, _>, ion: QubitId, at: Option<TrapId>, op: &RoutedOp| match location
            .get(&ion)
        {
            Some(&found) if found == at => Ok(()),
            found => Err(format!(
                "{op:?}: {ion} should be at {at:?}, is at {found:?}"
            )),
        };
    for op in &program.ops {
        match *op {
            RoutedOp::Gate {
                instruction, trap, ..
            } => {
                for q in instruction.qubits() {
                    expect_at(&location, q, Some(trap), op)?;
                }
            }
            RoutedOp::GateSwap {
                trap, ion, other, ..
            } => {
                expect_at(&location, ion, Some(trap), op)?;
                expect_at(&location, other, Some(trap), op)?;
            }
            RoutedOp::Movement {
                kind, ion, trap, ..
            } => match (kind, trap) {
                (MovementKind::Split, Some(t)) => {
                    expect_at(&location, ion, Some(t), op)?;
                    *occupancy.entry(t).or_insert(0) -= 1;
                    location.insert(ion, None);
                }
                (MovementKind::Merge, Some(t)) => {
                    expect_at(&location, ion, None, op)?;
                    let count = occupancy.entry(t).or_insert(0);
                    *count += 1;
                    let capacity = device
                        .traps()
                        .get(t.index())
                        .map_or(0, |trap| trap.capacity);
                    if *count > capacity {
                        return Err(format!("{op:?}: trap {t} exceeds its capacity"));
                    }
                    location.insert(ion, Some(t));
                }
                (MovementKind::Split | MovementKind::Merge, None) => {
                    return Err(format!("{op:?} names no trap"));
                }
                _ => expect_at(&location, ion, None, op)?,
            },
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn gate_duration_sums_native_ops() {
        let times = OperationTimes::paper_defaults();
        let cnot = RoutedOp::Gate {
            instruction: Instruction::Cnot {
                control: q(0),
                target: q(1),
            },
            trap: TrapId(0),
            chain_len: 2,
        };
        // 1 MS (40) + 4 rotations (20).
        assert_eq!(cnot.duration_us(&times, WiringMethod::Standard), 60.0);
        // WISE cooling adds 850 µs to the MS gate.
        assert_eq!(cnot.duration_us(&times, WiringMethod::Wise), 910.0);
        let meas = RoutedOp::Gate {
            instruction: Instruction::Measure(q(0)),
            trap: TrapId(0),
            chain_len: 1,
        };
        assert_eq!(meas.duration_us(&times, WiringMethod::Standard), 400.0);
    }

    #[test]
    fn routing_invariants_catch_overfull_traps_and_misplaced_ions() {
        let device = Device::linear(2, 1);
        let chains = [(TrapId(0), vec![q(0)]), (TrapId(1), vec![q(1)])];
        let mapping = QubitMapping::from_chains(chains.into_iter().collect());
        let movement = |kind, trap| RoutedOp::Movement {
            kind,
            ion: q(0),
            trap,
            junction: None,
            segment: SegmentId(0),
        };
        let hop = |dest| RoutedProgram {
            ops: vec![
                movement(MovementKind::Split, Some(TrapId(0))),
                movement(MovementKind::Shuttle, None),
                movement(MovementKind::Merge, Some(TrapId(dest))),
            ],
        };
        assert_eq!(check_routing_invariants(&hop(0), &device, &mapping), Ok(()));
        let overfull = check_routing_invariants(&hop(1), &device, &mapping).unwrap_err();
        assert!(overfull.contains("exceeds its capacity"), "{overfull}");
        let in_transit = RoutedProgram {
            ops: vec![movement(MovementKind::Shuttle, None)],
        };
        let misplaced = check_routing_invariants(&in_transit, &device, &mapping).unwrap_err();
        assert!(misplaced.contains("should be at None"), "{misplaced}");
    }

    #[test]
    fn movement_durations_and_flags() {
        let times = OperationTimes::paper_defaults();
        let split = RoutedOp::Movement {
            kind: MovementKind::Split,
            ion: q(3),
            trap: Some(TrapId(1)),
            junction: None,
            segment: SegmentId(0),
        };
        assert!(split.is_movement());
        assert_eq!(split.duration_us(&times, WiringMethod::Standard), 80.0);
        let swap = RoutedOp::GateSwap {
            trap: TrapId(0),
            ion: q(0),
            other: q(1),
            chain_len: 3,
        };
        assert!(swap.is_movement());
        assert_eq!(swap.duration_us(&times, WiringMethod::Standard), 120.0);
        let gate = RoutedOp::Gate {
            instruction: Instruction::H(q(0)),
            trap: TrapId(0),
            chain_len: 1,
        };
        assert!(!gate.is_movement());
    }

    #[test]
    fn resources_include_shared_transport_controller_under_wise() {
        let hop = RoutedOp::Movement {
            kind: MovementKind::Shuttle,
            ion: q(2),
            trap: None,
            junction: None,
            segment: SegmentId(5),
        };
        let standard = hop.resources(WiringMethod::Standard);
        let wise = hop.resources(WiringMethod::Wise);
        assert!(!standard.contains(&Resource::TransportController));
        assert!(wise.contains(&Resource::TransportController));
        assert!(standard.contains(&Resource::Segment(SegmentId(5))));
        assert!(standard.contains(&Resource::Ion(q(2))));
    }

    #[test]
    fn resource_lists_name_what_each_op_occupies_in_order() {
        use Resource::{Ion, Junction, Segment, TransportController, Trap};
        let movement = |trap, junction| RoutedOp::Movement {
            kind: MovementKind::Shuttle,
            ion: q(3),
            trap,
            junction,
            segment: SegmentId(8),
        };
        let t = TrapId(4);
        let cases = [
            (
                RoutedOp::Gate {
                    instruction: Instruction::H(q(1)),
                    trap: t,
                    chain_len: 1,
                },
                vec![Trap(t), Ion(q(1))],
                vec![],
            ),
            (
                RoutedOp::Gate {
                    instruction: Instruction::Cnot {
                        control: q(2),
                        target: q(1),
                    },
                    trap: t,
                    chain_len: 2,
                },
                vec![Trap(t), Ion(q(2)), Ion(q(1))],
                vec![],
            ),
            (
                RoutedOp::GateSwap {
                    trap: t,
                    ion: q(5),
                    other: q(0),
                    chain_len: 3,
                },
                vec![Trap(t), Ion(q(5)), Ion(q(0))],
                vec![],
            ),
            (
                movement(None, None),
                vec![Ion(q(3)), Segment(SegmentId(8))],
                vec![TransportController],
            ),
            (
                movement(Some(t), None),
                vec![Ion(q(3)), Segment(SegmentId(8)), Trap(t)],
                vec![TransportController],
            ),
            (
                movement(Some(t), Some(JunctionId(6))),
                vec![
                    Ion(q(3)),
                    Segment(SegmentId(8)),
                    Trap(t),
                    Junction(JunctionId(6)),
                ],
                vec![TransportController],
            ),
        ];
        for (op, standard, wise_extra) in cases {
            assert_eq!(
                op.resources(WiringMethod::Standard)[..],
                standard[..],
                "{op:?}"
            );
            let wise: Vec<Resource> = standard.iter().chain(&wise_extra).copied().collect();
            assert_eq!(op.resources(WiringMethod::Wise)[..], wise[..], "{op:?}");
            let ions: Vec<QubitId> = standard
                .iter()
                .filter_map(|r| match r {
                    Ion(q) => Some(*q),
                    _ => None,
                })
                .collect();
            assert_eq!(op.ions(), ions, "{op:?}");
        }
    }

    #[test]
    fn gate_resources_serialize_on_trap_and_ions() {
        let gate = RoutedOp::Gate {
            instruction: Instruction::Cnot {
                control: q(0),
                target: q(1),
            },
            trap: TrapId(4),
            chain_len: 2,
        };
        let resources = gate.resources(WiringMethod::Standard);
        assert!(resources.contains(&Resource::Trap(TrapId(4))));
        assert!(resources.contains(&Resource::Ion(q(0))));
        assert!(resources.contains(&Resource::Ion(q(1))));
    }

    #[test]
    fn program_counters() {
        let times = OperationTimes::paper_defaults();
        let program = RoutedProgram {
            ops: vec![
                RoutedOp::Gate {
                    instruction: Instruction::H(q(0)),
                    trap: TrapId(0),
                    chain_len: 1,
                },
                RoutedOp::Movement {
                    kind: MovementKind::Split,
                    ion: q(0),
                    trap: Some(TrapId(0)),
                    junction: None,
                    segment: SegmentId(0),
                },
                RoutedOp::Movement {
                    kind: MovementKind::Merge,
                    ion: q(0),
                    trap: Some(TrapId(1)),
                    junction: None,
                    segment: SegmentId(0),
                },
                RoutedOp::GateSwap {
                    trap: TrapId(1),
                    ion: q(0),
                    other: q(1),
                    chain_len: 2,
                },
            ],
        };
        assert_eq!(program.num_movement_ops(), 3);
        assert_eq!(program.num_gate_ops(), 1);
        assert_eq!(
            program.movement_time_us(&times, WiringMethod::Standard),
            80.0 + 80.0 + 120.0
        );
    }
}
