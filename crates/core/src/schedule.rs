//! Resource-constrained scheduling (§4.4 of the paper).
//!
//! The scheduler turns the router's operation stream into a timed execution
//! schedule. Every operation occupies a set of exclusive resources (its trap,
//! its ions, the segment or junction it moves through, and — under WISE
//! wiring — the shared transport controller) for its whole duration.
//! Operations are released in routed order per resource, which preserves the
//! happens-before relation constructed during routing, while operations on
//! disjoint resources (different traps, different transport paths) overlap
//! freely. The resulting makespan is the elapsed time metric used throughout
//! the evaluation.
//!
//! The time each resource next becomes free is its *clock*. The clocks are
//! dense: one `Vec<f64>` per resource kind (trap, junction, segment, ion),
//! indexed by id and grown on first sight of an id, plus one `f64` for the
//! transport controller. Placing an operation reads and writes the at most
//! five clocks of its inline [`Resources`] list and hashes nothing. A gate's
//! native decomposition, and so its duration, depends only on its
//! instruction variant, so each variant is costed once per call.

use std::mem::Discriminant;

use qccd_circuit::Instruction;
use qccd_hardware::{OperationTimes, WiringMethod};

use crate::{Resource, Resources, RoutedOp, RoutedProgram};

/// One operation with its assigned execution window.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledOp {
    /// The operation.
    pub op: RoutedOp,
    /// Start time in microseconds.
    pub start_us: f64,
    /// End time in microseconds.
    pub end_us: f64,
}

impl ScheduledOp {
    /// Duration of the operation.
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A timed execution schedule.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schedule {
    /// Scheduled operations, in routed order.
    pub ops: Vec<ScheduledOp>,
    /// Total elapsed time (the latest end time).
    pub makespan_us: f64,
    /// Number of ion-reconfiguration operations.
    pub movement_ops: usize,
    /// Total time spent in ion reconfiguration (summed over operations).
    pub movement_time_us: f64,
}

impl Schedule {
    /// The schedule's operations sorted by start time (ties broken by routed
    /// order), which is the order in which the noise-annotation pass walks
    /// the execution.
    ///
    /// Start times are finite and non-negative, so their bit patterns order
    /// like the values and `(start bits, routed index)` is a total order.
    pub fn ops_in_time_order(&self) -> Vec<&ScheduledOp> {
        let mut keys: Vec<(u64, usize)> = self
            .ops
            .iter()
            .enumerate()
            .map(|(index, s)| {
                debug_assert!(
                    s.start_us.is_finite() && s.start_us.is_sign_positive(),
                    "start time {} is not a finite non-negative time",
                    s.start_us
                );
                (s.start_us.to_bits(), index)
            })
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|(_, index)| &self.ops[index])
            .collect()
    }
}

/// One value per resource: a `Vec` per resource kind indexed by id, grown on
/// the first write past its end, and one slot for the transport controller.
/// Unwritten resources read `T::default()`.
#[derive(Debug, Default)]
struct PerResource<T> {
    traps: Vec<T>,
    junctions: Vec<T>,
    segments: Vec<T>,
    ions: Vec<T>,
    transport: T,
}

impl<T: Copy + Default> PerResource<T> {
    fn get(&self, resource: Resource) -> T {
        let (values, index) = match resource {
            Resource::Trap(t) => (&self.traps, t.index()),
            Resource::Junction(j) => (&self.junctions, j.index()),
            Resource::Segment(s) => (&self.segments, s.index()),
            Resource::Ion(q) => (&self.ions, q.index()),
            Resource::TransportController => return self.transport,
        };
        values.get(index).copied().unwrap_or_default()
    }

    fn set(&mut self, resource: Resource, value: T) {
        let (values, index) = match resource {
            Resource::Trap(t) => (&mut self.traps, t.index()),
            Resource::Junction(j) => (&mut self.junctions, j.index()),
            Resource::Segment(s) => (&mut self.segments, s.index()),
            Resource::Ion(q) => (&mut self.ions, q.index()),
            Resource::TransportController => {
                self.transport = value;
                return;
            }
        };
        if values.len() <= index {
            values.resize(index + 1, T::default());
        }
        values[index] = value;
    }
}

/// Builds the execution schedule for a routed program.
pub fn schedule(program: &RoutedProgram, times: &OperationTimes, wiring: WiringMethod) -> Schedule {
    let mut free_at: PerResource<f64> = PerResource::default();
    // A gate's native decomposition, and so its duration, depends only on
    // its instruction variant: each variant is costed on first sight.
    let mut gate_us: Vec<(Discriminant<Instruction>, f64)> = Vec::new();
    let mut duration_of = |op: &RoutedOp| match op {
        RoutedOp::Gate { instruction, .. } => {
            let variant = std::mem::discriminant(instruction);
            match gate_us.iter().find(|(v, _)| *v == variant) {
                Some(&(_, us)) => us,
                None => {
                    let us = op.duration_us(times, wiring);
                    gate_us.push((variant, us));
                    us
                }
            }
        }
        _ => op.duration_us(times, wiring),
    };
    let mut ops = Vec::with_capacity(program.ops.len());
    let mut makespan: f64 = 0.0;
    let mut movement_ops = 0usize;
    let mut movement_time = 0.0;

    for op in &program.ops {
        let duration = duration_of(op);
        let resources: Resources = op.resources(wiring);
        let start = resources
            .iter()
            .map(|&r| free_at.get(r))
            .fold(0.0, f64::max);
        let end = start + duration;
        for &r in resources.iter() {
            free_at.set(r, end);
        }
        if op.is_movement() {
            movement_ops += 1;
            movement_time += duration;
        }
        makespan = makespan.max(end);
        ops.push(ScheduledOp {
            op: op.clone(),
            start_us: start,
            end_us: end,
        });
    }

    Schedule {
        ops,
        makespan_us: makespan,
        movement_ops,
        movement_time_us: movement_time,
    }
}

/// Verifies that no two operations sharing a resource overlap in time;
/// returns a description of the first violation. Exposed for tests and
/// debugging.
pub fn check_resource_exclusivity(schedule: &Schedule, wiring: WiringMethod) -> Result<(), String> {
    // The interval of each resource's latest operation, in time order.
    let mut previous: PerResource<Option<(f64, f64)>> = PerResource::default();
    for s in schedule.ops_in_time_order() {
        let interval = (s.start_us, s.end_us);
        for &r in s.op.resources(wiring).iter() {
            if let Some(before) = previous.get(r) {
                if interval.0 < before.1 - 1e-9 {
                    return Err(format!(
                        "resource {r:?} has overlapping operations: {before:?} and {interval:?}"
                    ));
                }
            }
            previous.set(r, Some(interval));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::QubitId;
    use qccd_hardware::{JunctionId, MovementKind, SegmentId, TrapId};

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn gate(i: u32, trap: u32) -> RoutedOp {
        RoutedOp::Gate {
            instruction: Instruction::H(q(i)),
            trap: TrapId(trap),
            chain_len: 1,
        }
    }

    fn hop(seg: u32, ion: u32) -> RoutedOp {
        RoutedOp::Movement {
            kind: MovementKind::Shuttle,
            ion: q(ion),
            trap: None,
            junction: None,
            segment: SegmentId(seg),
        }
    }

    #[test]
    fn independent_ops_run_in_parallel() {
        let program = RoutedProgram {
            ops: vec![gate(0, 0), gate(1, 1), gate(2, 2)],
        };
        let times = OperationTimes::paper_defaults();
        let s = schedule(&program, &times, WiringMethod::Standard);
        assert_eq!(
            s.makespan_us, 10.0,
            "three parallel Hadamards take one H time"
        );
        assert!(s.ops.iter().all(|o| o.start_us == 0.0));
        assert!(check_resource_exclusivity(&s, WiringMethod::Standard).is_ok());
    }

    #[test]
    fn same_trap_ops_serialize() {
        let program = RoutedProgram {
            ops: vec![gate(0, 0), gate(1, 0), gate(2, 0)],
        };
        let times = OperationTimes::paper_defaults();
        let s = schedule(&program, &times, WiringMethod::Standard);
        assert_eq!(s.makespan_us, 30.0);
        assert_eq!(s.ops[2].start_us, 20.0);
    }

    #[test]
    fn same_ion_ops_serialize_across_traps() {
        // The same ion cannot be gated in two traps at once (and in practice
        // never is — this guards the dependency semantics).
        let program = RoutedProgram {
            ops: vec![gate(0, 0), gate(0, 1)],
        };
        let times = OperationTimes::paper_defaults();
        let s = schedule(&program, &times, WiringMethod::Standard);
        assert_eq!(s.ops[1].start_us, 10.0);
    }

    #[test]
    fn wise_serialises_transport_globally() {
        let program = RoutedProgram {
            ops: vec![hop(0, 0), hop(1, 1)],
        };
        let times = OperationTimes::paper_defaults();
        let standard = schedule(&program, &times, WiringMethod::Standard);
        let wise = schedule(&program, &times, WiringMethod::Wise);
        assert_eq!(standard.makespan_us, 5.0, "different segments overlap");
        assert_eq!(wise.makespan_us, 10.0, "WISE serialises transport");
    }

    #[test]
    fn the_transport_clock_exists_only_under_wise_and_only_for_movement() {
        // A hop, a gate in an unrelated trap, then a hop on another segment.
        let program = RoutedProgram {
            ops: vec![hop(0, 0), gate(5, 3), hop(1, 1)],
        };
        let times = OperationTimes::paper_defaults();
        let starts = |wiring| -> Vec<f64> {
            let s = schedule(&program, &times, wiring);
            assert!(check_resource_exclusivity(&s, wiring).is_ok());
            s.ops.iter().map(|o| o.start_us).collect()
        };
        assert_eq!(starts(WiringMethod::Standard), vec![0.0, 0.0, 0.0]);
        assert_eq!(starts(WiringMethod::Wise), vec![0.0, 0.0, 5.0]);
    }

    #[test]
    fn clocks_grow_for_ids_first_seen_out_of_order() {
        let mut clocks: PerResource<f64> = PerResource::default();
        clocks.set(Resource::Trap(TrapId(4)), 7.0);
        clocks.set(Resource::Trap(TrapId(1)), 3.0);
        clocks.set(Resource::Trap(TrapId(9)), 2.0);
        clocks.set(Resource::Ion(q(6)), 1.5);
        clocks.set(Resource::Junction(JunctionId(2)), 4.0);
        clocks.set(Resource::Segment(SegmentId(3)), 8.0);
        assert_eq!(
            clocks.traps,
            vec![0.0, 3.0, 0.0, 0.0, 7.0, 0.0, 0.0, 0.0, 0.0, 2.0]
        );
        assert_eq!(clocks.get(Resource::Trap(TrapId(4))), 7.0);
        assert_eq!(clocks.get(Resource::Trap(TrapId(30))), 0.0);
        assert_eq!(clocks.get(Resource::Ion(q(6))), 1.5);
        assert_eq!(clocks.get(Resource::Ion(q(2))), 0.0);
        assert_eq!(clocks.get(Resource::Junction(JunctionId(2))), 4.0);
        assert_eq!(clocks.get(Resource::Segment(SegmentId(3))), 8.0);
        assert_eq!(clocks.get(Resource::TransportController), 0.0);
        clocks.set(Resource::TransportController, 6.0);
        assert_eq!(clocks.get(Resource::TransportController), 6.0);

        // The same through the scheduler: high ids first, then lower ones.
        let program = RoutedProgram {
            ops: vec![gate(9, 12), gate(2, 3), gate(9, 3), gate(0, 12)],
        };
        let s = schedule(
            &program,
            &OperationTimes::paper_defaults(),
            WiringMethod::Standard,
        );
        let starts: Vec<f64> = s.ops.iter().map(|o| o.start_us).collect();
        assert_eq!(starts, vec![0.0, 0.0, 10.0, 10.0]);
    }

    #[test]
    fn movement_statistics() {
        let program = RoutedProgram {
            ops: vec![
                gate(0, 0),
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
            ],
        };
        let times = OperationTimes::paper_defaults();
        let s = schedule(&program, &times, WiringMethod::Standard);
        assert_eq!(s.movement_ops, 2);
        assert_eq!(s.movement_time_us, 160.0);
    }

    #[test]
    fn gate_durations_are_per_variant_not_per_operand() {
        let cnot = |c, t, trap| RoutedOp::Gate {
            instruction: Instruction::Cnot {
                control: q(c),
                target: q(t),
            },
            trap: TrapId(trap),
            chain_len: 2,
        };
        let program = RoutedProgram {
            ops: vec![cnot(0, 1, 0), gate(2, 1), cnot(3, 4, 2), gate(5, 1)],
        };
        let times = OperationTimes::paper_defaults();
        for wiring in [WiringMethod::Standard, WiringMethod::Wise] {
            let s = schedule(&program, &times, wiring);
            for scheduled in &s.ops {
                assert_eq!(
                    scheduled.duration_us(),
                    scheduled.op.duration_us(&times, wiring)
                );
            }
        }
    }

    #[test]
    fn time_order_breaks_ties_by_routed_order() {
        // Routed order: A(trap 0, t=0), B(trap 0, t=10), C(trap 1, t=0),
        // D(trap 2, t=0), E(trap 1, t=10).
        let program = RoutedProgram {
            ops: vec![gate(0, 0), gate(1, 0), gate(2, 1), gate(3, 2), gate(4, 1)],
        };
        let times = OperationTimes::paper_defaults();
        let s = schedule(&program, &times, WiringMethod::Standard);
        let ordered = s.ops_in_time_order();
        let position = |o: &ScheduledOp| s.ops.iter().position(|p| std::ptr::eq(p, o)).unwrap();
        let indices: Vec<usize> = ordered.into_iter().map(position).collect();
        assert_eq!(indices, vec![0, 2, 3, 1, 4]);
    }

    #[test]
    fn overlapping_operations_on_a_resource_are_reported() {
        let program = RoutedProgram {
            ops: vec![gate(0, 0), gate(1, 0)],
        };
        let mut s = schedule(
            &program,
            &OperationTimes::paper_defaults(),
            WiringMethod::Standard,
        );
        assert!(check_resource_exclusivity(&s, WiringMethod::Standard).is_ok());
        s.ops[1].start_us = 5.0;
        let err = check_resource_exclusivity(&s, WiringMethod::Standard).unwrap_err();
        assert_eq!(
            err,
            "resource Trap(TrapId(0)) has overlapping operations: (0.0, 10.0) and (5.0, 20.0)"
        );
    }
}
