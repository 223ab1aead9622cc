//! Lowering a timed schedule into a noisy stabilizer circuit.
//!
//! This is the bridge between the compiler and the logical-error-rate
//! simulation (the "Logical Error Rate Calculation Using Stim" box of the
//! paper's Figure 2): the execution schedule is replayed in time order and
//! every physical effect of §5.1 is inserted as a Pauli noise channel:
//!
//! * **idling / reconfiguration dephasing (e1)** — whenever a qubit is about
//!   to be gated, the time elapsed since its previous gate is converted into
//!   a Z-error probability `(1 − e^{−t/T₂})/2`; this automatically charges
//!   transport time and serialisation delays to the idling qubits;
//! * **gate depolarising noise (e2, e3)** — after every single- and two-qubit
//!   gate, with a probability that depends on the gate duration, the trap's
//!   chain length and the accumulated motional energy of the ions involved;
//! * **heating** — movement primitives add motional quanta to the moved ion
//!   (Table 1 upper bounds); measurement and reset re-cool the ion;
//! * **imperfect reset (e4) and measurement (e5)** — bit-flip channels.
//!
//! The detector and logical-observable annotations of the original circuit
//! are carried over unchanged (they are expressed in per-qubit measurement
//! order, which the compiler preserves).
//!
//! # One walk, two outputs
//!
//! A gate improvement only divides channel probabilities (see
//! `qccd_noise::Unscaled`); it never adds, drops or moves a channel. So the
//! walk computes every channel's probability as an [`Unscaled`] value plus
//! its finishing rule, and finishes it at the parameters' gate improvement.
//! [`lower_to_noisy_circuit`] keeps only the finished circuit;
//! [`ScheduleFaults::lower`] also keeps the unscaled values, next to the
//! circuit's fault table, so [`ScheduleFaults::at`] can re-weight that table
//! to any other gate improvement without compiling or lowering again. Both
//! go through the same walk, so a re-weighted table equals a fresh one bit
//! for bit.
//!
//! The pass walks [`Schedule::ops_in_time_order`] and keeps its per-qubit
//! state dense: each qubit's last release time in a `Vec<f64>` indexed by
//! [`QubitId::index`] and its motional energy in the `Vec`-backed
//! [`HeatingLedger`]. Operand lists are the inline [`Qubits`], so replaying
//! an operation hashes and allocates nothing beyond the output circuit.
//!
//! [`Qubits`]: qccd_circuit::Qubits

use qccd_circuit::{Circuit, Instruction, QubitId};
use qccd_noise::{HeatingLedger, NoiseParams, Unscaled};
use qccd_sim::{FaultTable, NoiseChannel, NoisyCircuit};

use crate::{RoutedOp, Schedule};

/// Lowers a schedule into a noisy stabilizer circuit using the given noise
/// parameters, attaching the detectors and observables of `circuit`.
pub fn lower_to_noisy_circuit(
    schedule: &Schedule,
    circuit: &Circuit,
    params: &NoiseParams,
) -> NoisyCircuit {
    lower(schedule, circuit, params, |_| {})
}

/// The fault table of one lowered schedule together with every channel's
/// [`Unscaled`] probability: the part of a logical-error-rate point that
/// every gate improvement of one (architecture, distance) shares.
/// [`ScheduleFaults::at`] re-weights it to one gate improvement.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleFaults {
    table: FaultTable,
    unscaled: Vec<Unscaled>,
}

impl ScheduleFaults {
    /// Lowers `schedule` with `params` and extracts its fault table. Only
    /// the parameters' non-gate-improvement fields matter: the table is
    /// re-weighted per gate improvement by [`ScheduleFaults::at`].
    pub fn lower(schedule: &Schedule, circuit: &Circuit, params: &NoiseParams) -> Self {
        let mut unscaled = Vec::new();
        let noisy = lower(schedule, circuit, params, |channel| unscaled.push(channel));
        let table = FaultTable::from_circuit(&noisy)
            .expect("lowered circuits carry the input circuit's consistent annotations");
        ScheduleFaults { table, unscaled }
    }

    /// The fault table at `gate_improvement`: bit-equal to the
    /// [`FaultTable::from_circuit`] of the schedule lowered afresh with the
    /// same parameters at that gate improvement.
    pub fn at(&self, gate_improvement: f64) -> FaultTable {
        self.table.with_probabilities(
            self.unscaled
                .iter()
                .map(|channel| channel.at(gate_improvement))
                .collect(),
        )
    }
}

/// The one lowering walk: `record` sees every channel's [`Unscaled`]
/// probability, in op order, as it is emitted. `lower_to_noisy_circuit`
/// passes a no-op, which compiles away.
fn lower(
    schedule: &Schedule,
    circuit: &Circuit,
    params: &NoiseParams,
    record: impl FnMut(Unscaled),
) -> NoisyCircuit {
    let mut out = Emitter {
        noisy: NoisyCircuit::new(),
        gate_improvement: params.gate_improvement,
        record,
    };
    out.noisy.pad_qubits(circuit.num_qubits());
    let mut ledger = HeatingLedger::new(params.base_nbar);
    // When each qubit was last released by a gate (0 before its first),
    // with a slot for every qubit the schedule touches.
    let num_qubits = schedule
        .ops
        .iter()
        .flat_map(|s| s.op.ions())
        .map(|q| q.index() + 1)
        .fold(circuit.num_qubits(), usize::max);
    let mut last_release = vec![0.0; num_qubits];

    for scheduled in schedule.ops_in_time_order() {
        match &scheduled.op {
            RoutedOp::Movement { kind, ion, .. } => {
                ledger.record_movement(*ion, *kind);
            }
            RoutedOp::GateSwap {
                ion,
                other,
                chain_len,
                ..
            } => {
                // Three physical MS gates: depolarise both ions accordingly.
                out.idle_dephasing(params, &last_release, *ion, scheduled.start_us);
                out.idle_dephasing(params, &last_release, *other, scheduled.start_us);
                let unscaled = params.gate_swap_unscaled(
                    scheduled.duration_us(),
                    *chain_len,
                    ledger.pair_nbar(*ion, *other),
                );
                out.noise(unscaled, |p| NoiseChannel::Depolarize2 {
                    a: *ion,
                    b: *other,
                    p,
                });
                last_release[ion.index()] = scheduled.end_us;
                last_release[other.index()] = scheduled.end_us;
            }
            RoutedOp::Gate {
                instruction,
                chain_len,
                ..
            } => {
                let qubits = instruction.qubits();
                for &q in &qubits {
                    out.idle_dephasing(params, &last_release, q, scheduled.start_us);
                }
                match instruction {
                    Instruction::Measure(q) | Instruction::MeasureX(q) => {
                        out.noise(params.measurement_flip_unscaled(), |p| {
                            NoiseChannel::BitFlip { qubit: *q, p }
                        });
                        out.noisy.push_gate(*instruction);
                        ledger.cool(*q);
                    }
                    Instruction::Reset(q) => {
                        out.noisy.push_gate(*instruction);
                        out.noise(params.reset_flip_unscaled(), |p| NoiseChannel::BitFlip {
                            qubit: *q,
                            p,
                        });
                        ledger.cool(*q);
                    }
                    _ if instruction.is_two_qubit() => {
                        out.noisy.push_gate(*instruction);
                        let unscaled = params.two_qubit_gate_unscaled(
                            scheduled.duration_us(),
                            *chain_len,
                            ledger.pair_nbar(qubits[0], qubits[1]),
                        );
                        out.noise(unscaled, |p| NoiseChannel::Depolarize2 {
                            a: qubits[0],
                            b: qubits[1],
                            p,
                        });
                    }
                    _ => {
                        out.noisy.push_gate(*instruction);
                        let unscaled = params.single_qubit_gate_unscaled(
                            scheduled.duration_us(),
                            *chain_len,
                            ledger.nbar(qubits[0]),
                        );
                        out.noise(unscaled, |p| NoiseChannel::Depolarize1 {
                            qubit: qubits[0],
                            p,
                        });
                    }
                }
                for q in qubits {
                    last_release[q.index()] = scheduled.end_us;
                }
            }
        }
    }

    let mut noisy = out.noisy;
    for detector in circuit.detectors() {
        noisy.add_detector(detector.clone());
    }
    for observable in circuit.observables() {
        noisy.add_observable(observable.clone());
    }
    noisy
}

/// The output side of the walk: every channel is finished at the
/// parameters' gate improvement and shown to `record` on the way out.
struct Emitter<R> {
    noisy: NoisyCircuit,
    gate_improvement: f64,
    record: R,
}

impl<R: FnMut(Unscaled)> Emitter<R> {
    fn noise(&mut self, unscaled: Unscaled, channel: impl FnOnce(f64) -> NoiseChannel) {
        (self.record)(unscaled);
        self.noisy
            .push_noise(channel(unscaled.at(self.gate_improvement)));
    }

    fn idle_dephasing(
        &mut self,
        params: &NoiseParams,
        last_release: &[f64],
        qubit: QubitId,
        now_us: f64,
    ) {
        let idle = now_us - last_release[qubit.index()];
        if idle > 1e-9 {
            self.noise(params.dephasing_unscaled(idle), |p| {
                NoiseChannel::PhaseFlip { qubit, p }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{schedule, RoutedProgram};
    use qccd_circuit::Detector;
    use qccd_circuit::MeasurementRef;
    use qccd_hardware::{MovementKind, OperationTimes, SegmentId, TrapId, WiringMethod};
    use qccd_sim::NoisyOp;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn build(ops: Vec<RoutedOp>) -> Schedule {
        schedule(
            &RoutedProgram { ops },
            &OperationTimes::paper_defaults(),
            WiringMethod::Standard,
        )
    }

    #[test]
    fn gates_pick_up_depolarising_noise() {
        let s = build(vec![
            RoutedOp::Gate {
                instruction: Instruction::Reset(q(0)),
                trap: TrapId(0),
                chain_len: 2,
            },
            RoutedOp::Gate {
                instruction: Instruction::Cnot {
                    control: q(0),
                    target: q(1),
                },
                trap: TrapId(0),
                chain_len: 2,
            },
            RoutedOp::Gate {
                instruction: Instruction::Measure(q(1)),
                trap: TrapId(0),
                chain_len: 2,
            },
        ]);
        let mut circuit = Circuit::new();
        circuit.pad_qubits(2);
        let noisy = lower_to_noisy_circuit(&s, &circuit, &NoiseParams::standard(1.0));
        let channels: Vec<&NoiseChannel> = noisy
            .ops()
            .iter()
            .filter_map(|op| match op {
                NoisyOp::Noise(c) => Some(c),
                NoisyOp::Gate(_) => None,
            })
            .collect();
        assert!(channels
            .iter()
            .any(|c| matches!(c, NoiseChannel::Depolarize2 { .. })));
        assert!(channels
            .iter()
            .any(|c| matches!(c, NoiseChannel::BitFlip { .. })));
        // Three gates appear in the noisy circuit.
        assert_eq!(
            noisy
                .ops()
                .iter()
                .filter(|op| matches!(op, NoisyOp::Gate(_)))
                .count(),
            3
        );
    }

    #[test]
    fn idle_time_becomes_dephasing() {
        // Qubit 1 idles while qubit 0 is measured (400 µs) in the same trap,
        // then gets a gate: it must receive a dephasing channel.
        let s = build(vec![
            RoutedOp::Gate {
                instruction: Instruction::Measure(q(0)),
                trap: TrapId(0),
                chain_len: 2,
            },
            RoutedOp::Gate {
                instruction: Instruction::H(q(1)),
                trap: TrapId(0),
                chain_len: 2,
            },
        ]);
        let mut circuit = Circuit::new();
        circuit.pad_qubits(2);
        let noisy = lower_to_noisy_circuit(&s, &circuit, &NoiseParams::standard(1.0));
        let dephasing: Vec<f64> = noisy
            .ops()
            .iter()
            .filter_map(|op| match op {
                NoisyOp::Noise(NoiseChannel::PhaseFlip { qubit, p }) if *qubit == q(1) => Some(*p),
                _ => None,
            })
            .collect();
        assert_eq!(dephasing.len(), 1);
        let expected = NoiseParams::standard(1.0).dephasing_probability(400.0);
        assert!((dephasing[0] - expected).abs() < 1e-15);
    }

    #[test]
    fn movement_heats_the_ion_and_raises_gate_error() {
        let params = NoiseParams::standard(1.0);
        let cold = build(vec![RoutedOp::Gate {
            instruction: Instruction::Ms(q(0), q(1)),
            trap: TrapId(0),
            chain_len: 2,
        }]);
        let hot = build(vec![
            RoutedOp::Movement {
                kind: MovementKind::Split,
                ion: q(0),
                trap: Some(TrapId(1)),
                junction: None,
                segment: SegmentId(0),
            },
            RoutedOp::Movement {
                kind: MovementKind::Merge,
                ion: q(0),
                trap: Some(TrapId(0)),
                junction: None,
                segment: SegmentId(0),
            },
            RoutedOp::Gate {
                instruction: Instruction::Ms(q(0), q(1)),
                trap: TrapId(0),
                chain_len: 2,
            },
        ]);
        let mut circuit = Circuit::new();
        circuit.pad_qubits(2);
        let p_of = |schedule: &Schedule| {
            let noisy = lower_to_noisy_circuit(schedule, &circuit, &params);
            noisy
                .ops()
                .iter()
                .find_map(|op| match op {
                    NoisyOp::Noise(NoiseChannel::Depolarize2 { p, .. }) => Some(*p),
                    _ => None,
                })
                .unwrap()
        };
        assert!(p_of(&hot) > p_of(&cold));
    }

    #[test]
    fn annotations_are_carried_over() {
        let s = build(vec![RoutedOp::Gate {
            instruction: Instruction::Measure(q(0)),
            trap: TrapId(0),
            chain_len: 1,
        }]);
        let mut circuit = Circuit::new();
        circuit.push(Instruction::Measure(q(0)));
        circuit.add_detector(Detector::new(vec![MeasurementRef::new(q(0), 0)]));
        let noisy = lower_to_noisy_circuit(&s, &circuit, &NoiseParams::standard(1.0));
        assert_eq!(noisy.detectors().len(), 1);
        assert!(noisy.resolve_annotations().is_ok());
    }

    #[test]
    fn qubits_beyond_the_circuit_get_release_slots() {
        // The schedule names qubits 3 and 6; the circuit declares none.
        let s = build(vec![
            RoutedOp::GateSwap {
                trap: TrapId(0),
                ion: q(3),
                other: q(6),
                chain_len: 2,
            },
            RoutedOp::Gate {
                instruction: Instruction::Measure(q(3)),
                trap: TrapId(1),
                chain_len: 1,
            },
        ]);
        let noisy = lower_to_noisy_circuit(&s, &Circuit::new(), &NoiseParams::standard(1.0));
        assert_eq!(noisy.num_qubits(), 7);
        assert_eq!(noisy.num_measurements(), 1);
        // The measurement follows the swap directly: no idle dephasing.
        assert!(!noisy
            .ops()
            .iter()
            .any(|op| matches!(op, NoisyOp::Noise(NoiseChannel::PhaseFlip { .. }))));
    }

    #[test]
    fn gate_swaps_add_three_gate_depolarising() {
        let params = NoiseParams::standard(1.0);
        let s = build(vec![RoutedOp::GateSwap {
            trap: TrapId(0),
            ion: q(0),
            other: q(1),
            chain_len: 3,
        }]);
        let mut circuit = Circuit::new();
        circuit.pad_qubits(2);
        let noisy = lower_to_noisy_circuit(&s, &circuit, &params);
        let p_swap = noisy
            .ops()
            .iter()
            .find_map(|op| match op {
                NoisyOp::Noise(NoiseChannel::Depolarize2 { p, .. }) => Some(*p),
                _ => None,
            })
            .unwrap();
        let single = params.two_qubit_gate_error(40.0, 3, params.base_nbar);
        assert!(p_swap > single, "a swap is three gates worth of noise");
    }
}
