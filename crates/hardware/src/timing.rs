//! Operation timing model (Table 1 of the paper).
//!
//! All durations are in microseconds and are derived from Gutiérrez et al.
//! (2019), as adopted by the paper. The reconfiguration primitives (t7–t11)
//! do not directly carry a gate infidelity; instead they heat the ion chain
//! (captured by the noise model in `qccd-noise`) and consume time during
//! which idling qubits dephase.

use qccd_circuit::NativeGateKind;

/// The kinds of ion-movement primitives (t7–t11 plus in-trap gate swaps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MovementKind {
    /// (t7) Shuttle an ion across a transport segment.
    Shuttle,
    /// (t8) Split an ion out of a trap into a segment.
    Split,
    /// (t9) Merge an ion from a segment into a trap.
    Merge,
    /// (t10) Enter a junction from a segment.
    JunctionEntry,
    /// (t11) Exit a junction into a segment.
    JunctionExit,
    /// Reorder ions within a trap by swapping two neighbours
    /// (3 two-qubit MS gates, per §2 of the paper).
    GateSwap,
}

impl MovementKind {
    /// Every movement kind, useful for exhaustive iteration in tests and the
    /// WISE transport-serialisation model.
    pub const ALL: [MovementKind; 6] = [
        MovementKind::Shuttle,
        MovementKind::Split,
        MovementKind::Merge,
        MovementKind::JunctionEntry,
        MovementKind::JunctionExit,
        MovementKind::GateSwap,
    ];
}

/// Durations of every primitive QCCD operation, in microseconds.
///
/// The default values reproduce Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperationTimes {
    /// (t1) Two-qubit Mølmer–Sørensen gate.
    pub two_qubit_ms_us: f64,
    /// (t2–t4) Single-ion rotation.
    pub rotation_us: f64,
    /// (t5) Measurement.
    pub measurement_us: f64,
    /// (t6) Qubit reset.
    pub reset_us: f64,
    /// (t7) Ion shuttling across one segment.
    pub shuttle_us: f64,
    /// (t8) Ion split.
    pub split_us: f64,
    /// (t9) Ion merge.
    pub merge_us: f64,
    /// (t10) Junction crossing entry.
    pub junction_entry_us: f64,
    /// (t11) Junction crossing exit.
    pub junction_exit_us: f64,
    /// Extra time added to every two-qubit gate when sympathetic cooling is
    /// performed before the gate (used by the WISE wiring model, §5.1).
    pub cooling_overhead_us: f64,
}

impl Default for OperationTimes {
    fn default() -> Self {
        OperationTimes {
            two_qubit_ms_us: 40.0,
            rotation_us: 5.0,
            measurement_us: 400.0,
            reset_us: 50.0,
            shuttle_us: 5.0,
            split_us: 80.0,
            merge_us: 80.0,
            junction_entry_us: 100.0,
            junction_exit_us: 100.0,
            cooling_overhead_us: 850.0,
        }
    }
}

impl OperationTimes {
    /// The Table-1 values used throughout the paper.
    pub fn paper_defaults() -> Self {
        OperationTimes::default()
    }

    /// Duration of a native quantum gate of the given kind, without cooling.
    pub fn gate_duration_us(&self, kind: NativeGateKind) -> f64 {
        match kind {
            NativeGateKind::TwoQubitMs => self.two_qubit_ms_us,
            NativeGateKind::Rotation => self.rotation_us,
            NativeGateKind::Measurement => self.measurement_us,
            NativeGateKind::Reset => self.reset_us,
        }
    }

    /// Duration of a native quantum gate when sympathetic cooling is applied
    /// before two-qubit gates (the WISE operating mode).
    pub fn gate_duration_with_cooling_us(&self, kind: NativeGateKind) -> f64 {
        match kind {
            NativeGateKind::TwoQubitMs => self.two_qubit_ms_us + self.cooling_overhead_us,
            _ => self.gate_duration_us(kind),
        }
    }

    /// Duration of an ion-movement primitive.
    ///
    /// A [`MovementKind::GateSwap`] is implemented as three sequential
    /// two-qubit MS gates.
    pub fn movement_duration_us(&self, kind: MovementKind) -> f64 {
        match kind {
            MovementKind::Shuttle => self.shuttle_us,
            MovementKind::Split => self.split_us,
            MovementKind::Merge => self.merge_us,
            MovementKind::JunctionEntry => self.junction_entry_us,
            MovementKind::JunctionExit => self.junction_exit_us,
            MovementKind::GateSwap => 3.0 * self.two_qubit_ms_us,
        }
    }

    /// The time to move an ion from one trap into an adjacent trap through a
    /// direct segment (split + shuttle + merge), with no junction crossing.
    pub fn direct_hop_us(&self) -> f64 {
        self.split_us + self.shuttle_us + self.merge_us
    }

    /// The time to move an ion between two traps through one junction:
    /// split + shuttle + junction entry + junction exit + shuttle + merge.
    pub fn junction_hop_us(&self) -> f64 {
        self.split_us
            + 2.0 * self.shuttle_us
            + self.junction_entry_us
            + self.junction_exit_us
            + self.merge_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let t = OperationTimes::paper_defaults();
        assert_eq!(t.two_qubit_ms_us, 40.0);
        assert_eq!(t.rotation_us, 5.0);
        assert_eq!(t.measurement_us, 400.0);
        assert_eq!(t.reset_us, 50.0);
        assert_eq!(t.shuttle_us, 5.0);
        assert_eq!(t.split_us, 80.0);
        assert_eq!(t.merge_us, 80.0);
        assert_eq!(t.junction_entry_us, 100.0);
        assert_eq!(t.junction_exit_us, 100.0);
    }

    #[test]
    fn gate_duration_lookup() {
        let t = OperationTimes::default();
        assert_eq!(t.gate_duration_us(NativeGateKind::TwoQubitMs), 40.0);
        assert_eq!(t.gate_duration_us(NativeGateKind::Rotation), 5.0);
        assert_eq!(t.gate_duration_us(NativeGateKind::Measurement), 400.0);
        assert_eq!(t.gate_duration_us(NativeGateKind::Reset), 50.0);
    }

    #[test]
    fn cooling_only_slows_two_qubit_gates() {
        let t = OperationTimes::default();
        assert_eq!(
            t.gate_duration_with_cooling_us(NativeGateKind::TwoQubitMs),
            890.0
        );
        assert_eq!(
            t.gate_duration_with_cooling_us(NativeGateKind::Rotation),
            5.0
        );
        assert_eq!(
            t.gate_duration_with_cooling_us(NativeGateKind::Measurement),
            400.0
        );
    }

    #[test]
    fn movement_durations() {
        let t = OperationTimes::default();
        assert_eq!(t.movement_duration_us(MovementKind::Shuttle), 5.0);
        assert_eq!(t.movement_duration_us(MovementKind::Split), 80.0);
        assert_eq!(t.movement_duration_us(MovementKind::Merge), 80.0);
        assert_eq!(t.movement_duration_us(MovementKind::JunctionEntry), 100.0);
        assert_eq!(t.movement_duration_us(MovementKind::JunctionExit), 100.0);
        // A gate swap is three MS gates.
        assert_eq!(t.movement_duration_us(MovementKind::GateSwap), 120.0);
    }

    #[test]
    fn hop_times_compose_primitives() {
        let t = OperationTimes::default();
        assert_eq!(t.direct_hop_us(), 165.0);
        assert_eq!(t.junction_hop_us(), 80.0 + 5.0 + 100.0 + 100.0 + 5.0 + 80.0);
    }
}
