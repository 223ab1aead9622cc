//! Motional-energy (heating) bookkeeping.
//!
//! Ion transport heats the ion: Table 1 of the paper bounds the mean
//! vibrational quanta n̄ added by each reconfiguration primitive (shuttle
//! < 0.1, split/merge < 6, junction crossing < 3), and the paper
//! pessimistically uses these upper bounds. The [`HeatingLedger`] tracks the
//! accumulated n̄ of every ion; gates read it to scale their error rates
//! (through [`NoiseParams::two_qubit_gate_unscaled`]) and state-preparation
//! operations (measurement followed by reset, or explicit sympathetic
//! cooling) return the ion to its base value.
//!
//! The ledger is a dense `Vec` indexed by [`QubitId::index`], grown when an
//! ion past its end is first heated; an ion it does not cover reads the base
//! n̄. WISE's cooling before every two-qubit gate is modelled by the
//! `cooled` error rates of [`NoiseParams::wise_cooled`], not by the ledger.
//!
//! [`NoiseParams::two_qubit_gate_unscaled`]: crate::NoiseParams::two_qubit_gate_unscaled
//! [`NoiseParams::wise_cooled`]: crate::NoiseParams::wise_cooled

use qccd_circuit::QubitId;
use qccd_hardware::MovementKind;

/// Motional quanta added by each movement primitive (Table 1 upper bounds).
pub fn movement_heating(kind: MovementKind) -> f64 {
    match kind {
        MovementKind::Shuttle => 0.1,
        MovementKind::Split | MovementKind::Merge => 6.0,
        MovementKind::JunctionEntry | MovementKind::JunctionExit => 3.0,
        // A gate swap is three MS gates; it adds no transport heating beyond
        // the background captured in the gate error model.
        MovementKind::GateSwap => 0.0,
    }
}

/// Tracks the mean vibrational energy n̄ of every ion.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HeatingLedger {
    base_nbar: f64,
    /// n̄ per ion, indexed by [`QubitId::index`]; ions past the end are at
    /// `base_nbar`.
    nbar: Vec<f64>,
}

impl HeatingLedger {
    /// Creates a ledger where every ion starts at `base_nbar` quanta.
    pub fn new(base_nbar: f64) -> Self {
        HeatingLedger {
            base_nbar,
            nbar: Vec::new(),
        }
    }

    /// The current motional energy of an ion.
    pub fn nbar(&self, ion: QubitId) -> f64 {
        self.nbar
            .get(ion.index())
            .copied()
            .unwrap_or(self.base_nbar)
    }

    /// The motional energy relevant to a two-qubit gate between two ions:
    /// the gate is driven through the shared motional mode of the chain, so
    /// the hotter ion dominates.
    pub fn pair_nbar(&self, a: QubitId, b: QubitId) -> f64 {
        self.nbar(a).max(self.nbar(b))
    }

    /// Records that `ion` experienced the given movement primitive.
    pub fn record_movement(&mut self, ion: QubitId, kind: MovementKind) {
        let added = movement_heating(kind);
        if added > 0.0 {
            let i = ion.index();
            if self.nbar.len() <= i {
                self.nbar.resize(i + 1, self.base_nbar);
            }
            self.nbar[i] += added;
        }
    }

    /// Cools an ion back to the base motional energy (e.g. after measurement
    /// and re-preparation, or sympathetic cooling).
    pub fn cool(&mut self, ion: QubitId) {
        if let Some(nbar) = self.nbar.get_mut(ion.index()) {
            *nbar = self.base_nbar;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn table_1_heating_values() {
        assert_eq!(movement_heating(MovementKind::Shuttle), 0.1);
        assert_eq!(movement_heating(MovementKind::Split), 6.0);
        assert_eq!(movement_heating(MovementKind::Merge), 6.0);
        assert_eq!(movement_heating(MovementKind::JunctionEntry), 3.0);
        assert_eq!(movement_heating(MovementKind::JunctionExit), 3.0);
        assert_eq!(movement_heating(MovementKind::GateSwap), 0.0);
    }

    #[test]
    fn ledger_accumulates_and_cools() {
        let mut ledger = HeatingLedger::new(0.1);
        assert_eq!(ledger.nbar(q(0)), 0.1);
        ledger.record_movement(q(0), MovementKind::Split);
        ledger.record_movement(q(0), MovementKind::Shuttle);
        assert!((ledger.nbar(q(0)) - 6.2).abs() < 1e-12);
        assert_eq!(ledger.nbar(q(1)), 0.1);
        ledger.cool(q(0));
        assert_eq!(ledger.nbar(q(0)), 0.1);
    }

    #[test]
    fn pair_nbar_takes_the_hotter_ion() {
        let mut ledger = HeatingLedger::new(0.1);
        ledger.record_movement(q(1), MovementKind::JunctionEntry);
        assert!((ledger.pair_nbar(q(0), q(1)) - 3.1).abs() < 1e-12);
    }

    #[test]
    fn ions_first_seen_out_of_order_grow_the_ledger_at_base() {
        let mut ledger = HeatingLedger::new(0.5);
        // Cooling or reading an ion the ledger does not cover leaves it at
        // base and does not grow it.
        ledger.cool(q(9));
        assert_eq!(ledger.nbar(q(9)), 0.5);
        ledger.record_movement(q(3), MovementKind::Merge);
        ledger.record_movement(q(7), MovementKind::JunctionExit);
        ledger.record_movement(q(1), MovementKind::Shuttle);
        // A primitive that adds no heat leaves an uncovered ion uncovered.
        ledger.record_movement(q(12), MovementKind::GateSwap);
        assert_eq!(ledger.nbar, vec![0.5, 0.6, 0.5, 6.5, 0.5, 0.5, 0.5, 3.5]);
        assert_eq!(ledger.nbar(q(12)), 0.5);
        assert_eq!(ledger.pair_nbar(q(7), q(40)), 3.5);
        ledger.cool(q(3));
        assert_eq!(ledger.nbar(q(3)), 0.5);
        assert_eq!(ledger.nbar(q(7)), 3.5);
    }
}
