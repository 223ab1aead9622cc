//! # qccd-noise
//!
//! Trapped-ion noise models for the QCCD surface-code architecture study
//! (§5.1 of the paper):
//!
//! * [`NoiseParams`] — the five-channel error model (dephasing, single- and
//!   two-qubit depolarising noise with heating dependence, imperfect reset
//!   and measurement), with the WISE cooling variant. Each channel is an
//!   [`Unscaled`] value (`NoiseParams::*_unscaled`) that
//!   [`Unscaled::at`] finishes at a gate improvement, so a schedule lowered
//!   once can be re-weighted to every improvement a sweep visits;
//! * [`HeatingLedger`] and [`movement_heating`] — per-ion motional-energy
//!   bookkeeping driven by the ion-transport primitives of Table 1 (a dense
//!   `Vec` by qubit index; ions heat on movement and cool on measurement or
//!   reset). WISE's cooling before every two-qubit gate is not a ledger
//!   operation: it is the `cooled` error model of
//!   [`NoiseParams::wise_cooled`].
//!
//! The compiler toolflow in `qccd-core` uses these models to lower a
//! scheduled QCCD program into a noisy stabilizer circuit for `qccd-sim`.
//!
//! # Example
//!
//! ```
//! use qccd_noise::{movement_heating, HeatingLedger, NoiseParams};
//! use qccd_circuit::QubitId;
//! use qccd_hardware::MovementKind;
//!
//! let params = NoiseParams::standard(5.0); // 5X gate improvement
//! let mut heat = HeatingLedger::new(params.base_nbar);
//!
//! // An ancilla shuttles through a junction before its entangling gate.
//! let ancilla = QubitId::new(7);
//! heat.record_movement(ancilla, MovementKind::Split);
//! heat.record_movement(ancilla, MovementKind::JunctionEntry);
//!
//! let p_cold = params.two_qubit_gate_unscaled(40.0, 2, params.base_nbar);
//! let p_hot = params.two_qubit_gate_unscaled(40.0, 2, heat.nbar(ancilla));
//! assert!(p_hot.at(params.gate_improvement) > p_cold.at(params.gate_improvement));
//! // A 5X improvement divides the 1X probability by five.
//! let at_1x = p_hot.at(1.0);
//! assert!((p_hot.at(params.gate_improvement) - at_1x / 5.0).abs() < 1e-15);
//! assert!(movement_heating(MovementKind::Split) > movement_heating(MovementKind::Shuttle));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod heating;
mod params;

pub use heating::{movement_heating, HeatingLedger};
pub use params::{NoiseParams, Unscaled};
