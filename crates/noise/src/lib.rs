//! # qccd-noise
//!
//! Trapped-ion noise models for the QCCD surface-code architecture study
//! (§5.1 of the paper):
//!
//! * [`NoiseParams`] — the five-channel error model (dephasing, single- and
//!   two-qubit depolarising noise with heating dependence, imperfect reset
//!   and measurement), with gate-improvement scaling and the WISE cooling
//!   variant;
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
//! let p_cold = params.two_qubit_gate_error(40.0, 2, params.base_nbar);
//! let p_hot = params.two_qubit_gate_error(40.0, 2, heat.nbar(ancilla));
//! assert!(p_hot > p_cold);
//! assert!(movement_heating(MovementKind::Split) > movement_heating(MovementKind::Shuttle));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod heating;
mod params;

pub use heating::{movement_heating, HeatingLedger};
pub use params::{NoiseParams, Unscaled};
