//! Ion routing (§4.3 of the paper).
//!
//! * [`DeviceState`] — ion positions and in-trap chain order during routing;
//! * [`route`] — the multi-pass routing algorithm that inserts movement
//!   primitives so every two-qubit gate executes within a single trap while
//!   respecting trap capacity and junction/segment exclusivity.
//!
//! # Cost model
//!
//! A `route` call builds its working set once — a CSR copy of the device's
//! routing graph on dense node indices, per-qubit instruction queues and
//! per-trap/per-ion tables indexed by [`TrapId::index`](qccd_hardware::TrapId)
//! and [`QubitId::index`](qccd_circuit::QubitId) — and then pays, per pass,
//! O(ready front) for emission (the front is maintained incrementally, never
//! re-collected from the queues) and one breadth-first search per planned
//! move. An evacuation costs one search when the ion's home trap is reachable
//! (the usual case); otherwise one more for the ideal way home, one per
//! target probed along it, and only when all of those fail a single further
//! search that ranks the remaining free traps. Searches reuse epoch-stamped
//! scratch, so each costs the nodes it visits. Nothing is per-trap-squared
//! and nothing hashes.

mod router;
mod state;

pub use router::route;
pub use state::DeviceState;
