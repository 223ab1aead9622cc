//! # qccd-core
//!
//! The paper's primary contribution: a **QEC- and device-topology-aware
//! compiler** that maps surface-code parity-check circuits onto QCCD
//! trapped-ion hardware, plus the **design-space exploration toolflow** that
//! evaluates candidate architectures (Figure 2 of the paper).
//!
//! The compilation pipeline (Figure 5):
//!
//! 1. **Mapping** ([`map_qubits`]) — cluster code qubits by top-down regular
//!    partitioning of the layout, then place clusters onto traps with a
//!    Hungarian-algorithm geometric matching (§4.2);
//! 2. **Routing** ([`route`]) — insert ion-transport primitives so that every
//!    two-qubit gate happens within one trap, respecting trap capacity and
//!    junction / segment exclusivity (§4.3);
//! 3. **Scheduling** ([`schedule`]) — assign start times under resource
//!    constraints, honouring the WISE transport-serialisation rule when that
//!    wiring method is selected (§4.4);
//! 4. **Noise lowering** ([`lower_to_noisy_circuit`]) — replay the schedule
//!    and inject the five-channel error model of §5.1, producing a noisy
//!    stabilizer circuit for logical-error-rate estimation.
//!
//! The [`Toolflow`] wraps the whole pipeline and reports the paper's metrics
//! (round time, shot time, movement operations, electrodes / DACs / data
//! rate / power, logical error rate).
//!
//! # Example
//!
//! ```
//! use qccd_core::{ArchitectureConfig, Compiler};
//! use qccd_qec::rotated_surface_code;
//!
//! // The paper's recommended design point: capacity-2 traps, grid topology,
//! // standard wiring.
//! let arch = ArchitectureConfig::recommended(5.0);
//! let compiler = Compiler::new(arch);
//!
//! let code = rotated_surface_code(3);
//! let program = compiler.compile_rounds(&code, 1)?;
//! assert!(program.elapsed_time_us() > 0.0);
//! assert!(program.movement_ops() > 0);
//! # Ok::<(), qccd_core::CompileError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arch;
#[doc(hidden)]
#[rustfmt::skip]
pub mod compile_cache;
mod compiler;
mod error;
mod lower;
mod mapping;
mod metrics;
mod ops;
mod routing;
mod schedule;
pub mod theoretical;
mod toolflow;

pub use arch::ArchitectureConfig;
pub use compiler::{CompiledProgram, Compiler};
pub use error::CompileError;
pub use lower::{lower_to_noisy_circuit, ScheduleFaults};
pub use mapping::{
    cluster_qubits, cluster_qubits_with_strategy, cut_weight, hungarian, map_qubits,
    map_qubits_with_strategy, validate_clustering, ClusteringStrategy, QubitCluster, QubitMapping,
};
pub use metrics::Metrics;
pub use ops::{check_routing_invariants, Resource, Resources, RoutedOp, RoutedProgram};
pub use routing::{route, DeviceState};
pub use schedule::{check_resource_exclusivity, schedule, Schedule, ScheduledOp};
pub use toolflow::{Toolflow, ToolflowSpec};
