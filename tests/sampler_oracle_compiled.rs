//! The exact leg of the sampler oracle (`crates/sim/tests/sampler_oracle.rs`)
//! on compiled programs: every component of every noise channel that
//! `to_noisy_circuit` emits, replayed as a deterministic Pauli through the
//! frame sampler, fires exactly the signature the fault table holds for it.

#[path = "../crates/sim/tests/oracle/mod.rs"]
mod oracle;

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{rotated_surface_code, MemoryBasis};

#[test]
fn every_component_matches_the_frame_sampler_on_compiled_programs() {
    let programs = [
        (TopologyKind::Grid, 2, 3),
        (TopologyKind::Grid, 2, 5),
        (TopologyKind::Grid, 5, 3),
        (TopologyKind::Grid, 5, 5),
        (TopologyKind::Switch, 2, 3),
        (TopologyKind::Linear, 5, 3),
    ];
    let mut checked = 0;
    for (topology, capacity, distance) in programs {
        for basis in [MemoryBasis::Z, MemoryBasis::X] {
            let arch = ArchitectureConfig::new(topology, capacity, WiringMethod::Standard, 5.0);
            let circuit = Compiler::new(arch)
                .compile_memory_experiment(&rotated_surface_code(distance), distance, basis)
                .unwrap_or_else(|e| panic!("{topology} c{capacity} d{distance}: {e}"))
                .to_noisy_circuit();
            let label = format!("{topology} c{capacity} d{distance} {basis:?}");
            checked += oracle::assert_table_matches_frame_sampler(&label, &circuit);
        }
    }
    println!("{checked} components checked");
    assert!(checked > 40_000, "only {checked} components checked");
}
