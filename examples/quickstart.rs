//! Quickstart: compile a distance-3 rotated surface code onto the paper's
//! recommended architecture (capacity-2 traps, grid topology, standard
//! wiring), print the schedule statistics and estimate the logical error
//! rate.
//!
//! Run with `cargo run --release --example quickstart`.

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{estimate_logical_error_rate_report, DecoderKind, EstimatorConfig};
use qccd_qec::{rotated_surface_code, MemoryBasis};

fn main() {
    // 1. The QEC code: a distance-3 rotated surface code (17 physical qubits).
    let code = rotated_surface_code(3);
    println!(
        "code: {} ({} data + {} ancilla qubits)",
        code.name(),
        code.data_qubits().len(),
        code.ancilla_qubits().len()
    );

    // 2. The candidate architecture: trap capacity 2, grid topology, direct
    //    DAC wiring, 5X gate improvement.
    let arch = ArchitectureConfig::recommended(5.0);
    println!("architecture: {}", arch.label());

    // 3. Compile one round of parity checks.
    let compiler = Compiler::new(arch);
    let round = compiler
        .compile_rounds(&code, 1)
        .expect("the recommended architecture hosts the code");
    println!(
        "one QEC round: {:.0} us elapsed, {} movement ops ({:.0} us of transport), {} traps / {} junctions",
        round.elapsed_time_us(),
        round.movement_ops(),
        round.movement_time_us(),
        round.device.num_traps(),
        round.device.num_junctions(),
    );

    // 4. Compile the full logical-identity experiment (d rounds) and estimate
    //    the logical error rate with the union-find decoder.
    let experiment = compiler
        .compile_memory_experiment(&code, code.distance(), MemoryBasis::Z)
        .expect("memory experiment compiles");
    let noisy = experiment.to_noisy_circuit();
    let estimate = estimate_logical_error_rate_report(
        &noisy,
        20_000,
        7,
        DecoderKind::UnionFind,
        &EstimatorConfig::default(),
    )
    .expect("annotations are consistent")
    .estimate;
    println!(
        "logical identity ({} rounds): {:.0} us per shot, logical error rate {:.2e} ± {:.1e}",
        code.distance(),
        experiment.elapsed_time_us(),
        estimate.logical_error_rate,
        estimate.std_error,
    );
}
