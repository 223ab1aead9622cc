//! Integration tests for the extension experiments (lattice surgery,
//! clustering ablation, decoder ablation).
//!
//! These cross-crate tests pin the qualitative conclusions the extension
//! benches report: the capacity-2 grid keeps its constant round time under
//! lattice surgery, the geometric clustering is what buys the compiler its
//! movement advantage, and the decoder substitution (weighted union-find in
//! place of the paper's MWPM: same threshold behaviour, slightly higher
//! logical error rates) does not change which configurations are viable.

use qccd_core::{ArchitectureConfig, ClusteringStrategy, Compiler, Toolflow};
use qccd_decoder::{estimate_logical_error_rate_report, DecoderKind, EstimatorConfig};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{rotated_surface_code, surgery_workload, MemoryBasis, MergeKind};

#[test]
fn lattice_surgery_keeps_the_capacity_two_round_time_constant() {
    // §8: the merged patch of a ZZ surgery has the same local structure as a
    // single patch, so the capacity-2 grid should run it at (almost) the
    // same round time even though it has ~2.4x the qubits.
    let toolflow = Toolflow::new(ArchitectureConfig::recommended(1.0));
    let workload = surgery_workload(3, MergeKind::ZZ);
    let patch = toolflow
        .evaluate_layout(&workload.patch, 1, false)
        .expect("patch compiles");
    let merged = toolflow
        .evaluate_layout(&workload.merged, 1, false)
        .expect("merged patch compiles");
    let ratio = merged.qec_round_time_us / patch.qec_round_time_us;
    assert!(
        ratio < 1.35,
        "merged-patch round time should stay near the single-patch constant, got ratio {ratio:.2}"
    );
    // The merged patch still needs more movement in absolute terms — it is
    // the *time* that stays flat, thanks to parallelism.
    assert!(merged.movement_ops_per_round > patch.movement_ops_per_round);
}

#[test]
fn lattice_surgery_slows_down_on_large_traps() {
    // The same merged patch on a capacity-6 grid serialises within traps,
    // so the merged phase costs noticeably more than an isolated patch.
    let toolflow = Toolflow::new(ArchitectureConfig::new(
        TopologyKind::Grid,
        6,
        WiringMethod::Standard,
        1.0,
    ));
    let workload = surgery_workload(3, MergeKind::ZZ);
    let patch = toolflow
        .evaluate_layout(&workload.patch, 1, false)
        .expect("patch compiles");
    let merged = toolflow
        .evaluate_layout(&workload.merged, 1, false)
        .expect("merged patch compiles");
    assert!(
        merged.qec_round_time_us > 1.5 * patch.qec_round_time_us,
        "large traps should not keep the surgery round time constant: {:.0} vs {:.0}",
        merged.qec_round_time_us,
        patch.qec_round_time_us
    );
}

#[test]
fn round_robin_ablation_compiles_but_costs_more_movement() {
    let layout = rotated_surface_code(3);
    let arch = ArchitectureConfig::new(TopologyKind::Grid, 6, WiringMethod::Standard, 1.0);
    let geometric = Compiler::new(arch.clone())
        .compile_rounds(&layout, 2)
        .expect("geometric mapping compiles");
    let blind = Compiler::new(arch)
        .with_mapping_strategy(ClusteringStrategy::RoundRobin)
        .compile_rounds(&layout, 2)
        .expect("round-robin mapping compiles");
    assert!(
        geometric.movement_ops() < blind.movement_ops(),
        "round-robin should need more movement: {} vs {}",
        geometric.movement_ops(),
        blind.movement_ops()
    );
    assert!(geometric.elapsed_time_us() <= blind.elapsed_time_us());
}

#[test]
fn decoder_choice_shifts_but_does_not_reorder_logical_error_rates() {
    // Compile one memory experiment and decode the same circuit with both
    // decoders. The exact matcher is the reference: union-find must be
    // within a modest factor, and no decoder may turn a clearly
    // below-threshold configuration into an above-threshold one.
    let layout = rotated_surface_code(3);
    let compiler = Compiler::new(ArchitectureConfig::recommended(10.0));
    let program = compiler
        .compile_memory_experiment(&layout, 3, MemoryBasis::Z)
        .expect("memory experiment compiles");
    let noisy = program.to_noisy_circuit();

    let shots = 3_000;
    let union_find = estimate_logical_error_rate_report(
        &noisy,
        shots,
        11,
        DecoderKind::UnionFind,
        &EstimatorConfig::default(),
    )
    .unwrap()
    .estimate
    .logical_error_rate;
    let exact = estimate_logical_error_rate_report(
        &noisy,
        shots,
        11,
        DecoderKind::ExactMatching,
        &EstimatorConfig::default(),
    )
    .unwrap()
    .estimate
    .logical_error_rate;

    // Both must be in a sane range for a 10X-improved capacity-2 grid.
    for (name, ler) in [("union-find", union_find), ("exact", exact)] {
        assert!(
            ler < 0.35,
            "{name} logical error rate implausibly high: {ler}"
        );
    }
    // The exact matcher never does worse than union-find by more than
    // noise, and union-find sits within a small factor of the exact
    // reference.
    let tolerance = 6.0 * (exact.max(1e-4) / shots as f64).sqrt();
    assert!(
        exact <= union_find + tolerance,
        "exact ({exact}) should not be beaten by union-find ({union_find})"
    );
    assert!(
        union_find <= 5.0 * exact + tolerance + 5.0 / shots as f64,
        "union-find ({union_find}) too far from the exact reference ({exact})"
    );
}
