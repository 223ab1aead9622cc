//! Workspace-level integration tests: end-to-end logical error rate
//! estimation through compile → noise lowering → sampling → decoding.

use qccd_core::{ArchitectureConfig, Compiler, Toolflow};
use qccd_decoder::{estimate_logical_error_rate_report, DecoderKind, EstimatorConfig};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::verify_detectors;

#[test]
fn compiled_memory_experiments_have_valid_detectors() {
    let compiler = Compiler::new(ArchitectureConfig::recommended(5.0));
    for d in [2usize, 3] {
        let layout = rotated_surface_code(d);
        let program = compiler
            .compile_memory_experiment(&layout, d, MemoryBasis::Z)
            .unwrap();
        let mut quiet = program.arch.noise;
        quiet.t2_seconds = f64::INFINITY;
        quiet.background_heating_per_us = 0.0;
        quiet.laser_instability_a0 = 0.0;
        quiet.reset_error = 0.0;
        quiet.measurement_error = 0.0;
        let noiseless = program.to_noisy_circuit_with(&quiet);
        verify_detectors(&noiseless, &[0, 3]).expect("detectors stay deterministic");
    }
}

#[test]
fn logical_error_rate_improves_with_gate_improvement() {
    let evaluate = |improvement: f64| {
        Toolflow::new(ArchitectureConfig::recommended(improvement))
            .with_shots(4_000)
            .evaluate(3, true)
            .unwrap()
            .logical_error_rate()
            .unwrap()
    };
    let coarse = evaluate(1.0);
    let fine = evaluate(10.0);
    assert!(
        fine < coarse,
        "10X gates ({fine}) must beat 1X gates ({coarse})"
    );
}

#[test]
fn logical_error_rate_falls_with_distance() {
    let evaluate = |distance: usize| {
        Toolflow::new(ArchitectureConfig::recommended(5.0))
            .with_shots(50_000)
            .evaluate(distance, true)
            .unwrap()
            .logical_error_rate()
            .unwrap()
    };
    let (d3, d5) = (evaluate(3), evaluate(5));
    assert!(
        d3 > 0.0 && d5 < d3 / 2.0,
        "d = 5 ({d5}) must beat d = 3 ({d3})"
    );
}

#[test]
fn decoders_rank_exact_union_find() {
    // Compared at d = 5, where both decoders decode every single fault.
    let compiler = Compiler::new(ArchitectureConfig::recommended(5.0));
    let layout = rotated_surface_code(5);
    let noisy = compiler
        .compile_memory_experiment(&layout, 5, MemoryBasis::Z)
        .unwrap()
        .to_noisy_circuit();
    let [exact, uf] = [DecoderKind::ExactMatching, DecoderKind::UnionFind].map(|kind| {
        estimate_logical_error_rate_report(&noisy, 50_000, 5, kind, &EstimatorConfig::default())
            .unwrap()
            .estimate
    });
    assert!(uf.failures > 0, "the comparison needs resolved estimates");
    assert!(
        exact.logical_error_rate <= uf.logical_error_rate * 2.0 + 2.0 * uf.std_error,
        "exact {exact:?} vs union-find {uf:?}"
    );
}

#[test]
fn exact_is_no_worse_than_union_find_at_d7() {
    // At d = 7 on 1X gates many shots carry more than 14 defects, where
    // the exact decoder once handed shots to union-find; its blossom
    // matches them too, and it must not read worse than union-find beyond
    // two standard deviations of union-find's failure count.
    let noisy = Compiler::new(ArchitectureConfig::recommended(1.0))
        .compile_memory_experiment(&rotated_surface_code(7), 7, MemoryBasis::Z)
        .unwrap()
        .to_noisy_circuit();
    let config = EstimatorConfig::default().with_num_threads(1);
    let [exact, uf] = [DecoderKind::ExactMatching, DecoderKind::UnionFind].map(|kind| {
        estimate_logical_error_rate_report(&noisy, 20_000, 2026, kind, &config)
            .unwrap()
            .estimate
    });
    assert!(uf.failures > 0, "the comparison needs resolved estimates");
    let bound = uf.failures as f64 + 2.0 * (uf.failures as f64).sqrt();
    assert!(
        exact.failures as f64 <= bound,
        "exact {exact:?} vs union-find {uf:?}"
    );
}
