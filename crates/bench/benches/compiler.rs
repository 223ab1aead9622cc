//! Criterion micro-benchmarks for the QEC-to-QCCD compiler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qccd_core::{lower_to_noisy_circuit, schedule, ArchitectureConfig, Compiler};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{rotated_surface_code, MemoryBasis};

fn bench_compile_rounds(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_one_round_grid_c2");
    group.sample_size(10);
    for d in [3usize, 5, 7] {
        let layout = rotated_surface_code(d);
        let compiler = Compiler::new(ArchitectureConfig::recommended(1.0));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| compiler.compile_rounds(&layout, 1).expect("compiles"));
        });
    }
    group.finish();
}

/// The full d-round memory experiment on the recommended architecture: the
/// program every LER point and served stream compiles first, at distances
/// where the router's scaling in d shows.
fn bench_compile_memory_experiment(c: &mut Criterion) {
    let mut group = c.benchmark_group("compile_memory_experiment_grid_c2");
    group.sample_size(10);
    for d in [5usize, 7, 9] {
        let layout = rotated_surface_code(d);
        let compiler = Compiler::new(ArchitectureConfig::recommended(1.0));
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                compiler
                    .compile_memory_experiment(&layout, d, MemoryBasis::Z)
                    .expect("compiles")
            });
        });
    }
    group.finish();
}

/// The compile back end alone: `schedule` + `lower_to_noisy_circuit` on a
/// program routed once up front, at the benchmark's largest grid c2 program
/// and its longest-chain one.
fn bench_schedule_and_lower(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_and_lower");
    group.sample_size(10);
    for (name, capacity, d) in [("grid_c2_d7", 2usize, 7usize), ("grid_c12_d5", 12, 5)] {
        let arch =
            ArchitectureConfig::new(TopologyKind::Grid, capacity, WiringMethod::Standard, 5.0);
        let program = Compiler::new(arch.clone())
            .compile_memory_experiment(&rotated_surface_code(d), d, MemoryBasis::Z)
            .expect("compiles");
        group.bench_function(name, |b| {
            b.iter(|| {
                let timed = schedule(&program.routed, &arch.operation_times, arch.wiring);
                lower_to_noisy_circuit(&timed, &program.circuit, &arch.noise)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_compile_rounds,
    bench_compile_memory_experiment,
    bench_schedule_and_lower
);
criterion_main!(benches);
