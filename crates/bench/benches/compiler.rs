//! Criterion micro-benchmarks for the QEC-to-QCCD compiler.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qccd_core::{ArchitectureConfig, Compiler};
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

criterion_group!(
    benches,
    bench_compile_rounds,
    bench_compile_memory_experiment
);
criterion_main!(benches);
