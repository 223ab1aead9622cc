//! Criterion micro-benchmarks for the stabilizer simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qccd_circuit::{Instruction, QubitId};
use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};
use qccd_sim::{sample_detector_chunks, NoiseChannel, NoisyCircuit};

fn noisy_memory(d: usize, p: f64) -> NoisyCircuit {
    let code = rotated_surface_code(d);
    let exp = memory_experiment(&code, d, MemoryBasis::Z);
    let mut noisy = NoisyCircuit::new();
    noisy.pad_qubits(exp.circuit.num_qubits());
    for instruction in exp.circuit.iter() {
        noisy.push_gate(*instruction);
        if let Instruction::Cnot { control, target } = instruction {
            noisy.push_noise(NoiseChannel::Depolarize2 {
                a: *control,
                b: *target,
                p,
            });
        }
        if let Instruction::Reset(q) = instruction {
            noisy.push_noise(NoiseChannel::BitFlip { qubit: *q, p });
        }
    }
    let _ = QubitId::new(0);
    for detector in exp.circuit.detectors() {
        noisy.add_detector(detector.clone());
    }
    for observable in exp.circuit.observables() {
        noisy.add_observable(observable.clone());
    }
    noisy
}

fn bench_frame_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_sampler_4096_shots");
    group.sample_size(10);
    for d in [3usize, 5] {
        let circuit = noisy_memory(d, 1e-3);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                sample_detector_chunks(&circuit, 4096, 7, 4096)
                    .expect("samples")
                    .sample_chunk(0)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_frame_sampling);
criterion_main!(benches);
