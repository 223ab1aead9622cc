//! Criterion micro-benchmarks for the stabilizer simulator: one 4 096-shot
//! block from the signature sampler and from the frame-sampler reference, on
//! the same circuits, across fault densities (`p` is the strength of every
//! channel; the mean faults a shot grow with `p × d³`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qccd_circuit::Instruction;
use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};
use qccd_sim::{sample_detector_chunks, FrameSampler, NoiseChannel, NoisyCircuit};

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
    for detector in exp.circuit.detectors() {
        noisy.add_detector(detector.clone());
    }
    for observable in exp.circuit.observables() {
        noisy.add_observable(observable.clone());
    }
    noisy
}

/// `(label, circuit)` over p ∈ {1e-5, 1e-3, 1e-2} × d ∈ {3, 5}.
fn circuits() -> Vec<(String, NoisyCircuit)> {
    let mut out = Vec::new();
    for d in [3usize, 5] {
        for p in [1e-5, 1e-3, 1e-2] {
            let circuit = noisy_memory(d, p);
            let label = format!("d{d}_p{p:.0e}_faults{:.2}", circuit.expected_fault_count());
            out.push((label, circuit));
        }
    }
    out
}

fn bench_detector_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("detector_sampler_4096_shots");
    group.sample_size(10);
    for (label, circuit) in circuits() {
        let sampler = sample_detector_chunks(&circuit, 4096, 7, 4096).expect("samples");
        group.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
            b.iter(|| sampler.sample_chunk(0));
        });
    }
    group.finish();
}

/// The reference the signature sampler replaced: one frame run over the
/// circuit plus the fold of measurement planes into detector and observable
/// planes.
fn bench_frame_reference(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_reference_4096_shots");
    group.sample_size(10);
    for (label, circuit) in circuits() {
        let (detectors, observables) = circuit.resolve_annotations().expect("samples");
        group.bench_with_input(BenchmarkId::from_parameter(&label), &label, |b, _| {
            b.iter(|| {
                let mut frames = FrameSampler::new(circuit.num_qubits(), 4096, 7);
                frames.run(&circuit);
                let mut planes = vec![0u64; (detectors.len() + observables.len()) * 64];
                for (plane, measurements) in planes
                    .chunks_exact_mut(64)
                    .zip(detectors.iter().chain(&observables))
                {
                    for &m in measurements {
                        for (p, &f) in plane.iter_mut().zip(frames.measurement_plane(m)) {
                            *p ^= f;
                        }
                    }
                }
                planes
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_detector_sampling, bench_frame_reference);
criterion_main!(benches);
