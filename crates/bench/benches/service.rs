//! Criterion benchmarks for the streaming decode service: the replay
//! loadgen against the offline word-parallel batch decode, at the paper's
//! deep below-threshold sampling point (d = 5, p = 2e-3).
//!
//! The service's target is to sustain **≥ 80%** of the offline
//! single-thread `decode_batch` shots/s on the same frames while staying
//! bit-identical — the loadgen report printed after the groups carries the
//! measured ratio, the client-side p50/p99 latency and the mismatch count
//! (always 0 by the identity property suite). Nothing asserts the ratio:
//! measured throughput lives in the committed `BENCH_*.json` ledgers.
//!
//! The ratio is core-count sensitive: submission, decode and delivery are
//! pipeline stages that overlap on separate cores, while on a single-core
//! runner every stage timeshares with the decode itself and the measured
//! ratio is the end-to-end overhead floor. This 50k-shot pass finishes in
//! milliseconds and is scheduler-noise dominated, so read the ratio from
//! longer runs when it matters — the offline baseline does no ingestion,
//! batching, routing or delivery at all.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use qccd_circuit::Instruction;
use qccd_decoder::{DecodeScratch, DecoderKind};
use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};
use qccd_service::{loadgen, DecodeProgram, DecodeService, LoadgenOptions, ServiceConfig};
use qccd_sim::{sample_detector_chunks, NoiseChannel, NoisyCircuit};

/// A rotated-surface-code memory experiment with code-capacity depolarising
/// noise at rate `p` on every data qubit each round (the same workload as
/// the decoder benches).
fn code_capacity_memory(d: usize, p: f64) -> NoisyCircuit {
    let code = rotated_surface_code(d);
    let exp = memory_experiment(&code, d, MemoryBasis::Z);
    let data = code.data_qubits();
    let mut noisy = NoisyCircuit::new();
    noisy.pad_qubits(exp.circuit.num_qubits());
    let first_ancilla = code.ancilla_qubits()[0];
    for instruction in exp.circuit.iter() {
        if let Instruction::Reset(q) = instruction {
            if *q == first_ancilla {
                for &dq in &data {
                    noisy.push_noise(NoiseChannel::Depolarize1 { qubit: dq, p });
                }
            }
        }
        noisy.push_gate(*instruction);
    }
    for det in exp.circuit.detectors() {
        noisy.add_detector(det.clone());
    }
    for obs in exp.circuit.observables() {
        noisy.add_observable(obs.clone());
    }
    noisy
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default()
        .with_workers(2)
        .with_flush_deadline(Duration::from_micros(500))
        .with_max_batch_words(32)
        .with_stream_queue_shots(8192)
}

/// Offline baseline vs streamed service decode on the same sampled frames.
fn bench_service_vs_offline(c: &mut Criterion) {
    let d = 5usize;
    let shots = 50_000;
    let circuit = code_capacity_memory(d, 0.002);
    let program = Arc::new(
        DecodeProgram::from_circuit("bench", circuit.clone(), DecoderKind::UnionFind).unwrap(),
    );
    let sampler = sample_detector_chunks(&circuit, shots, 11, 16 * 4096).unwrap();
    let chunks: Vec<_> = sampler.chunks().collect();

    let mut group = c.benchmark_group(format!("service_decode_{shots}_shots_d{d}"));
    group.sample_size(10);
    group.bench_function("offline_batch", |b| {
        let mut scratch = DecodeScratch::new();
        b.iter(|| {
            let mut flips = 0usize;
            for chunk in &chunks {
                let prediction = program.decode_batch(chunk, &mut scratch);
                flips += prediction
                    .plane(0)
                    .iter()
                    .map(|w| w.count_ones() as usize)
                    .sum::<usize>();
            }
            flips
        });
    });
    group.bench_function("service_8streams", |b| {
        b.iter(|| {
            let service = DecodeService::new(service_config());
            let options = LoadgenOptions {
                streams: 8,
                shots,
                seed: 11,
                rate: None,
                verify: false, // identity is pinned by the property suite
                ..LoadgenOptions::default()
            };
            let report =
                loadgen::run_in_process(&service, &program, &options).expect("loadgen runs");
            service.shutdown();
            report.shots
        });
    });
    group.finish();

    // One verified loadgen pass: print the acceptance numbers (throughput
    // ratio vs offline, latency percentiles, flush split) for CI logs.
    let service = DecodeService::new(service_config());
    let options = LoadgenOptions {
        streams: 8,
        shots,
        seed: 11,
        rate: None,
        verify: true,
        ..LoadgenOptions::default()
    };
    let report = loadgen::run_in_process(&service, &program, &options).expect("loadgen runs");
    service.shutdown();
    assert_eq!(report.mismatches, 0, "service must stay bit-identical");
    println!(
        "service_decode_{shots}_shots_d{d}/acceptance: {}",
        report.render_pretty().replace('\n', "\n  ")
    );
}

criterion_group!(benches, bench_service_vs_offline);
criterion_main!(benches);
