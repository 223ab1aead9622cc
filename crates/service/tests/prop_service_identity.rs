//! Property battery for the streaming decode service.
//!
//! Whatever the stream count, flush deadline, word coalescing, worker count
//! or submission interleaving, the service must deliver — in order, per
//! stream — exactly the corrections the offline word-parallel
//! `decode_batch` produces on the same frames. This is the online
//! counterpart of the PR-4 bit-identity contract: batching boundaries are
//! scheduling, never semantics.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;

use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};
use qccd_decoder::{DecodeScratch, DecoderKind, DecodingGraph};
use qccd_service::{
    loadgen, DecodeProgram, DecodeService, LoadgenOptions, ServiceConfig, TelemetryConfig,
};
use qccd_sim::{NoiseChannel, NoisyCircuit, SyndromeChunkBuilder};

/// A three-qubit parity-check circuit with bit-flip noise (two detectors,
/// one observable) — small enough that thousands of service shots stay
/// cheap, rich enough that single- and multi-defect frames occur.
fn noisy_parity_circuit(p: f64) -> NoisyCircuit {
    let q = |i: u32| QubitId::new(i);
    let mref = |i: u32, occurrence: u32| MeasurementRef::new(q(i), occurrence);
    let mut c = NoisyCircuit::new();
    for i in 0..3 {
        c.push_gate(Instruction::Reset(q(i)));
    }
    for round in 0..2u32 {
        c.push_gate(Instruction::Reset(q(2)));
        c.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
        c.push_gate(Instruction::Cnot {
            control: q(0),
            target: q(2),
        });
        c.push_gate(Instruction::Cnot {
            control: q(1),
            target: q(2),
        });
        c.push_gate(Instruction::Measure(q(2)));
        if round == 0 {
            c.add_detector(Detector::new(vec![mref(2, 0)]));
        } else {
            c.add_detector(Detector::new(vec![mref(2, 0), mref(2, 1)]));
        }
    }
    c.push_gate(Instruction::Measure(q(0)));
    c.add_observable(LogicalObservable::new(vec![mref(0, 0)]));
    c
}

fn program(key: &str, circuit: &NoisyCircuit, kind: DecoderKind) -> Arc<DecodeProgram> {
    Arc::new(DecodeProgram::from_circuit(key, circuit.clone(), kind).expect("valid circuit"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The satellite contract: per-stream corrections from the service are
    /// bit-identical to offline `decode_batch` on the same frames, across
    /// stream counts, deadlines, coalescing, worker counts and wire modes
    /// (per-shot index frames vs pre-transposed shot-major word blocks).
    /// The loadgen counts every missing, out-of-order or differing
    /// correction as a mismatch.
    #[test]
    fn service_corrections_match_offline_decode_batch(
        seed in 0u64..1000,
        workers in 1usize..4,
        streams in 1usize..6,
        shots in 1usize..700,
        deadline_us in prop::sample::select(vec![0u64, 100, 100_000]),
        batch_words in 1usize..3,
        shot_major in any::<bool>(),
        kind in prop::sample::select(vec![
            DecoderKind::UnionFind,
            DecoderKind::GreedyMatching,
            DecoderKind::ExactMatching,
        ]),
    ) {
        let circuit = noisy_parity_circuit(0.12);
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(workers)
                .with_flush_deadline(Duration::from_micros(deadline_us))
                .with_max_batch_words(batch_words),
        );
        let options = LoadgenOptions {
            streams,
            shots,
            seed,
            rate: None,
            shot_major,
            verify: true,
            ..LoadgenOptions::default()
        };
        let report = loadgen::run_in_process(&service, &program("prop", &circuit, kind), &options)
            .expect("loadgen runs");
        prop_assert_eq!(report.mismatches, 0,
            "workers={} streams={} shots={} deadline={}µs words={} shot_major={} kind={:?}",
            workers, streams, shots, deadline_us, batch_words, shot_major, kind);
        prop_assert_eq!(report.shots, shots);
        let metrics = report.metrics;
        prop_assert_eq!(metrics.frames_completed, shots as u64);
        prop_assert_eq!(metrics.queue_depth, 0);
        prop_assert_eq!(
            metrics.full_word_flushes + metrics.deadline_flushes + metrics.close_flushes > 0,
            true
        );
        service.shutdown();
    }
}

/// Builder-ingested frames decode identically to the sampler's own chunks:
/// `qccd_sim::SyndromeChunkBuilder::push_frame` feeds the decoder the same
/// bits the offline pipeline sees.
#[test]
fn builder_chunks_decode_identically_to_sampled_chunks() {
    let circuit = noisy_parity_circuit(0.15);
    let program =
        DecodeProgram::from_circuit("builder", circuit.clone(), DecoderKind::UnionFind).unwrap();
    let frames = loadgen::sample_frames(&circuit, 300, 5).unwrap();
    let sampler = qccd_sim::sample_detector_chunks(&circuit, 300, 5, usize::MAX).unwrap();
    let sampled = sampler.sample_chunk(0);

    let mut builder = SyndromeChunkBuilder::new(program.num_detectors(), 0);
    for frame in &frames {
        builder.push_frame(frame);
    }
    let rebuilt = builder.finish(0, 0);

    let dem = qccd_sim::DetectorErrorModel::from_circuit(&circuit).unwrap();
    let decoder = DecoderKind::UnionFind.build(DecodingGraph::from_dem(&dem));
    let mut a = DecodeScratch::new();
    let mut b = DecodeScratch::new();
    let from_builder = decoder.decode_batch(&rebuilt, &mut a);
    let from_sampler = decoder.decode_batch(&sampled, &mut b);
    for shot in 0..300 {
        assert_eq!(
            from_builder.shot_prediction(shot),
            from_sampler.shot_prediction(shot),
            "shot {shot}"
        );
    }
}

/// Telemetry at full sampling (every span timed) must stay an observer:
/// corrections remain bit-identical to the offline decode, and the run
/// leaves non-zero per-stage telemetry behind.
#[test]
fn full_sampling_telemetry_preserves_bit_identity() {
    let circuit = noisy_parity_circuit(0.12);
    let service = DecodeService::new(
        ServiceConfig::default()
            .with_workers(3)
            .with_flush_deadline(Duration::from_micros(150))
            .with_telemetry(TelemetryConfig::full_sampling()),
    );
    let options = LoadgenOptions {
        streams: 4,
        shots: 900,
        seed: 7,
        verify: true,
        ..LoadgenOptions::default()
    };
    let report = loadgen::run_in_process(
        &service,
        &program("telemetry", &circuit, DecoderKind::UnionFind),
        &options,
    )
    .unwrap();
    assert_eq!(report.mismatches, 0, "telemetry must not perturb decoding");
    assert_eq!(report.shots, 900);

    let snapshot = service.telemetry_snapshot();
    assert_eq!(snapshot.counter("service.frames_submitted"), 900);
    assert_eq!(snapshot.counter("service.frames_completed"), 900);
    for stage in [
        "service.stage.batcher_wait",
        "service.stage.decode",
        "service.stage.delivery",
    ] {
        let calls = snapshot.counter(&format!("{stage}_calls"));
        assert!(calls > 0, "{stage} recorded no calls");
        let hist = snapshot
            .histogram(&format!("{stage}_us"))
            .unwrap_or_else(|| panic!("{stage} has no duration histogram"));
        // Full sampling times every span (batcher_wait records one event
        // per run of frames, so `calls` can exceed `count` only under
        // sampling — never here).
        assert_eq!(hist.count, calls, "{stage} sampled under full sampling");
    }
    let stages = report.stages.expect("report carries the stage breakdown");
    assert!(stages.decode.timed > 0);
    service.shutdown();
}

/// Paced replay: the loadgen's rate limiter holds aggregate throughput near
/// the target without breaking identity.
#[test]
fn paced_replay_stays_bit_identical() {
    let circuit = noisy_parity_circuit(0.1);
    let service = DecodeService::new(
        ServiceConfig::default()
            .with_workers(2)
            .with_flush_deadline(Duration::from_micros(200)),
    );
    let options = LoadgenOptions {
        streams: 3,
        shots: 600,
        seed: 11,
        rate: Some(50_000.0),
        verify: true,
        ..LoadgenOptions::default()
    };
    let report = loadgen::run_in_process(
        &service,
        &program("paced", &circuit, DecoderKind::UnionFind),
        &options,
    )
    .unwrap();
    assert_eq!(report.mismatches, 0);
    // 600 shots at 50k/s should take at least ~12 ms minus the last-shot
    // slack; allow generous scheduling noise in both directions.
    assert!(
        report.wall_seconds > 0.005,
        "pacing had no effect: {} s",
        report.wall_seconds
    );
    service.shutdown();
}
