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
    loadgen, DecodeProgram, DecodeService, LoadgenOptions, ServiceConfig, WordBlock,
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

/// The observable-flip mask of every frame, from one offline
/// `decode_batch` over them all.
fn offline_flips(program: &DecodeProgram, frames: &[Vec<usize>]) -> Vec<u64> {
    let mut builder = SyndromeChunkBuilder::new(program.num_detectors(), 0);
    for frame in frames {
        builder.push_frame(frame);
    }
    let prediction = program.decode_batch(&builder.finish(0, 0), &mut DecodeScratch::new());
    (0..frames.len())
        .map(|shot| {
            (0..prediction.num_observables())
                .filter(|&observable| prediction.predicted(shot, observable))
                .fold(0, |mask, observable| mask | 1 << observable)
        })
        .collect()
}

/// `shots` sampled frames of `circuit` as fired-detector lists, in global
/// shot order.
fn frames_of(circuit: &NoisyCircuit, shots: usize, seed: u64) -> Vec<Vec<usize>> {
    let sampler = qccd_sim::sample_detector_chunks(circuit, shots, seed, usize::MAX)
        .expect("consistent annotations");
    let chunk = sampler.sample_chunk(0);
    (0..shots)
        .map(|shot| {
            let mut fired = Vec::new();
            chunk.fired_detectors_into(shot, &mut fired);
            fired
        })
        .collect()
}

/// The shot-major plane words of up to 64 frames.
fn word_planes(frames: &[Vec<usize>], num_detectors: usize) -> Vec<u64> {
    let mut planes = vec![0; num_detectors];
    for (shot, fired) in frames.iter().enumerate() {
        for &detector in fired {
            planes[detector] |= 1 << shot;
        }
    }
    planes
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
        shot_major in any::<bool>(),
        kind in prop::sample::select(vec![
            DecoderKind::UnionFind,
            DecoderKind::ExactMatching,
        ]),
    ) {
        let circuit = noisy_parity_circuit(0.12);
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(workers)
                .with_flush_deadline(Duration::from_micros(deadline_us)),
        );
        let options = LoadgenOptions {
            streams,
            shots,
            seed,
            rate: None,
            shot_major,
            ..LoadgenOptions::default()
        };
        let report = loadgen::run_in_process(&service, &program("prop", &circuit, kind), &options)
            .expect("loadgen runs");
        prop_assert_eq!(report.mismatches, 0,
            "workers={} streams={} shots={} deadline={}µs shot_major={} kind={:?}",
            workers, streams, shots, deadline_us, shot_major, kind);
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

    /// Multi-word submit calls, straight to the service: stream `s` carries
    /// global shots `s, s + streams, …` and submits them in bursts of
    /// `words` words whose last block is partial (`tail` shots), as index
    /// frames or word blocks, the streams taking turns. Every correction
    /// matches one offline `decode_batch` over all the frames.
    #[test]
    fn multi_word_bursts_match_offline_decode_batch(
        seed in 0u64..1000,
        workers in 1usize..4,
        streams in 1usize..4,
        shots in 1usize..700,
        words in 1usize..4,
        tail in 1usize..64,
        deadline_us in prop::sample::select(vec![0u64, 100, 100_000]),
        shot_major in any::<bool>(),
        kind in prop::sample::select(vec![
            DecoderKind::UnionFind,
            DecoderKind::ExactMatching,
        ]),
    ) {
        let circuit = noisy_parity_circuit(0.12);
        let program = program("bursts", &circuit, kind);
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(workers)
                .with_flush_deadline(Duration::from_micros(deadline_us)),
        );
        let frames = frames_of(&circuit, shots, seed);
        let expected = offline_flips(&program, &frames);
        let per_stream: Vec<Vec<Vec<usize>>> = (0..streams)
            .map(|s| frames.iter().skip(s).step_by(streams).cloned().collect())
            .collect();
        let mut handles: Vec<_> = (0..streams)
            .map(|_| service.open_stream_program(&program).expect("opens"))
            .collect();
        let burst = 64 * (words - 1) + tail;
        for round in 0..shots.div_ceil(burst) {
            for (handle, frames) in handles.iter().zip(&per_stream) {
                let Some(frames) = frames.chunks(burst).nth(round) else { continue };
                let range = if shot_major {
                    let planes: Vec<(Vec<u64>, usize)> = frames
                        .chunks(64)
                        .map(|word| (word_planes(word, program.num_detectors()), word.len()))
                        .collect();
                    let blocks: Vec<WordBlock<'_>> = planes
                        .iter()
                        .map(|(planes, count)| WordBlock { planes, count: *count })
                        .collect();
                    handle.sender.submit_word_batch(&blocks)
                } else {
                    let frames: Vec<&[usize]> = frames.iter().map(Vec::as_slice).collect();
                    handle.sender.submit_batch(&frames)
                };
                let first = (round * burst) as u64;
                prop_assert_eq!(range, Ok(first..first + frames.len() as u64));
            }
        }
        // The last stream's close flushes the shared partial word.
        handles.iter().for_each(|handle| handle.sender.close());
        for (s, handle) in handles.iter_mut().enumerate() {
            let arrived: Vec<(u64, u64)> =
                std::iter::from_fn(|| handle.receiver.recv_timeout(Duration::from_secs(10)))
                    .map(|correction| (correction.seq, correction.flips))
                    .collect();
            let wanted: Vec<(u64, u64)> = (0..per_stream[s].len())
                .map(|q| (q as u64, expected[q * streams + s]))
                .collect();
            prop_assert_eq!(arrived, wanted,
                "stream {} of {}: workers={} shots={} words={} tail={} deadline={}µs \
                 shot_major={} kind={:?}",
                s, streams, workers, shots, words, tail, deadline_us, shot_major, kind);
        }
        prop_assert_eq!(service.metrics().frames_completed, shots as u64);
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
    let frames = frames_of(&circuit, 300, 5);
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
            .with_flush_deadline(Duration::from_micros(150)),
    );
    let options = LoadgenOptions {
        streams: 4,
        shots: 900,
        seed: 7,
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
