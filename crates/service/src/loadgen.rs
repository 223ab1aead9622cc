//! Replay load generator: samples syndrome frames offline, drives the
//! decode service with them at a target rate across many streams (and,
//! over TCP, across many **connections**), verifies that every correction
//! is bit-identical to the offline
//! [`Decoder::decode_batch`](qccd_decoder::Decoder::decode_batch) on the
//! same frames, and reports throughput and latency.
//!
//! Shots are distributed round-robin: global shot `i` goes to stream
//! `i % streams` as its `i / streams`-th frame, so the offline reference
//! and the per-stream corrections can be compared one to one. Over TCP,
//! stream `s` is driven by connection `s % connections`, each connection
//! on its own submission thread — the saturation harness that exercises
//! the sharded hot path from many sockets at once.
//!
//! [`run_frontier_over_tcp`] sweeps the throughput/latency **frontier**:
//! one unthrottled calibration run finds the saturation rate, then
//! throttled replays at fractions of it map out how latency grows as the
//! offered load approaches saturation.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qccd_decoder::{DecodeScratch, DecoderKind};
use qccd_sim::{sample_detector_chunks, NoisyCircuit};
use qccd_telemetry::{snapshot_from_json, RegistrySnapshot};
use serde_json::Value;

use crate::net::NetClient;
use crate::service::{DecodeService, WordBlock};
use crate::{Correction, DecodeProgram, ServiceError, ServiceMetrics};

/// Load-generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadgenOptions {
    /// Concurrent logical syndrome streams.
    pub streams: usize,
    /// TCP connections the streams are partitioned over (stream `s` rides
    /// connection `s % connections`, each with its own submission thread).
    /// Clamped to `1..=streams`; ignored by the in-process runner.
    pub connections: usize,
    /// Total shots replayed (across all streams).
    pub shots: usize,
    /// Sampling seed of the replayed syndromes.
    pub seed: u64,
    /// Target aggregate submission rate in shots/s (`None` = as fast as
    /// backpressure allows).
    pub rate: Option<f64>,
    /// Submit shot-major 64-shot word blocks (`frames_packed` on the wire,
    /// [`StreamSender::submit_word_batch`](crate::StreamSender::submit_word_batch)
    /// in process) instead of per-shot frames — the pre-transposed fast
    /// path.
    pub shot_major: bool,
    /// Verify bit-identity of every correction against the offline batch
    /// decode (also enables the offline-throughput baseline).
    pub verify: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            streams: 4,
            connections: 1,
            shots: 16 * 1024,
            seed: 2026,
            rate: None,
            shot_major: true,
            verify: true,
        }
    }
}

/// Latency summary of one pipeline stage, read from the unified telemetry
/// snapshot: exact call/item counters plus quantiles of the (sampled)
/// duration histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageSummary {
    /// Stage invocations (exact, unsampled).
    pub calls: u64,
    /// Items (frames/shots) the stage processed (exact, unsampled).
    pub items: u64,
    /// Invocations that were timed (at sampling period 1 this equals
    /// `calls`).
    pub timed: u64,
    /// Mean duration of the timed invocations (µs).
    pub mean_us: f64,
    /// Median duration (µs, linearly interpolated).
    pub p50_us: f64,
    /// 99th-percentile duration (µs, linearly interpolated).
    pub p99_us: f64,
}

impl StageSummary {
    fn from_snapshot(snapshot: &RegistrySnapshot, stage: &str) -> Option<StageSummary> {
        let hist = snapshot.histogram(&format!("{stage}_us"))?;
        Some(StageSummary {
            calls: snapshot.counter(&format!("{stage}_calls")),
            items: snapshot.counter(&format!("{stage}_items")),
            timed: hist.count,
            mean_us: hist.mean(),
            p50_us: hist.quantile(0.50),
            p99_us: hist.quantile(0.99),
        })
    }

    fn to_json(self) -> Value {
        serde_json::json!({
            "calls": self.calls,
            "items": self.items,
            "timed": self.timed,
            "mean_us": self.mean_us,
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
        })
    }
}

/// Per-stage latency breakdown of the service pipeline: how long frames
/// waited in the batcher, how long decode jobs took, and how long
/// correction routing took.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Submit→flush wait in the batcher (items = frames).
    pub batcher_wait: StageSummary,
    /// Transpose + decode of one job (items = shots).
    pub decode: StageSummary,
    /// Correction routing and delivery (items = shots).
    pub delivery: StageSummary,
}

impl StageBreakdown {
    /// Reads the breakdown out of a unified telemetry snapshot (`None`
    /// when the service ran with telemetry disabled).
    pub fn from_snapshot(snapshot: &RegistrySnapshot) -> Option<StageBreakdown> {
        Some(StageBreakdown {
            batcher_wait: StageSummary::from_snapshot(snapshot, "service.stage.batcher_wait")?,
            decode: StageSummary::from_snapshot(snapshot, "service.stage.decode")?,
            delivery: StageSummary::from_snapshot(snapshot, "service.stage.delivery")?,
        })
    }

    /// The breakdown as a JSON object.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "batcher_wait": self.batcher_wait.to_json(),
            "decode": self.decode.to_json(),
            "delivery": self.delivery.to_json(),
        })
    }

    /// One table line per stage.
    pub fn render_pretty(&self) -> String {
        let row = |name: &str, s: &StageSummary| {
            format!(
                "  {name:<13} {:>9} calls {:>11} items   mean {:>8.1} µs   p50 {:>8.1} µs   p99 {:>8.1} µs\n",
                s.calls, s.items, s.mean_us, s.p50_us, s.p99_us
            )
        };
        let mut out = String::from("per-stage breakdown (timing sampled):\n");
        out.push_str(&row("batcher_wait", &self.batcher_wait));
        out.push_str(&row("decode", &self.decode));
        out.push_str(&row("delivery", &self.delivery));
        out
    }
}

/// The load generator's result: throughput, latency and the bit-identity
/// verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenReport {
    /// Shots replayed.
    pub shots: usize,
    /// Streams driven.
    pub streams: usize,
    /// TCP connections used (1 for the in-process runner).
    pub connections: usize,
    /// Wall-clock seconds from first submission to last correction.
    pub wall_seconds: f64,
    /// Aggregate service throughput (shots / wall).
    pub shots_per_sec: f64,
    /// Offline single-thread `decode_batch` throughput on the same frames
    /// (`None` when verification was skipped).
    pub offline_shots_per_sec: Option<f64>,
    /// `shots_per_sec / offline_shots_per_sec` — the acceptance headroom
    /// (the service target is ≥ 0.8 at d=5, p=2e-3).
    pub throughput_ratio: Option<f64>,
    /// Corrections differing from the offline reference (must be 0).
    pub mismatches: usize,
    /// Median submit→correction latency (µs). Over TCP this is measured
    /// client-side (submit wall-clock to correction arrival), so it
    /// includes the wire.
    pub p50_latency_us: f64,
    /// 99th-percentile submit→correction latency (µs).
    pub p99_latency_us: f64,
    /// The service metrics snapshot at the end of the run.
    pub metrics: ServiceMetrics,
    /// Per-stage latency breakdown (batcher wait / decode / delivery) from
    /// the service's unified telemetry; `None` when telemetry is disabled.
    pub stages: Option<StageBreakdown>,
}

impl LoadgenReport {
    /// The report as a JSON object.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "shots": self.shots as u64,
            "streams": self.streams as u64,
            "connections": self.connections as u64,
            "wall_seconds": self.wall_seconds,
            "shots_per_sec": self.shots_per_sec,
            "offline_shots_per_sec": match self.offline_shots_per_sec {
                Some(v) => Value::from(v),
                None => Value::Null,
            },
            "throughput_ratio": match self.throughput_ratio {
                Some(v) => Value::from(v),
                None => Value::Null,
            },
            "mismatches": self.mismatches as u64,
            "p50_latency_us": self.p50_latency_us,
            "p99_latency_us": self.p99_latency_us,
            "metrics": self.metrics.to_json(),
            "stages": match &self.stages {
                Some(stages) => stages.to_json(),
                None => Value::Null,
            },
        })
    }

    /// A human-readable multi-line summary.
    pub fn render_pretty(&self) -> String {
        let mut out = format!(
            "loadgen: {} shots over {} streams ({} connection{}) in {:.3} s → {:.0} shots/s\n",
            self.shots,
            self.streams,
            self.connections,
            if self.connections == 1 { "" } else { "s" },
            self.wall_seconds,
            self.shots_per_sec
        );
        if let (Some(offline), Some(ratio)) = (self.offline_shots_per_sec, self.throughput_ratio) {
            out.push_str(&format!(
                "offline decode_batch baseline: {offline:.0} shots/s → service at {:.1}% of offline\n",
                100.0 * ratio
            ));
        }
        out.push_str(&format!(
            "latency: p50 {:.0} µs, p99 {:.0} µs; flushes: {} full-word, {} deadline, {} close ({} words)\n",
            self.p50_latency_us,
            self.p99_latency_us,
            self.metrics.full_word_flushes,
            self.metrics.deadline_flushes,
            self.metrics.close_flushes,
            self.metrics.words_flushed,
        ));
        if let Some(stages) = &self.stages {
            out.push_str(&stages.render_pretty());
        }
        out.push_str(&if self.mismatches == 0 {
            "corrections bit-identical to offline decode_batch: OK".to_string()
        } else {
            format!("MISMATCHES vs offline decode_batch: {}", self.mismatches)
        });
        out
    }
}

/// One throttled point on the throughput/latency frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrontierPoint {
    /// Offered load (shots/s) the replay was paced at.
    pub target_rate: f64,
    /// Achieved aggregate throughput (shots/s).
    pub shots_per_sec: f64,
    /// Median submit→correction latency (µs) at this load.
    pub p50_latency_us: f64,
    /// 99th-percentile submit→correction latency (µs) at this load.
    pub p99_latency_us: f64,
}

/// A throughput/latency frontier sweep: the unthrottled calibration run
/// plus throttled points at even fractions of the saturation rate.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierReport {
    /// The unthrottled calibration run (carries the bit-identity verdict
    /// and the offline baseline).
    pub calibration: LoadgenReport,
    /// Throttled replays at `saturation * i / n` for `i in 1..=n`.
    pub points: Vec<FrontierPoint>,
}

impl FrontierReport {
    /// The frontier as a JSON object.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "calibration": self.calibration.to_json(),
            "points": Value::Array(
                self.points
                    .iter()
                    .map(|p| {
                        serde_json::json!({
                            "target_rate": p.target_rate,
                            "shots_per_sec": p.shots_per_sec,
                            "p50_latency_us": p.p50_latency_us,
                            "p99_latency_us": p.p99_latency_us,
                        })
                    })
                    .collect(),
            ),
        })
    }

    /// A human-readable frontier table.
    pub fn render_pretty(&self) -> String {
        let mut out = self.calibration.render_pretty();
        out.push_str("\nfrontier (offered → achieved shots/s, p50/p99 µs):\n");
        for point in &self.points {
            out.push_str(&format!(
                "  {:>10.0} → {:>10.0}   p50 {:>7.0}   p99 {:>7.0}\n",
                point.target_rate, point.shots_per_sec, point.p50_latency_us, point.p99_latency_us
            ));
        }
        out
    }
}

/// Samples `shots` frames of `circuit` (fired-detector lists, global shot
/// order) with the canonical chunked sampler.
pub fn sample_frames(
    circuit: &NoisyCircuit,
    shots: usize,
    seed: u64,
) -> Result<Vec<Vec<usize>>, ServiceError> {
    Ok(index_frames_from_chunks(&sampled_chunks(
        circuit, shots, seed,
    )?))
}

/// Samples the replayed syndromes once; both the wire frames and the
/// offline reference derive from these chunks.
fn sampled_chunks(
    circuit: &NoisyCircuit,
    shots: usize,
    seed: u64,
) -> Result<Vec<qccd_sim::SyndromeChunk>, ServiceError> {
    let sampler = sample_detector_chunks(circuit, shots, seed, 16 * 4096)
        .map_err(|e| ServiceError::InvalidCircuit(format!("{e:?}")))?;
    Ok(sampler.chunks().collect())
}

/// The chunks' shots as fired-detector index lists, in global shot order.
fn index_frames_from_chunks(chunks: &[qccd_sim::SyndromeChunk]) -> Vec<Vec<usize>> {
    let mut frames = Vec::new();
    let mut fired = Vec::new();
    for chunk in chunks {
        for shot in 0..chunk.num_shots() {
            chunk.fired_detectors_into(shot, &mut fired);
            frames.push(fired.clone());
        }
    }
    frames
}

/// Pre-transposes the round-robin replay into **shot-major word blocks**:
/// `result[s]` is stream `s`'s frames (global shots `s, s+streams, …`)
/// packed 64 shots at a time into `(planes, count)` — one `u64` plane per
/// detector, bit `j` of plane `d` set iff the block's `j`-th shot fired
/// detector `d`. This is the trap-side client's representation, so the
/// transpose happens before the replay clock starts.
fn shot_major_blocks(
    frames: &[Vec<usize>],
    streams: usize,
    num_detectors: usize,
) -> Vec<Vec<(Vec<u64>, usize)>> {
    let mut per_stream: Vec<Vec<(Vec<u64>, usize)>> = vec![Vec::new(); streams];
    for (i, fired) in frames.iter().enumerate() {
        let blocks = &mut per_stream[i % streams];
        let bit = (i / streams) % 64;
        if bit == 0 {
            blocks.push((vec![0u64; num_detectors], 0));
        }
        let block = blocks.last_mut().expect("block pushed above");
        for &detector in fired {
            block.0[detector] |= 1u64 << bit;
        }
        block.1 += 1;
    }
    per_stream
}

/// Decodes the sampled chunks offline on the word-parallel batch path (one
/// warm scratch, one thread) and returns the per-shot flip masks plus the
/// decode wall time — the baseline the service throughput is measured
/// against.
fn offline_from_chunks(
    program: &DecodeProgram,
    chunks: &[qccd_sim::SyndromeChunk],
) -> (Vec<u64>, f64) {
    let mut scratch = DecodeScratch::new();
    let mut flips = Vec::new();
    let start = Instant::now();
    for chunk in chunks {
        let prediction = program.decode_batch(chunk, &mut scratch);
        for shot in 0..chunk.num_shots() {
            let mut mask = 0u64;
            for observable in 0..prediction.num_observables() {
                if prediction.predicted(shot, observable) {
                    mask |= 1u64 << observable;
                }
            }
            flips.push(mask);
        }
    }
    (flips, start.elapsed().as_secs_f64())
}

/// Sleep-based pacing toward `rate` shots/s: called before submitting shot
/// `index`, sleeps off any accumulated lead over the target schedule.
fn pace(start: Instant, index: usize, rate: Option<f64>) {
    let Some(rate) = rate else { return };
    if rate <= 0.0 {
        return;
    }
    let due = Duration::from_secs_f64(index as f64 / rate);
    let elapsed = start.elapsed();
    if due > elapsed {
        let lead = due - elapsed;
        if lead > Duration::from_micros(50) {
            std::thread::sleep(lead);
        }
    }
}

/// `p`-th percentile (0..=100) of an unsorted latency sample, in place.
fn percentile_us(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((p / 100.0) * (samples.len() - 1) as f64).round() as usize;
    samples[rank.min(samples.len() - 1)]
}

/// Reconstructs a [`ServiceMetrics`] snapshot from the server's `metrics`
/// JSON (the wire inverse of [`ServiceMetrics::to_json`]).
fn metrics_from_json(metrics_json: &Value) -> ServiceMetrics {
    let read = |key: &str| metrics_json.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    let read_u = |key: &str| metrics_json.get(key).and_then(Value::as_u64).unwrap_or(0);
    ServiceMetrics {
        streams_open: read_u("streams_open") as usize,
        frames_submitted: read_u("frames_submitted"),
        frames_completed: read_u("frames_completed"),
        queue_depth: read_u("queue_depth"),
        words_flushed: read_u("words_flushed"),
        full_word_flushes: read_u("full_word_flushes"),
        deadline_flushes: read_u("deadline_flushes"),
        close_flushes: read_u("close_flushes"),
        shots_per_sec: read("shots_per_sec"),
        p50_latency_us: read("p50_latency_us"),
        p99_latency_us: read("p99_latency_us"),
    }
}

/// Drives an **in-process** [`DecodeService`] with replayed frames of
/// `program`'s circuit and verifies bit-identity against the offline batch
/// decode. The caller's program serves both the streams and the baseline.
///
/// # Errors
///
/// Propagates stream-opening and submission failures.
pub fn run_in_process(
    service: &DecodeService,
    program: &Arc<DecodeProgram>,
    options: &LoadgenOptions,
) -> Result<LoadgenReport, ServiceError> {
    let streams = options.streams.max(1);
    let shots = options.shots.max(1);
    // One sampling pass feeds both the wire frames and the offline
    // reference. Producing the wire representation (index frames, or the
    // shot-major block transpose) is the trap-side client's job, so it
    // happens before the clock starts.
    let chunks = sampled_chunks(program.circuit(), shots, options.seed)?;
    let frames = index_frames_from_chunks(&chunks);
    let blocks = options
        .shot_major
        .then(|| shot_major_blocks(&frames, streams, program.num_detectors()));
    let offline = options
        .verify
        .then(|| offline_from_chunks(program, &chunks));

    let mut senders = Vec::with_capacity(streams);
    let mut collectors = Vec::with_capacity(streams);
    let per_stream_shots: Vec<usize> = (0..streams)
        .map(|s| shots / streams + usize::from(s < shots % streams))
        .collect();
    for expected in per_stream_shots.iter().copied() {
        let (sender, mut receiver) = service.open_stream_program(program)?.split();
        senders.push(sender);
        collectors.push(std::thread::spawn(move || {
            let mut corrections = Vec::with_capacity(expected);
            while let Some(correction) = receiver.recv() {
                corrections.push(correction);
            }
            corrections
        }));
    }

    // Submit in bursts of several full words per stream: `submit_*_batch`
    // pays the shard lock once per burst instead of once per frame, which
    // is what lets the replay keep up with the word-parallel decode itself.
    // Global shot `i` still maps to stream `i % streams`, frame
    // `i / streams`.
    let start = Instant::now();
    let words_per_burst = service.config().max_batch_words.max(1);
    let mut submitted = 0usize;
    if let Some(blocks) = &blocks {
        let mut cursor = vec![0usize; streams];
        while submitted < shots {
            pace(start, submitted, options.rate);
            for (s, stream_blocks) in blocks.iter().enumerate() {
                let end = (cursor[s] + words_per_burst).min(stream_blocks.len());
                if cursor[s] < end {
                    let refs: Vec<WordBlock<'_>> = stream_blocks[cursor[s]..end]
                        .iter()
                        .map(|(planes, count)| WordBlock {
                            planes,
                            count: *count,
                        })
                        .collect();
                    submitted += refs.iter().map(|b| b.count).sum::<usize>();
                    senders[s].submit_word_batch(&refs)?;
                    cursor[s] = end;
                }
            }
        }
    } else {
        let mut per_stream: Vec<Vec<&[usize]>> =
            vec![Vec::with_capacity(64 * words_per_burst); streams];
        let burst = 64 * words_per_burst * streams;
        while submitted < shots {
            pace(start, submitted, options.rate);
            let end = (submitted + burst).min(shots);
            for bucket in per_stream.iter_mut() {
                bucket.clear();
            }
            for (i, frame) in frames[submitted..end].iter().enumerate() {
                per_stream[(submitted + i) % streams].push(frame.as_slice());
            }
            for (s, bucket) in per_stream.iter().enumerate() {
                if !bucket.is_empty() {
                    senders[s].submit_batch(bucket)?;
                }
            }
            submitted = end;
        }
    }
    for sender in &senders {
        sender.close();
    }
    let collected: Vec<Vec<Correction>> = collectors
        .into_iter()
        .map(|collector| collector.join().expect("collector panicked"))
        .collect();
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut mismatches = 0usize;
    for (s, corrections) in collected.iter().enumerate() {
        assert_eq!(
            corrections.len(),
            per_stream_shots[s],
            "stream {s} delivered every correction"
        );
        for (q, correction) in corrections.iter().enumerate() {
            assert_eq!(correction.seq, q as u64, "stream {s} ordered delivery");
            if let Some((reference, _)) = &offline {
                if reference[q * streams + s] != correction.flips {
                    mismatches += 1;
                }
            }
        }
    }

    let metrics = service.metrics();
    let stages = StageBreakdown::from_snapshot(&service.telemetry_snapshot());
    let offline_shots_per_sec = offline
        .as_ref()
        .map(|(_, seconds)| shots as f64 / seconds.max(1e-9));
    let shots_per_sec = shots as f64 / wall_seconds.max(1e-9);
    Ok(LoadgenReport {
        shots,
        streams,
        connections: 1,
        wall_seconds,
        shots_per_sec,
        offline_shots_per_sec,
        throughput_ratio: offline_shots_per_sec.map(|offline| shots_per_sec / offline),
        mismatches,
        p50_latency_us: metrics.p50_latency_us,
        p99_latency_us: metrics.p99_latency_us,
        metrics,
        stages,
    })
}

/// What one TCP connection thread brings home: its streams' ordered
/// corrections (tagged with the global stream index), the client-side
/// submit→arrival latencies, and any protocol errors its reader refused
/// to deliver.
struct ConnectionResult {
    per_stream: Vec<(usize, Vec<Correction>)>,
    latencies_us: Vec<f64>,
    protocol_errors: Vec<String>,
}

/// One connection's share of the replay: submits its streams' shots in
/// global order (paced against the shared schedule), collects corrections
/// per stream, and measures client-side latency.
#[allow(clippy::too_many_arguments)]
fn drive_connection(
    mut client: NetClient,
    streams_on_conn: Vec<(usize, crate::net::NetStream)>,
    frames: Arc<Vec<Vec<usize>>>,
    streams: usize,
    per_stream_shots: Arc<Vec<usize>>,
    start: Instant,
    rate: Option<f64>,
    shot_major: bool,
    num_detectors: usize,
) -> Result<ConnectionResult, String> {
    let mut collectors = Vec::with_capacity(streams_on_conn.len());
    // Maps a global stream index to its slot on this connection.
    let mut slot_of = std::collections::HashMap::new();
    let mut ids = Vec::with_capacity(streams_on_conn.len());
    for (slot, (global, stream)) in streams_on_conn.into_iter().enumerate() {
        slot_of.insert(global, slot);
        ids.push(stream.id);
        let expected = per_stream_shots[global];
        collectors.push((
            global,
            std::thread::spawn(move || {
                let mut corrections = Vec::with_capacity(expected);
                for _ in 0..expected {
                    match stream.corrections.recv_timeout(Duration::from_secs(120)) {
                        Ok(correction) => corrections.push((correction, Instant::now())),
                        Err(_) => break,
                    }
                }
                corrections
            }),
        ));
    }

    // Submission: walk the global shot order, keep only this connection's
    // streams, buffer up to 64 frames per stream per protocol line. For
    // shot-major mode the 64-frame buffer is transposed into one
    // `frames_packed` word block at flush time.
    let mut buffered: Vec<Vec<&[usize]>> = vec![Vec::with_capacity(64); ids.len()];
    let mut submit_times: Vec<Vec<Instant>> = vec![Vec::new(); ids.len()];
    let mut planes = vec![0u64; num_detectors];
    let flush = |client: &mut NetClient,
                 slot: usize,
                 buffered: &mut Vec<&[usize]>,
                 submit_times: &mut Vec<Instant>,
                 planes: &mut Vec<u64>|
     -> Result<(), String> {
        if buffered.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        submit_times.extend(std::iter::repeat_n(now, buffered.len()));
        if shot_major {
            planes.iter_mut().for_each(|w| *w = 0);
            for (j, fired) in buffered.iter().enumerate() {
                for &detector in *fired {
                    planes[detector] |= 1u64 << j;
                }
            }
            client.submit_packed_words(ids[slot], &[(planes.clone(), buffered.len())])?;
        } else {
            let frames: Vec<Vec<usize>> = buffered.iter().map(|f| f.to_vec()).collect();
            client.submit_frames(ids[slot], &frames)?;
        }
        buffered.clear();
        Ok(())
    };
    for (i, frame) in frames.iter().enumerate() {
        let Some(&slot) = slot_of.get(&(i % streams)) else {
            continue;
        };
        pace(start, i, rate);
        buffered[slot].push(frame.as_slice());
        if buffered[slot].len() >= 64 {
            let (bucket, times) = (&mut buffered[slot], &mut submit_times[slot]);
            flush(&mut client, slot, bucket, times, &mut planes)?;
        }
    }
    for slot in 0..ids.len() {
        let (bucket, times) = (&mut buffered[slot], &mut submit_times[slot]);
        flush(&mut client, slot, bucket, times, &mut planes)?;
    }
    for &id in &ids {
        client.close_stream(id)?;
    }

    let mut per_stream = Vec::with_capacity(collectors.len());
    let mut latencies_us = Vec::new();
    for (global, collector) in collectors {
        let collected = collector.join().expect("collector panicked");
        let slot = slot_of[&global];
        let mut corrections = Vec::with_capacity(collected.len());
        for (correction, arrival) in collected {
            if let Some(submitted) = submit_times[slot].get(correction.seq as usize) {
                latencies_us.push(arrival.duration_since(*submitted).as_secs_f64() * 1e6);
            }
            corrections.push(correction);
        }
        per_stream.push((global, corrections));
    }
    Ok(ConnectionResult {
        per_stream,
        latencies_us,
        protocol_errors: client.take_protocol_errors(),
    })
}

/// Drives a **remote** JSON-lines decode server with replayed frames for
/// the paper's `(arch, distance)` memory workload, over
/// `options.connections` concurrent TCP connections. The syndromes, and
/// the offline verification reference, are produced locally from the
/// identical (pure) compile, so bit-identity checking works across the
/// wire.
///
/// `wire` is `(topology, wiring)` in the protocol vocabulary (e.g.
/// `("grid", "standard")`); `shutdown_after` sends `{"cmd":"shutdown"}` at
/// the end (the CI smoke uses this to stop the server).
///
/// # Errors
///
/// Transport failures, server-side open failures, protocol errors the
/// client reader refused to deliver, and local compile errors (as strings,
/// ready for CLI display).
#[allow(clippy::too_many_arguments)]
pub fn run_over_tcp(
    addr: &str,
    wire: (&str, &str),
    capacity: usize,
    gate_improvement: f64,
    distance: usize,
    decoder: DecoderKind,
    options: &LoadgenOptions,
    shutdown_after: bool,
) -> Result<LoadgenReport, String> {
    let (topology, wiring) = wire;
    let arch = crate::net::parse_arch(topology, capacity, wiring, gate_improvement)?;
    let program = DecodeProgram::compile(&arch, distance, decoder).map_err(|e| e.to_string())?;
    let streams = options.streams.max(1);
    let connections = options.connections.clamp(1, streams);
    let shots = options.shots.max(1);
    // One sampling pass feeds both the wire frames (index lists — the JSON
    // protocol's vocabulary; shot-major blocks are transposed from them at
    // flush time) and the offline verification reference.
    let chunks =
        sampled_chunks(program.circuit(), shots, options.seed).map_err(|e| e.to_string())?;
    let frames = Arc::new(index_frames_from_chunks(&chunks));
    let offline = options
        .verify
        .then(|| offline_from_chunks(&program, &chunks));
    drop(chunks);
    let per_stream_shots: Arc<Vec<usize>> = Arc::new(
        (0..streams)
            .map(|s| shots / streams + usize::from(s < shots % streams))
            .collect(),
    );

    // Connect and open every stream before the clock starts: stream `s`
    // rides connection `s % connections`.
    let mut conn_streams: Vec<Vec<(usize, crate::net::NetStream)>> = Vec::new();
    let mut clients = Vec::with_capacity(connections);
    for _ in 0..connections {
        let mut client = NetClient::connect(addr).map_err(|e| e.to_string())?;
        client.ping()?;
        clients.push(client);
        conn_streams.push(Vec::new());
    }
    for s in 0..streams {
        let conn = s % connections;
        let stream = clients[conn].open_stream(
            topology,
            capacity,
            wiring,
            gate_improvement,
            distance,
            decoder,
        )?;
        conn_streams[conn].push((s, stream));
    }

    let start = Instant::now();
    let num_detectors = program.num_detectors();
    let workers: Vec<_> = clients
        .into_iter()
        .zip(conn_streams)
        .map(|(client, streams_on_conn)| {
            let frames = Arc::clone(&frames);
            let per_stream_shots = Arc::clone(&per_stream_shots);
            let rate = options.rate;
            let shot_major = options.shot_major;
            std::thread::spawn(move || {
                drive_connection(
                    client,
                    streams_on_conn,
                    frames,
                    streams,
                    per_stream_shots,
                    start,
                    rate,
                    shot_major,
                    num_detectors,
                )
            })
        })
        .collect();
    let mut results = Vec::with_capacity(workers.len());
    for worker in workers {
        results.push(worker.join().expect("connection thread panicked")?);
    }
    let wall_seconds = start.elapsed().as_secs_f64();

    let protocol_errors: Vec<&String> = results
        .iter()
        .flat_map(|r| r.protocol_errors.iter())
        .collect();
    if !protocol_errors.is_empty() {
        return Err(format!(
            "{} protocol errors, first: {}",
            protocol_errors.len(),
            protocol_errors[0]
        ));
    }

    let mut mismatches = 0usize;
    let mut missing = 0usize;
    let mut latencies_us = Vec::new();
    for result in &results {
        latencies_us.extend_from_slice(&result.latencies_us);
        for (s, corrections) in &result.per_stream {
            missing += per_stream_shots[*s] - corrections.len();
            for (q, correction) in corrections.iter().enumerate() {
                if correction.seq != q as u64 {
                    mismatches += 1;
                } else if let Some((reference, _)) = &offline {
                    if reference[q * streams + s] != correction.flips {
                        mismatches += 1;
                    }
                }
            }
        }
    }
    if missing > 0 {
        return Err(format!("{missing} corrections never arrived"));
    }
    let p50_latency_us = percentile_us(&mut latencies_us, 50.0);
    let p99_latency_us = percentile_us(&mut latencies_us, 99.0);

    let mut tail = NetClient::connect(addr).map_err(|e| e.to_string())?;
    let full = tail.metrics_full()?;
    let metrics = metrics_from_json(full.get("metrics").unwrap_or(&Value::Null));
    let stages = full
        .get("telemetry")
        .map(snapshot_from_json)
        .as_ref()
        .and_then(StageBreakdown::from_snapshot);
    if shutdown_after {
        tail.shutdown_server()?;
    }

    let offline_shots_per_sec = offline
        .as_ref()
        .map(|(_, seconds)| shots as f64 / seconds.max(1e-9));
    let shots_per_sec = shots as f64 / wall_seconds.max(1e-9);
    Ok(LoadgenReport {
        shots,
        streams,
        connections,
        wall_seconds,
        shots_per_sec,
        offline_shots_per_sec,
        throughput_ratio: offline_shots_per_sec.map(|offline| shots_per_sec / offline),
        mismatches,
        p50_latency_us,
        p99_latency_us,
        metrics,
        stages,
    })
}

/// Sweeps the **throughput/latency frontier** against a remote server: one
/// unthrottled calibration replay finds the saturation rate, then `points`
/// throttled replays at `saturation * i / points` (for `i in 1..=points`)
/// measure how client-observed latency grows with offered load. The
/// calibration run carries the bit-identity verdict (per `options.verify`);
/// the throttled points skip re-verification — the frames are identical.
///
/// # Errors
///
/// Any failure of the underlying [`run_over_tcp`] replays.
#[allow(clippy::too_many_arguments)]
pub fn run_frontier_over_tcp(
    addr: &str,
    wire: (&str, &str),
    capacity: usize,
    gate_improvement: f64,
    distance: usize,
    decoder: DecoderKind,
    options: &LoadgenOptions,
    points: usize,
    shutdown_after: bool,
) -> Result<FrontierReport, String> {
    let points = points.max(1);
    let calibration_options = LoadgenOptions {
        rate: None,
        ..*options
    };
    let calibration = run_over_tcp(
        addr,
        wire,
        capacity,
        gate_improvement,
        distance,
        decoder,
        &calibration_options,
        false,
    )?;
    let saturation = calibration.shots_per_sec.max(1.0);
    let mut frontier = Vec::with_capacity(points);
    for i in 1..=points {
        let target_rate = saturation * i as f64 / points as f64;
        let point_options = LoadgenOptions {
            rate: Some(target_rate),
            verify: false,
            ..*options
        };
        let report = run_over_tcp(
            addr,
            wire,
            capacity,
            gate_improvement,
            distance,
            decoder,
            &point_options,
            false,
        )?;
        frontier.push(FrontierPoint {
            target_rate,
            shots_per_sec: report.shots_per_sec,
            p50_latency_us: report.p50_latency_us,
            p99_latency_us: report.p99_latency_us,
        });
    }
    if shutdown_after {
        let mut tail = NetClient::connect(addr).map_err(|e| e.to_string())?;
        tail.shutdown_server()?;
    }
    Ok(FrontierReport {
        calibration,
        points: frontier,
    })
}
