//! Replay load generator: samples syndrome frames offline, drives the
//! decode service with them at a target rate across many streams (and,
//! over TCP, across many **connections**), verifies that every correction
//! is bit-identical to the offline
//! [`Decoder::decode_batch`](qccd_decoder::Decoder::decode_batch) on the
//! same frames, and reports throughput and latency.
//!
//! Both transports run **one replay**. The program's chunks are sampled
//! once, from the fault table its [`DecodeProgram`] derived when it was
//! built (no second pass over the circuit), global shot `i` going to
//! stream `i % streams` as its `i / streams`-th frame, and each stream's
//! wire form (index frames or shot-major word blocks) is built before the
//! clock starts. One paced loop submits one 64-shot word a burst per stream
//! (one protocol line over TCP); per-stream collectors stamp each arrival;
//! one verifier counts missing, out-of-order and mismatched corrections and
//! measures latency on the client. Only opening a stream and submitting a
//! burst depend on the transport. Over TCP, stream `s` rides connection
//! `s % connections`, each connection on its own submission thread.
//!
//! [`run_over_tcp`] can also sweep the throughput/latency **frontier** over
//! that one replay: its first run finds the saturation rate, then throttled
//! runs at fractions of it show how latency grows as the offered load
//! approaches saturation.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qccd_decoder::DecodeScratch;
use qccd_sim::{DetectorChunkSampler, SyndromeChunk};
use qccd_telemetry::snapshot_from_json;
use serde_json::Value;

pub use crate::metrics::{StageBreakdown, StageSummary};
use crate::net::{NetClient, NetStream};
use crate::service::{DecodeService, StreamSender, WordBlock};
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
        }
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
    /// Offline single-thread `decode_batch` throughput on the same frames.
    pub offline_shots_per_sec: f64,
    /// `shots_per_sec / offline_shots_per_sec` — the acceptance headroom
    /// (the service target is ≥ 0.8 at d=5, p=2e-3).
    pub throughput_ratio: f64,
    /// Corrections missing, out of order, or differing from the offline
    /// reference (must be 0).
    pub mismatches: usize,
    /// Median submit→correction latency (µs), measured on the client in
    /// both modes: from submitting a shot's burst to the correction's
    /// arrival at its stream's collector (over TCP, the wire included).
    pub p50_latency_us: f64,
    /// 99th-percentile submit→correction latency (µs).
    pub p99_latency_us: f64,
    /// The service metrics snapshot at the end of the run.
    pub metrics: ServiceMetrics,
    /// Per-stage latency breakdown (batcher wait / decode / delivery) from
    /// the service's unified telemetry; `None` when the snapshot lacks a
    /// stage's cells.
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
            "offline_shots_per_sec": self.offline_shots_per_sec,
            "throughput_ratio": self.throughput_ratio,
            "mismatches": self.mismatches as u64,
            "p50_latency_us": self.p50_latency_us,
            "p99_latency_us": self.p99_latency_us,
            "metrics": self.metrics.to_json(),
            "stages": self.stages.map(|stages| stages.to_json()),
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
        out.push_str(&format!(
            "offline decode_batch baseline: {:.0} shots/s → service at {:.1}% of offline\n",
            self.offline_shots_per_sec,
            100.0 * self.throughput_ratio
        ));
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

/// A TCP replay: the first run (at the options' rate) plus, for a frontier
/// sweep, throttled points at even fractions of the rate it reached.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierReport {
    /// The first run (carries the bit-identity verdict and the offline
    /// baseline); a frontier sweep's calibration.
    pub calibration: LoadgenReport,
    /// Throttled replays at `saturation * i / n` for `i in 1..=n` (none
    /// for a plain run).
    pub points: Vec<FrontierPoint>,
}

impl FrontierReport {
    /// The frontier as a JSON object.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "calibration": self.calibration.to_json(),
            "points": self.points.iter().map(|p| serde_json::json!({
                "target_rate": p.target_rate,
                "shots_per_sec": p.shots_per_sec,
                "p50_latency_us": p.p50_latency_us,
                "p99_latency_us": p.p99_latency_us,
            })).collect::<Vec<_>>(),
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

/// `shots` shots of `program` in chunks, sampled from the fault table the
/// program derived when it was built.
fn replay_chunks(program: &DecodeProgram, shots: usize, seed: u64) -> Vec<SyndromeChunk> {
    DetectorChunkSampler::from_table(program.fault_table(), shots, seed, 16 * 4096)
        .chunks()
        .collect()
}

/// The chunks' shots as fired-detector index lists, dealt round-robin:
/// global shot `i` is stream `i % streams`'s `(i / streams)`-th frame.
fn deal_frames(chunks: &[SyndromeChunk], streams: usize) -> Vec<Vec<Vec<usize>>> {
    let mut per_stream = vec![Vec::new(); streams];
    let shots = chunks
        .iter()
        .flat_map(|chunk| (0..chunk.num_shots()).map(move |shot| (chunk, shot)));
    for (i, (chunk, shot)) in shots.enumerate() {
        let mut fired = Vec::new();
        chunk.fired_detectors_into(shot, &mut fired);
        per_stream[i % streams].push(fired);
    }
    per_stream
}

/// One stream's frames as shot-major word blocks `(planes, count)`, 64
/// shots a block: bit `j` of plane `d` is set iff the block's `j`-th shot
/// fired detector `d`.
fn shot_major_blocks(frames: &[Vec<usize>], num_detectors: usize) -> Vec<(Vec<u64>, usize)> {
    frames
        .chunks(64)
        .map(|block| {
            let mut planes = vec![0u64; num_detectors];
            for (j, fired) in block.iter().enumerate() {
                for &detector in fired {
                    planes[detector] |= 1u64 << j;
                }
            }
            (planes, block.len())
        })
        .collect()
}

/// Decodes the sampled chunks offline on the word-parallel batch path (one
/// warm scratch, one thread) and returns the per-shot flip masks plus the
/// decode wall time — the baseline the service throughput is measured
/// against.
fn decode_offline(program: &DecodeProgram, chunks: &[SyndromeChunk]) -> (Vec<u64>, f64) {
    let mut scratch = DecodeScratch::new();
    let mut flips = Vec::new();
    let start = Instant::now();
    for chunk in chunks {
        let prediction = program.decode_batch(chunk, &mut scratch);
        flips.extend((0..chunk.num_shots()).map(|shot| {
            (0..prediction.num_observables())
                .filter(|&observable| prediction.predicted(shot, observable))
                .fold(0u64, |mask, observable| mask | 1 << observable)
        }));
    }
    (flips, start.elapsed().as_secs_f64())
}

/// Sleep-based pacing toward `rate` shots/s: called before submitting
/// global shot `index`, sleeps off any lead over the target schedule. A
/// rate whose schedule is not a valid [`Duration`] — NaN, not positive, or
/// so small it overflows — paces nothing.
fn pace(start: Instant, index: usize, rate: Option<f64>) {
    let due = rate.and_then(|rate| Duration::try_from_secs_f64(index as f64 / rate).ok());
    if let Some(lead) = due.and_then(|due| due.checked_sub(start.elapsed())) {
        if lead > Duration::from_micros(50) {
            std::thread::sleep(lead);
        }
    }
}

/// The median and 99th percentile of a latency sample (0 when empty).
fn p50_p99(mut samples: Vec<f64>) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let rank = |p: f64| (p * samples.len().saturating_sub(1) as f64).round() as usize;
    let at = |p| samples.get(rank(p)).copied().unwrap_or(0.0);
    (at(0.50), at(0.99))
}

/// A correction and the instant its stream's collector received it.
type Arrival = (Correction, Instant);

/// Spawns one stream's collector: up to `expected` corrections through
/// `recv` (a receive with a timeout), each stamped on arrival. It stops at
/// end of stream or after two minutes without one; the verifier counts the
/// rest missing.
fn spawn_collector(
    expected: usize,
    mut recv: impl FnMut(Duration) -> Option<Correction> + Send + 'static,
) -> JoinHandle<Vec<Arrival>> {
    std::thread::spawn(move || {
        let arrive = |correction| (correction, Instant::now());
        std::iter::from_fn(|| recv(Duration::from_secs(120)).map(arrive))
            .take(expected)
            .collect()
    })
}

fn join_collectors(collectors: Vec<JoinHandle<Vec<Arrival>>>) -> Vec<Vec<Arrival>> {
    collectors
        .into_iter()
        .map(|collector| collector.join().expect("a collector only receives"))
        .collect()
}

/// A replay's wire form, per stream: index frames or shot-major blocks.
enum Wire {
    Frames(Vec<Vec<Vec<usize>>>),
    Blocks(Vec<Vec<(Vec<u64>, usize)>>),
}

/// One burst of one stream's wire form.
enum Burst<'a> {
    Frames(&'a [Vec<usize>]),
    Blocks(&'a [(Vec<u64>, usize)]),
}

/// What the verifier found across every stream of a replay.
#[derive(Default)]
struct Verdict {
    /// Expected corrections that never arrived.
    missing: usize,
    /// Arrivals whose `seq` is not their position (a lost, duplicated or
    /// reordered correction shifts the ones after it).
    out_of_order: usize,
    /// In-order corrections that differ from the offline reference.
    mismatched: usize,
    /// Submit→arrival latency of every arrival (µs).
    latencies_us: Vec<f64>,
}

/// The replay both transports run, sampled once.
struct Replay {
    per_stream_shots: Vec<usize>,
    wire: Wire,
    /// Offline flip masks in global shot order and the offline decode
    /// seconds.
    offline: (Vec<u64>, f64),
}

impl Replay {
    /// One sampling pass over the fault table `program` already holds
    /// feeds both the offline reference and the wire form, submitted one
    /// word a burst. The wire form is the trap-side client's to produce, so
    /// it is built here, before any clock starts.
    fn sample(program: &DecodeProgram, options: &LoadgenOptions) -> Self {
        let chunks = replay_chunks(program, options.shots.max(1), options.seed);
        let offline = decode_offline(program, &chunks);
        let frames = deal_frames(&chunks, options.streams.max(1));
        let per_stream_shots = frames.iter().map(Vec::len).collect();
        let wire = if options.shot_major {
            let blocks = |frames: &Vec<_>| shot_major_blocks(frames, program.num_detectors());
            Wire::Blocks(frames.iter().map(blocks).collect())
        } else {
            Wire::Frames(frames)
        };
        Replay {
            per_stream_shots,
            wire,
            offline,
        }
    }

    /// The paced submission loop of both transports. Round `r` hands word
    /// `r` of each of `streams` to `submit(stream, burst)`, paced to the
    /// global index of the burst's first shot and stamped as it goes out.
    /// Returns every stream's burst stamps (none for streams not given).
    fn submit<R, E>(
        &self,
        streams: impl Iterator<Item = usize> + Clone,
        start: Instant,
        rate: Option<f64>,
        mut submit: impl FnMut(usize, Burst<'_>) -> Result<R, E>,
    ) -> Result<Vec<Vec<Instant>>, E> {
        let round_shots = 64 * self.per_stream_shots.len();
        let most = streams.clone().map(|s| self.per_stream_shots[s]).max();
        let mut stamps = vec![Vec::new(); self.per_stream_shots.len()];
        for round in 0..most.unwrap_or(0).div_ceil(64) {
            for s in streams.clone() {
                let burst = match &self.wire {
                    Wire::Frames(all) => all[s].chunks(64).nth(round).map(Burst::Frames),
                    Wire::Blocks(all) => all[s].get(round..=round).map(Burst::Blocks),
                };
                let Some(burst) = burst else { continue };
                pace(start, round * round_shots + s, rate);
                stamps[s].push(Instant::now());
                submit(s, burst)?;
            }
        }
        Ok(stamps)
    }

    /// The shared verifier: checks each stream's arrivals against its shot
    /// count, their order and the offline reference, and times each from
    /// the stamp of the burst that carried its frame.
    fn verify(&self, arrivals: &[Vec<Arrival>], stamps: &[Vec<Instant>]) -> Verdict {
        let streams = self.per_stream_shots.len();
        let (reference, _) = &self.offline;
        let mut verdict = Verdict::default();
        for (s, arrived) in arrivals.iter().enumerate() {
            verdict.missing += self.per_stream_shots[s].saturating_sub(arrived.len());
            for (q, (correction, at)) in arrived.iter().enumerate() {
                if correction.seq != q as u64 {
                    verdict.out_of_order += 1;
                } else if reference.get(q * streams + s) != Some(&correction.flips) {
                    verdict.mismatched += 1;
                }
                if let Some(submitted) = stamps[s].get(q / 64) {
                    let latency = at.saturating_duration_since(*submitted);
                    verdict.latencies_us.push(latency.as_secs_f64() * 1e6);
                }
            }
        }
        verdict
    }

    fn report(
        &self,
        verdict: Verdict,
        wall_seconds: f64,
        connections: usize,
        metrics: ServiceMetrics,
        stages: Option<StageBreakdown>,
    ) -> LoadgenReport {
        let shots: usize = self.per_stream_shots.iter().sum();
        let (p50_latency_us, p99_latency_us) = p50_p99(verdict.latencies_us);
        let (_, offline_seconds) = self.offline;
        let offline_shots_per_sec = shots as f64 / offline_seconds.max(1e-9);
        let shots_per_sec = shots as f64 / wall_seconds.max(1e-9);
        LoadgenReport {
            shots,
            streams: self.per_stream_shots.len(),
            connections,
            wall_seconds,
            shots_per_sec,
            offline_shots_per_sec,
            throughput_ratio: shots_per_sec / offline_shots_per_sec,
            mismatches: verdict.missing + verdict.out_of_order + verdict.mismatched,
            p50_latency_us,
            p99_latency_us,
            metrics,
            stages,
        }
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
    // Word bursts: `submit_*_batch` pays the shard lock once per word
    // instead of once per frame, which is what lets the replay keep up
    // with the word-parallel decode itself.
    let replay = Replay::sample(program, options);
    let (mut senders, mut collectors) = (Vec::new(), Vec::new());
    for &expected in &replay.per_stream_shots {
        let (sender, mut receiver) = service.open_stream_program(program)?.split();
        senders.push(sender);
        collectors.push(spawn_collector(expected, move |wait| {
            receiver.recv_timeout(wait)
        }));
    }
    let submit = |s: usize, burst: Burst<'_>| match burst {
        Burst::Frames(frames) => {
            let frames: Vec<&[usize]> = frames.iter().map(Vec::as_slice).collect();
            senders[s].submit_batch(&frames)
        }
        Burst::Blocks(blocks) => {
            let blocks: Vec<_> = blocks
                .iter()
                .map(|&(ref planes, count)| WordBlock { planes, count })
                .collect();
            senders[s].submit_word_batch(&blocks)
        }
    };
    let start = Instant::now();
    let stamps = replay.submit(0..senders.len(), start, options.rate, submit);
    // Closing ends every collector, after a failed submission too.
    senders.iter().for_each(StreamSender::close);
    let stamps = stamps?;
    let arrivals = join_collectors(collectors);
    let wall_seconds = start.elapsed().as_secs_f64();
    let verdict = replay.verify(&arrivals, &stamps);
    let stages = StageBreakdown::from_snapshot(&service.telemetry_snapshot());
    Ok(replay.report(verdict, wall_seconds, 1, service.metrics(), stages))
}

/// Runs `replay` against the server at `addr`, opening each stream with
/// `open`: stream `s` rides connection `s % connections`, each connection
/// on its own submission thread, one word per protocol line.
fn replay_over_tcp(
    addr: &str,
    open: &dyn Fn(&mut NetClient) -> Result<NetStream, String>,
    replay: &Replay,
    connections: usize,
    rate: Option<f64>,
    shutdown_after: bool,
) -> Result<LoadgenReport, String> {
    let streams = replay.per_stream_shots.len();
    let connections = connections.clamp(1, streams);
    let on_connection = |c: usize| (c..streams).step_by(connections);
    let mut clients = (0..connections)
        .map(|_| NetClient::connect(addr))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let (mut ids, mut collectors) = (Vec::new(), Vec::new());
    for (s, &expected) in replay.per_stream_shots.iter().enumerate() {
        let stream = open(&mut clients[s % connections])?;
        ids.push(stream.id);
        collectors.push(spawn_collector(expected, move |timeout| {
            stream.corrections.recv_timeout(timeout).ok()
        }));
    }

    // Each connection's submission thread: its streams' bursts, one word
    // per protocol line, then its streams' closes.
    let (ids, start) = (&ids, Instant::now());
    let drive = |c: usize, client: &mut NetClient| {
        let stamps = replay.submit(on_connection(c), start, rate, |s, burst| match burst {
            Burst::Frames(frames) => client.submit_frames(ids[s], frames),
            Burst::Blocks(blocks) => client.submit_packed_words(ids[s], blocks),
        })?;
        on_connection(c).try_for_each(|s| client.close_stream(ids[s]))?;
        Ok::<_, String>(stamps)
    };
    let mut submitted = vec![Ok(Vec::new()); connections];
    std::thread::scope(|scope| {
        for ((c, client), outcome) in clients.iter_mut().enumerate().zip(&mut submitted) {
            scope.spawn(move || *outcome = drive(c, client));
        }
    });
    let mut submitted = submitted.into_iter().collect::<Result<Vec<_>, _>>()?;
    let stamps: Vec<_> = (0..streams)
        .map(|s| std::mem::take(&mut submitted[s % connections][s]))
        .collect();
    let arrivals = join_collectors(collectors);
    let wall_seconds = start.elapsed().as_secs_f64();
    let mut errors = clients.iter().flat_map(NetClient::take_protocol_errors);
    if let Some(first) = errors.next() {
        let count = 1 + errors.count();
        return Err(format!("{count} protocol errors, first: {first}"));
    }
    let verdict = replay.verify(&arrivals, &stamps);

    let mut tail = NetClient::connect(addr).map_err(|e| e.to_string())?;
    let full = tail.metrics_full()?;
    let metrics = ServiceMetrics::from_json(&full["metrics"]);
    let stages = StageBreakdown::from_snapshot(&snapshot_from_json(&full["telemetry"]));
    if shutdown_after {
        tail.shutdown_server()?;
    }
    Ok(replay.report(verdict, wall_seconds, connections, metrics, stages))
}

/// Drives a **remote** JSON-lines decode server with replayed frames of
/// `program`'s circuit over `options.connections` concurrent TCP
/// connections, opening each stream with `open` (which must open
/// `program`'s workload on the server: the caller's program is the offline
/// reference every correction is verified against). The first replay runs
/// at `options.rate`; then `points` throttled replays at `saturation * i /
/// points` (for `i in 1..=points`), `saturation` being the throughput the
/// first reached, sweep the **throughput/latency frontier**. Every run
/// replays the same frames, sampled once. `shutdown_after` sends
/// `{"cmd":"shutdown"}` after the last run (the CI smoke uses this to stop
/// the server).
///
/// # Errors
///
/// Transport failures, server-side open failures, protocol errors the
/// client reader refused to deliver (as strings, ready for CLI display),
/// and a throttled point with a missing, out-of-order or differing
/// correction.
pub fn run_over_tcp(
    addr: &str,
    program: &DecodeProgram,
    open: &dyn Fn(&mut NetClient) -> Result<NetStream, String>,
    options: &LoadgenOptions,
    points: usize,
    shutdown_after: bool,
) -> Result<FrontierReport, String> {
    let replay = Replay::sample(program, options);
    let run =
        |rate, shutdown| replay_over_tcp(addr, open, &replay, options.connections, rate, shutdown);
    let calibration = run(options.rate, shutdown_after && points == 0)?;
    let saturation = calibration.shots_per_sec.max(1.0);
    let mut frontier = Vec::with_capacity(points);
    for i in 1..=points {
        let target_rate = saturation * i as f64 / points as f64;
        let report = run(Some(target_rate), shutdown_after && i == points)?;
        if report.mismatches > 0 {
            let n = report.mismatches;
            return Err(format!("{n} mismatches at {target_rate:.0} shots/s"));
        }
        frontier.push(FrontierPoint {
            target_rate,
            shots_per_sec: report.shots_per_sec,
            p50_latency_us: report.p50_latency_us,
            p99_latency_us: report.p99_latency_us,
        });
    }
    Ok(FrontierReport {
        calibration,
        points: frontier,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_decoder::DecoderKind;

    /// Two streams of three shots, verified against a reference whose
    /// global shot `i` flips observable mask `i`.
    fn replay() -> Replay {
        Replay {
            per_stream_shots: vec![3, 3],
            wire: Wire::Frames(Vec::new()),
            offline: ((0..6).collect(), 1.0),
        }
    }

    /// Stream 1 delivers cleanly; stream 0 delivers `(seq, flips)` pairs.
    fn verdict(stream0: &[(u64, u64)]) -> Verdict {
        let at = Instant::now();
        let arrive = |seq, flips| (Correction { seq, flips }, at);
        let arrivals = vec![
            stream0
                .iter()
                .map(|&(seq, flips)| arrive(seq, flips))
                .collect(),
            (0..3).map(|q| arrive(q, 2 * q + 1)).collect(),
        ];
        replay().verify(&arrivals, &[vec![at], vec![at]])
    }

    fn counts(verdict: &Verdict) -> (usize, usize, usize) {
        (verdict.missing, verdict.out_of_order, verdict.mismatched)
    }

    #[test]
    fn the_verifier_counts_lost_duplicated_reordered_and_differing_corrections() {
        let clean = verdict(&[(0, 0), (1, 2), (2, 4)]);
        assert_eq!(counts(&clean), (0, 0, 0));
        assert_eq!(clean.latencies_us.len(), 6);
        // Shot 1 lost: one missing, and shot 2 arrives out of place.
        assert_eq!(counts(&verdict(&[(0, 0), (2, 4)])), (1, 1, 0));
        // Shot 0 duplicated: the collector stops at three arrivals, and the
        // duplicate shifts the two after it.
        assert_eq!(counts(&verdict(&[(0, 0), (0, 0), (1, 2)])), (0, 2, 0));
        assert_eq!(counts(&verdict(&[(1, 2), (0, 0), (2, 4)])), (0, 2, 0));
        assert_eq!(counts(&verdict(&[(0, 0), (1, 3), (2, 4)])), (0, 0, 1));
        // Nothing at all arrived on stream 0.
        assert_eq!(counts(&verdict(&[])), (3, 0, 0));
    }

    /// FNV-1a over `words`, continuing from `hash`.
    fn fnv1a(words: impl IntoIterator<Item = u64>, mut hash: u64) -> u64 {
        for word in words {
            for byte in word.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        hash
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// The replay's wire frames, wire blocks and offline flips of grid c2
    /// 5X d3 (16 384 shots, seed 2026, 4 streams), pinned by value: how the
    /// replay samples may change, the shots it replays may not.
    #[test]
    fn the_replay_of_grid_c2_5x_d3_is_pinned() {
        use qccd_core::ArchitectureConfig;
        use qccd_hardware::{TopologyKind, WiringMethod};
        let arch = ArchitectureConfig::new(TopologyKind::Grid, 2, WiringMethod::Standard, 5.0);
        let program = DecodeProgram::compile(&arch, 3, DecoderKind::UnionFind).unwrap();
        let sample = |shot_major| {
            let options = LoadgenOptions {
                shots: 16_384,
                seed: 2026,
                streams: 4,
                shot_major,
                ..LoadgenOptions::default()
            };
            Replay::sample(&program, &options)
        };
        let (by_frames, by_blocks) = (sample(false), sample(true));
        assert_eq!(by_frames.per_stream_shots, vec![4096; 4]);
        let Wire::Frames(frames) = &by_frames.wire else {
            panic!("frames requested")
        };
        let Wire::Blocks(blocks) = &by_blocks.wire else {
            panic!("blocks requested")
        };
        let frames = frames.iter().flatten().fold(FNV_OFFSET, |hash, frame| {
            let words = frame.iter().map(|&d| d as u64);
            fnv1a(words, fnv1a([frame.len() as u64], hash))
        });
        let blocks = blocks
            .iter()
            .flatten()
            .fold(FNV_OFFSET, |hash, (planes, count)| {
                fnv1a(planes.iter().copied(), fnv1a([*count as u64], hash))
            });
        let flips = |replay: &Replay| {
            let (flips, _) = &replay.offline;
            fnv1a(flips.iter().copied(), FNV_OFFSET)
        };
        assert_eq!(flips(&by_frames), flips(&by_blocks));
        assert_eq!(
            (frames, blocks, flips(&by_frames)),
            (
                0xf636_841c_8179_d624,
                0x5115_aa59_536c_4b3d,
                0xae49_b4dc_64f4_4044
            ),
            "wire frames, wire blocks, offline flips"
        );
    }

    /// The replay samples the program's own table: chunk for chunk the
    /// shots a fresh pass over the program's circuit samples.
    #[test]
    fn the_replay_samples_the_shots_of_the_programs_circuit() {
        use qccd_core::ArchitectureConfig;
        let arch = ArchitectureConfig::recommended(5.0);
        let program = DecodeProgram::compile(&arch, 3, DecoderKind::UnionFind).unwrap();
        let (shots, seed) = (2 * 16 * 4096 + 1000, 11);
        let fresh = qccd_sim::sample_detector_chunks(program.circuit(), shots, seed, 16 * 4096)
            .unwrap()
            .chunks()
            .collect::<Vec<_>>();
        assert_eq!(fresh.len(), 3);
        assert!(replay_chunks(&program, shots, seed) == fresh);
    }

    #[test]
    fn a_collector_takes_at_most_its_expected_count_and_stops_at_end_of_stream() {
        let feed = |n: u64| {
            let mut next = 0..n;
            move |_| next.next().map(|seq| Correction { seq, flips: 0 })
        };
        assert_eq!(spawn_collector(2, feed(5)).join().unwrap().len(), 2);
        assert_eq!(spawn_collector(4, feed(3)).join().unwrap().len(), 3);
    }

    #[test]
    fn pacing_never_panics_and_never_waits_on_an_invalid_rate() {
        let start = Instant::now();
        for rate in [
            f64::NAN,
            0.0,
            -0.0,
            -5.0,
            1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            for index in [0, 64, usize::MAX] {
                pace(start, index, Some(rate));
            }
        }
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn percentiles_of_a_latency_sample() {
        assert_eq!(p50_p99(Vec::new()), (0.0, 0.0));
        assert_eq!(p50_p99(vec![3.0]), (3.0, 3.0));
        let (p50, p99) = p50_p99((1..=101).rev().map(f64::from).collect());
        assert_eq!((p50, p99), (51.0, 100.0));
    }
}
