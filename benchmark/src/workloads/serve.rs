//! `serve_inproc_quiet` and `serve_tcp_packed`: the streaming decode
//! service, driven from one thread over 2 streams with 1 decode worker.
//!
//! Both replay pre-sampled grid-c2 1000X d=5 syndromes as shot-major word
//! blocks in a closed loop (see `closed_loop`). Decoding quiet words is
//! nearly free, so in process the cost is the service itself — batcher
//! shards, delivery and reorder, metrics, channel hand-off — and over TCP it
//! is the JSON-lines wire (parse, encode, socket). A change to one of those
//! should move one workload and barely touch the other.
//!
//! The traced run adds an open-loop segment: per-shot frames on a fixed
//! schedule, slow enough that no word fills inside the flush deadline, which
//! is the only thing here that exercises the partial-word deadline flush.

use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qccd_core::{compile_cache, ArchitectureConfig, Compiler};
use qccd_decoder::{DecodeScratch, DecoderKind};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_service::{
    Correction, DecodeProgram, DecodeService, NetClient, NetServer, ServiceConfig, StreamReceiver,
    StreamSender, WordBlock,
};
use qccd_sim::{sample_detector_chunks, SyndromeChunk};

use crate::stats;
use crate::trace::Tracer;
use crate::workload::{Counts, LayerValues, RepOutcome, Workload};

const STREAMS: usize = 2;
const DISTANCE: usize = 5;
const GATE_IMPROVEMENT: f64 = 1000.0;
/// Word blocks per stream per burst of the closed loop.
const BURST_BLOCKS: usize = 16;
/// Open-loop schedule: shots per second per stream, and its length.
const OPEN_LOOP_RATE: f64 = 5_000.0;
const OPEN_LOOP_SECONDS: f64 = 3.0;

fn arch() -> ArchitectureConfig {
    ArchitectureConfig::recommended(GATE_IMPROVEMENT)
}

fn service_config() -> ServiceConfig {
    ServiceConfig::default().with_workers(1)
}

/// The replayed syndromes and the corrections the offline decode gives
/// them. Word `w` of the sample goes to stream `w % STREAMS`.
struct Replay {
    chunks: Vec<SyndromeChunk>,
    /// Per stream: its word blocks, in submission order.
    blocks: [Vec<(Vec<u64>, usize)>; STREAMS],
    /// Per stream: the offline flip mask of each of its shots, in order.
    expected: [Vec<u64>; STREAMS],
    /// Offline flip mask of every shot, in sample order.
    offline: Vec<u64>,
    /// Shots whose offline prediction differs from the sampled observable.
    logical_failures: u64,
    schedule_us: f64,
    /// Corrections received in the reps and how many were missing, out of
    /// order or different from the offline decode.
    checked: Counts,
    /// The same for corrections received outside the reps (open loop,
    /// close), which `check` hands to the driver.
    unreported: Counts,
    /// Next sequence number each stream must deliver.
    next_seq: [u64; STREAMS],
}

impl Replay {
    fn sample(shots: usize, seed: u64) -> Replay {
        let arch = arch();
        let compiled = compile_cache::shared()
            .get_or_compile(
                &compile_cache::memory_key(&arch, DISTANCE, DISTANCE, MemoryBasis::Z),
                || {
                    Compiler::new(arch.clone()).compile_memory_experiment(
                        &rotated_surface_code(DISTANCE),
                        DISTANCE,
                        MemoryBasis::Z,
                    )
                },
            )
            .expect("the recommended design point compiles");
        let program = DecodeProgram::compile(&arch, DISTANCE, DecoderKind::UnionFind)
            .expect("the recommended design point compiles");
        let chunks: Vec<SyndromeChunk> =
            sample_detector_chunks(program.circuit(), shots, seed, 16 * 4096)
                .expect("consistent annotations")
                .chunks()
                .collect();

        let mut scratch = DecodeScratch::new();
        let mut offline = Vec::with_capacity(shots);
        let mut logical_failures = 0;
        let mut blocks: [Vec<(Vec<u64>, usize)>; STREAMS] = Default::default();
        let mut expected: [Vec<u64>; STREAMS] = Default::default();
        let mut word = 0;
        for chunk in &chunks {
            let prediction = program.decode_batch(chunk, &mut scratch);
            let first = offline.len();
            for shot in 0..chunk.num_shots() {
                let (mut flips, mut actual) = (0u64, 0u64);
                for observable in 0..chunk.num_observables() {
                    flips |= u64::from(prediction.predicted(shot, observable)) << observable;
                    actual |= u64::from(chunk.observable_flipped(shot, observable)) << observable;
                }
                logical_failures += u64::from(flips != actual);
                offline.push(flips);
            }
            for index in 0..chunk.words() {
                let count = (chunk.num_shots() - index * 64).min(64);
                let mut planes = Vec::new();
                chunk.word_block_into(index, &mut planes);
                let stream = word % STREAMS;
                blocks[stream].push((planes, count));
                let start = first + index * 64;
                expected[stream].extend_from_slice(&offline[start..start + count]);
                word += 1;
            }
        }
        Replay {
            chunks,
            blocks,
            expected,
            offline,
            logical_failures,
            schedule_us: compiled.elapsed_time_us(),
            checked: Counts::default(),
            unreported: Counts::default(),
            next_seq: [0; STREAMS],
        }
    }

    fn shots(&self) -> usize {
        self.offline.len()
    }

    fn bursts(&self) -> usize {
        self.blocks[0].len().div_ceil(BURST_BLOCKS)
    }

    fn burst(&self, stream: usize, burst: usize) -> &[(Vec<u64>, usize)] {
        let blocks = &self.blocks[stream];
        let start = (burst * BURST_BLOCKS).min(blocks.len());
        &blocks[start..(start + BURST_BLOCKS).min(blocks.len())]
    }

    /// Receives the corrections of one burst of `stream` and checks each:
    /// present, next in sequence, equal to the offline decode. `position`
    /// is the burst's first shot within the stream's replay.
    fn receive(
        &mut self,
        stream: usize,
        position: usize,
        count: usize,
        mut recv: impl FnMut() -> Option<Correction>,
    ) {
        let mut lost = false;
        for offset in 0..count {
            // After one time-out the rest of the burst is counted missing
            // without waiting for each.
            let correction = if lost { None } else { recv() };
            lost = correction.is_none();
            let ok = correction.is_some_and(|correction| {
                correction.seq == self.next_seq[stream]
                    && correction.flips == self.expected[stream][position + offset]
            });
            self.next_seq[stream] += 1;
            self.checked.add(Counts::one(ok));
        }
    }

    fn rep_outcome(&self, before: Counts) -> RepOutcome {
        RepOutcome {
            logical_failures: self.logical_failures,
            ops: Counts {
                attempted: self.checked.attempted - before.attempted,
                failed: self.checked.failed - before.failed,
            },
        }
    }

    /// The offline decode of the same chunks on one warm scratch: the
    /// baseline the service's throughput is a ratio of.
    fn offline_decode_s(&self) -> f64 {
        let program = DecodeProgram::compile(&arch(), DISTANCE, DecoderKind::UnionFind)
            .expect("the recommended design point compiles");
        let mut scratch = DecodeScratch::new();
        let start = Instant::now();
        for chunk in &self.chunks {
            std::hint::black_box(program.decode_batch(chunk, &mut scratch));
        }
        start.elapsed().as_secs_f64()
    }

    /// The fired-detector list of sample shot `shot`.
    fn frame(&self, shot: usize) -> Vec<usize> {
        let per_chunk = self.chunks[0].num_shots();
        let mut fired = Vec::new();
        self.chunks[shot / per_chunk].fired_detectors_into(shot % per_chunk, &mut fired);
        fired
    }
}

/// One rep of the closed loop: every word block of the replay, a burst of
/// `BURST_BLOCKS` per stream at a time — submit the burst on every stream,
/// then receive and check every correction of it, then the next burst.
fn closed_loop(
    replay: &mut Replay,
    tracer: &mut Tracer,
    submit_span: &'static str,
    mut submit: impl FnMut(usize, &[(Vec<u64>, usize)]),
    mut recv: impl FnMut(usize) -> Option<Correction>,
) -> RepOutcome {
    let before = replay.checked;
    let mut position = [0usize; STREAMS];
    for burst in 0..replay.bursts() {
        let mut counts = [0usize; STREAMS];
        for (stream, count) in counts.iter_mut().enumerate() {
            let blocks = replay.burst(stream, burst);
            *count = blocks.iter().map(|block| block.1).sum();
            let span = tracer.enter(submit_span);
            submit(stream, blocks);
            tracer.exit(span, *count as u64);
        }
        for stream in 0..STREAMS {
            let span = tracer.enter("service.drain_wait");
            replay.receive(stream, position[stream], counts[stream], || recv(stream));
            tracer.exit(span, counts[stream] as u64);
            position[stream] += counts[stream];
        }
    }
    replay.rep_outcome(before)
}

/// What the open-loop segment measured.
struct OpenLoop {
    latencies_us: Vec<f64>,
    lags_us: Vec<f64>,
    counts: Counts,
}

/// Submits per-shot frames on a fixed schedule — frame `k` is due at
/// `k / (STREAMS × rate)` and goes to stream `k % STREAMS` — while one
/// collector thread per stream stamps each correction's arrival. Latency is
/// timed from the due time, so a stall is charged to every frame it delays.
/// Stream `s` replays sample shots `s, s + STREAMS, …`.
fn open_loop<R>(
    replay: &mut Replay,
    mut submit: impl FnMut(usize, &Vec<usize>),
    receivers: [R; STREAMS],
) -> OpenLoop
where
    R: FnMut() -> Option<Correction> + Send,
{
    let per_stream = (OPEN_LOOP_RATE * OPEN_LOOP_SECONDS) as usize;
    let total = (per_stream * STREAMS).min(replay.shots());
    let per_stream = total / STREAMS;
    let frames: Vec<Vec<usize>> = (0..total).map(|shot| replay.frame(shot)).collect();
    let period = Duration::from_secs_f64(1.0 / (OPEN_LOOP_RATE * STREAMS as f64));
    let first_seq = replay.next_seq;
    let offline = &replay.offline;

    let mut lags_us = Vec::with_capacity(total);
    let start = Instant::now() + Duration::from_millis(1);
    let arrivals: Vec<Vec<(Instant, bool)>> = std::thread::scope(|scope| {
        let collectors: Vec<_> = receivers
            .into_iter()
            .enumerate()
            .map(|(stream, mut recv)| {
                scope.spawn(move || {
                    let mut lost = false;
                    (0..per_stream)
                        .map(|k| {
                            // After one time-out the rest count as missing
                            // without a wait each.
                            let correction = if lost { None } else { recv() };
                            lost = correction.is_none();
                            let ok = correction.is_some_and(|correction| {
                                correction.seq == first_seq[stream] + k as u64
                                    && correction.flips == offline[k * STREAMS + stream]
                            });
                            (Instant::now(), ok)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (k, frame) in frames.iter().enumerate() {
            let due = start + period * k as u32;
            loop {
                let now = Instant::now();
                if now >= due {
                    lags_us.push((now - due).as_secs_f64() * 1e6);
                    break;
                }
                if due - now > Duration::from_micros(200) {
                    std::thread::sleep(due - now - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
            submit(k % STREAMS, frame);
        }
        collectors
            .into_iter()
            .map(|collector| collector.join().expect("collector panicked"))
            .collect()
    });

    let mut latencies_us = Vec::with_capacity(total);
    let mut counts = Counts::default();
    for (stream, arrivals) in arrivals.iter().enumerate() {
        replay.next_seq[stream] += per_stream as u64;
        for (k, &(arrived, ok)) in arrivals.iter().enumerate() {
            let due = start + period * (k * STREAMS + stream) as u32;
            latencies_us.push(arrived.saturating_duration_since(due).as_secs_f64() * 1e6);
            counts.add(Counts::one(ok));
        }
    }
    OpenLoop {
        latencies_us,
        lags_us,
        counts,
    }
}

impl OpenLoop {
    fn report(&self, late_us: f64, values: &mut LayerValues) {
        let late = self.latencies_us.iter().filter(|&&l| l > late_us).count();
        values.insert("service.latency_p50_us", stats::median(&self.latencies_us));
        values.insert(
            "service.latency_p99_us",
            stats::percentile(&self.latencies_us, 0.99),
        );
        values.insert(
            "service.late_share",
            late as f64 / self.latencies_us.len() as f64,
        );
        values.insert("loadgen.lag_p99_us", stats::percentile(&self.lags_us, 0.99));
    }
}

fn flush_values(service: &DecodeService, values: &mut LayerValues) {
    let metrics = service.metrics();
    values.insert(
        "service.full_word_flushes",
        metrics.full_word_flushes as f64,
    );
    values.insert("service.deadline_flushes", metrics.deadline_flushes as f64);
    values.insert("service.close_flushes", metrics.close_flushes as f64);
}

// ---------------------------------------------------------------------------
// In process
// ---------------------------------------------------------------------------

struct InprocService {
    service: DecodeService,
    senders: Vec<StreamSender>,
    receivers: Vec<StreamReceiver>,
}

#[derive(Default)]
pub struct ServeInprocQuiet {
    replay: Option<Replay>,
    built: Option<InprocService>,
}

impl Workload for ServeInprocQuiet {
    fn units_per_rep(&self) -> f64 {
        1_048_576.0
    }

    fn reps_per_second(&self) -> f64 {
        15.0
    }

    fn prepare(&mut self, seed: u64) {
        self.replay = Some(Replay::sample(self.units_per_rep() as usize, seed));
    }

    fn build(&mut self, tracer: &mut Tracer) {
        let service = DecodeService::new(service_config());
        let program = tracer.time("service.program_build", 1, || {
            DecodeProgram::compile_with_memo(
                &arch(),
                DISTANCE,
                DecoderKind::UnionFind,
                service.config().memo,
            )
        });
        let program = Arc::new(program.expect("the recommended design point compiles"));
        let (mut senders, mut receivers) = (Vec::new(), Vec::new());
        for _ in 0..STREAMS {
            let handle = tracer
                .time("service.open_stream", 1, || {
                    service.open_stream_program(&program)
                })
                .expect("the service is running");
            let (sender, receiver) = handle.split();
            senders.push(sender);
            receivers.push(receiver);
        }
        self.replay.as_mut().expect("prepared").next_seq = [0; STREAMS];
        self.built = Some(InprocService {
            service,
            senders,
            receivers,
        });
    }

    fn rep(&mut self, _index: u64, tracer: &mut Tracer) -> RepOutcome {
        let replay = self.replay.as_mut().expect("prepared");
        let InprocService {
            senders, receivers, ..
        } = self.built.as_mut().expect("built");
        closed_loop(
            replay,
            tracer,
            "service.submit",
            |stream, blocks| {
                let blocks: Vec<WordBlock<'_>> = blocks
                    .iter()
                    .map(|(planes, count)| WordBlock {
                        planes,
                        count: *count,
                    })
                    .collect();
                // Refused shots are counted missing when their corrections
                // never arrive.
                if let Err(e) = senders[stream].submit_word_batch(&blocks) {
                    eprintln!("stream {stream} refused a burst: {e}");
                }
            },
            |stream| receivers[stream].recv_timeout(Duration::from_secs(10)),
        )
    }

    fn teardown(&mut self) {
        if let Some(built) = self.built.take() {
            for sender in &built.senders {
                sender.close();
            }
            built.service.shutdown();
        }
    }

    fn check(&mut self) -> Counts {
        // Every correction was checked as it arrived; the reps' counts are
        // already in their outcomes.
        std::mem::take(&mut self.replay.as_mut().expect("prepared").unreported)
    }

    fn schedule(&mut self) -> (u64, f64) {
        (
            DISTANCE as u64,
            self.replay.as_ref().expect("prepared").schedule_us,
        )
    }

    fn trace_extras(&mut self, tracer: &mut Tracer, values: &mut LayerValues) {
        let replay = self.replay.as_mut().expect("prepared");
        let built = self.built.as_mut().expect("built");

        let offline_s = replay.offline_decode_s();
        values.insert("service.offline_decode.ms", 1e3 * offline_s);
        tracer.time("telemetry.snapshot", 1, || {
            std::hint::black_box(built.service.telemetry_snapshot())
        });

        let span = tracer.enter("bench.open_loop");
        let senders = &built.senders;
        let [first, second] = &mut built.receivers[..] else {
            unreachable!("two streams");
        };
        let open = open_loop(
            replay,
            |stream, frame| {
                if let Err(e) = senders[stream].submit(frame) {
                    eprintln!("stream {stream} refused a frame: {e}");
                }
            },
            [first, second].map(|receiver| move || receiver.recv_timeout(Duration::from_secs(10))),
        );
        tracer.exit(span, open.counts.attempted);
        replay.unreported.add(open.counts);
        open.report(5_000.0, values);

        let span = tracer.enter("service.close");
        for (sender, receiver) in built.senders.iter().zip(&mut built.receivers) {
            sender.close();
            // Nothing is in flight, so anything still delivered is a
            // correction nobody submitted a frame for.
            while receiver.recv().is_some() {
                replay.unreported.add(Counts::one(false));
            }
        }
        tracer.exit(span, STREAMS as u64);
    }

    fn layer_values(&mut self, values: &mut LayerValues) {
        if let Some(built) = &self.built {
            flush_values(&built.service, values);
        }
    }
}

// ---------------------------------------------------------------------------
// Over TCP
// ---------------------------------------------------------------------------

struct TcpService {
    service: Arc<DecodeService>,
    server: JoinHandle<std::io::Result<()>>,
    client: NetClient,
    streams: Vec<qccd_service::net::NetStream>,
}

#[derive(Default)]
pub struct ServeTcpPacked {
    replay: Option<Replay>,
    built: Option<TcpService>,
    protocol_errors: u64,
}

impl Workload for ServeTcpPacked {
    fn units_per_rep(&self) -> f64 {
        32_768.0
    }

    fn reps_per_second(&self) -> f64 {
        12.0
    }

    fn prepare(&mut self, seed: u64) {
        self.replay = Some(Replay::sample(self.units_per_rep() as usize, seed));
    }

    fn build(&mut self, tracer: &mut Tracer) {
        let server = NetServer::bind("127.0.0.1:0", service_config()).expect("loopback binds");
        let addr = server.local_addr().expect("bound").to_string();
        let service = Arc::clone(server.service());
        let server = std::thread::spawn(move || server.run());
        let mut client = tracer
            .time("service.net.connect", 1, || NetClient::connect(&addr))
            .expect("the server accepts");
        let streams = (0..STREAMS)
            .map(|_| {
                tracer
                    .time("service.net.open_stream", 1, || {
                        client.open_stream(
                            "grid",
                            2,
                            "standard",
                            GATE_IMPROVEMENT,
                            DISTANCE,
                            DecoderKind::UnionFind,
                        )
                    })
                    .expect("the server opens the stream")
            })
            .collect();
        self.replay.as_mut().expect("prepared").next_seq = [0; STREAMS];
        self.built = Some(TcpService {
            service,
            server,
            client,
            streams,
        });
    }

    fn rep(&mut self, _index: u64, tracer: &mut Tracer) -> RepOutcome {
        let replay = self.replay.as_mut().expect("prepared");
        let TcpService {
            client, streams, ..
        } = self.built.as_mut().expect("built");
        closed_loop(
            replay,
            tracer,
            "service.net.submit",
            |stream, blocks| {
                if let Err(e) = client.submit_packed_words(streams[stream].id, blocks) {
                    eprintln!("stream {stream}: {e}");
                }
            },
            |stream| {
                streams[stream]
                    .corrections
                    .recv_timeout(Duration::from_secs(10))
                    .ok()
            },
        )
    }

    fn teardown(&mut self) {
        if let Some(mut built) = self.built.take() {
            for stream in &built.streams {
                let _ = built.client.close_stream(stream.id);
            }
            self.protocol_errors += built.client.take_protocol_errors().len() as u64;
            if let Err(e) = built.client.shutdown_server() {
                eprintln!("server shutdown: {e}");
            }
            drop(built.client);
            match built.server.join() {
                Ok(Ok(())) => {}
                other => eprintln!("server thread: {other:?}"),
            }
        }
    }

    fn check(&mut self) -> Counts {
        // Corrections were checked on arrival; here, the wire itself: no
        // line the client could not parse or route.
        let errors = match &self.built {
            Some(built) => built.client.take_protocol_errors(),
            None => Vec::new(),
        };
        for error in &errors {
            eprintln!("protocol error: {error}");
        }
        self.protocol_errors += errors.len() as u64;
        let mut counts = std::mem::take(&mut self.replay.as_mut().expect("prepared").unreported);
        counts.add(Counts::one(self.protocol_errors == 0));
        counts
    }

    fn schedule(&mut self) -> (u64, f64) {
        (
            DISTANCE as u64,
            self.replay.as_ref().expect("prepared").schedule_us,
        )
    }

    fn trace_extras(&mut self, tracer: &mut Tracer, values: &mut LayerValues) {
        let replay = self.replay.as_mut().expect("prepared");
        let built = self.built.as_mut().expect("built");

        values.insert("service.offline_decode.ms", 1e3 * replay.offline_decode_s());
        tracer.time("telemetry.snapshot", 1, || {
            std::hint::black_box(built.service.telemetry_snapshot())
        });

        let span = tracer.enter("bench.open_loop");
        let client = &mut built.client;
        let ids: Vec<u64> = built.streams.iter().map(|stream| stream.id).collect();
        let [first, second] = &mut built.streams[..] else {
            unreachable!("two streams");
        };
        let open = open_loop(
            replay,
            |stream, frame| {
                if let Err(e) = client.submit_frames(ids[stream], std::slice::from_ref(frame)) {
                    eprintln!("stream {stream}: {e}");
                }
            },
            [first, second].map(|stream| {
                move || {
                    stream
                        .corrections
                        .recv_timeout(Duration::from_secs(10))
                        .ok()
                }
            }),
        );
        tracer.exit(span, open.counts.attempted);
        replay.unreported.add(open.counts);
        open.report(20_000.0, values);

        let span = tracer.enter("service.close");
        for stream in &built.streams {
            if let Err(e) = built.client.close_stream(stream.id) {
                eprintln!("close: {e}");
            }
        }
        tracer.exit(span, STREAMS as u64);
    }

    fn layer_values(&mut self, values: &mut LayerValues) {
        if let Some(built) = &self.built {
            flush_values(&built.service, values);
        }
        values.insert("service.net.protocol_errors", self.protocol_errors as f64);
    }
}
