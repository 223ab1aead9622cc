//! End-to-end TCP round trip: bind an ephemeral server, drive it with the
//! TCP load generator, verify bit-identity and shut it down over the wire —
//! the same path the CI service-smoke job exercises via the `artifacts`
//! binary.

use std::time::Duration;

use qccd_decoder::DecoderKind;
use qccd_service::net::MAX_LINE_BYTES;
use qccd_service::{
    loadgen, DecodeProgram, FrontierReport, LoadgenOptions, NetClient, NetServer, ServiceConfig,
};
use qccd_sim::NoisyCircuit;
use serde_json::Value;

// The binary frames, written from the `net` module doc rather than imported
// from the crate, so that these tests check the crate against the
// documented layout: a kind byte, the stream as a little-endian `u64`, the
// payload's word count as a little-endian `u32`, then the payload's
// little-endian `u64` words.

/// Kind byte of a request frame of word blocks.
const WORD_BLOCKS: u8 = 0x01;
/// Kind byte of a request frame of index frames.
const INDEX_FRAMES: u8 = 0x02;
/// Kind byte of a run frame.
const RUN: u8 = 0x03;

/// One frame of `kind` on `stream` carrying `words`.
fn frame(kind: u8, stream: u64, words: &[u64]) -> Vec<u8> {
    let mut out = vec![kind];
    out.extend(stream.to_le_bytes());
    out.extend((words.len() as u32).to_le_bytes());
    for word in words {
        out.extend(word.to_le_bytes());
    }
    out
}

/// An index-frame request: per shot, its fired-detector count, then those
/// detectors.
fn index_frames(stream: u64, frames: &[Vec<usize>]) -> Vec<u8> {
    let words: Vec<u64> = frames
        .iter()
        .flat_map(|fired| std::iter::once(fired.len()).chain(fired.iter().copied()))
        .map(|word| word as u64)
        .collect();
    frame(INDEX_FRAMES, stream, &words)
}

/// A run frame: `seq`, `count`, then the observable-major planes.
fn run_frame(stream: u64, seq: u64, count: u64, planes: &[u64]) -> Vec<u8> {
    frame(RUN, stream, &[&[seq, count], planes].concat())
}

/// One server message on a raw connection.
#[derive(Debug)]
enum Reply {
    /// A JSON line.
    Line(Value),
    /// A run frame's stream, `seq`, `count` and planes.
    Run(u64, u64, usize, Vec<u64>),
}

/// Reads one server message: a run frame when it starts with the run kind
/// byte, a JSON line otherwise.
fn read_reply(reader: &mut std::io::BufReader<std::net::TcpStream>) -> Reply {
    use std::io::{BufRead, Read};

    let first = reader.fill_buf().expect("server message")[0];
    if first != RUN {
        let mut line = String::new();
        reader.read_line(&mut line).expect("server line");
        return Reply::Line(serde_json::from_str(&line).expect("JSON line"));
    }
    let mut header = [0u8; 13];
    reader.read_exact(&mut header).expect("run header");
    let stream = u64::from_le_bytes(header[1..9].try_into().unwrap());
    let words = u32::from_le_bytes(header[9..].try_into().unwrap()) as usize;
    let mut payload = vec![0u8; 8 * words];
    reader.read_exact(&mut payload).expect("run payload");
    let words: Vec<u64> = payload
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().unwrap()))
        .collect();
    Reply::Run(stream, words[0], words[1] as usize, words[2..].to_vec())
}

/// Connects a raw socket to `addr` whose `next_reply` reads one server
/// message (a missing one fails the test instead of hanging it).
fn raw_replies(addr: &str) -> (std::net::TcpStream, impl FnMut() -> Reply) {
    let socket = std::net::TcpStream::connect(addr).expect("raw connection");
    socket
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut reader = std::io::BufReader::new(socket.try_clone().expect("clone socket"));
    (socket, move || read_reply(&mut reader))
}

/// The offline decode's observable-flip mask of every frame.
fn offline_flips(program: &DecodeProgram, frames: &[Vec<usize>]) -> Vec<u64> {
    let mut builder = qccd_sim::SyndromeChunkBuilder::new(program.num_detectors(), 0);
    for frame in frames {
        builder.push_frame(frame);
    }
    let offline = program.decode_batch(
        &builder.finish(0, 0),
        &mut qccd_decoder::DecodeScratch::new(),
    );
    (0..frames.len())
        .map(|shot| {
            (0..offline.num_observables())
                .filter(|&observable| offline.predicted(shot, observable))
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

/// The TCP load generator's replay of grid c2 5X d = 2 (union-find)
/// against `addr`, with `points` frontier points, shutting the server down
/// after the last run.
fn replay_over_tcp(
    addr: &str,
    options: &LoadgenOptions,
    points: usize,
) -> Result<FrontierReport, String> {
    let arch = qccd_service::net::parse_arch("grid", 2, "standard", 5.0)?;
    let program =
        DecodeProgram::compile(&arch, 2, DecoderKind::UnionFind).map_err(|e| e.to_string())?;
    let open = |client: &mut NetClient| {
        client.open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
    };
    loadgen::run_over_tcp(addr, &program, &open, options, points, true)
}

#[test]
fn tcp_round_trip_with_loadgen_and_shutdown() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ServiceConfig::default()
            .with_workers(2)
            .with_flush_deadline(Duration::from_micros(300)),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let service = std::sync::Arc::clone(server.service());
    let running = std::thread::spawn(move || server.run());

    let options = LoadgenOptions {
        streams: 3,
        shots: 1024,
        seed: 7,
        rate: None,
        shot_major: false, // per-shot index frames on the wire
        ..LoadgenOptions::default()
    };
    // The replay shuts the server down over the wire.
    let report = replay_over_tcp(&addr, &options, 0)
        .expect("TCP loadgen round trip")
        .calibration;
    assert_eq!(report.mismatches, 0, "wire corrections are bit-identical");
    assert_eq!(report.shots, 1024);
    assert_eq!(report.metrics.frames_completed, 1024);
    assert!(report.metrics.words_flushed >= 16);
    running
        .join()
        .expect("server thread")
        .expect("server exits cleanly after shutdown command");
    // Every pump has been joined: each correction went out exactly once,
    // inside run lines of more than one shot on average.
    let snapshot = service.telemetry_snapshot();
    let lines = snapshot.counter("service.net.correction_lines");
    assert_eq!(snapshot.counter("service.net.corrections_sent"), 1024);
    assert!(0 < lines && lines < 1024, "{lines} run lines");
}

/// The saturation-harness shape: several TCP connections, each with its own
/// submission thread, driving the shot-major word-block frames —
/// still bit-identical to the offline decode, with client-observed latency
/// percentiles measured.
#[test]
fn multi_connection_packed_round_trip() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ServiceConfig::default()
            .with_workers(2)
            .with_flush_deadline(Duration::from_micros(300)),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());

    let options = LoadgenOptions {
        streams: 4,
        connections: 3,
        shots: 2048,
        seed: 21,
        rate: None,
        shot_major: true, // shot-major word-block frames on the wire
    };
    let report = replay_over_tcp(&addr, &options, 0)
        .expect("multi-connection packed round trip")
        .calibration;
    assert_eq!(report.mismatches, 0, "wire corrections are bit-identical");
    assert_eq!(report.connections, 3);
    assert_eq!(report.metrics.frames_completed, 2048);
    assert!(
        report.p99_latency_us >= report.p50_latency_us,
        "client-side latency percentiles are ordered"
    );
    running
        .join()
        .expect("server thread")
        .expect("server exits cleanly after shutdown command");
}

/// The frontier sweep end-to-end: one calibration run plus throttled points,
/// every point with non-zero achieved throughput.
#[test]
fn frontier_sweep_reports_nonzero_points() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ServiceConfig::default().with_flush_deadline(Duration::from_micros(300)),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());

    let options = LoadgenOptions {
        streams: 2,
        connections: 2,
        shots: 512,
        seed: 3,
        rate: None,
        shot_major: true,
    };
    let frontier = replay_over_tcp(&addr, &options, 2).expect("frontier sweep");
    assert_eq!(frontier.calibration.mismatches, 0);
    assert_eq!(frontier.points.len(), 2);
    for point in &frontier.points {
        assert!(point.target_rate > 0.0);
        assert!(point.shots_per_sec > 0.0);
    }
    running
        .join()
        .expect("server thread")
        .expect("server exits cleanly after shutdown command");
}

/// The shot-major word-block frames and the per-shot index frames produce
/// identical corrections for identical shots:
/// two streams of the same program, one fed each way, must agree
/// correction for correction.
#[test]
fn packed_wire_matches_frames_wire() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ServiceConfig::default().with_flush_deadline(Duration::from_micros(200)),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());

    let arch = qccd_service::net::parse_arch("grid", 2, "standard", 5.0).expect("arch");
    let program =
        qccd_service::DecodeProgram::compile(&arch, 2, DecoderKind::UnionFind).expect("compile");
    let frames = frames_of(program.circuit(), 300, 9);

    let mut client = NetClient::connect(&addr).expect("connect");
    let by_frames = client
        .open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
        .expect("open frames stream");
    let by_blocks = client
        .open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
        .expect("open packed stream");

    for burst in frames.chunks(64) {
        client
            .submit_frames(by_frames.id, burst)
            .expect("frames submit");
        let mut planes = vec![0u64; by_blocks.num_detectors];
        for (j, fired) in burst.iter().enumerate() {
            for &detector in fired {
                planes[detector] |= 1u64 << j;
            }
        }
        client
            .submit_packed_words(by_blocks.id, &[(planes, burst.len())])
            .expect("packed submit");
    }
    client.close_stream(by_frames.id).expect("close frames");
    client.close_stream(by_blocks.id).expect("close packed");

    for seq in 0..frames.len() as u64 {
        let a = by_frames
            .corrections
            .recv_timeout(Duration::from_secs(30))
            .expect("frames correction");
        let b = by_blocks
            .corrections
            .recv_timeout(Duration::from_secs(30))
            .expect("packed correction");
        assert_eq!(a.seq, seq);
        assert_eq!(b.seq, seq);
        assert_eq!(a.flips, b.flips, "shot {seq} decodes identically");
    }
    assert!(
        client.take_protocol_errors().is_empty(),
        "every server line routed cleanly"
    );
    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("clean exit");
}

/// Plane words at their extremes cross the wire exactly: an all-ones
/// 64-shot block (every detector fires in every shot), a block whose one
/// set bit is the top bit of the last detector's plane, and a 1-shot
/// block, sent as shot-major blocks on one stream and as per-shot frames on
/// another, in bursts of 1, 64 and 65 shots. Both streams' corrections
/// equal the offline decode of the same shots.
#[test]
fn extreme_plane_words_decode_like_the_offline_decode() {
    let server = NetServer::bind(
        "127.0.0.1:0",
        ServiceConfig::default().with_flush_deadline(Duration::from_micros(200)),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());

    let arch = qccd_service::net::parse_arch("grid", 2, "standard", 5.0).expect("arch");
    let program = DecodeProgram::compile(&arch, 2, DecoderKind::UnionFind).expect("compile");
    let detectors = program.num_detectors();
    let all_ones = (vec![u64::MAX; detectors], 64);
    let mut top_bit = (vec![0u64; detectors], 64);
    top_bit.0[detectors - 1] = 1 << 63;
    let one_shot = (vec![1u64; detectors], 1);
    let bursts: [Vec<(Vec<u64>, usize)>; 4] = [
        vec![one_shot.clone()],
        vec![all_ones.clone()],
        vec![top_bit.clone(), one_shot.clone()],
        vec![one_shot, top_bit, all_ones],
    ];

    let mut client = NetClient::connect(&addr).expect("connect");
    let mut open = || {
        client
            .open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
            .expect("open")
    };
    let (by_blocks, by_frames) = (open(), open());
    let mut frames: Vec<Vec<usize>> = Vec::new();
    for burst in &bursts {
        client
            .submit_packed_words(by_blocks.id, burst)
            .expect("packed submit");
        let shots: Vec<Vec<usize>> = burst
            .iter()
            .flat_map(|(planes, count)| {
                (0..*count).map(move |shot| {
                    (0..detectors)
                        .filter(|&detector| (planes[detector] >> shot) & 1 == 1)
                        .collect()
                })
            })
            .collect();
        client
            .submit_frames(by_frames.id, &shots)
            .expect("frames submit");
        frames.extend(shots);
    }
    assert_eq!(frames.len(), 1 + 64 + 65 + 129);
    client.close_stream(by_blocks.id).expect("close packed");
    client.close_stream(by_frames.id).expect("close frames");

    let mut builder = qccd_sim::SyndromeChunkBuilder::new(detectors, 0);
    for frame in &frames {
        builder.push_frame(frame);
    }
    let offline = program.decode_batch(
        &builder.finish(0, 0),
        &mut qccd_decoder::DecodeScratch::new(),
    );
    for (seq, frame) in frames.iter().enumerate() {
        let expected = (0..offline.num_observables())
            .filter(|&observable| offline.predicted(seq, observable))
            .fold(0u64, |mask, observable| mask | 1 << observable);
        for stream in [&by_blocks, &by_frames] {
            let correction = stream
                .corrections
                .recv_timeout(Duration::from_secs(30))
                .expect("correction");
            assert_eq!(
                (correction.seq, correction.flips),
                (seq as u64, expected),
                "stream {} shot {seq} ({} detectors fired)",
                stream.id,
                frame.len()
            );
        }
    }
    assert!(client.take_protocol_errors().is_empty());
    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("clean exit");
}

#[test]
fn shutdown_is_not_blocked_by_an_idle_connection() {
    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());

    // An idle client that never sends anything must not pin the server.
    let idle = NetClient::connect(&addr).expect("idle client connects");
    let mut active = NetClient::connect(&addr).expect("active client connects");
    active.ping().expect("ping");
    active.shutdown_server().expect("shutdown");
    let joined = std::thread::spawn(move || running.join());
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !joined.is_finished() {
        assert!(
            std::time::Instant::now() < deadline,
            "server.run() must return despite the idle connection"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    joined
        .join()
        .expect("waiter")
        .expect("server thread")
        .expect("clean exit");
    drop(idle);
}

#[test]
fn protocol_errors_are_reported_not_fatal() {
    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());

    let mut client = NetClient::connect(&addr).expect("connect");
    client.ping().expect("ping");
    // Bad opens are rejected with a message, and the connection survives.
    assert!(client
        .open_stream(
            "dodecahedron",
            2,
            "standard",
            1.0,
            3,
            DecoderKind::UnionFind
        )
        .is_err());
    assert!(client
        .open_stream("grid", 2, "standard", 1.0, 0, DecoderKind::UnionFind)
        .is_err());
    // An unbounded distance is refused before anything compiles.
    let too_large = client
        .open_stream("grid", 2, "standard", 1.0, 100_000, DecoderKind::UnionFind)
        .expect_err("distance above the cap");
    assert!(too_large.contains("at most 25"), "{too_large}");
    // A good open still works afterwards, and metrics round-trip.
    let stream = client
        .open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
        .expect("valid open");
    assert!(stream.num_detectors > 0);
    assert_eq!(stream.num_observables, 1);
    let metrics = client.metrics_full().expect("metrics");
    assert_eq!(
        metrics["metrics"]
            .get("streams_open")
            .and_then(Value::as_u64),
        Some(1)
    );
    client.close_stream(stream.id).expect("close");
    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("clean exit");
}

/// A fake server for the client's reader: answers one `open` per entry of
/// `streams` with that `(id, observables)` and four detectors, then as
/// [`fake_server_answering`].
fn fake_server(
    streams: &'static [(u64, u64)],
    replies: Vec<Vec<u8>>,
) -> (String, std::thread::JoinHandle<()>) {
    let opens = streams
        .iter()
        .map(|(id, observables)| {
            format!(r#"{{"ok":true,"stream":{id},"detectors":4,"observables":{observables}}}"#)
        })
        .collect();
    fake_server_answering(opens, replies)
}

/// A fake server that answers the client's `open` commands with `opens`,
/// one raw line each, waits for one submitted frame (so the client has
/// registered every route), then sends `replies` (raw bytes: lines or
/// frames) and holds the socket open until the client hangs up.
fn fake_server_answering(
    opens: Vec<String>,
    replies: Vec<Vec<u8>>,
) -> (String, std::thread::JoinHandle<()>) {
    use std::io::{BufRead, BufReader, Read, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let fake = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("client connects");
        let mut requests = BufReader::new(socket.try_clone().expect("clone socket"));
        for open in opens {
            requests
                .read_line(&mut String::new())
                .expect("open command");
            writeln!(socket, "{open}").expect("open response");
        }
        let mut header = [0u8; 13];
        if requests.read_exact(&mut header).is_ok() {
            let words = u32::from_le_bytes(header[9..].try_into().unwrap()) as usize;
            requests
                .read_exact(&mut vec![0; 8 * words])
                .expect("the submitted frame");
            for reply in replies {
                socket.write_all(&reply).expect("reply");
            }
        }
        let _ = requests.read_to_end(&mut Vec::new());
    });
    (addr, fake)
}

/// An `open` response without a usable detector count is refused: a stream
/// read as having no detectors would make every frame look out of range.
#[test]
fn an_open_response_without_a_detector_count_is_an_error() {
    for open in [
        r#"{"ok":true,"stream":1,"observables":1}"#,
        r#"{"ok":true,"stream":1,"detectors":"4","observables":1}"#,
        r#"{"ok":true,"stream":1,"detectors":-4,"observables":1}"#,
    ] {
        let (addr, fake) = fake_server_answering(vec![open.to_string()], Vec::new());
        let mut client = NetClient::connect(&addr).expect("connect");
        let error = client
            .open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
            .expect_err("no detector count");
        assert!(error.contains("detector count"), "{open}: {error}");
        drop(client);
        fake.join().expect("fake server thread");
    }
}

/// Index frames over a raw socket: shots sent one frame each decode
/// exactly like the same shots in one frame, a frame naming an
/// out-of-range detector is answered by one async error line and enqueues
/// nothing, an `open` with an ill-typed field is refused, and the retired
/// JSON spellings of a submission (`frame`, `frames`, `frames_packed`) are
/// unknown commands.
#[test]
fn frame_lines_decode_like_a_frames_line_and_refuse_bad_detectors() {
    use std::io::Write;

    let server = NetServer::bind(
        "127.0.0.1:0",
        ServiceConfig::default().with_flush_deadline(Duration::from_micros(200)),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let service = std::sync::Arc::clone(server.service());
    let running = std::thread::spawn(move || server.run());

    let arch = qccd_service::net::parse_arch("grid", 2, "standard", 5.0).expect("arch");
    let program =
        qccd_service::DecodeProgram::compile(&arch, 2, DecoderKind::UnionFind).expect("compile");
    let frames = frames_of(program.circuit(), 200, 13);

    // A missing message fails the test instead of hanging it.
    let (mut socket, mut next_reply) = raw_replies(&addr);
    let mut next_line = || match next_reply() {
        Reply::Line(line) => line,
        run => panic!("a run before any frame was sent: {run:?}"),
    };
    // An `open` field of the wrong type is refused, never defaulted, an
    // infinite gate improvement is refused like a non-positive one, and so
    // is the retired greedy decoder.
    for (field, value) in [
        ("capacity", r#""5""#),
        ("capacity", "2.5"),
        ("gate_improvement", r#""5""#),
        ("gate_improvement", "1e999"),
        ("decoder", "7"),
        ("decoder", r#""greedy""#),
    ] {
        writeln!(socket, r#"{{"cmd":"open","distance":2,"{field}":{value}}}"#).expect("open");
        let response = next_line();
        assert_eq!(response["ok"].as_bool(), Some(false), "{response:?}");
        let error = response["error"].as_str().expect("error message");
        assert!(error.contains(field), "{field}={value}: {error}");
        if value == r#""greedy""# {
            assert!(error.contains("(union_find|exact)"), "{error}");
        }
    }
    let mut opened = Vec::new();
    for _ in 0..2 {
        writeln!(
            socket,
            r#"{{"cmd":"open","topology":"grid","capacity":2,"wiring":"standard","gate_improvement":5.0,"distance":2,"decoder":"union_find"}}"#
        )
        .expect("open");
        let response = next_line();
        let id = response["stream"].as_u64().expect("stream id");
        opened.push((id, response["observables"].as_u64().expect("observables")));
    }
    let [(by_frame, observables), (by_frames, _)] = opened[..] else {
        unreachable!("two streams opened")
    };
    for (cmd, shots) in [
        ("frame", r#""detectors":[1]"#),
        ("frames", r#""frames":[[1]]"#),
        ("frames_packed", r#""blocks":[{"count":1,"planes":[1]}]"#),
    ] {
        writeln!(socket, r#"{{"cmd":"{cmd}","stream":{by_frame},{shots}}}"#).expect("retired");
        let response = next_line();
        let expected = format!("unknown command `{cmd}`");
        assert_eq!(response["error"].as_str(), Some(&*expected), "{response:?}");
        assert!(response.get("async").is_none(), "{response:?}");
    }
    for fired in &frames {
        socket
            .write_all(&index_frames(by_frame, std::slice::from_ref(fired)))
            .expect("frame");
    }
    socket
        .write_all(&index_frames(by_frames, &frames))
        .expect("frames");
    let out_of_range = vec![program.num_detectors()];
    socket
        .write_all(&index_frames(by_frame, &[out_of_range]))
        .expect("bad frame");
    for id in [by_frame, by_frames] {
        writeln!(socket, r#"{{"cmd":"close","stream":{id}}}"#).expect("close");
    }

    // Run frames, the async error and the two close responses interleave.
    let mut flips: std::collections::HashMap<u64, Vec<u64>> = Default::default();
    let (mut async_errors, mut closed) = (0, 0);
    let done = |flips: &std::collections::HashMap<u64, Vec<u64>>| {
        [by_frame, by_frames]
            .iter()
            .all(|id| flips.get(id).map_or(0, Vec::len) == frames.len())
    };
    while closed < 2 || !done(&flips) {
        match next_reply() {
            Reply::Line(line) if line.get("async").is_some() => {
                assert_eq!(line["stream"].as_u64(), Some(by_frame), "{line:?}");
                async_errors += 1;
            }
            Reply::Run(stream, seq, count, planes) => {
                let stream = flips.entry(stream).or_default();
                assert_eq!(seq, stream.len() as u64, "runs arrive in order");
                let words = count.div_ceil(64);
                stream.extend((0..count).map(|shot| {
                    (0..observables as usize).fold(0u64, |mask, o| {
                        let word = planes[o * words + shot / 64];
                        mask | ((word >> (shot % 64)) & 1) << o
                    })
                }));
            }
            Reply::Line(line) => {
                assert_eq!(line["ok"].as_bool(), Some(true), "{line:?}");
                closed += 1;
            }
        }
    }
    assert_eq!(async_errors, 1, "one error line for the bad frame");
    assert_eq!(
        flips[&by_frame], flips[&by_frames],
        "frame and frames decode alike"
    );
    assert_eq!(
        service.metrics().frames_submitted,
        2 * frames.len() as u64,
        "the bad frame enqueued nothing"
    );
    writeln!(socket, r#"{{"cmd":"shutdown"}}"#).expect("shutdown");
    assert!(matches!(next_reply(), Reply::Line(line) if line["ok"].as_bool() == Some(true)));
    running.join().expect("server thread").expect("clean exit");
}

/// Opens every stream of a [`fake_server`] and submits one frame.
fn open_fake_streams(
    addr: &str,
    fake: &[(u64, u64)],
) -> (NetClient, Vec<qccd_service::net::NetStream>) {
    let mut client = NetClient::connect(addr).expect("connect");
    let streams: Vec<_> = fake
        .iter()
        .map(|&(id, observables)| {
            let stream = client
                .open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
                .expect("fake open");
            assert_eq!(
                (stream.id, stream.num_observables as u64),
                (id, observables)
            );
            stream
        })
        .collect();
    client
        .submit_frames(fake[0].0, &[vec![]])
        .expect("submission reaches the fake server");
    (client, streams)
}

/// A peer that sends a malformed run frame must not take the reader down,
/// alias an observable or reach another stream: each bad message is
/// refused whole and surfaced as one protocol error, and the next
/// well-formed run still arrives.
#[test]
fn malformed_run_lines_are_protocol_errors_not_reader_panics() {
    let bad = [
        // `count` 0, and a `count` past the cap on a stream whose empty
        // planes would otherwise fit any count.
        run_frame(7, 0, 0, &[]),
        run_frame(5, 0, 4294967296, &[]),
        // Two observables need two words for one shot.
        run_frame(7, 0, 1, &[1]),
        run_frame(7, 0, 65, &[0, 0]),
        // A bit past `count`, in either observable's last word.
        run_frame(7, 0, 2, &[4, 0]),
        run_frame(7, 0, 65, &[0, 0, 0, 2]),
        // `seq + count` overflows u64.
        run_frame(7, u64::MAX, 1, &[0, 0]),
        // An unknown stream.
        run_frame(8, 0, 1, &[1, 0]),
        // A run without a `count`, a request frame, and a line that is not
        // JSON.
        frame(RUN, 7, &[0]),
        frame(WORD_BLOCKS, 7, &[1, 0, 0, 0, 0]),
        b"not json\n".to_vec(),
    ];
    let good = run_frame(7, 0, 3, &[5, 2]);
    let replies = bad.iter().chain([&good]).cloned().collect();
    const STREAMS: &[(u64, u64)] = &[(7, 2), (9, 2), (5, 0)];
    let (addr, fake) = fake_server(STREAMS, replies);
    let (client, streams) = open_fake_streams(&addr, STREAMS);

    for (seq, flips) in [(0, 0b01), (1, 0b10), (2, 0b01)] {
        let correction = streams[0]
            .corrections
            .recv_timeout(Duration::from_secs(30))
            .expect("the reader survives the bad messages and delivers the good one");
        assert_eq!((correction.seq, correction.flips), (seq, flips));
    }
    let errors = client.take_protocol_errors();
    assert_eq!(errors.len(), bad.len(), "{errors:?}");
    for stream in &streams {
        assert!(
            stream.corrections.try_recv().is_err(),
            "refused messages deliver nothing, to any stream"
        );
    }
    drop(client);
    fake.join().expect("fake server thread");
}

/// Run frames of 1, 64, 65 and 130 shots from a non-zero `seq`, two
/// observables: every shot flattens to its own `Correction`, in order.
#[test]
fn run_lines_flatten_into_ordered_corrections() {
    // Shot `seq` flips a pattern of both observables that changes within
    // every word.
    let flips = |seq: u64| (seq * 7 + seq / 3) % 4;
    let mut replies = Vec::new();
    let mut seq = 1000u64;
    for count in [1u64, 64, 65, 130] {
        let words = count.div_ceil(64) as usize;
        let mut planes = vec![0u64; 2 * words];
        for shot in 0..count {
            for observable in 0..2 {
                if (flips(seq + shot) >> observable) & 1 == 1 {
                    planes[observable * words + (shot / 64) as usize] |= 1 << (shot % 64);
                }
            }
        }
        replies.push(run_frame(3, seq, count, &planes));
        seq += count;
    }
    let (addr, fake) = fake_server(&[(3, 2)], replies);
    let (client, streams) = open_fake_streams(&addr, &[(3, 2)]);

    for seq in 1000..seq {
        let correction = streams[0]
            .corrections
            .recv_timeout(Duration::from_secs(30))
            .expect("every shot of every run");
        assert_eq!((correction.seq, correction.flips), (seq, flips(seq)));
    }
    assert!(streams[0].corrections.try_recv().is_err());
    assert!(client.take_protocol_errors().is_empty());
    drop(client);
    fake.join().expect("fake server thread");
}

/// A peer that never sends a newline is cut off at the line cap — told why,
/// then disconnected — instead of growing the server's line buffer without
/// bound; other connections are untouched.
#[test]
fn an_endless_line_is_refused_and_closes_only_its_connection() {
    use std::io::{Read, Write};

    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());

    let mut hostile = std::net::TcpStream::connect(&addr).expect("raw connection");
    hostile
        .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
        .expect("the server reads up to one byte past the cap");
    let mut answer = String::new();
    hostile
        .read_to_string(&mut answer)
        .expect("error line, then the server hangs up");
    assert_eq!(
        answer,
        format!("{{\"error\":\"line exceeds {MAX_LINE_BYTES} bytes\",\"ok\":false}}\n")
    );

    let mut client = NetClient::connect(&addr).expect("second connection");
    client.ping().expect("the server still answers");
    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("clean exit");
}

/// The client's reader applies the same cap to server lines: it records a
/// protocol error and stops, so a pending command fails instead of the
/// client buffering forever.
#[test]
fn an_endless_server_line_stops_the_client_reader() {
    use std::io::{Read, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let fake = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("client connects");
        socket
            .write_all(&vec![b'x'; MAX_LINE_BYTES + 1])
            .expect("the client reads up to one byte past the cap");
        // Hold the socket open until the client hangs up, so it is the cap
        // and not end-of-stream that stops the reader.
        let mut rest = Vec::new();
        let _ = socket.read_to_end(&mut rest);
    });

    let mut client = NetClient::connect(&addr).expect("connect");
    assert!(client.ping().is_err(), "the reader is gone");
    let errors = client.take_protocol_errors();
    assert_eq!(errors.len(), 1, "{errors:?}");
    assert!(errors[0].contains("exceeds"), "{errors:?}");
    drop(client);
    fake.join().expect("fake server thread");
}

/// Connects a raw socket to `addr` whose `next_line` reads one server line
/// as JSON (a missing line fails the test instead of hanging it).
fn raw_connection(addr: &str) -> (std::net::TcpStream, impl FnMut() -> Value) {
    use std::io::BufRead;

    let socket = std::net::TcpStream::connect(addr).expect("raw connection");
    socket
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut lines = std::io::BufReader::new(socket.try_clone().expect("clone socket")).lines();
    let next_line = move || -> Value {
        let line = lines.next().expect("server line").expect("readable");
        serde_json::from_str(&line).expect("JSON line")
    };
    (socket, next_line)
}

/// A `close` whose `stream` is missing or not a non-negative integer is
/// refused by name — never read as some huge stream id. A frame always
/// carries a `u64` stream, so a frame's half of the rule is that one on a
/// stream nobody opened is refused by its id, tagged `"async"`; the retired
/// JSON frame spellings, whatever their `stream`, are unknown commands.
#[test]
fn a_missing_or_ill_typed_stream_is_refused_by_name() {
    use std::io::Write;

    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());
    let (mut socket, mut next_line) = raw_connection(&addr);

    for request in [
        index_frames(u64::MAX, &[vec![1]]),
        frame(WORD_BLOCKS, u64::MAX, &[1, 1]),
    ] {
        socket.write_all(&request).expect("frame");
        let response = next_line();
        let expected = format!("unknown stream {}", u64::MAX);
        assert_eq!(response["error"].as_str(), Some(&*expected), "{response:?}");
        assert_eq!(response["async"].as_bool(), Some(true), "{response:?}");
        assert_eq!(response["stream"].as_u64(), Some(u64::MAX), "{response:?}");
    }
    let expected = "`stream` must be a non-negative integer";
    for stream in [
        "",
        r#""stream":"0","#,
        r#""stream":-1,"#,
        r#""stream":1.5,"#,
    ] {
        for (cmd, shots) in [
            ("frame", r#""detectors":[1]"#),
            ("frames", r#""frames":[[1]]"#),
            ("frames_packed", r#""blocks":[{"count":1,"planes":[1]}]"#),
        ] {
            writeln!(socket, r#"{{"cmd":"{cmd}",{stream}{shots}}}"#).expect("retired line");
            let response = next_line();
            let unknown = format!("unknown command `{cmd}`");
            assert_eq!(response["error"].as_str(), Some(&*unknown), "{response:?}");
            assert!(response.get("async").is_none(), "{response:?}");
        }
        writeln!(socket, r#"{{"cmd":"close",{stream}"x":0}}"#).expect("close");
        let response = next_line();
        assert_eq!(response["error"].as_str(), Some(expected), "{response:?}");
        assert!(response.get("async").is_none(), "{response:?}");
    }
    writeln!(socket, r#"{{"cmd":"shutdown"}}"#).expect("shutdown");
    assert_eq!(next_line()["ok"].as_bool(), Some(true));
    running.join().expect("server thread").expect("clean exit");
}

/// A line nested deeper than any request is refused as invalid JSON
/// without recursing through it, and its connection keeps serving.
#[test]
fn a_deeply_nested_line_is_refused_and_the_connection_survives() {
    use std::io::Write;

    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());
    let (mut socket, mut next_line) = raw_connection(&addr);

    writeln!(socket, r#"{{"cmd":"ping","x":{}}}"#, "[".repeat(1_000_000)).expect("deep line");
    let response = next_line();
    assert_eq!(
        response["error"].as_str(),
        Some("invalid JSON"),
        "{response:?}"
    );
    writeln!(socket, r#"{{"cmd":"shutdown"}}"#).expect("shutdown");
    assert_eq!(next_line()["ok"].as_bool(), Some(true));
    running.join().expect("server thread").expect("clean exit");
}

/// The client caps the requests it sends as the server caps what it reads:
/// an oversized submission fails on the client, names the cap and sends
/// nothing, so the connection and its other streams keep working. A word
/// block of the wrong width is refused the same way.
#[test]
fn an_oversized_request_is_refused_before_it_is_sent() {
    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let service = std::sync::Arc::clone(server.service());
    let running = std::thread::spawn(move || server.run());

    let mut client = NetClient::connect(&addr).expect("connect");
    let stream = client
        .open_stream("grid", 2, "standard", 5.0, 2, DecoderKind::UnionFind)
        .expect("open");
    // Eight bytes a detector: a frame of about 8.8 MB.
    let oversized = vec![vec![1_000_000_000usize; 1_100_000]];
    let error = client
        .submit_frames(stream.id, &oversized)
        .expect_err("a line past the cap");
    assert!(error.contains("MAX_LINE_BYTES"), "{error}");
    // So is a word block whose plane count is not the stream's detector
    // count: the frame does not carry it, so the server could misread the
    // block boundaries.
    let wide = vec![0u64; stream.num_detectors + 4];
    let error = client
        .submit_packed_words(stream.id, &[(wide, 1)])
        .expect_err("a block of the wrong width");
    assert!(error.contains("nothing was sent"), "{error}");

    client.ping().expect("the connection is still up");
    client
        .submit_frames(stream.id, &[vec![], vec![0]])
        .expect("a small submission");
    for seq in 0..2 {
        let correction = stream
            .corrections
            .recv_timeout(Duration::from_secs(30))
            .expect("the stream still decodes");
        assert_eq!(correction.seq, seq);
    }
    assert!(client.take_protocol_errors().is_empty());
    assert_eq!(
        service.metrics().frames_submitted,
        2,
        "nothing of the big line arrived"
    );
    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("clean exit");
}

/// A frame split across the server's read timeout still decodes: each
/// frame arrives in two writes with a pause longer than the timeout
/// between them, one cut inside its header and one inside its payload.
#[test]
fn a_frame_split_across_the_read_timeout_still_decodes() {
    use std::io::Write;

    let server = NetServer::bind(
        "127.0.0.1:0",
        ServiceConfig::default().with_flush_deadline(Duration::from_micros(200)),
    )
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());
    let arch = qccd_service::net::parse_arch("grid", 2, "standard", 5.0).expect("arch");
    let program = DecodeProgram::compile(&arch, 2, DecoderKind::UnionFind).expect("compile");
    let frames = frames_of(program.circuit(), 100, 17);

    let (mut socket, mut next_reply) = raw_replies(&addr);
    writeln!(
        socket,
        r#"{{"cmd":"open","gate_improvement":5.0,"distance":2}}"#
    )
    .expect("open");
    let Reply::Line(response) = next_reply() else {
        panic!("an open response")
    };
    let id = response["stream"].as_u64().expect("stream id");
    for (shots, cut) in [(&frames[..40], 6), (&frames[40..], 200)] {
        let request = index_frames(id, shots);
        socket.write_all(&request[..cut]).expect("first half");
        std::thread::sleep(Duration::from_millis(300));
        socket.write_all(&request[cut..]).expect("second half");
    }
    writeln!(socket, r#"{{"cmd":"close","stream":{id}}}"#).expect("close");

    let expected = offline_flips(&program, &frames);
    let (mut flips, mut closed) = (Vec::new(), false);
    while !closed || flips.len() < frames.len() {
        match next_reply() {
            Reply::Run(stream, seq, count, planes) => {
                assert_eq!((stream, seq), (id, flips.len() as u64));
                let words = count.div_ceil(64);
                flips.extend((0..count).map(|shot| (planes[shot / 64] >> (shot % 64)) & 1));
                assert_eq!(planes.len(), words, "one observable");
            }
            Reply::Line(line) => {
                assert_eq!(line["ok"].as_bool(), Some(true), "{line:?}");
                closed = true;
            }
        }
    }
    assert_eq!(flips, expected);
    writeln!(socket, r#"{{"cmd":"shutdown"}}"#).expect("shutdown");
    assert!(matches!(next_reply(), Reply::Line(line) if line["ok"].as_bool() == Some(true)));
    running.join().expect("server thread").expect("clean exit");
}

/// A frame header that claims more than the cap is refused from the header
/// alone, with the cap's error text, and closes only its own connection.
#[test]
fn an_oversized_frame_header_is_refused_and_closes_only_its_connection() {
    use std::io::{Read, Write};

    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());
    let mut bystander = NetClient::connect(&addr).expect("an earlier connection");
    bystander.ping().expect("ping");

    let mut hostile = std::net::TcpStream::connect(&addr).expect("raw connection");
    let words = (MAX_LINE_BYTES / 8) as u32;
    let mut header = frame(WORD_BLOCKS, 0, &[]);
    header[9..].copy_from_slice(&words.to_le_bytes());
    hostile.write_all(&header).expect("a header alone");
    let mut answer = String::new();
    hostile
        .read_to_string(&mut answer)
        .expect("error line, then the server hangs up");
    assert_eq!(
        answer,
        format!("{{\"error\":\"line exceeds {MAX_LINE_BYTES} bytes\",\"ok\":false}}\n")
    );

    bystander
        .ping()
        .expect("the earlier connection still answers");
    let mut client = NetClient::connect(&addr).expect("a later connection");
    client.ping().expect("the server still answers");
    client.shutdown_server().expect("shutdown");
    running.join().expect("server thread").expect("clean exit");
}
