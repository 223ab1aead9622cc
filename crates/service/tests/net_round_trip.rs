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
        shot_major: false, // the per-shot `frames` wire command
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
/// submission thread, driving the shot-major `frames_packed` wire command —
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
        shot_major: true, // the `frames_packed` wire command
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

/// The shot-major wire command (`frames_packed`) and the per-shot wire
/// command (`frames`) produce identical corrections for identical shots:
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
    lines: Vec<String>,
) -> (String, std::thread::JoinHandle<()>) {
    let opens = streams
        .iter()
        .map(|(id, observables)| {
            format!(r#"{{"ok":true,"stream":{id},"detectors":4,"observables":{observables}}}"#)
        })
        .collect();
    fake_server_answering(opens, lines)
}

/// A fake server that answers the client's `open` commands with `opens`,
/// one raw line each, waits for one submission (so the client has
/// registered every route), then sends `lines` and holds the socket open
/// until the client hangs up.
fn fake_server_answering(
    opens: Vec<String>,
    lines: Vec<String>,
) -> (String, std::thread::JoinHandle<()>) {
    use std::io::{BufRead, BufReader, Write};

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().expect("bound address").to_string();
    let fake = std::thread::spawn(move || {
        let (mut socket, _) = listener.accept().expect("client connects");
        let mut requests = BufReader::new(socket.try_clone().expect("clone socket")).lines();
        for open in opens {
            requests.next().expect("open command").expect("readable");
            writeln!(socket, "{open}").expect("open response");
        }
        if requests.next().is_some() {
            for line in lines {
                writeln!(socket, "{line}").expect("run line");
            }
        }
        while requests.next().is_some() {}
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

/// The single-frame `frame` command, over a raw socket: shots sent one
/// `frame` line each decode exactly like the same shots in one `frames`
/// line, a `frame` naming an out-of-range detector is answered by one
/// async error line and enqueues nothing, and an `open` with an ill-typed
/// field is refused.
#[test]
fn frame_lines_decode_like_a_frames_line_and_refuse_bad_detectors() {
    use std::io::{BufRead, BufReader, Write};

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

    let mut socket = std::net::TcpStream::connect(&addr).expect("raw connection");
    // A missing line fails the test instead of hanging it.
    socket
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let mut lines = BufReader::new(socket.try_clone().expect("clone socket")).lines();
    let mut next_line = || -> Value {
        let line = lines.next().expect("server line").expect("readable");
        serde_json::from_str(&line).expect("JSON line")
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
    for fired in &frames {
        let line = serde_json::json!({"cmd": "frame", "stream": by_frame, "detectors": fired});
        writeln!(socket, "{line}").expect("frame");
    }
    let line = serde_json::json!({"cmd": "frames", "stream": by_frames, "frames": frames});
    writeln!(socket, "{line}").expect("frames");
    writeln!(
        socket,
        r#"{{"cmd":"frame","stream":{by_frame},"detectors":[{}]}}"#,
        program.num_detectors()
    )
    .expect("bad frame");
    for id in [by_frame, by_frames] {
        writeln!(socket, r#"{{"cmd":"close","stream":{id}}}"#).expect("close");
    }

    // Run lines, the async error and the two close responses interleave.
    let mut flips: std::collections::HashMap<u64, Vec<u64>> = Default::default();
    let (mut async_errors, mut closed) = (0, 0);
    let done = |flips: &std::collections::HashMap<u64, Vec<u64>>| {
        [by_frame, by_frames]
            .iter()
            .all(|id| flips.get(id).map_or(0, Vec::len) == frames.len())
    };
    while closed < 2 || !done(&flips) {
        let line = next_line();
        if line.get("async").is_some() {
            assert_eq!(line["stream"].as_u64(), Some(by_frame), "{line:?}");
            async_errors += 1;
        } else if let Some(seq) = line["seq"].as_u64() {
            let stream = flips
                .entry(line["stream"].as_u64().expect("stream"))
                .or_default();
            assert_eq!(seq, stream.len() as u64, "runs arrive in order");
            let count = line["count"].as_u64().expect("count") as usize;
            let planes = line["planes"].as_array().expect("planes");
            let words = count.div_ceil(64);
            stream.extend((0..count).map(|shot| {
                (0..observables as usize).fold(0u64, |mask, o| {
                    let word = planes[o * words + shot / 64].as_u64().expect("plane word");
                    mask | ((word >> (shot % 64)) & 1) << o
                })
            }));
        } else {
            assert_eq!(line["ok"].as_bool(), Some(true), "{line:?}");
            closed += 1;
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
    assert_eq!(next_line()["ok"].as_bool(), Some(true));
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

/// A peer that sends a malformed run line must not take the reader down,
/// alias an observable or reach another stream: each bad line is refused
/// whole and surfaced as one protocol error, and the next well-formed run
/// still arrives.
#[test]
fn malformed_run_lines_are_protocol_errors_not_reader_panics() {
    let bad = [
        // `count` 0, and a `count` past the line cap on a stream whose
        // empty `planes` would otherwise fit any count.
        r#"{"stream":7,"seq":0,"count":0,"planes":[]}"#,
        r#"{"stream":5,"seq":0,"count":4294967296,"planes":[]}"#,
        // Two observables need two words for one shot.
        r#"{"stream":7,"seq":0,"count":1,"planes":[1]}"#,
        r#"{"stream":7,"seq":0,"count":65,"planes":[0,0]}"#,
        // A bit past `count`, in either observable's last word.
        r#"{"stream":7,"seq":0,"count":2,"planes":[4,0]}"#,
        r#"{"stream":7,"seq":0,"count":65,"planes":[0,0,0,2]}"#,
        // `seq + count` overflows u64.
        r#"{"stream":7,"seq":18446744073709551615,"count":1,"planes":[0,0]}"#,
        // Non-integer words.
        r#"{"stream":7,"seq":0,"count":1,"planes":[1e3,0]}"#,
        r#"{"stream":7,"seq":0,"count":1,"planes":[0,-1]}"#,
        r#"{"stream":7,"seq":0,"count":1,"planes":["x",0]}"#,
        // An unknown stream, and no stream at all.
        r#"{"stream":8,"seq":0,"count":1,"planes":[1,0]}"#,
        r#"{"seq":0,"count":1,"planes":[1,0]}"#,
    ];
    let good = r#"{"stream":7,"seq":0,"count":3,"planes":[5,2]}"#;
    let lines = bad.iter().chain([&good]).map(|l| l.to_string()).collect();
    const STREAMS: &[(u64, u64)] = &[(7, 2), (9, 2), (5, 0)];
    let (addr, fake) = fake_server(STREAMS, lines);
    let (client, streams) = open_fake_streams(&addr, STREAMS);

    for (seq, flips) in [(0, 0b01), (1, 0b10), (2, 0b01)] {
        let correction = streams[0]
            .corrections
            .recv_timeout(Duration::from_secs(30))
            .expect("the reader survives the bad lines and delivers the good one");
        assert_eq!((correction.seq, correction.flips), (seq, flips));
    }
    let errors = client.take_protocol_errors();
    assert_eq!(errors.len(), bad.len(), "{errors:?}");
    for stream in &streams {
        assert!(
            stream.corrections.try_recv().is_err(),
            "refused lines deliver nothing, to any stream"
        );
    }
    drop(client);
    fake.join().expect("fake server thread");
}

/// Run lines of 1, 64, 65 and 130 shots from a non-zero `seq`, two
/// observables: every shot flattens to its own `Correction`, in order.
#[test]
fn run_lines_flatten_into_ordered_corrections() {
    // Shot `seq` flips a pattern of both observables that changes within
    // every word.
    let flips = |seq: u64| (seq * 7 + seq / 3) % 4;
    let mut lines = Vec::new();
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
        let planes: Vec<String> = planes.iter().map(u64::to_string).collect();
        lines.push(format!(
            r#"{{"stream":3,"seq":{seq},"count":{count},"planes":[{}]}}"#,
            planes.join(",")
        ));
        seq += count;
    }
    let (addr, fake) = fake_server(&[(3, 2)], lines);
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

/// A frame line or `close` whose `stream` is missing or not a non-negative
/// integer is refused by name — never read as some huge stream id — and a
/// frame line's refusal stays tagged `"async"`.
#[test]
fn a_missing_or_ill_typed_stream_is_refused_by_name() {
    use std::io::Write;

    let server =
        NetServer::bind("127.0.0.1:0", ServiceConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address").to_string();
    let running = std::thread::spawn(move || server.run());
    let (mut socket, mut next_line) = raw_connection(&addr);

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
            writeln!(socket, r#"{{"cmd":"{cmd}",{stream}{shots}}}"#).expect("frame line");
            let response = next_line();
            assert_eq!(response["error"].as_str(), Some(expected), "{response:?}");
            assert_eq!(response["async"].as_bool(), Some(true), "{response:?}");
            assert!(response.get("stream").is_none(), "{response:?}");
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

/// The client caps the lines it sends as the server caps the lines it
/// reads: an oversized submission fails on the client, names the cap and
/// sends nothing, so the connection and its other streams keep working.
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
    // Eleven bytes a detector: a line of about 9.9 MB.
    let oversized = vec![vec![1_000_000_000usize; 900_000]];
    let error = client
        .submit_frames(stream.id, &oversized)
        .expect_err("a line past the cap");
    assert!(error.contains("MAX_LINE_BYTES"), "{error}");

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
