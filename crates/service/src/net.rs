//! `std::net` TCP front-end: a JSON-lines protocol over the decode service,
//! plus the matching client used by the load generator and the CI smoke
//! test.
//!
//! # Protocol
//!
//! One JSON object per line in each direction. Requests:
//!
//! ```text
//! {"cmd":"open","topology":"grid","capacity":2,"wiring":"standard",
//!  "gate_improvement":5.0,"distance":3,"decoder":"union_find"}
//! {"cmd":"frame","stream":0,"detectors":[1,5]}
//! {"cmd":"frames","stream":0,"frames":[[1,5],[],[2]]}
//! {"cmd":"frames_packed","stream":0,"blocks":[{"count":64,"planes":[3,0]}]}
//! {"cmd":"close","stream":0}
//! {"cmd":"metrics"}
//! {"cmd":"metrics","format":"text"}
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}
//! ```
//!
//! `metrics` answers with the [`ServiceMetrics`](crate::ServiceMetrics)
//! object under `"metrics"` **and** the telemetry registry snapshot (the
//! same cells by name, plus stage spans and histograms) under
//! `"telemetry"`; with `"format":"text"` it instead answers
//! `{"ok":true,"text":...}` carrying a Prometheus-style exposition of the
//! same snapshot.
//!
//! Every command except `frame`/`frames`/`frames_packed` is answered
//! synchronously with an `{"ok":...}` object (in request order). Frames are
//! answered *asynchronously*, one `{"stream":S,"seq":Q,"flips":[..]}` line
//! per frame in per-stream submission order, interleaved with command
//! responses; `flips` lists the flipped logical observables. An invalid
//! frame batch produces an
//! `{"ok":false,"async":true,"stream":S,"error":...}` line instead (nothing
//! from that line is enqueued) — the `"async"` tag tells clients not to pair
//! it with a pending command response.
//!
//! `frames_packed` is the **shot-major** wire mode: each block carries up to
//! 64 shots pre-transposed into one `u64` plane word per detector (bit `s`
//! of word `d` = shot `s` fired detector `d` — the
//! [`WordBlock`](crate::WordBlock) layout), so the per-frame transpose
//! disappears from the service hot path. The vendored JSON layer preserves
//! `u64` values exactly, so plane words round-trip bit-for-bit.
//!
//! A line may not exceed [`MAX_LINE_BYTES`]: the server answers a longer one
//! with `{"ok":false,"error":"line exceeds … bytes"}` and closes that
//! connection; the client records a protocol error and stops reading.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use qccd_core::ArchitectureConfig;
use qccd_decoder::DecoderKind;
use serde_json::Value;

use crate::service::{Correction, DecodeService, ServiceConfig, StreamSender, WordBlock};

/// Longest line either side buffers, in bytes — more than 25× the largest
/// legitimate one (a 16-block `frames_packed` burst at d = 9). A peer that
/// never sends a newline is cut off here instead of growing the process.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Parses the wire name of a decoder kind.
pub fn parse_decoder(name: &str) -> Result<DecoderKind, String> {
    match name {
        "union_find" => Ok(DecoderKind::UnionFind),
        "greedy" => Ok(DecoderKind::GreedyMatching),
        "exact" => Ok(DecoderKind::ExactMatching),
        other => Err(format!(
            "unknown decoder `{other}` (union_find|greedy|exact)"
        )),
    }
}

/// The wire name of a decoder kind (inverse of [`parse_decoder`]).
pub fn decoder_name(kind: DecoderKind) -> &'static str {
    match kind {
        DecoderKind::UnionFind => "union_find",
        DecoderKind::GreedyMatching => "greedy",
        DecoderKind::ExactMatching => "exact",
    }
}

/// Builds an [`ArchitectureConfig`] from wire parameters.
pub fn parse_arch(
    topology: &str,
    capacity: usize,
    wiring: &str,
    gate_improvement: f64,
) -> Result<ArchitectureConfig, String> {
    let topology: qccd_hardware::TopologyKind = topology.parse()?;
    let wiring: qccd_hardware::WiringMethod = wiring.parse()?;
    if capacity == 0 {
        return Err("capacity must be positive".into());
    }
    if gate_improvement <= 0.0 || gate_improvement.is_nan() {
        return Err("gate_improvement must be positive".into());
    }
    Ok(ArchitectureConfig::new(
        topology,
        capacity,
        wiring,
        gate_improvement,
    ))
}

/// A bound JSON-lines decode server.
pub struct NetServer {
    listener: TcpListener,
    service: Arc<DecodeService>,
    shutdown: Arc<AtomicBool>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.listener.local_addr().ok())
            .finish()
    }
}

impl NetServer {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, port 0 for ephemeral) over a
    /// fresh [`DecodeService`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(addr: &str, config: ServiceConfig) -> io::Result<NetServer> {
        Ok(NetServer {
            listener: TcpListener::bind(addr)?,
            service: Arc::new(DecodeService::new(config)),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound socket address.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The underlying service (for in-process metrics inspection).
    pub fn service(&self) -> &Arc<DecodeService> {
        &self.service
    }

    /// Serves connections until a client sends `{"cmd":"shutdown"}`, then
    /// drains and shuts the service down.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from the accept loop.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let service = Arc::clone(&self.service);
                    let shutdown = Arc::clone(&self.shutdown);
                    connections.push(std::thread::spawn(move || {
                        let _ = handle_connection(stream, service, shutdown);
                    }));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Long-lived servers must not accumulate one handle per
                    // past connection.
                    connections.retain(|connection| !connection.is_finished());
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e),
            }
        }
        // Connection readers poll the shutdown flag on a read timeout, so
        // even an idle client's handler exits promptly.
        for connection in connections {
            let _ = connection.join();
        }
        self.service.shutdown();
        Ok(())
    }
}

type SharedWriter = Arc<Mutex<BufWriter<TcpStream>>>;

fn write_line(writer: &SharedWriter, value: &Value) -> io::Result<()> {
    let text = serde_json::to_string(value).expect("response serialization cannot fail");
    // A panic on a sibling thread of this connection (e.g. a correction
    // pump) poisons the shared writer. Treat that as a dead connection —
    // every writer backs off and the handler tears the connection down —
    // instead of cascading the panic through all subsequent writes.
    let mut writer = writer.lock().map_err(|_| {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "connection writer poisoned by a panicked sibling thread",
        )
    })?;
    writeln!(writer, "{text}")?;
    writer.flush()
}

fn flips_json(flips: u64) -> Value {
    let mut list = Vec::new();
    let mut rest = flips;
    while rest != 0 {
        list.push(Value::from(rest.trailing_zeros() as u64));
        rest &= rest - 1;
    }
    Value::Array(list)
}

/// The observable bitmask of a correction line — the inverse of
/// [`flips_json`]. `None` unless `flips` is an array of integers below 64
/// (a [`Correction`] carries one bit per observable), so a peer's stray
/// entry is refused rather than shifted out of range or skipped.
fn parse_flips(value: &Value) -> Option<u64> {
    let mut flips = 0u64;
    for entry in value.get("flips")?.as_array()? {
        flips |= 1u64 << entry.as_u64().filter(|&observable| observable < 64)?;
    }
    Some(flips)
}

fn error_json(message: impl std::fmt::Display) -> Value {
    serde_json::json!({"ok": false, "error": format!("{message}")})
}

fn handle_connection(
    stream: TcpStream,
    service: Arc<DecodeService>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // A read timeout keeps this handler responsive to a server shutdown
    // triggered on *another* connection: the read loop polls the flag on
    // every timeout instead of parking in `read` forever.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let writer: SharedWriter = Arc::new(Mutex::new(BufWriter::new(stream.try_clone()?)));
    let mut reader = BufReader::new(stream);
    let mut senders: HashMap<u64, StreamSender> = HashMap::new();
    let mut pumps: Vec<JoinHandle<()>> = Vec::new();
    // The serve loop's result is captured — not propagated with `?` — so
    // this connection's streams are closed and its pumps joined on *every*
    // exit path, error teardowns included.
    let result = serve_connection(
        &mut reader,
        &service,
        &shutdown,
        &writer,
        &mut senders,
        &mut pumps,
    );
    for sender in senders.values() {
        sender.close();
    }
    drop(senders);
    for pump in pumps {
        let _ = pump.join();
    }
    result
}

fn serve_connection(
    reader: &mut BufReader<TcpStream>,
    service: &Arc<DecodeService>,
    shutdown: &Arc<AtomicBool>,
    writer: &SharedWriter,
    senders: &mut HashMap<u64, StreamSender>,
    pumps: &mut Vec<JoinHandle<()>>,
) -> io::Result<()> {
    let mut line = String::new();
    loop {
        // Poll the flag between lines too: a continuously-sending client
        // never hits the read timeout, and must not pin the server past a
        // shutdown issued on another connection.
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // `read_line` may return a timeout error with a partial line
        // already appended; `line` is only cleared after a complete line is
        // processed, so partial reads accumulate correctly — up to one byte
        // past the cap, which is how an over-long line is recognised.
        let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
        match reader.by_ref().take(room).read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with('\n') => {
                let message = format!("line exceeds {MAX_LINE_BYTES} bytes");
                write_line(writer, &error_json(message))?;
                break;
            }
            Ok(_) => {
                let done = handle_line(&line, service, shutdown, writer, senders, pumps)?;
                line.clear();
                if done {
                    break;
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Parses and dispatches one request line; returns `true` when the
/// connection should end (shutdown).
fn handle_line(
    line: &str,
    service: &Arc<DecodeService>,
    shutdown: &Arc<AtomicBool>,
    writer: &SharedWriter,
    senders: &mut HashMap<u64, StreamSender>,
    pumps: &mut Vec<JoinHandle<()>>,
) -> io::Result<bool> {
    if line.trim().is_empty() {
        return Ok(false);
    }
    let request = match serde_json::from_str(line) {
        Ok(value) => value,
        Err(_) => {
            write_line(writer, &error_json("invalid JSON"))?;
            return Ok(false);
        }
    };
    dispatch(&request, service, shutdown, writer, senders, pumps)
}

/// Handles one request line; returns `true` when the connection should end
/// (shutdown).
fn dispatch(
    request: &Value,
    service: &Arc<DecodeService>,
    shutdown: &Arc<AtomicBool>,
    writer: &SharedWriter,
    senders: &mut HashMap<u64, StreamSender>,
    pumps: &mut Vec<JoinHandle<()>>,
) -> io::Result<bool> {
    let cmd = request.get("cmd").and_then(Value::as_str).unwrap_or("");
    match cmd {
        "ping" => write_line(writer, &serde_json::json!({"ok": true}))?,
        "metrics" => {
            let snapshot = service.telemetry_snapshot();
            if request.get("format").and_then(Value::as_str) == Some("text") {
                let text = qccd_telemetry::snapshot_to_text(&snapshot, "qccd");
                write_line(writer, &serde_json::json!({"ok": true, "text": text}))?;
            } else {
                let metrics = service.metrics().to_json();
                let telemetry = qccd_telemetry::snapshot_to_json(&snapshot);
                write_line(
                    writer,
                    &serde_json::json!({"ok": true, "metrics": metrics, "telemetry": telemetry}),
                )?;
            }
        }
        "shutdown" => {
            shutdown.store(true, Ordering::SeqCst);
            write_line(writer, &serde_json::json!({"ok": true}))?;
            return Ok(true);
        }
        "open" => match open_from_request(request, service) {
            Ok(handle) => {
                let (sender, mut receiver) = handle.split();
                let id = sender.id();
                let response = serde_json::json!({
                    "ok": true,
                    "stream": id,
                    "detectors": sender.num_detectors() as u64,
                    "observables": sender.num_observables() as u64,
                });
                senders.insert(id, sender);
                let pump_writer = Arc::clone(writer);
                pumps.push(std::thread::spawn(move || {
                    while let Some(Correction { seq, flips }) = receiver.recv() {
                        let line = serde_json::json!({
                            "stream": id,
                            "seq": seq,
                            "flips": flips_json(flips),
                        });
                        if write_line(&pump_writer, &line).is_err() {
                            break;
                        }
                    }
                }));
                write_line(writer, &response)?;
            }
            Err(e) => write_line(writer, &error_json(e))?,
        },
        "frame" | "frames" | "frames_packed" => {
            let id = request
                .get("stream")
                .and_then(Value::as_u64)
                .unwrap_or(u64::MAX);
            let outcome = match senders.get(&id) {
                Some(sender) => submit_line(cmd, request, sender),
                None => Err(format!("unknown stream {id}")),
            };
            // Frames are fire-and-forget, so their errors are emitted as
            // *asynchronous* lines, tagged `"async": true` — clients must
            // not pair them with a pending command response.
            if let Err(e) = outcome {
                let mut response = error_json(e);
                response["async"] = Value::Bool(true);
                response["stream"] = Value::from(id);
                write_line(writer, &response)?;
            }
        }
        "close" => {
            let id = request
                .get("stream")
                .and_then(Value::as_u64)
                .unwrap_or(u64::MAX);
            match senders.get(&id) {
                Some(sender) => {
                    sender.close();
                    write_line(writer, &serde_json::json!({"ok": true}))?;
                }
                None => write_line(writer, &error_json(format!("unknown stream {id}")))?,
            }
        }
        other => write_line(writer, &error_json(format!("unknown command `{other}`")))?,
    }
    Ok(false)
}

/// Submits one `frame` / `frames` / `frames_packed` line as one batch: the
/// whole line parses and validates before anything is enqueued, and the
/// service locks are paid once per line instead of once per frame.
fn submit_line(cmd: &str, request: &Value, sender: &StreamSender) -> Result<(), String> {
    let submitted = if cmd == "frames_packed" {
        let blocks = parse_word_blocks(request.get("blocks"))?;
        let refs: Vec<WordBlock<'_>> = blocks
            .iter()
            .map(|(count, planes)| WordBlock {
                planes,
                count: *count,
            })
            .collect();
        sender.submit_word_batch(&refs)
    } else {
        let frames: Vec<Vec<usize>> = if cmd == "frame" {
            vec![parse_detectors(request.get("detectors"))?]
        } else {
            request
                .get("frames")
                .and_then(Value::as_array)
                .ok_or("`frames` must be an array of frames")?
                .iter()
                .map(|frame| parse_detectors(Some(frame)))
                .collect::<Result<_, _>>()?
        };
        let refs: Vec<&[usize]> = frames.iter().map(Vec::as_slice).collect();
        sender.submit_batch(&refs)
    };
    submitted.map(drop).map_err(|e| e.to_string())
}

/// Parses one frame's detector list strictly: anything other than an array
/// of non-negative integers is an error (a silently-coerced frame would
/// decode wrong syndromes while looking healthy).
fn parse_detectors(value: Option<&Value>) -> Result<Vec<usize>, String> {
    let list = value
        .and_then(Value::as_array)
        .ok_or("frame detectors must be an array")?;
    list.iter()
        .map(|entry| {
            entry
                .as_u64()
                .map(|d| d as usize)
                .ok_or_else(|| "detector indices must be non-negative integers".to_string())
        })
        .collect()
}

/// Parses a `frames_packed` block list strictly: each block is an object
/// with a `count` (shots, 1..=64) and a `planes` array of `u64` words (one
/// per detector, preserved bit-exactly by the vendored JSON layer).
fn parse_word_blocks(value: Option<&Value>) -> Result<Vec<(usize, Vec<u64>)>, String> {
    let list = value
        .and_then(Value::as_array)
        .ok_or("`blocks` must be an array of word blocks")?;
    list.iter()
        .map(|block| {
            let count = block
                .get("count")
                .and_then(Value::as_u64)
                .ok_or("a word block needs a `count` of shots")? as usize;
            let planes = block
                .get("planes")
                .and_then(Value::as_array)
                .ok_or("a word block needs a `planes` array")?
                .iter()
                .map(|word| {
                    word.as_u64()
                        .ok_or_else(|| "plane words must be non-negative integers".to_string())
                })
                .collect::<Result<Vec<u64>, String>>()?;
            Ok((count, planes))
        })
        .collect()
}

/// Largest code distance a peer may `open`: the largest anything in this
/// repository compiles. Guards the connection thread against a request
/// that would compile an unbounded code.
const MAX_OPEN_DISTANCE: usize = 25;

fn open_from_request(
    request: &Value,
    service: &Arc<DecodeService>,
) -> Result<crate::StreamHandle, String> {
    let topology = request
        .get("topology")
        .and_then(Value::as_str)
        .unwrap_or("grid");
    let capacity = request.get("capacity").and_then(Value::as_u64).unwrap_or(2) as usize;
    let wiring = request
        .get("wiring")
        .and_then(Value::as_str)
        .unwrap_or("standard");
    let improvement = request
        .get("gate_improvement")
        .and_then(Value::as_f64)
        .unwrap_or(1.0);
    let distance = request
        .get("distance")
        .and_then(Value::as_u64)
        .ok_or("open needs a `distance`")? as usize;
    if distance < 2 {
        return Err("distance must be at least 2".into());
    }
    if distance > MAX_OPEN_DISTANCE {
        return Err(format!("distance must be at most {MAX_OPEN_DISTANCE}"));
    }
    let decoder = parse_decoder(
        request
            .get("decoder")
            .and_then(Value::as_str)
            .unwrap_or("union_find"),
    )?;
    let arch = parse_arch(topology, capacity, wiring, improvement)?;
    service
        .open_stream(&arch, distance, decoder)
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// A JSON-lines client for [`NetServer`] — the transport of the TCP load
/// generator and the CI smoke test.
///
/// Commands are synchronous (one response per command, in order);
/// corrections arrive asynchronously and are routed into per-stream
/// channels.
pub struct NetClient {
    writer: BufWriter<TcpStream>,
    responses: mpsc::Receiver<Value>,
    corrections: Arc<Mutex<HashMap<u64, mpsc::Sender<Correction>>>>,
    /// Malformed or unroutable lines the reader refused to deliver — a
    /// correction without a valid `stream`/`seq`/`flips` is *dropped*, never
    /// guessed onto stream 0 (see [`NetClient::take_protocol_errors`]).
    protocol_errors: Arc<Mutex<Vec<String>>>,
    reader: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for NetClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetClient").finish()
    }
}

/// A stream opened over a [`NetClient`].
#[derive(Debug)]
pub struct NetStream {
    /// Server-assigned stream id.
    pub id: u64,
    /// Detectors per frame.
    pub num_detectors: usize,
    /// Observables per correction.
    pub num_observables: usize,
    /// Ordered corrections for this stream.
    pub corrections: mpsc::Receiver<Correction>,
}

impl NetClient {
    /// Connects to a running [`NetServer`].
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn connect(addr: &str) -> io::Result<NetClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let (response_tx, responses) = mpsc::channel();
        let corrections: Arc<Mutex<HashMap<u64, mpsc::Sender<Correction>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let protocol_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let reader_corrections = Arc::clone(&corrections);
        let reader_errors = Arc::clone(&protocol_errors);
        let reader_stream = stream.try_clone()?;
        let reader = std::thread::spawn(move || {
            let note_error = |message: String| {
                if let Ok(mut errors) = reader_errors.lock() {
                    errors.push(message);
                }
            };
            let mut reader = BufReader::new(reader_stream);
            let mut buffer = String::new();
            loop {
                buffer.clear();
                let room = MAX_LINE_BYTES as u64 + 1;
                match reader.by_ref().take(room).read_line(&mut buffer) {
                    Ok(0) | Err(_) => break,
                    Ok(_) if buffer.len() > MAX_LINE_BYTES && !buffer.ends_with('\n') => {
                        note_error(format!("server line exceeds {MAX_LINE_BYTES} bytes"));
                        break;
                    }
                    Ok(_) => {}
                }
                let line = buffer.trim();
                if line.is_empty() {
                    continue;
                }
                let Ok(value) = serde_json::from_str(line) else {
                    note_error(format!("unparseable server line: {line}"));
                    continue;
                };
                let value: Value = value;
                // Asynchronous lines (frame errors) must never be paired
                // with a pending command response.
                if value.get("async").is_some() {
                    note_error(format!(
                        "server reported: {}",
                        value.get("error").and_then(Value::as_str).unwrap_or("?")
                    ));
                    continue;
                }
                let is_correction = value.get("seq").is_some() && value.get("ok").is_none();
                if is_correction {
                    // Route strictly: a correction without a well-formed
                    // `stream` or `seq` is dropped and surfaced as a
                    // protocol error — never defaulted onto stream 0,
                    // which would silently corrupt whichever stream
                    // happened to open first.
                    let Some(stream) = value.get("stream").and_then(Value::as_u64) else {
                        note_error(format!("correction without a valid `stream`: {line}"));
                        continue;
                    };
                    let Some(seq) = value.get("seq").and_then(Value::as_u64) else {
                        note_error(format!("correction without a valid `seq`: {line}"));
                        continue;
                    };
                    let Some(flips) = parse_flips(&value) else {
                        note_error(format!("correction without a valid `flips`: {line}"));
                        continue;
                    };
                    let tx = reader_corrections
                        .lock()
                        .expect("correction router lock")
                        .get(&stream)
                        .cloned();
                    match tx {
                        Some(tx) => {
                            let _ = tx.send(Correction { seq, flips });
                        }
                        None => note_error(format!("correction for unknown stream {stream}")),
                    }
                } else {
                    let _ = response_tx.send(value);
                }
            }
        });
        Ok(NetClient {
            writer: BufWriter::new(stream),
            responses,
            corrections,
            protocol_errors,
            reader: Some(reader),
        })
    }

    /// Drains the protocol errors the reader refused to deliver (malformed
    /// correction lines, corrections for unknown streams, async server
    /// errors). An empty result means every server line routed cleanly.
    pub fn take_protocol_errors(&self) -> Vec<String> {
        std::mem::take(&mut *self.protocol_errors.lock().expect("protocol error lock"))
    }

    fn request(&mut self, command: &Value) -> Result<Value, String> {
        self.send(command)?;
        self.responses
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "server closed the connection".to_string())
    }

    fn send(&mut self, command: &Value) -> Result<(), String> {
        let text = serde_json::to_string(command).expect("command serialization cannot fail");
        writeln!(self.writer, "{text}").map_err(|e| e.to_string())?;
        self.writer.flush().map_err(|e| e.to_string())
    }

    /// Round-trips a `ping`.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-ok response.
    pub fn ping(&mut self) -> Result<(), String> {
        let response = self.request(&serde_json::json!({"cmd": "ping"}))?;
        expect_ok(&response)
    }

    /// Opens a stream for `(topology, capacity, wiring, gate_improvement,
    /// distance, decoder)` using the wire vocabulary of [`parse_arch`] /
    /// [`parse_decoder`].
    ///
    /// # Errors
    ///
    /// Transport errors or a server-side open failure.
    #[allow(clippy::too_many_arguments)]
    pub fn open_stream(
        &mut self,
        topology: &str,
        capacity: usize,
        wiring: &str,
        gate_improvement: f64,
        distance: usize,
        decoder: DecoderKind,
    ) -> Result<NetStream, String> {
        let response = self.request(&serde_json::json!({
            "cmd": "open",
            "topology": topology,
            "capacity": capacity as u64,
            "wiring": wiring,
            "gate_improvement": gate_improvement,
            "distance": distance as u64,
            "decoder": decoder_name(decoder),
        }))?;
        expect_ok(&response)?;
        let id = response
            .get("stream")
            .and_then(Value::as_u64)
            .ok_or("open response lacks a stream id")?;
        let (tx, rx) = mpsc::channel();
        self.corrections
            .lock()
            .expect("correction router lock")
            .insert(id, tx);
        Ok(NetStream {
            id,
            num_detectors: response
                .get("detectors")
                .and_then(Value::as_u64)
                .unwrap_or(0) as usize,
            num_observables: response
                .get("observables")
                .and_then(Value::as_u64)
                .unwrap_or(0) as usize,
            corrections: rx,
        })
    }

    /// Submits a batch of frames on a stream (fire-and-forget; corrections
    /// arrive on the stream's channel).
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn submit_frames(&mut self, stream: u64, frames: &[Vec<usize>]) -> Result<(), String> {
        let frames_json: Vec<Value> = frames
            .iter()
            .map(|fired| Value::Array(fired.iter().map(|&d| Value::from(d as u64)).collect()))
            .collect();
        self.send(&serde_json::json!({
            "cmd": "frames",
            "stream": stream,
            "frames": Value::Array(frames_json),
        }))
    }

    /// Submits shot-major 64-shot word blocks on a stream (fire-and-forget;
    /// corrections arrive on the stream's channel). Each block is
    /// `(planes, count)`: one `u64` plane per detector, bit `s` of plane
    /// `d` set iff shot `s` fired detector `d`, with `count` shots in
    /// `1..=64`. This is the `frames_packed` wire command — the server
    /// folds the planes straight into the batcher word, skipping the
    /// per-frame transpose.
    ///
    /// # Errors
    ///
    /// Transport errors.
    pub fn submit_packed_words(
        &mut self,
        stream: u64,
        blocks: &[(Vec<u64>, usize)],
    ) -> Result<(), String> {
        let blocks_json: Vec<Value> = blocks
            .iter()
            .map(|(planes, count)| {
                serde_json::json!({
                    "count": *count as u64,
                    "planes": Value::Array(planes.iter().map(|&w| Value::from(w)).collect()),
                })
            })
            .collect();
        self.send(&serde_json::json!({
            "cmd": "frames_packed",
            "stream": stream,
            "blocks": Value::Array(blocks_json),
        }))
    }

    /// Closes a stream (already-submitted frames still decode).
    ///
    /// # Errors
    ///
    /// Transport errors or a non-ok response.
    pub fn close_stream(&mut self, stream: u64) -> Result<(), String> {
        let response = self.request(&serde_json::json!({"cmd": "close", "stream": stream}))?;
        expect_ok(&response)
    }

    /// Fetches the server's live metrics object.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-ok response.
    pub fn metrics(&mut self) -> Result<Value, String> {
        let response = self.request(&serde_json::json!({"cmd": "metrics"}))?;
        expect_ok(&response)?;
        Ok(response.get("metrics").cloned().unwrap_or(Value::Null))
    }

    /// Fetches the full `metrics` response — the
    /// [`ServiceMetrics`](crate::ServiceMetrics) object under `"metrics"`
    /// plus the telemetry registry snapshot under `"telemetry"`.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-ok response.
    pub fn metrics_full(&mut self) -> Result<Value, String> {
        let response = self.request(&serde_json::json!({"cmd": "metrics"}))?;
        expect_ok(&response)?;
        Ok(response)
    }

    /// Fetches the server's metrics as Prometheus-style exposition text.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-ok response.
    pub fn metrics_text(&mut self) -> Result<String, String> {
        let response = self.request(&serde_json::json!({"cmd": "metrics", "format": "text"}))?;
        expect_ok(&response)?;
        response
            .get("text")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| "metrics response lacks a `text` field".to_string())
    }

    /// Asks the server to shut down after this connection.
    ///
    /// # Errors
    ///
    /// Transport errors or a non-ok response.
    pub fn shutdown_server(&mut self) -> Result<(), String> {
        let response = self.request(&serde_json::json!({"cmd": "shutdown"}))?;
        expect_ok(&response)
    }
}

impl Drop for NetClient {
    fn drop(&mut self) {
        // Closing the write half ends the server's read loop; the reader
        // thread ends when the server closes its side.
        let _ = self.writer.flush();
        if let Some(reader) = self.reader.take() {
            drop(self.writer.get_ref().shutdown(std::net::Shutdown::Both));
            let _ = reader.join();
        }
    }
}

fn expect_ok(response: &Value) -> Result<(), String> {
    if response.get("ok").and_then(Value::as_bool) == Some(true) {
        Ok(())
    } else {
        Err(response
            .get("error")
            .and_then(Value::as_str)
            .unwrap_or("request failed")
            .to_string())
    }
}
