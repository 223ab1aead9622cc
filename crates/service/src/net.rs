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
//! answered *asynchronously*, in per-stream submission order and
//! interleaved with command responses, by **run lines** — one per run of
//! consecutive corrections the service decoded together:
//!
//! ```text
//! {"stream":S,"seq":Q,"count":N,"planes":[5,0,1,0]}
//! ```
//!
//! A run line answers shots `Q..Q+N` of stream `S` (`N ≥ 1`). `planes` is
//! observable-major, the mirror of `frames_packed`: ⌈N/64⌉ `u64` words per
//! observable (the observable count is the `open` response's
//! `"observables"`), and bit `j` of word `w` of observable `o` set means
//! shot `Q+64w+j` flipped observable `o`; bits past shot `N` are clear.
//! The server writes every run that is ready under one writer lock and one
//! flush. An invalid frame batch produces an
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
//! The server counts what it sends in the service's registry
//! ([`DecodeService::telemetry`]): `service.net.correction_lines` run lines
//! carrying `service.net.corrections_sent` corrections, so their ratio is
//! the mean run length on the wire.
//!
//! A line may not exceed [`MAX_LINE_BYTES`]: the server answers a longer one
//! with `{"ok":false,"error":"line exceeds … bytes"}` and closes that
//! connection; the client records a protocol error and stops reading.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use qccd_core::ArchitectureConfig;
use qccd_decoder::DecoderKind;
use qccd_telemetry::Counter;
use serde_json::Value;

use crate::service::{
    CorrectionReceiver, CorrectionRun, DecodeService, ServiceConfig, StreamReceiver, StreamSender,
    WordBlock,
};

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

/// Writes `text` (whole lines) under one writer lock and one flush.
fn write_text(writer: &SharedWriter, text: &str) -> io::Result<()> {
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
    writer.write_all(text.as_bytes())?;
    writer.flush()
}

fn write_line(writer: &SharedWriter, value: &Value) -> io::Result<()> {
    let mut text = serde_json::to_string(value).expect("response serialization cannot fail");
    text.push('\n');
    write_text(writer, &text)
}

/// Appends the run line of `run` on `stream` to `out` (see the module doc):
/// each observable's bit of every shot, packed 64 shots to a word.
fn push_run_line(out: &mut String, stream: u64, num_observables: usize, run: &CorrectionRun) {
    let _ = write!(
        out,
        r#"{{"stream":{stream},"seq":{},"count":{},"planes":["#,
        run.first_seq,
        run.flips.len()
    );
    let mut separator = "";
    for observable in 0..num_observables {
        for shots in run.flips.chunks(64) {
            let word = shots.iter().enumerate().fold(0u64, |word, (j, &flips)| {
                word | ((flips >> observable) & 1) << j
            });
            let _ = write!(out, "{separator}{word}");
            separator = ",";
        }
    }
    out.push_str("]}\n");
}

/// Forwards a stream's corrections to the connection until the stream
/// ends: every run ready at a wake-up becomes one run line, and the lines
/// go out under one writer lock and one flush.
fn pump_corrections(
    stream: u64,
    num_observables: usize,
    receiver: StreamReceiver,
    writer: SharedWriter,
    lines: Counter,
    sent: Counter,
) {
    let mut text = String::new();
    while let Some(first) = receiver.recv_run() {
        text.clear();
        let (mut runs, mut shots) = (0, 0);
        for run in std::iter::once(first).chain(std::iter::from_fn(|| receiver.try_recv_run())) {
            push_run_line(&mut text, stream, num_observables, &run);
            runs += 1;
            shots += run.len();
        }
        if write_text(&writer, &text).is_err() {
            break;
        }
        lines.add(runs);
        sent.add(shots);
    }
}

/// One client-side route: the stream's channel and its observable count
/// (from the `open` response), which a run line's `planes` must match.
struct Route {
    tx: mpsc::Sender<CorrectionRun>,
    num_observables: usize,
}

/// Reads a run line (see the module doc) back into a [`CorrectionRun`].
/// The whole line is refused — nothing of it delivered — unless `count`
/// is in `1..=MAX_LINE_BYTES`, `seq + count` fits a `u64`, `planes` holds
/// exactly `num_observables × ⌈count/64⌉` integer words and no bit names a
/// shot past `count`. The cap bounds what one line can make the reader
/// allocate (64 MiB of flip masks, even for a stream without observables,
/// whose `planes` is empty at any count); a run is one decode job's shots
/// of one stream, far below it.
fn parse_run(value: &Value, num_observables: usize) -> Result<CorrectionRun, &'static str> {
    let seq = value
        .get("seq")
        .and_then(Value::as_u64)
        .ok_or("no valid `seq`")?;
    let count = value
        .get("count")
        .and_then(Value::as_u64)
        .filter(|count| (1..=MAX_LINE_BYTES as u64).contains(count))
        .ok_or("`count` must be an integer in 1..=MAX_LINE_BYTES")?;
    if seq.checked_add(count).is_none() {
        return Err("`seq + count` overflows");
    }
    let count = count as usize;
    let words = count.div_ceil(64);
    let planes = value
        .get("planes")
        .and_then(Value::as_array)
        .filter(|planes| planes.len() == words * num_observables)
        .ok_or("`planes` must hold ⌈count/64⌉ words per observable")?;
    let mut flips = vec![0u64; count];
    for (index, word) in planes.iter().enumerate() {
        let (observable, first_shot) = (index / words, 64 * (index % words));
        let mut bits = word.as_u64().ok_or("plane words must be u64 integers")?;
        while bits != 0 {
            let shot = first_shot + bits.trailing_zeros() as usize;
            bits &= bits - 1;
            let mask = flips
                .get_mut(shot)
                .ok_or("a plane sets a bit past `count`")?;
            *mask |= 1 << observable;
        }
    }
    Ok(CorrectionRun {
        first_seq: seq,
        flips,
    })
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
                let (sender, receiver) = handle.split();
                let id = sender.id();
                let observables = sender.num_observables();
                let response = serde_json::json!({
                    "ok": true,
                    "stream": id,
                    "detectors": sender.num_detectors() as u64,
                    "observables": observables as u64,
                });
                senders.insert(id, sender);
                let pump_writer = Arc::clone(writer);
                let registry = service.telemetry();
                let lines = registry.counter("service.net.correction_lines");
                let sent = registry.counter("service.net.corrections_sent");
                pumps.push(std::thread::spawn(move || {
                    pump_corrections(id, observables, receiver, pump_writer, lines, sent);
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

/// Reads an optional `open` field: an absent field takes `default`, and a
/// present one of the wrong type is an error, as in [`parse_detectors`] (a
/// coerced field would open a stream on another program than the peer
/// asked for).
fn optional_field<'a, T>(
    request: &'a Value,
    key: &str,
    read: fn(&'a Value) -> Option<T>,
    default: T,
) -> Result<T, String> {
    request.get(key).map_or(Ok(default), |value| {
        read(value).ok_or_else(|| format!("`{key}` has the wrong type"))
    })
}

fn open_from_request(
    request: &Value,
    service: &Arc<DecodeService>,
) -> Result<crate::StreamHandle, String> {
    let topology = optional_field(request, "topology", Value::as_str, "grid")?;
    let capacity = optional_field(request, "capacity", Value::as_u64, 2)? as usize;
    let wiring = optional_field(request, "wiring", Value::as_str, "standard")?;
    let improvement = optional_field(request, "gate_improvement", Value::as_f64, 1.0)?;
    let decoder = optional_field(request, "decoder", Value::as_str, "union_find")?;
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
    let decoder = parse_decoder(decoder)?;
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
/// corrections arrive asynchronously as run lines, each routed whole into
/// its stream's channel.
pub struct NetClient {
    writer: BufWriter<TcpStream>,
    responses: mpsc::Receiver<Value>,
    routes: Arc<Mutex<HashMap<u64, Route>>>,
    /// Malformed or unroutable lines the reader refused to deliver — a run
    /// line that fails [`parse_run`] or names an unknown stream is
    /// *dropped* whole, never guessed onto another stream (see
    /// [`NetClient::take_protocol_errors`]).
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
    /// Ordered corrections for this stream, flattened from its run lines.
    pub corrections: CorrectionReceiver,
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
        let routes: Arc<Mutex<HashMap<u64, Route>>> = Arc::new(Mutex::new(HashMap::new()));
        let protocol_errors: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let reader_routes = Arc::clone(&routes);
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
                    // Route strictly: a run line without a well-formed
                    // `stream` is dropped and surfaced as a protocol error
                    // — never defaulted onto stream 0, which would
                    // silently corrupt whichever stream happened to open
                    // first.
                    let Some(stream) = value.get("stream").and_then(Value::as_u64) else {
                        note_error(format!("run line without a valid `stream`: {line}"));
                        continue;
                    };
                    let routes = reader_routes.lock().expect("correction router lock");
                    let Some(route) = routes.get(&stream) else {
                        note_error(format!("correction for unknown stream {stream}"));
                        continue;
                    };
                    match parse_run(&value, route.num_observables) {
                        Ok(run) => {
                            let _ = route.tx.send(run);
                        }
                        Err(why) => note_error(format!("malformed run line ({why}): {line}")),
                    }
                } else {
                    let _ = response_tx.send(value);
                }
            }
        });
        Ok(NetClient {
            writer: BufWriter::new(stream),
            responses,
            routes,
            protocol_errors,
            reader: Some(reader),
        })
    }

    /// Drains the protocol errors the reader refused to deliver (malformed
    /// run lines, runs for unknown streams, async server errors). An empty
    /// result means every server line routed cleanly.
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
        // A correction is a `u64` flip mask: one bit per observable.
        let num_observables = response
            .get("observables")
            .and_then(Value::as_u64)
            .filter(|&observables| observables <= 64)
            .ok_or("open response lacks an observable count of at most 64")?
            as usize;
        let num_detectors = response
            .get("detectors")
            .and_then(Value::as_u64)
            .and_then(|detectors| usize::try_from(detectors).ok())
            .ok_or("open response lacks a detector count")?;
        let (tx, rx) = mpsc::channel();
        self.routes.lock().expect("correction router lock").insert(
            id,
            Route {
                tx,
                num_observables,
            },
        );
        Ok(NetStream {
            id,
            num_detectors,
            num_observables,
            corrections: CorrectionReceiver::new(rx),
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
        self.send(&object([
            ("cmd", Value::from("frames")),
            ("stream", Value::from(stream)),
            ("frames", Value::Array(frames_json)),
        ]))
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
                object([
                    ("count", Value::from(*count)),
                    (
                        "planes",
                        Value::Array(planes.iter().map(|&w| Value::from(w)).collect()),
                    ),
                ])
            })
            .collect();
        self.send(&object([
            ("cmd", Value::from("frames_packed")),
            ("stream", Value::from(stream)),
            ("blocks", Value::Array(blocks_json)),
        ]))
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

/// A JSON object that takes ownership of its fields — unlike `json!`,
/// which deep-clones every `Value` argument — for the per-burst requests.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
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
