//! `std::net` TCP front-end over the decode service — JSON command lines
//! and binary hot frames — plus the matching client used by the load
//! generator and the CI smoke test.
//!
//! # Protocol
//!
//! Commands are one JSON object per line in each direction, so `nc` can
//! drive every one of them:
//!
//! ```text
//! {"cmd":"open","topology":"grid","capacity":2,"wiring":"standard",
//!  "gate_improvement":5.0,"distance":3,"decoder":"union_find"}
//! {"cmd":"close","stream":0}
//! {"cmd":"metrics"}
//! {"cmd":"metrics","format":"text"}
//! {"cmd":"ping"}
//! {"cmd":"shutdown"}
//! ```
//!
//! Both ends read a line with `serde_json::from_str`: keys may come in any
//! order, a repeated key counts with its last value, unknown keys are
//! ignored, and nesting past 128 levels is invalid JSON. Each command is
//! answered synchronously with an `{"ok":...}` line, in request order.
//!
//! `metrics` answers with the [`ServiceMetrics`](crate::ServiceMetrics)
//! object under `"metrics"` **and** the telemetry registry snapshot (the
//! same cells by name, plus stage spans and histograms) under
//! `"telemetry"`; with `"format":"text"` it instead answers
//! `{"ok":true,"text":...}` carrying a Prometheus-style exposition of the
//! same snapshot.
//!
//! Shots and corrections travel as **binary frames**. A frame is a 13-byte
//! header — a kind byte, the stream id as a little-endian `u64` and the
//! payload's word count as a little-endian `u32` — followed by that many
//! little-endian `u64` words:
//!
//! | kind | sent by | payload |
//! |---|---|---|
//! | `0x01` word blocks | client | per block: its shot count, then one plane word per detector of the stream |
//! | `0x02` index frames | client | per shot: its fired-detector count, then those detector indices |
//! | `0x03` run | server | `seq`, `count`, then the observable-major planes |
//!
//! No kind byte is JSON whitespace or printable ASCII, so the first byte
//! of a message tells a frame from a command line.
//!
//! Word blocks are the **shot-major** mode: each block carries up to 64
//! shots pre-transposed into one plane word per detector (bit `s` of word
//! `d` = shot `s` fired detector `d` — the [`WordBlock`] layout), so the
//! per-frame transpose disappears from the service hot path. A block's
//! plane count is its stream's detector count, which the frame does not
//! carry: the client refuses a block of another width, and the server a
//! payload that does not split into whole blocks. A request frame is
//! submitted as one batch, and nothing of it is enqueued unless all of it
//! is valid.
//!
//! Request frames are answered *asynchronously*, in per-stream submission
//! order and interleaved with command responses, by **run frames** — one
//! per run of consecutive corrections the service decoded together. A run
//! answers shots `seq..seq+count` of its stream (`count ≥ 1`). Its planes
//! hold ⌈count/64⌉ words per observable (the observable count is the
//! `open` response's `"observables"`), and bit `j` of word `w` of
//! observable `o` set means shot `seq+64w+j` flipped observable `o`; bits
//! past shot `count` are clear. The server writes every run that is ready
//! under one writer lock and one flush. An invalid request frame produces
//! an `{"ok":false,"async":true,"stream":S,"error":...}` line instead —
//! the `"async"` tag tells clients not to pair it with a pending command
//! response.
//!
//! The server counts what it sends in the service's registry
//! ([`DecodeService::telemetry`]): `service.net.correction_lines` run
//! frames carrying `service.net.corrections_sent` corrections, so their
//! ratio is the mean run length on the wire.
//!
//! A command line or a frame may not exceed [`MAX_LINE_BYTES`]: the server
//! answers a longer one with `{"ok":false,"error":"line exceeds … bytes"}`
//! and closes that connection — a frame as soon as its header claims more.
//! The client refuses to send a longer request, and on receiving a longer
//! server message records a protocol error and stops reading.

use std::collections::HashMap;
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
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

/// Longest command line or frame either side buffers, in bytes — more
/// than 150× the largest legitimate one (a 16-block word burst at d = 9,
/// about 51 KB). A peer that never sends a newline, or whose frame header
/// claims more, is cut off here instead of growing the process.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Parses the wire name of a decoder kind (the second column of
/// [`DecoderKind::NAMES`]).
pub fn parse_decoder(name: &str) -> Result<DecoderKind, String> {
    DecoderKind::NAMES
        .iter()
        .find(|(_, wire, ..)| *wire == name)
        .map(|&(kind, ..)| kind)
        .ok_or_else(|| {
            let names: Vec<&str> = DecoderKind::NAMES
                .iter()
                .map(|(_, wire, ..)| *wire)
                .collect();
            format!("unknown decoder `{name}` ({})", names.join("|"))
        })
}

/// The wire name of a decoder kind (inverse of [`parse_decoder`]).
pub fn decoder_name(kind: DecoderKind) -> &'static str {
    DecoderKind::NAMES
        .iter()
        .find(|(named, ..)| *named == kind)
        .map(|(_, wire, ..)| *wire)
        .expect("every decoder kind has a wire name")
}

/// Builds an [`ArchitectureConfig`] from wire parameters, refusing a zero
/// capacity and a gate improvement that is not positive and finite.
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
    if !(gate_improvement.is_finite() && gate_improvement > 0.0) {
        return Err("gate_improvement must be a positive finite number".into());
    }
    Ok(ArchitectureConfig::new(
        topology,
        capacity,
        wiring,
        gate_improvement,
    ))
}

// ---------------------------------------------------------------------------
// Wire: binary frames, and the receive buffer both ends read messages from
// ---------------------------------------------------------------------------

/// Kind byte of a request frame of word blocks.
const WORD_BLOCKS: u8 = 0x01;
/// Kind byte of a request frame of index frames.
const INDEX_FRAMES: u8 = 0x02;
/// Kind byte of a run frame (a reply).
const RUN: u8 = 0x03;

/// Bytes of a frame header: the kind byte, the stream (`u64`) and the
/// payload's word count (`u32`).
const HEADER_BYTES: usize = 13;

/// Appends one frame of `kind` on `stream` whose payload `payload` appends
/// with [`push_word`]; the header's word count is filled in afterwards.
fn push_frame(out: &mut Vec<u8>, kind: u8, stream: u64, payload: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.push(kind);
    out.extend_from_slice(&stream.to_le_bytes());
    out.extend_from_slice(&[0; 4]);
    payload(out);
    // A frame too long for a `u32` count is far past the cap and never
    // sent, so the count may saturate.
    let words = u32::try_from((out.len() - header - HEADER_BYTES) / 8).unwrap_or(u32::MAX);
    out[header + 9..header + HEADER_BYTES].copy_from_slice(&words.to_le_bytes());
}

fn push_word(out: &mut Vec<u8>, word: u64) {
    out.extend_from_slice(&word.to_le_bytes());
}

/// Appends a word-block request frame: per block, its shot count, then
/// its planes.
fn push_blocks_frame(out: &mut Vec<u8>, stream: u64, blocks: &[(Vec<u64>, usize)]) {
    push_frame(out, WORD_BLOCKS, stream, |out| {
        for (planes, count) in blocks {
            push_word(out, *count as u64);
            planes.iter().for_each(|&word| push_word(out, word));
        }
    });
}

/// Appends an index-frame request frame: per shot, its fired-detector
/// count, then those detectors.
fn push_index_frame(out: &mut Vec<u8>, stream: u64, frames: &[Vec<usize>]) {
    push_frame(out, INDEX_FRAMES, stream, |out| {
        for fired in frames {
            push_word(out, fired.len() as u64);
            fired
                .iter()
                .for_each(|&detector| push_word(out, detector as u64));
        }
    });
}

/// Appends the run frame of `run` on `stream` (see the module doc): each
/// observable's bit of every shot, packed 64 shots to a word.
fn push_run_frame(out: &mut Vec<u8>, stream: u64, num_observables: usize, run: &CorrectionRun) {
    push_frame(out, RUN, stream, |out| {
        push_word(out, run.first_seq);
        push_word(out, run.len());
        for observable in 0..num_observables {
            for shots in run.flips.chunks(64) {
                let word = shots.iter().enumerate().fold(0u64, |word, (j, &flips)| {
                    word | ((flips >> observable) & 1) << j
                });
                push_word(out, word);
            }
        }
    });
}

/// The words of a frame payload.
fn words(payload: &[u8]) -> impl ExactSizeIterator<Item = u64> + '_ {
    payload
        .chunks_exact(8)
        .map(|word| u64::from_le_bytes(word.try_into().expect("eight bytes")))
}

/// A word as a `usize` (saturating, so a huge count or index stays out of
/// range instead of wrapping into it).
fn index(word: u64) -> usize {
    usize::try_from(word).unwrap_or(usize::MAX)
}

/// One whole message taken from an [`Inbox`].
#[derive(Debug)]
enum Message<'a> {
    /// A command line, without its newline.
    Line(&'a [u8]),
    /// A binary frame.
    Frame(Frame<'a>),
}

/// A binary frame: its kind byte, its stream and its payload of whole
/// words.
#[derive(Debug, Clone, Copy)]
struct Frame<'a> {
    kind: u8,
    stream: u64,
    payload: &'a [u8],
}

/// The message at the front of an [`Inbox`] exceeds [`MAX_LINE_BYTES`].
#[derive(Debug, PartialEq, Eq)]
struct TooLong;

/// Bytes asked of the socket per read.
const READ_BYTES: usize = 64 << 10;

/// One connection's receive buffer: bytes are appended as they arrive and
/// whole messages are taken from the front. A message split across reads,
/// or across a read timeout, stays buffered until its last byte arrives.
/// The buffer grows one read's room at a time as bytes arrive, never by
/// what a header claims.
#[derive(Debug, Default)]
struct Inbox {
    bytes: Vec<u8>,
    /// The received, untaken bytes are `bytes[start..end]`.
    start: usize,
    end: usize,
    /// How many of them are known to hold no newline.
    searched: usize,
}

impl Inbox {
    /// Takes the next whole message, or `Ok(None)` while it has not all
    /// arrived.
    ///
    /// # Errors
    ///
    /// [`TooLong`] once the message at the front is known to exceed
    /// [`MAX_LINE_BYTES`]: a frame by its header's word count, a line by
    /// `MAX_LINE_BYTES + 1` bytes without a newline.
    fn next(&mut self) -> Result<Option<Message<'_>>, TooLong> {
        let received = &self.bytes[self.start..self.end];
        let Some(&kind) = received.first() else {
            return Ok(None);
        };
        let is_frame = matches!(kind, WORD_BLOCKS | INDEX_FRAMES | RUN);
        let len = if is_frame {
            let Some(header) = received.get(..HEADER_BYTES) else {
                return Ok(None);
            };
            let words = u32::from_le_bytes(header[9..].try_into().expect("four bytes"));
            let len = HEADER_BYTES as u64 + 8 * u64::from(words);
            if len > MAX_LINE_BYTES as u64 {
                return Err(TooLong);
            }
            let len = len as usize;
            if received.len() < len {
                return Ok(None);
            }
            len
        } else {
            let newline = received[self.searched..].iter().position(|&b| b == b'\n');
            match newline.map(|at| self.searched + at) {
                Some(at) if at <= MAX_LINE_BYTES => at + 1,
                None if received.len() <= MAX_LINE_BYTES => {
                    self.searched = received.len();
                    return Ok(None);
                }
                _ => return Err(TooLong),
            }
        };
        let message = &self.bytes[self.start..self.start + len];
        self.start += len;
        self.searched = 0;
        Ok(Some(if is_frame {
            Message::Frame(Frame {
                kind,
                stream: u64::from_le_bytes(message[1..9].try_into().expect("eight bytes")),
                payload: &message[HEADER_BYTES..],
            })
        } else {
            Message::Line(&message[..len - 1])
        }))
    }

    /// Appends what `socket` has ready (at most [`READ_BYTES`]); `Ok(0)` at
    /// the end of the stream.
    fn fill(&mut self, socket: &mut impl Read) -> io::Result<usize> {
        if self.start > 0 {
            self.bytes.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.bytes.len() < self.end + READ_BYTES {
            self.bytes.resize(self.end + READ_BYTES, 0);
        }
        let read = socket.read(&mut self.bytes[self.end..])?;
        self.end += read;
        Ok(read)
    }
}

/// A command line as JSON; `None` when it is not JSON.
fn parse_line(line: &[u8]) -> Option<Value> {
    serde_json::from_str(std::str::from_utf8(line).ok()?).ok()
}

/// The shots of one request frame, read into buffers a connection reuses
/// frame after frame.
#[derive(Debug, Default)]
struct FrameBuffers {
    /// The payload's words.
    words: Vec<u64>,
    /// Words per block of the last word-block frame: its count and one
    /// plane per detector.
    block_words: usize,
    /// Every index frame's detectors, end to end.
    detectors: Vec<usize>,
    /// Each index frame's range in `detectors`.
    spans: Vec<Range<usize>>,
}

impl FrameBuffers {
    /// Reads the shots of a request frame for a stream of `num_detectors`
    /// detectors. A payload that does not split into whole blocks or
    /// frames is refused; whether the shots are valid is the service's to
    /// decide.
    fn read(&mut self, frame: &Frame<'_>, num_detectors: usize) -> Result<(), &'static str> {
        self.words.clear();
        self.words.extend(words(frame.payload));
        match frame.kind {
            WORD_BLOCKS => {
                self.block_words = 1 + num_detectors;
                if !self.words.len().is_multiple_of(self.block_words) {
                    return Err(
                        "a word block must carry a shot count and one plane word per detector",
                    );
                }
            }
            INDEX_FRAMES => {
                self.detectors.clear();
                self.spans.clear();
                let mut rest = &self.words[..];
                while let [count, tail @ ..] = rest {
                    let count = Some(index(*count))
                        .filter(|&count| count <= tail.len())
                        .ok_or("an index frame's detector count runs past the payload")?;
                    let start = self.detectors.len();
                    self.detectors
                        .extend(tail[..count].iter().map(|&detector| index(detector)));
                    self.spans.push(start..self.detectors.len());
                    rest = &tail[count..];
                }
            }
            _ => return Err("a run frame is a reply, not a request"),
        }
        Ok(())
    }

    /// The blocks of the last word-block frame read.
    fn blocks(&self) -> impl Iterator<Item = WordBlock<'_>> {
        self.words
            .chunks_exact(self.block_words)
            .map(|block| WordBlock {
                planes: &block[1..],
                count: index(block[0]),
            })
    }

    /// The shots of the last index-frame request read.
    fn frames(&self) -> impl Iterator<Item = &[usize]> {
        self.spans.iter().map(|span| &self.detectors[span.clone()])
    }
}

/// Reads a run frame's payload (see the module doc) back into a
/// [`CorrectionRun`]. The whole run is refused — nothing of it delivered —
/// unless `count` is in `1..=MAX_LINE_BYTES`, `seq + count` fits a `u64`,
/// the planes are exactly `num_observables × ⌈count/64⌉` words and no bit
/// names a shot past `count`. The cap bounds what one frame can make the
/// reader allocate (64 MiB of flip masks, even for a stream without
/// observables, whose planes are empty at any count); a run is one decode
/// job's shots of one stream, far below it.
fn read_run(payload: &[u8], num_observables: usize) -> Result<CorrectionRun, &'static str> {
    let mut words = words(payload);
    let (Some(seq), Some(count)) = (words.next(), words.next()) else {
        return Err("a run needs a `seq` and a `count`");
    };
    if !(1..=MAX_LINE_BYTES as u64).contains(&count) {
        return Err("`count` must be in 1..=MAX_LINE_BYTES");
    }
    if seq.checked_add(count).is_none() {
        return Err("`seq + count` overflows");
    }
    let count = count as usize;
    let per_observable = count.div_ceil(64);
    if words.len() != per_observable * num_observables {
        return Err("the planes must hold ⌈count/64⌉ words per observable");
    }
    let mut flips = vec![0u64; count];
    for (at, mut bits) in words.enumerate() {
        let (observable, first_shot) = (at / per_observable, 64 * (at % per_observable));
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

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// A bound decode server.
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
        // The poll starts brisk and backs off to every 2 ms: a client that
        // connects right after the server starts, or right after another
        // client, does not wait out a whole idle-length sleep.
        let brisk = Duration::from_micros(100);
        let mut idle = brisk;
        while !self.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    idle = brisk;
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
                    std::thread::sleep(idle);
                    idle = (idle * 2).min(Duration::from_millis(2));
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

/// Writes `bytes` (whole messages) under one writer lock and one flush.
fn write_bytes(writer: &SharedWriter, bytes: &[u8]) -> io::Result<()> {
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
    writer.write_all(bytes)?;
    writer.flush()
}

fn write_line(writer: &SharedWriter, value: &Value) -> io::Result<()> {
    let mut text = serde_json::to_string(value).expect("response serialization cannot fail");
    text.push('\n');
    write_bytes(writer, text.as_bytes())
}

/// Forwards a stream's corrections to the connection until the stream
/// ends: every run ready at a wake-up becomes one run frame, and the
/// frames go out under one writer lock and one flush.
fn pump_corrections(
    stream: u64,
    num_observables: usize,
    receiver: StreamReceiver,
    writer: SharedWriter,
    frames: Counter,
    sent: Counter,
) {
    let mut out = Vec::new();
    while let Some(first) = receiver.recv_run() {
        out.clear();
        let (mut runs, mut shots) = (0, 0);
        for run in std::iter::once(first).chain(std::iter::from_fn(|| receiver.try_recv_run())) {
            push_run_frame(&mut out, stream, num_observables, &run);
            runs += 1;
            shots += run.len();
        }
        if write_bytes(&writer, &out).is_err() {
            break;
        }
        frames.add(runs);
        sent.add(shots);
    }
}

fn error_json(message: impl std::fmt::Display) -> Value {
    serde_json::json!({"ok": false, "error": format!("{message}")})
}

/// The answer to a `close` without a usable stream id.
const BAD_STREAM: &str = "`stream` must be a non-negative integer";

fn handle_connection(
    mut stream: TcpStream,
    service: Arc<DecodeService>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    // A read timeout keeps this handler responsive to a server shutdown
    // triggered on *another* connection: the read loop polls the flag on
    // every timeout instead of parking in `read` forever.
    stream.set_read_timeout(Some(Duration::from_millis(200)))?;
    let mut connection = Connection {
        writer: Arc::new(Mutex::new(BufWriter::new(stream.try_clone()?))),
        service,
        shutdown,
        senders: HashMap::new(),
        pumps: Vec::new(),
        frames: FrameBuffers::default(),
    };
    // The serve loop's result is captured — not propagated with `?` — so
    // this connection's streams are closed and its pumps joined on *every*
    // exit path, error teardowns included.
    let result = connection.serve(&mut stream);
    for sender in connection.senders.values() {
        sender.close();
    }
    drop(connection.senders);
    for pump in connection.pumps {
        let _ = pump.join();
    }
    result
}

/// One connection's state: its writer, its streams' senders and correction
/// pumps, and the buffers its request frames are read into.
struct Connection {
    service: Arc<DecodeService>,
    shutdown: Arc<AtomicBool>,
    writer: SharedWriter,
    senders: HashMap<u64, StreamSender>,
    pumps: Vec<JoinHandle<()>>,
    frames: FrameBuffers,
}

impl Connection {
    fn serve(&mut self, socket: &mut TcpStream) -> io::Result<()> {
        let mut inbox = Inbox::default();
        loop {
            // Poll the flag between messages too: a continuously-sending
            // client never hits the read timeout, and must not pin the
            // server past a shutdown issued on another connection.
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match inbox.next() {
                Ok(Some(Message::Line(line))) => {
                    if self.handle_line(line)? {
                        break;
                    }
                }
                Ok(Some(Message::Frame(frame))) => self.handle_frame(&frame)?,
                Ok(None) => match inbox.fill(socket) {
                    Ok(0) => break,
                    Ok(_) => {}
                    // A timeout leaves what arrived before it buffered.
                    Err(e)
                        if matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => return Err(e),
                },
                Err(TooLong) => {
                    let message = format!("line exceeds {MAX_LINE_BYTES} bytes");
                    write_line(&self.writer, &error_json(message))?;
                    break;
                }
            }
        }
        Ok(())
    }

    /// Reads and dispatches one command line; returns `true` when the
    /// connection should end (shutdown).
    fn handle_line(&mut self, line: &[u8]) -> io::Result<bool> {
        if line.trim_ascii().is_empty() {
            return Ok(false);
        }
        let Some(request) = parse_line(line) else {
            write_line(&self.writer, &error_json("invalid JSON"))?;
            return Ok(false);
        };
        let writer = &self.writer;
        match request
            .get("cmd")
            .and_then(Value::as_str)
            .unwrap_or_default()
        {
            "ping" => write_line(writer, &serde_json::json!({"ok": true}))?,
            "metrics" => {
                let snapshot = self.service.telemetry_snapshot();
                if request.get("format").and_then(Value::as_str) == Some("text") {
                    let text = qccd_telemetry::snapshot_to_text(&snapshot, "qccd");
                    write_line(writer, &serde_json::json!({"ok": true, "text": text}))?;
                } else {
                    let metrics = self.service.metrics().to_json();
                    let telemetry = qccd_telemetry::snapshot_to_json(&snapshot);
                    write_line(
                        writer,
                        &serde_json::json!({"ok": true, "metrics": metrics, "telemetry": telemetry}),
                    )?;
                }
            }
            "shutdown" => {
                self.shutdown.store(true, Ordering::SeqCst);
                write_line(writer, &serde_json::json!({"ok": true}))?;
                return Ok(true);
            }
            "open" => match open_from_request(&request, &self.service) {
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
                    self.senders.insert(id, sender);
                    let pump_writer = Arc::clone(writer);
                    let registry = self.service.telemetry();
                    let frames = registry.counter("service.net.correction_lines");
                    let sent = registry.counter("service.net.corrections_sent");
                    self.pumps.push(std::thread::spawn(move || {
                        pump_corrections(id, observables, receiver, pump_writer, frames, sent);
                    }));
                    write_line(writer, &response)?;
                }
                Err(e) => write_line(writer, &error_json(e))?,
            },
            "close" => match request
                .get("stream")
                .and_then(Value::as_u64)
                .map(|id| (id, self.senders.get(&id)))
            {
                Some((_, Some(sender))) => {
                    sender.close();
                    write_line(writer, &serde_json::json!({"ok": true}))?;
                }
                Some((id, None)) => {
                    write_line(writer, &error_json(format!("unknown stream {id}")))?;
                }
                None => write_line(writer, &error_json(BAD_STREAM))?,
            },
            other => write_line(writer, &error_json(format!("unknown command `{other}`")))?,
        }
        Ok(false)
    }

    /// Submits one request frame as one batch: the whole frame is read and
    /// validated before anything is enqueued, and the service locks are
    /// paid once per frame instead of once per shot.
    fn handle_frame(&mut self, frame: &Frame<'_>) -> io::Result<()> {
        let outcome = match self.senders.get(&frame.stream) {
            None => Err(format!("unknown stream {}", frame.stream)),
            Some(sender) => submit_frame(frame, sender, &mut self.frames),
        };
        // Frames are fire-and-forget, so their errors are emitted as
        // *asynchronous* lines, tagged `"async": true` — clients must not
        // pair them with a pending command response.
        if let Err(e) = outcome {
            let mut response = error_json(e);
            response["async"] = Value::Bool(true);
            response["stream"] = Value::from(frame.stream);
            write_line(&self.writer, &response)?;
        }
        Ok(())
    }
}

fn submit_frame(
    frame: &Frame<'_>,
    sender: &StreamSender,
    buffers: &mut FrameBuffers,
) -> Result<(), String> {
    buffers.read(frame, sender.num_detectors())?;
    let submitted = if frame.kind == WORD_BLOCKS {
        sender.submit_word_batch(&buffers.blocks().collect::<Vec<_>>())
    } else {
        sender.submit_batch(&buffers.frames().collect::<Vec<_>>())
    };
    submitted.map(drop).map_err(|e| e.to_string())
}

/// Largest code distance a peer may `open`: the largest anything in this
/// repository compiles. Guards the connection thread against a request
/// that would compile an unbounded code.
const MAX_OPEN_DISTANCE: usize = 25;

/// Reads an optional `open` field: an absent field takes `default`, and a
/// present one of the wrong type is an error (a coerced field would open a
/// stream on another program than the peer asked for).
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

/// A client for [`NetServer`] — the transport of the TCP load generator
/// and the CI smoke test.
///
/// Commands are synchronous (one response per command, in order);
/// corrections arrive asynchronously as run frames, each routed whole into
/// its stream's channel.
pub struct NetClient {
    writer: TcpStream,
    /// The request being written, reused request after request.
    out: Vec<u8>,
    /// Detectors per stream this client opened: a word block's plane count.
    /// A frame does not carry it, so the client checks it.
    detectors: HashMap<u64, usize>,
    responses: mpsc::Receiver<Value>,
    routes: Arc<Mutex<HashMap<u64, Route>>>,
    /// Malformed or unroutable messages the reader refused to deliver — a
    /// run frame that fails [`read_run`] or names an unknown stream is
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
    /// Ordered corrections for this stream, flattened from its run frames.
    pub corrections: CorrectionReceiver,
}

/// One client-side route: the stream's channel and its observable count
/// (from the `open` response), which a run frame's planes must match.
struct Route {
    tx: mpsc::Sender<CorrectionRun>,
    num_observables: usize,
}

/// The client's reader: routes each run frame whole to its stream, hands
/// command responses to `responses`, and records every message it refuses.
fn read_server_messages(
    mut socket: TcpStream,
    routes: &Mutex<HashMap<u64, Route>>,
    responses: &mpsc::Sender<Value>,
    errors: &Mutex<Vec<String>>,
) {
    let note_error = |message: String| {
        if let Ok(mut errors) = errors.lock() {
            errors.push(message);
        }
    };
    let mut inbox = Inbox::default();
    loop {
        match inbox.next() {
            Ok(Some(Message::Line(line))) if line.trim_ascii().is_empty() => {}
            Ok(Some(Message::Line(line))) => match parse_line(line) {
                // Asynchronous lines (frame errors) must never be paired
                // with a pending command response.
                Some(line) if line.get("async").is_some() => note_error(format!(
                    "server reported: {}",
                    line.get("error").and_then(Value::as_str).unwrap_or("?")
                )),
                Some(response) => drop(responses.send(response)),
                None => note_error(format!(
                    "unparseable server line: {}",
                    String::from_utf8_lossy(line)
                )),
            },
            Ok(Some(Message::Frame(frame))) if frame.kind != RUN => note_error(format!(
                "a request frame (kind {}) from the server",
                frame.kind
            )),
            Ok(Some(Message::Frame(frame))) => {
                let routes = routes.lock().expect("correction router lock");
                // Route strictly: a run for a stream this client did not
                // open is dropped and surfaced as a protocol error.
                match routes.get(&frame.stream) {
                    None => note_error(format!("correction for unknown stream {}", frame.stream)),
                    Some(route) => match read_run(frame.payload, route.num_observables) {
                        Ok(run) => drop(route.tx.send(run)),
                        Err(why) => note_error(format!(
                            "malformed run frame on stream {} ({why})",
                            frame.stream
                        )),
                    },
                }
            }
            Ok(None) => match inbox.fill(&mut socket) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            },
            Err(TooLong) => {
                note_error(format!("server message exceeds {MAX_LINE_BYTES} bytes"));
                break;
            }
        }
    }
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
            read_server_messages(reader_stream, &reader_routes, &response_tx, &reader_errors);
        });
        Ok(NetClient {
            writer: stream,
            out: Vec::new(),
            detectors: HashMap::new(),
            responses,
            routes,
            protocol_errors,
            reader: Some(reader),
        })
    }

    /// Drains the protocol errors the reader refused to deliver (malformed
    /// run frames, runs for unknown streams, async server errors). An empty
    /// result means every server message routed cleanly.
    pub fn take_protocol_errors(&self) -> Vec<String> {
        std::mem::take(&mut *self.protocol_errors.lock().expect("protocol error lock"))
    }

    fn request(&mut self, command: &Value) -> Result<Value, String> {
        self.send(|out| {
            out.extend_from_slice(command.to_string().as_bytes());
            out.push(b'\n');
        })?;
        self.responses
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "server closed the connection".to_string())
    }

    /// Writes the request `write` appends to the reused buffer, in one
    /// write — or nothing, when it exceeds the server's cap (which would
    /// make the server hang up on every stream of this connection).
    fn send(&mut self, write: impl FnOnce(&mut Vec<u8>)) -> Result<(), String> {
        self.out.clear();
        write(&mut self.out);
        if self.out.len() > MAX_LINE_BYTES {
            return Err(format!(
                "a {}-byte request exceeds MAX_LINE_BYTES ({MAX_LINE_BYTES} bytes); nothing was sent",
                self.out.len()
            ));
        }
        self.writer.write_all(&self.out).map_err(|e| e.to_string())
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
        let (id, num_detectors, num_observables) = open_reply(&response)?;
        self.detectors.insert(id, num_detectors);
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
    /// Transport errors, or a frame longer than [`MAX_LINE_BYTES`]
    /// (nothing is sent then).
    pub fn submit_frames(&mut self, stream: u64, frames: &[Vec<usize>]) -> Result<(), String> {
        self.send(|out| push_index_frame(out, stream, frames))
    }

    /// Submits shot-major 64-shot word blocks on a stream (fire-and-forget;
    /// corrections arrive on the stream's channel). Each block is
    /// `(planes, count)`: one `u64` plane per detector, bit `s` of plane
    /// `d` set iff shot `s` fired detector `d`, with `count` shots in
    /// `1..=64`. This is the word-block frame — the server folds the
    /// planes straight into the batcher word, skipping the per-frame
    /// transpose.
    ///
    /// # Errors
    ///
    /// Transport errors, a block whose plane count is not the detector
    /// count of a stream this client opened, or a frame longer than
    /// [`MAX_LINE_BYTES`] (nothing is sent then).
    pub fn submit_packed_words(
        &mut self,
        stream: u64,
        blocks: &[(Vec<u64>, usize)],
    ) -> Result<(), String> {
        if let Some(&detectors) = self.detectors.get(&stream) {
            if let Some((planes, _)) = blocks.iter().find(|(planes, _)| planes.len() != detectors) {
                return Err(format!(
                    "a word block of {} planes on stream {stream} of {detectors} detectors; \
                     nothing was sent",
                    planes.len()
                ));
            }
        }
        self.send(|out| push_blocks_frame(out, stream, blocks))
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
        // Closing the socket ends the server's read loop; the reader thread
        // ends when the server closes its side.
        if let Some(reader) = self.reader.take() {
            drop(self.writer.shutdown(std::net::Shutdown::Both));
            let _ = reader.join();
        }
    }
}

/// The `(stream, detectors, observables)` of a successful `open` response.
fn open_reply(response: &Value) -> Result<(u64, usize, usize), String> {
    expect_ok(response)?;
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
    Ok((id, num_detectors, num_observables))
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

#[cfg(test)]
mod reply_fuzz;
#[cfg(test)]
mod wire_tests;
