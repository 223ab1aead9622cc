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
//! Keys may come in any order, a repeated key counts with its last value,
//! and unknown keys are ignored once they are well-formed JSON.
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
//! [`WordBlock`] layout), so the per-frame transpose
//! disappears from the service hot path. Plane words round-trip
//! bit-for-bit.
//!
//! The hot lines never pass through a `serde_json::Value` tree. The client
//! writes request lines straight into one reused buffer, and the server
//! writes run lines the same way. One field reader serves both ends: it
//! splits an object into `(key, raw value)` fields, checks every value is
//! well-formed JSON, and reads `cmd`, `stream`, detector lists and plane
//! words straight into typed buffers (the server's plane words into one
//! buffer per connection that the [`WordBlock`]s borrow).
//! Only command responses, which callers receive as `Value`s, and the rare
//! `open` fields are parsed by `serde_json`.
//!
//! The server counts what it sends in the service's registry
//! ([`DecodeService::telemetry`]): `service.net.correction_lines` run lines
//! carrying `service.net.corrections_sent` corrections, so their ratio is
//! the mean run length on the wire.
//!
//! A line may not exceed [`MAX_LINE_BYTES`]: the server answers a longer one
//! with `{"ok":false,"error":"line exceeds … bytes"}` and closes that
//! connection; the client refuses to send a longer request, and on reading
//! a longer server line records a protocol error and stops reading.

use std::borrow::Cow;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
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

/// Longest line either side buffers, in bytes — more than 25× the largest
/// legitimate one (a 16-block `frames_packed` burst at d = 9). A peer that
/// never sends a newline is cut off here instead of growing the process.
pub const MAX_LINE_BYTES: usize = 8 << 20;

/// Parses the wire name of a decoder kind (the second column of
/// [`DecoderKind::NAMES`]).
pub fn parse_decoder(name: &str) -> Result<DecoderKind, String> {
    DecoderKind::NAMES
        .iter()
        .find(|(_, wire, _)| *wire == name)
        .map(|&(kind, ..)| kind)
        .ok_or_else(|| {
            let names: Vec<&str> = DecoderKind::NAMES
                .iter()
                .map(|(_, wire, _)| *wire)
                .collect();
            format!("unknown decoder `{name}` ({})", names.join("|"))
        })
}

/// The wire name of a decoder kind (inverse of [`parse_decoder`]).
pub fn decoder_name(kind: DecoderKind) -> &'static str {
    DecoderKind::NAMES
        .iter()
        .find(|(named, ..)| *named == kind)
        .map(|(_, wire, _)| *wire)
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
// Wire lines: one writer for integers, one reader for fields
// ---------------------------------------------------------------------------

/// Appends `n` in decimal: the one integer writer of every hot line.
fn push_u64(out: &mut String, mut n: u64) {
    if n < 10 {
        // Most plane words are `0`.
        out.push(char::from(b'0' + n as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&digit| char::from(digit)));
}

/// Appends `items` as a JSON array, each item written by `push`.
fn push_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut push: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (index, item) in items.into_iter().enumerate() {
        if index > 0 {
            out.push(',');
        }
        push(out, item);
    }
    out.push(']');
}

/// Appends a `frames` request line (without its newline).
fn push_frames_line(out: &mut String, stream: u64, frames: &[Vec<usize>]) {
    out.push_str(r#"{"cmd":"frames","stream":"#);
    push_u64(out, stream);
    out.push_str(r#","frames":"#);
    push_array(out, frames, |out, fired| {
        push_array(out, fired.iter().map(|&detector| detector as u64), push_u64);
    });
    out.push('}');
}

/// Appends a `frames_packed` request line (without its newline).
fn push_packed_line(out: &mut String, stream: u64, blocks: &[(Vec<u64>, usize)]) {
    out.push_str(r#"{"cmd":"frames_packed","stream":"#);
    push_u64(out, stream);
    out.push_str(r#","blocks":"#);
    push_array(out, blocks, |out, (planes, count)| {
        out.push_str(r#"{"count":"#);
        push_u64(out, *count as u64);
        out.push_str(r#","planes":"#);
        push_array(out, planes.iter().copied(), push_u64);
        out.push('}');
    });
    out.push('}');
}

/// Appends the run line of `run` on `stream` to `out` (see the module doc):
/// each observable's bit of every shot, packed 64 shots to a word.
fn push_run_line(out: &mut String, stream: u64, num_observables: usize, run: &CorrectionRun) {
    out.push_str(r#"{"stream":"#);
    push_u64(out, stream);
    out.push_str(r#","seq":"#);
    push_u64(out, run.first_seq);
    out.push_str(r#","count":"#);
    push_u64(out, run.len());
    out.push_str(r#","planes":"#);
    let words = (0..num_observables).flat_map(|observable| {
        run.flips.chunks(64).map(move |shots| {
            shots.iter().enumerate().fold(0u64, |word, (j, &flips)| {
                word | ((flips >> observable) & 1) << j
            })
        })
    });
    push_array(out, words, push_u64);
    out.push_str("}\n");
}

/// Deepest nesting a line may use (upstream `serde_json`'s recursion
/// limit). The reader recurses once per level, so a line of `[`s is refused
/// instead of overflowing the reading thread's stack.
const MAX_DEPTH: usize = 128;

/// A line that is not well-formed JSON.
#[derive(Debug, PartialEq, Eq)]
struct Malformed;

/// What [`Cursor::value`] does with each field of an object: reads the
/// value of the field named by the key from the cursor, at the given depth.
/// It must consume exactly that value.
type FieldReader<'r, 'a> =
    &'r mut dyn FnMut(Cow<'a, str>, &mut Cursor<'a>, usize) -> Result<(), Malformed>;

/// The [`FieldReader`] that only checks a field's value.
fn skip<'a>(_: Cow<'a, str>, cursor: &mut Cursor<'a>, depth: usize) -> Result<(), Malformed> {
    cursor.value(depth, &mut skip).map(drop)
}

/// A read position in one line. It accepts exactly what the vendored
/// `serde_json::from_str` accepts — the same whitespace, number tokens,
/// literals and escapes — without building a tree.
#[derive(Clone)]
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Self {
        Cursor { text, pos: 0 }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after any whitespace.
    #[inline]
    fn peek(&mut self) -> Option<u8> {
        loop {
            match self.byte()? {
                b' ' | b'\t' | b'\n' | b'\r' => self.pos += 1,
                byte => return Some(byte),
            }
        }
    }

    /// Steps past the `,` between two items (`Ok(true)`) or the `close`
    /// bracket after the last (`Ok(false)`).
    #[inline]
    fn next_item(&mut self, close: u8) -> Result<bool, Malformed> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(byte) if byte == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(Malformed),
        }
    }

    /// Reads the array (at `depth`) whose `[` is at the cursor, through its
    /// `]`, handing each item to `item` as `Value::as_u64` reads it. The
    /// loop is the hot one of every frame line, so it keeps its position in
    /// a local and takes a lone digit — most plane words are `0` — without
    /// a call.
    #[inline]
    fn array(&mut self, depth: usize, mut item: impl FnMut(Option<u64>)) -> Result<(), Malformed> {
        self.pos += 1;
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        loop {
            if let [digit @ b'0'..=b'9', b',' | b']', ..] = bytes[pos..] {
                item(Some(u64::from(digit - b'0')));
                pos += 1;
            } else {
                self.pos = pos;
                match self.peek() {
                    Some(b'-' | b'0'..=b'9') => item(self.number()?),
                    _ => {
                        self.value(depth + 1, &mut skip)?;
                        item(None);
                    }
                }
                pos = self.pos;
            }
            if bytes.get(pos) == Some(&b',') {
                pos += 1;
                continue;
            }
            self.pos = pos;
            if !self.next_item(b']')? {
                return Ok(());
            }
            pos = self.pos;
        }
    }

    /// Reads one value and returns its raw text; each field of an object
    /// goes to `field`.
    fn value(&mut self, depth: usize, field: FieldReader<'_, 'a>) -> Result<&'a str, Malformed> {
        let start = self.peek().map(|_| self.pos).ok_or(Malformed)?;
        match self.text.as_bytes()[start] {
            b'"' => drop(self.string()?),
            b'-' | b'0'..=b'9' => {
                self.number()?;
            }
            b'[' | b'{' if depth >= MAX_DEPTH => return Err(Malformed),
            b'[' => self.array(depth, |_| {})?,
            b'{' => {
                self.pos += 1;
                let mut more = self.peek() != Some(b'}');
                self.pos += usize::from(!more);
                while more {
                    if self.peek() != Some(b'"') {
                        return Err(Malformed);
                    }
                    let key = self.string()?;
                    if self.peek() != Some(b':') {
                        return Err(Malformed);
                    }
                    self.pos += 1;
                    field(key, self, depth + 1)?;
                    more = self.next_item(b'}')?;
                }
            }
            _ => {
                let literal = ["null", "true", "false"]
                    .into_iter()
                    .find(|literal| self.text.as_bytes()[start..].starts_with(literal.as_bytes()))
                    .ok_or(Malformed)?;
                self.pos += literal.len();
            }
        }
        Ok(&self.text[start..self.pos])
    }

    /// Reads the value at the cursor as an array of integers, pushing each
    /// element `Value::as_u64` reads: `Some(true)` when that is every
    /// element, `Some(false)` when it is not, `None` when the value is no
    /// array.
    fn u64s(&mut self, depth: usize, mut push: impl FnMut(u64)) -> Result<Option<bool>, Malformed> {
        if self.peek() != Some(b'[') || depth >= MAX_DEPTH {
            self.value(depth, &mut skip)?;
            return Ok(None);
        }
        let mut all = true;
        self.array(depth, |item| match item {
            Some(n) => push(n),
            None => all = false,
        })?;
        Ok(Some(all))
    }

    /// Reads the string starting at the cursor: borrowed when it holds no
    /// escape, decoded by the vendored parser when it does.
    fn string(&mut self) -> Result<Cow<'a, str>, Malformed> {
        let start = self.pos;
        self.pos += 1;
        let mut escaped = false;
        loop {
            match self.byte().ok_or(Malformed)? {
                b'"' => break,
                b'\\' => {
                    escaped = true;
                    self.pos += 2;
                }
                _ => self.pos += 1,
            }
        }
        self.pos += 1;
        if !escaped {
            return Ok(Cow::Borrowed(&self.text[start + 1..self.pos - 1]));
        }
        match serde_json::from_str(&self.text[start..self.pos]) {
            Ok(Value::String(text)) => Ok(Cow::Owned(text)),
            _ => Err(Malformed),
        }
    }

    /// Reads the number token starting at the cursor: `Some(n)` when it is
    /// an integer in `u64` range (where `Value::as_u64` reads `n`), `None`
    /// for any other number.
    #[inline]
    fn number(&mut self) -> Result<Option<u64>, Malformed> {
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let negative = bytes[start] == b'-';
        let mut pos = start + usize::from(negative);
        let (digits, mut value, mut fits) = (pos, 0u64, true);
        while let Some(&byte) = bytes.get(pos) {
            let digit = byte.wrapping_sub(b'0');
            if digit > 9 {
                break;
            }
            match value
                .checked_mul(10)
                .and_then(|v| v.checked_add(u64::from(digit)))
            {
                Some(next) => value = next,
                None => fits = false,
            }
            pos += 1;
        }
        if let Some(b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(pos) {
            // Not an integer: the vendored parser keeps the token as a
            // float when `f64` parses it, and refuses the line otherwise.
            while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = bytes.get(pos) {
                pos += 1;
            }
            self.pos = pos;
            return match self.text[start..pos].parse::<f64>() {
                Ok(_) => Ok(None),
                Err(_) => Err(Malformed),
            };
        }
        self.pos = pos;
        if pos == digits {
            return Err(Malformed);
        }
        // `-0` is the integer 0; every other negative integer is no u64.
        Ok((fits && (!negative || value == 0)).then_some(value))
    }
}

/// A value's top-level fields as `(key, raw value)` pairs, every value
/// checked well-formed. A non-object has no fields, and a repeated key
/// reads as its last value — as `Value::get` would read them.
struct Fields<'a>(Vec<(Cow<'a, str>, &'a str)>);

impl<'a> Fields<'a> {
    fn parse(text: &'a str) -> Result<Fields<'a>, Malformed> {
        let mut fields = Vec::new();
        let mut cursor = Cursor::new(text);
        cursor.value(0, &mut |key, cursor, depth| {
            fields.push((key, cursor.value(depth, &mut skip)?));
            Ok(())
        })?;
        match cursor.peek() {
            None => Ok(Fields(fields)),
            Some(_) => Err(Malformed),
        }
    }

    fn get(&self, key: &str) -> Option<&'a str> {
        self.0
            .iter()
            .rev()
            .find(|(k, _)| k == key)
            .map(|&(_, raw)| raw)
    }

    fn u64(&self, key: &str) -> Option<u64> {
        self.get(key).and_then(raw_u64)
    }

    fn str(&self, key: &str) -> Option<Cow<'a, str>> {
        self.get(key).and_then(raw_str)
    }
}

/// `Value::as_u64` of a checked raw value.
fn raw_u64(raw: &str) -> Option<u64> {
    match raw.as_bytes().first()? {
        b'-' | b'0'..=b'9' => Cursor::new(raw).number().ok().flatten(),
        _ => None,
    }
}

/// `Value::as_str` of a checked raw value.
fn raw_str(raw: &str) -> Option<Cow<'_, str>> {
    match raw.as_bytes().first()? {
        b'"' => Cursor::new(raw).string().ok(),
        _ => None,
    }
}

/// `Value::as_f64` of a checked raw value (rare fields only).
fn raw_f64(raw: &str) -> Option<f64> {
    serde_json::from_str(raw).ok()?.as_f64()
}

/// The elements of a checked raw array.
#[derive(Clone)]
struct Elements<'a> {
    cursor: Cursor<'a>,
    done: bool,
}

/// The elements of a checked raw value, if it is an array.
fn elements(raw: &str) -> Option<Elements<'_>> {
    let mut cursor = Cursor { text: raw, pos: 1 };
    let done = cursor.peek() == Some(b']');
    raw.starts_with('[').then_some(Elements { cursor, done })
}

impl<'a> Elements<'a> {
    /// Reads the next element with `read`, which must consume exactly it.
    fn read_next<T>(
        &mut self,
        read: impl FnOnce(&mut Cursor<'a>) -> Result<T, Malformed>,
    ) -> Option<T> {
        if self.done {
            return None;
        }
        let item = read(&mut self.cursor).ok()?;
        self.done = !self.cursor.next_item(b']').ok()?;
        Some(item)
    }
}

impl<'a> Iterator for Elements<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        self.read_next(|cursor| cursor.value(0, &mut skip))
    }
}

/// The shots of one `frame` / `frames` / `frames_packed` line, read into
/// buffers a connection reuses line after line.
#[derive(Debug, Default)]
struct FrameBuffers {
    /// Every block's plane words, end to end (`frames_packed`).
    words: Vec<u64>,
    /// Every frame's detector indices, end to end (`frame` / `frames`).
    detectors: Vec<usize>,
    /// Per block, its shot count and its planes' range in `words`; per
    /// frame, its detectors' range in `detectors`.
    spans: Vec<(usize, Range<usize>)>,
}

impl FrameBuffers {
    /// Reads the shots of the frame line `request` (`cmd` is its command)
    /// strictly: a field of the wrong type is an error, since a coerced
    /// frame would decode wrong syndromes while looking healthy. Plane words
    /// and detector indices are read in place, in one pass.
    fn read(&mut self, cmd: &str, request: &Fields<'_>) -> Result<(), String> {
        self.words.clear();
        self.detectors.clear();
        self.spans.clear();
        if cmd == "frame" {
            let mut detectors = request.get("detectors").map(Cursor::new);
            return self.read_frame(detectors.as_mut());
        }
        if cmd == "frames" {
            let mut frames = request
                .get("frames")
                .and_then(elements)
                .ok_or("`frames` must be an array of frames")?;
            while let Some(read) = frames.read_next(|cursor| Ok(self.read_frame(Some(cursor)))) {
                read?;
            }
            return Ok(());
        }
        let mut blocks = request
            .get("blocks")
            .and_then(elements)
            .ok_or("`blocks` must be an array of word blocks")?;
        loop {
            // A block's last `count` and `planes` count, as in `Fields`.
            let (start, mut count, mut planes) = (self.words.len(), None, None);
            let words = &mut self.words;
            let block = blocks.read_next(|cursor| {
                cursor.value(0, &mut |key, cursor, depth| {
                    match &*key {
                        "count" => count = Some(cursor.value(depth, &mut skip)?),
                        "planes" => {
                            words.truncate(start);
                            planes = cursor.u64s(depth, |word| words.push(word))?;
                        }
                        _ => skip(key, cursor, depth)?,
                    }
                    Ok(())
                })
            });
            if block.is_none() {
                return Ok(());
            }
            let count = count
                .and_then(raw_u64)
                .ok_or("a word block needs a `count` of shots")? as usize;
            match planes {
                Some(true) => self.spans.push((count, start..self.words.len())),
                Some(false) => return Err("plane words must be non-negative integers".into()),
                None => return Err("a word block needs a `planes` array".into()),
            }
        }
    }

    /// Reads one frame's detector list at `cursor`.
    fn read_frame(&mut self, cursor: Option<&mut Cursor<'_>>) -> Result<(), String> {
        let (start, detectors) = (self.detectors.len(), &mut self.detectors);
        let read = cursor.and_then(|cursor| {
            let read = cursor.u64s(0, |detector| detectors.push(detector as usize));
            read.ok().flatten()
        });
        match read {
            Some(true) => self.spans.push((1, start..self.detectors.len())),
            Some(false) => return Err("detector indices must be non-negative integers".into()),
            None => return Err("frame detectors must be an array".into()),
        }
        Ok(())
    }

    /// The blocks of the last `frames_packed` line read.
    fn blocks(&self) -> impl Iterator<Item = WordBlock<'_>> {
        self.spans.iter().map(|(count, planes)| WordBlock {
            planes: &self.words[planes.clone()],
            count: *count,
        })
    }

    /// The frames of the last `frame` / `frames` line read.
    fn frames(&self) -> impl Iterator<Item = &[usize]> {
        self.spans
            .iter()
            .map(|(_, detectors)| &self.detectors[detectors.clone()])
    }
}

/// Reads a run line (see the module doc) back into a [`CorrectionRun`].
/// The whole line is refused — nothing of it delivered — unless `count`
/// is in `1..=MAX_LINE_BYTES`, `seq + count` fits a `u64`, `planes` holds
/// exactly `num_observables × ⌈count/64⌉` integer words and no bit names a
/// shot past `count`. The cap bounds what one line can make the reader
/// allocate (64 MiB of flip masks, even for a stream without observables,
/// whose `planes` is empty at any count); a run is one decode job's shots
/// of one stream, far below it.
fn read_run(line: &Fields<'_>, num_observables: usize) -> Result<CorrectionRun, &'static str> {
    let seq = line.u64("seq").ok_or("no valid `seq`")?;
    let count = line
        .u64("count")
        .filter(|count| (1..=MAX_LINE_BYTES as u64).contains(count))
        .ok_or("`count` must be an integer in 1..=MAX_LINE_BYTES")?;
    if seq.checked_add(count).is_none() {
        return Err("`seq + count` overflows");
    }
    let count = count as usize;
    let words = count.div_ceil(64);
    let planes = line
        .get("planes")
        .and_then(elements)
        .filter(|planes| planes.clone().count() == words * num_observables)
        .ok_or("`planes` must hold ⌈count/64⌉ words per observable")?;
    let mut flips = vec![0u64; count];
    for (index, word) in planes.enumerate() {
        let (observable, first_shot) = (index / words, 64 * (index % words));
        let mut bits = raw_u64(word).ok_or("plane words must be u64 integers")?;
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

fn error_json(message: impl std::fmt::Display) -> Value {
    serde_json::json!({"ok": false, "error": format!("{message}")})
}

/// The answer to a frame line or `close` without a usable stream id.
const BAD_STREAM: &str = "`stream` must be a non-negative integer";

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
    let result = connection.serve(&mut BufReader::new(stream));
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
/// pumps, and the buffers its frame lines are read into.
struct Connection {
    service: Arc<DecodeService>,
    shutdown: Arc<AtomicBool>,
    writer: SharedWriter,
    senders: HashMap<u64, StreamSender>,
    pumps: Vec<JoinHandle<()>>,
    frames: FrameBuffers,
}

impl Connection {
    fn serve(&mut self, reader: &mut BufReader<TcpStream>) -> io::Result<()> {
        let mut line = String::new();
        loop {
            // Poll the flag between lines too: a continuously-sending client
            // never hits the read timeout, and must not pin the server past
            // a shutdown issued on another connection.
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // `read_line` may return a timeout error with a partial line
            // already appended; `line` is only cleared after a complete line
            // is processed, so partial reads accumulate correctly — up to
            // one byte past the cap, which is how an over-long line is
            // recognised.
            let room = (MAX_LINE_BYTES + 1 - line.len()) as u64;
            match reader.by_ref().take(room).read_line(&mut line) {
                Ok(0) => break,
                Ok(_) if line.len() > MAX_LINE_BYTES && !line.ends_with('\n') => {
                    let message = format!("line exceeds {MAX_LINE_BYTES} bytes");
                    write_line(&self.writer, &error_json(message))?;
                    break;
                }
                Ok(_) => {
                    let done = self.handle_line(&line)?;
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
                    if self.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Reads and dispatches one request line; returns `true` when the
    /// connection should end (shutdown).
    fn handle_line(&mut self, line: &str) -> io::Result<bool> {
        if line.trim().is_empty() {
            return Ok(false);
        }
        let Ok(request) = Fields::parse(line) else {
            write_line(&self.writer, &error_json("invalid JSON"))?;
            return Ok(false);
        };
        let writer = &self.writer;
        let cmd = request.str("cmd").unwrap_or_default();
        match &*cmd {
            "ping" => write_line(writer, &serde_json::json!({"ok": true}))?,
            "metrics" => {
                let snapshot = self.service.telemetry_snapshot();
                if request.str("format").as_deref() == Some("text") {
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
                    let lines = registry.counter("service.net.correction_lines");
                    let sent = registry.counter("service.net.corrections_sent");
                    self.pumps.push(std::thread::spawn(move || {
                        pump_corrections(id, observables, receiver, pump_writer, lines, sent);
                    }));
                    write_line(writer, &response)?;
                }
                Err(e) => write_line(writer, &error_json(e))?,
            },
            "frame" | "frames" | "frames_packed" => {
                let id = request.u64("stream");
                let outcome = match id.map(|id| (id, self.senders.get(&id))) {
                    None => Err(BAD_STREAM.to_string()),
                    Some((id, None)) => Err(format!("unknown stream {id}")),
                    Some((_, Some(sender))) => {
                        submit_line(&cmd, &request, sender, &mut self.frames)
                    }
                };
                // Frames are fire-and-forget, so their errors are emitted as
                // *asynchronous* lines, tagged `"async": true` — clients must
                // not pair them with a pending command response.
                if let Err(e) = outcome {
                    let mut response = error_json(e);
                    response["async"] = Value::Bool(true);
                    if let Some(id) = id {
                        response["stream"] = Value::from(id);
                    }
                    write_line(writer, &response)?;
                }
            }
            "close" => match request.u64("stream").map(|id| (id, self.senders.get(&id))) {
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
}

/// Submits one `frame` / `frames` / `frames_packed` line as one batch: the
/// whole line is read and validated before anything is enqueued, and the
/// service locks are paid once per line instead of once per frame.
fn submit_line(
    cmd: &str,
    request: &Fields<'_>,
    sender: &StreamSender,
    frames: &mut FrameBuffers,
) -> Result<(), String> {
    frames.read(cmd, request)?;
    let submitted = if cmd == "frames_packed" {
        sender.submit_word_batch(&frames.blocks().collect::<Vec<_>>())
    } else {
        sender.submit_batch(&frames.frames().collect::<Vec<_>>())
    };
    submitted.map(drop).map_err(|e| e.to_string())
}

/// Largest code distance a peer may `open`: the largest anything in this
/// repository compiles. Guards the connection thread against a request
/// that would compile an unbounded code.
const MAX_OPEN_DISTANCE: usize = 25;

/// Reads an optional `open` field: an absent field takes `default`, and a
/// present one of the wrong type is an error, as in [`FrameBuffers::read`]
/// (a coerced field would open a stream on another program than the peer
/// asked for).
fn optional_field<'a, T>(
    request: &Fields<'a>,
    key: &str,
    read: fn(&'a str) -> Option<T>,
    default: T,
) -> Result<T, String> {
    request.get(key).map_or(Ok(default), |raw| {
        read(raw).ok_or_else(|| format!("`{key}` has the wrong type"))
    })
}

fn open_from_request(
    request: &Fields<'_>,
    service: &Arc<DecodeService>,
) -> Result<crate::StreamHandle, String> {
    let topology = optional_field(request, "topology", raw_str, "grid".into())?;
    let capacity = optional_field(request, "capacity", raw_u64, 2)? as usize;
    let wiring = optional_field(request, "wiring", raw_str, "standard".into())?;
    let improvement = optional_field(request, "gate_improvement", raw_f64, 1.0)?;
    let decoder = optional_field(request, "decoder", raw_str, "union_find".into())?;
    let distance = request.u64("distance").ok_or("open needs a `distance`")? as usize;
    if distance < 2 {
        return Err("distance must be at least 2".into());
    }
    if distance > MAX_OPEN_DISTANCE {
        return Err(format!("distance must be at most {MAX_OPEN_DISTANCE}"));
    }
    let decoder = parse_decoder(&decoder)?;
    let arch = parse_arch(&topology, capacity, &wiring, improvement)?;
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
    writer: TcpStream,
    /// The request line being written, reused line after line.
    line: String,
    responses: mpsc::Receiver<Value>,
    routes: Arc<Mutex<HashMap<u64, Route>>>,
    /// Malformed or unroutable lines the reader refused to deliver — a run
    /// line that fails [`read_run`] or names an unknown stream is
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

/// One client-side route: the stream's channel and its observable count
/// (from the `open` response), which a run line's `planes` must match.
struct Route {
    tx: mpsc::Sender<CorrectionRun>,
    num_observables: usize,
}

/// The client's reader: routes each run line whole to its stream, hands
/// command responses to `responses`, and records every line it refuses.
fn read_server_lines(
    stream: TcpStream,
    routes: &Mutex<HashMap<u64, Route>>,
    responses: &mpsc::Sender<Value>,
    errors: &Mutex<Vec<String>>,
) {
    let note_error = |message: String| {
        if let Ok(mut errors) = errors.lock() {
            errors.push(message);
        }
    };
    let mut reader = BufReader::new(stream);
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
        let Ok(fields) = Fields::parse(line) else {
            note_error(format!("unparseable server line: {line}"));
            continue;
        };
        // Asynchronous lines (frame errors) must never be paired with a
        // pending command response.
        if fields.get("async").is_some() {
            let error = fields.str("error");
            note_error(format!(
                "server reported: {}",
                error.as_deref().unwrap_or("?")
            ));
            continue;
        }
        if fields.get("seq").is_none() || fields.get("ok").is_some() {
            match serde_json::from_str(line) {
                Ok(response) => drop(responses.send(response)),
                Err(_) => note_error(format!("unparseable server line: {line}")),
            }
            continue;
        }
        // Route strictly: a run line without a well-formed `stream` is
        // dropped and surfaced as a protocol error — never defaulted onto
        // stream 0, which would silently corrupt whichever stream happened
        // to open first.
        let Some(stream) = fields.u64("stream") else {
            note_error(format!("run line without a valid `stream`: {line}"));
            continue;
        };
        let routes = routes.lock().expect("correction router lock");
        let Some(route) = routes.get(&stream) else {
            note_error(format!("correction for unknown stream {stream}"));
            continue;
        };
        match read_run(&fields, route.num_observables) {
            Ok(run) => drop(route.tx.send(run)),
            Err(why) => note_error(format!("malformed run line ({why}): {line}")),
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
            read_server_lines(reader_stream, &reader_routes, &response_tx, &reader_errors);
        });
        Ok(NetClient {
            writer: stream,
            line: String::new(),
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
        self.send(|line| line.push_str(&command.to_string()))?;
        self.responses
            .recv_timeout(Duration::from_secs(120))
            .map_err(|_| "server closed the connection".to_string())
    }

    /// Writes the request line `write` appends to the reused line buffer,
    /// in one write — or nothing, when the line exceeds the server's cap
    /// (which would make the server hang up on every stream of this
    /// connection).
    fn send(&mut self, write: impl FnOnce(&mut String)) -> Result<(), String> {
        self.line.clear();
        write(&mut self.line);
        if self.line.len() > MAX_LINE_BYTES {
            return Err(format!(
                "a {}-byte request line exceeds MAX_LINE_BYTES ({MAX_LINE_BYTES} bytes); \
                 nothing was sent",
                self.line.len()
            ));
        }
        self.line.push('\n');
        self.writer
            .write_all(self.line.as_bytes())
            .map_err(|e| e.to_string())
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
    /// Transport errors, or a line longer than [`MAX_LINE_BYTES`] (nothing
    /// is sent then).
    pub fn submit_frames(&mut self, stream: u64, frames: &[Vec<usize>]) -> Result<(), String> {
        self.send(|line| push_frames_line(line, stream, frames))
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
    /// Transport errors, or a line longer than [`MAX_LINE_BYTES`] (nothing
    /// is sent then).
    pub fn submit_packed_words(
        &mut self,
        stream: u64,
        blocks: &[(Vec<u64>, usize)],
    ) -> Result<(), String> {
        self.send(|line| push_packed_line(line, stream, blocks))
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
mod wire_tests;
