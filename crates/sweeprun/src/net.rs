//! Minimal JSON-lines framing over TCP, shared by coordinator and worker.
//!
//! One request per line, one response per line, UTF-8 JSON. Reads poll a
//! shutdown flag (server side) or a hard deadline (client side) every
//! `READ_POLL`, the same pattern as the service crate's net layer, so
//! connection threads wind down promptly when the run finishes.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use serde_json::Value;

/// Granularity at which blocked reads re-check shutdown / the deadline.
pub(crate) const READ_POLL: Duration = Duration::from_millis(200);

/// Longest line buffered from a peer, in bytes. One that never sends a
/// newline is an error here (a dead connection to every caller) instead of
/// growing the process.
pub(crate) const MAX_LINE_BYTES: usize = 8 << 20;

/// Why a receive attempt produced no value.
enum Pause {
    /// The read timed out for one poll slice; caller decides whether to
    /// keep waiting.
    Slice,
    /// The peer closed the connection.
    Eof,
}

/// A TCP connection speaking line-delimited JSON.
#[derive(Debug)]
pub(crate) struct JsonLines {
    stream: TcpStream,
    buffer: Vec<u8>,
    /// Leading bytes of `buffer` already known to hold no newline.
    scanned: usize,
}

impl JsonLines {
    /// Wraps a connected stream, enabling `TCP_NODELAY` and the polling
    /// read timeout.
    pub(crate) fn new(stream: TcpStream) -> Result<Self, String> {
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(READ_POLL))
            .map_err(|e| format!("set_read_timeout: {e}"))?;
        Ok(JsonLines {
            stream,
            buffer: Vec::new(),
            scanned: 0,
        })
    }

    /// Sends one JSON value as a single line.
    pub(crate) fn send(&mut self, value: &Value) -> Result<(), String> {
        let mut line = value.to_string();
        line.push('\n');
        self.stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))
    }

    /// Pulls the next complete line out of the buffer, if one is there.
    fn buffered_line(&mut self) -> Result<Option<Value>, String> {
        while let Some(pos) = self.buffer[self.scanned..].iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buffer.drain(..=self.scanned + pos).collect();
            self.scanned = 0;
            let text = String::from_utf8(line).map_err(|e| format!("non-UTF-8 line: {e}"))?;
            let text = text.trim();
            if text.is_empty() {
                continue;
            }
            return serde_json::from_str(text)
                .map(Some)
                .map_err(|e| format!("malformed line: {e}"));
        }
        self.scanned = self.buffer.len();
        if self.scanned > MAX_LINE_BYTES {
            return Err(format!("line exceeds {MAX_LINE_BYTES} bytes"));
        }
        Ok(None)
    }

    /// One poll slice: a value, or why there was none.
    fn poll(&mut self) -> Result<Result<Value, Pause>, String> {
        if let Some(value) = self.buffered_line()? {
            return Ok(Ok(value));
        }
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Ok(Err(Pause::Eof)),
            Ok(n) => {
                self.buffer.extend_from_slice(&chunk[..n]);
                match self.buffered_line()? {
                    Some(value) => Ok(Ok(value)),
                    None => Ok(Err(Pause::Slice)),
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Ok(Err(Pause::Slice))
            }
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Receives the next JSON line, waiting until `shutdown` flips or the
    /// peer hangs up (both return `Ok(None)`). Malformed JSON is an error.
    pub(crate) fn recv(&mut self, shutdown: &AtomicBool) -> Result<Option<Value>, String> {
        loop {
            match self.poll()? {
                Ok(value) => return Ok(Some(value)),
                Err(Pause::Eof) => return Ok(None),
                Err(Pause::Slice) => {
                    if shutdown.load(Ordering::Relaxed) {
                        return Ok(None);
                    }
                }
            }
        }
    }

    /// Receives with a hard deadline — the client-side variant, where a
    /// silent coordinator is an error and EOF is `Ok(None)`.
    pub(crate) fn recv_timeout(&mut self, limit: Duration) -> Result<Option<Value>, String> {
        let start = Instant::now();
        loop {
            match self.poll()? {
                Ok(value) => return Ok(Some(value)),
                Err(Pause::Eof) => return Ok(None),
                Err(Pause::Slice) => {
                    if start.elapsed() >= limit {
                        return Err(format!("no response within {limit:?}"));
                    }
                }
            }
        }
    }
}
