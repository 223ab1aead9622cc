//! JSON-lines trace export.
//!
//! A [`TraceSink`] appends one JSON object per span to a file:
//!
//! ```json
//! {"ts_us":1234,"stage":"service.stage.decode","dur_us":210,"items":64}
//! ```
//!
//! `ts_us` is microseconds since the sink was created, `dur_us` the span
//! duration, `items` the item count the span covered. The format is
//! line-delimited so a partial file (a killed run) stays parseable line by
//! line. Writes go through one buffered writer behind a mutex — trace
//! export is for offline analysis of spans, not a hot path.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// An append-only JSON-lines trace file.
#[derive(Debug)]
pub struct TraceSink {
    started: Instant,
    writer: Mutex<BufWriter<File>>,
}

impl TraceSink {
    /// Creates (truncating) the trace file at `path`.
    ///
    /// # Errors
    ///
    /// Fails when the file cannot be created.
    pub fn create(path: &Path) -> std::io::Result<TraceSink> {
        let file = File::create(path)?;
        Ok(TraceSink {
            started: Instant::now(),
            writer: Mutex::new(BufWriter::new(file)),
        })
    }

    /// Appends one span event. Errors are swallowed: tracing must never
    /// take down the pipeline it observes.
    pub fn write_event(&self, stage: &str, dur_us: u64, items: u64) {
        let ts_us = self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let line = serde_json::json!({
            "ts_us": ts_us,
            "stage": stage,
            "dur_us": dur_us,
            "items": items,
        });
        let Ok(text) = serde_json::to_string(&line) else {
            return;
        };
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writeln!(writer, "{text}");
        }
    }

    /// Flushes buffered events to disk.
    pub fn flush(&self) {
        if let Ok(mut writer) = self.writer.lock() {
            let _ = writer.flush();
        }
    }
}

impl Drop for TraceSink {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_as_json_lines() {
        let path = std::env::temp_dir().join(format!(
            "qccd-trace-test-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let sink = TraceSink::create(&path).expect("create trace file");
        sink.write_event("stage.a", 42, 64);
        sink.write_event("stage.b", 7, 1);
        sink.flush();
        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = serde_json::from_str(lines[0]).expect("valid json");
        assert_eq!(first.get("stage").and_then(|v| v.as_str()), Some("stage.a"));
        assert_eq!(first.get("dur_us").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(first.get("items").and_then(|v| v.as_u64()), Some(64));
        assert!(first.get("ts_us").and_then(|v| v.as_u64()).is_some());
        let _ = std::fs::remove_file(&path);
    }
}
