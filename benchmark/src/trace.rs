//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each crate's public functions, on the thread that drives the workload.
//! They stay in memory and are written out once, when the workload ends. A
//! disabled tracer reduces `enter`/`exit` to one branch, so the untraced run
//! executes the same driver code.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Handle returned by [`Tracer::enter`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

const DISABLED: SpanId = SpanId(u32::MAX);

/// The rep tag of spans recorded outside the reps (build, trace-only
/// segments).
pub const OUTSIDE_REPS: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Span {
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    rep: u32,
    items: u64,
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Items (shots, ops, points) the spans reported.
    pub items: u64,
    /// Σ span durations, in seconds.
    pub busy_s: f64,
    /// Σ (duration − time covered by child spans), in seconds.
    pub self_s: f64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    rep: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "no span is open");
        self.enabled = enabled;
    }

    /// Tags the spans that follow with a rep index.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return DISABLED;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            start_ns: 0,
            end_ns: 0,
            rep: self.rep,
            items: 0,
        });
        self.stack.push(id);
        // Stamp last, so the bookkeeping above is charged to the parent.
        self.spans[id as usize].start_ns = self.ns(Instant::now());
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId, items: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let top = self.stack.pop().expect("exit without enter");
        assert_eq!(top, id.0, "spans close innermost first");
        let span = &mut self.spans[top as usize];
        span.end_ns = end_ns;
        span.items = items;
    }

    /// Runs `f` inside a leaf span.
    pub fn time<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let result = f();
        self.exit(id, items);
        result
    }

    /// Records a span timed elsewhere (another thread) as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, items: u64) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            rep: self.rep,
            items,
        });
    }

    /// Totals per span name over the spans inside the reps (`in_reps`) or
    /// outside them. A span's self time is its duration minus the part of
    /// its interval that its direct children cover.
    pub fn layers(&self, in_reps: bool) -> BTreeMap<&'static str, Layer> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let parent_span = &self.spans[parent as usize];
                let start = span.start_ns.max(parent_span.start_ns);
                let end = span.end_ns.min(parent_span.end_ns);
                covered[parent as usize] += end.saturating_sub(start);
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            if (span.rep != OUTSIDE_REPS) != in_reps {
                continue;
            }
            let duration = span.end_ns.saturating_sub(span.start_ns);
            let layer = layers.entry(span.name).or_default();
            layer.calls += 1;
            layer.items += span.items;
            layer.busy_s += duration as f64 * 1e-9;
            layer.self_s += duration.saturating_sub(covered) as f64 * 1e-9;
        }
        layers
    }

    /// Writes one JSON object per span: `{span, parent, name, start_ns,
    /// end_ns, rep, items}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = match span.parent {
                Some(parent) => parent.to_string(),
                None => "null".to_string(),
            };
            writeln!(
                out,
                "{{\"span\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rep\":{},\"items\":{}}}",
                span.name, span.start_ns, span.end_ns, span.rep, span.items
            )?;
        }
        out.flush()
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer with hand-placed spans: `(parent, name, start, end)`.
    fn tracer_with(spans: &[(Option<u32>, &'static str, u64, u64)]) -> Tracer {
        let mut tracer = Tracer::new(true);
        for &(parent, name, start_ns, end_ns) in spans {
            tracer.spans.push(Span {
                parent,
                name,
                start_ns,
                end_ns,
                rep: 0,
                items: 1,
            });
        }
        tracer
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // rep [0, 100) ⊃ a [10, 40) ⊃ a1 [15, 25); rep ⊃ b [50, 90).
        let tracer = tracer_with(&[
            (None, "rep", 0, 100),
            (Some(0), "a", 10, 40),
            (Some(1), "a1", 15, 25),
            (Some(0), "b", 50, 90),
        ]);
        let layers = tracer.layers(true);
        let ns = |name: &str| (layers[name].self_s * 1e9).round() as u64;
        assert_eq!(ns("rep"), 100 - 30 - 40, "siblings both subtract");
        assert_eq!(ns("a"), 30 - 10, "grandchildren subtract from the child");
        assert_eq!(ns("a1"), 10);
        assert_eq!(ns("b"), 40);
        let total: u64 = ["rep", "a", "a1", "b"].iter().map(|n| ns(n)).sum();
        assert_eq!(total, 100, "self times partition the root");
        assert_eq!((layers["rep"].busy_s * 1e9).round() as u64, 100);
    }

    #[test]
    fn same_name_spans_accumulate_and_children_clip_to_the_parent() {
        let tracer = tracer_with(&[
            (None, "rep", 0, 50),
            (Some(0), "x", 0, 10),
            (Some(0), "x", 20, 30),
            // Recorded from another thread, overhanging the parent's end.
            (Some(0), "y", 40, 60),
        ]);
        let layers = tracer.layers(true);
        assert_eq!(layers["x"].calls, 2);
        assert_eq!(layers["x"].items, 2);
        assert_eq!((layers["x"].busy_s * 1e9).round() as u64, 20);
        assert_eq!((layers["rep"].self_s * 1e9).round() as u64, 50 - 20 - 10);
    }

    #[test]
    fn enter_exit_nest_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true);
        tracer.set_rep(3);
        let outer = tracer.enter("outer");
        tracer.time("inner", 7, || std::thread::sleep(Duration::from_millis(2)));
        let now = Instant::now();
        tracer.record("foreign", now, now, 1);
        tracer.exit(outer, 1);
        assert_eq!(tracer.span_count(), 3);
        let layers = tracer.layers(true);
        assert!(layers["outer"].busy_s >= layers["inner"].busy_s);
        assert!(layers["inner"].busy_s >= 0.002);
        assert_eq!(layers["inner"].items, 7);
        assert_eq!(tracer.spans[1].parent, Some(0));
        assert_eq!(tracer.spans[2].parent, Some(0));
        assert_eq!(tracer.spans[1].rep, 3);

        let mut off = Tracer::new(false);
        let id = off.enter("outer");
        off.time("inner", 1, || ());
        off.exit(id, 1);
        assert_eq!(off.span_count(), 0);

        tracer.set_rep(OUTSIDE_REPS);
        tracer.time("build", 1, || ());
        assert!(!tracer.layers(true).contains_key("build"));
        assert_eq!(tracer.layers(false)["build"].calls, 1);
        assert!(!tracer.layers(false).contains_key("outer"));
    }
}
