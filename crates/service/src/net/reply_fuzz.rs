//! Hostile command responses: the client's readers of what a server sends
//! back return an answer and never panic.
//!
//! Three pristine responses are mutated and read back:
//!
//! * a `metrics` object, through `ServiceMetrics::from_json`;
//! * an `open` reply, through `open_reply` (the fields
//!   `NetClient::open_stream` reads: `stream`, `detectors`,
//!   `observables`);
//! * a `telemetry` snapshot, through `snapshot_from_json`, then
//!   `StageBreakdown::from_snapshot` (and its renderers),
//!   `render_dashboard` and every histogram's `mean` and `quantile`.
//!
//! The case budget is fixed: every member or array entry at any depth is
//! dropped or replaced by each of `HOSTILE` (wrong types, huge, negative
//! and fractional numbers, nested junk); every histogram's bucket list is
//! replaced by each of `BUCKETS` (`low` edges above 2^63, counts summing
//! past `u64::MAX`); and `RANDOM` seeded random JSON trees stand in for
//! each whole response and each of its top-level members.

use std::panic::{catch_unwind, AssertUnwindSafe};

use qccd_telemetry::{render_dashboard, snapshot_from_json, snapshot_to_json, Registry};
use serde_json::{json, Value};

use super::open_reply;
use crate::metrics::{ServiceMetrics, StageBreakdown};

/// Raw JSON texts a member is replaced by.
const HOSTILE: [&str; 15] = [
    "null",
    "true",
    "\"text\"",
    "-1",
    "-9223372036854775808",
    "0.5",
    "1e308",
    "-1e308",
    "18446744073709551615",
    "18446744073709551616",
    "[]",
    "{}",
    "[[[{\"a\": [1, {\"b\": null}]}]]]",
    "{\"count\": {\"count\": [-1, 0.5]}}",
    "[18446744073709551615, 18446744073709551615, 18446744073709551615]",
];

/// Raw JSON texts a histogram's `buckets` list is replaced by.
const BUCKETS: [&str; 6] = [
    "[[9223372036854775809, 18446744073709551615, 3]]",
    "[[18446744073709551615, 18446744073709551615, 18446744073709551615]]",
    "[[0, 2, 18446744073709551615], [2, 4, 18446744073709551615], [4, 8, 2]]",
    "[[16, 32, 18446744073709551615], [16, 32, 18446744073709551615]]",
    "[[-1, 2, 5], [2, -4, -5], [0.5, 1, 1], [4], [], 7, null]",
    "[[9223372036854775808, 0, 1], [1, 2, 18446744073709551616]]",
];

/// Random trees per response and per top-level member.
const RANDOM: usize = 200;

/// SplitMix64 over a fixed seed: every run sees the same cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random JSON tree of at most `depth` levels whose object keys come
/// from `keys`, so that it hits the names the readers look up.
fn random_value(rng: &mut Rng, depth: usize, keys: &[&str]) -> Value {
    match rng.below(if depth == 0 { 6 } else { 8 }) {
        0 => Value::Null,
        1 => Value::from(rng.below(2) == 0),
        2 => Value::from(rng.next()),
        3 => Value::from(-(rng.below(1 << 20) as i64) - 1),
        4 => Value::from((rng.next() as f64) * if rng.below(2) == 0 { 1e-3 } else { 1e3 }),
        5 => Value::from(keys[rng.below(keys.len())]),
        6 => Value::from(
            (0..rng.below(4))
                .map(|_| random_value(rng, depth - 1, keys))
                .collect::<Vec<_>>(),
        ),
        _ => {
            let mut object = json!({});
            for _ in 0..rng.below(5) {
                let key = keys[rng.below(keys.len())];
                object[key] = random_value(rng, depth - 1, keys);
            }
            object
        }
    }
}

/// Number of object members and array entries in `doc`, at any depth.
fn positions(doc: &Value) -> usize {
    match doc {
        Value::Object(map) => map.values().map(|v| 1 + positions(v)).sum(),
        Value::Array(items) => items.iter().map(|v| 1 + positions(v)).sum(),
        _ => 0,
    }
}

/// Drops (`None`) or replaces the member or entry `*left` counts down to,
/// in pre-order; returns whether it was reached.
fn edit(node: &mut Value, left: &mut usize, with: Option<&Value>) -> bool {
    let keys: Vec<String> = match node {
        Value::Object(map) => map.keys().cloned().collect(),
        Value::Array(items) => (0..items.len()).map(|i| i.to_string()).collect(),
        _ => return false,
    };
    for (index, key) in keys.iter().enumerate() {
        if *left == 0 {
            match (node, with) {
                (Value::Object(map), None) => drop(map.remove(key)),
                (Value::Array(items), None) => drop(items.remove(index)),
                (Value::Object(map), Some(value)) => {
                    map.insert(key.clone(), value.clone());
                }
                (Value::Array(items), Some(value)) => items[index] = value.clone(),
                _ => unreachable!("only containers have members"),
            }
            return true;
        }
        *left -= 1;
        let child = match node {
            Value::Object(map) => map.get_mut(key).expect("listed key"),
            Value::Array(items) => &mut items[index],
            _ => unreachable!("only containers have members"),
        };
        if edit(child, left, with) {
            return true;
        }
    }
    false
}

/// The hostile variants of `doc`, with a label each.
fn variants(doc: &Value, keys: &[&str], rng: &mut Rng) -> Vec<(String, Value)> {
    let hostile: Vec<Value> = HOSTILE
        .iter()
        .chain(&BUCKETS)
        .map(|raw| serde_json::from_str(raw).expect("a hostile text parses"))
        .collect();
    let mut out = Vec::new();
    for position in 0..positions(doc) {
        let mut dropped = doc.clone();
        edit(&mut dropped, &mut position.clone(), None);
        out.push((format!("member {position} dropped"), dropped));
        for (raw, value) in HOSTILE.iter().zip(&hostile) {
            let mut replaced = doc.clone();
            edit(&mut replaced, &mut position.clone(), Some(value));
            out.push((format!("member {position} set to {raw}"), replaced));
        }
    }
    if let Some(histograms) = doc.get("histograms").and_then(Value::as_object) {
        for name in histograms.keys() {
            for (raw, value) in BUCKETS.iter().zip(&hostile[HOSTILE.len()..]) {
                let mut replaced = doc.clone();
                replaced["histograms"][name.as_str()]["buckets"] = value.clone();
                out.push((format!("{name} buckets set to {raw}"), replaced));
            }
        }
    }
    for case in 0..RANDOM {
        out.push((format!("random tree {case}"), random_value(rng, 4, keys)));
        if let Some(members) = doc.as_object() {
            for key in members.keys() {
                let mut replaced = doc.clone();
                replaced[key.as_str()] = random_value(rng, 4, keys);
                out.push((format!("random {key} {case}"), replaced));
            }
        }
    }
    out
}

/// Runs `read` on every variant of `doc`; returns the labels it panicked
/// on, and how many variants there were.
fn panics(doc: &Value, keys: &[&str], read: &dyn Fn(&Value)) -> (Vec<String>, usize) {
    let cases = variants(doc, keys, &mut Rng(0x5eed_2026));
    let panicked = cases
        .iter()
        .filter(|(_, value)| catch_unwind(AssertUnwindSafe(|| read(value))).is_err())
        .map(|(label, _)| label.clone())
        .collect();
    (panicked, cases.len())
}

fn read_metrics(value: &Value) {
    let metrics = ServiceMetrics::from_json(value);
    let _ = metrics.to_json();
}

fn read_open(value: &Value) {
    let _ = open_reply(value);
}

fn read_telemetry(value: &Value) {
    let snapshot = snapshot_from_json(value);
    if let Some(stages) = StageBreakdown::from_snapshot(&snapshot) {
        let _ = stages.to_json();
        let _ = stages.render_pretty();
    }
    let _ = render_dashboard(&snapshot, "hostile");
    for histogram in snapshot.histograms.values() {
        let _ = histogram.mean();
        for q in [0.0, 0.5, 0.99, 1.0, -1.0, 2.0, f64::NAN] {
            let _ = histogram.quantile(q);
        }
    }
}

/// A served `telemetry` snapshot: the three stages a `StageBreakdown`
/// reads, a gauge and a histogram with a sample in the top bucket.
fn pristine_telemetry() -> Value {
    let registry = Registry::default();
    for (stage, micros) in [("batcher_wait", 40), ("decode", 900), ("delivery", 3)] {
        let name = format!("service.stage.{stage}");
        registry.counter(&format!("{name}_calls")).add(5);
        registry.counter(&format!("{name}_items")).add(320);
        registry
            .histogram(&format!("{name}_us"))
            .record_n(micros, 5);
    }
    registry.gauge("service.queue_depth").set(3);
    registry.histogram("service.latency_us").record(u64::MAX);
    snapshot_to_json(&registry.snapshot())
}

#[test]
fn hostile_responses_are_read_without_a_panic() {
    let metrics = ServiceMetrics {
        streams_open: 2,
        frames_submitted: 640,
        frames_completed: 576,
        queue_depth: 64,
        words_flushed: 9,
        full_word_flushes: 8,
        deadline_flushes: 1,
        close_flushes: 0,
        shots_per_sec: 1.5e5,
        p50_latency_us: 120.0,
        p99_latency_us: 900.0,
    }
    .to_json();
    let metric_keys: Vec<&str> = metrics
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    let open = json!({"ok": true, "stream": 7, "detectors": 72, "observables": 1});
    assert_eq!(open_reply(&open), Ok((7, 72, 1)));
    let telemetry = pristine_telemetry();
    assert!(
        StageBreakdown::from_snapshot(&snapshot_from_json(&telemetry)).is_some(),
        "the pristine snapshot carries every stage"
    );
    let telemetry_keys = [
        "uptime_secs",
        "counters",
        "gauges",
        "histograms",
        "count",
        "sum",
        "max",
        "buckets",
        "service.stage.decode_us",
        "service.stage.decode_calls",
    ];

    let mut panicked = Vec::new();
    let mut cases = 0;
    for (doc, keys, read) in [
        (&metrics, &metric_keys[..], &read_metrics as &dyn Fn(&Value)),
        (
            &open,
            &["ok", "stream", "detectors", "observables", "error"][..],
            &read_open,
        ),
        (&telemetry, &telemetry_keys[..], &read_telemetry),
    ] {
        let (found, count) = panics(doc, keys, read);
        panicked.extend(found);
        cases += count;
    }
    assert!(cases > 5_000, "only {cases} cases");
    assert!(panicked.is_empty(), "readers panicked on {panicked:#?}");
}

#[test]
fn open_replies_outside_the_mask_or_the_integer_range_are_refused() {
    let reply = |observables: &str, detectors: &str| {
        let text = format!(
            "{{\"ok\": true, \"stream\": 1, \"observables\": {observables}, \"detectors\": {detectors}}}"
        );
        open_reply(&serde_json::from_str(&text).expect("parses"))
    };
    assert_eq!(reply("64", "1"), Ok((1, 1, 64)));
    assert!(reply("65", "1").is_err());
    assert!(reply("-1", "1").is_err());
    assert!(reply("1", "18446744073709551616").is_err());
}
