//! Exposition: a registry snapshot as JSON and as Prometheus-style text.
//!
//! Both formats render the same [`RegistrySnapshot`], so the service TCP
//! front-end, a sweep store's `status.json`, and the CLI all serve one
//! unified view. The text format follows the Prometheus
//! text-exposition conventions: `# TYPE` lines, sanitized metric names,
//! cumulative `_bucket{le="…"}` lines plus `_sum`/`_count` per histogram.

use serde_json::Value;

use crate::histogram::{bucket_index, HistogramSnapshot, HISTOGRAM_BUCKETS};
use crate::registry::RegistrySnapshot;

/// Maps a dotted metric name onto the Prometheus name grammar
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
pub fn sanitize_metric_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if ok && (i > 0 || !c.is_ascii_digit()) {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn histogram_json(hist: &HistogramSnapshot) -> Value {
    let buckets: Vec<Value> = hist
        .occupied_buckets()
        .into_iter()
        .map(|(low, high, count)| serde_json::json!([low, high, count]))
        .collect();
    serde_json::json!({
        "count": hist.count,
        "sum": hist.sum,
        "max": hist.max,
        "mean": hist.mean(),
        "p50": hist.quantile(0.50),
        "p90": hist.quantile(0.90),
        "p99": hist.quantile(0.99),
        "buckets": Value::from(buckets),
    })
}

/// The snapshot as a JSON object — the `telemetry` field of the service's
/// `metrics` response and of a sweep store's `status.json`.
pub fn snapshot_to_json(snapshot: &RegistrySnapshot) -> Value {
    let mut counters = serde_json::json!({});
    for (name, value) in &snapshot.counters {
        counters[name.as_str()] = Value::from(*value);
    }
    let mut gauges = serde_json::json!({});
    for (name, value) in &snapshot.gauges {
        gauges[name.as_str()] = Value::from(*value);
    }
    let mut histograms = serde_json::json!({});
    for (name, hist) in &snapshot.histograms {
        histograms[name.as_str()] = histogram_json(hist);
    }
    serde_json::json!({
        "uptime_secs": snapshot.uptime_secs,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    })
}

/// Reconstructs a [`RegistrySnapshot`] from [`snapshot_to_json`] output —
/// the wire inverse remote tooling (the loadgen TCP path, the live `--top`
/// renderer) uses to run the local summarisation helpers on a served
/// snapshot. Malformed entries are skipped rather than failing the whole
/// snapshot.
pub fn snapshot_from_json(json: &Value) -> RegistrySnapshot {
    let mut snapshot = RegistrySnapshot {
        uptime_secs: json
            .get("uptime_secs")
            .and_then(Value::as_f64)
            .unwrap_or(0.0),
        ..RegistrySnapshot::default()
    };
    if let Some(counters) = json.get("counters").and_then(Value::as_object) {
        for (name, value) in counters {
            if let Some(value) = value.as_u64() {
                snapshot.counters.insert(name.clone(), value);
            }
        }
    }
    if let Some(gauges) = json.get("gauges").and_then(Value::as_object) {
        for (name, value) in gauges {
            if let Some(value) = value.as_i64() {
                snapshot.gauges.insert(name.clone(), value);
            }
        }
    }
    if let Some(histograms) = json.get("histograms").and_then(Value::as_object) {
        for (name, hist) in histograms {
            let read = |key: &str| hist.get(key).and_then(Value::as_u64).unwrap_or(0);
            let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
            if let Some(list) = hist.get("buckets").and_then(Value::as_array) {
                for entry in list {
                    let Some(triple) = entry.as_array() else {
                        continue;
                    };
                    // `[low, high, count]`: the low edge identifies the
                    // bucket, so occupied-bucket lists round-trip exactly.
                    let low = triple.first().and_then(Value::as_u64);
                    let count = triple.get(2).and_then(Value::as_u64);
                    if let (Some(low), Some(count)) = (low, count) {
                        // Saturating: a peer's counts may sum past u64.
                        let bucket = &mut buckets[bucket_index(low)];
                        *bucket = bucket.saturating_add(count);
                    }
                }
            }
            snapshot.histograms.insert(
                name.clone(),
                HistogramSnapshot {
                    count: read("count"),
                    sum: read("sum"),
                    max: read("max"),
                    buckets,
                },
            );
        }
    }
    snapshot
}

/// The snapshot in the Prometheus text exposition format, with every
/// metric name prefixed by `prefix` (e.g. `qccd_service`).
pub fn snapshot_to_text(snapshot: &RegistrySnapshot, prefix: &str) -> String {
    let prefix = sanitize_metric_name(prefix);
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let name = format!("{prefix}_{}", sanitize_metric_name(name));
        out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
    }
    for (name, value) in &snapshot.gauges {
        let name = format!("{prefix}_{}", sanitize_metric_name(name));
        out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
    }
    for (name, hist) in &snapshot.histograms {
        let name = format!("{prefix}_{}", sanitize_metric_name(name));
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cumulative = 0u64;
        for (_, high, count) in hist.occupied_buckets() {
            cumulative += count;
            out.push_str(&format!("{name}_bucket{{le=\"{high}\"}} {cumulative}\n"));
        }
        out.push_str(&format!(
            "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
            hist.count, hist.sum, hist.count
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_registry() -> Registry {
        let registry = Registry::default();
        registry.counter("service.frames_submitted").add(128);
        registry.gauge("service.queue_depth").set(7);
        registry.histogram("service.latency_us").record_n(100, 10);
        registry
    }

    #[test]
    fn json_exposition_carries_all_metric_kinds() {
        let json = snapshot_to_json(&sample_registry().snapshot());
        assert_eq!(
            json["counters"]["service.frames_submitted"].as_u64(),
            Some(128)
        );
        assert_eq!(json["gauges"]["service.queue_depth"].as_i64(), Some(7));
        let hist = &json["histograms"]["service.latency_us"];
        assert_eq!(hist["count"].as_u64(), Some(10));
        assert!(hist["p50"].as_f64().expect("p50") >= 64.0);
        assert!(json["uptime_secs"].as_f64().is_some());
    }

    #[test]
    fn text_exposition_is_well_formed() {
        let text = snapshot_to_text(&sample_registry().snapshot(), "qccd.service");
        assert!(text.contains("# TYPE qccd_service_service_frames_submitted counter\n"));
        assert!(text.contains("qccd_service_service_frames_submitted 128\n"));
        assert!(text.contains("# TYPE qccd_service_service_queue_depth gauge\n"));
        assert!(text.contains("# TYPE qccd_service_service_latency_us histogram\n"));
        assert!(text.contains("service_latency_us_bucket{le=\"128\"} 10\n"));
        assert!(text.contains("service_latency_us_bucket{le=\"+Inf\"} 10\n"));
        assert!(text.contains("service_latency_us_sum 1000\n"));
        assert!(text.contains("service_latency_us_count 10\n"));
        // Every non-comment line is `name{optional labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.split_once(' ').expect("name value");
            assert!(!name.is_empty() && value.parse::<f64>().is_ok(), "{line}");
            let bare = name.split('{').next().expect("metric name");
            assert!(
                bare.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "{line}"
            );
        }
    }

    #[test]
    fn json_exposition_round_trips_through_snapshot_from_json() {
        let snapshot = sample_registry().snapshot();
        let restored = snapshot_from_json(&snapshot_to_json(&snapshot));
        assert_eq!(restored.counters, snapshot.counters);
        assert_eq!(restored.gauges, snapshot.gauges);
        assert_eq!(restored.histograms, snapshot.histograms);
        // Malformed input degrades to an empty snapshot, not a panic.
        assert!(snapshot_from_json(&serde_json::json!({"counters": 3})).is_empty());
        // Counts summing past u64 saturate instead of overflowing, here and
        // in the quantile read over them.
        let full = serde_json::json!([0, 2, u64::MAX]);
        let wide = serde_json::json!([4, 8, u64::MAX]);
        let restored = snapshot_from_json(&serde_json::json!({"histograms": {
            "same": {"count": 2, "buckets": [full.clone(), full.clone()]},
            "split": {"count": 2, "buckets": [full, wide]},
        }}));
        let same = restored.histogram("same").expect("kept");
        assert_eq!(same.buckets[0], u64::MAX);
        assert!((same.quantile(0.99) - 1.98).abs() < 1e-9);
        let split = restored.histogram("split").expect("kept");
        for q in [0.5, 0.99, 1.0] {
            assert!((0.0..=8.0).contains(&split.quantile(q)));
        }
    }

    #[test]
    fn sanitize_replaces_forbidden_characters() {
        assert_eq!(
            sanitize_metric_name("service.stage.decode"),
            "service_stage_decode"
        );
        assert_eq!(sanitize_metric_name("9lives"), "_lives");
        assert_eq!(sanitize_metric_name("a-b c"), "a_b_c");
    }
}
