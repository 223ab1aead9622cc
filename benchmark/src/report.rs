//! The metric names the benchmark prints — the same lists `BENCHMARK.json`
//! declares (a unit test compares them) — and the output lines.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::driver::RunReport;

/// A metric's name and unit.
pub type Metric = (&'static str, &'static str);

/// The six workloads, in the order a full pass runs them.
pub const WORKLOADS: [&str; 6] = [
    "compile_paper_grid",
    "ler_noisy_d5",
    "ler_quiet_d7",
    "sweep_fig10_cold",
    "serve_inproc_quiet",
    "serve_tcp_packed",
];

/// A gated metric: which direction is better and the share of the parent's
/// median by which it may get worse.
#[derive(Debug, Clone, Copy)]
pub struct Gate {
    pub metric: Metric,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// End-to-end metrics: what `--trace 0` prints, for every workload. Times
/// are speed-normalised (see `driver`).
pub const GATES: [Gate; 4] = [
    // Time to first result: build every program object from nothing and
    // run one rep; median of five.
    Gate {
        metric: ("setup_s", "s"),
        higher_is_better: false,
        bound: 0.25,
    },
    // Units per rep over the normalised median rep time.
    Gate {
        metric: ("norm_work_per_s", "units/s"),
        higher_is_better: true,
        bound: 0.25,
    },
    // `VmHWM` when the workload's process ends.
    Gate {
        metric: ("peak_rss_mb", "MB"),
        higher_is_better: false,
        bound: 0.08,
    },
    // QEC rounds per simulated second over the memory-experiment programs
    // the workload compiles: the paper's logical clock speed. Exact for a
    // commit; a change to host speed must leave it where it was.
    Gate {
        metric: ("logical_clock_hz", "Hz"),
        higher_is_better: true,
        bound: 0.01,
    },
];

/// The names and units of [`GATES`].
pub const END_TO_END: &[Metric] = &[
    GATES[0].metric,
    GATES[1].metric,
    GATES[2].metric,
    GATES[3].metric,
];

/// Per-layer metrics: what `--trace 1` prints, for every workload (0 where
/// the workload never enters the layer).
pub const PER_LAYER: &[Metric] = &[
    // Compiler passes, called in `compile_circuit`'s order.
    ("qec.memory_experiment.ms", "ms"),
    ("hardware.device_for.ms", "ms"),
    ("core.map.ms", "ms"),
    ("core.route.ms", "ms"),
    ("core.schedule.ms", "ms"),
    ("core.lower.ms", "ms"),
    ("core.compile.grid_c2_d3.ms", "ms"),
    ("core.compile.grid_c2_d5.ms", "ms"),
    ("core.compile.grid_c2_d7.ms", "ms"),
    ("core.compile.grid_c5_d5.ms", "ms"),
    ("core.compile.grid_c12_d5.ms", "ms"),
    ("core.compile.switch_c2_d5.ms", "ms"),
    ("core.compile.linear_c5_d3.ms", "ms"),
    ("core.compile.geomean.ms", "ms"),
    ("core.routed_ops", "count"),
    ("core.movement_ops", "count"),
    ("core.noisy_ops", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    // Sampling and decoding of an LER point.
    ("sim.dem.ms", "ms"),
    ("decoder.graph_build.ms", "ms"),
    ("decoder.memo_warm.ms", "ms"),
    ("sim.sample_chunk.ms", "ms"),
    ("sim.sample_chunk.shots", "count"),
    ("sim.fired_shot_share", "ratio"),
    ("decoder.decode_batch.ms", "ms"),
    ("decoder.fold.ms", "ms"),
    ("decoder.estimate_overhead.ms", "ms"),
    ("decoder.quiet_words", "count"),
    ("decoder.sparse_words", "count"),
    ("decoder.dense_words", "count"),
    ("decoder.uncacheable", "count"),
    ("decoder.cluster_conflicts", "count"),
    ("decoder.memo_hit_share", "ratio"),
    ("decoder.dense_hit_share", "ratio"),
    ("decoder.logical_failures", "count"),
    // The decode service, in process.
    ("service.program_build.ms", "ms"),
    ("service.open_stream.ms", "ms"),
    ("service.submit.ms", "ms"),
    ("service.drain_wait.ms", "ms"),
    ("service.close.ms", "ms"),
    ("service.offline_decode.ms", "ms"),
    ("service.offline_ratio", "ratio"),
    ("service.full_word_flushes", "count"),
    ("service.deadline_flushes", "count"),
    ("service.close_flushes", "count"),
    ("telemetry.snapshot.ms", "ms"),
    // The JSON-lines wire in front of it.
    ("service.net.connect.ms", "ms"),
    ("service.net.open_stream.ms", "ms"),
    ("service.net.submit.ms", "ms"),
    ("service.net.protocol_errors", "count"),
    // The open-loop segment (fixed schedule, timed from the due time).
    ("service.latency_p50_us", "us"),
    ("service.latency_p99_us", "us"),
    ("service.late_share", "ratio"),
    ("loadgen.lag_p99_us", "us"),
    // The sweep runner.
    ("bench.spec_point_job.ms", "ms"),
    ("sweeprun.open_store.ms", "ms"),
    ("sweeprun.run_job.ms", "ms"),
    ("bench.eval_point.ms", "ms"),
    ("sweeprun.orchestration.ms", "ms"),
    ("bench.merge_artifact.ms", "ms"),
    ("sweeprun.requeues", "count"),
    ("sweeprun.retries", "count"),
    // Machine speed and raw wall numbers, for humans; never gated.
    ("bench.ref_pass.ms", "ms"),
    ("bench.raw_work_per_s", "units/s"),
    ("bench.rep_p50_ms", "ms"),
    ("bench.rep_hi_ms", "ms"),
    ("bench.rep_hi_pct", "%"),
    ("bench.rep_samples", "count"),
    ("bench.trace_overhead_share", "ratio"),
    ("bench.span_coverage", "ratio"),
];

/// Span names that carry no `.ms` metric of their own.
const UNREPORTED_SPANS: [&str; 3] = ["bench.rep", "bench.build", "bench.open_loop"];

/// The `.ms` metric a span name feeds, if any.
pub fn layer_ms_name(span: &str) -> Option<&'static str> {
    if UNREPORTED_SPANS.contains(&span) {
        return None;
    }
    let found = PER_LAYER
        .iter()
        .map(|metric| metric.0)
        .find(|name| name.strip_suffix(".ms") == Some(span));
    assert!(found.is_some(), "span `{span}` has no metric");
    found
}

/// Pairs every metric of `list` with its value (0 when the workload never
/// produced it) and insists nothing outside the list was produced.
pub fn collect(
    list: &'static [Metric],
    values: &BTreeMap<&'static str, f64>,
) -> Vec<(Metric, f64)> {
    for name in values.keys() {
        assert!(
            list.iter().any(|metric| metric.0 == *name),
            "metric `{name}` is not declared"
        );
    }
    list.iter()
        .map(|&metric| (metric, values.get(metric.0).copied().unwrap_or(0.0)))
        .collect()
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(report: &RunReport) -> String {
    let mut metrics = serde_json::Map::new();
    for &((name, unit), value) in &report.metrics {
        metrics.insert(
            name.to_string(),
            serde_json::json!({ "value": value, "unit": unit }),
        );
    }
    serde_json::json!({
        "correct": report.counts.failed == 0,
        "attempted": report.counts.attempted,
        "failed": report.counts.failed,
        "metrics": Value::Object(metrics),
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Counts;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses")
    }

    fn declared(list: &Value) -> Vec<(String, String)> {
        list.as_array()
            .expect("a metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn owned(list: &[Metric]) -> Vec<(String, String)> {
        list.iter()
            .map(|m| (m.0.to_string(), m.1.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_printed_names() {
        let json = benchmark_json();
        assert_eq!(declared(&json["end_to_end"]), owned(END_TO_END));
        for (gate, entry) in GATES
            .iter()
            .zip(json["end_to_end"].as_array().expect("list"))
        {
            assert_eq!(
                entry["bound"].as_f64(),
                Some(gate.bound),
                "{}",
                gate.metric.0
            );
            let better = if gate.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            assert_eq!(entry["better"].as_str(), Some(better), "{}", gate.metric.0);
        }
        assert_eq!(declared(&json["per_layer"]), owned(PER_LAYER));
        let workloads: Vec<&str> = json["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn every_name_is_used_once() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.extend(WORKLOADS);
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
    }

    #[test]
    fn result_line_carries_every_listed_metric_exactly_once() {
        for list in [END_TO_END, PER_LAYER] {
            // A workload that produced one value still prints the whole list.
            let values = BTreeMap::from([(list[0].0, 1.25)]);
            let report = RunReport {
                metrics: collect(list, &values),
                counts: Counts {
                    attempted: 9,
                    failed: 0,
                },
                ref_pass_ms: 9.0,
                tracer: None,
                table: String::new(),
            };
            let line = result_line(&report);
            let parsed: Value = serde_json::from_str(&line).expect("the line is JSON");
            let keys: Vec<&str> = parsed
                .as_object()
                .expect("an object")
                .keys()
                .map(String::as_str)
                .collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(parsed["correct"].as_bool(), Some(true));
            assert_eq!(parsed["attempted"].as_u64(), Some(9));
            let metrics = parsed["metrics"].as_object().expect("metrics");
            assert_eq!(metrics.len(), list.len());
            for &(name, unit) in list {
                assert_eq!(line.matches(&format!("\"{name}\":")).count(), 1);
                assert_eq!(metrics[name]["unit"].as_str(), Some(unit));
            }
            assert_eq!(metrics[list[0].0]["value"].as_f64(), Some(1.25));
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metrics_are_refused() {
        collect(END_TO_END, &BTreeMap::from([("made_up", 1.0)]));
    }

    #[test]
    fn span_names_map_to_their_ms_metric() {
        assert_eq!(layer_ms_name("core.route"), Some("core.route.ms"));
        assert_eq!(layer_ms_name("bench.rep"), None);
    }
}
