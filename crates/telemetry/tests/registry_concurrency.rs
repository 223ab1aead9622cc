//! Registry test battery: concurrent-increment correctness, snapshot-fold
//! determinism, histogram quantile accuracy bounds and the trace sink.

use std::sync::Arc;

use qccd_telemetry::{
    bucket_bounds, bucket_index, quantile_from_counts, Registry, TelemetryConfig,
};

#[test]
fn concurrent_increments_never_lose_a_count() {
    let registry = Registry::default();
    let counter = registry.counter("concurrent.hits");
    let histogram = registry.histogram("concurrent.latency_us");
    let gauge = registry.gauge("concurrent.depth");
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let counter = counter.clone();
            let histogram = histogram.clone();
            let gauge = gauge.clone();
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    counter.inc();
                    histogram.record((t as u64) * 100 + (i % 7));
                    gauge.add(1);
                    gauge.add(-1);
                }
            });
        }
    });
    let snapshot = registry.snapshot();
    assert_eq!(
        snapshot.counter("concurrent.hits"),
        THREADS as u64 * PER_THREAD
    );
    let hist = snapshot
        .histogram("concurrent.latency_us")
        .expect("registered");
    assert_eq!(hist.count, THREADS as u64 * PER_THREAD);
    assert_eq!(snapshot.gauges["concurrent.depth"], 0);
}

#[test]
fn handles_to_the_same_name_share_one_cell() {
    let registry = Registry::default();
    registry.counter("shared.total").add(3);
    registry.counter("shared.total").add(4);
    assert_eq!(registry.snapshot().counter("shared.total"), 7);
    // A clone of the registry observes the same metrics.
    let clone = registry.clone();
    clone.counter("shared.total").inc();
    assert_eq!(registry.snapshot().counter("shared.total"), 8);
}

#[test]
fn snapshot_fold_is_deterministic() {
    // Two registries fed the same values from different thread interleavings
    // fold to identical snapshots (modulo uptime), and snapshotting twice
    // with no writes in between is a fixed point.
    let build = || {
        let registry = Registry::new(TelemetryConfig { sample_every: 1 });
        let counter = registry.counter("det.count");
        let histogram = registry.histogram("det.hist_us");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let counter = counter.clone();
                let histogram = histogram.clone();
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        counter.add(2);
                        histogram.record(i % 1000);
                    }
                });
            }
        });
        registry
    };
    let (a, b) = (build().snapshot(), build().snapshot());
    assert_eq!(a.counters, b.counters);
    assert_eq!(a.gauges, b.gauges);
    assert_eq!(a.histograms, b.histograms);
    let registry = build();
    let first = registry.snapshot();
    let second = registry.snapshot();
    assert_eq!(first.counters, second.counters);
    assert_eq!(first.histograms, second.histograms);
}

#[test]
fn histogram_quantiles_stay_within_the_covering_bucket() {
    // For random-ish multimodal data, every quantile estimate must stay
    // inside the bucket of the true quantile sample — the accuracy bound
    // the log-bucketed scheme promises.
    let registry = Registry::default();
    let histogram = registry.histogram("bounds.hist");
    let mut values: Vec<u64> = Vec::new();
    let mut x = 0x243F_6A88_85A3_08D3u64; // deterministic xorshift
    for _ in 0..10_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = x % 1_000_000;
        values.push(v);
        histogram.record(v);
    }
    values.sort_unstable();
    let snap = registry.snapshot();
    let hist = snap.histogram("bounds.hist").expect("registered");
    for q in [0.01, 0.10, 0.25, 0.50, 0.75, 0.90, 0.99, 1.0] {
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let truth = values[rank - 1];
        let (low, high) = bucket_bounds(bucket_index(truth));
        let estimate = hist.quantile(q);
        assert!(
            estimate >= low as f64 && estimate <= high as f64,
            "q={q}: estimate {estimate} outside [{low}, {high}] of true {truth}"
        );
        // The bucket bound implies a ≤2× relative error for values ≥ 2.
        if truth >= 2 {
            assert!(estimate <= 2.0 * truth as f64 && estimate >= truth as f64 / 2.0);
        }
    }
}

#[test]
fn quantile_from_counts_handles_edge_shapes() {
    assert_eq!(quantile_from_counts(&[], 0.5), 0.0);
    assert_eq!(quantile_from_counts(&[0, 0, 0], 0.5), 0.0);
    // A single sample reports from within its bucket at every quantile.
    let mut counts = vec![0u64; 64];
    counts[bucket_index(1000)] = 1;
    let (low, high) = bucket_bounds(bucket_index(1000));
    for q in [0.0, 0.5, 1.0] {
        let estimate = quantile_from_counts(&counts, q);
        assert!(estimate >= low as f64 && estimate <= high as f64);
    }
}

#[test]
fn trace_sink_receives_sampled_spans() {
    let path =
        std::env::temp_dir().join(format!("qccd-telemetry-trace-{}.jsonl", std::process::id()));
    let registry = Registry::new(TelemetryConfig { sample_every: 1 });
    let sink = Arc::new(qccd_telemetry::TraceSink::create(&path).expect("create sink"));
    registry.set_trace_sink(Arc::clone(&sink));
    let stage = registry.stage("traced.stage");
    for _ in 0..3 {
        stage.start().finish(8);
    }
    sink.flush();
    let text = std::fs::read_to_string(&path).expect("trace file");
    assert_eq!(text.lines().count(), 3);
    for line in text.lines() {
        let event = serde_json::from_str(line).expect("valid json");
        assert_eq!(
            event.get("stage").and_then(|v| v.as_str()),
            Some("traced.stage")
        );
        assert_eq!(event.get("items").and_then(|v| v.as_u64()), Some(8));
    }
    let _ = std::fs::remove_file(&path);
}
