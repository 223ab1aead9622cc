//! Runs one workload under the timing rule and assembles its metrics.
//!
//! **Timing rule.** Every gated time sample is preceded by one reference
//! pass (`refkernel`); the reported time is
//! `REF_NOMINAL_S × median_i(t_sample_i / t_ref_i)`. Rep counts are a fixed
//! function of `--seconds`, so counts repeat exactly and two commits do the
//! same work.

use std::collections::BTreeMap;
use std::time::Instant;

use qccd_core::compile_cache;

use crate::refkernel::{RefKernel, REF_NOMINAL_S};
use crate::report::{self, Metric};
use crate::stats;
use crate::trace::{Layer, Tracer, OUTSIDE_REPS};
use crate::workload::{Counts, LayerValues, Workload};

/// Set-up samples per run (median reported).
const SETUP_SAMPLES: usize = 5;
/// Reps run and discarded before the timed ones.
const WARMUP_REPS: u64 = 3;
/// The traced run divides the rep count by this.
const TRACE_REP_DIVISOR: usize = 3;

/// What the command line asks of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
}

/// The result of one run of one workload.
#[derive(Debug)]
pub struct RunReport {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run),
    /// in the order `report` lists them.
    pub metrics: Vec<(Metric, f64)>,
    pub counts: Counts,
    /// Median reference pass of the run, in milliseconds.
    pub ref_pass_ms: f64,
    /// The recorded spans (traced run only).
    pub tracer: Option<Tracer>,
    /// Human-readable per-layer table (traced run only).
    pub table: String,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// `(sample, reference)` second pairs of one series.
#[derive(Default)]
struct Series {
    pairs: Vec<(f64, f64)>,
}

impl Series {
    /// Times `f`, preceded by one reference pass.
    fn sample<R>(&mut self, kernel: &RefKernel, f: impl FnOnce() -> R) -> R {
        let reference = kernel.timed_pass();
        let (result, seconds) = timed(f);
        self.pairs.push((seconds, reference));
        result
    }

    fn normalised_s(&self) -> f64 {
        REF_NOMINAL_S * stats::median_of_ratios(&self.pairs)
    }

    fn raw(&self) -> Vec<f64> {
        self.pairs.iter().map(|pair| pair.0).collect()
    }

    fn references(&self) -> impl Iterator<Item = f64> + '_ {
        self.pairs.iter().map(|pair| pair.1)
    }
}

fn rep_count(workload: &dyn Workload, seconds: u32, divisor: usize) -> u64 {
    let reps = (workload.reps_per_second() * f64::from(seconds)).round() as usize / divisor;
    reps.max(3) as u64
}

/// `VmHWM` of this process in MB (0 where `/proc` is absent).
fn peak_rss_mb() -> f64 {
    crate::process_status("VmHWM:")
        .split_whitespace()
        .next()
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` as the options ask.
pub fn run(workload: &mut dyn Workload, options: RunOptions) -> RunReport {
    let kernel = RefKernel::new();
    workload.prepare(options.seed);
    if options.trace {
        run_traced(workload, options, &kernel)
    } else {
        run_untraced(workload, options, &kernel)
    }
}

/// The gated run: set-up samples, warm-up, timed reps, output check.
fn run_untraced(workload: &mut dyn Workload, options: RunOptions, kernel: &RefKernel) -> RunReport {
    let mut tracer = Tracer::new(false);
    let mut counts = Counts::default();

    // Time to first result, from nothing, several times over.
    let mut setup = Series::default();
    for sample in 0..SETUP_SAMPLES {
        if sample > 0 {
            workload.teardown();
        }
        let outcome = setup.sample(kernel, || {
            compile_cache::shared().clear();
            workload.build(&mut tracer);
            workload.rep(0, &mut tracer)
        });
        counts.add(outcome.ops);
    }

    for index in 0..WARMUP_REPS {
        counts.add(workload.rep(index, &mut tracer).ops);
    }
    let reps = rep_count(workload, options.seconds, 1);
    let mut series = Series::default();
    for index in 0..reps {
        let outcome = series.sample(kernel, || workload.rep(index, &mut tracer));
        counts.add(outcome.ops);
    }

    counts.add(workload.check());
    let (rounds, elapsed_us) = workload.schedule();
    workload.teardown();

    let values = BTreeMap::from([
        ("setup_s", setup.normalised_s()),
        (
            "norm_work_per_s",
            workload.units_per_rep() / series.normalised_s(),
        ),
        ("peak_rss_mb", peak_rss_mb()),
        ("logical_clock_hz", 1e6 * rounds as f64 / elapsed_us),
    ]);
    let references: Vec<f64> = setup.references().chain(series.references()).collect();
    RunReport {
        metrics: report::collect(report::END_TO_END, &values),
        counts,
        ref_pass_ms: 1e3 * stats::median(&references),
        tracer: None,
        table: String::new(),
    }
}

/// The traced run: a third of the reps untraced (for the overhead), the
/// same reps again with spans, then the workload's trace-only segments.
fn run_traced(workload: &mut dyn Workload, options: RunOptions, kernel: &RefKernel) -> RunReport {
    let mut tracer = Tracer::new(true);
    let mut counts = Counts::default();

    tracer.set_rep(OUTSIDE_REPS);
    compile_cache::shared().clear();
    let span = tracer.enter("bench.build");
    workload.build(&mut tracer);
    tracer.exit(span, 1);

    tracer.set_enabled(false);
    for index in 0..WARMUP_REPS {
        counts.add(workload.rep(index, &mut tracer).ops);
    }
    let reps = rep_count(workload, options.seconds, TRACE_REP_DIVISOR);
    let mut plain = Series::default();
    let mut logical_failures = 0;
    for index in 0..reps {
        let outcome = plain.sample(kernel, || workload.rep(index, &mut tracer));
        counts.add(outcome.ops);
        logical_failures += outcome.logical_failures;
    }

    tracer.set_enabled(true);
    let mut traced = Series::default();
    for index in 0..reps {
        tracer.set_rep(index as u32);
        let outcome = traced.sample(kernel, || {
            let span = tracer.enter("bench.rep");
            let outcome = workload.rep(index, &mut tracer);
            tracer.exit(span, 1);
            outcome
        });
        counts.add(outcome.ops);
    }

    let mut values = LayerValues::new();
    tracer.set_rep(OUTSIDE_REPS);
    workload.trace_extras(&mut tracer, &mut values);
    counts.add(workload.check());
    workload.layer_values(&mut values);
    workload.teardown();

    // `.ms` is busy time per traced rep for the spans inside the reps, and
    // per run for those outside (build, trace-only segments).
    let layers = tracer.layers(true);
    let outside = tracer.layers(false);
    let reps_f = reps as f64;
    for (layers, per) in [(&layers, reps_f), (&outside, 1.0)] {
        for (name, layer) in layers {
            if let Some(metric) = report::layer_ms_name(name) {
                values.insert(metric, 1e3 * layer.busy_s / per);
            }
        }
    }
    if let Some(layer) = layers.get("sim.sample_chunk") {
        values.insert("sim.sample_chunk.shots", layer.items as f64 / reps_f);
    }
    if let Some(layer) = layers.get("sweeprun.run_job") {
        // What `run_job` spends outside the point evaluations.
        values.insert("sweeprun.orchestration.ms", 1e3 * layer.self_s / reps_f);
    }
    let programs: Vec<f64> = values
        .iter()
        .filter(|(name, _)| name.starts_with("core.compile."))
        .map(|(_, ms)| ms.ln())
        .collect();
    if !programs.is_empty() {
        values.insert(
            "core.compile.geomean.ms",
            (programs.iter().sum::<f64>() / programs.len() as f64).exp(),
        );
    }

    let plain_raw = plain.raw();
    let plain_p50 = stats::median(&plain_raw);
    let references: Vec<f64> = plain.references().chain(traced.references()).collect();
    let ref_pass_ms = 1e3 * stats::median(&references);
    let (hi_pct, hi) = stats::highest_supported_percentile(&plain_raw).unwrap_or((50.0, plain_p50));
    if let Some(&offline_ms) = values.get("service.offline_decode.ms") {
        // Service throughput over the offline decode's, same shots.
        values.insert("service.offline_ratio", offline_ms / (1e3 * plain_p50));
    }
    values.insert("decoder.logical_failures", logical_failures as f64);
    values.insert("bench.ref_pass.ms", ref_pass_ms);
    values.insert("bench.raw_work_per_s", workload.units_per_rep() / plain_p50);
    values.insert("bench.rep_p50_ms", 1e3 * plain_p50);
    values.insert("bench.rep_hi_ms", 1e3 * hi);
    values.insert("bench.rep_hi_pct", hi_pct);
    values.insert("bench.rep_samples", plain_raw.len() as f64);
    // Normalised, so host drift between the two phases is not booked as
    // tracing overhead.
    values.insert(
        "bench.trace_overhead_share",
        traced.normalised_s() / plain.normalised_s() - 1.0,
    );
    let rep_busy = layers.get("bench.rep").map_or(0.0, |layer| layer.busy_s);
    let rep_self = layers.get("bench.rep").map_or(0.0, |layer| layer.self_s);
    values.insert(
        "bench.span_coverage",
        if rep_busy > 0.0 {
            1.0 - rep_self / rep_busy
        } else {
            0.0
        },
    );

    let table = format!(
        "# inside the reps\n{}# outside the reps (build, trace-only segments), per run\n{}",
        layer_table(&layers, reps_f, rep_busy),
        layer_table(&outside, 1.0, 0.0)
    );
    RunReport {
        metrics: report::collect(report::PER_LAYER, &values),
        counts,
        ref_pass_ms,
        tracer: Some(tracer),
        table,
    }
}

/// The per-layer table: calls, items, busy, self, share of the rep.
fn layer_table(layers: &BTreeMap<&'static str, Layer>, reps: f64, rep_busy_s: f64) -> String {
    let mut rows: Vec<(&str, &Layer)> = layers.iter().map(|(name, layer)| (*name, layer)).collect();
    rows.sort_by(|a, b| b.1.self_s.partial_cmp(&a.1.self_s).expect("finite"));
    let mut out = format!(
        "{:<34} {:>8} {:>12} {:>11} {:>11} {:>7}\n",
        "span", "calls", "items", "busy ms", "self ms", "of rep"
    );
    for (name, layer) in rows {
        let share = if rep_busy_s > 0.0 {
            100.0 * layer.self_s / rep_busy_s
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<34} {:>8} {:>12} {:>11.3} {:>11.3} {:>6.1}%\n",
            name,
            layer.calls,
            layer.items,
            1e3 * layer.busy_s / reps,
            1e3 * layer.self_s / reps,
            share
        ));
    }
    out
}
