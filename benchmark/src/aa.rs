//! `all` and `aa`: full passes, each workload in a child process of its own.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use serde_json::Value;

use crate::report::{GATES, WORKLOADS};
use crate::{stats, Args, DEFAULT_SECONDS, DEFAULT_SEED};

fn child(workload: &str, seed: u64, seconds: u32, trace: bool) -> Command {
    let exe = std::env::current_exe().expect("the running executable has a path");
    let mut command = Command::new(exe);
    command.args([
        "--workload",
        workload,
        "--seed",
        &seed.to_string(),
        "--seconds",
        &seconds.to_string(),
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    command
}

/// One full pass, untraced then traced per workload, printing everything
/// the children print.
pub fn run_all(args: &Args) -> Result<bool, String> {
    args.only(&["seed", "seconds"])?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.get("seconds", DEFAULT_SECONDS)?;
    let mut correct = true;
    for workload in WORKLOADS {
        for trace in [false, true] {
            println!("## {workload} --trace {}", u8::from(trace));
            let status = child(workload, seed, seconds, trace)
                .status()
                .map_err(|e| format!("starting {workload}: {e}"))?;
            correct &= status.success();
        }
    }
    Ok(correct)
}

/// The end-to-end metrics of one untraced child run, by name.
fn measure(workload: &str, seed: u64, seconds: u32) -> Result<BTreeMap<String, f64>, String> {
    let output = child(workload, seed, seconds, false)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(line)
        .map_err(|_| format!("{workload} printed no result line (exit {})", output.status))?;
    if result["correct"].as_bool() != Some(true) {
        return Err(format!("{workload} failed its output check: {line}"));
    }
    let metrics = result["metrics"].as_object().ok_or("no metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(name, metric)| Some((name.clone(), metric["value"].as_f64()?)))
        .collect())
}

/// Two interleaved sets of `--sets` full passes of this same build. Pass
/// `i` of either set runs with seed `seed + i`, as the acceptance driver's
/// two sets do. Fails if, for any workload and metric, the medians differ
/// by more than the metric's bound, a set's interquartile spread exceeds it,
/// or a metric that is exact for a commit differs at all.
pub fn run_aa(args: &Args) -> Result<bool, String> {
    args.only(&["sets", "seed", "seconds"])?;
    let sets: u64 = args.get("sets", 5)?;
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.get("seconds", DEFAULT_SECONDS)?;
    if sets < 2 {
        return Err("`--sets` must be at least 2".to_string());
    }

    // samples[workload][metric][set] = values over the passes.
    let mut samples: BTreeMap<(&str, String), [Vec<f64>; 2]> = BTreeMap::new();
    for pass in 0..sets {
        for set in 0..2 {
            for workload in WORKLOADS {
                eprintln!("pass {pass} set {}: {workload}", ["A", "B"][set]);
                for (metric, value) in measure(workload, seed + pass, seconds)? {
                    samples.entry((workload, metric)).or_default()[set].push(value);
                }
            }
        }
    }

    println!(
        "{:<40} {:>14} {:>14} {:>8} {:>8} {:>8} {:>6}",
        "workload/metric", "median A", "median B", "B worse", "spread A", "spread B", "bound"
    );
    let mut within = true;
    for workload in WORKLOADS {
        for gate in GATES {
            let [a, b] = &samples[&(workload, gate.metric.0.to_string())];
            let (median_a, median_b) = (stats::median(a), stats::median(b));
            // How much worse the second set reads than the first (negative:
            // better); an A/A comparison has to stay inside the bound both
            // ways.
            let sign = if gate.higher_is_better { -1.0 } else { 1.0 };
            let worse = sign * (median_b - median_a) / median_a;
            let (spread_a, spread_b) = (stats::spread(a), stats::spread(b));
            // Set-up time is exempt from the spread rule, not from the
            // median rule (it is the metric with the fewest samples).
            let spread_ok = gate.metric.0 == "setup_s" || spread_a.max(spread_b) <= gate.bound;
            let exact_ok =
                gate.metric.0 != "logical_clock_hz" || a.iter().chain(b).all(|v| *v == a[0]);
            let ok = worse.abs() <= gate.bound && spread_ok && exact_ok;
            within &= ok;
            println!(
                "{:<40} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>7.2}% {:>5.0}%{}",
                format!("{workload}/{}", gate.metric.0),
                median_a,
                median_b,
                100.0 * worse,
                100.0 * spread_a,
                100.0 * spread_b,
                100.0 * gate.bound,
                if ok { "" } else { "  <-- outside" }
            );
        }
    }
    Ok(within)
}
