//! The repository benchmark. See `README.md` beside this package.
//!
//! ```text
//! qccd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! qccd-benchmark all [--seed <n>] [--seconds <s>]
//! qccd-benchmark aa  [--sets <N>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload in this process and ends its standard
//! output with the result line. `all` runs every workload untraced and
//! traced, each in a child process of its own (so peak memory is per
//! workload), and prints every metric. `aa` compares two interleaved sets of
//! full untraced passes of this same build against the bounds.

mod aa;
mod driver;
mod refkernel;
mod report;
mod stats;
mod trace;
mod workload;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serde_json::Value;

use driver::RunOptions;

const DEFAULT_SEED: u64 = 2026;
const DEFAULT_SECONDS: u32 = 10;

/// The build's target directory (the executable sits in `<target>/release`):
/// the one place inside the checkout the benchmark writes to.
fn target_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| PathBuf::from("."))
}

/// File-system type holding `path`, from the longest matching mount point.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount).then_some((mount.len(), kind))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".to_string(), |(_, kind)| kind.to_string())
}

/// The `key:` line of `/proc/self/status`, trimmed.
fn process_status(key: &str) -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|line| line.starts_with(key))?;
            Some(line[key.len()..].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The run header: what the numbers were measured on.
fn header(seed: u64, seconds: u32, ref_pass_ms: f64) -> Value {
    let nproc = std::fs::read_to_string("/proc/cpuinfo").map_or(0, |info| {
        info.lines().filter(|l| l.starts_with("processor")).count()
    });
    serde_json::json!({
        "header": {
            "nproc": nproc as u64,
            "cpus_allowed": process_status("Cpus_allowed_list:"),
            "malloc_arena_max": std::env::var("MALLOC_ARENA_MAX")
                .unwrap_or_else(|_| "unset".to_string()),
            "rustc": env!("QCCD_BENCHMARK_RUSTC"),
            "git_describe": qccd_bench::artifact::git_describe()
                .unwrap_or_else(|| "unknown".to_string()),
            "seed": seed,
            "seconds": u64::from(seconds),
            "ref_nominal_s": refkernel::REF_NOMINAL_S,
            "ref_pass_ms": ref_pass_ms,
            "store_filesystem": filesystem_of(&target_dir()),
            "note": "rayon and criterion are the vendored shims: parallel iterators \
                     split eagerly into one block per thread, no work stealing",
        }
    })
}

/// `--key value` pairs after the subcommand.
struct Args(Vec<(String, String)>);

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut pairs = Vec::new();
        let mut iter = args.iter();
        while let Some(key) = iter.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{key}`"))?;
            let value = iter
                .next()
                .ok_or_else(|| format!("`{key}` needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Args(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(key, _)| key == name) {
            Some((_, value)) => value
                .parse()
                .map_err(|_| format!("`--{name} {value}` is not valid")),
            None => Ok(default),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .0
            .iter()
            .find(|(key, _)| !allowed.contains(&key.as_str()))
        {
            Some((key, _)) => Err(format!("unknown option `--{key}`")),
            None => Ok(()),
        }
    }
}

/// Runs one workload in this process; the result line is printed last.
fn run_one(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace"])?;
    let name: String = args.get("workload", String::new())?;
    let options = RunOptions {
        seed: args.get("seed", DEFAULT_SEED)?,
        seconds: args.get("seconds", DEFAULT_SECONDS)?,
        trace: args.get::<u8>("trace", 0)? != 0,
    };
    if !(1..=60).contains(&options.seconds) {
        return Err("`--seconds` must be within 1..=60".to_string());
    }
    let target = target_dir();
    let mut workload = workloads::by_name(&name, &target).ok_or_else(|| {
        format!(
            "unknown workload `{name}`; one of {}",
            report::WORKLOADS.join(", ")
        )
    })?;
    let report = driver::run(workload.as_mut(), options);

    println!(
        "{}",
        header(options.seed, options.seconds, report.ref_pass_ms)
    );
    if let Some(tracer) = &report.tracer {
        let path = target.join(format!("trace-{name}.jsonl"));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!(
            "# {} spans written to {}",
            tracer.span_count(),
            path.display()
        );
        print!("{}", report.table);
    }
    for &((metric, unit), value) in &report.metrics {
        println!("{name}/{metric} = {value} {unit}");
    }
    println!("{}", report::result_line(&report));
    Ok(report.counts.failed == 0)
}

fn usage() -> String {
    format!(
        "usage: qccd-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         qccd-benchmark all [--seed <n>] [--seconds <s>]\n       \
         qccd-benchmark aa [--sets <N>] [--seed <n>] [--seconds <s>]\n\
         workloads: {}",
        report::WORKLOADS.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => Args::parse(&args[1..]).and_then(|args| aa::run_all(&args)),
        Some("aa") => Args::parse(&args[1..]).and_then(|args| aa::run_aa(&args)),
        Some(_) => Args::parse(&args).and_then(|args| run_one(&args)),
        None => Err(usage()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
