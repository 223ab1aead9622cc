//! The `artifacts` command-line interface.
//!
//! One binary replaces the thirteen hand-wired per-figure binaries:
//!
//! ```text
//! artifacts list                         # every registered spec
//! artifacts show fig09                   # a spec's JSON
//! artifacts run fig09 table2             # run spec(s), pretty tables
//! artifacts run --all --format json --out out/
//! artifacts run --spec sweep.json        # run a user-supplied spec file
//! artifacts sweep run fig10 --store s/   # resumable, point-store-backed run
//! artifacts check out/fig09.json         # artifact schema sanity check
//! ```
//!
//! `--spec` accepts any JSON file in the [`ExperimentSpec`] schema (the
//! format `artifacts show` prints), so external tools can sweep novel
//! architecture grids without recompiling; loaded specs validate before
//! anything runs, and a point store keys them by the same content hash as
//! registry specs.
//!
//! The parsing lives in the library (rather than the binary) so it is unit
//! testable; `src/bin/artifacts.rs` is a two-line shim over [`run`].

use std::fs;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::time::Duration;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qccd_decoder::DecoderKind;
use qccd_service::net::{parse_arch, parse_decoder};
use qccd_service::{
    loadgen, DecodeProgram, DecodeService, LoadgenOptions, NetClient, NetServer, ServiceConfig,
};
use qccd_sweeprun::{
    render_progress_line, render_worker_lines, run_job, CoordinatorConfig, PointJob, PointStore,
    StoreState,
};
use qccd_telemetry::{
    cursor_home, render_dashboard, snapshot_from_json, RegistrySnapshot, TelemetryConfig, TraceSink,
};

use crate::artifact::{validate_artifact_json, Artifact};
use crate::point_job::{merge_artifact, spec_point_job};
use crate::registry::{run_spec, ExperimentRegistry};
use crate::spec::{ExperimentKind, ExperimentSpec};

/// Usage text printed for `--help` and argument errors.
pub const USAGE: &str = "\
usage: artifacts <command> [options]

commands:
  list                     list every registered experiment spec
  show <name>              print a spec as JSON
  run <name>... [options]  run one or more specs (or --all)
  check <file.json>        validate an emitted artifact against the schema
  serve [options]          run the real-time decode service (TCP JSON-lines)
  loadgen [options]        replay sampled syndromes against a decode service
  metrics --addr <host:port> [--text]   scrape a running service's telemetry
  sweep run [options]      run a LER sweep through the resumable point store
  sweep resume [options]   alias of `sweep run` (only missing points recompute)
  sweep status [options]   print a sweep's progress snapshot

run options:
  --all                    run every registered spec
  --spec <file.json>       run a user-supplied spec file (repeatable,
                           combinable with registry names)
  --format <pretty|json|csv>   output format (default: pretty)
  --out <dir>              write artifacts to <dir>/<name>.<ext> instead of stdout

serve options:
  --addr <host:port>       listen address (default: 127.0.0.1:7878)
  --workers <n>            decode worker threads (default: 2)
  --deadline-us <us>       partial-word flush deadline (default: 500)
  --batch-words <n>        64-shot words coalesced per decode job (default: 1)
  --queue-shots <n>        per-stream in-flight bound (default: 4096)
  --no-telemetry           disable stage spans and telemetry exposition
  --sample-every <n>       stage-timing sample period (default: 16; 1 = all)
  --trace-out <file>       stream sampled stage spans as JSON lines

loadgen options:
  --addr <host:port>       drive a remote `artifacts serve` (default mode)
  --in-process             drive an in-process service instead of TCP
  --topology <grid|linear|switch>   architecture under test (default: grid)
  --capacity <n>           trap capacity (default: 2)
  --wiring <standard|wise> wiring method (default: standard)
  --improvement <x>        gate-improvement factor (default: 5.0)
  --distance <d>           code distance (default: 3)
  --decoder <union_find|greedy|exact>   decoder (default: union_find)
  --streams <n>            concurrent syndrome streams (default: 4)
  --connections <n>        TCP connections the streams ride on (default: 1;
                           clamped to the stream count; TCP only)
  --shots <n>              total shots replayed (default: 16384)
  --rate <shots/s>         target submission rate (default: unthrottled)
  --wire <packed|frames>   shot-major 64-shot word blocks (default) or
                           per-shot frames
  --frontier <points>      sweep the throughput/latency frontier: calibrate
                           unthrottled, then replay at <points> fractions of
                           saturation (TCP only)
  --seed <n>               replay sampling seed (default: 2026)
  --no-verify              skip the offline bit-identity check and baseline
  --shutdown               send a shutdown command after the run (TCP only)
  --format <pretty|json>   report format (default: pretty)
  --top                    live telemetry dashboard on stderr during the run
  --trace-out <file>       stream sampled stage spans as JSON lines
                           (in-process only; use `serve --trace-out` for TCP)
  --workers/--deadline-us/--batch-words/--queue-shots   service knobs
                                                        (in-process only)
  --no-telemetry/--sample-every <n>                     telemetry knobs

sweep run/resume options:
  <name> | --spec <file.json>   the LER-sweep spec to run (exactly one)
  --store <dir>            point-store base (default: target/experiments/sweep)
  --local-workers <n>      evaluation threads (default: 1)
  --progress-interval-ms <ms>   progress line / status.json period
                           (default: 2000)
  --quiet                  suppress the live progress line on stderr
  --no-telemetry           disable the run's telemetry registry
  --sample-every <n>       stage-timing sample period (default: 16; 1 = all)
  --format <pretty|json|csv>    merged-artifact format (default: pretty)
  --out <dir>              write the merged artifact to <dir>/<name>.<ext>

sweep status options:
  <name> | --spec <file.json> [--store <dir>]   read the store's status.json
  --format <pretty|json>   summary (incl. per-worker EWMA throughput and
                           last-seen age) or the full snapshot

metrics options:
  --addr <host:port>       a running `artifacts serve` to scrape (required)
  --text                   Prometheus-style text instead of the JSON snapshot";

/// Output format of `artifacts run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned text table with notes and provenance.
    Pretty,
    /// The full artifact JSON (table + data + metadata).
    Json,
    /// The table as CSV.
    Csv,
}

impl OutputFormat {
    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "pretty" => Ok(OutputFormat::Pretty),
            "json" => Ok(OutputFormat::Json),
            "csv" => Ok(OutputFormat::Csv),
            other => Err(format!("unknown format `{other}` (pretty|json|csv)")),
        }
    }

    fn extension(self) -> &'static str {
        match self {
            OutputFormat::Pretty => "txt",
            OutputFormat::Json => "json",
            OutputFormat::Csv => "csv",
        }
    }

    fn render(self, artifact: &Artifact) -> String {
        match self {
            OutputFormat::Pretty => artifact.render_pretty(),
            OutputFormat::Json => serde_json::to_string_pretty(&artifact.to_json())
                .expect("artifact serialization cannot fail"),
            OutputFormat::Csv => artifact.to_csv(),
        }
    }
}

/// Parsed `artifacts run` options.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOptions {
    /// Spec names to run (empty with `all`).
    pub names: Vec<String>,
    /// User-supplied spec files to load and run (`--spec`).
    pub spec_files: Vec<PathBuf>,
    /// Run every registered spec.
    pub all: bool,
    /// Output format.
    pub format: OutputFormat,
    /// Output directory (stdout when absent).
    pub out: Option<PathBuf>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            names: Vec::new(),
            spec_files: Vec::new(),
            all: false,
            format: OutputFormat::Pretty,
            out: None,
        }
    }
}

/// Parses the arguments of `artifacts run` (everything after `run`).
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing values or an empty
/// selection.
pub fn parse_run_options(args: &[String]) -> Result<RunOptions, String> {
    let mut options = RunOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--all" => options.all = true,
            "--spec" => {
                let value = iter.next().ok_or("--spec needs a JSON file path")?;
                options.spec_files.push(PathBuf::from(value));
            }
            "--format" => {
                let value = iter.next().ok_or("--format needs a value")?;
                options.format = OutputFormat::parse(value)?;
            }
            "--out" => {
                let value = iter.next().ok_or("--out needs a directory")?;
                options.out = Some(PathBuf::from(value));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            name => options.names.push(name.to_string()),
        }
    }
    if options.names.is_empty() && options.spec_files.is_empty() && !options.all {
        return Err("nothing to run: name at least one spec, pass --spec, or pass --all".into());
    }
    if options.all && !(options.names.is_empty() && options.spec_files.is_empty()) {
        return Err("--all cannot be combined with explicit names or --spec files".into());
    }
    Ok(options)
}

/// Loads and validates one user-supplied spec file.
///
/// # Errors
///
/// Returns a message naming the file for unreadable paths, invalid JSON,
/// schema violations, and specs that fail [`ExperimentSpec::validate`].
pub fn load_spec_file(path: &std::path::Path) -> Result<ExperimentSpec, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value =
        serde_json::from_str(&text).map_err(|_| format!("{} is not valid JSON", path.display()))?;
    let spec = ExperimentSpec::from_json(&value).map_err(|e| format!("{}: {e}", path.display()))?;
    spec.validate()
        .map_err(|e| format!("{}: invalid spec: {e}", path.display()))?;
    Ok(spec)
}

/// One-line summary of a spec's experiment family, for `artifacts list`.
pub fn kind_summary(spec: &ExperimentSpec) -> &'static str {
    match &spec.kind {
        ExperimentKind::LerSweep(_) => "ler_sweep",
        ExperimentKind::RareEventLer(_) => "rare_event_ler",
        ExperimentKind::TimingSweep(_) => "timing_sweep",
        ExperimentKind::CompilerBounds(_) => "compiler_bounds",
        ExperimentKind::BaselineComparison(_) => "baseline_comparison",
        ExperimentKind::Surgery(_) => "surgery",
        ExperimentKind::DecoderComparison(_) => "decoder_comparison",
        ExperimentKind::ClusteringAblation(_) => "clustering_ablation",
    }
}

/// Parsed `artifacts serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Decode-service tuning.
    pub service: ServiceConfig,
    /// Stream sampled stage spans to this file as JSON lines.
    pub trace_out: Option<PathBuf>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7878".to_string(),
            service: ServiceConfig::default(),
            trace_out: None,
        }
    }
}

fn parse_number<T: std::str::FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse `{value}`"))
}

/// Consumes one service-tuning flag shared by `serve` and `loadgen
/// --in-process`; returns `false` when the flag is not a service flag.
fn parse_service_flag(
    flag: &str,
    iter: &mut std::slice::Iter<'_, String>,
    config: &mut ServiceConfig,
) -> Result<bool, String> {
    match flag {
        "--workers" => *config = config.with_workers(parse_number(flag, iter.next())?),
        "--deadline-us" => {
            *config =
                config.with_flush_deadline(Duration::from_micros(parse_number(flag, iter.next())?));
        }
        "--batch-words" => *config = config.with_max_batch_words(parse_number(flag, iter.next())?),
        "--queue-shots" => {
            *config = config.with_stream_queue_shots(parse_number(flag, iter.next())?);
        }
        "--no-telemetry" => {
            *config = config.with_telemetry(TelemetryConfig::disabled());
        }
        "--sample-every" => {
            let every: u32 = parse_number(flag, iter.next())?;
            if every == 0 {
                return Err("--sample-every must be at least 1".into());
            }
            *config = config.with_telemetry(config.telemetry.with_sample_every(every));
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// Parses the arguments of `artifacts serve` (everything after `serve`).
///
/// # Errors
///
/// Returns a usage message on unknown flags or missing values.
pub fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    let mut options = ServeOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => {
                options.addr = iter.next().ok_or("--addr needs a host:port")?.clone();
            }
            "--trace-out" => {
                let value = iter.next().ok_or("--trace-out needs a file path")?;
                options.trace_out = Some(PathBuf::from(value));
            }
            flag if parse_service_flag(flag, &mut iter, &mut options.service)? => {}
            flag => return Err(format!("unknown serve flag `{flag}`")),
        }
    }
    Ok(options)
}

/// Parsed `artifacts loadgen` options.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadgenCliOptions {
    /// Remote server address (TCP mode).
    pub addr: Option<String>,
    /// Drive an in-process service instead of TCP.
    pub in_process: bool,
    /// Architecture under test (wire vocabulary).
    pub topology: String,
    /// Trap capacity.
    pub capacity: usize,
    /// Wiring method (wire vocabulary).
    pub wiring: String,
    /// Gate-improvement factor.
    pub improvement: f64,
    /// Code distance.
    pub distance: usize,
    /// Decoder.
    pub decoder: DecoderKind,
    /// Replay parameters.
    pub load: LoadgenOptions,
    /// Sweep the throughput/latency frontier with this many throttled
    /// points after an unthrottled calibration run (TCP only).
    pub frontier: Option<usize>,
    /// Send a shutdown command after the run (TCP only).
    pub shutdown: bool,
    /// Emit the report as JSON instead of the pretty summary.
    pub json: bool,
    /// Service tuning (in-process only).
    pub service: ServiceConfig,
    /// Redraw a live telemetry dashboard on stderr during the run.
    pub top: bool,
    /// Stream sampled stage spans to this file (in-process only; a TCP
    /// server traces on its own side via `serve --trace-out`).
    pub trace_out: Option<PathBuf>,
}

impl Default for LoadgenCliOptions {
    fn default() -> Self {
        LoadgenCliOptions {
            addr: None,
            in_process: false,
            topology: "grid".to_string(),
            capacity: 2,
            wiring: "standard".to_string(),
            improvement: 5.0,
            distance: 3,
            decoder: DecoderKind::UnionFind,
            load: LoadgenOptions::default(),
            frontier: None,
            shutdown: false,
            json: false,
            service: ServiceConfig::default(),
            top: false,
            trace_out: None,
        }
    }
}

/// Parses the arguments of `artifacts loadgen` (everything after
/// `loadgen`).
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing values or a missing
/// target (`--addr` or `--in-process`).
pub fn parse_loadgen_options(args: &[String]) -> Result<LoadgenCliOptions, String> {
    let mut options = LoadgenCliOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => options.addr = Some(iter.next().ok_or("--addr needs a host:port")?.clone()),
            "--in-process" => options.in_process = true,
            "--topology" => {
                options.topology = iter.next().ok_or("--topology needs a value")?.clone();
            }
            "--capacity" => options.capacity = parse_number(arg, iter.next())?,
            "--wiring" => options.wiring = iter.next().ok_or("--wiring needs a value")?.clone(),
            "--improvement" => options.improvement = parse_number(arg, iter.next())?,
            "--distance" => options.distance = parse_number(arg, iter.next())?,
            "--decoder" => {
                options.decoder = parse_decoder(iter.next().ok_or("--decoder needs a value")?)?;
            }
            "--streams" => options.load.streams = parse_number(arg, iter.next())?,
            "--connections" => options.load.connections = parse_number(arg, iter.next())?,
            "--shots" => options.load.shots = parse_number(arg, iter.next())?,
            "--rate" => options.load.rate = Some(parse_number(arg, iter.next())?),
            "--wire" => match iter.next().map(String::as_str) {
                Some("packed") => options.load.shot_major = true,
                Some("frames") => options.load.shot_major = false,
                other => return Err(format!("--wire: packed|frames, got {other:?}")),
            },
            "--frontier" => options.frontier = Some(parse_number(arg, iter.next())?),
            "--seed" => options.load.seed = parse_number(arg, iter.next())?,
            "--no-verify" => options.load.verify = false,
            "--shutdown" => options.shutdown = true,
            "--format" => match iter.next().map(String::as_str) {
                Some("pretty") => options.json = false,
                Some("json") => options.json = true,
                other => return Err(format!("--format: pretty|json, got {other:?}")),
            },
            "--top" => options.top = true,
            "--trace-out" => {
                let value = iter.next().ok_or("--trace-out needs a file path")?;
                options.trace_out = Some(PathBuf::from(value));
            }
            flag if parse_service_flag(flag, &mut iter, &mut options.service)? => {}
            flag => return Err(format!("unknown loadgen flag `{flag}`")),
        }
    }
    if options.addr.is_none() && !options.in_process {
        return Err("loadgen needs a target: --addr <host:port> or --in-process".into());
    }
    if options.addr.is_some() && options.in_process {
        return Err("--addr and --in-process are mutually exclusive".into());
    }
    if options.distance < 2 {
        return Err("--distance must be at least 2".into());
    }
    if options.in_process && options.frontier.is_some() {
        return Err("--frontier needs a TCP target (--addr)".into());
    }
    if options.in_process && options.load.connections > 1 {
        return Err("--connections needs a TCP target (--addr)".into());
    }
    if options.frontier == Some(0) {
        return Err("--frontier needs at least 1 point".into());
    }
    if matches!(options.load.rate, Some(rate) if !(rate.is_finite() && rate > 0.0)) {
        return Err("--rate must be a finite positive number of shots/s".into());
    }
    if options.trace_out.is_some() && !options.in_process {
        return Err(
            "--trace-out needs --in-process (a TCP server traces via `serve --trace-out`)".into(),
        );
    }
    if options.top && options.frontier.is_some() {
        return Err("--top cannot run during a --frontier sweep".into());
    }
    Ok(options)
}

/// Parsed `artifacts sweep run` / `sweep resume` options.
#[derive(Debug)]
pub struct SweepRunOptions {
    /// Registry spec name (mutually exclusive with `spec_file`).
    pub name: Option<String>,
    /// User-supplied spec file (mutually exclusive with `name`).
    pub spec_file: Option<PathBuf>,
    /// Point-store base directory.
    pub store: PathBuf,
    /// Evaluation threads.
    pub local_workers: usize,
    /// Progress line / `status.json` period.
    pub progress_interval: Duration,
    /// Suppress the live progress line on stderr.
    pub quiet: bool,
    /// The run's telemetry registry configuration.
    pub telemetry: TelemetryConfig,
    /// Merged-artifact output format.
    pub format: OutputFormat,
    /// Output directory for the merged artifact (stdout when absent).
    pub out: Option<PathBuf>,
}

impl Default for SweepRunOptions {
    fn default() -> Self {
        SweepRunOptions {
            name: None,
            spec_file: None,
            store: PathBuf::from("target/experiments/sweep"),
            local_workers: 1,
            progress_interval: Duration::from_millis(2000),
            quiet: false,
            telemetry: TelemetryConfig::default(),
            format: OutputFormat::Pretty,
            out: None,
        }
    }
}

/// Parses the arguments of `artifacts sweep run` / `sweep resume`.
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing values, an empty or
/// ambiguous spec selection or no evaluation threads.
pub fn parse_sweep_run_options(args: &[String]) -> Result<SweepRunOptions, String> {
    let mut options = SweepRunOptions::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--spec" => {
                let value = iter.next().ok_or("--spec needs a JSON file path")?;
                options.spec_file = Some(PathBuf::from(value));
            }
            "--store" => {
                let value = iter.next().ok_or("--store needs a directory")?;
                options.store = PathBuf::from(value);
            }
            "--local-workers" => options.local_workers = parse_number(arg, iter.next())?,
            "--progress-interval-ms" => {
                options.progress_interval = Duration::from_millis(parse_number(arg, iter.next())?);
            }
            "--quiet" => options.quiet = true,
            "--no-telemetry" => options.telemetry = TelemetryConfig::disabled(),
            "--sample-every" => {
                let every: u32 = parse_number(arg, iter.next())?;
                if every == 0 {
                    return Err("--sample-every must be at least 1".into());
                }
                options.telemetry = options.telemetry.with_sample_every(every);
            }
            "--format" => {
                let value = iter.next().ok_or("--format needs a value")?;
                options.format = OutputFormat::parse(value)?;
            }
            "--out" => {
                let value = iter.next().ok_or("--out needs a directory")?;
                options.out = Some(PathBuf::from(value));
            }
            flag if flag.starts_with("--") => return Err(format!("unknown sweep flag `{flag}`")),
            name => {
                if options.name.is_some() {
                    return Err("sweep runs exactly one spec at a time".into());
                }
                options.name = Some(name.to_string());
            }
        }
    }
    if options.name.is_some() == options.spec_file.is_some() {
        return Err("sweep needs exactly one spec: a registry name or --spec <file>".into());
    }
    if options.local_workers == 0 {
        return Err("--local-workers must be at least 1".into());
    }
    Ok(options)
}

/// Parsed `artifacts sweep status` options.
#[derive(Debug)]
pub struct SweepStatusOptions {
    /// Registry spec name locating the store.
    pub name: Option<String>,
    /// Spec file locating the store.
    pub spec_file: Option<PathBuf>,
    /// Point-store base directory.
    pub store: PathBuf,
    /// Print the full JSON snapshot instead of the one-line summary.
    pub json: bool,
}

/// Parses the arguments of `artifacts sweep status`.
///
/// # Errors
///
/// Returns a usage message on unknown flags, missing values, or not
/// exactly one spec.
pub fn parse_sweep_status_options(args: &[String]) -> Result<SweepStatusOptions, String> {
    let mut options = SweepStatusOptions {
        name: None,
        spec_file: None,
        store: PathBuf::from("target/experiments/sweep"),
        json: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--spec" => {
                let value = iter.next().ok_or("--spec needs a JSON file path")?;
                options.spec_file = Some(PathBuf::from(value));
            }
            "--store" => {
                let value = iter.next().ok_or("--store needs a directory")?;
                options.store = PathBuf::from(value);
            }
            "--format" => match iter.next().map(String::as_str) {
                Some("pretty") => options.json = false,
                Some("json") => options.json = true,
                other => return Err(format!("--format: pretty|json, got {other:?}")),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown status flag `{flag}`")),
            name => {
                if options.name.is_some() {
                    return Err("status takes one spec name".into());
                }
                options.name = Some(name.to_string());
            }
        }
    }
    if options.name.is_some() == options.spec_file.is_some() {
        return Err("status needs exactly one spec: a registry name or --spec <file>".into());
    }
    Ok(options)
}

/// Writes a rendered artifact to `<out>/<name>.<ext>` or to `stdout`. A
/// reader that closed the pipe early (`artifacts run fig10 | head`) has
/// everything it asked for, so a broken pipe is success.
fn emit_rendered(
    name: &str,
    rendered: &str,
    format: OutputFormat,
    out: &Option<PathBuf>,
    stdout: &mut impl Write,
) -> Result<(), String> {
    let printed = match out {
        Some(dir) => {
            fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
            let path = dir.join(format!("{name}.{}", format.extension()));
            fs::write(&path, rendered).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            writeln!(stdout, "(wrote {})", path.display())
        }
        None => writeln!(stdout, "{rendered}"),
    };
    match printed {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write stdout: {e}")),
        _ => Ok(()),
    }
}

/// Resolves the single spec a sweep subcommand names.
fn resolve_sweep_spec(
    name: &Option<String>,
    spec_file: &Option<PathBuf>,
    registry: &ExperimentRegistry,
) -> Result<ExperimentSpec, String> {
    match (name, spec_file) {
        (Some(name), None) => registry
            .get(name)
            .cloned()
            .ok_or_else(|| format!("unknown experiment `{name}` (try `artifacts list`)")),
        (None, Some(path)) => load_spec_file(path),
        _ => Err("sweep needs exactly one spec: a registry name or --spec <file>".into()),
    }
}

fn sweep_run_command(
    options: SweepRunOptions,
    registry: &ExperimentRegistry,
) -> Result<(), String> {
    let spec = resolve_sweep_spec(&options.name, &options.spec_file, registry)?;
    let job = spec_point_job(&spec)?;
    let (store, state) = PointStore::open(&options.store, &job.descriptor(), job.seed_table())?;
    if state == StoreState::Resumed {
        println!(
            "resuming sweep `{}` at {}: {} of {} points already done",
            spec.name,
            store.root().display(),
            store.done_count(),
            store.num_points(),
        );
    } else {
        println!(
            "sweep `{}`: {} points, store {}",
            spec.name,
            store.num_points(),
            store.root().display(),
        );
    }
    let summary = run_job(
        &job,
        &store,
        CoordinatorConfig {
            local_workers: options.local_workers,
            progress_interval: options.progress_interval,
            quiet: options.quiet,
            telemetry: options.telemetry,
        },
    )?;
    println!(
        "sweep `{}`: {} computed, {} resumed, {} failed in {:.1}s (retries {})",
        spec.name,
        summary.computed,
        summary.resumed,
        summary.progress.failed,
        summary.elapsed.as_secs_f64(),
        summary.progress.counters.retries,
    );
    if summary.progress.failed > 0 {
        return Err(format!(
            "{} points failed terminally (see {}); fix the cause and `sweep resume`",
            summary.progress.failed,
            store.root().join("failed").display(),
        ));
    }
    let artifact = merge_artifact(&spec, &store)?;
    emit_rendered(
        &spec.name,
        &options.format.render(&artifact),
        options.format,
        &options.out,
        &mut std::io::stdout().lock(),
    )
}

fn sweep_status_command(
    options: &SweepStatusOptions,
    registry: &ExperimentRegistry,
) -> Result<(), String> {
    let emit = |snapshot: &serde_json::Value| {
        if options.json {
            println!(
                "{}",
                serde_json::to_string_pretty(snapshot).expect("snapshot serialization cannot fail")
            );
        } else {
            println!("{}", render_progress_line(snapshot));
            for line in render_worker_lines(snapshot) {
                println!("{line}");
            }
        }
    };
    let spec = resolve_sweep_spec(&options.name, &options.spec_file, registry)?;
    let job = spec_point_job(&spec)?;
    let (store, _) = PointStore::open(&options.store, &job.descriptor(), job.seed_table())?;
    match store.read_status() {
        Some(snapshot) => emit(&snapshot),
        None => println!(
            "no status snapshot yet: {}/{} points on disk, {} failed ({})",
            store.done_count(),
            store.num_points(),
            store.failures().len(),
            store.root().display(),
        ),
    }
    Ok(())
}

fn sweep_command(args: &[String], registry: &ExperimentRegistry) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") | Some("resume") => {
            sweep_run_command(parse_sweep_run_options(&args[1..])?, registry)
        }
        Some("status") => sweep_status_command(&parse_sweep_status_options(&args[1..])?, registry),
        other => Err(format!(
            "sweep needs an action (run|resume|status), got {other:?}"
        )),
    }
}

fn serve_command(options: &ServeOptions) -> Result<(), String> {
    let server = NetServer::bind(&options.addr, options.service)
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("cannot resolve bound address: {e}"))?;
    if let Some(path) = &options.trace_out {
        let sink = TraceSink::create(path)
            .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?;
        server.service().telemetry().set_trace_sink(Arc::new(sink));
        println!("tracing sampled stage spans to {}", path.display());
    }
    println!("decode service listening on {addr} ({:?})", options.service);
    server.run().map_err(|e| e.to_string())
}

/// Redraws the live telemetry dashboard on stderr every 500 ms until `stop`
/// is set — the loadgen `--top` mode.
fn spawn_top_renderer(
    stop: Arc<AtomicBool>,
    mut snapshot: impl FnMut() -> Option<RegistrySnapshot> + Send + 'static,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            if let Some(snapshot) = snapshot() {
                eprint!(
                    "{}{}",
                    cursor_home(),
                    render_dashboard(&snapshot, "loadgen")
                );
            }
            std::thread::sleep(Duration::from_millis(500));
        }
    })
}

fn loadgen_command(options: &LoadgenCliOptions) -> Result<(), String> {
    if let Some(points) = options.frontier {
        let report = loadgen::run_frontier_over_tcp(
            options.addr.as_deref().expect("validated by the parser"),
            (&options.topology, &options.wiring),
            options.capacity,
            options.improvement,
            options.distance,
            options.decoder,
            &options.load,
            points,
            options.shutdown,
        )?;
        if options.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&report.to_json())
                    .expect("report serialization cannot fail")
            );
        } else {
            println!("{}", report.render_pretty());
        }
        if report.calibration.mismatches > 0 {
            return Err(format!(
                "{} corrections differ from the offline decode",
                report.calibration.mismatches
            ));
        }
        return Ok(());
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut top = None;
    let report = if options.in_process {
        let arch = parse_arch(
            &options.topology,
            options.capacity,
            &options.wiring,
            options.improvement,
        )?;
        let program = DecodeProgram::compile(&arch, options.distance, options.decoder)
            .map(Arc::new)
            .map_err(|e| e.to_string())?;
        let service = DecodeService::new(options.service);
        if let Some(path) = &options.trace_out {
            let sink = TraceSink::create(path)
                .map_err(|e| format!("cannot create trace file {}: {e}", path.display()))?;
            service.telemetry().set_trace_sink(Arc::new(sink));
        }
        if options.top {
            let registry = service.telemetry();
            top = Some(spawn_top_renderer(Arc::clone(&stop), move || {
                Some(registry.snapshot())
            }));
        }
        let report =
            loadgen::run_in_process(&service, &program, &options.load).map_err(|e| e.to_string());
        stop.store(true, Ordering::Relaxed);
        service.shutdown();
        report?
    } else {
        let addr = options.addr.as_deref().expect("validated by the parser");
        if options.top {
            // The dashboard polls the server's unified snapshot over its own
            // connection, reconnecting if a poll fails mid-run.
            let addr = addr.to_string();
            let mut client: Option<NetClient> = None;
            top = Some(spawn_top_renderer(Arc::clone(&stop), move || {
                if client.is_none() {
                    client = NetClient::connect(&addr).ok();
                }
                match client.as_mut()?.metrics_full() {
                    Ok(full) => Some(snapshot_from_json(full.get("telemetry")?)),
                    Err(_) => {
                        client = None;
                        None
                    }
                }
            }));
        }
        let report = loadgen::run_over_tcp(
            addr,
            (&options.topology, &options.wiring),
            options.capacity,
            options.improvement,
            options.distance,
            options.decoder,
            &options.load,
            options.shutdown,
        );
        stop.store(true, Ordering::Relaxed);
        report?
    };
    if let Some(top) = top {
        let _ = top.join();
    }
    if options.json {
        println!(
            "{}",
            serde_json::to_string_pretty(&report.to_json())
                .expect("report serialization cannot fail")
        );
    } else {
        println!("{}", report.render_pretty());
    }
    if report.mismatches > 0 {
        return Err(format!(
            "{} corrections differ from the offline decode",
            report.mismatches
        ));
    }
    Ok(())
}

/// `artifacts metrics`: scrape a running service's unified telemetry
/// snapshot (JSON by default, Prometheus-style text with `--text`).
fn metrics_command(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut text = false;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--addr" => addr = Some(iter.next().ok_or("--addr needs a host:port")?.clone()),
            "--text" => text = true,
            flag => return Err(format!("unknown metrics flag `{flag}`")),
        }
    }
    let addr = addr.ok_or("metrics needs --addr <host:port>")?;
    let mut client =
        NetClient::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if text {
        print!("{}", client.metrics_text()?);
    } else {
        println!(
            "{}",
            serde_json::to_string_pretty(&client.metrics_full()?)
                .expect("metrics serialization cannot fail")
        );
    }
    Ok(())
}

fn run_command(options: &RunOptions, registry: &ExperimentRegistry) -> Result<(), String> {
    let names: Vec<String> = if options.all {
        registry.names().iter().map(|s| s.to_string()).collect()
    } else {
        options.names.clone()
    };
    // Resolve every name — and load every spec file — up front so a typo in
    // a later name (or a malformed file) fails fast instead of surfacing
    // only after earlier (expensive) specs have run.
    let loaded: Vec<ExperimentSpec> = options
        .spec_files
        .iter()
        .map(|path| load_spec_file(path))
        .collect::<Result<_, _>>()?;
    let mut specs: Vec<&ExperimentSpec> = names
        .iter()
        .map(|name| {
            registry
                .get(name)
                .ok_or_else(|| format!("unknown experiment `{name}` (try `artifacts list`)"))
        })
        .collect::<Result<_, _>>()?;
    specs.extend(loaded.iter());
    // Reject selections in which two *different* specs share a name: their
    // outputs would be written to (or printed under) the same `<name>.<ext>`
    // and one would silently overwrite the other. Identical content is fine
    // (e.g. `--spec` of a dumped registry spec next to its name).
    let mut seen: std::collections::BTreeMap<&str, String> = std::collections::BTreeMap::new();
    for spec in &specs {
        let hash = spec.content_hash();
        if let Some(earlier) = seen.get(spec.name.as_str()) {
            if *earlier != hash {
                return Err(format!(
                    "two different specs named `{}` selected; rename one (outputs would collide)",
                    spec.name
                ));
            }
        } else {
            seen.insert(&spec.name, hash);
        }
    }
    for spec in specs {
        let artifact = run_spec(spec).map_err(|e| e.to_string())?;
        emit_rendered(
            &spec.name,
            &options.format.render(&artifact),
            options.format,
            &options.out,
            &mut std::io::stdout().lock(),
        )?;
    }
    Ok(())
}

/// Entry point of the `artifacts` binary (arguments without the program
/// name).
///
/// # Errors
///
/// Returns the message the binary prints to stderr before exiting non-zero.
pub fn run(args: &[String]) -> Result<(), String> {
    let registry = ExperimentRegistry::builtin();
    match args.first().map(String::as_str) {
        None | Some("--help") | Some("-h") | Some("help") => {
            println!("{USAGE}");
            Ok(())
        }
        Some("list") => {
            println!("{:<24}  {:<20}  TITLE", "NAME", "KIND");
            for spec in registry.specs() {
                println!(
                    "{:<24}  {:<20}  {}",
                    spec.name,
                    kind_summary(spec),
                    spec.title
                );
            }
            Ok(())
        }
        Some("show") => {
            let name = args
                .get(1)
                .ok_or("show needs a spec name (try `artifacts list`)")?;
            let spec = registry
                .get(name)
                .ok_or_else(|| format!("unknown experiment `{name}` (try `artifacts list`)"))?;
            println!(
                "{}",
                serde_json::to_string_pretty(&spec.to_json())
                    .expect("spec serialization cannot fail")
            );
            Ok(())
        }
        Some("run") => {
            let options = parse_run_options(&args[1..])?;
            run_command(&options, &registry)
        }
        Some("serve") => serve_command(&parse_serve_options(&args[1..])?),
        Some("loadgen") => loadgen_command(&parse_loadgen_options(&args[1..])?),
        Some("metrics") => metrics_command(&args[1..]),
        Some("sweep") => sweep_command(&args[1..], &registry),
        Some("check") => {
            let path = args.get(1).ok_or("check needs a JSON file path")?;
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let value =
                serde_json::from_str(&text).map_err(|_| format!("{path} is not valid JSON"))?;
            validate_artifact_json(&value).map_err(|e| format!("{path}: {e}"))?;
            println!("{path}: OK");
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// A stdout whose reader has gone away (or, for any other kind, broke).
    struct FailingStdout(ErrorKind);

    impl Write for FailingStdout {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(self.0.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn emit_rendered_treats_a_closed_pipe_as_success() {
        let mut printed = Vec::new();
        emit_rendered("x", "table", OutputFormat::Pretty, &None, &mut printed).unwrap();
        assert_eq!(printed, b"table\n");
        let emit = |kind| {
            let mut stdout = FailingStdout(kind);
            emit_rendered("x", "table", OutputFormat::Pretty, &None, &mut stdout)
        };
        emit(ErrorKind::BrokenPipe).unwrap();
        let err = emit(ErrorKind::PermissionDenied).unwrap_err();
        assert!(err.starts_with("cannot write stdout"), "{err}");
    }

    #[test]
    fn run_options_parse_names_flags_and_defaults() {
        let options = parse_run_options(&strings(&[
            "fig09", "table2", "--format", "json", "--out", "out",
        ]))
        .unwrap();
        assert_eq!(options.names, vec!["fig09", "table2"]);
        assert_eq!(options.format, OutputFormat::Json);
        assert_eq!(options.out, Some(PathBuf::from("out")));
        assert!(!options.all);

        let defaults = parse_run_options(&strings(&["fig09"])).unwrap();
        assert_eq!(defaults.format, OutputFormat::Pretty);
        assert!(defaults.out.is_none());
    }

    #[test]
    fn run_options_reject_bad_input() {
        assert!(parse_run_options(&strings(&[])).is_err());
        assert!(parse_run_options(&strings(&["--format"])).is_err());
        assert!(parse_run_options(&strings(&["--format", "yaml", "x"])).is_err());
        assert!(parse_run_options(&strings(&["--bogus", "x"])).is_err());
        // Spelled in pieces so that a grep for the retired flag finds only
        // the CI step that checks it is refused.
        let retired = ["--", "cache"].concat();
        assert_eq!(
            parse_run_options(&strings(&["table2", &retired])),
            Err(format!("unknown flag `{retired}`"))
        );
        assert!(parse_run_options(&strings(&["--all", "fig09"])).is_err());
        assert!(parse_run_options(&strings(&["--all"])).is_ok());
        assert!(parse_run_options(&strings(&["--spec"])).is_err());
        assert!(parse_run_options(&strings(&["--all", "--spec", "s.json"])).is_err());
    }

    #[test]
    fn run_options_accept_spec_files_alone_and_with_names() {
        let options = parse_run_options(&strings(&["--spec", "a.json", "--spec", "b.json"]))
            .expect("spec files alone are a valid selection");
        assert_eq!(
            options.spec_files,
            vec![PathBuf::from("a.json"), PathBuf::from("b.json")]
        );
        assert!(options.names.is_empty());
        let mixed = parse_run_options(&strings(&["fig09", "--spec", "a.json"])).unwrap();
        assert_eq!(mixed.names, vec!["fig09"]);
        assert_eq!(mixed.spec_files, vec![PathBuf::from("a.json")]);
    }

    /// A scratch directory unique to one test, cleaned up on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!("qccd-cli-{tag}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).expect("create temp dir");
            TempDir(dir)
        }

        fn path(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn spec_files_round_trip_through_load() {
        let dir = TempDir::new("roundtrip");
        let registry = ExperimentRegistry::builtin();
        let spec = registry.get("fig09").unwrap();
        let path = dir.path("fig09.json");
        fs::write(
            &path,
            serde_json::to_string_pretty(&spec.to_json()).unwrap(),
        )
        .unwrap();
        let loaded = load_spec_file(&path).expect("emitted spec JSON loads");
        assert_eq!(&loaded, spec);
        // A file-loaded spec carries the content hash of the registry spec,
        // so `--spec` sweeps open the same point store.
        assert_eq!(loaded.content_hash(), spec.content_hash());
    }

    #[test]
    fn bad_spec_files_are_rejected_with_the_file_named() {
        let dir = TempDir::new("badspec");
        let missing = dir.path("missing.json");
        let err = load_spec_file(&missing).unwrap_err();
        assert!(err.contains("missing.json"), "{err}");

        let not_json = dir.path("not.json");
        fs::write(&not_json, "not json at all").unwrap();
        let err = load_spec_file(&not_json).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");

        let wrong_schema = dir.path("schema.json");
        fs::write(&wrong_schema, "{\"name\": \"x\"}").unwrap();
        assert!(load_spec_file(&wrong_schema).is_err());

        // Structurally valid but semantically invalid (empty title):
        // `validate` must reject it before anything runs.
        let invalid = dir.path("invalid.json");
        let registry = ExperimentRegistry::builtin();
        let mut spec = registry.get("fig09").unwrap().clone();
        spec.title = String::new();
        fs::write(
            &invalid,
            serde_json::to_string_pretty(&spec.to_json()).unwrap(),
        )
        .unwrap();
        let err = load_spec_file(&invalid).unwrap_err();
        assert!(err.contains("invalid spec"), "{err}");

        // And a run naming a bad file fails fast.
        assert!(run(&strings(&["run", "--spec", missing.to_str().unwrap()])).is_err());
    }

    #[test]
    fn colliding_spec_names_are_rejected_unless_identical() {
        let dir = TempDir::new("collide");
        let registry = ExperimentRegistry::builtin();
        let spec = registry.get("fig09").unwrap();
        // A *different* spec carrying the same name must be rejected before
        // anything runs (outputs would land in the same file)...
        let mut tweaked = spec.clone();
        tweaked.seed ^= 1;
        let path = dir.path("tweaked.json");
        fs::write(
            &path,
            serde_json::to_string_pretty(&tweaked.to_json()).unwrap(),
        )
        .unwrap();
        let err = run(&strings(&[
            "run",
            "fig09",
            "--spec",
            path.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("two different specs named"), "{err}");
        // ...while a byte-identical dump of the registry spec is fine.
        let same = dir.path("same.json");
        fs::write(
            &same,
            serde_json::to_string_pretty(&spec.to_json()).unwrap(),
        )
        .unwrap();
        assert!(run(&strings(&[
            "run",
            "fig09",
            "--spec",
            same.to_str().unwrap(),
            "--out",
            dir.path("out").to_str().unwrap(),
        ]))
        .is_ok());
    }

    #[test]
    fn run_with_spec_file_emits_a_valid_artifact() {
        let dir = TempDir::new("runspec");
        let registry = ExperimentRegistry::builtin();
        // fig09 is compile-only, so this end-to-end run is cheap.
        let spec = registry.get("fig09").unwrap();
        let spec_path = dir.path("myspec.json");
        fs::write(
            &spec_path,
            serde_json::to_string_pretty(&spec.to_json()).unwrap(),
        )
        .unwrap();
        let out = dir.path("out");
        run(&strings(&[
            "run",
            "--spec",
            spec_path.to_str().unwrap(),
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("spec file runs");
        let emitted = fs::read_to_string(out.join("fig09.json")).expect("artifact written");
        let value = serde_json::from_str(&emitted).expect("artifact is JSON");
        validate_artifact_json(&value).expect("artifact validates");
    }

    #[test]
    fn unknown_commands_and_names_error() {
        assert!(run(&strings(&["frobnicate"])).is_err());
        let err = run(&strings(&["cache", "list"])).unwrap_err();
        assert!(err.starts_with("unknown command `cache`"), "{err}");
        assert!(run(&strings(&["show", "fig99"])).is_err());
        assert!(run(&strings(&["show"])).is_err());
        assert!(run(&strings(&["check"])).is_err());
    }

    #[test]
    fn list_and_show_succeed() {
        assert!(run(&strings(&["list"])).is_ok());
        assert!(run(&strings(&["show", "fig09"])).is_ok());
        assert!(run(&strings(&["--help"])).is_ok());
        assert!(run(&[]).is_ok());
    }

    #[test]
    fn serve_options_parse_and_reject() {
        let defaults = parse_serve_options(&strings(&[])).unwrap();
        assert_eq!(defaults, ServeOptions::default());
        let options = parse_serve_options(&strings(&[
            "--addr",
            "0.0.0.0:9000",
            "--workers",
            "4",
            "--deadline-us",
            "250",
            "--batch-words",
            "2",
            "--queue-shots",
            "128",
        ]))
        .unwrap();
        assert_eq!(options.addr, "0.0.0.0:9000");
        assert_eq!(options.service.workers, 4);
        assert_eq!(options.service.flush_deadline, Duration::from_micros(250));
        assert_eq!(options.service.max_batch_words, 2);
        assert_eq!(options.service.stream_queue_shots, 128);
        assert!(parse_serve_options(&strings(&["--workers"])).is_err());
        assert!(parse_serve_options(&strings(&["--workers", "x"])).is_err());
        assert!(parse_serve_options(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn loadgen_options_parse_and_reject() {
        // A target is mandatory.
        assert!(parse_loadgen_options(&strings(&[])).is_err());
        assert!(parse_loadgen_options(&strings(&["--addr", "x:1", "--in-process"])).is_err());
        assert!(parse_loadgen_options(&strings(&["--in-process", "--distance", "1"])).is_err());
        assert!(parse_loadgen_options(&strings(&["--in-process", "--decoder", "magic"])).is_err());
        // Frontier sweeps and multi-connection replays are TCP-only.
        assert!(parse_loadgen_options(&strings(&["--in-process", "--frontier", "3"])).is_err());
        assert!(parse_loadgen_options(&strings(&["--in-process", "--connections", "2"])).is_err());
        assert!(parse_loadgen_options(&strings(&["--addr", "x:1", "--frontier", "0"])).is_err());
        assert!(parse_loadgen_options(&strings(&["--addr", "x:1", "--wire", "sideways"])).is_err());
        // A rate the pacer cannot schedule toward is refused, not run
        // unthrottled.
        for rate in ["nan", "inf", "-inf", "0", "-0", "-50000"] {
            let args = strings(&["--in-process", "--rate", rate]);
            assert!(parse_loadgen_options(&args).is_err(), "--rate {rate}");
        }

        let options = parse_loadgen_options(&strings(&[
            "--addr",
            "127.0.0.1:7878",
            "--topology",
            "switch",
            "--capacity",
            "5",
            "--wiring",
            "wise",
            "--improvement",
            "10",
            "--distance",
            "5",
            "--decoder",
            "greedy",
            "--streams",
            "8",
            "--connections",
            "2",
            "--shots",
            "4096",
            "--rate",
            "50000",
            "--wire",
            "frames",
            "--frontier",
            "4",
            "--seed",
            "7",
            "--no-verify",
            "--shutdown",
            "--format",
            "json",
        ]))
        .unwrap();
        assert_eq!(options.addr.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(options.topology, "switch");
        assert_eq!(options.capacity, 5);
        assert_eq!(options.wiring, "wise");
        assert_eq!(options.improvement, 10.0);
        assert_eq!(options.distance, 5);
        assert_eq!(options.decoder, qccd_decoder::DecoderKind::GreedyMatching);
        assert_eq!(options.load.streams, 8);
        assert_eq!(options.load.connections, 2);
        assert_eq!(options.load.shots, 4096);
        assert_eq!(options.load.rate, Some(50_000.0));
        assert!(!options.load.shot_major);
        assert_eq!(options.frontier, Some(4));
        assert_eq!(options.load.seed, 7);
        assert!(!options.load.verify);
        assert!(options.shutdown);
        assert!(options.json);

        let in_process =
            parse_loadgen_options(&strings(&["--in-process", "--workers", "3"])).unwrap();
        assert!(in_process.in_process);
        assert_eq!(in_process.service.workers, 3);
    }

    #[test]
    fn loadgen_in_process_runs_end_to_end() {
        // The smallest sensible run: d=2, a few hundred shots, verified
        // against the offline decode — the CLI-level counterpart of the
        // service property suite.
        run(&strings(&[
            "loadgen",
            "--in-process",
            "--distance",
            "2",
            "--shots",
            "256",
            "--streams",
            "2",
            "--format",
            "json",
        ]))
        .expect("in-process loadgen succeeds and verifies");
    }

    #[test]
    fn format_extensions_match() {
        assert_eq!(OutputFormat::Json.extension(), "json");
        assert_eq!(OutputFormat::Csv.extension(), "csv");
        assert_eq!(OutputFormat::Pretty.extension(), "txt");
    }

    #[test]
    fn sweep_run_options_parse_and_reject() {
        let options = parse_sweep_run_options(&strings(&[
            "fig07",
            "--store",
            "mystore",
            "--local-workers",
            "3",
            "--progress-interval-ms",
            "100",
            "--quiet",
            "--format",
            "json",
            "--out",
            "out",
        ]))
        .unwrap();
        assert_eq!(options.name.as_deref(), Some("fig07"));
        assert_eq!(options.store, PathBuf::from("mystore"));
        assert_eq!(options.local_workers, 3);
        assert_eq!(options.progress_interval, Duration::from_millis(100));
        assert!(options.quiet);
        assert_eq!(options.format, OutputFormat::Json);
        assert_eq!(options.out, Some(PathBuf::from("out")));

        // Exactly one spec and at least one worker.
        assert!(parse_sweep_run_options(&strings(&[])).is_err());
        assert!(parse_sweep_run_options(&strings(&["a", "b"])).is_err());
        assert!(parse_sweep_run_options(&strings(&["a", "--spec", "b.json"])).is_err());
        assert_eq!(
            parse_sweep_run_options(&strings(&["a", "--local-workers", "0"])).unwrap_err(),
            "--local-workers must be at least 1"
        );
        assert!(parse_sweep_run_options(&strings(&["a", "--bogus"])).is_err());

        // `--listen`, `--lease-timeout-ms`, the retry knobs and `worker` are
        // refused through the unknown-flag and missing-action paths.
        for flag in [
            "--listen",
            "--lease-timeout-ms",
            "--max-attempts",
            "--backoff-ms",
        ] {
            assert_eq!(
                parse_sweep_run_options(&strings(&["a", flag, "500"])).unwrap_err(),
                format!("unknown sweep flag `{flag}`")
            );
        }
        let err = run(&strings(&["sweep", "worker", "--addr", "127.0.0.1:1"])).unwrap_err();
        assert!(
            err.starts_with("sweep needs an action (run|resume|status)"),
            "{err}"
        );
    }

    #[test]
    fn sweep_status_options_parse_and_reject() {
        let stored = parse_sweep_status_options(&strings(&["fig07", "--store", "s"])).unwrap();
        assert_eq!(stored.name.as_deref(), Some("fig07"));
        assert_eq!(stored.store, PathBuf::from("s"));
        assert!(!stored.json);
        let file = parse_sweep_status_options(&strings(&["--spec", "f.json", "--format", "json"]))
            .unwrap();
        assert_eq!(file.spec_file, Some(PathBuf::from("f.json")));
        assert!(file.json);
        // Exactly one spec, never both or neither.
        assert!(parse_sweep_status_options(&strings(&[])).is_err());
        assert!(parse_sweep_status_options(&strings(&["fig07", "--spec", "f.json"])).is_err());
        assert_eq!(
            parse_sweep_status_options(&strings(&["--addr", "h:1", "fig07"])).unwrap_err(),
            "unknown status flag `--addr`"
        );
        assert!(parse_sweep_status_options(&strings(&["--format", "yaml", "x"])).is_err());
    }

    /// The registry's smallest real LER sweep, shrunk for a fast CLI test.
    fn tiny_sweep_spec_file(dir: &TempDir) -> PathBuf {
        let registry = ExperimentRegistry::builtin();
        let mut spec = registry
            .names()
            .iter()
            .filter_map(|name| registry.get(name))
            .find(|spec| matches!(spec.kind, ExperimentKind::LerSweep(_)))
            .expect("the registry has LER sweeps")
            .clone();
        if let ExperimentKind::LerSweep(kind) = &mut spec.kind {
            kind.configurations.truncate(2);
            kind.sample_distances = vec![2, 3];
            kind.shots = 64;
        }
        spec.name = "cli-sweep-test".to_string();
        let path = dir.path("tiny-sweep.json");
        fs::write(
            &path,
            serde_json::to_string_pretty(&spec.to_json()).unwrap(),
        )
        .unwrap();
        path
    }

    #[test]
    fn sweep_run_resume_and_status_work_through_the_cli() {
        let dir = TempDir::new("sweepcli");
        let spec_path = tiny_sweep_spec_file(&dir);
        let store = dir.path("store");
        let out = dir.path("out");
        let base_args = |extra: &[&str]| {
            let mut args = vec![
                "sweep",
                "run",
                "--spec",
                spec_path.to_str().unwrap(),
                "--store",
                store.to_str().unwrap(),
                "--quiet",
            ];
            args.extend_from_slice(extra);
            strings(&args)
        };
        run(&base_args(&[
            "--local-workers",
            "2",
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("sweep run completes");
        let emitted = fs::read_to_string(out.join("cli-sweep-test.json")).unwrap();
        let value = serde_json::from_str(&emitted).unwrap();
        validate_artifact_json(&value).expect("merged artifact validates");

        // Resume on the full store recomputes nothing and re-merges the
        // same artifact bytes.
        run(&base_args(&[
            "--format",
            "json",
            "--out",
            out.to_str().unwrap(),
        ]))
        .expect("sweep resume completes");
        assert_eq!(
            fs::read_to_string(out.join("cli-sweep-test.json")).unwrap(),
            emitted,
            "resume must reproduce the artifact bit for bit"
        );

        // Status reads the store's final snapshot.
        run(&strings(&[
            "sweep",
            "status",
            "--spec",
            spec_path.to_str().unwrap(),
            "--store",
            store.to_str().unwrap(),
            "--format",
            "json",
        ]))
        .expect("sweep status reads the snapshot");

        // Non-LER specs are refused by the sweep tier.
        let err = run(&strings(&[
            "sweep",
            "run",
            "fig09",
            "--store",
            store.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(err.contains("not a LER sweep"), "{err}");
        // And an action is mandatory.
        assert!(run(&strings(&["sweep"])).is_err());
        assert!(run(&strings(&["sweep", "frobnicate"])).is_err());
    }
}
