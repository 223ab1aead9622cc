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
//! artifacts loadgen --help               # one command's flags
//! ```
//!
//! `--spec` accepts any JSON file in the [`ExperimentSpec`] schema (the
//! format `artifacts show` prints), so external tools can sweep novel
//! architecture grids without recompiling; loaded specs validate before
//! anything runs, and a point store keys them by the same content hash as
//! registry specs.
//!
//! Each subcommand's flags are one table (name, value hint, help line,
//! setter) that one walk parses and `--help` prints. The parsing lives in the
//! library (rather than the binary) so it is unit testable;
//! `src/bin/artifacts.rs` is a two-line shim over [`run`].

use std::fs;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::Duration;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use qccd_decoder::DecoderKind;
use qccd_service::net::{parse_arch, parse_decoder};
use qccd_service::{
    loadgen, DecodeProgram, DecodeService, LoadgenOptions, NetClient, NetServer, ServiceConfig,
};
use qccd_sweeprun::{
    render_progress_line, run_job, CoordinatorConfig, PointJob, PointStore, StoreState,
};
use qccd_telemetry::{
    cursor_home, render_dashboard, snapshot_from_json, RegistrySnapshot, TraceSink,
};

use crate::artifact::{validate_artifact_json, Artifact};
use crate::point_job::{merge_artifact, spec_point_job};
use crate::registry::{run_spec, ExperimentRegistry};
use crate::spec::{ExperimentSpec, Field, Spelled};

/// The flag that prints a subcommand's table instead of running it.
const HELP: &str = "--help";

/// Applies one value to a subcommand's options.
type Setter<T> = Box<dyn Fn(&mut T, &str) -> Result<(), String>>;

/// One row of a flag table. The row named `""` takes the operands, the
/// arguments that do not start with `--`.
struct Flag<T> {
    name: &'static str,
    /// Value hint (`<n>`); empty for a switch, whose setter gets `""`.
    value: &'static str,
    help: &'static str,
    set: Setter<T>,
}

/// A subcommand: its flag table and what its `--help` says.
struct Command<T> {
    /// `loadgen`, `sweep run`, ….
    name: &'static str,
    about: &'static str,
    /// How a refusal calls an argument the table does not know.
    unknown: &'static str,
    flags: Vec<Flag<T>>,
    /// The checks that relate flags, run after the walk with the flags given.
    check: fn(&T, &[&str]) -> Result<(), String>,
}

/// A flag table over options of type `T`: `T, name, unknown, about;` for a
/// subcommand (or just `T;` for shared rows), the names `|options, value|`
/// the setters use, then one row a line: `"--flag" "<hint>": "help" =>
/// statement,`. A switch has no hint.
macro_rules! flags {
    ($t:ty, $name:literal, $unknown:literal, $about:literal; $($rows:tt)*) => {
        Command::<$t> {
            name: $name,
            about: $about,
            unknown: $unknown,
            flags: flags!($t; $($rows)*),
            check: |_, _| Ok(()),
        }
    };
    ($t:ty; |$o:ident, $v:ident|
     $($flag:literal $($hint:literal)?: $help:literal => $set:expr,)*) => {
        vec![$(Flag {
            name: $flag,
            value: concat!("" $(, $hint)?),
            help: $help,
            set: Box::new(move |$o: &mut $t, #[allow(unused_variables)] $v: &str| {
                $set;
                Ok(())
            }),
        }),*]
    };
}

impl<T: Default> Command<T> {
    fn with(mut self, rows: Vec<Flag<T>>) -> Self {
        self.flags.extend(rows);
        self
    }

    fn check(mut self, check: fn(&T, &[&str]) -> Result<(), String>) -> Self {
        self.check = check;
        self
    }

    /// Walks a command line through the table, then runs the checks.
    /// `Ok(None)` means the line asks for `--help`, which wins wherever it
    /// stands in flag position; otherwise the line's first refusal stands.
    fn parse(&self, args: &[String]) -> Result<Option<T>, String> {
        let (mut options, mut given, mut refusal) = (T::default(), Vec::new(), None);
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            let operand = !arg.starts_with("--");
            let named = |f: &&Flag<T>| f.name == arg || (operand && f.name.is_empty());
            let flag = self.flags.iter().find(named);
            let applied = match flag {
                _ if arg == HELP => return Ok(None),
                None => Err(format!("{} `{arg}`", self.unknown)),
                Some(flag) if operand => (flag.set)(&mut options, arg),
                Some(flag) => {
                    given.push(flag.name);
                    let value = match flag.value {
                        "" => Ok(""),
                        hint => args.next().ok_or(format!("needs a value {hint}")),
                    };
                    let applied = value.and_then(|value| (flag.set)(&mut options, value));
                    applied.map_err(|e| format!("{} {e}", flag.name))
                }
            };
            if let Err(message) = applied {
                refusal.get_or_insert(message);
            }
        }
        match refusal {
            Some(message) => Err(message),
            None => (self.check)(&options, &given).map(|()| Some(options)),
        }
    }

    /// Runs the subcommand: prints its help, or hands its options to `f`.
    fn run(&self, args: &[String], f: impl FnOnce(T) -> Result<(), String>) -> Result<(), String> {
        let Some(options) = self.parse(args)? else {
            return say(&self.help());
        };
        f(options)
    }

    /// Parses a line that must yield options; `--help` is refused with the
    /// help text.
    fn options(&self, args: &[String]) -> Result<T, String> {
        self.parse(args)?.ok_or_else(|| self.help())
    }

    /// The command's line in [`usage`].
    fn line(&self) -> String {
        row(&format!("{} [options]", self.name), self.about)
    }

    /// What `artifacts <command> --help` prints.
    fn help(&self) -> String {
        let left = |flag: &Flag<T>| format!("{} {}", flag.name, flag.value);
        let rows: String = self.flags.iter().map(|f| row(&left(f), f.help)).collect();
        let (name, about, help) = (self.name, self.about, row(HELP, "print this help"));
        format!("usage: artifacts {name} [options]\n{about}\n\n{rows}{help}")
    }
}

/// One `left  help` line of a usage text.
fn row(left: &str, help: &str) -> String {
    format!("  {:<24} {help}\n", left.trim())
}

/// Parses a number; the refusal says what it must be.
fn number<V: FromStr + Field<'static>>(text: &str) -> Result<V, String> {
    text.parse()
        .map_err(|_| format!("must be {}, got `{text}`", V::expected()))
}

/// Parses an integer of at least `min`.
fn at_least<V: FromStr + Field<'static> + PartialOrd + From<u8>>(
    min: u8,
    text: &str,
) -> Result<V, String> {
    Some(number(text)?)
        .filter(|n| *n >= V::from(min))
        .ok_or_else(|| format!("must be at least {min}"))
}

/// Parses an enum through its one spelling.
fn spelled<V: Spelled + Field<'static>>(text: &str) -> Result<V, String> {
    V::from_spelling(text).ok_or_else(|| format!("must be {}, got `{text}`", V::expected()))
}

/// The `pretty|json` report format of `loadgen` and `sweep status`, in
/// [`OutputFormat`]'s spelling: `true` for JSON.
fn report_json(text: &str) -> Result<bool, String> {
    match OutputFormat::from_spelling(text) {
        Some(OutputFormat::Csv) | None => Err(format!("must be `pretty` or `json`, got `{text}`")),
        Some(format) => Ok(format == OutputFormat::Json),
    }
}

/// The text of `artifacts --help` and of an unknown command: one line a
/// command, the subcommands' lines from their tables.
pub fn usage() -> String {
    let mut text = String::from("usage: artifacts <command> [options]\n\ncommands:\n");
    text += &row("list", "list every registered experiment spec");
    text += &row("show <name>", "print a spec as JSON");
    text += &row("check <file.json>", "check an artifact against the schema");
    text += &run_flags().line();
    text += &serve_flags().line();
    text += &loadgen_flags().line();
    text += &metrics_flags().line();
    text += &sweep_run_flags().line();
    text += &sweep_status_flags().line();
    text + "\n`artifacts <command> --help` lists that command's flags."
}

/// Output format of `artifacts run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Aligned text table with notes and provenance.
    #[default]
    Pretty,
    /// The full artifact JSON (table + data + metadata).
    Json,
    /// The table as CSV.
    Csv,
}

impl Spelled for OutputFormat {
    fn spellings() -> impl Iterator<Item = (Self, &'static str)> {
        [
            (OutputFormat::Pretty, "pretty"),
            (OutputFormat::Json, "json"),
            (OutputFormat::Csv, "csv"),
        ]
        .into_iter()
    }
}

impl OutputFormat {
    fn extension(self) -> &'static str {
        match self {
            OutputFormat::Pretty => "txt",
            format => format.spelling(),
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
#[derive(Debug, Clone, PartialEq, Default)]
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

fn run_flags() -> Command<RunOptions> {
    flags![RunOptions, "run", "unknown flag", "run the named specs (or --all)"; |o, v|
        "" "<name>...": "registry specs to run" => o.names.push(v.to_string()),
        "--all": "run every registered spec" => o.all = true,
        "--spec" "<file.json>": "run a spec file too (repeatable)" => o.spec_files.push(v.into()),
        "--format" "<pretty|json|csv>": "output format (default: pretty)" => o.format = spelled(v)?,
        "--out" "<dir>": "write <dir>/<name>.<ext> instead of stdout" => o.out = Some(v.into()),
    ]
    .check(|o, _| {
        let selected = !(o.names.is_empty() && o.spec_files.is_empty());
        if !selected && !o.all {
            return Err(
                "nothing to run: name at least one spec, pass --spec, or pass --all".into(),
            );
        }
        if selected && o.all {
            return Err("--all cannot be combined with explicit names or --spec files".into());
        }
        Ok(())
    })
}

/// Parses the arguments after `artifacts run`; `--help` is refused with the
/// help text.
pub fn parse_run_options(args: &[String]) -> Result<RunOptions, String> {
    run_flags().options(args)
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

/// Parsed `artifacts serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Listen address.
    pub addr: String,
    /// Decode-service tuning.
    pub service: ServiceConfig,
    /// Stream stage spans to this file as JSON lines.
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

/// The decode-service tuning rows `serve` and `loadgen` share, over the
/// [`ServiceConfig`] that `part` picks out of their options.
fn service_flags<T: 'static>(part: fn(&mut T) -> &mut ServiceConfig) -> Vec<Flag<T>> {
    flags![T; |o, v|
        "--workers" "<n>": "decode worker threads (default: 2)"
            => *part(o) = part(o).with_workers(at_least(1, v)?),
        "--deadline-us" "<us>": "partial-word flush deadline (default: 500)"
            => *part(o) = part(o).with_flush_deadline(Duration::from_micros(number(v)?)),
        "--queue-shots" "<n>": "per-stream in-flight bound (default: 4096)"
            => *part(o) = part(o).with_stream_queue_shots(at_least(1, v)?),
    ]
}

fn serve_flags() -> Command<ServeOptions> {
    flags![ServeOptions, "serve", "unknown serve flag", "run the decode service (TCP)";
        |o, v|
        "--addr" "<host:port>": "listen address (default: 127.0.0.1:7878)" => o.addr = v.into(),
        "--trace-out" "<file>": "stream stage spans as JSON lines"
            => o.trace_out = Some(v.into()),
    ]
    .with(service_flags(|o: &mut ServeOptions| &mut o.service))
}

/// Parses the arguments after `artifacts serve`; `--help` is refused with
/// the help text.
pub fn parse_serve_options(args: &[String]) -> Result<ServeOptions, String> {
    serve_flags().options(args)
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
    /// Stream stage spans to this file (in-process only; a TCP
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

fn loadgen_flags() -> Command<LoadgenCliOptions> {
    flags![LoadgenCliOptions, "loadgen", "unknown loadgen flag",
        "replay sampled syndromes against a decode service"; |o, v|
        "--addr" "<host:port>": "drive a remote `artifacts serve`" => o.addr = Some(v.into()),
        "--in-process": "drive an in-process service instead" => o.in_process = true,
        "--topology" "<grid|linear|switch>": "topology (default: grid)" => o.topology = v.into(),
        "--capacity" "<n>": "trap capacity (default: 2)" => o.capacity = number(v)?,
        "--wiring" "<standard|wise>": "wiring method (default: standard)" => o.wiring = v.into(),
        "--improvement" "<x>": "gate improvement (default: 5.0)" => o.improvement = number(v)?,
        "--distance" "<d>": "code distance (default: 3)" => o.distance = at_least(2, v)?,
        "--decoder" "<union_find|exact>": "decoder (default: union_find)"
            => o.decoder = parse_decoder(v)?,
        "--streams" "<n>": "syndrome streams (default: 4)" => o.load.streams = at_least(1, v)?,
        "--connections" "<n>": "TCP connections, at most one a stream (default: 1)"
            => o.load.connections = number(v)?,
        "--shots" "<n>": "total shots replayed (default: 16384)" => o.load.shots = at_least(1, v)?,
        "--rate" "<n>": "target shots/s (default: unthrottled)" => o.load.rate = Some(number(v)?),
        "--wire" "<packed|frames>": "64-shot word blocks (default) or per-shot frames"
            => o.load.shot_major = match v {
                "packed" => true,
                "frames" => false,
                _ => return Err(format!("must be `packed` or `frames`, got `{v}`")),
            },
        "--frontier" "<points>": "calibrate, then replay at <points> fractions of saturation"
            => o.frontier = Some(at_least(1, v)?),
        "--seed" "<n>": "replay sampling seed (default: 2026)" => o.load.seed = number(v)?,
        "--shutdown": "shut a TCP server down after the run" => o.shutdown = true,
        "--format" "<pretty|json>": "report format (default: pretty)" => o.json = report_json(v)?,
        "--top": "live telemetry dashboard on stderr" => o.top = true,
        "--trace-out" "<file>": "stream stage spans as JSON lines (in-process)"
            => o.trace_out = Some(v.into()),
    ]
    .with(service_flags(|o: &mut LoadgenCliOptions| &mut o.service))
    .check(|o, given| {
        if o.addr.is_none() && !o.in_process {
            return Err("loadgen needs a target: --addr <host:port> or --in-process".into());
        }
        if o.addr.is_some() && o.in_process {
            return Err("--addr and --in-process are mutually exclusive".into());
        }
        if o.in_process && o.frontier.is_some() {
            return Err("--frontier needs a TCP target (--addr)".into());
        }
        if o.frontier.is_some() && o.load.rate.is_some() {
            return Err("--rate cannot pace a --frontier sweep (it calibrates unthrottled)".into());
        }
        if o.in_process && o.load.connections > 1 {
            return Err("--connections needs a TCP target (--addr)".into());
        }
        if matches!(o.load.rate, Some(rate) if !(rate.is_finite() && rate > 0.0)) {
            return Err("--rate must be a finite positive number of shots/s".into());
        }
        let tuning = service_flags(|o: &mut LoadgenCliOptions| &mut o.service);
        let tcp_tuned = given
            .iter()
            .find(|f| tuning.iter().any(|row| row.name == **f));
        if let Some(flag) = tcp_tuned.filter(|_| !o.in_process) {
            return Err(format!(
                "{flag} needs --in-process; a TCP server takes it via `serve`"
            ));
        }
        if o.trace_out.is_some() && !o.in_process {
            return Err(
                "--trace-out needs --in-process (a TCP server: `serve --trace-out`)".into(),
            );
        }
        if o.top && o.frontier.is_some() {
            return Err("--top cannot run during a --frontier sweep".into());
        }
        Ok(())
    })
}

/// Parses the arguments after `artifacts loadgen`; `--help` is refused with
/// the help text.
pub fn parse_loadgen_options(args: &[String]) -> Result<LoadgenCliOptions, String> {
    loadgen_flags().options(args)
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
    /// Progress line / `status.json` period.
    pub progress_interval: Duration,
    /// Suppress the live progress line on stderr.
    pub quiet: bool,
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
            progress_interval: Duration::from_millis(2000),
            quiet: false,
            format: OutputFormat::Pretty,
            out: None,
        }
    }
}

/// Refuses a sweep line that names no spec or two.
fn one_spec(name: &Option<String>, spec_file: &Option<PathBuf>, what: &str) -> Result<(), String> {
    let refusal = format!("{what} needs exactly one spec: a registry name or --spec <file>");
    (name.is_some() != spec_file.is_some())
        .then_some(())
        .ok_or(refusal)
}

fn sweep_run_flags() -> Command<SweepRunOptions> {
    flags![SweepRunOptions, "sweep run", "unknown sweep flag",
        "run a LER sweep through the resumable point store (also `sweep resume`)"; |o, v|
        "" "<name>": "the registry spec to run" => if o.name.replace(v.into()).is_some() {
            return Err("sweep runs exactly one spec at a time".into());
        },
        "--spec" "<file.json>": "run this spec file instead" => o.spec_file = Some(v.into()),
        "--store" "<dir>": "store base (default: target/experiments/sweep)" => o.store = v.into(),
        "--progress-interval-ms" "<ms>":
            "progress line / status.json period (default: 2000; 0 = after every point)"
            => o.progress_interval = Duration::from_millis(number(v)?),
        "--quiet": "no live progress line on stderr" => o.quiet = true,
        "--format" "<pretty|json|csv>": "merged-artifact format (default: pretty)"
            => o.format = spelled(v)?,
        "--out" "<dir>": "write <dir>/<name>.<ext> instead of stdout" => o.out = Some(v.into()),
    ]
    .check(|o, _| one_spec(&o.name, &o.spec_file, "sweep"))
}

/// Parses the arguments after `artifacts sweep run` / `sweep resume`;
/// `--help` is refused with the help text.
pub fn parse_sweep_run_options(args: &[String]) -> Result<SweepRunOptions, String> {
    sweep_run_flags().options(args)
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

impl Default for SweepStatusOptions {
    fn default() -> Self {
        let store = SweepRunOptions::default().store;
        let (name, spec_file, json) = (None, None, false);
        SweepStatusOptions {
            name,
            spec_file,
            store,
            json,
        }
    }
}

fn sweep_status_flags() -> Command<SweepStatusOptions> {
    flags![SweepStatusOptions, "sweep status", "unknown status flag",
        "print a sweep's progress snapshot"; |o, v|
        "" "<name>": "the registry spec" => if o.name.replace(v.into()).is_some() {
            return Err("status takes one spec name".into());
        },
        "--spec" "<file.json>": "the spec file instead" => o.spec_file = Some(v.into()),
        "--store" "<dir>": "store base (default: target/experiments/sweep)" => o.store = v.into(),
        "--format" "<pretty|json>": "the one-line summary, or the full snapshot"
            => o.json = report_json(v)?,
    ]
    .check(|o, _| one_spec(&o.name, &o.spec_file, "status"))
}

/// Parses the arguments after `artifacts sweep status`; `--help` is refused
/// with the help text.
pub fn parse_sweep_status_options(args: &[String]) -> Result<SweepStatusOptions, String> {
    sweep_status_flags().options(args)
}

/// Parsed `artifacts metrics` options.
#[derive(Default)]
struct MetricsOptions {
    addr: Option<String>,
    text: bool,
}

fn metrics_flags() -> Command<MetricsOptions> {
    flags![MetricsOptions, "metrics", "unknown metrics flag", "scrape a service's telemetry";
        |o, v|
        "--addr" "<host:port>": "the server to scrape (required)" => o.addr = Some(v.into()),
        "--text": "Prometheus-style text instead of the JSON snapshot" => o.text = true,
    ]
    .check(|o, _| match o.addr {
        Some(_) => Ok(()),
        None => Err("metrics needs --addr <host:port>".into()),
    })
}

/// The command's result after a write to stdout. A reader that closed the
/// pipe early (`artifacts run fig10 | head`) has everything it asked for,
/// so a broken pipe is success.
fn stdout_result(printed: std::io::Result<()>) -> Result<(), String> {
    match printed {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => Err(format!("cannot write stdout: {e}")),
        _ => Ok(()),
    }
}

/// Prints `text` and a newline, reading a closed pipe as [`stdout_result`]
/// does.
fn say(text: &str) -> Result<(), String> {
    stdout_result(writeln!(std::io::stdout().lock(), "{text}"))
}

/// Writes a rendered artifact to `<out>/<name>.<ext>` or to `stdout` (a
/// closed pipe is success, see [`stdout_result`]).
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
    stdout_result(printed)
}

/// The registry spec `name`; an unknown name points at `artifacts list`.
fn lookup<'r>(registry: &'r ExperimentRegistry, name: &str) -> Result<&'r ExperimentSpec, String> {
    let unknown = || format!("unknown experiment `{name}` (try `artifacts list`)");
    registry.get(name).ok_or_else(unknown)
}

/// Resolves the single spec a sweep subcommand names.
fn resolve_sweep_spec(
    name: &Option<String>,
    spec_file: &Option<PathBuf>,
    registry: &ExperimentRegistry,
) -> Result<ExperimentSpec, String> {
    match (name, spec_file) {
        (Some(name), None) => lookup(registry, name).cloned(),
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
    let (name, root, points) = (&spec.name, store.root().display(), store.num_points());
    if state == StoreState::Resumed {
        let done = store.done_count();
        println!("resuming sweep `{name}` at {root}: {done} of {points} points already done");
    } else {
        println!("sweep `{name}`: {points} points, store {root}");
    }
    let summary = run_job(
        &job,
        &store,
        CoordinatorConfig {
            progress_interval: options.progress_interval,
            quiet: options.quiet,
        },
    )?;
    println!(
        "sweep `{}`: {} computed, {} resumed, {} failed in {:.1}s",
        spec.name,
        summary.computed,
        summary.resumed,
        summary.progress.failed,
        summary.elapsed.as_secs_f64(),
    );
    if summary.progress.failed > 0 {
        return Err(format!(
            "{} points failed (see {}); fix the cause and `sweep resume`",
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

/// `artifacts sweep status`: reads the store's snapshot and writes nothing,
/// so a store no run has created is an error naming where it looked.
fn sweep_status_command(
    options: &SweepStatusOptions,
    registry: &ExperimentRegistry,
) -> Result<(), String> {
    let spec = resolve_sweep_spec(&options.name, &options.spec_file, registry)?;
    let job = spec_point_job(&spec)?;
    let store = PointStore::open_existing(&options.store, &job.descriptor(), job.seed_table())?;
    let Some(snapshot) = store.read_status() else {
        let (done, failed) = (store.done_count(), store.failures().len());
        let (points, root) = (store.num_points(), store.root().display());
        println!(
            "no status snapshot yet: {done}/{points} points on disk, {failed} failed ({root})"
        );
        return Ok(());
    };
    if options.json {
        let snapshot = serde_json::to_string_pretty(&snapshot);
        println!("{}", snapshot.expect("snapshot serialization cannot fail"));
    } else {
        println!("{}", render_progress_line(&snapshot));
    }
    Ok(())
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
        println!("tracing stage spans to {}", path.display());
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
                let dashboard = render_dashboard(&snapshot, "loadgen");
                eprint!("{}{dashboard}", cursor_home());
            }
            std::thread::sleep(Duration::from_millis(500));
        }
    })
}

fn loadgen_command(options: &LoadgenCliOptions) -> Result<(), String> {
    let print = |report: serde_json::Value, pretty: String, mismatches| {
        if options.json {
            let report = serde_json::to_string_pretty(&report);
            println!("{}", report.expect("report serialization cannot fail"));
        } else {
            println!("{pretty}");
        }
        match mismatches {
            0 => Ok(()),
            n => Err(format!("{n} corrections differ from the offline decode")),
        }
    };
    let stop = Arc::new(AtomicBool::new(false));
    let mut top = None;
    let arch = parse_arch(
        &options.topology,
        options.capacity,
        &options.wiring,
        options.improvement,
    )?;
    let program = DecodeProgram::compile(&arch, options.distance, options.decoder)
        .map(Arc::new)
        .map_err(|e| e.to_string())?;
    let report = if options.in_process {
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
        let o = options;
        let open = |client: &mut NetClient| {
            client.open_stream(
                &o.topology,
                o.capacity,
                &o.wiring,
                o.improvement,
                o.distance,
                o.decoder,
            )
        };
        let points = o.frontier.unwrap_or(0);
        let report = loadgen::run_over_tcp(addr, &program, &open, &o.load, points, o.shutdown);
        stop.store(true, Ordering::Relaxed);
        let report = report?;
        if o.frontier.is_some() {
            let mismatches = report.calibration.mismatches;
            return print(report.to_json(), report.render_pretty(), mismatches);
        }
        report.calibration
    };
    if let Some(top) = top {
        let _ = top.join();
    }
    print(report.to_json(), report.render_pretty(), report.mismatches)
}

/// `artifacts metrics`: scrape a running service's unified telemetry
/// snapshot (JSON by default, Prometheus-style text with `--text`).
fn metrics_command(options: MetricsOptions) -> Result<(), String> {
    let addr = options.addr.expect("checked by the table");
    let mut client =
        NetClient::connect(&addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    if options.text {
        print!("{}", client.metrics_text()?);
    } else {
        let metrics = serde_json::to_string_pretty(&client.metrics_full()?);
        println!("{}", metrics.expect("metrics serialization cannot fail"));
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
    let loaded = options.spec_files.iter().map(|path| load_spec_file(path));
    let loaded: Vec<ExperimentSpec> = loaded.collect::<Result<_, _>>()?;
    let specs = names.iter().map(|name| lookup(registry, name));
    let mut specs: Vec<&ExperimentSpec> = specs.collect::<Result<_, _>>()?;
    specs.extend(loaded.iter());
    // Reject selections in which two *different* specs share a name: their
    // outputs would be written to (or printed under) the same `<name>.<ext>`
    // and one would silently overwrite the other. Identical content is fine
    // (e.g. `--spec` of a dumped registry spec next to its name).
    let mut seen = std::collections::BTreeMap::new();
    for spec in &specs {
        let hash = spec.content_hash();
        let earlier = seen.insert(spec.name.as_str(), hash.clone());
        if earlier.is_some_and(|earlier| earlier != hash) {
            return Err(format!(
                "two different specs named `{}` selected; rename one (outputs would collide)",
                spec.name
            ));
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
    let rest = args.get(1..).unwrap_or_default();
    match args.first().map(String::as_str) {
        None | Some("help" | "-h" | HELP) => say(&usage()),
        Some("list") => {
            let mut table = format!("{:<24}  {:<20}  TITLE", "NAME", "KIND");
            for spec in registry.specs() {
                let row = format!("{:<24}  {:<20}  {}", spec.name, spec.kind.tag(), spec.title);
                table.extend(["\n", row.as_str()]);
            }
            say(&table)
        }
        Some("show") => {
            let name = args
                .get(1)
                .ok_or("show needs a spec name (try `artifacts list`)")?;
            let spec = serde_json::to_string_pretty(&lookup(&registry, name)?.to_json());
            say(&spec.expect("spec serialization cannot fail"))
        }
        Some("run") => run_flags().run(rest, |o| run_command(&o, &registry)),
        Some("serve") => serve_flags().run(rest, |o| serve_command(&o)),
        Some("loadgen") => loadgen_flags().run(rest, |o| loadgen_command(&o)),
        Some("metrics") => metrics_flags().run(rest, metrics_command),
        Some("sweep") => match rest.first().map(String::as_str) {
            Some("run" | "resume") => {
                sweep_run_flags().run(&rest[1..], |o| sweep_run_command(o, &registry))
            }
            Some("status") => {
                sweep_status_flags().run(&rest[1..], |o| sweep_status_command(&o, &registry))
            }
            Some(HELP) => {
                let (run, status) = (sweep_run_flags().help(), sweep_status_flags().help());
                say(&format!("{run}\n{status}"))
            }
            other => Err(format!(
                "sweep needs an action (run|resume|status), got {other:?}"
            )),
        },
        Some("check") => {
            let path = args.get(1).ok_or("check needs a JSON file path")?;
            let text = fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            let value =
                serde_json::from_str(&text).map_err(|_| format!("{path} is not valid JSON"))?;
            validate_artifact_json(&value).map_err(|e| format!("{path}: {e}"))?;
            say(&format!("{path}: OK"))
        }
        Some(other) => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ExperimentKind;

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
            "--queue-shots",
            "128",
        ]))
        .unwrap();
        assert_eq!(options.addr, "0.0.0.0:9000");
        assert_eq!(options.service.workers, 4);
        assert_eq!(options.service.flush_deadline, Duration::from_micros(250));
        assert_eq!(options.service.stream_queue_shots, 128);
        assert!(parse_serve_options(&strings(&["--workers"])).is_err());
        assert!(parse_serve_options(&strings(&["--workers", "x"])).is_err());
        assert!(parse_serve_options(&strings(&["--bogus"])).is_err());
        assert_eq!(
            parse_serve_options(&strings(&["--no-telemetry"])).unwrap_err(),
            "unknown serve flag `--no-telemetry`"
        );
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
        assert_eq!(
            parse_loadgen_options(&strings(&["--in-process", "--no-telemetry"])).unwrap_err(),
            "unknown loadgen flag `--no-telemetry`"
        );
        // The architecture follows a spec file's rule: an infinite gate
        // improvement would divide every noise probability to zero.
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = parse_arch("grid", 2, "standard", bad).unwrap_err();
            assert!(err.contains("gate_improvement"), "{bad}: {err}");
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
            "exact",
            "--streams",
            "8",
            "--connections",
            "2",
            "--shots",
            "4096",
            "--wire",
            "frames",
            "--frontier",
            "4",
            "--seed",
            "7",
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
        assert_eq!(options.decoder, qccd_decoder::DecoderKind::ExactMatching);
        assert_eq!(options.load.streams, 8);
        assert_eq!(options.load.connections, 2);
        assert_eq!(options.load.shots, 4096);
        assert!(!options.load.shot_major);
        assert_eq!(options.frontier, Some(4));
        assert_eq!(options.load.seed, 7);
        assert!(options.shutdown);
        assert!(options.json);
        // `--rate` goes without `--frontier`, which calibrates unthrottled.
        let rate = strings(&["--addr", "x:1", "--rate", "50000"]);
        let rate = parse_loadgen_options(&rate).unwrap().load.rate;
        assert_eq!(rate, Some(50_000.0));

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

    /// Every row of a table shows in its `--help`, and every table's line in
    /// the usage text.
    fn rows_in_help<T: Default>(command: Command<T>) {
        let help = command.help();
        for flag in &command.flags {
            let left = format!("  {} {}", flag.name, flag.value);
            let line = format!("{} {}", left.trim_end(), flag.help);
            assert!(
                help.lines()
                    .any(|l| l.split_whitespace().eq(line.split_whitespace())),
                "`{}` --help lacks `{line}`:\n{help}",
                command.name
            );
        }
        assert!(help.contains("--help"), "{help}");
        assert!(usage().contains(&command.line()), "{}", command.name);
    }

    #[test]
    fn every_flag_row_is_in_its_help() {
        rows_in_help(run_flags());
        rows_in_help(serve_flags());
        rows_in_help(loadgen_flags());
        rows_in_help(metrics_flags());
        rows_in_help(sweep_run_flags());
        rows_in_help(sweep_status_flags());
    }

    #[test]
    fn help_wins_anywhere_in_flag_position() {
        let parse = |args: &[&str]| loadgen_flags().parse(&strings(args)).map(|o| o.is_none());
        assert_eq!(parse(&["--help"]), Ok(true));
        // After a refusal and after a complete line alike.
        assert_eq!(parse(&["--streams", "x", "--help"]), Ok(true));
        assert_eq!(parse(&["--in-process", "--help"]), Ok(true));
        // A value position takes `--help` as the value.
        assert_eq!(parse(&["--in-process", "--trace-out", "--help"]), Ok(false));
        // The library entry points refuse it with the help text.
        let help = parse_loadgen_options(&strings(&["--help"])).unwrap_err();
        assert_eq!(help, loadgen_flags().help());
        assert!(run(&strings(&["sweep", "status", "--help"])).is_ok());
    }

    #[test]
    fn sweep_run_options_parse_and_reject() {
        let options = parse_sweep_run_options(&strings(&[
            "fig07",
            "--store",
            "mystore",
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
        assert_eq!(options.progress_interval, Duration::from_millis(100));
        assert!(options.quiet);
        assert_eq!(options.format, OutputFormat::Json);
        assert_eq!(options.out, Some(PathBuf::from("out")));

        // Exactly one spec.
        assert!(parse_sweep_run_options(&strings(&[])).is_err());
        assert!(parse_sweep_run_options(&strings(&["a", "b"])).is_err());
        assert!(parse_sweep_run_options(&strings(&["a", "--spec", "b.json"])).is_err());
        assert!(parse_sweep_run_options(&strings(&["a", "--bogus"])).is_err());

        // `--listen`, `--lease-timeout-ms`, the retry knobs, the telemetry
        // switch, the worker count and `worker` are refused through the
        // unknown-flag and missing-action paths.
        for flag in [
            "--listen",
            "--local-workers",
            "--lease-timeout-ms",
            "--max-attempts",
            "--backoff-ms",
            "--no-telemetry",
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

        // Status on a base no run has used refuses, naming the store it
        // looked for, and leaves the base empty.
        let fresh = dir.path("fresh");
        fs::create_dir_all(&fresh).unwrap();
        let err = run(&strings(&[
            "sweep",
            "status",
            "--spec",
            spec_path.to_str().unwrap(),
            "--store",
            fresh.to_str().unwrap(),
        ]))
        .unwrap_err();
        assert!(
            err.contains(fresh.join("cli-sweep-test-").to_str().unwrap()),
            "{err}"
        );
        assert_eq!(
            fs::read_dir(&fresh).unwrap().count(),
            0,
            "status wrote to the base"
        );

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
