//! Parity table of the `artifacts` command-line parsers.
//!
//! Each case is one command line and the word a refusal of it must name.
//! A line without the `artifacts` prefix goes through its subcommand's
//! `parse_*_options` and records the `{:?}` of the options it parses to, or
//! `refused`; a line with the prefix goes through [`cli::run`] and records
//! `ok` or `refused` (only lines that stop before any work: `--help`, and
//! `metrics` refusals, which fail before connecting). The table covers every
//! flag with a value and without one, a bad value for each typed flag, each
//! cross-flag refusal and `--help` on each subcommand, so a rewrite of the
//! parsers that leaves `golden/cli_parity.txt` byte-identical accepts and
//! refuses exactly what it did before.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_cli
//! ```

use std::path::PathBuf;

use qccd_bench::cli;

/// `(command line, word a refusal must name)`.
const CASES: &[(&str, &str)] = &[
    // run
    ("run fig09", "fig09"),
    ("run fig09 table2 --format json --out out", "--format"),
    ("run --all", "--all"),
    ("run --spec a.json --spec b.json", "--spec"),
    ("run fig09 --spec a.json --format csv", "--format"),
    ("run -h", "-h"),
    ("run --spec", "--spec"),
    ("run fig09 --format", "--format"),
    ("run fig09 --format yaml", "--format"),
    ("run fig09 --out", "--out"),
    ("run", "--all"),
    ("run --all fig09", "--all"),
    ("run --all --spec s.json", "--all"),
    ("run fig09 --bogus", "--bogus"),
    ("artifacts run --help", "--help"),
    ("artifacts run fig09 --help --format json", "--help"),
    // serve
    ("serve", "serve"),
    (
        "serve --addr 0.0.0.0:9000 --workers 4 --deadline-us 250 --queue-shots 128 \
         --sample-every 4 --trace-out t.jsonl",
        "--addr",
    ),
    ("serve --addr", "--addr"),
    ("serve --workers", "--workers"),
    ("serve --workers x", "--workers"),
    ("serve --workers 0", "--workers"),
    ("serve --deadline-us", "--deadline-us"),
    ("serve --deadline-us -1", "--deadline-us"),
    ("serve --batch-words", "--batch-words"),
    ("serve --batch-words 0", "--batch-words"),
    ("serve --batch-words 2", "--batch-words"),
    ("serve --queue-shots", "--queue-shots"),
    ("serve --queue-shots 1.5", "--queue-shots"),
    ("serve --queue-shots 0", "--queue-shots"),
    ("serve --sample-every", "--sample-every"),
    ("serve --sample-every x", "--sample-every"),
    ("serve --sample-every 0", "--sample-every"),
    ("serve --trace-out", "--trace-out"),
    ("serve extra", "extra"),
    ("serve --no-telemetry", "--no-telemetry"),
    ("artifacts serve --help", "--help"),
    ("artifacts serve --workers 3 --help", "--help"),
    // loadgen: target and architecture
    ("loadgen --in-process", "--in-process"),
    ("loadgen --addr 127.0.0.1:7878", "--addr"),
    ("loadgen", "--in-process"),
    ("loadgen --addr", "--addr"),
    ("loadgen --addr x:1 --in-process", "--in-process"),
    (
        "loadgen --in-process --topology switch --capacity 5 --wiring wise --improvement 10 \
         --distance 5 --decoder exact",
        "--topology",
    ),
    ("loadgen --in-process --topology", "--topology"),
    ("loadgen --in-process --capacity", "--capacity"),
    ("loadgen --in-process --capacity x", "--capacity"),
    ("loadgen --in-process --wiring", "--wiring"),
    ("loadgen --in-process --improvement", "--improvement"),
    ("loadgen --in-process --improvement abc", "--improvement"),
    ("loadgen --in-process --distance", "--distance"),
    ("loadgen --in-process --distance x", "--distance"),
    ("loadgen --in-process --distance 1", "--distance"),
    ("loadgen --in-process --decoder", "--decoder"),
    ("loadgen --in-process --decoder magic", "--decoder"),
    ("loadgen --in-process --decoder greedy", "--decoder"),
    // loadgen: replay
    (
        "loadgen --addr x:1 --streams 8 --connections 2 --shots 4096 \
         --wire frames --frontier 4 --seed 7 --shutdown --format json",
        "--streams",
    ),
    ("loadgen --in-process --streams", "--streams"),
    ("loadgen --in-process --streams x", "--streams"),
    ("loadgen --in-process --streams 0", "--streams"),
    ("loadgen --addr x:1 --connections", "--connections"),
    ("loadgen --addr x:1 --connections x", "--connections"),
    ("loadgen --addr x:1 --connections 0", "--connections"),
    ("loadgen --in-process --connections 2", "--connections"),
    ("loadgen --in-process --shots", "--shots"),
    ("loadgen --in-process --shots x", "--shots"),
    ("loadgen --in-process --shots 0", "--shots"),
    ("loadgen --in-process --rate", "--rate"),
    ("loadgen --in-process --rate x", "--rate"),
    ("loadgen --in-process --rate nan", "--rate"),
    ("loadgen --in-process --rate 0", "--rate"),
    ("loadgen --in-process --rate -5", "--rate"),
    ("loadgen --in-process --wire packed", "--wire"),
    ("loadgen --in-process --wire", "--wire"),
    ("loadgen --in-process --wire sideways", "--wire"),
    ("loadgen --addr x:1 --frontier", "--frontier"),
    ("loadgen --addr x:1 --frontier x", "--frontier"),
    ("loadgen --addr x:1 --frontier 0", "--frontier"),
    ("loadgen --in-process --frontier 3", "--frontier"),
    ("loadgen --addr x:1 --frontier 4 --rate 50000", "--rate"),
    ("loadgen --in-process --seed", "--seed"),
    ("loadgen --in-process --seed -1", "--seed"),
    ("loadgen --in-process --no-verify", "--no-verify"),
    ("loadgen --in-process --format pretty", "--format"),
    ("loadgen --in-process --format", "--format"),
    ("loadgen --in-process --format csv", "--format"),
    ("loadgen --in-process --format yaml", "--format"),
    // loadgen: observation
    ("loadgen --in-process --top", "--top"),
    ("loadgen --addr x:1 --top --frontier 2", "--top"),
    ("loadgen --in-process --trace-out t.jsonl", "--trace-out"),
    ("loadgen --in-process --trace-out", "--trace-out"),
    ("loadgen --addr x:1 --trace-out t.jsonl", "--trace-out"),
    // loadgen: service tuning
    (
        "loadgen --in-process --workers 3 --deadline-us 300 --queue-shots 64 --sample-every 1",
        "--workers",
    ),
    ("loadgen --in-process --workers", "--workers"),
    ("loadgen --in-process --workers 0", "--workers"),
    ("loadgen --in-process --batch-words 0", "--batch-words"),
    ("loadgen --in-process --batch-words 2", "--batch-words"),
    ("loadgen --in-process --queue-shots 0", "--queue-shots"),
    ("loadgen --in-process --sample-every 0", "--sample-every"),
    ("loadgen --addr x:1 --workers 8", "--workers"),
    ("loadgen --addr x:1 --deadline-us 5", "--deadline-us"),
    ("loadgen --addr x:1 --batch-words 2", "--batch-words"),
    ("loadgen --addr x:1 --queue-shots 64", "--queue-shots"),
    ("loadgen --addr x:1 --sample-every 3", "--sample-every"),
    ("loadgen --in-process --no-telemetry", "--no-telemetry"),
    ("loadgen --in-process --bogus", "--bogus"),
    ("artifacts loadgen --help", "--help"),
    (
        "artifacts loadgen --in-process --streams 0 --help",
        "--help",
    ),
    // sweep run / resume
    ("sweep run fig10", "fig10"),
    (
        "sweep resume fig07 --store s --local-workers 3 --progress-interval-ms 100 --quiet \
         --sample-every 2 --format json --out out",
        "--store",
    ),
    ("sweep run --spec f.json", "--spec"),
    ("sweep run --spec", "--spec"),
    ("sweep run a --store", "--store"),
    ("sweep run a --local-workers", "--local-workers"),
    ("sweep run a --local-workers x", "--local-workers"),
    ("sweep run a --local-workers 0", "--local-workers"),
    (
        "sweep run a --progress-interval-ms",
        "--progress-interval-ms",
    ),
    (
        "sweep run a --progress-interval-ms x",
        "--progress-interval-ms",
    ),
    ("sweep run a --sample-every", "--sample-every"),
    ("sweep run a --sample-every 0", "--sample-every"),
    ("sweep run a --format", "--format"),
    ("sweep run a --format yaml", "--format"),
    ("sweep run a --out", "--out"),
    ("sweep run", "--spec"),
    ("sweep run a b", "spec"),
    ("sweep run a --spec b.json", "--spec"),
    ("sweep run a --max-attempts 2", "--max-attempts"),
    ("sweep run a --no-telemetry", "--no-telemetry"),
    ("artifacts sweep run --help", "--help"),
    ("artifacts sweep resume a --help", "--help"),
    ("artifacts sweep --help", "--help"),
    // sweep status
    ("sweep status fig07 --store s", "--store"),
    ("sweep status --spec f.json --format json", "--format"),
    ("sweep status fig07 --format pretty", "--format"),
    ("sweep status --spec", "--spec"),
    ("sweep status a --store", "--store"),
    ("sweep status a --format", "--format"),
    ("sweep status a --format yaml", "--format"),
    ("sweep status a --format csv", "--format"),
    ("sweep status", "--spec"),
    ("sweep status a b", "spec"),
    ("sweep status a --spec f.json", "--spec"),
    ("sweep status --addr h:1 fig07", "--addr"),
    ("artifacts sweep status --help", "--help"),
    // metrics (every line fails before it connects)
    ("artifacts metrics", "--addr"),
    ("artifacts metrics --text", "--addr"),
    ("artifacts metrics --addr", "--addr"),
    ("artifacts metrics --addr h:1 --bogus", "--bogus"),
    ("artifacts metrics --help", "--help"),
    ("artifacts metrics --addr h:1 --text --help", "--help"),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("cli_parity.txt")
}

/// Parses one case line; `Err` carries the refusal message.
fn outcome(line: &str) -> Result<String, String> {
    let words: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    match words[0].as_str() {
        "artifacts" => cli::run(&words[1..]).map(|()| "ok".to_string()),
        "run" => debug(cli::parse_run_options(&words[1..])),
        "serve" => debug(cli::parse_serve_options(&words[1..])),
        "loadgen" => debug(cli::parse_loadgen_options(&words[1..])),
        "sweep" if words[1] == "status" => debug(cli::parse_sweep_status_options(&words[2..])),
        "sweep" => debug(cli::parse_sweep_run_options(&words[2..])),
        other => panic!("case `{line}` names no subcommand (`{other}`)"),
    }
}

fn debug<T: std::fmt::Debug>(parsed: Result<T, String>) -> Result<String, String> {
    parsed.map(|options| format!("{options:?}"))
}

#[test]
fn command_lines_parse_as_pinned() {
    let mut rendered = String::new();
    for (line, names) in CASES {
        let result = match outcome(line) {
            Ok(parsed) => parsed,
            Err(message) => {
                assert!(
                    message.contains(names),
                    "refusal of `{line}` must name `{names}`: {message}"
                );
                "refused".to_string()
            }
        };
        rendered.push_str(&format!("{line} => {result}\n"));
    }
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &rendered).expect("write golden");
        eprintln!("golden expectation rewritten at {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden expectation at {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (got, want) in rendered.lines().zip(committed.lines()) {
        assert_eq!(got, want, "command line parsed differently from the golden");
    }
    assert_eq!(
        rendered.lines().count(),
        committed.lines().count(),
        "case count drifted; regenerate with UPDATE_GOLDEN=1 cargo test -p qccd-bench --test \
         golden_cli"
    );
}
