//! End-to-end kill-and-resume smoke test of the resumable sweep runner.
//!
//! Drives the real `artifacts` binary: a `sweep run` with one local worker
//! is SIGKILLed once its first point is on disk, a stray temp file is
//! planted where a torn write would leave one, and `sweep resume` must
//! compute exactly the points that were missing and merge an artifact
//! byte-identical to an uninterrupted in-process `run_spec`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use qccd_bench::{run_spec, ExperimentKind, ExperimentRegistry, ExperimentSpec};
use serde_json::Value;

/// A scratch directory unique to this test binary, cleaned up on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        let dir = std::env::temp_dir().join(format!("qccd-sweep-resume-{}", std::process::id()));
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

/// Kills the child on drop so a failing assertion can't leak processes.
struct Reaper(Child);

impl Drop for Reaper {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The registry's smallest real LER sweep, cut to three d = 5 points at 1X
/// gates: each takes over 100 ms in a release build, so a kill after the
/// first point lands mid-run.
fn tiny_spec() -> ExperimentSpec {
    let registry = ExperimentRegistry::builtin();
    let mut spec = registry
        .names()
        .iter()
        .filter_map(|name| registry.get(name))
        .find(|spec| matches!(spec.kind, ExperimentKind::LerSweep(_)))
        .expect("the registry has LER sweeps")
        .clone();
    if let ExperimentKind::LerSweep(kind) = &mut spec.kind {
        kind.configurations.truncate(3);
        for configuration in &mut kind.configurations {
            configuration.gate_improvement = 1.0;
        }
        kind.sample_distances = vec![5];
        kind.shots = 80_000;
    }
    spec.name = "resume-smoke".to_string();
    spec
}

fn artifacts(args: &[&str]) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_artifacts"));
    command.args(args);
    command
}

/// The finished point files under `store` (the single job directory's
/// `points/`), or `None` before the run has created it.
fn point_files(store: &Path) -> Option<(PathBuf, usize)> {
    let job_dir = fs::read_dir(store).ok()?.next()?.ok()?.path();
    let points = job_dir.join("points");
    let count = fs::read_dir(&points)
        .ok()?
        .filter_map(Result::ok)
        .filter(|entry| entry.file_name().to_string_lossy().starts_with("point-"))
        .count();
    Some((points, count))
}

/// `(computed, resumed)` from a `sweep run` summary line
/// (``sweep `name`: C computed, R resumed, ...``).
fn summary_counts(stdout: &str) -> (usize, usize) {
    let words: Vec<&str> = stdout
        .lines()
        .find_map(|line| line.split_once("`: ")?.1.split_once(" failed"))
        .unwrap_or_else(|| panic!("no summary line in:\n{stdout}"))
        .0
        .split_whitespace()
        .collect();
    match words[..] {
        [computed, "computed,", resumed, "resumed,", _] => {
            (computed.parse().unwrap(), resumed.parse().unwrap())
        }
        _ => panic!("unexpected summary {words:?}"),
    }
}

#[test]
fn killed_local_run_resumes_to_a_bit_identical_artifact() {
    let dir = TempDir::new();
    let spec = tiny_spec();
    let spec_path = dir.path("spec.json");
    fs::write(
        &spec_path,
        serde_json::to_string_pretty(&spec.to_json()).unwrap(),
    )
    .unwrap();
    let store = dir.path("store");
    let out = dir.path("out");
    let spec_arg = spec_path.to_str().unwrap();
    let store_arg = store.to_str().unwrap();

    // 1. A local run with one worker ...
    let mut run = Reaper(
        artifacts(&[
            "sweep",
            "run",
            "--spec",
            spec_arg,
            "--store",
            store_arg,
            "--local-workers",
            "1",
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("sweep run spawns"),
    );

    // 2. ... SIGKILLed as soon as its first point is on disk. If the run
    // finishes first the kill lands on a finished process, and every
    // assertion below still holds.
    let deadline = Instant::now() + Duration::from_secs(120);
    let points = loop {
        if let Some((points, count)) = point_files(&store) {
            if count > 0 {
                break points;
            }
        }
        assert!(
            run.0.try_wait().expect("poll sweep run").is_none(),
            "sweep run exited without writing a point"
        );
        assert!(Instant::now() < deadline, "no point after 120 s");
        std::thread::sleep(Duration::from_millis(2));
    };
    run.0.kill().expect("SIGKILL the run");
    run.0.wait().expect("reap the run");

    // 3. A torn write leaves a temp file behind; plant one.
    fs::write(points.join(".tmp-4242-0"), "{\"index\":").unwrap();
    let (_, on_disk) = point_files(&store).expect("the store exists");
    let total = 3;
    assert!((1..=total).contains(&on_disk), "{on_disk} points on disk");
    println!("killed with {on_disk} of {total} points on disk");

    // 4. Resume computes exactly the missing points.
    let resumed = artifacts(&[
        "sweep",
        "resume",
        "--spec",
        spec_arg,
        "--store",
        store_arg,
        "--quiet",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ])
    .output()
    .expect("sweep resume runs");
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let (computed, resumed_points) = summary_counts(&String::from_utf8_lossy(&resumed.stdout));
    assert_eq!(computed + resumed_points, total);
    assert_eq!(resumed_points, on_disk);
    assert_eq!(computed, total - on_disk);

    // The merged artifact is byte-identical to the uninterrupted
    // single-process reference (`--format json` output).
    let reference = run_spec(&spec).expect("reference run succeeds").to_json();
    assert_eq!(
        fs::read_to_string(out.join(format!("{}.json", spec.name))).unwrap(),
        serde_json::to_string_pretty(&reference).unwrap(),
        "the resumed artifact differs from run_spec"
    );

    // The final status snapshot is complete and carries no requeue or
    // duplicate counters.
    let status = artifacts(&[
        "sweep", "status", "--spec", spec_arg, "--store", store_arg, "--format", "json",
    ])
    .output()
    .expect("sweep status runs");
    assert!(status.status.success());
    let snapshot: Value =
        serde_json::from_str(&String::from_utf8_lossy(&status.stdout)).expect("status JSON");
    let count = |key: &str| snapshot.get(key).and_then(Value::as_u64);
    assert_eq!(count("done"), Some(total as u64), "{snapshot}");
    assert_eq!(count("failed"), Some(0), "{snapshot}");
    for gone in ["requeues", "duplicates"] {
        assert!(snapshot.get(gone).is_none(), "{gone}: {snapshot}");
    }
}
