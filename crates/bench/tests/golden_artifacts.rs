//! Golden regression test for the experiment registry.
//!
//! `artifacts run fig09` must reproduce the committed golden numbers
//! bit-identically: the registry resolves the `fig09` spec and executes it
//! through the same `run_spec` path the CLI uses, so a diff here means
//! every consumer drifted. fig09 is compile-only (no Monte Carlo), so this
//! pins the compiler → scheduler → performance-model half of the pipeline;
//! `golden_sweep.rs` pins the sampling/decoding half.
//!
//! `ext_decoder_comparison` is pinned the same way, by value: every
//! decoder's estimate on every case of the builtin spec.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_artifacts
//! ```

use std::path::PathBuf;

use qccd_bench::ExperimentRegistry;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(format!("artifact_{name}.json"))
}

/// The comparable portion of the artifact: everything except metadata
/// (which carries the volatile `git describe`).
fn comparable(artifact: &qccd_bench::Artifact) -> serde_json::Value {
    serde_json::json!({
        "title": artifact.title.clone(),
        "headers": artifact.headers.clone(),
        "rows": serde_json::Value::Array(
            artifact
                .rows
                .iter()
                .map(|row| serde_json::Value::from(row.clone()))
                .collect(),
        ),
        "data": artifact.data,
    })
}

/// Runs the builtin artefact `name` and compares its comparable portion
/// with `golden/artifact_<name>.json` (or rewrites it under `UPDATE_GOLDEN`).
fn assert_matches_golden(name: &str) {
    let artifact = ExperimentRegistry::builtin()
        .run(name)
        .unwrap_or_else(|e| panic!("{name} is registered and valid: {e:?}"));
    let rendered = serde_json::to_string_pretty(&comparable(&artifact)).expect("serializable");
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
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
    assert_eq!(
        rendered.trim(),
        committed.trim(),
        "{name} artifact drifted from the committed golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_artifacts"
    );
}

#[test]
fn artifacts_run_fig09_matches_committed_golden() {
    assert_matches_golden("fig09");
}

#[test]
fn artifacts_run_ext_decoder_comparison_matches_committed_golden() {
    assert_matches_golden("ext_decoder_comparison");
}

#[test]
fn fig09_artifact_is_stable_across_runs_and_carries_provenance() {
    let registry = ExperimentRegistry::builtin();
    let a = registry.run("fig09").unwrap();
    let b = registry.run("fig09").unwrap();
    assert_eq!(comparable(&a), comparable(&b), "reruns are bit-identical");
    assert_eq!(a.metadata.spec_hash, b.metadata.spec_hash);
    assert_eq!(
        a.metadata.spec_hash,
        registry.get("fig09").unwrap().content_hash()
    );
    assert!(a.metadata.thread_invariant);
}
