//! Golden regression test for in-process LER sweeps.
//!
//! Runs a small fixed-seed sweep (d ∈ {3, 5}, two architectures, and the
//! exact decoder at the first point) through the same
//! `run_ler_sweep` path the figure/table binaries use, and compares the
//! outcome — per-point seeds, shot counts and exact failure counts — against
//! a committed JSON expectation. The sweep pipeline is bit-deterministic by
//! construction (per-point seeds depend only on the sweep seed and point
//! index; the estimator is chunk/thread invariant), so any diff here means a
//! figure or table binary would silently drift.
//!
//! Regenerate the expectation after an *intentional* pipeline change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_sweep
//! ```

use std::path::PathBuf;

use qccd_bench::{grid_arch, run_ler_sweep, LerPoint, DEFAULT_SWEEP_SEED};
use qccd_core::ArchitectureConfig;
use qccd_decoder::DecoderKind;
use qccd_hardware::{TopologyKind, WiringMethod};

// Enough shots that the distance-3 points pin non-zero failure counts.
const GOLDEN_SHOTS: usize = 16_384;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("sweep_d3d5.json")
}

fn golden_points() -> Vec<LerPoint> {
    let grid = grid_arch(2, 5.0);
    let switch = ArchitectureConfig::new(TopologyKind::Switch, 3, WiringMethod::Wise, 5.0);
    let mut points = Vec::new();
    for (label, arch) in [("grid c2 5X", grid), ("switch c3 WISE 5X", switch)] {
        for d in [3usize, 5] {
            points.push(LerPoint::new(label, arch.clone(), d, GOLDEN_SHOTS));
        }
    }
    // One exact-decoder point exercises the decoder dimension of the sweep.
    points.push(
        LerPoint::new("grid c2 5X exact", grid_arch(2, 5.0), 3, GOLDEN_SHOTS)
            .with_decoder(DecoderKind::ExactMatching),
    );
    points
}

fn outcomes_as_json() -> serde_json::Value {
    let outcomes = run_ler_sweep(DEFAULT_SWEEP_SEED, &golden_points());
    serde_json::Value::Array(
        outcomes
            .iter()
            .map(|outcome| {
                let (shots, failures, error) = match &outcome.result {
                    Ok(estimate) => (
                        Some(estimate.shots as u64),
                        Some(estimate.failures as u64),
                        None,
                    ),
                    Err(e) => (None, None, Some(e.clone())),
                };
                serde_json::json!({
                    "label": outcome.label,
                    "distance": outcome.distance as u64,
                    "decoder": format!("{:?}", outcome.decoder),
                    // Seeds are u64; hex strings avoid JSON number precision.
                    "seed": format!("{:#018x}", outcome.seed),
                    "shots_requested": outcome.shots_requested as u64,
                    "shots": shots,
                    "failures": failures,
                    "error": error,
                })
            })
            .collect(),
    )
}

#[test]
fn sweep_outcomes_match_committed_golden() {
    let actual = outcomes_as_json();
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&actual).expect("serializable"),
        )
        .expect("write golden");
        eprintln!("golden expectation rewritten at {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden expectation at {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    // The golden serialization contains only integers, strings and nulls, so
    // comparing the canonical pretty-printing is an exact value comparison.
    let rendered = serde_json::to_string_pretty(&actual).expect("serializable");
    assert_eq!(
        rendered.trim(),
        committed.trim(),
        "sweep outcome drifted from the committed golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_sweep"
    );
}

#[test]
fn sweep_outcomes_are_thread_invariant() {
    let run = |threads: usize| -> Vec<(u64, usize, String)> {
        let points: Vec<LerPoint> = golden_points()
            .into_iter()
            .map(|point| {
                let estimator = point.estimator.with_num_threads(threads);
                point.with_estimator(estimator)
            })
            .collect();
        run_ler_sweep(DEFAULT_SWEEP_SEED, &points)
            .into_iter()
            .map(|o| {
                (
                    o.seed,
                    o.result.as_ref().map(|e| e.failures).unwrap_or(usize::MAX),
                    o.label,
                )
            })
            .collect()
    };
    assert_eq!(run(1), run(4));
}
