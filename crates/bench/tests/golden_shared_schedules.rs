//! Golden regression for sweep points that share one compiled schedule.
//!
//! `fig10`'s grid is three gate improvements × grid c2/c5/c12 × d ∈ {3, 5}:
//! 18 points over 6 distinct (capacity, distance) schedules, because the
//! gate improvement only divides noise probabilities. Each point runs at 256
//! shots on one estimator thread, so every counter — the hit/miss split
//! included — is deterministic, and this file pins each point's estimate
//! bits and full `CacheStats`. A sweep that compiles a schedule once and
//! re-weights it per point must reproduce these bits exactly.
//!
//! Regenerate after an *intentional* pipeline change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_shared_schedules
//! ```

use std::path::PathBuf;

use qccd_bench::{point_grid, run_ler_sweep, ExperimentKind, ExperimentRegistry};

const GOLDEN_SHOTS: usize = 256;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("shared_schedules_fig10.json")
}

fn outcomes_as_json() -> serde_json::Value {
    let mut spec = ExperimentRegistry::builtin()
        .get("fig10")
        .expect("fig10 is a builtin spec")
        .clone();
    let ExperimentKind::LerSweep(kind) = &mut spec.kind else {
        panic!("fig10 changed kind");
    };
    kind.shots = GOLDEN_SHOTS;
    kind.estimator = kind.estimator.with_num_threads(1);
    let points = point_grid(&spec).expect("fig10 is a grid");
    assert_eq!(
        points.len(),
        18,
        "3 gate improvements x 3 capacities x 2 distances"
    );
    serde_json::Value::Array(
        run_ler_sweep(spec.seed, &points)
            .iter()
            .map(|outcome| {
                let estimate = outcome.result.as_ref().expect("fig10's points compile");
                let cache = outcome.cache.expect("a decoded point carries stats");
                serde_json::json!({
                    "label": outcome.label,
                    "distance": outcome.distance as u64,
                    "seed": format!("{:#018x}", outcome.seed),
                    "shots": estimate.shots as u64,
                    "failures": estimate.failures as u64,
                    // Bits as hex strings: the comparison is exact.
                    "logical_error_rate": format!("{:#018x}", estimate.logical_error_rate.to_bits()),
                    "std_error": format!("{:#018x}", estimate.std_error.to_bits()),
                    "cache": {
                        "hits": cache.hits,
                        "misses": cache.misses,
                        "uncacheable": cache.uncacheable,
                        "quiet_words": cache.quiet_words,
                        "sparse_words": cache.sparse_words,
                        "dense_words": cache.dense_words,
                    },
                })
            })
            .collect(),
    )
}

#[test]
fn shared_schedule_points_match_committed_golden() {
    let rendered = serde_json::to_string_pretty(&outcomes_as_json()).expect("serializable");
    let path = golden_path();
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
        "shared-schedule points drifted from the committed golden; if the change is \
         intentional, regenerate with UPDATE_GOLDEN=1 cargo test -p qccd-bench --test \
         golden_shared_schedules"
    );
}
