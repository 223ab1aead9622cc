//! Golden regression for the word-parallel decode path's cache statistics.
//!
//! A pinned single-threaded, single-chunk Monte-Carlo run must reproduce
//! the committed estimate *and* the full `CacheStats` — including the
//! per-word verdicts (quiet/sparse/dense words) — bit-identically. A diff
//! here means the word path changed its scan or accounting behaviour.
//!
//! Regenerate after an *intentional* change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_word_stats
//! ```

use std::path::PathBuf;

use qccd_core::{ArchitectureConfig, Toolflow, ToolflowSpec};
use qccd_decoder::EstimatorConfig;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("word_path_stats.json")
}

/// The pinned evaluation point: one chunk, one thread, so every counter —
/// including the scheduling-sensitive hit/miss split — is deterministic.
fn pinned_spec() -> ToolflowSpec {
    ToolflowSpec {
        shots: 4096,
        seed: 2026,
        estimator: EstimatorConfig::default().with_num_threads(1),
        ..ToolflowSpec::new(ArchitectureConfig::recommended(5.0), 3)
    }
}

#[test]
fn word_path_stats_match_committed_golden() {
    let spec = pinned_spec();
    let report = Toolflow::from_spec(&spec)
        .estimate(spec.distance)
        .expect("pinned spec evaluates");
    let (estimate, cache) = (report.estimate, report.cache);
    assert_eq!(cache.words(), 64, "4096 shots scan as 64 words");
    let rendered = serde_json::to_string_pretty(&serde_json::json!({
        "shots": estimate.shots,
        "failures": estimate.failures,
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "uncacheable": cache.uncacheable,
            "quiet_words": cache.quiet_words,
            "sparse_words": cache.sparse_words,
            "dense_words": cache.dense_words,
        },
    }))
    .expect("stats serialize");
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
        "word-path stats drifted from the committed golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p qccd-bench --test golden_word_stats"
    );
}
