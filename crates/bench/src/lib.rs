//! # qccd-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§7).
//!
//! Experiments are *data*, not binaries: a declarative
//! [`ExperimentSpec`] (workload × architecture grid × distances × noise
//! scaling × decoder × estimator config × outputs) describes each artefact,
//! the [`registry`] registers all thirteen paper artefacts as named specs,
//! and the single `artifacts` binary resolves, runs and emits them:
//!
//! ```text
//! cargo run -p qccd-bench --release --bin artifacts -- list
//! cargo run -p qccd-bench --release --bin artifacts -- run fig09 --format json --out out/
//! cargo run -p qccd-bench --release --bin artifacts -- sweep run fig10 --store sweeps/
//! ```
//!
//! Every builtin artefact regenerates in seconds, so nothing caches whole
//! artefacts; the one persistent result store is the sweeprun point store
//! behind `artifacts sweep run`, which keeps the per-point outcomes of the
//! only artefacts that can get expensive (LER grids with user-sized shot
//! counts) and re-merges a finished store in milliseconds
//! (see [`point_job`]).
//!
//! Tables, timing-series keys and the table2/table3/ext_* JSON payloads keep
//! the shape the retired per-figure binaries printed; the LER artefacts use
//! the unified entry schema (`sampled` points plus a `lambda` object with
//! confidence intervals).
//!
//! Shared plumbing lives here: aligned-table rendering, and the [`sweep`]
//! module that evaluates `(architecture, distance, decoder)` points in
//! order, each at its deterministic sweep seed.

#![warn(missing_docs)]

pub mod artifact;
pub mod cli;
pub mod point_job;
pub mod registry;
pub mod spec;
pub mod sweep;

use qccd_core::ArchitectureConfig;
use qccd_hardware::{TopologyKind, WiringMethod};

pub use artifact::{validate_artifact_json, Artifact, ArtifactMetadata};
pub use point_job::{merge_artifact, spec_point_job, SpecPointJob};
pub use registry::{artifact_from_outcomes, point_grid, run_spec, ExperimentRegistry, RunError};
pub use spec::{
    ArchPoint, CodeSpec, CompileCase, ExperimentKind, ExperimentSpec, LerOutput, LerSweepSpec,
    SpecError, TimingMetric, TimingSweepSpec,
};
pub use sweep::{
    evaluate_ler_point, ler_curves_from_outcomes, ler_sweep_points, run_ler_sweep, LerCurve,
    LerOutcome, LerPoint, ScheduleCache, DEFAULT_SWEEP_SEED,
};

/// Renders an aligned text table (the pretty emitter of every artifact).
pub fn format_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = format!("\n=== {title} ===\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String], out: &mut String| {
        let mut text = String::new();
        for (i, cell) in cells.iter().enumerate() {
            text.push_str(&format!("{:<width$}  ", cell, width = widths[i]));
        }
        out.push_str(text.trim_end());
        out.push('\n');
    };
    line(
        &headers.iter().map(|h| h.to_string()).collect::<Vec<_>>(),
        &mut out,
    );
    line(
        &widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>(),
        &mut out,
    );
    for row in rows {
        line(row, &mut out);
    }
    out
}

/// Formats a float compactly, using scientific notation for small values.
pub fn fmt_f64(value: f64) -> String {
    if value == 0.0 {
        "0".to_string()
    } else if value.abs() < 1e-3 || value.abs() >= 1e6 {
        format!("{value:.2e}")
    } else {
        format!("{value:.1}")
    }
}

/// Builds the standard-wiring grid architecture at a given capacity and gate
/// improvement.
pub fn grid_arch(capacity: usize, improvement: f64) -> ArchitectureConfig {
    ArchitectureConfig::new(
        TopologyKind::Grid,
        capacity,
        WiringMethod::Standard,
        improvement,
    )
}

/// Monte-Carlo shot count of the builtin LER specs. Kept moderate so every
/// figure regenerates in seconds; increase for tighter error bars.
pub const DEFAULT_SHOTS: usize = 2_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_f64(0.0), "0");
        assert_eq!(fmt_f64(1234.5), "1234.5");
        assert!(fmt_f64(1.2e-7).contains('e'));
    }

    #[test]
    fn arch_helpers() {
        let arch = grid_arch(2, 5.0);
        assert_eq!(arch.capacity(), 2);
        assert_eq!(arch.wiring, WiringMethod::Standard);
    }
}
