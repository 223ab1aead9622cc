//! The design-space exploration toolflow (Figure 2 of the paper).
//!
//! Given a candidate architecture and a candidate QEC code, the toolflow
//! compiles the workload with the topology-aware compiler, applies the
//! performance / noise / resource models, and reports the evaluation metrics:
//! QEC round time, shot time, movement operations, electrode / DAC / data
//! rate / power requirements and (optionally) the Monte-Carlo logical error
//! rate at that one distance. The below-threshold extrapolation across
//! distances is not here: the experiment harness fits Λ to a sweep's points
//! with `qccd_decoder::fit_lambda_weighted`.
//!
//! Metrics come from one path, [`Toolflow::evaluate_layout`], with no memo
//! behind it: a compile takes milliseconds, so every evaluation compiles its
//! own programs, and a caller that reuses a program (the decode service's
//! program registry, a LER sweep's per-schedule fault tables) holds the
//! compiled value itself.

use qccd_decoder::{
    estimate_logical_error_rate_report, DecoderKind, EstimateReport, EstimatorConfig,
};
use qccd_hardware::estimate_resources;
use qccd_qec::{rotated_surface_code, CodeLayout, MemoryBasis};

use crate::{ArchitectureConfig, CompileError, CompiledProgram, Compiler, Metrics};

/// One declarative evaluation point: everything [`Toolflow::run_spec`] needs
/// to produce a [`Metrics`] — the toolflow (architecture and sampling
/// configuration) and the workload distance.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolflowSpec {
    /// The architecture under test and its sampling/decoding settings.
    pub toolflow: Toolflow,
    /// Rotated-surface-code distance of the memory workload.
    pub distance: usize,
    /// Whether to run the Monte-Carlo logical error rate estimate.
    pub estimate_ler: bool,
}

impl ToolflowSpec {
    /// A spec with the default sampling settings of [`Toolflow::new`],
    /// estimating the LER.
    pub fn new(arch: ArchitectureConfig, distance: usize) -> Self {
        ToolflowSpec {
            toolflow: Toolflow::new(arch),
            distance,
            estimate_ler: true,
        }
    }
}

/// The end-to-end evaluation toolflow for one candidate architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct Toolflow {
    /// The candidate architecture under evaluation.
    pub arch: ArchitectureConfig,
    /// Monte-Carlo shots per logical-error-rate estimate.
    pub shots: usize,
    /// Random seed for sampling.
    pub seed: u64,
    /// Decoder used for logical error rate estimation.
    pub decoder: DecoderKind,
    /// Monte-Carlo pipeline configuration (chunking, parallelism, early
    /// stopping) forwarded to the decoder crate's batch estimator.
    pub estimator: EstimatorConfig,
}

impl Toolflow {
    /// Creates a toolflow with default sampling settings (4,096 shots,
    /// union-find decoding, parallel batch estimation).
    pub fn new(arch: ArchitectureConfig) -> Self {
        Toolflow {
            arch,
            shots: 4_096,
            seed: 2026,
            decoder: DecoderKind::UnionFind,
            estimator: EstimatorConfig::default(),
        }
    }

    /// Overrides the number of Monte-Carlo shots.
    pub fn with_shots(mut self, shots: usize) -> Self {
        self.shots = shots;
        self
    }

    /// Evaluates one declarative spec point end to end (compile → model →
    /// optionally sample/decode): [`Toolflow::evaluate`] of the spec's
    /// toolflow, so results are bit-identical to the imperative path.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]s from the compiler.
    pub fn run_spec(spec: &ToolflowSpec) -> Result<Metrics, CompileError> {
        spec.toolflow.evaluate(spec.distance, spec.estimate_ler)
    }

    /// Evaluates the architecture on the rotated surface code of the given
    /// distance (the paper's primary workload: a logical identity of `d`
    /// rounds) — [`Toolflow::evaluate_layout`] of that code for `d` rounds.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]s from the compiler.
    pub fn evaluate(&self, distance: usize, estimate_ler: bool) -> Result<Metrics, CompileError> {
        self.evaluate_layout(&rotated_surface_code(distance), distance, estimate_ler)
    }

    /// The Monte-Carlo logical error estimate at `distance`, with the
    /// decoder cache statistics of the run: the compile of the `d`-round
    /// memory experiment ([`Toolflow::memory_program`]), its noisy circuit,
    /// and the batch estimator — nothing else, so every call compiles.
    /// [`Toolflow::evaluate`]`(d, true)` reports exactly this estimate as
    /// its `logical_error`.
    ///
    /// A sweep over gate improvements need not compile per point: the
    /// [`ScheduleFaults`](crate::ScheduleFaults) of the memory program,
    /// re-weighted to this toolflow's gate improvement and passed to
    /// `qccd_decoder::estimate_logical_error_rate_from_table` with the same
    /// shots, seed, decoder and estimator, gives this report bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]s from the compiler.
    pub fn estimate(&self, distance: usize) -> Result<EstimateReport, CompileError> {
        Ok(self.estimate_program(&self.memory_program(distance)?))
    }

    /// The compiled `d`-round Z-basis memory experiment of the rotated
    /// surface code at `distance`: the program every logical error
    /// estimate at that distance samples.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]s from the compiler.
    pub fn memory_program(&self, distance: usize) -> Result<CompiledProgram, CompileError> {
        Compiler::new(self.arch.clone()).compile_memory_experiment(
            &rotated_surface_code(distance),
            distance.max(1),
            MemoryBasis::Z,
        )
    }

    fn estimate_program(&self, shot_program: &CompiledProgram) -> EstimateReport {
        estimate_logical_error_rate_report(
            &shot_program.to_noisy_circuit(),
            self.shots,
            self.seed,
            self.decoder,
            &self.estimator,
        )
        .expect("compiled circuits carry consistent annotations")
    }

    /// Evaluates the architecture on an arbitrary code layout, running
    /// `rounds` rounds of parity checks for the logical-identity workload.
    ///
    /// # Errors
    ///
    /// Propagates [`CompileError`]s from the compiler.
    pub fn evaluate_layout(
        &self,
        layout: &CodeLayout,
        rounds: usize,
        estimate_ler: bool,
    ) -> Result<Metrics, CompileError> {
        let compiler = Compiler::new(self.arch.clone());

        // One round for the cycle-time and movement metrics.
        let round_program = compiler.compile_rounds(layout, 1)?;
        // The full experiment for shot time and (optionally) the LER.
        let shot_program =
            compiler.compile_memory_experiment(layout, rounds.max(1), MemoryBasis::Z)?;
        Ok(Metrics {
            architecture: self.arch.label(),
            code_distance: layout.distance(),
            num_physical_qubits: layout.num_qubits(),
            num_traps: round_program.device.num_traps(),
            num_junctions: round_program.device.num_junctions(),
            qec_round_time_us: round_program.elapsed_time_us(),
            shot_time_us: shot_program.elapsed_time_us(),
            movement_ops_per_round: round_program.movement_ops(),
            movement_time_per_round_us: round_program.movement_time_us(),
            resources: estimate_resources(&round_program.device, self.arch.wiring),
            logical_error: estimate_ler.then(|| self.estimate_program(&shot_program).estimate),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_hardware::{TopologyKind, WiringMethod};

    #[test]
    fn evaluate_produces_consistent_metrics() {
        let toolflow = Toolflow::new(ArchitectureConfig::recommended(5.0)).with_shots(256);
        let metrics = toolflow.evaluate(3, false).unwrap();
        assert_eq!(metrics.code_distance, 3);
        assert_eq!(metrics.num_physical_qubits, 17);
        assert!(metrics.qec_round_time_us > 0.0);
        assert!(metrics.shot_time_us >= metrics.qec_round_time_us);
        assert!(metrics.movement_ops_per_round > 0);
        assert!(metrics.resources.total_electrodes > 0);
        assert!(metrics.logical_error.is_none());
        assert!(metrics.logical_clock_hz() > 0.0);
    }

    #[test]
    fn logical_error_estimation_runs_end_to_end() {
        let toolflow = Toolflow::new(ArchitectureConfig::recommended(10.0)).with_shots(512);
        let metrics = toolflow.evaluate(3, true).unwrap();
        let ler = metrics.logical_error_rate().unwrap();
        assert!((0.0..=1.0).contains(&ler));
    }

    #[test]
    fn grid_beats_linear_on_round_time() {
        // A capacity-2 linear chain leaves one free slot per trap and every
        // route passes through other traps, so a 2-D code's ancillas block
        // each other head-on and the router gives up (`RoutingStuck`). The
        // pessimistic linear case is therefore evaluated at capacity 3.
        let grid = Toolflow::new(ArchitectureConfig::new(
            TopologyKind::Grid,
            2,
            WiringMethod::Standard,
            1.0,
        ));
        let linear = Toolflow::new(ArchitectureConfig::new(
            TopologyKind::Linear,
            3,
            WiringMethod::Standard,
            1.0,
        ));
        let g = grid.evaluate(3, false).unwrap();
        let l = linear.evaluate(3, false).unwrap();
        assert!(
            l.qec_round_time_us > 1.5 * g.qec_round_time_us,
            "linear ({}) should be much slower than grid ({})",
            l.qec_round_time_us,
            g.qec_round_time_us
        );
    }

    #[test]
    fn run_spec_matches_imperative_toolflow() {
        let arch = ArchitectureConfig::recommended(5.0);
        let spec = ToolflowSpec {
            toolflow: Toolflow {
                seed: 7,
                ..Toolflow::new(arch.clone()).with_shots(256)
            },
            distance: 3,
            estimate_ler: true,
        };
        let from_spec = Toolflow::run_spec(&spec).unwrap();
        let imperative = Toolflow {
            seed: 7,
            ..Toolflow::new(arch).with_shots(256)
        }
        .evaluate(3, true)
        .unwrap();
        assert_eq!(from_spec, imperative);
        let ler = from_spec.logical_error.unwrap();
        assert_eq!(ler.shots, imperative.logical_error.unwrap().shots);
    }

    #[test]
    fn estimate_is_the_logical_error_of_evaluate_with_cache_statistics() {
        let toolflow = Toolflow {
            seed: 7,
            ..Toolflow::new(ArchitectureConfig::recommended(5.0)).with_shots(256)
        };
        let report = toolflow.estimate(3).unwrap();
        let metrics = toolflow.evaluate(3, true).unwrap();
        assert_eq!(Some(report.estimate), metrics.logical_error);
        // 256 shots = 4 words, all triaged exactly once.
        assert_eq!(report.cache.words(), 256 / 64);
        assert_eq!(
            report.cache.quiet_words + report.cache.sparse_words + report.cache.dense_words,
            report.cache.words()
        );
    }

    #[test]
    fn spec_defaults_mirror_toolflow_defaults() {
        let arch = ArchitectureConfig::recommended(1.0);
        let spec = ToolflowSpec::new(arch.clone(), 5);
        assert_eq!(spec.toolflow, Toolflow::new(arch));
        assert_eq!(spec.distance, 5);
        assert!(spec.estimate_ler);
    }

    #[test]
    fn evaluate_is_deterministic_and_equals_evaluate_layout() {
        // evaluate is evaluate_layout of the rotated surface code, and a
        // second evaluation is a pure replay.
        let toolflow = Toolflow::new(ArchitectureConfig::recommended(5.0)).with_shots(256);
        let first = toolflow.evaluate(3, true).unwrap();
        let layout = toolflow
            .evaluate_layout(&rotated_surface_code(3), 3, true)
            .unwrap();
        assert_eq!(first, layout);
        let again = toolflow.evaluate(3, true).unwrap();
        assert_eq!(first, again);
    }

    #[test]
    fn evaluate_layout_accepts_other_codes() {
        let toolflow = Toolflow::new(ArchitectureConfig::new(
            TopologyKind::Linear,
            3,
            WiringMethod::Standard,
            1.0,
        ))
        .with_shots(128);
        let layout = qccd_qec::repetition_code(5);
        let metrics = toolflow.evaluate_layout(&layout, 3, true).unwrap();
        assert_eq!(metrics.num_physical_qubits, 9);
        assert!(metrics.logical_error.is_some());
    }
}
