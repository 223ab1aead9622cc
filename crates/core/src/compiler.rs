//! The end-to-end QEC-to-QCCD compiler (Figure 5 of the paper).
//!
//! [`Compiler::compile_circuit`] runs the full pipeline for one architecture:
//!
//! 1. size a device of the configured topology for the code,
//! 2. map code qubits onto traps (clustering + Hungarian matching, §4.2),
//! 3. route ion movement so every two-qubit gate is local (§4.3),
//! 4. schedule the routed operations under resource constraints (§4.4).
//!
//! The resulting [`CompiledProgram`] exposes the evaluation quantities the
//! paper reports (elapsed time, movement operations, movement time) and can
//! be lowered to a noisy stabilizer circuit for logical-error-rate
//! simulation.

use qccd_circuit::Circuit;
use qccd_hardware::Device;
use qccd_noise::NoiseParams;
use qccd_qec::{memory_experiment, parity_check_round, CodeLayout, MemoryBasis};
use qccd_sim::NoisyCircuit;

use crate::{
    lower_to_noisy_circuit, map_qubits_with_strategy, route, schedule, ArchitectureConfig,
    ClusteringStrategy, CompileError, QubitMapping, RoutedProgram, Schedule,
};

/// The output of the compilation pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    /// The architecture the program was compiled for.
    pub arch: ArchitectureConfig,
    /// The annotated input circuit (detectors / observables preserved).
    pub circuit: Circuit,
    /// The device instance the program runs on.
    pub device: Device,
    /// The qubit-to-trap mapping.
    pub mapping: QubitMapping,
    /// The routed operation stream.
    pub routed: RoutedProgram,
    /// The timed execution schedule.
    pub schedule: Schedule,
}

impl CompiledProgram {
    /// Total elapsed (wall-clock) time of the program in microseconds.
    pub fn elapsed_time_us(&self) -> f64 {
        self.schedule.makespan_us
    }

    /// Number of ion-reconfiguration operations (movement primitives plus
    /// gate swaps).
    pub fn movement_ops(&self) -> usize {
        self.schedule.movement_ops
    }

    /// Total time spent in ion reconfiguration, summed over operations.
    pub fn movement_time_us(&self) -> f64 {
        self.schedule.movement_time_us
    }

    /// Lowers the schedule into a noisy stabilizer circuit using the
    /// architecture's noise model.
    pub fn to_noisy_circuit(&self) -> NoisyCircuit {
        self.to_noisy_circuit_with(&self.arch.noise)
    }

    /// Lowers the schedule with explicitly provided noise parameters.
    pub fn to_noisy_circuit_with(&self, params: &NoiseParams) -> NoisyCircuit {
        lower_to_noisy_circuit(&self.schedule, &self.circuit, params)
    }
}

/// The QEC- and device-topology-aware compiler.
#[derive(Debug, Clone, PartialEq)]
pub struct Compiler {
    arch: ArchitectureConfig,
    mapping_strategy: ClusteringStrategy,
}

impl Compiler {
    /// Creates a compiler for one candidate architecture.
    pub fn new(arch: ArchitectureConfig) -> Self {
        Compiler {
            arch,
            mapping_strategy: ClusteringStrategy::Geometric,
        }
    }

    /// Overrides the qubit-clustering strategy of the mapping pass
    /// (ablation; see [`ClusteringStrategy`]).
    pub fn with_mapping_strategy(mut self, strategy: ClusteringStrategy) -> Self {
        self.mapping_strategy = strategy;
        self
    }

    /// The architecture this compiler targets.
    pub fn arch(&self) -> &ArchitectureConfig {
        &self.arch
    }

    /// Compiles an arbitrary annotated circuit defined over the given code
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the device cannot host the code or the
    /// routing constraints cannot be satisfied.
    pub fn compile_circuit(
        &self,
        circuit: &Circuit,
        layout: &CodeLayout,
    ) -> Result<CompiledProgram, CompileError> {
        let device = self.arch.device_for(layout.num_qubits());
        let mapping = map_qubits_with_strategy(layout, &device, self.mapping_strategy)?;
        let routed = route(circuit, layout, &device, &mapping)?;
        let timed = schedule(&routed, &self.arch.operation_times, self.arch.wiring);
        Ok(CompiledProgram {
            arch: self.arch.clone(),
            circuit: circuit.clone(),
            device,
            mapping,
            routed,
            schedule: timed,
        })
    }

    /// Compiles `rounds` rounds of parity checks for a code (no logical
    /// initialisation or readout); this is the workload used for the
    /// elapsed-time and movement metrics (Tables 2 and 3, Figures 8a and 9).
    pub fn compile_rounds(
        &self,
        layout: &CodeLayout,
        rounds: usize,
    ) -> Result<CompiledProgram, CompileError> {
        let mut circuit = Circuit::new();
        circuit.pad_qubits(layout.num_qubits());
        let round = parity_check_round(layout);
        for _ in 0..rounds {
            circuit.extend(round.iter().copied());
        }
        self.compile_circuit(&circuit, layout)
    }

    /// Compiles a full memory (logical identity) experiment with detectors
    /// and a logical observable; this is the workload used for logical error
    /// rate estimation (Figures 8b, 10–13).
    pub fn compile_memory_experiment(
        &self,
        layout: &CodeLayout,
        rounds: usize,
        basis: MemoryBasis,
    ) -> Result<CompiledProgram, CompileError> {
        let experiment = memory_experiment(layout, rounds, basis);
        self.compile_circuit(&experiment.circuit, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_resource_exclusivity, RoutedOp};
    use qccd_hardware::{TopologyKind, WiringMethod};
    use qccd_qec::{repetition_code, rotated_surface_code};
    use qccd_sim::verify_detectors;

    #[test]
    fn compile_round_produces_valid_schedule() {
        let arch = ArchitectureConfig::recommended(1.0);
        let compiler = Compiler::new(arch);
        let layout = rotated_surface_code(3);
        let program = compiler.compile_rounds(&layout, 1).unwrap();
        assert!(program.elapsed_time_us() > 0.0);
        assert!(program.movement_ops() > 0);
        assert!(check_resource_exclusivity(&program.schedule, WiringMethod::Standard).is_ok());
    }

    #[test]
    fn capacity_two_round_time_is_independent_of_distance() {
        // The paper's headline observation (Figure 9): with trap capacity 2
        // on a grid, the QEC round time is constant in the code distance.
        let compiler = Compiler::new(ArchitectureConfig::recommended(1.0));
        let t3 = compiler
            .compile_rounds(&rotated_surface_code(3), 1)
            .unwrap()
            .elapsed_time_us();
        let t5 = compiler
            .compile_rounds(&rotated_surface_code(5), 1)
            .unwrap()
            .elapsed_time_us();
        let ratio = t5 / t3;
        assert!(
            ratio < 1.35,
            "round time should be nearly constant: d=3 {t3} µs vs d=5 {t5} µs"
        );
    }

    #[test]
    fn single_chain_round_time_grows_with_distance() {
        let arch = ArchitectureConfig::new(TopologyKind::Linear, 200, WiringMethod::Standard, 1.0);
        let compiler = Compiler::new(arch);
        let t3 = compiler
            .compile_rounds(&rotated_surface_code(3), 1)
            .unwrap()
            .elapsed_time_us();
        let t5 = compiler
            .compile_rounds(&rotated_surface_code(5), 1)
            .unwrap()
            .elapsed_time_us();
        assert!(
            t5 > 2.0 * t3,
            "a monolithic trap serialises everything: d=3 {t3} µs vs d=5 {t5} µs"
        );
    }

    #[test]
    fn memory_experiment_detectors_stay_deterministic_after_compilation() {
        // The compiler reorders operations across qubits; detector
        // definitions must survive because per-qubit order is preserved.
        let compiler = Compiler::new(ArchitectureConfig::recommended(1.0));
        let layout = rotated_surface_code(3);
        let program = compiler
            .compile_memory_experiment(&layout, 2, MemoryBasis::Z)
            .unwrap();
        let noiseless = lower_to_noisy_circuit(
            &program.schedule,
            &program.circuit,
            &NoiseParams {
                // Zero out all noise so only determinism is checked.
                t2_seconds: f64::INFINITY,
                background_heating_per_us: 0.0,
                laser_instability_a0: 0.0,
                reset_error: 0.0,
                measurement_error: 0.0,
                ..NoiseParams::standard(1.0)
            },
        );
        verify_detectors(&noiseless, &[1, 5]).expect("compiled detectors remain deterministic");
    }

    #[test]
    fn wise_wiring_slows_the_clock() {
        let layout = rotated_surface_code(3);
        let standard = Compiler::new(ArchitectureConfig::new(
            TopologyKind::Grid,
            2,
            WiringMethod::Standard,
            1.0,
        ));
        let wise = Compiler::new(ArchitectureConfig::new(
            TopologyKind::Grid,
            2,
            WiringMethod::Wise,
            1.0,
        ));
        let t_standard = standard
            .compile_rounds(&layout, 1)
            .unwrap()
            .elapsed_time_us();
        let t_wise = wise.compile_rounds(&layout, 1).unwrap().elapsed_time_us();
        assert!(
            t_wise > 2.0 * t_standard,
            "WISE transport serialisation + cooling must slow the round: {t_wise} vs {t_standard}"
        );
    }

    #[test]
    fn geometric_mapping_beats_round_robin_ablation() {
        // The ablation baseline ignores the code geometry when clustering;
        // it must cost more ion movement (and hence a longer round) than the
        // paper's geometric partition on a multi-qubit-per-trap device.
        let arch = ArchitectureConfig::new(TopologyKind::Grid, 5, WiringMethod::Standard, 1.0);
        let layout = rotated_surface_code(3);
        let geometric = Compiler::new(arch.clone())
            .compile_rounds(&layout, 1)
            .unwrap();
        let blind = Compiler::new(arch)
            .with_mapping_strategy(ClusteringStrategy::RoundRobin)
            .compile_rounds(&layout, 1)
            .unwrap();
        assert!(
            geometric.movement_ops() < blind.movement_ops(),
            "geometric {} vs round-robin {} movement ops",
            geometric.movement_ops(),
            blind.movement_ops()
        );
        assert!(geometric.elapsed_time_us() <= blind.elapsed_time_us());
    }

    #[test]
    fn repetition_code_compiles_on_small_linear_device() {
        let arch = ArchitectureConfig::new(TopologyKind::Linear, 2, WiringMethod::Standard, 1.0);
        let compiler = Compiler::new(arch);
        let layout = repetition_code(3);
        let program = compiler.compile_rounds(&layout, 5).unwrap();
        let gate_ops = program.routed.ops.iter();
        let gate_ops = gate_ops.filter(|op| matches!(op, RoutedOp::Gate { .. }));
        assert_eq!(gate_ops.count(), 5 * parity_check_round(&layout).len());
    }

    #[test]
    fn insufficient_capacity_is_reported() {
        // A single trap that cannot hold the whole code.
        let arch = ArchitectureConfig::new(TopologyKind::Linear, 3, WiringMethod::Standard, 1.0);
        let compiler = Compiler::new(arch);
        let layout = rotated_surface_code(3);
        // Build a deliberately undersized device by compiling against a
        // layout bigger than the device the spec would produce: force it by
        // using a one-trap device.
        let device = qccd_hardware::Device::single_chain(4);
        let result = crate::map_qubits(&layout, &device);
        assert!(matches!(
            result,
            Err(CompileError::InsufficientCapacity { .. })
        ));
        // The normal pipeline sizes the device correctly, so it succeeds.
        assert!(compiler.compile_rounds(&layout, 1).is_ok());
    }
}
