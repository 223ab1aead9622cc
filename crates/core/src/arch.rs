//! Candidate architecture configurations.
//!
//! An [`ArchitectureConfig`] bundles everything that defines one point of the
//! paper's design space (§3, §6.2): communication topology, trap capacity,
//! control-system wiring, the gate-timing model and the physical noise
//! parameters (including the gate-improvement factor). The design-space
//! exploration toolflow sweeps these configurations.

use qccd_hardware::{Device, OperationTimes, TopologyKind, TopologySpec, WiringMethod};
use qccd_noise::NoiseParams;

/// One candidate QCCD architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct ArchitectureConfig {
    /// Communication topology and trap capacity.
    pub topology: TopologySpec,
    /// Control-system wiring method.
    pub wiring: WiringMethod,
    /// Operation timing model (Table 1 by default).
    pub operation_times: OperationTimes,
    /// Physical noise parameters.
    pub noise: NoiseParams,
}

impl ArchitectureConfig {
    /// Creates a configuration with the paper's default timing model and a
    /// noise model derived from the wiring method (WISE implies cooling).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or `gate_improvement` is not positive.
    pub fn new(
        topology: TopologyKind,
        capacity: usize,
        wiring: WiringMethod,
        gate_improvement: f64,
    ) -> Self {
        assert!(capacity >= 1, "trap capacity must be positive");
        let noise = if wiring.requires_cooling() {
            NoiseParams::wise_cooled(gate_improvement)
        } else {
            NoiseParams::standard(gate_improvement)
        };
        ArchitectureConfig {
            topology: TopologySpec::new(topology, capacity),
            wiring,
            operation_times: OperationTimes::paper_defaults(),
            noise,
        }
    }

    /// The standard-wiring grid configuration the paper recommends: trap
    /// capacity two, grid connectivity, direct DAC wiring.
    pub fn recommended(gate_improvement: f64) -> Self {
        ArchitectureConfig::new(
            TopologyKind::Grid,
            2,
            WiringMethod::Standard,
            gate_improvement,
        )
    }

    /// The trap capacity of this configuration.
    pub fn capacity(&self) -> usize {
        self.topology.capacity
    }

    /// Builds a device of this architecture sized for `num_qubits` code
    /// qubits.
    pub fn device_for(&self, num_qubits: usize) -> Device {
        self.topology.build_for_qubits(num_qubits)
    }

    /// A short human-readable label, e.g. `"grid c2 standard 5x"`; the
    /// factor is the noise model's gate improvement.
    pub fn label(&self) -> String {
        format!(
            "{} c{} {} {:.0}x",
            self.topology.kind, self.topology.capacity, self.wiring, self.noise.gate_improvement
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recommended_configuration() {
        let arch = ArchitectureConfig::recommended(5.0);
        assert_eq!(arch.capacity(), 2);
        assert_eq!(arch.topology.kind, TopologyKind::Grid);
        assert_eq!(arch.wiring, WiringMethod::Standard);
        assert!(!arch.noise.cooled);
        assert_eq!(arch.label(), "grid c2 standard 5x");
    }

    #[test]
    fn wise_configuration_enables_cooling() {
        let arch = ArchitectureConfig::new(TopologyKind::Grid, 5, WiringMethod::Wise, 5.0);
        assert!(arch.noise.cooled);
        assert_eq!(arch.noise.gate_improvement, 5.0);
    }

    #[test]
    fn device_sizing_uses_topology_spec() {
        let arch = ArchitectureConfig::new(TopologyKind::Linear, 3, WiringMethod::Standard, 1.0);
        let device = arch.device_for(17);
        assert!(device.mappable_qubits() >= 17);
        assert_eq!(device.kind(), TopologyKind::Linear);
        assert_eq!(device.capacity(), 3);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        ArchitectureConfig::new(TopologyKind::Grid, 0, WiringMethod::Standard, 1.0);
    }
}
