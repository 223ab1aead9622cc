//! Evaluation metrics (§6.3 of the paper).

use qccd_decoder::LogicalErrorEstimate;
use qccd_hardware::ResourceEstimate;

/// Every metric the design-space exploration reports for one
/// (architecture, code distance) point.
#[derive(Debug, Clone, PartialEq)]
pub struct Metrics {
    /// Human-readable architecture label.
    pub architecture: String,
    /// Code distance evaluated.
    pub code_distance: usize,
    /// Physical qubits of the code (2d² − 1 for the rotated surface code).
    pub num_physical_qubits: usize,
    /// Traps in the sized device.
    pub num_traps: usize,
    /// Junctions in the sized device.
    pub num_junctions: usize,
    /// Elapsed time of one round of parity checks, in microseconds.
    pub qec_round_time_us: f64,
    /// Elapsed time of one logical-identity shot (d rounds plus transversal
    /// readout), in microseconds.
    pub shot_time_us: f64,
    /// Ion-reconfiguration operations per round.
    pub movement_ops_per_round: usize,
    /// Total reconfiguration time per round, in microseconds.
    pub movement_time_per_round_us: f64,
    /// Control-electronics estimate (electrodes, DACs, data rate, power).
    pub resources: ResourceEstimate,
    /// Monte-Carlo logical error estimate, when requested.
    pub logical_error: Option<LogicalErrorEstimate>,
}

impl Metrics {
    /// Logical clock speed in logical operations per second: one logical
    /// operation requires `d` rounds of parity checks.
    pub fn logical_clock_hz(&self) -> f64 {
        if self.qec_round_time_us <= 0.0 || self.code_distance == 0 {
            return 0.0;
        }
        1.0e6 / (self.qec_round_time_us * self.code_distance as f64)
    }

    /// The per-shot logical error rate, if it was estimated.
    pub fn logical_error_rate(&self) -> Option<f64> {
        self.logical_error.map(|e| e.logical_error_rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_resources() -> ResourceEstimate {
        ResourceEstimate {
            linear_zones: 10,
            junction_zones: 2,
            dynamic_electrodes: 140,
            shim_electrodes: 120,
            total_electrodes: 260,
            dacs: 260,
            data_rate_gbit_s: 13.0,
            power_w: 7.8,
        }
    }

    #[test]
    fn logical_clock_speed() {
        let metrics = Metrics {
            architecture: "grid c2 standard 5x".to_string(),
            code_distance: 5,
            num_physical_qubits: 49,
            num_traps: 49,
            num_junctions: 30,
            qec_round_time_us: 4_000.0,
            shot_time_us: 20_000.0,
            movement_ops_per_round: 288,
            movement_time_per_round_us: 9_000.0,
            resources: dummy_resources(),
            logical_error: None,
        };
        // 1 / (5 · 4 ms) = 50 logical ops per second.
        assert!((metrics.logical_clock_hz() - 50.0).abs() < 1e-9);
        assert_eq!(metrics.logical_error_rate(), None);
    }

    #[test]
    fn degenerate_metrics_do_not_divide_by_zero() {
        let metrics = Metrics {
            architecture: "x".to_string(),
            code_distance: 0,
            num_physical_qubits: 0,
            num_traps: 0,
            num_junctions: 0,
            qec_round_time_us: 0.0,
            shot_time_us: 0.0,
            movement_ops_per_round: 0,
            movement_time_per_round_us: 0.0,
            resources: dummy_resources(),
            logical_error: None,
        };
        assert_eq!(metrics.logical_clock_hz(), 0.0);
    }
}
