//! Electrode, DAC, data-rate and power estimation (§5.2 of the paper).
//!
//! The electrode count of a QCCD device is determined by its zones:
//!
//! * every trap provides `capacity` *linear zones* (one per ion site), each
//!   needing 10 dynamic electrodes,
//! * every junction is a *junction zone* needing 20 dynamic electrodes,
//! * every zone (linear or junction) additionally needs 10 shim electrodes.
//!
//! Under the **standard** wiring each electrode gets its own DAC; the
//! controller-to-QPU data rate is 50 Mbit/s per DAC and the QPU dissipates
//! 30 mW per DAC. Under **WISE**, all dynamic electrodes share ≈100 DACs and
//! one DAC drives ≈100 shim electrodes, so the DAC count is
//! `100 + N_shim / 100`.

use crate::{Device, WiringMethod};

/// Dynamic electrodes per linear (trap) zone.
pub const DYNAMIC_ELECTRODES_PER_LINEAR_ZONE: usize = 10;
/// Dynamic electrodes per junction zone.
pub const DYNAMIC_ELECTRODES_PER_JUNCTION_ZONE: usize = 20;
/// Shim electrodes per zone (linear or junction).
pub const SHIM_ELECTRODES_PER_ZONE: usize = 10;
/// Controller-to-QPU bandwidth per DAC, in Mbit/s.
pub const DATA_RATE_PER_DAC_MBIT_S: f64 = 50.0;
/// Power dissipated per DAC, in milliwatts.
pub const POWER_PER_DAC_MILLIWATT: f64 = 30.0;
/// DACs shared by all dynamic electrodes in the WISE architecture.
pub const WISE_DYNAMIC_DACS: usize = 100;
/// Shim electrodes driven by one DAC in the WISE architecture.
pub const WISE_SHIM_ELECTRODES_PER_DAC: usize = 100;

/// A full resource estimate for one device under one wiring method.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceEstimate {
    /// Number of linear (trap) zones, `N_t × capacity`.
    pub linear_zones: usize,
    /// Number of junction zones, `N_j`.
    pub junction_zones: usize,
    /// Dynamic electrodes.
    pub dynamic_electrodes: usize,
    /// Shim electrodes.
    pub shim_electrodes: usize,
    /// Total electrodes.
    pub total_electrodes: usize,
    /// Digital-to-analog converters required.
    pub dacs: usize,
    /// Controller-to-QPU data rate, in Gbit/s.
    pub data_rate_gbit_s: f64,
    /// QPU power dissipation, in watts.
    pub power_w: f64,
}

/// Estimates the control-electronics resources of a device under the given
/// wiring method.
///
/// # Examples
///
/// Reproducing the paper's §3.3 example — a distance-7 surface code
/// (97 physical qubits) on a capacity-2 grid needs ≈5,500 DACs and
/// ≈275 Gbit/s under standard wiring:
///
/// ```
/// use qccd_hardware::{estimate_resources, Device, TopologySpec, TopologyKind, WiringMethod};
///
/// let spec = TopologySpec::new(TopologyKind::Grid, 2);
/// let device = spec.build_for_qubits(97);
/// let est = estimate_resources(&device, WiringMethod::Standard);
/// assert!(est.dacs > 4_500 && est.dacs < 7_000);
/// assert!(est.data_rate_gbit_s > 225.0 && est.data_rate_gbit_s < 350.0);
/// ```
pub fn estimate_resources(device: &Device, wiring: WiringMethod) -> ResourceEstimate {
    let linear_zones: usize = device.traps().iter().map(|t| t.capacity).sum();
    let junction_zones = device.num_junctions();
    let dynamic_electrodes = DYNAMIC_ELECTRODES_PER_LINEAR_ZONE * linear_zones
        + DYNAMIC_ELECTRODES_PER_JUNCTION_ZONE * junction_zones;
    let shim_electrodes = SHIM_ELECTRODES_PER_ZONE * (linear_zones + junction_zones);
    let total_electrodes = dynamic_electrodes + shim_electrodes;

    let dacs = match wiring {
        WiringMethod::Standard => total_electrodes,
        WiringMethod::Wise => {
            WISE_DYNAMIC_DACS + shim_electrodes.div_ceil(WISE_SHIM_ELECTRODES_PER_DAC)
        }
    };
    let data_rate_gbit_s = dacs as f64 * DATA_RATE_PER_DAC_MBIT_S / 1_000.0;
    let power_w = dacs as f64 * POWER_PER_DAC_MILLIWATT / 1_000.0;

    ResourceEstimate {
        linear_zones,
        junction_zones,
        dynamic_electrodes,
        shim_electrodes,
        total_electrodes,
        dacs,
        data_rate_gbit_s,
        power_w,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TopologyKind, TopologySpec};

    #[test]
    fn electrode_formula_matches_hand_calculation() {
        // 2 junctions, 1 trap of capacity 4 between them.
        let device = Device::grid(1, 2, 4);
        assert_eq!(device.num_traps(), 1);
        assert_eq!(device.num_junctions(), 2);
        let est = estimate_resources(&device, WiringMethod::Standard);
        assert_eq!(est.linear_zones, 4);
        assert_eq!(est.junction_zones, 2);
        assert_eq!(est.dynamic_electrodes, 10 * 4 + 20 * 2);
        assert_eq!(est.shim_electrodes, 10 * 6);
        assert_eq!(est.total_electrodes, 80 + 60);
        assert_eq!(est.dacs, 140);
    }

    #[test]
    fn standard_wiring_matches_paper_distance7_example() {
        let spec = TopologySpec::new(TopologyKind::Grid, 2);
        let device = spec.build_for_qubits(2 * 7 * 7 - 1);
        let est = estimate_resources(&device, WiringMethod::Standard);
        // The paper quotes ≈5,500 DACs and ≈275 Gbit/s for this configuration.
        assert!(
            est.dacs > 4_500 && est.dacs < 7_000,
            "unexpected DAC count {}",
            est.dacs
        );
        assert!(est.data_rate_gbit_s > 225.0 && est.data_rate_gbit_s < 350.0);
        assert!(est.power_w > 130.0 && est.power_w < 220.0);
    }

    #[test]
    fn wise_wiring_is_orders_of_magnitude_cheaper() {
        let spec = TopologySpec::new(TopologyKind::Grid, 2);
        let device = spec.build_for_qubits(2 * 7 * 7 - 1);
        let standard = estimate_resources(&device, WiringMethod::Standard);
        let wise = estimate_resources(&device, WiringMethod::Wise);
        assert!(wise.dacs * 20 < standard.dacs);
        assert!(wise.data_rate_gbit_s * 20.0 < standard.data_rate_gbit_s);
        // Electrode counts are identical; only the DAC sharing changes.
        assert_eq!(wise.total_electrodes, standard.total_electrodes);
    }

    #[test]
    fn wise_dacs_are_roughly_constant_in_system_size() {
        let spec = TopologySpec::new(TopologyKind::Grid, 2);
        let small = estimate_resources(&spec.build_for_qubits(17), WiringMethod::Wise);
        let large = estimate_resources(&spec.build_for_qubits(799), WiringMethod::Wise);
        // DAC count grows only through the shim-electrode term (1 DAC per
        // 100 shim electrodes).
        assert!(large.dacs < small.dacs * 30);
        assert!(large.dacs < 1_000);
    }

    #[test]
    fn lower_capacity_needs_more_electrodes_per_fixed_qubit_count() {
        // §5.2: decreasing the trap capacity increases the electrode count
        // for a fixed qubit count because the junction-to-linear-zone ratio
        // grows.
        let qubits = 97;
        let cap2 = estimate_resources(
            &TopologySpec::new(TopologyKind::Grid, 2).build_for_qubits(qubits),
            WiringMethod::Standard,
        );
        let cap12 = estimate_resources(
            &TopologySpec::new(TopologyKind::Grid, 12).build_for_qubits(qubits),
            WiringMethod::Standard,
        );
        assert!(cap2.total_electrodes > cap12.total_electrodes);
    }

    #[test]
    fn data_rate_and_power_scale_with_dacs() {
        let device = Device::linear(10, 3);
        let est = estimate_resources(&device, WiringMethod::Standard);
        assert!((est.data_rate_gbit_s - est.dacs as f64 * 0.05).abs() < 1e-9);
        assert!((est.power_w - est.dacs as f64 * 0.03).abs() < 1e-9);
    }
}
