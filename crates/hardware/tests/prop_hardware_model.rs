//! Property-based tests for the QCCD hardware model.
//!
//! Random topology / capacity / qubit-count combinations check the device
//! builders (connectivity, capacity accounting) and the §5.2 resource model
//! (electrode, DAC, data-rate and power formulas) across the whole range the
//! design-space sweeps visit.

use proptest::prelude::*;

use qccd_hardware::{
    estimate_resources, Device, NodeId, TopologyKind, TopologySpec, TrapId, WiringMethod,
    DATA_RATE_PER_DAC_MBIT_S, POWER_PER_DAC_MILLIWATT,
};

fn topology_kind() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Grid),
        Just(TopologyKind::Linear),
        Just(TopologyKind::Switch),
    ]
}

/// Checks the structural invariants every generated device must satisfy.
fn check_device(device: &Device, requested_qubits: usize) {
    assert!(device.num_traps() >= 1);
    assert!(
        device.mappable_qubits() >= requested_qubits,
        "device holds {} of {requested_qubits} requested qubits",
        device.mappable_qubits()
    );
    // Segments connect existing nodes and every node is reachable from the
    // first trap (the routing graph must be connected or compilation is
    // impossible): the validating constructor accepts the device's parts.
    let rebuilt = Device::new(
        device.kind(),
        device.traps().to_vec(),
        device.junctions().to_vec(),
        device.segments().to_vec(),
    );
    assert_eq!(rebuilt.as_ref(), Ok(device));
    // Every trap has the device's capacity.
    assert!(device
        .traps()
        .iter()
        .all(|trap| trap.capacity == device.capacity()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn generated_devices_are_connected_and_large_enough(
        kind in topology_kind(),
        capacity in 2usize..12,
        qubits in 5usize..160,
    ) {
        let spec = TopologySpec::new(kind, capacity);
        let device = spec.build_for_qubits(qubits);
        // A workload that fits in one trap degenerates to a single-chain
        // (monolithic) device regardless of the requested topology family.
        if spec.traps_needed(qubits) > 1 {
            prop_assert_eq!(device.kind(), kind);
        }
        prop_assert_eq!(device.capacity(), capacity);
        check_device(&device, qubits);
    }

    #[test]
    fn resource_estimates_follow_the_section_5_2_formulas(
        kind in topology_kind(),
        capacity in 2usize..12,
        qubits in 5usize..160,
    ) {
        let device = TopologySpec::new(kind, capacity).build_for_qubits(qubits);
        let standard = estimate_resources(&device, WiringMethod::Standard);
        let wise = estimate_resources(&device, WiringMethod::Wise);

        // Electrode accounting.
        let linear_zones: usize = device.traps().iter().map(|t| t.capacity).sum();
        prop_assert_eq!(standard.linear_zones, linear_zones);
        prop_assert_eq!(standard.junction_zones, device.num_junctions());
        prop_assert_eq!(
            standard.total_electrodes,
            standard.dynamic_electrodes + standard.shim_electrodes
        );
        // Wiring only changes the DAC sharing, not the electrodes.
        prop_assert_eq!(wise.total_electrodes, standard.total_electrodes);

        // Standard wiring: one DAC per electrode; WISE shares DACs.
        prop_assert_eq!(standard.dacs, standard.total_electrodes);
        prop_assert!(wise.dacs <= standard.dacs);
        prop_assert!(wise.dacs >= 100, "WISE always needs its ~100 dynamic DACs");

        // Data rate and power are linear in the DAC count.
        for estimate in [&standard, &wise] {
            let expected_rate = estimate.dacs as f64 * DATA_RATE_PER_DAC_MBIT_S / 1_000.0;
            let expected_power = estimate.dacs as f64 * POWER_PER_DAC_MILLIWATT / 1_000.0;
            prop_assert!((estimate.data_rate_gbit_s - expected_rate).abs() < 1e-9);
            prop_assert!((estimate.power_w - expected_power).abs() < 1e-9);
        }
    }

    #[test]
    fn electrode_counts_grow_with_qubit_count(
        kind in topology_kind(),
        capacity in 2usize..8,
        qubits in 5usize..80,
        extra in 10usize..80,
    ) {
        let spec = TopologySpec::new(kind, capacity);
        let small = estimate_resources(&spec.build_for_qubits(qubits), WiringMethod::Standard);
        let large =
            estimate_resources(&spec.build_for_qubits(qubits + extra), WiringMethod::Standard);
        prop_assert!(large.total_electrodes >= small.total_electrodes);
        prop_assert!(large.data_rate_gbit_s >= small.data_rate_gbit_s);
    }

    #[test]
    fn single_chain_devices_have_no_junctions(capacity in 2usize..60) {
        let device = Device::single_chain(capacity);
        prop_assert_eq!(device.num_traps(), 1);
        prop_assert_eq!(device.num_junctions(), 0);
        prop_assert_eq!(device.mappable_qubits(), capacity);
    }

    #[test]
    fn linear_devices_have_a_path_graph_structure(
        traps in 2usize..20,
        capacity in 2usize..6,
    ) {
        let device = Device::linear(traps, capacity);
        prop_assert_eq!(device.num_traps(), traps);
        prop_assert_eq!(device.num_junctions(), 0);
        prop_assert_eq!(device.num_segments(), traps - 1);
        // Segment `i` joins traps `i` and `i + 1`, so the line is a path
        // and its two ends are the farthest-apart nodes.
        for (i, segment) in device.segments().iter().enumerate() {
            prop_assert_eq!(
                [segment.a, segment.b],
                [NodeId::Trap(TrapId(i as u32)), NodeId::Trap(TrapId(i as u32 + 1))]
            );
        }
    }
}
