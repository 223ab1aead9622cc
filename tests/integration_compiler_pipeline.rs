//! Workspace-level integration tests: the full compile pipeline
//! (map → route → schedule) across codes, topologies and capacities.

use qccd_core::{check_resource_exclusivity, ArchitectureConfig, Compiler, RoutedOp};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{parity_check_round, repetition_code, rotated_surface_code, unrotated_surface_code};

#[test]
fn every_code_compiles_on_the_recommended_architecture() {
    let compiler = Compiler::new(ArchitectureConfig::recommended(1.0));
    for layout in [
        repetition_code(4),
        rotated_surface_code(3),
        rotated_surface_code(5),
        unrotated_surface_code(3),
    ] {
        let program = compiler
            .compile_rounds(&layout, 1)
            .unwrap_or_else(|e| panic!("{}: {e}", layout.name()));
        let gate_ops = program.routed.ops.iter();
        let gate_ops = gate_ops.filter(|op| matches!(op, RoutedOp::Gate { .. }));
        assert_eq!(
            gate_ops.count(),
            parity_check_round(&layout).len(),
            "{}: every instruction must appear exactly once",
            layout.name()
        );
        assert!(check_resource_exclusivity(&program.schedule, WiringMethod::Standard).is_ok());
    }
}

#[test]
fn schedules_are_resource_exclusive_across_capacities_and_topologies() {
    let layout = rotated_surface_code(3);
    for topology in [TopologyKind::Grid, TopologyKind::Switch] {
        for capacity in [2usize, 3, 6, 17] {
            let arch = ArchitectureConfig::new(topology, capacity, WiringMethod::Standard, 1.0);
            let program = Compiler::new(arch)
                .compile_rounds(&layout, 1)
                .unwrap_or_else(|e| panic!("{topology:?} c{capacity}: {e}"));
            check_resource_exclusivity(&program.schedule, WiringMethod::Standard)
                .unwrap_or_else(|e| panic!("{topology:?} c{capacity}: {e}"));
        }
    }
}

#[test]
fn movement_decreases_as_capacity_grows() {
    let layout = rotated_surface_code(3);
    let movement = |capacity: usize| {
        Compiler::new(ArchitectureConfig::new(
            TopologyKind::Grid,
            capacity,
            WiringMethod::Standard,
            1.0,
        ))
        .compile_rounds(&layout, 1)
        .unwrap()
        .movement_ops()
    };
    let m2 = movement(2);
    let m6 = movement(6);
    let m17 = movement(17);
    assert!(
        m2 > m6,
        "capacity 2 ({m2}) must move more than capacity 6 ({m6})"
    );
    assert_eq!(m17, 0, "a single-chain device needs no movement");
}

#[test]
fn wise_wiring_serialises_transport_in_the_schedule() {
    let layout = rotated_surface_code(3);
    let arch = ArchitectureConfig::new(TopologyKind::Grid, 2, WiringMethod::Wise, 1.0);
    let program = Compiler::new(arch).compile_rounds(&layout, 1).unwrap();
    check_resource_exclusivity(&program.schedule, WiringMethod::Wise).unwrap();
    // No two movement primitives overlap in time anywhere on the device.
    let mut intervals: Vec<(f64, f64)> = program
        .schedule
        .ops
        .iter()
        .filter(|s| matches!(s.op, RoutedOp::Movement { .. }))
        .map(|s| (s.start_us, s.end_us))
        .collect();
    intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    for pair in intervals.windows(2) {
        assert!(
            pair[1].0 >= pair[0].1 - 1e-9,
            "WISE transport must not overlap: {pair:?}"
        );
    }
}
