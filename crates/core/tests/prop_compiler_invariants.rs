//! Property-based tests for the compilation pipeline.
//!
//! Random architecture points (topology, capacity, wiring, gate improvement)
//! and workloads are pushed through the full mapping → routing → scheduling
//! pipeline, and the hardware-level invariants the paper's §4.3 constraints
//! demand are checked on the result: capacity and exclusivity are never
//! violated, every gate of the input circuit is executed, and the schedule
//! is causally consistent. One fixed distance-7 point on the recommended
//! architecture gets the same routing checks.

use proptest::prelude::*;

use qccd_core::{
    check_resource_exclusivity, check_routing_invariants, cluster_qubits_with_strategy,
    validate_clustering, ArchitectureConfig, ClusteringStrategy, CompiledProgram, Compiler,
    RoutedOp,
};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{parity_check_round, repetition_code, rotated_surface_code, CodeLayout};

fn topology() -> impl Strategy<Value = TopologyKind> {
    prop_oneof![
        Just(TopologyKind::Grid),
        Just(TopologyKind::Switch),
        Just(TopologyKind::Linear),
    ]
}

fn wiring() -> impl Strategy<Value = WiringMethod> {
    prop_oneof![Just(WiringMethod::Standard), Just(WiringMethod::Wise)]
}

/// A workload small enough to compile quickly but large enough to force ion
/// movement: a repetition code on linear devices, the rotated surface code
/// at the drawn distance otherwise.
fn workload_for(topology: TopologyKind, distance: usize) -> CodeLayout {
    match topology {
        TopologyKind::Linear => repetition_code(4),
        _ => rotated_surface_code(distance),
    }
}

/// The routing-level checks every compiled round must pass: each gate of the
/// input circuit is executed exactly once, replaying the routed program never
/// exceeds a trap's capacity or acts on an ion that is elsewhere, and no two
/// scheduled operations overlap on a trap, segment, junction or ion (nor,
/// under WISE, on the global transport controller).
fn check_routed_round(program: &CompiledProgram, layout: &CodeLayout) -> Result<(), String> {
    let gates = parity_check_round(layout).len();
    let ops = &program.routed.ops;
    let gate_ops = ops.iter().filter(|op| matches!(op, RoutedOp::Gate { .. }));
    let gate_ops = gate_ops.count();
    if gate_ops != gates {
        return Err(format!(
            "{gate_ops} gate ops for a round of {gates} instructions"
        ));
    }
    check_routing_invariants(&program.routed, &program.device, &program.mapping)?;
    check_resource_exclusivity(&program.schedule, program.arch.wiring)
}

#[test]
fn distance_seven_round_on_the_recommended_grid_respects_the_hardware_constraints() {
    let layout = rotated_surface_code(7);
    let program = Compiler::new(ArchitectureConfig::recommended(1.0))
        .compile_rounds(&layout, 1)
        .expect("grid c2 d7 compiles");
    assert_eq!(check_routed_round(&program, &layout), Ok(()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn compiled_schedules_respect_the_hardware_constraints(
        topology in topology(),
        distance in prop_oneof![Just(3usize), Just(5)],
        capacity in 2usize..7,
        wiring in wiring(),
        improvement in prop_oneof![Just(1.0f64), Just(5.0), Just(10.0)],
    ) {
        let layout = workload_for(topology, distance);
        let arch = ArchitectureConfig::new(topology, capacity, wiring, improvement);
        let compiler = Compiler::new(arch);
        let program = match compiler.compile_rounds(&layout, 1) {
            Ok(program) => program,
            // Some extreme corners (e.g. capacity-2 linear devices hosting a
            // 2-D code) are legitimately unroutable; that is a documented
            // limitation, not an invariant violation.
            Err(_) => return Ok(()),
        };

        prop_assert_eq!(check_routed_round(&program, &layout), Ok(()));

        // The mapping is a partition of the code's qubits within capacity.
        prop_assert_eq!(program.mapping.validate(), Ok(()));

        // The makespan bounds every per-qubit busy time and is positive.
        prop_assert!(program.elapsed_time_us() > 0.0);
        let stream = program.schedule.ops_in_time_order();
        for op in stream {
            prop_assert!(op.start_us >= 0.0);
            prop_assert!(op.start_us + op.duration_us() <= program.elapsed_time_us() + 1e-6);
        }

        // Movement accounting is consistent: no movement operations means no
        // movement time, and movement time never exceeds the serial sum of
        // all operation durations.
        prop_assert!(program.movement_time_us() <= program.elapsed_time_us() * stream_len(&program) as f64);
        if program.movement_ops() == 0 {
            prop_assert_eq!(program.movement_time_us(), 0.0);
        }
    }

    #[test]
    fn clustering_strategies_always_produce_valid_partitions(
        distance in 2usize..5,
        cluster_size in 1usize..9,
        round_robin in any::<bool>(),
    ) {
        let layout = rotated_surface_code(distance);
        let strategy = if round_robin {
            ClusteringStrategy::RoundRobin
        } else {
            ClusteringStrategy::Geometric
        };
        let clusters = cluster_qubits_with_strategy(&layout, cluster_size, strategy);
        prop_assert_eq!(validate_clustering(&layout, &clusters, cluster_size), Ok(()));
        prop_assert_eq!(clusters.len(), layout.num_qubits().div_ceil(cluster_size));
    }

    #[test]
    fn higher_gate_improvement_never_changes_the_schedule(
        capacity in 2usize..5,
    ) {
        // Gate improvement scales error rates, not gate times: the compiled
        // schedule (makespan, movement ops) must be identical across
        // improvement factors for the same architecture.
        let layout = rotated_surface_code(3);
        let base = Compiler::new(ArchitectureConfig::new(
            TopologyKind::Grid,
            capacity,
            WiringMethod::Standard,
            1.0,
        ))
        .compile_rounds(&layout, 1)
        .unwrap();
        let improved = Compiler::new(ArchitectureConfig::new(
            TopologyKind::Grid,
            capacity,
            WiringMethod::Standard,
            10.0,
        ))
        .compile_rounds(&layout, 1)
        .unwrap();
        prop_assert_eq!(base.elapsed_time_us(), improved.elapsed_time_us());
        prop_assert_eq!(base.movement_ops(), improved.movement_ops());
    }
}

/// Helper: number of scheduled operations (used only to form a loose bound).
fn stream_len(program: &qccd_core::CompiledProgram) -> usize {
    program.schedule.ops_in_time_order().len().max(1)
}
