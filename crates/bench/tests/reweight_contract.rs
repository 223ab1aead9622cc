//! The re-weight contract behind one compile per schedule.
//!
//! A LER sweep compiles each (architecture with the gate improvement set to
//! 1, distance) once and re-weights that schedule's fault table to every
//! point's gate improvement. For every point of every builtin grid, the
//! re-weighted table must equal `FaultTable::from_circuit` of the point
//! compiled and lowered afresh — signatures and every channel probability,
//! including WISE's cooled constants, the cubed three-gate channels of
//! in-chain gate swaps at capacity 5 and 12, and the importance-sampled
//! twins of `rare_event_ler` — and a point that does not compile must
//! carry the same error.
//!
//! The default run covers d ≤ 5; the ignored test covers every builtin
//! distance and runs in release:
//!
//! ```text
//! cargo test --release -p qccd-bench --test reweight_contract -- --include-ignored
//! ```

use qccd_bench::{point_grid, ExperimentRegistry, ScheduleCache};
use qccd_core::{RoutedOp, Toolflow};
use qccd_sim::FaultTable;

/// What the checked points covered.
#[derive(Debug, Default)]
struct Coverage {
    points: usize,
    cooled: usize,
    gate_swaps: usize,
    biased: usize,
}

fn check_builtin_grids(max_distance: usize) -> Coverage {
    let registry = ExperimentRegistry::builtin();
    let mut coverage = Coverage::default();
    for spec in registry.specs() {
        let Some(points) = point_grid(spec) else {
            continue;
        };
        let schedules = ScheduleCache::default();
        for point in points.iter().filter(|p| p.distance <= max_distance) {
            let context = format!("{} {} d={}", spec.name, point.label, point.distance);
            let fresh = Toolflow::new(point.arch.clone()).memory_program(point.distance);
            match (schedules.fault_table(point), fresh) {
                (Ok(table), Ok(program)) => {
                    let noisy = program.to_noisy_circuit();
                    assert_eq!(
                        table,
                        FaultTable::from_circuit(&noisy).unwrap(),
                        "{context}"
                    );
                    coverage.gate_swaps += usize::from(
                        program
                            .routed
                            .ops
                            .iter()
                            .any(|op| matches!(op, RoutedOp::GateSwap { .. })),
                    );
                }
                (Err(cached), Err(fresh)) => assert_eq!(cached, fresh, "{context}"),
                (cached, fresh) => panic!(
                    "{context}: cached {:?} vs fresh {:?}",
                    cached.err(),
                    fresh.err()
                ),
            }
            coverage.points += 1;
            coverage.cooled += usize::from(point.arch.noise.cooled);
            coverage.biased += usize::from(point.estimator.importance_bias.is_some());
        }
    }
    assert!(coverage.cooled > 0, "a WISE point: {coverage:?}");
    assert!(coverage.gate_swaps > 0, "a gate-swap point: {coverage:?}");
    assert!(coverage.biased > 0, "a biased twin: {coverage:?}");
    coverage
}

#[test]
fn reweighted_tables_equal_fresh_compiles_up_to_d5() {
    let coverage = check_builtin_grids(5);
    assert_eq!(coverage.points, 64, "{coverage:?}");
}

#[test]
#[ignore = "every builtin distance; run in release with --include-ignored"]
fn reweighted_tables_equal_fresh_compiles_at_every_builtin_distance() {
    let coverage = check_builtin_grids(usize::MAX);
    assert!(coverage.points > 64, "{coverage:?}");
}
