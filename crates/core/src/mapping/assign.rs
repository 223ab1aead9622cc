//! Cluster-to-trap assignment.
//!
//! The second half of the qubit-to-ion mapping pass (§4.2): clusters produced
//! by [`cluster_qubits`](super::cluster_qubits) are placed onto traps with a
//! geometry-preserving minimum-cost matching, so that clusters that are
//! adjacent in the code end up in adjacent traps and the parity-check
//! circuits only need short-range ion movement. The matching is solved
//! exactly with the Hungarian algorithm over a cost matrix of normalised
//! squared distances between cluster centroids (in code coordinates) and trap
//! positions (in device coordinates).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use qccd_circuit::QubitId;
use qccd_hardware::{Device, TrapId};
use qccd_qec::CodeLayout;

use crate::mapping::{
    cluster_qubits_with_strategy, hungarian::solve_assignment, ClusteringStrategy, QubitCluster,
};
use crate::CompileError;

/// A complete placement of code qubits onto device traps.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct QubitMapping {
    qubit_to_trap: HashMap<QubitId, TrapId>,
    initial_chains: HashMap<TrapId, Vec<QubitId>>,
}

impl QubitMapping {
    /// Builds a mapping directly from per-trap chains. Used by baseline
    /// compilers and tests that want to bypass the geometric mapping pass.
    ///
    /// # Panics
    ///
    /// Panics if a qubit appears in more than one chain.
    pub fn from_chains(chains: HashMap<TrapId, Vec<QubitId>>) -> Self {
        let mut mapping = QubitMapping::default();
        for (trap, chain) in chains {
            for &q in &chain {
                let previous = mapping.qubit_to_trap.insert(q, trap);
                assert!(
                    previous.is_none(),
                    "qubit {q} appears in more than one chain"
                );
            }
            mapping.initial_chains.insert(trap, chain);
        }
        mapping
    }

    /// The trap hosting a qubit.
    pub fn trap_of(&self, qubit: QubitId) -> Option<TrapId> {
        self.qubit_to_trap.get(&qubit).copied()
    }

    /// Every trap that hosts at least one qubit, with its chain.
    pub fn chains(&self) -> &HashMap<TrapId, Vec<QubitId>> {
        &self.initial_chains
    }

    /// Number of mapped qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubit_to_trap.len()
    }

    /// Checks internal consistency: every qubit appears in exactly one chain
    /// and the chain agrees with `qubit_to_trap`.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = 0usize;
        for (&trap, chain) in &self.initial_chains {
            for &q in chain {
                if self.qubit_to_trap.get(&q) != Some(&trap) {
                    return Err(format!("qubit {q} chain/trap mismatch"));
                }
                seen += 1;
            }
        }
        if seen != self.qubit_to_trap.len() {
            return Err("chains and qubit_to_trap cover different qubit sets".to_string());
        }
        Ok(())
    }
}

/// Normalises a set of 2-D points to the unit square (min-max scaling per
/// axis). Degenerate axes map to 0.5.
fn normalise(points: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let (min_x, max_x) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.0), hi.max(p.0))
        });
    let (min_y, max_y) = points
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), p| {
            (lo.min(p.1), hi.max(p.1))
        });
    let scale = |v: f64, lo: f64, hi: f64| {
        if (hi - lo).abs() < 1e-12 {
            0.5
        } else {
            (v - lo) / (hi - lo)
        }
    };
    points
        .iter()
        .map(|&(x, y)| (scale(x, min_x, max_x), scale(y, min_y, max_y)))
        .collect()
}

/// Maps the code's qubits onto the device's traps.
///
/// Traps are filled to `capacity − 1` (leaving one slot free for visiting
/// ions), except for single-trap devices which are filled completely.
///
/// # Errors
///
/// Returns [`CompileError::InsufficientCapacity`] if the device cannot host
/// the code.
pub fn map_qubits(layout: &CodeLayout, device: &Device) -> Result<QubitMapping, CompileError> {
    map_qubits_with_strategy(layout, device, ClusteringStrategy::Geometric)
}

/// Maps the code's qubits onto the device's traps using the given clustering
/// strategy (see [`ClusteringStrategy`]); [`map_qubits`] is the
/// geometric-strategy shorthand.
///
/// # Errors
///
/// Returns [`CompileError::InsufficientCapacity`] if the device cannot host
/// the code.
pub fn map_qubits_with_strategy(
    layout: &CodeLayout,
    device: &Device,
    strategy: ClusteringStrategy,
) -> Result<QubitMapping, CompileError> {
    let required = layout.num_qubits();
    let available = device.mappable_qubits();
    if required > available {
        return Err(CompileError::InsufficientCapacity {
            required,
            available,
        });
    }

    let cluster_size = if device.num_traps() == 1 {
        device.capacity()
    } else {
        device.capacity().saturating_sub(1).max(1)
    };
    let clusters = cluster_qubits_with_strategy(layout, cluster_size, strategy);
    if clusters.len() > device.num_traps() {
        return Err(CompileError::InsufficientCapacity {
            required,
            available,
        });
    }

    let assignment = assign_clusters_to_traps(&clusters, device);

    let mut mapping = QubitMapping::default();
    for (cluster, &trap_index) in clusters.iter().zip(assignment.iter()) {
        let trap = device.traps()[trap_index].id;
        let mut chain = cluster.qubits.clone();
        // Order the chain geometrically (row-major in code coordinates) so
        // that neighbouring qubits sit next to each other in the trap.
        chain.sort_by_key(|&q| {
            let c = layout.coord(q);
            (c.row, c.col, q)
        });
        for &q in &chain {
            mapping.qubit_to_trap.insert(q, trap);
        }
        mapping.initial_chains.insert(trap, chain);
    }
    debug_assert_eq!(mapping.validate(), Ok(()));
    Ok(mapping)
}

/// Solves the geometric matching between clusters and traps, returning the
/// trap index chosen for each cluster.
fn assign_clusters_to_traps(clusters: &[QubitCluster], device: &Device) -> Vec<usize> {
    let cluster_points: Vec<(f64, f64)> = clusters.iter().map(|c| c.centroid).collect();
    let trap_points: Vec<(f64, f64)> = device.traps().iter().map(|t| t.position).collect();
    let cluster_norm = normalise(&cluster_points);
    let trap_norm = normalise(&trap_points);

    let cost: Vec<Vec<f64>> = cluster_norm
        .iter()
        .map(|&(cx, cy)| {
            trap_norm
                .iter()
                .map(|&(tx, ty)| {
                    let dx = cx - tx;
                    let dy = cy - ty;
                    dx * dx + dy * dy
                })
                .collect()
        })
        .collect();
    let (_, assignment) = solve_assignment(&cost);
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_hardware::{TopologyKind, TopologySpec};
    use qccd_qec::{repetition_code, rotated_surface_code};

    #[test]
    fn mapping_respects_capacity_minus_one() {
        let layout = rotated_surface_code(3);
        let device = TopologySpec::new(TopologyKind::Grid, 3).build_for_qubits(layout.num_qubits());
        let mapping = map_qubits(&layout, &device).unwrap();
        assert_eq!(mapping.num_qubits(), layout.num_qubits());
        for chain in mapping.chains().values() {
            assert!(chain.len() <= 2, "chains must leave one free slot");
        }
        assert!(mapping.validate().is_ok());
    }

    #[test]
    fn single_trap_device_holds_everything() {
        let layout = rotated_surface_code(3);
        let device = qccd_hardware::Device::single_chain(layout.num_qubits());
        let mapping = map_qubits(&layout, &device).unwrap();
        assert_eq!(mapping.chains().len(), 1);
        assert_eq!(
            mapping.chains()[&device.traps()[0].id].len(),
            layout.num_qubits()
        );
    }

    #[test]
    fn too_small_device_is_rejected() {
        let layout = rotated_surface_code(3);
        let device = qccd_hardware::Device::linear(3, 2);
        assert!(matches!(
            map_qubits(&layout, &device),
            Err(CompileError::InsufficientCapacity { .. })
        ));
    }

    #[test]
    fn every_qubit_is_mapped_exactly_once() {
        let layout = repetition_code(6);
        let device =
            TopologySpec::new(TopologyKind::Linear, 3).build_for_qubits(layout.num_qubits());
        let mapping = map_qubits(&layout, &device).unwrap();
        for q in layout.qubits() {
            assert!(mapping.trap_of(q.id).is_some(), "{} unmapped", q.id);
        }
        let total: usize = mapping.chains().values().map(|c| c.len()).sum();
        assert_eq!(total, layout.num_qubits());
    }

    #[test]
    fn geometry_is_preserved_for_repetition_code_on_linear_device() {
        // The repetition code is a line; mapping it onto a linear device must
        // place consecutive clusters in consecutive traps, i.e. the trap
        // index order should follow the code order.
        let layout = repetition_code(7);
        let device = qccd_hardware::Device::linear(7, 3);
        let mapping = map_qubits(&layout, &device).unwrap();
        // Data qubit 0 and data qubit 6 must be far apart on the device.
        let t_first = mapping.trap_of(QubitId::new(0)).unwrap();
        let t_last = mapping.trap_of(QubitId::new(6)).unwrap();
        let hops = device.hop_distance(t_first.into(), t_last.into()).unwrap();
        assert!(
            hops >= 3,
            "end-to-end qubits should be several traps apart, got {hops}"
        );
    }

    #[test]
    fn adjacent_code_qubits_land_in_nearby_traps_on_grid() {
        let layout = rotated_surface_code(3);
        let device = TopologySpec::new(TopologyKind::Grid, 2).build_for_qubits(layout.num_qubits());
        let mapping = map_qubits(&layout, &device).unwrap();
        // Average device hop distance between interacting (data, ancilla)
        // pairs should be small (nearest or next-nearest traps).
        let mut total_hops = 0usize;
        let mut pairs = 0usize;
        for edge in layout.interaction_edges() {
            let ta = mapping.trap_of(edge.ancilla).unwrap();
            let td = mapping.trap_of(edge.data).unwrap();
            total_hops += device.hop_distance(ta.into(), td.into()).unwrap();
            pairs += 1;
        }
        let mean = total_hops as f64 / pairs as f64;
        assert!(
            mean < 6.0,
            "interacting qubits are too spread out (mean hop distance {mean})"
        );
    }

    #[test]
    fn normalise_handles_degenerate_axes() {
        let points = normalise(&[(1.0, 5.0), (1.0, 7.0)]);
        assert_eq!(points[0].0, 0.5);
        assert_eq!(points[1].0, 0.5);
        assert_eq!(points[0].1, 0.0);
        assert_eq!(points[1].1, 1.0);
    }
}
