//! Qubit clustering: top-down regular partitioning of the code layout.
//!
//! The first half of the qubit-to-ion mapping pass (§4.2 of the paper)
//! groups the code's qubits into balanced clusters of at most
//! `capacity − 1` qubits each. General balanced graph partitioning is
//! NP-complete, but surface-code layouts are regular planar grids, so a
//! recursive geometric bisection of the layout produces near-optimal
//! partitions: qubits that are adjacent in the code (and therefore share
//! parity-check interactions) end up in the same cluster, minimising the
//! weight of cut interaction edges and hence the number of ion movements.

use std::collections::{HashMap, HashSet};

use qccd_circuit::QubitId;
use qccd_qec::CodeLayout;

/// The qubit-clustering strategy used by the mapping pass.
///
/// [`ClusteringStrategy::Geometric`] is the paper's method (§4.2);
/// [`ClusteringStrategy::RoundRobin`] is a structure-blind ablation baseline
/// used to quantify how much of the compiler's advantage comes from
/// exploiting the surface code's geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ClusteringStrategy {
    /// Top-down regular (geometric) partitioning of the code layout — the
    /// paper's method and the default.
    #[default]
    Geometric,
    /// Deal qubits into clusters round-robin in id order, ignoring the code
    /// geometry entirely (the kind of partition a QEC-unaware compiler
    /// produces).
    RoundRobin,
}

/// A cluster of code qubits destined for one trap.
#[derive(Debug, Clone, PartialEq)]
pub struct QubitCluster {
    /// The qubits in this cluster.
    pub qubits: Vec<QubitId>,
    /// The centroid of the cluster in code-layout coordinates.
    pub centroid: (f64, f64),
}

/// Partitions the code's qubits into clusters of at most `cluster_size`
/// qubits by recursive geometric bisection.
///
/// # Panics
///
/// Panics if `cluster_size` is zero.
pub fn cluster_qubits(layout: &CodeLayout, cluster_size: usize) -> Vec<QubitCluster> {
    cluster_qubits_with_strategy(layout, cluster_size, ClusteringStrategy::Geometric)
}

/// Partitions the code's qubits into clusters of at most `cluster_size`
/// qubits using the given strategy.
///
/// # Panics
///
/// Panics if `cluster_size` is zero.
pub fn cluster_qubits_with_strategy(
    layout: &CodeLayout,
    cluster_size: usize,
    strategy: ClusteringStrategy,
) -> Vec<QubitCluster> {
    assert!(cluster_size > 0, "cluster size must be positive");
    let mut qubits: Vec<QubitId> = layout.qubits().iter().map(|q| q.id).collect();
    // Deterministic initial order.
    qubits.sort_unstable();
    let groups = match strategy {
        ClusteringStrategy::Geometric => {
            let mut clusters = Vec::new();
            bisect(layout, &mut qubits, cluster_size, &mut clusters);
            clusters
        }
        ClusteringStrategy::RoundRobin => {
            let num_clusters = qubits.len().div_ceil(cluster_size);
            let mut clusters: Vec<Vec<QubitId>> = vec![Vec::new(); num_clusters];
            for (i, q) in qubits.into_iter().enumerate() {
                clusters[i % num_clusters].push(q);
            }
            clusters
        }
    };
    groups
        .into_iter()
        .map(|qubits| {
            let centroid = centroid_of(layout, &qubits);
            QubitCluster { qubits, centroid }
        })
        .collect()
}

fn centroid_of(layout: &CodeLayout, qubits: &[QubitId]) -> (f64, f64) {
    let mut row = 0.0;
    let mut col = 0.0;
    for &q in qubits {
        let c = layout.coord(q);
        row += c.row as f64;
        col += c.col as f64;
    }
    let n = qubits.len().max(1) as f64;
    (row / n, col / n)
}

/// Recursively bisects `qubits` (sorted along the wider bounding-box axis)
/// until every piece fits in one cluster.
fn bisect(
    layout: &CodeLayout,
    qubits: &mut Vec<QubitId>,
    cluster_size: usize,
    out: &mut Vec<Vec<QubitId>>,
) {
    if qubits.len() <= cluster_size {
        if !qubits.is_empty() {
            out.push(std::mem::take(qubits));
        }
        return;
    }
    // Number of clusters this piece must produce, split as evenly as
    // possible between the two halves so that cluster sizes stay balanced:
    // the left half receives a share of qubits proportional to its share of
    // clusters (clamped so both halves remain feasible).
    let clusters_needed = qubits.len().div_ceil(cluster_size);
    let left_clusters = clusters_needed / 2;
    let right_clusters = clusters_needed - left_clusters;
    let proportional = (qubits.len() * left_clusters + clusters_needed / 2) / clusters_needed;
    let min_left = qubits.len().saturating_sub(right_clusters * cluster_size);
    let max_left = left_clusters * cluster_size;
    let left_size = proportional.clamp(min_left, max_left);

    // Sort along the wider axis of the bounding box so cuts follow the
    // geometry of the code.
    let (min_r, max_r, min_c, max_c) = qubits.iter().fold(
        (i64::MAX, i64::MIN, i64::MAX, i64::MIN),
        |(min_r, max_r, min_c, max_c), &q| {
            let c = layout.coord(q);
            (
                min_r.min(c.row),
                max_r.max(c.row),
                min_c.min(c.col),
                max_c.max(c.col),
            )
        },
    );
    let split_by_row = (max_r - min_r) >= (max_c - min_c);
    qubits.sort_by_key(|&q| {
        let c = layout.coord(q);
        if split_by_row {
            (c.row, c.col, q)
        } else {
            (c.col, c.row, q)
        }
    });

    let mut right = qubits.split_off(left_size);
    bisect(layout, qubits, cluster_size, out);
    bisect(layout, &mut right, cluster_size, out);
}

/// The total weight of interaction edges cut by a clustering (lower is
/// better); used in tests and diagnostics to check partition quality.
pub fn cut_weight(layout: &CodeLayout, clusters: &[QubitCluster]) -> f64 {
    let mut cluster_of: HashMap<QubitId, usize> = HashMap::new();
    for (i, cluster) in clusters.iter().enumerate() {
        for &q in &cluster.qubits {
            cluster_of.insert(q, i);
        }
    }
    layout
        .interaction_edges()
        .iter()
        .filter(|e| cluster_of.get(&e.ancilla) != cluster_of.get(&e.data))
        .map(|e| e.weight)
        .sum()
}

/// Validates that a clustering is a partition of the layout's qubits with
/// every cluster within the size bound. Returns an error message otherwise.
pub fn validate_clustering(
    layout: &CodeLayout,
    clusters: &[QubitCluster],
    cluster_size: usize,
) -> Result<(), String> {
    let mut seen: HashSet<QubitId> = HashSet::new();
    for (i, cluster) in clusters.iter().enumerate() {
        if cluster.qubits.is_empty() {
            return Err(format!("cluster {i} is empty"));
        }
        if cluster.qubits.len() > cluster_size {
            return Err(format!(
                "cluster {i} has {} qubits, exceeding the bound {cluster_size}",
                cluster.qubits.len()
            ));
        }
        for &q in &cluster.qubits {
            if !seen.insert(q) {
                return Err(format!("qubit {q} appears in more than one cluster"));
            }
        }
    }
    if seen.len() != layout.num_qubits() {
        return Err(format!(
            "clusters cover {} qubits but the layout has {}",
            seen.len(),
            layout.num_qubits()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_qec::{repetition_code, rotated_surface_code, unrotated_surface_code};

    #[test]
    fn clusters_partition_all_qubits_within_bound() {
        for layout in [
            repetition_code(5),
            rotated_surface_code(3),
            rotated_surface_code(5),
            unrotated_surface_code(3),
        ] {
            for cluster_size in [1, 2, 4, 8, 30] {
                let clusters = cluster_qubits(&layout, cluster_size);
                validate_clustering(&layout, &clusters, cluster_size).unwrap_or_else(|e| {
                    panic!("{} cluster_size={cluster_size}: {e}", layout.name())
                });
            }
        }
    }

    #[test]
    fn cluster_count_matches_capacity_formula() {
        // ceil(N / (capacity-1)) clusters, as in Figure 6 of the paper:
        // d=4 rotated surface code with capacity 9 ⇒ ceil(31/8) = 4 clusters.
        let layout = rotated_surface_code(4);
        let clusters = cluster_qubits(&layout, 8);
        assert_eq!(clusters.len(), 4);
    }

    #[test]
    fn singleton_clusters_for_capacity_two() {
        let layout = rotated_surface_code(3);
        let clusters = cluster_qubits(&layout, 1);
        assert_eq!(clusters.len(), layout.num_qubits());
        assert!(clusters.iter().all(|c| c.qubits.len() == 1));
    }

    #[test]
    fn clusters_are_balanced() {
        let layout = rotated_surface_code(5);
        let clusters = cluster_qubits(&layout, 8);
        let sizes: Vec<usize> = clusters.iter().map(|c| c.qubits.len()).collect();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        // Minor imbalances (1–2 qubits) can occur due to boundary effects.
        assert!(max - min <= 3, "cluster sizes too unbalanced: {sizes:?}");
    }

    #[test]
    fn geometric_clustering_beats_round_robin_on_cut_weight() {
        let layout = rotated_surface_code(5);
        let cluster_size = 6;
        let geometric = cluster_qubits(&layout, cluster_size);

        // Round-robin strawman clustering.
        let mut round_robin: Vec<QubitCluster> = Vec::new();
        let qubits: Vec<QubitId> = layout.qubits().iter().map(|q| q.id).collect();
        for chunk in qubits.chunks(cluster_size) {
            round_robin.push(QubitCluster {
                qubits: chunk.to_vec(),
                centroid: (0.0, 0.0),
            });
        }
        // Interleave qubits so that the strawman ignores geometry.
        let mut interleaved: Vec<QubitCluster> = (0..round_robin.len())
            .map(|_| QubitCluster {
                qubits: Vec::new(),
                centroid: (0.0, 0.0),
            })
            .collect();
        let num_interleaved = interleaved.len();
        for (i, &q) in qubits.iter().enumerate() {
            interleaved[i % num_interleaved].qubits.push(q);
        }

        assert!(
            cut_weight(&layout, &geometric) < cut_weight(&layout, &interleaved),
            "geometric partition should cut fewer interaction edges"
        );
    }

    #[test]
    fn round_robin_strategy_is_a_valid_but_geometry_blind_partition() {
        let layout = rotated_surface_code(5);
        for cluster_size in [2, 4, 7] {
            let clusters =
                cluster_qubits_with_strategy(&layout, cluster_size, ClusteringStrategy::RoundRobin);
            validate_clustering(&layout, &clusters, cluster_size).unwrap();
            let geometric = cluster_qubits(&layout, cluster_size);
            assert_eq!(clusters.len(), geometric.len());
            if cluster_size > 1 {
                assert!(
                    cut_weight(&layout, &geometric) < cut_weight(&layout, &clusters),
                    "geometric must cut fewer interaction edges (size {cluster_size})"
                );
            }
        }
    }

    #[test]
    fn default_strategy_is_geometric() {
        assert_eq!(ClusteringStrategy::default(), ClusteringStrategy::Geometric);
        let layout = rotated_surface_code(3);
        assert_eq!(
            cluster_qubits(&layout, 4),
            cluster_qubits_with_strategy(&layout, 4, ClusteringStrategy::Geometric)
        );
    }

    #[test]
    fn centroids_lie_inside_the_layout_bounding_box() {
        let layout = rotated_surface_code(4);
        let clusters = cluster_qubits(&layout, 5);
        for cluster in clusters {
            assert!(cluster.centroid.0 >= -1.0 && cluster.centroid.0 <= 2.0 * 4.0);
            assert!(cluster.centroid.1 >= -1.0 && cluster.centroid.1 <= 2.0 * 4.0);
        }
    }

    #[test]
    fn whole_code_in_one_cluster_when_size_is_large() {
        let layout = repetition_code(4);
        let clusters = cluster_qubits(&layout, 100);
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].qubits.len(), layout.num_qubits());
    }
}
