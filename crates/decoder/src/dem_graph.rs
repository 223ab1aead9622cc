//! Decoding graph construction.
//!
//! Matching-based decoders (union-find, MWPM and friends) operate on a
//! *decoding graph*: detectors are vertices, every elementary error mechanism
//! that flips one or two detectors is an edge (single-detector mechanisms
//! connect to a virtual boundary vertex), and edge weights are the
//! log-likelihood ratios `ln((1−p)/p)`.
//!
//! Circuit-level noise also produces *hyperedges* — mechanisms flipping more
//! than two detectors (for example a correlated fault on two data ions of one
//! chain). A hyperedge is split only into symptoms that one-/two-detector
//! mechanisms of the same model already produce and whose observables XOR to
//! the hyperedge's own (Stim's `decompose_errors` rule): depth-first over
//! "the first remaining detector alone, or paired with each later one", the
//! first split in index order wins. Its probability is added to those
//! existing edges; a hyperedge with no such split is left out of the graph
//! and counted. No edge is ever created that a single fault does not produce.
//!
//! Parallel mechanisms merge into one edge per endpoint pair. Probabilities
//! combine as the parity of independent events; the edge carries the
//! observables of its likeliest constituent, and every merge that discarded
//! a differing observable set is counted.

use std::collections::BTreeMap;

use qccd_sim::DetectorErrorModel;

/// Index of a detector vertex in the decoding graph.
pub type DetectorIndex = usize;

/// One edge of the decoding graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodingEdge {
    /// First endpoint (a detector).
    pub a: DetectorIndex,
    /// Second endpoint, or `None` for the virtual boundary.
    pub b: Option<DetectorIndex>,
    /// Probability that this edge's mechanism fires.
    pub probability: f64,
    /// Log-likelihood weight `ln((1−p)/p)`, clamped to be non-negative.
    pub weight: f64,
    /// Logical observables flipped when this edge's mechanism fires.
    pub observables: Vec<u32>,
}

impl DecodingEdge {
    /// Returns the endpoint opposite to `v`, or `None` if that endpoint is
    /// the boundary.
    pub fn other(&self, v: DetectorIndex) -> Option<DetectorIndex> {
        if self.a == v {
            self.b
        } else {
            Some(self.a)
        }
    }
}

/// A decoding graph derived from a detector error model.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodingGraph {
    num_detectors: usize,
    num_observables: usize,
    edges: Vec<DecodingEdge>,
    /// For each detector, the indices of its incident edges.
    adjacency: Vec<Vec<usize>>,
    /// Number of hyperedges split into existing edges.
    decomposed_hyperedges: usize,
    /// Number of hyperedges with no split into existing edges (left out).
    undecomposed_hyperedges: usize,
    /// Number of parallel-edge merges that discarded a differing
    /// observable set.
    observable_conflicts: usize,
}

/// Endpoints of an edge: a detector and a second detector or the boundary.
type Endpoints = (DetectorIndex, Option<DetectorIndex>);

/// One edge under construction: all mechanisms seen between its endpoints.
struct Merged {
    /// Parity-combined probability of every constituent.
    probability: f64,
    /// Probability of the likeliest graph-like constituent, whose
    /// observables the edge carries.
    likeliest: f64,
    observables: Vec<u32>,
}

impl DecodingGraph {
    /// Builds the decoding graph of a detector error model.
    pub fn from_dem(dem: &DetectorErrorModel) -> Self {
        let num_detectors = dem.num_detectors;
        let combine = |p: f64, q: f64| p * (1.0 - q) + q * (1.0 - p);

        // Graph-like mechanisms become edges, merged by endpoints. A
        // mechanism with no detector symptom cannot be decoded; it
        // contributes directly to the logical error floor and is ignored.
        let mut merged: BTreeMap<Endpoints, Merged> = BTreeMap::new();
        let mut observable_conflicts = 0;
        for error in dem.errors.iter().filter(|e| e.is_graphlike()) {
            let Some(&a) = error.detectors.first() else {
                continue;
            };
            let key = (a as usize, error.detectors.get(1).map(|&b| b as usize));
            let edge = merged.entry(key).or_insert_with(|| Merged {
                probability: 0.0,
                likeliest: 0.0,
                observables: error.observables.clone(),
            });
            edge.probability = combine(edge.probability, error.probability);
            if edge.observables != error.observables {
                observable_conflicts += 1;
            }
            if error.probability > edge.likeliest {
                edge.likeliest = error.probability;
                edge.observables.clone_from(&error.observables);
            }
        }

        // Hyperedges add their probability to the existing edges they split
        // into, or are left out.
        let mut decomposed_hyperedges = 0;
        let mut undecomposed_hyperedges = 0;
        for error in dem.errors.iter().filter(|e| !e.is_graphlike()) {
            let Some(parts) = split(&error.detectors, &error.observables, &merged) else {
                undecomposed_hyperedges += 1;
                continue;
            };
            decomposed_hyperedges += 1;
            for part in &parts {
                let edge = merged.get_mut(part).expect("split uses existing edges");
                edge.probability = combine(edge.probability, error.probability);
            }
        }

        let edges: Vec<DecodingEdge> = merged
            .into_iter()
            .map(|((a, b), edge)| {
                let p = edge.probability.clamp(1e-12, 0.5);
                DecodingEdge {
                    a,
                    b,
                    probability: edge.probability,
                    weight: ((1.0 - p) / p).ln().max(0.0),
                    observables: edge.observables,
                }
            })
            .collect();
        let mut adjacency = vec![Vec::new(); num_detectors];
        for (i, edge) in edges.iter().enumerate() {
            adjacency[edge.a].push(i);
            if let Some(b) = edge.b {
                adjacency[b].push(i);
            }
        }

        DecodingGraph {
            num_detectors,
            num_observables: dem.num_observables,
            edges,
            adjacency,
            decomposed_hyperedges,
            undecomposed_hyperedges,
            observable_conflicts,
        }
    }

    /// Number of detector vertices.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of union-find nodes: every detector plus the virtual boundary
    /// (which is indexed `num_detectors()` by convention throughout the
    /// crate).
    pub fn num_nodes(&self) -> usize {
        self.num_detectors + 1
    }

    /// Number of logical observables tracked on edges.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// All edges.
    pub fn edges(&self) -> &[DecodingEdge] {
        &self.edges
    }

    /// Indices of the edges incident to a detector.
    pub fn incident_edges(&self, detector: DetectorIndex) -> &[usize] {
        &self.adjacency[detector]
    }

    /// Number of hyperedges that were split into existing edges.
    pub fn decomposed_hyperedges(&self) -> usize {
        self.decomposed_hyperedges
    }

    /// Number of hyperedges left out of the graph because no split into
    /// existing edges reproduces their observables.
    pub fn undecomposed_hyperedges(&self) -> usize {
        self.undecomposed_hyperedges
    }

    /// Number of parallel-edge merges that discarded an observable set
    /// differing from the one the edge carries: two faults with one symptom
    /// and different logical effects, which no matching decoder can tell
    /// apart.
    pub fn observable_conflicts(&self) -> usize {
        self.observable_conflicts
    }

    /// Returns `true` if the graph has no edges (e.g. a noiseless circuit).
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }
}

/// Depth-first search for a split of `detectors` into endpoint sets of
/// existing edges whose observables XOR to `observables`: the first detector
/// is taken alone or paired with each later one, in index order.
fn split(
    detectors: &[u32],
    observables: &[u32],
    known: &BTreeMap<Endpoints, Merged>,
) -> Option<Vec<Endpoints>> {
    let Some((&first, rest)) = detectors.split_first() else {
        return observables.is_empty().then(Vec::new);
    };
    for partner in std::iter::once(None).chain((0..rest.len()).map(Some)) {
        let key = (first as usize, partner.map(|i| rest[i] as usize));
        let Some(edge) = known.get(&key) else {
            continue;
        };
        let mut remaining = rest.to_vec();
        if let Some(i) = partner {
            remaining.remove(i);
        }
        let owed = xor_sets(observables, &edge.observables);
        if let Some(mut parts) = split(&remaining, &owed, known) {
            parts.push(key);
            return Some(parts);
        }
    }
    None
}

/// Symmetric difference of two observable-index sets, sorted.
fn xor_sets(a: &[u32], b: &[u32]) -> Vec<u32> {
    let only_a = a.iter().filter(|x| !b.contains(x));
    let only_b = b.iter().filter(|x| !a.contains(x));
    let mut out: Vec<u32> = only_a.chain(only_b).copied().collect();
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_sim::DemError;

    fn dem(
        errors: Vec<DemError>,
        num_detectors: usize,
        num_observables: usize,
    ) -> DetectorErrorModel {
        DetectorErrorModel {
            num_detectors,
            num_observables,
            errors,
        }
    }

    fn edge(graph: &DecodingGraph, a: usize, b: Option<usize>) -> &DecodingEdge {
        let found = graph.edges().iter().find(|e| e.a == a && e.b == b);
        found.unwrap_or_else(|| panic!("no edge ({a}, {b:?})"))
    }

    fn err(p: f64, detectors: Vec<u32>, observables: Vec<u32>) -> DemError {
        DemError {
            probability: p,
            detectors,
            observables,
        }
    }

    #[test]
    fn graphlike_mechanisms_become_edges() {
        let model = dem(
            vec![err(0.1, vec![0], vec![0]), err(0.2, vec![0, 1], vec![])],
            2,
            1,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.edges().len(), 2);
        assert_eq!(graph.num_detectors(), 2);
        assert_eq!(graph.decomposed_hyperedges(), 0);
        let boundary_edge = graph.edges().iter().find(|e| e.b.is_none()).unwrap();
        assert_eq!(boundary_edge.a, 0);
        assert_eq!(boundary_edge.observables, vec![0]);
        assert!(boundary_edge.weight > 0.0);
    }

    #[test]
    fn hyperedge_splits_into_existing_edges() {
        // Detectors 0-1 are connected by a 2-detector mechanism, and 2-3 by
        // another; a 4-detector hyperedge across both must split into the
        // pairs {0,1} and {2,3}.
        let model = dem(
            vec![
                err(0.01, vec![0, 1], vec![]),
                err(0.01, vec![2, 3], vec![0]),
                err(0.05, vec![0, 1, 2, 3], vec![0]),
            ],
            4,
            1,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.decomposed_hyperedges(), 1);
        assert_eq!(graph.undecomposed_hyperedges(), 0);
        // The hyperedge parts merge into the existing parallel edges.
        assert_eq!(graph.edges().len(), 2);
        let e01 = edge(&graph, 0, Some(1));
        let e23 = edge(&graph, 2, Some(3));
        // Probabilities were combined.
        assert!(e01.probability > 0.05 && e01.probability < 0.07);
        // Observable assignment follows the matching graph-like mechanism.
        assert!(e01.observables.is_empty());
        assert_eq!(e23.observables, vec![0]);
    }

    #[test]
    fn first_valid_split_in_index_order_wins() {
        // {0,1,2,3} splits as {0}+{1}+{2,3}, {0,1}+{2,3} or {0,2}+{1,3};
        // "first detector alone" is tried before any pairing.
        let model = dem(
            vec![
                err(0.01, vec![0], vec![]),
                err(0.01, vec![1], vec![]),
                err(0.01, vec![0, 1], vec![]),
                err(0.01, vec![2, 3], vec![]),
                err(0.01, vec![0, 2], vec![]),
                err(0.01, vec![1, 3], vec![]),
                err(0.25, vec![0, 1, 2, 3], vec![]),
            ],
            4,
            0,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.decomposed_hyperedges(), 1);
        assert_eq!(graph.edges().len(), 6);
        for (a, b, grew) in [
            (0, None, true),
            (1, None, true),
            (2, Some(3), true),
            (0, Some(1), false),
            (0, Some(2), false),
            (1, Some(3), false),
        ] {
            assert_eq!(edge(&graph, a, b).probability > 0.2, grew, "({a}, {b:?})");
        }
    }

    #[test]
    fn split_must_reproduce_the_observables() {
        // {0,1}+{2,3} comes first in index order but flips no observable;
        // the hyperedge flips observable 0, which only {0,2}+{1,3} explains.
        let model = dem(
            vec![
                err(0.01, vec![0, 1], vec![]),
                err(0.01, vec![2, 3], vec![]),
                err(0.01, vec![0, 2], vec![0]),
                err(0.01, vec![1, 3], vec![]),
                err(0.25, vec![0, 1, 2, 3], vec![0]),
            ],
            4,
            1,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.decomposed_hyperedges(), 1);
        assert!(edge(&graph, 0, Some(1)).probability < 0.2);
        assert!(edge(&graph, 0, Some(2)).probability > 0.2);
        assert!(edge(&graph, 1, Some(3)).probability > 0.2);
        assert_eq!(edge(&graph, 0, Some(2)).observables, vec![0]);
    }

    #[test]
    fn hyperedge_without_a_split_is_left_out_and_counted() {
        let model = dem(
            vec![
                err(0.01, vec![0, 1], vec![]),
                err(0.05, vec![0, 1, 2], vec![]),
                err(0.05, vec![0, 1, 2, 3], vec![0]),
            ],
            4,
            1,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.decomposed_hyperedges(), 0);
        assert_eq!(graph.undecomposed_hyperedges(), 2);
        assert_eq!(graph.edges().len(), 1);
        assert_eq!(graph.edges()[0].probability, 0.01);
        assert!(graph.incident_edges(2).is_empty());
    }

    #[test]
    fn conflicting_parallel_mechanisms_keep_the_likelier_observables() {
        let model = dem(
            vec![err(0.1, vec![0, 1], vec![]), err(0.2, vec![0, 1], vec![0])],
            2,
            1,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.edges().len(), 1);
        assert_eq!(graph.edges()[0].observables, vec![0]);
        assert!((graph.edges()[0].probability - 0.26).abs() < 1e-12);
        assert_eq!(graph.observable_conflicts(), 1);
    }

    #[test]
    fn parallel_edges_merge() {
        let model = dem(
            vec![err(0.1, vec![0, 1], vec![]), err(0.1, vec![0, 1], vec![])],
            2,
            0,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.edges().len(), 1);
        assert!((graph.edges()[0].probability - 0.18).abs() < 1e-12);
        assert_eq!(graph.observable_conflicts(), 0);
    }

    #[test]
    fn adjacency_lists_are_consistent() {
        let model = dem(
            vec![
                err(0.1, vec![0], vec![]),
                err(0.1, vec![0, 1], vec![]),
                err(0.1, vec![1, 2], vec![]),
            ],
            3,
            0,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.incident_edges(0).len(), 2);
        assert_eq!(graph.incident_edges(1).len(), 2);
        assert_eq!(graph.incident_edges(2).len(), 1);
        for (i, edge) in graph.edges().iter().enumerate() {
            assert!(graph.incident_edges(edge.a).contains(&i));
            if let Some(b) = edge.b {
                assert!(graph.incident_edges(b).contains(&i));
            }
        }
    }

    #[test]
    fn zero_detector_mechanisms_are_ignored() {
        let model = dem(vec![err(0.3, vec![], vec![0])], 1, 1);
        let graph = DecodingGraph::from_dem(&model);
        assert!(graph.is_empty());
    }

    #[test]
    fn weights_decrease_with_probability() {
        let model = dem(
            vec![err(0.001, vec![0, 1], vec![]), err(0.1, vec![1, 2], vec![])],
            3,
            0,
        );
        let graph = DecodingGraph::from_dem(&model);
        let rare = graph.edges().iter().find(|e| e.a == 0).unwrap();
        let common = graph.edges().iter().find(|e| e.a == 1).unwrap();
        assert!(rare.weight > common.weight);
    }

    #[test]
    fn xor_sets_behaviour() {
        assert_eq!(xor_sets(&[0, 1], &[1, 2]), vec![0, 2]);
        assert_eq!(xor_sets(&[], &[3]), vec![3]);
        assert!(xor_sets(&[4], &[4]).is_empty());
    }
}
