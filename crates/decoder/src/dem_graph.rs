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
//!
//! The graph also fixes the one layout both decoders read: per-edge
//! endpoints with the boundary at node `num_detectors()`, one observable
//! bitmask per edge (a correction is a `u64` mask, so a graph holds at most
//! 64 observables), and a CSR incidence of `(edge, opposite endpoint)`
//! pairs per node in ascending edge order, whose boundary row lists the
//! boundary edges.

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

/// A decoding graph derived from a detector error model.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodingGraph {
    num_detectors: usize,
    num_observables: usize,
    edges: Vec<DecodingEdge>,
    /// Per-edge endpoints, the boundary as node `num_detectors`.
    pub(crate) endpoints: Vec<(u32, u32)>,
    /// Per-edge observable bitmask.
    pub(crate) masks: Vec<u64>,
    /// Node `v`'s `(edge, opposite endpoint)` pairs are
    /// `incident[incident_start[v]..incident_start[v + 1]]`, in ascending
    /// edge order; the boundary's row holds the boundary edges.
    incident_start: Vec<u32>,
    incident: Vec<(u32, u32)>,
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
    endpoints: Endpoints,
    /// Parity-combined probability of every constituent.
    probability: f64,
    /// Probability of the likeliest graph-like constituent.
    likeliest: f64,
    /// The model error whose observables the edge carries: the first
    /// graph-like constituent, or a later one that was likelier than every
    /// constituent before it.
    carrier: usize,
}

impl DecodingGraph {
    /// Builds the decoding graph of a detector error model.
    ///
    /// # Panics
    ///
    /// Panics if the model has more than 64 observables (a correction is a
    /// `u64` mask) or more nodes than fit in a `u32`.
    pub fn from_dem(dem: &DetectorErrorModel) -> Self {
        assert!(
            dem.num_observables <= 64,
            "a decoding graph holds at most 64 observables, not {}",
            dem.num_observables
        );
        let num_detectors = dem.num_detectors;
        let combine = |p: f64, q: f64| p * (1.0 - q) + q * (1.0 - p);

        // Graph-like mechanisms become edges, merged by endpoints: sort
        // them by (endpoints, model index), then fold each run in model
        // order. A mechanism with no detector symptom cannot be decoded; it
        // contributes directly to the logical error floor and is ignored.
        let mut order: Vec<(Endpoints, usize)> = (dem.errors.iter().enumerate())
            .filter(|(_, e)| e.is_graphlike())
            .filter_map(|(i, e)| {
                let &a = e.detectors.first()?;
                Some(((a as usize, e.detectors.get(1).map(|&b| b as usize)), i))
            })
            .collect();
        order.sort_unstable();
        let mut merged: Vec<Merged> = Vec::new();
        let mut observable_conflicts = 0;
        for &(endpoints, i) in &order {
            let error = &dem.errors[i];
            if merged.last().is_none_or(|edge| edge.endpoints != endpoints) {
                merged.push(Merged {
                    endpoints,
                    probability: 0.0,
                    likeliest: 0.0,
                    carrier: i,
                });
            }
            let edge = merged.last_mut().expect("every run starts an edge");
            edge.probability = combine(edge.probability, error.probability);
            if dem.errors[edge.carrier].observables != error.observables {
                observable_conflicts += 1;
            }
            if error.probability > edge.likeliest {
                edge.likeliest = error.probability;
                edge.carrier = i;
            }
        }

        // Hyperedges add their probability to the existing edges they split
        // into, or are left out.
        let mut decomposed_hyperedges = 0;
        let mut undecomposed_hyperedges = 0;
        for error in dem.errors.iter().filter(|e| !e.is_graphlike()) {
            let Some(parts) = split(&error.detectors, &error.observables, dem, &merged) else {
                undecomposed_hyperedges += 1;
                continue;
            };
            decomposed_hyperedges += 1;
            for part in parts {
                let edge = &mut merged[part];
                edge.probability = combine(edge.probability, error.probability);
            }
        }

        let edges: Vec<DecodingEdge> = merged
            .into_iter()
            .map(|edge| {
                let p = edge.probability.clamp(1e-12, 0.5);
                DecodingEdge {
                    a: edge.endpoints.0,
                    b: edge.endpoints.1,
                    probability: edge.probability,
                    weight: ((1.0 - p) / p).ln().max(0.0),
                    observables: dem.errors[edge.carrier].observables.clone(),
                }
            })
            .collect();
        let index = |i: usize| u32::try_from(i).expect("graph indices fit in u32");
        let boundary = index(num_detectors);
        let endpoints: Vec<(u32, u32)> = edges
            .iter()
            .map(|e| (index(e.a), e.b.map_or(boundary, index)))
            .collect();
        let masks = edges
            .iter()
            .map(|e| e.observables.iter().fold(0, |m, &o| m ^ (1u64 << o)))
            .collect();
        // Counting sort by node: every row comes out in ascending edge order.
        let mut incident_start = vec![0u32; num_detectors + 2];
        for &(a, b) in &endpoints {
            incident_start[a as usize + 1] += 1;
            incident_start[b as usize + 1] += 1;
        }
        for v in 0..=num_detectors {
            incident_start[v + 1] += incident_start[v];
        }
        let mut fill = incident_start.clone();
        let mut incident = vec![(0, 0); 2 * endpoints.len()];
        for (edge, &(a, b)) in (0..).zip(&endpoints) {
            for (v, other) in [(a, b), (b, a)] {
                incident[fill[v as usize] as usize] = (edge, other);
                fill[v as usize] += 1;
            }
        }

        DecodingGraph {
            num_detectors,
            num_observables: dem.num_observables,
            edges,
            endpoints,
            masks,
            incident_start,
            incident,
            decomposed_hyperedges,
            undecomposed_hyperedges,
            observable_conflicts,
        }
    }

    /// Number of detector vertices.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of nodes: every detector plus the virtual boundary, which is
    /// node `num_detectors()`.
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

    /// The `(edge, opposite endpoint)` pairs of a node, in ascending edge
    /// order; the boundary node's are its boundary edges.
    pub(crate) fn incident(&self, node: u32) -> &[(u32, u32)] {
        let start = self.incident_start[node as usize] as usize;
        &self.incident[start..self.incident_start[node as usize + 1] as usize]
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
/// is taken alone or paired with each later one, in index order. Returns the
/// parts as indices into `known`, which is sorted by endpoints.
fn split(
    detectors: &[u32],
    observables: &[u32],
    dem: &DetectorErrorModel,
    known: &[Merged],
) -> Option<Vec<usize>> {
    let Some((&first, rest)) = detectors.split_first() else {
        return observables.is_empty().then(Vec::new);
    };
    for partner in std::iter::once(None).chain((0..rest.len()).map(Some)) {
        let key = (first as usize, partner.map(|i| rest[i] as usize));
        let Ok(part) = known.binary_search_by(|edge| edge.endpoints.cmp(&key)) else {
            continue;
        };
        let mut remaining = rest.to_vec();
        if let Some(i) = partner {
            remaining.remove(i);
        }
        let owed = xor_sets(observables, &dem.errors[known[part].carrier].observables);
        if let Some(mut parts) = split(&remaining, &owed, dem, known) {
            parts.push(part);
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
        assert!(graph.incident(2).is_empty());
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
        assert_eq!(graph.incident(0).len(), 2);
        assert_eq!(graph.incident(1).len(), 2);
        assert_eq!(graph.incident(2).len(), 1);
        // The boundary's row holds the boundary edges.
        assert_eq!(graph.incident(3), &[(0, 0)]);
        for (i, &(a, b)) in (0..).zip(&graph.endpoints) {
            let edge = &graph.edges()[i as usize];
            assert_eq!((a as usize, b as usize), (edge.a, edge.b.unwrap_or(3)));
            assert!(graph.incident(a).contains(&(i, b)));
            assert!(graph.incident(b).contains(&(i, a)));
        }
        for v in 0..=3 {
            let row: Vec<u32> = graph.incident(v).iter().map(|&(e, _)| e).collect();
            assert!(row.is_sorted(), "row {v} is in ascending edge order");
        }
    }

    #[test]
    fn observables_become_one_mask_per_edge() {
        let model = dem(
            vec![
                err(0.1, vec![0], vec![0, 63]),
                err(0.1, vec![0, 1], vec![5]),
            ],
            2,
            64,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.masks, vec![1 | 1 << 63, 1 << 5]);
    }

    #[test]
    #[should_panic(expected = "at most 64 observables")]
    fn from_dem_refuses_65_observables() {
        DecodingGraph::from_dem(&dem(vec![err(0.1, vec![0], vec![64])], 1, 65));
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
