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
//! a differing observable set is counted. Observables are `u64` masks from
//! the start (a mechanism's list is a set, so a repeated index cancels):
//! the carried observables, a split's owed remainder and the conflict test
//! are all masks.
//!
//! The graph is one flat table per edge field, and both decoders read
//! these tables: endpoints with the boundary at node `num_detectors()`, the
//! observable mask (a correction is a `u64` mask, so a graph holds at most
//! 64 observables), the weight and the probability; plus a CSR incidence
//! of `(edge, opposite endpoint)` pairs per node in ascending edge order,
//! whose boundary row lists the boundary edges.

use std::ops::Range;

use qccd_sim::DetectorErrorModel;

/// A decoding graph derived from a detector error model. Edge `e` is entry
/// `e` of each per-edge table.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodingGraph {
    num_detectors: usize,
    num_observables: usize,
    /// Per-edge endpoints, the boundary as node `num_detectors`.
    endpoints: Vec<(u32, u32)>,
    /// Per-edge observable bitmask.
    masks: Vec<u64>,
    /// Per-edge log-likelihood weight.
    weights: Vec<f64>,
    /// Per-edge parity-combined probability.
    probabilities: Vec<f64>,
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

/// Endpoints of an edge under construction: a detector and a second
/// detector or `None` for the boundary, which sorts first.
type Endpoints = (u32, Option<u32>);

/// One edge under construction: all mechanisms seen between its endpoints.
struct Merged {
    endpoints: Endpoints,
    /// Parity-combined probability of every constituent.
    probability: f64,
    /// Probability of the likeliest graph-like constituent.
    likeliest: f64,
    /// The observable mask the edge carries: the first graph-like
    /// constituent's, or a later one's that was likelier than every
    /// constituent before it.
    mask: u64,
}

/// The XOR fold of an observable set into a mask.
fn mask_of(observables: &[u32]) -> u64 {
    observables.iter().fold(0, |mask, &o| mask ^ (1u64 << o))
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
        let boundary = u32::try_from(num_detectors).expect("graph indices fit in u32");
        let combine = |p: f64, q: f64| p * (1.0 - q) + q * (1.0 - p);

        // Graph-like mechanisms become edges, merged by endpoints: sort
        // them by (endpoints, model index), then fold each run in model
        // order. A mechanism with no detector symptom cannot be decoded; it
        // contributes directly to the logical error floor and is ignored.
        let mut order: Vec<(Endpoints, usize)> = (dem.errors.iter().enumerate())
            .filter(|(_, e)| e.is_graphlike())
            .filter_map(|(i, e)| Some(((*e.detectors.first()?, e.detectors.get(1).copied()), i)))
            .collect();
        order.sort_unstable();
        let mut merged: Vec<Merged> = Vec::new();
        let mut observable_conflicts = 0;
        for &(endpoints, i) in &order {
            let error = &dem.errors[i];
            let mask = mask_of(&error.observables);
            if merged.last().is_none_or(|edge| edge.endpoints != endpoints) {
                merged.push(Merged {
                    endpoints,
                    probability: 0.0,
                    likeliest: 0.0,
                    mask,
                });
            }
            let edge = merged.last_mut().expect("every run starts an edge");
            edge.probability = combine(edge.probability, error.probability);
            if edge.mask != mask {
                observable_conflicts += 1;
            }
            if error.probability > edge.likeliest {
                edge.likeliest = error.probability;
                edge.mask = mask;
            }
        }

        // Hyperedges add their probability to the existing edges they split
        // into, or are left out.
        let mut decomposed_hyperedges = 0;
        let mut undecomposed_hyperedges = 0;
        for error in dem.errors.iter().filter(|e| !e.is_graphlike()) {
            let Some(parts) = split(&error.detectors, mask_of(&error.observables), &merged) else {
                undecomposed_hyperedges += 1;
                continue;
            };
            decomposed_hyperedges += 1;
            for part in parts {
                let edge = &mut merged[part];
                edge.probability = combine(edge.probability, error.probability);
            }
        }

        let mut graph = DecodingGraph {
            num_detectors,
            num_observables: dem.num_observables,
            endpoints: Vec::with_capacity(merged.len()),
            masks: Vec::with_capacity(merged.len()),
            weights: Vec::with_capacity(merged.len()),
            probabilities: Vec::with_capacity(merged.len()),
            incident_start: vec![0; num_detectors + 2],
            incident: vec![(0, 0); 2 * merged.len()],
            decomposed_hyperedges,
            undecomposed_hyperedges,
            observable_conflicts,
        };
        for edge in &merged {
            let p = edge.probability.clamp(1e-12, 0.5);
            let (a, b) = edge.endpoints;
            graph.endpoints.push((a, b.unwrap_or(boundary)));
            graph.masks.push(edge.mask);
            graph.weights.push(((1.0 - p) / p).ln().max(0.0));
            graph.probabilities.push(edge.probability);
        }
        // Counting sort by node: every row comes out in ascending edge order.
        let start = &mut graph.incident_start;
        for &(a, b) in &graph.endpoints {
            start[a as usize + 1] += 1;
            start[b as usize + 1] += 1;
        }
        for v in 0..=num_detectors {
            start[v + 1] += start[v];
        }
        let mut fill = start.clone();
        for (edge, &(a, b)) in (0..).zip(&graph.endpoints) {
            for (v, other) in [(a, b), (b, a)] {
                graph.incident[fill[v as usize] as usize] = (edge, other);
                fill[v as usize] += 1;
            }
        }
        graph
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

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.endpoints.len()
    }

    /// Per-edge endpoints: a mechanism's first detector, then its second or
    /// the boundary node `num_detectors()`. Edges are sorted by the first,
    /// then by the second, a boundary edge before its detector's pairs.
    pub fn endpoints(&self) -> &[(u32, u32)] {
        &self.endpoints
    }

    /// Per-edge observable masks: bit `o` is set when the edge flips
    /// logical observable `o`.
    pub fn masks(&self) -> &[u64] {
        &self.masks
    }

    /// Per-edge log-likelihood weights `ln((1−p)/p)`, with `p` clamped to
    /// `[1e-12, 0.5]`, so every weight is non-negative.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Per-edge probabilities: the parity of every mechanism merged into
    /// the edge, unclamped.
    pub fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// Where a node's row lies in the incidence, and in any per-node table
    /// laid out like it.
    pub(crate) fn row(&self, node: u32) -> Range<usize> {
        self.incident_start[node as usize] as usize..self.incident_start[node as usize + 1] as usize
    }

    /// The `(edge, opposite endpoint)` pairs of a node, in ascending edge
    /// order; the boundary node's are its boundary edges.
    pub(crate) fn incident(&self, node: u32) -> &[(u32, u32)] {
        &self.incident[self.row(node)]
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
        self.endpoints.is_empty()
    }
}

/// Depth-first search for a split of `detectors` into endpoint sets of
/// existing edges whose masks XOR to `owed`: the first detector is taken
/// alone or paired with each later one, in index order. Returns the parts
/// as indices into `known`, which is sorted by endpoints.
fn split(detectors: &[u32], owed: u64, known: &[Merged]) -> Option<Vec<usize>> {
    let Some((&first, rest)) = detectors.split_first() else {
        return (owed == 0).then(Vec::new);
    };
    for partner in std::iter::once(None).chain((0..rest.len()).map(Some)) {
        let key = (first, partner.map(|i| rest[i]));
        let Ok(part) = known.binary_search_by(|edge| edge.endpoints.cmp(&key)) else {
            continue;
        };
        let mut remaining = rest.to_vec();
        if let Some(i) = partner {
            remaining.remove(i);
        }
        if let Some(mut parts) = split(&remaining, owed ^ known[part].mask, known) {
            parts.push(part);
            return Some(parts);
        }
    }
    None
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

    /// The index of the edge between `a` and `b` (`None`: the boundary).
    fn edge(graph: &DecodingGraph, a: u32, b: Option<u32>) -> usize {
        let key = (a, b.unwrap_or(graph.num_detectors() as u32));
        let found = graph.endpoints().iter().position(|&e| e == key);
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
        assert_eq!(graph.num_edges(), 2);
        assert_eq!(graph.num_detectors(), 2);
        assert_eq!(graph.decomposed_hyperedges(), 0);
        let boundary_edge = edge(&graph, 0, None);
        assert_eq!(graph.masks()[boundary_edge], 1);
        assert!(graph.weights()[boundary_edge] > 0.0);
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
        assert_eq!(graph.num_edges(), 2);
        let e01 = edge(&graph, 0, Some(1));
        let e23 = edge(&graph, 2, Some(3));
        // Probabilities were combined.
        let p01 = graph.probabilities()[e01];
        assert!(p01 > 0.05 && p01 < 0.07);
        // Observable assignment follows the matching graph-like mechanism.
        assert_eq!(graph.masks()[e01], 0);
        assert_eq!(graph.masks()[e23], 1);
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
        assert_eq!(graph.num_edges(), 6);
        for (a, b, grew) in [
            (0, None, true),
            (1, None, true),
            (2, Some(3), true),
            (0, Some(1), false),
            (0, Some(2), false),
            (1, Some(3), false),
        ] {
            let p = graph.probabilities()[edge(&graph, a, b)];
            assert_eq!(p > 0.2, grew, "({a}, {b:?})");
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
        let p = |a, b| graph.probabilities()[edge(&graph, a, Some(b))];
        assert!(p(0, 1) < 0.2);
        assert!(p(0, 2) > 0.2);
        assert!(p(1, 3) > 0.2);
        assert_eq!(graph.masks()[edge(&graph, 0, Some(2))], 1);
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
        assert_eq!(graph.num_edges(), 1);
        assert_eq!(graph.probabilities(), &[0.01]);
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
        assert_eq!(graph.masks(), &[1]);
        assert!((graph.probabilities()[0] - 0.26).abs() < 1e-12);
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
        assert_eq!(graph.num_edges(), 1);
        assert!((graph.probabilities()[0] - 0.18).abs() < 1e-12);
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
        assert_eq!(graph.endpoints(), &[(0, 3), (0, 1), (1, 2)]);
        for (i, &(a, b)) in (0..).zip(graph.endpoints()) {
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
        assert_eq!(graph.masks(), &[1 | 1 << 63, 1 << 5]);
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
        let rare = graph.weights()[edge(&graph, 0, Some(1))];
        let common = graph.weights()[edge(&graph, 1, Some(2))];
        assert!(rare > common);
    }

    #[test]
    fn a_repeated_observable_index_cancels() {
        // Observable lists are sets: `[1, 1]` flips nothing, as `[]` does,
        // so the parallel merge below discards no observable, and the
        // hyperedge's `[0, 0, 0]` is observable 0 alone, which {0,1}+{2,3}
        // reproduces.
        let model = dem(
            vec![
                err(0.1, vec![0, 1], vec![]),
                err(0.2, vec![0, 1], vec![1, 1]),
                err(0.1, vec![2, 3], vec![0, 1, 1]),
                err(0.05, vec![0, 1, 2, 3], vec![0, 0, 0]),
            ],
            4,
            2,
        );
        let graph = DecodingGraph::from_dem(&model);
        assert_eq!(graph.observable_conflicts(), 0);
        assert_eq!(graph.masks(), &[0, 1]);
        assert_eq!(graph.decomposed_hyperedges(), 1);
        assert_eq!(graph.undecomposed_hyperedges(), 0);
        let merged = 0.1 * 0.8 + 0.2 * 0.9;
        let split = merged * 0.95 + 0.05 * (1.0 - merged);
        assert!((graph.probabilities()[0] - split).abs() < 1e-12);
    }
}
