//! Weighted union-find decoder.
//!
//! An implementation of the Delfosse–Nickerson union-find decoder with
//! weighted cluster growth and peeling:
//!
//! 1. every fired detector seeds a cluster;
//! 2. clusters with odd defect parity (and no boundary contact) grow their
//!    frontier edges one unit at a time, where each edge's length is its
//!    (discretised) log-likelihood weight;
//! 3. when an edge is fully grown its endpoint clusters merge;
//! 4. once every cluster is neutral (even parity or touching the boundary),
//!    a spanning forest of the grown edges is peeled from the leaves inward
//!    to produce a correction, and the parity of logical-observable flips
//!    along the correction is returned.
//!
//! The decoder is near-linear in the number of grown edges, which below
//! threshold is proportional to the number of detection events, so millions
//! of shots can be decoded in seconds. All working state (union-find arrays,
//! frontiers, the peeling forest) lives in the shared [`DecodeScratch`] and
//! is recycled between shots with O(1) epoch-stamped resets; the peeling
//! phase walks only the grown subgraph rather than the full decoding graph,
//! so quiet shots cost almost nothing.

use std::num::NonZeroU64;

use crate::batch::{PeelState, UnionFindScratch};
use crate::memo::next_memo_token;
use crate::{DecodeScratch, Decoder, DecodingGraph};

/// Union-find decoder over a decoding graph.
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    graph: DecodingGraph,
    /// Discretised edge lengths (growth units).
    lengths: Vec<u32>,
    /// Index of the virtual boundary node (== number of detectors).
    boundary: usize,
    /// Syndrome-memo ownership token (see [`crate::memo`]).
    memo_token: NonZeroU64,
}

impl UnionFindDecoder {
    /// Creates a decoder for the given decoding graph.
    pub fn new(graph: DecodingGraph) -> Self {
        let boundary = graph.num_detectors();
        let lengths = graph
            .edges()
            .iter()
            .map(|e| ((2.0 * e.weight).round() as u32).clamp(1, 100))
            .collect();
        UnionFindDecoder {
            graph,
            lengths,
            boundary,
            memo_token: next_memo_token(),
        }
    }

    /// Access to the underlying graph.
    pub fn graph(&self) -> &DecodingGraph {
        &self.graph
    }

    fn edge_endpoints(&self, edge: usize) -> (usize, usize) {
        let e = &self.graph.edges()[edge];
        (e.a, e.b.unwrap_or(self.boundary))
    }

    /// Growth phase: grow active clusters until all are neutral. Fully-grown
    /// edges are recorded in `s.grown` / `s.grown_edges`.
    fn grow(&self, fired_detectors: &[usize], s: &mut UnionFindScratch) {
        for &d in fired_detectors {
            let root = s.find(d);
            if s.is_active(root) {
                s.active.push(root);
            }
        }
        s.active.sort_unstable();
        s.active.dedup();

        // Each round grows every active cluster's frontier in lock-step, by
        // the largest uniform amount that completes at least one edge
        // (fast-forwarding the unit-growth schedule: an edge grown by `k`
        // active clusters advances `k` units per unit round, and rounds in
        // which nothing completes are skipped wholesale, so the merge
        // schedule is identical to unit growth at a fraction of the cost).
        // The loop terminates because every round either grows an edge or
        // merges clusters; a stall guard handles pathological graphs with
        // unreachable defects.
        loop {
            let mut active = std::mem::take(&mut s.active);
            active.retain_mut(|root| {
                let r = *root;
                s.find(r) == r && s.is_active(r)
            });
            if active.is_empty() {
                s.active = active;
                break;
            }
            // Pass 1: prune each active frontier (grown / internal /
            // duplicate edges drop out) and count how many clusters grow
            // each edge. The round stamp invalidates the previous round's
            // multiplicities; `last_root` deduplicates repeated entries of
            // one cluster's frontier without sorting it.
            s.round += 1;
            s.growth_candidates.clear();
            for &root in &active {
                let mut frontier = s.frontier.take(root);
                let mut kept = 0usize;
                for index in 0..frontier.len() {
                    let edge = frontier[index];
                    let mut state = s.edges.get(edge);
                    if state.grown {
                        continue;
                    }
                    if state.round == s.round && state.last_root == root as u32 {
                        // Duplicate frontier entry within this cluster.
                        continue;
                    }
                    let (a, b) = self.edge_endpoints(edge);
                    let ra = s.find(a);
                    let rb = s.find(b);
                    if ra == rb {
                        // Internal edge; no longer part of the frontier.
                        continue;
                    }
                    let count = s.edge_multiplicity(state);
                    if count == 0 {
                        s.growth_candidates.push(edge);
                    }
                    state.multiplicity = count + 1;
                    state.round = s.round;
                    state.last_root = root as u32;
                    s.edges.set(edge, state);
                    frontier[kept] = edge;
                    kept += 1;
                }
                frontier.truncate(kept);
                // Return the surviving frontier to the root's slot.
                s.frontier.restore(root, frontier);
            }
            if s.growth_candidates.is_empty() {
                // No edge can grow: remaining defects are unmatchable
                // (disconnected detectors). Give up on them.
                s.active = active;
                break;
            }
            // Pass 2: number of unit rounds until the first edge completes.
            let mut rounds = u32::MAX;
            for index in 0..s.growth_candidates.len() {
                let edge = s.growth_candidates[index];
                let state = s.edges.get(edge);
                let gap = self.lengths[edge] - state.support;
                rounds = rounds.min(gap.div_ceil(u32::from(state.multiplicity)));
            }
            // Pass 3: fast-forward every frontier edge by that many rounds.
            s.merges.clear();
            for index in 0..s.growth_candidates.len() {
                let edge = s.growth_candidates[index];
                let mut state = s.edges.get(edge);
                state.support += u32::from(state.multiplicity) * rounds;
                if state.support >= self.lengths[edge] {
                    state.grown = true;
                    s.grown_edges.push(edge);
                    s.merges.push(edge);
                }
                s.edges.set(edge, state);
            }
            let mut merges = std::mem::take(&mut s.merges);
            // Canonical merge order regardless of frontier traversal order.
            merges.sort_unstable();
            for &edge in &merges {
                let (a, b) = self.edge_endpoints(edge);
                // Record the grown edge in the peeling adjacency (cycle
                // edges included: they are valid non-tree edges).
                s.peel_adjacency.get_mut(a).push(edge);
                if b != a {
                    s.peel_adjacency.get_mut(b).push(edge);
                }
                let ra = s.find(a);
                let rb = s.find(b);
                if ra != rb {
                    // Adopt the other endpoint's incident edges into the
                    // merged frontier the first time a lone node is absorbed.
                    for node in [a, b] {
                        let r = s.find(node);
                        if s.frontier.get_mut(r).is_empty()
                            && !s.defect.get(node)
                            && node != self.boundary
                        {
                            let incident = self.graph.incident_edges(node);
                            s.frontier.get_mut(r).extend_from_slice(incident);
                        }
                    }
                    let new_root = s.union(a, b);
                    // Make sure the merged cluster also sees the absorbed
                    // node's incident edges.
                    for node in [a, b] {
                        if node != self.boundary {
                            let incident = self.graph.incident_edges(node);
                            s.frontier.get_mut(new_root).extend_from_slice(incident);
                        }
                    }
                    active.push(new_root);
                }
            }
            s.merges = merges;
            active.sort_unstable();
            active.dedup();
            s.active = active;
        }
    }

    /// Peeling phase: build a spanning forest of the grown edges (rooted at
    /// the boundary where possible) and peel defects from the leaves inward,
    /// XOR-ing edge observables into `prediction`.
    ///
    /// Only the grown subgraph is visited, so the cost is proportional to
    /// the clusters actually built this shot, not to the graph size.
    fn peel(&self, s: &mut UnionFindScratch, prediction: &mut [bool]) {
        // Roots: the boundary first (so it can absorb defects), then the
        // grown edges' endpoints in ascending order (`peel_roots` is sorted
        // below, so the grown-edge list itself needs no ordering).
        s.peel_roots.clear();
        for &edge in &s.grown_edges {
            let (a, b) = self.edge_endpoints(edge);
            s.peel_roots.push(a);
            s.peel_roots.push(b);
        }
        s.peel_roots.sort_unstable();
        s.peel_roots.dedup();

        s.order.clear();
        let bfs = |start: usize, s: &mut UnionFindScratch| {
            if s.peel.written(start) {
                return;
            }
            // A written slot doubles as the visited flag; roots keep the
            // "no incoming edge" sentinels.
            s.peel.set(
                start,
                PeelState {
                    parent_edge: u32::MAX,
                    parent_node: u32::MAX,
                },
            );
            s.queue.clear();
            s.queue.push_back(start);
            while let Some(v) = s.queue.pop_front() {
                s.order.push(v);
                // Only the grown subgraph's adjacency is walked, in the
                // (deterministic) order the edges completed.
                let incident = s.peel_adjacency.take(v);
                for &edge in &incident {
                    let (a, b) = self.edge_endpoints(edge);
                    let next = if a == v { b } else { a };
                    if !s.peel.written(next) {
                        s.peel.set(
                            next,
                            PeelState {
                                parent_edge: edge as u32,
                                parent_node: v as u32,
                            },
                        );
                        s.queue.push_back(next);
                    }
                }
                s.peel_adjacency.restore(v, incident);
            }
        };

        // Root the forest at the boundary first so it can absorb defects.
        if s.peel_roots.binary_search(&self.boundary).is_ok() {
            bfs(self.boundary, s);
        }
        let roots = std::mem::take(&mut s.peel_roots);
        for &v in &roots {
            bfs(v, s);
        }
        s.peel_roots = roots;

        // Peel leaves-first (reverse BFS order).
        for index in (0..s.order.len()).rev() {
            let v = s.order[index];
            if s.defect.get(v) {
                let peel = s.peel.get(v);
                if peel.parent_edge != u32::MAX {
                    for &obs in &self.graph.edges()[peel.parent_edge as usize].observables {
                        prediction[obs as usize] ^= true;
                    }
                    s.defect.set(v, false);
                    let p = peel.parent_node as usize;
                    let flipped = !s.defect.get(p);
                    s.defect.set(p, flipped);
                }
            }
        }
        // Any defect absorbed by the boundary is fine; the boundary's defect
        // flag is ignored.
    }
}

impl Decoder for UnionFindDecoder {
    fn decode_shot(
        &self,
        fired_detectors: &[usize],
        scratch: &mut DecodeScratch,
        prediction: &mut [bool],
    ) {
        if fired_detectors.is_empty() || self.graph.is_empty() {
            return;
        }
        let num_nodes = self.graph.num_nodes();
        let s = &mut scratch.union_find;
        s.begin(num_nodes, self.graph.edges().len());
        let mut boundary_state = s.nodes.get(self.boundary);
        boundary_state.boundary = true;
        s.nodes.set(self.boundary, boundary_state);
        for &d in fired_detectors {
            s.defect.set(d, true);
            let mut state = s.nodes.get(d);
            state.parity = true;
            s.nodes.set(d, state);
            s.frontier
                .get_mut(d)
                .extend_from_slice(self.graph.incident_edges(d));
        }
        self.grow(fired_detectors, s);
        self.peel(s, prediction);
    }

    fn num_observables(&self) -> usize {
        self.graph.num_observables()
    }

    fn memo_token(&self) -> Option<NonZeroU64> {
        Some(self.memo_token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_sim::{DemError, DetectorErrorModel};

    fn err(p: f64, detectors: Vec<u32>, observables: Vec<u32>) -> DemError {
        DemError {
            probability: p,
            detectors,
            observables,
        }
    }

    /// A 1-D repetition-code-like chain: detectors 0..n in a line, boundary
    /// edges at both ends, the last boundary edge flips the observable.
    fn chain_graph(n: usize) -> DecodingGraph {
        let mut errors = vec![err(0.01, vec![0], vec![])];
        for i in 0..n - 1 {
            errors.push(err(0.01, vec![i as u32, i as u32 + 1], vec![]));
        }
        errors.push(err(0.01, vec![n as u32 - 1], vec![0]));
        let dem = DetectorErrorModel {
            num_detectors: n,
            num_observables: 1,
            errors,
        };
        DecodingGraph::from_dem(&dem)
    }

    #[test]
    fn empty_syndrome_gives_trivial_correction() {
        let decoder = UnionFindDecoder::new(chain_graph(5));
        assert_eq!(decoder.decode(&[]), vec![false]);
        assert_eq!(decoder.num_observables(), 1);
    }

    #[test]
    fn single_defect_matches_to_nearest_boundary() {
        let decoder = UnionFindDecoder::new(chain_graph(5));
        // Defect near the left boundary: corrected via the left (no
        // observable flip).
        assert_eq!(decoder.decode(&[0]), vec![false]);
        // Defect near the right boundary: corrected via the right edge which
        // carries the observable.
        assert_eq!(decoder.decode(&[4]), vec![true]);
    }

    #[test]
    fn adjacent_defect_pair_is_matched_internally() {
        let decoder = UnionFindDecoder::new(chain_graph(6));
        // Two adjacent defects in the middle: the error was a single data
        // error between them; no observable flip.
        assert_eq!(decoder.decode(&[2, 3]), vec![false]);
    }

    #[test]
    fn defect_pair_spanning_the_chain_flips_the_observable_once() {
        let decoder = UnionFindDecoder::new(chain_graph(4));
        // Defects at both ends: the most likely explanation is two separate
        // boundary errors (left one without flip, right one with flip).
        assert_eq!(decoder.decode(&[0, 3]), vec![true]);
    }

    #[test]
    fn weighted_growth_prefers_likely_edges() {
        // Detector 0 sits between a very likely boundary edge (p=0.2, no
        // flip) and a very unlikely boundary edge (p=1e-4, flip). The decoder
        // must pick the likely explanation.
        let dem = DetectorErrorModel {
            num_detectors: 1,
            num_observables: 1,
            errors: vec![err(0.2, vec![0], vec![]), err(1e-4, vec![0], vec![0])],
        };
        let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem));
        assert_eq!(decoder.decode(&[0]), vec![false]);
    }

    #[test]
    fn disconnected_defect_does_not_hang() {
        // Detector 1 has no incident edges at all.
        let dem = DetectorErrorModel {
            num_detectors: 2,
            num_observables: 1,
            errors: vec![err(0.01, vec![0], vec![])],
        };
        let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem));
        let prediction = decoder.decode(&[0, 1]);
        assert_eq!(prediction.len(), 1);
    }

    #[test]
    fn long_chain_pairs_are_resolved_locally() {
        let decoder = UnionFindDecoder::new(chain_graph(20));
        // Two well-separated internal pairs.
        assert_eq!(decoder.decode(&[3, 4, 12, 13]), vec![false]);
    }

    #[test]
    fn scratch_reuse_is_stateless_across_shots() {
        let decoder = UnionFindDecoder::new(chain_graph(8));
        let mut scratch = DecodeScratch::new();
        let syndromes: Vec<Vec<usize>> = vec![
            vec![0],
            vec![7],
            vec![2, 3],
            vec![],
            vec![0, 7],
            vec![1, 2, 6],
        ];
        for syndrome in &syndromes {
            let mut with_scratch = vec![false; 1];
            decoder.decode_shot(syndrome, &mut scratch, &mut with_scratch);
            assert_eq!(
                with_scratch,
                decoder.decode(syndrome),
                "scratch reuse changed the prediction for {syndrome:?}"
            );
        }
    }
}
