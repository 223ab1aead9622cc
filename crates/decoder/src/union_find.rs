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
//! of shots can be decoded in seconds. The edge endpoints, observable masks
//! and incidence lists are the graph's flat tables; the decoder adds only
//! the edge lengths. All working state lives in the shared
//! [`DecodeScratch`] as plain per-node and per-edge arrays: a shot lists
//! the nodes and edges it touches and the next shot resets only those, and
//! the per-round edge counts are stamped with a round counter that runs
//! across shots, so they need no reset at all. A node's incident edges
//! enter a frontier once, the first time the node joins a cluster, and
//! peeling walks only the grown subgraph, so quiet shots cost almost
//! nothing.

use std::num::NonZeroU64;

use crate::memo::next_memo_token;
use crate::{DecodeScratch, Decoder, DecodingGraph};

/// "No edge" sentinel of the peeling forest (a forest root).
const NO_EDGE: u32 = u32::MAX;

/// Union-find decoder over a decoding graph.
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    graph: DecodingGraph,
    /// Discretised edge lengths (growth units).
    lengths: Vec<u32>,
    /// Syndrome-memo ownership token (see [`crate::memo`]).
    memo_token: NonZeroU64,
}

impl UnionFindDecoder {
    /// Creates a decoder for the given decoding graph.
    pub fn new(graph: DecodingGraph) -> Self {
        let lengths = graph
            .edges()
            .iter()
            .map(|e| ((2.0 * e.weight).round() as u32).clamp(1, 100))
            .collect();
        UnionFindDecoder {
            graph,
            lengths,
            memo_token: next_memo_token(),
        }
    }

    /// Marks `node` touched and, the first time, adds its incident edges to
    /// the frontier of its cluster. An unseeded node is always a singleton
    /// cluster, so that frontier is its own.
    fn seed(&self, s: &mut UnionFindScratch, node: u32) {
        let state = &mut s.nodes[node as usize];
        if state.seeded {
            return;
        }
        state.seeded = true;
        s.touched_nodes.push(node);
        s.frontier[node as usize].extend_from_slice(self.graph.incident(node));
    }

    /// Growth phase: grow active clusters until all are neutral. Every
    /// fully grown edge is recorded in the grown adjacency, and its
    /// endpoints in `s.peel_roots`.
    fn grow(&self, s: &mut UnionFindScratch) {
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
            // Merges leave absorbed roots, neutral roots and repeats behind.
            let nodes = &s.nodes;
            s.active.retain(|&r| {
                let root = nodes[r as usize];
                root.parent == r && root.parity && !root.boundary
            });
            s.active.sort_unstable();
            s.active.dedup();
            if s.active.is_empty() {
                break;
            }
            // Pass 1: prune each active frontier (grown and internal edges
            // drop out) and count how many clusters grow each edge. An edge
            // appears at most once in a cluster's frontier unless both its
            // endpoints are in the cluster, i.e. it is internal, so the
            // count is the number of clusters growing it. The same pass
            // finds the number of unit rounds until the first edge
            // completes: an edge's gap per round only shrinks as its count
            // rises, so the minimum over every count is the minimum over
            // the final counts.
            let round = s.next_round();
            let mut rounds = u32::MAX;
            s.candidates.clear();
            for &root in &s.active {
                let mut frontier = std::mem::take(&mut s.frontier[root as usize]);
                frontier.retain(|&(edge, other)| {
                    let state = &mut s.edges[edge as usize];
                    let gap = self.lengths[edge as usize].saturating_sub(state.support);
                    if gap == 0 || find(&mut s.nodes, other) == root {
                        return false;
                    }
                    if state.round == round {
                        state.multiplicity += 1;
                        rounds = rounds.min(gap.div_ceil(state.multiplicity));
                    } else {
                        state.round = round;
                        state.multiplicity = 1;
                        rounds = rounds.min(gap);
                        s.candidates.push(edge);
                    }
                    true
                });
                s.frontier[root as usize] = frontier;
            }
            if s.candidates.is_empty() {
                // No edge can grow: remaining defects are unmatchable
                // (disconnected detectors). Give up on them.
                break;
            }
            // Pass 2: fast-forward every frontier edge by that many rounds.
            // The next shot resets what is listed here (an edge listed in
            // several rounds is reset several times, which is harmless).
            s.merges.clear();
            s.touched_edges.extend_from_slice(&s.candidates);
            for &edge in &s.candidates {
                let state = &mut s.edges[edge as usize];
                state.support += state.multiplicity * rounds;
                if state.support >= self.lengths[edge as usize] {
                    s.merges.push(edge);
                }
            }
            // Canonical merge order regardless of frontier traversal order.
            s.merges.sort_unstable();
            for index in 0..s.merges.len() {
                let edge = s.merges[index];
                let (a, b) = self.graph.endpoints[edge as usize];
                // Record the grown edge in the peeling adjacency (cycle
                // edges included: they are valid non-tree edges).
                s.grown_adjacency[a as usize].push((edge, b));
                s.grown_adjacency[b as usize].push((edge, a));
                s.peel_roots.extend([a, b]);
                let ra = find(&mut s.nodes, a);
                let rb = find(&mut s.nodes, b);
                if ra != rb {
                    self.seed(s, a);
                    self.seed(s, b);
                    let root = s.union(ra, rb);
                    s.active.push(root);
                }
            }
        }
    }

    /// Peeling phase: build a spanning forest of the grown edges (rooted at
    /// the boundary where possible) and peel defects from the leaves inward;
    /// returns the XOR of the peeled edges' observable masks.
    ///
    /// Only the grown subgraph is visited, so the cost is proportional to
    /// the clusters actually built this shot, not to the graph size.
    fn peel(&self, s: &mut UnionFindScratch) -> u64 {
        // Roots: the boundary first (so it can absorb defects), then the
        // grown edges' endpoints in ascending order. The boundary has the
        // largest index, so after sorting it is last if it is there at all.
        s.peel_roots.sort_unstable();
        s.peel_roots.dedup();
        if s.peel_roots.last() == Some(&(self.graph.num_detectors() as u32)) {
            s.peel_roots.rotate_right(1);
        }
        // Breadth-first over the grown subgraph from each unvisited root;
        // `order` is the queue, and stays the visiting order afterwards.
        let mut head = 0;
        for &root in &s.peel_roots {
            if s.nodes[root as usize].visited {
                continue;
            }
            s.nodes[root as usize].visited = true;
            s.order.push(root);
            while head < s.order.len() {
                let v = s.order[head] as usize;
                head += 1;
                for &(edge, next) in &s.grown_adjacency[v] {
                    let node = &mut s.nodes[next as usize];
                    if !node.visited {
                        node.visited = true;
                        node.tree_edge = edge;
                        s.order.push(next);
                    }
                }
            }
        }

        // Peel leaves-first (reverse BFS order). Any defect absorbed by the
        // boundary is fine; the boundary's defect flag is ignored.
        let mut flips = 0u64;
        for &v in s.order.iter().rev() {
            let node = s.nodes[v as usize];
            if !node.defect || node.tree_edge == NO_EDGE {
                continue;
            }
            let edge = node.tree_edge as usize;
            flips ^= self.graph.masks[edge];
            let (a, b) = self.graph.endpoints[edge];
            let parent = if a == v { b } else { a };
            s.nodes[parent as usize].defect ^= true;
        }
        flips
    }
}

impl Decoder for UnionFindDecoder {
    fn decode_shot(&self, fired_detectors: &[usize], scratch: &mut DecodeScratch) -> u64 {
        if fired_detectors.is_empty() || self.graph.is_empty() {
            return 0;
        }
        let s = &mut scratch.union_find;
        s.begin(self.graph.num_nodes(), self.lengths.len());
        // The boundary is seeded without a frontier: a cluster that touches
        // it never grows again.
        let boundary = self.graph.num_detectors();
        s.nodes[boundary].boundary = true;
        s.nodes[boundary].seeded = true;
        s.touched_nodes.push(boundary as u32);
        for &d in fired_detectors {
            let node = &mut s.nodes[d];
            node.defect = true;
            node.parity = true;
            self.seed(s, d as u32);
            s.active.push(d as u32);
        }
        self.grow(s);
        self.peel(s)
    }

    fn num_observables(&self) -> usize {
        self.graph.num_observables()
    }

    fn memo_token(&self) -> Option<NonZeroU64> {
        Some(self.memo_token)
    }
}

/// Union-find and peeling state of one node.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Union-find parent; a root is its own parent.
    parent: u32,
    /// Peeling-forest edge to the BFS parent ([`NO_EDGE`] at a root).
    tree_edge: u32,
    rank: u8,
    /// Defect parity of the cluster rooted here.
    parity: bool,
    /// Whether the cluster rooted here touches the virtual boundary.
    boundary: bool,
    /// Whether this node carries a defect (moved towards the roots while
    /// peeling).
    defect: bool,
    /// Whether this node's incident edges have entered a frontier; every
    /// node a shot writes is seeded, so this also marks it touched.
    seeded: bool,
    /// Whether the peeling search has reached this node.
    visited: bool,
}

impl Node {
    fn fresh(index: u32) -> Self {
        Node {
            parent: index,
            tree_edge: NO_EDGE,
            rank: 0,
            parity: false,
            boundary: false,
            defect: false,
            seeded: false,
            visited: false,
        }
    }
}

/// Growth state of one edge.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeState {
    /// Growth units applied this shot; the edge is grown once this reaches
    /// its length.
    support: u32,
    /// Growth round that counted `multiplicity`.
    round: u32,
    /// Number of active clusters growing this edge in round `round`.
    multiplicity: u32,
}

/// Per-shot working state of the union-find decoder. Every shot starts from
/// fresh node and edge slots, whichever decoder used the scratch last:
/// [`UnionFindScratch::begin`] resets the slots the previous shot listed.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionFindScratch {
    nodes: Vec<Node>,
    edges: Vec<EdgeState>,
    /// Frontier `(edge, opposite endpoint)` entries per cluster root; the
    /// entry's own endpoint is in the cluster.
    frontier: Vec<Vec<(u32, u32)>>,
    /// Per-node `(edge, opposite endpoint)` adjacency of the grown
    /// subgraph, in completion order, so peeling never scans the full
    /// decoding graph.
    grown_adjacency: Vec<Vec<(u32, u32)>>,
    /// Nodes and edges this shot wrote, reset by the next shot.
    touched_nodes: Vec<u32>,
    touched_edges: Vec<u32>,
    /// Growth-round counter, running across shots (stamps
    /// [`EdgeState::round`]).
    round: u32,
    active: Vec<u32>,
    /// Frontier edges eligible to grow this round.
    candidates: Vec<u32>,
    /// Edges completed this round, sorted before merging so the merge order
    /// is canonical (frontiers themselves are kept unsorted).
    merges: Vec<u32>,
    /// Endpoints of the grown edges: the peeling roots.
    peel_roots: Vec<u32>,
    /// Peeling visiting order (the breadth-first queue).
    order: Vec<u32>,
}

impl UnionFindScratch {
    /// Resets what the previous shot touched and prepares for one shot over
    /// `nodes` vertices and `edges` edges.
    fn begin(&mut self, nodes: usize, edges: usize) {
        for &v in &self.touched_nodes {
            let v = v as usize;
            self.nodes[v] = Node::fresh(v as u32);
            self.frontier[v].clear();
            self.grown_adjacency[v].clear();
        }
        for &edge in &self.touched_edges {
            self.edges[edge as usize].support = 0;
        }
        self.touched_nodes.clear();
        self.touched_edges.clear();
        if self.nodes.len() < nodes {
            let start = self.nodes.len();
            self.nodes
                .extend((start..nodes).map(|v| Node::fresh(v as u32)));
            self.frontier.resize_with(nodes, Vec::new);
            self.grown_adjacency.resize_with(nodes, Vec::new);
        }
        if self.edges.len() < edges {
            self.edges.resize(edges, EdgeState::default());
        }
        self.active.clear();
        self.peel_roots.clear();
        self.order.clear();
    }

    /// Advances the round counter; on wrap-around every stamp is cleared
    /// once, so a stale stamp never matches a live round.
    fn next_round(&mut self) -> u32 {
        if self.round == u32::MAX {
            for edge in &mut self.edges {
                edge.round = 0;
            }
            self.round = 0;
        }
        self.round += 1;
        self.round
    }

    /// Unions the clusters rooted at `ra != rb` (union by rank, ties to
    /// `ra`); returns the new root.
    fn union(&mut self, ra: u32, rb: u32) -> u32 {
        let (big, small) = if self.nodes[ra as usize].rank >= self.nodes[rb as usize].rank {
            (ra, rb)
        } else {
            (rb, ra)
        };
        let absorbed = self.nodes[small as usize];
        self.nodes[small as usize].parent = big;
        let root = &mut self.nodes[big as usize];
        if root.rank == absorbed.rank {
            root.rank += 1;
        }
        root.parity ^= absorbed.parity;
        root.boundary |= absorbed.boundary;
        // Append the shorter frontier to the longer one: entry order only
        // changes the order edges are counted in, never a count, a growth
        // amount or the (sorted) merge order.
        let mut moved = std::mem::take(&mut self.frontier[small as usize]);
        let mut kept = std::mem::take(&mut self.frontier[big as usize]);
        if moved.len() > kept.len() {
            std::mem::swap(&mut moved, &mut kept);
        }
        kept.extend_from_slice(&moved);
        moved.clear();
        self.frontier[big as usize] = kept;
        self.frontier[small as usize] = moved;
        big
    }
}

/// Union-find `find` with path halving.
fn find(nodes: &mut [Node], mut x: u32) -> u32 {
    loop {
        let parent = nodes[x as usize].parent;
        if parent == x {
            return x;
        }
        let grandparent = nodes[parent as usize].parent;
        nodes[x as usize].parent = grandparent;
        x = grandparent;
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
            let with_scratch = decoder.decode_shot(syndrome, &mut scratch);
            assert_eq!(
                vec![with_scratch == 1],
                decoder.decode(syndrome),
                "scratch reuse changed the prediction for {syndrome:?}"
            );
        }
    }

    /// The decoding graph of a distance-`d` rotated-surface-code memory
    /// experiment (`d` rounds, depolarising data noise p = 0.02 each round)
    /// and `shots` sampled defect lists.
    fn surface_code(d: usize, shots: usize, seed: u64) -> (DecodingGraph, Vec<Vec<usize>>) {
        let code = qccd_qec::rotated_surface_code(d);
        let noisy = crate::ler::tests::noisy_memory(&code, d, 0.02);
        let dem = DetectorErrorModel::from_circuit(&noisy).expect("valid annotations");
        let chunk = qccd_sim::sample_detector_chunks(&noisy, shots, seed, shots)
            .expect("valid annotations")
            .sample_chunk(0);
        let fired = (0..shots)
            .map(|shot| {
                (0..dem.num_detectors)
                    .filter(|&det| (chunk.detector_plane(det)[shot / 64] >> (shot % 64)) & 1 == 1)
                    .collect()
            })
            .collect();
        (DecodingGraph::from_dem(&dem), fired)
    }

    fn decode_with(
        decoder: &dyn Decoder,
        fired: &[usize],
        scratch: &mut DecodeScratch,
    ) -> Vec<bool> {
        let mask = decoder.decode_shot(fired, scratch);
        (0..decoder.num_observables())
            .map(|o| mask >> o & 1 == 1)
            .collect()
    }

    #[test]
    fn one_scratch_across_graph_sizes_and_decoders_predicts_like_fresh_ones() {
        let (graph7, shots7) = surface_code(7, 96, 3);
        let (graph3, shots3) = surface_code(3, 96, 4);
        let large = UnionFindDecoder::new(graph7.clone());
        let small = UnionFindDecoder::new(graph3);
        let exact = crate::ExactMatchingDecoder::new(graph7);
        let mut shared = DecodeScratch::new();
        for (shot7, shot3) in shots7.iter().zip(&shots3) {
            for (decoder, fired) in [
                (&large as &dyn Decoder, shot7),
                (&exact, shot7),
                (&small, shot3),
            ] {
                assert_eq!(
                    decode_with(decoder, fired, &mut shared),
                    decoder.decode(fired),
                    "shared scratch changed the prediction for {fired:?}"
                );
            }
        }
        assert!(
            shots7.iter().any(|fired| fired.len() > 8),
            "exercise large clusters"
        );
    }

    #[test]
    fn round_counter_wrap_keeps_predictions() {
        let (graph, shots) = surface_code(5, 64, 5);
        let decoder = UnionFindDecoder::new(graph);
        let mut scratch = DecodeScratch::new();
        let mut wraps = 0;
        for (index, fired) in shots.iter().enumerate() {
            // Even shots count in small rounds; odd shots start at most two
            // rounds short of the wrap, so after it they count in those
            // same small rounds again.
            let s = &mut scratch.union_find;
            if index % 2 == 1 {
                s.round = s.round.max(u32::MAX - 2);
            }
            let before = s.round;
            assert_eq!(
                decode_with(&decoder, fired, &mut scratch),
                decoder.decode(fired),
                "prediction for {fired:?} changed"
            );
            // No stamp is ahead of the counter, so none can match a later
            // round before that round restamps it.
            let s = &scratch.union_find;
            assert!(s.edges.iter().all(|edge| edge.round <= s.round));
            wraps += usize::from(s.round < before);
        }
        assert!(wraps > 1, "too few shots crossed the wrap");
    }
}
