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
//! of shots can be decoded in seconds. The edge endpoints, observable
//! masks and weights are the graph's flat tables; the decoder keeps one
//! more, laid out like the graph's incidence and indexed by its row
//! offsets: each row's edges with their lengths inline, shortest first.
//!
//! # State layout
//!
//! All working state lives in the shared [`DecodeScratch`] as flat arrays,
//! and a growth round touches only the clusters that grow:
//!
//! * Every node stores the root of its cluster directly. A union relabels
//!   the smaller cluster's members (clusters are a handful of nodes), so a
//!   membership test is one load, with no `find`.
//! * Every node stores its *radius*, the growth its clusters have applied
//!   to each of its edges, so an edge's support is the sum of its
//!   endpoints' radii. Fast-forwarding a round adds to the radii of the
//!   growing frontier nodes; no per-edge support is stored or reset.
//! * A cluster is two linked lists threaded through its nodes: its members,
//!   and its *frontier nodes*, the members that may still have an edge to
//!   grow. A union splices both. A round scans each frontier node's
//!   incidence row, shortest edge first, and unlinks the node once every
//!   edge there is internal, which stays true for the rest of the shot.
//! * The list of growing clusters holds each root at most once (a flag on
//!   the root says whether it is listed); a round drops the roots that
//!   were absorbed or became neutral.
//! * The grown subgraph is a per-shot arena of adjacency entries, linked
//!   per node in completion order; peeling walks it breadth-first from one
//!   canonical root per cluster.
//!
//! A shot lists the nodes it touches and the next shot resets only those.
//! The only per-edge state is the stamp of the last round that saw the
//! edge, from a round counter that runs across shots, so it needs no reset
//! at all. Quiet shots cost almost nothing.

use std::num::NonZeroU64;

use crate::memo::next_memo_token;
use crate::{DecodeScratch, Decoder, DecodingGraph};

/// End-of-list sentinel of the linked lists, and the "no edge, no parent"
/// of a peeling root.
const NONE: u32 = u32::MAX;

/// Union-find decoder over a decoding graph.
#[derive(Debug, Clone)]
pub struct UnionFindDecoder {
    graph: DecodingGraph,
    /// Per-node rows of `(edge, opposite endpoint, length)`: the graph's
    /// incidence with each edge's discretised length (growth units), row
    /// `v` at `graph.row(v)`.
    arcs: Vec<Arc>,
    /// Syndrome-memo ownership token (see [`crate::memo`]).
    memo_token: NonZeroU64,
}

impl UnionFindDecoder {
    /// Creates a decoder for the given decoding graph.
    pub fn new(graph: DecodingGraph) -> Self {
        let mut arcs = Vec::new();
        for v in 0..graph.num_nodes() as u32 {
            let start = arcs.len();
            arcs.extend(graph.incident(v).iter().map(|&(edge, other)| Arc {
                edge,
                other,
                length: ((2.0 * graph.weights()[edge as usize]).round() as u32).clamp(1, 100),
            }));
            // Shortest first: a scan finds its minimum early, and the rest
            // of the row seldom takes the branches that move it.
            arcs[start..].sort_by_key(|arc| arc.length);
        }
        UnionFindDecoder {
            graph,
            arcs,
            memo_token: next_memo_token(),
        }
    }

    /// The incidence row of node `v`, shortest edge first.
    fn row(&self, v: u32) -> &[Arc] {
        &self.arcs[self.graph.row(v)]
    }

    /// Growth phase: grow active clusters until all are neutral. Every
    /// fully grown edge is recorded in the grown adjacency.
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
            // Merges leave absorbed and neutral roots behind.
            let (nodes, clusters) = (&s.nodes, &mut s.clusters);
            s.active.retain(|&r| {
                let cluster = &mut clusters[r as usize];
                cluster.listed = nodes[r as usize].root == r && cluster.grows();
                cluster.listed
            });
            if s.active.is_empty() {
                break;
            }
            // Pass 1: scan each active cluster's frontier nodes for the
            // number of unit rounds until the first edge completes, and the
            // edges that complete then. An edge's support is the sum of its
            // endpoints' radii, and it gains one unit per round from each
            // growing cluster it leaves (at most two: an edge outside a
            // cluster has at most one endpoint in it). The first sight of an
            // edge in a round stamps it; a second sight means both its
            // clusters grow it, and corrects the need the first sight took.
            let round = s.next_round();
            let mut rounds = u32::MAX;
            s.merges.clear();
            for &root in &s.active {
                let mut prev = NONE;
                let mut v = s.clusters[root as usize].frontier_first;
                while v != NONE {
                    let Node {
                        radius,
                        next_frontier: next,
                        ..
                    } = s.nodes[v as usize];
                    let mut live = false;
                    for &Arc {
                        edge,
                        other,
                        length,
                    } in self.row(v)
                    {
                        let far = &s.nodes[other as usize];
                        if far.root == root {
                            continue;
                        }
                        live = true;
                        // Every completed edge is internal, so this is > 0.
                        let gap = length - radius - far.radius;
                        let state = &mut s.edges[edge as usize];
                        let second = state.round == round;
                        state.round = round;
                        let need = if second { gap.div_ceil(2) } else { gap };
                        // At a second sight the edge is already listed iff
                        // its first need is still the minimum.
                        let listed = second && gap == rounds;
                        if need < rounds {
                            rounds = need;
                            s.merges.clear();
                            s.merges.push(edge);
                        } else if need == rounds && !listed {
                            s.merges.push(edge);
                        }
                    }
                    if live {
                        prev = v;
                    } else {
                        // Internal edges stay so: drop the node.
                        let cluster = &mut s.clusters[root as usize];
                        if prev == NONE {
                            cluster.frontier_first = next;
                        } else {
                            s.nodes[prev as usize].next_frontier = next;
                        }
                        if next == NONE {
                            cluster.frontier_last = prev;
                        }
                    }
                    v = next;
                }
            }
            if s.merges.is_empty() {
                // No edge can grow: remaining defects are unmatchable
                // (disconnected detectors). Give up on them.
                break;
            }
            // Pass 2: fast-forward by that many rounds. A frontier node's
            // incident edges all gain the same from its side, so only the
            // node's radius moves.
            for &root in &s.active {
                let mut v = s.clusters[root as usize].frontier_first;
                while v != NONE {
                    let node = &mut s.nodes[v as usize];
                    node.radius += rounds;
                    v = node.next_frontier;
                }
            }
            // Canonical merge order regardless of scan order.
            s.merges.sort_unstable();
            for index in 0..s.merges.len() {
                let edge = s.merges[index];
                let (a, b) = self.graph.endpoints()[edge as usize];
                // Record the grown edge in the peeling adjacency (cycle
                // edges included: they are valid non-tree edges).
                s.link_grown(a, edge, b);
                s.link_grown(b, edge, a);
                let (ra, rb) = (s.nodes[a as usize].root, s.nodes[b as usize].root);
                if ra != rb {
                    s.seed(a);
                    s.seed(b);
                    s.union(ra, rb);
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
        let boundary = self.graph.num_detectors() as u32;
        let mut flips = 0u64;
        for index in 0..s.touched_nodes.len() {
            // Each cluster of two or more nodes is one connected component
            // of the grown subgraph; every member is a grown edge's endpoint.
            let root = s.touched_nodes[index];
            let cluster = s.clusters[root as usize];
            if s.nodes[root as usize].root != root || cluster.size < 2 {
                continue;
            }
            // Breadth-first from the boundary (so it can absorb defects),
            // else from the smallest member; `order` is the queue of
            // `(node, tree edge, tree parent)`, and stays the visiting
            // order afterwards.
            let start = if cluster.boundary {
                boundary
            } else {
                cluster.min
            };
            s.order.clear();
            s.order.push((start, NONE, NONE));
            s.nodes[start as usize].visited = true;
            let mut head = 0;
            while head < s.order.len() {
                let parent = s.order[head].0;
                let mut entry = s.nodes[parent as usize].grown_first;
                head += 1;
                while entry != NONE {
                    let GrownEntry { edge, other, next } = s.grown[entry as usize];
                    let node = &mut s.nodes[other as usize];
                    if !node.visited {
                        node.visited = true;
                        s.order.push((other, edge, parent));
                    }
                    entry = next;
                }
            }
            // Peel leaves-first (reverse BFS order), skipping the root. Any
            // defect absorbed by the boundary is fine; the boundary's defect
            // flag is ignored.
            for &(v, edge, parent) in s.order[1..].iter().rev() {
                if s.nodes[v as usize].defect {
                    flips ^= self.graph.masks()[edge as usize];
                    s.nodes[parent as usize].defect ^= true;
                }
            }
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
        s.begin(self.graph.num_nodes(), self.graph.num_edges());
        // The boundary is seeded without a frontier: a cluster that touches
        // it never grows again.
        let boundary = self.graph.num_detectors();
        s.nodes[boundary].seeded = true;
        s.clusters[boundary].boundary = true;
        s.touched_nodes.push(boundary as u32);
        for &d in fired_detectors {
            s.nodes[d].defect = true;
            s.seed(d as u32);
            let cluster = &mut s.clusters[d];
            cluster.parity = true;
            if !cluster.listed {
                cluster.listed = true;
                s.active.push(d as u32);
            }
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

/// One incidence entry: an edge, its opposite endpoint and its length.
#[derive(Debug, Clone, Copy)]
struct Arc {
    edge: u32,
    other: u32,
    length: u32,
}

/// Per-node state: cluster membership, list links and peeling state.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Root of this node's cluster; a root (and every unseeded node) is
    /// its own.
    root: u32,
    /// Growth units this node's clusters have applied to each of its
    /// edges; an edge is grown once its endpoints' radii sum to its length.
    radius: u32,
    /// Next member of the same cluster.
    next_member: u32,
    /// Next node of the same cluster's frontier list.
    next_frontier: u32,
    /// First and last of this node's entries in the grown arena.
    grown_first: u32,
    grown_last: u32,
    /// Whether this node carries a defect (moved towards the roots while
    /// peeling).
    defect: bool,
    /// Whether this node has joined a cluster's frontier; every node a
    /// shot writes is seeded, so this also marks it touched.
    seeded: bool,
    /// Whether the peeling search has reached this node.
    visited: bool,
}

impl Node {
    fn fresh(index: u32) -> Self {
        Node {
            root: index,
            radius: 0,
            next_member: NONE,
            next_frontier: NONE,
            grown_first: NONE,
            grown_last: NONE,
            defect: false,
            seeded: false,
            visited: false,
        }
    }
}

/// State of the cluster rooted at a node (meaningful at roots only).
#[derive(Debug, Clone, Copy)]
struct Cluster {
    /// Number of members; the member list starts at the root.
    size: u32,
    /// Smallest member index: the peeling root when the boundary is not a
    /// member.
    min: u32,
    /// Ends of the frontier list ([`NONE`] when empty).
    frontier_first: u32,
    frontier_last: u32,
    /// Defect parity.
    parity: bool,
    /// Whether the virtual boundary is a member.
    boundary: bool,
    /// Whether the root is in the active list.
    listed: bool,
}

impl Cluster {
    fn fresh(index: u32) -> Self {
        Cluster {
            size: 1,
            min: index,
            frontier_first: NONE,
            frontier_last: NONE,
            parity: false,
            boundary: false,
            listed: false,
        }
    }

    /// Whether the cluster is still growing: odd and off the boundary.
    fn grows(&self) -> bool {
        self.parity && !self.boundary
    }
}

/// Growth state of one edge.
#[derive(Debug, Clone, Copy, Default)]
struct EdgeState {
    /// The last growth round that saw the edge.
    round: u32,
}

/// One entry of a node's grown adjacency.
#[derive(Debug, Clone, Copy)]
struct GrownEntry {
    edge: u32,
    /// The edge's opposite endpoint.
    other: u32,
    /// Next entry of the same node.
    next: u32,
}

/// Per-shot working state of the union-find decoder. Every shot starts from
/// fresh node slots, whichever decoder used the scratch last:
/// [`UnionFindScratch::begin`] resets the slots the previous shot listed.
#[derive(Debug, Clone, Default)]
pub(crate) struct UnionFindScratch {
    nodes: Vec<Node>,
    /// Per-root cluster state, indexed like `nodes`.
    clusters: Vec<Cluster>,
    edges: Vec<EdgeState>,
    /// The grown adjacency of every node, in completion order, so peeling
    /// never scans the full decoding graph.
    grown: Vec<GrownEntry>,
    /// Nodes this shot wrote, reset by the next shot.
    touched_nodes: Vec<u32>,
    /// Growth-round counter, running across shots (stamps
    /// [`EdgeState::round`]).
    round: u32,
    /// Roots of the growing clusters, each at most once.
    active: Vec<u32>,
    /// Edges completed this round, sorted before merging so the merge order
    /// is canonical.
    merges: Vec<u32>,
    /// Peeling visiting order of one cluster (the breadth-first queue).
    order: Vec<(u32, u32, u32)>,
}

impl UnionFindScratch {
    /// Resets what the previous shot touched and prepares for one shot over
    /// `nodes` vertices and `edges` edges.
    fn begin(&mut self, nodes: usize, edges: usize) {
        for &v in &self.touched_nodes {
            self.nodes[v as usize] = Node::fresh(v);
            self.clusters[v as usize] = Cluster::fresh(v);
        }
        self.touched_nodes.clear();
        if self.nodes.len() < nodes {
            let start = self.nodes.len() as u32;
            self.nodes.extend((start..nodes as u32).map(Node::fresh));
            self.clusters
                .extend((start..nodes as u32).map(Cluster::fresh));
        }
        if self.edges.len() < edges {
            self.edges.resize(edges, EdgeState::default());
        }
        self.grown.clear();
        self.active.clear();
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

    /// Marks `node` touched and, the first time, makes it its cluster's
    /// frontier. An unseeded node is always a singleton cluster.
    fn seed(&mut self, node: u32) {
        let state = &mut self.nodes[node as usize];
        if state.seeded {
            return;
        }
        state.seeded = true;
        self.touched_nodes.push(node);
        let cluster = &mut self.clusters[node as usize];
        cluster.frontier_first = node;
        cluster.frontier_last = node;
    }

    /// Appends `(edge, other)` to `node`'s grown adjacency.
    fn link_grown(&mut self, node: u32, edge: u32, other: u32) {
        let entry = self.grown.len() as u32;
        self.grown.push(GrownEntry {
            edge,
            other,
            next: NONE,
        });
        let node = &mut self.nodes[node as usize];
        match node.grown_last {
            NONE => node.grown_first = entry,
            last => self.grown[last as usize].next = entry,
        }
        node.grown_last = entry;
    }

    /// Unions the clusters rooted at `ra != rb`: the smaller one's members
    /// are relabelled to the larger one's root (ties to `ra`), and both
    /// lists are spliced. A root that now grows joins the active list.
    fn union(&mut self, ra: u32, rb: u32) {
        let (root, absorbed) = if self.clusters[ra as usize].size >= self.clusters[rb as usize].size
        {
            (ra, rb)
        } else {
            (rb, ra)
        };
        // Relabel the absorbed members, then splice them in after the root.
        let mut last = absorbed;
        loop {
            self.nodes[last as usize].root = root;
            match self.nodes[last as usize].next_member {
                NONE => break,
                next => last = next,
            }
        }
        self.nodes[last as usize].next_member =
            std::mem::replace(&mut self.nodes[root as usize].next_member, absorbed);
        let small = self.clusters[absorbed as usize];
        if small.frontier_first != NONE {
            match self.clusters[root as usize].frontier_last {
                NONE => self.clusters[root as usize].frontier_first = small.frontier_first,
                tail => self.nodes[tail as usize].next_frontier = small.frontier_first,
            }
            self.clusters[root as usize].frontier_last = small.frontier_last;
        }
        let cluster = &mut self.clusters[root as usize];
        cluster.size += small.size;
        cluster.min = cluster.min.min(small.min);
        cluster.parity ^= small.parity;
        cluster.boundary |= small.boundary;
        if cluster.grows() && !cluster.listed {
            cluster.listed = true;
            self.active.push(root);
        }
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
