//! Exact minimum-weight matching decoder.
//!
//! The paper's logical error rates are produced with Stim plus a
//! minimum-weight perfect-matching (MWPM) decoder; this repository's default
//! decoder is weighted union-find, which has the same threshold behaviour
//! but is slightly pessimistic: it grows clusters in discretised
//! half-weight units and peels a spanning forest instead of minimising the
//! total matching weight, so its correction can be heavier than MWPM's and
//! its logical error rate somewhat higher at equal physical error rate (the
//! `ext_decoder_comparison` artefact measures the gap). This module adds an
//! **exact** matching decoder used as an accuracy reference and as an
//! ablation point:
//!
//! * the defects of one shot are matched to each other or to the virtual
//!   boundary with *exactly* minimum total weight, where pairwise weights
//!   are shortest-path distances in the decoding graph;
//! * the exact matching is found by dynamic programming over defect subsets,
//!   which is exponential in the number of defects of the shot — fine for
//!   the below-threshold regime the architectural study cares about, where
//!   shots contain only a handful of defects;
//! * shots with more defects than [`ExactMatchingDecoder::max_exact_defects`],
//!   and shots the DP finds no finite matching for, are decoded by
//!   union-find, so the decoder never blows up on pathological
//!   above-threshold shots and predicts exactly what union-find does there.
//!
//! So "exact" means exact only up to [`DEFAULT_MAX_EXACT_DEFECTS`] defects a
//! shot: a blossom implementation would be exact on every shot. The
//! Dijkstra states, cost matrices and subset-DP tables all live in the
//! shared [`DecodeScratch`], so batched decoding reuses them across shots,
//! and the searches run over epoch-stamped distance arrays, so they never
//! pay an O(nodes) reset. The searches and path walks read the graph's own
//! incidence, endpoint and observable-mask tables (see [`DecodingGraph`]),
//! the same tables union-find reads.

use std::collections::BinaryHeap;
use std::num::NonZeroU64;

use crate::batch::{DijkstraState, HeapEntry, MatchingScratch};
use crate::memo::next_memo_token;
use crate::{DecodeScratch, Decoder, DecodingGraph, UnionFindDecoder};

/// Default cap on the number of defects decoded exactly per shot.
pub const DEFAULT_MAX_EXACT_DEFECTS: usize = 14;

/// Exact minimum-weight matching decoder with a union-find fallback for
/// high-defect and infeasible shots: exact up to
/// [`DEFAULT_MAX_EXACT_DEFECTS`] defects a shot (see
/// [`ExactMatchingDecoder::with_max_exact_defects`]).
#[derive(Debug, Clone)]
pub struct ExactMatchingDecoder {
    /// The fallback; it also owns the decoding graph.
    union_find: UnionFindDecoder,
    max_exact_defects: usize,
    /// Syndrome-memo ownership token (see [`crate::memo`]).
    memo_token: NonZeroU64,
}

/// Dijkstra from `source`, writing per-node distances and incoming edges
/// into `state`. Node index `graph.num_detectors()` is the virtual boundary.
fn shortest_paths(
    graph: &DecodingGraph,
    source: usize,
    state: &mut DijkstraState,
    heap: &mut BinaryHeap<HeapEntry>,
) {
    let n = graph.num_nodes();
    state.dist.begin(n);
    state.via.begin(n);
    heap.clear();
    state.dist.set(source, 0.0);
    heap.push(HeapEntry {
        distance: 0.0,
        node: source,
    });
    while let Some(HeapEntry { distance, node }) = heap.pop() {
        if distance > state.dist.get(node) {
            continue;
        }
        for &(edge, next) in graph.incident(node as u32) {
            let next = next as usize;
            let candidate = distance + graph.edges()[edge as usize].weight.max(1e-9);
            if candidate < state.dist.get(next) {
                state.dist.set(next, candidate);
                state.via.set(next, edge);
                heap.push(HeapEntry {
                    distance: candidate,
                    node: next,
                });
            }
        }
    }
}

/// The XOR of the observable masks along the shortest path (described by
/// `via`, rooted at `source`) from `target` back to `source`.
fn path_observables(
    graph: &DecodingGraph,
    state: &DijkstraState,
    source: usize,
    mut target: usize,
) -> u64 {
    let mut flips = 0;
    while target != source {
        let edge = state.via.get(target);
        assert_ne!(edge, u32::MAX, "path must exist");
        flips ^= graph.masks[edge as usize];
        let (a, b) = graph.endpoints[edge as usize];
        target = if a as usize == target { b } else { a } as usize;
    }
    flips
}

impl ExactMatchingDecoder {
    /// Creates a decoder for the given decoding graph.
    pub fn new(graph: DecodingGraph) -> Self {
        ExactMatchingDecoder {
            union_find: UnionFindDecoder::new(graph),
            max_exact_defects: DEFAULT_MAX_EXACT_DEFECTS,
            memo_token: next_memo_token(),
        }
    }

    /// Overrides the exact-matching defect cap (shots with more defects use
    /// the union-find fallback). A fresh memo token is drawn because the cap
    /// changes decoding behaviour — predictions cached for the previous cap
    /// must never be served for this one.
    pub fn with_max_exact_defects(mut self, max_exact_defects: usize) -> Self {
        self.max_exact_defects = max_exact_defects;
        self.memo_token = next_memo_token();
        self
    }

    fn graph(&self) -> &DecodingGraph {
        self.union_find.graph()
    }

    /// Runs one Dijkstra per defect into the scratch slots
    /// (`s.dijkstras[i]` rooted at `defects[i]`).
    fn run_searches(&self, defects: &[usize], s: &mut MatchingScratch) {
        s.ensure_defect_slots(defects.len());
        let mut heap = std::mem::take(&mut s.heap);
        for (i, &d) in defects.iter().enumerate() {
            shortest_paths(self.graph(), d, &mut s.dijkstras[i], &mut heap);
        }
        s.heap = heap;
    }

    /// Subset DP over the defects whose Dijkstra states are already in the
    /// scratch. On success the minimum total weight is returned and the
    /// matching is left in `s.pairs` as `(i, j)` index pairs (`u32::MAX` =
    /// boundary).
    #[allow(clippy::needless_range_loop)]
    fn solve(&self, defects: &[usize], s: &mut MatchingScratch) -> Option<f64> {
        let n = defects.len();
        let boundary = self.graph().num_detectors();

        // Pairwise and boundary costs.
        s.boundary_cost.clear();
        s.pair_cost.clear();
        s.pair_cost.resize(n * n, f64::INFINITY);
        for i in 0..n {
            let dist = &s.dijkstras[i].dist;
            s.boundary_cost.push(dist.get(boundary));
            for j in 0..n {
                if i != j {
                    s.pair_cost[i * n + j] = dist.get(defects[j]);
                }
            }
        }

        // DP over subsets: dp[mask] = min cost of matching the defects in
        // `mask`, where each defect pairs with another defect or with the
        // boundary.
        let full = (1usize << n) - 1;
        s.dp.clear();
        s.dp.resize(full + 1, f64::INFINITY);
        s.choice.clear();
        s.choice.resize(full + 1, (u32::MAX, u32::MAX));
        s.dp[0] = 0.0;
        for mask in 1..=full {
            let i = mask.trailing_zeros() as usize;
            let without_i = mask & !(1 << i);
            // Option 1: match defect i to the boundary.
            if s.boundary_cost[i].is_finite() && s.dp[without_i].is_finite() {
                let cost = s.dp[without_i] + s.boundary_cost[i];
                if cost < s.dp[mask] {
                    s.dp[mask] = cost;
                    s.choice[mask] = (i as u32, u32::MAX);
                }
            }
            // Option 2: pair defect i with another defect j in the mask.
            let mut rest = without_i;
            while rest != 0 {
                let j = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let pair = s.pair_cost[i * n + j];
                if !pair.is_finite() {
                    continue;
                }
                let prev = mask & !(1 << i) & !(1 << j);
                if s.dp[prev].is_finite() {
                    let cost = s.dp[prev] + pair;
                    if cost < s.dp[mask] {
                        s.dp[mask] = cost;
                        s.choice[mask] = (i as u32, j as u32);
                    }
                }
            }
        }
        if !s.dp[full].is_finite() {
            return None;
        }

        // Reconstruct the matching.
        s.pairs.clear();
        let mut mask = full;
        while mask != 0 {
            let (i, partner) = s.choice[mask];
            debug_assert_ne!(i, u32::MAX, "finite dp entries have a recorded choice");
            s.pairs.push((i, partner));
            mask &= !(1 << i);
            if partner != u32::MAX {
                mask &= !(1 << partner);
            }
        }
        Some(s.dp[full])
    }

    /// Returns the minimum total matching weight of the given defect set, or
    /// `None` when no finite matching exists or the shot exceeds the exact
    /// cap. Exposed for tests and decoder-comparison diagnostics.
    pub fn matching_weight(&self, fired_detectors: &[usize]) -> Option<f64> {
        if fired_detectors.is_empty() {
            return Some(0.0);
        }
        if fired_detectors.len() > self.max_exact_defects {
            return None;
        }
        let mut scratch = DecodeScratch::new();
        self.run_searches(fired_detectors, &mut scratch.matching);
        self.solve(fired_detectors, &mut scratch.matching)
    }

    /// Shortest-path distance from one defect to the boundary (used by
    /// tests).
    #[cfg(test)]
    pub(crate) fn distance_to_boundary(&self, source: usize) -> f64 {
        let mut scratch = DecodeScratch::new();
        let s = &mut scratch.matching;
        self.run_searches(&[source], s);
        s.dijkstras[0].dist.get(self.graph().num_detectors())
    }
}

impl Decoder for ExactMatchingDecoder {
    fn decode_shot(&self, fired_detectors: &[usize], scratch: &mut DecodeScratch) -> u64 {
        if fired_detectors.is_empty() || self.graph().is_empty() {
            return 0;
        }
        if fired_detectors.len() > self.max_exact_defects {
            return self.union_find.decode_shot(fired_detectors, scratch);
        }
        let s = &mut scratch.matching;
        self.run_searches(fired_detectors, s);
        if self.solve(fired_detectors, s).is_none() {
            // No finite matching: union-find decides the shot.
            return self.union_find.decode_shot(fired_detectors, scratch);
        }
        let mut flips = 0;
        for &(i, partner) in &s.pairs {
            let i = i as usize;
            let target = if partner == u32::MAX {
                self.graph().num_detectors()
            } else {
                fired_detectors[partner as usize]
            };
            flips ^= path_observables(self.graph(), &s.dijkstras[i], fired_detectors[i], target);
        }
        flips
    }

    fn num_observables(&self) -> usize {
        self.graph().num_observables()
    }

    fn memo_token(&self) -> Option<NonZeroU64> {
        Some(self.memo_token)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_sim::{DemError, DetectorErrorModel};

    /// A 1-D repetition-code-like chain of `n` detectors with boundary edges
    /// at both ends; every edge flips observable 0 iff `flag` is set.
    fn chain_dem(n: usize, p: f64) -> DetectorErrorModel {
        let mut errors = Vec::new();
        // Left boundary edge flips the observable (it crosses the logical).
        errors.push(DemError {
            probability: p,
            detectors: vec![0],
            observables: vec![0],
        });
        for i in 0..n - 1 {
            errors.push(DemError {
                probability: p,
                detectors: vec![i as u32, i as u32 + 1],
                observables: vec![],
            });
        }
        errors.push(DemError {
            probability: p,
            detectors: vec![n as u32 - 1],
            observables: vec![],
        });
        DetectorErrorModel {
            num_detectors: n,
            num_observables: 1,
            errors,
        }
    }

    fn decoder(n: usize, p: f64) -> ExactMatchingDecoder {
        ExactMatchingDecoder::new(DecodingGraph::from_dem(&chain_dem(n, p)))
    }

    #[test]
    fn empty_syndrome_predicts_no_flip() {
        let dec = decoder(5, 0.01);
        assert_eq!(dec.decode(&[]), vec![false]);
        assert_eq!(dec.matching_weight(&[]), Some(0.0));
    }

    #[test]
    fn single_defect_matches_to_the_nearest_boundary() {
        let dec = decoder(7, 0.01);
        // A defect next to the left boundary: the cheapest correction goes
        // through the left boundary edge, which flips the observable.
        assert_eq!(dec.decode(&[0]), vec![true]);
        // A defect next to the right boundary: corrected without a flip.
        assert_eq!(dec.decode(&[6]), vec![false]);
    }

    #[test]
    fn adjacent_defect_pair_matches_internally() {
        let dec = decoder(7, 0.01);
        // Two adjacent defects in the bulk: one internal edge explains both,
        // no logical flip.
        assert_eq!(dec.decode(&[3, 4]), vec![false]);
        let w = dec.matching_weight(&[3, 4]).unwrap();
        let single_edge_weight = ((1.0_f64 - 0.01) / 0.01).ln();
        assert!((w - single_edge_weight).abs() < 1e-6);
    }

    #[test]
    fn exact_matching_never_costs_more_than_all_boundary() {
        // Pairing defects one by one can be trapped by a locally-cheap
        // choice; the exact decoder must never produce a heavier matching
        // than any feasible one. Compare on 4-defect subsets of a chain.
        let graph = DecodingGraph::from_dem(&chain_dem(8, 0.02));
        let exact = ExactMatchingDecoder::new(graph);
        let defect_sets = [
            vec![0, 1, 2, 3],
            vec![0, 2, 5, 7],
            vec![1, 2, 3, 6],
            vec![0, 3, 4, 7],
            vec![2, 3, 4, 5],
        ];
        for defects in defect_sets {
            let weight = exact.matching_weight(&defects).unwrap();
            // Reference: the all-boundary matching is one feasible solution,
            // so the optimum can never exceed it.
            let all_boundary: f64 = defects.iter().map(|&d| exact.distance_to_boundary(d)).sum();
            assert!(weight <= all_boundary + 1e-9, "defects {defects:?}");
        }
    }

    #[test]
    fn far_separated_defects_each_take_their_own_boundary() {
        let dec = decoder(9, 0.01);
        // Defects hugging opposite boundaries: matching them to each other
        // would cross the whole chain; the exact matching sends each to its
        // nearby boundary. Only the left boundary edge flips the observable.
        assert_eq!(dec.decode(&[0, 8]), vec![true]);
    }

    #[test]
    fn three_defects_one_uses_boundary() {
        let dec = decoder(9, 0.01);
        // 7 and 8 pair up; 0 exits through the left boundary, which flips
        // the observable.
        assert_eq!(dec.decode(&[0, 7, 8]), vec![true]);
        // 0 and 1 pair up; 8 exits through the right boundary, no flip.
        assert_eq!(dec.decode(&[0, 1, 8]), vec![false]);
    }

    #[test]
    fn agrees_with_union_find_on_simple_chains() {
        let graph = DecodingGraph::from_dem(&chain_dem(10, 0.01));
        let exact = ExactMatchingDecoder::new(graph.clone());
        let uf = UnionFindDecoder::new(graph);
        for syndrome in [
            vec![],
            vec![0],
            vec![9],
            vec![4, 5],
            vec![0, 9],
            vec![1, 2, 8],
            vec![0, 1, 2, 3],
        ] {
            assert_eq!(
                exact.decode(&syndrome),
                uf.decode(&syndrome),
                "decoders disagree on {syndrome:?}"
            );
        }
    }

    /// Asserts `dec` predicts like union-find on `defects`, fresh and
    /// through a scratch that has decoded other shots.
    fn assert_decodes_like_union_find(
        dec: &ExactMatchingDecoder,
        uf: &UnionFindDecoder,
        defects: &[usize],
        scratch: &mut DecodeScratch,
    ) {
        assert_eq!(dec.decode(defects), uf.decode(defects), "{defects:?}");
        let reused = dec.decode_shot(defects, scratch);
        assert_eq!(
            vec![reused == 1],
            uf.decode(defects),
            "{defects:?} on a reused scratch"
        );
    }

    #[test]
    fn high_defect_shots_fall_back_to_union_find() {
        let graph = DecodingGraph::from_dem(&chain_dem(12, 0.05));
        let dec = ExactMatchingDecoder::new(graph.clone()).with_max_exact_defects(3);
        let uf = UnionFindDecoder::new(graph);
        let mut scratch = DecodeScratch::new();
        for defects in [
            (0..8).collect::<Vec<usize>>(),
            vec![0, 3, 5, 11],
            vec![1, 2, 6, 7, 10],
        ] {
            assert_eq!(dec.matching_weight(&defects), None);
            assert_decodes_like_union_find(&dec, &uf, &defects, &mut scratch);
        }
    }

    #[test]
    fn shots_without_a_finite_matching_fall_back_to_union_find() {
        // Detectors 3 and 4 form a component with no boundary edge, so a
        // lone defect there has nothing finite to match.
        let mut dem = chain_dem(3, 0.01);
        dem.num_detectors = 5;
        dem.errors.push(DemError {
            probability: 0.01,
            detectors: vec![3, 4],
            observables: vec![0],
        });
        let graph = DecodingGraph::from_dem(&dem);
        let dec = ExactMatchingDecoder::new(graph.clone());
        let uf = UnionFindDecoder::new(graph);
        let mut scratch = DecodeScratch::new();
        for defects in [vec![4], vec![0, 3], vec![1, 2, 4]] {
            assert_eq!(dec.matching_weight(&defects), None, "{defects:?}");
            assert_decodes_like_union_find(&dec, &uf, &defects, &mut scratch);
        }
        // The feasible shots of the same graph are still matched exactly.
        assert!(dec.matching_weight(&[0, 3, 4]).is_some());
    }

    #[test]
    fn num_observables_is_preserved() {
        let dec = decoder(4, 0.01);
        assert_eq!(dec.num_observables(), 1);
    }

    #[test]
    fn scratch_reuse_matches_fresh_decoding() {
        let dec = decoder(9, 0.02);
        let mut scratch = DecodeScratch::new();
        for syndrome in [
            vec![0usize],
            vec![8],
            vec![3, 4],
            vec![0, 4, 8],
            vec![1, 2, 6, 7],
        ] {
            let reused = dec.decode_shot(&syndrome, &mut scratch);
            assert_eq!(
                vec![reused == 1],
                dec.decode(&syndrome),
                "syndrome {syndrome:?}"
            );
        }
    }
}
