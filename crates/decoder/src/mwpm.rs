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
//! ablation point. It is exact on every shot, whatever its defect count:
//!
//! * a defect's *row* holds every node's shortest-path distance from it, so
//!   it gives the defect's distance `b_i` to the virtual boundary and `d_ij`
//!   to the other defects of the shot. A row is one full Dijkstra, run the
//!   first time a defect lands on its node and kept by the decoder, so a
//!   shot on nodes seen before runs no search at all;
//! * the defects are matched on the boundary-twin graph: defect `i` gets a
//!   twin `i'`, `(i, i')` costs `b_i`, `(i, j)` costs `d_ij`, and the twins
//!   `i'` and `j'` of a pair join at zero. A minimum-cost perfect matching
//!   of that graph is a minimum-weight matching of the defects to each
//!   other or to the boundary, and Edmonds' blossom algorithm
//!   (`blossom.rs`, dense, O(n³) in the defect count) finds it. A pair is
//!   an edge only where `d_ij < b_i + b_j`: a matching that uses a longer
//!   pair costs no less with both sent to the boundary;
//! * a defect with no path to the boundary joins its twin at a penalty one
//!   more than the sum of every finite cost of the shot, which is more
//!   than any matching along paths costs, and a pair with no path is no
//!   edge. So every shot has a perfect matching (each defect with its
//!   twin), the blossom leaves as few defects at the penalty as it can and
//!   matches the rest at minimum weight, and a defect matched at the
//!   penalty flips nothing. The penalty comes from the shot's own weights;
//!   nothing falls back to another decoder;
//! * a row keeps, beside a node's distance, the XOR of the observable masks
//!   along its shortest path, so the prediction is the XOR of the matched
//!   targets' masks.
//!
//! A row is a pure function of the graph and its source, so the rows live
//! in the decoder rather than in a [`DecodeScratch`]: threads that share a
//! decoder may race to fill a row without changing a bit, and each row is
//! searched once per decoder, not once per worker. The blossom's arrays
//! live in the shared scratch, so batched decoding reuses them across
//! shots. The searches read the graph's own incidence, weight and
//! observable-mask tables (see [`DecodingGraph`]), the tables union-find
//! reads.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use std::num::NonZeroU64;
use std::sync::OnceLock;

use crate::blossom::Blossom;
use crate::memo::next_memo_token;
use crate::{DecodeScratch, Decoder, DecodingGraph};

/// Every node's `(distance, path mask)` from one source node.
type Row = Box<[(f64, u64)]>;

/// Exact minimum-weight matching decoder: a blossom on the boundary-twin
/// graph of each shot's defects, with shortest paths read from per-node
/// rows.
///
/// A filled row takes 16 bytes per node, and only the nodes a defect has
/// landed on have one, so the rows of an `n`-node graph take at most
/// 16·n² bytes: 0.6 MB at grid d = 7 (193 nodes), 8.3 MB at d = 11 (721
/// nodes).
#[derive(Clone)]
pub struct ExactMatchingDecoder {
    graph: DecodingGraph,
    /// Row `s` holds every node's `(distance, path mask)` from node `s`,
    /// filled by [`shortest_paths`] the first time a defect lands on `s`.
    rows: Vec<OnceLock<Row>>,
    /// Syndrome-memo ownership token (see [`crate::memo`]).
    memo_token: NonZeroU64,
}

impl fmt::Debug for ExactMatchingDecoder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The rows are derived from the graph and may hold n² entries.
        f.debug_struct("ExactMatchingDecoder")
            .field("graph", &self.graph)
            .field("memo_token", &self.memo_token)
            .finish_non_exhaustive()
    }
}

/// Min-heap entry of [`shortest_paths`].
#[derive(PartialEq)]
struct HeapEntry {
    distance: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite by construction.
        other
            .distance
            .partial_cmp(&self.distance)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One full Dijkstra from `source`: each node's `(distance, path mask)`,
/// where the mask is the XOR of the observable masks along the path that
/// distance was reached by, and `(+inf, 0)` where no path reaches it. Node
/// index `graph.num_detectors()` is the virtual boundary.
fn shortest_paths(graph: &DecodingGraph, source: usize) -> Row {
    let mut row = vec![(f64::INFINITY, 0); graph.num_nodes()].into_boxed_slice();
    let mut heap = BinaryHeap::new();
    row[source] = (0.0, 0);
    heap.push(HeapEntry {
        distance: 0.0,
        node: source,
    });
    while let Some(HeapEntry { distance, node }) = heap.pop() {
        let (best, mask) = row[node];
        if distance > best {
            continue;
        }
        for &(edge, next) in graph.incident(node as u32) {
            let next = next as usize;
            let candidate = distance + graph.weights()[edge as usize].max(1e-9);
            if candidate < row[next].0 {
                row[next] = (candidate, mask ^ graph.masks()[edge as usize]);
                heap.push(HeapEntry {
                    distance: candidate,
                    node: next,
                });
            }
        }
    }
    row
}

impl ExactMatchingDecoder {
    /// Creates a decoder for the given decoding graph.
    pub fn new(graph: DecodingGraph) -> Self {
        ExactMatchingDecoder {
            rows: (0..graph.num_nodes()).map(|_| OnceLock::new()).collect(),
            graph,
            memo_token: next_memo_token(),
        }
    }

    /// The shortest path from defect `i` to defect `j > i`, or to the
    /// boundary for `j == i`, as `(distance, path mask)` read from `i`'s row
    /// (`+inf` without a path), which is filled on first use.
    fn pair(&self, defects: &[usize], i: usize, j: usize) -> (f64, u64) {
        let source = defects[i];
        let target = if i == j {
            self.graph.num_detectors()
        } else {
            defects[j]
        };
        self.rows[source].get_or_init(|| shortest_paths(&self.graph, source))[target]
    }

    /// Solves the shot's boundary-twin matching into `blossom`: defect `i`
    /// is vertex `i` and its twin vertex `n + i`.
    fn match_defects(&self, defects: &[usize], blossom: &mut Blossom) {
        let n = defects.len();
        let cost = |i, j| self.pair(defects, i, j).0;
        let kept = |i, j| cost(i, j) < cost(i, i) + cost(j, j);
        // Above every finite matching: a defect left without a path to the
        // boundary is joined to its twin at this cost.
        let penalty = 1.0
            + (0..n)
                .flat_map(|i| (i..n).map(move |j| (i, j)))
                .filter(|&(i, j)| i == j || kept(i, j))
                .map(|(i, j)| cost(i, j))
                .filter(|c| c.is_finite())
                .sum::<f64>();
        blossom.reset(2 * n);
        for i in 0..n {
            let to_boundary = cost(i, i);
            blossom.add_edge(
                i,
                n + i,
                if to_boundary.is_finite() {
                    to_boundary
                } else {
                    penalty
                },
            );
            for j in (i + 1..n).filter(|&j| kept(i, j)) {
                blossom.add_edge(i, j, cost(i, j));
                blossom.add_edge(n + i, n + j, 0.0);
            }
        }
        blossom.solve();
    }

    /// The `(cost, path mask)` of each pair of the last
    /// [`ExactMatchingDecoder::match_defects`] on `blossom`; a match to the
    /// boundary costs `+inf` where it was made at the penalty.
    fn matched_pairs<'a>(
        &'a self,
        defects: &'a [usize],
        blossom: &'a Blossom,
    ) -> impl Iterator<Item = (f64, u64)> + 'a {
        let n = defects.len();
        (0..n).filter_map(move |i| {
            let mate = blossom
                .mate(i)
                .expect("the twin graph has a perfect matching");
            let j = if mate == n + i { i } else { mate };
            (j >= i).then(|| self.pair(defects, i, j))
        })
    }

    /// Returns the minimum total matching weight of the given defect set, or
    /// `None` when no matching pairs every defect along a path. Exposed for
    /// tests and decoder-comparison diagnostics.
    pub fn matching_weight(&self, fired_detectors: &[usize]) -> Option<f64> {
        let mut blossom = Blossom::default();
        self.match_defects(fired_detectors, &mut blossom);
        let total: f64 = self
            .matched_pairs(fired_detectors, &blossom)
            .map(|(cost, _)| cost)
            .sum();
        total.is_finite().then_some(total)
    }
}

impl Decoder for ExactMatchingDecoder {
    fn decode_shot(&self, fired_detectors: &[usize], scratch: &mut DecodeScratch) -> u64 {
        if fired_detectors.is_empty() || self.graph.is_empty() {
            return 0;
        }
        let blossom = &mut scratch.blossom;
        self.match_defects(fired_detectors, blossom);
        self.matched_pairs(fired_detectors, blossom)
            .filter(|&(cost, _)| cost.is_finite())
            .fold(0, |flips, (_, mask)| flips ^ mask)
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
    use crate::UnionFindDecoder;
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
            // A lone defect's matching weight is its distance to the boundary.
            let all_boundary: f64 = defects
                .iter()
                .map(|&d| exact.matching_weight(&[d]).unwrap())
                .sum();
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

    #[test]
    fn unreachable_pairs_cost_a_penalty_and_flip_nothing() {
        // Detectors 3 and 4 form a component with no boundary edge, so a
        // lone defect there has no path to match along.
        let mut dem = chain_dem(3, 0.01);
        dem.num_detectors = 5;
        dem.errors.push(DemError {
            probability: 0.01,
            detectors: vec![3, 4],
            observables: vec![0],
        });
        let dec = ExactMatchingDecoder::new(DecodingGraph::from_dem(&dem));
        let mut scratch = DecodeScratch::new();
        // The lone defect is matched at the penalty, which flips nothing;
        // the rest of the shot decodes as it would without it.
        for (defects, without_it) in [
            (vec![4], vec![]),
            (vec![0, 3], vec![0]),
            (vec![1, 2, 4], vec![1, 2]),
            (vec![0, 1, 2, 3], vec![0, 1, 2]),
        ] {
            assert_eq!(dec.matching_weight(&defects), None, "{defects:?}");
            let expected = dec.decode(&without_it);
            assert_eq!(dec.decode(&defects), expected, "{defects:?}");
            let reused = dec.decode_shot(&defects, &mut scratch);
            assert_eq!(
                vec![reused == 1],
                expected,
                "{defects:?} on a reused scratch"
            );
        }
        assert_eq!(dec.decode(&[0, 3]), vec![true]);
        // The pair inside the component has a path, so it is matched
        // along its edge, which flips the observable.
        assert!(dec.matching_weight(&[0, 3, 4]).is_some());
        assert_eq!(dec.decode(&[3, 4]), vec![true]);
        assert_eq!(dec.decode(&[0, 3, 4]), vec![false]);
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
        let syndromes = [
            vec![0usize],
            vec![8],
            vec![3, 4],
            vec![0, 4, 8],
            vec![1, 2, 6, 7],
        ];
        for syndrome in &syndromes {
            let reused = dec.decode_shot(syndrome, &mut scratch);
            assert_eq!(
                vec![reused == 1],
                dec.decode(syndrome),
                "syndrome {syndrome:?}"
            );
        }
        // A second decoder fills its rows in the reverse order and must
        // read the same masks and weights.
        let reversed = decoder(9, 0.02);
        for syndrome in syndromes.iter().rev() {
            assert_eq!(
                reversed.decode_shot(syndrome, &mut scratch),
                dec.decode_shot(syndrome, &mut scratch),
                "syndrome {syndrome:?}"
            );
            assert_eq!(
                reversed.matching_weight(syndrome).map(f64::to_bits),
                dec.matching_weight(syndrome).map(f64::to_bits),
                "syndrome {syndrome:?}"
            );
        }
    }
}
