//! Property-based tests for the decoders.
//!
//! Random repetition-code-like decoding graphs exercise both decoders
//! (union-find, exact matching) on arbitrary syndromes and check the
//! invariants any matching decoder must satisfy, plus exact matching
//! against walks along the chain.

use proptest::prelude::*;

use qccd_decoder::{Decoder, DecodingGraph, ExactMatchingDecoder, UnionFindDecoder};
use qccd_sim::{DemError, DetectorErrorModel};

/// A chain decoding graph: `n` detectors in a line, boundary edges at both
/// ends, with per-edge probabilities drawn from the strategy. The left
/// boundary edge crosses the logical observable.
fn chain_dem(probabilities: &[f64]) -> DetectorErrorModel {
    let n = probabilities.len() - 1;
    let mut errors = Vec::new();
    errors.push(DemError {
        probability: probabilities[0],
        detectors: vec![0],
        observables: vec![0],
    });
    for i in 0..n - 1 {
        errors.push(DemError {
            probability: probabilities[i + 1],
            detectors: vec![i as u32, i as u32 + 1],
            observables: vec![],
        });
    }
    errors.push(DemError {
        probability: probabilities[n],
        detectors: vec![n as u32 - 1],
        observables: vec![],
    });
    DetectorErrorModel {
        num_detectors: n,
        num_observables: 1,
        errors,
    }
}

/// The chain's edge weights, left boundary edge first, as the decoding
/// graph computes them.
fn edge_weights(probabilities: &[f64]) -> Vec<f64> {
    probabilities
        .iter()
        .map(|&p| {
            ((1.0 - p.clamp(1e-12, 0.5)) / p.clamp(1e-12, 0.5))
                .ln()
                .max(0.0)
        })
        .collect()
}

/// Strategy: edge probabilities for a chain of 3–10 detectors.
fn chain_probabilities() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.001f64..0.3, 4..12)
}

/// Strategy: a subset of defects for a chain with `n` detectors.
fn defect_subset(n: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..n, 0..n.min(8)).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn empty_syndromes_predict_no_flip(probabilities in chain_probabilities()) {
        let dem = chain_dem(&probabilities);
        let graph = DecodingGraph::from_dem(&dem);
        let decoders: Vec<Box<dyn Decoder>> = vec![
            Box::new(UnionFindDecoder::new(graph.clone())),
            Box::new(ExactMatchingDecoder::new(graph)),
        ];
        for decoder in &decoders {
            prop_assert_eq!(decoder.decode(&[]), vec![false]);
        }
    }

    #[test]
    fn predictions_have_one_entry_per_observable(probabilities in chain_probabilities()) {
        let dem = chain_dem(&probabilities);
        let n = dem.num_detectors;
        let graph = DecodingGraph::from_dem(&dem);
        let decoders: Vec<Box<dyn Decoder>> = vec![
            Box::new(UnionFindDecoder::new(graph.clone())),
            Box::new(ExactMatchingDecoder::new(graph)),
        ];
        // Exhaustively small syndromes on this chain.
        for defect in 0..n {
            for decoder in &decoders {
                prop_assert_eq!(decoder.decode(&[defect]).len(), 1);
                prop_assert_eq!(decoder.num_observables(), 1);
            }
        }
    }

    #[test]
    fn exact_matches_single_defects_to_the_cheaper_side(probabilities in chain_probabilities()) {
        // With one defect the matching is the cheaper of the two walks to a
        // boundary, and only the left one crosses the logical observable.
        let dem = chain_dem(&probabilities);
        let n = dem.num_detectors;
        let weights = edge_weights(&probabilities);
        let exact = ExactMatchingDecoder::new(DecodingGraph::from_dem(&dem));
        for defect in 0..n {
            let left: f64 = weights[..=defect].iter().sum();
            let right: f64 = weights[defect + 1..].iter().sum();
            // Near-ties may go either way under rounding.
            if (left - right).abs() > 1e-6 {
                prop_assert_eq!(exact.decode(&[defect]), vec![left < right], "defect {}", defect);
            }
        }
    }

    #[test]
    fn exact_matching_weight_is_bounded_by_the_all_boundary_solution(
        probabilities in chain_probabilities(),
        defects in defect_subset(3),
    ) {
        // Cheap but universal optimality bound: matching everything to the
        // boundary is one feasible solution, so the optimum can never exceed
        // it. (Defect indices are clamped to the chain length.)
        let dem = chain_dem(&probabilities);
        let n = dem.num_detectors;
        let defects: Vec<usize> = defects.into_iter().map(|d| d % n).collect();
        let mut defects = defects;
        defects.sort_unstable();
        defects.dedup();
        let graph = DecodingGraph::from_dem(&dem);
        let exact = ExactMatchingDecoder::new(graph.clone());
        let Some(weight) = exact.matching_weight(&defects) else {
            return Ok(());
        };

        // All-boundary cost: for each defect, its cheapest boundary edge
        // reached by walking left or right along the chain.
        let weights = edge_weights(&probabilities);
        let mut all_boundary = 0.0;
        for &d in &defects {
            let left: f64 = weights[..=d].iter().sum();
            let right: f64 = weights[d + 1..].iter().sum();
            all_boundary += left.min(right);
        }
        prop_assert!(
            weight <= all_boundary + 1e-6,
            "exact weight {weight} exceeds all-boundary bound {all_boundary}"
        );
    }

    #[test]
    fn decoders_are_deterministic(
        probabilities in chain_probabilities(),
        defects in defect_subset(3),
    ) {
        let dem = chain_dem(&probabilities);
        let n = dem.num_detectors;
        let mut defects: Vec<usize> = defects.into_iter().map(|d| d % n).collect();
        defects.sort_unstable();
        defects.dedup();
        let graph = DecodingGraph::from_dem(&dem);
        let uf = UnionFindDecoder::new(graph.clone());
        let exact = ExactMatchingDecoder::new(graph);
        prop_assert_eq!(uf.decode(&defects), uf.decode(&defects));
        prop_assert_eq!(exact.decode(&defects), exact.decode(&defects));
    }

    #[test]
    fn adjacent_defect_pairs_never_cross_the_logical(
        probabilities in chain_probabilities(),
        start in 0usize..6,
    ) {
        // Two adjacent defects in the bulk are explained by the single edge
        // between them, which never crosses the logical observable in this
        // graph family. All decoders must agree on "no flip" whenever the
        // internal edge is at least as cheap as the two boundary paths.
        let dem = chain_dem(&probabilities);
        let n = dem.num_detectors;
        if n < 4 {
            return Ok(());
        }
        let a = start % (n - 1);
        let b = a + 1;
        // Only assert for bulk pairs, where the internal edge is obviously
        // the cheapest explanation.
        if a == 0 || b == n - 1 {
            return Ok(());
        }
        let graph = DecodingGraph::from_dem(&dem);
        let exact = ExactMatchingDecoder::new(graph);
        let weights = edge_weights(&probabilities);
        let internal = weights[a + 1];
        let left_boundary: f64 = weights[..=a].iter().sum();
        let right_boundary: f64 = weights[b + 1..].iter().sum();
        if internal < left_boundary + right_boundary {
            prop_assert_eq!(exact.decode(&[a, b]), vec![false]);
        }
    }
}
