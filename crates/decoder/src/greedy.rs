//! Chain cases of the retired greedy matcher, kept as regression tests.
//!
//! The greedy decoder is gone.
//! Each case it was tested on still has one right answer for every
//! matching decoder, so each now runs against both remaining decoders.
//! This module holds tests only.

#[cfg(test)]
mod tests {
    use crate::{DecodeScratch, Decoder, DecodingGraph, ExactMatchingDecoder, UnionFindDecoder};
    use qccd_sim::{DemError, DetectorErrorModel};

    fn err(p: f64, detectors: Vec<u32>, observables: Vec<u32>) -> DemError {
        DemError {
            probability: p,
            detectors,
            observables,
        }
    }

    fn chain_graph(n: usize) -> DecodingGraph {
        let mut errors = vec![err(0.01, vec![0], vec![])];
        for i in 0..n - 1 {
            errors.push(err(0.01, vec![i as u32, i as u32 + 1], vec![]));
        }
        errors.push(err(0.01, vec![n as u32 - 1], vec![0]));
        DecodingGraph::from_dem(&DetectorErrorModel {
            num_detectors: n,
            num_observables: 1,
            errors,
        })
    }

    /// The exact decoder and the union-find decoder on a chain of `n`
    /// detectors.
    fn decoders(n: usize) -> [Box<dyn Decoder>; 2] {
        let graph = chain_graph(n);
        [
            Box::new(ExactMatchingDecoder::new(graph.clone())),
            Box::new(UnionFindDecoder::new(graph)),
        ]
    }

    #[test]
    fn empty_syndrome() {
        for decoder in decoders(5) {
            assert_eq!(decoder.decode(&[]), vec![false]);
        }
    }

    #[test]
    fn boundary_matching_prefers_near_side() {
        for decoder in decoders(7) {
            assert_eq!(decoder.decode(&[0]), vec![false]);
            assert_eq!(decoder.decode(&[6]), vec![true]);
        }
    }

    #[test]
    fn internal_pair_is_matched_without_flip() {
        for decoder in decoders(7) {
            assert_eq!(decoder.decode(&[2, 3]), vec![false]);
        }
    }

    #[test]
    fn pair_at_opposite_ends_flips_once() {
        for decoder in decoders(4) {
            assert_eq!(decoder.decode(&[0, 3]), vec![true]);
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_decoding() {
        // One scratch shared by both decoders, in turn, across every syndrome.
        let mut scratch = DecodeScratch::new();
        for syndrome in [
            vec![0usize],
            vec![8],
            vec![3, 4],
            vec![0, 1, 8],
            vec![2, 5, 6, 7],
        ] {
            for decoder in decoders(9) {
                let reused = decoder.decode_shot(&syndrome, &mut scratch);
                assert_eq!(
                    vec![reused == 1],
                    decoder.decode(&syndrome),
                    "syndrome {syndrome:?}"
                );
            }
        }
    }
}
