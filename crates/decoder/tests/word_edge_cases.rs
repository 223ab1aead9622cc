//! Adversarial edge cases for the word-parallel batch decode path: words
//! that are entirely dense, defect lanes straddling the 64-shot word
//! boundary, ragged final words, zero-shot chunks and shots above the memo
//! cap decoded directly — each with exact `CacheStats` word/sparse/dense counter assertions and bit-identity
//! against the per-shot reference loop — plus a random sweep that checks
//! the per-word verdicts against a brute-force per-shot defect count. The
//! sweep and a two-tile case run on every producer of unsampled chunks
//! (`from_shots`, the builder's frames and straddling word blocks, and
//! `append`), whose occupancy index the word path reads.

use qccd_decoder::{
    CacheStats, DecodeScratch, Decoder, DecodingGraph, MemoConfig, SyndromeChunk, UnionFindDecoder,
};
use qccd_sim::{DemError, DetectorErrorModel, SyndromeChunkBuilder};

/// A chain decoding graph: `n` detectors in a line, boundary edges at both
/// ends; the right boundary edge flips the observable.
fn chain_graph(n: usize) -> DecodingGraph {
    let mut errors = vec![DemError {
        probability: 0.01,
        detectors: vec![0],
        observables: vec![],
    }];
    for i in 0..n - 1 {
        errors.push(DemError {
            probability: 0.01,
            detectors: vec![i as u32, i as u32 + 1],
            observables: vec![],
        });
    }
    errors.push(DemError {
        probability: 0.01,
        detectors: vec![n as u32 - 1],
        observables: vec![0],
    });
    DecodingGraph::from_dem(&DetectorErrorModel {
        num_detectors: n,
        num_observables: 1,
        errors,
    })
}

fn chunk_of(n: usize, shots: &[Vec<usize>]) -> SyndromeChunk {
    let packed: Vec<(Vec<usize>, Vec<usize>)> = shots
        .iter()
        .map(|fired| (fired.clone(), Vec::new()))
        .collect();
    SyndromeChunk::from_shots(n, 1, &packed)
}

/// The same shots through [`SyndromeChunkBuilder`]: index frames and
/// shot-major word blocks of `block` shots in turn, so blocks straddle word
/// boundaries unless `block` divides 64.
fn built_of(n: usize, shots: &[Vec<usize>], block: usize) -> SyndromeChunk {
    let mut builder = SyndromeChunkBuilder::new(n, 1);
    for (index, group) in shots.chunks(block).enumerate() {
        if index % 2 == 0 {
            for frame in group {
                builder.push_frame(frame);
            }
        } else {
            let mut planes = vec![0u64; n];
            for (lane, frame) in group.iter().enumerate() {
                for &d in frame {
                    planes[d] |= 1u64 << lane;
                }
            }
            builder.push_word_block(&planes, group.len());
        }
    }
    let chunk = builder.finish(0, 0);
    assert_eq!(chunk, chunk_of(n, shots), "builder and from_shots disagree");
    chunk
}

/// Brute force: every shot's defects counted one at a time, folded into
/// `(quiet, sparse, dense, uncacheable)` under memo defect cap `cap`.
fn brute_force_counts(chunk: &SyndromeChunk, cap: usize) -> (u64, u64, u64, u64) {
    let (mut quiet, mut sparse, mut dense, mut uncacheable) = (0, 0, 0, 0);
    let mut fired = Vec::new();
    for word_index in 0..chunk.words() {
        let (mut noisy, mut above) = (0u64, 0u64);
        for shot in word_index * 64..chunk.num_shots().min(word_index * 64 + 64) {
            chunk.fired_detectors_into(shot, &mut fired);
            noisy += u64::from(!fired.is_empty());
            above += u64::from(fired.len() > cap);
        }
        uncacheable += above;
        match (noisy, above) {
            (0, _) => quiet += 1,
            (_, 0) => sparse += 1,
            _ => dense += 1,
        }
    }
    (quiet, sparse, dense, uncacheable)
}

/// Decodes on both paths, asserts bit-identity, and returns the word path's
/// stats.
fn decode_both(
    decoder: &dyn Decoder,
    chunk: &SyndromeChunk,
    memo: MemoConfig,
) -> (CacheStats, CacheStats) {
    let mut word = DecodeScratch::with_memo_config(memo);
    let mut per_shot = DecodeScratch::with_memo_config(memo);
    let from_word = decoder.decode_batch(chunk, &mut word);
    let reference = decoder.decode_batch_per_shot(chunk, &mut per_shot);
    assert_eq!(from_word, reference, "word path must match per-shot path");
    (word.cache_stats(), per_shot.cache_stats())
}

#[test]
fn all_dense_words_route_every_lane_to_the_fallback() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    // A full 64-lane word where every lane carries 5 defects (> cap 4).
    let shots = vec![vec![0, 1, 2, 3, 4]; 64];
    let chunk = chunk_of(8, &shots);
    let (stats, reference) = decode_both(&decoder, &chunk, MemoConfig::default());
    assert_eq!(
        stats,
        CacheStats {
            uncacheable: 64,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!((reference.hits, reference.misses), (0, 0));
    assert_eq!(reference.uncacheable, 64);
}

#[test]
fn defects_straddling_the_word_boundary_stay_in_their_word() {
    let decoder = UnionFindDecoder::new(chain_graph(9));
    // 66 shots: lane 63 of word 0 and lanes 0–1 of word 1 are noisy, with a
    // pair right on the boundary.
    let mut shots = vec![vec![]; 66];
    shots[62] = vec![3, 4];
    shots[63] = vec![7];
    shots[64] = vec![7];
    shots[65] = vec![2, 3];
    let chunk = chunk_of(9, &shots);
    assert_eq!(chunk.words(), 2);
    let (stats, _) = decode_both(&decoder, &chunk, MemoConfig::default());
    assert_eq!(
        stats,
        CacheStats {
            hits: 1,   // [7] again, in the next word
            misses: 3, // the two distinct pairs and the first [7]
            sparse_words: 2,
            ..CacheStats::default()
        }
    );
}

#[test]
fn ragged_final_words_mask_invalid_lanes() {
    let decoder = UnionFindDecoder::new(chain_graph(6));
    // 70 shots (70 % 64 = 6 valid lanes in the final word); the last valid
    // lane is noisy, everything beyond it must be ignored.
    let mut shots = vec![vec![]; 70];
    shots[0] = vec![2];
    shots[69] = vec![5];
    let chunk = chunk_of(6, &shots);
    let (stats, _) = decode_both(&decoder, &chunk, MemoConfig::default());
    assert_eq!(
        stats,
        CacheStats {
            misses: 2,
            sparse_words: 2,
            ..CacheStats::default()
        }
    );
}

#[test]
fn zero_shot_chunks_decode_to_zero_words() {
    let decoder = UnionFindDecoder::new(chain_graph(5));
    let chunk = chunk_of(5, &[]);
    assert_eq!(chunk.num_shots(), 0);
    let mut scratch = DecodeScratch::new();
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    assert_eq!(batch.num_shots(), 0);
    assert_eq!(batch.words(), 0);
    let stats = scratch.cache_stats();
    assert_eq!(stats.words(), 0, "no words to scan");
    assert_eq!(stats.decoded(), 0);
    assert_eq!(scratch.memo_entries(), 0, "nothing seen, nothing learned");
    // The per-shot path agrees on the degenerate chunk.
    let mut per_shot = DecodeScratch::new();
    assert_eq!(batch, decoder.decode_batch_per_shot(&chunk, &mut per_shot));
}

#[test]
fn above_cap_lanes_decode_directly_while_dense_word_singles_still_hit() {
    let decoder = UnionFindDecoder::new(chain_graph(10));
    // One word mixing a quiet lane, two singles, a pair and a 7-defect lane
    // (above even the key capacity of 6): the oversized lane makes the word
    // dense and decodes uncacheable, while the pair and the singles still go
    // through the memo (first sight of each: a miss).
    let shots = vec![
        vec![],
        vec![4],
        (0..7).collect::<Vec<_>>(),
        vec![8],
        vec![5, 6],
    ];
    let chunk = chunk_of(10, &shots);
    let (stats, _) = decode_both(&decoder, &chunk, MemoConfig::default());
    assert_eq!(
        stats,
        CacheStats {
            misses: 3,
            uncacheable: 1,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
}

#[test]
fn quiet_sparse_and_dense_words_are_counted_exactly() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    // Word 0: quiet. Word 1: sparse (singles + a pair). Word 2: dense.
    let mut shots = vec![vec![]; 130];
    shots[64] = vec![1];
    shots[65] = vec![1];
    shots[66] = vec![2, 3];
    shots[128] = vec![0, 1, 2, 3, 4];
    shots[129] = vec![6];
    let chunk = chunk_of(8, &shots);
    let (stats, _) = decode_both(&decoder, &chunk, MemoConfig::default());
    assert_eq!(
        stats,
        CacheStats {
            hits: 1,        // the second [1]
            misses: 3,      // [1], the pair, and [6] in the dense word
            uncacheable: 1, // the 5-defect lane
            quiet_words: 1,
            sparse_words: 1,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(stats.words(), 3);
}

#[test]
fn tighter_memo_caps_move_the_sparse_dense_boundary() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    // Pairs only: sparse under the default cap, dense when the cap is 1.
    let shots = vec![vec![1, 2], vec![4, 5]];
    let chunk = chunk_of(8, &shots);
    let (default_stats, _) = decode_both(&decoder, &chunk, MemoConfig::default());
    assert_eq!(default_stats.sparse_words, 1);
    assert_eq!(default_stats.dense_words, 0);
    assert_eq!(default_stats.misses, 2);

    let capped = MemoConfig {
        max_defects: 1,
        ..MemoConfig::default()
    };
    let (capped_stats, _) = decode_both(&decoder, &chunk, capped);
    assert_eq!(capped_stats.sparse_words, 0);
    assert_eq!(capped_stats.dense_words, 1);
    assert_eq!(
        capped_stats.uncacheable, 2,
        "pairs above the cap decode directly"
    );
}

#[test]
fn disabled_memo_counts_every_noisy_lane_uncacheable_on_the_word_path() {
    let decoder = UnionFindDecoder::new(chain_graph(6));
    let shots = vec![vec![2], vec![], vec![1, 2, 3, 4, 5]];
    let chunk = chunk_of(6, &shots);
    let (stats, reference) = decode_both(&decoder, &chunk, MemoConfig::disabled());
    // A disabled memo is a cap of 0: the triage is still counted, every
    // noisy lane is uncacheable and the memo is never consulted.
    assert_eq!(
        stats,
        CacheStats {
            uncacheable: 2,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(
        reference,
        CacheStats {
            uncacheable: 2,
            ..CacheStats::default()
        }
    );
}

#[test]
fn entry_capped_singles_fall_back_per_lane_without_losing_identity() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    // Cap of 1 entry: the first [0] takes the only slot, so the last lane
    // hits while the other singles take misses whose inserts are dropped at
    // the cap — bit-identical throughout.
    let memo = MemoConfig {
        max_entries: 1,
        ..MemoConfig::default()
    };
    let shots = vec![vec![0], vec![1], vec![1], vec![0]];
    let chunk = chunk_of(8, &shots);
    let (stats, reference) = decode_both(&decoder, &chunk, memo);
    assert_eq!(
        stats,
        CacheStats {
            hits: 1,
            misses: 3,
            sparse_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!((reference.hits, reference.misses), (1, 3));
}

#[test]
fn random_chunks_match_a_brute_force_defect_count() {
    // 300 detectors, so pairs land below, across and above detector 256;
    // 200 shots, so the final word is ragged. Each word draws its own mix —
    // quiet, or lanes of up to 2, 5 or 9 defects — so every verdict occurs
    // under every memo cap tried.
    const DETECTORS: usize = 300;
    const SHOTS: usize = 200;
    let decoder = UnionFindDecoder::new(chain_graph(DETECTORS));
    let mut state = 0x5eed_u64;
    let mut next = move |bound: usize| {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let mut seen = (0u64, 0u64, 0u64);
    for round in 0..4 {
        let mut shots = vec![Vec::new(); SHOTS];
        for word in shots.chunks_mut(64) {
            let max_defects = [0, 2, 5, 9][next(4)];
            for shot in word.iter_mut() {
                if max_defects == 0 || next(3) == 0 {
                    continue;
                }
                for _ in 0..1 + next(max_defects) {
                    // Cluster around 256 half the time so pairs straddle it.
                    let detector = if next(2) == 0 {
                        250 + next(12)
                    } else {
                        next(DETECTORS)
                    };
                    if !shot.contains(&detector) {
                        shot.push(detector);
                    }
                }
            }
        }
        // The same shots from both producers of unsampled chunks.
        for chunk in [chunk_of(DETECTORS, &shots), built_of(DETECTORS, &shots, 23)] {
            let mut truth = DecodeScratch::with_memo_config(MemoConfig::disabled());
            let expected = decoder.decode_batch(&chunk, &mut truth);

            for cap in [0usize, 1, 2, 4, 6] {
                let memo = MemoConfig {
                    max_defects: cap,
                    ..MemoConfig::default()
                };
                let mut word = DecodeScratch::with_memo_config(memo);
                let mut per_shot = DecodeScratch::with_memo_config(memo);
                assert_eq!(decoder.decode_batch(&chunk, &mut word), expected);
                assert_eq!(
                    decoder.decode_batch_per_shot(&chunk, &mut per_shot),
                    expected
                );
                // Cap 0 disables the memo and is counted like any other cap.
                let (stats, reference) = (word.cache_stats(), per_shot.cache_stats());
                let (quiet, sparse, dense, uncacheable) = brute_force_counts(&chunk, cap);
                assert_eq!(
                    (
                        stats.quiet_words,
                        stats.sparse_words,
                        stats.dense_words,
                        stats.uncacheable
                    ),
                    (quiet, sparse, dense, uncacheable),
                    "round {round} cap {cap}"
                );
                assert_eq!(stats.words(), chunk.words() as u64);
                seen = (seen.0 + quiet, seen.1 + sparse, seen.2 + dense);
                assert_eq!(
                    (stats.hits, stats.misses, stats.uncacheable),
                    (reference.hits, reference.misses, reference.uncacheable),
                    "round {round} cap {cap}: memo counters match the per-shot loop"
                );
            }
        }
    }
    assert!(
        seen.0 > 0 && seen.1 > 0 && seen.2 > 0,
        "every verdict drawn: {seen:?}"
    );
}

/// Two scan tiles, the second ragged (5 000 shots = 79 words), from
/// `from_shots`, from the builder at three block sizes and from two
/// builders joined by `append`: every chunk decodes on the word path
/// exactly as on the per-shot loop, with equal hit, miss and uncacheable
/// counters, and with the word counters of a brute-force count.
#[test]
fn every_producer_decodes_identically_across_tiles() {
    const DETECTORS: usize = 40;
    const SHOTS: usize = 5_000;
    let decoder = UnionFindDecoder::new(chain_graph(DETECTORS));
    // Quiet stretches, lone defects, neighbour pairs and above-cap lanes,
    // varying from word to word and lane to lane.
    let shots: Vec<Vec<usize>> = (0..SHOTS)
        .map(|shot| match (shot / 64 % 5, shot % 7) {
            (0, _) | (_, 1..=4) => Vec::new(),
            (1, _) => vec![shot % DETECTORS],
            (2, _) => vec![shot % 39, shot % 39 + 1],
            _ => (0..5 + shot % 3)
                .map(|k| (shot + 7 * k) % DETECTORS)
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect(),
        })
        .collect();
    let mut head = SyndromeChunkBuilder::new(DETECTORS, 1);
    let mut tail = SyndromeChunkBuilder::new(DETECTORS, 1);
    for frame in &shots[..64 * 40] {
        head.push_frame(frame);
    }
    for frame in &shots[64 * 40..] {
        tail.push_frame(frame);
    }
    head.append(&mut tail);
    let appended = head.finish(0, 0);
    assert_eq!(appended, chunk_of(DETECTORS, &shots));
    let chunks = [
        chunk_of(DETECTORS, &shots),
        built_of(DETECTORS, &shots, 64),
        built_of(DETECTORS, &shots, 40),
        built_of(DETECTORS, &shots, 1),
        appended,
    ];
    let mut word_stats = Vec::new();
    for chunk in &chunks {
        assert_eq!(chunk.words(), 79);
        let memo = MemoConfig::default();
        let (stats, reference) = decode_both(&decoder, chunk, memo);
        assert_eq!(
            (stats.hits, stats.misses, stats.uncacheable),
            (reference.hits, reference.misses, reference.uncacheable)
        );
        let (quiet, sparse, dense, uncacheable) =
            brute_force_counts(chunk, memo.effective_max_defects());
        assert_eq!(
            (
                stats.quiet_words,
                stats.sparse_words,
                stats.dense_words,
                stats.uncacheable
            ),
            (quiet, sparse, dense, uncacheable)
        );
        assert!(quiet > 0 && sparse > 0 && dense > 0, "{stats:?}");
        word_stats.push(stats);
    }
    assert!(word_stats.windows(2).all(|pair| pair[0] == pair[1]));
}
