//! Adversarial edge cases for the word-parallel batch decode path: words
//! that are entirely dense, defect lanes straddling the 64-shot word
//! boundary, ragged final words, zero-shot chunks, shots above the memo cap
//! routed to the per-shot fallback, and shared-snapshot adoption — each with
//! exact `CacheStats` word/sparse/dense counter assertions and bit-identity
//! against the per-shot reference loop.

use qccd_decoder::{
    CacheStats, DecodeScratch, Decoder, DecodingGraph, GreedyMatchingDecoder, MemoConfig,
    SyndromeChunk, UnionFindDecoder,
};
use qccd_sim::{DemError, DetectorErrorModel};

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
            prefilled: 8,
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
            hits: 2,   // the two prefilled singles, one per word
            misses: 2, // the two distinct pairs
            prefilled: 9,
            sparse_words: 2,
            word_merged: 2,
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
            hits: 2,
            prefilled: 6,
            sparse_words: 2,
            word_merged: 2,
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
    assert_eq!(stats.words(), 0, "no words to triage");
    assert_eq!(stats.decoded(), 0);
    assert_eq!(stats.prefilled, 5, "the prefill still warms the memo");
    // The per-shot path agrees on the degenerate chunk.
    let mut per_shot = DecodeScratch::new();
    assert_eq!(batch, decoder.decode_batch_per_shot(&chunk, &mut per_shot));
}

#[test]
fn above_cap_lanes_fall_back_while_dense_word_singles_still_merge() {
    let decoder = UnionFindDecoder::new(chain_graph(10));
    // One word mixing a quiet lane, two singles, a pair and a 7-defect lane
    // (above even the key capacity of 6): the oversized lane makes the word
    // dense and decodes uncacheable on the fallback path, the pair takes a
    // per-shot miss, and the singles are still answered by the word merge.
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
            hits: 2,
            misses: 1,
            uncacheable: 1,
            prefilled: 10,
            dense_words: 1,
            word_merged: 2,
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
            hits: 3,        // 3 merged singles (one of them in the dense word)
            misses: 1,      // the pair
            uncacheable: 1, // the 5-defect lane
            prefilled: 8,
            quiet_words: 1,
            sparse_words: 1,
            dense_words: 1,
            word_merged: 3,
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

    let capped = MemoConfig::default().with_max_defects(1);
    let (capped_stats, _) = decode_both(&decoder, &chunk, capped);
    assert_eq!(capped_stats.sparse_words, 0);
    assert_eq!(capped_stats.dense_words, 1);
    assert_eq!(
        capped_stats.uncacheable, 2,
        "pairs above the cap decode directly"
    );
}

#[test]
fn disabled_memo_leaves_every_counter_untouched_on_the_word_path() {
    let decoder = UnionFindDecoder::new(chain_graph(6));
    let shots = vec![vec![2], vec![], vec![1, 2, 3, 4, 5]];
    let chunk = chunk_of(6, &shots);
    let (stats, _) = decode_both(&decoder, &chunk, MemoConfig::disabled());
    assert_eq!(stats, CacheStats::default(), "disabled memo counts nothing");
}

#[test]
fn adopted_snapshots_answer_the_word_merge_and_report_shared_prefill() {
    let decoder = UnionFindDecoder::new(chain_graph(7));
    let mut warm = DecodeScratch::new();
    let snapshot = decoder
        .warm_memo_snapshot(7, &mut warm)
        .expect("memoizing decoder warms");
    assert_eq!(snapshot.len(), 7, "one single-defect entry per detector");

    let mut worker = DecodeScratch::new();
    worker.adopt_memo_snapshot(&snapshot);
    let chunk = chunk_of(7, &[vec![3], vec![6], vec![0]]);
    let batch = decoder.decode_batch(&chunk, &mut worker);
    assert_eq!(
        worker.cache_stats(),
        CacheStats {
            hits: 3,
            prefilled: 7, // carried over from the shared warm pass
            sparse_words: 1,
            word_merged: 3,
            ..CacheStats::default()
        }
    );
    for (shot, fired) in [vec![3], vec![6], vec![0]].iter().enumerate() {
        assert_eq!(batch.shot_prediction(shot), decoder.decode(fired));
    }
}

#[test]
fn adopting_a_snapshot_rekeys_a_scratch_owned_by_another_decoder() {
    let graph = chain_graph(9);
    let uf = UnionFindDecoder::new(graph.clone());
    let greedy = GreedyMatchingDecoder::new(graph);
    let chunk = chunk_of(9, &[vec![0], vec![4, 5], vec![8]]);

    // Warm a scratch with the greedy decoder, then adopt the union-find
    // snapshot into it: predictions must come from union-find, never from
    // the stale greedy entries.
    let mut scratch = DecodeScratch::new();
    greedy.decode_batch(&chunk, &mut scratch);
    let mut warm = DecodeScratch::new();
    let snapshot = uf.warm_memo_snapshot(9, &mut warm).expect("uf warms");
    scratch.adopt_memo_snapshot(&snapshot);
    let adopted = uf.decode_batch(&chunk, &mut scratch);

    let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
    assert_eq!(adopted, uf.decode_batch(&chunk, &mut cold));
    assert_eq!(scratch.cache_stats().prefilled, 9);
}

#[test]
fn entry_capped_singles_fall_back_per_lane_without_losing_identity() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    // Cap of 1 entry: only detector 0's single is prefilled, so the word
    // merge answers its lanes while the other singles take per-shot misses
    // whose inserts are dropped at the cap — bit-identical throughout.
    let memo = MemoConfig::default().with_max_entries(1);
    let shots = vec![vec![0], vec![1], vec![1], vec![0]];
    let chunk = chunk_of(8, &shots);
    let (stats, reference) = decode_both(&decoder, &chunk, memo);
    assert_eq!(
        stats,
        CacheStats {
            hits: 2,
            misses: 2,
            prefilled: 1,
            sparse_words: 1,
            word_merged: 2,
            ..CacheStats::default()
        }
    );
    assert_eq!((reference.hits, reference.misses), (2, 2));
}
