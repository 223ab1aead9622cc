//! Edge-case tests for the syndrome memo: empty syndromes, defect counts
//! above the cap, entry caps, cross-chunk scratch reuse (per-shot resets),
//! first-sight learning of single defects and `CacheStats` counter
//! correctness.

use qccd_decoder::{
    CacheStats, DecodeScratch, Decoder, DecodingGraph, ExactMatchingDecoder, MemoConfig,
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

#[test]
fn quiet_chunk_prefills_nothing_and_decodes_nothing() {
    let decoder = UnionFindDecoder::new(chain_graph(6));
    let mut scratch = DecodeScratch::new();
    let chunk = chunk_of(6, &[vec![], vec![], vec![]]);
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    for shot in 0..3 {
        assert_eq!(batch.shot_prediction(shot), vec![false]);
    }
    // Nothing is decoded ahead of the traffic and no shot consults the
    // memo: the table stays empty and only the quiet word is counted.
    assert_eq!(
        scratch.cache_stats(),
        CacheStats {
            quiet_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(scratch.memo_entries(), 0);
}

#[test]
fn single_defect_shots_miss_on_first_sight_then_hit() {
    // A single defect is learned like every other cacheable set: its first
    // sight is a miss (one decode, one insert), every later one a hit.
    let decoder = UnionFindDecoder::new(chain_graph(7));
    let mut scratch = DecodeScratch::new();
    let chunk = chunk_of(7, &[vec![3], vec![6], vec![0]]);
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    let stats = scratch.cache_stats();
    assert_eq!(stats.hits, 0, "nothing is cached before it is seen");
    assert_eq!(stats.misses, 3, "every first-seen single defect is a miss");
    assert_eq!(scratch.memo_entries(), 3);
    assert_eq!(decoder.decode_batch(&chunk, &mut scratch), batch);
    assert_eq!(scratch.cache_stats().since(&stats).hits, 3);
    for (shot, fired) in [vec![3], vec![6], vec![0]].iter().enumerate() {
        assert_eq!(batch.shot_prediction(shot), decoder.decode(fired));
    }
}

#[test]
fn defect_count_above_the_cap_bypasses_the_memo() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    let mut scratch = DecodeScratch::new();
    // 5 defects > default cap of 4: decoded directly, counted uncacheable.
    let big: Vec<usize> = (0..5).collect();
    let chunk = chunk_of(8, &[big.clone(), big.clone()]);
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    assert_eq!(batch.shot_prediction(0), decoder.decode(&big));
    assert_eq!(batch.shot_prediction(0), batch.shot_prediction(1));
    let stats = scratch.cache_stats();
    assert_eq!(
        stats,
        CacheStats {
            hits: 0,
            misses: 0,
            uncacheable: 2,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(scratch.memo_entries(), 0, "oversized sets are never cached");
}

#[test]
fn cache_stats_count_hits_misses_and_uncacheable_exactly() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    let mut scratch = DecodeScratch::new();
    let shots = vec![
        vec![0],             // miss (first sight)
        vec![0],             // hit
        vec![1, 2],          // miss
        vec![],              // quiet: not counted
        vec![0, 1, 2, 3, 4], // uncacheable (5 > cap 4)
        vec![0],             // hit
    ];
    let chunk = chunk_of(8, &shots);
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    let stats = scratch.cache_stats();
    assert_eq!(
        stats,
        CacheStats {
            hits: 2,
            misses: 2,
            uncacheable: 1,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(stats.attempts(), 4);
    assert_eq!(stats.decoded(), 5);
    assert_eq!(scratch.memo_entries(), 2);
    // Every shot still matches the uncached per-shot decode.
    for (shot, fired) in shots.iter().enumerate() {
        assert_eq!(batch.shot_prediction(shot), decoder.decode(fired));
    }
}

#[test]
fn scratch_reuse_across_chunks_keeps_entries_and_accumulates_stats() {
    // The per-shot scratch state is reset from shot to shot; the memo must
    // survive those resets so later chunks hit entries cached by earlier
    // ones.
    let decoder = UnionFindDecoder::new(chain_graph(10));
    let mut warm = DecodeScratch::new();
    let first = chunk_of(10, &[vec![2], vec![3, 4], vec![2]]);
    let second = chunk_of(10, &[vec![2], vec![9], vec![3, 4], vec![2]]);

    let first_batch = decoder.decode_batch(&first, &mut warm);
    assert_eq!(
        warm.cache_stats(),
        CacheStats {
            hits: 1,
            misses: 2,
            uncacheable: 0,
            sparse_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(warm.memo_entries(), 2);

    let second_batch = decoder.decode_batch(&second, &mut warm);
    // [2] and [3,4] are warm from the first chunk; [9] is new and misses
    // once.
    assert_eq!(
        warm.cache_stats(),
        CacheStats {
            hits: 4,
            misses: 3,
            uncacheable: 0,
            sparse_words: 2,
            ..CacheStats::default()
        }
    );
    assert_eq!(warm.memo_entries(), 3);

    // Bit-identical to fresh uncached decodes of both chunks.
    let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
    assert_eq!(first_batch, decoder.decode_batch(&first, &mut cold));
    assert_eq!(second_batch, decoder.decode_batch(&second, &mut cold));
}

#[test]
fn entry_cap_bounds_the_table_without_changing_results() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    let mut capped = DecodeScratch::with_memo_config(MemoConfig {
        max_entries: 1,
        ..MemoConfig::default()
    });
    let shots = vec![vec![0], vec![1], vec![1], vec![0]];
    let chunk = chunk_of(8, &shots);
    let batch = decoder.decode_batch(&chunk, &mut capped);
    assert_eq!(capped.memo_entries(), 1, "cap holds");
    // The first [0] misses and takes the only slot, so the last one hits;
    // [1] misses twice (its insert is dropped at the cap).
    assert_eq!(
        capped.cache_stats(),
        CacheStats {
            hits: 1,
            misses: 3,
            uncacheable: 0,
            sparse_words: 1,
            ..CacheStats::default()
        }
    );
    for (shot, fired) in shots.iter().enumerate() {
        assert_eq!(batch.shot_prediction(shot), decoder.decode(fired));
    }
}

#[test]
fn scratch_shared_across_decoders_serves_no_stale_predictions() {
    // The union-find and exact decoders may disagree on some syndromes; a
    // shared scratch must re-key the memo per decoder rather than serve one
    // decoder's cached prediction to the other.
    let graph = chain_graph(9);
    let uf = UnionFindDecoder::new(graph.clone());
    let exact = ExactMatchingDecoder::new(graph);
    let mut shared = DecodeScratch::new();
    let chunk = chunk_of(9, &[vec![0], vec![4, 5], vec![8]]);

    let from_uf = uf.decode_batch(&chunk, &mut shared);
    assert_eq!(
        shared.cache_stats(),
        CacheStats {
            hits: 0,
            misses: 3,
            uncacheable: 0,
            sparse_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(shared.memo_entries(), 3);
    let from_exact = exact.decode_batch(&chunk, &mut shared);
    assert_eq!(
        shared.cache_stats(),
        CacheStats {
            hits: 0,
            misses: 6,
            uncacheable: 0,
            sparse_words: 2,
            ..CacheStats::default()
        },
        "the other decoder finds the entries cleared (three more misses, no \
         hit) while the scratch's counters keep accumulating"
    );
    assert_eq!(shared.memo_entries(), 3);

    let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
    assert_eq!(from_uf, uf.decode_batch(&chunk, &mut cold));
    assert_eq!(from_exact, exact.decode_batch(&chunk, &mut cold));
}

#[test]
fn disabling_the_memo_mid_scratch_stops_consulting_it() {
    let decoder = UnionFindDecoder::new(chain_graph(6));
    let mut scratch = DecodeScratch::new();
    let chunk = chunk_of(6, &[vec![2], vec![2]]);
    decoder.decode_batch(&chunk, &mut scratch);
    let stats = scratch.cache_stats();
    assert_eq!((stats.misses, stats.hits), (1, 1), "learned, then hit");
    scratch.set_memo_config(MemoConfig::disabled());
    let stats_before = scratch.cache_stats();
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    assert_eq!(
        scratch.cache_stats().since(&stats_before),
        CacheStats {
            uncacheable: 2,
            dense_words: 1,
            ..CacheStats::default()
        },
        "a disabled memo is a cap of 0: no hit, no miss, every noisy lane uncacheable"
    );
    assert_eq!(batch.shot_prediction(0), decoder.decode(&[2]));
}

#[test]
fn hit_rate_is_independent_of_chunk_order() {
    // Every distinct cacheable set misses exactly once per scratch, wherever
    // it first appears, so the counters of a shot multiset do not depend on
    // the order its chunks are decoded in.
    let decoder = UnionFindDecoder::new(chain_graph(8));
    let a = chunk_of(8, &[vec![1], vec![5]]);
    let b = chunk_of(8, &[vec![5], vec![1]]);

    let mut forward = DecodeScratch::new();
    decoder.decode_batch(&a, &mut forward);
    decoder.decode_batch(&b, &mut forward);

    let mut backward = DecodeScratch::new();
    decoder.decode_batch(&b, &mut backward);
    decoder.decode_batch(&a, &mut backward);

    assert_eq!(forward.cache_stats(), backward.cache_stats());
    assert_eq!(forward.cache_stats().hits, 2);
    assert_eq!(forward.cache_stats().misses, 2, "misses == distinct sets");
    assert_eq!(forward.memo_entries(), 2);
}
