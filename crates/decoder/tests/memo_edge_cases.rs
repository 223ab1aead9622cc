//! Edge-case tests for the syndrome memo: empty syndromes, defect counts
//! above the cap, entry caps, cross-chunk scratch reuse (epoch-stamp reuse),
//! the single-defect prefill pass and `CacheStats` counter correctness.

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

#[test]
fn quiet_chunk_prefills_but_decodes_nothing() {
    let decoder = UnionFindDecoder::new(chain_graph(6));
    let mut scratch = DecodeScratch::new();
    let chunk = chunk_of(6, &[vec![], vec![], vec![]]);
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    for shot in 0..3 {
        assert_eq!(batch.shot_prediction(shot), vec![false]);
    }
    // The prefill pass seeds one entry per detector; no shot ever consults
    // the memo, so the hit/miss/uncacheable counters stay zero.
    assert_eq!(
        scratch.cache_stats(),
        CacheStats {
            hits: 0,
            misses: 0,
            uncacheable: 0,
            prefilled: 6,
            quiet_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(scratch.memo_entries(), 6);
}

#[test]
fn single_defect_shots_hit_the_prefilled_memo_immediately() {
    // The very first single-defect shot a worker decodes must be a hit —
    // that is the point of the prefill pass (no cold-start miss, hit rates
    // independent of which chunk order defects first appear in).
    let decoder = UnionFindDecoder::new(chain_graph(7));
    let mut scratch = DecodeScratch::new();
    let chunk = chunk_of(7, &[vec![3], vec![6], vec![0]]);
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    let stats = scratch.cache_stats();
    assert_eq!(stats.hits, 3, "every first-seen single defect is a hit");
    assert_eq!(stats.misses, 0);
    assert_eq!(stats.prefilled, 7);
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
            prefilled: 8,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(
        scratch.memo_entries(),
        8,
        "only the prefilled singles are cached; oversized sets never are"
    );
    assert_eq!(stats.hit_rate(), 0.0);
}

#[test]
fn cache_stats_count_hits_misses_and_uncacheable_exactly() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    let mut scratch = DecodeScratch::new();
    let shots = vec![
        vec![0],             // hit (prefilled)
        vec![0],             // hit
        vec![1, 2],          // miss (pairs are not prefilled)
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
            hits: 3,
            misses: 1,
            uncacheable: 1,
            prefilled: 8,
            dense_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(stats.attempts(), 4);
    assert_eq!(
        stats.decoded(),
        5,
        "prefilled entries are not decoded shots"
    );
    assert!((stats.hit_rate() - 0.6).abs() < 1e-12);
    assert_eq!(scratch.memo_entries(), 9);
    // Every shot still matches the uncached per-shot decode.
    for (shot, fired) in shots.iter().enumerate() {
        assert_eq!(batch.shot_prediction(shot), decoder.decode(fired));
    }
    // Counter reset keeps the entries.
    scratch.reset_cache_stats();
    assert_eq!(scratch.cache_stats(), CacheStats::default());
    assert_eq!(scratch.memo_entries(), 9);
}

#[test]
fn scratch_reuse_across_chunks_keeps_entries_and_accumulates_stats() {
    // The per-shot scratch buffers are invalidated between shots/chunks by
    // epoch stamping; the memo must survive those epoch bumps so later
    // chunks hit entries cached (or prefilled) by earlier ones, and the
    // prefill pass must run only once per owning decoder.
    let decoder = UnionFindDecoder::new(chain_graph(10));
    let mut warm = DecodeScratch::new();
    let first = chunk_of(10, &[vec![2], vec![3, 4], vec![2]]);
    let second = chunk_of(10, &[vec![2], vec![9], vec![3, 4], vec![2]]);

    let first_batch = decoder.decode_batch(&first, &mut warm);
    assert_eq!(
        warm.cache_stats(),
        CacheStats {
            hits: 2,
            misses: 1,
            uncacheable: 0,
            prefilled: 10,
            sparse_words: 1,
            ..CacheStats::default()
        }
    );
    assert_eq!(warm.memo_entries(), 11);

    let second_batch = decoder.decode_batch(&second, &mut warm);
    // [2] and [9] are prefilled singles, [3,4] is warm from the first
    // chunk: everything hits, and no second prefill pass runs.
    assert_eq!(
        warm.cache_stats(),
        CacheStats {
            hits: 6,
            misses: 1,
            uncacheable: 0,
            prefilled: 10,
            sparse_words: 2,
            ..CacheStats::default()
        }
    );
    assert_eq!(warm.memo_entries(), 11);

    // Bit-identical to fresh uncached decodes of both chunks.
    let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
    assert_eq!(first_batch, decoder.decode_batch(&first, &mut cold));
    assert_eq!(second_batch, decoder.decode_batch(&second, &mut cold));
}

#[test]
fn entry_cap_bounds_the_table_without_changing_results() {
    let decoder = UnionFindDecoder::new(chain_graph(8));
    let mut capped = DecodeScratch::with_memo_config(MemoConfig::default().with_max_entries(1));
    let shots = vec![vec![0], vec![1], vec![1], vec![0]];
    let chunk = chunk_of(8, &shots);
    let batch = decoder.decode_batch(&chunk, &mut capped);
    assert_eq!(capped.memo_entries(), 1, "cap holds (prefill stops at it)");
    // Prefill caches [0] only; [0] hits twice, [1] misses twice (its insert
    // is dropped at the cap).
    assert_eq!(
        capped.cache_stats(),
        CacheStats {
            hits: 2,
            misses: 2,
            uncacheable: 0,
            prefilled: 1,
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
    // The union-find and greedy decoders may disagree on some syndromes; a
    // shared scratch must re-key (and re-prefill) the memo per decoder
    // rather than serve one decoder's cached prediction to the other.
    let graph = chain_graph(9);
    let uf = UnionFindDecoder::new(graph.clone());
    let greedy = GreedyMatchingDecoder::new(graph);
    let mut shared = DecodeScratch::new();
    let chunk = chunk_of(9, &[vec![0], vec![4, 5], vec![8]]);

    let from_uf = uf.decode_batch(&chunk, &mut shared);
    assert_eq!(
        shared.cache_stats(),
        CacheStats {
            hits: 2,
            misses: 1,
            uncacheable: 0,
            prefilled: 9,
            sparse_words: 1,
            ..CacheStats::default()
        }
    );
    let from_greedy = greedy.decode_batch(&chunk, &mut shared);
    assert_eq!(
        shared.cache_stats(),
        CacheStats {
            hits: 2,
            misses: 1,
            uncacheable: 0,
            prefilled: 9,
            sparse_words: 1,
            ..CacheStats::default()
        },
        "handing the scratch to another decoder restarts stats and prefill"
    );

    let mut cold = DecodeScratch::with_memo_config(MemoConfig::disabled());
    assert_eq!(from_uf, uf.decode_batch(&chunk, &mut cold));
    assert_eq!(from_greedy, greedy.decode_batch(&chunk, &mut cold));
}

#[test]
fn disabling_the_memo_mid_scratch_stops_consulting_it() {
    let decoder = UnionFindDecoder::new(chain_graph(6));
    let mut scratch = DecodeScratch::new();
    let chunk = chunk_of(6, &[vec![2], vec![2]]);
    decoder.decode_batch(&chunk, &mut scratch);
    assert_eq!(scratch.cache_stats().hits, 2, "prefilled singles hit");
    scratch.set_memo_config(MemoConfig::disabled());
    let stats_before = scratch.cache_stats();
    let batch = decoder.decode_batch(&chunk, &mut scratch);
    assert_eq!(
        scratch.cache_stats(),
        stats_before,
        "disabled memo is inert"
    );
    assert_eq!(batch.shot_prediction(0), decoder.decode(&[2]));
}

#[test]
fn hit_rate_is_independent_of_chunk_order() {
    // Before prefill, whichever chunk a worker happened to decode first paid
    // the cold-start misses; with prefill the hit counts of a shot multiset
    // are order-independent.
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
    assert_eq!(forward.cache_stats().hits, 4);
    assert_eq!(forward.cache_stats().misses, 0);
}
