//! Golden pins for early-stopped logical-error estimates.
//!
//! The invariance tests hold an early-stopped estimate equal across chunk
//! sizes and thread counts, but they would still pass if the estimator
//! moved its stopping block the same way on every schedule. This file pins
//! the estimates *by value*: on compiled grid c2 memory experiments at 1X
//! (d3 and d5, about one failure in a hundred shots), each stop criterion
//! is tuned so the stop lands at canonical block 9 or later and never on
//! the last block of a three-block chunk. For every criterion — a failure cap, a target
//! standard error, a target standard error on the importance-sampled
//! estimator, and none — and for every chunk size and thread count below,
//! the decoded shots, the failures and the f64 bits of the rate and its
//! standard error equal the pinned constants. On one thread every
//! `CacheStats` field is pinned per chunk size (the chunk holding the
//! stopping block is decoded whole, so its cache delta is counted whole);
//! on three threads the scheduling-invariant counters must equal the
//! one-thread ones. A change to the estimator's fold that is not meant to
//! move results leaves every constant byte-identical; there is no
//! regeneration switch on purpose. The constants also rest on the sampled
//! stream and the union-find predictions, so a change that moves
//! `golden_sweep` or `golden_union_find` moves them too.

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{estimate_logical_error_rate_report, CacheStats, DecoderKind, EstimatorConfig};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::{NoisyCircuit, CANONICAL_BLOCK_SHOTS};

/// Twenty canonical blocks, the last one ragged.
const SHOTS: usize = 20 * CANONICAL_BLOCK_SHOTS - 1000;
const SEED: u64 = 2026;
const CHUNK_SHOTS: [usize; 3] = [
    CANONICAL_BLOCK_SHOTS,
    3 * CANONICAL_BLOCK_SHOTS,
    4 * CANONICAL_BLOCK_SHOTS,
];

/// The grid c2, standard-wiring memory experiment at `gate_improvement`
/// and distance `d` (`d` rounds, Z basis).
fn grid_c2(gate_improvement: f64, d: usize) -> NoisyCircuit {
    Compiler::new(ArchitectureConfig::recommended(gate_improvement))
        .compile_memory_experiment(&rotated_surface_code(d), d, MemoryBasis::Z)
        .expect("the recommended design point compiles")
        .to_noisy_circuit()
}

/// Every `CacheStats` field, in declaration order. The exhaustive pattern
/// makes a new field a compile error here rather than an unpinned counter.
fn fields(stats: &CacheStats) -> [u64; 9] {
    let CacheStats {
        hits,
        misses,
        uncacheable,
        quiet_words,
        sparse_words,
        dense_words,
        dense_hits,
        dense_misses,
        cluster_conflicts,
    } = *stats;
    [
        hits,
        misses,
        uncacheable,
        quiet_words,
        sparse_words,
        dense_words,
        dense_hits,
        dense_misses,
        cluster_conflicts,
    ]
}

/// The counters that depend only on the sampled syndromes and the memo cap:
/// `uncacheable` and the three word-path verdicts.
fn scheduling_invariant(stats: &CacheStats) -> [u64; 4] {
    [
        stats.uncacheable,
        stats.quiet_words,
        stats.sparse_words,
        stats.dense_words,
    ]
}

/// One pinned estimate: the criterion, the expected
/// `(shots, failures, rate bits, std-error bits)` and, per entry of
/// [`CHUNK_SHOTS`], the one-thread [`fields`] of the cache statistics.
struct Case {
    name: &'static str,
    config: EstimatorConfig,
    estimate: (usize, usize, u64, u64),
    cache: [[u64; 9]; 3],
}

fn check(gate_improvement: f64, d: usize, cases: &[Case]) {
    let noisy = grid_c2(gate_improvement, d);
    for case in cases {
        for (&chunk_shots, pinned_cache) in CHUNK_SHOTS.iter().zip(&case.cache) {
            let mut one_thread = None;
            for threads in [1, 3] {
                let config = case
                    .config
                    .with_chunk_shots(chunk_shots)
                    .with_num_threads(threads);
                let report = estimate_logical_error_rate_report(
                    &noisy,
                    SHOTS,
                    SEED,
                    DecoderKind::UnionFind,
                    &config,
                )
                .expect("consistent annotations");
                let estimate = report.estimate;
                let got = (
                    estimate.shots,
                    estimate.failures,
                    estimate.logical_error_rate.to_bits(),
                    estimate.std_error.to_bits(),
                );
                let context = format!(
                    "{gate_improvement}X d{d}, {}, chunk_shots {chunk_shots}, {threads} threads",
                    case.name
                );
                assert_eq!(
                    got, case.estimate,
                    "{context}: estimate drifted ({estimate:?})"
                );
                match one_thread {
                    None => {
                        assert_eq!(
                            fields(&report.cache),
                            *pinned_cache,
                            "{context}: cache statistics drifted ({:?})",
                            report.cache
                        );
                        one_thread = Some(report.cache);
                    }
                    Some(reference) => assert_eq!(
                        scheduling_invariant(&report.cache),
                        scheduling_invariant(&reference),
                        "{context}: scheduling-invariant counters differ from one thread"
                    ),
                }
            }
        }
    }
}

#[test]
fn early_stopped_estimates_are_pinned_at_d3() {
    let base = EstimatorConfig::default();
    check(
        1.0,
        3,
        &[
            Case {
                name: "max_failures 340 (stops in block 9)",
                config: base.with_max_failures(340),
                estimate: (40960, 354, 0x3f81_b333_3333_3333, 0x3f3d_f934_1189_5afe),
                cache: [
                    [13639, 768, 144, 0, 508, 132, 0, 0, 0],
                    [16392, 832, 172, 0, 611, 157, 0, 0, 0],
                    [16392, 832, 172, 0, 611, 157, 0, 0, 0],
                ],
            },
            Case {
                name: "target_std_error 4.4e-4 (stops in block 10)",
                config: base.with_target_std_error(4.4e-4),
                estimate: (45056, 381, 0x3f81_5174_5d17_45d1, 0x3f3c_4573_ca31_fbd8),
                cache: [
                    [14995, 794, 158, 0, 559, 145, 0, 0, 0],
                    [16392, 832, 172, 0, 611, 157, 0, 0, 0],
                    [16392, 832, 172, 0, 611, 157, 0, 0, 0],
                ],
            },
            Case {
                name: "importance_bias 2 and target_std_error 2.43e-4 (stops in block 13)",
                config: base
                    .with_importance_bias(2.0)
                    .with_target_std_error(2.43e-4),
                estimate: (57344, 1738, 0x3f81_739a_538b_712a, 0x3f2f_5ad5_de99_c009),
                cache: [
                    [30966, 1326, 1272, 0, 218, 678, 0, 0, 0],
                    [33217, 1356, 1368, 0, 231, 729, 0, 0, 0],
                    [35557, 1375, 1471, 0, 244, 780, 0, 0, 0],
                ],
            },
            Case {
                name: "no criterion",
                config: base,
                estimate: (80920, 682, 0x3f81_42bd_5c8e_08a8, 0x3f35_0f9b_ae7c_a4a4),
                cache: [
                    [27432, 984, 303, 0, 997, 268, 0, 0, 0],
                    [27432, 984, 303, 0, 997, 268, 0, 0, 0],
                    [27432, 984, 303, 0, 997, 268, 0, 0, 0],
                ],
            },
        ],
    );
}

#[test]
fn early_stopped_estimates_are_pinned_at_d5() {
    let base = EstimatorConfig::default();
    check(
        1.0,
        5,
        &[
            Case {
                name: "max_failures 345 (stops in block 10)",
                config: base.with_max_failures(345),
                estimate: (45056, 358, 0x3f80_45d1_745d_1746, 0x3f3b_6967_8719_4751),
                cache: [
                    [13779, 11244, 15459, 0, 0, 704, 0, 0, 0],
                    [15293, 12018, 16852, 0, 0, 768, 0, 0, 0],
                    [15293, 12018, 16852, 0, 0, 768, 0, 0, 0],
                ],
            },
            Case {
                name: "target_std_error 4.5e-4 (stops in block 9)",
                config: base.with_target_std_error(4.5e-4),
                estimate: (40960, 330, 0x3f80_8000_0000_0000, 0x3f3c_f2b8_1a91_3e2b),
                cache: [
                    [12281, 10459, 14074, 0, 0, 640, 0, 0, 0],
                    [15293, 12018, 16852, 0, 0, 768, 0, 0, 0],
                    [15293, 12018, 16852, 0, 0, 768, 0, 0, 0],
                ],
            },
            Case {
                name: "importance_bias 2 and target_std_error 4.95e-4 (stops in block 10)",
                config: base
                    .with_importance_bias(2.0)
                    .with_target_std_error(4.95e-4),
                estimate: (45056, 2306, 0x3f81_da78_b472_70af, 0x3f3f_e221_a386_78b7),
                cache: [
                    [2803, 6485, 35280, 0, 0, 704, 0, 0, 0],
                    [3130, 6991, 38495, 0, 0, 768, 0, 0, 0],
                    [3130, 6991, 38495, 0, 0, 768, 0, 0, 0],
                ],
            },
            Case {
                name: "no criterion",
                config: base,
                estimate: (80920, 667, 0x3f80_e18d_a778_243e, 0x3f34_d47c_26cb_c0a3),
                cache: [
                    [27632, 17223, 27772, 0, 0, 1265, 0, 0, 0],
                    [27632, 17223, 27772, 0, 0, 1265, 0, 0, 0],
                    [27632, 17223, 27772, 0, 0, 1265, 0, 0, 0],
                ],
            },
        ],
    );
}
