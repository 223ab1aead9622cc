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
                name: "max_failures 370 (stops in block 9)",
                config: base.with_max_failures(370),
                estimate: (40960, 384, 0x3f83_3333_3333_3333, 0x3f3f_34c6_756d_1fde),
                cache: [
                    [13658, 827, 149, 0, 505, 135, 0, 0, 0],
                    [16459, 877, 184, 0, 604, 164, 0, 0, 0],
                    [16459, 877, 184, 0, 604, 164, 0, 0, 0],
                ],
            },
            Case {
                name: "target_std_error 4.6e-4 (stops in block 10)",
                config: base.with_target_std_error(4.6e-4),
                estimate: (45056, 410, 0x3f82_a2e8_ba2e_8ba3, 0x3f3d_5167_c48d_8e3e),
                cache: [
                    [15021, 848, 164, 0, 554, 150, 0, 0, 0],
                    [16459, 877, 184, 0, 604, 164, 0, 0, 0],
                    [16459, 877, 184, 0, 604, 164, 0, 0, 0],
                ],
            },
            Case {
                name: "importance_bias 2 and target_std_error 2.45e-4 (stops in block 13)",
                config: base
                    .with_importance_bias(2.0)
                    .with_target_std_error(2.45e-4),
                estimate: (57344, 1820, 0x3f82_00ea_6263_9c5d, 0x3f2f_7e6b_44fb_8159),
                cache: [
                    [31053, 1341, 1332, 0, 185, 711, 0, 0, 0],
                    [33235, 1364, 1425, 0, 200, 760, 0, 0, 0],
                    [35527, 1390, 1514, 0, 217, 807, 0, 0, 0],
                ],
            },
            Case {
                name: "no criterion",
                config: base,
                estimate: (80920, 721, 0x3f82_3f6c_99c6_f421, 0x3f35_a646_ccf5_e4d9),
                cache: [
                    [27625, 1021, 306, 0, 992, 273, 0, 0, 0],
                    [27625, 1021, 306, 0, 992, 273, 0, 0, 0],
                    [27625, 1021, 306, 0, 992, 273, 0, 0, 0],
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
                name: "max_failures 380 (stops in block 10)",
                config: base.with_max_failures(380),
                estimate: (45056, 392, 0x3f81_d174_5d17_45d1, 0x3f3c_ac48_5fd8_37c0),
                cache: [
                    [13730, 11245, 15559, 0, 0, 704, 0, 0, 0],
                    [15217, 11977, 16989, 0, 0, 768, 0, 0, 0],
                    [15217, 11977, 16989, 0, 0, 768, 0, 0, 0],
                ],
            },
            Case {
                name: "target_std_error 4.8e-4 (stops in block 9)",
                config: base.with_target_std_error(4.8e-4),
                estimate: (40960, 362, 0x3f82_1999_9999_999a, 0x3f3e_4ea8_4fc8_1ae8),
                cache: [
                    [12243, 10444, 14161, 0, 0, 640, 0, 0, 0],
                    [15217, 11977, 16989, 0, 0, 768, 0, 0, 0],
                    [15217, 11977, 16989, 0, 0, 768, 0, 0, 0],
                ],
            },
            Case {
                name: "importance_bias 2 and target_std_error 4.05e-4 (stops in block 9)",
                config: base
                    .with_importance_bias(2.0)
                    .with_target_std_error(4.05e-4),
                estimate: (40960, 2176, 0x3f80_1221_c5ad_6471, 0x3f3a_3e46_78c2_7db1),
                cache: [
                    [2531, 6063, 31923, 0, 0, 640, 0, 0, 0],
                    [3246, 7110, 38266, 0, 0, 768, 0, 0, 0],
                    [3246, 7110, 38266, 0, 0, 768, 0, 0, 0],
                ],
            },
            Case {
                name: "no criterion",
                config: base,
                estimate: (80920, 672, 0x3f81_01f2_e3d4_c5b7, 0x3f34_e844_8a60_eb6e),
                cache: [
                    [27612, 16975, 28097, 0, 0, 1265, 0, 0, 0],
                    [27612, 16975, 28097, 0, 0, 1265, 0, 0, 0],
                    [27612, 16975, 28097, 0, 0, 1265, 0, 0, 0],
                ],
            },
        ],
    );
}
