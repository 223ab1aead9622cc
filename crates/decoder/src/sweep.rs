//! Sharded multi-configuration sweeps.
//!
//! The paper's tables and figures evaluate grids of `(architecture,
//! distance, decoder, noise)` points, each of which is itself a chunked
//! Monte-Carlo pipeline. [`SweepEngine`] shards *whole points* across an
//! outer rayon pool, composing with the inner chunk parallelism of
//! [`estimate_logical_error_rate_from_table`](crate::estimate_logical_error_rate_from_table):
//! the outer pool keeps every core busy when points are short (compile-only
//! sweeps, small distances), and the inner pool takes over inside a long
//! point. [`SweepEngine`] states the determinism contract.

use rayon::prelude::*;

/// Derives the deterministic seed of one sweep point from the engine seed
/// and the point index.
///
/// Two rounds of SplitMix64 finalisation (with a different stream constant
/// than `qccd_sim::block_seed`, so sweep-level and block-level streams stay
/// decorrelated even when an engine seed equals a sampling seed).
pub fn sweep_seed(seed: u64, index: u64) -> u64 {
    let mut state = seed ^ 0x6a09_e667_f3bc_c909 ^ index.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    for _ in 0..2 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        state = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state ^= state >> 31;
    }
    state
}

/// One unit of sweep work handed to the evaluation closure.
#[derive(Debug, Clone, Copy)]
pub struct SweepTask<'a, C> {
    /// Index of the point in the input slice.
    pub index: usize,
    /// The point itself.
    pub point: &'a C,
    /// The point's deterministic seed (`sweep_seed(engine seed, index)`).
    pub seed: u64,
}

/// Shards sweep points across an outer worker pool with per-point
/// deterministic seeds.
///
/// # Determinism
///
/// Each point receives its own seed, derived **only** from the engine seed
/// and the point's index in the input slice: `point seed =
/// `[`sweep_seed`]`(engine seed, index)`. Results are collected in input
/// order. Together with the estimator's own chunk/thread invariance this
/// makes a sweep's output a pure function of `(engine seed, points)` —
/// independent of thread counts, sharding, or which worker picked up which
/// point. The golden regression tests in `qccd-bench` pin this contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepEngine {
    seed: u64,
    num_threads: Option<usize>,
}

impl SweepEngine {
    /// An engine deriving every point seed from `seed`.
    pub fn new(seed: u64) -> Self {
        SweepEngine {
            seed,
            num_threads: None,
        }
    }

    /// Pins the outer worker count (default: rayon's default for the
    /// calling context). Affects scheduling only, never results.
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// The engine seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The deterministic seed of the point at `index`.
    pub fn point_seed(&self, index: usize) -> u64 {
        sweep_seed(self.seed, index as u64)
    }

    /// Evaluates every point in parallel, returning results in input order.
    ///
    /// The machine's thread budget is split between the two levels: with
    /// `W` outer workers on a `T`-thread budget, each point's evaluation
    /// runs inside an installed pool of `max(1, T / W)` threads, so any
    /// inner parallel work (the chunked Monte-Carlo pipeline) shares the
    /// machine instead of going machine-wide per worker. This affects
    /// scheduling only — `eval` must be a pure function of its
    /// [`SweepTask`] (plus immutable captures), and under that contract the
    /// returned vector is bit-identical for any thread count.
    pub fn run<C, R, F>(&self, points: &[C], eval: F) -> Vec<R>
    where
        C: Sync,
        R: Send,
        F: Fn(SweepTask<'_, C>) -> R + Sync,
    {
        let budget = rayon::current_num_threads().max(1);
        let outer = self
            .num_threads
            .unwrap_or(budget)
            .clamp(1, points.len().max(1));
        let inner_pool = rayon::ThreadPoolBuilder::new()
            .num_threads((budget / outer).max(1))
            .build()
            .expect("thread pool construction cannot fail");
        let body = || {
            (0..points.len())
                .into_par_iter()
                .map(|index| {
                    inner_pool.install(|| {
                        eval(SweepTask {
                            index,
                            point: &points[index],
                            seed: self.point_seed(index),
                        })
                    })
                })
                .collect()
        };
        match self.num_threads {
            Some(threads) => rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .expect("thread pool construction cannot fail")
                .install(body),
            None => body(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_per_index_and_engine_seed() {
        let engine = SweepEngine::new(7);
        assert_ne!(engine.point_seed(0), engine.point_seed(1));
        assert_ne!(engine.point_seed(0), SweepEngine::new(8).point_seed(0));
        assert_eq!(engine.point_seed(3), sweep_seed(7, 3));
    }

    #[test]
    fn sweep_and_block_streams_differ() {
        // Same (seed, index) must not collide with the sampler's block
        // stream, or a sweep point would replay its first sampling block.
        for seed in [0u64, 1, 2026] {
            for index in 0..4 {
                assert_ne!(sweep_seed(seed, index), qccd_sim::block_seed(seed, index));
            }
        }
    }

    #[test]
    fn results_arrive_in_input_order() {
        let engine = SweepEngine::new(1);
        let points: Vec<usize> = (0..64).collect();
        let results = engine.run(&points, |task| {
            assert_eq!(*task.point, task.index);
            task.index * 10
        });
        assert_eq!(results, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn results_are_thread_count_invariant() {
        let points: Vec<u64> = (0..17).collect();
        let eval = |task: SweepTask<'_, u64>| task.seed ^ *task.point;
        let reference = SweepEngine::new(5).with_num_threads(1).run(&points, eval);
        for threads in [2usize, 4, 8] {
            let engine = SweepEngine::new(5).with_num_threads(threads);
            assert_eq!(engine.run(&points, eval), reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_sweep_is_empty() {
        let engine = SweepEngine::new(0);
        let results: Vec<u64> = engine.run(&[] as &[u64], |task| task.seed);
        assert!(results.is_empty());
    }
}
