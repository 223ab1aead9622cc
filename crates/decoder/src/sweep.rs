//! Per-point seeds of multi-configuration sweeps.
//!
//! The paper's tables and figures evaluate grids of `(architecture,
//! distance, decoder, noise)` points, each of which is itself a chunked
//! Monte-Carlo pipeline. A sweep gives point `i` the seed
//! [`sweep_seed`]`(sweep seed, i)`, so its outcome depends only on the point
//! and that seed — not on which process, worker or order evaluated it.

/// Derives the deterministic seed of one sweep point from the sweep seed
/// and the point index.
///
/// Two rounds of SplitMix64 finalisation (with a different stream constant
/// than `qccd_sim::block_seed`, so sweep-level and block-level streams stay
/// decorrelated even when a sweep seed equals a sampling seed).
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_per_index_and_engine_seed() {
        assert_ne!(sweep_seed(7, 0), sweep_seed(7, 1));
        assert_ne!(sweep_seed(7, 0), sweep_seed(8, 0));
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
}
