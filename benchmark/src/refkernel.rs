//! The reference pass every gated time sample is divided by.
//!
//! The host's speed moves between runs of the same code (a shared 2-vCPU
//! VM): raw wall times of identical work range 14–24 % per run in quiet
//! hours and block medians of 20 reps wander by 40–80 % in loud ones. A
//! fixed piece of work timed immediately before each sample moves with the
//! host, and the ratio `t_sample / t_ref` moves much less.
//!
//! What slows the host is contention, and contention does not slow every
//! kind of code alike: a dependent integer chain loses 5–9 % where
//! throughput-bound code loses 20–40 %. A reference made of one kind of work
//! is blind to the others (dividing by a latency-bound pass alone left the
//! noisiest workloads' block medians 28–40 % apart). So one pass runs four
//! phases of about equal length, one per way the workloads are bound:
//!
//! 1. a dependent SplitMix64 chain (integer latency);
//! 2. eight independent SplitMix64 streams (issue throughput);
//! 3. a lane-wise xor/add walk over an 8 MiB buffer (vector units, cache
//!    and memory bandwidth);
//! 4. a data-dependent chase through the same buffer (load latency).

use std::hint::black_box;
use std::time::Instant;

/// Seconds one pass takes at the speed the rep counts were sized for;
/// normalised times are `REF_NOMINAL_S × t_sample / t_ref`, so they read
/// like seconds on that machine.
pub const REF_NOMINAL_S: f64 = 0.0115;

const CHAIN_STEPS: u32 = 750_000;
const STREAM_STEPS: u32 = 300_000;
const STREAMS: usize = 8;
const BUFFER_WORDS: usize = 1 << 20;
const WALKS: u32 = 4;
const CHASE_STEPS: u32 = 600_000;
const SEED: u64 = 0x5EED_0F7E_F1CE;
/// `pass()` of the buffer `new()` fills; pinned so a changed kernel (which
/// would silently rescale every normalised metric) fails loudly.
const CHECKSUM: u64 = 0x552d_e564_cfaf_f8d2;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The buffer the memory phases read, filled once per process.
pub struct RefKernel {
    buffer: Vec<u64>,
}

impl RefKernel {
    pub fn new() -> Self {
        let mut state = SEED;
        RefKernel {
            buffer: (0..BUFFER_WORDS).map(|_| splitmix64(&mut state)).collect(),
        }
    }

    /// One pass; returns its checksum.
    pub fn pass(&self) -> u64 {
        // 1. Feeding the output back keeps the steps dependent.
        let mut state = black_box(SEED);
        let mut acc = 0u64;
        for _ in 0..CHAIN_STEPS {
            state ^= splitmix64(&mut state) >> 63;
            acc ^= state;
        }
        // 2. Independent streams: as many steps in flight as the core issues.
        let mut states = [0u64; STREAMS];
        for (index, stream) in states.iter_mut().enumerate() {
            *stream = black_box(state).wrapping_add(index as u64);
        }
        for _ in 0..STREAM_STEPS {
            for stream in &mut states {
                acc ^= splitmix64(stream);
            }
        }
        // 3. Lane-wise, so the compiler may vectorise it.
        let mut lanes = [black_box(acc); STREAMS];
        for _ in 0..WALKS {
            for words in self.buffer.chunks_exact(STREAMS) {
                for (lane, &word) in lanes.iter_mut().zip(words) {
                    *lane = (*lane ^ word).wrapping_add(word >> 3);
                }
            }
        }
        // 4. Each load's address depends on the previous load's value.
        let mask = BUFFER_WORDS as u64 - 1;
        let mut at = black_box(lanes.iter().fold(0, |a, &lane| a ^ lane)) & mask;
        for _ in 0..CHASE_STEPS {
            at = (self.buffer[at as usize] ^ at.rotate_left(13)) & mask;
        }
        acc ^ at
    }

    /// Times one pass in seconds and asserts its checksum.
    pub fn timed_pass(&self) -> f64 {
        let start = Instant::now();
        let checksum = black_box(self.pass());
        let seconds = start.elapsed().as_secs_f64();
        assert_eq!(checksum, CHECKSUM, "reference kernel changed");
        seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_pinned_and_repeats() {
        let kernel = RefKernel::new();
        assert_eq!(kernel.pass(), CHECKSUM);
        assert_eq!(kernel.pass(), CHECKSUM);
        assert!(kernel.timed_pass() > 0.0);
    }
}
