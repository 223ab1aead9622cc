//! Logical error rates of the exact matching decoder on the code-capacity
//! circuit (`support::code_capacity`: one round, a `BitFlip(p)` on every
//! data qubit, perfect measurement), checked against what any
//! minimum-weight decoder must show rather than against our own reference.
//!
//! * *Monotone in p*: at d = 3 and 5, a fixed seed and 40 000 shots, the
//!   sampled LER does not fall by more than 3σ between neighbouring p on
//!   0.07, 0.075, …, 0.11.
//! * *Exact enumeration at d = 3*: decoding all 2⁹ data-flip patterns gives
//!   the exact LER polynomial Σ_S fail(S)·p^|S|·(1 − p)^(9 − |S|); its
//!   lowest failing weight is (d + 1)/2 = 2, and at p ∈ {0.02, 0.05, 0.1}
//!   `estimate_logical_error_rate_report` agrees with it within 3σ. That
//!   ties the sampler, the word path and the estimator fold to a number
//!   nothing sampled.
//!
//! Union-find is not run here; it joins with the fix of its edge lengths.

#[allow(dead_code)]
mod support;

use qccd_decoder::{
    estimate_logical_error_rate_report, DecodeScratch, Decoder, DecoderKind, DecodingGraph,
    EstimatorConfig, ExactMatchingDecoder, LogicalErrorEstimate, SyndromeChunk,
};
use qccd_sim::FaultTable;
use support::code_capacity;

const SEED: u64 = 2026;

fn exact_ler(d: usize, p: f64, shots: usize) -> LogicalErrorEstimate {
    estimate_logical_error_rate_report(
        &code_capacity(d, p),
        shots,
        SEED,
        DecoderKind::ExactMatching,
        &EstimatorConfig::default(),
    )
    .expect("consistent annotations")
    .estimate
}

fn assert_monotone_in_p(d: usize) {
    let ps: Vec<f64> = (0..=8).map(|k| 0.07 + 0.005 * k as f64).collect();
    let estimates: Vec<LogicalErrorEstimate> =
        ps.iter().map(|&p| exact_ler(d, p, 40_000)).collect();
    for (pair, window) in ps.windows(2).zip(estimates.windows(2)) {
        let [low, high] = window else { unreachable!() };
        let sigma = low.std_error.hypot(high.std_error);
        assert!(
            high.logical_error_rate >= low.logical_error_rate - 3.0 * sigma,
            "d = {d}: LER falls from {} at p = {} to {} at p = {} (σ = {sigma})",
            low.logical_error_rate,
            pair[0],
            high.logical_error_rate,
            pair[1]
        );
    }
}

#[test]
fn exact_ler_is_monotone_in_p_at_d3() {
    assert_monotone_in_p(3);
}

#[test]
fn exact_ler_is_monotone_in_p_at_d5() {
    assert_monotone_in_p(5);
}

/// `fails[w]` = how many of the d = 3 patterns of weight `w` the exact
/// decoder mispredicts on the word path.
fn failing_patterns_by_weight_d3() -> [u64; 10] {
    // The signatures do not depend on p.
    let table = FaultTable::from_circuit(&code_capacity(3, 0.1)).expect("consistent annotations");
    assert_eq!(table.num_channels(), 9, "one channel per data qubit");
    let dem = table.dem();
    let decoder = ExactMatchingDecoder::new(DecodingGraph::from_dem(&dem));
    let shots: Vec<(Vec<usize>, Vec<usize>)> = (0u32..1 << 9)
        .map(|pattern| {
            let (mut fired, mut flipped) = (vec![false; dem.num_detectors], vec![false; 1]);
            for channel in (0..9).filter(|&c| pattern >> c & 1 == 1) {
                let (detectors, observables) = table.components(channel).next().expect("one");
                detectors.iter().for_each(|&t| fired[t as usize] ^= true);
                observables
                    .iter()
                    .for_each(|&o| flipped[o as usize] ^= true);
            }
            let on = |bits: Vec<bool>| (0..bits.len()).filter(|&i| bits[i]).collect();
            (on(fired), on(flipped))
        })
        .collect();
    assert_eq!(dem.num_observables, 1);
    let chunk = SyndromeChunk::from_shots(dem.num_detectors, 1, &shots);
    let words = decoder.decode_batch(&chunk, &mut DecodeScratch::new());
    let mut fails = [0u64; 10];
    for (pattern, (_, flipped)) in shots.iter().enumerate() {
        if words.predicted(pattern, 0) != (flipped.len() == 1) {
            fails[pattern.count_ones() as usize] += 1;
        }
    }
    fails
}

#[test]
fn exact_ler_matches_the_enumerated_polynomial_at_d3() {
    let fails = failing_patterns_by_weight_d3();
    let lowest = fails.iter().position(|&count| count > 0);
    assert_eq!(lowest, Some(2), "failing patterns by weight: {fails:?}");
    for p in [0.02_f64, 0.05, 0.1] {
        let exact: f64 = (0..=9)
            .map(|w| fails[w] as f64 * p.powi(w as i32) * (1.0 - p).powi(9 - w as i32))
            .sum();
        let sampled = exact_ler(3, p, 40_000);
        let sigma = (exact * (1.0 - exact) / sampled.shots as f64).sqrt();
        assert!(
            (sampled.logical_error_rate - exact).abs() <= 3.0 * sigma,
            "p = {p}: sampled {sampled:?}, enumerated {exact} (σ = {sigma})"
        );
    }
}
