//! The sampling law of `DetectorChunkSampler`, stated without reference to
//! its stream.
//!
//! The goldens pin *which* bits a seed samples; this file pins the *law* the
//! bits follow, so a sampler that draws differently (another generator,
//! another way to draw a gap or to pick a component) must still pass it
//! unmodified. It decodes nothing: one synthetic circuit gives every channel
//! detectors of its own, so each shot's detector events name the faults
//! that fired in it. The circuit holds
//!
//! * lone bit flips at p ∈ {1, 0.9, 0.3, 2⁻⁴, 2⁻¹⁰, 2⁻¹⁷}, one per binary
//!   exponent, so each is its own bucket;
//! * a bit flip at 0.24 and one at 0.24 / 1.9, which share a bucket, so the
//!   second is thinned;
//! * a `Depolarize2(0.2)` on two Bell pairs, whose four detectors tell its
//!   15 components apart; it shares the bucket of the pair above, so it is
//!   thinned too;
//!
//! and is sampled over a total whose last block is ragged. It asserts that
//!
//! * every channel fires in a share of shots within 4σ of its binomial
//!   mean, and the p = 1 channel in every shot;
//! * the 15 components of the two-qubit channel pass a χ² test against
//!   uniform;
//! * the gaps between consecutive fires of each channel that fires often
//!   enough pass a χ² test against the geometric law.

use qccd_circuit::{Detector, Instruction, MeasurementRef, QubitId};
use qccd_sim::{DetectorChunkSampler, FaultTable, NoiseChannel, NoisyCircuit, SyndromeChunk};

/// 97 full blocks of 4 096 shots and a ragged one of 2 688.
const SHOTS: usize = 400_000;
/// Three blocks a chunk, so the last chunk is ragged too.
const CHUNK_SHOTS: usize = 3 * 4_096;
const SEED: u64 = 2026;

/// The lone bit flips, one bucket each.
const LONE: [f64; 6] = [1.0, 0.9, 0.3, 1.0 / 16.0, 1.0 / 1_024.0, 1.0 / 131_072.0];
/// The thinned pair: both in [2⁻³, 2⁻²).
const PAIR: [f64; 2] = [0.24, 0.24 / 1.9];
const DEPOLARIZE2: f64 = 0.2;

/// A z-score past which a statistic counts as failed: a correct sampler
/// trips it at about 3 · 10⁻⁵ per test.
const Z: f64 = 4.0;

fn q(i: u32) -> QubitId {
    QubitId::new(i)
}

fn detector(qubit: u32) -> Detector {
    Detector::new(vec![MeasurementRef::new(q(qubit), 0)])
}

/// Detectors `0..8` are the bit flips of `LONE` then `PAIR`, in order.
/// Detectors `8..12` read the two-qubit channel on qubits `a = 8` and
/// `b = 10`, each half of a Bell pair with `a + 1` and `b + 1`: undoing
/// the pair maps Z on the half to a flip of its own measurement and X on it
/// to a flip of its partner's, so detector `8 + k` fires iff bit `k` of
/// the component's code is set (bit 0 = X on a, 1 = Z on a, 2 = X on b,
/// 3 = Z on b).
fn law_circuit() -> NoisyCircuit {
    let mut c = NoisyCircuit::new();
    for (qubit, &p) in LONE.iter().chain(&PAIR).enumerate() {
        let qubit = q(qubit as u32);
        c.push_gate(Instruction::Reset(qubit));
        c.push_noise(NoiseChannel::BitFlip { qubit, p });
        c.push_gate(Instruction::Measure(qubit));
    }
    let bell = |c: &mut NoisyCircuit, half: u32| {
        c.push_gate(Instruction::H(q(half)));
        c.push_gate(Instruction::Cnot {
            control: q(half),
            target: q(half + 1),
        });
    };
    for qubit in 8..12 {
        c.push_gate(Instruction::Reset(q(qubit)));
    }
    bell(&mut c, 8);
    bell(&mut c, 10);
    c.push_noise(NoiseChannel::Depolarize2 {
        a: q(8),
        b: q(10),
        p: DEPOLARIZE2,
    });
    for half in [8, 10] {
        c.push_gate(Instruction::Cnot {
            control: q(half),
            target: q(half + 1),
        });
        c.push_gate(Instruction::H(q(half)));
    }
    // Z on a half flips its own measurement, X on it its partner's.
    for qubit in [9, 8, 11, 10] {
        c.push_gate(Instruction::Measure(q(qubit)));
    }
    for qubit in 0..8 {
        c.add_detector(detector(qubit));
    }
    for qubit in [9, 8, 11, 10] {
        c.add_detector(detector(qubit));
    }
    c
}

/// Per shot, in global shot order: the 12-bit mask of fired detectors.
fn sampled_masks() -> Vec<u16> {
    let table = FaultTable::from_circuit(&law_circuit()).expect("consistent annotations");
    let sampler = DetectorChunkSampler::from_table(&table, SHOTS, SEED, CHUNK_SHOTS);
    let mut masks = Vec::with_capacity(SHOTS);
    for chunk in sampler.chunks() {
        assert_eq!(chunk.shot_offset(), masks.len());
        assert_tail_clear(&chunk);
        masks.extend((0..chunk.num_shots()).map(|shot| {
            (0..chunk.num_detectors())
                .filter(|&d| chunk.detector_fired(shot, d))
                .fold(0u16, |mask, d| mask | 1 << d)
        }));
    }
    assert_eq!(masks.len(), SHOTS);
    masks
}

/// No bit is set past a chunk's last shot.
fn assert_tail_clear(chunk: &SyndromeChunk) {
    let tail = !chunk.tail_mask();
    for d in 0..chunk.num_detectors() {
        let last = chunk.detector_plane(d).last().copied().unwrap_or(0);
        assert_eq!(last & tail, 0, "detector {d} fired past the last shot");
    }
}

/// The upper `Z`-score quantile of χ² with `df` degrees of freedom
/// (Wilson–Hilferty).
fn chi2_critical(df: usize) -> f64 {
    let k = df as f64;
    let h = 2.0 / (9.0 * k);
    k * (1.0 - h + Z * h.sqrt()).powi(3)
}

/// Pearson's χ² of `observed` against `expected`; panics with `what` past
/// the critical value.
fn assert_chi2(what: &str, observed: &[f64], expected: &[f64]) {
    let chi2: f64 = (observed.iter().zip(expected))
        .map(|(o, e)| (o - e) * (o - e) / e)
        .sum();
    let critical = chi2_critical(observed.len() - 1);
    assert!(
        chi2 < critical,
        "{what}: χ² {chi2:.1} ≥ {critical:.1} over {} bins\nobserved {observed:?}\nexpected {expected:?}",
        observed.len()
    );
}

/// The shots in which detector `d` fired, ascending.
fn fires(masks: &[u16], d: usize) -> Vec<usize> {
    (masks.iter().enumerate())
        .filter(|&(_, &mask)| mask >> d & 1 == 1)
        .map(|(shot, _)| shot)
        .collect()
}

fn assert_binomial(what: &str, count: usize, p: f64) {
    let mean = SHOTS as f64 * p;
    let sigma = (mean * (1.0 - p)).sqrt();
    assert!(
        (count as f64 - mean).abs() <= Z * sigma,
        "{what}: {count} fires against a mean of {mean:.1} (σ {sigma:.1})"
    );
}

#[test]
fn every_channel_fires_at_its_probability() {
    let masks = sampled_masks();
    for (d, &p) in LONE.iter().chain(&PAIR).enumerate() {
        assert_binomial(&format!("bit flip at {p}"), fires(&masks, d).len(), p);
    }
    assert!(
        masks.iter().all(|&mask| mask & 1 == 1),
        "the p = 1 channel skipped a shot"
    );
    let two_qubit = masks.iter().filter(|&&mask| mask >> 8 != 0).count();
    assert_binomial("Depolarize2", two_qubit, DEPOLARIZE2);
}

#[test]
fn a_firing_channel_picks_its_components_uniformly() {
    let masks = sampled_masks();
    let mut observed = vec![0.0; 15];
    for &mask in &masks {
        let code = usize::from(mask >> 8);
        if code != 0 {
            observed[code - 1] += 1.0;
        }
    }
    let fired: f64 = observed.iter().sum();
    assert_chi2("Depolarize2 components", &observed, &[fired / 15.0; 15]);
}

#[test]
fn the_gaps_between_fires_are_geometric() {
    let masks = sampled_masks();
    // Channels with enough fires for a binned test; the rarer ones are
    // held to their counts above.
    for (d, &p) in LONE.iter().chain(&PAIR).enumerate() {
        if p >= 1.0 || SHOTS as f64 * p < 5_000.0 {
            continue;
        }
        let gaps: Vec<usize> = fires(&masks, d).windows(2).map(|w| w[1] - w[0]).collect();
        let n = gaps.len() as f64;
        // Bin gap g = 1, 2, … while a bin expects at least 20; the last bin
        // takes the tail.
        let pmf = |g: usize| (1.0 - p).powi(g as i32 - 1) * p;
        let mut expected = Vec::new();
        let mut tail = 1.0;
        while n * pmf(expected.len() + 1) >= 20.0 && n * (tail - pmf(expected.len() + 1)) >= 20.0 {
            let g = expected.len() + 1;
            expected.push(n * pmf(g));
            tail -= pmf(g);
        }
        expected.push(n * tail);
        let last = expected.len() - 1;
        let mut observed = vec![0.0; expected.len()];
        for &g in &gaps {
            observed[(g - 1).min(last)] += 1.0;
        }
        assert_chi2(&format!("gaps at p = {p}"), &observed, &expected);
    }
}
