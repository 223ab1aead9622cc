//! Exhaustive low-weight oracle for the exact matching decoder.
//!
//! On a code-capacity circuit — the rotated surface code, one round, a
//! `BitFlip(p)` on every data qubit before the round and perfect
//! measurement — any minimum-weight decoder of a distance-`d` code must
//! correct every data-flip pattern of weight at most `(d − 1) / 2`. This
//! test enumerates all of them (9, 325 and 19 649 patterns at d = 3, 5 and
//! 7), builds each pattern's syndrome and observable flip from the fault
//! table's per-channel signatures, and asserts that `ExactMatchingDecoder`
//! predicts that flip on both the per-shot path (`Decoder::decode`) and the
//! word path (`Decoder::decode_batch`).
//!
//! The oracle does not come from the decoder's own reference: it is what
//! the code distance requires. Union-find is not run here, because it
//! fails it: its `round(2w)` edge lengths let a bulk edge of odd length tie
//! a boundary edge the true weights rank as longer (one of the 9 single
//! flips at d = 3 for p in 0.085–0.095 and 0.13–0.2, some of the d = 5 and
//! d = 7 patterns near p = 0.13). It joins this oracle together with the
//! fix.
//!
//! Tier-1 runs d = 3 and 5 at every p from 0.005 to 0.2 in steps of 0.005
//! and d = 7 at a few values of p; the ignored test runs d = 7 on the whole
//! grid (CI's release step includes it).

#[allow(dead_code)]
mod support;

use qccd_decoder::{DecodeScratch, Decoder, DecodingGraph, ExactMatchingDecoder, SyndromeChunk};
use qccd_sim::FaultTable;
use support::code_capacity;

/// Every `k`-subset of `0..n` for `k` in `1..=max_weight`, ascending.
fn patterns(n: usize, max_weight: usize) -> Vec<Vec<usize>> {
    fn extend(n: usize, left: usize, pattern: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if left == 0 {
            out.push(pattern.clone());
            return;
        }
        let start = pattern.last().map_or(0, |&last| last + 1);
        for next in start..n {
            pattern.push(next);
            extend(n, left - 1, pattern, out);
            pattern.pop();
        }
    }
    let mut out = Vec::new();
    for weight in 1..=max_weight {
        extend(n, weight, &mut Vec::new(), &mut out);
    }
    out
}

/// Symmetric difference of sorted index lists.
fn toggle(set: &mut Vec<usize>, items: &[u32]) {
    for &item in items {
        let item = item as usize;
        match set.binary_search(&item) {
            Ok(at) => {
                set.remove(at);
            }
            Err(at) => set.insert(at, item),
        }
    }
}

/// Decodes every pattern of weight ≤ (d − 1)/2 at `(d, p)` on both paths
/// and returns the patterns mispredicted on either, with the pattern count.
fn failures(d: usize, p: f64) -> (usize, Vec<Vec<usize>>) {
    let circuit = code_capacity(d, p);
    let table = FaultTable::from_circuit(&circuit).expect("valid annotations");
    assert_eq!(table.num_channels(), d * d, "one channel per data qubit");
    let signatures: Vec<(&[u32], &[u32])> = (0..table.num_channels())
        .map(|channel| {
            let mut components = table.components(channel);
            let signature = components.next().expect("a bit flip has one component");
            assert!(components.next().is_none(), "a bit flip has one component");
            signature
        })
        .collect();
    let dem = table.dem();
    let decoder = ExactMatchingDecoder::new(DecodingGraph::from_dem(&dem));

    let all = patterns(d * d, (d - 1) / 2);
    let shots: Vec<(Vec<usize>, Vec<usize>)> = all
        .iter()
        .map(|pattern| {
            let (mut fired, mut flipped) = (Vec::new(), Vec::new());
            for &channel in pattern {
                let (detectors, observables) = signatures[channel];
                toggle(&mut fired, detectors);
                toggle(&mut flipped, observables);
            }
            (fired, flipped)
        })
        .collect();
    let chunk = SyndromeChunk::from_shots(dem.num_detectors, dem.num_observables, &shots);
    let words = decoder.decode_batch(&chunk, &mut DecodeScratch::new());

    let mut wrong = Vec::new();
    for (shot, ((fired, flipped), pattern)) in shots.iter().zip(&all).enumerate() {
        let truth: Vec<bool> = (0..dem.num_observables)
            .map(|o| flipped.contains(&o))
            .collect();
        let word_path: Vec<bool> = (0..dem.num_observables)
            .map(|o| words.predicted(shot, o))
            .collect();
        if decoder.decode(fired) != truth || word_path != truth {
            wrong.push(pattern.clone());
        }
    }
    (all.len(), wrong)
}

fn assert_corrects_low_weight(d: usize, ps: impl IntoIterator<Item = f64>, expected: usize) {
    for p in ps {
        let (count, wrong) = failures(d, p);
        assert_eq!(count, expected, "d = {d}: pattern count");
        assert!(
            wrong.is_empty(),
            "d = {d}, p = {p}: {} of {count} patterns mispredicted, first {:?}",
            wrong.len(),
            &wrong[..wrong.len().min(5)]
        );
    }
}

/// p = 0.005, 0.010, …, 0.200.
fn grid() -> impl Iterator<Item = f64> {
    (1..=40).map(|k| 0.005 * k as f64)
}

#[test]
fn exact_corrects_every_low_weight_pattern_at_d3() {
    assert_corrects_low_weight(3, grid(), 9);
}

#[test]
fn exact_corrects_every_low_weight_pattern_at_d5() {
    assert_corrects_low_weight(5, grid(), 325);
}

#[test]
fn exact_corrects_every_low_weight_pattern_at_d7() {
    assert_corrects_low_weight(7, [0.01, 0.09, 0.13, 0.2], 19_649);
}

#[test]
#[ignore = "the whole p grid at d = 7; CI's release step runs it"]
fn exact_corrects_every_low_weight_pattern_at_d7_on_the_whole_grid() {
    assert_corrects_low_weight(7, grid(), 19_649);
}
