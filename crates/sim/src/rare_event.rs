//! Importance-sampling support: biased noise channels plus the per-channel
//! log-likelihood ratios needed to reweight shots.
//!
//! Deep sub-threshold logical error rates need ~`1/LER` plain Monte-Carlo
//! shots per point. Importance sampling beats that wall by sampling error
//! configurations from a *biased* copy of the circuit's fault table — every
//! noise channel's probability scaled up by a common factor — and reweighting
//! each shot by its likelihood ratio under the true channel, which keeps the
//! estimator unbiased while failures become common enough to observe.
//!
//! For a channel with true probability `p` biased to `q`, a shot in which the
//! channel fires carries a log-likelihood-ratio increment
//! `ln(p/q) − ln((1−p)/(1−q))`, and every shot carries the shot-independent
//! base term `Σ ln((1−p)/(1−q))`. The *conditional* Pauli choice (X/Y/Z, or
//! one of the 15 two-qubit Paulis) is unaffected by scaling the total
//! probability, so fire/no-fire is the only event that contributes to the
//! weight.

use crate::FaultTable;

/// Biased channel probabilities are clamped to this ceiling so the biased
/// distribution stays a valid (and geometrically sampleable) channel.
pub const MAX_BIASED_PROBABILITY: f64 = 0.5;

/// A fault table with every channel probability scaled up for importance
/// sampling, together with the likelihood-ratio bookkeeping needed to
/// reweight shots sampled from it back to the original distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedTable {
    /// The biased table: identical signatures, with each channel
    /// probability `p` replaced by `clamp(bias · p)`.
    pub table: FaultTable,
    /// Per-channel (in op order) log-likelihood-ratio increment applied to a
    /// shot whenever that channel fires in it. Feed straight into
    /// [`crate::DetectorChunkSampler::sample_chunk_weighted`].
    pub fire_log_ratios: Vec<f64>,
    /// Shot-independent base term `Σ_k ln((1−p_k)/(1−q_k))`: the log weight
    /// of a shot in which *no* channel fires.
    pub base_log_weight: f64,
    /// The bias factor the table was built with.
    pub bias: f64,
}

impl FaultTable {
    /// Builds the importance-sampling companion of this table: every noise
    /// channel's total probability `p` is scaled to `q = min(bias · p, 0.5)`
    /// (never below `p`), while the signatures are kept, so shots sampled
    /// from it decode against the *original* table's detector error model.
    ///
    /// A `bias` of 1 reproduces the original table with all-zero log ratios.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not finite or is below 1.
    pub fn biased(&self, bias: f64) -> BiasedTable {
        assert!(
            bias.is_finite() && bias >= 1.0,
            "importance-sampling bias must be a finite factor ≥ 1, got {bias}"
        );
        let mut biased = Vec::with_capacity(self.num_channels());
        let mut fire_log_ratios = Vec::with_capacity(self.num_channels());
        let mut base_log_weight = 0.0;
        for &p in self.probabilities() {
            let q = (bias * p).min(MAX_BIASED_PROBABILITY).max(p);
            let no_fire_ratio = ((1.0 - p) / (1.0 - q)).ln();
            fire_log_ratios.push((p / q).ln() - no_fire_ratio);
            base_log_weight += no_fire_ratio;
            biased.push(q);
        }
        BiasedTable {
            table: self.with_probabilities(biased),
            fire_log_ratios,
            base_log_weight,
            bias,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NoiseChannel, NoisyCircuit};
    use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn sample_table() -> FaultTable {
        let mut circuit = NoisyCircuit::new();
        circuit.push_gate(Instruction::Reset(q(0)));
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 1e-3,
        });
        circuit.push_gate(Instruction::Cnot {
            control: q(0),
            target: q(1),
        });
        circuit.push_noise(NoiseChannel::Depolarize2 {
            a: q(0),
            b: q(1),
            p: 2e-3,
        });
        circuit.push_gate(Instruction::Measure(q(0)));
        circuit.push_gate(Instruction::Measure(q(1)));
        circuit.add_detector(Detector::new(vec![MeasurementRef::new(q(0), 0)]));
        circuit.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q(1), 0)]));
        FaultTable::from_circuit(&circuit).unwrap()
    }

    fn bit_flips(ps: &[f64]) -> FaultTable {
        let mut circuit = NoisyCircuit::new();
        for &p in ps {
            circuit.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
        }
        FaultTable::from_circuit(&circuit).unwrap()
    }

    #[test]
    fn bias_one_is_the_identity_transform() {
        let table = sample_table();
        let biased = table.biased(1.0);
        assert_eq!(biased.table, table);
        assert!(biased.fire_log_ratios.iter().all(|&r| r == 0.0));
        assert_eq!(biased.base_log_weight, 0.0);
    }

    #[test]
    fn bias_scales_probabilities_and_keeps_structure() {
        let table = sample_table();
        let biased = table.biased(10.0);
        assert_eq!(biased.table.probabilities(), [1e-2, 2e-2]);
        assert_eq!(
            biased.table,
            table.with_probabilities(vec![1e-2, 2e-2]),
            "signatures are untouched"
        );
    }

    #[test]
    #[should_panic(expected = "one probability per channel")]
    fn a_reweight_must_cover_every_channel() {
        sample_table().with_probabilities(vec![1e-2]);
    }

    #[test]
    fn bias_clamps_at_half() {
        let biased = bit_flips(&[0.2]).biased(100.0);
        assert_eq!(biased.table.probabilities(), [MAX_BIASED_PROBABILITY]);
    }

    #[test]
    fn log_ratios_match_direct_formula() {
        let bias = 25.0;
        let biased = sample_table().biased(bias);
        let ps = [1e-3, 2e-3];
        let mut base = 0.0;
        for (k, &p) in ps.iter().enumerate() {
            let q = (bias * p).min(MAX_BIASED_PROBABILITY);
            let expected = (p * (1.0 - q) / (q * (1.0 - p))).ln();
            assert!(
                (biased.fire_log_ratios[k] - expected).abs() < 1e-12,
                "channel {k}: {} vs {expected}",
                biased.fire_log_ratios[k]
            );
            base += ((1.0 - p) / (1.0 - q)).ln();
        }
        assert!((biased.base_log_weight - base).abs() < 1e-12);
        // A no-fault shot is more likely under the true channel than under
        // the bias, so its weight (the base term alone) exceeds 1.
        assert!(biased.base_log_weight > 0.0);
    }

    #[test]
    fn weights_average_to_one() {
        // E_q[w] = 1 exactly: check by enumerating fire patterns of a tiny
        // two-channel circuit.
        let ps = [0.01, 0.03];
        let bias = 12.0;
        let biased = bit_flips(&ps).biased(bias);
        let qs: Vec<f64> = ps.iter().map(|p| (bias * p).min(0.5)).collect();
        let mut total = 0.0;
        for pattern in 0..4u32 {
            let mut log_w = biased.base_log_weight;
            let mut prob_q = 1.0;
            for (k, &q_k) in qs.iter().enumerate() {
                if pattern & (1 << k) != 0 {
                    log_w += biased.fire_log_ratios[k];
                    prob_q *= q_k;
                } else {
                    prob_q *= 1.0 - q_k;
                }
            }
            total += prob_q * log_w.exp();
        }
        assert!((total - 1.0).abs() < 1e-12, "E_q[w] = {total}");
    }
}
