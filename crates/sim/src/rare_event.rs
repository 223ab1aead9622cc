//! Importance-sampling support: biased noise channels plus the per-channel
//! log-likelihood ratios needed to reweight shots.
//!
//! Deep sub-threshold logical error rates need ~`1/LER` plain Monte-Carlo
//! shots per point. Importance sampling beats that wall by sampling error
//! configurations from a *biased* copy of the circuit — every noise channel's
//! probability scaled up by a common factor — and reweighting each shot by
//! its likelihood ratio under the true channel, which keeps the estimator
//! unbiased while failures become common enough to observe.
//!
//! For a channel with true probability `p` biased to `q`, a shot in which the
//! channel fires carries a log-likelihood-ratio increment
//! `ln(p/q) − ln((1−p)/(1−q))`, and every shot carries the shot-independent
//! base term `Σ ln((1−p)/(1−q))`. The *conditional* Pauli choice (X/Y/Z, or
//! one of the 15 two-qubit Paulis) is unaffected by scaling the total
//! probability, so fire/no-fire is the only event that contributes to the
//! weight.

use crate::{NoiseChannel, NoisyCircuit, NoisyOp};

/// Biased channel probabilities are clamped to this ceiling so the biased
/// distribution stays a valid (and geometrically sampleable) channel.
pub const MAX_BIASED_PROBABILITY: f64 = 0.5;

/// A noisy circuit with every channel probability scaled up for importance
/// sampling, together with the likelihood-ratio bookkeeping needed to
/// reweight shots sampled from it back to the original distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedCircuit {
    /// The biased circuit: identical gates, detectors and observables, with
    /// each noise probability `p` replaced by `clamp(bias · p)`.
    pub circuit: NoisyCircuit,
    /// Per-channel (in op order) log-likelihood-ratio increment applied to a
    /// shot whenever that channel fires in it. Feed straight into
    /// [`crate::FrameSampler::run_recording`].
    pub fire_log_ratios: Vec<f64>,
    /// Shot-independent base term `Σ_k ln((1−p_k)/(1−q_k))`: the log weight
    /// of a shot in which *no* channel fires.
    pub base_log_weight: f64,
    /// The bias factor the circuit was built with.
    pub bias: f64,
}

/// Builds the importance-sampling companion of `circuit`: every noise
/// channel's total probability `p` is scaled to `q = min(bias · p, 0.5)`
/// (never below `p`), while gates, detectors and observables are copied
/// verbatim so the biased circuit decodes against the *original* circuit's
/// detector error model.
///
/// A `bias` of 1 reproduces the original circuit with all-zero log ratios.
///
/// # Panics
///
/// Panics if `bias` is not finite or is below 1.
pub fn bias_circuit(circuit: &NoisyCircuit, bias: f64) -> BiasedCircuit {
    assert!(
        bias.is_finite() && bias >= 1.0,
        "importance-sampling bias must be a finite factor ≥ 1, got {bias}"
    );
    let mut biased = NoisyCircuit::new();
    biased.pad_qubits(circuit.num_qubits());
    let mut fire_log_ratios = Vec::with_capacity(circuit.num_noise_channels());
    let mut base_log_weight = 0.0;
    for op in circuit.ops() {
        match op {
            NoisyOp::Gate(instruction) => biased.push_gate(*instruction),
            NoisyOp::Noise(channel) => {
                let p = channel.total_probability();
                let q = (bias * p).min(MAX_BIASED_PROBABILITY).max(p);
                let no_fire_ratio = ((1.0 - p) / (1.0 - q)).ln();
                fire_log_ratios.push((p / q).ln() - no_fire_ratio);
                base_log_weight += no_fire_ratio;
                biased.push_noise(with_probability(channel, q));
            }
        }
    }
    for detector in circuit.detectors() {
        biased.add_detector(detector.clone());
    }
    for observable in circuit.observables() {
        biased.add_observable(observable.clone());
    }
    debug_assert_eq!(biased.num_noise_channels(), fire_log_ratios.len());
    BiasedCircuit {
        circuit: biased,
        fire_log_ratios,
        base_log_weight,
        bias,
    }
}

/// The same channel with its total probability replaced by `p`.
fn with_probability(channel: &NoiseChannel, p: f64) -> NoiseChannel {
    match *channel {
        NoiseChannel::Depolarize1 { qubit, .. } => NoiseChannel::Depolarize1 { qubit, p },
        NoiseChannel::Depolarize2 { a, b, .. } => NoiseChannel::Depolarize2 { a, b, p },
        NoiseChannel::BitFlip { qubit, .. } => NoiseChannel::BitFlip { qubit, p },
        NoiseChannel::PhaseFlip { qubit, .. } => NoiseChannel::PhaseFlip { qubit, p },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn sample_circuit() -> NoisyCircuit {
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
        circuit
    }

    #[test]
    fn bias_one_is_the_identity_transform() {
        let circuit = sample_circuit();
        let biased = bias_circuit(&circuit, 1.0);
        assert_eq!(biased.circuit, circuit);
        assert!(biased.fire_log_ratios.iter().all(|&r| r == 0.0));
        assert_eq!(biased.base_log_weight, 0.0);
    }

    #[test]
    fn bias_scales_probabilities_and_keeps_structure() {
        let circuit = sample_circuit();
        let biased = bias_circuit(&circuit, 10.0);
        assert_eq!(biased.circuit.ops().len(), circuit.ops().len());
        assert_eq!(biased.circuit.detectors(), circuit.detectors());
        assert_eq!(biased.circuit.observables(), circuit.observables());
        let probs: Vec<f64> = biased
            .circuit
            .ops()
            .iter()
            .filter_map(|op| match op {
                NoisyOp::Noise(c) => Some(c.total_probability()),
                NoisyOp::Gate(_) => None,
            })
            .collect();
        assert_eq!(probs, vec![1e-2, 2e-2]);
    }

    #[test]
    fn bias_clamps_at_half() {
        let mut circuit = NoisyCircuit::new();
        circuit.push_noise(NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.2,
        });
        let biased = bias_circuit(&circuit, 100.0);
        match biased.circuit.ops()[0] {
            NoisyOp::Noise(c) => assert_eq!(c.total_probability(), MAX_BIASED_PROBABILITY),
            NoisyOp::Gate(_) => panic!("expected a noise op"),
        }
    }

    #[test]
    fn log_ratios_match_direct_formula() {
        let circuit = sample_circuit();
        let bias = 25.0;
        let biased = bias_circuit(&circuit, bias);
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
        let mut circuit = NoisyCircuit::new();
        for &p in &ps {
            circuit.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
        }
        let biased = bias_circuit(&circuit, bias);
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
