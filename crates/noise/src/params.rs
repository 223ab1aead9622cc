//! Noise parameters and per-operation error probability models (§5.1).
//!
//! The paper's error model has five independent stochastic Pauli channels:
//!
//! * **e1 — dephasing**: during idling or ion reconfiguration, a Pauli Z
//!   error occurs with probability `(1 − exp(−t/T₂))/2`, with `T₂ = 2.2 s`;
//! * **e2 / e3 — depolarising noise after single-/two-qubit gates**, with a
//!   probability that grows with the gate duration (background heating,
//!   `Γ·τ`) and the motional energy of the ion chain
//!   (`A(N)·(2n̄ + 1)`, where `A ∝ ln(N+1)/N` and `n̄` is the chain's mean
//!   vibrational quanta);
//! * **e4 — imperfect reset**: an X error with probability 5·10⁻³;
//! * **e5 — imperfect measurement**: an X error with probability 1·10⁻³.
//!
//! A *gate improvement* factor uniformly divides every probability,
//! modelling the 1X/5X/10X scenarios swept in the evaluation (§6.2). The
//! WISE wiring method operates with sympathetic cooling: gate errors become
//! constants (2·10⁻³ for two-qubit, 3·10⁻³ for single-qubit gates), heating
//! is ignored, and two-qubit gates take an extra 850 µs (§5.1, cooling
//! model).

use serde::{Deserialize, Serialize};

/// Calibrated physical noise parameters for a QCCD trapped-ion device.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseParams {
    /// Qubit coherence (dephasing) time T₂ in seconds.
    pub t2_seconds: f64,
    /// Background heating contribution per microsecond of gate time (Γ).
    pub background_heating_per_us: f64,
    /// Laser-instability coefficient A₀; the chain-length-dependent factor
    /// is `A(N) = A₀ · ln(N + 1) / N`.
    pub laser_instability_a0: f64,
    /// Baseline motional quanta of a cold chain.
    pub base_nbar: f64,
    /// Imperfect-reset bit-flip probability (e4) before improvement scaling.
    pub reset_error: f64,
    /// Imperfect-measurement bit-flip probability (e5) before improvement
    /// scaling.
    pub measurement_error: f64,
    /// Uniform gate-improvement factor (1.0 = today's hardware, 10.0 = 10X
    /// better gates and 10X less dephasing).
    pub gate_improvement: f64,
    /// Whether sympathetic cooling is applied before two-qubit gates (the
    /// WISE operating mode). When set, gate errors use the cooled constants
    /// and heating is ignored.
    pub cooled: bool,
    /// Cooled-mode two-qubit gate error (before improvement scaling).
    pub cooled_two_qubit_error: f64,
    /// Cooled-mode single-qubit gate error (before improvement scaling).
    pub cooled_single_qubit_error: f64,
}

impl Default for NoiseParams {
    fn default() -> Self {
        NoiseParams::standard(1.0)
    }
}

impl NoiseParams {
    /// Parameters for the standard (uncooled) architecture at the given gate
    /// improvement factor.
    ///
    /// The laser-instability coefficient `A₀` is calibrated against the
    /// paper's stated anchor (§5.1): a 5X gate improvement corresponds to
    /// ≈10⁻³ depolarising error per qubit gate at the motional energies a
    /// capacity-2 ancilla reaches mid-round after its Table-1 transport
    /// sequence (n̄ of a few tens of quanta). The calibration is to be
    /// re-derived against the §5.1 anchor (ROADMAP item 2 (i)).
    ///
    /// # Panics
    ///
    /// Panics if `gate_improvement` is not positive.
    pub fn standard(gate_improvement: f64) -> Self {
        assert!(gate_improvement > 0.0, "gate improvement must be positive");
        NoiseParams {
            t2_seconds: 2.2,
            background_heating_per_us: 1.0e-5,
            laser_instability_a0: 5.0e-5,
            base_nbar: 0.1,
            reset_error: 5.0e-3,
            measurement_error: 1.0e-3,
            gate_improvement,
            cooled: false,
            cooled_two_qubit_error: 2.0e-3,
            cooled_single_qubit_error: 3.0e-3,
        }
    }

    /// Parameters for the WISE architecture with sympathetic cooling, at the
    /// given gate improvement factor.
    ///
    /// # Panics
    ///
    /// Panics if `gate_improvement` is not positive.
    pub fn wise_cooled(gate_improvement: f64) -> Self {
        NoiseParams {
            cooled: true,
            ..NoiseParams::standard(gate_improvement)
        }
    }

    /// The chain-length scaling factor `A(N) = A₀ · ln(N + 1) / N`.
    pub fn chain_factor(&self, chain_length: usize) -> f64 {
        let n = chain_length.max(1) as f64;
        self.laser_instability_a0 * (n + 1.0).ln() / n
    }

    /// Dephasing (Pauli Z) probability accumulated over `idle_us`
    /// microseconds of idling or reconfiguration (error channel e1).
    pub fn dephasing_probability(&self, idle_us: f64) -> f64 {
        if idle_us <= 0.0 {
            return 0.0;
        }
        let t = idle_us * 1e-6;
        let p = (1.0 - (-t / self.t2_seconds).exp()) / 2.0;
        (p / self.gate_improvement).clamp(0.0, 0.5)
    }

    /// Depolarising probability after a single-qubit gate of the given
    /// duration executed in a chain of `chain_length` ions with motional
    /// energy `nbar` (error channel e2).
    pub fn single_qubit_gate_error(&self, duration_us: f64, chain_length: usize, nbar: f64) -> f64 {
        if self.cooled {
            return (self.cooled_single_qubit_error / self.gate_improvement).clamp(0.0, 0.75);
        }
        self.gate_error(duration_us, chain_length, nbar)
    }

    /// Depolarising probability after a two-qubit MS gate (error channel e3).
    pub fn two_qubit_gate_error(&self, duration_us: f64, chain_length: usize, nbar: f64) -> f64 {
        if self.cooled {
            return (self.cooled_two_qubit_error / self.gate_improvement).clamp(0.0, 0.9375);
        }
        self.gate_error(duration_us, chain_length, nbar)
    }

    fn gate_error(&self, duration_us: f64, chain_length: usize, nbar: f64) -> f64 {
        let heating = self.background_heating_per_us * duration_us;
        let thermal = self.chain_factor(chain_length) * (2.0 * nbar.max(0.0) + 1.0);
        ((heating + thermal) / self.gate_improvement).clamp(0.0, 0.9)
    }

    /// Bit-flip probability of an imperfect reset (error channel e4).
    pub fn reset_flip_probability(&self) -> f64 {
        (self.reset_error / self.gate_improvement).clamp(0.0, 0.5)
    }

    /// Bit-flip probability of an imperfect measurement (error channel e5).
    pub fn measurement_flip_probability(&self) -> f64 {
        (self.measurement_error / self.gate_improvement).clamp(0.0, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let p = NoiseParams::default();
        assert_eq!(p.t2_seconds, 2.2);
        assert_eq!(p.reset_error, 5.0e-3);
        assert_eq!(p.measurement_error, 1.0e-3);
        assert_eq!(p.gate_improvement, 1.0);
        assert!(!p.cooled);
    }

    #[test]
    fn dephasing_grows_with_idle_time_and_matches_formula() {
        let p = NoiseParams::standard(1.0);
        assert_eq!(p.dephasing_probability(0.0), 0.0);
        let one_ms = p.dephasing_probability(1_000.0);
        let ten_ms = p.dephasing_probability(10_000.0);
        assert!(one_ms < ten_ms);
        let expected = (1.0 - (-0.001f64 / 2.2).exp()) / 2.0;
        assert!((one_ms - expected).abs() < 1e-12);
    }

    #[test]
    fn gate_improvement_divides_probabilities() {
        let base = NoiseParams::standard(1.0);
        let improved = NoiseParams::standard(10.0);
        assert!(
            (base.two_qubit_gate_error(40.0, 2, 0.1)
                - 10.0 * improved.two_qubit_gate_error(40.0, 2, 0.1))
            .abs()
                < 1e-12
        );
        assert!(
            (base.measurement_flip_probability() - 10.0 * improved.measurement_flip_probability())
                .abs()
                < 1e-12
        );
        assert!(
            (base.dephasing_probability(500.0) - 10.0 * improved.dephasing_probability(500.0))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn heating_increases_gate_error() {
        let p = NoiseParams::standard(1.0);
        let cold = p.two_qubit_gate_error(40.0, 2, 0.1);
        let hot = p.two_qubit_gate_error(40.0, 2, 60.0);
        assert!(hot > cold);
        // Magnitudes match the paper's calibration anchor: today's (1X)
        // hardware sits in the low-10⁻³ range for heavily-heated gates and a
        // few 10⁻⁴ for cold gates, so a 5X improvement lands near 10⁻³ for a
        // typical mid-round gate.
        assert!(cold > 1e-4 && cold < 2e-3, "cold error {cold}");
        assert!(hot > 1e-3 && hot < 2e-2, "hot error {hot}");
    }

    #[test]
    fn longer_gates_are_noisier() {
        let p = NoiseParams::standard(1.0);
        assert!(p.two_qubit_gate_error(80.0, 2, 0.1) > p.two_qubit_gate_error(40.0, 2, 0.1));
    }

    #[test]
    fn cooled_mode_uses_constant_gate_errors() {
        let p = NoiseParams::wise_cooled(1.0);
        assert!(p.cooled);
        // Independent of chain length and heating.
        assert_eq!(
            p.two_qubit_gate_error(890.0, 2, 0.1),
            p.two_qubit_gate_error(890.0, 20, 50.0)
        );
        assert!((p.two_qubit_gate_error(890.0, 2, 0.0) - 2.0e-3).abs() < 1e-12);
        assert!((p.single_qubit_gate_error(5.0, 2, 0.0) - 3.0e-3).abs() < 1e-12);
    }

    #[test]
    fn chain_factor_is_positive_and_decays_for_long_chains() {
        let p = NoiseParams::standard(1.0);
        assert!(p.chain_factor(1) > 0.0);
        assert!(p.chain_factor(2) > p.chain_factor(30));
    }

    #[test]
    fn probabilities_are_clamped_to_valid_ranges() {
        let p = NoiseParams::standard(1.0);
        assert!(p.two_qubit_gate_error(1e9, 2, 1e9) <= 0.9);
        assert!(p.dephasing_probability(1e12) <= 0.5);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_improvement_rejected() {
        NoiseParams::standard(0.0);
    }
}
