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
//! modelling the 1X/5X/10X scenarios swept in the evaluation (§6.2). Each
//! probability is an [`Unscaled`] value (one `NoiseParams::*_unscaled`
//! method per channel) that no gate improvement touches, finished by
//! [`Unscaled::at`] — the one formula through which the factor enters — so
//! a sweep can lower a schedule once and re-weight it per improvement. The
//! WISE wiring method operates with sympathetic cooling: gate errors become
//! constants (2·10⁻³ for two-qubit, 3·10⁻³ for single-qubit gates), heating
//! is ignored, and two-qubit gates take an extra 850 µs (§5.1, cooling
//! model).

/// Calibrated physical noise parameters for a QCCD trapped-ion device.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    /// microseconds of idling or reconfiguration (error channel e1), before
    /// the gate improvement.
    pub fn dephasing_unscaled(&self, idle_us: f64) -> Unscaled {
        let value = if idle_us <= 0.0 {
            0.0
        } else {
            let t = idle_us * 1e-6;
            (1.0 - (-t / self.t2_seconds).exp()) / 2.0
        };
        Unscaled::clamped(value, 0.5)
    }

    /// Depolarising probability after a single-qubit gate of the given
    /// duration executed in a chain of `chain_length` ions with motional
    /// energy `nbar` (error channel e2), before the gate improvement.
    pub fn single_qubit_gate_unscaled(
        &self,
        duration_us: f64,
        chain_length: usize,
        nbar: f64,
    ) -> Unscaled {
        if self.cooled {
            return Unscaled::clamped(self.cooled_single_qubit_error, 0.75);
        }
        self.gate_unscaled(duration_us, chain_length, nbar)
    }

    /// Depolarising probability after a two-qubit MS gate (error channel
    /// e3), before the gate improvement.
    pub fn two_qubit_gate_unscaled(
        &self,
        duration_us: f64,
        chain_length: usize,
        nbar: f64,
    ) -> Unscaled {
        if self.cooled {
            return Unscaled::clamped(self.cooled_two_qubit_error, 0.9375);
        }
        self.gate_unscaled(duration_us, chain_length, nbar)
    }

    /// The two-qubit depolarising channel of an in-chain gate swap of total
    /// duration `duration_us`, before the gate improvement: three MS gates
    /// of a third of that duration each, any of which may fail.
    pub fn gate_swap_unscaled(&self, duration_us: f64, chain_length: usize, nbar: f64) -> Unscaled {
        let per_gate = self.two_qubit_gate_unscaled(duration_us / 3.0, chain_length, nbar);
        Unscaled {
            finish: Finish::ThreeGates(per_gate.finish.cap()),
            ..per_gate
        }
    }

    /// Bit-flip probability of an imperfect reset (error channel e4), before
    /// the gate improvement.
    pub fn reset_flip_unscaled(&self) -> Unscaled {
        Unscaled::clamped(self.reset_error, 0.5)
    }

    /// Bit-flip probability of an imperfect measurement (error channel e5),
    /// before the gate improvement.
    pub fn measurement_flip_unscaled(&self) -> Unscaled {
        Unscaled::clamped(self.measurement_error, 0.5)
    }

    fn gate_unscaled(&self, duration_us: f64, chain_length: usize, nbar: f64) -> Unscaled {
        let heating = self.background_heating_per_us * duration_us;
        let thermal = self.chain_factor(chain_length) * (2.0 * nbar.max(0.0) + 1.0);
        Unscaled::clamped(heating + thermal, 0.9)
    }
}

/// How a channel probability is finished from its unscaled value once the
/// gate improvement `g` is known.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Finish {
    /// `(value / g).clamp(0, cap)`.
    Clamp(f64),
    /// Three gates in a row, each finished as [`Finish::Clamp`]: the
    /// probability that any fails, `1 − (1 − (value / g).clamp(0, cap))³`.
    ThreeGates(f64),
}

impl Finish {
    fn cap(self) -> f64 {
        match self {
            Finish::Clamp(cap) | Finish::ThreeGates(cap) => cap,
        }
    }
}

/// A channel probability before the gate improvement divides it: the
/// value every gate improvement shares, and the rule that finishes it.
///
/// Every probability of [`NoiseParams`] is a `*_unscaled` method finished
/// by [`Unscaled::at`]: `params.two_qubit_gate_unscaled(τ, n, n̄)
/// .at(params.gate_improvement)` is the channel at the parameters' own
/// gate improvement. The `*_unscaled` methods never read
/// `gate_improvement`, so a channel lowered once can be re-weighted to any
/// gate improvement and match, bit for bit, the channel a fresh lowering
/// at that improvement emits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unscaled {
    value: f64,
    finish: Finish,
}

impl Unscaled {
    fn clamped(value: f64, cap: f64) -> Self {
        Unscaled {
            value,
            finish: Finish::Clamp(cap),
        }
    }

    /// The probability at gate improvement `gate_improvement`: the one
    /// place a gate improvement enters a probability.
    pub fn at(self, gate_improvement: f64) -> f64 {
        let p = (self.value / gate_improvement).clamp(0.0, self.finish.cap());
        match self.finish {
            Finish::Clamp(_) => p,
            Finish::ThreeGates(_) => 1.0 - (1.0 - p).powi(3),
        }
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
        assert_eq!(p.dephasing_unscaled(0.0).at(1.0), 0.0);
        let one_ms = p.dephasing_unscaled(1_000.0).at(1.0);
        let ten_ms = p.dephasing_unscaled(10_000.0).at(1.0);
        assert!(one_ms < ten_ms);
        let expected = (1.0 - (-0.001f64 / 2.2).exp()) / 2.0;
        assert!((one_ms - expected).abs() < 1e-12);
    }

    #[test]
    fn gate_improvement_divides_probabilities() {
        let base = NoiseParams::standard(1.0);
        let improved = NoiseParams::standard(10.0);
        for (at_1x, at_10x) in [
            (
                base.two_qubit_gate_unscaled(40.0, 2, 0.1),
                improved.two_qubit_gate_unscaled(40.0, 2, 0.1),
            ),
            (
                base.measurement_flip_unscaled(),
                improved.measurement_flip_unscaled(),
            ),
            (
                base.dephasing_unscaled(500.0),
                improved.dephasing_unscaled(500.0),
            ),
        ] {
            let divided = 10.0 * at_10x.at(improved.gate_improvement);
            assert!((at_1x.at(base.gate_improvement) - divided).abs() < 1e-12);
        }
    }

    #[test]
    fn heating_increases_gate_error() {
        let p = NoiseParams::standard(1.0);
        let cold = p.two_qubit_gate_unscaled(40.0, 2, 0.1).at(1.0);
        let hot = p.two_qubit_gate_unscaled(40.0, 2, 60.0).at(1.0);
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
        let long = p.two_qubit_gate_unscaled(80.0, 2, 0.1).at(1.0);
        assert!(long > p.two_qubit_gate_unscaled(40.0, 2, 0.1).at(1.0));
    }

    #[test]
    fn cooled_mode_uses_constant_gate_errors() {
        let p = NoiseParams::wise_cooled(1.0);
        assert!(p.cooled);
        // Independent of chain length and heating.
        assert_eq!(
            p.two_qubit_gate_unscaled(890.0, 2, 0.1).at(1.0),
            p.two_qubit_gate_unscaled(890.0, 20, 50.0).at(1.0)
        );
        let two_qubit = p.two_qubit_gate_unscaled(890.0, 2, 0.0).at(1.0);
        assert!((two_qubit - 2.0e-3).abs() < 1e-12);
        let single_qubit = p.single_qubit_gate_unscaled(5.0, 2, 0.0).at(1.0);
        assert!((single_qubit - 3.0e-3).abs() < 1e-12);
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
        assert!(p.two_qubit_gate_unscaled(1e9, 2, 1e9).at(1.0) <= 0.9);
        assert!(p.dephasing_unscaled(1e12).at(1.0) <= 0.5);
    }

    /// The pre-split formulas, written out: what each probability was
    /// before the gate improvement was factored into [`Unscaled::at`].
    /// `cooled` is the cooled-mode constant and its cap.
    fn oracle_gate(
        p: &NoiseParams,
        (duration_us, chain, nbar): (f64, usize, f64),
        (cooled, cap): (f64, f64),
    ) -> f64 {
        if p.cooled {
            return (cooled / p.gate_improvement).clamp(0.0, cap);
        }
        let heating = p.background_heating_per_us * duration_us;
        let thermal = p.chain_factor(chain) * (2.0 * nbar.max(0.0) + 1.0);
        ((heating + thermal) / p.gate_improvement).clamp(0.0, 0.9)
    }

    #[test]
    fn split_form_reproduces_every_probability_bit_for_bit() {
        // Inputs past every cap: a reset/measurement error above 0.5, cooled
        // errors above 0.75 / 0.9375, an idle long enough to saturate, a gate
        // hot enough to pass 0.9, and a negative duration that clamps to 0.
        let hostile = |cooled: bool| NoiseParams {
            reset_error: 0.8,
            measurement_error: 0.7,
            cooled_two_qubit_error: 0.99,
            cooled_single_qubit_error: 0.8,
            cooled,
            ..NoiseParams::standard(1.0)
        };
        let bases = [
            NoiseParams::standard(1.0),
            NoiseParams::wise_cooled(1.0),
            hostile(false),
            hostile(true),
        ];
        let idles = [0.0, -3.0, 1e-9, 400.0, 1e12];
        let gates = [
            (40.0, 2, 0.1),
            (120.0, 5, 37.5),
            (5.0, 12, 0.0),
            (1e9, 2, 1e9),
            (-1e9, 2, 0.0),
        ];
        for base in bases {
            for g in [1.0, 5.0, 10.0, 1000.0] {
                let at_g = NoiseParams {
                    gate_improvement: g,
                    ..base
                };
                // The unscaled value is the same whatever improvement the
                // parameters carry, and finishes at `g` to the oracle.
                let same = |split: Unscaled, at_g_split: Unscaled, oracle: f64| {
                    assert_eq!(split, at_g_split, "{base:?} at {g}");
                    assert_eq!(split.at(g).to_bits(), oracle.to_bits(), "{base:?} at {g}");
                };
                for idle in idles {
                    let oracle = if idle <= 0.0 {
                        0.0
                    } else {
                        let p = (1.0 - (-(idle * 1e-6) / base.t2_seconds).exp()) / 2.0;
                        (p / g).clamp(0.0, 0.5)
                    };
                    same(
                        base.dephasing_unscaled(idle),
                        at_g.dephasing_unscaled(idle),
                        oracle,
                    );
                }
                let one_qubit = (base.cooled_single_qubit_error, 0.75);
                let two_qubit = (base.cooled_two_qubit_error, 0.9375);
                for (duration, chain, nbar) in gates {
                    same(
                        base.single_qubit_gate_unscaled(duration, chain, nbar),
                        at_g.single_qubit_gate_unscaled(duration, chain, nbar),
                        oracle_gate(&at_g, (duration, chain, nbar), one_qubit),
                    );
                    same(
                        base.two_qubit_gate_unscaled(duration, chain, nbar),
                        at_g.two_qubit_gate_unscaled(duration, chain, nbar),
                        oracle_gate(&at_g, (duration, chain, nbar), two_qubit),
                    );
                    // A gate swap is three MS gates of a third of its duration.
                    let per_gate = oracle_gate(&at_g, (duration / 3.0, chain, nbar), two_qubit);
                    let swap = 1.0 - (1.0 - per_gate).powi(3);
                    assert_eq!(
                        base.gate_swap_unscaled(duration, chain, nbar)
                            .at(g)
                            .to_bits(),
                        swap.to_bits()
                    );
                }
                same(
                    base.reset_flip_unscaled(),
                    at_g.reset_flip_unscaled(),
                    (base.reset_error / g).clamp(0.0, 0.5),
                );
                same(
                    base.measurement_flip_unscaled(),
                    at_g.measurement_flip_unscaled(),
                    (base.measurement_error / g).clamp(0.0, 0.5),
                );
            }
        }
        // The hostile inputs do reach every cap.
        let hot = hostile(false);
        let cold = hostile(true);
        assert_eq!(hot.reset_flip_unscaled().at(1.0), 0.5);
        assert_eq!(hot.two_qubit_gate_unscaled(1e9, 2, 1e9).at(1.0), 0.9);
        assert_eq!(hot.two_qubit_gate_unscaled(-1e9, 2, 0.0).at(1.0), 0.0);
        assert_eq!(cold.two_qubit_gate_unscaled(1.0, 2, 0.0).at(1.0), 0.9375);
        assert_eq!(cold.single_qubit_gate_unscaled(1.0, 2, 0.0).at(1.0), 0.75);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_improvement_rejected() {
        NoiseParams::standard(0.0);
    }
}
