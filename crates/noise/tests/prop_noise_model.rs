//! Property-based tests for the §5.1 noise model.
//!
//! Every quantity the model produces is a probability and must respond
//! monotonically to the physical knobs the paper sweeps: idle time, gate
//! duration, chain length, motional energy and the gate-improvement factor.

use proptest::prelude::*;

use qccd_noise::NoiseParams;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dephasing_is_a_probability_and_grows_with_idle_time(
        improvement in 1.0f64..10.0,
        idle_us in 0.0f64..1e6,
        extra_us in 0.0f64..1e6,
    ) {
        let params = NoiseParams::standard(improvement);
        let p = params.dephasing_unscaled(idle_us).at(params.gate_improvement);
        let p_longer = params.dephasing_unscaled(idle_us + extra_us).at(params.gate_improvement);
        prop_assert!((0.0..=0.5).contains(&p), "p = {p}");
        prop_assert!(p_longer >= p - 1e-15);
    }

    #[test]
    fn gate_errors_are_probabilities(
        improvement in 1.0f64..10.0,
        duration_us in 1.0f64..1000.0,
        chain_length in 1usize..40,
        nbar in 0.0f64..10.0,
    ) {
        let params = NoiseParams::standard(improvement);
        let single = params.single_qubit_gate_unscaled(duration_us, chain_length, nbar).at(params.gate_improvement);
        let double = params.two_qubit_gate_unscaled(duration_us, chain_length, nbar).at(params.gate_improvement);
        prop_assert!((0.0..=1.0).contains(&single), "single {single}");
        prop_assert!((0.0..=1.0).contains(&double), "double {double}");
    }

    #[test]
    fn heating_makes_gates_worse(
        improvement in 1.0f64..10.0,
        duration_us in 1.0f64..500.0,
        chain_length in 1usize..30,
        nbar in 0.0f64..5.0,
        extra_nbar in 0.1f64..5.0,
    ) {
        // More motional quanta (from shuttling/splitting/merging) must never
        // make a gate better.
        let params = NoiseParams::standard(improvement);
        let cool = params.two_qubit_gate_unscaled(duration_us, chain_length, nbar).at(params.gate_improvement);
        let hot = params.two_qubit_gate_unscaled(duration_us, chain_length, nbar + extra_nbar).at(params.gate_improvement);
        prop_assert!(hot >= cool - 1e-15, "hot {hot} < cool {cool}");
    }

    #[test]
    fn longer_gates_are_noisier(
        improvement in 1.0f64..10.0,
        duration_us in 1.0f64..500.0,
        extra_us in 1.0f64..500.0,
        chain_length in 1usize..30,
        nbar in 0.0f64..5.0,
    ) {
        let params = NoiseParams::standard(improvement);
        let short = params.two_qubit_gate_unscaled(duration_us, chain_length, nbar).at(params.gate_improvement);
        let long = params.two_qubit_gate_unscaled(duration_us + extra_us, chain_length, nbar).at(params.gate_improvement);
        prop_assert!(long >= short - 1e-15);
    }

    #[test]
    fn gate_improvement_never_hurts(
        duration_us in 1.0f64..500.0,
        chain_length in 1usize..30,
        nbar in 0.0f64..5.0,
        idle_us in 0.0f64..1e5,
    ) {
        // The paper's 1X/5X/10X scenarios scale every physical error rate
        // down; a better machine must never have larger model probabilities.
        let base = NoiseParams::standard(1.0);
        let improved = NoiseParams::standard(10.0);
        prop_assert!(
            improved.two_qubit_gate_unscaled(duration_us, chain_length, nbar).at(improved.gate_improvement)
                <= base.two_qubit_gate_unscaled(duration_us, chain_length, nbar).at(base.gate_improvement) + 1e-15
        );
        prop_assert!(
            improved.single_qubit_gate_unscaled(duration_us, chain_length, nbar).at(improved.gate_improvement)
                <= base.single_qubit_gate_unscaled(duration_us, chain_length, nbar).at(base.gate_improvement) + 1e-15
        );
        prop_assert!(
            improved.dephasing_unscaled(idle_us).at(improved.gate_improvement) <= base.dephasing_unscaled(idle_us).at(base.gate_improvement) + 1e-15
        );
        prop_assert!(improved.reset_flip_unscaled().at(improved.gate_improvement) <= base.reset_flip_unscaled().at(base.gate_improvement) + 1e-15);
        prop_assert!(
            improved.measurement_flip_unscaled().at(improved.gate_improvement)
                <= base.measurement_flip_unscaled().at(base.gate_improvement) + 1e-15
        );
    }

    #[test]
    fn chain_factor_shrinks_with_longer_chains(
        improvement in 1.0f64..10.0,
        chain_length in 2usize..40,
    ) {
        // A ∝ ln(N)/N: the per-gate laser-instability factor decreases with
        // chain length (the paper's reason why big chains do not win on raw
        // gate fidelity grounds alone is serialisation, not this factor).
        let params = NoiseParams::standard(improvement);
        prop_assert!(params.chain_factor(chain_length) > 0.0);
        prop_assert!(params.chain_factor(chain_length * 4) <= params.chain_factor(chain_length));
    }

    #[test]
    fn wise_cooling_overrides_the_baseline_gate_errors(improvement in 1.0f64..10.0) {
        let cooled = NoiseParams::wise_cooled(improvement);
        prop_assert!(cooled.cooled);
        prop_assert_eq!(cooled.gate_improvement, improvement);
        // Cooled gates ignore the heating term: error rates are independent
        // of the motional energy.
        let calm = cooled.two_qubit_gate_unscaled(40.0, 2, 0.0).at(cooled.gate_improvement);
        let hot = cooled.two_qubit_gate_unscaled(40.0, 2, 6.0).at(cooled.gate_improvement);
        prop_assert!((calm - hot).abs() < 1e-12);
    }
}
