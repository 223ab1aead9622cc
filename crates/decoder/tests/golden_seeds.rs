//! Golden pins for the per-point seed derivation.
//!
//! Resume bit-identity in the sweeprun tier hinges on `sweep_seed(seed,
//! index)` never changing: point files are keyed by these seeds, and a
//! reshuffle would silently mix results computed under different RNG
//! streams. Any intentional change to the derivation must bump the point
//! store's format (invalidating stored points) and update these constants.

use qccd_decoder::sweep_seed;

/// `sweep_seed(2026, 0..8)` — 2026 is `DEFAULT_SWEEP_SEED` in qccd-bench.
const GOLDEN_2026: [u64; 8] = [
    0xc437_34f3_8d71_d542,
    0x3e23_97e8_36a8_74bb,
    0x5d51_8012_bb93_1ba4,
    0xc20c_8f82_fdb9_f71b,
    0x1ba3_eb2e_b650_58df,
    0xaa90_b3cf_5230_0f42,
    0x7c06_1341_1f3c_f62e,
    0x24bc_22de_798c_ebfb,
];

/// `sweep_seed(0, 0..8)` — the all-zero sweep seed must not degenerate.
const GOLDEN_0: [u64; 8] = [
    0x96dc_b1d7_126a_6eba,
    0xd745_6002_5bee_d3ea,
    0x191b_68a8_2d23_0adf,
    0x3351_c2cc_406d_daf7,
    0x046f_396c_e480_6b99,
    0xd5f7_4dbc_9e2c_8717,
    0xbae2_1531_1298_4202,
    0xc835_d1de_47dd_cca7,
];

#[test]
fn sweep_seed_values_are_pinned() {
    for (index, &expected) in GOLDEN_2026.iter().enumerate() {
        assert_eq!(
            sweep_seed(2026, index as u64),
            expected,
            "sweep_seed(2026, {index}) drifted — this breaks point-store resume bit-identity"
        );
    }
    for (index, &expected) in GOLDEN_0.iter().enumerate() {
        assert_eq!(
            sweep_seed(0, index as u64),
            expected,
            "sweep_seed(0, {index}) drifted — this breaks point-store resume bit-identity"
        );
    }
}
