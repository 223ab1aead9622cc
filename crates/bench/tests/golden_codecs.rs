//! Golden pins of the experiment codecs' encodings.
//!
//! A spec's content hash keys its sweep point store on disk, and a point
//! payload is what that store keeps, so neither encoding may drift when the
//! codecs are rewritten: this file pins the canonical-JSON content hash of
//! every builtin spec, the `outcome_to_json` text of three fixed outcomes
//! and the point seeds of every builtin grid spec, and checks that decoding
//! each encoding gives the value back. A change that moves any constant
//! here orphans every existing point store.

use qccd_bench::point_job::{outcome_from_json, outcome_to_json};
use qccd_bench::{spec_point_job, ExperimentRegistry, ExperimentSpec, LerOutcome};
use qccd_decoder::{sweep_seed, CacheStats, DecoderKind, LogicalErrorEstimate};

/// `(name, content hash)` of every builtin spec.
const SPEC_HASHES: [(&str, &str); 13] = [
    ("ext_ablation_clustering", "08632c1d76531346"),
    ("ext_decoder_comparison", "3b623f41d4cf8c07"),
    ("ext_surgery", "a6a2ba068743ea2c"),
    ("fig08a", "25f4e1099255c517"),
    ("fig08b", "e2246fddb5c3d94c"),
    ("fig09", "aa9c3b72fcd101be"),
    ("fig10", "ef2599f78925b9a8"),
    ("fig11", "38e171e27d18569c"),
    ("fig12", "37c13dc0d2f934bf"),
    ("fig13a", "bac720492405839f"),
    ("fig13b", "67ba518936c4bc94"),
    ("table2", "ed4cf817a6d0fcef"),
    ("table3", "557f72d16d0a533f"),
];

#[test]
fn builtin_spec_hashes_are_pinned_and_specs_round_trip() {
    let registry = ExperimentRegistry::builtin();
    assert_eq!(registry.names().len(), SPEC_HASHES.len());
    for (name, hash) in SPEC_HASHES {
        let spec = registry.get(name).expect("builtin spec");
        assert_eq!(spec.content_hash(), hash, "{name} content hash");
        let text = serde_json::to_string(&spec.to_json()).expect("serializable");
        let decoded = ExperimentSpec::from_json(&serde_json::from_str(&text).expect("parses"))
            .expect("decodes");
        assert_eq!(&decoded, spec, "{name} round trip");
    }
}

/// `sweep_seed(2026, 0..8)`, the first point seeds of every builtin spec.
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

#[test]
fn grid_point_seeds_are_sweep_seeds_of_the_spec_seed() {
    let registry = ExperimentRegistry::builtin();
    let mut grids = Vec::new();
    for name in registry.names() {
        let spec = registry.get(name).expect("builtin spec");
        let Ok(job) = spec_point_job(spec) else {
            continue;
        };
        grids.push(name);
        let seeds = job.seed_table();
        assert!(!seeds.is_empty(), "{name} has points");
        for (index, &seed) in seeds.iter().enumerate() {
            assert_eq!(
                seed,
                sweep_seed(spec.seed, index as u64),
                "{name} point {index}"
            );
        }
    }
    assert_eq!(
        grids,
        ["fig08b", "fig10", "fig11", "fig12", "fig13a", "fig13b"]
    );
    let fig10 = spec_point_job(registry.get("fig10").expect("builtin spec"))
        .expect("fig10 is a grid")
        .seed_table();
    assert_eq!(fig10[..GOLDEN_2026.len()], GOLDEN_2026);
}

/// An estimate with a cache, a compile error with a `null` cache, and a
/// point whose rate is far below `1 / shots` (as the retired
/// importance-sampled estimator wrote them; stores may still hold such
/// payloads).
fn fixed_outcomes() -> [(LerOutcome, &'static str); 3] {
    [
        (
            LerOutcome {
                label: "grid c2".to_string(),
                distance: 5,
                decoder: DecoderKind::UnionFind,
                seed: 0x0123_4567_89ab_cdef,
                shots_requested: 2000,
                result: Ok(LogicalErrorEstimate {
                    shots: 2000,
                    failures: 3,
                    logical_error_rate: 0.0015,
                    std_error: 0.000_865_592_408_133_571_2,
                }),
                cache: Some(CacheStats {
                    hits: 41,
                    misses: 17,
                    uncacheable: 2,
                    quiet_words: 9,
                    sparse_words: 22,
                    dense_words: 1,
                    ..CacheStats::default()
                }),
            },
            r#"{"cache":{"dense_words":1,"hits":41,"misses":17,"quiet_words":9,"sparse_words":22,"uncacheable":2},"decoder":"union_find","distance":5,"label":"grid c2","result":{"ok":{"failures":3,"logical_error_rate":0.0015,"shots":2000,"std_error":0.0008655924081335712}},"seed":81985529216486895,"shots_requested":2000}"#,
        ),
        (
            LerOutcome {
                label: "linear c5".to_string(),
                distance: 3,
                decoder: DecoderKind::ExactMatching,
                seed: u64::MAX,
                shots_requested: 64,
                result: Err("routing stuck: \"linear\" trap\nfull".to_string()),
                cache: None,
            },
            r#"{"cache":null,"decoder":"exact_matching","distance":3,"label":"linear c5","result":{"err":"routing stuck: \"linear\" trap\nfull"},"seed":18446744073709551615,"shots_requested":64}"#,
        ),
        (
            LerOutcome {
                label: "10X c2 biased x8".to_string(),
                distance: 7,
                decoder: DecoderKind::ExactMatching,
                seed: 7,
                shots_requested: 4096,
                result: Ok(LogicalErrorEstimate {
                    shots: 4096,
                    failures: 311,
                    logical_error_rate: 2.273_736_754_432_320_6e-13,
                    std_error: 1.5e-14,
                }),
                cache: Some(CacheStats {
                    hits: 0,
                    misses: 311,
                    uncacheable: 1024,
                    quiet_words: 0,
                    sparse_words: 3,
                    dense_words: 61,
                    ..CacheStats::default()
                }),
            },
            r#"{"cache":{"dense_words":61,"hits":0,"misses":311,"quiet_words":0,"sparse_words":3,"uncacheable":1024},"decoder":"exact_matching","distance":7,"label":"10X c2 biased x8","result":{"ok":{"failures":311,"logical_error_rate":0.00000000000022737367544323206,"shots":4096,"std_error":0.000000000000015}},"seed":7,"shots_requested":4096}"#,
        ),
    ]
}

#[test]
fn outcome_payload_texts_are_pinned_and_decode_bit_exactly() {
    for (outcome, pinned) in fixed_outcomes() {
        let text = outcome_to_json(&outcome).to_string();
        assert_eq!(text, pinned, "{} payload text", outcome.label);
        let decoded =
            outcome_from_json(&serde_json::from_str(&text).expect("parses")).expect("decodes");
        // `Debug` prints every field, floats in shortest round-trip form,
        // so equal text means bit-equal values.
        assert_eq!(format!("{decoded:?}"), format!("{outcome:?}"));
    }
}
