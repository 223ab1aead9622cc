//! Hostile files in a sweep store: every reader answers `Ok` or `Err` and
//! none panics.
//!
//! A one-configuration `fig10` sweep (d = 2 and 3, 64 shots a point) runs
//! into a fresh store. Then `manifest.json` (and the job descriptor inside
//! it), one point envelope and `status.json` are each replaced by hostile
//! variants and read back through the readers a resume, a status query and
//! a merge use: `PointStore::open`, `PointStore::open_existing`,
//! `PointStore::load_point`, `PointStore::read_status` (with the
//! `sweep status` renderers) and `merge_artifact`.
//!
//! The case budget is fixed: per file, `CUTS` truncations spread over its
//! length, `FLIPS` byte flips drawn from a seeded SplitMix64 stream, and
//! every member or array entry at any depth dropped or replaced by each
//! value of `REPLACEMENTS` — other JSON types, a negative and a fractional
//! number, `u64::MAX` and 2^64.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use qccd_bench::{merge_artifact, spec_point_job, ExperimentKind, ExperimentRegistry};
use qccd_sweeprun::{
    render_progress_line, render_worker_lines, run_job, CoordinatorConfig, PointJob, PointStore,
};
use serde_json::Value;

const CUTS: usize = 48;
const FLIPS: usize = 48;

/// Raw JSON texts a member is replaced by.
const REPLACEMENTS: [&str; 9] = [
    "null",
    "true",
    "\"text\"",
    "-1",
    "0.5",
    "[]",
    "{}",
    "18446744073709551615",
    "18446744073709551616",
];

/// Stands in for a replacement until the document is rendered, so that a
/// raw text the `Value` model cannot hold (an integer of 2^64) can be
/// spliced in.
const SENTINEL: &str = "@@hostile@@";

/// The hostile variants of one file's text, with a label each.
fn variants(text: &str) -> Vec<(String, Vec<u8>)> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    for k in 0..CUTS {
        let cut = k * bytes.len() / CUTS;
        out.push((format!("truncated at byte {cut}"), bytes[..cut].to_vec()));
    }
    let mut state = 0x5eed_2026_u64;
    for _ in 0..FLIPS {
        let r = splitmix64(&mut state);
        let at = (r % bytes.len() as u64) as usize;
        let mask = ((r >> 32) as u8) | 1;
        let mut flipped = bytes.to_vec();
        flipped[at] ^= mask;
        out.push((format!("byte {at} xor {mask:#04x}"), flipped));
    }
    let doc: Value = serde_json::from_str(text).expect("a pristine file parses");
    for position in 0..positions(&doc) {
        let mut dropped = doc.clone();
        edit(&mut dropped, &mut position.clone(), None);
        out.push((
            format!("member {position} dropped"),
            dropped.to_string().into_bytes(),
        ));
        let mut marked = doc.clone();
        edit(&mut marked, &mut position.clone(), Some(SENTINEL));
        let marked = marked.to_string();
        for raw in REPLACEMENTS {
            let text = marked.replace(&format!("\"{SENTINEL}\""), raw);
            out.push((format!("member {position} set to {raw}"), text.into_bytes()));
        }
    }
    out
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Number of object members and array entries in `doc`, at any depth.
fn positions(doc: &Value) -> usize {
    match doc {
        Value::Object(map) => map.values().map(|v| 1 + positions(v)).sum(),
        Value::Array(items) => items.iter().map(|v| 1 + positions(v)).sum(),
        _ => 0,
    }
}

/// Drops (`None`) or replaces with a string the member or entry `*left`
/// counts down to, in pre-order; returns whether it was reached.
fn edit(node: &mut Value, left: &mut usize, with: Option<&str>) -> bool {
    let keys: Vec<String> = match node {
        Value::Object(map) => map.keys().cloned().collect(),
        Value::Array(items) => (0..items.len()).map(|i| i.to_string()).collect(),
        _ => return false,
    };
    for (index, key) in keys.iter().enumerate() {
        if *left == 0 {
            match (node, with) {
                (Value::Object(map), None) => drop(map.remove(key)),
                (Value::Array(items), None) => drop(items.remove(index)),
                (Value::Object(map), Some(text)) => {
                    map.insert(key.clone(), Value::from(text));
                }
                (Value::Array(items), Some(text)) => items[index] = Value::from(text),
                _ => unreachable!("only containers have members"),
            }
            return true;
        }
        *left -= 1;
        let child = match node {
            Value::Object(map) => map.get_mut(key).expect("listed key"),
            Value::Array(items) => &mut items[index],
            _ => unreachable!("only containers have members"),
        };
        if edit(child, left, with) {
            return true;
        }
    }
    false
}

/// Writes every variant of `path` in turn, runs `read` on it and restores
/// the pristine file; returns the labels of the variants `read` panicked
/// on.
fn panics_on_variants(path: &Path, read: &dyn Fn()) -> Vec<String> {
    let pristine = fs::read_to_string(path).expect("pristine file");
    let mut panicked = Vec::new();
    for (label, bytes) in variants(&pristine) {
        fs::write(path, &bytes).expect("write variant");
        if catch_unwind(AssertUnwindSafe(read)).is_err() {
            panicked.push(format!("{}: {label}", path.display()));
        }
    }
    fs::write(path, pristine).expect("restore pristine file");
    panicked
}

#[test]
fn hostile_store_files_are_refused_or_read_never_panicked_on() {
    let mut spec = ExperimentRegistry::builtin().get("fig10").unwrap().clone();
    let ExperimentKind::LerSweep(kind) = &mut spec.kind else {
        panic!("fig10 changed kind");
    };
    kind.configurations.truncate(1);
    kind.sample_distances = vec![2, 3];
    kind.shots = 64;
    spec.name = "hostile-store-test".to_string();

    let base = std::env::temp_dir().join(format!("qccd-hostile-store-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let job = spec_point_job(&spec).unwrap();
    let (descriptor, seeds) = (job.descriptor(), job.seed_table());
    let (store, _) = PointStore::open(&base, &descriptor, seeds.clone()).unwrap();
    run_job(&job, &store, CoordinatorConfig::default()).unwrap();
    merge_artifact(&spec, &store).expect("the pristine store merges");

    let manifest = store.root().join("manifest.json");
    let status = store.root().join("status.json");
    assert!(store.read_status().is_some(), "the run wrote status.json");
    let mut points: Vec<PathBuf> = fs::read_dir(store.root().join("points"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    points.sort();
    assert_eq!(points.len(), 2);

    let mut panicked = panics_on_variants(&manifest, &|| {
        let _ = PointStore::open(&base, &descriptor, seeds.clone());
        let _ = PointStore::open_existing(&base, &descriptor, seeds.clone());
    });
    panicked.extend(panics_on_variants(&points[0], &|| {
        for index in 0..store.num_points() {
            let _ = store.load_point(index);
        }
        let _ = merge_artifact(&spec, &store);
    }));
    panicked.extend(panics_on_variants(&status, &|| {
        if let Some(snapshot) = store.read_status() {
            render_progress_line(&snapshot);
            render_worker_lines(&snapshot);
        }
    }));
    assert!(panicked.is_empty(), "readers panicked on {panicked:#?}");
    // Every file was restored: the store still opens and merges.
    let store = PointStore::open_existing(&base, &descriptor, seeds).unwrap();
    merge_artifact(&spec, &store).expect("the restored store merges");
    let _ = fs::remove_dir_all(&base);
}
