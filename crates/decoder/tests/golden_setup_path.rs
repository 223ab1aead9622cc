//! Golden pins for what every LER estimate builds before its first shot.
//!
//! An estimate derives three values from its circuit: the `FaultTable`
//! (one reverse pass), the detector error model it folds into, and the
//! `DecodingGraph` of that model. The sampler's probability buckets are
//! pinned through the sampled stream by `golden_sampler_stream`. Each of
//! the three may be rebuilt for speed, but none may change by a bit, so this
//! file pins them by value (FNV-1a) on compiled grid memory experiments:
//!
//! * the table: every channel's component signatures, in stored order;
//! * the model: every error's probability bits, detectors and observables;
//! * the graph: every edge's endpoints, probability and weight bits and
//!   observables, plus the hyperedge and observable-conflict counters.
//!
//! Grid c12 has hyperedges, so its points cover the split. A pure speed
//! change leaves every constant byte-identical; there is no regeneration
//! switch on purpose.

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::DecodingGraph;
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::{DetectorErrorModel, FaultTable, NoisyCircuit};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_word(mut hash: u64, word: u64) -> u64 {
    for byte in word.to_le_bytes() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Folds a set's length, then its members, into `hash`.
fn fnv1a_set(hash: u64, set: &[u32]) -> u64 {
    set.iter()
        .fold(fnv1a_word(hash, set.len() as u64), |h, &x| {
            fnv1a_word(h, u64::from(x))
        })
}

/// The grid, standard-wiring memory experiment at trap `capacity`,
/// `gate_improvement` and distance `d` (`d` rounds, Z basis).
fn grid(capacity: usize, gate_improvement: f64, d: usize) -> NoisyCircuit {
    let mut arch = ArchitectureConfig::recommended(gate_improvement);
    arch.topology.capacity = capacity;
    Compiler::new(arch)
        .compile_memory_experiment(&rotated_surface_code(d), d, MemoryBasis::Z)
        .expect("the grid design points compile")
        .to_noisy_circuit()
}

fn table_hash(table: &FaultTable) -> u64 {
    let mut hash = fnv1a_word(FNV_OFFSET, table.num_channels() as u64);
    for channel in 0..table.num_channels() {
        for (detectors, observables) in table.components(channel) {
            hash = fnv1a_set(fnv1a_set(hash, detectors), observables);
        }
    }
    hash
}

fn dem_hash(dem: &DetectorErrorModel) -> u64 {
    let mut hash = fnv1a_word(FNV_OFFSET, dem.num_detectors as u64);
    hash = fnv1a_word(hash, dem.num_observables as u64);
    hash = fnv1a_word(hash, dem.errors.len() as u64);
    for error in &dem.errors {
        hash = fnv1a_word(hash, error.probability.to_bits());
        hash = fnv1a_set(fnv1a_set(hash, &error.detectors), &error.observables);
    }
    hash
}

fn graph_hash(graph: &DecodingGraph) -> u64 {
    let boundary = graph.num_detectors() as u32;
    let mut hash = fnv1a_word(FNV_OFFSET, graph.num_edges() as u64);
    for edge in 0..graph.num_edges() {
        let (a, b) = graph.endpoints()[edge];
        let b = if b == boundary {
            u64::MAX
        } else {
            u64::from(b)
        };
        let mask = graph.masks()[edge];
        let observables: Vec<u32> = (0..64).filter(|&o| mask >> o & 1 == 1).collect();
        hash = fnv1a_word(hash, u64::from(a));
        hash = fnv1a_word(hash, b);
        hash = fnv1a_word(hash, graph.probabilities()[edge].to_bits());
        hash = fnv1a_word(hash, graph.weights()[edge].to_bits());
        hash = fnv1a_set(hash, &observables);
    }
    hash
}

/// One pinned design point: `(capacity, gate improvement, distance)`, then
/// the table, model and graph hashes, then the graph's
/// `(decomposed, undecomposed, observable conflicts)` counters.
type Point = ((usize, f64, usize), [u64; 3], [usize; 3]);

fn check(points: &[Point]) {
    let mut failures = Vec::new();
    for &((capacity, gate_improvement, d), hashes, counters) in points {
        let noisy = grid(capacity, gate_improvement, d);
        let table = FaultTable::from_circuit(&noisy).expect("consistent annotations");
        let dem = table.dem();
        let graph = DecodingGraph::from_dem(&dem);
        let got_hashes = [table_hash(&table), dem_hash(&dem), graph_hash(&graph)];
        let got_counters = [
            graph.decomposed_hyperedges(),
            graph.undecomposed_hyperedges(),
            graph.observable_conflicts(),
        ];
        if (got_hashes, got_counters) != (hashes, counters) {
            let [table, dem, graph] = got_hashes.map(|h| format!("{h:#018x}"));
            failures.push(format!(
                "grid c{capacity} {gate_improvement}X d{d}: \
                 [{table}, {dem}, {graph}], {got_counters:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn setup_path_is_pinned_at_d3_and_d5() {
    check(&[
        (
            (2, 1000.0, 3),
            [
                0x7a3c_f057_3400_113e,
                0x4f50_5214_6d79_a192,
                0xe39f_6a20_da47_6a65,
            ],
            [0, 0, 0],
        ),
        (
            (2, 1000.0, 5),
            [
                0xfe93_9323_46a8_3218,
                0xad0e_fd69_40d0_3057,
                0xb4e0_e4ad_0f79_8702,
            ],
            [0, 0, 0],
        ),
        (
            (5, 5.0, 5),
            [
                0x15bf_91ce_ce9e_c624,
                0xf936_6778_a937_9bf7,
                0xf905_2ee5_c608_d76e,
            ],
            [108, 0, 0],
        ),
        (
            (12, 1.0, 5),
            [
                0xaf0b_a74d_d04d_5c30,
                0xbfed_4342_b56e_cd68,
                0x2dea_77ba_1ad5_2dcf,
            ],
            [230, 0, 0],
        ),
    ]);
}

#[test]
#[ignore = "two d = 7 programs; CI runs it in the release job"]
fn setup_path_is_pinned_at_d7() {
    check(&[
        (
            (2, 1000.0, 7),
            [
                0xe9e7_6036_8e76_ec9e,
                0x194a_7752_1ecd_183d,
                0xc42a_8641_a3c1_8730,
            ],
            [1, 0, 0],
        ),
        (
            (12, 5.0, 7),
            [
                0x07cb_a539_43bd_ac0c,
                0x9af3_cf89_9d67_a477,
                0xe67f_bb27_77aa_282d,
            ],
            [489, 0, 0],
        ),
    ]);
}
