//! Test support shared by the decoder's integration tests: a subset-DP
//! minimum-weight matching oracle and the code-capacity circuit.
//!
//! Each test crate that declares `mod support;` uses part of it.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use qccd_circuit::Instruction;
use qccd_decoder::DecodingGraph;
use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};
use qccd_sim::{NoiseChannel, NoisyCircuit};

/// A defect set is matched by the DP oracle only up to this many defects:
/// its tables hold `2^n` entries.
pub const DP_MAX_DEFECTS: usize = 14;

/// The code-capacity circuit: a Z-basis rotated-code memory of one round
/// with a `BitFlip(p)` on every data qubit right before the round.
pub fn code_capacity(d: usize, p: f64) -> NoisyCircuit {
    let code = rotated_surface_code(d);
    let experiment = memory_experiment(&code, 1, MemoryBasis::Z);
    let first_ancilla = code.ancilla_qubits()[0];
    let mut noisy = NoisyCircuit::new();
    noisy.pad_qubits(experiment.circuit.num_qubits());
    for instruction in experiment.circuit.iter() {
        if *instruction == Instruction::Reset(first_ancilla) {
            for qubit in code.data_qubits() {
                noisy.push_noise(NoiseChannel::BitFlip { qubit, p });
            }
        }
        noisy.push_gate(*instruction);
    }
    for detector in experiment.circuit.detectors() {
        noisy.add_detector(detector.clone());
    }
    for observable in experiment.circuit.observables() {
        noisy.add_observable(observable.clone());
    }
    noisy
}

/// A min-heap entry of [`distances_from`].
struct Entry(f64, usize);

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.total_cmp(&self.0)
    }
}

/// Shortest-path distance from `source` to every node of `graph` (the
/// boundary is node `num_detectors()`), with every edge at least 1e-9
/// long as the exact decoder walks it; unreachable nodes read `+inf`.
pub fn distances_from(graph: &DecodingGraph, source: usize) -> Vec<f64> {
    let mut adjacent = vec![Vec::new(); graph.num_nodes()];
    for (&(a, b), &weight) in graph.endpoints().iter().zip(graph.weights()) {
        let (a, b) = (a as usize, b as usize);
        let length = weight.max(1e-9);
        adjacent[a].push((b, length));
        adjacent[b].push((a, length));
    }
    let mut dist = vec![f64::INFINITY; graph.num_nodes()];
    let mut heap = BinaryHeap::from([Entry(0.0, source)]);
    dist[source] = 0.0;
    while let Some(Entry(distance, node)) = heap.pop() {
        if distance > dist[node] {
            continue;
        }
        for &(next, length) in &adjacent[node] {
            if distance + length < dist[next] {
                dist[next] = distance + length;
                heap.push(Entry(dist[next], next));
            }
        }
    }
    dist
}

/// Minimum total weight of matching `defects` to each other or to the
/// boundary, where a pair costs its shortest-path distance: the subset DP
/// the exact decoder ran up to 14 defects a shot. `None` when no finite
/// matching exists.
///
/// # Panics
///
/// Panics above [`DP_MAX_DEFECTS`] defects.
pub fn dp_matching_weight(graph: &DecodingGraph, defects: &[usize]) -> Option<f64> {
    let n = defects.len();
    assert!(n <= DP_MAX_DEFECTS, "{n} defects exceed the DP oracle");
    let boundary = graph.num_detectors();
    let dists: Vec<Vec<f64>> = defects.iter().map(|&d| distances_from(graph, d)).collect();

    // dp[mask] = min cost of matching the defects in `mask`, where the
    // lowest defect of the mask pairs with the boundary or another defect.
    let full = (1usize << n) - 1;
    let mut dp = vec![f64::INFINITY; full + 1];
    dp[0] = 0.0;
    for mask in 1..=full {
        let i = mask.trailing_zeros() as usize;
        let without_i = mask & !(1 << i);
        let mut best = dp[without_i] + dists[i][boundary];
        let mut rest = without_i;
        while rest != 0 {
            let j = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            best = best.min(dp[without_i & !(1 << j)] + dists[i][defects[j]]);
        }
        dp[mask] = best;
    }
    dp[full].is_finite().then_some(dp[full])
}
