//! Workspace-level oracles for the code distance: checks that share no code
//! with the decoders they judge.
//!
//! * **Graph fault distance** — the fewest edges of the decoding graph whose
//!   endpoints cancel (a closed walk, the boundary being one vertex) while
//!   their observables do not: the weight of the cheapest undetectable
//!   logical fault the decoder can be shown. A distance-`d` code decoded
//!   correctly reads `d`.
//! * **Single-fault exhaustion** — every mechanism of the detector error
//!   model, fired alone, must decode to its own observable flip.
//! * **Scaling** — at fixed seeds, failures fall with distance and faster
//!   than linearly with the physical error rate.

use std::collections::VecDeque;

use qccd_circuit::{Circuit, Instruction};
use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{
    estimate_logical_error_rate_report, DecoderKind, DecodingGraph, EstimatorConfig,
};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{
    memory_experiment, rectangular_rotated_surface_code, repetition_code, rotated_surface_code,
    unrotated_surface_code, CodeLayout, MemoryBasis,
};
use qccd_sim::{DemError, DetectorErrorModel, NoiseChannel, NoisyCircuit};

const BASES: [MemoryBasis; 2] = [MemoryBasis::Z, MemoryBasis::X];

/// Uniform circuit-level noise of strength `p`: two-qubit depolarising after
/// every CNOT, one-qubit depolarising after every H, a flip after every
/// reset and before every measurement.
fn uniform_noise(circuit: &Circuit, p: f64) -> NoisyCircuit {
    let mut noisy = NoisyCircuit::new();
    noisy.pad_qubits(circuit.num_qubits());
    for &instruction in circuit.iter() {
        match instruction {
            Instruction::Measure(qubit) => noisy.push_noise(NoiseChannel::BitFlip { qubit, p }),
            Instruction::MeasureX(qubit) => noisy.push_noise(NoiseChannel::PhaseFlip { qubit, p }),
            _ => {}
        }
        noisy.push_gate(instruction);
        match instruction {
            Instruction::Cnot { control, target } => noisy.push_noise(NoiseChannel::Depolarize2 {
                a: control,
                b: target,
                p,
            }),
            Instruction::H(qubit) => noisy.push_noise(NoiseChannel::Depolarize1 { qubit, p }),
            Instruction::Reset(qubit) => noisy.push_noise(NoiseChannel::BitFlip { qubit, p }),
            _ => {}
        }
    }
    for detector in circuit.detectors() {
        noisy.add_detector(detector.clone());
    }
    for observable in circuit.observables() {
        noisy.add_observable(observable.clone());
    }
    noisy
}

/// The uncompiled memory experiment of `layout` (distance-many rounds) under
/// uniform noise.
fn uncompiled(layout: &CodeLayout, basis: MemoryBasis, p: f64) -> NoisyCircuit {
    let experiment = memory_experiment(layout, layout.distance(), basis);
    uniform_noise(&experiment.circuit, p)
}

/// The memory experiment compiled onto a standard-wiring 5X architecture.
fn compiled(
    topology: TopologyKind,
    capacity: usize,
    distance: usize,
    basis: MemoryBasis,
) -> NoisyCircuit {
    let arch = ArchitectureConfig::new(topology, capacity, WiringMethod::Standard, 5.0);
    Compiler::new(arch)
        .compile_memory_experiment(&rotated_surface_code(distance), distance, basis)
        .unwrap_or_else(|e| panic!("{topology} c{capacity} d{distance}: {e}"))
        .to_noisy_circuit()
}

fn graph_of(circuit: &NoisyCircuit) -> (DetectorErrorModel, DecodingGraph) {
    let dem = DetectorErrorModel::from_circuit(circuit).expect("annotations resolve");
    let graph = DecodingGraph::from_dem(&dem);
    (dem, graph)
}

/// Fewest edges of a closed walk that flips observable 0: breadth-first
/// search over (vertex, observable parity) from every vertex, the boundary
/// included as vertex `num_detectors`. `None` if no such walk exists.
fn fault_distance(graph: &DecodingGraph) -> Option<usize> {
    let boundary = graph.num_detectors();
    let mut neighbours: Vec<Vec<(usize, usize)>> = vec![Vec::new(); boundary + 1];
    for (&(a, b), &mask) in graph.endpoints().iter().zip(graph.masks()) {
        let (a, b) = (a as usize, b as usize);
        let flips = (mask & 1) as usize;
        neighbours[a].push((b, flips));
        neighbours[b].push((a, flips));
    }
    let shortest_odd_walk_from = |start: usize| {
        let mut hops = vec![[usize::MAX; 2]; boundary + 1];
        hops[start][0] = 0;
        let mut queue = VecDeque::from([(start, 0usize)]);
        while let Some((v, parity)) = queue.pop_front() {
            for &(next, flips) in &neighbours[v] {
                if hops[next][parity ^ flips] == usize::MAX {
                    hops[next][parity ^ flips] = hops[v][parity] + 1;
                    queue.push_back((next, parity ^ flips));
                }
            }
        }
        Some(hops[start][1]).filter(|&h| h != usize::MAX)
    };
    (0..=boundary).filter_map(shortest_odd_walk_from).min()
}

/// Every mechanism of `dem` that, fired alone, is decoded to the wrong
/// observable flip.
fn single_fault_failures<'a>(
    dem: &'a DetectorErrorModel,
    graph: &DecodingGraph,
    kind: DecoderKind,
) -> Vec<&'a DemError> {
    let decoder = kind.build(graph.clone());
    dem.errors
        .iter()
        .filter(|error| {
            let fired: Vec<usize> = error.detectors.iter().map(|&d| d as usize).collect();
            decoder.decode(&fired)[0] != error.observables.contains(&0)
        })
        .collect()
}

fn assert_no_single_fault_failures(label: &str, circuit: &NoisyCircuit) {
    let (dem, graph) = graph_of(circuit);
    for kind in [DecoderKind::ExactMatching, DecoderKind::UnionFind] {
        let failures = single_fault_failures(&dem, &graph, kind);
        assert!(
            failures.is_empty(),
            "{label}: {kind:?} mis-decodes {} of {} single faults: {failures:?}",
            failures.len(),
            dem.errors.len()
        );
    }
}

#[test]
fn uncompiled_graph_fault_distance_is_the_code_distance() {
    let mut layouts: Vec<CodeLayout> = [3, 5, 7].map(rotated_surface_code).into();
    layouts.extend([3, 5].map(unrotated_surface_code));
    for layout in &layouts {
        for basis in BASES {
            let (_, graph) = graph_of(&uncompiled(layout, basis, 2e-3));
            assert_eq!(
                fault_distance(&graph),
                Some(layout.distance()),
                "{} {basis:?}",
                layout.name()
            );
            assert_eq!(graph.undecomposed_hyperedges(), 0);
        }
    }
    // The merged patch of a distance-3 lattice surgery: each basis is
    // protected by the length of the logical operator that flips it.
    let patch = rectangular_rotated_surface_code(3, 7);
    for (basis, flipped_by) in [
        (MemoryBasis::Z, patch.logical_x().len()),
        (MemoryBasis::X, patch.logical_z().len()),
    ] {
        let (_, graph) = graph_of(&uncompiled(&patch, basis, 2e-3));
        assert_eq!(fault_distance(&graph), Some(flipped_by), "3x7 {basis:?}");
        assert_eq!(graph.undecomposed_hyperedges(), 0);
    }
}

#[test]
fn compiled_capacity_two_and_linear_keep_the_full_distance() {
    for (topology, capacity) in [
        (TopologyKind::Grid, 2),
        (TopologyKind::Switch, 2),
        (TopologyKind::Linear, 200),
    ] {
        for d in [3, 5, 7] {
            for basis in BASES {
                let (_, graph) = graph_of(&compiled(topology, capacity, d, basis));
                let label = format!("{topology} c{capacity} d{d} {basis:?}");
                assert_eq!(fault_distance(&graph), Some(d), "{label}");
                assert_eq!(graph.undecomposed_hyperedges(), 0, "{label}");
            }
        }
    }
}

#[test]
fn compiled_larger_traps_lose_distance_but_never_to_two() {
    // Correlated faults on two data ions of one chain are real weight-one
    // events that act as weight two on the code, so capacity > 2 does not
    // keep the full distance. The floors below are what the compiled
    // circuits measure; a graph that invents edges reads 2 everywhere.
    for topology in [TopologyKind::Grid, TopologyKind::Switch] {
        for capacity in [5, 12] {
            for (d, floor) in [(3, 3), (5, 3), (7, 5)] {
                for basis in BASES {
                    let (_, graph) = graph_of(&compiled(topology, capacity, d, basis));
                    let label = format!("{topology} c{capacity} d{d} {basis:?}");
                    let distance = fault_distance(&graph).expect("a logical fault exists");
                    assert!((floor..=d).contains(&distance), "{label}: {distance}");
                    assert_eq!(graph.undecomposed_hyperedges(), 0, "{label}");
                }
            }
        }
    }
}

#[test]
fn every_single_fault_is_decoded_uncompiled() {
    for d in [3, 5] {
        for layout in [
            rotated_surface_code(d),
            unrotated_surface_code(d),
            repetition_code(d),
        ] {
            let circuit = uncompiled(&layout, MemoryBasis::Z, 2e-3);
            assert_no_single_fault_failures(layout.name(), &circuit);
        }
        let circuit = uncompiled(&rotated_surface_code(d), MemoryBasis::X, 2e-3);
        assert_no_single_fault_failures("rotated X", &circuit);
    }
}

#[test]
fn every_single_fault_is_decoded_on_capacity_two_and_linear() {
    for (topology, capacity) in [
        (TopologyKind::Grid, 2),
        (TopologyKind::Switch, 2),
        (TopologyKind::Linear, 200),
    ] {
        for d in [3, 5] {
            let circuit = compiled(topology, capacity, d, MemoryBasis::Z);
            assert_no_single_fault_failures(&format!("{topology} c{capacity} d{d}"), &circuit);
        }
    }
}

#[test]
fn larger_traps_single_fault_failures_are_the_observable_conflicts() {
    // Two single faults with one symptom and different observables: no
    // matching decoder can serve both, so the graph keeps the likelier and
    // counts the other. Exact matching fails on exactly those; union-find
    // also mis-grows a few correlated two-ion faults. Measured, and pinned
    // so that a change is noticed.
    use MemoryBasis::{X, Z};
    use TopologyKind::{Grid, Switch};
    for (topology, capacity, basis, conflicts, union_find) in [
        (Grid, 5, Z, 2, 2),
        (Grid, 5, X, 1, 2),
        (Grid, 12, Z, 0, 0),
        (Grid, 12, X, 5, 9),
        (Switch, 5, Z, 0, 0),
        (Switch, 5, X, 1, 1),
        (Switch, 12, Z, 0, 0),
        (Switch, 12, X, 5, 6),
    ] {
        let (dem, graph) = graph_of(&compiled(topology, capacity, 3, basis));
        let label = format!("{topology} c{capacity} d3 {basis:?}");
        assert_eq!(graph.observable_conflicts(), conflicts, "{label}");
        for (kind, pinned) in [
            (DecoderKind::ExactMatching, conflicts),
            (DecoderKind::UnionFind, union_find),
        ] {
            let failures = single_fault_failures(&dem, &graph, kind);
            assert_eq!(
                failures.len(),
                pinned,
                "{label} {kind:?} mis-decodes: {failures:?}"
            );
        }
    }
}

fn failures(circuit: &NoisyCircuit, shots: usize) -> usize {
    estimate_logical_error_rate_report(
        circuit,
        shots,
        7,
        DecoderKind::UnionFind,
        &EstimatorConfig::default(),
    )
    .expect("annotations resolve")
    .estimate
    .failures
}

#[test]
fn failures_fall_with_distance_under_uniform_noise() {
    let [f3, f5, f7] = [3, 5, 7].map(|d| {
        let circuit = uncompiled(&rotated_surface_code(d), MemoryBasis::Z, 2e-3);
        failures(&circuit, 100_000)
    });
    assert!(f3 > 0 && 2 * f5 < f3 && 2 * f7 < f5, "{f3} / {f5} / {f7}");
}

#[test]
fn distance_three_failures_are_superlinear_in_the_physical_rate() {
    let [noisy, quiet] = [2e-3, 5e-4].map(|p| {
        let circuit = uncompiled(&rotated_surface_code(3), MemoryBasis::Z, p);
        failures(&circuit, 100_000)
    });
    // A quarter of the noise: a distance-1 decoder loses a factor 4, a
    // distance-3 code a factor ~16.
    assert!(quiet > 0 && noisy >= 6 * quiet, "{noisy} vs {quiet}");
}

#[test]
fn compiled_capacity_two_failures_fall_with_distance() {
    let [f3, f5] =
        [3, 5].map(|d| failures(&compiled(TopologyKind::Grid, 2, d, MemoryBasis::Z), 200_000));
    assert!(f3 > 0 && 3 * f5 < f3, "{f3} / {f5}");
}
