//! Oracles for `ExactMatchingDecoder::matching_weight`, the minimum total
//! weight of matching a shot's defects to each other or to the boundary.
//!
//! * *Corpus*: on every shot of a sampled grid c2 1X memory experiment
//!   that has at most 14 defects, the decoder's weight equals the subset
//!   DP's (`support::dp_matching_weight`) within a relative 1e-9. Tier-1
//!   samples d = 5; the ignored d = 7 test runs in CI's release step.
//! * *Brute force*: on random small decoding graphs, some with detectors
//!   that reach neither the boundary nor each other, the decoder's weight
//!   equals the minimum over every perfect matching of up to 8 defects,
//!   with pair costs from Floyd–Warshall. No finite matching means `None`
//!   on both sides.

#[allow(dead_code)]
mod support;

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{DecodingGraph, ExactMatchingDecoder};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::{sample_detector_chunks, DemError, DetectorErrorModel};
use support::{dp_matching_weight, DP_MAX_DEFECTS};

/// Asserts two matching weights agree: both `None`, or both finite and
/// equal within a relative 1e-9.
fn assert_same_weight(got: Option<f64>, want: Option<f64>, context: &str) {
    match (got, want) {
        (None, None) => {}
        (Some(got), Some(want)) => assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1.0),
            "{context}: decoder {got}, oracle {want}"
        ),
        _ => panic!("{context}: decoder {got:?}, oracle {want:?}"),
    }
}

/// Compares the decoder with the DP on every shot of `shots` sampled grid
/// c2 1X shots at distance `d` (seed 2026) that has at most 14 defects;
/// returns `(compared, above the DP's reach)`.
fn corpus(d: usize, shots: usize) -> (usize, usize) {
    let noisy = Compiler::new(ArchitectureConfig::recommended(1.0))
        .compile_memory_experiment(&rotated_surface_code(d), d, MemoryBasis::Z)
        .expect("the recommended design point compiles")
        .to_noisy_circuit();
    let sampler =
        sample_detector_chunks(&noisy, shots, 2026, 1024).expect("consistent annotations");
    let dem = DetectorErrorModel::from_circuit(&noisy).expect("consistent annotations");
    let graph = DecodingGraph::from_dem(&dem);
    let decoder = ExactMatchingDecoder::new(graph.clone());
    let (mut compared, mut above) = (0, 0);
    let mut fired = Vec::new();
    for chunk in sampler.chunks() {
        for shot in 0..chunk.num_shots() {
            chunk.fired_detectors_into(shot, &mut fired);
            if fired.len() > DP_MAX_DEFECTS {
                above += 1;
                continue;
            }
            compared += 1;
            assert_same_weight(
                decoder.matching_weight(&fired),
                dp_matching_weight(&graph, &fired),
                &format!("d = {d}, defects {fired:?}"),
            );
        }
    }
    (compared, above)
}

#[test]
fn matching_weight_equals_the_subset_dp_on_a_d5_corpus() {
    let (compared, _) = corpus(5, 2048);
    assert!(
        compared > 1000,
        "only {compared} shots within the DP's reach"
    );
}

#[test]
#[ignore = "grid c2 1X d = 7; CI's release step runs it"]
fn matching_weight_equals_the_subset_dp_on_a_d7_corpus() {
    let (compared, above) = corpus(7, 2048);
    assert!(
        compared > 500,
        "only {compared} shots within the DP's reach"
    );
    assert!(above > 0, "the d = 7 corpus must reach past 14 defects");
}

/// A xorshift64* stream: the brute-force cases need no more than that.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A random model on `n` detectors: random pairs and boundary edges, some
/// of them flipping observable 0. Detectors `n - isolated..n` take part in
/// pair edges among themselves only, so they may reach neither the
/// boundary nor the rest.
fn random_dem(rng: &mut Rng, n: usize, isolated: usize) -> DetectorErrorModel {
    let open = n - isolated;
    let mut errors = Vec::new();
    let mut push = |rng: &mut Rng, detectors: Vec<u32>| {
        errors.push(DemError {
            probability: 0.001 + 0.3 * rng.unit(),
            detectors,
            observables: if rng.below(3) == 0 { vec![0] } else { vec![] },
        });
    };
    for _ in 0..rng.below(open) + 1 {
        let detector = rng.below(open) as u32;
        push(rng, vec![detector]);
    }
    for _ in 0..rng.below(2 * open) + open / 2 {
        let (a, b) = (rng.below(open), rng.below(open));
        if a != b {
            push(rng, vec![a as u32, b as u32]);
        }
    }
    if isolated >= 2 {
        for _ in 0..isolated {
            let (a, b) = (open + rng.below(isolated), open + rng.below(isolated));
            if a != b {
                push(rng, vec![a as u32, b as u32]);
            }
        }
    }
    DetectorErrorModel {
        num_detectors: n,
        num_observables: 1,
        errors,
    }
}

/// All-pairs shortest paths over the graph's nodes (boundary last), each
/// edge at least 1e-9 long as the decoder walks it.
fn floyd_warshall(graph: &DecodingGraph) -> Vec<Vec<f64>> {
    let nodes = graph.num_nodes();
    let mut dist = vec![vec![f64::INFINITY; nodes]; nodes];
    for (node, row) in dist.iter_mut().enumerate() {
        row[node] = 0.0;
    }
    for (&(a, b), &weight) in graph.endpoints().iter().zip(graph.weights()) {
        let (a, b) = (a as usize, b as usize);
        let length = weight.max(1e-9);
        dist[a][b] = dist[a][b].min(length);
        dist[b][a] = dist[b][a].min(length);
    }
    for via in 0..nodes {
        for from in 0..nodes {
            for to in 0..nodes {
                let through = dist[from][via] + dist[via][to];
                if through < dist[from][to] {
                    dist[from][to] = through;
                }
            }
        }
    }
    dist
}

/// Minimum over every way to match each of `defects` to another one or to
/// the boundary, by enumeration; `+inf` when every way has a pair with no
/// path.
fn brute_force(dist: &[Vec<f64>], boundary: usize, defects: &[usize]) -> f64 {
    let Some((&first, rest)) = defects.split_first() else {
        return 0.0;
    };
    let mut best = dist[first][boundary] + brute_force(dist, boundary, rest);
    for (at, &partner) in rest.iter().enumerate() {
        let mut others = rest.to_vec();
        others.remove(at);
        best = best.min(dist[first][partner] + brute_force(dist, boundary, &others));
    }
    best
}

#[test]
fn matching_weight_equals_brute_force_on_random_small_graphs() {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let (mut infeasible, mut feasible) = (0, 0);
    for case in 0..400 {
        let n = 2 + rng.below(9);
        let isolated = if case % 3 == 0 {
            rng.below(n.min(4))
        } else {
            0
        };
        let graph = DecodingGraph::from_dem(&random_dem(&mut rng, n, isolated));
        if graph.is_empty() {
            continue;
        }
        let decoder = ExactMatchingDecoder::new(graph.clone());
        let dist = floyd_warshall(&graph);
        for _ in 0..8 {
            let mut defects: Vec<usize> = (0..n).filter(|_| rng.below(2) == 0).collect();
            defects.truncate(8);
            let want = brute_force(&dist, n, &defects);
            let want = want.is_finite().then_some(want);
            match want {
                Some(_) => feasible += 1,
                None => infeasible += 1,
            }
            assert_same_weight(
                decoder.matching_weight(&defects),
                want,
                &format!("case {case}, defects {defects:?}"),
            );
        }
    }
    assert!(
        feasible > 1000 && infeasible > 50,
        "{feasible} feasible and {infeasible} infeasible defect sets"
    );
}
