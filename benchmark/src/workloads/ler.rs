//! `ler_noisy_d5` and `ler_quiet_d7`: one logical-error-rate point, the
//! paper's inner loop, in the two regimes its artefacts visit.
//!
//! Noisy (5X, d=5): most words carry defects, so `decoder.decode_batch`
//! dominates and every decode tier is exercised. Quiet (1000X, d=7): almost
//! every word is quiet and skipped, so `sim.sample_chunk` dominates; its 336
//! detectors also exceed the pair mirror's range. A change to one of the
//! two crates should move one workload and leave the other nearly still.

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{
    estimate_logical_error_rate_report, CacheStats, DecodeScratch, DecoderKind, DecodingGraph,
    EstimateReport, EstimatorConfig,
};
use qccd_qec::{rotated_surface_code, MemoryBasis};
use qccd_sim::{sample_detector_chunks, DetectorErrorModel, NoisyCircuit, CANONICAL_BLOCK_SHOTS};

use crate::trace::Tracer;
use crate::workload::{Counts, LayerValues, RepOutcome, Workload};

pub struct LerPoint {
    gate_improvement: f64,
    distance: usize,
    shots: usize,
    reps_per_second: f64,
    seed: u64,
    config: EstimatorConfig,
    noisy: Option<NoisyCircuit>,
    schedule_us: f64,
    cache: CacheStats,
}

impl LerPoint {
    fn new(gate_improvement: f64, distance: usize, shots: usize, reps_per_second: f64) -> Self {
        LerPoint {
            gate_improvement,
            distance,
            shots,
            reps_per_second,
            seed: 0,
            // One thread: the estimate is bit-identical for any thread
            // count, and a second worker would compete with nothing but the
            // host's other tenants.
            config: EstimatorConfig::default().with_num_threads(1),
            noisy: None,
            schedule_us: 0.0,
            cache: CacheStats::default(),
        }
    }

    /// Grid c2, 5X gates, d=5, 131 072 shots.
    pub fn noisy_d5() -> Self {
        LerPoint::new(5.0, 5, 131_072, 6.5)
    }

    /// Grid c2, 1000X gates, d=7, 524 288 shots.
    pub fn quiet_d7() -> Self {
        LerPoint::new(1000.0, 7, 524_288, 6.5)
    }

    fn noisy(&self) -> &NoisyCircuit {
        self.noisy.as_ref().expect("built before any rep")
    }

    fn estimate(&self, seed: u64) -> EstimateReport {
        estimate_logical_error_rate_report(
            self.noisy(),
            self.shots,
            seed,
            DecoderKind::UnionFind,
            &self.config,
        )
        .expect("compiled circuits carry consistent annotations")
    }

    /// The estimator's pipeline through the public API, one span per layer;
    /// returns `(shots, failures)`.
    fn estimate_traced(&self, seed: u64, tracer: &mut Tracer) -> (usize, usize) {
        let noisy = self.noisy();
        let dem = tracer
            .time("sim.dem", 1, || DetectorErrorModel::from_circuit(noisy))
            .expect("consistent annotations");
        let graph = tracer.time("decoder.graph_build", 1, || DecodingGraph::from_dem(&dem));
        let decoder = DecoderKind::UnionFind.build(graph);
        let mut scratch = DecodeScratch::with_memo_config(self.config.memo);
        let snapshot = tracer.time("decoder.memo_warm", 1, || {
            let mut warm = DecodeScratch::with_memo_config(self.config.memo);
            decoder.warm_memo_snapshot(dem.num_detectors, &mut warm)
        });
        let sampler = sample_detector_chunks(noisy, self.shots, seed, self.config.chunk_shots)
            .expect("consistent annotations");
        let (mut shots, mut failures) = (0, 0);
        for index in 0..sampler.num_chunks() {
            let chunk_shots = sampler.shots_in_chunk(index) as u64;
            let chunk = tracer.time("sim.sample_chunk", chunk_shots, || {
                sampler.sample_chunk(index)
            });
            let prediction = tracer.time("decoder.decode_batch", chunk_shots, || {
                decoder.decode_batch_with_snapshot(&chunk, &mut scratch, snapshot.as_ref())
            });
            failures += tracer.time("decoder.fold", chunk_shots, || {
                mismatches(&chunk, &prediction)
            });
            shots += chunk.num_shots();
        }
        (shots, failures)
    }
}

/// Shots of `chunk` whose predicted observable flips differ from the
/// sampled ones (the estimator's failure fold).
fn mismatches(
    chunk: &qccd_sim::SyndromeChunk,
    prediction: &qccd_decoder::PredictionChunk,
) -> usize {
    let mut differing = vec![0u64; chunk.words()];
    for observable in 0..chunk.num_observables() {
        let actual = chunk.observable_plane(observable);
        let predicted = prediction.plane(observable);
        for (d, (&a, &p)) in differing.iter_mut().zip(actual.iter().zip(predicted)) {
            *d |= a ^ p;
        }
    }
    if let Some(last) = differing.last_mut() {
        *last &= chunk.tail_mask();
    }
    differing.iter().map(|w| w.count_ones() as usize).sum()
}

impl Workload for LerPoint {
    fn units_per_rep(&self) -> f64 {
        self.shots as f64
    }

    fn reps_per_second(&self) -> f64 {
        self.reps_per_second
    }

    fn prepare(&mut self, seed: u64) {
        self.seed = seed;
    }

    fn build(&mut self, _tracer: &mut Tracer) {
        let arch = ArchitectureConfig::recommended(self.gate_improvement);
        let program = Compiler::new(arch)
            .compile_memory_experiment(
                &rotated_surface_code(self.distance),
                self.distance,
                MemoryBasis::Z,
            )
            .expect("the recommended design point compiles");
        self.schedule_us = program.elapsed_time_us();
        self.noisy = Some(program.to_noisy_circuit());
        self.cache = CacheStats::default();
    }

    fn rep(&mut self, index: u64, tracer: &mut Tracer) -> RepOutcome {
        let seed = self.seed + index;
        let failures = if tracer.enabled() {
            self.estimate_traced(seed, tracer).1
        } else {
            let report = self.estimate(seed);
            self.cache.merge(&report.cache);
            report.estimate.failures
        };
        RepOutcome {
            logical_failures: failures as u64,
            ops: Counts {
                attempted: self.shots as u64,
                failed: 0,
            },
        }
    }

    fn teardown(&mut self) {
        self.noisy = None;
    }

    /// Rep 0's chunks decoded on the word path and on the per-shot
    /// reference path must predict the same observable for every shot.
    fn check(&mut self) -> Counts {
        let noisy = self.noisy();
        let dem = DetectorErrorModel::from_circuit(noisy).expect("consistent annotations");
        let decoder = DecoderKind::UnionFind.build(DecodingGraph::from_dem(&dem));
        let sampler = sample_detector_chunks(noisy, self.shots, self.seed, self.config.chunk_shots)
            .expect("consistent annotations");
        let mut word_scratch = DecodeScratch::with_memo_config(self.config.memo);
        let mut shot_scratch = DecodeScratch::with_memo_config(self.config.memo);
        let mut counts = Counts::default();
        for chunk in sampler.chunks() {
            let word = decoder.decode_batch(&chunk, &mut word_scratch);
            let per_shot = decoder.decode_batch_per_shot(&chunk, &mut shot_scratch);
            counts.attempted += chunk.num_shots() as u64;
            for observable in 0..word.num_observables() {
                let differing: u32 = word
                    .plane(observable)
                    .iter()
                    .zip(per_shot.plane(observable))
                    .map(|(a, b)| (a ^ b).count_ones())
                    .sum();
                counts.failed += u64::from(differing);
            }
        }
        if counts.failed > 0 {
            eprintln!(
                "word path and per-shot path disagree on {} shots",
                counts.failed
            );
        }
        counts
    }

    fn schedule(&mut self) -> (u64, f64) {
        (self.distance as u64, self.schedule_us)
    }

    /// The estimator call against the layer sequence, same seed: equal
    /// `(shots, failures)`, and the call's time beyond the Σ of the layer
    /// spans is what the estimator adds around its layers (median of three
    /// pairs). Also the share of shots that fired any detector, from rep
    /// 0's chunks.
    fn trace_extras(&mut self, _tracer: &mut Tracer, values: &mut LayerValues) {
        let seed = self.seed;
        let overheads: Vec<f64> = (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                let report = self.estimate(seed);
                let call_s = start.elapsed().as_secs_f64();
                let mut spans = Tracer::new(true);
                let sequence = self.estimate_traced(seed, &mut spans);
                assert_eq!(
                    sequence,
                    (report.estimate.shots, report.estimate.failures),
                    "the layer sequence is the estimator's pipeline"
                );
                let layers_s: f64 = spans.layers(true).values().map(|l| l.busy_s).sum();
                call_s - layers_s
            })
            .collect();
        values.insert(
            "decoder.estimate_overhead.ms",
            1e3 * crate::stats::median(&overheads),
        );

        let sampler = sample_detector_chunks(self.noisy(), self.shots, seed, CANONICAL_BLOCK_SHOTS)
            .expect("consistent annotations");
        let fired: u64 = sampler
            .chunks()
            .map(|chunk| {
                chunk
                    .fired_shot_mask()
                    .iter()
                    .map(|w| u64::from(w.count_ones()))
                    .sum::<u64>()
            })
            .sum();
        values.insert("sim.fired_shot_share", fired as f64 / self.shots as f64);
    }

    fn layer_values(&mut self, values: &mut LayerValues) {
        let cache = self.cache;
        let share = |hits: u64, misses: u64| {
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            }
        };
        values.insert("decoder.quiet_words", cache.quiet_words as f64);
        values.insert("decoder.sparse_words", cache.sparse_words as f64);
        values.insert("decoder.dense_words", cache.dense_words as f64);
        values.insert("decoder.uncacheable", cache.uncacheable as f64);
        values.insert("decoder.cluster_conflicts", cache.cluster_conflicts as f64);
        values.insert("decoder.memo_hit_share", share(cache.hits, cache.misses));
        values.insert(
            "decoder.dense_hit_share",
            share(cache.dense_hits, cache.dense_misses),
        );
    }
}
