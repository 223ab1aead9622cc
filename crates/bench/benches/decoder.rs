//! Criterion micro-benchmarks for the union-find decoder and the end-to-end
//! logical error rate estimator, plus the batch-vs-per-shot decode
//! throughput comparison that gates the batched pipeline (the batch path
//! must beat the per-shot adapter by a wide margin).

use criterion::{criterion_group, criterion_main, BenchmarkGroup, BenchmarkId, Criterion};
use qccd_circuit::Instruction;
use qccd_core::{ArchitectureConfig, Compiler};
use qccd_decoder::{
    estimate_logical_error_rate, DecodeScratch, Decoder, DecoderKind, DecodingGraph, MemoConfig,
    PredictionChunk, UnionFindDecoder,
};
use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};
use qccd_sim::{
    sample_detector_chunks, DetectorErrorModel, NoiseChannel, NoisyCircuit, SyndromeChunk,
};

fn compiled_noisy_memory(d: usize) -> NoisyCircuit {
    let layout = rotated_surface_code(d);
    let compiler = Compiler::new(ArchitectureConfig::recommended(5.0));
    compiler
        .compile_memory_experiment(&layout, d, MemoryBasis::Z)
        .expect("compiles")
        .to_noisy_circuit()
}

/// A rotated-surface-code memory experiment with code-capacity depolarising
/// noise at rate `p` on every data qubit each round — the deep
/// below-threshold regime the paper's Λ-fits sample from.
fn code_capacity_memory(d: usize, p: f64) -> NoisyCircuit {
    let code = rotated_surface_code(d);
    let exp = memory_experiment(&code, d, MemoryBasis::Z);
    let data = code.data_qubits();
    let mut noisy = NoisyCircuit::new();
    noisy.pad_qubits(exp.circuit.num_qubits());
    let first_ancilla = code.ancilla_qubits()[0];
    for instruction in exp.circuit.iter() {
        if let Instruction::Reset(q) = instruction {
            if *q == first_ancilla {
                for &dq in &data {
                    noisy.push_noise(NoiseChannel::Depolarize1 { qubit: dq, p });
                }
            }
        }
        noisy.push_gate(*instruction);
    }
    for det in exp.circuit.detectors() {
        noisy.add_detector(det.clone());
    }
    for obs in exp.circuit.observables() {
        noisy.add_observable(obs.clone());
    }
    noisy
}

fn bench_ler_estimation(c: &mut Criterion) {
    let mut group = c.benchmark_group("logical_error_rate_1024_shots");
    group.sample_size(10);
    {
        let d = 3usize;
        let noisy = compiled_noisy_memory(d);
        group.bench_with_input(BenchmarkId::from_parameter(d), &d, |b, _| {
            b.iter(|| {
                estimate_logical_error_rate(&noisy, 1024, 11, DecoderKind::UnionFind)
                    .expect("decodes")
            });
        });
    }
    group.finish();
}

/// Batch vs per-shot decode throughput on identical pre-sampled syndromes.
///
/// `decode_batch` reuses one `DecodeScratch` across all shots and skips
/// quiet shots with a word scan; the per-shot adapter pays a fresh scratch
/// and a defect-list allocation per shot (the pre-batch behaviour).
fn bench_batch_vs_per_shot(c: &mut Criterion) {
    for d in [3usize, 5, 7] {
        let shots = 100_000;
        let noisy = code_capacity_memory(d, 0.002);
        let dem = DetectorErrorModel::from_circuit(&noisy).expect("valid annotations");
        let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem));
        let sampler = sample_detector_chunks(&noisy, shots, 11, shots).expect("valid annotations");
        let chunk: SyndromeChunk = sampler.sample_chunk(0);

        let mut group = c.benchmark_group(format!("decode_{shots}_shots_d{d}"));
        group.sample_size(10);
        group.bench_function("batch", |b| {
            // Memo disabled: this is PR 1's raw batch path, the baseline the
            // memoized benchmark below is measured against.
            let mut scratch = DecodeScratch::with_memo_config(MemoConfig::disabled());
            b.iter(|| decoder.decode_batch(&chunk, &mut scratch));
        });
        group.bench_function("per_shot", |b| {
            b.iter(|| {
                let mut flips = 0usize;
                let mut fired = Vec::new();
                for shot in 0..chunk.num_shots() {
                    chunk.fired_detectors_into(shot, &mut fired);
                    let prediction = decoder.decode(&fired);
                    flips += prediction.iter().filter(|&&f| f).count();
                }
                flips
            });
        });
        group.finish();
    }
}

/// Chunks in a [`DecodePoint`]'s ring.
const RING_CHUNKS: usize = 4;

/// One decode evaluation point the way an estimator worker meets it: a
/// decoder and a ring of distinct pre-sampled chunks.
struct DecodePoint {
    label: String,
    decoder: UnionFindDecoder,
    ring: Vec<SyndromeChunk>,
}

impl DecodePoint {
    fn new(label: String, noisy: &NoisyCircuit, chunk_shots: usize) -> Self {
        let dem = DetectorErrorModel::from_circuit(noisy).expect("valid annotations");
        let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem));
        let sampler = sample_detector_chunks(noisy, RING_CHUNKS * chunk_shots, 11, chunk_shots)
            .expect("valid annotations");
        DecodePoint {
            label,
            decoder,
            ring: (0..RING_CHUNKS).map(|i| sampler.sample_chunk(i)).collect(),
        }
    }

    /// Times `decode` over the ring, each iteration on a fresh scratch and
    /// the next chunk. Replaying one chunk into one long-lived scratch
    /// would turn every lane into a cache hit after the first iteration — a
    /// regime no estimator, sweep or service path produces.
    fn bench(
        &self,
        group: &mut BenchmarkGroup<'_>,
        id: &str,
        memo: MemoConfig,
        decode: impl Fn(&UnionFindDecoder, &SyndromeChunk, &mut DecodeScratch) -> PredictionChunk,
    ) {
        group.bench_function(id, |b| {
            let mut next = 0usize;
            b.iter(|| {
                let chunk = &self.ring[next % RING_CHUNKS];
                next += 1;
                decode(
                    &self.decoder,
                    chunk,
                    &mut DecodeScratch::with_memo_config(memo),
                )
            });
        });
    }
}

/// The two regimes the decode benches compare: the code-capacity sampling
/// point (d = 5, p = 2e-3 — few error mechanisms, so defect sets recur),
/// and the circuit-level program of the repo benchmark's `ler_noisy_d5`
/// workload (grid c2, 5X gates, d = 5 — movement, idling, gate and
/// measurement faults, the regime every paper artefact decodes).
fn decode_points() -> [DecodePoint; 2] {
    let shots = 100_000;
    [
        DecodePoint::new(
            format!("{shots}_shots_d5"),
            &code_capacity_memory(5, 0.002),
            shots,
        ),
        DecodePoint::new(
            format!("{shots}_shots_d5_grid_c2_5x"),
            &compiled_noisy_memory(5),
            shots,
        ),
    ]
}

/// Memoized vs uncached batch decode at both [`decode_points`]; the cache
/// hit rate a fresh worker sees on one chunk is printed alongside the
/// timings.
fn bench_memoized_vs_uncached(c: &mut Criterion) {
    for point in decode_points() {
        let mut group = c.benchmark_group(format!("memoized_decode_{}", point.label));
        group.sample_size(10);
        point.bench(
            &mut group,
            "batch_uncached",
            MemoConfig::disabled(),
            Decoder::decode_batch,
        );
        point.bench(
            &mut group,
            "batch_memoized",
            MemoConfig::default(),
            Decoder::decode_batch,
        );
        group.finish();

        let mut scratch = DecodeScratch::new();
        point.decoder.decode_batch(&point.ring[0], &mut scratch);
        let stats = scratch.cache_stats();
        println!(
            "memoized_decode_{}/cache: hit rate {:.1}% ({} hits / {} misses / {} uncacheable \
             over {} noisy shots, {} distinct defect sets)",
            point.label,
            100.0 * stats.hit_rate(),
            stats.hits,
            stats.misses,
            stats.uncacheable,
            stats.decoded(),
            scratch.memo_entries(),
        );
    }
}

/// Word-parallel vs per-shot batch decode at both [`decode_points`].
///
/// Three bit-identical contenders:
///
/// * `word` — the word-parallel default (one streaming tile scan that
///   finds quiet words and gathers defect lists, memoized);
/// * `per_shot` — the per-shot reference loop at the same memo
///   configuration (the bit-identity partner; mask scan + per-word gather
///   instead of the tile scan is the only difference);
/// * `per_shot_unmemoized` — per-shot union-find against the reusable
///   scratch with the memo off (what every shot paid before memoization).
///
/// Every noisy lane takes the same memo probe in `word` and `per_shot`, so
/// their delta isolates what the single streaming scan buys over two plane
/// passes. The per-word verdicts are printed alongside the timings.
fn bench_word_vs_per_shot(c: &mut Criterion) {
    for point in decode_points() {
        let mut group = c.benchmark_group(format!("word_decode_{}", point.label));
        group.sample_size(10);
        point.bench(
            &mut group,
            "word",
            MemoConfig::default(),
            Decoder::decode_batch,
        );
        point.bench(
            &mut group,
            "per_shot",
            MemoConfig::default(),
            Decoder::decode_batch_per_shot,
        );
        point.bench(
            &mut group,
            "per_shot_unmemoized",
            MemoConfig::disabled(),
            Decoder::decode_batch_per_shot,
        );
        group.finish();

        // Identical predictions by contract; print the word verdicts so
        // a shift in the quiet/sparse/dense mix is visible in CI logs.
        let mut word = DecodeScratch::new();
        let mut per_shot = DecodeScratch::new();
        for chunk in &point.ring {
            let a = point.decoder.decode_batch(chunk, &mut word);
            let b = point.decoder.decode_batch_per_shot(chunk, &mut per_shot);
            assert_eq!(a, b, "word and per-shot paths must be bit-identical");
        }
        let stats = word.cache_stats();
        println!(
            "word_decode_{}/words: {} quiet / {} sparse / {} dense, {} noisy shots \
             ({:.1}% hit rate)",
            point.label,
            stats.quiet_words,
            stats.sparse_words,
            stats.dense_words,
            stats.decoded(),
            100.0 * stats.hit_rate(),
        );
    }
}

criterion_group!(
    benches,
    bench_ler_estimation,
    bench_batch_vs_per_shot,
    bench_memoized_vs_uncached,
    bench_word_vs_per_shot
);
criterion_main!(benches);
