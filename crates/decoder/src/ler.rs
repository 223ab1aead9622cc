//! Logical error rate estimation and below-threshold extrapolation.
//!
//! The paper's evaluation reports logical error rates down to 10⁻⁹ (§6.3),
//! far below what direct Monte-Carlo sampling can reach. Like the paper, we
//! sample the code distances that are reachable, fit the exponential
//! suppression law
//!
//! ```text
//! LER(d) ≈ A · exp(β·d)        (β < 0 below threshold)
//! ```
//!
//! and project to larger distances / lower target error rates. The fit also
//! yields the error-suppression factor Λ = LER(d) / LER(d+2) = exp(−2β).
//!
//! [`estimate_logical_error_rate_report`] states the estimation pipeline
//! and its determinism contract.

use rayon::prelude::*;

use qccd_circuit::MeasurementRef;
use qccd_sim::{DetectorChunkSampler, FaultTable, NoisyCircuit, CANONICAL_BLOCK_SHOTS};

use crate::{
    CacheStats, DecodeScratch, Decoder, DecodingGraph, ExactMatchingDecoder, MemoConfig,
    UnionFindDecoder,
};

/// Which decoder to use for logical error rate estimation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DecoderKind {
    /// Weighted union-find (the default).
    #[default]
    UnionFind,
    /// Exact minimum-weight matching per shot, by a blossom on every shot
    /// (the accuracy reference).
    ExactMatching,
}

impl DecoderKind {
    /// Every kind with its names: `(kind, wire name, spec name, display
    /// name)`. The wire name is what the decode service's `open` line and
    /// the `--decoder` flag take; the spec name is what experiment specs
    /// store; the display name heads an artefact's table column. Stored
    /// specs and point payloads hold the spec names, so neither of the
    /// first two name columns may change.
    pub const NAMES: &'static [(DecoderKind, &'static str, &'static str, &'static str)] = &[
        (
            DecoderKind::UnionFind,
            "union_find",
            "union_find",
            "Union-find",
        ),
        (
            DecoderKind::ExactMatching,
            "exact",
            "exact_matching",
            "Exact matching",
        ),
    ];

    /// Builds the corresponding decoder over a decoding graph.
    pub fn build(self, graph: DecodingGraph) -> Box<dyn Decoder + Send + Sync> {
        match self {
            DecoderKind::UnionFind => Box::new(UnionFindDecoder::new(graph)),
            DecoderKind::ExactMatching => Box::new(ExactMatchingDecoder::new(graph)),
        }
    }
}

/// Tuning knobs of the Monte-Carlo pipeline. The defaults decode all
/// shots, chunked for parallel throughput, with no early stopping.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Shots per work chunk (rounded up to whole canonical sampling blocks
    /// of [`CANONICAL_BLOCK_SHOTS`] shots). Bounds peak memory and sets the
    /// scheduling granularity; it never changes the sampled bits.
    pub chunk_shots: usize,
    /// Worker threads (`None` = rayon's default for this context).
    pub num_threads: Option<usize>,
    /// Stop once the binomial standard error of the estimate drops to this
    /// value (checked only after at least one failure has been seen).
    pub target_std_error: Option<f64>,
    /// Stop once this many failures have been observed.
    pub max_failures: Option<usize>,
    /// Syndrome-memo configuration installed in every worker's
    /// [`DecodeScratch`](crate::DecodeScratch) (memoization is on by
    /// default; it never changes decoded bits).
    pub memo: MemoConfig,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            chunk_shots: 4 * CANONICAL_BLOCK_SHOTS,
            num_threads: None,
            target_std_error: None,
            max_failures: None,
            memo: MemoConfig::default(),
        }
    }
}

impl EstimatorConfig {
    /// Overrides the chunk size.
    pub fn with_chunk_shots(mut self, chunk_shots: usize) -> Self {
        self.chunk_shots = chunk_shots;
        self
    }

    /// Pins the worker thread count.
    pub fn with_num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = Some(num_threads);
        self
    }

    /// Enables early stopping at a target standard error.
    pub fn with_target_std_error(mut self, target: f64) -> Self {
        self.target_std_error = Some(target);
        self
    }

    /// Enables early stopping after a failure count.
    pub fn with_max_failures(mut self, failures: usize) -> Self {
        self.max_failures = Some(failures);
        self
    }
}

/// The result of a Monte-Carlo logical error rate estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicalErrorEstimate {
    /// Number of shots actually decoded (less than requested when early
    /// stopping triggered).
    pub shots: usize,
    /// Number of shots in which the decoder's prediction disagreed with the
    /// actual logical observable flip.
    pub failures: usize,
    /// Per-shot logical error probability.
    pub logical_error_rate: f64,
    /// Binomial standard error of the estimate. When **zero** failures were
    /// observed this instead carries the one-sided 95% Clopper–Pearson upper
    /// bound `1 − 0.05^(1/shots)` (≈ 3/shots, the rule of three): reporting
    /// σ = 0 there would claim an exactly-known rate of 0 from finite data
    /// and silently bias every downstream fit. Use
    /// [`LogicalErrorEstimate::is_upper_bound`] to tell the two apart.
    pub std_error: f64,
}

impl LogicalErrorEstimate {
    /// Returns `true` when the estimate observed zero failures, in which
    /// case [`LogicalErrorEstimate::std_error`] is a 95% upper bound on the
    /// rate rather than a standard error, and tables should render the point
    /// as `< bound`, not `0`.
    pub fn is_upper_bound(&self) -> bool {
        self.failures == 0 && self.shots > 0
    }

    /// The one-sided 95% Clopper–Pearson upper bound on the rate when zero
    /// failures were observed, `None` otherwise.
    pub fn upper_bound_95(&self) -> Option<f64> {
        if self.is_upper_bound() {
            Some(zero_failure_upper_bound(self.shots))
        } else {
            None
        }
    }

    fn from_counts(shots: usize, failures: usize) -> Self {
        let p = failures as f64 / shots as f64;
        let std_error = if failures == 0 && shots > 0 {
            zero_failure_upper_bound(shots)
        } else {
            (p * (1.0 - p) / shots as f64).sqrt()
        };
        LogicalErrorEstimate {
            shots,
            failures,
            logical_error_rate: p,
            std_error,
        }
    }
}

/// The one-sided 95% Clopper–Pearson upper bound on a rate after observing
/// zero failures in `shots` trials: `1 − 0.05^(1/shots)` (≈ 3/shots for
/// large `shots` — the "rule of three").
pub fn zero_failure_upper_bound(shots: usize) -> f64 {
    debug_assert!(shots > 0);
    1.0 - 0.05f64.powf(1.0 / shots as f64)
}

/// A logical-error estimate together with the decoders' aggregate cache
/// statistics, as returned by [`estimate_logical_error_rate_report`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimateReport {
    /// The Monte-Carlo estimate.
    pub estimate: LogicalErrorEstimate,
    /// Cache statistics summed over every chunk that contributed to the
    /// estimate. Under early stopping the estimate cuts at a canonical
    /// *block*, but the chunk containing the stopping block was decoded in
    /// one piece, so its cache delta is included whole — counters therefore
    /// cover every chunk up to and including the one holding the stopping
    /// block, and none after it (even if its wave decoded them). The
    /// word-path counters (`quiet_words` / `sparse_words` / `dense_words`)
    /// and `uncacheable` depend only on the sampled syndromes and the memo
    /// cap, so they are invariant across thread counts; the hit/miss *split*
    /// can shift with worker scheduling because each worker learns its own
    /// memo (a set costs one miss per worker that meets it). Pin
    /// [`EstimatorConfig::num_threads`] to 1 for fully deterministic
    /// counters.
    pub cache: CacheStats,
}

/// Shots and failures of a run of canonical sampling blocks: one block of
/// a chunk, or the prefix the fold has reached.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    shots: usize,
    failures: usize,
}

impl Tally {
    /// The estimate at this tally.
    fn estimate(&self) -> LogicalErrorEstimate {
        LogicalErrorEstimate::from_counts(self.shots, self.failures)
    }

    /// Whether an early-stop criterion of `config` is met at this tally.
    fn stop(&self, config: &EstimatorConfig) -> bool {
        config.max_failures.is_some_and(|max| self.failures >= max)
            || config
                .target_std_error
                .is_some_and(|target| self.failures > 0 && self.estimate().std_error <= target)
    }
}

/// One decoded chunk: its cache-counter delta and a [`Tally`] per canonical
/// sampling block, in block order.
struct ChunkOutcome {
    cache: CacheStats,
    blocks: Vec<Tally>,
}

/// Samples chunk `index`, decodes it and tallies each of its canonical
/// blocks: failures are shots whose predicted observable flips disagree
/// with the actual ones, found word-parallel by XOR + popcount.
fn decode_chunk(
    sampler: &DetectorChunkSampler<'_>,
    decoder: &dyn Decoder,
    scratch: &mut DecodeScratch,
    config: &EstimatorConfig,
    index: usize,
) -> ChunkOutcome {
    let chunk = sampler.sample_chunk(index);
    scratch.set_memo_config(config.memo);
    let before = scratch.cache_stats();
    let prediction = decoder.decode_batch(&chunk, scratch);
    let cache = scratch.cache_stats().since(&before);
    let mut mismatch = vec![0u64; chunk.words()];
    for observable in 0..chunk.num_observables() {
        let actual = chunk.observable_plane(observable);
        let predicted = prediction.plane(observable);
        for (m, (&a, &p)) in mismatch.iter_mut().zip(actual.iter().zip(predicted)) {
            *m |= a ^ p;
        }
    }
    if let Some(last) = mismatch.last_mut() {
        *last &= chunk.tail_mask();
    }
    // Chunks are whole canonical blocks (the last block of the last chunk
    // may be ragged), so every block occupies a fixed window of plane words.
    const BLOCK_WORDS: usize = CANONICAL_BLOCK_SHOTS / 64;
    let blocks = mismatch
        .chunks(BLOCK_WORDS)
        .enumerate()
        .map(|(block, words)| Tally {
            shots: (chunk.num_shots() - block * CANONICAL_BLOCK_SHOTS).min(CANONICAL_BLOCK_SHOTS),
            failures: words.iter().map(|bits| bits.count_ones() as usize).sum(),
        })
        .collect();
    ChunkOutcome { cache, blocks }
}

/// Decodes the sampler's chunks in waves of consecutive chunks, one
/// parallel map a wave, and folds each wave's outcomes in chunk order: the
/// chunk's cache delta, then its blocks one by one into the running
/// [`Tally`]. The fold stops at the first block at which a criterion of
/// `config` is met, so nothing past that block reaches the estimate and
/// nothing past its chunk reaches the cache counters. Without a criterion
/// one wave holds every chunk; with one, a wave holds two chunks per
/// thread, which bounds the work decoded past the stopping block.
fn run_pipeline(
    sampler: &DetectorChunkSampler<'_>,
    decoder: &(dyn Decoder + Send + Sync),
    config: &EstimatorConfig,
) -> EstimateReport {
    // One scratch per worker thread, reused across every chunk that worker
    // decodes.
    thread_local! {
        static SCRATCH: std::cell::RefCell<DecodeScratch> =
            std::cell::RefCell::new(DecodeScratch::new());
    }
    let num_chunks = sampler.num_chunks();
    let wave = if config.max_failures.is_none() && config.target_std_error.is_none() {
        num_chunks.max(1)
    } else {
        2 * rayon::current_num_threads().max(1)
    };
    let mut totals = Tally::default();
    let mut cache = CacheStats::default();
    'waves: for start in (0..num_chunks).step_by(wave) {
        let outcomes: Vec<ChunkOutcome> = (start..(start + wave).min(num_chunks))
            .into_par_iter()
            .map(|index| {
                SCRATCH.with(|scratch| {
                    let scratch = &mut scratch.borrow_mut();
                    decode_chunk(sampler, decoder, scratch, config, index)
                })
            })
            .collect();
        // Block by block in canonical order — never per-chunk subtotals —
        // so the stopping block is invariant under the chunk size and the
        // thread count.
        for outcome in &outcomes {
            cache.merge(&outcome.cache);
            for block in &outcome.blocks {
                totals.shots += block.shots;
                totals.failures += block.failures;
                if totals.stop(config) {
                    break 'waves;
                }
            }
        }
    }
    EstimateReport {
        estimate: totals.estimate(),
        cache,
    }
}

/// Estimates the logical error rate of a noisy circuit by sampling and
/// batch-decoding `shots` executions with the given pipeline configuration,
/// and reports the estimate with the aggregate decoder cache statistics
/// (per-word verdicts, hit/miss counters) summed over the chunks that
/// contributed to it; see [`EstimateReport::cache`] for which counters are
/// scheduling-invariant.
///
/// A shot counts as a failure if the decoder's predicted flip of *any*
/// logical observable disagrees with the actual flip. This is the
/// estimator's one circuit entry point: one pass over the circuit builds
/// its [`FaultTable`], and [`estimate_logical_error_rate_from_table`] does
/// the rest.
///
/// # Determinism
///
/// The estimator is a chunked, parallel Monte-Carlo pipeline: shots are
/// cut into bit-packed [`SyndromeChunk`](crate::SyndromeChunk)s by
/// `qccd_sim`'s chunked sampler (peak memory `O(chunk × detectors)`), each
/// chunk is decoded with
/// [`Decoder::decode_batch`] against a per-worker
/// [`DecodeScratch`](crate::DecodeScratch), and failures are counted with
/// word-parallel XOR + popcount, one tally per canonical sampling **block**.
/// Chunks are merely groups of consecutive blocks, and every block has a
/// seed derived only from `(seed, block index)`.
///
/// Chunks are decoded in waves, one parallel map a wave, and one fold
/// walks the decoded blocks in canonical order, adding each block's shots
/// and failures to the running totals. So a fixed
/// `(shots, seed)` produces a **bit-identical** estimate regardless of the
/// configured chunk size or the number of rayon threads.
///
/// With [`EstimatorConfig::target_std_error`] or
/// [`EstimatorConfig::max_failures`] set, the fold stops at the first block
/// at which the criterion is met, so the stopping point never sees chunk
/// boundaries and early-stopped estimates enjoy the same invariance. Waves
/// exist for this case: a wave holds two chunks per thread, so workers
/// decode at most one wave past the stopping block. Without a criterion
/// nothing stops the fold, and one wave holds every chunk.
///
/// # Errors
///
/// Returns the first dangling [`MeasurementRef`] if the circuit's
/// annotations are inconsistent.
pub fn estimate_logical_error_rate_report(
    circuit: &NoisyCircuit,
    shots: usize,
    seed: u64,
    decoder_kind: DecoderKind,
    config: &EstimatorConfig,
) -> Result<EstimateReport, MeasurementRef> {
    let table = FaultTable::from_circuit(circuit)?;
    Ok(estimate_logical_error_rate_from_table(
        &table,
        shots,
        seed,
        decoder_kind,
        config,
    ))
}

/// [`estimate_logical_error_rate_report`] of the circuit whose fault table
/// is `table` — the estimator's core, for callers that already hold the
/// table (a sweep that re-weights one compiled schedule per gate
/// improvement). Given `FaultTable::from_circuit(circuit)`, the report is
/// bit-identical to the circuit form's.
pub fn estimate_logical_error_rate_from_table(
    table: &FaultTable,
    shots: usize,
    seed: u64,
    decoder_kind: DecoderKind,
    config: &EstimatorConfig,
) -> EstimateReport {
    let graph = DecodingGraph::from_dem(&table.dem());
    let decoder = decoder_kind.build(graph);
    let sampler = DetectorChunkSampler::from_table(table, shots, seed, config.chunk_shots);
    match config.num_threads {
        Some(threads) => rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool construction cannot fail")
            .install(|| run_pipeline(&sampler, decoder.as_ref(), config)),
        None => run_pipeline(&sampler, decoder.as_ref(), config),
    }
}

/// An exponential fit `ln LER(d) = intercept + slope · d` across code
/// distances, with the parameter standard errors of the (weighted) least
/// squares solution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LambdaFit {
    /// Intercept of the log-linear fit.
    pub log_intercept: f64,
    /// Slope of the log-linear fit per unit of code distance (negative below
    /// threshold).
    pub log_slope: f64,
    /// Standard error of [`LambdaFit::log_intercept`] under the per-point
    /// measurement variances handed to [`fit_lambda_weighted`].
    pub log_intercept_std_error: f64,
    /// Standard error of [`LambdaFit::log_slope`] (same convention).
    pub log_slope_std_error: f64,
    /// Number of input points excluded from the fit because their error
    /// rate was non-positive (typically zero-failure points). A non-zero
    /// count means the fit rests on fewer points than were measured —
    /// report it alongside Λ so sparse fits are visibly degraded rather
    /// than quietly narrower.
    pub dropped_points: usize,
}

impl LambdaFit {
    /// The error-suppression factor Λ = LER(d) / LER(d+2).
    pub fn lambda(&self) -> f64 {
        (-2.0 * self.log_slope).exp()
    }

    /// Standard error of Λ by the delta method: `σ_Λ ≈ 2 Λ σ_slope`.
    pub fn lambda_std_error(&self) -> f64 {
        2.0 * self.lambda() * self.log_slope_std_error
    }

    /// Confidence interval `(low, high)` for Λ at `z` standard errors of the
    /// slope (e.g. `z = 1.96` for 95%), computed on the log scale so the
    /// interval is always positive: `Λ_{lo,hi} = exp(−2(slope ± z·σ_slope))`.
    pub fn lambda_confidence_interval(&self, z: f64) -> (f64, f64) {
        let lo = (-2.0 * (self.log_slope + z * self.log_slope_std_error)).exp();
        let hi = (-2.0 * (self.log_slope - z * self.log_slope_std_error)).exp();
        (lo, hi)
    }

    /// Returns `true` if the fit indicates operation below threshold (the
    /// logical error rate shrinks with distance).
    pub fn below_threshold(&self) -> bool {
        self.log_slope < 0.0
    }

    /// Projected logical error rate at code distance `d`.
    pub fn project(&self, distance: usize) -> f64 {
        (self.log_intercept + self.log_slope * distance as f64)
            .exp()
            .min(1.0)
    }

    /// The smallest code distance whose projected logical error rate is at or
    /// below `target`, or `None` if the fit is not below threshold.
    pub fn distance_for_target(&self, target: f64) -> Option<usize> {
        if !self.below_threshold() || target <= 0.0 {
            return None;
        }
        let d = (target.ln() - self.log_intercept) / self.log_slope;
        Some(d.ceil().max(1.0) as usize)
    }

    /// The required-distance range at the slope confidence edges: evaluates
    /// [`LambdaFit::distance_for_target`] with the slope shifted by
    /// `∓ z·σ_slope` (the same slope-only convention as
    /// [`LambdaFit::lambda_confidence_interval`], e.g. `z = 1.96` for 95%).
    ///
    /// Returns `(optimistic, pessimistic)`: the steeper-suppression edge
    /// needs the *smaller* distance, the shallower edge the larger one. The
    /// pessimistic edge is `None` when the shallow slope is not below
    /// threshold — at that confidence edge no finite distance reaches the
    /// target. Returns `None` overall exactly when
    /// [`LambdaFit::distance_for_target`] does.
    pub fn distance_range_for_target(&self, target: f64, z: f64) -> Option<(usize, Option<usize>)> {
        self.distance_for_target(target)?;
        let at_slope = |slope: f64| {
            LambdaFit {
                log_slope: slope,
                ..*self
            }
            .distance_for_target(target)
        };
        let steep = at_slope(self.log_slope - z.abs() * self.log_slope_std_error);
        let shallow = at_slope(self.log_slope + z.abs() * self.log_slope_std_error);
        Some((
            steep.expect("steeper-than-point slope stays below threshold"),
            shallow,
        ))
    }
}

/// Fits the exponential suppression law to `(distance, logical error rate,
/// standard error)` points using **weighted** least squares in log space.
///
/// Each point is weighted by the inverse variance of its `ln LER` value,
/// `w = (p / σ_p)²` (delta method: `σ_{ln p} = σ_p / p`), so tight
/// early-stopped estimates pull the fit harder than noisy ones. The
/// parameter standard errors follow the standard known-variance formulas
/// (`Var(slope) = Σw / Δ`, `Var(intercept) = Σwx² / Δ`) and feed the
/// [`LambdaFit::lambda_confidence_interval`].
///
/// Points with a non-positive error rate are skipped and counted in
/// [`LambdaFit::dropped_points`]; a point with a non-finite or non-positive
/// standard error gets `σ_{ln p} = 1` (unit variance) so it still
/// participates without dominating. Returns `None` if fewer than two usable
/// points remain or all usable points share one distance.
pub fn fit_lambda_weighted(points: &[(usize, f64, f64)]) -> Option<LambdaFit> {
    // (x, y, w) with x = distance, y = ln p, w = 1/σ_y² (σ_y floored to keep
    // weights finite for saturated estimates like p = 1, σ = 0).
    let usable: Vec<(f64, f64, f64)> = points
        .iter()
        .filter(|(_, p, _)| *p > 0.0)
        .map(|&(d, p, sigma)| {
            let sigma_y = if sigma.is_finite() && sigma > 0.0 {
                (sigma / p).max(1e-9)
            } else {
                1.0
            };
            (d as f64, p.ln(), 1.0 / (sigma_y * sigma_y))
        })
        .collect();
    if usable.len() < 2 {
        return None;
    }
    let sum_w: f64 = usable.iter().map(|(_, _, w)| w).sum();
    let sum_x: f64 = usable.iter().map(|(x, _, w)| w * x).sum();
    let sum_y: f64 = usable.iter().map(|(_, y, w)| w * y).sum();
    let sum_xx: f64 = usable.iter().map(|(x, _, w)| w * x * x).sum();
    let sum_xy: f64 = usable.iter().map(|(x, y, w)| w * x * y).sum();
    let denom = sum_w * sum_xx - sum_x * sum_x;
    // Relative degeneracy test: with large weights the determinant of a
    // single-distance system is a rounding residue of `Σw·Σwx²`, not an
    // absolute epsilon. `<=` so an exactly-zero determinant (e.g. every
    // point at distance 0, where the scale itself is 0) is also rejected.
    if !denom.is_finite() || denom.abs() <= 1e-9 * sum_w.abs() * sum_xx.abs() {
        return None;
    }
    let slope = (sum_w * sum_xy - sum_x * sum_y) / denom;
    let intercept = (sum_y - slope * sum_x) / sum_w;
    Some(LambdaFit {
        log_intercept: intercept,
        log_slope: slope,
        log_intercept_std_error: (sum_xx / denom).sqrt(),
        log_slope_std_error: (sum_w / denom).sqrt(),
        dropped_points: points.len() - usable.len(),
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use qccd_circuit::{Instruction, QubitId};
    use qccd_qec::{memory_experiment, repetition_code, rotated_surface_code, MemoryBasis};
    use qccd_sim::NoiseChannel;

    /// Builds a memory experiment with simple code-capacity-style noise: a
    /// depolarising channel on every data qubit at the start of each round.
    pub(crate) fn noisy_memory(code: &qccd_qec::CodeLayout, rounds: usize, p: f64) -> NoisyCircuit {
        let exp = memory_experiment(code, rounds, MemoryBasis::Z);
        let data: Vec<QubitId> = code.data_qubits();
        let mut noisy = NoisyCircuit::new();
        noisy.pad_qubits(exp.circuit.num_qubits());
        // Track round boundaries: a round starts at each block of ancilla
        // resets. For simplicity, inject noise right before each ancilla
        // reset block by counting resets of the first ancilla.
        let first_ancilla = code.ancilla_qubits()[0];
        for instruction in exp.circuit.iter() {
            if let Instruction::Reset(q) = instruction {
                if *q == first_ancilla {
                    for &d in &data {
                        noisy.push_noise(NoiseChannel::Depolarize1 { qubit: d, p });
                    }
                }
            }
            noisy.push_gate(*instruction);
        }
        for detector in exp.circuit.detectors() {
            noisy.add_detector(detector.clone());
        }
        for observable in exp.circuit.observables() {
            noisy.add_observable(observable.clone());
        }
        noisy
    }

    #[test]
    fn noiseless_circuit_has_zero_logical_error_rate() {
        let code = repetition_code(3);
        let circuit = noisy_memory(&code, 2, 0.0);
        let est = estimate_logical_error_rate_report(
            &circuit,
            2000,
            3,
            DecoderKind::UnionFind,
            &EstimatorConfig::default(),
        )
        .unwrap()
        .estimate;
        assert_eq!(est.failures, 0);
        assert_eq!(est.logical_error_rate, 0.0);
        // Zero observed failures must not be reported as an exactly-known
        // zero: std_error carries the 95% Clopper–Pearson upper bound.
        assert!(est.is_upper_bound());
        assert_eq!(est.std_error, zero_failure_upper_bound(2000));
        assert_eq!(est.upper_bound_95(), Some(est.std_error));
    }

    #[test]
    fn zero_failure_upper_bound_follows_rule_of_three() {
        // Exact: 1 − 0.05^(1/n); for large n this approaches 3/n.
        let bound = zero_failure_upper_bound(10_000);
        assert!((bound - 3.0 / 10_000.0).abs() < 2e-6, "bound {bound}");
        // A point estimate with failures does NOT report a bound.
        let est = LogicalErrorEstimate::from_counts(1000, 10);
        assert!(!est.is_upper_bound());
        assert_eq!(est.upper_bound_95(), None);
        assert!((est.std_error - (0.01f64 * 0.99 / 1000.0).sqrt()).abs() < 1e-15);
    }

    #[test]
    fn repetition_code_suppresses_errors_below_physical_rate() {
        let p = 0.02;
        let code = repetition_code(5);
        let circuit = noisy_memory(&code, 3, p);
        let est = estimate_logical_error_rate_report(
            &circuit,
            20_000,
            5,
            DecoderKind::UnionFind,
            &EstimatorConfig::default(),
        )
        .unwrap()
        .estimate;
        // The decoder must beat the unprotected physical error rate by a
        // comfortable margin.
        assert!(
            est.logical_error_rate < p / 2.0,
            "logical error rate {} not suppressed below physical rate {p}",
            est.logical_error_rate
        );
    }

    #[test]
    fn larger_distance_gives_lower_logical_error_rate() {
        let p = 0.04;
        let mut rates = Vec::new();
        for d in [3usize, 7] {
            let code = repetition_code(d);
            let circuit = noisy_memory(&code, 2, p);
            let est = estimate_logical_error_rate_report(
                &circuit,
                30_000,
                11,
                DecoderKind::UnionFind,
                &EstimatorConfig::default(),
            )
            .unwrap()
            .estimate;
            rates.push(est.logical_error_rate);
        }
        assert!(
            rates[1] < rates[0],
            "distance 7 ({}) should beat distance 3 ({})",
            rates[1],
            rates[0]
        );
    }

    #[test]
    fn surface_code_decoding_runs_and_suppresses() {
        let p = 0.01;
        let code = rotated_surface_code(3);
        let circuit = noisy_memory(&code, 3, p);
        let est = estimate_logical_error_rate_report(
            &circuit,
            10_000,
            5,
            DecoderKind::UnionFind,
            &EstimatorConfig::default(),
        )
        .unwrap()
        .estimate;
        assert!(
            est.logical_error_rate < 3.0 * p,
            "surface code LER {} unexpectedly high",
            est.logical_error_rate
        );
    }

    #[test]
    fn decoders_agree_on_aggregate_behaviour() {
        let p = 0.03;
        let code = repetition_code(5);
        let circuit = noisy_memory(&code, 2, p);
        let uf = estimate_logical_error_rate_report(
            &circuit,
            20_000,
            9,
            DecoderKind::UnionFind,
            &EstimatorConfig::default(),
        )
        .unwrap()
        .estimate;
        let exact = estimate_logical_error_rate_report(
            &circuit,
            20_000,
            9,
            DecoderKind::ExactMatching,
            &EstimatorConfig::default(),
        )
        .unwrap()
        .estimate;
        // Same order of magnitude; union-find may be somewhat worse.
        assert!(exact.logical_error_rate <= uf.logical_error_rate * 4.0 + 0.01);
        assert!(uf.logical_error_rate <= exact.logical_error_rate * 4.0 + 0.01);
    }

    #[test]
    fn estimate_is_invariant_under_chunk_size_and_threads() {
        let p = 0.03;
        let code = repetition_code(5);
        let circuit = noisy_memory(&code, 2, p);
        let shots = 3 * CANONICAL_BLOCK_SHOTS + 500;
        // With exact matching, the threads of one estimate also race to
        // fill one decoder's shortest-path rows.
        for (kind, ..) in DecoderKind::NAMES {
            let reference = estimate_logical_error_rate_report(
                &circuit,
                shots,
                42,
                *kind,
                &EstimatorConfig::default()
                    .with_chunk_shots(1)
                    .with_num_threads(1),
            )
            .unwrap()
            .estimate;
            for (chunk_shots, threads) in [
                (CANONICAL_BLOCK_SHOTS, 2),
                (2 * CANONICAL_BLOCK_SHOTS, 3),
                (usize::MAX, 4),
            ] {
                let config = EstimatorConfig::default()
                    .with_chunk_shots(chunk_shots)
                    .with_num_threads(threads);
                let estimate =
                    estimate_logical_error_rate_report(&circuit, shots, 42, *kind, &config)
                        .unwrap()
                        .estimate;
                assert_eq!(
                    (estimate.shots, estimate.failures),
                    (reference.shots, reference.failures),
                    "{kind:?} chunk_shots={chunk_shots} threads={threads}"
                );
                assert_eq!(estimate.logical_error_rate, reference.logical_error_rate);
            }
        }
    }

    #[test]
    fn early_stop_on_failure_count_decodes_fewer_shots() {
        let p = 0.05;
        let code = repetition_code(3);
        let circuit = noisy_memory(&code, 2, p);
        let shots = 16 * CANONICAL_BLOCK_SHOTS;
        let config = EstimatorConfig::default()
            .with_chunk_shots(CANONICAL_BLOCK_SHOTS)
            .with_max_failures(10);
        let est =
            estimate_logical_error_rate_report(&circuit, shots, 7, DecoderKind::UnionFind, &config)
                .unwrap()
                .estimate;
        assert!(est.failures >= 10, "stop criterion reached");
        assert!(
            est.shots < shots,
            "early stop should decode fewer than {shots} shots, got {}",
            est.shots
        );
        // Deterministic across thread counts.
        for threads in [1, 3] {
            let again = estimate_logical_error_rate_report(
                &circuit,
                shots,
                7,
                DecoderKind::UnionFind,
                &config.with_num_threads(threads),
            )
            .unwrap()
            .estimate;
            assert_eq!((again.shots, again.failures), (est.shots, est.failures));
        }
    }

    #[test]
    fn early_stop_is_invariant_under_chunk_size() {
        // The stop decision is canonical in block units, so the early-stopped
        // estimate must be bit-identical whatever the chunk size (and thread
        // count) — not just deterministic per chunk size.
        let p = 0.05;
        let code = repetition_code(3);
        let circuit = noisy_memory(&code, 2, p);
        let shots = 16 * CANONICAL_BLOCK_SHOTS;
        let reference = estimate_logical_error_rate_report(
            &circuit,
            shots,
            7,
            DecoderKind::UnionFind,
            &EstimatorConfig::default()
                .with_chunk_shots(CANONICAL_BLOCK_SHOTS)
                .with_num_threads(1)
                .with_max_failures(10),
        )
        .unwrap()
        .estimate;
        for (chunk_shots, threads) in [
            (CANONICAL_BLOCK_SHOTS, 3),
            (3 * CANONICAL_BLOCK_SHOTS, 2),
            (5 * CANONICAL_BLOCK_SHOTS, 1),
            (usize::MAX, 4),
        ] {
            let est = estimate_logical_error_rate_report(
                &circuit,
                shots,
                7,
                DecoderKind::UnionFind,
                &EstimatorConfig::default()
                    .with_chunk_shots(chunk_shots)
                    .with_num_threads(threads)
                    .with_max_failures(10),
            )
            .unwrap()
            .estimate;
            assert_eq!(
                (est.shots, est.failures),
                (reference.shots, reference.failures),
                "chunk_shots={chunk_shots} threads={threads}"
            );
        }
        // Same invariance for the std-error criterion.
        let by_std = |chunk_shots: usize| {
            estimate_logical_error_rate_report(
                &circuit,
                shots,
                7,
                DecoderKind::UnionFind,
                &EstimatorConfig::default()
                    .with_chunk_shots(chunk_shots)
                    .with_target_std_error(5e-3),
            )
            .unwrap()
            .estimate
        };
        let a = by_std(CANONICAL_BLOCK_SHOTS);
        let b = by_std(4 * CANONICAL_BLOCK_SHOTS);
        assert_eq!((a.shots, a.failures), (b.shots, b.failures));
    }

    #[test]
    fn early_stop_cuts_mid_chunk_at_the_stopping_block() {
        // With one huge chunk, the block-canonical stop must cut inside it:
        // the decoded-shot count matches the fine-chunked run, not the whole
        // chunk.
        let p = 0.05;
        let code = repetition_code(3);
        let circuit = noisy_memory(&code, 2, p);
        let shots = 16 * CANONICAL_BLOCK_SHOTS;
        let config = EstimatorConfig::default()
            .with_chunk_shots(usize::MAX)
            .with_max_failures(10);
        let est =
            estimate_logical_error_rate_report(&circuit, shots, 7, DecoderKind::UnionFind, &config)
                .unwrap()
                .estimate;
        assert!(est.failures >= 10);
        assert!(
            est.shots < shots,
            "the single-chunk run must still stop early ({} shots)",
            est.shots
        );
        assert_eq!(est.shots % CANONICAL_BLOCK_SHOTS, 0, "cuts at a block");
    }

    #[test]
    fn early_stop_on_std_error_reaches_target() {
        let p = 0.08;
        let code = repetition_code(3);
        let circuit = noisy_memory(&code, 2, p);
        let config = EstimatorConfig::default()
            .with_chunk_shots(CANONICAL_BLOCK_SHOTS)
            .with_target_std_error(5e-3);
        let est = estimate_logical_error_rate_report(
            &circuit,
            32 * CANONICAL_BLOCK_SHOTS,
            13,
            DecoderKind::UnionFind,
            &config,
        )
        .unwrap()
        .estimate;
        assert!(
            est.std_error <= 5e-3,
            "std error {} above target",
            est.std_error
        );
        assert!(est.shots < 32 * CANONICAL_BLOCK_SHOTS);
    }

    #[test]
    fn decoder_kind_defaults_to_union_find() {
        assert_eq!(DecoderKind::default(), DecoderKind::UnionFind);
    }

    #[test]
    fn lambda_fit_recovers_synthetic_slope() {
        // LER(d) = 0.3 · exp(−0.8 d), every point at unit log-variance.
        let points: Vec<(usize, f64, f64)> = (3..=11)
            .step_by(2)
            .map(|d| {
                let p = 0.3 * (-0.8 * d as f64).exp();
                (d, p, p)
            })
            .collect();
        let fit = fit_lambda_weighted(&points).unwrap();
        assert!((fit.log_slope - (-0.8)).abs() < 1e-9);
        assert!(fit.below_threshold());
        assert!((fit.lambda() - (1.6f64).exp()).abs() < 1e-9);
        // Projection reproduces the inputs.
        assert!((fit.project(7) - 0.3 * (-5.6f64).exp()).abs() < 1e-12);
        // Distance needed for a 1e-9 target.
        let d = fit.distance_for_target(1e-9).unwrap();
        assert!(fit.project(d) <= 1e-9);
        assert!(fit.project(d.saturating_sub(1)) > 1e-9);
    }

    #[test]
    fn lambda_fit_requires_two_points() {
        assert!(fit_lambda_weighted(&[(3, 0.1, 0.1)]).is_none());
        assert!(fit_lambda_weighted(&[(3, 0.0, 0.0), (5, 0.0, 0.0)]).is_none());
        assert!(fit_lambda_weighted(&[(3, 0.1, 0.1), (5, 0.05, 0.05)]).is_some());
    }

    #[test]
    fn weighted_fit_matches_hand_computed_collinear_case() {
        // x = [3, 5, 7], y = ln p = [−1, −2, −3] (exactly collinear), with
        // σ_p/p = [0.5, 1.0, 0.5] so the weights are w = 1/σ_y² = [4, 1, 4].
        // Hand-computed weighted sums: Σw = 9, Σwx = 45, Σwy = −18,
        // Σwx² = 257, Σwxy = −106, Δ = 9·257 − 45² = 288, so
        // slope = (9·(−106) − 45·(−18))/288 = −144/288 = −1/2,
        // intercept = (−18 + 45/2)/9 = 1/2,
        // Var(slope) = Σw/Δ = 9/288 = 1/32, Var(intercept) = Σwx²/Δ = 257/288.
        let p = |y: f64| y.exp();
        let points = [
            (3, p(-1.0), 0.5 * p(-1.0)),
            (5, p(-2.0), 1.0 * p(-2.0)),
            (7, p(-3.0), 0.5 * p(-3.0)),
        ];
        let fit = fit_lambda_weighted(&points).unwrap();
        assert!((fit.log_slope - (-0.5)).abs() < 1e-12);
        assert!((fit.log_intercept - 0.5).abs() < 1e-12);
        assert!((fit.log_slope_std_error - (1.0f64 / 32.0).sqrt()).abs() < 1e-12);
        assert!((fit.log_intercept_std_error - (257.0f64 / 288.0).sqrt()).abs() < 1e-12);
        assert!((fit.lambda() - 1.0f64.exp()).abs() < 1e-12);
        assert!(
            (fit.lambda_std_error() - 2.0 * 1.0f64.exp() * (1.0f64 / 32.0).sqrt()).abs() < 1e-12
        );
    }

    #[test]
    fn weighted_fit_matches_hand_computed_non_collinear_case() {
        // x = [3, 5, 7], y = [0, −1, −3], w = [4, 1, 1]: Σw = 6, Σwx = 24,
        // Σwy = −4, Σwx² = 110, Σwxy = −26, Δ = 660 − 576 = 84, so
        // slope = (−156 + 96)/84 = −5/7 and intercept = (−4 + 120/7)/6 =
        // 46/21 — distinct from the unweighted slope of −3/4, which is the
        // point of the weighting.
        let p = |y: f64| y.exp();
        let points = [
            (3, p(0.0), 0.5 * p(0.0)),
            (5, p(-1.0), 1.0 * p(-1.0)),
            (7, p(-3.0), 1.0 * p(-3.0)),
        ];
        let fit = fit_lambda_weighted(&points).unwrap();
        assert!((fit.log_slope - (-5.0 / 7.0)).abs() < 1e-12);
        assert!((fit.log_intercept - 46.0 / 21.0).abs() < 1e-12);
        assert!((fit.log_slope_std_error - (6.0f64 / 84.0).sqrt()).abs() < 1e-12);
        let unweighted = fit_lambda_weighted(&[
            (3, p(0.0), p(0.0)),
            (5, p(-1.0), p(-1.0)),
            (7, p(-3.0), p(-3.0)),
        ])
        .unwrap();
        assert!((unweighted.log_slope - (-0.75)).abs() < 1e-12);
    }

    #[test]
    fn lambda_confidence_interval_brackets_lambda() {
        let fit =
            fit_lambda_weighted(&[(3, 0.1, 0.01), (5, 0.02, 0.004), (7, 0.004, 0.001)]).unwrap();
        let (lo, hi) = fit.lambda_confidence_interval(1.96);
        assert!(lo > 0.0);
        assert!(lo < fit.lambda() && fit.lambda() < hi);
        // The z = 0 interval collapses onto the point estimate.
        let (l0, h0) = fit.lambda_confidence_interval(0.0);
        assert!((l0 - fit.lambda()).abs() < 1e-12 && (h0 - fit.lambda()).abs() < 1e-12);
    }

    #[test]
    fn weighted_fit_tolerates_degenerate_sigmas() {
        // σ = 0 and non-finite σ fall back to unit log-variance instead of
        // producing infinite weights; the fit stays finite and usable.
        let fit =
            fit_lambda_weighted(&[(3, 1.0, 0.0), (5, 0.1, f64::NAN), (7, 0.01, 0.002)]).unwrap();
        assert!(fit.log_slope.is_finite());
        assert!(fit.log_slope_std_error.is_finite());
        // Identical distances cannot determine a slope — including distance
        // 0, where the determinant and its scale are both exactly zero.
        assert!(fit_lambda_weighted(&[(3, 0.1, 0.01), (3, 0.2, 0.01)]).is_none());
        assert!(fit_lambda_weighted(&[(0, 0.1, 0.01), (0, 0.2, 0.01)]).is_none());
        assert!(fit_lambda_weighted(&[(0, 0.1, 0.1), (0, 0.2, 0.2)]).is_none());
    }

    #[test]
    fn weighted_fit_surfaces_dropped_points() {
        let fit = fit_lambda_weighted(&[
            (3, 0.1, 0.01),
            (5, 0.02, 0.004),
            (7, 0.0, 0.0),
            (9, -1.0, 0.0),
        ])
        .unwrap();
        assert_eq!(fit.dropped_points, 2);
        let clean =
            fit_lambda_weighted(&[(3, 0.1, 0.01), (5, 0.02, 0.004), (7, 0.004, 0.001)]).unwrap();
        assert_eq!(clean.dropped_points, 0);
    }

    #[test]
    fn above_threshold_fit_has_no_target_distance() {
        let fit =
            fit_lambda_weighted(&[(3, 0.01, 0.01), (5, 0.02, 0.02), (7, 0.04, 0.04)]).unwrap();
        assert!(!fit.below_threshold());
        assert_eq!(fit.distance_for_target(1e-9), None);
        assert_eq!(fit.distance_range_for_target(1e-9, 1.96), None);
    }

    #[test]
    fn distance_range_brackets_the_point_distance() {
        let fit =
            fit_lambda_weighted(&[(3, 0.1, 0.01), (5, 0.02, 0.004), (7, 0.004, 0.001)]).unwrap();
        let d = fit.distance_for_target(1e-9).unwrap();
        let (lo, hi) = fit.distance_range_for_target(1e-9, 1.96).unwrap();
        let hi = hi.expect("shallow edge still below threshold here");
        assert!(lo <= d && d <= hi, "{lo} <= {d} <= {hi}");
        // z = 0 collapses onto the point estimate.
        assert_eq!(fit.distance_range_for_target(1e-9, 0.0), Some((d, Some(d))));
        // A fit whose slope uncertainty spans zero has an unbounded
        // pessimistic edge.
        let wobbly = LambdaFit {
            log_intercept: -1.0,
            log_slope: -0.1,
            log_intercept_std_error: 0.1,
            log_slope_std_error: 0.2,
            dropped_points: 0,
        };
        let (lo, hi) = wobbly.distance_range_for_target(1e-9, 1.96).unwrap();
        assert!(lo >= 1);
        assert_eq!(hi, None);
    }
}
