//! # qccd-decoder
//!
//! Surface-code decoders and logical-error-rate estimation for the QCCD
//! architecture study:
//!
//! * [`DecodingGraph`] — matching graph construction from a detector error
//!   model (hyperedges are split only into edges that single faults of the
//!   same model produce; what cannot be split is left out and counted);
//! * [`UnionFindDecoder`] — weighted union-find decoder (the default);
//! * [`GreedyMatchingDecoder`] — greedy shortest-path matching baseline;
//! * [`estimate_logical_error_rate`] — Monte-Carlo logical error rate
//!   estimation;
//! * [`fit_lambda_weighted`] / [`LambdaFit`] — below-threshold
//!   extrapolation, weighting each distance by its Monte-Carlo standard
//!   error, used to project error rates to the 10⁻⁹ regime, exactly as the
//!   paper does for its feasibility targets.
//!
//! # Batch decoding
//!
//! The paper's sweeps decode millions of shots per configuration, so the
//! [`Decoder`] trait is built around a batched hot path:
//!
//! * [`Decoder::decode_batch`] consumes a bit-packed [`SyndromeChunk`]
//!   (produced by `qccd_sim`'s chunked sampler) and returns a bit-packed
//!   [`PredictionChunk`]. All per-shot working state lives in a reusable
//!   [`DecodeScratch`], so the loop performs no allocations.
//! * [`Decoder::decode_shot`] is the per-shot primitive each decoder
//!   implements against the scratch buffers.
//! * [`Decoder::decode`] is the convenient per-shot adapter (it builds a
//!   fresh scratch per call, so prefer `decode_batch` anywhere throughput
//!   matters).
//!
//! [`estimate_logical_error_rate_with`] drives `decode_batch` over sampled
//! chunks in parallel with deterministic per-block seeds: for a fixed
//! `(shots, seed)` the estimate is bit-identical regardless of chunk size or
//! thread count.
//!
//! # Word-parallel decoding
//!
//! Below threshold almost every shot carries zero or one defect, so
//! decoding shot by shot wastes the sampler's 64-wide bit-packing.
//! [`Decoder::decode_batch`] therefore scans at **word granularity**: tiles
//! of 64 words are walked *sequentially*, plane-major, and every non-zero
//! detector-plane word is bucketed under its 64-shot word. That one
//! streaming pass both finds the quiet words and gathers the noisy lanes'
//! defect lists, so it touches each detector plane word exactly once per
//! chunk, where the per-shot loop's mask scan + per-word gather touches it
//! twice. Each word then is
//!
//! * **all-quiet** — no defect in any lane; the word is done after the one
//!   scan (the logical frame is decided directly against the observable
//!   planes by the estimator's XOR+popcount),
//! * **sparse** — every noisy lane has at most [`MemoConfig::max_defects`]
//!   defects,
//! * **dense** — some lane exceeds the cap.
//!
//! Every noisy lane goes through the same per-shot [`DecodeScratch`] memo
//! probe as the reference loop: lanes at or below the cap look their defect
//! set up in the hash table (the first sight of a set is a miss, decoded
//! and inserted), above-cap lanes are one plain [`Decoder::decode_shot`]
//! each. The
//! three-tier ladder — quiet word → sparse memo → union-find — is laid out
//! in the `batch` module docs.
//!
//! **Bit-identity contract.** The word path produces exactly the same
//! [`PredictionChunk`] — and the same hit/miss/uncacheable counters — as
//! the per-shot reference loop, which remains callable as
//! [`Decoder::decode_batch_per_shot`]; consequently estimates, early-stop
//! points and golden artifacts are unchanged for every chunk size and
//! thread count. This is property-tested in
//! `tests/prop_word_parallel_identity.rs` for all three [`DecoderKind`]s
//! and pinned by adversarial edge cases (all-dense words, word-boundary
//! straddling, ragged final words, zero-shot chunks) in
//! `tests/word_edge_cases.rs`. The per-word verdicts are observable through
//! the `*_words` counters of [`CacheStats`]; they depend only on the
//! syndrome content and the memo cap, never on scheduling.
//!
//! # Syndrome memoization
//!
//! Below threshold the same small defect sets (single defects, adjacent
//! pairs) recur across millions of shots, so [`Decoder::decode_batch`]
//! consults a per-decoder [memo table](memo) before running
//! union-find/matching: predictions of defect sets with at most
//! [`MemoConfig::max_defects`] defects (default 4) are cached inside the
//! worker's [`DecodeScratch`] and replayed on recurrence. Nothing is
//! computed ahead of the traffic: every set, single defects included, is
//! learned on first sight (one miss, one `decode_shot`, one insert), so the
//! number of misses of a scratch is the number of distinct cacheable sets
//! it has seen, whatever the chunk order, and each worker learns its own
//! table. The memo is a **pure cache** — memoized decoding is bit-identical
//! to the uncached path (property-tested in `tests/prop_memo_decode.rs` for
//! all three [`DecoderKind`]s), hit rates are observable via
//! [`CacheStats`], and [`MemoConfig::disabled`] restores the raw path. On the paper's deep
//! below-threshold workloads the memo answers most noisy shots (the repo
//! benchmark's `ler_*` workloads report it as `decoder.memo_hit_share`).
//!
//! # Sharded sweeps
//!
//! [`SweepEngine`] shards whole `(architecture, distance, decoder, noise)`
//! evaluation points across an outer worker pool that composes with the
//! inner chunk parallelism above. Every point gets the deterministic seed
//! [`sweep_seed`]`(engine seed, point index)` and results return in input
//! order, so sweeps are bit-reproducible for any thread count — the golden
//! regression tests in `qccd-bench` pin the whole pipeline end to end.
//!
//! # Example
//!
//! ```
//! use qccd_decoder::{Decoder, DecodingGraph, UnionFindDecoder};
//! use qccd_sim::{DemError, DetectorErrorModel};
//!
//! // A two-detector toy model: one shared error and two boundary errors.
//! let dem = DetectorErrorModel {
//!     num_detectors: 2,
//!     num_observables: 1,
//!     errors: vec![
//!         DemError { probability: 0.01, detectors: vec![0], observables: vec![] },
//!         DemError { probability: 0.01, detectors: vec![0, 1], observables: vec![] },
//!         DemError { probability: 0.01, detectors: vec![1], observables: vec![0] },
//!     ],
//! };
//! let decoder = UnionFindDecoder::new(DecodingGraph::from_dem(&dem));
//! assert_eq!(decoder.decode(&[0, 1]), vec![false]);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod batch;
mod dem_graph;
mod greedy;
mod ler;
pub mod memo;
mod mwpm;
mod scratch;
mod sweep;
mod union_find;

pub use batch::{DecodeScratch, PredictionChunk, SyndromeChunk};
pub use dem_graph::{DecodingEdge, DecodingGraph, DetectorIndex};
pub use greedy::GreedyMatchingDecoder;
pub use ler::{
    estimate_logical_error_rate, estimate_logical_error_rate_report,
    estimate_logical_error_rate_with, fit_lambda_weighted, zero_failure_upper_bound, DecoderKind,
    EstimateReport, EstimatorConfig, LambdaFit, LogicalErrorEstimate,
};
pub use memo::{CacheStats, MemoConfig, DEFAULT_MEMO_MAX_DEFECTS, MEMO_KEY_CAPACITY};
pub use mwpm::{ExactMatchingDecoder, DEFAULT_MAX_EXACT_DEFECTS};
pub use sweep::{sweep_seed, SweepEngine, SweepTask};
pub use union_find::UnionFindDecoder;

/// A syndrome decoder: given the fired detectors of each shot, predict which
/// logical observables were flipped.
///
/// Implementors provide [`Decoder::decode_shot`] against reusable
/// [`DecodeScratch`] buffers; the batched and per-shot entry points are
/// provided adapters.
pub trait Decoder {
    /// Number of logical observables this decoder predicts.
    fn num_observables(&self) -> usize;

    /// Decodes one shot into `prediction` (one slot per observable, pre-set
    /// to `false` by the caller), using `scratch` for all working state.
    fn decode_shot(
        &self,
        fired_detectors: &[usize],
        scratch: &mut DecodeScratch,
        prediction: &mut [bool],
    );

    /// Decodes one shot, allocating the result. `fired_detectors` lists the
    /// indices of the detectors that fired; the return value has one entry
    /// per logical observable, `true` meaning "the decoder believes this
    /// observable was flipped".
    ///
    /// This adapter builds a fresh [`DecodeScratch`] per call; use
    /// [`Decoder::decode_batch`] on the hot path.
    fn decode(&self, fired_detectors: &[usize]) -> Vec<bool> {
        let mut scratch = DecodeScratch::new();
        let mut prediction = vec![false; self.num_observables()];
        self.decode_shot(fired_detectors, &mut scratch, &mut prediction);
        prediction
    }

    /// Memo-ownership token of this decoder instance, if its predictions may
    /// be cached (see the [`memo`] module). Implementations that return
    /// `Some` promise that [`Decoder::decode_shot`] is a deterministic pure
    /// function of the fired-detector list for the lifetime of the token.
    /// The default (`None`) opts out of memoization entirely.
    fn memo_token(&self) -> Option<std::num::NonZeroU64> {
        None
    }

    /// Decodes every shot of a bit-packed syndrome chunk on the
    /// **word-parallel** path.
    ///
    /// The default implementation streams 64-word tiles of the detector
    /// planes once, bucketing every non-zero plane word under its 64-shot
    /// word — the same pass finds the quiet words and gathers the noisy
    /// lanes' defect lists:
    ///
    /// * **quiet** words (no defect anywhere) are done after the scan;
    /// * every noisy lane of a **sparse** word (every lane at or below the
    ///   memo's defect cap) or a **dense** word (some lane above it) goes
    ///   through the per-shot [`DecodeScratch`] memo probe, where above-cap
    ///   lanes count as uncacheable.
    ///
    /// Predictions — and the memo's hit/miss/uncacheable counters — are
    /// **bit-identical** to [`Decoder::decode_batch_per_shot`] and to
    /// calling [`Decoder::decode`] shot by shot, memoized or not; the word
    /// scan additionally fills the `*_words` counters of [`CacheStats`]
    /// while the memo is active.
    fn decode_batch(&self, chunk: &SyndromeChunk, scratch: &mut DecodeScratch) -> PredictionChunk {
        batch::decode_batch_words(self, chunk, scratch)
    }

    /// Decodes every shot of a chunk on the **per-shot reference** path:
    /// scan the fired-shot mask, gather every noisy lane's defect list,
    /// decode lane by lane (consulting the memo exactly like the word
    /// path). This is the loop the word-parallel default is property-tested
    /// against; prefer [`Decoder::decode_batch`] everywhere else.
    fn decode_batch_per_shot(
        &self,
        chunk: &SyndromeChunk,
        scratch: &mut DecodeScratch,
    ) -> PredictionChunk {
        batch::decode_batch_per_shot(self, chunk, scratch)
    }

    /// Kept only because the frozen benchmark package calls it; delete with
    /// the next `benchmark` PR. Nothing warms a memo, so there is never one.
    #[doc(hidden)]
    fn warm_memo_snapshot(&self, _: usize, _: &mut DecodeScratch) -> Option<()> {
        None
    }

    /// Kept only because the frozen benchmark package calls it; delete with
    /// the next `benchmark` PR. A plain [`Decoder::decode_batch`].
    #[doc(hidden)]
    fn decode_batch_with_snapshot(
        &self,
        chunk: &SyndromeChunk,
        scratch: &mut DecodeScratch,
        _: Option<&()>,
    ) -> PredictionChunk {
        self.decode_batch(chunk, scratch)
    }
}
