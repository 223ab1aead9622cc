//! # qccd-decoder
//!
//! Surface-code decoders and logical-error-rate estimation for the QCCD
//! architecture study:
//!
//! * [`DecodingGraph`] — matching graph construction from a detector error
//!   model (hyperedges are split only into edges that single faults of the
//!   same model produce; what cannot be split is left out and counted). Its
//!   flat per-edge tables and incidence are what both decoders read;
//! * [`UnionFindDecoder`] — weighted union-find decoder (the default);
//! * [`ExactMatchingDecoder`] — minimum-weight perfect matching of every
//!   shot by Edmonds' blossom algorithm, the accuracy reference. Its
//!   shortest paths come from per-node rows the decoder fills once, the
//!   first time a defect lands on a node;
//! * [`estimate_logical_error_rate_report`] (a circuit) and
//!   [`estimate_logical_error_rate_from_table`] (a fault table) — Monte-Carlo
//!   logical error rate estimation, one entry point per input;
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
//!   implements against the scratch buffers. It returns the shot's `u64`
//!   observable mask, the one prediction format of the memo, the batch
//!   loops and the decode service.
//! * [`Decoder::decode`] is the convenient per-shot adapter that unpacks
//!   the mask (it builds a fresh scratch per call, so prefer `decode_batch`
//!   anywhere throughput matters).
//!
//! [`estimate_logical_error_rate_from_table`] drives `decode_batch` over sampled
//! chunks in parallel with deterministic per-block seeds: for a fixed
//! `(shots, seed)` the estimate is bit-identical regardless of chunk size or
//! thread count ([`estimate_logical_error_rate_report`] states the
//! contract).
//!
//! # Word-parallel decoding
//!
//! Below threshold almost every shot carries zero or one defect, so
//! decoding shot by shot wastes the sampler's 64-wide bit-packing.
//! [`Decoder::decode_batch`] therefore works at **word granularity**: per
//! tile of 64 words, the chunk's occupancy index
//! ([`SyndromeChunk::tile_occupancy`], one mask per detector) names every
//! non-zero detector-plane word, and only those are read and bucketed under
//! their 64-shot word. That one walk both finds the quiet words and gathers
//! the noisy lanes' defect lists, at a cost that follows the fired words:
//! a quiet word's plane words are never read, where the per-shot loop's
//! mask scan + per-word gather reads every word twice. Each word then is
//!
//! * **all-quiet** — no defect in any lane; no occupancy bit names it, so
//!   nothing of it is read (the logical frame is decided directly against
//!   the observable planes by the estimator's XOR+popcount),
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
//! `tests/prop_word_parallel_identity.rs` for both [`DecoderKind`]s
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
//! both [`DecoderKind`]s), hit rates are observable via
//! [`CacheStats`], and [`MemoConfig::disabled`] restores the raw path. On the paper's deep
//! below-threshold workloads the memo answers most noisy shots (the repo
//! benchmark's `ler_*` workloads report it as `decoder.memo_hit_share`).
//!
//! # Sweep seeds
//!
//! A sweep over `(architecture, distance, decoder, noise)` points gives
//! point `i` the deterministic seed [`sweep_seed`]`(sweep seed, i)`, so every
//! point's estimate is a pure function of the point and that seed. The
//! estimator's chunk waves are the only parallelism inside a process; the
//! golden regression tests in `qccd-bench` pin the whole pipeline end to
//! end.
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
mod blossom;
mod dem_graph;
#[cfg(test)]
mod greedy;
mod ler;
pub mod memo;
mod mwpm;
mod sweep;
mod union_find;

pub use batch::{DecodeScratch, PredictionChunk, SyndromeChunk};
pub use dem_graph::DecodingGraph;
pub use ler::{
    estimate_logical_error_rate_from_table, estimate_logical_error_rate_report,
    fit_lambda_weighted, zero_failure_upper_bound, DecoderKind, EstimateReport, EstimatorConfig,
    LambdaFit, LogicalErrorEstimate,
};
pub use memo::{CacheStats, MemoConfig, DEFAULT_MEMO_MAX_DEFECTS, MEMO_KEY_CAPACITY};
pub use mwpm::ExactMatchingDecoder;
pub use sweep::sweep_seed;
pub use union_find::UnionFindDecoder;

/// A syndrome decoder: given the fired detectors of each shot, predict which
/// logical observables were flipped.
///
/// A prediction is a `u64` observable mask: bit `o` set means "the decoder
/// believes observable `o` was flipped". The memo, the batch loops, the
/// decode service and its wire protocol all carry this one format, and a
/// [`DecodingGraph`] holds at most 64 observables to fit it.
///
/// Implementors provide [`Decoder::decode_shot`] against reusable
/// [`DecodeScratch`] buffers; the batched and per-shot entry points are
/// provided adapters.
pub trait Decoder {
    /// Number of logical observables this decoder predicts (at most 64).
    fn num_observables(&self) -> usize;

    /// Decodes one shot and returns its observable mask, using `scratch`
    /// for all working state. `fired_detectors` lists the indices of the
    /// detectors that fired, ascending.
    fn decode_shot(&self, fired_detectors: &[usize], scratch: &mut DecodeScratch) -> u64;

    /// Decodes one shot, unpacking the mask: one entry per logical
    /// observable, `true` meaning "the decoder believes this observable was
    /// flipped".
    ///
    /// This adapter builds a fresh [`DecodeScratch`] per call; use
    /// [`Decoder::decode_batch`] on the hot path.
    fn decode(&self, fired_detectors: &[usize]) -> Vec<bool> {
        let mask = self.decode_shot(fired_detectors, &mut DecodeScratch::new());
        (0..self.num_observables())
            .map(|o| mask >> o & 1 == 1)
            .collect()
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
    /// The default implementation walks the chunk's occupancy index tile by
    /// tile, bucketing every non-zero plane word it names under its 64-shot
    /// word — the same walk finds the quiet words and gathers the noisy
    /// lanes' defect lists:
    ///
    /// * **quiet** words (no defect anywhere) are never read;
    /// * every noisy lane of a **sparse** word (every lane at or below the
    ///   memo's defect cap) or a **dense** word (some lane above it) goes
    ///   through the per-shot [`DecodeScratch`] memo probe, where above-cap
    ///   lanes count as uncacheable.
    ///
    /// Predictions — and the memo's hit/miss/uncacheable counters — are
    /// **bit-identical** to [`Decoder::decode_batch_per_shot`] and to
    /// calling [`Decoder::decode`] shot by shot, memoized or not; the word
    /// scan additionally fills the `*_words` counters of [`CacheStats`].
    /// A disabled memo is a cap of 0: every noisy lane is uncacheable and
    /// every noisy word dense.
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
