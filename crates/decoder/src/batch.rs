//! Batch decoding engine: bit-packed predictions, reusable scratch, and the
//! word-parallel / per-shot decode loops behind
//! [`Decoder::decode_batch`](crate::Decoder::decode_batch).
//!
//! The batch decode path works on whole [`SyndromeChunk`]s (bit-packed
//! detector planes produced by `qccd_sim`'s chunked sampler) and returns a
//! bit-packed [`PredictionChunk`]. All per-shot working state lives in a
//! [`DecodeScratch`] that is reused from shot to shot and chunk to chunk, so
//! the hot loop performs no allocations.
//!
//! Two interchangeable loops drive the decode (see the crate docs for the
//! bit-identity contract between them):
//!
//! * [`decode_batch_words`] — the word-parallel default: per 64-word tile,
//!   the chunk's occupancy index names the non-zero plane words, which are
//!   bucketed by tile word, so quiet words are found and the noisy lanes'
//!   defect lists are gathered by one walk over the fired words only.
//! * [`decode_batch_per_shot`] — the per-shot reference loop every decoded
//!   bit is defined against.
//!
//! Both hand the gathered lanes to the same memo probe, [`decode_lanes`].
//!
//! One shot's prediction is a `u64` observable mask everywhere on this
//! path: [`Decoder::decode_shot`](crate::Decoder::decode_shot) returns it,
//! the memo stores it, and [`decode_lanes`] scatters its set bits into the
//! chunk's prediction planes. A lane has one miss path: a memo miss and an
//! uncacheable lane both call `decode_shot` once, and only the miss
//! inserts its mask.
//!
//! # The triage ladder
//!
//! Every shot of a chunk descends the same ladder of progressively more
//! expensive tiers, stopping at the first one that answers it:
//!
//! 1. **Quiet word** — no detector fired anywhere in the 64-shot word: no
//!    occupancy bit names it, so it is never read (no gather, no decode).
//! 2. **Sparse memo** — lanes at or below [`MemoConfig::max_defects`]
//!    probe the hash table ([`decode_lanes`]); misses — the first sight
//!    of any set, single defects included — decode once and insert.
//! 3. **Union-find** — lanes *above* the cap are counted as
//!    [`CacheStats::uncacheable`] and decoded by one plain
//!    [`Decoder::decode_shot`](crate::Decoder::decode_shot), exactly as
//!    the per-shot reference defines them. Nothing caches these lanes:
//!    on fresh circuit-level samples an above-cap defect set recurs ~1 %
//!    of the time, so a probe costs more than it saves (see the README's
//!    decode-ladder table).
//!
//! **Invariant:** every tier is bit-identical to the per-shot reference
//! loop — [`decode_batch_per_shot`] with the memo disabled. Tiers only
//! change *where* a prediction comes from, never what it is; the identity
//! test battery (`tests/prop_word_parallel_identity.rs`) pins this contract
//! across decoders, configurations and noise levels.

use std::cmp::Ordering;

pub use qccd_sim::SyndromeChunk;

use qccd_sim::BitPlanes;

use crate::blossom::Blossom;
use crate::memo::SyndromeMemo;
use crate::scratch::EpochVec;
use crate::union_find::UnionFindScratch;
use crate::{CacheStats, Decoder, MemoConfig};

/// Bit-packed observable-flip predictions for one chunk of shots.
#[derive(Debug, Clone, PartialEq)]
pub struct PredictionChunk {
    num_shots: usize,
    num_observables: usize,
    words: usize,
    planes: BitPlanes,
}

impl PredictionChunk {
    /// An all-`false` prediction for `num_shots` shots (zero shots yield an
    /// empty, zero-word chunk).
    pub fn zeroed(num_observables: usize, num_shots: usize) -> Self {
        let words = num_shots.div_ceil(64);
        PredictionChunk {
            num_shots,
            num_observables,
            words,
            planes: BitPlanes::zeroed(num_observables, words),
        }
    }

    /// Number of shots covered.
    pub fn num_shots(&self) -> usize {
        self.num_shots
    }

    /// Number of observables predicted per shot.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Words per bit-plane.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The packed prediction plane of one observable.
    pub fn plane(&self, observable: usize) -> &[u64] {
        self.planes.plane(observable)
    }

    /// Whether the decoder predicted a flip of `observable` in `shot`.
    pub fn predicted(&self, shot: usize, observable: usize) -> bool {
        self.planes.bit(observable, shot)
    }

    /// Marks `observable` as flipped in `shot`.
    pub fn set(&mut self, observable: usize, shot: usize) {
        self.planes.plane_mut(observable)[shot / 64] |= 1u64 << (shot % 64);
    }

    /// Unpacks one shot's prediction (for tests).
    pub fn shot_prediction(&self, shot: usize) -> Vec<bool> {
        (0..self.num_observables)
            .map(|o| self.predicted(shot, o))
            .collect()
    }
}

/// Min-heap entry for the Dijkstra searches of the exact matching decoder.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct HeapEntry {
    pub(crate) distance: f64,
    pub(crate) node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; distances are finite by construction.
        other
            .distance
            .partial_cmp(&self.distance)
            .unwrap_or(Ordering::Equal)
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-shot working state of the exact matching decoder.
#[derive(Debug, Clone)]
pub(crate) struct MatchingScratch {
    /// One Dijkstra state (distance, incoming edge) per defect slot.
    pub(crate) dijkstras: Vec<DijkstraState>,
    pub(crate) heap: std::collections::BinaryHeap<HeapEntry>,
    /// The shot's index of each defect node (`u32::MAX` = not a defect).
    pub(crate) defect_index: EpochVec<u32>,
    /// The matching problem on the defects and their boundary twins.
    pub(crate) blossom: Blossom,
}

/// Reusable Dijkstra arrays (distances default to `+inf` between epochs).
#[derive(Debug, Clone)]
pub(crate) struct DijkstraState {
    pub(crate) dist: EpochVec<f64>,
    /// Incoming edge per node (sentinel `u32::MAX` = none).
    pub(crate) via: EpochVec<u32>,
}

impl Default for DijkstraState {
    fn default() -> Self {
        DijkstraState {
            dist: EpochVec::new(f64::INFINITY),
            via: EpochVec::new(u32::MAX),
        }
    }
}

impl Default for MatchingScratch {
    fn default() -> Self {
        MatchingScratch {
            dijkstras: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            defect_index: EpochVec::new(u32::MAX),
            blossom: Blossom::default(),
        }
    }
}

impl MatchingScratch {
    /// Ensures at least `defects` Dijkstra slots exist.
    pub(crate) fn ensure_defect_slots(&mut self, defects: usize) {
        if self.dijkstras.len() < defects {
            self.dijkstras.resize_with(defects, DijkstraState::default);
        }
    }
}

/// Reusable decoding state shared by every decoder implementation.
///
/// Create one per worker thread, pass it to
/// [`Decoder::decode_batch`](crate::Decoder::decode_batch) (or
/// [`Decoder::decode_shot`](crate::Decoder::decode_shot)) and reuse it for
/// as many chunks as you like; buffers grow to the high-water mark of the
/// decoding problem and are never cleared wholesale between shots: the
/// union-find state resets only the slots the previous shot touched, and the
/// exact matching decoder's Dijkstra arrays are epoch-stamped.
///
/// The scratch also hosts the per-decoder [syndrome memo](crate::memo):
/// cached predictions survive across chunks (they are keyed by defect set,
/// not by shot), are cleared automatically when the scratch is used with a
/// different decoder (the counters are not), and never change decoded bits
/// — see the memo module docs for the bit-identity contract. Memoization is
/// on by default; configure or disable it with
/// [`DecodeScratch::set_memo_config`].
#[derive(Debug, Clone, Default)]
pub struct DecodeScratch {
    /// Per-shot defect lists for one 64-shot word, gathered with one pass
    /// over the detector planes instead of one pass per shot.
    pub(crate) word_fired: Vec<Vec<usize>>,
    /// Per-word hot-plane buckets of the tile being scanned: bucket `w`
    /// lists every `(detector, plane word)` with a fired lane in tile word
    /// `w`, in ascending detector order. Reused across tiles.
    pub(crate) tile_hot: Vec<Vec<(u32, u64)>>,
    /// Union-find state (see the `union_find` module).
    pub(crate) union_find: UnionFindScratch,
    pub(crate) matching: MatchingScratch,
    /// Per-decoder prediction cache consulted by the batch decode loop.
    pub(crate) memo: SyndromeMemo,
}

impl DecodeScratch {
    /// A fresh scratch with empty buffers and default memoization.
    pub fn new() -> Self {
        DecodeScratch::default()
    }

    /// A fresh scratch with the given memo configuration.
    pub fn with_memo_config(config: MemoConfig) -> Self {
        let mut scratch = DecodeScratch::default();
        scratch.memo.set_config(config);
        scratch
    }

    /// Reconfigures the memo (cached entries are kept — they remain valid
    /// under any cap; pass [`MemoConfig::disabled`] to stop consulting them).
    pub fn set_memo_config(&mut self, config: MemoConfig) {
        self.memo.set_config(config);
    }

    /// Accumulated memo hit/miss counters, across every chunk decoded with
    /// this scratch — by any decoder. They only grow.
    pub fn cache_stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// Number of defect sets currently cached.
    pub fn memo_entries(&self) -> usize {
        self.memo.len()
    }
}

/// Reusable buffers moved out of the scratch for the duration of one batch
/// decode, so the scratch itself can be lent to `decode_shot` without
/// aliasing. Construction claims the memo; it decodes nothing.
struct BatchBuffers {
    word_fired: Vec<Vec<usize>>,
    memo: SyndromeMemo,
    memo_active: bool,
}

impl BatchBuffers {
    fn begin<D: Decoder + ?Sized>(decoder: &D, scratch: &mut DecodeScratch) -> Self {
        let mut word_fired = std::mem::take(&mut scratch.word_fired);
        word_fired.resize_with(64, Vec::new);
        // The memo moves out of the scratch for the same aliasing reason.
        let mut memo = std::mem::take(&mut scratch.memo);
        let memo_active = match decoder.memo_token() {
            Some(token) if memo.config().enabled() => {
                memo.claim(token);
                true
            }
            _ => false,
        };
        BatchBuffers {
            word_fired,
            memo,
            memo_active,
        }
    }

    fn finish(self, scratch: &mut DecodeScratch) {
        scratch.word_fired = self.word_fired;
        scratch.memo = self.memo;
    }
}

/// Decodes the `lanes` of one word whose defect lists are already gathered
/// in `buffers.word_fired`, answering recurring small defect sets from the
/// memo, and sets each lane's observable mask in `out`. This is the shared
/// per-shot tail of both batch loops.
fn decode_lanes<D: Decoder + ?Sized>(
    decoder: &D,
    word_index: usize,
    lanes: u64,
    buffers: &mut BatchBuffers,
    scratch: &mut DecodeScratch,
    out: &mut PredictionChunk,
) {
    let mut bits = lanes;
    while bits != 0 {
        let lane = bits.trailing_zeros() as usize;
        bits &= bits - 1;
        let shot = word_index * 64 + lane;
        let fired = std::mem::take(&mut buffers.word_fired[lane]);
        let cacheable = buffers.memo_active && buffers.memo.cacheable(fired.len());
        if !cacheable {
            buffers.memo.note_uncacheable();
        }
        let hit = if cacheable {
            buffers.memo.lookup(&fired)
        } else {
            None
        };
        let mut flips = match hit {
            Some(flips) => flips,
            None => {
                let flips = decoder.decode_shot(&fired, scratch);
                if cacheable {
                    buffers.memo.insert(&fired, flips);
                }
                flips
            }
        };
        while flips != 0 {
            out.set(flips.trailing_zeros() as usize, shot);
            flips &= flips - 1;
        }
        buffers.word_fired[lane] = fired;
    }
}

/// Words per scan tile: the chunk's occupancy index holds one 64-bit mask
/// per (tile, detector), so a tile is 64 words and each detector costs one
/// mask load per tile. The per-word decode then runs against L1/L2-resident
/// hot-plane buckets.
const TILE_WORDS: usize = 64;

/// The word-parallel batch decode loop (the
/// [`Decoder::decode_batch`](crate::Decoder::decode_batch) default).
///
/// Words are processed in [`TILE_WORDS`]-word tiles. Per tile, the chunk's
/// occupancy index ([`SyndromeChunk::tile_occupancy`]) names every non-zero
/// detector-plane word, and only those are read and bucketed under their
/// 64-shot word — so quiet-word detection and the defect gather share one
/// walk whose cost follows the fired words, not `words × detectors`. A
/// word whose bucket ORs to zero under its lane mask is skipped; every
/// other word's noisy lanes reach
/// [`decode_lanes`], so predictions *and* hit/miss/uncacheable counters
/// equal the per-shot reference loop's. Each word is also counted as quiet,
/// dense (at least one of its lanes was uncacheable) or sparse; without an
/// active memo every noisy lane is uncacheable, so every noisy word is
/// dense.
pub(crate) fn decode_batch_words<D: Decoder + ?Sized>(
    decoder: &D,
    chunk: &SyndromeChunk,
    scratch: &mut DecodeScratch,
) -> PredictionChunk {
    let mut out = PredictionChunk::zeroed(decoder.num_observables(), chunk.num_shots());
    let mut buffers = BatchBuffers::begin(decoder, scratch);
    let mut tile_hot = std::mem::take(&mut scratch.tile_hot);
    tile_hot.resize_with(TILE_WORDS, Vec::new);
    let words = chunk.words();
    let mut tile_start = 0usize;
    while tile_start < words {
        let tile_len = TILE_WORDS.min(words - tile_start);
        // Phase A — index walk: each detector's occupancy mask names the
        // non-zero words of its window, and only those are read and
        // bucketed. Ascending detector order keeps every bucket sorted,
        // i.e. canonical for the memo key.
        for bucket in tile_hot.iter_mut().take(tile_len) {
            bucket.clear();
        }
        let occupancy = chunk.tile_occupancy(tile_start / TILE_WORDS);
        for (detector, &occupied) in occupancy.iter().enumerate() {
            if occupied == 0 {
                continue;
            }
            let window = &chunk.detector_plane(detector)[tile_start..tile_start + tile_len];
            let mut bits = occupied;
            while bits != 0 {
                let w = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                tile_hot[w].push((detector as u32, window[w]));
            }
        }
        // Phase B — per-word gather and decode against the hot buckets.
        for (w, hot) in tile_hot.iter().enumerate().take(tile_len) {
            let word_index = tile_start + w;
            let fired =
                hot.iter().fold(0u64, |any, &(_, bits)| any | bits) & chunk.lane_mask(word_index);
            if fired == 0 {
                buffers.memo.note_quiet_word();
                continue;
            }
            let mut bits = fired;
            while bits != 0 {
                buffers.word_fired[bits.trailing_zeros() as usize].clear();
                bits &= bits - 1;
            }
            for &(detector, plane_bits) in hot {
                let mut hits = plane_bits & fired;
                while hits != 0 {
                    buffers.word_fired[hits.trailing_zeros() as usize].push(detector as usize);
                    hits &= hits - 1;
                }
            }
            let uncacheable = buffers.memo.stats().uncacheable;
            decode_lanes(decoder, word_index, fired, &mut buffers, scratch, &mut out);
            if buffers.memo.stats().uncacheable == uncacheable {
                buffers.memo.note_sparse_word();
            } else {
                buffers.memo.note_dense_word();
            }
        }
        tile_start += tile_len;
    }
    scratch.tile_hot = tile_hot;
    buffers.finish(scratch);
    out
}

/// The per-shot reference loop: scan the fired-shot mask, gather every
/// noisy lane's defect list, decode lane by lane. Every decoded bit of the
/// word-parallel path is defined against this implementation.
pub(crate) fn decode_batch_per_shot<D: Decoder + ?Sized>(
    decoder: &D,
    chunk: &SyndromeChunk,
    scratch: &mut DecodeScratch,
) -> PredictionChunk {
    let mut out = PredictionChunk::zeroed(decoder.num_observables(), chunk.num_shots());
    let mask = chunk.fired_shot_mask();
    let mut buffers = BatchBuffers::begin(decoder, scratch);
    // Resolve the plane slices once; the gather loop below touches every
    // plane per word and must not re-derive the slice each time.
    let planes: Vec<&[u64]> = (0..chunk.num_detectors())
        .map(|detector| chunk.detector_plane(detector))
        .collect();
    for (word_index, &word) in mask.iter().enumerate() {
        if word == 0 {
            continue;
        }
        // Gather: one pass over the detector planes fills the defect
        // lists of all (up to 64) noisy shots of this word. Detectors
        // are visited in ascending order, so each list ends up sorted.
        let mut bits = word;
        while bits != 0 {
            buffers.word_fired[bits.trailing_zeros() as usize].clear();
            bits &= bits - 1;
        }
        for (detector, plane) in planes.iter().enumerate() {
            let mut hits = plane[word_index] & word;
            while hits != 0 {
                buffers.word_fired[hits.trailing_zeros() as usize].push(detector);
                hits &= hits - 1;
            }
        }
        decode_lanes(decoder, word_index, word, &mut buffers, scratch, &mut out);
    }
    buffers.finish(scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prediction_chunk_set_and_read() {
        let mut chunk = PredictionChunk::zeroed(2, 130);
        chunk.set(1, 129);
        chunk.set(0, 0);
        assert!(chunk.predicted(129, 1));
        assert!(chunk.predicted(0, 0));
        assert!(!chunk.predicted(129, 0));
        assert_eq!(chunk.shot_prediction(129), vec![false, true]);
        assert_eq!(chunk.words(), 3);
    }
}
