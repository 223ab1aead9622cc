//! Chunked, streaming detector sampling.
//!
//! Materialising every shot of an experiment at once costs
//! `O(shots × detectors)` memory. The chunked API bounds peak memory by the
//! chunk size instead: a [`DetectorChunkSampler`] describes the whole
//! experiment but samples one [`SyndromeChunk`] of shots at a time, each
//! holding only bit-packed *detector* and *observable* planes.
//!
//! # Sampling
//!
//! Shots are sampled from the circuit's [`FaultTable`], not by running the
//! circuit: every component of every noise channel has a fixed signature
//! (the detectors and observables it flips), so a shot's detector events are
//! the XOR of the signatures of the faults that occur in it. The cost is
//! proportional to the number of faults placed, not to `ops × shots`.
//! Channels are bucketed by the binary exponent of their probability; each
//! bucket is one geometric-skipping walk at its largest probability over the
//! flattened `channels × shots` index space of a block, thinned per channel,
//! so a bucket proposes at most twice the faults it places. A channel that
//! fires picks one of its components uniformly — the channel's mutually
//! exclusive Paulis, not the detector error model's independent-mechanism
//! approximation.
//!
//! # Occupancy index
//!
//! Below threshold almost every detector-plane word of a chunk is zero, so
//! a chunk carries an **exact occupancy index** beside its planes: one
//! `u64` per (64-word tile, detector), bit `w` set iff word `64·tile + w` of
//! that detector's plane is non-zero. A consumer walks the set bits of
//! [`SyndromeChunk::tile_occupancy`] instead of reading every word, so the
//! cost of finding the fired words follows the faults placed, not
//! `shots × detectors`. Every producer keeps the index exact, so it is a
//! pure function of the planes (and chunk equality stays plane equality):
//!
//! * [`SyndromeChunk::zeroed`] starts with every bit clear;
//! * the sampler updates a word's bit wherever it XORs a signature into
//!   that word: set while the word is non-zero, clear again when two faults
//!   in one shot cancel it back to zero — a cost per fault placed, with no
//!   pass over the planes;
//! * [`SyndromeChunk::from_shots`] and [`SyndromeChunkBuilder::finish`]
//!   index their planes in one pass over the words.
//!
//! Debug builds check the index against the planes word by word wherever a
//! chunk is built.
//!
//! # Determinism
//!
//! Shots are partitioned into fixed-size *blocks* of
//! [`CANONICAL_BLOCK_SHOTS`] shots (the last block takes the remainder).
//! Every block is sampled with its own RNG stream, derived from the base
//! seed and the block index only — never from the chunk size. Chunks are
//! merely groups of consecutive blocks handed to one worker, so for a fixed
//! `(total_shots, seed)` the sampled outcomes are bit-identical regardless
//! of the chunk size or of how many threads pull chunks. This is what makes
//! `qccd_decoder`'s estimator reproducible across machine shapes. The
//! stream itself is versioned by the repository's goldens, not promised
//! across releases: a change to the sampler may regenerate it, deliberately.
//!
//! Because `sample_chunk` takes `&self`, one sampler can be shared across
//! worker threads and chunks can be produced in any order, or in parallel.

use std::borrow::Cow;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use qccd_circuit::MeasurementRef;

use crate::{BitPlanes, FaultTable, NoisyCircuit};

/// Number of shots per canonical sampling block (a multiple of 64 so blocks
/// align with bit-plane words).
pub const CANONICAL_BLOCK_SHOTS: usize = 4096;

/// Derives the independent RNG seed of one canonical block.
///
/// Two rounds of SplitMix64 finalisation over the `(seed, block)` pair keep
/// block streams decorrelated even for adjacent seeds and block indices.
pub fn block_seed(seed: u64, block: u64) -> u64 {
    let mut state = seed ^ block.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for _ in 0..2 {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        state = (state ^ (state >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        state = (state ^ (state >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        state ^= state >> 31;
    }
    state
}

/// Bit-packed detector events and observable flips for one chunk of shots.
///
/// Beside its planes a chunk carries an exact **occupancy index** of its
/// detector planes: per 64-word tile, one mask per detector whose bit `w`
/// is set iff word `64·tile + w` of that detector's plane is non-zero
/// ([`SyndromeChunk::tile_occupancy`]). Every constructor keeps it exact,
/// so it is a pure function of the planes and equal chunks have equal
/// indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct SyndromeChunk {
    chunk_index: usize,
    shot_offset: usize,
    num_shots: usize,
    num_detectors: usize,
    num_observables: usize,
    words: usize,
    detectors: BitPlanes,
    observables: BitPlanes,
    /// Tile-major, `num_detectors` words per 64-word tile: bit `w` of word
    /// `tile · num_detectors + d` is set iff word `64·tile + w` of detector
    /// plane `d` is non-zero.
    occupancy: Vec<u64>,
}

impl SyndromeChunk {
    /// A zeroed chunk (no detector fired, no observable flipped). A
    /// zero-shot chunk is valid and simply has no words.
    pub fn zeroed(
        chunk_index: usize,
        shot_offset: usize,
        num_shots: usize,
        num_detectors: usize,
        num_observables: usize,
    ) -> Self {
        let words = num_shots.div_ceil(64);
        SyndromeChunk {
            chunk_index,
            shot_offset,
            num_shots,
            num_detectors,
            num_observables,
            words,
            detectors: BitPlanes::zeroed(num_detectors, words),
            observables: BitPlanes::zeroed(num_observables, words),
            occupancy: vec![0; words.div_ceil(64) * num_detectors],
        }
    }

    /// Builds a chunk from per-shot lists of fired detectors and flipped
    /// observables (mainly for tests and decoder benchmarks).
    pub fn from_shots(
        num_detectors: usize,
        num_observables: usize,
        shots: &[(Vec<usize>, Vec<usize>)],
    ) -> Self {
        let mut chunk = SyndromeChunk::zeroed(0, 0, shots.len(), num_detectors, num_observables);
        for (shot, (fired, flipped)) in shots.iter().enumerate() {
            for &d in fired {
                chunk.detectors.plane_mut(d)[shot / 64] |= 1u64 << (shot % 64);
            }
            for &o in flipped {
                chunk.observables.plane_mut(o)[shot / 64] |= 1u64 << (shot % 64);
            }
        }
        chunk.indexed()
    }

    /// The chunk with its occupancy index rebuilt from the detector planes,
    /// in one pass over their words.
    fn indexed(mut self) -> Self {
        let num_detectors = self.num_detectors;
        self.occupancy.clear();
        self.occupancy
            .resize(self.words.div_ceil(64) * num_detectors, 0);
        for detector in 0..num_detectors {
            for (w, &word) in self.detectors.plane(detector).iter().enumerate() {
                if word != 0 {
                    self.occupancy[(w / 64) * num_detectors + detector] |= 1u64 << (w % 64);
                }
            }
        }
        self.debug_check_occupancy();
        self
    }

    /// Flips detector `detector` in the shots of `bits` within plane word
    /// `word`, keeping the word's occupancy bit exact: set while the word
    /// is non-zero, clear once faults cancel it back to zero.
    fn flip_detector(&mut self, detector: usize, word: usize, bits: u64) {
        let plane_word = &mut self.detectors.plane_mut(detector)[word];
        *plane_word ^= bits;
        let mask = &mut self.occupancy[(word / 64) * self.num_detectors + detector];
        if *plane_word != 0 {
            *mask |= 1u64 << (word % 64);
        } else {
            *mask &= !(1u64 << (word % 64));
        }
    }

    /// Debug builds: every occupancy bit agrees with its plane word, and no
    /// bit is set past the last word.
    fn debug_check_occupancy(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let tiles = self.words.div_ceil(64);
        assert_eq!(self.occupancy.len(), tiles * self.num_detectors);
        for detector in 0..self.num_detectors {
            let plane = self.detectors.plane(detector);
            for tile in 0..tiles {
                let mask = self.tile_occupancy(tile)[detector];
                for w in 0..64 {
                    let word = tile * 64 + w;
                    assert_eq!(
                        mask >> w & 1 == 1,
                        plane.get(word).is_some_and(|&bits| bits != 0),
                        "occupancy bit of detector {detector}, word {word} is out of step"
                    );
                }
            }
        }
    }

    /// Index of this chunk within its experiment.
    pub fn chunk_index(&self) -> usize {
        self.chunk_index
    }

    /// Global index of this chunk's first shot.
    pub fn shot_offset(&self) -> usize {
        self.shot_offset
    }

    /// Number of shots in this chunk.
    pub fn num_shots(&self) -> usize {
        self.num_shots
    }

    /// Number of detectors per shot.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables per shot.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// Words per bit-plane.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The bit-plane of one detector.
    pub fn detector_plane(&self, detector: usize) -> &[u64] {
        self.detectors.plane(detector)
    }

    /// The occupancy masks of 64-word tile `tile` (words `64·tile ..
    /// 64·tile + 64` of every plane), one per detector: bit `w` of entry
    /// `d` is set iff word `64·tile + w` of detector `d`'s plane is
    /// non-zero. A consumer that walks the set bits reads only the plane
    /// words that hold a fired shot.
    #[inline]
    pub fn tile_occupancy(&self, tile: usize) -> &[u64] {
        let start = tile * self.num_detectors;
        &self.occupancy[start..start + self.num_detectors]
    }

    /// The bit-plane of one observable.
    pub fn observable_plane(&self, observable: usize) -> &[u64] {
        self.observables.plane(observable)
    }

    /// Whether a detector fired in a shot (local index within the chunk).
    pub fn detector_fired(&self, shot: usize, detector: usize) -> bool {
        self.detectors.bit(detector, shot)
    }

    /// Whether an observable flipped in a shot (local index).
    pub fn observable_flipped(&self, shot: usize, observable: usize) -> bool {
        self.observables.bit(observable, shot)
    }

    /// Collects the fired detectors of one shot into `out` (cleared first).
    pub fn fired_detectors_into(&self, shot: usize, out: &mut Vec<usize>) {
        out.clear();
        let word = shot / 64;
        let bit = shot % 64;
        for d in 0..self.num_detectors {
            if (self.detectors.plane(d)[word] >> bit) & 1 == 1 {
                out.push(d);
            }
        }
    }

    /// Extracts one 64-shot word of the chunk as a **shot-major word
    /// block** into `out` (cleared first): one `u64` per detector, bit `s`
    /// of word `d` set iff detector `d` fired in shot
    /// `word_index * 64 + s`. This is the pre-transposed wire format
    /// streaming clients ship to [`SyndromeChunkBuilder::push_word_block`] —
    /// a straight column copy here, a shift-OR there, no per-frame bit
    /// scatter anywhere.
    pub fn word_block_into(&self, word_index: usize, out: &mut Vec<u64>) {
        assert!(word_index < self.words, "word {word_index} out of range");
        out.clear();
        out.extend(self.detectors.column(word_index));
    }

    /// ORs all detector planes together: bit `s` of the result is set iff
    /// *any* detector fired in shot `s`. Lets decoders skip quiet shots
    /// without scanning every plane per shot.
    pub fn fired_shot_mask(&self) -> Vec<u64> {
        let mut mask = vec![0u64; self.words];
        for d in 0..self.num_detectors {
            for (m, &w) in mask.iter_mut().zip(self.detectors.plane(d)) {
                *m |= w;
            }
        }
        let tail = self.tail_mask();
        if let Some(last) = mask.last_mut() {
            *last &= tail;
        }
        mask
    }

    /// Mask of valid shot bits in the final word of each plane.
    pub fn tail_mask(&self) -> u64 {
        let tail_bits = self.num_shots % 64;
        if tail_bits == 0 {
            u64::MAX
        } else {
            (1u64 << tail_bits) - 1
        }
    }

    /// Mask of valid shot lanes in the word at `word_index` (all 64 except
    /// in a ragged final word).
    pub fn lane_mask(&self, word_index: usize) -> u64 {
        if word_index + 1 == self.words {
            self.tail_mask()
        } else {
            u64::MAX
        }
    }
}

/// Incremental frame ingestion: packs a stream of per-shot syndromes
/// (arriving as from a real-time decoder client) into the bit-plane
/// [`SyndromeChunk`] layout batch decoders consume.
///
/// The builder *is* the detector planes of the chunk under construction:
/// every push writes where the decoder will read, and `finish` indexes the
/// planes and hands them over. Shot order within the produced chunk is the
/// ingestion order.
/// Two vocabularies interleave freely within one batch:
///
/// * [`SyndromeChunkBuilder::push_frame`] — one shot as a fired-detector
///   index list: one bit set per fired detector;
/// * [`SyndromeChunkBuilder::push_word_block`] — up to 64 pre-transposed
///   shots, one `u64` per detector with bit `s` = "shot `s` fired detector
///   `d`" (the transpose of [`SyndromeChunk::word_block_into`]): one shift-OR
///   per non-zero plane word, two when the block straddles a word boundary.
///
/// Observable planes are left zeroed: an online client does not know the
/// logical frame — that is what the decoder predicts.
///
/// Planes start one word (64 shots) wide, or as wide as
/// [`SyndromeChunkBuilder::with_capacity`] sizes them for a batch of known
/// size, and double on demand. `finish` hands the planes over and leaves the
/// builder empty without planes; its next batch allocates them afresh.
#[derive(Debug, Clone)]
pub struct SyndromeChunkBuilder {
    num_detectors: usize,
    num_observables: usize,
    /// Detector planes of the chunk under construction; all zero beyond the
    /// pending frames.
    planes: BitPlanes,
    num_frames: usize,
}

impl SyndromeChunkBuilder {
    /// A builder for frames over `num_detectors` detectors, producing chunks
    /// with `num_observables` (zeroed) observable planes.
    pub fn new(num_detectors: usize, num_observables: usize) -> Self {
        Self::with_capacity(num_detectors, num_observables, 64)
    }

    /// [`SyndromeChunkBuilder::new`] with planes allocated for `shots`
    /// frames, rounded up to whole words: a batch of that size is written
    /// without widening, and `finish` hands its planes over as they are.
    pub fn with_capacity(num_detectors: usize, num_observables: usize, shots: usize) -> Self {
        SyndromeChunkBuilder {
            num_detectors,
            num_observables,
            planes: BitPlanes::zeroed(num_detectors, shots.div_ceil(64)),
            num_frames: 0,
        }
    }

    /// Number of detectors per frame.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of frames ingested since the last [`SyndromeChunkBuilder::finish`].
    pub fn pending_frames(&self) -> usize {
        self.num_frames
    }

    /// Whether no frame is pending.
    pub fn is_empty(&self) -> bool {
        self.num_frames == 0
    }

    /// Widens the planes, to the next power of two words, once `shots` shots
    /// no longer fit; planes with no frame pending are allocated afresh.
    fn reserve_shots(&mut self, shots: usize) {
        if shots > self.planes.words_per_plane() * 64 {
            let words = shots.div_ceil(64).next_power_of_two();
            if self.num_frames == 0 {
                self.planes = BitPlanes::zeroed(self.num_detectors, words);
            } else {
                self.planes.relay(words);
            }
        }
    }

    /// Ingests one frame as a fired-detector index list (indices out of
    /// range are rejected).
    ///
    /// # Panics
    ///
    /// Panics if any index is `>= num_detectors`.
    pub fn push_frame(&mut self, fired: &[usize]) {
        self.reserve_shots(self.num_frames + 1);
        let (word, bit) = (self.num_frames / 64, self.num_frames % 64);
        for &d in fired {
            assert!(d < self.num_detectors, "detector {d} out of range");
            self.planes.plane_mut(d)[word] |= 1u64 << bit;
        }
        self.num_frames += 1;
    }

    /// Ingests a **shot-major word block**: `planes` holds exactly
    /// `num_detectors` words, bit `s` of word `d` = "shot `s` of the block
    /// fired detector `d`", carrying `count` shots (1..=64). Bits at or
    /// above `count` must be clear in every word — the builder trusts the
    /// block's lane occupancy verbatim.
    ///
    /// # Panics
    ///
    /// Panics on a wrong plane count, a `count` outside `1..=64`, or set
    /// out-of-range shot bits.
    pub fn push_word_block(&mut self, planes: &[u64], count: usize) {
        assert_eq!(planes.len(), self.num_detectors, "wrong plane word count");
        assert!(
            (1..=64).contains(&count),
            "block shot count {count} out of range"
        );
        if count < 64 {
            let valid = (1u64 << count) - 1;
            assert!(
                planes.iter().all(|&w| w & !valid == 0),
                "block sets out-of-range shot bits"
            );
        }
        self.reserve_shots(self.num_frames + count);
        let (word, bit) = (self.num_frames / 64, self.num_frames % 64);
        let straddles = bit + count > 64;
        for (d, &bits) in planes.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            let plane = self.planes.plane_mut(d);
            plane[word] |= bits << bit;
            if straddles {
                plane[word + 1] |= bits >> (64 - bit);
            }
        }
        self.num_frames += count;
    }

    /// Moves every pending frame of `other` behind this builder's, in order,
    /// and leaves `other` empty and reusable at the width it reached. The
    /// frames land on a word boundary, so each plane word moves as a whole.
    ///
    /// # Panics
    ///
    /// Panics if the detector counts differ or this builder ends in a
    /// partial word.
    pub fn append(&mut self, other: &mut SyndromeChunkBuilder) {
        assert_eq!(
            self.num_detectors, other.num_detectors,
            "detector count mismatch"
        );
        assert!(
            self.num_frames.is_multiple_of(64),
            "cannot append behind a partial word"
        );
        let (start, words) = (self.num_frames / 64, other.num_frames.div_ceil(64));
        self.reserve_shots(self.num_frames + other.num_frames);
        for d in 0..self.num_detectors {
            let source = &mut other.planes.plane_mut(d)[..words];
            self.planes.plane_mut(d)[start..start + words].copy_from_slice(source);
            source.fill(0);
        }
        self.num_frames += std::mem::take(&mut other.num_frames);
    }

    /// Hands the pending frames over as a [`SyndromeChunk`] (shot `s` of the
    /// chunk is the `s`-th ingested frame; observables zeroed) and leaves the
    /// builder empty, without planes, for its next batch. The chunk's
    /// occupancy index ([`SyndromeChunk::tile_occupancy`]) is built in one
    /// pass over the planes. `chunk_index` and `shot_offset` are recorded
    /// verbatim for the caller's bookkeeping.
    pub fn finish(&mut self, chunk_index: usize, shot_offset: usize) -> SyndromeChunk {
        let num_shots = std::mem::take(&mut self.num_frames);
        let words = num_shots.div_ceil(64);
        let mut detectors = std::mem::take(&mut self.planes);
        if words != detectors.words_per_plane() {
            // A batch narrower than its planes: flushed short of the size it
            // was allocated for, or widened past it by doubling.
            detectors.relay(words);
        }
        SyndromeChunk {
            chunk_index,
            shot_offset,
            num_shots,
            num_detectors: self.num_detectors,
            num_observables: self.num_observables,
            words,
            detectors,
            observables: BitPlanes::zeroed(self.num_observables, words),
            occupancy: Vec::new(),
        }
        .indexed()
    }
}

/// Channels whose probabilities share a binary exponent, walked together.
#[derive(Debug, Clone)]
struct Bucket {
    /// Largest probability in the bucket (at most 1).
    p_max: f64,
    /// `(channel, probability)`, in op order.
    channels: Vec<(u32, f64)>,
}

impl Bucket {
    /// Calls `fire(rng, channel, shot)` for every `(channel, shot)` of a
    /// `shots`-shot block in which a channel of this bucket fires: one
    /// geometric-skipping walk at `p_max` over the flattened index space
    /// (candidate `i` is channel `i / shots` of the bucket in shot
    /// `i % shots`), each candidate kept with probability `p / p_max`.
    fn walk(
        &self,
        rng: &mut ChaCha8Rng,
        shots: usize,
        mut fire: impl FnMut(&mut ChaCha8Rng, usize, usize),
    ) {
        let shots = shots as u64;
        let candidates = self.channels.len() as u64 * shots;
        let certain = self.p_max >= 1.0;
        let log_miss = (-self.p_max).ln_1p();
        let mut next = 0u64;
        loop {
            if !certain {
                // Geometric gap to the next candidate; `1 - u` avoids
                // ln(0), and the cast saturates.
                let u: f64 = rng.gen();
                next = next.saturating_add(((1.0 - u).ln() / log_miss) as u64);
            }
            if next >= candidates {
                break;
            }
            let (channel, p) = self.channels[(next / shots) as usize];
            let shot = (next % shots) as usize;
            next += 1;
            if p == self.p_max || rng.gen::<f64>() * self.p_max < p {
                fire(rng, channel as usize, shot);
            }
        }
    }
}

/// Groups the channels that can fire by the binary exponent of their
/// probability, so that within a bucket `p_max < 2 p`.
fn bucket_channels(probabilities: &[f64]) -> Vec<Bucket> {
    let mut by_exponent = std::collections::BTreeMap::<u64, Bucket>::new();
    for (channel, &p) in probabilities.iter().enumerate() {
        if p > 0.0 {
            let p = p.min(1.0);
            let bucket = by_exponent.entry(p.to_bits() >> 52).or_insert(Bucket {
                p_max: 0.0,
                channels: Vec::new(),
            });
            bucket.p_max = bucket.p_max.max(p);
            bucket.channels.push((channel as u32, p));
        }
    }
    by_exponent.into_values().collect()
}

/// A chunked, thread-shareable detector sampler over one noisy circuit.
///
/// The module docs of `chunk.rs` state the sampling method and the
/// determinism contract.
#[derive(Debug, Clone)]
pub struct DetectorChunkSampler<'t> {
    table: Cow<'t, FaultTable>,
    buckets: Vec<Bucket>,
    total_shots: usize,
    seed: u64,
    blocks_per_chunk: usize,
}

impl<'t> DetectorChunkSampler<'t> {
    /// A sampler for `total_shots` shots of the circuit whose fault table
    /// is `table`, cutting the work into chunks of (at least) `chunk_shots`
    /// shots — the same bits as [`sample_detector_chunks`] on the table's
    /// circuit, without a second pass over it. The chunk size is rounded up
    /// to a whole number of canonical blocks; it affects peak memory and
    /// scheduling granularity only, never the sampled bits.
    pub fn from_table(
        table: &'t FaultTable,
        total_shots: usize,
        seed: u64,
        chunk_shots: usize,
    ) -> Self {
        Self::over(Cow::Borrowed(table), total_shots, seed, chunk_shots)
    }

    fn over(table: Cow<'t, FaultTable>, total_shots: usize, seed: u64, chunk_shots: usize) -> Self {
        assert!(total_shots > 0, "need at least one shot");
        // Clamp to the experiment's block count so arbitrarily large
        // "one big chunk" requests (e.g. `usize::MAX`) cannot overflow the
        // chunk-extent arithmetic.
        let total_blocks = total_shots.div_ceil(CANONICAL_BLOCK_SHOTS);
        let blocks_per_chunk = chunk_shots
            .max(1)
            .div_ceil(CANONICAL_BLOCK_SHOTS)
            .min(total_blocks);
        DetectorChunkSampler {
            buckets: bucket_channels(table.probabilities()),
            table,
            total_shots,
            seed,
            blocks_per_chunk,
        }
    }

    /// Total number of shots across all chunks.
    pub fn total_shots(&self) -> usize {
        self.total_shots
    }

    /// Number of detectors per shot.
    pub fn num_detectors(&self) -> usize {
        self.table.num_detectors()
    }

    /// Number of logical observables per shot.
    pub fn num_observables(&self) -> usize {
        self.table.num_observables()
    }

    /// Number of canonical sampling blocks.
    fn num_blocks(&self) -> usize {
        self.total_shots.div_ceil(CANONICAL_BLOCK_SHOTS)
    }

    /// Number of chunks the shots are grouped into.
    pub fn num_chunks(&self) -> usize {
        self.num_blocks().div_ceil(self.blocks_per_chunk)
    }

    /// Effective shots per full chunk.
    pub fn chunk_shots(&self) -> usize {
        self.blocks_per_chunk * CANONICAL_BLOCK_SHOTS
    }

    /// Number of shots in one specific chunk.
    pub fn shots_in_chunk(&self, chunk_index: usize) -> usize {
        let start = chunk_index * self.chunk_shots();
        assert!(start < self.total_shots, "chunk {chunk_index} out of range");
        (self.total_shots - start).min(self.chunk_shots())
    }

    fn shots_in_block(&self, block: usize) -> usize {
        let start = block * CANONICAL_BLOCK_SHOTS;
        (self.total_shots - start).min(CANONICAL_BLOCK_SHOTS)
    }

    /// Samples one chunk. Chunks are independent: this method can be called
    /// from many threads at once and in any order.
    pub fn sample_chunk(&self, chunk_index: usize) -> SyndromeChunk {
        self.sample_chunk_inner(chunk_index, None)
    }

    /// Samples one chunk while recording per-shot importance-sampling log
    /// weights.
    ///
    /// `fire_log_ratios[k]` is the log-likelihood-ratio increment applied to
    /// a shot whenever the `k`-th noise channel (in op order) fires in it —
    /// see [`crate::BiasedTable::fire_log_ratios`]. `log_weights` is
    /// resized to the chunk's shot count; entry `s` holds the accumulated
    /// increments for local shot `s` (global shot `shot_offset + s`), with
    /// the shot-independent base term left to the caller. The sampled chunk
    /// is bit-identical to [`DetectorChunkSampler::sample_chunk`].
    pub fn sample_chunk_weighted(
        &self,
        chunk_index: usize,
        fire_log_ratios: &[f64],
        log_weights: &mut Vec<f64>,
    ) -> SyndromeChunk {
        self.sample_chunk_inner(chunk_index, Some((fire_log_ratios, log_weights)))
    }

    fn sample_chunk_inner(
        &self,
        chunk_index: usize,
        mut weights: Option<(&[f64], &mut Vec<f64>)>,
    ) -> SyndromeChunk {
        let chunk_shots = self.shots_in_chunk(chunk_index);
        let first_block = chunk_index * self.blocks_per_chunk;
        let shot_offset = first_block * CANONICAL_BLOCK_SHOTS;
        if let Some((ratios, log_weights)) = weights.as_mut() {
            assert_eq!(
                ratios.len(),
                self.table.num_channels(),
                "one log-ratio per noise channel"
            );
            log_weights.clear();
            log_weights.resize(chunk_shots, 0.0);
        }
        let mut chunk = SyndromeChunk::zeroed(
            chunk_index,
            shot_offset,
            chunk_shots,
            self.num_detectors(),
            self.num_observables(),
        );
        let last_block = (first_block + self.blocks_per_chunk).min(self.num_blocks());
        for block in first_block..last_block {
            let block_shots = self.shots_in_block(block);
            let first_shot = (block - first_block) * CANONICAL_BLOCK_SHOTS;
            let mut rng = ChaCha8Rng::seed_from_u64(block_seed(self.seed, block as u64));
            for bucket in &self.buckets {
                bucket.walk(&mut rng, block_shots, |rng, channel, shot| {
                    let shot = first_shot + shot;
                    if let Some((ratios, log_weights)) = weights.as_mut() {
                        log_weights[shot] += ratios[channel];
                    }
                    // The channel's Paulis are mutually exclusive: one fires.
                    let components = self.table.component_ids(channel);
                    let component = match components.len() {
                        1 => components[0],
                        n => components[rng.gen_range(0..n)],
                    };
                    let (detectors, observables) = self.table.signature(component);
                    let (word, bit) = (shot / 64, 1u64 << (shot % 64));
                    for &d in detectors {
                        chunk.flip_detector(d as usize, word, bit);
                    }
                    for &o in observables {
                        chunk.observables.plane_mut(o as usize)[word] ^= bit;
                    }
                });
            }
        }
        chunk.debug_check_occupancy();
        chunk
    }

    /// A streaming iterator over all chunks in order; peak memory is one
    /// chunk.
    pub fn chunks(&self) -> impl Iterator<Item = SyndromeChunk> + '_ {
        (0..self.num_chunks()).map(|index| self.sample_chunk(index))
    }
}

/// A chunked sampler for `total_shots` shots of `circuit`, whose peak
/// memory is `O(chunk_shots × detectors)` instead of
/// `O(total_shots × detectors)`: one pass over the circuit builds its
/// [`FaultTable`], which the sampler owns (see
/// [`DetectorChunkSampler::from_table`] for a table the caller holds).
///
/// # Errors
///
/// Returns the first dangling [`MeasurementRef`] if the circuit's
/// annotations are inconsistent.
pub fn sample_detector_chunks(
    circuit: &NoisyCircuit,
    total_shots: usize,
    seed: u64,
    chunk_shots: usize,
) -> Result<DetectorChunkSampler<'_>, MeasurementRef> {
    let table = FaultTable::from_circuit(circuit)?;
    Ok(DetectorChunkSampler::over(
        Cow::Owned(table),
        total_shots,
        seed,
        chunk_shots,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NoiseChannel;
    use qccd_circuit::{Detector, Instruction, LogicalObservable, QubitId};

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn mref(i: u32, occurrence: u32) -> MeasurementRef {
        MeasurementRef::new(q(i), occurrence)
    }

    fn noisy_single_qubit(p: f64) -> NoisyCircuit {
        let mut c = NoisyCircuit::new();
        c.push_gate(Instruction::Reset(q(0)));
        c.push_noise(NoiseChannel::BitFlip { qubit: q(0), p });
        c.push_gate(Instruction::Measure(q(0)));
        c.add_detector(Detector::new(vec![mref(0, 0)]));
        c.add_observable(LogicalObservable::new(vec![mref(0, 0)]));
        c
    }

    #[test]
    fn chunk_partition_covers_all_shots() {
        let circuit = noisy_single_qubit(0.1);
        let total = 3 * CANONICAL_BLOCK_SHOTS + 17;
        let sampler = sample_detector_chunks(&circuit, total, 5, CANONICAL_BLOCK_SHOTS).unwrap();
        assert_eq!(sampler.num_chunks(), 4);
        let mut seen = 0;
        for chunk in sampler.chunks() {
            assert_eq!(chunk.shot_offset(), seen);
            seen += chunk.num_shots();
        }
        assert_eq!(seen, total);
    }

    #[test]
    fn chunking_is_invariant_in_chunk_size() {
        let circuit = noisy_single_qubit(0.2);
        let total = 2 * CANONICAL_BLOCK_SHOTS + 100;
        let fine = sample_detector_chunks(&circuit, total, 9, 1).unwrap();
        let coarse = sample_detector_chunks(&circuit, total, 9, total).unwrap();
        // Concatenating the fine chunks must reproduce the one coarse chunk.
        let mut fired_fine = Vec::new();
        for chunk in fine.chunks() {
            for shot in 0..chunk.num_shots() {
                fired_fine.push(chunk.detector_fired(shot, 0));
            }
        }
        let big = coarse.sample_chunk(0);
        let fired_coarse: Vec<bool> = (0..big.num_shots())
            .map(|s| big.detector_fired(s, 0))
            .collect();
        assert_eq!(fired_fine, fired_coarse);
    }

    #[test]
    fn chunk_statistics_match_probability() {
        let p = 0.25;
        let circuit = noisy_single_qubit(p);
        let total = 40_000;
        let sampler = sample_detector_chunks(&circuit, total, 11, 8192).unwrap();
        let mut fired = 0usize;
        for chunk in sampler.chunks() {
            let mask = chunk.fired_shot_mask();
            fired += mask.iter().map(|w| w.count_ones() as usize).sum::<usize>();
        }
        let rate = fired as f64 / total as f64;
        assert!((rate - p).abs() < 0.01, "rate {rate} vs p {p}");
    }

    #[test]
    fn fired_detectors_into_matches_bit_access() {
        let circuit = noisy_single_qubit(0.5);
        let sampler = sample_detector_chunks(&circuit, 130, 3, 64).unwrap();
        let chunk = sampler.sample_chunk(0);
        let mut fired = Vec::new();
        for shot in 0..chunk.num_shots() {
            chunk.fired_detectors_into(shot, &mut fired);
            assert_eq!(fired.contains(&0), chunk.detector_fired(shot, 0));
            // Observable mirrors the detector for this circuit.
            assert_eq!(
                chunk.observable_flipped(shot, 0),
                chunk.detector_fired(shot, 0)
            );
        }
    }

    #[test]
    fn from_shots_round_trips() {
        let shots = vec![(vec![0, 2], vec![0]), (vec![], vec![]), (vec![1], vec![])];
        let chunk = SyndromeChunk::from_shots(3, 1, &shots);
        assert_eq!(chunk.num_shots(), 3);
        assert!(chunk.detector_fired(0, 0) && chunk.detector_fired(0, 2));
        assert!(!chunk.detector_fired(1, 0));
        assert!(chunk.detector_fired(2, 1));
        assert!(chunk.observable_flipped(0, 0));
        assert!(!chunk.observable_flipped(2, 0));
        assert_eq!(chunk.fired_shot_mask(), vec![0b101]);
    }

    #[test]
    fn zero_shot_chunks_have_no_words() {
        let chunk = SyndromeChunk::from_shots(4, 1, &[]);
        assert_eq!(chunk.num_shots(), 0);
        assert_eq!(chunk.words(), 0);
        assert!(chunk.fired_shot_mask().is_empty());
    }

    #[test]
    fn word_blocks_round_trip_through_the_builder() {
        let circuit = noisy_single_qubit(0.5);
        let sampler = sample_detector_chunks(&circuit, 130, 3, 256).unwrap();
        let chunk = sampler.sample_chunk(0);
        let mut builder = SyndromeChunkBuilder::new(chunk.num_detectors(), 1);
        let mut planes = Vec::new();
        for word in 0..chunk.words() {
            chunk.word_block_into(word, &mut planes);
            let count = (chunk.num_shots() - word * 64).min(64);
            builder.push_word_block(&planes, count);
        }
        assert_eq!(builder.pending_frames(), chunk.num_shots());
        let rebuilt = builder.finish(7, 42);
        assert_eq!(rebuilt.chunk_index(), 7);
        assert_eq!(rebuilt.shot_offset(), 42);
        assert_eq!(rebuilt.num_shots(), chunk.num_shots());
        for shot in 0..chunk.num_shots() {
            for d in 0..chunk.num_detectors() {
                assert_eq!(
                    rebuilt.detector_fired(shot, d),
                    chunk.detector_fired(shot, d),
                    "shot {shot} detector {d}"
                );
            }
            // Observables stay zeroed: online clients don't know the frame.
            assert!(!rebuilt.observable_flipped(shot, 0));
        }
        // The builder is reusable and empty again.
        assert!(builder.is_empty());
        assert_eq!(builder.finish(0, 0).num_shots(), 0);
    }

    #[test]
    fn word_blocks_and_frames_interleave_across_word_boundaries() {
        // 70 detectors, and a block pushed at shot offset 37 so it
        // straddles the chunk's 64-shot word boundary.
        let num_detectors = 70;
        let fired_in = |s: usize| -> Vec<usize> {
            (0..num_detectors)
                .filter(|d| (d * 5 + s).is_multiple_of(11))
                .collect()
        };
        let mut by_frame = SyndromeChunkBuilder::new(num_detectors, 2);
        let mut mixed = SyndromeChunkBuilder::new(num_detectors, 2);
        for s in 0..37 {
            by_frame.push_frame(&fired_in(s));
            mixed.push_frame(&fired_in(s));
        }
        // Shots 37..=87 arrive as one 51-shot word block.
        let mut planes = vec![0u64; num_detectors];
        for s in 37..88 {
            for d in fired_in(s) {
                planes[d] |= 1u64 << (s - 37);
            }
            by_frame.push_frame(&fired_in(s));
        }
        mixed.push_word_block(&planes, 51);
        // And a few more frame-major stragglers after the block.
        for s in 88..100 {
            by_frame.push_frame(&fired_in(s));
            mixed.push_frame(&fired_in(s));
        }
        assert_eq!(mixed.pending_frames(), 100);
        assert_eq!(by_frame.finish(0, 0), mixed.finish(0, 0));
    }

    #[test]
    fn word_block_into_matches_fired_detectors() {
        let circuit = noisy_single_qubit(0.4);
        let sampler = sample_detector_chunks(&circuit, 100, 9, 256).unwrap();
        let chunk = sampler.sample_chunk(0);
        let mut planes = Vec::new();
        let mut fired = Vec::new();
        for word in 0..chunk.words() {
            chunk.word_block_into(word, &mut planes);
            assert_eq!(planes.len(), chunk.num_detectors());
            let count = (chunk.num_shots() - word * 64).min(64);
            for s in 0..count {
                let shot = word * 64 + s;
                chunk.fired_detectors_into(shot, &mut fired);
                for (d, &plane) in planes.iter().enumerate() {
                    assert_eq!(
                        plane >> s & 1 == 1,
                        fired.contains(&d),
                        "shot {shot} detector {d}"
                    );
                }
            }
        }
    }

    #[test]
    fn append_matches_pushing_every_block_into_one_builder() {
        let num_detectors = 70;
        let fired_in = |s: usize| -> Vec<usize> {
            (0..num_detectors)
                .filter(|d| (d * 7 + s).is_multiple_of(13))
                .collect()
        };
        let block = |first: usize, count: usize| -> Vec<u64> {
            let mut planes = vec![0u64; num_detectors];
            for s in 0..count {
                for d in fired_in(first + s) {
                    planes[d] |= 1u64 << s;
                }
            }
            planes
        };
        let mut whole = SyndromeChunkBuilder::new(num_detectors, 2);
        let mut head = SyndromeChunkBuilder::new(num_detectors, 2);
        let mut tail = SyndromeChunkBuilder::new(num_detectors, 2);
        // Head: two full words. Tail: a full word, 5 frames, a 40-shot block
        // (straddling its second word), then a partial third word.
        for first in [0, 64] {
            whole.push_word_block(&block(first, 64), 64);
            head.push_word_block(&block(first, 64), 64);
        }
        whole.push_word_block(&block(128, 64), 64);
        tail.push_word_block(&block(128, 64), 64);
        for s in 192..197 {
            whole.push_frame(&fired_in(s));
            tail.push_frame(&fired_in(s));
        }
        whole.push_word_block(&block(197, 40), 40);
        tail.push_word_block(&block(197, 40), 40);
        head.append(&mut tail);
        assert_eq!(head.pending_frames(), 237);
        assert_eq!(head.finish(0, 0), whole.finish(0, 0));
        // The emptied source ingests its next batch from shot 0.
        assert!(tail.is_empty());
        let mut fresh = SyndromeChunkBuilder::new(num_detectors, 2);
        for s in 0..3 {
            tail.push_frame(&fired_in(s));
            fresh.push_frame(&fired_in(s));
        }
        assert_eq!(tail.finish(0, 0), fresh.finish(0, 0));
    }

    #[test]
    fn append_moves_words_between_builders_of_different_widths() {
        let num_detectors = 9;
        let block = |word: usize| -> Vec<u64> {
            (0..num_detectors)
                .map(|d| (word as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> d)
                .collect()
        };
        let mut whole = SyndromeChunkBuilder::new(num_detectors, 1);
        // Widen the target to 64 words and the source to 16, then empty them.
        let mut head = SyndromeChunkBuilder::new(num_detectors, 1);
        let mut tail = SyndromeChunkBuilder::new(num_detectors, 1);
        for word in 0..64 {
            head.push_word_block(&block(word), 64);
            if word < 16 {
                tail.push_word_block(&block(word), 64);
            }
        }
        head.finish(0, 0);
        tail.finish(0, 0);
        for word in 0..3 {
            whole.push_word_block(&block(word), 64);
            head.push_word_block(&block(word), 64);
        }
        whole.push_word_block(&block(3), 64);
        tail.push_word_block(&block(3), 64);
        head.append(&mut tail);
        assert_eq!(head.pending_frames(), 256);
        assert_eq!(head.finish(0, 0), whole.finish(0, 0));
        // The emptied 16-word source ingests its next word from shot 0.
        assert!(tail.is_empty());
        let mut fresh = SyndromeChunkBuilder::new(num_detectors, 1);
        tail.push_word_block(&block(4), 64);
        fresh.push_word_block(&block(4), 64);
        assert_eq!(tail.finish(0, 0), fresh.finish(0, 0));
    }

    #[test]
    fn a_sized_builder_matches_an_unsized_one() {
        let num_detectors = 5;
        let fired_in = |s: usize| -> Vec<usize> {
            (0..num_detectors)
                .filter(|d| (d * 3 + s).is_multiple_of(7))
                .collect()
        };
        let block = |first: usize, count: usize| -> Vec<u64> {
            let mut planes = vec![0u64; num_detectors];
            for s in 0..count {
                for d in fired_in(first + s) {
                    planes[d] |= 1u64 << s;
                }
            }
            planes
        };
        for shots in [1, 63, 64, 65, 4096] {
            let mut unsized_frames = SyndromeChunkBuilder::new(num_detectors, 1);
            let mut sized_frames = SyndromeChunkBuilder::with_capacity(num_detectors, 1, shots);
            for s in 0..shots {
                unsized_frames.push_frame(&fired_in(s));
                sized_frames.push_frame(&fired_in(s));
            }
            let chunk = unsized_frames.finish(0, 0);
            assert_eq!(sized_frames.finish(0, 0), chunk, "{shots} frames");
            let mut sized_blocks = SyndromeChunkBuilder::with_capacity(num_detectors, 1, shots);
            for first in (0..shots).step_by(64) {
                let count = (shots - first).min(64);
                sized_blocks.push_word_block(&block(first, count), count);
            }
            assert_eq!(sized_blocks.finish(0, 0), chunk, "{shots} shots in blocks");
            // The finished builder ingests its next batch from shot 0.
            assert!(sized_blocks.is_empty());
            let mut fresh = SyndromeChunkBuilder::new(num_detectors, 1);
            for s in 0..3 {
                sized_blocks.push_frame(&fired_in(s));
                fresh.push_frame(&fired_in(s));
            }
            assert_eq!(sized_blocks.finish(0, 0), fresh.finish(0, 0));
        }
    }

    #[test]
    #[should_panic(expected = "behind a partial word")]
    fn append_behind_a_partial_word_panics() {
        let mut head = SyndromeChunkBuilder::new(2, 1);
        head.push_frame(&[0]);
        let mut tail = SyndromeChunkBuilder::new(2, 1);
        tail.push_frame(&[1]);
        head.append(&mut tail);
    }

    #[test]
    #[should_panic(expected = "out-of-range shot bits")]
    fn builder_rejects_out_of_range_block_bits() {
        let mut builder = SyndromeChunkBuilder::new(2, 1);
        builder.push_word_block(&[0b100, 0], 2);
    }

    #[test]
    #[should_panic(expected = "wrong plane word count")]
    fn builder_rejects_wrong_block_plane_count() {
        let mut builder = SyndromeChunkBuilder::new(3, 1);
        builder.push_word_block(&[1, 1], 1);
    }

    #[test]
    fn block_seeds_differ() {
        let a = block_seed(1, 0);
        let b = block_seed(1, 1);
        let c = block_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
