//! Chunked, streaming detector sampling.
//!
//! Materialising every shot of an experiment at once costs
//! `O(shots × detectors)` memory. The chunked API bounds peak memory by the
//! chunk size instead: a [`DetectorChunkSampler`] describes the whole
//! experiment but samples one [`SyndromeChunk`] of shots at a time, each
//! holding only bit-packed *detector* and *observable* planes.
//! [`DetectorChunkSampler`] states the sampling method and the determinism
//! contract.
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
//! * [`SyndromeChunkBuilder`] sets a word's bit wherever it ORs bits into
//!   that word (an OR never clears one), so `finish` reads no plane;
//! * [`SyndromeChunk::from_shots`] indexes its planes in one pass.
//!
//! Debug builds check the index against the planes word by word wherever a
//! chunk is built.

use std::borrow::Cow;
use std::sync::OnceLock;

use rand::{RngCore, SplitMix64};

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
                self.occupancy[(w / 64) * num_detectors + detector] |=
                    u64::from(word != 0) << (w % 64);
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
        let occupied = u64::from(*plane_word != 0);
        let mask = &mut self.occupancy[(word / 64) * self.num_detectors + detector];
        *mask = *mask & !(1u64 << (word % 64)) | occupied << (word % 64);
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
/// The builder *is* the detector planes of the chunk under construction and
/// their occupancy index: every push writes where the decoder will read, and
/// `finish` hands both over without another pass over the words. Shot order
/// within the produced chunk is the ingestion order.
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
    /// The exact occupancy index of `planes`, laid out as the chunk's.
    occupancy: Vec<u64>,
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
        let words = shots.div_ceil(64);
        SyndromeChunkBuilder {
            num_detectors,
            num_observables,
            planes: BitPlanes::zeroed(num_detectors, words),
            occupancy: vec![0; words.div_ceil(64) * num_detectors],
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
            self.occupancy
                .resize(words.div_ceil(64) * self.num_detectors, 0);
        }
    }

    /// ORs `bits` into word `word` of detector `detector`'s plane, setting
    /// the word's index bit when `bits` is non-zero.
    #[inline]
    fn or_word(&mut self, detector: usize, word: usize, bits: u64) {
        self.planes.plane_mut(detector)[word] |= bits;
        self.occupancy[(word / 64) * self.num_detectors + detector] |=
            u64::from(bits != 0) << (word % 64);
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
            self.or_word(d, word, 1u64 << bit);
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
            let fired = planes.iter().fold(0, |acc, &w| acc | w);
            assert!(fired >> count == 0, "block sets out-of-range shot bits");
        }
        self.reserve_shots(self.num_frames + count);
        let (word, bit) = (self.num_frames / 64, self.num_frames % 64);
        let straddles = bit + count > 64;
        for (d, &bits) in planes.iter().enumerate() {
            if bits == 0 {
                continue;
            }
            // A straddling block's high shots may all land in `word + 1`:
            // `word` is then written nothing and stays unindexed.
            self.or_word(d, word, bits << bit);
            if straddles {
                self.or_word(d, word + 1, bits >> (64 - bit));
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
            for w in 0..words {
                let bits = std::mem::take(&mut other.planes.plane_mut(d)[w]);
                self.or_word(d, start + w, bits);
            }
        }
        other.occupancy.fill(0);
        self.num_frames += std::mem::take(&mut other.num_frames);
    }

    /// Hands the pending frames over as a [`SyndromeChunk`] (shot `s` of the
    /// chunk is the `s`-th ingested frame; observables zeroed) and leaves the
    /// builder empty, without planes, for its next batch. The chunk's
    /// occupancy index ([`SyndromeChunk::tile_occupancy`]) is the one the
    /// pushes kept, cut to the chunk's tiles. `chunk_index` and
    /// `shot_offset` are recorded verbatim for the caller's bookkeeping.
    pub fn finish(&mut self, chunk_index: usize, shot_offset: usize) -> SyndromeChunk {
        let num_shots = std::mem::take(&mut self.num_frames);
        let words = num_shots.div_ceil(64);
        let mut detectors = std::mem::take(&mut self.planes);
        if words != detectors.words_per_plane() {
            // A batch narrower than its planes: flushed short of the size it
            // was allocated for, or widened past it by doubling.
            detectors.relay(words);
        }
        // Tiles past the chunk's words index zero words only.
        let mut occupancy = std::mem::take(&mut self.occupancy);
        occupancy.truncate(words.div_ceil(64) * self.num_detectors);
        let chunk = SyndromeChunk {
            chunk_index,
            shot_offset,
            num_shots,
            num_detectors: self.num_detectors,
            num_observables: self.num_observables,
            words,
            detectors,
            observables: BitPlanes::zeroed(self.num_observables, words),
            occupancy,
        };
        chunk.debug_check_occupancy();
        chunk
    }
}

/// Channels whose probabilities share a binary exponent, walked together.
#[derive(Debug, Clone)]
struct Bucket {
    /// `1 / λ` with `λ = −ln(1 − p_max)` for the bucket's largest
    /// probability `p_max` (0 when `p_max = 1`).
    gap_scale: f64,
    /// `(channel, p / p_max)`, in op order.
    channels: Vec<(u32, f64)>,
}

impl Bucket {
    /// Calls `fire(channel, shot, v)` for every `(channel, shot)` of a
    /// `shots`-shot block in which a channel of this bucket fires: one
    /// geometric-skipping walk at `p_max` over the block's `channels × shots`
    /// candidates, each kept when a uniform `u < q`; then `v = u / q`.
    fn walk(
        &self,
        rng: &mut SplitMix64,
        ziggurat: &Ziggurat,
        shots: usize,
        mut fire: impl FnMut(usize, usize, f64),
    ) {
        let shots = shots as u64;
        // The next candidate is shot `shot` of the bucket's channel `at`; a
        // gap divides only when it leaves the channel.
        let (mut at, mut shot) = (0usize, 0u64);
        loop {
            // ⌊E / λ⌋ is geometric with success probability `p_max`; the cast saturates.
            shot = shot.saturating_add((ziggurat.exp1(rng) * self.gap_scale) as u64);
            if shot >= shots {
                at = at.saturating_add((shot / shots) as usize);
                shot %= shots;
            }
            let Some(&(channel, q)) = self.channels.get(at) else {
                break;
            };
            let u = unit(rng.next_u64());
            if u < q {
                fire(channel as usize, shot as usize, u / q);
            }
            shot += 1;
        }
    }
}

/// The top 53 bits of `bits` as a uniform `f64` on `[0, 1)`.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A 256-layer ziggurat for the exponential law Exp(1) (Marsaglia & Tsang,
/// "The Ziggurat Method for Generating Random Variables", 2000). Layer `i`
/// is the rectangle `[0, x[i]) × [f[i], f[i + 1])` under `f(x) = e^{-x}`,
/// every layer of area [`Ziggurat::V`]; layer 0 is the base strip
/// `[0, x[0]) × [0, f(R))`, whose part past `x[1] = R` stands for the tail.
struct Ziggurat {
    /// Layer edges, decreasing: `x[0] = V / f(R)`, `x[1] = R`, …, `x[256] = 0`.
    x: [f64; 257],
    /// `f[i] = e^{-x[i]}` for `i ≥ 1`; `f[0] = 0`, the base strip's floor.
    f: [f64; 257],
}

impl Ziggurat {
    /// The base strip's edge.
    const R: f64 = 7.697_117_470_131_05;
    /// The area of every layer, `e^{-R} (R + 1)`.
    const V: f64 = 3.949_659_822_581_556e-3;

    fn new() -> Self {
        let (mut x, mut f) = ([0.0; 257], [0.0; 257]);
        (x[0], x[1]) = (Self::V * Self::R.exp(), Self::R);
        for i in 1..256 {
            f[i] = (-x[i]).exp();
            x[i + 1] = -(f[i] + Self::V / x[i]).ln();
        }
        // The top layer closes at the mode; pin it against rounding.
        (x[256], f[256]) = (0.0, 1.0);
        Ziggurat { x, f }
    }

    /// The table every sampler shares, built on first use.
    fn get() -> &'static Ziggurat {
        static TABLE: OnceLock<Ziggurat> = OnceLock::new();
        TABLE.get_or_init(Ziggurat::new)
    }

    /// One Exp(1) draw: a uniform point of a uniform layer, kept when under
    /// the curve; one generator step serves about 99 % of draws.
    #[inline]
    fn exp1(&self, rng: &mut SplitMix64) -> f64 {
        loop {
            let bits = rng.next_u64();
            let i = (bits & 0xff) as usize;
            let x = unit(bits) * self.x[i];
            if x < self.x[i + 1] {
                return x;
            }
            if i == 0 {
                // Past R the law is R + Exp(1) again; `1 - u` avoids ln(0).
                return Self::R - (1.0 - unit(rng.next_u64())).ln();
            }
            if self.f[i] + (self.f[i + 1] - self.f[i]) * unit(rng.next_u64()) < (-x).exp() {
                return x;
            }
        }
    }
}

/// Groups the channels that can fire by the binary exponent of their
/// probability, so that within a bucket `p_max < 2 p`; buckets come in
/// ascending exponent order.
fn bucket_channels(probabilities: &[f64]) -> Vec<Bucket> {
    // One slot per value of the top 12 bits (sign and exponent) of an
    // `f64`: its largest probability, and first its channel count, then
    // its bucket's index.
    const EXPONENTS: usize = 1 << 11;
    let exponent = |p: f64| (p.to_bits() >> 52) as usize;
    let firing = || {
        (probabilities.iter().enumerate())
            .filter(|&(_, &p)| p > 0.0)
            .map(|(channel, &p)| (channel as u32, p.min(1.0)))
    };
    let mut slots = vec![(0u32, 0.0f64); EXPONENTS];
    for (_, p) in firing() {
        let (count, p_max) = &mut slots[exponent(p)];
        (*count, *p_max) = (*count + 1, p.max(*p_max));
    }
    let mut buckets = Vec::new();
    for (slot, p_max) in slots.iter_mut().filter(|(count, _)| *count > 0) {
        buckets.push(Bucket {
            gap_scale: -1.0 / (-*p_max).ln_1p(),
            channels: Vec::with_capacity(*slot as usize),
        });
        *slot = buckets.len() as u32 - 1;
    }
    for (channel, p) in firing() {
        let (bucket, p_max) = slots[exponent(p)];
        buckets[bucket as usize].channels.push((channel, p / p_max));
    }
    buckets
}

/// A chunked, thread-shareable detector sampler over one noisy circuit.
///
/// # Sampling
///
/// Shots are sampled from the circuit's [`FaultTable`], not by running the
/// circuit: every component of every noise channel has a fixed signature
/// (the detectors and observables it flips), so a shot's detector events are
/// the XOR of the signatures of the faults that occur in it. The cost is
/// proportional to the number of faults placed, not to `ops × shots`.
///
/// Each block draws from its own [`SplitMix64`] stream, seeded with
/// [`block_seed`]. Channels are bucketed by the binary exponent of their
/// probability; each bucket is one geometric-skipping walk at its largest
/// probability `p_max` over the flattened `channels × shots` index space of
/// a block, so a bucket proposes at most twice the faults it places. A
/// proposal costs two generator steps: its gap, `⌊E / λ⌋` candidates with
/// `E ~ Exp(1)` from a 256-layer ziggurat (Marsaglia & Tsang 2000) and
/// `λ = −ln(1 − p_max)` once per bucket, which is exactly geometric; and one
/// uniform `u`, which keeps the candidate when `u < q = p / p_max` and then
/// picks component `⌊(u / q) · n⌋` of the channel's `n` (given `u < q`,
/// `u / q` is uniform on `[0, 1)`). A channel that fires thus picks one of
/// its components uniformly — the channel's mutually exclusive Paulis, not
/// the detector error model's independent-mechanism approximation.
///
/// # Determinism
///
/// Shots are partitioned into fixed-size *blocks* of
/// [`CANONICAL_BLOCK_SHOTS`] shots (the last block takes the remainder).
/// Every block is sampled with its own RNG stream, derived from the base
/// seed and the block index only — never from the chunk size. Chunks are
/// merely groups of consecutive blocks handed to one worker, so for a fixed
/// `(total_shots, seed)` the sampled outcomes are bit-identical regardless
/// of the chunk size or of how many threads pull chunks. This is what makes
/// `qccd_decoder`'s estimator reproducible across machine shapes. The
/// stream itself is versioned by the repository's goldens, not promised
/// across releases: a change to the sampler may regenerate it, deliberately.
///
/// Because `sample_chunk` takes `&self`, one sampler can be shared across
/// worker threads and chunks can be produced in any order, or in parallel.
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
        let chunk_shots = self.shots_in_chunk(chunk_index);
        let first_block = chunk_index * self.blocks_per_chunk;
        let shot_offset = first_block * CANONICAL_BLOCK_SHOTS;
        let mut chunk = SyndromeChunk::zeroed(
            chunk_index,
            shot_offset,
            chunk_shots,
            self.num_detectors(),
            self.num_observables(),
        );
        let last_block = (first_block + self.blocks_per_chunk).min(self.num_blocks());
        let ziggurat = Ziggurat::get();
        for block in first_block..last_block {
            let block_shots = self.shots_in_block(block);
            let first_shot = (block - first_block) * CANONICAL_BLOCK_SHOTS;
            let mut rng = SplitMix64::new(block_seed(self.seed, block as u64));
            for bucket in &self.buckets {
                bucket.walk(&mut rng, ziggurat, block_shots, |channel, shot, v| {
                    let shot = first_shot + shot;
                    // The channel's Paulis are mutually exclusive: one fires.
                    let components = self.table.component_ids(channel);
                    let component = components[(v * components.len() as f64) as usize];
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
    fn every_ziggurat_layer_has_the_same_area() {
        let (r, v) = (Ziggurat::R, Ziggurat::V);
        // The base strip: the rectangle under f(R) plus the tail past R.
        assert!(
            (v - (-r).exp() * (r + 1.0)).abs() < 1e-17,
            "V and R disagree"
        );
        let z = Ziggurat::new();
        assert!(z.x.windows(2).all(|edge| edge[0] > edge[1]));
        for i in 0..256 {
            let area = z.x[i] * (z.f[i + 1] - z.f[i]);
            assert!((area - v).abs() < 1e-12 * v, "layer {i} has area {area}");
        }
    }

    #[test]
    fn ziggurat_draws_follow_the_exponential_law() {
        const DRAWS: usize = 1 << 20;
        const BINS: usize = 128;
        let z = Ziggurat::new();
        let mut rng = SplitMix64::new(7);
        let mut counts = [0.0f64; BINS];
        let (mut tail, mut tail_excess) = (0usize, 0.0);
        for _ in 0..DRAWS {
            let e = z.exp1(&mut rng);
            // The CDF 1 − e^{−x} maps Exp(1) to uniform: equal-probability bins.
            let u = -(-e).exp_m1();
            counts[((u * BINS as f64) as usize).min(BINS - 1)] += 1.0;
            if e >= Ziggurat::R {
                tail += 1;
                tail_excess += e - Ziggurat::R;
            }
        }
        let expected = (DRAWS / BINS) as f64;
        let chi2: f64 = counts
            .iter()
            .map(|c| (c - expected).powi(2) / expected)
            .sum();
        // The upper 4σ point of χ² with 127 degrees of freedom is about 201.
        assert!(
            chi2 < 201.0,
            "χ² {chi2:.1} over {BINS} equal-probability bins"
        );
        // The tail: a share e^{−R} of draws, each R + Exp(1).
        let mean = DRAWS as f64 * (-Ziggurat::R).exp();
        assert!(
            (tail as f64 - mean).abs() < 4.0 * mean.sqrt(),
            "{tail} tail draws"
        );
        let excess = tail_excess / tail as f64;
        assert!(
            (excess - 1.0).abs() < 4.0 / (tail as f64).sqrt(),
            "tail mean {excess}"
        );
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
