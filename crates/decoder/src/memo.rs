//! Per-decoder syndrome memoization.
//!
//! Below threshold, the overwhelming majority of noisy shots carry a handful
//! of recurring small defect sets — single defects and adjacent pairs — so
//! decoding the same canonical defect set over and over dominates the batch
//! decode cost. The `SyndromeMemo` caches the decoder's prediction per
//! defect set, keyed by the (already sorted) fired-detector list, for shots
//! with at most [`MemoConfig::max_defects`] defects.
//!
//! # Bit-identity contract
//!
//! Memoization is a pure cache: every entry stores exactly the bit-packed
//! prediction [`Decoder::decode_shot`](crate::Decoder::decode_shot) returned
//! for that defect set, and decoders are deterministic functions of the
//! defect set, so a memoized batch decode is **bit-identical** to a
//! cache-disabled one. The property tests in `tests/prop_memo_decode.rs` pin
//! this for both decoder kinds across chunk sizes and thread counts.
//!
//! # Ownership
//!
//! The memo lives inside [`DecodeScratch`](crate::DecodeScratch) (one per
//! worker thread, reused across chunks) but its *entries* are owned by a
//! decoder instance: each decoder carries a unique memo token, and the memo
//! drops its entries whenever it is handed to a decoder with a different
//! token, so a scratch can be shared across decoders without serving stale
//! predictions. The counters belong to the scratch, not to the owner: they
//! only grow for the life of the scratch.
//!
//! # Learning
//!
//! Nothing is computed ahead of the traffic. Every cacheable defect set —
//! single defects included — misses once, is decoded by the owning decoder
//! and inserted, so for one scratch and one decoder `misses` is the number
//! of distinct cacheable sets seen (while the entry cap admits them),
//! whatever order the shots arrive in. Workers learn independently; there
//! is no shared table.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};

/// Default cap on the defect-set cardinality that is memoized.
pub const DEFAULT_MEMO_MAX_DEFECTS: usize = 4;

/// Hard upper bound on [`MemoConfig::max_defects`] (the memo key is a fixed
/// array of this many detector indices).
pub const MEMO_KEY_CAPACITY: usize = 6;

/// Default cap on the number of cached defect sets per memo.
pub const DEFAULT_MEMO_MAX_ENTRIES: usize = 1 << 20;

/// Allocates a process-unique memo-ownership token for one decoder instance.
pub(crate) fn next_memo_token() -> NonZeroU64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NonZeroU64::new(NEXT.fetch_add(1, Ordering::Relaxed)).expect("token counter starts at 1")
}

/// Tuning knobs of the syndrome memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    /// Largest defect-set cardinality that is memoized (clamped to
    /// [`MEMO_KEY_CAPACITY`]; `0` disables memoization entirely).
    pub max_defects: usize,
    /// Maximum number of cached defect sets; once full, lookups continue but
    /// new entries are not inserted (keeps memory bounded and behaviour
    /// deterministic).
    pub max_entries: usize,
}

impl Default for MemoConfig {
    fn default() -> Self {
        MemoConfig {
            max_defects: DEFAULT_MEMO_MAX_DEFECTS,
            max_entries: DEFAULT_MEMO_MAX_ENTRIES,
        }
    }
}

impl MemoConfig {
    /// A configuration with memoization switched off.
    pub fn disabled() -> Self {
        MemoConfig {
            max_defects: 0,
            max_entries: 0,
        }
    }

    /// Whether memoization is enabled at all.
    pub fn enabled(&self) -> bool {
        self.max_defects > 0
    }

    /// The effective defect cap (clamped to the key capacity).
    pub fn effective_max_defects(&self) -> usize {
        self.max_defects.min(MEMO_KEY_CAPACITY)
    }
}

/// Hit/miss counters of one memo (accumulated across chunks — and across
/// changes of owning decoder — for the life of its scratch).
///
/// Only *noisy* shots are counted — quiet shots are skipped by the batch
/// engine's word-level scan before the memo is ever consulted.
///
/// The `*_words` counters describe the word-parallel scan of
/// [`Decoder::decode_batch`](crate::Decoder::decode_batch): every 64-shot
/// word is counted as quiet (no defect anywhere), sparse (every noisy lane
/// at or below the memo's defect cap) or dense (at least one lane above the
/// cap, i.e. counted in `uncacheable`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Noisy shots answered from the memo.
    pub hits: u64,
    /// Noisy shots decoded and inserted (or droppable at the entry cap).
    pub misses: u64,
    /// Noisy shots with more defects than the memo cap (decoded directly).
    pub uncacheable: u64,
    /// Words of the word-parallel scan with no fired detector.
    pub quiet_words: u64,
    /// Noisy words in which every lane was at or below the memo's defect
    /// cap.
    pub sparse_words: u64,
    /// Words with at least one lane above the cap.
    pub dense_words: u64,
    /// Retired in PR 16, kept only because the frozen benchmark package
    /// reads them; delete with the next `benchmark` PR.
    pub dense_hits: u64,
    #[doc(hidden)]
    pub dense_misses: u64,
    #[doc(hidden)]
    pub cluster_conflicts: u64,
}

impl CacheStats {
    /// Noisy shots that consulted the memo (hits + misses).
    pub fn attempts(&self) -> u64 {
        self.hits + self.misses
    }

    /// All noisy shots decoded while the memo was active.
    pub fn decoded(&self) -> u64 {
        self.hits + self.misses + self.uncacheable
    }

    /// All words the word-parallel path scanned.
    pub fn words(&self) -> u64 {
        self.quiet_words + self.sparse_words + self.dense_words
    }

    /// Adds another set of counters field-wise (used by the estimator to
    /// aggregate per-chunk deltas).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.uncacheable += other.uncacheable;
        self.quiet_words += other.quiet_words;
        self.sparse_words += other.sparse_words;
        self.dense_words += other.dense_words;
    }

    /// The counters accumulated since `earlier` was captured from the same
    /// scratch (its counters never shrink).
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
            uncacheable: self.uncacheable - earlier.uncacheable,
            quiet_words: self.quiet_words - earlier.quiet_words,
            sparse_words: self.sparse_words - earlier.sparse_words,
            dense_words: self.dense_words - earlier.dense_words,
            ..CacheStats::default()
        }
    }
}

/// Memo key: the defect set padded with `u32::MAX` sentinels. Defect lists
/// arriving from the batch gather loop are already sorted ascending, so the
/// padded array is a canonical encoding of the set.
type MemoKey = [u32; MEMO_KEY_CAPACITY];

/// A fast non-cryptographic hasher for the memo's keys (SplitMix64
/// folding), where the std SipHash default dominates the lookup. Keys come
/// from the program's defect sets, not from outside it: nothing here resists
/// crafted collisions.
///
/// `Hash` for integer arrays reaches the hasher through one bulk
/// [`Hasher::write`] of the element bytes (plus a length prefix), so `write`
/// folds whole 8-byte words — one mixing round per word, not per byte.
#[derive(Debug, Default, Clone)]
struct WordHasher {
    state: u64,
}

impl Hasher for WordHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let word = u64::from_le_bytes(chunk.try_into().expect("exact 8-byte chunk"));
            self.write_u64(word);
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word) ^ ((tail.len() as u64) << 56));
        }
    }

    #[inline]
    fn write_u32(&mut self, value: u32) {
        self.write_u64(u64::from(value));
    }

    #[inline]
    fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    #[inline]
    fn write_u64(&mut self, value: u64) {
        let mut z = self.state ^ value.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        self.state = z ^ (z >> 31);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }
}

/// Memo table under [`WordHasher`]: the std SipHash default costs more than
/// a small decode on the hit path, and a [`MemoKey`] folds in ~4 rounds.
type MemoTable = HashMap<MemoKey, u64, BuildHasherDefault<WordHasher>>;

/// The per-decoder prediction cache (see the [module docs](self)): each
/// entry is the `u64` observable mask the owner's
/// [`Decoder::decode_shot`](crate::Decoder::decode_shot) returned.
#[derive(Debug, Clone, Default)]
pub(crate) struct SyndromeMemo {
    /// Memo token of the owning decoder (`None` = unowned / empty).
    owner: Option<NonZeroU64>,
    config: MemoConfig,
    table: MemoTable,
    stats: CacheStats,
}

impl SyndromeMemo {
    /// The active configuration.
    pub(crate) fn config(&self) -> MemoConfig {
        self.config
    }

    /// Installs a new configuration (entries survive — they are keyed by
    /// defect set and stay valid under any cap).
    pub(crate) fn set_config(&mut self, config: MemoConfig) {
        self.config = config;
    }

    /// Accumulated hit/miss counters.
    pub(crate) fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of cached defect sets.
    pub(crate) fn len(&self) -> usize {
        self.table.len()
    }

    /// Claims the memo for the decoder with the given token, clearing any
    /// entries cached for a different decoder. Counters are the scratch's,
    /// not the owner's, and keep counting.
    pub(crate) fn claim(&mut self, token: NonZeroU64) {
        if self.owner != Some(token) {
            self.table.clear();
            self.owner = Some(token);
        }
    }

    /// Counts one quiet word of the word-parallel scan.
    pub(crate) fn note_quiet_word(&mut self) {
        self.stats.quiet_words += 1;
    }

    /// Counts one sparse word of the word-parallel scan.
    pub(crate) fn note_sparse_word(&mut self) {
        self.stats.sparse_words += 1;
    }

    /// Counts one dense word of the word-parallel scan.
    pub(crate) fn note_dense_word(&mut self) {
        self.stats.dense_words += 1;
    }

    /// Whether a defect set of the given cardinality can be memoized under
    /// the current configuration.
    pub(crate) fn cacheable(&self, defects: usize) -> bool {
        defects <= self.config.effective_max_defects()
    }

    fn key(fired_detectors: &[usize]) -> MemoKey {
        let mut key = [u32::MAX; MEMO_KEY_CAPACITY];
        for (slot, &d) in key.iter_mut().zip(fired_detectors) {
            *slot = d as u32;
        }
        key
    }

    /// Looks up the prediction bitmask of a cacheable defect set, counting a
    /// hit or a miss.
    pub(crate) fn lookup(&mut self, fired_detectors: &[usize]) -> Option<u64> {
        match self.table.get(&Self::key(fired_detectors)) {
            Some(&mask) => {
                self.stats.hits += 1;
                Some(mask)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Records the decoded prediction of a missed defect set (dropped when
    /// the entry cap is reached).
    pub(crate) fn insert(&mut self, fired_detectors: &[usize], mask: u64) {
        if self.table.len() < self.config.max_entries {
            self.table.insert(Self::key(fired_detectors), mask);
        }
    }

    /// Counts a shot that bypassed the memo (defect count above the cap).
    pub(crate) fn note_uncacheable(&mut self) {
        self.stats.uncacheable += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_and_disable() {
        let config = MemoConfig::default();
        assert!(config.enabled());
        assert_eq!(config.max_defects, DEFAULT_MEMO_MAX_DEFECTS);
        assert!(!MemoConfig::disabled().enabled());
        assert_eq!(
            MemoConfig {
                max_defects: 100,
                ..MemoConfig::default()
            }
            .effective_max_defects(),
            MEMO_KEY_CAPACITY
        );
    }

    #[test]
    fn stats_hit_rate() {
        let stats = CacheStats {
            hits: 6,
            misses: 2,
            uncacheable: 2,
            ..CacheStats::default()
        };
        assert_eq!(stats.attempts(), 8);
        assert_eq!(stats.decoded(), 10);
    }

    #[test]
    fn lookup_insert_roundtrip_and_counters() {
        let mut memo = SyndromeMemo::default();
        let token = next_memo_token();
        memo.claim(token);
        assert_eq!(memo.lookup(&[1, 4]), None);
        memo.insert(&[1, 4], 0b1);
        assert_eq!(memo.lookup(&[1, 4]), Some(0b1));
        assert_eq!(memo.lookup(&[4]), None);
        memo.note_uncacheable();
        assert_eq!(
            memo.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                uncacheable: 1,
                ..CacheStats::default()
            }
        );
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn claim_by_other_decoder_clears_entries_but_counters_accumulate() {
        // Counters are the scratch's, only the entries are the owner's.
        let mut memo = SyndromeMemo::default();
        let a = next_memo_token();
        let b = next_memo_token();
        memo.claim(a);
        memo.insert(&[0], 1);
        assert_eq!(memo.lookup(&[0]), Some(1));
        // Re-claim by the same owner keeps everything.
        memo.claim(a);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.stats().hits, 1);
        // A different owner starts from an empty table; the counters are
        // the scratch's and keep counting.
        memo.claim(b);
        assert_eq!(memo.len(), 0);
        assert_eq!(memo.lookup(&[0]), None);
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
    }

    #[test]
    fn entry_cap_stops_insertions_but_not_lookups() {
        let mut memo = SyndromeMemo::default();
        memo.set_config(MemoConfig {
            max_entries: 1,
            ..MemoConfig::default()
        });
        let token = next_memo_token();
        memo.claim(token);
        memo.insert(&[0], 1);
        memo.insert(&[1], 0);
        assert_eq!(memo.len(), 1, "cap must stop the second insert");
        assert_eq!(memo.lookup(&[0]), Some(1));
        assert_eq!(memo.lookup(&[1]), None);
    }

    #[test]
    fn cacheable_respects_cap_and_observables() {
        let mut memo = SyndromeMemo::default();
        memo.set_config(MemoConfig {
            max_defects: 2,
            ..MemoConfig::default()
        });
        assert!(memo.cacheable(0));
        assert!(memo.cacheable(2));
        assert!(!memo.cacheable(3));
    }

    #[test]
    fn tokens_are_unique() {
        assert_ne!(next_memo_token(), next_memo_token());
    }

    #[test]
    fn stats_merge_and_since() {
        let mut a = CacheStats {
            hits: 1,
            misses: 2,
            uncacheable: 3,
            quiet_words: 5,
            sparse_words: 6,
            dense_words: 7,
            ..CacheStats::default()
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits, 2);
        assert_eq!(a.dense_words, 14);
        assert_eq!(a.words(), 10 + 12 + 14);
        assert_eq!(a.since(&b), b, "doubling then removing one copy");
    }
}
