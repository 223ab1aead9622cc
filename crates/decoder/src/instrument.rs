//! Optional, process-global telemetry hook for the batch decode paths.
//!
//! The decoder crate has no service or CLI of its own, so its
//! instrumentation is a **hook**: a host installs a
//! [`qccd_telemetry::Registry`] with [`install_telemetry`], and from then
//! on every [`Decoder::decode_batch`](crate::Decoder::decode_batch) /
//! [`Decoder::decode_batch_per_shot`](crate::Decoder::decode_batch_per_shot)
//! call is wrapped in a sampled stage span (`decoder.stage.word_decode` /
//! `decoder.stage.per_shot_decode`, with shots as the item count) and each
//! batch's [`CacheStats`] delta is folded into shared `decoder.*` counters
//! — the memo outcome per noisy shot (`memo_hits` / `memo_misses` /
//! `uncacheable`) and the verdict per 64-shot word (`quiet_words` /
//! `sparse_words` / `dense_words`), which together describe the whole
//! three-tier mix.
//!
//! The hook is process-global, so only a host that runs one service per
//! process installs it: `artifacts serve` does (with the service's own
//! registry, when that registry is enabled), as do the decoder bench's
//! overhead gate and the identity tests. An in-process `DecodeService`
//! (`loadgen --in-process`, the repository benchmark), the sweep
//! coordinator and its workers do not, so their scrapes carry no
//! `decoder.*` rows.
//!
//! # Cost contract
//!
//! With no hook installed (the default), a batch decode pays exactly one
//! relaxed `AtomicBool` load — the disabled path the criterion gate in
//! `qccd-bench/benches/decoder.rs` pins at <2% overhead on
//! `word_decode_100000_shots_d5`. With a hook installed, per *batch* (not
//! per shot) the wrapper takes one mutex on a rarely-written lock and two
//! sampled `Instant` reads; the decode inner loops are untouched.
//!
//! # Bit-identity
//!
//! The hook times around the batch call and reads counters the decode
//! already maintains; it never touches syndromes, predictions or the memo,
//! so instrumented and uninstrumented decodes are bit-identical by
//! construction (pinned in `tests/prop_word_parallel_identity.rs` with a
//! full-sampling registry installed).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use qccd_telemetry::{Registry, Stage};

use crate::memo::CacheStats;

/// Fast-path switch: true iff a hook is installed (even a disabled-registry
/// hook, so "installed but off" is measurable as its own mode).
static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

/// The installed stage handles (cold lock: taken once per *batch*, only
/// while a hook is installed).
static HOOK: Mutex<Option<DecoderStages>> = Mutex::new(None);

/// Pre-registered handles for the decoder's pipeline stages.
#[derive(Debug, Clone)]
struct DecoderStages {
    word_decode: Stage,
    per_shot_decode: Stage,
    memo_hits: qccd_telemetry::Counter,
    memo_misses: qccd_telemetry::Counter,
    uncacheable: qccd_telemetry::Counter,
    quiet_words: qccd_telemetry::Counter,
    sparse_words: qccd_telemetry::Counter,
    dense_words: qccd_telemetry::Counter,
}

impl DecoderStages {
    fn new(registry: &Registry) -> Self {
        DecoderStages {
            word_decode: registry.stage("decoder.stage.word_decode"),
            per_shot_decode: registry.stage("decoder.stage.per_shot_decode"),
            memo_hits: registry.counter("decoder.memo_hits"),
            memo_misses: registry.counter("decoder.memo_misses"),
            uncacheable: registry.counter("decoder.uncacheable"),
            quiet_words: registry.counter("decoder.quiet_words"),
            sparse_words: registry.counter("decoder.sparse_words"),
            dense_words: registry.counter("decoder.dense_words"),
        }
    }

    fn fold_cache_delta(&self, delta: &CacheStats) {
        self.memo_hits.add(delta.hits);
        self.memo_misses.add(delta.misses);
        self.uncacheable.add(delta.uncacheable);
        self.quiet_words.add(delta.quiet_words);
        self.sparse_words.add(delta.sparse_words);
        self.dense_words.add(delta.dense_words);
    }
}

/// Installs `registry` as the process-global decoder telemetry hook,
/// replacing any previous one. Installing a *disabled* registry still
/// routes batches through the (no-op) hook — that is the "disabled mode"
/// whose overhead the criterion gate measures.
pub fn install_telemetry(registry: &Registry) {
    let stages = DecoderStages::new(registry);
    *HOOK.lock().expect("decoder telemetry hook lock") = Some(stages);
    HOOK_INSTALLED.store(true, Ordering::Release);
}

/// Removes the hook, restoring the single-atomic-load fast path.
pub fn uninstall_telemetry() {
    HOOK_INSTALLED.store(false, Ordering::Release);
    *HOOK.lock().expect("decoder telemetry hook lock") = None;
}

/// Whether a hook is installed (one relaxed load — the batch fast path).
#[inline]
pub(crate) fn hook_installed() -> bool {
    HOOK_INSTALLED.load(Ordering::Relaxed)
}

/// Which batch path a [`timed_batch`] call is reporting for.
#[derive(Debug, Clone, Copy)]
pub(crate) enum BatchPath {
    /// The word-parallel tile-scan path.
    Word,
    /// The per-shot reference loop.
    PerShot,
}

/// Runs `decode` under the installed hook's stage span. The closure returns
/// the batch result together with the scratch's `CacheStats` **delta** for
/// the batch, which is folded into the shared counters. Caller must have
/// checked [`hook_installed`]; if the hook raced away, the batch simply
/// runs untimed.
pub(crate) fn timed_batch<R>(
    path: BatchPath,
    shots: u64,
    decode: impl FnOnce() -> (R, CacheStats),
) -> R {
    let stages = HOOK
        .lock()
        .expect("decoder telemetry hook lock")
        .as_ref()
        .cloned();
    let Some(stages) = stages else {
        return decode().0;
    };
    let stage = match path {
        BatchPath::Word => &stages.word_decode,
        BatchPath::PerShot => &stages.per_shot_decode,
    };
    let span = stage.start();
    let (result, delta) = decode();
    span.finish(shots);
    stages.fold_cache_delta(&delta);
    result
}
