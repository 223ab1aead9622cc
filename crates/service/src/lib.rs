//! # qccd-service
//!
//! A **real-time streaming decode service**: the online counterpart of the
//! offline Monte-Carlo engine in `qccd-decoder`. Where the batch estimator
//! samples and decodes millions of shots per configuration after the fact,
//! this crate decodes *live* syndrome streams — one logical qubit (client)
//! per stream — at the data rate the trap produces them, which is what the
//! paper's architecture ultimately requires of its classical co-processor.
//!
//! # Architecture
//!
//! ```text
//! client streams ──► per-stream sessions ──► per-program batcher shards
//!   (own lock, inflight          (index frames or shot-  (own lock, pending
//!    + reorder state)             major word blocks)      planes sized per call)
//!                                                  │ flush on full word
//!                                                  │ (a call's words: one
//!                                                  │ job), deadline (waited
//!                                                  │ out by an idle
//!                                                  ▼ worker), close
//!                                            decode job queue (a flush
//!                                             joins its program's untaken
//!                                             last job, ≤ 64 words)
//!                                                  │ one wake per job, after
//!                                                  ▼ the shard lock drops
//!                              worker pool (one memo per worker, program)
//!                                                  │
//!                per-stream reorder (stream's own lock) ──► ordered
//!                                                  corrections back
//! ```
//!
//! * [`DecodeService::open_stream`] compiles `(architecture, distance)` and
//!   builds the decoder, one [`DecodeProgram`] per configuration, held in
//!   the service's program registry — opening many streams of the same
//!   configuration compiles once. A caller that already holds a program
//!   opens streams on it with [`DecodeService::open_stream_program`].
//!   Nothing is decoded ahead of the first frame: each worker keeps one
//!   scratch per program, under the service's [`ServiceConfig::memo`],
//!   whose memo learns the recurring defect sets as they arrive.
//! * Pending frames from **all** streams of a program are coalesced by that
//!   program's **batcher shard** into 64-shot words (the unit
//!   `decode_batch`'s tile scan works in). A frame is **written where it is
//!   decoded**: submission sets its bits in the detector planes of the
//!   pending chunk ([`SyndromeChunkBuilder`](qccd_sim::SyndromeChunkBuilder)),
//!   so a flush hands the planes to a worker as they are. A batch is flushed
//!   on a full word, when its oldest frame hits the deadline (never, for a
//!   deadline past the last representable instant), or when the last stream
//!   contributing to it closes. One submit call's full words leave as **one
//!   job** (each word still booked as a flush), and a flush joins the
//!   queue's untaken last job of its program while that job is whole words,
//!   up to 64 words. Each shard has its own mutex, and delivery state lives
//!   behind each stream's own lock: there is no global hot-path lock.
//! * **One scheduler decides.** The job queue (jobs, armed deadlines, the
//!   idle count) and the flush rules are a value that holds no lock and
//!   reads no clock. A worker asks it what next: **serve** a shard whose
//!   deadline fell due, **take** a job, **exit** on shutdown, or **wait**
//!   until the earliest deadline. A queued job wakes one idle worker and an
//!   armed deadline every waiter, once the shard lock drops; shutdown drains
//!   leftover jobs through the same loop. A test-only explorer runs these
//!   decisions through every interleaving of a small model.
//! * Two frame vocabularies: index frames ([`StreamSender::submit`] /
//!   [`StreamSender::submit_batch`], the `frame`/`frames` wire commands)
//!   list one shot's fired detectors and cost one bit-set each; shot-major
//!   clients (the loadgen harness, co-located front-ends) submit
//!   pre-transposed [`WordBlock`]s ([`StreamSender::submit_word_batch`], the
//!   `frames_packed` wire command), where each non-zero 64-shot plane word
//!   lands with one shift-OR and there is no per-frame work at all.
//! * Per-stream queues are bounded ([`ServiceConfig::stream_queue_shots`]):
//!   submission blocks once a stream has that many frames in flight —
//!   backpressure instead of unbounded memory.
//! * Corrections are delivered **in submission order per stream**
//!   (a reorder stage undoes worker races), each as an observable-flip
//!   bitmask — bit-identical to what
//!   [`Decoder::decode_batch`](qccd_decoder::Decoder::decode_batch) would
//!   have produced offline on the same frames, whatever the batching,
//!   stream interleaving, deadline or worker count (property-tested in
//!   `tests/prop_service_identity.rs`).
//! * [`DecodeService::metrics`] exposes live counters: queue depth,
//!   shots/s, flush-cause split and a log-bucketed submit→correction
//!   latency histogram (p50/p99). They are a view over the `service.*`
//!   cells of the service's telemetry registry
//!   ([`DecodeService::telemetry_snapshot`]) — one store, written once.
//!   The same registry carries the workers' decoder counters
//!   (`decoder.{memo_hits,memo_misses,uncacheable}` per noisy shot,
//!   `decoder.{quiet,sparse,dense}_words` per 64-shot word): each worker
//!   sums its scratches' deltas locally and publishes them when it runs out
//!   of jobs, so the decode path makes no atomic write for them.
//!
//! The [`net`] module wires the service to a `std::net` TCP JSON-lines
//! front-end (the `artifacts serve` subcommand), and [`loadgen`] replays
//! sampled [`SyndromeChunk`](qccd_sim::SyndromeChunk)s against either the
//! in-process service or a remote endpoint at a target rate, verifying
//! bit-identity against the offline batch decode and reporting
//! p50/p99/throughput.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod loadgen;
pub mod metrics;
pub mod net;
mod program;
mod service;

pub use loadgen::{
    FrontierPoint, FrontierReport, LoadgenOptions, LoadgenReport, StageBreakdown, StageSummary,
};
pub use metrics::ServiceMetrics;
pub use net::{NetClient, NetServer};
pub use program::DecodeProgram;
// Re-exported so service hosts can configure and read telemetry without a
// direct qccd-telemetry dependency.
pub use qccd_telemetry::{Registry as TelemetryRegistry, RegistrySnapshot, TelemetryConfig};
pub use service::{
    Correction, CorrectionReceiver, DecodeService, ServiceConfig, StreamHandle, StreamReceiver,
    StreamSender, WordBlock,
};

/// Errors surfaced by the decode service.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Compiling the requested `(architecture, distance)` failed.
    Compile(String),
    /// The circuit's detector/observable annotations are inconsistent.
    InvalidCircuit(String),
    /// The decoding problem predicts more than 64 observables (corrections
    /// are delivered as a `u64` flip bitmask).
    TooManyObservables(usize),
    /// A submitted frame fired a detector index outside the program.
    DetectorOutOfRange {
        /// The offending detector index.
        detector: usize,
        /// Number of detectors of the stream's program.
        num_detectors: usize,
    },
    /// A submitted shot-major word block is malformed (wrong plane count,
    /// shot count outside `1..=64`, or stray bits at or above the count).
    InvalidWordBlock(&'static str),
    /// A shot-major word block carries more shots than the stream's bounded
    /// queue can ever hold (blocks are never split, so it could not be
    /// submitted even against an empty queue).
    WordBlockTooLarge {
        /// Shots the block carries.
        count: usize,
        /// The configured per-stream queue bound.
        stream_queue_shots: usize,
    },
    /// The stream (or the whole service) has been closed.
    StreamClosed,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Compile(e) => write!(f, "compile failed: {e}"),
            ServiceError::InvalidCircuit(e) => write!(f, "invalid circuit annotations: {e}"),
            ServiceError::TooManyObservables(n) => {
                write!(f, "{n} observables exceed the 64-bit correction mask")
            }
            ServiceError::DetectorOutOfRange {
                detector,
                num_detectors,
            } => write!(
                f,
                "detector {detector} out of range (program has {num_detectors})"
            ),
            ServiceError::InvalidWordBlock(why) => write!(f, "invalid word block: {why}"),
            ServiceError::WordBlockTooLarge {
                count,
                stream_queue_shots,
            } => write!(
                f,
                "word block of {count} shots exceeds the stream queue bound of \
                 {stream_queue_shots}"
            ),
            ServiceError::StreamClosed => write!(f, "stream closed"),
        }
    }
}

impl std::error::Error for ServiceError {}
