//! The streaming decode service core: sessions, the per-program sharded
//! latency-deadline batcher, the worker pool (which also waits out the
//! batcher's deadlines) and ordered per-stream delivery.
//!
//! # Locking
//!
//! The hot path touches three lock tiers, always in this order:
//! per-stream delivery lock → per-program shard lock → job-queue lock.
//! The stream and shard registries are only locked on cold paths (open,
//! close, metrics, shutdown) — never nested inside a stream or shard lock.
//! A batch moves one way, from its submitter through the queue to the
//! worker that consumes it, so a worker takes a shard lock only to serve a
//! deadline; decoding and routing a job lock no shard. No condvar is
//! notified while a shard lock is held: a submitter, a closer, the shutdown
//! sweep or a worker re-arming a deadline wakes idle workers once it has
//! released its shard lock, so a woken worker never blocks on the lock its
//! waker still holds. Every scheduling decision taken under these locks
//! is [`scheduler`]'s.

mod scheduler;

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qccd_core::ArchitectureConfig;
use qccd_decoder::{CacheStats, DecodeScratch, DecoderKind, MemoConfig};
use qccd_sim::SyndromeChunkBuilder;
use qccd_telemetry::{Registry, RegistrySnapshot};

use crate::metrics::{FlushStat, MetricsInner, ServiceMetrics};
use crate::{DecodeProgram, ServiceError};
use scheduler::{
    close_flushes, flush_point, Action, Batch, Deadline, FlushPoint, Job, Scheduler, ALL,
    MAX_JOB_SHOTS,
};

/// Tuning knobs of the decode service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceConfig {
    /// Decode worker threads.
    pub workers: usize,
    /// Latency deadline of the batcher: a pending partial word is flushed
    /// once its *oldest* frame has waited this long. `Duration::ZERO`
    /// flushes on every submission (minimum latency, minimum batching).
    pub flush_deadline: Duration,
    /// Per-stream bound on frames in flight (submitted, correction not yet
    /// produced). Submission blocks beyond it.
    pub stream_queue_shots: usize,
    /// Memo configuration (defect/entry caps) every worker scratch decodes
    /// under, whatever program a stream was opened over. The memo never
    /// changes a decoded bit.
    pub memo: MemoConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            flush_deadline: Duration::from_micros(500),
            stream_queue_shots: 4096,
            memo: MemoConfig::default(),
        }
    }
}

impl ServiceConfig {
    /// Overrides the worker count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Overrides the flush deadline.
    pub fn with_flush_deadline(mut self, deadline: Duration) -> Self {
        self.flush_deadline = deadline;
        self
    }

    /// Overrides the per-stream in-flight bound.
    pub fn with_stream_queue_shots(mut self, shots: usize) -> Self {
        self.stream_queue_shots = shots.max(1);
        self
    }
}

/// One ordered correction delivered back on a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Correction {
    /// Submission sequence number this correction answers (per stream,
    /// starting at 0; delivery is in `seq` order).
    pub seq: u64,
    /// Observable-flip bitmask: bit `o` set means the decoder predicts
    /// logical observable `o` flipped.
    pub flips: u64,
}

/// A **shot-major** group of up to 64 frames in the pre-transposed wire
/// layout: one `u64` per detector, bit `s` of word `d` = "shot `s` of the
/// block fired detector `d`" — exactly what
/// [`qccd_sim::SyndromeChunk::word_block_into`] extracts and
/// [`qccd_sim::SyndromeChunkBuilder::push_word_block`] ingests. Submitting
/// blocks ([`StreamSender::submit_word_batch`]) deletes the per-frame
/// transpose from the service hot path: the batcher folds each plane in
/// with a shift-OR instead of scattering bits frame by frame.
#[derive(Debug, Clone, Copy)]
pub struct WordBlock<'a> {
    /// `num_detectors` plane words (bit `s` of word `d` = shot `s` fired
    /// detector `d`).
    pub planes: &'a [u64],
    /// Shots carried by the block (`1..=64`); bits at or above `count`
    /// must be clear in every plane word.
    pub count: usize,
}

/// A contiguous segment of frames of one stream inside a batch: `count`
/// frames with consecutive sequence numbers from `first_seq`, sharing one
/// submit timestamp (batched submissions arrive as whole segments, so
/// bookkeeping is per segment, not per frame).
#[derive(Debug, Clone)]
struct FrameRun {
    stream: Arc<StreamCore>,
    first_seq: u64,
    count: u32,
    submitted: Instant,
}

/// One burst of frames in either vocabulary: fired-detector index lists or
/// shot-major word blocks.
#[derive(Debug, Clone, Copy)]
enum FrameBatch<'a> {
    Indices(&'a [&'a [usize]]),
    Blocks(&'a [WordBlock<'a>]),
}

impl<'a> FrameBatch<'a> {
    /// Total shots carried by the burst.
    fn shots(&self) -> usize {
        match self {
            FrameBatch::Indices(frames) => frames.len(),
            FrameBatch::Blocks(blocks) => blocks.iter().map(|b| b.count).sum(),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            FrameBatch::Indices(frames) => frames.is_empty(),
            FrameBatch::Blocks(blocks) => blocks.is_empty(),
        }
    }

    /// Splits after the first `units` frames or blocks (all, if fewer).
    fn split_at(self, units: usize) -> (FrameBatch<'a>, FrameBatch<'a>) {
        match self {
            FrameBatch::Indices(frames) => {
                let (a, b) = frames.split_at(units.min(frames.len()));
                (FrameBatch::Indices(a), FrameBatch::Indices(b))
            }
            FrameBatch::Blocks(blocks) => {
                let (a, b) = blocks.split_at(units.min(blocks.len()));
                (FrameBatch::Blocks(a), FrameBatch::Blocks(b))
            }
        }
    }

    /// Splits off the next segment of a submit call onto `pending` frames:
    /// index frames up to the next word boundary, or one word block.
    fn split_segment(self, pending: usize) -> (FrameBatch<'a>, FrameBatch<'a>) {
        match self {
            FrameBatch::Indices(_) => self.split_at(64 - pending % 64),
            FrameBatch::Blocks(_) => self.split_at(1),
        }
    }

    /// Shots from a word boundary to the burst's first flush point (a
    /// partial block may carry it past a whole word); `None` without one.
    fn next_flush_point(self) -> Option<usize> {
        let mut shots = 0;
        match self {
            FrameBatch::Indices(frames) => (frames.len() >= 64).then_some(64),
            FrameBatch::Blocks(blocks) => blocks.iter().find_map(|block| {
                shots += block.count;
                (shots >= 64).then_some(shots)
            }),
        }
    }

    fn push_into(self, builder: &mut SyndromeChunkBuilder) {
        match self {
            FrameBatch::Indices(frames) => frames.iter().for_each(|f| builder.push_frame(f)),
            FrameBatch::Blocks(blocks) => {
                for block in blocks {
                    builder.push_word_block(block.planes, block.count);
                }
            }
        }
    }

    /// Splits off the largest prefix fitting `room` queue slots (blocks are
    /// never split); returns `(taken, rest, shots_taken)`.
    fn take_for_room(self, room: usize) -> (FrameBatch<'a>, FrameBatch<'a>, usize) {
        let (taken, rest) = match self {
            FrameBatch::Indices(_) => self.split_at(room),
            FrameBatch::Blocks(blocks) => {
                let mut shots = 0;
                let fit = blocks.iter().take_while(|b| {
                    shots += b.count;
                    shots <= room
                });
                self.split_at(fit.count())
            }
        };
        (taken, rest, taken.shots())
    }

    /// Rejects malformed frames or blocks before anything is enqueued.
    fn validate(&self, num_detectors: usize, queue_shots: usize) -> Result<(), ServiceError> {
        match self {
            FrameBatch::Indices(frames) => {
                for fired in *frames {
                    if let Some(&bad) = fired.iter().find(|&&d| d >= num_detectors) {
                        return Err(ServiceError::DetectorOutOfRange {
                            detector: bad,
                            num_detectors,
                        });
                    }
                }
            }
            FrameBatch::Blocks(blocks) => {
                let invalid = |why| Err(ServiceError::InvalidWordBlock(why));
                for block in *blocks {
                    if block.planes.len() != num_detectors {
                        return invalid("a word block must carry one plane word per detector");
                    }
                    if !(1..=64).contains(&block.count) {
                        return invalid("a word block carries 1..=64 shots");
                    }
                    // A full block has no bit to stray into; any other takes
                    // one OR-fold (it vectorizes), not a short-circuit scan.
                    let fired = || block.planes.iter().fold(0, |acc, &w| acc | w);
                    if block.count < 64 && fired() >> block.count != 0 {
                        return invalid("a word block must clear bits at or above its shot count");
                    }
                    if block.count > queue_shots {
                        return Err(ServiceError::WordBlockTooLarge {
                            count: block.count,
                            stream_queue_shots: queue_shots,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

/// One batch: the chunk builder (the bit planes frames are written into)
/// and the routing list. The submitter creates it, the queue holds it (or
/// its program's untaken last job absorbs it and the emptied batch is
/// dropped) and a worker consumes it; it never returns to its shard.
#[derive(Debug)]
struct BatchParts {
    builder: SyndromeChunkBuilder,
    runs: Vec<FrameRun>,
}

impl Batch for BatchParts {
    fn frames(&self) -> usize {
        self.builder.pending_frames()
    }

    fn absorb(&mut self, mut other: Self) {
        self.builder.append(&mut other.builder);
        for r in other.runs {
            push_run(&mut self.runs, &r.stream, r.first_seq, r.count, r.submitted);
        }
    }
}

/// A flushed decode job: the frames of any number of streams, already in
/// the bit planes the decoder reads (submission wrote them there), plus the
/// routing information to hand each lane's correction back. The worker's
/// `builder.finish` only hands the planes over, outside every service lock.
type DecodeJob = Job<Arc<ProgramShard>, BatchParts>;

/// A contiguous run of corrections of one stream (`seq` =
/// `first_seq + index`). Corrections travel the delivery channel — and the
/// wire — in runs, one send or run frame per run instead of one per frame,
/// and a [`RunCursor`] flattens them back into single [`Correction`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CorrectionRun {
    pub(crate) first_seq: u64,
    /// Never empty.
    pub(crate) flips: Vec<u64>,
}

impl CorrectionRun {
    pub(crate) fn len(&self) -> u64 {
        self.flips.len() as u64
    }
}

/// Min-heap ordering by `first_seq` for the per-stream reorder buffer.
impl Ord for CorrectionRun {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.first_seq.cmp(&other.first_seq)
    }
}

impl PartialOrd for CorrectionRun {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Delivery bookkeeping of one stream, guarded by the stream's own lock.
#[derive(Debug)]
struct StreamDelivery {
    next_submit_seq: u64,
    inflight: usize,
    /// Submitters waiting on [`StreamCore::space`]; delivery notifies only then.
    parked: usize,
    /// Out-of-order completed runs awaiting delivery. Runs are
    /// non-overlapping and gapless per stream (sequence numbers are
    /// assigned in submission order), so ordering by `first_seq` is enough.
    reorder: BinaryHeap<Reverse<CorrectionRun>>,
    next_deliver: u64,
    /// `None` once the stream finished (closed with nothing in flight):
    /// dropping the sender is how the receiver observes end-of-stream.
    tx: Option<mpsc::Sender<CorrectionRun>>,
}

/// The shared per-stream state: routing touches only the streams of its
/// job, never a global map.
#[derive(Debug)]
struct StreamCore {
    id: u64,
    /// Set by [`StreamSender::close`] (and shutdown). Read lock-free under
    /// shard locks, so close never needs a stream lock nested inside one.
    closed: AtomicBool,
    delivery: Mutex<StreamDelivery>,
    /// Submitters wait here for backpressure headroom on *this* stream.
    space: Condvar,
}

impl StreamCore {
    fn new(id: u64, tx: mpsc::Sender<CorrectionRun>) -> Arc<Self> {
        Arc::new(StreamCore {
            id,
            closed: AtomicBool::new(false),
            delivery: Mutex::new(StreamDelivery {
                next_submit_seq: 0,
                inflight: 0,
                parked: 0,
                reorder: BinaryHeap::new(),
                next_deliver: 0,
                tx: Some(tx),
            }),
            space: Condvar::new(),
        })
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// The batcher shard of one program: its program, and its own pending batch
/// and deadline arming under its own mutex. Submissions to different
/// programs never contend. Shards compare by identity.
#[derive(Debug)]
struct ProgramShard {
    program: Arc<DecodeProgram>,
    state: Mutex<ShardState>,
}

impl PartialEq for ProgramShard {
    fn eq(&self, other: &Self) -> bool {
        std::ptr::eq(self, other)
    }
}

impl ProgramShard {
    fn new(program: &Arc<DecodeProgram>) -> Arc<Self> {
        Arc::new(ProgramShard {
            program: Arc::clone(program),
            state: Mutex::default(),
        })
    }
}

#[derive(Debug, Default)]
struct ShardState {
    /// The pending partial batch; its first run holds its oldest frame.
    pending: Option<BatchParts>,
    /// Whether the shard has an entry on the job queue's armed list. Only
    /// read or written under the shard lock.
    armed: bool,
}

/// The scheduler, and the condvar idle workers wait on.
#[derive(Debug, Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

type QueueState = Scheduler<Arc<ProgramShard>, BatchParts, Instant>;

struct Shared {
    /// Program registry: one shard, holding its program, per program key
    /// (cold path: stream opens, shutdown).
    shards: Mutex<HashMap<String, Arc<ProgramShard>>>,
    /// Stream registry (cold path: open, close, metrics, shutdown).
    streams: Mutex<HashMap<u64, Arc<StreamCore>>>,
    queue: JobQueue,
    next_stream: AtomicU64,
    shutdown: AtomicBool,
    metrics: MetricsInner,
    /// The telemetry registry every service cell lives in.
    telemetry: Registry,
    config: ServiceConfig,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("config", &self.config)
            .finish()
    }
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Queues a shard's pending batch ([`Scheduler::enqueue`]), booking its
    /// words less the `booked` ones the submit call's earlier flush points
    /// booked. Caller holds the shard lock, and passes the return to
    /// [`Shared::wake`] once it has released it.
    fn flush_shard(
        &self,
        shard: &Arc<ProgramShard>,
        state: &mut ShardState,
        cause: FlushStat,
        booked: usize,
    ) -> usize {
        let Some(batch) = state
            .pending
            .take()
            .filter(|batch| !batch.builder.is_empty())
        else {
            return 0;
        };
        let words = batch.builder.pending_frames().div_ceil(64) - booked;
        self.metrics.note_flush(words as u64, cause);
        // Each run's submit→flush wait, from its own submit instant.
        let now = Instant::now();
        for run in &batch.runs {
            self.metrics.batcher_wait.record_duration(
                now.saturating_duration_since(run.submitted),
                u64::from(run.count),
            );
        }
        lock(&self.queue.state).enqueue(shard, batch)
    }

    /// When a pending batch's deadline flush falls due: never (`None`) when
    /// that instant is past the last one [`Instant`] holds.
    fn due(&self, batch: &BatchParts) -> Option<Instant> {
        (batch.runs.first()?.submitted).checked_add(self.config.flush_deadline)
    }

    /// Wakes `wakes` idle workers, counted under the queue lock when the
    /// caller queued its job or armed its shard; called with no shard lock
    /// held. A worker counts itself idle only under the queue lock, so it
    /// either saw the caller's job or armed entry, or was counted.
    fn wake(&self, wakes: usize) {
        match wakes {
            ALL => self.queue.ready.notify_all(),
            _ => (0..wakes).for_each(|_| self.queue.ready.notify_one()),
        }
    }

    /// Serves an armed shard whose entry fell due ([`Deadline::at`]). A
    /// flush wakes nobody: the serving worker takes the job next.
    fn serve_deadline(&self, shard: &Arc<ProgramShard>) {
        let mut state = lock(&shard.state);
        let due = state.pending.as_ref().and_then(|batch| self.due(batch));
        match Deadline::at(due, Instant::now()) {
            Deadline::Flush => {
                self.flush_shard(shard, &mut state, FlushStat::Deadline, 0);
                state.armed = false;
            }
            Deadline::Rearm(due) => {
                let wakes = lock(&self.queue.state).arm(due, shard);
                drop(state);
                self.wake(wakes);
            }
            Deadline::Disarm => state.armed = false,
        }
    }
}

/// Locks one of the service's mutexes.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().expect("a service lock is poisoned")
}

/// Records a frame run, merging into the tail run when it extends the same
/// stream contiguously (the common case under bursts).
fn push_run(
    runs: &mut Vec<FrameRun>,
    stream: &Arc<StreamCore>,
    first_seq: u64,
    count: u32,
    submitted: Instant,
) {
    if let Some(last) = runs.last_mut() {
        if Arc::ptr_eq(&last.stream, stream) && last.first_seq + u64::from(last.count) == first_seq
        {
            last.count += count;
            return;
        }
    }
    runs.push(FrameRun {
        stream: Arc::clone(stream),
        first_seq,
        count,
        submitted,
    });
}

/// Routes one decoded job's corrections back to their streams (in-order per
/// stream via each stream's reorder heap) and releases backpressure.
/// Channel sends happen under the owning stream's lock only — never a
/// shared one — so two workers finishing runs of one stream cannot
/// interleave deliveries out of heap order.
fn route_corrections(shared: &Shared, runs: &[FrameRun], flips_per_lane: &[u64]) {
    let span = shared.metrics.delivery.start();
    let now = Instant::now();
    let mut offset = 0usize;
    let mut finished: Vec<u64> = Vec::new();
    for run in runs {
        let count = run.count as usize;
        let flips = flips_per_lane[offset..offset + count].to_vec();
        offset += count;
        shared
            .metrics
            .note_completed_many(now.saturating_duration_since(run.submitted), count as u64);
        let stream = &run.stream;
        let mut delivery = lock(&stream.delivery);
        delivery.inflight -= count;
        delivery.reorder.push(Reverse(CorrectionRun {
            first_seq: run.first_seq,
            flips,
        }));
        while let Some(Reverse(ready)) = delivery.reorder.peek() {
            if ready.first_seq != delivery.next_deliver {
                break;
            }
            let Some(Reverse(ready)) = delivery.reorder.pop() else {
                unreachable!("peeked entry exists");
            };
            delivery.next_deliver += ready.len();
            // A dropped receiver just discards the corrections.
            if let Some(tx) = &delivery.tx {
                let _ = tx.send(ready);
            }
        }
        let stream_finished = stream.is_closed() && delivery.inflight == 0;
        if stream_finished {
            delivery.tx = None;
        }
        // A submitter not counted here has yet to see the room under this lock.
        let parked = delivery.parked > 0;
        drop(delivery);
        if parked {
            stream.space.notify_all();
        }
        if stream_finished {
            finished.push(stream.id);
        }
    }
    span.finish(flips_per_lane.len() as u64);
    if !finished.is_empty() {
        let mut streams = lock(&shared.streams);
        for id in finished {
            streams.remove(&id);
        }
    }
}

/// Does what [`Scheduler::next`] says until it says exit: the loop of
/// every worker, and of the shutdown drain once the workers are gone.
fn worker_loop(shared: Arc<Shared>) {
    // One scratch per (worker, program): the memo stays owned by the right
    // decoder across interleaved jobs of different programs.
    let mut scratches: HashMap<u64, DecodeScratch> = HashMap::new();
    let mut flips: Vec<u64> = Vec::new();
    // Decoder counters since the last publish: published only when the
    // worker runs out of jobs, never per job.
    let mut decoded = CacheStats::default();
    let mut queue = lock(&shared.queue.state);
    loop {
        match queue.next(Instant::now(), shared.is_shutdown()) {
            Action::Serve(shard) => {
                drop(queue);
                shared.serve_deadline(&shard);
            }
            Action::Take(DecodeJob { shard, mut parts }) => {
                drop(queue);
                // Take the chunk and decode it, outside every service lock.
                // The stage span times around the decode; it never touches
                // the data, so corrections stay bit-identical.
                let program = &shard.program;
                let span = shared.metrics.decode.start();
                let chunk = parts.builder.finish(0, 0);
                let scratch = scratches
                    .entry(program.id())
                    .or_insert_with(|| DecodeScratch::with_memo_config(shared.config.memo));
                let before = scratch.cache_stats();
                let prediction = program.decoder().decode_batch(&chunk, scratch);
                span.finish(chunk.num_shots() as u64);
                decoded.merge(&scratch.cache_stats().since(&before));
                flips.clear();
                flips.resize(chunk.num_shots(), 0);
                for observable in 0..prediction.num_observables() {
                    for (word, &plane) in prediction.plane(observable).iter().enumerate() {
                        // The final word of a plane carries no bits beyond
                        // the shot count, so every shot is in range.
                        let mut bits = plane;
                        while bits != 0 {
                            flips[word * 64 + bits.trailing_zeros() as usize] |= 1 << observable;
                            bits &= bits - 1;
                        }
                    }
                }
                route_corrections(&shared, &parts.runs, &flips);
            }
            Action::Exit => break,
            Action::Wait(until) => {
                shared.metrics.publish_decoded(&mut decoded);
                let ready = &shared.queue.ready;
                queue = match until {
                    Some(due) => {
                        let wait = due.saturating_duration_since(Instant::now());
                        ready.wait_timeout(queue, wait).expect("job queue lock").0
                    }
                    None => ready.wait(queue).expect("job queue lock"),
                };
                queue.woken();
                continue;
            }
        }
        queue = lock(&shared.queue.state);
    }
    drop(queue);
    shared.metrics.publish_decoded(&mut decoded);
}

/// The real-time decode service (see the [crate docs](crate) for the
/// architecture). Create with [`DecodeService::new`], open streams, submit
/// frames, receive ordered corrections; [`DecodeService::shutdown`] (or
/// drop) drains the queue and joins the workers.
#[derive(Debug)]
pub struct DecodeService {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl DecodeService {
    /// Starts a service with `config.workers` decode workers and no other
    /// thread: an idle worker waits out the batcher's latency deadline. A
    /// zero `workers` or `stream_queue_shots` is raised to 1, as the
    /// `with_*` builders do; [`DecodeService::config`] returns the adjusted
    /// values.
    pub fn new(mut config: ServiceConfig) -> Self {
        config.workers = config.workers.max(1);
        config.stream_queue_shots = config.stream_queue_shots.max(1);
        let telemetry = Registry::new();
        let shared = Arc::new(Shared {
            shards: Mutex::new(HashMap::new()),
            streams: Mutex::new(HashMap::new()),
            queue: JobQueue::default(),
            next_stream: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            metrics: MetricsInner::new(&telemetry),
            telemetry,
            config,
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("qccd-decode-{i}"))
                    .spawn(move || worker_loop(shared))
                    .expect("spawn decode worker")
            })
            .collect();
        DecodeService {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> ServiceConfig {
        self.shared.config
    }

    /// Opens a stream decoding the paper's memory workload for
    /// `(arch, distance)` with `decoder`. Streams of the same configuration
    /// share one [`DecodeProgram`] (one compile, one decoder) and coalesce
    /// into the same 64-shot words.
    ///
    /// # Errors
    ///
    /// Propagates [`DecodeProgram::compile`] errors; [`ServiceError::StreamClosed`]
    /// after shutdown.
    pub fn open_stream(
        &self,
        arch: &ArchitectureConfig,
        distance: usize,
        decoder: DecoderKind,
    ) -> Result<StreamHandle, ServiceError> {
        let key = DecodeProgram::config_key(arch, distance, decoder);
        self.open_stream_with(&key, || {
            DecodeProgram::compile(arch, distance, decoder).map(Arc::new)
        })
    }

    /// Opens a stream over a caller-built [`DecodeProgram`] (registered
    /// under the program's own key; streams sharing the key share the
    /// registered program) — the entry point for arbitrary circuits via
    /// [`DecodeProgram::from_circuit`]. Lets replay tools reuse one program
    /// for both the service streams and their offline verification
    /// reference.
    ///
    /// # Errors
    ///
    /// [`ServiceError::StreamClosed`] after shutdown.
    pub fn open_stream_program(
        &self,
        program: &Arc<DecodeProgram>,
    ) -> Result<StreamHandle, ServiceError> {
        let key = program.key().to_string();
        self.open_stream_with(&key, || Ok(Arc::clone(program)))
    }

    fn open_stream_with(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<Arc<DecodeProgram>, ServiceError>,
    ) -> Result<StreamHandle, ServiceError> {
        let shared = &self.shared;
        if shared.is_shutdown() {
            return Err(ServiceError::StreamClosed);
        }
        let existing = lock(&shared.shards).get(key).cloned();
        // Build (compile + graph) outside every lock; a racing open of the
        // same key keeps the first-registered program.
        let shard = match existing {
            Some(shard) => shard,
            None => {
                let program = build()?;
                lock(&shared.shards)
                    .entry(key.to_string())
                    .or_insert_with(|| ProgramShard::new(&program))
                    .clone()
            }
        };
        let (tx, rx) = mpsc::channel();
        let id = shared.next_stream.fetch_add(1, Ordering::Relaxed);
        let core = StreamCore::new(id, tx);
        lock(&shared.streams).insert(id, Arc::clone(&core));
        if shared.is_shutdown() {
            // Raced a shutdown that may already have drained the registry.
            lock(&shared.streams).remove(&id);
            return Err(ServiceError::StreamClosed);
        }
        Ok(StreamHandle {
            sender: StreamSender {
                shared: Arc::clone(shared),
                core,
                shard,
            },
            receiver: StreamReceiver {
                id,
                rx,
                cursor: RunCursor::default(),
            },
        })
    }

    /// The service's telemetry registry: per-stage spans
    /// (`service.stage.batcher_wait` / `decode` / `delivery`), the
    /// `service.*` cells [`ServiceMetrics`] is read from, the workers'
    /// `decoder.*` counters, and anything a host registers alongside.
    /// Cloning is cheap; clones observe the same metrics.
    pub fn telemetry(&self) -> Registry {
        self.shared.telemetry.clone()
    }

    /// A deterministic point-in-time snapshot of the telemetry registry
    /// (the `telemetry` object of the `metrics` response).
    pub fn telemetry_snapshot(&self) -> RegistrySnapshot {
        self.shared.telemetry.snapshot()
    }

    /// A live snapshot of the service metrics.
    pub fn metrics(&self) -> ServiceMetrics {
        let streams_open = lock(&self.shared.streams).len();
        self.shared.metrics.snapshot(streams_open)
    }

    /// Flushes every shard's pending batch (shutdown sweep), then wakes
    /// workers for the queued jobs.
    fn flush_all_shards(&self) {
        let shards: Vec<Arc<ProgramShard>> = lock(&self.shared.shards).values().cloned().collect();
        let mut wakes = 0;
        for shard in shards {
            let mut state = lock(&shard.state);
            let flushed = self
                .shared
                .flush_shard(&shard, &mut state, FlushStat::Deadline, 0);
            wakes = wakes.max(flushed);
            state.armed = false;
        }
        self.shared.wake(wakes);
    }

    /// Drains every queued frame, stops the workers and closes every
    /// stream. Idempotent; also invoked on drop. Frames whose
    /// submission races the shutdown may be accepted yet never decoded —
    /// their receivers still observe end-of-stream rather than hanging.
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Queue every pending partial word while the workers still run.
        self.flush_all_shards();
        // Taking the queue lock orders the flag before every worker's next
        // look at the queue, so no worker starts waiting after this wake.
        drop(lock(&self.shared.queue.state));
        self.shared.queue.ready.notify_all();
        let workers = std::mem::take(&mut *lock(&self.workers));
        for worker in workers {
            worker.join().expect("decode worker panicked");
        }
        // Sweep again for pendings that raced the first sweep, then decode
        // any leftover jobs on this thread — the workers are gone.
        self.flush_all_shards();
        worker_loop(Arc::clone(&self.shared));
        // End every stream: drop the delivery senders so receivers observe
        // end-of-stream after draining, and wake blocked submitters.
        let streams: Vec<Arc<StreamCore>> = {
            let mut registry = lock(&self.shared.streams);
            registry.drain().map(|(_, stream)| stream).collect()
        };
        for stream in streams {
            stream.closed.store(true, Ordering::SeqCst);
            let mut delivery = lock(&stream.delivery);
            delivery.tx = None;
            drop(delivery);
            stream.space.notify_all();
        }
    }
}

impl Drop for DecodeService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Both halves of an open stream. [`StreamHandle::split`] separates the
/// (cloneable) submission side from the receiving side so they can live on
/// different threads.
#[derive(Debug)]
pub struct StreamHandle {
    /// The submission half.
    pub sender: StreamSender,
    /// The ordered-correction half.
    pub receiver: StreamReceiver,
}

impl StreamHandle {
    /// Splits the handle into its submission and receiving halves.
    pub fn split(self) -> (StreamSender, StreamReceiver) {
        (self.sender, self.receiver)
    }

    /// [`StreamSender::submit`] on the handle.
    ///
    /// # Errors
    ///
    /// See [`StreamSender::submit`].
    pub fn submit(&self, fired: &[usize]) -> Result<u64, ServiceError> {
        self.sender.submit(fired)
    }

    /// [`StreamReceiver::recv`] on the handle.
    #[inline]
    pub fn recv(&mut self) -> Option<Correction> {
        self.receiver.recv()
    }
}

/// The submission half of a stream (cloneable; all clones feed the same
/// sequence).
#[derive(Debug, Clone)]
pub struct StreamSender {
    shared: Arc<Shared>,
    core: Arc<StreamCore>,
    shard: Arc<ProgramShard>,
}

impl StreamSender {
    /// Number of detectors a frame of this stream must stay within.
    pub fn num_detectors(&self) -> usize {
        self.shard.program.num_detectors()
    }

    /// Number of observables each correction covers.
    pub fn num_observables(&self) -> usize {
        self.shard.program.num_observables()
    }

    /// The stream id (diagnostics).
    pub fn id(&self) -> u64 {
        self.core.id
    }

    /// Submits one frame (the fired-detector index list of one shot) and
    /// returns its sequence number. **Blocks** while the stream's bounded
    /// queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// [`ServiceError::DetectorOutOfRange`] for invalid frames,
    /// [`ServiceError::StreamClosed`] once the stream or service is closed.
    pub fn submit(&self, fired: &[usize]) -> Result<u64, ServiceError> {
        self.submit_batch_inner(FrameBatch::Indices(&[fired]))
            .map(|range| range.start)
    }

    /// Submits many frames in one call: one stream-lock acquisition, one
    /// timestamp and one bulk metrics update for the whole burst — the
    /// high-rate entry point (a per-frame [`StreamSender::submit`] loop
    /// pays the locks per frame and tops out an order of magnitude lower).
    /// Returns the sequence range assigned to the burst. **Blocks**
    /// whenever the bounded queue is full, submitting what fits first.
    ///
    /// # Errors
    ///
    /// As [`StreamSender::submit`]; on a bad frame nothing is submitted.
    pub fn submit_batch(&self, frames: &[&[usize]]) -> Result<std::ops::Range<u64>, ServiceError> {
        self.submit_batch_inner(FrameBatch::Indices(frames))
    }

    /// [`StreamSender::submit_batch`] for **shot-major** [`WordBlock`]s:
    /// pre-transposed 64-shot words the batcher ingests with a shift-OR per
    /// detector instead of a per-frame bit scatter — the fastest path
    /// through the service. Blocks are never split, so each block's shot
    /// count must fit the stream's bounded queue.
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidWordBlock`] for malformed blocks,
    /// [`ServiceError::WordBlockTooLarge`] when a block cannot ever fit the
    /// queue, otherwise as [`StreamSender::submit_batch`]; nothing is
    /// submitted on a bad burst.
    pub fn submit_word_batch(
        &self,
        blocks: &[WordBlock<'_>],
    ) -> Result<std::ops::Range<u64>, ServiceError> {
        self.submit_batch_inner(FrameBatch::Blocks(blocks))
    }

    fn submit_batch_inner(
        &self,
        frames: FrameBatch<'_>,
    ) -> Result<std::ops::Range<u64>, ServiceError> {
        let shared = &self.shared;
        let queue_shots = shared.config.stream_queue_shots;
        frames.validate(self.num_detectors(), queue_shots)?;
        if frames.shots() == 0 {
            return Ok(0..0);
        }
        let mut remaining = frames;
        let mut first_seq = None;
        let mut next_seq = 0;
        while !remaining.is_empty() {
            // Reserve queue room and sequence numbers under the stream's
            // own lock (backpressure waits here, on this stream's condvar).
            let (burst, rest, take, seq) = {
                let mut delivery = lock(&self.core.delivery);
                let (burst, rest, take) = loop {
                    if self.core.is_closed() || shared.is_shutdown() {
                        return Err(ServiceError::StreamClosed);
                    }
                    let split = remaining.take_for_room(queue_shots - delivery.inflight);
                    if split.2 > 0 {
                        break split;
                    }
                    delivery.parked += 1;
                    delivery = (self.core.space.wait(delivery)).expect("stream delivery lock");
                    delivery.parked -= 1;
                };
                let seq = delivery.next_submit_seq;
                delivery.next_submit_seq += take as u64;
                delivery.inflight += take;
                (burst, rest, take, seq)
            };
            remaining = rest;
            first_seq.get_or_insert(seq);
            next_seq = seq + take as u64;
            shared.metrics.note_submitted_many(take as u64);
            self.fill_shard(burst, seq);
        }
        let first = first_seq.expect("frames is non-empty when the loop ran");
        Ok(first..next_seq)
    }

    /// Appends a reserved burst to the shard's pending batch segment by
    /// segment, with [`flush_point`] at each, then [`Deadline::at`] on a
    /// shard it leaves unarmed; wakes workers once the shard lock drops.
    fn fill_shard(&self, burst: FrameBatch<'_>, mut seq: u64) {
        let (shared, shard) = (&self.shared, &self.shard);
        let now = Instant::now();
        let mut wakes = 0;
        let mut state = lock(&shard.state);
        let mut rest = burst;
        while !rest.is_empty() {
            let batch = self.ensure_pending(&mut state, rest);
            let before = batch.builder.pending_frames();
            let (segment, tail) = rest.split_segment(before);
            let shots = segment.shots();
            segment.push_into(&mut batch.builder);
            push_run(&mut batch.runs, &self.core, seq, shots as u32, now);
            seq += shots as u64;
            rest = tail;
            match flush_point(before, shots, || rest.next_flush_point()) {
                Some(FlushPoint::Keep) => {
                    shared.metrics.note_flush(1, FlushStat::FullWord);
                    wakes = 0;
                }
                Some(FlushPoint::Flush) => {
                    wakes = shared.flush_shard(shard, &mut state, FlushStat::FullWord, before / 64);
                }
                None => {}
            }
        }
        if !state.armed {
            let due = state.pending.as_ref().and_then(|batch| shared.due(batch));
            match Deadline::at(due, now) {
                Deadline::Flush => {
                    let flushed = shared.flush_shard(shard, &mut state, FlushStat::Deadline, 0);
                    wakes = wakes.max(flushed);
                }
                Deadline::Rearm(due) => {
                    state.armed = true;
                    wakes = lock(&shared.queue.state).arm(due, shard);
                }
                Deadline::Disarm => {}
            }
        }
        drop(state);
        shared.wake(wakes);
    }

    /// The shard's pending batch, created when absent with planes for the
    /// `rest` of the call, up to [`MAX_JOB_SHOTS`].
    fn ensure_pending<'s>(
        &self,
        state: &'s mut ShardState,
        rest: FrameBatch<'_>,
    ) -> &'s mut BatchParts {
        state.pending.get_or_insert_with(|| {
            let program = &self.shard.program;
            BatchParts {
                builder: SyndromeChunkBuilder::with_capacity(
                    program.num_detectors(),
                    program.num_observables(),
                    rest.shots().min(MAX_JOB_SHOTS),
                ),
                runs: Vec::new(),
            }
        })
    }

    /// Closes the stream: no further submissions are accepted, frames
    /// already submitted still decode, and the receiver drains the remaining
    /// corrections before observing end-of-stream. The shard's pending
    /// partial word is flushed (booked as a **close flush**) when this
    /// stream contributed to it and every contributor is closed. Idempotent.
    pub fn close(&self) {
        if self.core.closed.swap(true, Ordering::SeqCst) {
            return;
        }
        let finished = {
            let mut delivery = lock(&self.core.delivery);
            let finished = delivery.inflight == 0;
            if finished {
                delivery.tx = None;
            }
            finished
        };
        self.core.space.notify_all();
        let mut state = lock(&self.shard.state);
        let runs = state.pending.iter().flat_map(|batch| &batch.runs);
        let ours = |run: &FrameRun| (run.stream.id == self.core.id, run.stream.is_closed());
        let shared = &self.shared;
        let wakes = if close_flushes(runs.map(ours)) {
            shared.flush_shard(&self.shard, &mut state, FlushStat::Close, 0)
        } else {
            0
        };
        drop(state);
        shared.wake(wakes);
        if finished {
            lock(&shared.streams).remove(&self.core.id);
        }
    }
}

/// Flattens a stream's correction runs back into single [`Correction`]s:
/// the one routine behind both receivers, so their APIs stay
/// frame-granular while corrections travel as runs (one channel send per
/// decoded run, not per frame). It and every receive are `#[inline]`, so a
/// caller in another crate takes each correction of the current run without
/// a call, which on a quiet stream was a large share of a correction's cost.
#[derive(Debug, Default)]
struct RunCursor {
    /// The run currently being flattened and the next index within it.
    current: Option<(CorrectionRun, usize)>,
}

impl RunCursor {
    /// The next correction of the run being flattened, else the first of
    /// the run `next_run` yields.
    #[inline]
    fn next<E>(
        &mut self,
        next_run: impl FnOnce() -> Result<CorrectionRun, E>,
    ) -> Result<Correction, E> {
        let (run, index) = match &mut self.current {
            Some(current) => current,
            empty => empty.insert((next_run()?, 0)),
        };
        let correction = Correction {
            seq: run.first_seq + *index as u64,
            flips: run.flips[*index],
        };
        *index += 1;
        if *index == run.flips.len() {
            self.current = None;
        }
        Ok(correction)
    }
}

/// Ordered corrections of one stream behind `&self`, received the way
/// [`mpsc::Receiver`] receives — the TCP client's
/// [`NetStream`](crate::net::NetStream) hands one to each stream's
/// collector.
#[derive(Debug)]
pub struct CorrectionReceiver {
    rx: mpsc::Receiver<CorrectionRun>,
    cursor: RefCell<RunCursor>,
}

impl CorrectionReceiver {
    pub(crate) fn new(rx: mpsc::Receiver<CorrectionRun>) -> Self {
        CorrectionReceiver {
            rx,
            cursor: RefCell::default(),
        }
    }

    /// Blocks for the next in-order correction.
    ///
    /// # Errors
    ///
    /// [`mpsc::RecvError`] once the stream is closed and fully drained.
    #[inline]
    pub fn recv(&self) -> Result<Correction, mpsc::RecvError> {
        self.cursor.borrow_mut().next(|| self.rx.recv())
    }

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// [`mpsc::TryRecvError::Empty`] when nothing is ready,
    /// [`mpsc::TryRecvError::Disconnected`] at end-of-stream.
    #[inline]
    pub fn try_recv(&self) -> Result<Correction, mpsc::TryRecvError> {
        self.cursor.borrow_mut().next(|| self.rx.try_recv())
    }

    /// Receive with a timeout.
    ///
    /// # Errors
    ///
    /// [`mpsc::RecvTimeoutError::Timeout`] when nothing arrived in time,
    /// [`mpsc::RecvTimeoutError::Disconnected`] at end-of-stream.
    #[inline]
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Correction, mpsc::RecvTimeoutError> {
        self.cursor
            .borrow_mut()
            .next(|| self.rx.recv_timeout(timeout))
    }
}

/// The receiving half of a stream: corrections arrive in submission order.
#[derive(Debug)]
pub struct StreamReceiver {
    id: u64,
    rx: mpsc::Receiver<CorrectionRun>,
    cursor: RunCursor,
}

impl StreamReceiver {
    /// The stream id (diagnostics).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks for the next whole run, unflattened — for a consumer that
    /// forwards runs as they are (the TCP correction pump). Not to be mixed
    /// with the per-correction receives on one receiver. `None` once the
    /// stream is closed and fully drained.
    pub(crate) fn recv_run(&self) -> Option<CorrectionRun> {
        self.rx.recv().ok()
    }

    /// Non-blocking [`StreamReceiver::recv_run`].
    pub(crate) fn try_recv_run(&self) -> Option<CorrectionRun> {
        self.rx.try_recv().ok()
    }

    /// Blocks for the next in-order correction; `None` once the stream is
    /// closed and fully drained.
    #[inline]
    pub fn recv(&mut self) -> Option<Correction> {
        self.cursor.next(|| self.rx.recv()).ok()
    }

    /// Non-blocking receive.
    #[inline]
    pub fn try_recv(&mut self) -> Option<Correction> {
        self.cursor.next(|| self.rx.try_recv()).ok()
    }

    /// Receive with a timeout (`None` on timeout or end-of-stream).
    #[inline]
    pub fn recv_timeout(&mut self, timeout: Duration) -> Option<Correction> {
        self.cursor.next(|| self.rx.recv_timeout(timeout)).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};
    use qccd_sim::{NoiseChannel, NoisyCircuit};

    /// A one-qubit circuit whose single detector mirrors its single
    /// observable: the decoder's correction for frame `[0]` is flip, for
    /// `[]` no flip — easy to assert exactly.
    fn mirror_circuit() -> NoisyCircuit {
        let q = QubitId::new(0);
        let mut c = NoisyCircuit::new();
        c.push_gate(Instruction::Reset(q));
        c.push_noise(NoiseChannel::BitFlip { qubit: q, p: 0.25 });
        c.push_gate(Instruction::Measure(q));
        c.add_detector(Detector::new(vec![MeasurementRef::new(q, 0)]));
        c.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q, 0)]));
        c
    }

    /// Six independent qubits, one detector each, observable on qubit 0:
    /// frames can fire enough detectors to overflow the memo defect cap.
    fn six_detector_circuit() -> NoisyCircuit {
        let mut c = NoisyCircuit::new();
        for i in 0..6 {
            let q = QubitId::new(i);
            c.push_gate(Instruction::Reset(q));
            c.push_noise(NoiseChannel::BitFlip { qubit: q, p: 0.25 });
            c.push_gate(Instruction::Measure(q));
            c.add_detector(Detector::new(vec![MeasurementRef::new(q, 0)]));
        }
        c.add_observable(LogicalObservable::new(vec![MeasurementRef::new(
            QubitId::new(0),
            0,
        )]));
        c
    }

    /// Opens a stream over a union-find program of `circuit` under `key`.
    fn open(
        service: &DecodeService,
        key: &str,
        circuit: &NoisyCircuit,
    ) -> Result<StreamHandle, ServiceError> {
        let program = DecodeProgram::from_circuit(key, circuit.clone(), DecoderKind::UnionFind)?;
        service.open_stream_program(&Arc::new(program))
    }

    /// A batch of `count` frames of `stream` from `first_seq`, as the mirror
    /// program's shard flushes it: frame `seq` fires iff `seq % 3 == 0`.
    fn flushed(stream: &Arc<StreamCore>, first_seq: u64, count: usize) -> BatchParts {
        let mut builder = SyndromeChunkBuilder::new(1, 1);
        for seq in first_seq..first_seq + count as u64 {
            builder.push_frame(if seq % 3 == 0 { &[0] } else { &[] });
        }
        let mut runs = Vec::new();
        push_run(&mut runs, stream, first_seq, count as u32, Instant::now());
        BatchParts { builder, runs }
    }

    fn mirror_shard(key: &str) -> Arc<ProgramShard> {
        let program =
            DecodeProgram::from_circuit(key, mirror_circuit(), DecoderKind::UnionFind).unwrap();
        ProgramShard::new(&Arc::new(program))
    }

    /// `(stream, first_seq, count)` of each run of a job.
    fn runs_of(job: &DecodeJob) -> Vec<(u64, u64, u32)> {
        job.parts
            .runs
            .iter()
            .map(|run| (run.stream.id, run.first_seq, run.count))
            .collect()
    }

    #[test]
    fn a_whole_word_tail_of_the_same_shard_absorbs_the_flush() {
        let shard = mirror_shard("absorb");
        let (a, b) = (
            StreamCore::new(0, mpsc::channel().0),
            StreamCore::new(1, mpsc::channel().0),
        );
        let mut queue = QueueState::default();
        queue.enqueue(&shard, flushed(&a, 0, 64));
        assert_eq!(queue.jobs.len(), 1);
        // A's next word extends its run; B's partial word adds a run.
        queue.enqueue(&shard, flushed(&a, 64, 64));
        assert_eq!(queue.jobs.len(), 1, "absorbed");
        queue.enqueue(&shard, flushed(&b, 0, 10));
        assert_eq!(queue.jobs.len(), 1);
        let job = &mut queue.jobs[0];
        assert_eq!(runs_of(job), [(0, 0, 128), (1, 0, 10)]);
        assert_eq!(job.parts.builder.pending_frames(), 138);
        let chunk = job.parts.builder.finish(0, 0);
        let fired: Vec<bool> = (0..138).map(|s| chunk.detector_fired(s, 0)).collect();
        let expected: Vec<bool> = (0..128u64).chain(0..10).map(|seq| seq % 3 == 0).collect();
        assert_eq!(fired, expected);
    }

    #[test]
    fn a_partial_tail_another_shard_or_the_job_cap_start_a_new_job() {
        let (one, other) = (mirror_shard("one"), mirror_shard("other"));
        let a = StreamCore::new(0, mpsc::channel().0);
        // Nothing is appended behind a partial word.
        let mut queue = QueueState::default();
        queue.enqueue(&one, flushed(&a, 0, 10));
        queue.enqueue(&one, flushed(&a, 10, 64));
        assert_eq!(queue.jobs.len(), 2);
        // A job holds one program's frames.
        let mut queue = QueueState::default();
        queue.enqueue(&one, flushed(&a, 0, 64));
        queue.enqueue(&other, flushed(&a, 64, 64));
        assert_eq!(queue.jobs.len(), 2);
        // A job grows to exactly 64 words and no further.
        let mut queue = QueueState::default();
        queue.enqueue(&one, flushed(&a, 0, 63 * 64));
        queue.enqueue(&one, flushed(&a, 63 * 64, 64));
        assert_eq!(queue.jobs.len(), 1, "absorbed");
        queue.enqueue(&one, flushed(&a, 4096, 64));
        assert_eq!(queue.jobs.len(), 2);
        assert_eq!(runs_of(&queue.jobs[0]), [(0, 0, 4096)]);
        assert_eq!(runs_of(&queue.jobs[1]), [(0, 4096, 64)]);
    }

    #[test]
    fn a_256_word_burst_on_four_workers_delivers_every_correction() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(4)
                .with_stream_queue_shots(16384),
        );
        let mut handle = open(&service, "many-words", &mirror_circuit()).unwrap();
        let planes: Vec<[u64; 1]> = (0..256u64)
            .map(|word| [word.wrapping_mul(0x9e37_79b9_7f4a_7c15)])
            .collect();
        let blocks: Vec<WordBlock<'_>> = planes
            .iter()
            .map(|planes| WordBlock { planes, count: 64 })
            .collect();
        assert_eq!(handle.sender.submit_word_batch(&blocks).unwrap(), 0..16384);
        for (word, &[plane]) in planes.iter().enumerate() {
            for shot in 0..64 {
                let correction = handle
                    .receiver
                    .recv_timeout(Duration::from_secs(10))
                    .expect("every queued job is taken");
                let seq = (word * 64 + shot) as u64;
                assert_eq!(
                    correction,
                    Correction {
                        seq,
                        flips: plane >> shot & 1
                    }
                );
            }
        }
        let metrics = service.metrics();
        assert_eq!(metrics.full_word_flushes, 256);
        assert_eq!(metrics.words_flushed, 256);
        assert_eq!(metrics.queue_depth, 0);
        // No job grows past 64 words, pending or queued.
        let calls = service
            .telemetry_snapshot()
            .counter("service.stage.decode_calls");
        assert!(calls >= 4, "{calls} decode calls for 256 words");
        service.shutdown();
    }

    /// Receives corrections `range` of a mirror-circuit stream whose shot
    /// `seq` fired iff bit `seq % 64` of `plane(seq / 64)` is set.
    fn expect_mirrored(
        receiver: &mut StreamReceiver,
        range: std::ops::Range<u64>,
        plane: impl Fn(u64) -> u64,
    ) {
        for seq in range {
            let correction = receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("every correction arrives");
            let flips = plane(seq / 64) >> (seq % 64) & 1;
            assert_eq!(correction, Correction { seq, flips });
        }
    }

    #[test]
    fn a_word_burst_leaves_as_one_job() {
        let service = DecodeService::new(ServiceConfig::default().with_workers(1));
        let mut handle = open(&service, "one-job", &mirror_circuit()).unwrap();
        let plane = |word: u64| (word + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let planes: Vec<[u64; 1]> = (0..16).map(|word| [plane(word)]).collect();
        let blocks: Vec<WordBlock<'_>> = planes
            .iter()
            .map(|planes| WordBlock { planes, count: 64 })
            .collect();
        assert_eq!(handle.sender.submit_word_batch(&blocks).unwrap(), 0..1024);
        expect_mirrored(&mut handle.receiver, 0..1024, plane);
        let metrics = service.metrics();
        assert_eq!(metrics.full_word_flushes, 16);
        assert_eq!(metrics.words_flushed, 16);
        // One flush hands the queue one job with one run; the queue would
        // also have merged 16 flushes into one job, with a wait record each.
        let snapshot = service.telemetry_snapshot();
        assert_eq!(snapshot.counter("service.stage.decode_calls"), 1);
        assert_eq!(snapshot.counter("service.stage.batcher_wait_calls"), 1);
        service.shutdown();
    }

    /// One submit call on a mirror-circuit stream: index frames, or word
    /// blocks of these shot counts.
    #[derive(Debug)]
    enum Call<'a> {
        Indices(usize),
        Blocks(&'a [usize]),
    }

    /// 1 if shot `seq` of a [`submit_to_one_worker`] stream fires, else 0.
    fn fires(seq: u64) -> u64 {
        (seq + 5).wrapping_mul(0x94d0_49bb_1331_11eb) >> 63
    }

    /// One worker and a 50 ms deadline, so the calls of one test never
    /// straddle it, and a queued job is taken long before it.
    fn one_worker_service() -> DecodeService {
        DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_millis(50))
                .with_stream_queue_shots(16384),
        )
    }

    /// `calls` in order on one mirror-circuit stream of a
    /// [`one_worker_service`]: checks every correction and returns the
    /// metrics and the decode call count.
    fn submit_to_one_worker(calls: &[Call<'_>]) -> (ServiceMetrics, u64) {
        let service = one_worker_service();
        let mut handle = open(&service, "calls", &mirror_circuit()).unwrap();
        let mut seq = 0;
        for call in calls {
            let range = match *call {
                Call::Indices(count) => {
                    let frames: Vec<&[usize]> = (seq..seq + count as u64)
                        .map(|s| if fires(s) == 1 { &[0][..] } else { &[][..] })
                        .collect();
                    handle.sender.submit_batch(&frames).unwrap()
                }
                Call::Blocks(counts) => {
                    let mut start = seq;
                    let planes: Vec<[u64; 1]> = counts
                        .iter()
                        .map(|&count| {
                            let first = start;
                            start += count as u64;
                            [(first..start).fold(0, |plane, s| plane | fires(s) << (s - first))]
                        })
                        .collect();
                    let blocks: Vec<WordBlock<'_>> = planes
                        .iter()
                        .zip(counts)
                        .map(|(planes, &count)| WordBlock { planes, count })
                        .collect();
                    handle.sender.submit_word_batch(&blocks).unwrap()
                }
            };
            assert_eq!(range.start, seq);
            seq = range.end;
        }
        for seq in 0..seq {
            let correction = handle
                .receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("every correction arrives");
            assert_eq!(
                correction,
                Correction {
                    seq,
                    flips: fires(seq)
                }
            );
        }
        let metrics = service.metrics();
        let calls = service
            .telemetry_snapshot()
            .counter("service.stage.decode_calls");
        service.shutdown();
        (metrics, calls)
    }

    #[test]
    fn a_256_word_burst_leaves_as_four_full_jobs() {
        let (metrics, calls) = submit_to_one_worker(&[Call::Blocks(&[64; 256])]);
        assert_eq!(metrics.full_word_flushes, 256);
        assert_eq!(metrics.words_flushed, 256);
        assert_eq!(calls, 4, "four 64-word jobs");
    }

    #[test]
    fn a_partial_block_that_would_cross_the_job_cap_ships_the_job_first() {
        // 63 words, then 10 shots that take the next flush point to 74
        // shots on: 4 106 would pass the cap, so the 63 words leave alone.
        // The 74 shots are a flush of their own (not whole words: no job
        // absorbs a later flush), then 63 words again.
        let counts: Vec<usize> = [vec![64; 63], vec![10], vec![64; 64]].concat();
        let (metrics, calls) = submit_to_one_worker(&[Call::Blocks(&counts)]);
        assert_eq!(metrics.full_word_flushes, 127);
        assert_eq!(metrics.words_flushed, 128);
        assert_eq!(calls, 3);
    }

    /// The batcher's bookkeeping per call shape, pinned as
    /// `(full_word_flushes, deadline_flushes, words_flushed, decode calls)`.
    #[test]
    fn flush_counts_are_pinned_per_call_shape() {
        use Call::{Blocks, Indices};
        type Counts = (u64, u64, u64, u64);
        let cases: [(&[Call<'_>], Counts); 9] = [
            (&[Indices(1)], (0, 1, 1, 1)),
            (&[Indices(63)], (0, 1, 1, 1)),
            (&[Indices(64)], (1, 0, 1, 1)),
            (&[Indices(65)], (1, 1, 2, 2)),
            (&[Indices(200)], (3, 1, 4, 2)),
            (&[Blocks(&[40, 40])], (1, 0, 2, 1)),
            (&[Blocks(&[30, 64])], (1, 0, 2, 1)),
            // The leftover 10 frames and the first block are one flush
            // (74 shots: no job absorbs it), the other two blocks another.
            (&[Indices(10), Blocks(&[64; 3])], (3, 0, 4, 2)),
            (&[Blocks(&[64; 256])], (256, 0, 256, 4)),
        ];
        for (index, (calls, expected)) in cases.into_iter().enumerate() {
            let (metrics, decode_calls) = submit_to_one_worker(calls);
            let counts = (
                metrics.full_word_flushes,
                metrics.deadline_flushes,
                metrics.words_flushed,
                decode_calls,
            );
            assert_eq!(counts, expected, "case {index}");
        }
    }

    /// The close and shutdown flushes' bookkeeping on a
    /// [`one_worker_service`], pinned as `(full_word_flushes,
    /// deadline_flushes, close_flushes, words_flushed, decode calls)`.
    #[test]
    fn close_and_shutdown_flush_counts_are_pinned() {
        type Counts = (u64, u64, u64, u64, u64);
        let counts = |service: &DecodeService| -> Counts {
            let metrics = service.metrics();
            let calls = service
                .telemetry_snapshot()
                .counter("service.stage.decode_calls");
            (
                metrics.full_word_flushes,
                metrics.deadline_flushes,
                metrics.close_flushes,
                metrics.words_flushed,
                calls,
            )
        };
        let submit = |handle: &StreamHandle, count: u64| {
            let frames: Vec<&[usize]> = (0..count)
                .map(|s| if fires(s) == 1 { &[0][..] } else { &[][..] })
                .collect();
            assert_eq!(handle.sender.submit_batch(&frames).unwrap(), 0..count);
        };
        // The first `count` corrections of a stream.
        let receive = |handle: &mut StreamHandle, count: u64| {
            for seq in 0..count {
                let correction = handle.receiver.recv_timeout(Duration::from_secs(10));
                let flips = fires(seq);
                assert_eq!(correction, Some(Correction { seq, flips }));
            }
        };

        // (a) A partial word, then its only stream closes: a close flush.
        let service = one_worker_service();
        let mut a = open(&service, "calls", &mirror_circuit()).unwrap();
        submit(&a, 10);
        a.sender.close();
        receive(&mut a, 10);
        assert_eq!(a.recv(), None);
        assert_eq!(counts(&service), (0, 0, 1, 1, 1), "(a)");
        service.shutdown();

        // (b) A and B share a partial word and A closes: the word stays
        // pending for B and falls to the deadline.
        let service = one_worker_service();
        let mut a = open(&service, "calls", &mirror_circuit()).unwrap();
        let mut b = open(&service, "calls", &mirror_circuit()).unwrap();
        submit(&a, 10);
        submit(&b, 20);
        a.sender.close();
        receive(&mut a, 10);
        receive(&mut b, 20);
        assert_eq!(a.recv(), None);
        assert_eq!(counts(&service), (0, 1, 0, 1, 1), "(b)");
        service.shutdown();

        // (c) Partial words on two programs, then shutdown: every
        // correction arrives, then end-of-stream.
        let service = one_worker_service();
        let mut a = open(&service, "calls-a", &mirror_circuit()).unwrap();
        let mut b = open(&service, "calls-b", &mirror_circuit()).unwrap();
        submit(&a, 10);
        submit(&b, 20);
        service.shutdown();
        receive(&mut a, 10);
        receive(&mut b, 20);
        assert_eq!((a.recv(), b.recv()), (None, None));
        assert_eq!(counts(&service), (0, 2, 0, 2, 2), "(c)");

        // (d) 65 frames, then close once the full word is back: one
        // full-word flush, then a close flush (not absorbed by a queued job).
        let service = one_worker_service();
        let mut a = open(&service, "calls", &mirror_circuit()).unwrap();
        submit(&a, 65);
        receive(&mut a, 64);
        a.sender.close();
        let last = a.receiver.recv_timeout(Duration::from_secs(10));
        assert_eq!(
            last,
            Some(Correction {
                seq: 64,
                flips: fires(64)
            })
        );
        assert_eq!(a.recv(), None);
        assert_eq!(counts(&service), (1, 0, 1, 2, 2), "(d)");
        service.shutdown();
    }

    #[test]
    fn a_burst_past_its_last_flush_point_leaves_the_rest_for_the_deadline() {
        let deadline = Duration::from_millis(50);
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(deadline),
        );
        let mut handle = open(&service, "ten-words", &mirror_circuit()).unwrap();
        let plane = |word: u64| (word + 3).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let counts = [[64; 10].as_slice(), &[30]].concat();
        let planes: Vec<[u64; 1]> = (0..)
            .zip(&counts)
            .map(|(word, &count)| [plane(word) & u64::MAX >> (64 - count)])
            .collect();
        let blocks: Vec<WordBlock<'_>> = planes
            .iter()
            .zip(&counts)
            .map(|(planes, &count)| WordBlock { planes, count })
            .collect();
        let submitted = Instant::now();
        assert_eq!(handle.sender.submit_word_batch(&blocks).unwrap(), 0..670);
        // Ten flush points; the last ships all ten words.
        assert_eq!(service.metrics().full_word_flushes, 10);
        expect_mirrored(&mut handle.receiver, 0..670, plane);
        assert!(submitted.elapsed() >= deadline, "the last 30 shots wait");
        let metrics = service.metrics();
        assert_eq!(metrics.full_word_flushes, 10);
        assert_eq!(metrics.deadline_flushes, 1);
        assert_eq!(metrics.words_flushed, 11);
        service.shutdown();
    }

    #[test]
    fn an_index_burst_books_each_full_word() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_millis(5)),
        );
        let mut handle = open(&service, "indices", &mirror_circuit()).unwrap();
        let frames: Vec<&[usize]> = (0..200)
            .map(|seq| if seq % 3 == 0 { &[0][..] } else { &[][..] })
            .collect();
        assert_eq!(handle.sender.submit_batch(&frames).unwrap(), 0..200);
        assert_eq!(service.metrics().full_word_flushes, 3);
        for seq in 0..200u64 {
            let correction = handle
                .receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("every correction arrives");
            let flips = u64::from(seq % 3 == 0);
            assert_eq!(correction, Correction { seq, flips });
        }
        let metrics = service.metrics();
        assert_eq!(metrics.full_word_flushes, 3);
        assert_eq!(
            metrics.deadline_flushes, 1,
            "8 frames wait out the deadline"
        );
        assert_eq!(metrics.words_flushed, 4);
        let snapshot = service.telemetry_snapshot();
        assert_eq!(snapshot.counter("service.stage.batcher_wait_calls"), 2);
        service.shutdown();
    }

    #[test]
    fn decoder_counters_are_exact() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_millis(5)),
        );
        let handle = open(&service, "counted", &six_detector_circuit()).unwrap();
        // A quiet word, a sparse word, a word with above-cap lanes and a
        // partial sparse word.
        let quiet = vec![Vec::new(); 64];
        let sparse: Vec<Vec<usize>> = (0..64)
            .map(|i| if i % 2 == 0 { vec![i % 6] } else { vec![] })
            .collect();
        let dense: Vec<Vec<usize>> = (0..64)
            .map(|i| match i % 8 {
                0 => vec![0, 1, 2, 3, 4],
                1 => vec![5],
                _ => vec![],
            })
            .collect();
        let tail = vec![vec![3]; 10];
        let mut noisy = 0u64;
        for frames in [&quiet, &sparse, &dense, &tail] {
            noisy += frames.iter().filter(|f| !f.is_empty()).count() as u64;
            let refs: Vec<&[usize]> = frames.iter().map(Vec::as_slice).collect();
            handle.sender.submit_batch(&refs).unwrap();
        }
        service.shutdown();
        let snap = service.telemetry_snapshot();
        let words = snap.counter("decoder.quiet_words")
            + snap.counter("decoder.sparse_words")
            + snap.counter("decoder.dense_words");
        assert_eq!(words, snap.counter("service.words_flushed"));
        assert_eq!(words, 4);
        assert_eq!(snap.counter("decoder.quiet_words"), 1);
        assert_eq!(snap.counter("decoder.dense_words"), 1);
        assert_eq!(
            snap.counter("decoder.memo_hits")
                + snap.counter("decoder.memo_misses")
                + snap.counter("decoder.uncacheable"),
            noisy
        );
        assert_eq!(snap.counter("decoder.uncacheable"), 8);
    }

    /// The service's memo setting governs every worker scratch, whatever
    /// program a stream was opened over: with the memo disabled nothing is
    /// memoized (no hit, no miss), every noisy shot counts as uncacheable,
    /// the word triage is still counted, and the corrections are the
    /// offline decode's.
    #[test]
    fn workers_decode_under_the_service_memo() {
        let service = DecodeService::new(ServiceConfig {
            memo: MemoConfig::disabled(),
            ..ServiceConfig::default().with_workers(1)
        });
        let arch = ArchitectureConfig::recommended(5.0);
        let program = Arc::new(DecodeProgram::compile(&arch, 3, DecoderKind::UnionFind).unwrap());
        let mut handle = service.open_stream_program(&program).unwrap();
        let shots = 1000;
        let chunk = qccd_sim::sample_detector_chunks(program.circuit(), shots, 7, shots)
            .unwrap()
            .sample_chunk(0);
        let frames: Vec<Vec<usize>> = (0..shots)
            .map(|shot| {
                let mut fired = Vec::new();
                chunk.fired_detectors_into(shot, &mut fired);
                fired
            })
            .collect();
        let noisy = frames.iter().filter(|f| !f.is_empty()).count() as u64;
        assert!(noisy > 0, "the sample has noisy shots");
        let refs: Vec<&[usize]> = frames.iter().map(Vec::as_slice).collect();
        handle.sender.submit_batch(&refs).unwrap();
        service.shutdown();

        let snap = service.telemetry_snapshot();
        assert_eq!(snap.counter("decoder.memo_hits"), 0);
        assert_eq!(snap.counter("decoder.memo_misses"), 0);
        assert_eq!(snap.counter("decoder.uncacheable"), noisy);
        assert_eq!(snap.counter("decoder.sparse_words"), 0);
        assert_eq!(
            snap.counter("decoder.quiet_words")
                + snap.counter("decoder.sparse_words")
                + snap.counter("decoder.dense_words"),
            snap.counter("service.words_flushed")
        );
        let prediction = program.decode_batch(&chunk, &mut DecodeScratch::new());
        for shot in 0..shots {
            let correction = handle.recv().expect("every frame is corrected");
            assert_eq!(correction.seq, shot as u64);
            let flips = (0..prediction.num_observables())
                .filter(|&observable| prediction.predicted(shot, observable))
                .fold(0, |mask, observable| mask | 1 << observable);
            assert_eq!(correction.flips, flips, "shot {shot}");
        }
        assert!(handle.recv().is_none());
    }

    #[test]
    fn corrections_come_back_in_order_with_correct_flips() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(2)
                .with_flush_deadline(Duration::from_micros(50)),
        );
        let circuit = mirror_circuit();
        let mut handle = open(&service, "mirror", &circuit).unwrap();
        assert_eq!(handle.sender.num_detectors(), 1);
        assert_eq!(handle.sender.num_observables(), 1);
        let fired: Vec<bool> = (0..300).map(|i| i % 3 == 0).collect();
        for &f in &fired {
            handle
                .submit(if f { &[0][..] } else { &[][..] })
                .expect("submit");
        }
        for (i, &f) in fired.iter().enumerate() {
            let correction = handle.recv().expect("correction");
            assert_eq!(correction.seq, i as u64);
            assert_eq!(correction.flips, u64::from(f), "frame {i}");
        }
        handle.sender.close();
        assert!(handle.recv().is_none(), "closed stream drains to None");
        let metrics = service.metrics();
        assert_eq!(metrics.frames_submitted, 300);
        assert_eq!(metrics.frames_completed, 300);
        assert_eq!(metrics.queue_depth, 0);
        assert!(metrics.words_flushed >= 5);
        assert!(metrics.p50_latency_us > 0.0);
        service.shutdown();
    }

    #[test]
    fn streams_share_programs_and_words() {
        let service = DecodeService::new(
            ServiceConfig::default().with_flush_deadline(Duration::from_millis(5)),
        );
        let circuit = mirror_circuit();
        let mut a = open(&service, "shared", &circuit).unwrap();
        let mut b = open(&service, "shared", &circuit).unwrap();
        // 32 frames per stream coalesce into exactly one full 64-shot word.
        for i in 0..32 {
            a.submit(if i % 2 == 0 { &[0][..] } else { &[][..] })
                .unwrap();
            b.submit(&[0]).unwrap();
        }
        for i in 0..32u64 {
            assert_eq!(
                a.recv().unwrap(),
                Correction {
                    seq: i,
                    flips: (i % 2 == 0) as u64
                }
            );
            assert_eq!(b.recv().unwrap(), Correction { seq: i, flips: 1 });
        }
        let metrics = service.metrics();
        assert_eq!(metrics.words_flushed, 1, "cross-stream frames share a word");
        assert_eq!(metrics.full_word_flushes, 1);
        assert_eq!(metrics.deadline_flushes, 0);
        service.shutdown();
    }

    #[test]
    fn deadline_flushes_partial_words() {
        let service = DecodeService::new(
            ServiceConfig::default().with_flush_deadline(Duration::from_micros(100)),
        );
        let circuit = mirror_circuit();
        let mut handle = open(&service, "partial", &circuit).unwrap();
        handle.submit(&[0]).unwrap();
        // A lone frame cannot fill a word; only the deadline can flush it.
        let correction = handle
            .receiver
            .recv_timeout(Duration::from_secs(10))
            .expect("deadline flush must deliver the lone frame");
        assert_eq!(correction, Correction { seq: 0, flips: 1 });
        let metrics = service.metrics();
        assert_eq!(metrics.deadline_flushes, 1);
        assert_eq!(metrics.full_word_flushes, 0);
        assert_eq!(metrics.close_flushes, 0);
        service.shutdown();
    }

    #[test]
    fn a_deadline_past_the_last_instant_never_falls_due() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::MAX),
        );
        let mut handle = open(&service, "never-due", &mirror_circuit()).unwrap();
        assert_eq!(handle.submit(&[0]), Ok(0));
        assert_eq!(handle.submit(&[]), Ok(1));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(service.metrics().words_flushed, 0, "the partial word waits");
        // The close flushes it.
        handle.sender.close();
        assert_eq!(handle.recv(), Some(Correction { seq: 0, flips: 1 }));
        assert_eq!(handle.recv(), Some(Correction { seq: 1, flips: 0 }));
        assert!(handle.recv().is_none());
        let metrics = service.metrics();
        assert_eq!(metrics.close_flushes, 1);
        assert_eq!(metrics.deadline_flushes, 0);
        service.shutdown();
    }

    #[test]
    fn each_program_waits_out_its_own_deadline() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_millis(20)),
        );
        let mut a = open(&service, "deadline-a", &mirror_circuit()).unwrap();
        let mut b = open(&service, "deadline-b", &six_detector_circuit()).unwrap();
        a.submit(&[0]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        b.submit(&[0]).unwrap();
        let from_b = b.receiver.recv_timeout(Duration::from_secs(10));
        assert_eq!(from_b, Some(Correction { seq: 0, flips: 1 }));
        // One worker decodes in flush order: A's earlier deadline means its
        // correction was sent before B's.
        assert_eq!(
            a.receiver.try_recv(),
            Some(Correction { seq: 0, flips: 1 }),
            "A's partial word is due first"
        );
        let metrics = service.metrics();
        assert_eq!(metrics.deadline_flushes, 2);
        assert_eq!(metrics.full_word_flushes, 0);
        service.shutdown();
    }

    #[test]
    fn a_partial_word_behind_a_full_word_keeps_its_deadline() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_millis(20)),
        );
        let mut handle = open(&service, "stale-arm", &mirror_circuit()).unwrap();
        // The lone frame arms the shard; the full word then flushes it away
        // and leaves a newer partial word (seq 64) behind the same arming.
        handle.submit(&[0]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let frames = vec![&[0][..]; 64];
        assert_eq!(handle.sender.submit_batch(&frames).unwrap(), 1..65);
        for i in 0..65u64 {
            let correction = handle
                .receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("the leftover frame is flushed by its deadline");
            assert_eq!(correction, Correction { seq: i, flips: 1 });
        }
        let metrics = service.metrics();
        assert_eq!(metrics.full_word_flushes, 1);
        assert_eq!(metrics.deadline_flushes, 1);
        service.shutdown();
    }

    #[test]
    fn word_blocks_submit_and_decode_identically() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(2)
                .with_flush_deadline(Duration::from_millis(5)),
        );
        let circuit = mirror_circuit();
        let mut handle = open(&service, "blocks", &circuit).unwrap();
        // Shot-major: one plane word for the single detector, odd shots fire.
        let planes = [0xAAAA_AAAA_AAAA_AAAAu64];
        let range = handle
            .sender
            .submit_word_batch(&[WordBlock {
                planes: &planes,
                count: 64,
            }])
            .unwrap();
        assert_eq!(range, 0..64);
        for i in 0..64u64 {
            assert_eq!(
                handle.recv().unwrap(),
                Correction {
                    seq: i,
                    flips: (i % 2)
                }
            );
        }
        let metrics = service.metrics();
        assert_eq!(
            metrics.full_word_flushes, 1,
            "a 64-shot block is a full word"
        );
        assert_eq!(metrics.deadline_flushes, 0);
        service.shutdown();
    }

    #[test]
    fn word_blocks_interleave_with_frames_on_one_stream() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_micros(100)),
        );
        let circuit = mirror_circuit();
        let mut handle = open(&service, "mixed", &circuit).unwrap();
        handle.submit(&[0]).unwrap();
        handle.submit(&[]).unwrap();
        // A 5-shot block (shots 1 and 3 fire) follows two plain frames.
        let planes = [0b01010u64];
        let range = handle
            .sender
            .submit_word_batch(&[WordBlock {
                planes: &planes,
                count: 5,
            }])
            .unwrap();
        assert_eq!(range, 2..7);
        let expected = [1u64, 0, 0, 1, 0, 1, 0];
        for (i, &flips) in expected.iter().enumerate() {
            assert_eq!(
                handle.recv().unwrap(),
                Correction {
                    seq: i as u64,
                    flips
                },
                "frame {i}"
            );
        }
        service.shutdown();
    }

    #[test]
    fn malformed_word_blocks_are_rejected() {
        let service = DecodeService::new(ServiceConfig::default().with_stream_queue_shots(8));
        let circuit = mirror_circuit();
        let handle = open(&service, "badblocks", &circuit).unwrap();
        let planes = [0u64];
        // Wrong plane count.
        assert!(matches!(
            handle.sender.submit_word_batch(&[WordBlock {
                planes: &[0, 0],
                count: 1
            }]),
            Err(ServiceError::InvalidWordBlock(_))
        ));
        // Zero shots.
        assert!(matches!(
            handle.sender.submit_word_batch(&[WordBlock {
                planes: &planes,
                count: 0
            }]),
            Err(ServiceError::InvalidWordBlock(_))
        ));
        // Stray bits at or above the shot count.
        assert!(matches!(
            handle.sender.submit_word_batch(&[WordBlock {
                planes: &[0b100],
                count: 2
            }]),
            Err(ServiceError::InvalidWordBlock(_))
        ));
        // A block that can never fit the stream's bounded queue.
        assert_eq!(
            handle.sender.submit_word_batch(&[WordBlock {
                planes: &planes,
                count: 16
            }]),
            Err(ServiceError::WordBlockTooLarge {
                count: 16,
                stream_queue_shots: 8
            })
        );
        assert_eq!(service.metrics().frames_submitted, 0, "nothing enqueued");
        service.shutdown();
    }

    /// The grid c2 5X d = 3 program: enough detectors that a stray bit can
    /// hide in a plane word far from the first.
    fn grid_c2_d3() -> Arc<DecodeProgram> {
        let arch = ArchitectureConfig::recommended(5.0);
        Arc::new(DecodeProgram::compile(&arch, 3, DecoderKind::UnionFind).unwrap())
    }

    #[test]
    fn stray_bits_are_found_in_every_plane_word_of_every_block() {
        let service = DecodeService::new(ServiceConfig::default().with_workers(1));
        let program = grid_c2_d3();
        let n = program.num_detectors();
        assert!(n > 8, "{n} detectors");
        let handle = service.open_stream_program(&program).unwrap();
        // 63 shots; the only stray bit is bit 63 of the last plane word.
        let mut stray = vec![0u64; n];
        stray[n - 1] = 1 << 63;
        let refused = |blocks: &[WordBlock<'_>]| {
            let refusal = handle.sender.submit_word_batch(blocks);
            assert!(
                matches!(refusal, Err(ServiceError::InvalidWordBlock(_))),
                "{refusal:?}"
            );
        };
        refused(&[WordBlock {
            planes: &stray,
            count: 63,
        }]);
        // A well-formed first block is not enqueued when the second is bad.
        let quiet = vec![0u64; n];
        let good = WordBlock {
            planes: &quiet,
            count: 64,
        };
        refused(&[
            good,
            WordBlock {
                planes: &stray,
                count: 63,
            },
        ]);
        assert_eq!(service.metrics().frames_submitted, 0, "nothing enqueued");
        // Every bit of every plane set is a valid 64-shot block.
        let full = vec![u64::MAX; n];
        let block = WordBlock {
            planes: &full,
            count: 64,
        };
        assert_eq!(handle.sender.submit_word_batch(&[block]), Ok(0..64));
        service.shutdown();
    }

    #[test]
    fn a_parked_submitter_is_woken_by_delivery() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_micros(200))
                .with_stream_queue_shots(64),
        );
        let program = grid_c2_d3();
        let chunk = qccd_sim::sample_detector_chunks(program.circuit(), 128, 11, 128)
            .unwrap()
            .sample_chunk(0);
        let prediction = program.decode_batch(&chunk, &mut DecodeScratch::new());
        let (sender, mut receiver) = service.open_stream_program(&program).unwrap().split();
        let words: Vec<Vec<u64>> = (0..2)
            .map(|word| {
                let mut planes = Vec::new();
                chunk.word_block_into(word, &mut planes);
                planes
            })
            .collect();
        let expected = |seq: u64| {
            let flips = (0..prediction.num_observables())
                .filter(|&observable| prediction.predicted(seq as usize, observable))
                .fold(0, |mask, observable| mask | 1 << observable);
            Some(Correction { seq, flips })
        };
        std::thread::scope(|scope| {
            let (done, submitted) = mpsc::channel();
            let words = &words;
            scope.spawn(move || {
                let blocks: Vec<WordBlock<'_>> = words
                    .iter()
                    .map(|planes| WordBlock { planes, count: 64 })
                    .collect();
                // The second block waits for the first's 64 corrections.
                done.send(sender.submit_word_batch(&blocks))
            });
            for seq in 0..64 {
                let correction = receiver.recv_timeout(Duration::from_secs(10));
                assert_eq!(correction, expected(seq));
            }
            assert_eq!(
                submitted.recv_timeout(Duration::from_secs(10)),
                Ok(Ok(0..128)),
                "delivering the first block makes room for the second"
            );
        });
        for seq in 64..128 {
            let correction = receiver.recv_timeout(Duration::from_secs(10));
            assert_eq!(correction, expected(seq));
        }
        service.shutdown();
    }

    #[test]
    fn closing_an_idle_stream_leaves_other_streams_pending() {
        // Long deadline: only a close (or a full word) could flush.
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_secs(5)),
        );
        let circuit = mirror_circuit();
        let mut a = open(&service, "idle-close", &circuit).unwrap();
        let mut b = open(&service, "idle-close", &circuit).unwrap();
        for _ in 0..3 {
            a.submit(&[0]).unwrap();
        }
        // B shares A's program but contributed nothing: its close must not
        // ship A's partial word.
        b.sender.close();
        assert!(b.recv().is_none(), "idle closed stream drains immediately");
        std::thread::sleep(Duration::from_millis(30));
        let metrics = service.metrics();
        assert_eq!(metrics.words_flushed, 0, "A's partial word stays pending");
        assert_eq!(metrics.close_flushes, 0);
        assert!(a.receiver.try_recv().is_none());
        // A's own close flushes its word — booked as a close flush, not a
        // deadline flush.
        a.sender.close();
        for i in 0..3u64 {
            assert_eq!(a.recv().expect("correction").seq, i);
        }
        assert!(a.recv().is_none());
        let metrics = service.metrics();
        assert_eq!(metrics.close_flushes, 1);
        assert_eq!(metrics.deadline_flushes, 0);
        assert_eq!(metrics.full_word_flushes, 0);
        service.shutdown();
    }

    #[test]
    fn close_leaves_words_shared_with_live_streams_pending() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_secs(5)),
        );
        let circuit = mirror_circuit();
        let mut a = open(&service, "shared-close", &circuit).unwrap();
        let mut b = open(&service, "shared-close", &circuit).unwrap();
        for _ in 0..2 {
            a.submit(&[0]).unwrap();
            b.submit(&[0]).unwrap();
        }
        // A closes while B still contributes to the shared partial word:
        // the word stays pending (B's deadline owns it now).
        a.sender.close();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(service.metrics().words_flushed, 0);
        assert!(a.receiver.try_recv().is_none());
        // Once B (the last contributor) closes, the word flushes as a
        // close flush and both receivers drain.
        b.sender.close();
        for i in 0..2u64 {
            assert_eq!(a.recv().expect("correction").seq, i);
            assert_eq!(b.recv().expect("correction").seq, i);
        }
        assert!(a.recv().is_none());
        assert!(b.recv().is_none());
        let metrics = service.metrics();
        assert_eq!(metrics.close_flushes, 1);
        assert_eq!(metrics.deadline_flushes, 0);
        service.shutdown();
    }

    #[test]
    fn backpressure_bounds_the_stream_queue() {
        // One worker, huge deadline, tiny queue: the queue must fill.
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_secs(30))
                .with_stream_queue_shots(4),
        );
        let circuit = mirror_circuit();
        let mut handle = open(&service, "bp", &circuit).unwrap();
        for seq in 0..4 {
            assert_eq!(handle.sender.submit(&[0]), Ok(seq), "queue has room");
        }
        std::thread::scope(|scope| {
            let sender = &handle.sender;
            let (done, submitted) = mpsc::channel();
            scope.spawn(move || done.send(sender.submit(&[0])));
            // A fifth frame waits for room that no flush makes.
            assert_eq!(
                submitted.recv_timeout(Duration::from_millis(50)),
                Err(mpsc::RecvTimeoutError::Timeout)
            );
            assert_eq!(service.metrics().queue_depth, 4);
            // Closing wakes the waiting submitter, which is refused, and
            // flushes the partial word; the queue drains and the receiver
            // sees all four corrections.
            sender.close();
            assert_eq!(
                submitted.recv_timeout(Duration::from_secs(10)),
                Ok(Err(ServiceError::StreamClosed))
            );
        });
        for i in 0..4u64 {
            assert_eq!(handle.recv().unwrap().seq, i);
        }
        assert!(handle.recv().is_none());
        assert_eq!(service.metrics().close_flushes, 1);
        service.shutdown();
    }

    #[test]
    fn zero_counts_set_through_fields_are_raised_to_one() {
        let service = DecodeService::new(ServiceConfig {
            workers: 0,
            stream_queue_shots: 0,
            ..ServiceConfig::default()
        });
        let config = service.config();
        assert_eq!(config.workers, 1);
        assert_eq!(config.stream_queue_shots, 1);
        let (sender, mut receiver) = open(&service, "zero", &mirror_circuit()).unwrap().split();
        let (done, submitted) = mpsc::channel();
        let submitter = std::thread::spawn(move || {
            // A one-frame queue: the second submit waits for the first
            // frame's correction.
            let _ = done.send((sender.submit(&[0]), sender.submit(&[])));
        });
        assert_eq!(
            submitted.recv_timeout(Duration::from_secs(10)),
            Ok((Ok(0), Ok(1))),
            "a zero stream_queue_shots must not block submission forever"
        );
        submitter.join().expect("submitter thread");
        let wait = Duration::from_secs(10);
        assert_eq!(
            receiver.recv_timeout(wait),
            Some(Correction { seq: 0, flips: 1 })
        );
        assert_eq!(
            receiver.recv_timeout(wait),
            Some(Correction { seq: 1, flips: 0 })
        );
        service.shutdown();
    }

    /// Every span of a default service is timed: once the service is shut
    /// down, each stage's duration histogram holds one entry per call.
    #[test]
    fn a_default_service_times_every_stage_span() {
        let service = DecodeService::new(ServiceConfig::default());
        let mut handle = open(&service, "timed", &mirror_circuit()).unwrap();
        let frames: Vec<&[usize]> = (0..64)
            .map(|i| if i % 3 == 0 { &[0][..] } else { &[][..] })
            .collect();
        // One word at a time, so each word is its own decode job.
        for _ in 0..20 {
            for _ in handle.sender.submit_batch(&frames).unwrap() {
                assert!(handle.recv().is_some());
            }
        }
        service.shutdown();
        let snapshot = service.telemetry_snapshot();
        for stage in ["batcher_wait", "decode", "delivery"] {
            let name = format!("service.stage.{stage}");
            let calls = snapshot.counter(&format!("{name}_calls"));
            let timed = snapshot.histogram(&format!("{name}_us")).map(|h| h.count);
            assert!(calls >= 20, "{name}: {calls} calls");
            assert_eq!(timed, Some(calls), "{name}");
        }
    }

    #[test]
    fn bad_frames_and_closed_streams_error() {
        let service = DecodeService::new(ServiceConfig::default());
        let circuit = mirror_circuit();
        let handle = open(&service, "err", &circuit).unwrap();
        assert_eq!(
            handle.submit(&[7]),
            Err(ServiceError::DetectorOutOfRange {
                detector: 7,
                num_detectors: 1
            })
        );
        handle.sender.close();
        assert_eq!(handle.submit(&[]), Err(ServiceError::StreamClosed));
        service.shutdown();
        assert!(open(&service, "late", &circuit).is_err());
    }

    #[test]
    fn shutdown_drains_queued_frames() {
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(1)
                .with_flush_deadline(Duration::from_secs(30)),
        );
        let circuit = mirror_circuit();
        let mut handle = open(&service, "drain", &circuit).unwrap();
        for _ in 0..10 {
            handle.submit(&[0]).unwrap();
        }
        // Shutdown flushes the partial word and decodes it before joining.
        service.shutdown();
        let mut received = 0;
        while handle.recv().is_some() {
            received += 1;
        }
        assert_eq!(received, 10);
    }

    #[test]
    fn different_programs_use_different_shards() {
        // Two programs: a partial word on one must not delay or flush with
        // a full word on the other.
        let service = DecodeService::new(
            ServiceConfig::default()
                .with_workers(2)
                .with_flush_deadline(Duration::from_secs(5)),
        );
        let mut a = open(&service, "prog-a", &mirror_circuit()).unwrap();
        let mut b = open(&service, "prog-b", &six_detector_circuit()).unwrap();
        a.submit(&[0]).unwrap();
        for _ in 0..64 {
            b.submit(&[0]).unwrap();
        }
        // B's full word decodes promptly even though A's partial pends.
        for i in 0..64u64 {
            let correction = b
                .receiver
                .recv_timeout(Duration::from_secs(10))
                .expect("B's shard flushes independently");
            assert_eq!(correction.seq, i);
        }
        let metrics = service.metrics();
        assert_eq!(metrics.full_word_flushes, 1);
        assert_eq!(metrics.words_flushed, 1, "A's partial word still pends");
        a.sender.close();
        assert_eq!(a.recv().expect("close flush").seq, 0);
        service.shutdown();
    }

    #[test]
    fn a_worker_routes_a_job_while_its_shard_is_locked() {
        // One worker, two programs. A job of A is queued and decoded while
        // the test holds A's shard lock; a full word of B queued behind it
        // still comes back, because routing never locks a shard.
        let service = DecodeService::new(ServiceConfig::default().with_workers(1));
        let mut a = open(&service, "locked-a", &mirror_circuit()).unwrap();
        let mut b = open(&service, "locked-b", &mirror_circuit()).unwrap();
        {
            // Reserve A's sequence numbers as a submit would.
            let mut delivery = a.sender.core.delivery.lock().unwrap();
            delivery.next_submit_seq = 64;
            delivery.inflight = 64;
        }
        let shared = &service.shared;
        let held = a.sender.shard.state.lock().unwrap();
        let wakes = {
            let mut queue = shared.queue.state.lock().unwrap();
            queue.enqueue(&a.sender.shard, flushed(&a.sender.core, 0, 64));
            queue.idle
        };
        shared.wake(wakes);
        let plane = 0x0123_4567_89ab_cdef_u64;
        let block = WordBlock {
            planes: &[plane],
            count: 64,
        };
        assert_eq!(b.sender.submit_word_batch(&[block]).unwrap(), 0..64);
        let first = b.receiver.recv_timeout(Duration::from_secs(2));
        drop(held);
        let flips = plane & 1;
        assert_eq!(
            first,
            Some(Correction { seq: 0, flips }),
            "B's word is decoded while A's shard is held"
        );
        expect_mirrored(&mut b.receiver, 1..64, |_| plane);
        for seq in 0..64u64 {
            let correction = a.receiver.recv_timeout(Duration::from_secs(10));
            let flips = u64::from(seq % 3 == 0);
            assert_eq!(correction, Some(Correction { seq, flips }));
        }
        service.shutdown();
    }
}
