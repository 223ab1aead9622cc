//! An exhaustive explorer of the decode service's wake protocol.
//!
//! The model runs the protocol of `service.rs` with its data cut down to
//! frame counts: workers, submitters on their streams' shards, a virtual
//! clock, stream closes and the service's shutdown. Every decision a step
//! takes is asked of the real [`Scheduler`], [`flush_point`],
//! [`Deadline::at`], [`close_flushes`] and [`FrameBatch`] walk; the model
//! supplies only what the service supplies around them: locks, condvar
//! waits and wakes, and the order of its steps.
//!
//! Each locked section is one atomic step. A worker told to wait keeps the
//! queue lock until it is parked on the condvar, as `Condvar::wait` does,
//! so only unlocked steps can slip in between. `notify(n)` wakes up to `n`
//! waiters (any of them), a waiter may wake spuriously, and a timed wait
//! fires once the clock reaches its instant. The clock jumps to the next
//! instant something is due. Workers are interchangeable, so a state keeps
//! them sorted.
//!
//! A breadth-first search with state hashing enumerates every interleaving
//! up to a depth bound and reports, with the steps that led there:
//! - a lost wake-up: every live worker waits without a timeout while a job
//!   is queued or a deadline is armed, and no wake is on its way;
//! - a job that leaves the queue out of sequence order, or a frame filled
//!   before shutdown's last sweep that is never decoded;
//! - a hang: a state that is not final moves only by spurious wakes (so
//!   shutdown never returns), or the shutdown drain would wait;
//! - a late deadline: an armed deadline falls due while a worker sleeps
//!   past it and no worker is free to serve it.

use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};

use super::super::{FrameBatch, WordBlock};
use super::{close_flushes, flush_point, Action, Batch, Deadline, FlushPoint, Scheduler, ALL};

/// Virtual time.
type Tick = u8;

/// A model batch: runs of `(stream, first seq, count)` in push order.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Runs(Vec<(u8, u16, u16)>);

impl Runs {
    /// Appends a run, merged into the last when it extends it (as
    /// `push_run` does).
    fn push(&mut self, (stream, first, count): (u8, u16, u16)) {
        match self.0.last_mut() {
            Some(last) if last.0 == stream && last.1 + last.2 == first => last.2 += count,
            _ => self.0.push((stream, first, count)),
        }
    }
}

impl Batch for Runs {
    fn frames(&self) -> usize {
        self.0.iter().map(|run| usize::from(run.2)).sum()
    }

    fn absorb(&mut self, other: Self) {
        other.0.into_iter().for_each(|run| self.push(run));
    }
}

type Sched = Scheduler<usize, Runs, Tick>;

/// One call of a submitter's script.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `submit_batch` of this many index frames.
    Frames(u16),
    /// `submit_word_batch` of blocks of these shot counts.
    Blocks(&'static [usize]),
    Close,
}

impl Op {
    fn shots(self) -> u16 {
        match self {
            Op::Frames(count) => count,
            Op::Blocks(counts) => counts.iter().sum::<usize>() as u16,
            Op::Close => 0,
        }
    }
}

/// The service's shape and each stream's calls.
#[derive(Debug, Clone)]
struct Model {
    workers: usize,
    /// The flush deadline, in ticks.
    deadline: Tick,
    /// Per stream: its shard and its submitter's calls, in order.
    streams: Vec<(usize, Vec<Op>)>,
    /// Whether shutdown may start before every script has finished.
    early_shutdown: bool,
    max_depth: usize,
}

/// One step of `DecodeService::shutdown`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// `shutdown.swap(true)`, under no lock.
    SetFlag,
    /// `flush_all_shards`: each shard under its own lock...
    Sweep,
    /// ...then one wake for the jobs it queued.
    WakeSwept,
    /// Takes and drops the queue lock.
    LockQueue,
    NotifyAll,
    /// Joins the workers.
    Join,
    /// Runs `worker_loop` on the shutting-down thread.
    Drain,
}

/// `DecodeService::shutdown`, step by step.
const SHUTDOWN: &[Step] = &[
    Step::SetFlag,
    Step::Sweep,
    Step::WakeSwept,
    Step::LockQueue,
    Step::NotifyAll,
    Step::Join,
    Step::Sweep,
    Step::WakeSwept,
    Step::Drain,
];

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Worker {
    /// At the top of `worker_loop`, about to lock the queue.
    Ready,
    /// Told to wait and counted idle, still holding the queue lock.
    Parking(Option<Tick>),
    Waiting {
        until: Option<Tick>,
        notified: bool,
    },
    Serving(usize),
    Decoding(Runs),
    /// Waking this many after re-arming a deadline.
    Waking(usize),
    Exited,
    /// The shutdown drain, before shutdown starts it.
    Dormant,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Phase {
    /// About to make call `op` (done past the last).
    Call,
    /// Holds sequence numbers `first..first + count`, about to fill.
    Fill(u16, u16),
    /// Marked closed, about to take its shard's lock.
    Closing,
    /// Waking this many once its shard lock is released.
    Waking(usize),
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Stream {
    op: usize,
    phase: Phase,
    next_seq: u16,
    closed: bool,
    /// Frames filled before shutdown's last sweep of the shard: these must
    /// be decoded.
    owed: u16,
    /// Frames taken from the queue, in sequence order.
    taken: u16,
    decoded: u16,
}

#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
struct Shard {
    /// The pending batch and the tick of its oldest frame.
    pending: Option<(Runs, Tick)>,
    armed: bool,
    /// Shutdown's last sweep has passed it.
    swept: bool,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    clock: Tick,
    sched: Sched,
    flag: bool,
    shards: Vec<Shard>,
    streams: Vec<Stream>,
    /// The workers, then the shutdown drain.
    workers: Vec<Worker>,
    /// Steps of [`SHUTDOWN`] taken; `None` before shutdown starts.
    shutdown: Option<usize>,
    shutdown_wakes: usize,
    /// Whether the step in progress took the queue lock.
    touched: bool,
}

impl State {
    /// A parking worker holds the queue lock.
    fn locked(&self) -> bool {
        self.workers.iter().any(|w| matches!(w, Worker::Parking(_)))
    }

    /// The scheduler, as a step that takes the queue lock sees it.
    fn queue(&mut self) -> &mut Sched {
        self.touched = true;
        &mut self.sched
    }

    /// `flush_shard`: queues the shard's pending batch, if any.
    fn flush(&mut self, shard: usize) -> usize {
        match self.shards[shard].pending.take() {
            Some((runs, _)) => self.queue().enqueue(&shard, runs),
            None => 0,
        }
    }
}

/// What the exploration found.
#[derive(Debug)]
struct Report {
    states: usize,
    /// The deepest level reached.
    depth: usize,
    /// No state was left unexplored at the depth bound.
    exhausted: bool,
    findings: Vec<String>,
}

/// A successor of a state, and whether it took a spurious wake-up.
type Move = (State, bool);

impl Model {
    fn initial(&self) -> State {
        let stream = Stream {
            op: 0,
            phase: Phase::Call,
            next_seq: 0,
            closed: false,
            owed: 0,
            taken: 0,
            decoded: 0,
        };
        let mut workers = vec![Worker::Ready; self.workers];
        workers.push(Worker::Dormant);
        State {
            clock: 0,
            sched: Sched::default(),
            flag: false,
            shards: vec![Shard::default(); 1 + self.streams.iter().map(|s| s.0).max().unwrap_or(0)],
            streams: vec![stream; self.streams.len()],
            workers,
            shutdown: None,
            shutdown_wakes: 0,
            touched: false,
        }
    }

    /// Explores every interleaving from the initial state, level by level,
    /// and stops at the first level with a finding.
    fn explore(&self) -> Report {
        let mut findings = Vec::new();
        // Every state reached, once, with the state it was reached from;
        // states by hash, each bucket chained through `chain`.
        let mut states = vec![self.initial()];
        let mut parents = vec![0];
        let mut buckets = HashMap::from([(hash(&states[0]), 0)]);
        let mut chain = vec![None];
        let (mut level, mut depth) = (0..1, 0);
        while !level.is_empty() && depth < self.max_depth && findings.is_empty() {
            let end = states.len();
            for index in level {
                let mut found = Vec::new();
                self.check(&states[index], &mut found);
                let moves = self.moves(&states[index], &mut found);
                if moves.iter().all(|&(_, spurious)| spurious) && !self.is_final(&states[index]) {
                    found.push("hang: nothing but a spurious wake moves".to_string());
                }
                for finding in found {
                    findings.push(format!("{finding}\n{}", trace(&states, &parents, index)));
                }
                for (mut successor, _) in moves {
                    successor.workers[..self.workers].sort();
                    let key = hash(&successor);
                    let mut slot = buckets.get(&key).copied();
                    while let Some(other) = slot.filter(|&other| states[other] != successor) {
                        slot = chain[other];
                    }
                    if slot.is_none() {
                        chain.push(buckets.insert(key, states.len()));
                        states.push(successor);
                        parents.push(index);
                    }
                }
            }
            level = end..states.len();
            depth += 1;
        }
        Report {
            states: states.len(),
            depth,
            exhausted: level.is_empty(),
            findings,
        }
    }

    fn is_final(&self, state: &State) -> bool {
        state.shutdown == Some(SHUTDOWN.len())
            && state.workers.iter().all(|w| *w == Worker::Exited)
            && self.scripts_done(state)
    }

    fn scripts_done(&self, state: &State) -> bool {
        (state.streams.iter().zip(&self.streams)).all(|(stream, (_, ops))| stream.op == ops.len())
    }

    /// The assertions on one state.
    fn check(&self, state: &State, findings: &mut Vec<String>) {
        let in_flight = state.streams.iter().any(|s| matches!(s.phase, Phase::Waking(n) if n > 0))
            || (state.workers.iter()).any(|w| matches!(w, Worker::Waking(n) if *n > 0))
            // Shutdown wakes every waiter before it joins them.
            || state.shutdown.is_some_and(|pc| {
                SHUTDOWN[pc.min(SHUTDOWN.len() - 1)..].contains(&Step::NotifyAll)
                    || SHUTDOWN.get(pc) == Some(&Step::WakeSwept) && state.shutdown_wakes > 0
            });
        if in_flight {
            return;
        }
        let workers = &state.workers[..self.workers];
        let forever = |w: &Worker| {
            let asleep = Worker::Waiting {
                until: None,
                notified: false,
            };
            *w == asleep || *w == Worker::Exited
        };
        let work = !state.sched.jobs.is_empty() || !state.sched.armed.is_empty();
        if work && !workers.iter().all(|w| *w == Worker::Exited) && workers.iter().all(forever) {
            findings.push("lost wake-up: every worker waits without a timeout".to_string());
        }
        let free = |w: &Worker| match w {
            Worker::Ready => true,
            Worker::Parking(until) => until.is_some_and(|u| u <= state.clock),
            Worker::Waiting { until, notified } => {
                *notified || until.is_some_and(|u| u <= state.clock)
            }
            _ => false,
        };
        let armed = state.sched.armed.iter().map(|&(due, _)| due);
        for due in armed.filter(|&due| due <= state.clock) {
            let past = |w: &Worker| match w {
                Worker::Waiting {
                    until,
                    notified: false,
                } => until.is_none_or(|u| u > due),
                _ => false,
            };
            if workers.iter().any(past) && !workers.iter().any(free) {
                let late = format!("late deadline: due at {due}, a worker sleeps past it");
                findings.push(late);
            }
        }
        if self.is_final(state) {
            for (s, stream) in state.streams.iter().enumerate() {
                if stream.decoded != stream.taken || stream.taken < stream.owed {
                    findings.push(format!("stream {s} lost frames"));
                }
            }
        }
    }

    /// Every step an actor can take from `state`.
    fn moves(&self, state: &State, findings: &mut Vec<String>) -> Vec<Move> {
        let mut moves = Vec::new();
        let free = !state.locked();
        for w in 0..state.workers.len() {
            // Equal workers (kept adjacent) make equal moves.
            let worker = &state.workers[w];
            if w > 0 && w < self.workers && *worker == state.workers[w - 1] {
                continue;
            }
            let mut next = match worker {
                Worker::Ready | Worker::Waiting { .. } if !free => continue,
                Worker::Exited | Worker::Dormant => continue,
                _ => state.clone(),
            };
            match worker.clone() {
                Worker::Ready => {
                    self.decide(&mut next, w, findings);
                    moves.push((next, false));
                }
                Worker::Parking(until) => {
                    let notified = false;
                    next.workers[w] = Worker::Waiting { until, notified };
                    moves.push((next, false));
                }
                Worker::Waiting { until, notified } => {
                    next.sched.woken();
                    self.decide(&mut next, w, findings);
                    let fired = notified || until.is_some_and(|u| u <= state.clock);
                    moves.push((next, !fired));
                }
                Worker::Serving(shard) => {
                    next.workers[w] = match Deadline::at(self.due(state, shard), state.clock) {
                        Deadline::Flush => {
                            next.flush(shard);
                            next.shards[shard].armed = false;
                            Worker::Ready
                        }
                        Deadline::Rearm(due) => Worker::Waking(next.queue().arm(due, &shard)),
                        Deadline::Disarm => {
                            next.shards[shard].armed = false;
                            Worker::Ready
                        }
                    };
                    push_locked(&mut moves, next);
                }
                Worker::Decoding(runs) => {
                    for &(stream, _, count) in &runs.0 {
                        next.streams[usize::from(stream)].decoded += count;
                    }
                    next.workers[w] = Worker::Ready;
                    moves.push((next, false));
                }
                Worker::Waking(wakes) => {
                    next.workers[w] = Worker::Ready;
                    notify(&mut moves, next, wakes);
                }
                Worker::Exited | Worker::Dormant => {}
            }
        }
        for s in 0..state.streams.len() {
            self.stream_moves(state, s, &mut moves);
        }
        self.shutdown_moves(state, &mut moves);
        // The clock jumps to the next instant a deadline or a timed wait
        // is due.
        let waits = state.workers.iter().filter_map(|w| match w {
            Worker::Parking(until) | Worker::Waiting { until, .. } => *until,
            _ => None,
        });
        let dues = state.sched.armed.iter().map(|&(due, _)| due);
        if let Some(tick) = waits.chain(dues).filter(|&t| t > state.clock).min() {
            let mut next = state.clone();
            next.clock = tick;
            moves.push((next, false));
        }
        moves
    }

    fn stream_moves(&self, state: &State, s: usize, moves: &mut Vec<Move>) {
        let (shard, ref ops) = self.streams[s];
        let stream = &state.streams[s];
        if stream.phase == Phase::Call && stream.op == ops.len() {
            return;
        }
        let mut next = state.clone();
        let ours = &mut next.streams[s];
        match stream.phase {
            Phase::Call => {
                match ops[stream.op] {
                    Op::Close => {
                        ours.closed = true;
                        ours.phase = Phase::Closing;
                    }
                    // Refused: the stream or the service is closed.
                    _ if ours.closed || state.flag => ours.op += 1,
                    op => {
                        ours.phase = Phase::Fill(ours.next_seq, op.shots());
                        ours.next_seq += op.shots();
                    }
                }
                moves.push((next, false));
            }
            Phase::Fill(first, count) => {
                if !state.shards[shard].swept {
                    ours.owed += count;
                }
                let wakes = self.fill(&mut next, s, first, ops[stream.op]);
                next.streams[s].phase = Phase::Waking(wakes);
                push_locked(moves, next);
            }
            Phase::Closing => {
                let closed = |stream: u8| state.streams[usize::from(stream)].closed;
                let pending = state.shards[shard].pending.as_ref();
                let flush = pending.is_some_and(|(runs, _)| {
                    close_flushes(
                        runs.0
                            .iter()
                            .map(|run| (usize::from(run.0) == s, closed(run.0))),
                    )
                });
                let wakes = if flush { next.flush(shard) } else { 0 };
                next.streams[s].phase = Phase::Waking(wakes);
                push_locked(moves, next);
            }
            Phase::Waking(wakes) => {
                ours.phase = Phase::Call;
                ours.op += 1;
                notify(moves, next, wakes);
            }
        }
    }

    fn shutdown_moves(&self, state: &State, moves: &mut Vec<Move>) {
        let pc = state.shutdown.unwrap_or(0);
        let Some(&step) = SHUTDOWN.get(pc) else {
            return;
        };
        let exited = state.workers[..self.workers]
            .iter()
            .all(|w| *w == Worker::Exited);
        let blocked = match step {
            Step::SetFlag => !self.early_shutdown && !self.scripts_done(state),
            Step::LockQueue => state.locked(),
            Step::Join => !exited,
            _ => false,
        };
        if blocked {
            return;
        }
        let mut next = state.clone();
        next.shutdown = Some(pc + 1);
        match step {
            Step::SetFlag => next.flag = true,
            Step::Sweep => {
                let last = SHUTDOWN[..pc].contains(&Step::Join);
                for shard in 0..next.shards.len() {
                    let wakes = next.flush(shard);
                    next.shutdown_wakes = next.shutdown_wakes.max(wakes);
                    next.shards[shard].armed = false;
                    next.shards[shard].swept |= last;
                }
                return push_locked(moves, next);
            }
            Step::WakeSwept => {
                next.shutdown_wakes = 0;
                return notify(moves, next, state.shutdown_wakes);
            }
            Step::NotifyAll => return notify(moves, next, ALL),
            Step::Drain => next.workers[self.workers] = Worker::Ready,
            Step::LockQueue | Step::Join => {}
        }
        moves.push((next, false));
    }

    /// Asks [`Scheduler::next`] what worker `w` does, under the queue lock.
    fn decide(&self, state: &mut State, w: usize, findings: &mut Vec<String>) {
        state.workers[w] = match state.sched.next(state.clock, state.flag) {
            Action::Serve(shard) => Worker::Serving(shard),
            Action::Take(job) => {
                for &(stream, first, count) in &job.parts.0 {
                    let taken = &mut state.streams[usize::from(stream)].taken;
                    if first != *taken {
                        findings.push(format!("stream {stream}: a job from {first}, not {taken}"));
                    }
                    *taken = first + count;
                }
                Worker::Decoding(job.parts)
            }
            Action::Exit => Worker::Exited,
            Action::Wait(_) if w == self.workers => {
                findings.push("the shutdown drain would wait".to_string());
                Worker::Exited
            }
            Action::Wait(until) => Worker::Parking(until),
        };
    }

    /// `fill_shard` of call `op` of stream `s` from `first`: the call's
    /// segments with [`flush_point`] at each, then [`Deadline::at`] on a
    /// shard it leaves unarmed. Returns the workers to wake.
    fn fill(&self, state: &mut State, s: usize, first: u16, op: Op) -> usize {
        let shard = self.streams[s].0;
        let frames: Vec<&[usize]>;
        let blocks: Vec<WordBlock<'_>>;
        let mut rest = match op {
            Op::Frames(count) => {
                frames = vec![&[]; usize::from(count)];
                FrameBatch::Indices(&frames)
            }
            Op::Blocks(counts) => {
                let block = |count| WordBlock { planes: &[], count };
                blocks = counts.iter().copied().map(block).collect();
                FrameBatch::Blocks(&blocks)
            }
            Op::Close => unreachable!("a close fills nothing"),
        };
        let (mut seq, mut wakes) = (first, 0);
        while !rest.is_empty() {
            let clock = state.clock;
            let pending = &mut state.shards[shard].pending;
            let (runs, _) = pending.get_or_insert((Runs::default(), clock));
            let before = runs.frames();
            let (segment, tail) = rest.split_segment(before);
            let shots = segment.shots();
            runs.push((s as u8, seq, shots as u16));
            seq += shots as u16;
            rest = tail;
            match flush_point(before, shots, || rest.next_flush_point()) {
                Some(FlushPoint::Keep) => wakes = 0,
                Some(FlushPoint::Flush) => wakes = state.flush(shard),
                None => {}
            }
        }
        if !state.shards[shard].armed {
            match Deadline::at(self.due(state, shard), state.clock) {
                Deadline::Flush => wakes = wakes.max(state.flush(shard)),
                Deadline::Rearm(due) => {
                    state.shards[shard].armed = true;
                    wakes = state.queue().arm(due, &shard);
                }
                Deadline::Disarm => {}
            }
        }
        wakes
    }

    fn due(&self, state: &State, shard: usize) -> Option<Tick> {
        let (_, oldest) = state.shards[shard].pending.as_ref()?;
        oldest.checked_add(self.deadline)
    }
}

/// Keeps a step unless it took the queue lock while a parking worker
/// holds it.
fn push_locked(moves: &mut Vec<Move>, mut next: State) {
    if !std::mem::take(&mut next.touched) || !next.locked() {
        moves.push((next, false));
    }
}

/// `notify(wakes)` ([`ALL`] for `notify_all`): wakes `min(wakes,
/// waiters)` of the unwoken waiters, each choice a move of its own.
fn notify(moves: &mut Vec<Move>, next: State, wakes: usize) {
    let waiters: Vec<usize> = (0..next.workers.len())
        .filter(|&w| {
            matches!(
                next.workers[w],
                Worker::Waiting {
                    notified: false,
                    ..
                }
            )
        })
        .collect();
    let wake = wakes.min(waiters.len());
    for subset in (0u32..1 << waiters.len()).filter(|s| s.count_ones() as usize == wake) {
        let mut woken = next.clone();
        for (bit, &w) in waiters.iter().enumerate() {
            if let Worker::Waiting { notified, .. } = &mut woken.workers[w] {
                *notified |= subset >> bit & 1 == 1;
            }
        }
        moves.push((woken, false));
    }
}

fn hash(state: &State) -> u64 {
    let mut hasher = DefaultHasher::new();
    state.hash(&mut hasher);
    hasher.finish()
}

/// The steps from the initial state to `states[index]`, one line each: the
/// actors that moved, then the queue.
fn trace(states: &[State], parents: &[usize], mut index: usize) -> String {
    let mut path = vec![index];
    while index != 0 {
        index = parents[index];
        path.push(index);
    }
    let mut lines = vec![format!("from {:?}", states[0])];
    for pair in path.windows(2).rev() {
        let (a, b) = (&states[pair[1]], &states[pair[0]]);
        let mut moved = Vec::new();
        // Workers are kept sorted: pair the ones that left with the ones
        // that came.
        let (mut gone, mut came) = (a.workers.clone(), Vec::new());
        for worker in &b.workers {
            match gone.iter().position(|w| w == worker) {
                Some(at) => drop(gone.remove(at)),
                None => came.push(worker),
            }
        }
        for (x, y) in gone.iter().zip(came) {
            moved.push(format!("worker: {x:?} -> {y:?}"));
        }
        for (s, (x, y)) in a.streams.iter().zip(&b.streams).enumerate() {
            if x != y {
                let (from, to) = ((&x.phase, x.op), (&y.phase, y.op));
                moved.push(format!("stream {s}: {from:?} -> {to:?}"));
            }
        }
        if a.shutdown != b.shutdown {
            moved.push(format!("shutdown: {:?}", SHUTDOWN[a.shutdown.unwrap_or(0)]));
        }
        if a.clock != b.clock {
            moved.push(format!("clock: {} -> {}", a.clock, b.clock));
        }
        let jobs: Vec<_> = (b.sched.jobs.iter())
            .map(|j| (j.shard, j.parts.frames()))
            .collect();
        let queue = format!(
            "jobs {jobs:?}, armed {:?}, idle {}",
            b.sched.armed, b.sched.idle
        );
        lines.push(format!("  {}  => {queue}", moved.join("; ")));
    }
    lines.join("\n")
}

/// Explores `model` and asserts it finds nothing and exhausts the bound.
fn assert_clean(name: &str, model: &Model) {
    let started = std::time::Instant::now();
    let report = model.explore();
    eprintln!(
        "{name}: {} states, depth {}, {:.2?}",
        report.states,
        report.depth,
        started.elapsed()
    );
    assert!(report.findings.is_empty(), "{name}: {:#?}", report.findings);
    assert!(report.exhausted, "{name}: the depth bound cut the search");
}

/// The calls of the explored streams: on shard 0 a partial word, then a
/// flush point that leaves a newer partial word behind the stale arming,
/// then a close; on shard 1 a partial word (and a close).
fn two_shards(close_both: bool) -> Vec<(usize, Vec<Op>)> {
    let second = [Op::Frames(3), Op::Close];
    vec![
        (0, vec![Op::Frames(1), Op::Frames(64), Op::Close]),
        (1, second[..1 + usize::from(close_both)].to_vec()),
    ]
}

#[test]
fn the_wake_protocol_has_no_lost_wake_up_hang_or_late_deadline() {
    let model = Model {
        workers: 2,
        deadline: 2,
        streams: two_shards(false),
        early_shutdown: false,
        max_depth: 100,
    };
    assert_clean("two shards", &model);
    let zero = Model {
        deadline: 0,
        ..model.clone()
    };
    assert_clean("two shards, zero deadline", &zero);
    // Two streams on one shard's words: the close rule between them.
    let shared = Model {
        streams: vec![
            (0, vec![Op::Frames(1), Op::Close]),
            (0, vec![Op::Blocks(&[40, 40]), Op::Close]),
        ],
        ..model.clone()
    };
    assert_clean("one shard", &shared);
    let racing = Model {
        streams: vec![
            (0, vec![Op::Frames(1), Op::Close]),
            (1, vec![Op::Frames(64)]),
        ],
        early_shutdown: true,
        ..model
    };
    assert_clean("shutdown racing the submitters", &racing);
}

#[test]
#[ignore = "a deeper bound, about 1.6 M states: three workers, and shutdown racing every call"]
fn the_wake_protocol_is_clean_at_a_deeper_bound() {
    let three = Model {
        workers: 3,
        deadline: 2,
        streams: two_shards(true),
        early_shutdown: false,
        max_depth: 200,
    };
    assert_clean("two shards, three workers", &three);
    let racing = Model {
        streams: vec![
            (0, vec![Op::Frames(1), Op::Close]),
            (1, vec![Op::Frames(3)]),
        ],
        early_shutdown: true,
        ..three.clone()
    };
    assert_clean("three workers, shutdown racing the submitters", &racing);
    let closes = Model {
        workers: 2,
        streams: vec![
            (0, vec![Op::Frames(1), Op::Close]),
            (1, vec![Op::Frames(3), Op::Close]),
        ],
        ..racing
    };
    assert_clean("shutdown racing every call", &closes);
}
