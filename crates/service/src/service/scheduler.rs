//! Every scheduling decision of the decode service, as values that hold no
//! lock and read no clock: the job queue ([`Scheduler`]) and the rules for
//! a shard's pending batch ([`flush_point`], [`Deadline::at`],
//! [`close_flushes`]). The service asks them under its locks; the explorer
//! asks them in every interleaving of a small model.

use std::collections::VecDeque;

/// Shots one job grows to, by keeping a submit call's full words pending or
/// by absorbing later flushes of its shard in the queue: 64 words, one
/// decoder tile. It also caps a new batch's planes.
pub(super) const MAX_JOB_SHOTS: usize = 4096;

/// The wake count that wakes every waiting worker.
pub(super) const ALL: usize = usize::MAX;

/// The frames of a job, as far as the scheduler needs them.
pub(super) trait Batch {
    fn frames(&self) -> usize;
    /// Appends `other`'s frames behind this batch's.
    fn absorb(&mut self, other: Self);
}

/// A flushed batch of one shard, queued for a worker.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct Job<S, B> {
    pub(super) shard: S,
    pub(super) parts: B,
}

/// What a worker does next: serve an armed shard's deadline, decode a job,
/// leave, or wait for a wake or until the instant given.
#[derive(Debug)]
pub(super) enum Action<S, B, T> {
    Serve(S),
    Take(Job<S, B>),
    Exit,
    Wait(Option<T>),
}

/// The job queue: jobs, armed shards with the instant each falls due, and
/// the count of waiting workers. A call that makes work returns how many
/// of them to wake, once the caller has released its shard lock.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(super) struct Scheduler<S, B, T> {
    pub(super) jobs: VecDeque<Job<S, B>>,
    pub(super) armed: Vec<(T, S)>,
    pub(super) idle: usize,
}

impl<S, B, T> Default for Scheduler<S, B, T> {
    fn default() -> Self {
        Scheduler {
            jobs: VecDeque::new(),
            armed: Vec::new(),
            idle: 0,
        }
    }
}

impl<S: Clone + PartialEq, B: Batch, T: Copy + Ord> Scheduler<S, B, T> {
    /// Queues a flushed batch: the last job absorbs it when that job is of
    /// the same shard, fills whole words and stays within
    /// [`MAX_JOB_SHOTS`] with it. Wakes one idle worker per queued job.
    pub(super) fn enqueue(&mut self, shard: &S, parts: B) -> usize {
        match self.jobs.back_mut() {
            Some(tail)
                if tail.shard == *shard
                    && tail.parts.frames().is_multiple_of(64)
                    && tail.parts.frames() + parts.frames() <= MAX_JOB_SHOTS =>
            {
                tail.parts.absorb(parts)
            }
            _ => self.jobs.push_back(Job {
                shard: shard.clone(),
                parts,
            }),
        }
        self.idle.min(self.jobs.len())
    }

    /// Arms `shard` to be served once `due` passes. Wakes [`ALL`] waiting
    /// workers, so that none sleeps past the earliest due instant: a count
    /// could go to a worker that began a timed wait after it was taken.
    pub(super) fn arm(&mut self, due: T, shard: &S) -> usize {
        self.armed.push((due, shard.clone()));
        if self.idle > 0 {
            ALL
        } else {
            0
        }
    }

    /// The first of: serve the earliest armed shard if it fell due by
    /// `now`, take a job, exit when shutting down, or wait until it falls
    /// due. A waiting caller counts as idle until [`Scheduler::woken`].
    pub(super) fn next(&mut self, now: T, shutting_down: bool) -> Action<S, B, T> {
        let dues = self.armed.iter().map(|&(due, _)| due);
        let earliest = dues.enumerate().min_by_key(|&(_, due)| due);
        if let Some((index, _)) = earliest.filter(|&(_, due)| due <= now) {
            Action::Serve(self.armed.swap_remove(index).1)
        } else if let Some(job) = self.jobs.pop_front() {
            Action::Take(job)
        } else if shutting_down {
            Action::Exit
        } else {
            self.idle += 1;
            Action::Wait(earliest.map(|(_, due)| due))
        }
    }

    /// A waiting worker woke: notified, timed out or spuriously.
    pub(super) fn woken(&mut self) {
        self.idle -= 1;
    }
}

/// At a flush point, book a full-word flush and keep filling, or flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum FlushPoint {
    Keep,
    Flush,
}

/// The rule of a submit call, which walks its burst in segments (index
/// frames up to the next word boundary, or one word block): a segment of
/// `shots` pushed onto `before` pending frames that completes a word is a
/// flush point. The batch stays pending there while it fills whole words
/// and the call reaches another flush point `next()` shots on within
/// [`MAX_JOB_SHOTS`], so the call's full words leave as one job.
pub(super) fn flush_point(
    before: usize,
    shots: usize,
    next: impl FnOnce() -> Option<usize>,
) -> Option<FlushPoint> {
    let pending = before + shots;
    if before % 64 + shots < 64 {
        None
    } else if pending.is_multiple_of(64) && next().is_some_and(|n| pending + n <= MAX_JOB_SHOTS) {
        Some(FlushPoint::Keep)
    } else {
        Some(FlushPoint::Flush)
    }
}

/// What a shard's deadline does with a pending batch due at `due` (`None`:
/// no batch, or one due past the last representable instant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Deadline<T> {
    Flush,
    Rearm(T),
    Disarm,
}

impl<T: Ord> Deadline<T> {
    /// The rule at `now`, for a worker serving an armed shard and for a
    /// submit call leaving an unarmed one.
    pub(super) fn at(due: Option<T>, now: T) -> Self {
        match due {
            Some(due) if due <= now => Deadline::Flush,
            Some(due) => Deadline::Rearm(due),
            None => Deadline::Disarm,
        }
    }
}

/// Whether a closing stream flushes its shard's pending batch, given each
/// run's `(of the closing stream, stream closed)`: only when it contributed
/// and every contributor is closed, so a word shared with live streams
/// waits for their deadline.
pub(super) fn close_flushes(mut runs: impl Iterator<Item = (bool, bool)> + Clone) -> bool {
    runs.clone().any(|(mine, _)| mine) && runs.all(|(_, closed)| closed)
}

#[cfg(test)]
mod explorer;
