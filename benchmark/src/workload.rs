//! What the driver needs from a workload.

use std::collections::BTreeMap;

use crate::trace::Tracer;

/// Operations an output check attempted and how many of them failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub attempted: u64,
    pub failed: u64,
}

impl Counts {
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// One attempted operation that failed iff `ok` is false.
    pub fn one(ok: bool) -> Counts {
        Counts {
            attempted: 1,
            failed: u64::from(!ok),
        }
    }
}

/// What one rep reports back (counted outside the rep's named spans, but
/// cheap enough to sit inside its timed region).
#[derive(Debug, Clone, Copy, Default)]
pub struct RepOutcome {
    /// Shots whose decoded observable differs from the sampled one.
    pub logical_failures: u64,
    /// Operations of the rep that failed or were refused.
    pub ops: Counts,
}

/// Layer metrics that are counts or ratios rather than span times.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// One benchmark workload. The driver calls `prepare` once, then
/// `build` + `rep` (+ `teardown`) as often as the timing rule needs.
pub trait Workload {
    /// Units of work (programs, shots, points) one rep completes.
    fn units_per_rep(&self) -> f64;

    /// Timed reps per second of `--seconds`, at the speed the benchmark was
    /// sized on. Rep counts — not durations — are fixed, so counts repeat
    /// exactly and two commits do the same work.
    fn reps_per_second(&self) -> f64;

    /// Generates the inputs from the seed. Never timed.
    fn prepare(&mut self, seed: u64);

    /// Builds every program object the reps need, from nothing (the driver
    /// has cleared the process-wide compile cache).
    fn build(&mut self, tracer: &mut Tracer);

    /// Runs rep `index` to completion.
    fn rep(&mut self, index: u64, tracer: &mut Tracer) -> RepOutcome;

    /// Drops what `build` made and stops every thread it started.
    fn teardown(&mut self);

    /// Checks the outputs against the reference path. Never timed.
    fn check(&mut self) -> Counts;

    /// Σ rounds and Σ `elapsed_time_us` of the memory-experiment programs
    /// the workload compiles (simulated time; exact for a given commit).
    fn schedule(&mut self) -> (u64, f64);

    /// Work only the traced run does: segments and reference timings that
    /// feed per-layer metrics and nothing gated.
    fn trace_extras(&mut self, _tracer: &mut Tracer, _values: &mut LayerValues) {}

    /// Counts and ratios gathered over the reps so far.
    fn layer_values(&mut self, _values: &mut LayerValues) {}
}
