//! Logical-error-rate sweeps over architecture points.
//!
//! The LER artefacts evaluate grids of `(architecture, distance, decoder)`
//! points. This module flattens such grids into [`LerPoint`]s and
//! evaluates them one after another, in input order; each point's
//! Monte-Carlo pipeline runs its chunk waves in parallel.
//!
//! # One compile per schedule
//!
//! A gate improvement only divides noise probabilities: it never changes
//! the mapping, the routing or the schedule. So a sweep does not compile
//! per point. Its [`ScheduleCache`] compiles each distinct (architecture
//! with the gate improvement set to 1, distance) once, keeps that
//! schedule's fault table with every channel's probability before the gate
//! improvement (`qccd_core::ScheduleFaults`), and re-weights the table to
//! each point's own gate improvement. `fig10`'s 18 points compile 6
//! schedules. The cache lives as long as one [`run_ler_sweep`] call or one
//! [`SpecPointJob`](crate::SpecPointJob); nothing is shared process-wide.
//!
//! # Determinism
//!
//! Every point samples with the seed `sweep_seed(sweep seed, point index)`
//! and results come back in input order, so a sweep's outcome is a pure
//! function of `(sweep seed, points)` — independent of thread counts,
//! scheduling, or which point of a schedule compiled it. A re-weighted
//! table is bit-equal to the table of a fresh compile at the point's gate
//! improvement, so every outcome equals [`Toolflow::estimate`] of its point.
//! The golden regression tests `tests/golden_sweep.rs` and
//! `tests/golden_shared_schedules.rs` pin this end to end (compiler →
//! sampler → decoder → estimator).

use std::cell::RefCell;

use qccd_core::{ArchitectureConfig, CompileError, ScheduleFaults, Toolflow};
use qccd_decoder::{
    estimate_logical_error_rate_from_table, fit_lambda_weighted, sweep_seed, CacheStats,
    DecoderKind, EstimatorConfig, LambdaFit, LogicalErrorEstimate,
};
use qccd_sim::FaultTable;

/// Sweep seed of the builtin specs (matches the `Toolflow` default).
pub const DEFAULT_SWEEP_SEED: u64 = 2026;

/// One logical-error-rate sweep point.
#[derive(Debug, Clone)]
pub struct LerPoint {
    /// Display label of the architecture/configuration.
    pub label: String,
    /// Architecture under evaluation.
    pub arch: ArchitectureConfig,
    /// Code distance of the rotated-surface-code workload.
    pub distance: usize,
    /// Decoder used for the estimate.
    pub decoder: DecoderKind,
    /// Monte-Carlo shots requested.
    pub shots: usize,
    /// Monte-Carlo pipeline configuration (chunking, threads, early stop,
    /// memoization).
    pub estimator: EstimatorConfig,
}

impl LerPoint {
    /// A point with the default (union-find) decoder and pipeline defaults.
    pub fn new(
        label: impl Into<String>,
        arch: ArchitectureConfig,
        distance: usize,
        shots: usize,
    ) -> Self {
        LerPoint {
            label: label.into(),
            arch,
            distance,
            decoder: DecoderKind::default(),
            shots,
            estimator: EstimatorConfig::default(),
        }
    }

    /// Overrides the decoder.
    pub fn with_decoder(mut self, decoder: DecoderKind) -> Self {
        self.decoder = decoder;
        self
    }

    /// Overrides the Monte-Carlo pipeline configuration.
    pub fn with_estimator(mut self, estimator: EstimatorConfig) -> Self {
        self.estimator = estimator;
        self
    }
}

/// The result of one sweep point.
#[derive(Debug, Clone)]
pub struct LerOutcome {
    /// Label of the evaluated point (copied from the input).
    pub label: String,
    /// Code distance of the evaluated point.
    pub distance: usize,
    /// Decoder used.
    pub decoder: DecoderKind,
    /// Deterministic per-point sampling seed: `sweep_seed(sweep seed, index)`.
    pub seed: u64,
    /// Shots requested (the estimate may stop earlier).
    pub shots_requested: usize,
    /// The Monte-Carlo estimate, or the compile error message.
    pub result: Result<LogicalErrorEstimate, String>,
    /// Aggregate decoder cache statistics of the estimate (word-triage
    /// verdicts, memo hit/miss counters); `None` on compile failure. The
    /// `*_words` counters and `uncacheable` are scheduling-invariant; see
    /// [`qccd_decoder::EstimateReport`] for the exact contract.
    pub cache: Option<CacheStats>,
}

/// The compiled schedules of one sweep, one per distinct (architecture with
/// the gate improvement set to 1, distance): each holds the schedule's
/// [`ScheduleFaults`], or the compile error, which no gate improvement
/// changes either. See the [module docs](self).
///
/// Keys compare with the architecture's `PartialEq`, so points that differ
/// in topology, capacity, wiring, operation times or any noise field but
/// the gate improvement never share an entry. A cache belongs to one
/// thread: the sweep that evaluates its points one after another.
#[derive(Debug, Default)]
pub struct ScheduleCache {
    entries: RefCell<Vec<ScheduleEntry>>,
}

#[derive(Debug)]
struct ScheduleEntry {
    arch: ArchitectureConfig,
    distance: usize,
    faults: Result<ScheduleFaults, CompileError>,
}

impl ScheduleCache {
    /// How many distinct schedules the cache holds.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.borrow().len()
    }

    /// The fault table of `point`: its schedule's table re-weighted to the
    /// point's gate improvement, compiling the schedule on first use.
    ///
    /// # Errors
    ///
    /// The schedule's compile error.
    pub fn fault_table(&self, point: &LerPoint) -> Result<FaultTable, CompileError> {
        let mut arch = point.arch.clone();
        arch.noise.gate_improvement = 1.0;
        let mut entries = self.entries.borrow_mut();
        let known = entries
            .iter()
            .position(|entry| entry.distance == point.distance && entry.arch == arch);
        let index = known.unwrap_or_else(|| {
            let program = Toolflow::new(arch.clone()).memory_program(point.distance);
            let faults = program.map(|program| {
                ScheduleFaults::lower(&program.schedule, &program.circuit, &program.arch.noise)
            });
            entries.push(ScheduleEntry {
                arch,
                distance: point.distance,
                faults,
            });
            entries.len() - 1
        });
        match &entries[index].faults {
            Ok(faults) => Ok(faults.at(point.arch.noise.gate_improvement)),
            Err(e) => Err(e.clone()),
        }
    }
}

/// Evaluates one sweep point at an explicit sampling seed: the point's
/// fault table from `schedules` (compiled once per schedule, re-weighted
/// per point), then the batch estimator — the same estimate, bit for bit,
/// as [`Toolflow::estimate`] of the point.
///
/// This is the single evaluation body shared by every execution tier —
/// [`run_ler_sweep`]'s in-process walk, and the sweeprun point store
/// through [`crate::point_job`] — so the outcome is a pure function of
/// `(point, seed)` no matter which tier computed it or which points
/// shared its schedule. A point that does not compile carries the error of
/// that `d`-round compile.
pub fn evaluate_ler_point(point: &LerPoint, seed: u64, schedules: &ScheduleCache) -> LerOutcome {
    let (result, cache) = match schedules.fault_table(point) {
        Ok(table) => {
            let report = estimate_logical_error_rate_from_table(
                &table,
                point.shots,
                seed,
                point.decoder,
                &point.estimator,
            );
            (Ok(report.estimate), Some(report.cache))
        }
        Err(e) => (Err(e.to_string()), None),
    };
    LerOutcome {
        label: point.label.clone(),
        distance: point.distance,
        decoder: point.decoder,
        seed,
        shots_requested: point.shots,
        result,
        cache,
    }
}

/// Runs every point through [`evaluate_ler_point`] in input order, point
/// `i` at `sweep_seed(seed, i)`, with one [`ScheduleCache`] for the call.
pub fn run_ler_sweep(seed: u64, points: &[LerPoint]) -> Vec<LerOutcome> {
    let schedules = ScheduleCache::default();
    points
        .iter()
        .enumerate()
        .map(|(index, point)| evaluate_ler_point(point, sweep_seed(seed, index as u64), &schedules))
        .collect()
}

/// A fitted logical-error-rate curve of one configuration.
#[derive(Debug, Clone)]
pub struct LerCurve {
    /// Label of the configuration.
    pub label: String,
    /// Successful `(distance, LER, standard error)` points.
    pub points: Vec<(usize, f64, f64)>,
    /// Weighted exponential-suppression fit over the points.
    pub fit: Option<LambdaFit>,
    /// Raw per-point outcomes (including failures).
    pub outcomes: Vec<LerOutcome>,
}

/// The flat configuration-major point grid of a LER sweep: configuration
/// `c`, distance `d` gets index `c · distances.len() + d` — the index (and
/// therefore seed) assignment every execution tier must agree on.
pub fn ler_sweep_points(
    configurations: &[(String, ArchitectureConfig)],
    distances: &[usize],
    shots: usize,
    decoder: DecoderKind,
    estimator: EstimatorConfig,
) -> Vec<LerPoint> {
    configurations
        .iter()
        .flat_map(|(label, arch)| {
            distances.iter().map(|&d| {
                LerPoint::new(label.clone(), arch.clone(), d, shots)
                    .with_decoder(decoder)
                    .with_estimator(estimator)
            })
        })
        .collect()
}

/// The flat point grid of a rare-event LER comparison: configuration-major,
/// then distance, with the plain Monte-Carlo point immediately before its
/// importance-sampled twin — configuration `c`, distance index `d` maps to
/// indices `2·(c·distances.len() + d)` (plain) and `+1` (biased). Like
/// [`ler_sweep_points`], this is the index (and therefore seed) assignment
/// every execution tier must agree on.
#[allow(clippy::too_many_arguments)]
pub fn rare_event_points(
    configurations: &[(String, ArchitectureConfig)],
    distances: &[usize],
    shots: usize,
    biased_shots: usize,
    bias: f64,
    decoder: DecoderKind,
    estimator: EstimatorConfig,
) -> Vec<LerPoint> {
    configurations
        .iter()
        .flat_map(|(label, arch)| {
            distances.iter().flat_map(move |&d| {
                let plain = LerPoint::new(label.clone(), arch.clone(), d, shots)
                    .with_decoder(decoder)
                    .with_estimator(estimator);
                let biased = LerPoint::new(label.clone(), arch.clone(), d, biased_shots)
                    .with_decoder(decoder)
                    .with_estimator(estimator.with_importance_bias(bias));
                [plain, biased]
            })
        })
        .collect()
}

/// Groups configuration-major sweep outcomes back into per-configuration
/// fitted curves. Outcomes must be in grid order ([`ler_sweep_points`]) —
/// exactly `configurations.len() × distances.len()` entries.
///
/// Compile failures are reported to stderr and excluded from the fit,
/// mirroring the historical serial behaviour; with empty `distances` every
/// configuration yields one empty (unfittable) curve.
pub fn ler_curves_from_outcomes(
    configurations: &[(String, ArchitectureConfig)],
    distances: &[usize],
    outcomes: &[LerOutcome],
) -> Vec<LerCurve> {
    if distances.is_empty() {
        return configurations
            .iter()
            .map(|(label, _)| LerCurve {
                label: label.clone(),
                points: Vec::new(),
                fit: None,
                outcomes: Vec::new(),
            })
            .collect();
    }
    outcomes
        .chunks(distances.len())
        .zip(configurations)
        .map(|(outcomes, (label, _))| {
            let mut curve_points = Vec::with_capacity(outcomes.len());
            for outcome in outcomes {
                match &outcome.result {
                    Ok(estimate) => curve_points.push((
                        outcome.distance,
                        estimate.logical_error_rate,
                        estimate.std_error,
                    )),
                    Err(e) => eprintln!("  [{label}] d={}: {e}", outcome.distance),
                }
            }
            LerCurve {
                label: label.clone(),
                fit: fit_lambda_weighted(&curve_points),
                points: curve_points,
                outcomes: outcomes.to_vec(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid_arch;

    #[test]
    fn sweep_points_get_distinct_seeds_and_keep_order() {
        let points: Vec<LerPoint> = [2usize, 3]
            .iter()
            .map(|&d| LerPoint::new("g", grid_arch(2, 10.0), d, 64))
            .collect();
        let outcomes = run_ler_sweep(DEFAULT_SWEEP_SEED, &points);
        assert_eq!(outcomes.len(), 2);
        assert_eq!(outcomes[0].distance, 2);
        assert_eq!(outcomes[1].distance, 3);
        assert_ne!(outcomes[0].seed, outcomes[1].seed);
        for outcome in &outcomes {
            assert!(outcome.result.is_ok(), "{:?}", outcome.result);
            let cache = outcome.cache.expect("successful points carry stats");
            assert_eq!(cache.words(), 1, "64 shots fit one word");
        }
    }

    #[test]
    fn only_the_gate_improvement_shares_a_schedule() {
        let base = grid_arch(2, 5.0);
        let mut variants = vec![
            ArchitectureConfig::new(
                qccd_hardware::TopologyKind::Grid,
                2,
                qccd_hardware::WiringMethod::Wise,
                5.0,
            ),
            grid_arch(3, 5.0),
        ];
        let mut vary = |change: &dyn Fn(&mut ArchitectureConfig)| {
            let mut arch = base.clone();
            change(&mut arch);
            variants.push(arch);
        };
        vary(&|a| a.operation_times.two_qubit_ms_us *= 2.0);
        vary(&|a| a.operation_times.shuttle_us += 1.0);
        vary(&|a| a.operation_times.cooling_overhead_us += 1.0);
        vary(&|a| a.noise.t2_seconds *= 2.0);
        vary(&|a| a.noise.background_heating_per_us *= 2.0);
        vary(&|a| a.noise.laser_instability_a0 *= 2.0);
        vary(&|a| a.noise.base_nbar += 1.0);
        vary(&|a| a.noise.reset_error *= 2.0);
        vary(&|a| a.noise.measurement_error *= 2.0);
        vary(&|a| a.noise.cooled = true);
        vary(&|a| a.noise.cooled_two_qubit_error *= 2.0);
        vary(&|a| a.noise.cooled_single_qubit_error *= 2.0);

        let cache = ScheduleCache::default();
        let point = |arch: &ArchitectureConfig| LerPoint::new("p", arch.clone(), 3, 64);
        for g in [1.0, 5.0, 10.0, 1000.0] {
            cache.fault_table(&point(&grid_arch(2, g))).unwrap();
        }
        assert_eq!(cache.len(), 1, "gate improvements share one schedule");
        cache
            .fault_table(&LerPoint::new("p", base.clone(), 5, 64))
            .unwrap();
        assert_eq!(cache.len(), 2, "another distance is another schedule");
        for (k, arch) in variants.iter().enumerate() {
            let table = cache.fault_table(&point(arch)).unwrap();
            assert_eq!(cache.len(), 3 + k, "variant {k} must not share an entry");
            let fresh = Toolflow::new(arch.clone())
                .memory_program(3)
                .unwrap()
                .to_noisy_circuit();
            assert_eq!(
                table,
                FaultTable::from_circuit(&fresh).unwrap(),
                "variant {k}"
            );
        }
    }

    #[test]
    fn compile_errors_are_cached_per_schedule() {
        // Capacity-2 linear traps cannot route a 2-D code, at any gate
        // improvement.
        let linear = |g| {
            ArchitectureConfig::new(
                qccd_hardware::TopologyKind::Linear,
                2,
                qccd_hardware::WiringMethod::Standard,
                g,
            )
        };
        let cache = ScheduleCache::default();
        let outcomes: Vec<LerOutcome> = [1.0, 5.0]
            .iter()
            .map(|&g| evaluate_ler_point(&LerPoint::new("l", linear(g), 3, 64), 7, &cache))
            .collect();
        assert_eq!(cache.len(), 1);
        let expected = Toolflow::new(linear(5.0))
            .estimate(3)
            .unwrap_err()
            .to_string();
        for outcome in outcomes {
            assert_eq!(outcome.result.unwrap_err(), expected);
            assert!(outcome.cache.is_none());
        }
    }

    #[test]
    fn empty_distances_yield_one_empty_curve_per_configuration() {
        let configurations = vec![
            ("a".to_string(), grid_arch(2, 10.0)),
            ("b".to_string(), grid_arch(3, 10.0)),
        ];
        let curves = ler_curves_from_outcomes(&configurations, &[], &[]);
        assert_eq!(curves.len(), 2);
        for curve in &curves {
            assert!(curve.points.is_empty());
            assert!(curve.fit.is_none());
            assert!(curve.outcomes.is_empty());
        }
    }

    #[test]
    fn rare_event_points_pair_plain_before_biased() {
        let configurations = vec![
            ("a".to_string(), grid_arch(2, 10.0)),
            ("b".to_string(), grid_arch(3, 10.0)),
        ];
        let distances = [2usize, 3];
        let points = rare_event_points(
            &configurations,
            &distances,
            64,
            16,
            8.0,
            DecoderKind::ExactMatching,
            EstimatorConfig::default(),
        );
        assert_eq!(points.len(), configurations.len() * distances.len() * 2);
        for (c, (label, _)) in configurations.iter().enumerate() {
            for (i, &d) in distances.iter().enumerate() {
                let base = 2 * (c * distances.len() + i);
                let (plain, biased) = (&points[base], &points[base + 1]);
                for point in [plain, biased] {
                    assert_eq!(&point.label, label);
                    assert_eq!(point.distance, d);
                    assert_eq!(point.decoder, DecoderKind::ExactMatching);
                }
                assert_eq!(plain.shots, 64);
                assert_eq!(plain.estimator.importance_bias, None);
                assert_eq!(biased.shots, 16);
                assert_eq!(biased.estimator.importance_bias, Some(8.0));
            }
        }
    }

    #[test]
    fn curves_group_configuration_major() {
        let configurations = vec![
            ("a".to_string(), grid_arch(2, 10.0)),
            ("b".to_string(), grid_arch(3, 10.0)),
        ];
        let distances = [2usize, 3];
        let points = ler_sweep_points(
            &configurations,
            &distances,
            64,
            DecoderKind::default(),
            EstimatorConfig::default(),
        );
        let outcomes = run_ler_sweep(1, &points);
        let curves = ler_curves_from_outcomes(&configurations, &distances, &outcomes);
        assert_eq!(curves.len(), 2);
        assert_eq!(curves[0].label, "a");
        assert_eq!(curves[1].label, "b");
        for curve in &curves {
            assert_eq!(curve.outcomes.len(), 2);
        }
    }
}
