//! The experiment registry: every paper artefact as a named declarative
//! spec, plus the executor that lowers specs onto the sweep engine.
//!
//! [`ExperimentRegistry::builtin`] registers all thirteen paper artefacts
//! (fig08a/fig08b/fig09/fig10/fig11/fig12/fig13a/fig13b/table2/table3/
//! ext_surgery/ext_decoder_comparison/ext_ablation_clustering) plus the
//! rare_event_ler validation;
//! [`ExperimentRegistry::run`] resolves a name and executes its spec on the
//! [`SweepEngine`], producing an [`Artifact`]. `artifacts run <name>` is
//! the one way to regenerate an artefact, and the golden tests pin its
//! numbers.

use std::collections::BTreeMap;

use qccd_baselines::{MuzzleShuttleCompiler, QccdSimCompiler};
use qccd_core::{
    cluster_qubits_with_strategy, cut_weight, theoretical, ArchitectureConfig, ClusteringStrategy,
    CompileError, CompiledProgram, Compiler, Toolflow,
};
use qccd_decoder::{
    estimate_logical_error_rate_from_table, DecoderKind, EstimatorConfig, LambdaFit, SweepEngine,
};
use qccd_hardware::{estimate_resources, OperationTimes, TopologyKind, WiringMethod};
use qccd_qec::{rotated_surface_code, surgery_workload, MergeKind};
use serde_json::Value;

use crate::artifact::{Artifact, ArtifactMetadata};
use crate::fmt_f64;
use crate::spec::{
    ArchPoint, ClusteringAblationSpec, CodeSpec, CompileCase, CompilerBoundsSpec,
    DecoderComparisonSpec, ExperimentKind, ExperimentSpec, LerOutput, LerSweepSpec,
    RareEventLerSpec, SpecError, SurgerySpec, TimingMetric, TimingSweepSpec,
};
use crate::sweep::{
    ler_curves_from_outcomes, ler_sweep_points, rare_event_points, run_ler_sweep, LerCurve,
    LerOutcome, LerPoint, ScheduleCache, DEFAULT_SWEEP_SEED,
};

/// Errors surfaced when resolving or executing a registered experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// No spec with that name is registered.
    UnknownName(String),
    /// The spec failed validation.
    Invalid(SpecError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::UnknownName(name) => {
                write!(f, "unknown experiment `{name}` (try `artifacts list`)")
            }
            RunError::Invalid(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Name → spec map of every runnable experiment.
#[derive(Debug, Clone, Default)]
pub struct ExperimentRegistry {
    specs: BTreeMap<String, ExperimentSpec>,
}

impl ExperimentRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        ExperimentRegistry::default()
    }

    /// The built-in registry: every paper table/figure plus the extension
    /// experiments, under the names the legacy binaries carried.
    pub fn builtin() -> Self {
        let mut registry = ExperimentRegistry::empty();
        for spec in builtin_specs() {
            registry
                .register(spec)
                .expect("built-in specs are valid and uniquely named");
        }
        registry
    }

    /// Registers a spec under its own name.
    ///
    /// # Errors
    ///
    /// Rejects invalid specs and duplicate names.
    pub fn register(&mut self, spec: ExperimentSpec) -> Result<(), SpecError> {
        spec.validate()?;
        if self.specs.contains_key(&spec.name) {
            return Err(SpecError(format!("duplicate spec name `{}`", spec.name)));
        }
        self.specs.insert(spec.name.clone(), spec);
        Ok(())
    }

    /// Resolves a spec by name.
    pub fn get(&self, name: &str) -> Option<&ExperimentSpec> {
        self.specs.get(name)
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.specs.keys().map(String::as_str).collect()
    }

    /// The registered specs, sorted by name.
    pub fn specs(&self) -> impl Iterator<Item = &ExperimentSpec> {
        self.specs.values()
    }

    /// Number of registered specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Resolves `name` and executes its spec.
    ///
    /// # Errors
    ///
    /// Returns [`RunError::UnknownName`] for unregistered names and
    /// [`RunError::Invalid`] for specs that fail validation.
    pub fn run(&self, name: &str) -> Result<Artifact, RunError> {
        let spec = self
            .get(name)
            .ok_or_else(|| RunError::UnknownName(name.to_string()))?;
        run_spec(spec)
    }
}

/// Executes one experiment spec end to end and returns its artifact.
///
/// A spec with a [`point_grid`] runs its points on the in-process
/// [`SweepEngine`] and assembles them with [`artifact_from_outcomes`] — the
/// function a point-store merge calls with the same outcomes.
///
/// # Errors
///
/// Returns [`RunError::Invalid`] when the spec fails validation. Compile
/// failures of individual points do not fail the run — they are rendered
/// into the affected cells.
pub fn run_spec(spec: &ExperimentSpec) -> Result<Artifact, RunError> {
    spec.validate().map_err(RunError::Invalid)?;
    if let Some(points) = point_grid(spec) {
        let outcomes = run_ler_sweep(&SweepEngine::new(spec.seed), &points);
        return artifact_from_outcomes(spec, &outcomes);
    }
    let output = match &spec.kind {
        ExperimentKind::LerSweep(_) | ExperimentKind::RareEventLer(_) => {
            unreachable!("grid kinds returned above")
        }
        ExperimentKind::TimingSweep(kind) => run_timing_sweep(kind, spec.seed),
        ExperimentKind::CompilerBounds(kind) => run_compiler_bounds(kind, spec.seed),
        ExperimentKind::BaselineComparison(kind) => run_baseline_comparison(kind),
        ExperimentKind::Surgery(kind) => run_surgery(kind, spec.seed),
        ExperimentKind::DecoderComparison(kind) => {
            run_decoder_comparison(kind, spec.seed, &ScheduleCache::default())
        }
        ExperimentKind::ClusteringAblation(kind) => run_clustering_ablation(kind, spec.seed),
    };
    Ok(artifact(spec, output))
}

type RunnerOutput = (Vec<String>, Vec<Vec<String>>, Vec<String>, Value);

fn artifact(spec: &ExperimentSpec, (headers, rows, notes, data): RunnerOutput) -> Artifact {
    Artifact {
        title: spec.title.clone(),
        headers,
        rows,
        notes,
        data,
        metadata: ArtifactMetadata::for_spec(spec),
    }
}

// ---------------------------------------------------------------------------
// Point grids: the Monte-Carlo sweeps whose points are independent
// ---------------------------------------------------------------------------

/// The built `(label, architecture)` pairs of a grid spec, in grid order.
fn configurations(points: &[ArchPoint]) -> Vec<(String, ArchitectureConfig)> {
    points
        .iter()
        .map(|point| (point.display_label(), point.build()))
        .collect()
}

/// The flat grid of independent Monte-Carlo points of `spec`, in the index
/// (and therefore seed) order every execution tier agrees on:
/// [`ler_sweep_points`] of an [`ExperimentKind::LerSweep`],
/// [`rare_event_points`] of an [`ExperimentKind::RareEventLer`]. `None` for
/// the other kinds, which are not grids of such points (timing sweeps
/// measure wall-clock; the rest are single compiles).
pub fn point_grid(spec: &ExperimentSpec) -> Option<Vec<LerPoint>> {
    match &spec.kind {
        ExperimentKind::LerSweep(kind) => Some(ler_sweep_points(
            &configurations(&kind.configurations),
            &kind.sample_distances,
            kind.shots,
            kind.decoder,
            kind.estimator,
        )),
        ExperimentKind::RareEventLer(kind) => Some(rare_event_points(
            &configurations(&kind.configurations),
            &kind.sample_distances,
            kind.shots,
            kind.biased_shots,
            kind.bias,
            kind.decoder,
            kind.estimator,
        )),
        _ => None,
    }
}

/// The error of asking a spec without a [`point_grid`] for one.
pub(crate) fn not_a_grid(spec: &ExperimentSpec) -> SpecError {
    SpecError(format!(
        "`{}` is not a LER sweep; only LER and rare-event sweeps support point-store \
         orchestration",
        spec.name
    ))
}

/// Assembles the artifact of a grid spec from its per-point outcomes, which
/// must be the full [`point_grid`] in order. [`run_spec`] calls this with
/// the outcomes of an in-process sweep and
/// [`merge_artifact`](crate::merge_artifact) with the ones read back from a
/// point store, so the two produce the same artifact by construction.
///
/// # Errors
///
/// Returns [`RunError::Invalid`] when the spec fails validation, has no
/// point grid, or the outcome count does not match the grid.
pub fn artifact_from_outcomes(
    spec: &ExperimentSpec,
    outcomes: &[LerOutcome],
) -> Result<Artifact, RunError> {
    spec.validate().map_err(RunError::Invalid)?;
    let expected = point_grid(spec)
        .ok_or_else(|| RunError::Invalid(not_a_grid(spec)))?
        .len();
    if outcomes.len() != expected {
        return Err(RunError::Invalid(SpecError(format!(
            "`{}` expects {expected} outcomes, got {}",
            spec.name,
            outcomes.len()
        ))));
    }
    let output = match &spec.kind {
        ExperimentKind::LerSweep(kind) => {
            let configurations = configurations(&kind.configurations);
            let curves =
                ler_curves_from_outcomes(&configurations, &kind.sample_distances, outcomes);
            ler_sweep_output(kind, &configurations, &curves)
        }
        ExperimentKind::RareEventLer(kind) => rare_event_output(kind, outcomes),
        _ => unreachable!("only the two grid kinds have a point grid"),
    };
    Ok(artifact(spec, output))
}

// ---------------------------------------------------------------------------
// LER sweeps (Figures 8b, 10, 11, 12, 13a, 13b)
// ---------------------------------------------------------------------------

fn lambda_json(fit: &Option<LambdaFit>) -> Value {
    match fit {
        Some(fit) => {
            let (lo, hi) = fit.lambda_confidence_interval(1.96);
            serde_json::json!({
                "value": fit.lambda(),
                "std_error": fit.lambda_std_error(),
                "ci95_low": lo,
                "ci95_high": hi,
                "dropped_points": fit.dropped_points as u64,
            })
        }
        None => Value::Null,
    }
}

fn lambda_cell(fit: &Option<LambdaFit>) -> String {
    match fit {
        Some(fit) => {
            let (lo, hi) = fit.lambda_confidence_interval(1.96);
            let mut cell = format!(
                "{} [{}, {}]",
                fmt_f64(fit.lambda()),
                fmt_f64(lo),
                fmt_f64(hi)
            );
            if fit.dropped_points > 0 {
                cell.push_str(&format!(" ({} pt dropped)", fit.dropped_points));
            }
            cell
        }
        None => "-".to_string(),
    }
}

/// `z` of the 95% confidence bands propagated into required-distance /
/// electrode / data-rate columns.
const CI_Z: f64 = 1.96;

/// The CI-banded required distance for `target`: the point estimate, the
/// rendered `d=… [lo, hi]` cell fragment, and the matching JSON object. The
/// band evaluates the fit at the Λ slope confidence edges
/// ([`LambdaFit::distance_range_for_target`]); an above-threshold shallow
/// edge renders as an unbounded `inf` upper edge.
fn distance_with_ci(fit: &LambdaFit, target: f64) -> Option<(usize, String, Value)> {
    let d = fit.distance_for_target(target)?;
    let (lo, hi) = fit
        .distance_range_for_target(target, CI_Z)
        .expect("point-estimate distance exists");
    let cell = match hi {
        Some(hi) if (lo, hi) == (d, d) => format!("d={d}"),
        Some(hi) => format!("d={d} [{lo}, {hi}]"),
        None => format!("d={d} [{lo}, inf)"),
    };
    let json = serde_json::json!({
        "distance": d as u64,
        "ci95_low": lo as u64,
        "ci95_high": match hi {
            Some(hi) => Value::from(hi as u64),
            None => Value::Null,
        },
    });
    Some((d, cell, json))
}

/// The largest distance a device is sized for. Every builtin artefact sizes
/// at most d = 34 (`fig11`), and sizing takes ~0.1 s at d = 201 and ~8 s at
/// d = 1 001 (release build), while a fit with Λ near 1 asks for thousands.
const MAX_SIZED_DISTANCE: usize = 101;

/// What a sized target cell of `output` (`Electrodes`, `DataRate` or
/// `ShotTime`) reports at the required distance `d`: its JSON fields and
/// its cell text. With `d` beyond [`MAX_SIZED_DISTANCE`] (`None`) nothing is
/// sized: every field is null and there is no text. A shot is `d` rounds of
/// one round compiled at `d` (what [`Toolflow::evaluate`] reports as
/// `qec_round_time_us`), NaN when the round does not compile.
fn sized_fields(
    output: &LerOutput,
    d: Option<usize>,
    configuration: &ArchitectureConfig,
) -> (Vec<(&'static str, Value)>, Option<String>) {
    let resources = |d: usize| {
        let device = configuration.device_for(rotated_surface_code(d.max(2)).num_qubits());
        estimate_resources(&device, configuration.wiring)
    };
    match output {
        LerOutput::Electrodes { .. } => {
            let electrodes = d.map(|d| resources(d).total_electrodes);
            let text = electrodes.map(|electrodes| electrodes.to_string());
            (vec![("electrodes", Value::from(electrodes))], text)
        }
        LerOutput::DataRate { include_power, .. } => {
            let resources = d.map(resources);
            let rate = resources.map(|r| r.data_rate_gbit_s);
            let power = resources.map(|r| r.power_w).filter(|_| *include_power);
            let mut fields = vec![("data_rate_gbit_s", Value::from(rate))];
            if *include_power {
                fields.push(("power_w", Value::from(power)));
            }
            let text = rate.map(|rate| match power {
                Some(power) => format!("{} Gbit/s, {} W", fmt_f64(rate), fmt_f64(power)),
                None => format!("{} Gbit/s", fmt_f64(rate)),
            });
            (fields, text)
        }
        LerOutput::ShotTime { .. } => {
            let shot = d.map(|d| {
                Compiler::new(configuration.clone())
                    .compile_rounds(&rotated_surface_code(d.max(2)), 1)
                    .map_or(f64::NAN, |round| round.elapsed_time_us() * d as f64)
            });
            let text = shot.map(|shot| format!("{} us", fmt_f64(shot)));
            (vec![("shot_time_us", Value::from(shot))], text)
        }
        _ => unreachable!("only target outputs are sized"),
    }
}

fn ler_sweep_output(
    kind: &LerSweepSpec,
    configurations: &[(String, ArchitectureConfig)],
    curves: &[LerCurve],
) -> RunnerOutput {
    let mut headers = vec!["Configuration".to_string()];
    for output in &kind.outputs {
        match output {
            LerOutput::SampledRates => {
                headers.extend(kind.sample_distances.iter().map(|d| format!("d={d} LER")));
            }
            LerOutput::Lambda => headers.push("Lambda [95% CI]".to_string()),
            LerOutput::Projection { distances, target } => {
                headers.extend(distances.iter().map(|d| format!("d={d} (proj)")));
                headers.push(format!("d for {target:e}"));
            }
            LerOutput::Electrodes { targets } => {
                headers.extend(targets.iter().map(|t| format!("LER {t:e}")));
            }
            LerOutput::DataRate { targets, .. } | LerOutput::ShotTime { targets } => {
                headers.extend(targets.iter().map(|t| format!("Target {t:e}")));
            }
        }
    }

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    for (curve, ((label, configuration), point)) in curves
        .iter()
        .zip(configurations.iter().zip(&kind.configurations))
    {
        let mut row = vec![label.clone()];
        let mut entry = serde_json::json!({
            "label": label,
            "topology": format!("{}", point.topology),
            "capacity": point.capacity,
            "wiring": format!("{}", point.wiring),
            "gate_improvement": point.gate_improvement,
            "sampled": curve
                .outcomes
                .iter()
                .filter_map(|outcome| {
                    outcome.result.as_ref().ok().map(|est| {
                        serde_json::json!({
                            "d": outcome.distance,
                            "ler": est.logical_error_rate,
                            "std_error": est.std_error,
                            "upper_bound": est.is_upper_bound(),
                        })
                    })
                })
                .collect::<Vec<_>>(),
            "lambda": lambda_json(&curve.fit),
        });

        // No fit at all (a point saw zero failures or failed to compile) is
        // a sweep that resolved nothing, not a configuration above threshold.
        let (no_projection, no_target) = match curve.fit {
            Some(_) => ("above-threshold", "above threshold"),
            None => ("unresolved", "unresolved"),
        };
        for output in &kind.outputs {
            match output {
                LerOutput::SampledRates => {
                    for &d in &kind.sample_distances {
                        row.push(sampled_rate_cell(curve, d));
                    }
                }
                LerOutput::Lambda => row.push(lambda_cell(&curve.fit)),
                LerOutput::Projection { distances, target } => match curve.fit {
                    Some(fit) if fit.below_threshold() => {
                        let mut projected = Vec::new();
                        for &d in distances {
                            let p = fit.project(d);
                            row.push(fmt_rate(p));
                            projected.push(serde_json::json!({"d": d, "ler": p}));
                        }
                        entry["projection"] = Value::Array(projected);
                        match distance_with_ci(&fit, *target) {
                            Some((d, cell, ci_json)) => {
                                row.push(cell);
                                entry["required_distance"] = Value::from(d as u64);
                                entry["required_distance_ci"] = ci_json;
                            }
                            None => {
                                row.push("-".to_string());
                                entry["required_distance"] = Value::Null;
                                entry["required_distance_ci"] = Value::Null;
                            }
                        }
                    }
                    _ => {
                        row.extend(vec![no_projection.to_string(); distances.len()]);
                        row.push("-".to_string());
                        entry["projection"] = Value::Array(Vec::new());
                        entry["required_distance"] = Value::Null;
                        entry["required_distance_ci"] = Value::Null;
                    }
                },
                LerOutput::Electrodes { targets }
                | LerOutput::DataRate { targets, .. }
                | LerOutput::ShotTime { targets } => {
                    for &target in targets {
                        let Some((d, cell, mut ci_json)) =
                            curve.fit.and_then(|fit| distance_with_ci(&fit, target))
                        else {
                            row.push(no_target.to_string());
                            continue;
                        };
                        let sized = Some(d).filter(|&d| d <= MAX_SIZED_DISTANCE);
                        let (fields, text) = sized_fields(output, sized, configuration);
                        for (key, value) in fields {
                            ci_json[key] = value;
                        }
                        row.push(match text {
                            Some(text) => format!("{text} ({cell})"),
                            None => format!("d={d} (beyond d_max)"),
                        });
                        entry[format!("target_{target:e}")] = ci_json;
                    }
                }
            }
        }
        rows.push(row);
        entries.push(entry);
    }
    (headers, rows, Vec::new(), Value::Array(entries))
}

/// The table cell of one sampled `(configuration, distance)` rate: the point
/// estimate, or — when the estimate saw zero failures — its 95% upper bound
/// rendered as `< bound`, so points below the sweep's resolution are never
/// reported as exactly zero.
fn sampled_rate_cell(curve: &LerCurve, d: usize) -> String {
    match curve.outcomes.iter().find(|o| o.distance == d) {
        Some(outcome) => match &outcome.result {
            Ok(est) => rate_cell(est),
            Err(_) => "NaN".into(),
        },
        None => "NaN".into(),
    }
}

/// One estimate as a table cell: the rate, or `< bound` after zero failures.
fn rate_cell(est: &qccd_decoder::LogicalErrorEstimate) -> String {
    match est.upper_bound_95() {
        Some(bound) => upper_bound_cell(bound),
        None => fmt_rate(est.logical_error_rate),
    }
}

/// Renders a zero-failure 95% upper bound as `< bound`. Always scientific
/// notation: rule-of-three bounds land anywhere in (0, 1), and the compact
/// `fmt_f64` would round e.g. 0.023 down to a misleading `0.0`.
fn upper_bound_cell(bound: f64) -> String {
    format!("< {bound:.1e}")
}

/// Formats a logical error rate (or its standard error) for a table cell:
/// always scientific with three significant digits, for the reason
/// [`upper_bound_cell`] gives — `fmt_f64` prints 3/1024 and 13/1024 alike
/// as `0.0`.
fn fmt_rate(rate: f64) -> String {
    if rate == 0.0 {
        "0".to_string()
    } else {
        format!("{rate:.2e}")
    }
}

// ---------------------------------------------------------------------------
// Rare-event LER comparison (importance-sampling validation)
// ---------------------------------------------------------------------------

/// JSON encoding of one estimate (plain or biased) in the rare-event
/// artifact.
fn rare_event_estimate_json(outcome: &LerOutcome) -> Value {
    match &outcome.result {
        Ok(est) => serde_json::json!({
            "seed": Value::from(outcome.seed),
            "shots": est.shots as u64,
            "failures": est.failures as u64,
            "ler": est.logical_error_rate,
            "std_error": est.std_error,
            "upper_bound": est.is_upper_bound(),
        }),
        Err(e) => serde_json::json!({ "error": e.clone() }),
    }
}

/// Renders one rare-event estimate cell: `ler ± σ`, `< bound` for
/// zero-failure estimates, or the compile-error marker.
fn rare_event_estimate_cell(outcome: &LerOutcome) -> String {
    match &outcome.result {
        Ok(est) => match est.upper_bound_95() {
            Some(bound) => upper_bound_cell(bound),
            None => format!(
                "{} +/- {}",
                fmt_rate(est.logical_error_rate),
                fmt_rate(est.std_error)
            ),
        },
        Err(_) => "compile error".to_string(),
    }
}

/// The agreement cell and JSON of a plain/biased estimate pair: the gap in
/// combined standard deviations when both estimates resolved, or the bound
/// check when one of them saw zero failures.
fn rare_event_agreement(
    plain: &qccd_decoder::LogicalErrorEstimate,
    biased: &qccd_decoder::LogicalErrorEstimate,
) -> (String, Value) {
    match (plain.is_upper_bound(), biased.is_upper_bound()) {
        (false, false) => {
            let gap = (plain.logical_error_rate - biased.logical_error_rate).abs();
            let sigma = gap / plain.std_error.hypot(biased.std_error);
            (
                format!("{} sigma", fmt_f64(sigma)),
                serde_json::json!({ "sigma": sigma }),
            )
        }
        (true, false) => {
            // Plain MC never saw a failure: the resolved importance-sampled
            // estimate must sit below the plain 95% upper bound.
            let below = biased.logical_error_rate <= plain.std_error;
            (
                if below { "below bound" } else { "ABOVE BOUND" }.to_string(),
                serde_json::json!({ "below_bound": below }),
            )
        }
        (false, true) => {
            let below = plain.logical_error_rate <= biased.std_error;
            (
                if below { "below bound" } else { "ABOVE BOUND" }.to_string(),
                serde_json::json!({ "below_bound": below }),
            )
        }
        (true, true) => ("unresolved".to_string(), Value::Null),
    }
}

/// The shot-efficiency factor of the importance-sampled estimate: how many
/// times more decoded shots the plain-MC estimator would need to reach the
/// importance-sampled relative error — `(N_plain·r_plain²)/(N_is·r_is²)`
/// with `r = σ/p̂` (shots to reach relative error ρ scale as `N·(r/ρ)²`).
/// `None` when either side has no resolved relative error (zero failures).
fn rare_event_efficiency(
    plain: &qccd_decoder::LogicalErrorEstimate,
    biased: &qccd_decoder::LogicalErrorEstimate,
) -> Option<f64> {
    if plain.is_upper_bound() || biased.is_upper_bound() || plain.shots == 0 || biased.shots == 0 {
        return None;
    }
    let rp = plain.std_error / plain.logical_error_rate;
    let rb = biased.std_error / biased.logical_error_rate;
    Some((plain.shots as f64 * rp * rp) / (biased.shots as f64 * rb * rb))
}

fn rare_event_output(kind: &RareEventLerSpec, outcomes: &[LerOutcome]) -> RunnerOutput {
    let headers = vec![
        "Configuration".to_string(),
        "d".to_string(),
        format!("Plain MC ({} shots)", kind.shots),
        format!(
            "Importance ({} shots, bias {})",
            kind.biased_shots, kind.bias
        ),
        "Agreement".to_string(),
        "Speedup @ equal rel. error".to_string(),
    ];

    let mut rows = Vec::new();
    let mut entries = Vec::new();
    let mut pairs = outcomes.chunks(2);
    for point in &kind.configurations {
        let label = point.display_label();
        for &d in &kind.sample_distances {
            let pair = pairs.next().expect("outcome count was validated");
            let (plain, biased) = (&pair[0], &pair[1]);
            let mut entry = serde_json::json!({
                "label": label,
                "topology": format!("{}", point.topology),
                "capacity": point.capacity,
                "wiring": format!("{}", point.wiring),
                "gate_improvement": point.gate_improvement,
                "distance": d,
                "bias": kind.bias,
                "plain": rare_event_estimate_json(plain),
                "biased": rare_event_estimate_json(biased),
            });
            let (agreement_cell, speedup_cell) = match (&plain.result, &biased.result) {
                (Ok(p), Ok(b)) => {
                    let (cell, json) = rare_event_agreement(p, b);
                    entry["agreement"] = json;
                    let speedup = rare_event_efficiency(p, b);
                    entry["speedup"] = match speedup {
                        Some(x) => Value::from(x),
                        None => Value::Null,
                    };
                    (
                        cell,
                        speedup.map(fmt_f64).unwrap_or_else(|| "inf".to_string()),
                    )
                }
                _ => {
                    entry["agreement"] = Value::Null;
                    entry["speedup"] = Value::Null;
                    ("-".to_string(), "-".to_string())
                }
            };
            rows.push(vec![
                label.clone(),
                format!("d={d}"),
                rare_event_estimate_cell(plain),
                rare_event_estimate_cell(biased),
                agreement_cell,
                speedup_cell,
            ]);
            entries.push(entry);
        }
    }

    let notes = vec![
        format!(
            "Importance sampling scales every physical noise probability by {} (clamped at 0.5), \
             decodes against the unbiased error model, and reweights each shot by its likelihood \
             ratio — both columns are unbiased estimators of the same logical error rate.",
            kind.bias
        ),
        "Reading: `< b` marks a zero-failure estimate reported as its 95% upper bound (rule of \
         three); agreement is the gap between the two estimates in combined standard deviations \
         (or the bound check when plain MC never failed); the speedup column is how many times \
         more decoded shots plain MC would need to match the importance-sampled relative error \
         (`inf` when plain MC saw no failures at all)."
            .to_string(),
    ];
    (headers, rows, notes, Value::Array(entries))
}

// ---------------------------------------------------------------------------
// Timing sweeps (Figures 8a, 9)
// ---------------------------------------------------------------------------

fn run_timing_sweep(kind: &TimingSweepSpec, seed: u64) -> RunnerOutput {
    let engine = SweepEngine::new(seed);
    let distances = &kind.distances;
    let metric = kind.metric;
    // Series values keep the metric-specific key the legacy artefacts used
    // (`round_time_us` for fig08a, `shot_time_us` for fig09) so downstream
    // plotting scripts keep working.
    let metric_key = match metric {
        TimingMetric::RoundTime => "round_time_us",
        TimingMetric::ShotTime => "shot_time_us",
    };
    let outcomes = engine.run(&kind.configurations, |task| {
        let point = task.point;
        let toolflow = Toolflow::new(point.build());
        let mut row = vec![point.display_label()];
        let mut series = Vec::new();
        for &d in distances {
            let value = toolflow.evaluate(d, false).ok().map(|m| match metric {
                TimingMetric::RoundTime => m.qec_round_time_us,
                TimingMetric::ShotTime => m.shot_time_us,
            });
            row.push(value.map(fmt_f64).unwrap_or_else(|| "NaN".into()));
            let mut sample = serde_json::json!({ "d": d });
            sample[metric_key] = Value::from(value);
            series.push(sample);
        }
        let entry = serde_json::json!({
            "label": point.display_label(),
            "topology": format!("{}", point.topology),
            "capacity": point.capacity,
            "series": series,
        });
        (row, entry)
    });
    let (mut rows, entries): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();

    if kind.include_bounds {
        // Frame the sweep with the fully-parallel lower bound and the
        // fully-serial (single ion chain) upper bound; for the shot-time
        // metric a shot is d rounds.
        let times = OperationTimes::paper_defaults();
        let mut lower = vec!["lower bound (no movement)".to_string()];
        let mut upper = vec!["upper bound (single chain)".to_string()];
        for &d in distances {
            let layout = rotated_surface_code(d);
            let rounds = match metric {
                TimingMetric::ShotTime => d as f64,
                TimingMetric::RoundTime => 1.0,
            };
            lower.push(fmt_f64(
                rounds * theoretical::parallel_round_lower_bound_us(&layout, &times),
            ));
            upper.push(fmt_f64(
                rounds * theoretical::serial_round_upper_bound_us(&layout, &times),
            ));
        }
        rows.push(lower);
        rows.push(upper);
    }

    let mut headers = vec!["Configuration".to_string()];
    headers.extend(distances.iter().map(|d| format!("d={d} (us)")));
    (headers, rows, Vec::new(), Value::Array(entries))
}

// ---------------------------------------------------------------------------
// Compiler vs theoretical bounds (Table 2)
// ---------------------------------------------------------------------------

fn run_compiler_bounds(kind: &CompilerBoundsSpec, seed: u64) -> RunnerOutput {
    let engine = SweepEngine::new(seed);
    let outcomes = engine.run(&kind.cases, |task| {
        let case = task.point;
        let layout = case.code.build();
        let arch =
            ArchitectureConfig::new(case.topology, case.capacity, WiringMethod::Standard, 1.0);
        let compiler = Compiler::new(arch.clone());
        match compiler.compile_rounds(&layout, 1) {
            Ok(program) => {
                let bounds = theoretical::bounds(
                    &layout,
                    &program.mapping,
                    case.topology,
                    &arch.operation_times,
                );
                let row = vec![
                    case.label.clone(),
                    format!("{} c{}", case.topology, case.capacity),
                    fmt_f64(bounds.parallel_lower_bound_us),
                    fmt_f64(program.elapsed_time_us()),
                    bounds.min_routing_ops.to_string(),
                    program.movement_ops().to_string(),
                ];
                let artefact = Some(serde_json::json!({
                    "case": case.label,
                    "topology": format!("{}", case.topology),
                    "capacity": case.capacity,
                    "lower_bound_us": bounds.parallel_lower_bound_us,
                    "measured_us": program.elapsed_time_us(),
                    "min_routing_ops": bounds.min_routing_ops,
                    "measured_routing_ops": program.movement_ops(),
                }));
                (row, artefact)
            }
            Err(e) => (
                vec![
                    case.label.clone(),
                    format!("{} c{}", case.topology, case.capacity),
                    "-".into(),
                    format!("failed: {e}"),
                    "-".into(),
                    "-".into(),
                ],
                None,
            ),
        }
    });
    let (rows, entries): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let data: Vec<_> = entries.into_iter().flatten().collect();
    let headers = vec![
        "QEC code".to_string(),
        "QCCD device".to_string(),
        "Min elapsed (us)".to_string(),
        "Measured elapsed (us)".to_string(),
        "Min routing ops".to_string(),
        "Measured routing ops".to_string(),
    ];
    (headers, rows, Vec::new(), Value::Array(data))
}

// ---------------------------------------------------------------------------
// Baseline comparison (Table 3)
// ---------------------------------------------------------------------------

fn run_baseline_comparison(kind: &crate::spec::BaselineComparisonSpec) -> RunnerOutput {
    let rounds = kind.rounds;
    let mut rows = Vec::new();
    let mut data = Vec::new();
    for case in &kind.cases {
        let layout = case.code.build();
        let arch =
            ArchitectureConfig::new(case.topology, case.capacity, WiringMethod::Standard, 1.0);
        // (movement time in µs, movement ops); `None` for a failed compile.
        let run = |result: Result<CompiledProgram, CompileError>| {
            result
                .ok()
                .map(|p| (p.movement_time_us(), p.movement_ops() as u64))
        };
        let results = [
            run(Compiler::new(arch.clone()).compile_rounds(&layout, rounds)),
            run(QccdSimCompiler::new(arch.clone()).compile_rounds(&layout, rounds)),
            run(MuzzleShuttleCompiler::new(arch.clone()).compile_rounds(&layout, rounds)),
        ];
        let mut entry = serde_json::json!({ "config": case.label });
        for (key, result) in ["ours", "qccdsim", "muzzle"].into_iter().zip(&results) {
            entry[key] = serde_json::json!({
                "movement_time_us": result.map(|r| r.0),
                "movement_ops": result.map(|r| r.1),
            });
        }
        data.push(entry);
        let nan = || "NaN".to_string();
        let mut row = vec![case.label.clone()];
        row.extend(results.iter().map(|r| r.map_or_else(nan, |r| fmt_f64(r.0))));
        row.extend(
            results
                .iter()
                .map(|r| r.map_or_else(nan, |r| r.1.to_string())),
        );
        rows.push(row);
    }
    let headers = vec![
        "Config".to_string(),
        "Ours time".to_string(),
        "QCCDSim time".to_string(),
        "Muzzle time".to_string(),
        "Ours ops".to_string(),
        "QCCDSim ops".to_string(),
        "Muzzle ops".to_string(),
    ];
    (headers, rows, Vec::new(), Value::Array(data))
}

// ---------------------------------------------------------------------------
// Extension experiments
// ---------------------------------------------------------------------------

fn run_surgery(kind: &SurgerySpec, seed: u64) -> RunnerOutput {
    let cases: Vec<(usize, usize)> = kind
        .capacities
        .iter()
        .flat_map(|&capacity| kind.distances.iter().map(move |&d| (capacity, d)))
        .collect();
    let merge = kind.merge;
    let improvement = kind.gate_improvement;
    let engine = SweepEngine::new(seed);
    let outcomes = engine.run(&cases, |task| {
        let (capacity, d) = *task.point;
        let toolflow = Toolflow::new(ArchitectureConfig::new(
            TopologyKind::Grid,
            capacity,
            WiringMethod::Standard,
            improvement,
        ));
        let workload = surgery_workload(d, merge);
        let patch = toolflow.evaluate_layout(&workload.patch, 1, false);
        let merged = toolflow.evaluate_layout(&workload.merged, 1, false);
        let (patch_us, patch_moves) = match &patch {
            Ok(m) => (Some(m.qec_round_time_us), Some(m.movement_ops_per_round)),
            Err(_) => (None, None),
        };
        let (merged_us, merged_moves) = match &merged {
            Ok(m) => (Some(m.qec_round_time_us), Some(m.movement_ops_per_round)),
            Err(_) => (None, None),
        };
        let ratio = match (patch_us, merged_us) {
            (Some(p), Some(m)) if p > 0.0 => Some(m / p),
            _ => None,
        };
        let row = vec![
            format!("c{capacity} d={d}"),
            format!("{}", workload.patch.num_qubits()),
            format!("{}", workload.merged.num_qubits()),
            patch_us.map(fmt_f64).unwrap_or_else(|| "NaN".into()),
            merged_us.map(fmt_f64).unwrap_or_else(|| "NaN".into()),
            ratio
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "NaN".into()),
            patch_moves
                .map(|m| m.to_string())
                .unwrap_or_else(|| "NaN".into()),
            merged_moves
                .map(|m| m.to_string())
                .unwrap_or_else(|| "NaN".into()),
        ];
        let entry = serde_json::json!({
            "capacity": capacity,
            "distance": d,
            "patch_qubits": workload.patch.num_qubits(),
            "merged_qubits": workload.merged.num_qubits(),
            "patch_round_us": patch_us,
            "merged_round_us": merged_us,
            "merged_over_patch": ratio,
            "patch_movement_ops": patch_moves,
            "merged_movement_ops": merged_moves,
        });
        (row, entry)
    });
    let (rows, entries): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let headers = [
        "Configuration",
        "Patch qubits",
        "Merged qubits",
        "Patch round (us)",
        "Merged round (us)",
        "Merged / patch",
        "Patch moves",
        "Merged moves",
    ]
    .map(String::from)
    .to_vec();
    let notes = vec![
        "Reading: a merged/patch ratio near 1.0 at capacity 2 confirms the paper's §8 claim \
         that the capacity-2 grid keeps its constant round time under lattice surgery."
            .to_string(),
    ];
    (headers, rows, notes, Value::Array(entries))
}

/// Every decoder of `kind` on every (gate improvement, distance) case. A
/// case's fault table comes from `schedules`, which compiles each distance
/// once and re-weights it per gate improvement; every decoder estimates
/// from that one table.
fn run_decoder_comparison(
    kind: &DecoderComparisonSpec,
    seed: u64,
    schedules: &ScheduleCache,
) -> RunnerOutput {
    let cases: Vec<(f64, usize)> = kind
        .improvements
        .iter()
        .flat_map(|&improvement| kind.distances.iter().map(move |&d| (improvement, d)))
        .collect();
    let decoders = kind.decoders.clone();
    let shots = kind.shots;
    let capacity = kind.capacity;
    let engine = SweepEngine::new(seed);
    let outcomes = engine.run(&cases, |task| {
        let (improvement, d) = *task.point;
        let arch = ArchitectureConfig::new(
            TopologyKind::Grid,
            capacity,
            WiringMethod::Standard,
            improvement,
        );
        let mut row = vec![format!("{improvement:.0}X d={d}")];
        let mut entry = serde_json::json!({
            "gate_improvement": improvement,
            "distance": d,
            "shots": shots,
            "seed": task.seed,
        });
        // Like every other runner, render compile failures into the row
        // instead of failing the whole sweep.
        let table = match schedules.fault_table(&LerPoint::new("", arch, d, shots)) {
            Ok(table) => table,
            Err(e) => {
                row.extend(vec![format!("failed: {e}"); decoders.len()]);
                entry["error"] = Value::from(e.to_string());
                return (row, entry);
            }
        };
        let config = EstimatorConfig::default();
        for &decoder in &decoders {
            let estimate =
                estimate_logical_error_rate_from_table(&table, shots, task.seed, decoder, &config)
                    .estimate;
            row.push(rate_cell(&estimate));
            entry[format!("{decoder:?}")] = serde_json::json!(estimate.logical_error_rate);
        }
        (row, entry)
    });
    let (rows, entries): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let mut headers = vec!["Configuration".to_string()];
    headers.extend(kind.decoders.iter().map(|&decoder| {
        let (.., display) = DecoderKind::NAMES
            .iter()
            .find(|(named, ..)| *named == decoder)
            .expect("every decoder kind has a display name");
        display.to_string()
    }));
    let notes = vec![format!(
        "Reading: the exact matching decoder is the accuracy reference (a minimum-weight \
         perfect matching of every shot); union-find should read at most a small factor worse. \
         The ordering of architectures (not shown here) is unchanged by the decoder choice — \
         see the Toolflow decoder option ({:?} is the default).",
        DecoderKind::default()
    )];
    (headers, rows, notes, Value::Array(entries))
}

fn run_clustering_ablation(kind: &ClusteringAblationSpec, seed: u64) -> RunnerOutput {
    let cases: Vec<(usize, usize)> = kind
        .distances
        .iter()
        .flat_map(|&d| kind.capacities.iter().map(move |&capacity| (d, capacity)))
        .collect();
    let engine = SweepEngine::new(seed);
    let outcomes = engine.run(&cases, |task| {
        let (d, capacity) = *task.point;
        let layout = rotated_surface_code(d);
        let cluster_size = capacity - 1;
        let geometric_cut = cut_weight(
            &layout,
            &cluster_qubits_with_strategy(&layout, cluster_size, ClusteringStrategy::Geometric),
        );
        let blind_cut = cut_weight(
            &layout,
            &cluster_qubits_with_strategy(&layout, cluster_size, ClusteringStrategy::RoundRobin),
        );

        let arch =
            ArchitectureConfig::new(TopologyKind::Grid, capacity, WiringMethod::Standard, 1.0);
        let geometric = Compiler::new(arch.clone()).compile_rounds(&layout, 1).ok();
        let blind = Compiler::new(arch)
            .with_mapping_strategy(ClusteringStrategy::RoundRobin)
            .compile_rounds(&layout, 1)
            .ok();

        let fmt_opt_time = |p: &Option<CompiledProgram>| {
            p.as_ref()
                .map(|p| fmt_f64(p.elapsed_time_us()))
                .unwrap_or_else(|| "NaN".into())
        };
        let fmt_opt_moves = |p: &Option<CompiledProgram>| {
            p.as_ref()
                .map(|p| p.movement_ops().to_string())
                .unwrap_or_else(|| "NaN".into())
        };
        let row = vec![
            format!("d={d} c{capacity}"),
            fmt_f64(geometric_cut),
            fmt_f64(blind_cut),
            fmt_opt_moves(&geometric),
            fmt_opt_moves(&blind),
            fmt_opt_time(&geometric),
            fmt_opt_time(&blind),
        ];
        let entry = serde_json::json!({
            "distance": d,
            "capacity": capacity,
            "geometric_cut_weight": geometric_cut,
            "round_robin_cut_weight": blind_cut,
            "geometric_movement_ops": geometric.as_ref().map(|p| p.movement_ops()),
            "round_robin_movement_ops": blind.as_ref().map(|p| p.movement_ops()),
            "geometric_round_us": geometric.as_ref().map(|p| p.elapsed_time_us()),
            "round_robin_round_us": blind.as_ref().map(|p| p.elapsed_time_us()),
        });
        (row, entry)
    });
    let (rows, entries): (Vec<_>, Vec<_>) = outcomes.into_iter().unzip();
    let headers = [
        "Configuration",
        "Cut weight (geo)",
        "Cut weight (RR)",
        "Moves (geo)",
        "Moves (RR)",
        "Round us (geo)",
        "Round us (RR)",
    ]
    .map(String::from)
    .to_vec();
    let notes = vec![
        "Reading: the round-robin ablation cuts far more interaction edges, which turns into \
         more ion movement and longer rounds — the gap is the value of the §4.2 geometric \
         partition."
            .to_string(),
    ];
    (headers, rows, notes, Value::Array(entries))
}

// ---------------------------------------------------------------------------
// Built-in specs (the thirteen paper artefacts plus the rare-event validation)
// ---------------------------------------------------------------------------

fn ler_spec(
    name: &str,
    title: &str,
    configurations: Vec<ArchPoint>,
    sample_distances: Vec<usize>,
    outputs: Vec<LerOutput>,
) -> ExperimentSpec {
    ExperimentSpec {
        name: name.into(),
        title: title.into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::LerSweep(LerSweepSpec {
            configurations,
            sample_distances,
            shots: crate::DEFAULT_SHOTS,
            decoder: DecoderKind::default(),
            estimator: Default::default(),
            outputs,
        }),
    }
}

fn builtin_specs() -> Vec<ExperimentSpec> {
    let mut specs = Vec::new();

    // Table 2: compiler vs theoretical bounds.
    let mut table2_cases = Vec::new();
    for d in [3usize, 6] {
        for capacity in [2usize, 3, 4, 64] {
            table2_cases.push(CompileCase::new(
                format!("Repetition d={d}"),
                CodeSpec::Repetition { distance: d },
                TopologyKind::Linear,
                capacity,
            ));
        }
    }
    table2_cases.push(CompileCase::new(
        "Rotated surface d=2",
        CodeSpec::RotatedSurface { distance: 2 },
        TopologyKind::Grid,
        2,
    ));
    table2_cases.push(CompileCase::new(
        "Unrotated surface d=2",
        CodeSpec::UnrotatedSurface { distance: 2 },
        TopologyKind::Grid,
        3,
    ));
    table2_cases.push(CompileCase::new(
        "Rotated surface d=3",
        CodeSpec::RotatedSurface { distance: 3 },
        TopologyKind::Grid,
        2,
    ));
    table2_cases.push(CompileCase::new(
        "Rotated surface d=3",
        CodeSpec::RotatedSurface { distance: 3 },
        TopologyKind::Switch,
        2,
    ));
    table2_cases.push(CompileCase::new(
        "Rotated surface d=6",
        CodeSpec::RotatedSurface { distance: 6 },
        TopologyKind::Grid,
        2,
    ));
    table2_cases.push(CompileCase::new(
        "Rotated surface d=12",
        CodeSpec::RotatedSurface { distance: 12 },
        TopologyKind::Grid,
        2,
    ));
    specs.push(ExperimentSpec {
        name: "table2".into(),
        title: "Table 2: compiler vs theoretical bounds (one QEC round)".into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::CompilerBounds(CompilerBoundsSpec {
            cases: table2_cases,
        }),
    });

    // Table 3: baseline compiler comparison.
    let mut table3_cases = Vec::new();
    for d in [3usize, 5, 7] {
        for cap in [2usize, 3, 5] {
            table3_cases.push(CompileCase::new(
                format!("R,{d},{cap},L"),
                CodeSpec::Repetition { distance: d },
                TopologyKind::Linear,
                cap,
            ));
        }
    }
    for d in [2usize, 3, 4, 5] {
        for cap in [2usize, 3, 5] {
            table3_cases.push(CompileCase::new(
                format!("S,{d},{cap},G"),
                CodeSpec::RotatedSurface { distance: d },
                TopologyKind::Grid,
                cap,
            ));
        }
    }
    specs.push(ExperimentSpec {
        name: "table3".into(),
        title: "Table 3: movement time (us, 5 rounds) and movement operations".into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::BaselineComparison(crate::spec::BaselineComparisonSpec {
            cases: table3_cases,
            rounds: 5,
        }),
    });

    // Figure 8(a): round time vs distance per topology and capacity.
    let fig08a_configs: Vec<ArchPoint> = [
        TopologyKind::Linear,
        TopologyKind::Grid,
        TopologyKind::Switch,
    ]
    .iter()
    .flat_map(|&topology| {
        [2usize, 5, 12]
            .iter()
            .map(move |&capacity| ArchPoint::new(topology, capacity, WiringMethod::Standard, 1.0))
    })
    .collect();
    specs.push(ExperimentSpec {
        name: "fig08a".into(),
        title: "Figure 8(a): QEC round time vs code distance".into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::TimingSweep(TimingSweepSpec {
            configurations: fig08a_configs,
            distances: vec![2, 3, 4, 5, 7, 9],
            metric: TimingMetric::RoundTime,
            include_bounds: false,
        }),
    });

    // Figure 8(b): LER vs distance per topology and capacity (5X gates).
    let fig08b_configs: Vec<ArchPoint> = [TopologyKind::Grid, TopologyKind::Switch]
        .iter()
        .flat_map(|&topology| {
            [2usize, 5, 12].iter().map(move |&capacity| {
                ArchPoint::new(topology, capacity, WiringMethod::Standard, 5.0)
            })
        })
        .collect();
    specs.push(ler_spec(
        "fig08b",
        "Figure 8(b): logical error rate vs code distance (5X gates)",
        fig08b_configs,
        vec![3, 5],
        vec![LerOutput::SampledRates, LerOutput::Lambda],
    ));

    // Figure 9: shot time vs trap capacity, framed by theoretical bounds.
    specs.push(ExperimentSpec {
        name: "fig09".into(),
        title: "Figure 9: QEC shot time vs trap capacity".into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::TimingSweep(TimingSweepSpec {
            configurations: [2usize, 3, 5, 12, 30]
                .iter()
                .map(|&capacity| {
                    ArchPoint::grid(capacity, 1.0).with_label(format!("capacity {capacity}"))
                })
                .collect(),
            distances: vec![3, 5, 7, 9],
            metric: TimingMetric::ShotTime,
            include_bounds: true,
        }),
    });

    // Figure 10: projected LER vs distance and gate improvement.
    let fig10_configs: Vec<ArchPoint> = [1.0f64, 5.0, 10.0]
        .iter()
        .flat_map(|&improvement| {
            [2usize, 5, 12].iter().map(move |&capacity| {
                ArchPoint::grid(capacity, improvement)
                    .with_label(format!("{improvement:.0}X c{capacity}"))
            })
        })
        .collect();
    specs.push(ler_spec(
        "fig10",
        "Figure 10: logical error rate vs distance and gate improvement (grid)",
        fig10_configs,
        vec![3, 5],
        vec![
            LerOutput::SampledRates,
            LerOutput::Projection {
                distances: vec![7, 9, 11, 13, 15, 17],
                target: 1e-9,
            },
            LerOutput::Lambda,
        ],
    ));

    // Figure 11: electrodes required for a target LER.
    specs.push(ler_spec(
        "fig11",
        "Figure 11: electrodes required for a target logical error rate (5X gates)",
        [2usize, 5, 12]
            .iter()
            .map(|&capacity| {
                ArchPoint::grid(capacity, 5.0).with_label(format!("capacity {capacity}"))
            })
            .collect(),
        vec![3, 5],
        vec![
            LerOutput::Electrodes {
                targets: vec![1e-6, 1e-9, 1e-12],
            },
            LerOutput::Lambda,
        ],
    ));

    // Figure 12: data rate and power for a target LER.
    specs.push(ler_spec(
        "fig12",
        "Figure 12: data rate and power needed for a target logical error rate \
         (standard wiring, 5X gates)",
        [2usize, 5, 12]
            .iter()
            .map(|&capacity| {
                ArchPoint::grid(capacity, 5.0).with_label(format!("capacity {capacity}"))
            })
            .collect(),
        vec![3, 5],
        vec![
            LerOutput::DataRate {
                targets: vec![1e-6, 1e-9],
                include_power: true,
            },
            LerOutput::Lambda,
        ],
    ));

    // Figure 13(a): data rate, standard vs WISE wiring.
    specs.push(ler_spec(
        "fig13a",
        "Figure 13(a): data rate vs target logical error rate (standard vs WISE, 5X gates)",
        vec![
            ArchPoint::grid(2, 5.0).with_label("standard c2"),
            ArchPoint::new(TopologyKind::Grid, 2, WiringMethod::Wise, 5.0).with_label("WISE c2"),
            ArchPoint::new(TopologyKind::Grid, 5, WiringMethod::Wise, 5.0).with_label("WISE c5"),
            ArchPoint::new(TopologyKind::Grid, 12, WiringMethod::Wise, 5.0).with_label("WISE c12"),
        ],
        vec![3, 5],
        vec![
            LerOutput::DataRate {
                targets: vec![1e-6, 1e-9],
                include_power: false,
            },
            LerOutput::Lambda,
        ],
    ));

    // Figure 13(b): shot time, standard vs WISE wiring.
    specs.push(ler_spec(
        "fig13b",
        "Figure 13(b): QEC shot time vs target logical error rate (standard vs WISE, 5X gates)",
        vec![
            ArchPoint::grid(2, 5.0).with_label("standard c2"),
            ArchPoint::new(TopologyKind::Grid, 2, WiringMethod::Wise, 5.0).with_label("WISE c2"),
            ArchPoint::new(TopologyKind::Grid, 5, WiringMethod::Wise, 5.0).with_label("WISE c5"),
        ],
        vec![3, 5],
        vec![
            LerOutput::ShotTime {
                targets: vec![1e-6, 1e-9],
            },
            LerOutput::Lambda,
        ],
    ));

    // Extension E1: lattice surgery.
    specs.push(ExperimentSpec {
        name: "ext_surgery".into(),
        title: "Extension E1: lattice-surgery merged patch vs isolated patch \
                (grid, standard wiring, 1X gates)"
            .into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::Surgery(SurgerySpec {
            capacities: vec![2, 6, 12],
            distances: vec![2, 3, 4],
            merge: MergeKind::ZZ,
            gate_improvement: 1.0,
        }),
    });

    // Extension E3: decoder ablation.
    specs.push(ExperimentSpec {
        name: "ext_decoder_comparison".into(),
        title: "Extension E3: logical error rate per decoder (grid, capacity 2, standard wiring)"
            .into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::DecoderComparison(DecoderComparisonSpec {
            distances: vec![3, 5],
            improvements: vec![5.0, 10.0],
            decoders: vec![DecoderKind::UnionFind, DecoderKind::ExactMatching],
            shots: crate::DEFAULT_SHOTS,
            capacity: 2,
        }),
    });

    // Rare-event validation: the importance-sampled estimator against plain
    // Monte Carlo where a distance-d code makes failures rare. At 5X both
    // estimators resolve every distance — the overlap rows cross-check them
    // within their combined error bars, and the speedup column shows the
    // biased run needing several times fewer decoded shots at equal relative
    // error. At 20X d=3 they still overlap; from d=5 plain MC sees no failure
    // in 200k shots and renders its 95% upper bound, while the biased run
    // still produces a resolved estimate below that bound.
    specs.push(ExperimentSpec {
        name: "rare_event_ler".into(),
        title: "Rare-event validation: importance-sampled vs plain Monte-Carlo LER \
                (grid c2, standard wiring)"
            .into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::RareEventLer(RareEventLerSpec {
            configurations: vec![
                ArchPoint::grid(2, 5.0).with_label("5X c2"),
                ArchPoint::grid(2, 20.0).with_label("20X c2"),
            ],
            sample_distances: vec![3, 5, 7],
            shots: 200_000,
            biased_shots: 40_000,
            bias: 6.0,
            decoder: DecoderKind::default(),
            estimator: Default::default(),
        }),
    });

    // Extension E2: clustering ablation.
    specs.push(ExperimentSpec {
        name: "ext_ablation_clustering".into(),
        title: "Extension E2: geometric vs round-robin clustering \
                (grid, standard wiring, 1X gates)"
            .into(),
        seed: DEFAULT_SWEEP_SEED,
        kind: ExperimentKind::ClusteringAblation(ClusteringAblationSpec {
            distances: vec![3, 5],
            capacities: vec![3, 5, 9],
        }),
    });

    specs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_contains_all_paper_artefacts() {
        let registry = ExperimentRegistry::builtin();
        let expected = [
            "ext_ablation_clustering",
            "ext_decoder_comparison",
            "ext_surgery",
            "fig08a",
            "fig08b",
            "fig09",
            "fig10",
            "fig11",
            "fig12",
            "fig13a",
            "fig13b",
            "rare_event_ler",
            "table2",
            "table3",
        ];
        assert_eq!(registry.names(), expected);
        for spec in registry.specs() {
            assert!(spec.validate().is_ok(), "{} must validate", spec.name);
        }
    }

    #[test]
    fn register_rejects_duplicates_and_invalid_specs() {
        let mut registry = ExperimentRegistry::empty();
        let spec = builtin_specs().remove(0);
        registry.register(spec.clone()).unwrap();
        assert!(registry.register(spec.clone()).is_err(), "duplicate name");
        let mut invalid = spec;
        invalid.name = "broken".into();
        if let ExperimentKind::CompilerBounds(ref mut kind) = invalid.kind {
            kind.cases.clear();
        }
        assert!(registry.register(invalid).is_err());
    }

    #[test]
    fn table3_data_holds_numbers_and_its_cells_render_them() {
        let artifact = ExperimentRegistry::builtin().run("table3").unwrap();
        let data = artifact.data.as_array().unwrap();
        assert_eq!(data.len(), artifact.rows.len());
        for (entry, row) in data.iter().zip(&artifact.rows) {
            assert_eq!(entry["config"].as_str(), Some(row[0].as_str()));
            for (column, key) in ["ours", "qccdsim", "muzzle"].into_iter().enumerate() {
                let (time, ops) = (&entry[key]["movement_time_us"], &entry[key]["movement_ops"]);
                let (time_cell, ops_cell) = (&row[1 + column], &row[4 + column]);
                if time_cell == "NaN" {
                    assert!(time.is_null() && ops.is_null(), "{entry}");
                } else {
                    assert_eq!(&fmt_f64(time.as_f64().unwrap()), time_cell, "{entry}");
                    assert_eq!(&ops.as_u64().unwrap().to_string(), ops_cell, "{entry}");
                }
            }
        }
    }

    #[test]
    fn unknown_name_is_reported() {
        let registry = ExperimentRegistry::builtin();
        assert_eq!(
            registry.run("fig99"),
            Err(RunError::UnknownName("fig99".into()))
        );
    }

    #[test]
    fn fig09_artifact_has_bounds_rows_and_valid_schema() {
        let registry = ExperimentRegistry::builtin();
        let artifact = registry.run("fig09").unwrap();
        // 5 capacities + lower/upper bound rows.
        assert_eq!(artifact.rows.len(), 7);
        assert_eq!(artifact.headers.len(), 5);
        assert!(artifact.rows[5][0].contains("lower bound"));
        assert!(artifact.rows[6][0].contains("upper bound"));
        assert_eq!(artifact.metadata.spec_name, "fig09");
        assert!(artifact.metadata.thread_invariant);
        crate::artifact::validate_artifact_json(&artifact.to_json()).unwrap();
    }

    #[test]
    fn required_distance_cells_carry_ci_bands() {
        // A synthetic tight fit: slope −0.8 ± 0.05.
        let fit = LambdaFit {
            log_intercept: -1.2,
            log_slope: -0.8,
            log_intercept_std_error: 0.1,
            log_slope_std_error: 0.05,
            dropped_points: 0,
        };
        let (d, cell, json) = distance_with_ci(&fit, 1e-9).unwrap();
        assert_eq!(d, fit.distance_for_target(1e-9).unwrap());
        let lo = json.get("ci95_low").and_then(Value::as_u64).unwrap() as usize;
        let hi = json.get("ci95_high").and_then(Value::as_u64).unwrap() as usize;
        assert!(lo <= d && d <= hi, "{lo} <= {d} <= {hi}");
        assert!(cell.starts_with(&format!("d={d}")), "{cell}");
        assert!(
            cell.contains(&format!("[{lo}, {hi}]")) || lo == hi,
            "{cell}"
        );
        // A slope whose CI crosses zero renders an unbounded upper edge.
        let wobbly = LambdaFit {
            log_slope_std_error: 0.5,
            ..fit
        };
        let (_, cell, json) = distance_with_ci(&wobbly, 1e-9).unwrap();
        assert!(cell.ends_with("inf)"), "{cell}");
        assert!(json.get("ci95_high").unwrap().is_null());
        // Above threshold: no distance, no band.
        let above = LambdaFit {
            log_slope: 0.3,
            ..fit
        };
        assert!(distance_with_ci(&above, 1e-9).is_none());
    }

    #[test]
    fn a_distance_beyond_d_max_sizes_no_device() {
        // Two points one failure apart in 2 000 shots at d = 3 and 5: 100
        // vs 99 failures ask for d = 3 531, 800 vs 799 for d = 31 675. A
        // slope of −1e-300 saturates the distance.
        let two_points = |f3: f64, f5: f64| {
            let point = |d, failures: f64| (d, failures / 2000.0, 1e-3);
            qccd_decoder::fit_lambda_weighted(&[point(3, f3), point(5, f5)]).unwrap()
        };
        let flat = LambdaFit {
            log_intercept: -1.2,
            log_slope: -1e-300,
            log_intercept_std_error: 0.1,
            log_slope_std_error: 0.05,
            dropped_points: 0,
        };
        let fits = [
            (two_points(100.0, 99.0), 3531),
            (two_points(800.0, 799.0), 31675),
            (flat, usize::MAX),
        ];
        let registry = ExperimentRegistry::builtin();
        let ExperimentKind::LerSweep(mut kind) = registry.get("fig10").unwrap().kind.clone() else {
            panic!("fig10 changed kind");
        };
        kind.configurations.truncate(1);
        let configurations = vec![("g".to_string(), kind.configurations[0].build())];
        let targets = vec![1e-9];
        let outputs = [
            (
                LerOutput::Electrodes {
                    targets: targets.clone(),
                },
                &["electrodes"][..],
            ),
            (
                LerOutput::DataRate {
                    targets: targets.clone(),
                    include_power: true,
                },
                &["data_rate_gbit_s", "power_w"],
            ),
            (LerOutput::ShotTime { targets }, &["shot_time_us"]),
        ];
        for (fit, d) in fits {
            let cell = format!("d={d} (beyond d_max)");
            for (output, keys) in &outputs {
                kind.outputs = vec![output.clone()];
                let curve = LerCurve {
                    label: "g".into(),
                    points: Vec::new(),
                    fit: Some(fit),
                    outcomes: Vec::new(),
                };
                let (_, rows, _, data) = ler_sweep_output(&kind, &configurations, &[curve]);
                assert_eq!(rows[0][1], cell);
                let target = &data.as_array().unwrap()[0]["target_1e-9"];
                assert_eq!(target["distance"].as_u64(), Some(d as u64));
                for key in *keys {
                    assert!(
                        target.get(key).is_some_and(Value::is_null),
                        "{key}: {target:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn fig13b_times_a_wise_shot_at_the_required_distance() {
        // A fit that asks for d = 15 at 1e-9: above d = 13, where the shot
        // time was once evaluated whatever the distance. WISE round times
        // grow with d.
        let fit = LambdaFit {
            log_intercept: 0.0,
            log_slope: 1e-9f64.ln() / 14.5,
            log_intercept_std_error: 0.0,
            log_slope_std_error: 0.0,
            dropped_points: 0,
        };
        let registry = ExperimentRegistry::builtin();
        let ExperimentKind::LerSweep(mut kind) = registry.get("fig13b").unwrap().kind.clone()
        else {
            panic!("fig13b changed kind");
        };
        kind.configurations
            .retain(|point| point.label.as_deref() == Some("WISE c2"));
        kind.outputs = vec![LerOutput::ShotTime {
            targets: vec![1e-9],
        }];
        let configurations = vec![("WISE c2".to_string(), kind.configurations[0].build())];
        let curve = LerCurve {
            label: "WISE c2".into(),
            points: Vec::new(),
            fit: Some(fit),
            outcomes: Vec::new(),
        };
        let (_, rows, _, data) = ler_sweep_output(&kind, &configurations, &[curve]);
        let target = &data.as_array().unwrap()[0]["target_1e-9"];
        assert_eq!(target["distance"].as_u64(), Some(15));
        let round = Compiler::new(configurations[0].1.clone())
            .compile_rounds(&rotated_surface_code(15), 1)
            .unwrap();
        let shot = round.elapsed_time_us() * 15.0;
        assert_eq!(target["shot_time_us"].as_f64(), Some(shot));
        assert_eq!(rows[0][1], format!("{} us (d=15)", fmt_f64(shot)));
    }

    #[test]
    fn artifact_from_outcomes_rejects_non_grid_specs_and_wrong_counts() {
        let registry = ExperimentRegistry::builtin();
        let table2 = registry.get("table2").unwrap();
        assert!(point_grid(table2).is_none());
        assert_eq!(
            artifact_from_outcomes(table2, &[]),
            Err(RunError::Invalid(not_a_grid(table2)))
        );
        let fig10 = registry.get("fig10").unwrap();
        assert_eq!(point_grid(fig10).unwrap().len(), 18);
        let err = artifact_from_outcomes(fig10, &[]).unwrap_err();
        assert!(
            err.to_string().contains("expects 18 outcomes, got 0"),
            "{err}"
        );
    }

    #[test]
    fn sampled_rates_keep_their_leading_digit() {
        // 3/1024 and 13/1024 both printed `0.0` through `fmt_f64`.
        let outcome = |distance, failures| LerOutcome {
            label: "g".into(),
            distance,
            decoder: DecoderKind::default(),
            seed: 0,
            shots_requested: 1024,
            result: Ok(qccd_decoder::LogicalErrorEstimate {
                shots: 1024,
                failures,
                logical_error_rate: failures as f64 / 1024.0,
                std_error: 1e-3,
            }),
            cache: None,
        };
        let curve = LerCurve {
            label: "g".into(),
            points: Vec::new(),
            fit: None,
            outcomes: vec![outcome(3, 3), outcome(5, 13)],
        };
        assert_eq!(sampled_rate_cell(&curve, 3), "2.93e-3");
        assert_eq!(sampled_rate_cell(&curve, 5), "1.27e-2");
        assert_eq!(sampled_rate_cell(&curve, 7), "NaN");
        assert_eq!(fmt_rate(0.0), "0");
    }

    #[test]
    fn a_curve_without_a_fit_reads_unresolved_not_above_threshold() {
        let registry = ExperimentRegistry::builtin();
        let ExperimentKind::LerSweep(mut kind) = registry.get("fig10").unwrap().kind.clone() else {
            panic!("fig10 changed kind");
        };
        kind.configurations.truncate(1);
        kind.outputs.push(LerOutput::Electrodes {
            targets: vec![1e-9],
        });
        let configurations = vec![("g".to_string(), kind.configurations[0].build())];
        let cells = |fit| {
            let curve = LerCurve {
                label: "g".into(),
                points: Vec::new(),
                fit,
                outcomes: Vec::new(),
            };
            let (_, rows, _, data) = ler_sweep_output(&kind, &configurations, &[curve]);
            assert!(data.as_array().unwrap()[0]["required_distance"].is_null());
            rows[0].clone()
        };
        let unresolved = cells(None);
        assert!(unresolved.contains(&"unresolved".to_string()));
        assert!(!unresolved.iter().any(|c| c.contains("threshold")));
        let above = cells(Some(LambdaFit {
            log_intercept: -1.2,
            log_slope: 0.3,
            log_intercept_std_error: 0.1,
            log_slope_std_error: 0.05,
            dropped_points: 0,
        }));
        assert!(above.contains(&"above-threshold".to_string()));
        assert!(above.contains(&"above threshold".to_string()));
        assert!(!above.contains(&"unresolved".to_string()));
    }

    #[test]
    fn decoder_comparison_renders_zero_failures_as_a_bound() {
        let kind = DecoderComparisonSpec {
            distances: vec![2],
            improvements: vec![1000.0],
            decoders: vec![DecoderKind::UnionFind],
            shots: 64,
            capacity: 2,
        };
        let (_, rows, _, data) =
            run_decoder_comparison(&kind, DEFAULT_SWEEP_SEED, &ScheduleCache::default());
        assert_eq!(data.as_array().unwrap()[0]["UnionFind"], Value::from(0.0));
        let bound = qccd_decoder::zero_failure_upper_bound(64);
        assert_eq!(rows[0][1], upper_bound_cell(bound));
    }

    #[test]
    fn the_decoder_comparison_compiles_each_distance_once() {
        let registry = ExperimentRegistry::builtin();
        let spec = registry.get("ext_decoder_comparison").unwrap();
        let ExperimentKind::DecoderComparison(kind) = &spec.kind else {
            panic!("ext_decoder_comparison changed kind");
        };
        let schedules = ScheduleCache::default();
        let (_, rows, _, _) = run_decoder_comparison(kind, spec.seed, &schedules);
        assert_eq!(rows.len(), 4);
        assert_eq!(schedules.len(), 2);
    }

    #[test]
    fn rare_event_artifact_renders_bounds_and_agreement() {
        let registry = ExperimentRegistry::builtin();
        let mut spec = registry.get("rare_event_ler").unwrap().clone();
        if let ExperimentKind::RareEventLer(kind) = &mut spec.kind {
            kind.configurations = vec![
                crate::spec::ArchPoint::grid(2, 1.0).with_label("1X c2"),
                crate::spec::ArchPoint::grid(2, 1000.0).with_label("1000X c2"),
            ];
            kind.sample_distances = vec![2, 3];
            kind.shots = 128;
            kind.biased_shots = 64;
            kind.bias = 8.0;
        } else {
            panic!("rare_event_ler changed kind");
        }
        spec.name = "tiny-rare-event-render-test".to_string();
        let artifact = run_spec(&spec).unwrap();

        assert_eq!(
            artifact.headers,
            vec![
                "Configuration",
                "d",
                "Plain MC (128 shots)",
                "Importance (64 shots, bias 8)",
                "Agreement",
                "Speedup @ equal rel. error",
            ]
        );
        assert_eq!(artifact.rows.len(), 4);
        // The noisy 1X configuration resolves on both estimators: its cells
        // carry error bars and a sigma-agreement figure.
        assert!(
            artifact.rows[0][2].contains("+/-"),
            "{:?}",
            artifact.rows[0]
        );
        assert!(
            artifact.rows[0][4].ends_with("sigma"),
            "{:?}",
            artifact.rows[0]
        );
        // The 1000X configuration never fails at these shot counts: both
        // estimates render as rule-of-three upper bounds (3/128 and 3/64),
        // never as a bare zero.
        for row in &artifact.rows[2..] {
            assert_eq!(row[2], "< 2.3e-2", "{row:?}");
            assert_eq!(row[3], "< 4.6e-2", "{row:?}");
            assert_eq!(row[4], "unresolved", "{row:?}");
            assert_eq!(row[5], "inf", "{row:?}");
        }
        crate::artifact::validate_artifact_json(&artifact.to_json()).unwrap();
    }

    #[test]
    fn table2_artifact_matches_legacy_shape() {
        let artifact = ExperimentRegistry::builtin().run("table2").unwrap();
        assert_eq!(artifact.headers.len(), 6);
        assert_eq!(artifact.rows.len(), 14);
        assert_eq!(artifact.rows[0][0], "Repetition d=3");
        assert_eq!(artifact.rows[0][1], "linear c2");
    }
}
