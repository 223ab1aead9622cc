//! Declarative experiment specifications.
//!
//! The paper's Figure-2 toolflow is a design-space exploration loop: sweep
//! `(workload, architecture, distance, noise scaling, decoder)` points and
//! emit figures/tables. An [`ExperimentSpec`] captures one such experiment
//! as *data* — serializable, hashable, diffable — instead of as a dedicated
//! binary. The [registry](crate::registry) registers every paper artefact as
//! a named spec, and the single `artifacts` CLI resolves names through it.
//!
//! # Serialization
//!
//! Specs round-trip through JSON: [`ExperimentSpec::to_json`] →
//! [`serde_json::to_string`] → [`serde_json::from_str`] →
//! [`ExperimentSpec::from_json`] is the identity (property-tested in
//! `tests/spec_registry.rs`). The conversions are hand-written against the
//! vendored `serde_json` shim because the vendored `serde` derives are
//! no-ops (see `vendor/README.md`); the `#[serde]`-style field order is
//! irrelevant since objects are canonical `BTreeMap`s.
//!
//! # Content hashing
//!
//! [`ExperimentSpec::content_hash`] is an FNV-1a hash of the canonical
//! compact JSON encoding, so any semantic change to a spec changes its hash
//! while formatting cannot. A sweep's point store
//! ([`crate::distributed`]) is keyed by this hash.

use qccd_core::ArchitectureConfig;
use qccd_decoder::{DecoderKind, EstimatorConfig, MemoConfig};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::MergeKind;
use serde_json::Value;

/// Error produced when parsing or validating a spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "spec error: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(message.into()))
}

// ---------------------------------------------------------------------------
// JSON codec helpers
// ---------------------------------------------------------------------------

fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, SpecError> {
    match value.get(key) {
        Some(v) if !v.is_null() => Ok(v),
        _ => err(format!("missing field `{key}`")),
    }
}

fn str_field(value: &Value, key: &str) -> Result<String, SpecError> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| SpecError(format!("field `{key}` must be a string")))
}

fn u64_field(value: &Value, key: &str) -> Result<u64, SpecError> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| SpecError(format!("field `{key}` must be a non-negative integer")))
}

fn usize_field(value: &Value, key: &str) -> Result<usize, SpecError> {
    Ok(u64_field(value, key)? as usize)
}

fn f64_field(value: &Value, key: &str) -> Result<f64, SpecError> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| SpecError(format!("field `{key}` must be a number")))
}

fn bool_field(value: &Value, key: &str) -> Result<bool, SpecError> {
    field(value, key)?
        .as_bool()
        .ok_or_else(|| SpecError(format!("field `{key}` must be a boolean")))
}

fn array_field<'a>(value: &'a Value, key: &str) -> Result<&'a Vec<Value>, SpecError> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| SpecError(format!("field `{key}` must be an array")))
}

fn usize_list(value: &Value, key: &str) -> Result<Vec<usize>, SpecError> {
    array_field(value, key)?
        .iter()
        .map(|v| {
            v.as_u64()
                .map(|v| v as usize)
                .ok_or_else(|| SpecError(format!("`{key}` entries must be integers")))
        })
        .collect()
}

fn f64_list(value: &Value, key: &str) -> Result<Vec<f64>, SpecError> {
    array_field(value, key)?
        .iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| SpecError(format!("`{key}` entries must be numbers")))
        })
        .collect()
}

/// Parses a `grid|linear|switch` / `standard|wise` name (the `Display`
/// spelling `to_json` writes) with the spec codec's error text.
fn parse_name<T: std::str::FromStr>(what: &str, name: &str) -> Result<T, SpecError> {
    name.parse()
        .map_err(|_| SpecError(format!("unknown {what} `{name}`")))
}

/// Canonical spec name of a decoder kind.
pub fn decoder_name(decoder: DecoderKind) -> &'static str {
    match decoder {
        DecoderKind::UnionFind => "union_find",
        DecoderKind::GreedyMatching => "greedy_matching",
        DecoderKind::ExactMatching => "exact_matching",
    }
}

/// Parses a decoder kind from its canonical spec name.
pub fn decoder_from_name(name: &str) -> Result<DecoderKind, SpecError> {
    match name {
        "union_find" => Ok(DecoderKind::UnionFind),
        "greedy_matching" => Ok(DecoderKind::GreedyMatching),
        "exact_matching" => Ok(DecoderKind::ExactMatching),
        other => err(format!("unknown decoder `{other}`")),
    }
}

fn merge_name(kind: MergeKind) -> &'static str {
    kind.label()
}

fn merge_from_name(name: &str) -> Result<MergeKind, SpecError> {
    match name {
        "zz" => Ok(MergeKind::ZZ),
        "xx" => Ok(MergeKind::XX),
        other => err(format!("unknown merge kind `{other}`")),
    }
}

fn estimator_to_json(config: &EstimatorConfig) -> Value {
    let mut value = serde_json::json!({
        "chunk_shots": config.chunk_shots,
        "num_threads": config.num_threads,
        "target_std_error": config.target_std_error,
        "max_failures": config.max_failures,
        "memo": {
            "max_defects": config.memo.max_defects,
            "max_entries": config.memo.max_entries,
        },
    });
    // Emitted only when set so every pre-rare-event spec keeps its canonical
    // encoding — and therefore its content hash and point store.
    if let Some(bias) = config.importance_bias {
        value["importance_bias"] = serde_json::json!(bias);
    }
    value
}

fn estimator_from_json(value: &Value) -> Result<EstimatorConfig, SpecError> {
    let memo = field(value, "memo")?;
    Ok(EstimatorConfig {
        chunk_shots: usize_field(value, "chunk_shots")?,
        num_threads: match value.get("num_threads") {
            Some(v) if !v.is_null() => Some(
                v.as_u64()
                    .ok_or_else(|| SpecError("`num_threads` must be an integer".into()))?
                    as usize,
            ),
            _ => None,
        },
        target_std_error: match value.get("target_std_error") {
            Some(v) if !v.is_null() => Some(
                v.as_f64()
                    .ok_or_else(|| SpecError("`target_std_error` must be a number".into()))?,
            ),
            _ => None,
        },
        max_failures: match value.get("max_failures") {
            Some(v) if !v.is_null() => Some(
                v.as_u64()
                    .ok_or_else(|| SpecError("`max_failures` must be an integer".into()))?
                    as usize,
            ),
            _ => None,
        },
        memo: MemoConfig {
            max_defects: usize_field(memo, "max_defects")?,
            max_entries: usize_field(memo, "max_entries")?,
        },
        importance_bias: match value.get("importance_bias") {
            Some(v) if !v.is_null() => Some(
                v.as_f64()
                    .ok_or_else(|| SpecError("`importance_bias` must be a number".into()))?,
            ),
            _ => None,
        },
    })
}

// ---------------------------------------------------------------------------
// Architecture and workload points
// ---------------------------------------------------------------------------

/// One architecture point of a spec's grid: the declarative subset of
/// [`ArchitectureConfig`] (timing model and noise parameters are derived
/// from the wiring and gate improvement, exactly as
/// [`ArchitectureConfig::new`] does).
#[derive(Debug, Clone, PartialEq)]
pub struct ArchPoint {
    /// Display label (defaults to `"{topology} c{capacity}"`).
    pub label: Option<String>,
    /// Communication topology family.
    pub topology: TopologyKind,
    /// Trap capacity.
    pub capacity: usize,
    /// Control-system wiring.
    pub wiring: WiringMethod,
    /// Uniform gate-improvement factor (the noise-scaling axis).
    pub gate_improvement: f64,
}

impl ArchPoint {
    /// A point with every axis explicit and the default label.
    pub fn new(
        topology: TopologyKind,
        capacity: usize,
        wiring: WiringMethod,
        gate_improvement: f64,
    ) -> Self {
        ArchPoint {
            label: None,
            topology,
            capacity,
            wiring,
            gate_improvement,
        }
    }

    /// A standard-wiring grid point (the paper's recommended family).
    pub fn grid(capacity: usize, gate_improvement: f64) -> Self {
        ArchPoint::new(
            TopologyKind::Grid,
            capacity,
            WiringMethod::Standard,
            gate_improvement,
        )
    }

    /// Overrides the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The display label ("{topology} c{capacity}" unless overridden).
    pub fn display_label(&self) -> String {
        self.label
            .clone()
            .unwrap_or_else(|| format!("{} c{}", self.topology, self.capacity))
    }

    /// Builds the full architecture configuration of this point.
    pub fn build(&self) -> ArchitectureConfig {
        ArchitectureConfig::new(
            self.topology,
            self.capacity,
            self.wiring,
            self.gate_improvement,
        )
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "label": self.label,
            "topology": self.topology.to_string(),
            "capacity": self.capacity,
            "wiring": self.wiring.to_string(),
            "gate_improvement": self.gate_improvement,
        })
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on missing or ill-typed fields.
    pub fn from_json(value: &Value) -> Result<Self, SpecError> {
        Ok(ArchPoint {
            label: match value.get("label") {
                Some(v) if !v.is_null() => Some(
                    v.as_str()
                        .ok_or_else(|| SpecError("`label` must be a string".into()))?
                        .to_string(),
                ),
                _ => None,
            },
            topology: parse_name("topology", &str_field(value, "topology")?)?,
            capacity: usize_field(value, "capacity")?,
            wiring: parse_name("wiring", &str_field(value, "wiring")?)?,
            gate_improvement: f64_field(value, "gate_improvement")?,
        })
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.capacity == 0 {
            return err("trap capacity must be positive");
        }
        if !(self.gate_improvement.is_finite() && self.gate_improvement > 0.0) {
            return err("gate improvement must be a positive finite number");
        }
        Ok(())
    }
}

fn arch_points_to_json(points: &[ArchPoint]) -> Value {
    Value::Array(points.iter().map(ArchPoint::to_json).collect())
}

fn arch_points_from_json(value: &Value, key: &str) -> Result<Vec<ArchPoint>, SpecError> {
    array_field(value, key)?
        .iter()
        .map(ArchPoint::from_json)
        .collect()
}

/// A declarative QEC-code workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodeSpec {
    /// 1-D repetition code of the given distance.
    Repetition {
        /// Code distance.
        distance: usize,
    },
    /// Rotated surface code of the given distance (the primary workload).
    RotatedSurface {
        /// Code distance.
        distance: usize,
    },
    /// Unrotated surface code of the given distance.
    UnrotatedSurface {
        /// Code distance.
        distance: usize,
    },
}

impl CodeSpec {
    /// Builds the code layout this spec describes.
    pub fn build(&self) -> qccd_qec::CodeLayout {
        match *self {
            CodeSpec::Repetition { distance } => qccd_qec::repetition_code(distance),
            CodeSpec::RotatedSurface { distance } => qccd_qec::rotated_surface_code(distance),
            CodeSpec::UnrotatedSurface { distance } => qccd_qec::unrotated_surface_code(distance),
        }
    }

    /// The code distance.
    pub fn distance(&self) -> usize {
        match *self {
            CodeSpec::Repetition { distance }
            | CodeSpec::RotatedSurface { distance }
            | CodeSpec::UnrotatedSurface { distance } => distance,
        }
    }

    fn family(&self) -> &'static str {
        match self {
            CodeSpec::Repetition { .. } => "repetition",
            CodeSpec::RotatedSurface { .. } => "rotated_surface",
            CodeSpec::UnrotatedSurface { .. } => "unrotated_surface",
        }
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Value {
        serde_json::json!({"family": self.family(), "distance": self.distance()})
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on an unknown family or bad distance.
    pub fn from_json(value: &Value) -> Result<Self, SpecError> {
        let distance = usize_field(value, "distance")?;
        match str_field(value, "family")?.as_str() {
            "repetition" => Ok(CodeSpec::Repetition { distance }),
            "rotated_surface" => Ok(CodeSpec::RotatedSurface { distance }),
            "unrotated_surface" => Ok(CodeSpec::UnrotatedSurface { distance }),
            other => err(format!("unknown code family `{other}`")),
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.distance() < 2 {
            return err("code distance must be at least 2");
        }
        Ok(())
    }
}

/// One labelled compile case: a code on a topology at a trap capacity.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileCase {
    /// Display label.
    pub label: String,
    /// The QEC-code workload.
    pub code: CodeSpec,
    /// Communication topology.
    pub topology: TopologyKind,
    /// Trap capacity.
    pub capacity: usize,
}

impl CompileCase {
    /// Creates a case.
    pub fn new(
        label: impl Into<String>,
        code: CodeSpec,
        topology: TopologyKind,
        capacity: usize,
    ) -> Self {
        CompileCase {
            label: label.into(),
            code,
            topology,
            capacity,
        }
    }

    /// Serializes to JSON.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "label": self.label,
            "code": self.code.to_json(),
            "topology": self.topology.to_string(),
            "capacity": self.capacity,
        })
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on missing or ill-typed fields.
    pub fn from_json(value: &Value) -> Result<Self, SpecError> {
        Ok(CompileCase {
            label: str_field(value, "label")?,
            code: CodeSpec::from_json(field(value, "code")?)?,
            topology: parse_name("topology", &str_field(value, "topology")?)?,
            capacity: usize_field(value, "capacity")?,
        })
    }

    fn validate(&self) -> Result<(), SpecError> {
        if self.label.is_empty() {
            return err("compile case label must be non-empty");
        }
        if self.capacity == 0 {
            return err("trap capacity must be positive");
        }
        self.code.validate()
    }
}

fn cases_to_json(cases: &[CompileCase]) -> Value {
    Value::Array(cases.iter().map(CompileCase::to_json).collect())
}

fn cases_from_json(value: &Value, key: &str) -> Result<Vec<CompileCase>, SpecError> {
    array_field(value, key)?
        .iter()
        .map(CompileCase::from_json)
        .collect()
}

// ---------------------------------------------------------------------------
// Experiment kinds
// ---------------------------------------------------------------------------

/// Which derived quantity a [`LerSweepSpec`] reports per configuration,
/// beyond the sampled points that every LER artefact carries.
#[derive(Debug, Clone, PartialEq)]
pub enum LerOutput {
    /// One table column per sampled distance with the raw LER.
    SampledRates,
    /// The error-suppression factor Λ with its 95% confidence interval.
    Lambda,
    /// Projected LERs at larger distances plus the distance required to
    /// reach `target`.
    Projection {
        /// Distances to project the fit to.
        distances: Vec<usize>,
        /// Target logical error rate for the required-distance column.
        target: f64,
    },
    /// Electrode counts of the device sized for each target LER.
    Electrodes {
        /// Target logical error rates.
        targets: Vec<f64>,
    },
    /// Controller-to-QPU data rate (and optionally power) at each target.
    DataRate {
        /// Target logical error rates.
        targets: Vec<f64>,
        /// Whether to report power dissipation alongside the data rate.
        include_power: bool,
    },
    /// QEC shot time at the distance required for each target.
    ShotTime {
        /// Target logical error rates.
        targets: Vec<f64>,
    },
}

impl LerOutput {
    /// Serializes to JSON.
    pub fn to_json(&self) -> Value {
        match self {
            LerOutput::SampledRates => serde_json::json!({"output": "sampled_rates"}),
            LerOutput::Lambda => serde_json::json!({"output": "lambda"}),
            LerOutput::Projection { distances, target } => serde_json::json!({
                "output": "projection",
                "distances": distances.clone(),
                "target": *target,
            }),
            LerOutput::Electrodes { targets } => serde_json::json!({
                "output": "electrodes",
                "targets": targets.clone(),
            }),
            LerOutput::DataRate {
                targets,
                include_power,
            } => serde_json::json!({
                "output": "data_rate",
                "targets": targets.clone(),
                "include_power": *include_power,
            }),
            LerOutput::ShotTime { targets } => serde_json::json!({
                "output": "shot_time",
                "targets": targets.clone(),
            }),
        }
    }

    /// Parses from JSON.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on an unknown output kind.
    pub fn from_json(value: &Value) -> Result<Self, SpecError> {
        match str_field(value, "output")?.as_str() {
            "sampled_rates" => Ok(LerOutput::SampledRates),
            "lambda" => Ok(LerOutput::Lambda),
            "projection" => Ok(LerOutput::Projection {
                distances: usize_list(value, "distances")?,
                target: f64_field(value, "target")?,
            }),
            "electrodes" => Ok(LerOutput::Electrodes {
                targets: f64_list(value, "targets")?,
            }),
            "data_rate" => Ok(LerOutput::DataRate {
                targets: f64_list(value, "targets")?,
                include_power: bool_field(value, "include_power")?,
            }),
            "shot_time" => Ok(LerOutput::ShotTime {
                targets: f64_list(value, "targets")?,
            }),
            other => err(format!("unknown LER output `{other}`")),
        }
    }

    fn validate(&self) -> Result<(), SpecError> {
        let targets = match self {
            LerOutput::SampledRates | LerOutput::Lambda => return Ok(()),
            LerOutput::Projection { distances, target } => {
                if distances.is_empty() {
                    return err("projection distances must be non-empty");
                }
                std::slice::from_ref(target)
            }
            LerOutput::Electrodes { targets }
            | LerOutput::DataRate { targets, .. }
            | LerOutput::ShotTime { targets } => targets.as_slice(),
        };
        if targets.is_empty() {
            return err("target list must be non-empty");
        }
        for &t in targets {
            if !(t.is_finite() && t > 0.0 && t < 1.0) {
                return err(format!("target LER {t} must be in (0, 1)"));
            }
        }
        Ok(())
    }
}

/// A Monte-Carlo logical-error-rate sweep over an architecture grid, with
/// Λ fits and declarative derived outputs (Figures 8b and 10–13).
#[derive(Debug, Clone, PartialEq)]
pub struct LerSweepSpec {
    /// The architecture grid.
    pub configurations: Vec<ArchPoint>,
    /// Code distances to sample by Monte Carlo.
    pub sample_distances: Vec<usize>,
    /// Shots per `(configuration, distance)` point.
    pub shots: usize,
    /// Decoder for every point.
    pub decoder: DecoderKind,
    /// Monte-Carlo pipeline configuration.
    pub estimator: EstimatorConfig,
    /// Derived columns to report.
    pub outputs: Vec<LerOutput>,
}

/// Which compile-only timing metric a [`TimingSweepSpec`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingMetric {
    /// Elapsed time of one QEC round (Figure 8a).
    RoundTime,
    /// Elapsed time of one QEC shot, i.e. `d` rounds (Figure 9).
    ShotTime,
}

impl TimingMetric {
    fn name(self) -> &'static str {
        match self {
            TimingMetric::RoundTime => "round_time",
            TimingMetric::ShotTime => "shot_time",
        }
    }

    fn from_name(name: &str) -> Result<Self, SpecError> {
        match name {
            "round_time" => Ok(TimingMetric::RoundTime),
            "shot_time" => Ok(TimingMetric::ShotTime),
            other => err(format!("unknown timing metric `{other}`")),
        }
    }
}

/// A compile-only timing sweep over architectures × distances (Figures 8a
/// and 9).
#[derive(Debug, Clone, PartialEq)]
pub struct TimingSweepSpec {
    /// The architecture grid.
    pub configurations: Vec<ArchPoint>,
    /// Code distances to evaluate.
    pub distances: Vec<usize>,
    /// Which elapsed-time metric to report.
    pub metric: TimingMetric,
    /// Whether to append the fully-parallel lower bound and fully-serial
    /// upper bound rows (Figure 9's framing).
    pub include_bounds: bool,
}

/// Compiler results versus theoretical bounds per compile case (Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerBoundsSpec {
    /// The compile cases.
    pub cases: Vec<CompileCase>,
}

/// Our compiler versus the QCCDSim-style and Muzzle-the-Shuttle-style
/// baselines (Table 3).
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineComparisonSpec {
    /// The compile cases.
    pub cases: Vec<CompileCase>,
    /// QEC rounds per compile.
    pub rounds: usize,
}

/// Lattice-surgery merged patch versus isolated patch round times
/// (extension E1).
#[derive(Debug, Clone, PartialEq)]
pub struct SurgerySpec {
    /// Trap capacities of the grid devices.
    pub capacities: Vec<usize>,
    /// Patch distances.
    pub distances: Vec<usize>,
    /// Merge orientation.
    pub merge: MergeKind,
    /// Gate-improvement factor of the architectures.
    pub gate_improvement: f64,
}

/// Logical error rate per decoder on identical compiled experiments
/// (extension E3).
#[derive(Debug, Clone, PartialEq)]
pub struct DecoderComparisonSpec {
    /// Code distances.
    pub distances: Vec<usize>,
    /// Gate-improvement factors.
    pub improvements: Vec<f64>,
    /// Decoders to compare (each sees the same sampled shots).
    pub decoders: Vec<DecoderKind>,
    /// Monte-Carlo shots per case.
    pub shots: usize,
    /// Trap capacity of the grid device.
    pub capacity: usize,
}

/// Geometric versus round-robin clustering ablation (extension E2).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringAblationSpec {
    /// Code distances.
    pub distances: Vec<usize>,
    /// Trap capacities.
    pub capacities: Vec<usize>,
}

/// Importance-sampled rare-event LER validation: every `(configuration,
/// distance)` point is evaluated twice — plain Monte Carlo with `shots`
/// shots and importance-sampled with `biased_shots` shots at bias factor
/// `bias` — and the artefact reports both estimates side by side with their
/// 2σ agreement and the shot-efficiency ratio at equal relative error.
#[derive(Debug, Clone, PartialEq)]
pub struct RareEventLerSpec {
    /// The architecture grid.
    pub configurations: Vec<ArchPoint>,
    /// Code distances to evaluate under both estimators.
    pub sample_distances: Vec<usize>,
    /// Plain Monte-Carlo shots per point.
    pub shots: usize,
    /// Importance-sampled shots per point (typically far fewer).
    pub biased_shots: usize,
    /// Bias factor: every noise probability is scaled by this (clamped at
    /// 0.5) in the sampled circuit.
    pub bias: f64,
    /// Decoder for every point.
    pub decoder: DecoderKind,
    /// Monte-Carlo pipeline configuration shared by both estimators (the
    /// biased points additionally carry `importance_bias = bias`).
    pub estimator: EstimatorConfig,
}

/// The experiment family and its parameters.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentKind {
    /// Monte-Carlo LER sweep with fits and derived outputs.
    LerSweep(LerSweepSpec),
    /// Importance-sampled vs plain-MC rare-event LER comparison.
    RareEventLer(RareEventLerSpec),
    /// Compile-only timing sweep.
    TimingSweep(TimingSweepSpec),
    /// Compiler versus theoretical bounds.
    CompilerBounds(CompilerBoundsSpec),
    /// Compiler versus baseline compilers.
    BaselineComparison(BaselineComparisonSpec),
    /// Lattice-surgery merged-patch experiment.
    Surgery(SurgerySpec),
    /// Decoder ablation.
    DecoderComparison(DecoderComparisonSpec),
    /// Clustering-strategy ablation.
    ClusteringAblation(ClusteringAblationSpec),
}

/// One fully-declarative experiment: a named point of the paper's
/// design-space exploration loop (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Registry name (e.g. `"fig09"`).
    pub name: String,
    /// Human-readable title printed above the table.
    pub title: String,
    /// Sweep-engine seed: every Monte-Carlo point derives its sampling seed
    /// from this and its point index.
    pub seed: u64,
    /// The experiment family and parameters.
    pub kind: ExperimentKind,
}

impl ExperimentSpec {
    /// Serializes the spec to a JSON value.
    pub fn to_json(&self) -> Value {
        let experiment = match &self.kind {
            ExperimentKind::LerSweep(spec) => serde_json::json!({
                "experiment": "ler_sweep",
                "configurations": arch_points_to_json(&spec.configurations),
                "sample_distances": spec.sample_distances.clone(),
                "shots": spec.shots,
                "decoder": decoder_name(spec.decoder),
                "estimator": estimator_to_json(&spec.estimator),
                "outputs": Value::Array(spec.outputs.iter().map(LerOutput::to_json).collect()),
            }),
            ExperimentKind::RareEventLer(spec) => serde_json::json!({
                "experiment": "rare_event_ler",
                "configurations": arch_points_to_json(&spec.configurations),
                "sample_distances": spec.sample_distances.clone(),
                "shots": spec.shots,
                "biased_shots": spec.biased_shots,
                "bias": spec.bias,
                "decoder": decoder_name(spec.decoder),
                "estimator": estimator_to_json(&spec.estimator),
            }),
            ExperimentKind::TimingSweep(spec) => serde_json::json!({
                "experiment": "timing_sweep",
                "configurations": arch_points_to_json(&spec.configurations),
                "distances": spec.distances.clone(),
                "metric": spec.metric.name(),
                "include_bounds": spec.include_bounds,
            }),
            ExperimentKind::CompilerBounds(spec) => serde_json::json!({
                "experiment": "compiler_bounds",
                "cases": cases_to_json(&spec.cases),
            }),
            ExperimentKind::BaselineComparison(spec) => serde_json::json!({
                "experiment": "baseline_comparison",
                "cases": cases_to_json(&spec.cases),
                "rounds": spec.rounds,
            }),
            ExperimentKind::Surgery(spec) => serde_json::json!({
                "experiment": "surgery",
                "capacities": spec.capacities.clone(),
                "distances": spec.distances.clone(),
                "merge": merge_name(spec.merge),
                "gate_improvement": spec.gate_improvement,
            }),
            ExperimentKind::DecoderComparison(spec) => serde_json::json!({
                "experiment": "decoder_comparison",
                "distances": spec.distances.clone(),
                "improvements": spec.improvements.clone(),
                "decoders": Value::Array(
                    spec.decoders.iter().map(|d| Value::from(decoder_name(*d))).collect(),
                ),
                "shots": spec.shots,
                "capacity": spec.capacity,
            }),
            ExperimentKind::ClusteringAblation(spec) => serde_json::json!({
                "experiment": "clustering_ablation",
                "distances": spec.distances.clone(),
                "capacities": spec.capacities.clone(),
            }),
        };
        serde_json::json!({
            "name": self.name,
            "title": self.title,
            "seed": self.seed,
            "experiment": experiment,
        })
    }

    /// Parses a spec from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] on missing fields, ill-typed values or an
    /// unknown experiment family.
    pub fn from_json(value: &Value) -> Result<Self, SpecError> {
        let experiment = field(value, "experiment")?;
        let kind = match str_field(experiment, "experiment")?.as_str() {
            "ler_sweep" => {
                let decoders = str_field(experiment, "decoder")?;
                ExperimentKind::LerSweep(LerSweepSpec {
                    configurations: arch_points_from_json(experiment, "configurations")?,
                    sample_distances: usize_list(experiment, "sample_distances")?,
                    shots: usize_field(experiment, "shots")?,
                    decoder: decoder_from_name(&decoders)?,
                    estimator: estimator_from_json(field(experiment, "estimator")?)?,
                    outputs: array_field(experiment, "outputs")?
                        .iter()
                        .map(LerOutput::from_json)
                        .collect::<Result<_, _>>()?,
                })
            }
            "rare_event_ler" => ExperimentKind::RareEventLer(RareEventLerSpec {
                configurations: arch_points_from_json(experiment, "configurations")?,
                sample_distances: usize_list(experiment, "sample_distances")?,
                shots: usize_field(experiment, "shots")?,
                biased_shots: usize_field(experiment, "biased_shots")?,
                bias: f64_field(experiment, "bias")?,
                decoder: decoder_from_name(&str_field(experiment, "decoder")?)?,
                estimator: estimator_from_json(field(experiment, "estimator")?)?,
            }),
            "timing_sweep" => ExperimentKind::TimingSweep(TimingSweepSpec {
                configurations: arch_points_from_json(experiment, "configurations")?,
                distances: usize_list(experiment, "distances")?,
                metric: TimingMetric::from_name(&str_field(experiment, "metric")?)?,
                include_bounds: bool_field(experiment, "include_bounds")?,
            }),
            "compiler_bounds" => ExperimentKind::CompilerBounds(CompilerBoundsSpec {
                cases: cases_from_json(experiment, "cases")?,
            }),
            "baseline_comparison" => ExperimentKind::BaselineComparison(BaselineComparisonSpec {
                cases: cases_from_json(experiment, "cases")?,
                rounds: usize_field(experiment, "rounds")?,
            }),
            "surgery" => ExperimentKind::Surgery(SurgerySpec {
                capacities: usize_list(experiment, "capacities")?,
                distances: usize_list(experiment, "distances")?,
                merge: merge_from_name(&str_field(experiment, "merge")?)?,
                gate_improvement: f64_field(experiment, "gate_improvement")?,
            }),
            "decoder_comparison" => ExperimentKind::DecoderComparison(DecoderComparisonSpec {
                distances: usize_list(experiment, "distances")?,
                improvements: f64_list(experiment, "improvements")?,
                decoders: array_field(experiment, "decoders")?
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .ok_or_else(|| SpecError("`decoders` entries must be strings".into()))
                            .and_then(decoder_from_name)
                    })
                    .collect::<Result<_, _>>()?,
                shots: usize_field(experiment, "shots")?,
                capacity: usize_field(experiment, "capacity")?,
            }),
            "clustering_ablation" => ExperimentKind::ClusteringAblation(ClusteringAblationSpec {
                distances: usize_list(experiment, "distances")?,
                capacities: usize_list(experiment, "capacities")?,
            }),
            other => return err(format!("unknown experiment kind `{other}`")),
        };
        Ok(ExperimentSpec {
            name: str_field(value, "name")?,
            title: str_field(value, "title")?,
            seed: u64_field(value, "seed")?,
            kind,
        })
    }

    /// Validates the spec's parameters (non-empty grids, positive shot
    /// counts, workload distances ≥ 2, targets in `(0, 1)`, …). A spec that
    /// validates never panics at execution time.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found.
    pub fn validate(&self) -> Result<(), SpecError> {
        // The code constructors assert `distance >= 2`; reject smaller
        // workload distances here so a validated spec cannot panic inside
        // the sweep engine's worker pool.
        fn distances_at_least_two(distances: &[usize], what: &str) -> Result<(), SpecError> {
            match distances.iter().find(|&&d| d < 2) {
                Some(d) => err(format!("{what} distance {d} is below the minimum of 2")),
                None => Ok(()),
            }
        }
        // `FaultTable::biased` asserts the same condition; a user file must
        // be refused here, not abort the worker pool.
        fn bias_at_least_one(bias: Option<f64>, what: &str) -> Result<(), SpecError> {
            match bias {
                Some(bias) if !(bias.is_finite() && bias >= 1.0) => err(format!(
                    "{what} must be a finite factor of at least 1, got {bias}"
                )),
                _ => Ok(()),
            }
        }
        if self.name.is_empty() {
            return err("spec name must be non-empty");
        }
        if self.title.is_empty() {
            return err("spec title must be non-empty");
        }
        match &self.kind {
            ExperimentKind::LerSweep(spec) => {
                if spec.configurations.is_empty() {
                    return err("LER sweep needs at least one configuration");
                }
                if spec.sample_distances.is_empty() {
                    return err("LER sweep needs at least one sample distance");
                }
                distances_at_least_two(&spec.sample_distances, "LER sweep")?;
                if spec.shots == 0 {
                    return err("LER sweep needs a positive shot count");
                }
                bias_at_least_one(spec.estimator.importance_bias, "`importance_bias`")?;
                for point in &spec.configurations {
                    point.validate()?;
                }
                for output in &spec.outputs {
                    output.validate()?;
                }
                Ok(())
            }
            ExperimentKind::RareEventLer(spec) => {
                if spec.configurations.is_empty() {
                    return err("rare-event LER comparison needs at least one configuration");
                }
                if spec.sample_distances.is_empty() {
                    return err("rare-event LER comparison needs at least one sample distance");
                }
                distances_at_least_two(&spec.sample_distances, "rare-event LER comparison")?;
                if spec.shots == 0 || spec.biased_shots == 0 {
                    return err("rare-event LER comparison needs positive shot counts");
                }
                bias_at_least_one(Some(spec.bias), "rare-event bias")?;
                bias_at_least_one(spec.estimator.importance_bias, "`importance_bias`")?;
                for point in &spec.configurations {
                    point.validate()?;
                }
                Ok(())
            }
            ExperimentKind::TimingSweep(spec) => {
                if spec.configurations.is_empty() || spec.distances.is_empty() {
                    return err("timing sweep needs configurations and distances");
                }
                distances_at_least_two(&spec.distances, "timing sweep")?;
                for point in &spec.configurations {
                    point.validate()?;
                }
                Ok(())
            }
            ExperimentKind::CompilerBounds(spec) => {
                if spec.cases.is_empty() {
                    return err("compiler-bounds experiment needs at least one case");
                }
                spec.cases.iter().try_for_each(CompileCase::validate)
            }
            ExperimentKind::BaselineComparison(spec) => {
                if spec.cases.is_empty() {
                    return err("baseline comparison needs at least one case");
                }
                if spec.rounds == 0 {
                    return err("baseline comparison needs a positive round count");
                }
                spec.cases.iter().try_for_each(CompileCase::validate)
            }
            ExperimentKind::Surgery(spec) => {
                if spec.capacities.is_empty() || spec.distances.is_empty() {
                    return err("surgery experiment needs capacities and distances");
                }
                distances_at_least_two(&spec.distances, "surgery")?;
                if spec.capacities.contains(&0) {
                    return err("surgery capacities must be positive");
                }
                if !(spec.gate_improvement.is_finite() && spec.gate_improvement > 0.0) {
                    return err("gate improvement must be a positive finite number");
                }
                Ok(())
            }
            ExperimentKind::DecoderComparison(spec) => {
                if spec.distances.is_empty()
                    || spec.improvements.is_empty()
                    || spec.decoders.is_empty()
                {
                    return err("decoder comparison needs distances, improvements and decoders");
                }
                distances_at_least_two(&spec.distances, "decoder comparison")?;
                if spec.shots == 0 || spec.capacity == 0 {
                    return err("decoder comparison needs positive shots and capacity");
                }
                if spec
                    .improvements
                    .iter()
                    .any(|&x| !(x.is_finite() && x > 0.0))
                {
                    return err("gate improvements must be positive finite numbers");
                }
                Ok(())
            }
            ExperimentKind::ClusteringAblation(spec) => {
                if spec.distances.is_empty() || spec.capacities.is_empty() {
                    return err("clustering ablation needs distances and capacities");
                }
                distances_at_least_two(&spec.distances, "clustering ablation")?;
                if spec.capacities.iter().any(|&c| c < 2) {
                    return err("clustering ablation capacities must be at least 2");
                }
                Ok(())
            }
        }
    }

    /// Canonical compact JSON encoding (object keys sorted, no whitespace)
    /// — the preimage of [`ExperimentSpec::content_hash`].
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(&self.to_json()).expect("serialization cannot fail")
    }

    /// A stable content hash of the spec (FNV-1a over the canonical JSON),
    /// used to key a sweep's point store: any semantic change to the spec
    /// changes the hash; formatting cannot.
    pub fn content_hash(&self) -> String {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.canonical_json().bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("{hash:016x}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> ExperimentSpec {
        ExperimentSpec {
            name: "demo".into(),
            title: "Demo sweep".into(),
            seed: 2026,
            kind: ExperimentKind::LerSweep(LerSweepSpec {
                configurations: vec![
                    ArchPoint::grid(2, 5.0).with_label("grid c2"),
                    ArchPoint::new(TopologyKind::Switch, 3, WiringMethod::Wise, 1.5),
                ],
                sample_distances: vec![3, 5],
                shots: 512,
                decoder: DecoderKind::UnionFind,
                estimator: EstimatorConfig::default(),
                outputs: vec![
                    LerOutput::SampledRates,
                    LerOutput::Lambda,
                    LerOutput::Projection {
                        distances: vec![7, 9],
                        target: 1e-9,
                    },
                ],
            }),
        }
    }

    #[test]
    fn spec_round_trips_through_json_text() {
        let spec = sample_spec();
        let text = serde_json::to_string_pretty(&spec.to_json()).unwrap();
        let parsed = ExperimentSpec::from_json(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(parsed, spec);

        // Unknown keys are ignored, so spec files written when the memo and
        // the estimator had more knobs than they have now still load.
        let mut old = spec.to_json();
        old["experiment"]["estimator"]["memo"]["retired_knob"] = serde_json::json!(65536);
        old["experiment"]["estimator"]["retired_switch"] = serde_json::json!(false);
        assert_eq!(ExperimentSpec::from_json(&old).unwrap(), spec);
    }

    #[test]
    fn content_hash_tracks_semantics_not_formatting() {
        let spec = sample_spec();
        let mut reseeded = sample_spec();
        reseeded.seed += 1;
        assert_eq!(spec.content_hash(), sample_spec().content_hash());
        assert_ne!(spec.content_hash(), reseeded.content_hash());
        assert_eq!(spec.content_hash().len(), 16);
    }

    #[test]
    fn validation_catches_bad_parameters() {
        let mut spec = sample_spec();
        assert!(spec.validate().is_ok());
        if let ExperimentKind::LerSweep(ref mut s) = spec.kind {
            s.shots = 0;
        }
        assert!(spec.validate().is_err());

        let mut bad_target = sample_spec();
        if let ExperimentKind::LerSweep(ref mut s) = bad_target.kind {
            s.outputs = vec![LerOutput::Electrodes { targets: vec![2.0] }];
        }
        assert!(bad_target.validate().is_err());

        // Workload distances below 2 would panic in the code constructors;
        // validation must reject them first.
        let mut bad_distance = sample_spec();
        if let ExperimentKind::LerSweep(ref mut s) = bad_distance.kind {
            s.sample_distances = vec![3, 1];
        }
        assert!(bad_distance.validate().is_err());

        // A bias below 1 would trip `FaultTable::biased`'s assert inside the
        // worker pool.
        for bias in [0.5, f64::NAN, f64::INFINITY] {
            let mut bad_bias = sample_spec();
            if let ExperimentKind::LerSweep(ref mut s) = bad_bias.kind {
                s.estimator.importance_bias = Some(bias);
            }
            let message = bad_bias.validate().unwrap_err().to_string();
            assert!(message.contains("finite factor of at least 1"), "{message}");
        }
        let surgery_d1 = ExperimentSpec {
            name: "s".into(),
            title: "s".into(),
            seed: 0,
            kind: ExperimentKind::Surgery(SurgerySpec {
                capacities: vec![2],
                distances: vec![1],
                merge: MergeKind::ZZ,
                gate_improvement: 1.0,
            }),
        };
        assert!(surgery_d1.validate().is_err());

        let empty_name = ExperimentSpec {
            name: String::new(),
            ..sample_spec()
        };
        assert!(empty_name.validate().is_err());
    }

    #[test]
    fn arch_point_builds_the_architecture_it_describes() {
        let point = ArchPoint::new(TopologyKind::Switch, 3, WiringMethod::Wise, 5.0);
        let arch = point.build();
        assert_eq!(arch.capacity(), 3);
        assert_eq!(arch.topology_kind(), TopologyKind::Switch);
        assert!(arch.noise.cooled, "WISE wiring derives the cooled noise");
        assert_eq!(point.display_label(), "switch c3");
        assert_eq!(point.clone().with_label("x").display_label(), "x");
    }

    #[test]
    fn code_spec_builds_layouts() {
        assert_eq!(
            CodeSpec::RotatedSurface { distance: 3 }
                .build()
                .num_qubits(),
            17
        );
        assert_eq!(CodeSpec::Repetition { distance: 5 }.build().num_qubits(), 9);
        let round_trip =
            CodeSpec::from_json(&CodeSpec::UnrotatedSurface { distance: 4 }.to_json()).unwrap();
        assert_eq!(round_trip, CodeSpec::UnrotatedSurface { distance: 4 });
    }

    #[test]
    fn unknown_fields_and_kinds_are_rejected() {
        assert!(ExperimentSpec::from_json(&serde_json::json!({})).is_err());
        let bad_kind = serde_json::json!({
            "name": "x", "title": "x", "seed": 1,
            "experiment": {"experiment": "nonsense"},
        });
        assert!(ExperimentSpec::from_json(&bad_kind).is_err());
        assert!(decoder_from_name("quantum").is_err());
        let mut torus = ArchPoint::grid(2, 1.0).to_json();
        torus["topology"] = Value::from("torus");
        assert_eq!(
            ArchPoint::from_json(&torus),
            err("unknown topology `torus`")
        );
    }
}
