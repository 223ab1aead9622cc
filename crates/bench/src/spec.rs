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
//! vendored `serde_json` shim (no type in the workspace derives a serde
//! trait; see `vendor/README.md`); field order is irrelevant since objects
//! are canonical `BTreeMap`s.
//!
//! Every reader — of specs here, of stored point payloads in
//! [`crate::point_job`] and of artifacts in [`crate::artifact`] — takes its
//! fields through one typed pair, `req::<T>(obj, key)` and
//! `opt::<T>(obj, key)`, plus `each(obj, key, parse)` for arrays of
//! sub-objects. A `null` field reads as absent, so `null` where a value is
//! required is refused like a missing key, and an optional field may be
//! written either way. A wrong type is refused with an error that names the
//! field and says what it must be. Unknown keys are ignored, so files written
//! before a knob was retired still load. Each enum spelling (decoder, merge
//! orientation, timing metric, experiment kind) is written once and read in
//! both directions.
//!
//! # Content hashing
//!
//! [`ExperimentSpec::content_hash`] is an FNV-1a hash of the canonical
//! compact JSON encoding, so any semantic change to a spec changes its hash
//! while formatting cannot. A sweep's point store
//! ([`crate::point_job`]) is keyed by this hash.

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

/// The point-payload and artifact readers return plain messages.
impl From<SpecError> for String {
    fn from(error: SpecError) -> String {
        error.0
    }
}

fn err<T>(message: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError(message.into()))
}

// ---------------------------------------------------------------------------
// JSON codec helpers
// ---------------------------------------------------------------------------

/// A type one JSON field can hold: every reader of the spec, point-payload
/// and artifact codecs goes through [`req`] / [`opt`] with one of these.
pub(crate) trait Field<'a>: Sized {
    /// What the field must be, for error messages (`"a string"`, …).
    fn expected() -> String;
    /// Reads a non-null value; `None` when it has the wrong type.
    fn read(value: &'a Value) -> Option<Self>;
}

macro_rules! field_types {
    ($($ty:ty: $expected:literal, $read:expr;)*) => {$(
        impl Field<'_> for $ty {
            fn expected() -> String {
                $expected.to_string()
            }
            fn read(value: &Value) -> Option<Self> {
                $read(value)
            }
        }
    )*};
}

field_types! {
    u64: "a non-negative integer", Value::as_u64;
    u32: "a non-negative integer", |v: &Value| v.as_u64().and_then(|n| u32::try_from(n).ok());
    usize: "a non-negative integer", |v: &Value| v.as_u64().and_then(|n| usize::try_from(n).ok());
    f64: "a number", Value::as_f64;
    bool: "a boolean", Value::as_bool;
    String: "a string", |v: &Value| v.as_str().map(str::to_string);
    // The hardware enums keep their one spelling in `Display` / `FromStr`.
    TopologyKind: "a topology name", |v: &Value| v.as_str()?.parse().ok();
    WiringMethod: "a wiring name", |v: &Value| v.as_str()?.parse().ok();
}

/// A sub-object; the codecs have no other nested shape.
impl<'a> Field<'a> for &'a Value {
    fn expected() -> String {
        "an object".to_string()
    }
    fn read(value: &'a Value) -> Option<Self> {
        value.as_object().map(|_| value)
    }
}

impl<'a, T: Field<'a>> Field<'a> for Vec<T> {
    fn expected() -> String {
        format!("an array, each entry {}", T::expected())
    }
    fn read(value: &'a Value) -> Option<Self> {
        value.as_array()?.iter().map(T::read).collect()
    }
}

/// An enum spec JSON writes as a string. Each variant's spelling is written
/// once, in [`Spelled::spellings`], and both the writers and the readers use
/// it.
pub(crate) trait Spelled: Copy + PartialEq + 'static {
    /// Every variant with its spelling.
    fn spellings() -> impl Iterator<Item = (Self, &'static str)>;

    /// The spelling of `self`.
    fn spelling(self) -> &'static str {
        Self::spellings()
            .find(|(variant, _)| *variant == self)
            .map(|(_, name)| name)
            .expect("every variant has a spelling")
    }

    /// The variant spelled `name`.
    fn from_spelling(name: &str) -> Option<Self> {
        Self::spellings()
            .find(|(_, spelling)| *spelling == name)
            .map(|(variant, _)| variant)
    }
}

impl<T: Spelled> Field<'_> for T {
    fn expected() -> String {
        let names: Vec<String> = T::spellings().map(|(_, n)| format!("`{n}`")).collect();
        format!("one of {}", names.join(", "))
    }
    fn read(value: &Value) -> Option<Self> {
        T::from_spelling(value.as_str()?)
    }
}

/// The spec names are the third column of [`DecoderKind::NAMES`].
impl Spelled for DecoderKind {
    fn spellings() -> impl Iterator<Item = (Self, &'static str)> {
        DecoderKind::NAMES
            .iter()
            .map(|&(kind, _, spec, _)| (kind, spec))
    }
}

impl Spelled for MergeKind {
    fn spellings() -> impl Iterator<Item = (Self, &'static str)> {
        [(MergeKind::ZZ, "zz"), (MergeKind::XX, "xx")].into_iter()
    }
}

/// Reads an optional field: an absent key and `null` both read as `None`.
pub(crate) fn opt<'a, T: Field<'a>>(obj: &'a Value, key: &str) -> Result<Option<T>, SpecError> {
    match obj.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => T::read(value)
            .map(Some)
            .ok_or_else(|| SpecError(format!("field `{key}` must be {}", T::expected()))),
    }
}

/// Reads a required field; `null` counts as missing.
pub(crate) fn req<'a, T: Field<'a>>(obj: &'a Value, key: &str) -> Result<T, SpecError> {
    opt(obj, key)?.ok_or_else(|| {
        SpecError(format!(
            "field `{key}` is missing or null; it must be {}",
            T::expected()
        ))
    })
}

/// Reads a required array of sub-objects, each through `parse`.
pub(crate) fn each<T>(
    obj: &Value,
    key: &str,
    parse: impl Fn(&Value) -> Result<T, SpecError>,
) -> Result<Vec<T>, SpecError> {
    req::<Vec<&Value>>(obj, key)?
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            parse(entry).map_err(|e| SpecError(format!("`{key}` entry {i}: {}", e.0)))
        })
        .collect()
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
    let memo: &Value = req(value, "memo")?;
    Ok(EstimatorConfig {
        chunk_shots: req(value, "chunk_shots")?,
        num_threads: opt(value, "num_threads")?,
        target_std_error: opt(value, "target_std_error")?,
        max_failures: opt(value, "max_failures")?,
        memo: MemoConfig {
            max_defects: req(memo, "max_defects")?,
            max_entries: req(memo, "max_entries")?,
        },
        importance_bias: opt(value, "importance_bias")?,
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
            label: opt(value, "label")?,
            topology: req(value, "topology")?,
            capacity: req(value, "capacity")?,
            wiring: req(value, "wiring")?,
            gate_improvement: req(value, "gate_improvement")?,
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
        let distance = req(value, "distance")?;
        match req::<String>(value, "family")?.as_str() {
            "repetition" => Ok(CodeSpec::Repetition { distance }),
            "rotated_surface" => Ok(CodeSpec::RotatedSurface { distance }),
            "unrotated_surface" => Ok(CodeSpec::UnrotatedSurface { distance }),
            other => err(format!("field `family` names no code family: `{other}`")),
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
            label: req(value, "label")?,
            code: CodeSpec::from_json(req(value, "code")?)?,
            topology: req(value, "topology")?,
            capacity: req(value, "capacity")?,
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
        match req::<String>(value, "output")?.as_str() {
            "sampled_rates" => Ok(LerOutput::SampledRates),
            "lambda" => Ok(LerOutput::Lambda),
            "projection" => Ok(LerOutput::Projection {
                distances: req(value, "distances")?,
                target: req(value, "target")?,
            }),
            "electrodes" => Ok(LerOutput::Electrodes {
                targets: req(value, "targets")?,
            }),
            "data_rate" => Ok(LerOutput::DataRate {
                targets: req(value, "targets")?,
                include_power: req(value, "include_power")?,
            }),
            "shot_time" => Ok(LerOutput::ShotTime {
                targets: req(value, "targets")?,
            }),
            other => err(format!("field `output` names no LER output: `{other}`")),
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

impl Spelled for TimingMetric {
    fn spellings() -> impl Iterator<Item = (Self, &'static str)> {
        [
            (TimingMetric::RoundTime, "round_time"),
            (TimingMetric::ShotTime, "shot_time"),
        ]
        .into_iter()
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
    /// biased points additionally carry `importance_bias = bias`). Its own
    /// `importance_bias` must be unset; validation refuses it.
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

/// The `experiment` tag of each kind in spec JSON, spelled once: the codec
/// and `artifacts list` read it through [`ExperimentKind::tag`].
mod tag {
    pub const LER_SWEEP: &str = "ler_sweep";
    pub const RARE_EVENT_LER: &str = "rare_event_ler";
    pub const TIMING_SWEEP: &str = "timing_sweep";
    pub const COMPILER_BOUNDS: &str = "compiler_bounds";
    pub const BASELINE_COMPARISON: &str = "baseline_comparison";
    pub const SURGERY: &str = "surgery";
    pub const DECODER_COMPARISON: &str = "decoder_comparison";
    pub const CLUSTERING_ABLATION: &str = "clustering_ablation";
}

impl ExperimentKind {
    /// The kind's `experiment` tag in spec JSON (`"ler_sweep"`, …).
    pub fn tag(&self) -> &'static str {
        match self {
            ExperimentKind::LerSweep(_) => tag::LER_SWEEP,
            ExperimentKind::RareEventLer(_) => tag::RARE_EVENT_LER,
            ExperimentKind::TimingSweep(_) => tag::TIMING_SWEEP,
            ExperimentKind::CompilerBounds(_) => tag::COMPILER_BOUNDS,
            ExperimentKind::BaselineComparison(_) => tag::BASELINE_COMPARISON,
            ExperimentKind::Surgery(_) => tag::SURGERY,
            ExperimentKind::DecoderComparison(_) => tag::DECODER_COMPARISON,
            ExperimentKind::ClusteringAblation(_) => tag::CLUSTERING_ABLATION,
        }
    }
}

impl ExperimentSpec {
    /// Serializes the spec to a JSON value.
    pub fn to_json(&self) -> Value {
        let mut experiment = match &self.kind {
            ExperimentKind::LerSweep(spec) => serde_json::json!({
                "configurations": arch_points_to_json(&spec.configurations),
                "sample_distances": spec.sample_distances.clone(),
                "shots": spec.shots,
                "decoder": spec.decoder.spelling(),
                "estimator": estimator_to_json(&spec.estimator),
                "outputs": Value::Array(spec.outputs.iter().map(LerOutput::to_json).collect()),
            }),
            ExperimentKind::RareEventLer(spec) => serde_json::json!({
                "configurations": arch_points_to_json(&spec.configurations),
                "sample_distances": spec.sample_distances.clone(),
                "shots": spec.shots,
                "biased_shots": spec.biased_shots,
                "bias": spec.bias,
                "decoder": spec.decoder.spelling(),
                "estimator": estimator_to_json(&spec.estimator),
            }),
            ExperimentKind::TimingSweep(spec) => serde_json::json!({
                "configurations": arch_points_to_json(&spec.configurations),
                "distances": spec.distances.clone(),
                "metric": spec.metric.spelling(),
                "include_bounds": spec.include_bounds,
            }),
            ExperimentKind::CompilerBounds(spec) => serde_json::json!({
                "cases": cases_to_json(&spec.cases),
            }),
            ExperimentKind::BaselineComparison(spec) => serde_json::json!({
                "cases": cases_to_json(&spec.cases),
                "rounds": spec.rounds,
            }),
            ExperimentKind::Surgery(spec) => serde_json::json!({
                "capacities": spec.capacities.clone(),
                "distances": spec.distances.clone(),
                "merge": spec.merge.spelling(),
                "gate_improvement": spec.gate_improvement,
            }),
            ExperimentKind::DecoderComparison(spec) => serde_json::json!({
                "distances": spec.distances.clone(),
                "improvements": spec.improvements.clone(),
                "decoders": Value::Array(
                    spec.decoders.iter().map(|d| Value::from(d.spelling())).collect(),
                ),
                "shots": spec.shots,
                "capacity": spec.capacity,
            }),
            ExperimentKind::ClusteringAblation(spec) => serde_json::json!({
                "distances": spec.distances.clone(),
                "capacities": spec.capacities.clone(),
            }),
        };
        experiment["experiment"] = Value::from(self.kind.tag());
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
        let experiment: &Value = req(value, "experiment")?;
        let kind = match req::<String>(experiment, "experiment")?.as_str() {
            tag::LER_SWEEP => ExperimentKind::LerSweep(LerSweepSpec {
                configurations: each(experiment, "configurations", ArchPoint::from_json)?,
                sample_distances: req(experiment, "sample_distances")?,
                shots: req(experiment, "shots")?,
                decoder: req(experiment, "decoder")?,
                estimator: estimator_from_json(req(experiment, "estimator")?)?,
                outputs: each(experiment, "outputs", LerOutput::from_json)?,
            }),
            tag::RARE_EVENT_LER => ExperimentKind::RareEventLer(RareEventLerSpec {
                configurations: each(experiment, "configurations", ArchPoint::from_json)?,
                sample_distances: req(experiment, "sample_distances")?,
                shots: req(experiment, "shots")?,
                biased_shots: req(experiment, "biased_shots")?,
                bias: req(experiment, "bias")?,
                decoder: req(experiment, "decoder")?,
                estimator: estimator_from_json(req(experiment, "estimator")?)?,
            }),
            tag::TIMING_SWEEP => ExperimentKind::TimingSweep(TimingSweepSpec {
                configurations: each(experiment, "configurations", ArchPoint::from_json)?,
                distances: req(experiment, "distances")?,
                metric: req(experiment, "metric")?,
                include_bounds: req(experiment, "include_bounds")?,
            }),
            tag::COMPILER_BOUNDS => ExperimentKind::CompilerBounds(CompilerBoundsSpec {
                cases: each(experiment, "cases", CompileCase::from_json)?,
            }),
            tag::BASELINE_COMPARISON => {
                ExperimentKind::BaselineComparison(BaselineComparisonSpec {
                    cases: each(experiment, "cases", CompileCase::from_json)?,
                    rounds: req(experiment, "rounds")?,
                })
            }
            tag::SURGERY => ExperimentKind::Surgery(SurgerySpec {
                capacities: req(experiment, "capacities")?,
                distances: req(experiment, "distances")?,
                merge: req(experiment, "merge")?,
                gate_improvement: req(experiment, "gate_improvement")?,
            }),
            tag::DECODER_COMPARISON => ExperimentKind::DecoderComparison(DecoderComparisonSpec {
                distances: req(experiment, "distances")?,
                improvements: req(experiment, "improvements")?,
                decoders: req(experiment, "decoders")?,
                shots: req(experiment, "shots")?,
                capacity: req(experiment, "capacity")?,
            }),
            tag::CLUSTERING_ABLATION => {
                ExperimentKind::ClusteringAblation(ClusteringAblationSpec {
                    distances: req(experiment, "distances")?,
                    capacities: req(experiment, "capacities")?,
                })
            }
            other => {
                return err(format!(
                    "field `experiment` names no experiment kind: `{other}`"
                ))
            }
        };
        Ok(ExperimentSpec {
            name: req(value, "name")?,
            title: req(value, "title")?,
            seed: req(value, "seed")?,
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
                // The plain Monte-Carlo twin of every point runs this
                // estimator as given, so a bias here would make it a second
                // biased estimate.
                if let Some(bias) = spec.estimator.importance_bias {
                    return err(format!(
                        "rare-event LER comparison refuses `estimator.importance_bias` \
                         ({bias}): the spec's `bias` is its only bias"
                    ));
                }
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
    fn a_rare_event_spec_refuses_an_estimator_bias() {
        // The plain Monte-Carlo half of the comparison must run unbiased.
        let registry = crate::registry::ExperimentRegistry::builtin();
        let builtin = registry.get("rare_event_ler").expect("builtin spec");
        assert_eq!(builtin.validate(), Ok(()));
        for bias in [1.0, 8.0] {
            let mut spec = builtin.clone();
            if let ExperimentKind::RareEventLer(ref mut s) = spec.kind {
                s.estimator.importance_bias = Some(bias);
            }
            let message = spec.validate().unwrap_err().to_string();
            assert!(message.contains("`bias` is its only bias"), "{message}");
        }
    }

    #[test]
    fn arch_point_builds_the_architecture_it_describes() {
        let point = ArchPoint::new(TopologyKind::Switch, 3, WiringMethod::Wise, 5.0);
        let arch = point.build();
        assert_eq!(arch.capacity(), 3);
        assert_eq!(arch.topology.kind, TopologyKind::Switch);
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
        let mut torus = ArchPoint::grid(2, 1.0).to_json();
        torus["topology"] = Value::from("torus");
        assert_eq!(
            ArchPoint::from_json(&torus),
            err("field `topology` must be a topology name")
        );

        // Malformed documents for each of the three codecs, with the field
        // the rejection is about.
        type Decode = fn(&Value) -> Result<(), String>;
        fn spec(doc: &Value) -> Result<(), String> {
            ExperimentSpec::from_json(doc)
                .map(drop)
                .map_err(|e| e.to_string())
        }
        fn outcome(doc: &Value) -> Result<(), String> {
            crate::point_job::outcome_from_json(doc).map(drop)
        }
        use crate::artifact::validate_artifact_json as artifact;
        /// `doc` with the key at `path` set to `value`, or removed for `None`.
        fn with(doc: &Value, path: &[&str], value: Option<Value>) -> Value {
            let mut doc = doc.clone();
            let (last, parents) = path.split_last().expect("a non-empty path");
            let parent = parents.iter().fold(&mut doc, |node, key| &mut node[*key]);
            match (value, parent) {
                (Some(value), parent) => parent[*last] = value,
                (None, Value::Object(map)) => drop(map.remove(*last)),
                (None, _) => panic!("no object at {path:?}"),
            }
            doc
        }
        let named = |kind| {
            ExperimentSpec {
                name: "x".into(),
                title: "x".into(),
                seed: 1,
                kind,
            }
            .to_json()
        };
        let ler = sample_spec().to_json();
        let comparison = named(ExperimentKind::DecoderComparison(DecoderComparisonSpec {
            distances: vec![3],
            improvements: vec![1.0],
            decoders: vec![DecoderKind::UnionFind],
            shots: 10,
            capacity: 2,
        }));
        let timing = named(ExperimentKind::TimingSweep(TimingSweepSpec {
            configurations: vec![ArchPoint::grid(2, 1.0)],
            distances: vec![3],
            metric: TimingMetric::RoundTime,
            include_bounds: false,
        }));
        let surgery = named(ExperimentKind::Surgery(SurgerySpec {
            capacities: vec![2],
            distances: vec![3],
            merge: MergeKind::XX,
            gate_improvement: 1.0,
        }));
        let payload = crate::point_job::outcome_to_json(&crate::sweep::LerOutcome {
            label: "grid c2".into(),
            distance: 3,
            decoder: DecoderKind::UnionFind,
            seed: 9,
            shots_requested: 10,
            result: Ok(qccd_decoder::LogicalErrorEstimate {
                shots: 10,
                failures: 1,
                logical_error_rate: 0.1,
                std_error: 0.09,
            }),
            cache: Some(qccd_decoder::CacheStats::default()),
        });
        // `data` is free-form, `null` included.
        let art = serde_json::json!({
            "title": "T", "headers": ["a"], "rows": [["1"]], "notes": [], "data": null,
            "metadata": {"spec_name": "x", "spec_hash": "0", "seed": 1,
                         "git_describe": null, "thread_invariant": true},
        });
        for doc in [&ler, &comparison, &timing, &surgery] {
            spec(doc).unwrap();
        }
        outcome(&payload).unwrap();
        artifact(&art).unwrap();
        let cases: Vec<(&str, Decode, Value)> = vec![
            ("shots", spec, with(&ler, &["experiment", "shots"], None)),
            (
                "shots",
                spec,
                with(&ler, &["experiment", "shots"], Some("2000".into())),
            ),
            ("seed", spec, with(&ler, &["seed"], Some(Value::Null))),
            (
                "memo",
                spec,
                with(
                    &ler,
                    &["experiment", "estimator", "memo"],
                    Some(Value::Null),
                ),
            ),
            (
                "num_threads",
                spec,
                with(
                    &ler,
                    &["experiment", "estimator", "num_threads"],
                    Some("2".into()),
                ),
            ),
            (
                "decoders",
                spec,
                with(
                    &comparison,
                    &["experiment", "decoders"],
                    Some(serde_json::json!([7])),
                ),
            ),
            (
                "sample_distances",
                spec,
                with(
                    &ler,
                    &["experiment", "sample_distances"],
                    Some(serde_json::json!([3, 5.5])),
                ),
            ),
            (
                "decoder",
                spec,
                with(&ler, &["experiment", "decoder"], Some("quantum".into())),
            ),
            (
                "decoder",
                spec,
                with(
                    &ler,
                    &["experiment", "decoder"],
                    Some("greedy_matching".into()),
                ),
            ),
            (
                "metric",
                spec,
                with(
                    &timing,
                    &["experiment", "metric"],
                    Some("wall_clock".into()),
                ),
            ),
            (
                "merge",
                spec,
                with(&surgery, &["experiment", "merge"], Some("yy".into())),
            ),
            (
                "experiment",
                spec,
                with(&ler, &["experiment", "experiment"], Some("nonsense".into())),
            ),
            (
                "err",
                outcome,
                with(&payload, &["result"], Some(serde_json::json!({}))),
            ),
            (
                "ok",
                outcome,
                with(
                    &payload,
                    &["result"],
                    Some(serde_json::json!({"ok": null, "err": "x"})),
                ),
            ),
            (
                "ok",
                outcome,
                with(&payload, &["result"], Some(serde_json::json!({"ok": null}))),
            ),
            ("cache", outcome, with(&payload, &["cache"], None)),
            (
                "hits",
                outcome,
                with(&payload, &["cache", "hits"], Some(Value::Null)),
            ),
            (
                "seed",
                outcome,
                with(&payload, &["seed"], Some((-3).into())),
            ),
            (
                "shots",
                outcome,
                with(&payload, &["result", "ok", "shots"], Some(1.5.into())),
            ),
            (
                "decoder",
                outcome,
                with(&payload, &["decoder"], Some("quantum".into())),
            ),
            ("title", artifact, with(&art, &["title"], None)),
            (
                "headers",
                artifact,
                with(&art, &["headers"], Some(serde_json::json!([7]))),
            ),
            (
                "rows",
                artifact,
                with(&art, &["rows"], Some(serde_json::json!([[1]]))),
            ),
            (
                "rows",
                artifact,
                with(&art, &["rows"], Some(serde_json::json!([["1", "2"]]))),
            ),
            ("data", artifact, with(&art, &["data"], None)),
            (
                "metadata",
                artifact,
                with(&art, &["metadata"], Some(Value::Null)),
            ),
            (
                "seed",
                artifact,
                with(&art, &["metadata", "seed"], Some("1".into())),
            ),
        ];
        for (field, decode, doc) in &cases {
            let message = decode(doc).expect_err(&format!("{doc} must be rejected"));
            assert!(message.contains(&format!("`{field}`")), "{message}");
        }
    }
}
