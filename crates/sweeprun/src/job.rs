//! The job abstraction the sweep runner runs.
//!
//! A [`PointJob`] is a fixed grid of independently evaluable points with
//! deterministic per-point seeds. The runner never looks inside a point: it
//! hands `(index, seed)` pairs to [`PointJob::eval`] and persists the
//! returned JSON payload under the point's key, so any domain (LER sweeps,
//! timing grids, calibration scans) plugs in by implementing the trait.

use serde_json::Value;

/// The identity of a job, recorded in the store manifest so that a resumed
/// run can check it is running the same job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDescriptor {
    /// Job family (e.g. `"experiment_spec"`).
    pub kind: String,
    /// Human-readable job name (e.g. the spec's registry name).
    pub name: String,
    /// Content hash of the job definition. Two jobs with the same hash
    /// must evaluate every point bit-identically; the hash keys the
    /// [point store](crate::store::PointStore) directory and guards
    /// against resuming a store with a different job.
    pub hash: String,
    /// The job definition itself (e.g. the full experiment-spec JSON).
    pub payload: Value,
}

impl JobDescriptor {
    /// Serializes the descriptor for the store manifest.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "kind": self.kind,
            "name": self.name,
            "hash": self.hash,
            "payload": self.payload,
        })
    }

    /// Parses a descriptor back from its JSON encoding.
    ///
    /// # Errors
    ///
    /// Returns a message on missing or ill-typed fields.
    pub fn from_json(value: &Value) -> Result<Self, String> {
        let text = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("job descriptor needs a string `{key}`"))
        };
        Ok(JobDescriptor {
            kind: text("kind")?,
            name: text("name")?,
            hash: text("hash")?,
            payload: value
                .get("payload")
                .cloned()
                .ok_or("job descriptor needs a `payload`")?,
        })
    }
}

/// A grid of independently evaluable points (see the [module docs](self)).
///
/// # Contract
///
/// `eval(index, seed)` must be a pure function of `(descriptor, index,
/// seed)`: bit-identical on every thread, any number of times. The runner
/// relies on this for resume bit-identity (a recomputed point equals the
/// one a killed run lost).
pub trait PointJob: Send + Sync {
    /// The job's identity.
    fn descriptor(&self) -> JobDescriptor;

    /// Number of points in the grid.
    fn num_points(&self) -> usize;

    /// Deterministic seed of the point at `index`.
    fn point_seed(&self, index: usize) -> u64;

    /// Evaluates one point into its JSON result payload.
    ///
    /// # Errors
    ///
    /// An `Err` (or a panic) fails the point: the runner records it in
    /// `failed/` and leaves it missing for the next run on the store.
    /// Domain-level soft failures that should surface in the merged output
    /// (e.g. a compile error rendered into a table row) belong *inside* an
    /// `Ok` payload instead.
    fn eval(&self, index: usize, seed: u64) -> Result<Value, String>;
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;

    /// A deterministic toy job for runner tests: point `i` evaluates
    /// to `{"index": i, "value": seed ^ i}`.
    #[derive(Debug, Clone)]
    pub struct MockJob {
        /// Grid size.
        pub points: usize,
        /// Indices whose evaluation fails (on every call).
        pub poisoned: Vec<usize>,
    }

    impl MockJob {
        pub fn new(points: usize) -> Self {
            MockJob {
                points,
                poisoned: Vec::new(),
            }
        }

        pub fn descriptor_for(points: usize) -> JobDescriptor {
            JobDescriptor {
                kind: "mock".into(),
                name: "mock".into(),
                hash: format!("{points:016x}"),
                payload: serde_json::json!({ "points": points as u64 }),
            }
        }
    }

    impl PointJob for MockJob {
        fn descriptor(&self) -> JobDescriptor {
            MockJob::descriptor_for(self.points)
        }

        fn num_points(&self) -> usize {
            self.points
        }

        fn point_seed(&self, index: usize) -> u64 {
            (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x5bd1_e995
        }

        fn eval(&self, index: usize, seed: u64) -> Result<Value, String> {
            if self.poisoned.contains(&index) {
                return Err(format!("point {index} is poisoned"));
            }
            Ok(serde_json::json!({
                "index": index as u64,
                "value": seed ^ index as u64,
            }))
        }
    }

    #[test]
    fn descriptor_round_trips() {
        let descriptor = MockJob::descriptor_for(4);
        let parsed = JobDescriptor::from_json(&descriptor.to_json()).unwrap();
        assert_eq!(parsed, descriptor);
        assert!(JobDescriptor::from_json(&serde_json::json!({"kind": "x"})).is_err());
    }
}
