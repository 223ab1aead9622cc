//! Structured experiment results.
//!
//! Running an [`ExperimentSpec`] produces an
//! [`Artifact`]: the rendered table (headers + rows), the structured numeric
//! payload (sampled points with standard errors, Λ fits with confidence
//! intervals, derived resources), and provenance metadata (engine seed, spec
//! content hash, `git describe`, thread-invariance contract). One artifact
//! serves all three emitters — pretty table, CSV, JSON — so every consumer
//! sees the same numbers.

use std::sync::OnceLock;

use serde_json::Value;

use crate::format_table;
use crate::spec::{req, ExperimentSpec};

/// Provenance of one artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ArtifactMetadata {
    /// Registry name of the spec that produced this artifact.
    pub spec_name: String,
    /// Content hash of that spec (see
    /// [`ExperimentSpec::content_hash`]).
    pub spec_hash: String,
    /// Sweep-engine seed all Monte-Carlo points derived their seeds from.
    pub seed: u64,
    /// `git describe --always --dirty` of the producing tree, when
    /// available.
    pub git_describe: Option<String>,
    /// Whether the numbers are bit-identical for any worker-thread count
    /// (the sweep/estimator determinism contract; pinned by the golden and
    /// property tests).
    pub thread_invariant: bool,
}

impl ArtifactMetadata {
    /// Metadata for a run of `spec`.
    pub fn for_spec(spec: &ExperimentSpec) -> Self {
        ArtifactMetadata {
            spec_name: spec.name.clone(),
            spec_hash: spec.content_hash(),
            seed: spec.seed,
            git_describe: git_describe(),
            thread_invariant: true,
        }
    }
}

/// `git describe --always --dirty` of the current tree, if git is available.
/// The command runs once per process (a spawn costs milliseconds, and a
/// sweep merges an artifact per run); later calls return its first answer.
pub fn git_describe() -> Option<String> {
    static DESCRIBE: OnceLock<Option<String>> = OnceLock::new();
    DESCRIBE
        .get_or_init(|| {
            let output = std::process::Command::new("git")
                .args(["describe", "--always", "--dirty"])
                .output()
                .ok()?;
            if !output.status.success() {
                return None;
            }
            let text = String::from_utf8(output.stdout).ok()?;
            let trimmed = text.trim();
            (!trimmed.is_empty()).then(|| trimmed.to_string())
        })
        .clone()
}

/// One experiment's complete result (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// Table title.
    pub title: String,
    /// Table column headers.
    pub headers: Vec<String>,
    /// Table rows (one cell per header).
    pub rows: Vec<Vec<String>>,
    /// Free-form reading notes printed after the table.
    pub notes: Vec<String>,
    /// Structured numeric payload (per-configuration entries with sampled
    /// points, fits, derived resources, …).
    pub data: Value,
    /// Provenance.
    pub metadata: ArtifactMetadata,
}

impl Artifact {
    /// Serializes the whole artifact (table, data and metadata) to JSON.
    pub fn to_json(&self) -> Value {
        serde_json::json!({
            "title": self.title,
            "headers": self.headers.clone(),
            "rows": Value::Array(
                self.rows.iter().map(|row| Value::from(row.clone())).collect(),
            ),
            "notes": self.notes.clone(),
            "data": self.data,
            "metadata": {
                "spec_name": self.metadata.spec_name,
                "spec_hash": self.metadata.spec_hash,
                "seed": self.metadata.seed,
                "git_describe": self.metadata.git_describe,
                "thread_invariant": self.metadata.thread_invariant,
            },
        })
    }

    /// Renders the aligned pretty table (plus notes and provenance) as text.
    pub fn render_pretty(&self) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut out = format_table(&self.title, &headers, &self.rows);
        for note in &self.notes {
            out.push('\n');
            out.push_str(note);
            out.push('\n');
        }
        let provenance = format!(
            "\n[{} spec {}{}]\n",
            self.metadata.spec_name,
            self.metadata.spec_hash,
            match &self.metadata.git_describe {
                Some(describe) => format!(" @ {describe}"),
                None => String::new(),
            },
        );
        out.push_str(&provenance);
        out
    }

    /// Renders the table as CSV (RFC-4180 quoting).
    pub fn to_csv(&self) -> String {
        fn quote(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        }
        let mut out = String::new();
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

/// Checks that a JSON value has the artifact schema: a `title` string,
/// `headers` strings, `rows` of string cells matching the header width,
/// `notes` strings, a `data` payload, and a complete `metadata` object.
///
/// # Errors
///
/// Returns a description of the first violation.
pub fn validate_artifact_json(value: &Value) -> Result<(), String> {
    req::<String>(value, "title")?;
    let headers: Vec<String> = req(value, "headers")?;
    for (i, row) in req::<Vec<Vec<String>>>(value, "rows")?.iter().enumerate() {
        if row.len() != headers.len() {
            return Err(format!(
                "field `rows`: row {i} has {} cells but there are {} headers",
                row.len(),
                headers.len()
            ));
        }
    }
    req::<Vec<String>>(value, "notes")?;
    // `data` is free-form, `null` included, but the key must be there.
    if value.get("data").is_none() {
        return Err("field `data` is missing".to_string());
    }
    let metadata: &Value = req(value, "metadata")?;
    req::<String>(metadata, "spec_name")?;
    req::<String>(metadata, "spec_hash")?;
    req::<u64>(metadata, "seed")?;
    req::<bool>(metadata, "thread_invariant")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        Artifact {
            title: "T".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![
                vec!["1".into(), "x, \"quoted\"".into()],
                vec!["2".into(), "y".into()],
            ],
            notes: vec!["note".into()],
            data: serde_json::json!([{"d": 3, "ler": 0.25}]),
            metadata: ArtifactMetadata {
                spec_name: "demo".into(),
                spec_hash: "0123456789abcdef".into(),
                seed: 2026,
                git_describe: Some("abc123".into()),
                thread_invariant: true,
            },
        }
    }

    #[test]
    fn csv_quotes_reserved_characters() {
        let csv = sample().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("a,b"));
        assert_eq!(lines.next(), Some("1,\"x, \"\"quoted\"\"\""));
        assert_eq!(lines.next(), Some("2,y"));
    }

    #[test]
    fn pretty_rendering_contains_table_notes_and_provenance() {
        let text = sample().render_pretty();
        assert!(text.contains("=== T ==="));
        assert!(text.contains("note"));
        assert!(text.contains("demo spec 0123456789abcdef @ abc123"));
    }

    #[test]
    fn schema_validation_rejects_malformed_artifacts() {
        assert!(validate_artifact_json(&sample().to_json()).is_ok());
        assert!(validate_artifact_json(&serde_json::json!([])).is_err());
        assert!(validate_artifact_json(&serde_json::json!({"title": "x"})).is_err());
        let mut ragged = sample().to_json();
        ragged["rows"] = serde_json::json!([["only one cell"]]);
        assert!(validate_artifact_json(&ragged).is_err());
        let mut bad_meta = sample().to_json();
        bad_meta["metadata"] = serde_json::json!({"spec_name": "x"});
        assert!(validate_artifact_json(&bad_meta).is_err());
    }
}
