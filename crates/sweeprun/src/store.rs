//! Persistent, content-hash-keyed per-point result store.
//!
//! Layout under the store base directory, one subdirectory per job keyed by
//! the job's name and content hash:
//!
//! ```text
//! <base>/<name>-<hash>/
//!     manifest.json                     job descriptor + grid shape + seeds
//!     status.json                       latest progress snapshot (atomic)
//!     points/point-<index>-<seed>.json  one finished point payload each
//!     failed/point-<index>.json         failure record
//! ```
//!
//! Every file is written via temp-file-then-rename in the same directory, so
//! a point file either exists complete or not at all — a `SIGKILL` mid-write
//! can cost at most the point being written, never corrupt one. A killed run
//! therefore resumes by scanning `points/` and recomputing only the missing
//! indices; because point payloads are pure functions of `(job, index,
//! seed)`, the merged artifact is bit-identical to an uninterrupted run.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use serde_json::Value;

use crate::job::JobDescriptor;

/// Store format version recorded in every manifest.
pub const STORE_VERSION: u64 = 1;

/// Handle to one job's on-disk point directory.
#[derive(Debug)]
pub struct PointStore {
    root: PathBuf,
    descriptor: JobDescriptor,
    seeds: Vec<u64>,
}

/// What [`PointStore::open`] found on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreState {
    /// The directory was created by this call.
    Created,
    /// A manifest for the same job already existed and matched.
    Resumed,
}

/// Writes `text` to `path` atomically: temp file in the same directory,
/// flushed, then renamed into place.
///
/// # Errors
///
/// Returns a message naming the path on any I/O failure.
pub fn write_atomic(path: &Path, text: &str) -> Result<(), String> {
    static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);
    let dir = path
        .parent()
        .ok_or_else(|| format!("{} has no parent directory", path.display()))?;
    let stamp = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(".tmp-{}-{stamp}", std::process::id()));
    let write = |tmp: &Path| -> std::io::Result<()> {
        let mut file = fs::File::create(tmp)?;
        file.write_all(text.as_bytes())?;
        file.sync_all()?;
        fs::rename(tmp, path)
    };
    write(&tmp).map_err(|e| {
        let _ = fs::remove_file(&tmp);
        format!("writing {}: {e}", path.display())
    })
}

impl PointStore {
    /// Opens (creating if needed) the store directory for `descriptor`
    /// under `base`, with the full per-point seed table.
    ///
    /// # Errors
    ///
    /// Fails if the directory holds a manifest for a *different* job (hash,
    /// grid size, or seed table mismatch — resuming with skewed code would
    /// silently break bit-identity), or on I/O errors.
    pub fn open(
        base: &Path,
        descriptor: &JobDescriptor,
        seeds: Vec<u64>,
    ) -> Result<(Self, StoreState), String> {
        let root = Self::root_in(base, descriptor);
        fs::create_dir_all(root.join("points"))
            .map_err(|e| format!("creating {}: {e}", root.display()))?;
        fs::create_dir_all(root.join("failed"))
            .map_err(|e| format!("creating {}: {e}", root.display()))?;
        let store = PointStore {
            root,
            descriptor: descriptor.clone(),
            seeds,
        };
        let manifest_path = store.root.join("manifest.json");
        if manifest_path.exists() {
            store.check_manifest(&manifest_path)?;
            Ok((store, StoreState::Resumed))
        } else {
            let manifest = serde_json::json!({
                "store_version": STORE_VERSION,
                "job": store.descriptor.to_json(),
                "num_points": store.seeds.len() as u64,
                "seeds": store
                    .seeds
                    .iter()
                    .map(|s| Value::from(*s))
                    .collect::<Vec<Value>>(),
            });
            write_atomic(&manifest_path, &manifest.to_string())?;
            Ok((store, StoreState::Created))
        }
    }

    /// Opens the store a run already created, writing nothing.
    ///
    /// # Errors
    ///
    /// Fails naming the directory it looked for when there is no store, and
    /// like [`PointStore::open`] when the store belongs to a different job.
    pub fn open_existing(
        base: &Path,
        descriptor: &JobDescriptor,
        seeds: Vec<u64>,
    ) -> Result<Self, String> {
        let (root, descriptor) = (Self::root_in(base, descriptor), descriptor.clone());
        let manifest_path = root.join("manifest.json");
        if !manifest_path.is_file() {
            return Err(format!("no sweep store at {}", root.display()));
        }
        let store = PointStore {
            root,
            descriptor,
            seeds,
        };
        store.check_manifest(&manifest_path)?;
        Ok(store)
    }

    /// `<base>/<name>-<hash>`, the directory of `descriptor`'s store.
    fn root_in(base: &Path, descriptor: &JobDescriptor) -> PathBuf {
        let name = sanitize(&descriptor.name);
        base.join(format!("{name}-{}", descriptor.hash))
    }

    fn check_manifest(&self, path: &Path) -> Result<(), String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let job = value
            .get("job")
            .ok_or_else(|| format!("{} has no `job`", path.display()))?;
        let existing = JobDescriptor::from_json(job)?;
        if existing.hash != self.descriptor.hash || existing.kind != self.descriptor.kind {
            return Err(format!(
                "store {} belongs to job {}/{}, not {}/{}",
                self.root.display(),
                existing.kind,
                existing.hash,
                self.descriptor.kind,
                self.descriptor.hash
            ));
        }
        let num_points = value.get("num_points").and_then(Value::as_u64);
        if num_points != Some(self.seeds.len() as u64) {
            return Err(format!(
                "store {} has {num_points:?} points, job has {}",
                self.root.display(),
                self.seeds.len()
            ));
        }
        let seeds: Option<Vec<u64>> = value.get("seeds").and_then(Value::as_array).map(|list| {
            list.iter()
                .map(|v| v.as_u64().unwrap_or_default())
                .collect()
        });
        if seeds.as_deref() != Some(&self.seeds[..]) {
            return Err(format!(
                "store {} was built with a different seed table; refusing to mix results",
                self.root.display()
            ));
        }
        Ok(())
    }

    /// The job this store belongs to.
    pub fn descriptor(&self) -> &JobDescriptor {
        &self.descriptor
    }

    /// Grid size.
    pub fn num_points(&self) -> usize {
        self.seeds.len()
    }

    /// Seed of the point at `index`.
    pub fn seed(&self, index: usize) -> u64 {
        self.seeds[index]
    }

    /// The store's root directory (`<base>/<name>-<hash>`).
    pub fn root(&self) -> &Path {
        &self.root
    }

    fn point_path(&self, index: usize) -> PathBuf {
        self.root
            .join("points")
            .join(format!("point-{index:06}-{:016x}.json", self.seeds[index]))
    }

    fn failed_path(&self, index: usize) -> PathBuf {
        self.root
            .join("failed")
            .join(format!("point-{index:06}.json"))
    }

    /// Persists one finished point atomically and clears any earlier
    /// failure record for it.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn store_point(&self, index: usize, payload: &Value) -> Result<(), String> {
        let envelope = serde_json::json!({
            "index": index as u64,
            "seed": Value::from(self.seeds[index]),
            "payload": payload,
        });
        write_atomic(&self.point_path(index), &envelope.to_string())?;
        let _ = fs::remove_file(self.failed_path(index));
        Ok(())
    }

    /// Loads a finished point's payload, or `None` if it is not done.
    ///
    /// # Errors
    ///
    /// Fails if the file exists but is unreadable or records a different
    /// `(index, seed)` than the manifest says it must.
    pub fn load_point(&self, index: usize) -> Result<Option<Value>, String> {
        let path = self.point_path(index);
        let text = match fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("reading {}: {e}", path.display())),
        };
        let value: Value =
            serde_json::from_str(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        let stored_index = value.get("index").and_then(Value::as_u64);
        let stored_seed = value.get("seed").and_then(Value::as_u64);
        if stored_index != Some(index as u64) || stored_seed != Some(self.seeds[index]) {
            return Err(format!(
                "{} records point {stored_index:?}/seed {stored_seed:?}, expected {index}/{}",
                path.display(),
                self.seeds[index]
            ));
        }
        value
            .get("payload")
            .cloned()
            .map(Some)
            .ok_or_else(|| format!("{} has no payload", path.display()))
    }

    /// Records that the evaluation or write of `index` failed. The point
    /// stays missing, so the next run on the store evaluates it again; a
    /// later success clears the record.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn record_failure(&self, index: usize, error: &str) -> Result<(), String> {
        let record = serde_json::json!({
            "index": index as u64,
            "seed": Value::from(self.seeds[index]),
            "error": error,
        });
        write_atomic(&self.failed_path(index), &record.to_string())
    }

    /// Indices with no finished point on disk — the work a resumed run
    /// still owes.
    pub fn missing_indices(&self) -> Vec<usize> {
        (0..self.seeds.len())
            .filter(|&index| !self.point_path(index).exists())
            .collect()
    }

    /// Number of finished points on disk.
    pub fn done_count(&self) -> usize {
        self.seeds.len() - self.missing_indices().len()
    }

    /// Failure records currently on disk, as `(index, error)`.
    pub fn failures(&self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for index in 0..self.seeds.len() {
            if let Ok(text) = fs::read_to_string(self.failed_path(index)) {
                let error = serde_json::from_str(&text)
                    .ok()
                    .and_then(|v| v.get("error").and_then(Value::as_str).map(str::to_string))
                    .unwrap_or_else(|| "unreadable failure record".to_string());
                out.push((index, error));
            }
        }
        out
    }

    /// Atomically replaces `status.json` with `snapshot`.
    ///
    /// # Errors
    ///
    /// Returns a message on I/O failure.
    pub fn write_status(&self, snapshot: &Value) -> Result<(), String> {
        write_atomic(&self.root.join("status.json"), &snapshot.to_string())
    }

    /// Reads the last progress snapshot, if any run has written one.
    pub fn read_status(&self) -> Option<Value> {
        let text = fs::read_to_string(self.root.join("status.json")).ok()?;
        serde_json::from_str(&text).ok()
    }
}

/// Keeps store directory names filesystem-safe.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::testutil::MockJob;
    use crate::job::PointJob;

    fn temp_base(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sweeprun-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn mock_store(base: &Path, points: usize) -> (PointStore, StoreState) {
        let job = MockJob::new(points);
        let seeds = (0..points).map(|i| job.point_seed(i)).collect();
        PointStore::open(base, &job.descriptor(), seeds).unwrap()
    }

    #[test]
    fn round_trips_points_and_tracks_missing() {
        let base = temp_base("roundtrip");
        let (store, state) = mock_store(&base, 4);
        assert_eq!(state, StoreState::Created);
        assert_eq!(store.missing_indices(), vec![0, 1, 2, 3]);

        let payload = serde_json::json!({"value": 42u64});
        store.store_point(1, &payload).unwrap();
        store.store_point(3, &payload).unwrap();
        assert_eq!(store.missing_indices(), vec![0, 2]);
        assert_eq!(store.done_count(), 2);
        assert_eq!(store.load_point(1).unwrap(), Some(payload.clone()));
        assert_eq!(store.load_point(0).unwrap(), None);

        // Reopening the same job resumes instead of starting over.
        let (reopened, state) = mock_store(&base, 4);
        assert_eq!(state, StoreState::Resumed);
        assert_eq!(reopened.missing_indices(), vec![0, 2]);
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn open_existing_reads_a_store_and_never_creates_one() {
        let base = temp_base("existing");
        let job = MockJob::new(3);
        let seeds: Vec<u64> = (0..3).map(|i| job.point_seed(i)).collect();
        let err = PointStore::open_existing(&base, &job.descriptor(), seeds.clone()).unwrap_err();
        assert!(err.contains(&base.display().to_string()), "{err}");
        assert_eq!(fs::read_dir(&base).unwrap().count(), 0, "nothing written");

        let (store, _) = mock_store(&base, 3);
        store
            .store_point(2, &serde_json::json!({"value": 1u64}))
            .unwrap();
        let existing = PointStore::open_existing(&base, &job.descriptor(), seeds).unwrap();
        assert_eq!(existing.root(), store.root());
        assert_eq!(existing.missing_indices(), vec![0, 1]);
        let bad_seeds = (0..3).map(|i| job.point_seed(i) ^ 1).collect();
        assert!(PointStore::open_existing(&base, &job.descriptor(), bad_seeds).is_err());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn rejects_mismatched_manifest() {
        let base = temp_base("mismatch");
        let (_store, _) = mock_store(&base, 4);

        // Same name/hash directory but a different seed table must refuse.
        let job = MockJob::new(4);
        let bad_seeds: Vec<u64> = (0..4).map(|i| job.point_seed(i) ^ 1).collect();
        let err = PointStore::open(&base, &job.descriptor(), bad_seeds).unwrap_err();
        assert!(err.contains("seed table"), "unexpected error: {err}");
        let _ = fs::remove_file(base.join(".keep"));
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn failure_records_are_cleared_by_success() {
        let base = temp_base("failure");
        let (store, _) = mock_store(&base, 2);
        store.record_failure(0, "flaky").unwrap();
        assert_eq!(store.failures(), vec![(0, "flaky".to_string())]);
        store
            .store_point(0, &serde_json::json!({"ok": true}))
            .unwrap();
        assert!(store.failures().is_empty());
        let _ = fs::remove_dir_all(&base);
    }

    #[test]
    fn status_snapshot_round_trips() {
        let base = temp_base("status");
        let (store, _) = mock_store(&base, 1);
        assert!(store.read_status().is_none());
        let snapshot = serde_json::json!({"done": 1u64, "pending": 0u64});
        store.write_status(&snapshot).unwrap();
        assert_eq!(store.read_status(), Some(snapshot));
        let _ = fs::remove_dir_all(&base);
    }
}
