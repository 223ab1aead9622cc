//! Cross-spec compiled-program cache.
//!
//! Every sweep point, experiment spec and decode-service stream that
//! evaluates the same `(architecture, workload)` pair pays the same compile
//! (map → route → schedule). Compilation is a pure function of its inputs,
//! so the result can be shared freely: [`ProgramCache`] memoizes
//! `Arc<CompiledProgram>`s under a caller-supplied canonical key, and
//! [`shared`] exposes one process-wide instance that
//! [`Toolflow`](crate::Toolflow) (and therefore `artifacts run --all`) and
//! the streaming decode service consult, so each shared
//! `(architecture, distance)` program is compiled exactly once per process.
//!
//! Caching never changes results — cached and fresh compiles are the same
//! value by purity — and the cache is bounded: when it reaches its capacity
//! it is cleared wholesale (compilations are cheap enough that an occasional
//! cold restart beats eviction bookkeeping).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use qccd_qec::MemoryBasis;

use crate::{ArchitectureConfig, CompileError, CompiledProgram};

/// Default entry capacity of a [`ProgramCache`].
pub const DEFAULT_PROGRAM_CACHE_CAPACITY: usize = 256;

/// Hit/miss counters of a [`ProgramCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
}

/// A bounded, thread-safe memo of compiled programs keyed by a canonical
/// description of `(architecture, workload)`.
#[derive(Debug, Default)]
pub struct ProgramCache {
    entries: Mutex<HashMap<String, Arc<CompiledProgram>>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    /// A cache bounded at `capacity` entries (cleared wholesale when full).
    pub fn new(capacity: usize) -> Self {
        ProgramCache {
            entries: Mutex::new(HashMap::new()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Returns the cached program under `key`, or runs `compile`, caches its
    /// result and returns it. Compile errors are never cached (the next
    /// lookup retries).
    ///
    /// The compile runs *outside* the cache lock, so concurrent misses on
    /// the same key may compile twice — the first insert wins and both
    /// callers observe the same purity-guaranteed value.
    ///
    /// # Errors
    ///
    /// Propagates the [`CompileError`] of `compile`.
    pub fn get_or_compile(
        &self,
        key: &str,
        compile: impl FnOnce() -> Result<CompiledProgram, CompileError>,
    ) -> Result<Arc<CompiledProgram>, CompileError> {
        if let Some(hit) = self
            .entries
            .lock()
            .expect("program cache lock")
            .get(key)
            .cloned()
        {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let program = Arc::new(compile()?);
        let mut entries = self.entries.lock().expect("program cache lock");
        if entries.len() >= self.capacity {
            entries.clear();
        }
        Ok(entries.entry(key.to_string()).or_insert(program).clone())
    }

    /// Number of cached programs.
    pub fn len(&self) -> usize {
        self.entries.lock().expect("program cache lock").len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached program.
    pub fn clear(&self) {
        self.entries.lock().expect("program cache lock").clear();
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> ProgramCacheStats {
        ProgramCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

/// The process-wide shared cache used by
/// [`Toolflow::evaluate`](crate::Toolflow::evaluate) and
/// [`Toolflow::estimate`](crate::Toolflow::estimate) for their
/// rotated-surface-code workloads.
pub fn shared() -> &'static ProgramCache {
    static SHARED: OnceLock<ProgramCache> = OnceLock::new();
    SHARED.get_or_init(|| ProgramCache::new(DEFAULT_PROGRAM_CACHE_CAPACITY))
}

/// Canonical cache key for `rounds` rounds of parity checks of the
/// rotated surface code at `distance` under `arch` (the default geometric
/// mapping strategy). The `Debug` rendering of the architecture covers every
/// field that feeds the compiler — topology, capacity, wiring, timing model
/// and noise parameters — with exact float formatting, so distinct
/// configurations cannot collide.
pub fn rounds_key(arch: &ArchitectureConfig, distance: usize, rounds: usize) -> String {
    format!("rounds|d{distance}|r{rounds}|{arch:?}")
}

/// Canonical cache key for a full memory experiment of the rotated surface
/// code at `distance` (`rounds` rounds, measurement `basis`) under `arch`.
pub fn memory_key(
    arch: &ArchitectureConfig,
    distance: usize,
    rounds: usize,
    basis: MemoryBasis,
) -> String {
    format!("memory|d{distance}|r{rounds}|{basis:?}|{arch:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use qccd_qec::rotated_surface_code;

    #[test]
    fn cache_compiles_once_per_key_and_results_are_shared() {
        let cache = ProgramCache::new(8);
        let arch = ArchitectureConfig::recommended(1.0);
        let key = rounds_key(&arch, 3, 1);
        let compile = || Compiler::new(arch.clone()).compile_rounds(&rotated_surface_code(3), 1);
        let a = cache.get_or_compile(&key, compile).unwrap();
        let b = cache.get_or_compile(&key, compile).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second lookup is a hit");
        assert_eq!(cache.stats(), ProgramCacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.len(), 1);
        // A different distance is a different key.
        let other = rounds_key(&arch, 5, 1);
        cache
            .get_or_compile(&other, || {
                Compiler::new(arch.clone()).compile_rounds(&rotated_surface_code(5), 1)
            })
            .unwrap();
        assert_eq!(cache.len(), 2);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn keys_separate_architectures_and_workloads() {
        let a = ArchitectureConfig::recommended(1.0);
        let b = ArchitectureConfig::recommended(5.0);
        assert_ne!(rounds_key(&a, 3, 1), rounds_key(&b, 3, 1));
        assert_ne!(rounds_key(&a, 3, 1), rounds_key(&a, 3, 2));
        assert_ne!(
            memory_key(&a, 3, 3, MemoryBasis::Z),
            memory_key(&a, 3, 3, MemoryBasis::X)
        );
        assert_ne!(rounds_key(&a, 3, 1), memory_key(&a, 3, 1, MemoryBasis::Z));
    }

    #[test]
    fn errors_are_not_cached_and_capacity_bounds_entries() {
        let cache = ProgramCache::new(1);
        let arch = ArchitectureConfig::recommended(1.0);
        let failing = cache.get_or_compile("bogus", || {
            Err(CompileError::RoutingStuck {
                pending_instructions: 1,
            })
        });
        assert!(failing.is_err());
        assert!(cache.is_empty(), "errors are not cached");
        // Filling past capacity clears rather than grows.
        for d in [3usize, 5] {
            cache
                .get_or_compile(&rounds_key(&arch, d, 1), || {
                    Compiler::new(arch.clone()).compile_rounds(&rotated_surface_code(d), 1)
                })
                .unwrap();
        }
        assert_eq!(cache.len(), 1);
    }
}
