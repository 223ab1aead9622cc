//! Kept only because the frozen benchmark package calls it; delete with the
//! next `benchmark` PR. Nothing is cached: the caller that holds a compiled
//! program keeps it, and every `get_or_compile` compiles.

use std::sync::Arc;

use crate::{ArchitectureConfig, CompileError, CompiledProgram};

#[derive(Debug, Default)]
pub struct Stats { pub hits: u64, pub misses: u64 }
#[derive(Debug)]
pub struct Uncached;

type Compiled<P> = Result<P, CompileError>;

impl Uncached {
    pub fn get_or_compile(&self, _: &str, compile: impl FnOnce() -> Compiled<CompiledProgram>)
        -> Compiled<Arc<CompiledProgram>> { compile().map(Arc::new) }
    pub fn clear(&self) {}
    pub fn stats(&self) -> Stats { Stats::default() }
}

pub fn shared() -> &'static Uncached { &Uncached }

pub fn memory_key<B>(_: &ArchitectureConfig, _: usize, _: usize, _: B) -> String { String::new() }
