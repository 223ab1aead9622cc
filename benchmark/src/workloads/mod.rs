//! The six workloads. Each module's header says why the workload exists
//! and which layer it is meant to stress.

pub mod compile;
pub mod ler;
pub mod serve;
pub mod sweep;

use std::path::Path;

use crate::workload::Workload;

/// The workload called `name`; `scratch` is a directory it may write to.
pub fn by_name(name: &str, scratch: &Path) -> Option<Box<dyn Workload>> {
    Some(match name {
        "compile_paper_grid" => Box::new(compile::CompilePaperGrid::default()),
        "ler_noisy_d5" => Box::new(ler::LerPoint::noisy_d5()),
        "ler_quiet_d7" => Box::new(ler::LerPoint::quiet_d7()),
        "sweep_fig10_cold" => Box::new(sweep::SweepFig10Cold::new(
            scratch.join(format!("sweep-store-{}", std::process::id())),
        )),
        "serve_inproc_quiet" => Box::new(serve::ServeInprocQuiet::default()),
        "serve_tcp_packed" => Box::new(serve::ServeTcpPacked::default()),
        _ => return None,
    })
}
