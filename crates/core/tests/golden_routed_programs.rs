//! Golden fingerprints of the router's output.
//!
//! The router's contract is that a change to its data structures leaves the
//! emitted [`RoutedProgram`](qccd_core::RoutedProgram) equal op for op. Each
//! case pins an FNV-1a hash of the ops' `Debug` rendering together with the
//! schedule's makespan (as bits) and movement-op count: the benchmark's seven
//! design points, a repetition code on a capacity-2 linear chain, and the
//! rotated surface code on short linear chains — the shapes that reach the
//! router's partial-path planning, the on-path and "any free trap" evacuation
//! tiers, failed evacuations and (d3 at capacity 2) the stuck-routing error.
//!
//! Regenerate after an *intentional* routing change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qccd-core --test golden_routed_programs
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{repetition_code, rotated_surface_code, CodeLayout, MemoryBasis};

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("routed_programs.txt")
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn fingerprint(
    name: &str,
    topology: TopologyKind,
    capacity: usize,
    layout: &CodeLayout,
    rounds: usize,
) -> String {
    let arch = ArchitectureConfig::new(topology, capacity, WiringMethod::Standard, 5.0);
    let program =
        match Compiler::new(arch).compile_memory_experiment(layout, rounds, MemoryBasis::Z) {
            Ok(program) => program,
            Err(e) => return format!("{name} error={e:?}"),
        };
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut line = String::new();
    for op in &program.routed.ops {
        line.clear();
        writeln!(line, "{op:?}").expect("write to string");
        hash = fnv1a(line.as_bytes(), hash);
    }
    format!(
        "{name} ops={} fnv1a={hash:016x} makespan_bits={:016x} movement_ops={}",
        program.routed.ops.len(),
        program.schedule.makespan_us.to_bits(),
        program.schedule.movement_ops,
    )
}

#[test]
fn routed_programs_match_committed_fingerprints() {
    let surface = |name, topology, capacity, d| {
        fingerprint(name, topology, capacity, &rotated_surface_code(d), d)
    };
    let lines = [
        surface("grid_c2_d3", TopologyKind::Grid, 2, 3),
        surface("grid_c2_d5", TopologyKind::Grid, 2, 5),
        surface("grid_c2_d7", TopologyKind::Grid, 2, 7),
        surface("grid_c5_d5", TopologyKind::Grid, 5, 5),
        surface("grid_c12_d5", TopologyKind::Grid, 12, 5),
        surface("switch_c2_d5", TopologyKind::Switch, 2, 5),
        surface("linear_c5_d3", TopologyKind::Linear, 5, 3),
        fingerprint(
            "repetition7_linear_c2",
            TopologyKind::Linear,
            2,
            &repetition_code(7),
            3,
        ),
        surface("surface_d2_linear_c2", TopologyKind::Linear, 2, 2),
        surface("surface_d3_linear_c2", TopologyKind::Linear, 2, 3),
        surface("surface_d3_linear_c3", TopologyKind::Linear, 3, 3),
        surface("surface_d3_linear_c4", TopologyKind::Linear, 4, 3),
    ];
    let rendered = lines.join("\n") + "\n";
    let path = golden_path();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().expect("golden dir has a parent"))
            .expect("create golden dir");
        std::fs::write(&path, &rendered).expect("write golden");
        eprintln!("golden expectation rewritten at {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden expectation at {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        rendered, committed,
        "routed programs drifted from the committed golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p qccd-core --test golden_routed_programs"
    );
}
