//! Golden fingerprints of the compiler's output.
//!
//! The router's contract is that a change to its data structures leaves the
//! emitted [`RoutedProgram`](qccd_core::RoutedProgram) equal op for op; the
//! scheduler's and the lowering pass's contract is the same for the timed
//! [`Schedule`](qccd_core::Schedule) and the lowered
//! [`NoisyCircuit`](qccd_sim::NoisyCircuit). Each case pins:
//!
//! * an FNV-1a hash of the routed ops' `Debug` rendering, the schedule's
//!   makespan (as bits) and movement-op count;
//! * an FNV-1a hash over every scheduled op's `(start_us, end_us)` bits and
//!   the schedule's summed movement time (as bits);
//! * the lowered circuit's op count, qubit count, measurement count and an
//!   FNV-1a hash of each noisy op's `Debug` rendering.
//!
//! The cases are the benchmark's seven design points, a repetition code on a
//! capacity-2 linear chain, the rotated surface code on short linear chains —
//! the shapes that reach the router's partial-path planning, the on-path and
//! "any free trap" evacuation tiers, failed evacuations and (d3 at capacity
//! 2) the stuck-routing error — and two WISE points, which alone exercise the
//! shared transport controller and the cooled gate durations.
//!
//! Regenerate after an *intentional* compiler change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p qccd-core --test golden_routed_programs
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use qccd_core::{ArchitectureConfig, Compiler};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{repetition_code, rotated_surface_code, CodeLayout, MemoryBasis};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

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

/// FNV-1a over the `Debug` rendering of each item, one line per item.
fn debug_hash<T: std::fmt::Debug>(items: impl IntoIterator<Item = T>) -> u64 {
    let mut hash = FNV_OFFSET;
    let mut line = String::new();
    for item in items {
        line.clear();
        writeln!(line, "{item:?}").expect("write to string");
        hash = fnv1a(line.as_bytes(), hash);
    }
    hash
}

fn fingerprint(name: &str, arch: ArchitectureConfig, layout: &CodeLayout, rounds: usize) -> String {
    let program =
        match Compiler::new(arch).compile_memory_experiment(layout, rounds, MemoryBasis::Z) {
            Ok(program) => program,
            Err(e) => return format!("{name} error={e:?}"),
        };
    let routed_hash = debug_hash(&program.routed.ops);
    let times_hash = program.schedule.ops.iter().fold(FNV_OFFSET, |hash, s| {
        let hash = fnv1a(&s.start_us.to_bits().to_le_bytes(), hash);
        fnv1a(&s.end_us.to_bits().to_le_bytes(), hash)
    });
    let noisy = program.to_noisy_circuit();
    format!(
        "{name} ops={} fnv1a={routed_hash:016x} makespan_bits={:016x} movement_ops={} \
         times_fnv1a={times_hash:016x} movement_time_bits={:016x} \
         noisy_ops={} noisy_qubits={} noisy_measurements={} noisy_fnv1a={:016x}",
        program.routed.ops.len(),
        program.schedule.makespan_us.to_bits(),
        program.schedule.movement_ops,
        program.schedule.movement_time_us.to_bits(),
        noisy.ops().len(),
        noisy.num_qubits(),
        noisy.num_measurements(),
        debug_hash(noisy.ops()),
    )
}

#[test]
fn routed_programs_match_committed_fingerprints() {
    let standard = |topology, capacity| {
        ArchitectureConfig::new(topology, capacity, WiringMethod::Standard, 5.0)
    };
    let surface = |name, topology, capacity, d| {
        fingerprint(
            name,
            standard(topology, capacity),
            &rotated_surface_code(d),
            d,
        )
    };
    let wise = |name, capacity, improvement, d| {
        let arch = ArchitectureConfig::new(
            TopologyKind::Grid,
            capacity,
            WiringMethod::Wise,
            improvement,
        );
        fingerprint(name, arch, &rotated_surface_code(d), d)
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
            standard(TopologyKind::Linear, 2),
            &repetition_code(7),
            3,
        ),
        surface("surface_d2_linear_c2", TopologyKind::Linear, 2, 2),
        surface("surface_d3_linear_c2", TopologyKind::Linear, 2, 3),
        surface("surface_d3_linear_c3", TopologyKind::Linear, 3, 3),
        surface("surface_d3_linear_c4", TopologyKind::Linear, 4, 3),
        wise("wise_grid_c2_d5_1x", 2, 1.0, 5),
        wise("wise_grid_c5_d3", 5, 5.0, 3),
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
        "compiled programs drifted from the committed golden; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test -p qccd-core --test golden_routed_programs"
    );
}
