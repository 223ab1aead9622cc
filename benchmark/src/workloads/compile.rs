//! `compile_paper_grid`: the compiler alone, on the paper's design points.
//!
//! `core` does all the work (routing dominates a compile and grows
//! superlinearly in the distance); `sim`, `decoder` and `service` do none,
//! so a change to those must leave this workload's throughput where it was.

use qccd_core::{
    check_resource_exclusivity, lower_to_noisy_circuit, map_qubits_with_strategy, route, schedule,
    ArchitectureConfig, ClusteringStrategy, Compiler,
};
use qccd_hardware::{TopologyKind, WiringMethod};
use qccd_qec::{memory_experiment, rotated_surface_code, MemoryBasis};
use qccd_sim::{verify_detectors, NoisyCircuit};

use crate::trace::Tracer;
use crate::workload::{Counts, LayerValues, RepOutcome, Workload};

/// One program of the grid: span name, topology, trap capacity, distance.
/// All at 5X gate improvement with standard wiring.
const PROGRAMS: [(&str, TopologyKind, usize, usize); 7] = [
    ("core.compile.grid_c2_d3", TopologyKind::Grid, 2, 3),
    ("core.compile.grid_c2_d5", TopologyKind::Grid, 2, 5),
    ("core.compile.grid_c2_d7", TopologyKind::Grid, 2, 7),
    ("core.compile.grid_c5_d5", TopologyKind::Grid, 5, 5),
    ("core.compile.grid_c12_d5", TopologyKind::Grid, 12, 5),
    ("core.compile.switch_c2_d5", TopologyKind::Switch, 2, 5),
    ("core.compile.linear_c5_d3", TopologyKind::Linear, 5, 3),
];

fn arch_of(topology: TopologyKind, capacity: usize) -> ArchitectureConfig {
    ArchitectureConfig::new(topology, capacity, WiringMethod::Standard, 5.0)
}

/// What a rep keeps of each program for the checks and counts.
struct Compiled {
    schedule: qccd_core::Schedule,
    routed_ops: usize,
    noisy: NoisyCircuit,
}

#[derive(Default)]
pub struct CompilePaperGrid {
    seed: u64,
    last: Vec<Compiled>,
}

impl CompilePaperGrid {
    /// The untraced rep: the one public call a user makes per program.
    fn compile_plain(topology: TopologyKind, capacity: usize, distance: usize) -> Compiled {
        let compiler = Compiler::new(arch_of(topology, capacity));
        let layout = rotated_surface_code(distance);
        let program = compiler
            .compile_memory_experiment(&layout, distance, MemoryBasis::Z)
            .expect("the paper's design points compile");
        let noisy = program.to_noisy_circuit();
        Compiled {
            routed_ops: program.routed.ops.len(),
            schedule: program.schedule,
            noisy,
        }
    }

    /// The traced rep: `compile_circuit`'s passes in its order, one span
    /// each.
    fn compile_traced(
        tracer: &mut Tracer,
        topology: TopologyKind,
        capacity: usize,
        distance: usize,
    ) -> Compiled {
        let arch = arch_of(topology, capacity);
        let layout = rotated_surface_code(distance);
        let experiment = tracer.time("qec.memory_experiment", 1, || {
            memory_experiment(&layout, distance, MemoryBasis::Z)
        });
        let device = tracer.time("hardware.device_for", 1, || {
            arch.device_for(layout.num_qubits())
        });
        let mapping = tracer
            .time("core.map", layout.num_qubits() as u64, || {
                map_qubits_with_strategy(&layout, &device, ClusteringStrategy::Geometric)
            })
            .expect("the paper's design points map");
        let span = tracer.enter("core.route");
        let routed = route(&experiment.circuit, &layout, &device, &mapping)
            .expect("the paper's design points route");
        tracer.exit(span, routed.ops.len() as u64);
        let timed = tracer.time("core.schedule", routed.ops.len() as u64, || {
            schedule(&routed, &arch.operation_times, arch.wiring)
        });
        let span = tracer.enter("core.lower");
        let noisy = lower_to_noisy_circuit(&timed, &experiment.circuit, &arch.noise);
        tracer.exit(span, noisy.ops().len() as u64);
        Compiled {
            routed_ops: routed.ops.len(),
            schedule: timed,
            noisy,
        }
    }
}

impl Workload for CompilePaperGrid {
    fn units_per_rep(&self) -> f64 {
        PROGRAMS.len() as f64
    }

    fn reps_per_second(&self) -> f64 {
        1.9
    }

    fn prepare(&mut self, seed: u64) {
        // Compilation is a pure function of the design point; the seed only
        // picks the collapse choices `verify_detectors` exercises.
        self.seed = seed;
    }

    fn build(&mut self, _tracer: &mut Tracer) {
        // Every rep compiles with a fresh `Compiler` and no cache: there is
        // nothing to build ahead of it.
        self.last.clear();
    }

    fn rep(&mut self, _index: u64, tracer: &mut Tracer) -> RepOutcome {
        self.last.clear();
        for &(name, topology, capacity, distance) in &PROGRAMS {
            let compiled = if tracer.enabled() {
                let span = tracer.enter(name);
                let compiled = Self::compile_traced(tracer, topology, capacity, distance);
                tracer.exit(span, 1);
                compiled
            } else {
                Self::compile_plain(topology, capacity, distance)
            };
            self.last.push(compiled);
        }
        RepOutcome {
            logical_failures: 0,
            ops: Counts {
                attempted: PROGRAMS.len() as u64,
                failed: 0,
            },
        }
    }

    fn teardown(&mut self) {
        self.last.clear();
    }

    fn check(&mut self) -> Counts {
        let mut counts = Counts::default();
        // The traced pass sequence must produce the program the public
        // call produces.
        let mut tracer = Tracer::new(true);
        for (&(name, topology, capacity, distance), compiled) in PROGRAMS.iter().zip(&self.last) {
            let exclusive = check_resource_exclusivity(&compiled.schedule, WiringMethod::Standard);
            if let Err(e) = &exclusive {
                eprintln!("{name}: resource exclusivity violated: {e}");
            }
            counts.add(Counts::one(exclusive.is_ok()));
            let verified = verify_detectors(&compiled.noisy, &[self.seed, self.seed + 1]);
            if let Err(e) = &verified {
                eprintln!("{name}: {e}");
            }
            counts.add(Counts::one(verified.is_ok()));
            let plain = Self::compile_plain(topology, capacity, distance);
            let traced = Self::compile_traced(&mut tracer, topology, capacity, distance);
            let same = plain.schedule == traced.schedule && plain.noisy == traced.noisy;
            if !same {
                eprintln!("{name}: traced pass sequence differs from compile_memory_experiment");
            }
            counts.add(Counts::one(same));
        }
        counts
    }

    fn schedule(&mut self) -> (u64, f64) {
        let rounds = PROGRAMS.iter().map(|program| program.3 as u64).sum();
        let elapsed = self
            .last
            .iter()
            .map(|compiled| compiled.schedule.makespan_us)
            .sum();
        (rounds, elapsed)
    }

    fn layer_values(&mut self, values: &mut LayerValues) {
        let sum = |f: fn(&Compiled) -> usize| self.last.iter().map(f).sum::<usize>() as f64;
        values.insert("core.routed_ops", sum(|c| c.routed_ops));
        values.insert("core.movement_ops", sum(|c| c.schedule.movement_ops));
        values.insert("core.noisy_ops", sum(|c| c.noisy.ops().len()));
    }
}
