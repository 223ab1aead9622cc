//! # qccd-sim
//!
//! Stabilizer circuit simulation for the QCCD surface-code architecture
//! study. This crate replaces the role Stim plays in the paper (§6.4): it
//! samples detector events and logical-observable flips of noisy Clifford
//! circuits so that logical error rates can be estimated.
//!
//! Components:
//!
//! * [`NoisyCircuit`] — Clifford operations interleaved with Pauli noise
//!   channels, plus detector / logical-observable annotations;
//! * [`TableauSimulator`] — an exact Aaronson–Gottesman CHP simulator, used
//!   as the reference implementation and to verify detector determinism;
//! * [`FrameSampler`] — a bit-packed Pauli-frame sampler that runs the
//!   circuit over thousands of shots in parallel: the second reference, the
//!   oracle the production sampler is tested against;
//! * [`FaultTable`] — one reverse pass over the circuit that finds, for
//!   every component of every noise channel, the detectors and observables
//!   it flips; both of the next two are read from it;
//! * [`DetectorErrorModel`] — the table folded by symptom set (which
//!   detectors and observables each elementary fault flips, with what
//!   probability), consumed by the decoders in `qccd-decoder`;
//! * [`sample_detector_chunks`] / [`DetectorChunkSampler`] — the production
//!   sampler: places faults from the table instead of running the circuit,
//!   so a block costs its faults, not `ops × shots`. Chunked and streaming:
//!   peak memory bounded by the chunk size, deterministic per-block seeds
//!   (bit-identical outcomes for a fixed `(shots, seed)` regardless of chunk
//!   size or thread count), `&self` sampling so chunks can be produced from
//!   many threads at once. All bit-planes live in flat [`BitPlanes`] arenas;
//! * [`verify_detectors`] — checks detector determinism on the tableau
//!   simulator.
//!
//! # Example
//!
//! ```
//! use qccd_circuit::{Detector, Instruction, LogicalObservable, MeasurementRef, QubitId};
//! use qccd_sim::{sample_detector_chunks, verify_detectors, NoiseChannel, NoisyCircuit};
//!
//! // A single qubit that is reset, possibly flipped, and measured.
//! let q = QubitId::new(0);
//! let mut circuit = NoisyCircuit::new();
//! circuit.push_gate(Instruction::Reset(q));
//! circuit.push_noise(NoiseChannel::BitFlip { qubit: q, p: 0.25 });
//! circuit.push_gate(Instruction::Measure(q));
//! circuit.add_detector(Detector::new(vec![MeasurementRef::new(q, 0)]));
//! circuit.add_observable(LogicalObservable::new(vec![MeasurementRef::new(q, 0)]));
//!
//! verify_detectors(&circuit, &[0, 1])?;
//! let sampler = sample_detector_chunks(&circuit, 4096, 7, 4096).expect("annotations are valid");
//! let samples = sampler.sample_chunk(0);
//! let fired: u32 = samples.detector_plane(0).iter().map(|w| w.count_ones()).sum();
//! let rate = f64::from(fired) / samples.num_shots() as f64;
//! assert!((rate - 0.25).abs() < 0.05);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitplane;
mod chunk;
mod dem;
mod fault_table;
mod frame;
mod noisy_circuit;
mod rare_event;
mod sampler;
mod tableau;

pub use bitplane::BitPlanes;
pub use chunk::{
    block_seed, sample_detector_chunks, DetectorChunkSampler, SyndromeChunk, SyndromeChunkBuilder,
    CANONICAL_BLOCK_SHOTS,
};
pub use dem::{DemError, DetectorErrorModel};
pub use fault_table::FaultTable;
pub use frame::FrameSampler;
pub use noisy_circuit::{NoiseChannel, NoisyCircuit, NoisyOp, ResolvedAnnotations};
pub use rare_event::{BiasedTable, MAX_BIASED_PROBABILITY};
pub use sampler::{verify_detectors, VerificationError};
pub use tableau::TableauSimulator;
