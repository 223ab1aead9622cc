//! Bit-packed Pauli-frame sampler.
//!
//! Reference implementation: the oracle the signature sampler
//! ([`crate::DetectorChunkSampler`]) is tested against; not on any
//! production path.
//!
//! The frame sampler simulates many shots of a noisy stabilizer circuit
//! simultaneously by tracking, for every shot, only the Pauli *frame* — the
//! difference between the noisy execution and a noiseless reference
//! execution. Because detector parities are deterministic (even) in the
//! reference execution, a detector fires in a shot exactly when the XOR of
//! its measurements' frame-induced flips is odd. The same reasoning yields
//! logical-observable flips.
//!
//! The frame of 64 shots is packed into each `u64` word, so a circuit with
//! `G` operations and `S` shots costs `O(G · S / 64)` word operations.
//!
//! Frame update rules (signs are irrelevant for frames):
//!
//! * Clifford gates conjugate the frame.
//! * `M` (Z-basis measurement): the recorded outcome is flipped when the
//!   frame has an X component on the measured qubit; afterwards the Z
//!   component is re-randomised (it becomes gauge once the qubit has
//!   collapsed).
//! * `MX`: dual of `M` (Z component flips the outcome, X is re-randomised).
//! * `R` (reset): the X component is cleared (the qubit is freshly prepared)
//!   and the Z component is re-randomised.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use qccd_circuit::{Instruction, QubitId};

use crate::{BitPlanes, NoiseChannel, NoisyCircuit, NoisyOp};

/// A batch Pauli-frame simulator over `num_shots` parallel shots.
#[derive(Debug, Clone)]
pub struct FrameSampler {
    num_qubits: usize,
    num_shots: usize,
    words: usize,
    /// X component bit-planes, indexed `qubit * words + word`.
    x: Vec<u64>,
    /// Z component bit-planes, indexed `qubit * words + word`.
    z: Vec<u64>,
    /// Frame-induced measurement flips, one bit-plane per measurement in
    /// execution order, stored in a flat arena.
    measurement_flips: BitPlanes,
    rng: ChaCha8Rng,
}

impl FrameSampler {
    /// Creates a sampler for `num_qubits` qubits and `num_shots` parallel
    /// shots, with identity frames.
    pub fn new(num_qubits: usize, num_shots: usize, seed: u64) -> Self {
        assert!(num_shots > 0, "need at least one shot");
        let words = num_shots.div_ceil(64);
        FrameSampler {
            num_qubits,
            num_shots,
            words,
            x: vec![0; num_qubits * words],
            z: vec![0; num_qubits * words],
            measurement_flips: BitPlanes::new(words),
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Number of parallel shots.
    pub fn num_shots(&self) -> usize {
        self.num_shots
    }

    /// Number of qubits tracked by the sampler.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of measurements processed so far.
    pub fn num_measurements(&self) -> usize {
        self.measurement_flips.num_planes()
    }

    /// The flip bit-plane of one measurement (by execution order).
    pub fn measurement_plane(&self, measurement: usize) -> &[u64] {
        self.measurement_flips.plane(measurement)
    }

    /// Returns whether the frame currently has an X component on `qubit` in
    /// `shot` (used by tests).
    pub fn frame_x(&self, qubit: QubitId, shot: usize) -> bool {
        let range = self.plane(qubit.index());
        (self.x[range][shot / 64] >> (shot % 64)) & 1 == 1
    }

    /// Returns whether the frame currently has a Z component on `qubit` in
    /// `shot` (used by tests).
    pub fn frame_z(&self, qubit: QubitId, shot: usize) -> bool {
        let range = self.plane(qubit.index());
        (self.z[range][shot / 64] >> (shot % 64)) & 1 == 1
    }

    fn plane(&self, qubit: usize) -> std::ops::Range<usize> {
        let start = qubit * self.words;
        start..start + self.words
    }

    /// Processes one operation of a noisy circuit.
    pub fn apply(&mut self, op: &NoisyOp) {
        match op {
            NoisyOp::Gate(instruction) => self.apply_gate(instruction),
            NoisyOp::Noise(channel) => self.apply_noise(channel),
        }
    }

    /// Runs an entire noisy circuit.
    pub fn run(&mut self, circuit: &NoisyCircuit) {
        for op in circuit.ops() {
            self.apply(op);
        }
    }

    /// Applies a Clifford gate / measurement / reset to every shot's frame.
    pub fn apply_gate(&mut self, instruction: &Instruction) {
        use Instruction::*;
        match *instruction {
            // Pauli gates and the identity only change frame signs, which
            // frames do not track.
            I(_) | X(_) | Y(_) | Z(_) => {}
            H(q) => {
                let p = self.plane(q.index());
                for w in 0..self.words {
                    let xv = self.x[p.start + w];
                    let zv = self.z[p.start + w];
                    self.x[p.start + w] = zv;
                    self.z[p.start + w] = xv;
                }
            }
            S(q) | Sdg(q) => {
                let p = self.plane(q.index());
                for w in 0..self.words {
                    self.z[p.start + w] ^= self.x[p.start + w];
                }
            }
            SqrtX(q) | SqrtXdg(q) => {
                let p = self.plane(q.index());
                for w in 0..self.words {
                    self.x[p.start + w] ^= self.z[p.start + w];
                }
            }
            Cnot { control, target } => {
                let pc = control.index() * self.words;
                let pt = target.index() * self.words;
                for w in 0..self.words {
                    self.x[pt + w] ^= self.x[pc + w];
                    self.z[pc + w] ^= self.z[pt + w];
                }
            }
            Cz(a, b) => {
                let pa = a.index() * self.words;
                let pb = b.index() * self.words;
                for w in 0..self.words {
                    self.z[pa + w] ^= self.x[pb + w];
                    self.z[pb + w] ^= self.x[pa + w];
                }
            }
            Swap(a, b) => {
                let pa = a.index() * self.words;
                let pb = b.index() * self.words;
                for w in 0..self.words {
                    self.x.swap(pa + w, pb + w);
                    self.z.swap(pa + w, pb + w);
                }
            }
            Ms(a, b) => {
                // X components are preserved; a Z component on either qubit
                // injects X on both (Z_a → Y_a X_b, Z_b → X_a Y_b).
                let pa = a.index() * self.words;
                let pb = b.index() * self.words;
                for w in 0..self.words {
                    let za = self.z[pa + w];
                    let zb = self.z[pb + w];
                    self.x[pa + w] ^= za ^ zb;
                    self.x[pb + w] ^= za ^ zb;
                }
            }
            Measure(q) => {
                // Snapshot the X plane straight into the arena: one memcpy,
                // no intermediate `Vec` allocation.
                let p = self.plane(q.index());
                self.measurement_flips.push_plane(&self.x[p]);
                // The Z component becomes gauge after collapse: re-randomise.
                for w in 0..self.words {
                    self.z[q.index() * self.words + w] = self.rng.gen();
                }
            }
            MeasureX(q) => {
                let p = self.plane(q.index());
                self.measurement_flips.push_plane(&self.z[p]);
                for w in 0..self.words {
                    self.x[q.index() * self.words + w] = self.rng.gen();
                }
            }
            Reset(q) => {
                let base = q.index() * self.words;
                for w in 0..self.words {
                    self.x[base + w] = 0;
                    self.z[base + w] = self.rng.gen();
                }
            }
        }
    }

    /// Applies a stochastic noise channel to every shot's frame.
    pub fn apply_noise(&mut self, channel: &NoiseChannel) {
        match *channel {
            NoiseChannel::BitFlip { qubit, p } => {
                let shots = self.sample_shots(p);
                for shot in shots {
                    self.flip_x(qubit.index(), shot);
                }
            }
            NoiseChannel::PhaseFlip { qubit, p } => {
                let shots = self.sample_shots(p);
                for shot in shots {
                    self.flip_z(qubit.index(), shot);
                }
            }
            NoiseChannel::Depolarize1 { qubit, p } => {
                let shots = self.sample_shots(p);
                for shot in shots {
                    // Choose X, Y or Z uniformly.
                    match self.rng.gen_range(0..3) {
                        0 => self.flip_x(qubit.index(), shot),
                        1 => {
                            self.flip_x(qubit.index(), shot);
                            self.flip_z(qubit.index(), shot);
                        }
                        _ => self.flip_z(qubit.index(), shot),
                    }
                }
            }
            NoiseChannel::Depolarize2 { a, b, p } => {
                let shots = self.sample_shots(p);
                for shot in shots {
                    // Choose one of the 15 non-identity two-qubit Paulis.
                    let code = self.rng.gen_range(1..16u8);
                    let (xa, za) = (code & 1 != 0, code & 2 != 0);
                    let (xb, zb) = (code & 4 != 0, code & 8 != 0);
                    if xa {
                        self.flip_x(a.index(), shot);
                    }
                    if za {
                        self.flip_z(a.index(), shot);
                    }
                    if xb {
                        self.flip_x(b.index(), shot);
                    }
                    if zb {
                        self.flip_z(b.index(), shot);
                    }
                }
            }
        }
    }

    fn flip_x(&mut self, qubit: usize, shot: usize) {
        self.x[qubit * self.words + shot / 64] ^= 1u64 << (shot % 64);
    }

    fn flip_z(&mut self, qubit: usize, shot: usize) {
        self.z[qubit * self.words + shot / 64] ^= 1u64 << (shot % 64);
    }

    /// Samples the subset of shots in which an event with probability `p`
    /// occurs, using geometric skipping so the cost is proportional to the
    /// number of occurrences rather than the number of shots.
    fn sample_shots(&mut self, p: f64) -> Vec<usize> {
        let mut selected = Vec::new();
        if p <= 0.0 {
            return selected;
        }
        if p >= 1.0 {
            selected.extend(0..self.num_shots);
            return selected;
        }
        let denom = (1.0 - p).ln();
        let mut index: f64 = -1.0;
        loop {
            let u: f64 = self.rng.gen::<f64>();
            // Geometric gap; `1 - u` avoids ln(0).
            let gap = ((1.0 - u).ln() / denom).floor();
            index += 1.0 + gap;
            if !index.is_finite() || index >= self.num_shots as f64 {
                break;
            }
            selected.push(index as usize);
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn deterministic_x_error_flips_measurement() {
        let mut sampler = FrameSampler::new(1, 130, 1);
        sampler.apply_noise(&NoiseChannel::BitFlip {
            qubit: q(0),
            p: 1.0,
        });
        sampler.apply_gate(&Instruction::Measure(q(0)));
        let flips = sampler.measurement_plane(0);
        // Every shot flips.
        for shot in 0..130 {
            assert_eq!((flips[shot / 64] >> (shot % 64)) & 1, 1);
        }
    }

    #[test]
    fn z_error_does_not_flip_z_measurement() {
        let mut sampler = FrameSampler::new(1, 64, 2);
        sampler.apply_noise(&NoiseChannel::PhaseFlip {
            qubit: q(0),
            p: 1.0,
        });
        sampler.apply_gate(&Instruction::Measure(q(0)));
        assert!(sampler.measurement_plane(0).iter().all(|&w| w == 0));
    }

    #[test]
    fn hadamard_converts_z_error_to_x_error() {
        let mut sampler = FrameSampler::new(1, 64, 3);
        sampler.apply_noise(&NoiseChannel::PhaseFlip {
            qubit: q(0),
            p: 1.0,
        });
        sampler.apply_gate(&Instruction::H(q(0)));
        sampler.apply_gate(&Instruction::Measure(q(0)));
        assert!(sampler
            .measurement_plane(0)
            .iter()
            .enumerate()
            .all(|(w, &word)| {
                let bits = if w == 0 { 64 } else { 0 };
                (0..bits).all(|b| (word >> b) & 1 == 1)
            }));
    }

    #[test]
    fn cnot_copies_x_error_to_target() {
        let mut sampler = FrameSampler::new(2, 64, 4);
        sampler.apply_noise(&NoiseChannel::BitFlip {
            qubit: q(0),
            p: 1.0,
        });
        sampler.apply_gate(&Instruction::Cnot {
            control: q(0),
            target: q(1),
        });
        sampler.apply_gate(&Instruction::Measure(q(1)));
        assert!(sampler
            .measurement_plane(0)
            .iter()
            .all(|&w| w == !0u64 || w == 0));
        assert!(sampler.frame_x(q(0), 0));
        assert!(sampler.frame_x(q(1), 0));
    }

    #[test]
    fn reset_clears_x_component() {
        let mut sampler = FrameSampler::new(1, 64, 5);
        sampler.apply_noise(&NoiseChannel::BitFlip {
            qubit: q(0),
            p: 1.0,
        });
        sampler.apply_gate(&Instruction::Reset(q(0)));
        sampler.apply_gate(&Instruction::Measure(q(0)));
        assert!(sampler.measurement_plane(0).iter().all(|&w| w == 0));
    }

    #[test]
    fn ms_gate_propagates_z_to_both_x_components() {
        let mut sampler = FrameSampler::new(2, 64, 6);
        sampler.apply_noise(&NoiseChannel::PhaseFlip {
            qubit: q(0),
            p: 1.0,
        });
        sampler.apply_gate(&Instruction::Ms(q(0), q(1)));
        assert!(sampler.frame_x(q(0), 7));
        assert!(sampler.frame_x(q(1), 7));
        assert!(
            sampler.frame_z(q(0), 7),
            "original Z component survives as Y"
        );
    }

    #[test]
    fn bit_flip_probability_statistics() {
        let shots = 20_000;
        let mut sampler = FrameSampler::new(1, shots, 7);
        sampler.apply_noise(&NoiseChannel::BitFlip {
            qubit: q(0),
            p: 0.1,
        });
        sampler.apply_gate(&Instruction::Measure(q(0)));
        let count: u32 = sampler
            .measurement_plane(0)
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let rate = count as f64 / shots as f64;
        assert!(
            (rate - 0.1).abs() < 0.01,
            "empirical flip rate {rate} too far from 0.1"
        );
    }

    #[test]
    fn depolarize1_flips_z_measurement_two_thirds_of_the_time() {
        let shots = 30_000;
        let mut sampler = FrameSampler::new(1, shots, 8);
        sampler.apply_noise(&NoiseChannel::Depolarize1 {
            qubit: q(0),
            p: 0.3,
        });
        sampler.apply_gate(&Instruction::Measure(q(0)));
        let count: u32 = sampler
            .measurement_plane(0)
            .iter()
            .map(|w| w.count_ones())
            .sum();
        let rate = count as f64 / shots as f64;
        // Only X and Y components (2/3 of errors) flip a Z measurement.
        assert!(
            (rate - 0.2).abs() < 0.015,
            "empirical flip rate {rate} too far from 0.2"
        );
    }

    #[test]
    fn sample_shots_edge_cases() {
        let mut sampler = FrameSampler::new(1, 100, 9);
        assert!(sampler.sample_shots(0.0).is_empty());
        assert_eq!(sampler.sample_shots(1.0).len(), 100);
        let some = sampler.sample_shots(0.5);
        assert!(!some.is_empty() && some.len() < 100);
        // Indices are strictly increasing and in range.
        assert!(some.windows(2).all(|w| w[0] < w[1]));
        assert!(some.iter().all(|&s| s < 100));
    }
}
