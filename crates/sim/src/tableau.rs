//! CHP stabilizer tableau simulator.
//!
//! A faithful implementation of the Aaronson–Gottesman tableau algorithm.
//! It tracks the full stabilizer group of the state, so it handles random
//! measurement outcomes exactly. It is used as the *reference* simulator:
//!
//! * to verify that every detector of a QEC circuit is deterministic (even
//!   parity) in the absence of noise, and
//! * as an oracle in tests for the much faster Pauli-frame sampler.
//!
//! The per-gate cost is `O(n)` and the per-measurement cost is `O(n²)`, which
//! is ample for the code distances that are Monte-Carlo sampled in the
//! evaluation.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use qccd_circuit::{Instruction, QubitId};

/// The Aaronson–Gottesman stabilizer tableau simulator.
#[derive(Debug, Clone)]
pub struct TableauSimulator {
    n: usize,
    /// `xs[row][qubit]`: X component of the row's Pauli.
    xs: Vec<Vec<bool>>,
    /// `zs[row][qubit]`: Z component of the row's Pauli.
    zs: Vec<Vec<bool>>,
    /// Sign bit of each row (true ⇒ −1).
    r: Vec<bool>,
    rng: ChaCha8Rng,
}

impl TableauSimulator {
    /// Creates a simulator for `num_qubits` qubits in the all-|0⟩ state,
    /// using the given random seed for non-deterministic measurements.
    pub fn new(num_qubits: usize, seed: u64) -> Self {
        let n = num_qubits;
        let rows = 2 * n + 1;
        let mut xs = vec![vec![false; n]; rows];
        let mut zs = vec![vec![false; n]; rows];
        let r = vec![false; rows];
        for i in 0..n {
            xs[i][i] = true; // destabilizer i = X_i
            zs[n + i][i] = true; // stabilizer i = Z_i
        }
        TableauSimulator {
            n,
            xs,
            zs,
            r,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Applies one instruction. Measurements return `Some(outcome)`.
    ///
    /// # Panics
    ///
    /// Panics if the instruction touches a qubit outside the register.
    pub fn apply(&mut self, instruction: &Instruction) -> Option<bool> {
        use Instruction::*;
        match *instruction {
            I(_) => None,
            X(q) => {
                self.pauli_x(q.index());
                None
            }
            Y(q) => {
                self.pauli_y(q.index());
                None
            }
            Z(q) => {
                self.pauli_z(q.index());
                None
            }
            H(q) => {
                self.hadamard(q.index());
                None
            }
            S(q) => {
                self.phase(q.index());
                None
            }
            Sdg(q) => {
                self.phase(q.index());
                self.phase(q.index());
                self.phase(q.index());
                None
            }
            SqrtX(q) => {
                self.hadamard(q.index());
                self.phase(q.index());
                self.hadamard(q.index());
                None
            }
            SqrtXdg(q) => {
                self.hadamard(q.index());
                self.phase(q.index());
                self.phase(q.index());
                self.phase(q.index());
                self.hadamard(q.index());
                None
            }
            Cnot { control, target } => {
                self.cnot(control.index(), target.index());
                None
            }
            Cz(a, b) => {
                self.hadamard(b.index());
                self.cnot(a.index(), b.index());
                self.hadamard(b.index());
                None
            }
            Swap(a, b) => {
                self.cnot(a.index(), b.index());
                self.cnot(b.index(), a.index());
                self.cnot(a.index(), b.index());
                None
            }
            Ms(a, b) => {
                // MS = (H⊗H) · CNOT · (I⊗S) · CNOT · (H⊗H) up to global phase
                // (circuit order: H,H ; CNOT ; S on target ; CNOT ; H,H).
                self.hadamard(a.index());
                self.hadamard(b.index());
                self.cnot(a.index(), b.index());
                self.phase(b.index());
                self.cnot(a.index(), b.index());
                self.hadamard(a.index());
                self.hadamard(b.index());
                None
            }
            Measure(q) => Some(self.measure_z(q.index())),
            MeasureX(q) => {
                self.hadamard(q.index());
                let m = self.measure_z(q.index());
                self.hadamard(q.index());
                Some(m)
            }
            Reset(q) => {
                let m = self.measure_z(q.index());
                if m {
                    self.pauli_x(q.index());
                }
                None
            }
        }
    }

    /// Runs every instruction of an iterator, collecting measurement
    /// outcomes in order.
    pub fn run<'a, I: IntoIterator<Item = &'a Instruction>>(
        &mut self,
        instructions: I,
    ) -> Vec<bool> {
        instructions
            .into_iter()
            .filter_map(|i| self.apply(i))
            .collect()
    }

    /// Returns `true` if measuring qubit `q` in the Z basis would give a
    /// deterministic outcome in the current state.
    pub fn is_deterministic_z(&self, qubit: QubitId) -> bool {
        let a = qubit.index();
        !(self.n..2 * self.n).any(|i| self.xs[i][a])
    }

    // ------------------------------------------------------------------
    // Elementary tableau updates.
    // ------------------------------------------------------------------

    fn hadamard(&mut self, a: usize) {
        for row in 0..2 * self.n {
            let x = self.xs[row][a];
            let z = self.zs[row][a];
            self.r[row] ^= x & z;
            self.xs[row][a] = z;
            self.zs[row][a] = x;
        }
    }

    fn phase(&mut self, a: usize) {
        for row in 0..2 * self.n {
            let x = self.xs[row][a];
            let z = self.zs[row][a];
            self.r[row] ^= x & z;
            self.zs[row][a] = z ^ x;
        }
    }

    fn cnot(&mut self, control: usize, target: usize) {
        for row in 0..2 * self.n {
            let xc = self.xs[row][control];
            let zc = self.zs[row][control];
            let xt = self.xs[row][target];
            let zt = self.zs[row][target];
            self.r[row] ^= xc & zt & (xt ^ zc ^ true);
            self.xs[row][target] = xt ^ xc;
            self.zs[row][control] = zc ^ zt;
        }
    }

    fn pauli_x(&mut self, a: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.zs[row][a];
        }
    }

    fn pauli_z(&mut self, a: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.xs[row][a];
        }
    }

    fn pauli_y(&mut self, a: usize) {
        for row in 0..2 * self.n {
            self.r[row] ^= self.xs[row][a] ^ self.zs[row][a];
        }
    }

    /// Phase contribution of multiplying Pauli (x1,z1) by (x2,z2), as in the
    /// Aaronson–Gottesman `g` function.
    fn g(x1: bool, z1: bool, x2: bool, z2: bool) -> i32 {
        match (x1, z1) {
            (false, false) => 0,
            (true, true) => (z2 as i32) - (x2 as i32),
            (true, false) => (z2 as i32) * (2 * (x2 as i32) - 1),
            (false, true) => (x2 as i32) * (1 - 2 * (z2 as i32)),
        }
    }

    /// Row `h` ← row `h` · row `i`, with exact phase tracking.
    fn rowsum(&mut self, h: usize, i: usize) {
        let mut phase = 2 * (self.r[h] as i32) + 2 * (self.r[i] as i32);
        for q in 0..self.n {
            phase += Self::g(self.xs[i][q], self.zs[i][q], self.xs[h][q], self.zs[h][q]);
            self.xs[h][q] ^= self.xs[i][q];
            self.zs[h][q] ^= self.zs[i][q];
        }
        // For stabilizer rows the accumulated phase is always real (0 or 2
        // mod 4). Destabilizer rows are only tracked up to phase, so an odd
        // value can occur there and is harmless.
        self.r[h] = phase.rem_euclid(4) >= 2;
    }

    fn measure_z(&mut self, a: usize) -> bool {
        let n = self.n;
        // Is there a stabilizer anticommuting with Z_a?
        let p = (n..2 * n).find(|&row| self.xs[row][a]);
        match p {
            Some(p) => {
                // Random outcome.
                for row in 0..2 * n {
                    if row != p && self.xs[row][a] {
                        self.rowsum(row, p);
                    }
                }
                // Destabilizer slot receives the old stabilizer row.
                self.xs[p - n] = self.xs[p].clone();
                self.zs[p - n] = self.zs[p].clone();
                self.r[p - n] = self.r[p];
                // New stabilizer is ±Z_a with a random sign.
                self.xs[p] = vec![false; n];
                self.zs[p] = vec![false; n];
                self.zs[p][a] = true;
                let outcome: bool = self.rng.gen();
                self.r[p] = outcome;
                outcome
            }
            None => {
                // Deterministic outcome: use the scratch row 2n.
                let scratch = 2 * n;
                self.xs[scratch] = vec![false; n];
                self.zs[scratch] = vec![false; n];
                self.r[scratch] = false;
                for i in 0..n {
                    if self.xs[i][a] {
                        self.rowsum(scratch, i + n);
                    }
                }
                self.r[scratch]
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qccd_circuit::{clifford, Pauli, SparsePauli};

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn zero_state_measures_zero() {
        let mut sim = TableauSimulator::new(3, 1);
        for i in 0..3 {
            assert_eq!(sim.apply(&Instruction::Measure(q(i))), Some(false));
        }
    }

    #[test]
    fn bit_flip_measures_one() {
        let mut sim = TableauSimulator::new(1, 1);
        sim.apply(&Instruction::X(q(0)));
        assert_eq!(sim.apply(&Instruction::Measure(q(0))), Some(true));
    }

    #[test]
    fn hadamard_measurement_is_random_but_repeatable() {
        // After H the outcome is random, but measuring twice must agree.
        let mut zeros = 0;
        for seed in 0..64 {
            let mut sim = TableauSimulator::new(1, seed);
            sim.apply(&Instruction::H(q(0)));
            assert!(!sim.is_deterministic_z(q(0)));
            let m1 = sim.apply(&Instruction::Measure(q(0))).unwrap();
            let m2 = sim.apply(&Instruction::Measure(q(0))).unwrap();
            assert_eq!(m1, m2, "repeated measurement must agree");
            if !m1 {
                zeros += 1;
            }
        }
        assert!(
            zeros > 10 && zeros < 54,
            "outcomes should be random, got {zeros}/64 zeros"
        );
    }

    #[test]
    fn bell_pair_outcomes_are_correlated() {
        for seed in 0..32 {
            let mut sim = TableauSimulator::new(2, seed);
            sim.apply(&Instruction::H(q(0)));
            sim.apply(&Instruction::Cnot {
                control: q(0),
                target: q(1),
            });
            let m0 = sim.apply(&Instruction::Measure(q(0))).unwrap();
            let m1 = sim.apply(&Instruction::Measure(q(1))).unwrap();
            assert_eq!(m0, m1);
        }
    }

    #[test]
    fn ghz_outcomes_all_agree() {
        for seed in 0..16 {
            let mut sim = TableauSimulator::new(4, seed);
            sim.apply(&Instruction::H(q(0)));
            for i in 1..4 {
                sim.apply(&Instruction::Cnot {
                    control: q(0),
                    target: q(i),
                });
            }
            let outcomes: Vec<bool> = (0..4)
                .map(|i| sim.apply(&Instruction::Measure(q(i))).unwrap())
                .collect();
            assert!(outcomes.iter().all(|&b| b == outcomes[0]));
        }
    }

    #[test]
    fn ms_gate_entangles() {
        // MS|00⟩ = (|00⟩ − i|11⟩)/√2: its stabilizer group is
        // {I, −Y₀X₁, −X₀Y₁, Z₀Z₁}, so Z-basis outcomes of the two qubits
        // agree, and measuring Y₀ and X₁ gives anti-correlated outcomes.
        for seed in 0..32 {
            let mut sim = TableauSimulator::new(2, seed);
            sim.apply(&Instruction::Ms(q(0), q(1)));
            let m0 = sim.apply(&Instruction::Measure(q(0))).unwrap();
            let m1 = sim.apply(&Instruction::Measure(q(1))).unwrap();
            assert_eq!(m0, m1, "Z⊗Z stabilizes the MS output state");
        }
        for seed in 0..32 {
            let mut sim = TableauSimulator::new(2, seed);
            sim.apply(&Instruction::Ms(q(0), q(1)));
            // Measure Y on qubit 0: rotate with S†, H, then measure Z.
            sim.apply(&Instruction::Sdg(q(0)));
            sim.apply(&Instruction::H(q(0)));
            let m0 = sim.apply(&Instruction::Measure(q(0))).unwrap();
            // Measure X on qubit 1.
            let m1 = sim.apply(&Instruction::MeasureX(q(1))).unwrap();
            assert_ne!(m0, m1, "−Y₀X₁ stabilizes the MS output state");
        }
    }

    #[test]
    fn reset_returns_to_zero() {
        for seed in 0..8 {
            let mut sim = TableauSimulator::new(1, seed);
            sim.apply(&Instruction::H(q(0)));
            sim.apply(&Instruction::Reset(q(0)));
            assert!(sim.is_deterministic_z(q(0)));
            assert_eq!(sim.apply(&Instruction::Measure(q(0))), Some(false));
        }
    }

    #[test]
    fn x_basis_measurement_of_plus_state_is_deterministic() {
        let mut sim = TableauSimulator::new(1, 7);
        sim.apply(&Instruction::H(q(0)));
        assert_eq!(sim.apply(&Instruction::MeasureX(q(0))), Some(false));
        // And the state survives: measuring X again gives the same result.
        assert_eq!(sim.apply(&Instruction::MeasureX(q(0))), Some(false));
    }

    #[test]
    fn cz_and_swap_behave() {
        // CZ on |+,1⟩ flips the + to −: X measurement of qubit 0 gives 1.
        let mut sim = TableauSimulator::new(2, 3);
        sim.apply(&Instruction::H(q(0)));
        sim.apply(&Instruction::X(q(1)));
        sim.apply(&Instruction::Cz(q(0), q(1)));
        assert_eq!(sim.apply(&Instruction::MeasureX(q(0))), Some(true));

        // SWAP exchanges amplitudes.
        let mut sim = TableauSimulator::new(2, 3);
        sim.apply(&Instruction::X(q(0)));
        sim.apply(&Instruction::Swap(q(0), q(1)));
        assert_eq!(sim.apply(&Instruction::Measure(q(0))), Some(false));
        assert_eq!(sim.apply(&Instruction::Measure(q(1))), Some(true));
    }

    /// Cross-check the tableau gate implementations against the independent
    /// Pauli-conjugation rules in `qccd_circuit::clifford`: preparing an
    /// eigenstate of P, applying a gate U, then measuring U P U† must give a
    /// deterministic +1 outcome.
    #[test]
    fn tableau_agrees_with_clifford_conjugation() {
        let gates = [
            Instruction::H(q(0)),
            Instruction::S(q(0)),
            Instruction::Sdg(q(0)),
            Instruction::SqrtX(q(0)),
            Instruction::SqrtXdg(q(0)),
            Instruction::Cnot {
                control: q(0),
                target: q(1),
            },
            Instruction::Cz(q(0), q(1)),
            Instruction::Swap(q(0), q(1)),
            Instruction::Ms(q(0), q(1)),
        ];
        for gate in &gates {
            for (prep, pauli) in [
                (vec![], SparsePauli::single(q(0), Pauli::Z)),
                (
                    vec![Instruction::H(q(0))],
                    SparsePauli::single(q(0), Pauli::X),
                ),
                (vec![], SparsePauli::single(q(1), Pauli::Z)),
                (
                    vec![Instruction::H(q(1))],
                    SparsePauli::single(q(1), Pauli::X),
                ),
            ] {
                let mut sim = TableauSimulator::new(2, 11);
                for p in &prep {
                    sim.apply(p);
                }
                sim.apply(gate);
                let image = clifford::conjugate(gate, &pauli).unwrap();
                // Measure the image operator by rotating each qubit into the
                // Z basis, measuring, and taking the parity.
                let mut parity = image.phase_exponent() >= 2;
                for (qubit, p) in image.iter() {
                    match p {
                        Pauli::X => {
                            sim.apply(&Instruction::H(qubit));
                        }
                        Pauli::Y => {
                            sim.apply(&Instruction::Sdg(qubit));
                            sim.apply(&Instruction::H(qubit));
                        }
                        Pauli::Z => {}
                        Pauli::I => continue,
                    }
                    parity ^= sim.apply(&Instruction::Measure(qubit)).unwrap();
                }
                assert!(
                    !parity,
                    "state stabilized by {pauli} should be stabilized by {image} after {gate}"
                );
            }
        }
    }
}
