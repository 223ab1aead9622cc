//! Pauli operators and sparse Pauli strings.
//!
//! The QEC layer describes stabilizers as Pauli strings, the noise model
//! injects Pauli errors, and the simulators propagate Pauli *frames* through
//! Clifford circuits. This module provides the shared algebra: single-qubit
//! [`Pauli`] operators with phase-tracked multiplication, and sparse
//! multi-qubit [`SparsePauli`] strings.

use std::collections::BTreeMap;
use std::fmt;

use crate::QubitId;

/// A single-qubit Pauli operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Pauli {
    /// Identity.
    #[default]
    I,
    /// Bit flip.
    X,
    /// Bit-and-phase flip.
    Y,
    /// Phase flip.
    Z,
}

impl Pauli {
    /// All four Pauli operators, in `I, X, Y, Z` order.
    pub const ALL: [Pauli; 4] = [Pauli::I, Pauli::X, Pauli::Y, Pauli::Z];

    /// Builds a Pauli from its X and Z components (`Y` has both).
    #[inline]
    pub const fn from_xz(x: bool, z: bool) -> Self {
        match (x, z) {
            (false, false) => Pauli::I,
            (true, false) => Pauli::X,
            (true, true) => Pauli::Y,
            (false, true) => Pauli::Z,
        }
    }

    /// Returns the `(x, z)` component pair of this Pauli.
    #[inline]
    pub const fn xz(self) -> (bool, bool) {
        match self {
            Pauli::I => (false, false),
            Pauli::X => (true, false),
            Pauli::Y => (true, true),
            Pauli::Z => (false, true),
        }
    }

    /// Returns `true` if this is the identity.
    #[inline]
    pub const fn is_identity(self) -> bool {
        matches!(self, Pauli::I)
    }

    /// Returns `true` if `self` and `other` commute.
    ///
    /// Two single-qubit Paulis commute iff either is the identity or they are
    /// equal.
    #[inline]
    pub fn commutes_with(self, other: Pauli) -> bool {
        let (x1, z1) = self.xz();
        let (x2, z2) = other.xz();
        // Symplectic product: they anticommute iff x1·z2 + z1·x2 is odd.
        !((x1 & z2) ^ (z1 & x2))
    }

    /// Multiplies two Paulis, returning the phase as a power of `i`
    /// (0 ⇒ +1, 1 ⇒ +i, 2 ⇒ −1, 3 ⇒ −i) and the resulting Pauli.
    ///
    /// # Examples
    ///
    /// ```
    /// use qccd_circuit::Pauli;
    ///
    /// // X · Y = iZ
    /// assert_eq!(Pauli::X.mul(Pauli::Y), (1, Pauli::Z));
    /// // Y · X = −iZ
    /// assert_eq!(Pauli::Y.mul(Pauli::X), (3, Pauli::Z));
    /// ```
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Pauli) -> (u8, Pauli) {
        use Pauli::*;
        match (self, other) {
            (I, p) | (p, I) => (0, p),
            (X, X) | (Y, Y) | (Z, Z) => (0, I),
            (X, Y) => (1, Z),
            (Y, X) => (3, Z),
            (Y, Z) => (1, X),
            (Z, Y) => (3, X),
            (Z, X) => (1, Y),
            (X, Z) => (3, Y),
        }
    }
}

impl fmt::Display for Pauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            Pauli::I => 'I',
            Pauli::X => 'X',
            Pauli::Y => 'Y',
            Pauli::Z => 'Z',
        };
        write!(f, "{c}")
    }
}

/// A sparse multi-qubit Pauli string with a tracked phase.
///
/// Only non-identity factors are stored. The phase is a power of `i`
/// (`phase_exponent` ∈ {0, 1, 2, 3}); Hermitian Pauli strings produced by
/// Clifford conjugation always carry phase exponent 0 or 2 (i.e. ±1).
///
/// # Examples
///
/// ```
/// use qccd_circuit::{Pauli, QubitId, SparsePauli};
///
/// let mut zz = SparsePauli::identity();
/// zz.set(QubitId::new(0), Pauli::Z);
/// zz.set(QubitId::new(3), Pauli::Z);
/// assert_eq!(zz.weight(), 2);
/// assert_eq!(zz.get(QubitId::new(1)), Pauli::I);
/// assert_eq!(format!("{zz}"), "+Z0*Z3");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SparsePauli {
    terms: BTreeMap<QubitId, Pauli>,
    phase_exponent: u8,
}

impl SparsePauli {
    /// Creates the identity Pauli string (weight 0, phase +1).
    pub fn identity() -> Self {
        SparsePauli::default()
    }

    /// Creates a single-qubit Pauli string.
    pub fn single(qubit: QubitId, pauli: Pauli) -> Self {
        let mut s = SparsePauli::identity();
        s.set(qubit, pauli);
        s
    }

    /// Creates a Pauli string acting with `pauli` on each listed qubit.
    pub fn uniform<I: IntoIterator<Item = QubitId>>(qubits: I, pauli: Pauli) -> Self {
        let mut s = SparsePauli::identity();
        for q in qubits {
            s.set(q, pauli);
        }
        s
    }

    /// Returns the Pauli acting on `qubit` (identity if unset).
    pub fn get(&self, qubit: QubitId) -> Pauli {
        self.terms.get(&qubit).copied().unwrap_or(Pauli::I)
    }

    /// Sets the Pauli acting on `qubit`, removing the entry if identity.
    pub fn set(&mut self, qubit: QubitId, pauli: Pauli) {
        if pauli.is_identity() {
            self.terms.remove(&qubit);
        } else {
            self.terms.insert(qubit, pauli);
        }
    }

    /// Number of qubits acted on non-trivially.
    pub fn weight(&self) -> usize {
        self.terms.len()
    }

    /// Returns `true` if this is the identity string (any phase).
    pub fn is_identity(&self) -> bool {
        self.terms.is_empty()
    }

    /// The phase exponent `k` such that the string equals `i^k · P`.
    pub fn phase_exponent(&self) -> u8 {
        self.phase_exponent
    }

    /// Overrides the phase exponent (mod 4).
    pub fn set_phase_exponent(&mut self, exponent: u8) {
        self.phase_exponent = exponent % 4;
    }

    /// Iterates over the non-identity `(qubit, pauli)` factors in qubit order.
    pub fn iter(&self) -> impl Iterator<Item = (QubitId, Pauli)> + '_ {
        self.terms.iter().map(|(&q, &p)| (q, p))
    }

    /// Returns the qubits acted on non-trivially, in ascending order.
    pub fn support(&self) -> Vec<QubitId> {
        self.terms.keys().copied().collect()
    }

    /// Multiplies `other` into `self` (i.e. `self ← self · other`), tracking
    /// the accumulated phase.
    pub fn mul_assign(&mut self, other: &SparsePauli) {
        self.phase_exponent = (self.phase_exponent + other.phase_exponent) % 4;
        for (q, p) in other.iter() {
            let (phase, prod) = self.get(q).mul(p);
            self.phase_exponent = (self.phase_exponent + phase) % 4;
            self.set(q, prod);
        }
    }

    /// Returns the product `self · other`.
    pub fn mul(&self, other: &SparsePauli) -> SparsePauli {
        let mut result = self.clone();
        result.mul_assign(other);
        result
    }

    /// Returns `true` if `self` commutes with `other`.
    ///
    /// Two Pauli strings commute iff they anticommute on an even number of
    /// qubits.
    pub fn commutes_with(&self, other: &SparsePauli) -> bool {
        let mut anticommuting = 0usize;
        for (q, p) in self.iter() {
            let o = other.get(q);
            if o.is_identity() {
                continue;
            }
            let (x1, z1) = p.xz();
            let (x2, z2) = o.xz();
            if (x1 & z2) ^ (z1 & x2) {
                anticommuting += 1;
            }
        }
        anticommuting.is_multiple_of(2)
    }
}

impl fmt::Display for SparsePauli {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sign = match self.phase_exponent {
            0 => "+",
            1 => "+i",
            2 => "-",
            _ => "-i",
        };
        write!(f, "{sign}")?;
        if self.terms.is_empty() {
            return write!(f, "I");
        }
        let mut first = true;
        for (q, p) in self.iter() {
            if !first {
                write!(f, "*")?;
            }
            write!(f, "{p}{}", q.index())?;
            first = false;
        }
        Ok(())
    }
}

impl FromIterator<(QubitId, Pauli)> for SparsePauli {
    fn from_iter<T: IntoIterator<Item = (QubitId, Pauli)>>(iter: T) -> Self {
        let mut s = SparsePauli::identity();
        for (q, p) in iter {
            s.set(q, p);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    #[test]
    fn pauli_from_xz_round_trips() {
        for p in Pauli::ALL {
            let (x, z) = p.xz();
            assert_eq!(Pauli::from_xz(x, z), p);
        }
    }

    #[test]
    fn pauli_multiplication_table() {
        use Pauli::*;
        // Products of equal Paulis are identity with no phase.
        for p in Pauli::ALL {
            assert_eq!(p.mul(p), (0, I));
        }
        // Cyclic products pick up ±i.
        assert_eq!(X.mul(Y), (1, Z));
        assert_eq!(Y.mul(Z), (1, X));
        assert_eq!(Z.mul(X), (1, Y));
        assert_eq!(Y.mul(X), (3, Z));
        assert_eq!(Z.mul(Y), (3, X));
        assert_eq!(X.mul(Z), (3, Y));
    }

    #[test]
    fn pauli_commutation() {
        use Pauli::*;
        assert!(I.commutes_with(X));
        assert!(X.commutes_with(X));
        assert!(!X.commutes_with(Z));
        assert!(!Y.commutes_with(Z));
        assert!(!X.commutes_with(Y));
    }

    #[test]
    fn sparse_pauli_set_get() {
        let mut s = SparsePauli::identity();
        assert!(s.is_identity());
        s.set(q(5), Pauli::X);
        assert_eq!(s.get(q(5)), Pauli::X);
        assert_eq!(s.get(q(0)), Pauli::I);
        assert_eq!(s.weight(), 1);
        s.set(q(5), Pauli::I);
        assert!(s.is_identity());
    }

    #[test]
    fn sparse_pauli_multiplication_xor_behaviour() {
        let x0 = SparsePauli::single(q(0), Pauli::X);
        let z0 = SparsePauli::single(q(0), Pauli::Z);
        let y0 = x0.mul(&z0);
        // X·Z = −iY
        assert_eq!(y0.get(q(0)), Pauli::Y);
        assert_eq!(y0.phase_exponent(), 3);

        // Multiplying a string by itself gives the identity with +1 phase.
        let mut s = SparsePauli::identity();
        s.set(q(0), Pauli::X);
        s.set(q(1), Pauli::Y);
        s.set(q(2), Pauli::Z);
        let prod = s.mul(&s);
        assert!(prod.is_identity());
        assert_eq!(prod.phase_exponent(), 0);
    }

    #[test]
    fn sparse_pauli_commutation() {
        // XX commutes with ZZ (anticommute on two qubits).
        let xx = SparsePauli::uniform([q(0), q(1)], Pauli::X);
        let zz = SparsePauli::uniform([q(0), q(1)], Pauli::Z);
        assert!(xx.commutes_with(&zz));

        // X0 anticommutes with Z0.
        let x0 = SparsePauli::single(q(0), Pauli::X);
        let z0 = SparsePauli::single(q(0), Pauli::Z);
        assert!(!x0.commutes_with(&z0));

        // Disjoint supports always commute.
        let x1 = SparsePauli::single(q(1), Pauli::X);
        assert!(x1.commutes_with(&z0));
    }

    #[test]
    fn supports() {
        let mut s = SparsePauli::identity();
        s.set(q(0), Pauli::X);
        s.set(q(1), Pauli::Y);
        s.set(q(2), Pauli::Z);
        assert_eq!(s.support(), vec![q(0), q(1), q(2)]);
    }

    #[test]
    fn display() {
        let mut s = SparsePauli::identity();
        assert_eq!(s.to_string(), "+I");
        s.set(q(2), Pauli::X);
        s.set(q(4), Pauli::Z);
        assert_eq!(s.to_string(), "+X2*Z4");
        s.set_phase_exponent(2);
        assert_eq!(s.to_string(), "-X2*Z4");
    }

    #[test]
    fn from_iterator() {
        let s: SparsePauli = vec![(q(0), Pauli::X), (q(1), Pauli::I), (q(2), Pauli::Z)]
            .into_iter()
            .collect();
        assert_eq!(s.weight(), 2);
    }
}
