//! Qubit identifiers.
//!
//! A [`QubitId`] is a dense index into the qubit register of a
//! [`Circuit`](crate::Circuit). The QEC layer assigns semantic roles (data
//! qubit, ancilla qubit) on top of these raw indices, and the QCCD compiler
//! maps them onto physical ions.

use std::fmt;

/// Identifier of a qubit inside a circuit.
///
/// `QubitId` is a thin newtype around `u32` so that qubit indices cannot be
/// accidentally confused with other integer quantities (trap indices, ion
/// indices, measurement indices, ...).
///
/// # Examples
///
/// ```
/// use qccd_circuit::QubitId;
///
/// let q = QubitId::new(3);
/// assert_eq!(q.index(), 3);
/// assert_eq!(format!("{q}"), "q3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QubitId(u32);

impl QubitId {
    /// Creates a qubit identifier from a raw index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        QubitId(index)
    }

    /// Returns the raw index of this qubit.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw index as a `u32`.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for QubitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for QubitId {
    fn from(value: u32) -> Self {
        QubitId(value)
    }
}

impl From<QubitId> for u32 {
    fn from(value: QubitId) -> Self {
        value.0
    }
}

impl From<QubitId> for usize {
    fn from(value: QubitId) -> Self {
        value.index()
    }
}

/// The one or two qubits an instruction or noise channel acts on, held
/// inline so that reading an operand list allocates nothing.
///
/// Derefs to `[QubitId]` (operand order) and iterates by value.
///
/// # Examples
///
/// ```
/// use qccd_circuit::{Qubits, QubitId};
///
/// let pair = Qubits::two(QubitId::new(4), QubitId::new(1));
/// assert_eq!(pair.len(), 2);
/// assert_eq!(pair[1], QubitId::new(1));
/// assert_eq!(pair.into_iter().map(QubitId::index).sum::<usize>(), 5);
/// ```
#[derive(Clone, Copy, Eq)]
pub struct Qubits {
    ids: [QubitId; 2],
    len: u8,
}

impl Qubits {
    /// A single qubit.
    #[inline]
    pub const fn one(q: QubitId) -> Self {
        Qubits {
            ids: [q, q],
            len: 1,
        }
    }

    /// Two qubits, in operand order.
    #[inline]
    pub const fn two(a: QubitId, b: QubitId) -> Self {
        Qubits {
            ids: [a, b],
            len: 2,
        }
    }
}

impl std::ops::Deref for Qubits {
    type Target = [QubitId];

    #[inline]
    fn deref(&self) -> &[QubitId] {
        &self.ids[..usize::from(self.len)]
    }
}

impl PartialEq for Qubits {
    fn eq(&self, other: &Qubits) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<QubitId>> for Qubits {
    fn eq(&self, other: &Vec<QubitId>) -> bool {
        **self == other[..]
    }
}

impl fmt::Debug for Qubits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl IntoIterator for Qubits {
    type Item = QubitId;
    type IntoIter = std::iter::Take<std::array::IntoIter<QubitId, 2>>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(usize::from(self.len))
    }
}

impl<'a> IntoIterator for &'a Qubits {
    type Item = &'a QubitId;
    type IntoIter = std::slice::Iter<'a, QubitId>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Index of a measurement record produced by a circuit.
///
/// Measurement results are numbered in the order the measurement
/// instructions appear in the circuit, starting from zero. Detectors and
/// logical observables reference measurements through this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MeasurementIndex(pub usize);

impl MeasurementIndex {
    /// Creates a measurement index.
    #[inline]
    pub const fn new(index: usize) -> Self {
        MeasurementIndex(index)
    }

    /// Returns the zero-based position of the measurement in the circuit.
    #[inline]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for MeasurementIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl From<usize> for MeasurementIndex {
    fn from(value: usize) -> Self {
        MeasurementIndex(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn qubit_id_round_trip() {
        let q = QubitId::new(42);
        assert_eq!(q.index(), 42);
        assert_eq!(q.raw(), 42);
        assert_eq!(u32::from(q), 42);
        assert_eq!(usize::from(q), 42);
        assert_eq!(QubitId::from(42u32), q);
    }

    #[test]
    fn qubit_id_display() {
        assert_eq!(QubitId::new(0).to_string(), "q0");
        assert_eq!(QubitId::new(17).to_string(), "q17");
    }

    #[test]
    fn qubit_id_ordering_matches_index() {
        let a = QubitId::new(1);
        let b = QubitId::new(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn qubit_id_hashable() {
        let mut set = HashSet::new();
        set.insert(QubitId::new(1));
        set.insert(QubitId::new(1));
        set.insert(QubitId::new(2));
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn qubits_hold_one_or_two_ids_in_operand_order() {
        let (a, b) = (QubitId::new(9), QubitId::new(2));
        let one = Qubits::one(a);
        let two = Qubits::two(a, b);
        assert_eq!(*one, [a]);
        assert_eq!(*two, [a, b]);
        assert_eq!(two, vec![a, b]);
        assert_ne!(Qubits::two(a, b), Qubits::two(b, a));
        assert_ne!(one, Qubits::two(a, a));
        assert_eq!(one.into_iter().collect::<Vec<_>>(), vec![a]);
        assert_eq!((&two).into_iter().copied().collect::<Vec<_>>(), vec![a, b]);
        assert_eq!(format!("{two:?}"), format!("{:?}", vec![a, b]));
    }

    #[test]
    fn measurement_index_round_trip() {
        let m = MeasurementIndex::new(7);
        assert_eq!(m.index(), 7);
        assert_eq!(m.to_string(), "m7");
        assert_eq!(MeasurementIndex::from(7usize), m);
    }
}
