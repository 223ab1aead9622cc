//! Code layouts: qubit roles, coordinates and stabilizer structure.
//!
//! Every QEC code in this crate (repetition code, rotated and unrotated
//! surface codes) is described by the same concrete data structure,
//! [`CodeLayout`]. The layout records *where* each qubit sits in the code's
//! two-dimensional geometry, which qubits are data versus ancilla, the
//! stabilizers (with their entangling-gate schedule) and the logical
//! operators. Downstream consumers are:
//!
//! * the parity-check circuit builder ([`crate::schedule`]),
//! * the memory-experiment builder ([`crate::memory`]), and
//! * the QCCD compiler, which uses the coordinates and the data–ancilla
//!   interaction graph to cluster qubits into traps.

use std::collections::{BTreeMap, HashSet};
use std::fmt;

use qccd_circuit::{Pauli, QubitId, SparsePauli};

/// A position in the code's planar layout.
///
/// Coordinates are stored in *doubled* units so that every qubit of every
/// code sits on integer coordinates: adjacent data qubits of a surface code
/// are 2 units apart and ancilla qubits sit at odd coordinates between them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    /// Row coordinate (doubled units).
    pub row: i64,
    /// Column coordinate (doubled units).
    pub col: i64,
}

impl Coord {
    /// Creates a coordinate.
    pub const fn new(row: i64, col: i64) -> Self {
        Coord { row, col }
    }

    /// Returns the coordinate as floating-point `(row, col)`.
    pub fn as_f64(self) -> (f64, f64) {
        (self.row as f64, self.col as f64)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.row, self.col)
    }
}

/// The role a physical qubit plays in the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QubitRole {
    /// Holds part of the encoded logical state.
    Data,
    /// Used to measure stabilizers; reset and measured every round.
    Ancilla,
}

/// Metadata about one physical qubit of the code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QubitInfo {
    /// Circuit-level identifier.
    pub id: QubitId,
    /// Position in the planar layout (doubled units).
    pub coord: Coord,
    /// Data or ancilla.
    pub role: QubitRole,
}

/// The Pauli basis of a stabilizer check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StabilizerBasis {
    /// X-type (detects phase flips).
    X,
    /// Z-type (detects bit flips).
    Z,
}

impl StabilizerBasis {
    /// The Pauli operator corresponding to this basis.
    pub fn pauli(self) -> Pauli {
        match self {
            StabilizerBasis::X => Pauli::X,
            StabilizerBasis::Z => Pauli::Z,
        }
    }
}

impl fmt::Display for StabilizerBasis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StabilizerBasis::X => write!(f, "X"),
            StabilizerBasis::Z => write!(f, "Z"),
        }
    }
}

/// One stabilizer check of the code.
///
/// `schedule` lists, per entangling time-step, which data qubit (if any) the
/// ancilla interacts with. The step ordering is chosen per code so that no
/// qubit participates in two entangling gates in the same step and so that
/// the resulting circuit measures the intended stabilizers (validated by the
/// tableau simulator in the integration tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stabilizer {
    /// The ancilla qubit that accumulates the parity.
    pub ancilla: QubitId,
    /// X- or Z-type check.
    pub basis: StabilizerBasis,
    /// Data qubit touched in each entangling step (`None` = ancilla idles).
    pub schedule: Vec<Option<QubitId>>,
}

impl Stabilizer {
    /// The data qubits in this stabilizer's support, in schedule order.
    pub fn data_support(&self) -> Vec<QubitId> {
        self.schedule.iter().filter_map(|s| *s).collect()
    }

    /// The weight (number of data qubits) of the check.
    pub fn weight(&self) -> usize {
        self.schedule.iter().filter(|s| s.is_some()).count()
    }

    /// The stabilizer as a Pauli string over the data qubits.
    pub fn pauli_string(&self) -> SparsePauli {
        SparsePauli::uniform(self.data_support(), self.basis.pauli())
    }
}

/// A complete description of a QEC code instance laid out in the plane.
#[derive(Debug, Clone, PartialEq)]
pub struct CodeLayout {
    name: String,
    distance: usize,
    qubits: Vec<QubitInfo>,
    stabilizers: Vec<Stabilizer>,
    logical_z: Vec<QubitId>,
    logical_x: Vec<QubitId>,
    num_entangling_steps: usize,
}

impl CodeLayout {
    /// Assembles a layout from its parts.
    ///
    /// # Panics
    ///
    /// Panics if qubit identifiers are not dense (0..n), if a stabilizer
    /// references an unknown qubit, or if logical operators reference
    /// non-data qubits. These are programming errors in code constructors,
    /// not user errors.
    pub fn new(
        name: impl Into<String>,
        distance: usize,
        qubits: Vec<QubitInfo>,
        stabilizers: Vec<Stabilizer>,
        logical_z: Vec<QubitId>,
        logical_x: Vec<QubitId>,
    ) -> Self {
        let ids: HashSet<usize> = qubits.iter().map(|q| q.id.index()).collect();
        assert_eq!(ids.len(), qubits.len(), "duplicate qubit ids in layout");
        for i in 0..qubits.len() {
            assert!(
                ids.contains(&i),
                "qubit ids must be dense 0..n, missing {i}"
            );
        }
        let role_of: BTreeMap<QubitId, QubitRole> = qubits.iter().map(|q| (q.id, q.role)).collect();
        let num_entangling_steps = stabilizers
            .iter()
            .map(|s| s.schedule.len())
            .max()
            .unwrap_or(0);
        for s in &stabilizers {
            assert_eq!(
                role_of.get(&s.ancilla),
                Some(&QubitRole::Ancilla),
                "stabilizer ancilla {} is not an ancilla qubit",
                s.ancilla
            );
            for d in s.data_support() {
                assert_eq!(
                    role_of.get(&d),
                    Some(&QubitRole::Data),
                    "stabilizer data qubit {d} is not a data qubit"
                );
            }
        }
        for q in logical_z.iter().chain(logical_x.iter()) {
            assert_eq!(
                role_of.get(q),
                Some(&QubitRole::Data),
                "logical operator qubit {q} is not a data qubit"
            );
        }
        CodeLayout {
            name: name.into(),
            distance,
            qubits,
            stabilizers,
            logical_z,
            logical_x,
            num_entangling_steps,
        }
    }

    /// Human-readable name, e.g. `"rotated_surface_d5"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Code distance.
    pub fn distance(&self) -> usize {
        self.distance
    }

    /// All physical qubits (data and ancilla).
    pub fn qubits(&self) -> &[QubitInfo] {
        &self.qubits
    }

    /// Total number of physical qubits.
    pub fn num_qubits(&self) -> usize {
        self.qubits.len()
    }

    /// The stabilizer checks.
    pub fn stabilizers(&self) -> &[Stabilizer] {
        &self.stabilizers
    }

    /// Number of entangling time-steps in one parity-check round.
    pub fn num_entangling_steps(&self) -> usize {
        self.num_entangling_steps
    }

    /// Data qubits, in id order.
    pub fn data_qubits(&self) -> Vec<QubitId> {
        self.qubits
            .iter()
            .filter(|q| q.role == QubitRole::Data)
            .map(|q| q.id)
            .collect()
    }

    /// Ancilla qubits, in id order.
    pub fn ancilla_qubits(&self) -> Vec<QubitId> {
        self.qubits
            .iter()
            .filter(|q| q.role == QubitRole::Ancilla)
            .map(|q| q.id)
            .collect()
    }

    /// The coordinate of a qubit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is not part of the layout.
    pub fn coord(&self, qubit: QubitId) -> Coord {
        self.qubits[qubit.index()].coord
    }

    /// The role of a qubit.
    ///
    /// # Panics
    ///
    /// Panics if the qubit is not part of the layout.
    pub fn role(&self, qubit: QubitId) -> QubitRole {
        self.qubits[qubit.index()].role
    }

    /// Data qubits forming the logical Z operator (a Z string between the
    /// Z-type boundaries).
    pub fn logical_z(&self) -> &[QubitId] {
        &self.logical_z
    }

    /// Data qubits forming the logical X operator.
    pub fn logical_x(&self) -> &[QubitId] {
        &self.logical_x
    }

    /// The logical Z operator as a Pauli string.
    pub fn logical_z_pauli(&self) -> SparsePauli {
        SparsePauli::uniform(self.logical_z.iter().copied(), Pauli::Z)
    }

    /// The logical X operator as a Pauli string.
    pub fn logical_x_pauli(&self) -> SparsePauli {
        SparsePauli::uniform(self.logical_x.iter().copied(), Pauli::X)
    }

    /// Returns the data–ancilla interaction graph as weighted edges.
    ///
    /// Each stabilizer contributes one edge per data qubit in its support.
    /// The weight reflects how early in the round the interaction happens
    /// (earlier ⇒ heavier), which is what the QCCD compiler's clustering
    /// objective uses (§4.2 of the paper).
    pub fn interaction_edges(&self) -> Vec<InteractionEdge> {
        let mut edges = Vec::new();
        for stab in &self.stabilizers {
            let steps = stab.schedule.len().max(1) as f64;
            for (step, data) in stab.schedule.iter().enumerate() {
                if let Some(data) = data {
                    edges.push(InteractionEdge {
                        ancilla: stab.ancilla,
                        data: *data,
                        weight: steps - step as f64,
                    });
                }
            }
        }
        edges
    }

    /// Verifies the internal consistency of the code:
    ///
    /// * all stabilizers mutually commute,
    /// * logical Z and X commute with every stabilizer,
    /// * logical Z anticommutes with logical X,
    /// * no qubit appears twice in the same entangling step.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated property.
    pub fn validate(&self) -> Result<(), String> {
        let paulis: Vec<SparsePauli> = self.stabilizers.iter().map(|s| s.pauli_string()).collect();
        for (i, a) in paulis.iter().enumerate() {
            for (j, b) in paulis.iter().enumerate().skip(i + 1) {
                if !a.commutes_with(b) {
                    return Err(format!("stabilizers {i} and {j} do not commute"));
                }
            }
        }
        let lz = self.logical_z_pauli();
        let lx = self.logical_x_pauli();
        for (i, s) in paulis.iter().enumerate() {
            if !lz.commutes_with(s) {
                return Err(format!("logical Z does not commute with stabilizer {i}"));
            }
            if !lx.commutes_with(s) {
                return Err(format!("logical X does not commute with stabilizer {i}"));
            }
        }
        if lz.commutes_with(&lx) {
            return Err("logical Z and logical X must anticommute".to_string());
        }
        for step in 0..self.num_entangling_steps {
            let mut used: HashSet<QubitId> = HashSet::new();
            for stab in &self.stabilizers {
                if let Some(Some(data)) = stab.schedule.get(step) {
                    if !used.insert(*data) {
                        return Err(format!("data qubit {data} used twice in step {step}"));
                    }
                    if !used.insert(stab.ancilla) {
                        return Err(format!(
                            "ancilla {} used twice in step {step}",
                            stab.ancilla
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// One weighted data–ancilla interaction used by the compiler's clustering
/// pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InteractionEdge {
    /// The ancilla qubit of the parity check.
    pub ancilla: QubitId,
    /// The data qubit it entangles with.
    pub data: QubitId,
    /// Priority weight (earlier interactions are heavier).
    pub weight: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn tiny_layout() -> CodeLayout {
        // Two data qubits and one Z ancilla: the distance-2 repetition code.
        let qubits = vec![
            QubitInfo {
                id: q(0),
                coord: Coord::new(0, 0),
                role: QubitRole::Data,
            },
            QubitInfo {
                id: q(1),
                coord: Coord::new(0, 4),
                role: QubitRole::Data,
            },
            QubitInfo {
                id: q(2),
                coord: Coord::new(0, 2),
                role: QubitRole::Ancilla,
            },
        ];
        let stabilizers = vec![Stabilizer {
            ancilla: q(2),
            basis: StabilizerBasis::Z,
            schedule: vec![Some(q(0)), Some(q(1))],
        }];
        CodeLayout::new("tiny", 2, qubits, stabilizers, vec![q(0)], vec![q(0), q(1)])
    }

    #[test]
    fn coord_math() {
        let b = Coord::new(3, 4);
        assert_eq!(b.as_f64(), (3.0, 4.0));
        assert_eq!(b.to_string(), "(3, 4)");
    }

    #[test]
    fn layout_accessors() {
        let layout = tiny_layout();
        assert_eq!(layout.name(), "tiny");
        assert_eq!(layout.distance(), 2);
        assert_eq!(layout.num_qubits(), 3);
        assert_eq!(layout.data_qubits(), vec![q(0), q(1)]);
        assert_eq!(layout.ancilla_qubits(), vec![q(2)]);
        assert_eq!(layout.role(q(2)), QubitRole::Ancilla);
        assert_eq!(layout.coord(q(1)), Coord::new(0, 4));
        assert_eq!(layout.num_entangling_steps(), 2);
    }

    #[test]
    fn stabilizer_helpers() {
        let layout = tiny_layout();
        let stab = &layout.stabilizers()[0];
        assert_eq!(stab.weight(), 2);
        assert_eq!(stab.data_support(), vec![q(0), q(1)]);
        let p = stab.pauli_string();
        assert_eq!(p.get(q(0)), Pauli::Z);
        assert_eq!(p.get(q(1)), Pauli::Z);
    }

    #[test]
    fn tiny_layout_validates() {
        assert_eq!(tiny_layout().validate(), Ok(()));
    }

    #[test]
    fn interaction_edges_weight_by_step() {
        let layout = tiny_layout();
        let edges = layout.interaction_edges();
        assert_eq!(edges.len(), 2);
        assert!(edges[0].weight > edges[1].weight);
        assert_eq!(edges[0].data, q(0));
        assert_eq!(edges[1].data, q(1));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn non_dense_ids_panic() {
        let qubits = vec![QubitInfo {
            id: q(5),
            coord: Coord::new(0, 0),
            role: QubitRole::Data,
        }];
        CodeLayout::new("bad", 1, qubits, vec![], vec![], vec![]);
    }

    #[test]
    fn logical_operator_paulis() {
        let layout = tiny_layout();
        assert_eq!(layout.logical_z_pauli().weight(), 1);
        assert_eq!(layout.logical_x_pauli().weight(), 2);
        assert!(!layout
            .logical_z_pauli()
            .commutes_with(&layout.logical_x_pauli()));
    }

    #[test]
    fn basis_helpers() {
        assert_eq!(StabilizerBasis::X.pauli(), Pauli::X);
        assert_eq!(StabilizerBasis::Z.pauli(), Pauli::Z);
        assert_eq!(StabilizerBasis::X.to_string(), "X");
    }
}
