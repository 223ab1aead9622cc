//! Identifiers for QCCD hardware elements.
//!
//! The hardware graph consists of *traps* (which hold ion chains and execute
//! gates), *junctions* (crossings that route ions between transport paths)
//! and *segments* (the shuttling paths that connect traps and junctions).
//! Physical ions get their own identifiers, distinct from the logical
//! [`QubitId`](qccd_circuit::QubitId)s they host.

use std::fmt;

/// Identifier of a trap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TrapId(pub u32);

impl TrapId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TrapId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of a junction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JunctionId(pub u32);

impl JunctionId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for JunctionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "J{}", self.0)
    }
}

/// Identifier of a shuttling segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SegmentId(pub u32);

impl SegmentId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Identifier of a physical ion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IonId(pub u32);

impl IonId {
    /// Returns the raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for IonId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// A node of the ion-routing graph: either a trap or a junction.
///
/// Segments are the edges of this graph; an ion in transit briefly occupies
/// a segment while moving between two nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NodeId {
    /// A trap node.
    Trap(TrapId),
    /// A junction node.
    Junction(JunctionId),
}

impl NodeId {
    /// Returns `true` if this node is a trap.
    pub const fn is_trap(self) -> bool {
        matches!(self, NodeId::Trap(_))
    }

    /// Returns `true` if this node is a junction.
    pub const fn is_junction(self) -> bool {
        matches!(self, NodeId::Junction(_))
    }

    /// Returns the trap id if this node is a trap.
    pub const fn as_trap(self) -> Option<TrapId> {
        match self {
            NodeId::Trap(t) => Some(t),
            NodeId::Junction(_) => None,
        }
    }

    /// Returns the junction id if this node is a junction.
    pub const fn as_junction(self) -> Option<JunctionId> {
        match self {
            NodeId::Junction(j) => Some(j),
            NodeId::Trap(_) => None,
        }
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeId::Trap(t) => write!(f, "{t}"),
            NodeId::Junction(j) => write!(f, "{j}"),
        }
    }
}

impl From<TrapId> for NodeId {
    fn from(value: TrapId) -> Self {
        NodeId::Trap(value)
    }
}

impl From<JunctionId> for NodeId {
    fn from(value: JunctionId) -> Self {
        NodeId::Junction(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(TrapId(3).to_string(), "T3");
        assert_eq!(JunctionId(1).to_string(), "J1");
        assert_eq!(SegmentId(7).to_string(), "S7");
        assert_eq!(IonId(0).to_string(), "i0");
        assert_eq!(NodeId::Trap(TrapId(2)).to_string(), "T2");
        assert_eq!(NodeId::Junction(JunctionId(4)).to_string(), "J4");
    }

    #[test]
    fn node_id_classification() {
        let t: NodeId = TrapId(0).into();
        let j: NodeId = JunctionId(0).into();
        assert!(t.is_trap());
        assert!(!t.is_junction());
        assert!(j.is_junction());
        assert_eq!(t.as_trap(), Some(TrapId(0)));
        assert_eq!(t.as_junction(), None);
        assert_eq!(j.as_junction(), Some(JunctionId(0)));
        assert_eq!(j.as_trap(), None);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(TrapId(5).index(), 5);
        assert_eq!(JunctionId(6).index(), 6);
        assert_eq!(SegmentId(7).index(), 7);
        assert_eq!(IonId(8).index(), 8);
    }
}
