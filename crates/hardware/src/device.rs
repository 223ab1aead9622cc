//! The QCCD device model.
//!
//! A [`Device`] is the abstract QCCD view used throughout the paper
//! (Figure 1(c)): a set of *traps* that hold ion chains and execute gates,
//! *junctions* that route ions between transport paths, and *segments* — the
//! shuttling paths connecting traps and junctions. Together the traps and
//! junctions form the nodes of the ion-routing graph and the segments form
//! its edges.
//!
//! Hardware constraints represented here (§4.3):
//!
//! * each trap holds at most `capacity` ions at any time,
//! * each junction holds at most one ion,
//! * each segment holds at most one ion.

use std::collections::{BTreeMap, HashSet, VecDeque};

use crate::{JunctionId, NodeId, SegmentId, TrapId};

/// A trap: holds a linear chain of up to `capacity` ions and executes gates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trap {
    /// Identifier.
    pub id: TrapId,
    /// Physical position used for geometry-aware mapping.
    pub position: (f64, f64),
    /// Maximum number of ions the trap can hold.
    pub capacity: usize,
}

/// A junction: a crossing point between transport segments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Junction {
    /// Identifier.
    pub id: JunctionId,
    /// Physical position used for geometry-aware mapping.
    pub position: (f64, f64),
}

/// A shuttling segment connecting two nodes of the routing graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Identifier.
    pub id: SegmentId,
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
}

/// The communication topology family of a device (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// Traps on the edges of a junction lattice (the paper's recommended
    /// choice; matches the surface code's structure).
    Grid,
    /// Traps in a chain connected by direct segments (pessimistic case,
    /// Quantinuum-racetrack-like). A single-trap device is the degenerate
    /// "single ion chain" configuration.
    Linear,
    /// Every trap connected to one central n-way junction (optimistic,
    /// MUSIQC-like all-to-all switch).
    Switch,
}

impl std::fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyKind::Grid => write!(f, "grid"),
            TopologyKind::Linear => write!(f, "linear"),
            TopologyKind::Switch => write!(f, "switch"),
        }
    }
}

/// Inverse of the [`Display`](std::fmt::Display) names.
impl std::str::FromStr for TopologyKind {
    type Err = String;

    fn from_str(name: &str) -> Result<Self, String> {
        match name {
            "grid" => Ok(TopologyKind::Grid),
            "linear" => Ok(TopologyKind::Linear),
            "switch" => Ok(TopologyKind::Switch),
            other => Err(format!("unknown topology `{other}` (grid|linear|switch)")),
        }
    }
}

/// Errors produced when constructing or validating a [`Device`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device has no traps.
    NoTraps,
    /// A trap capacity is too small to be usable.
    CapacityTooSmall {
        /// The offending trap.
        trap: TrapId,
        /// Its capacity.
        capacity: usize,
    },
    /// A segment references a node that does not exist.
    DanglingSegment(SegmentId),
    /// The routing graph is not connected.
    Disconnected,
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::NoTraps => write!(f, "device has no traps"),
            DeviceError::CapacityTooSmall { trap, capacity } => {
                write!(
                    f,
                    "trap {trap} has capacity {capacity}, which is below the minimum of 1"
                )
            }
            DeviceError::DanglingSegment(s) => {
                write!(f, "segment {s} references a node that does not exist")
            }
            DeviceError::Disconnected => write!(f, "the routing graph is not connected"),
        }
    }
}

impl std::error::Error for DeviceError {}

/// The abstract QCCD device: routing graph plus trap capacities.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    kind: TopologyKind,
    traps: Vec<Trap>,
    junctions: Vec<Junction>,
    segments: Vec<Segment>,
    adjacency: BTreeMap<NodeId, Vec<(SegmentId, NodeId)>>,
}

impl Device {
    /// Assembles a device from parts, building the adjacency structure.
    ///
    /// # Errors
    ///
    /// Returns a [`DeviceError`] if the description is inconsistent (no
    /// traps, dangling segments, zero capacities or a disconnected routing
    /// graph).
    pub fn new(
        kind: TopologyKind,
        traps: Vec<Trap>,
        junctions: Vec<Junction>,
        segments: Vec<Segment>,
    ) -> Result<Self, DeviceError> {
        if traps.is_empty() {
            return Err(DeviceError::NoTraps);
        }
        for trap in &traps {
            if trap.capacity == 0 {
                return Err(DeviceError::CapacityTooSmall {
                    trap: trap.id,
                    capacity: trap.capacity,
                });
            }
        }
        let mut nodes: HashSet<NodeId> = HashSet::new();
        for trap in &traps {
            nodes.insert(NodeId::Trap(trap.id));
        }
        for junction in &junctions {
            nodes.insert(NodeId::Junction(junction.id));
        }
        let mut adjacency: BTreeMap<NodeId, Vec<(SegmentId, NodeId)>> =
            nodes.iter().map(|&n| (n, Vec::new())).collect();
        for segment in &segments {
            if !nodes.contains(&segment.a) || !nodes.contains(&segment.b) {
                return Err(DeviceError::DanglingSegment(segment.id));
            }
            adjacency
                .get_mut(&segment.a)
                .expect("node present")
                .push((segment.id, segment.b));
            adjacency
                .get_mut(&segment.b)
                .expect("node present")
                .push((segment.id, segment.a));
        }
        let device = Device {
            kind,
            traps,
            junctions,
            segments,
            adjacency,
        };
        if !device.is_connected() {
            return Err(DeviceError::Disconnected);
        }
        Ok(device)
    }

    /// The topology family of this device.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// All traps.
    pub fn traps(&self) -> &[Trap] {
        &self.traps
    }

    /// All junctions.
    pub fn junctions(&self) -> &[Junction] {
        &self.junctions
    }

    /// All segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Number of traps.
    pub fn num_traps(&self) -> usize {
        self.traps.len()
    }

    /// Number of junctions.
    pub fn num_junctions(&self) -> usize {
        self.junctions.len()
    }

    /// Number of segments.
    pub fn num_segments(&self) -> usize {
        self.segments.len()
    }

    /// Looks up a trap.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn trap(&self, id: TrapId) -> &Trap {
        &self.traps[id.index()]
    }

    /// Looks up a junction.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn junction(&self, id: JunctionId) -> &Junction {
        &self.junctions[id.index()]
    }

    /// The uniform trap capacity of the device (the minimum over traps, which
    /// for all built-in topologies equals every trap's capacity).
    pub fn capacity(&self) -> usize {
        self.traps.iter().map(|t| t.capacity).min().unwrap_or(0)
    }

    /// The number of qubits the compiler will actually map onto this device:
    /// traps are filled to `capacity − 1` to leave a slot free for visiting
    /// ions (§4.2), except for a single-trap device which may be filled
    /// completely because no communication is ever needed.
    pub fn mappable_qubits(&self) -> usize {
        if self.traps.len() == 1 {
            self.traps[0].capacity
        } else {
            self.traps
                .iter()
                .map(|t| t.capacity.saturating_sub(1))
                .sum()
        }
    }

    /// Neighbours of a node: `(segment, other end)` pairs.
    pub fn neighbours(&self, node: NodeId) -> &[(SegmentId, NodeId)] {
        self.adjacency
            .get(&node)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// The position of a node (trap or junction).
    pub fn position(&self, node: NodeId) -> (f64, f64) {
        match node {
            NodeId::Trap(t) => self.trap(t).position,
            NodeId::Junction(j) => self.junction(j).position,
        }
    }

    /// All node identifiers (traps then junctions).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.traps
            .iter()
            .map(|t| NodeId::Trap(t.id))
            .chain(self.junctions.iter().map(|j| NodeId::Junction(j.id)))
            .collect()
    }

    fn is_connected(&self) -> bool {
        let nodes = self.nodes();
        if nodes.len() <= 1 {
            return true;
        }
        let start = nodes[0];
        let mut visited: HashSet<NodeId> = HashSet::new();
        let mut queue = VecDeque::new();
        visited.insert(start);
        queue.push_back(start);
        while let Some(node) = queue.pop_front() {
            for (_, next) in self.neighbours(node) {
                if visited.insert(*next) {
                    queue.push_back(*next);
                }
            }
        }
        visited.len() == nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_trap_device() -> Device {
        let traps = vec![
            Trap {
                id: TrapId(0),
                position: (0.0, 0.0),
                capacity: 2,
            },
            Trap {
                id: TrapId(1),
                position: (0.0, 1.0),
                capacity: 2,
            },
        ];
        let segments = vec![Segment {
            id: SegmentId(0),
            a: NodeId::Trap(TrapId(0)),
            b: NodeId::Trap(TrapId(1)),
        }];
        Device::new(TopologyKind::Linear, traps, vec![], segments).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let device = two_trap_device();
        assert_eq!(device.num_traps(), 2);
        assert_eq!(device.num_junctions(), 0);
        assert_eq!(device.num_segments(), 1);
        assert_eq!(device.capacity(), 2);
        assert_eq!(device.mappable_qubits(), 2);
        assert_eq!(device.kind(), TopologyKind::Linear);
    }

    #[test]
    fn topology_from_str_inverts_display() {
        for kind in [
            TopologyKind::Grid,
            TopologyKind::Linear,
            TopologyKind::Switch,
        ] {
            assert_eq!(kind.to_string().parse(), Ok(kind));
        }
        assert!("torus".parse::<TopologyKind>().is_err());
    }

    #[test]
    fn adjacency_is_symmetric() {
        let device = two_trap_device();
        let t0 = NodeId::Trap(TrapId(0));
        let t1 = NodeId::Trap(TrapId(1));
        assert_eq!(device.neighbours(t0), &[(SegmentId(0), t1)]);
        assert_eq!(device.neighbours(t1), &[(SegmentId(0), t0)]);
    }

    #[test]
    fn empty_device_rejected() {
        assert_eq!(
            Device::new(TopologyKind::Linear, vec![], vec![], vec![]),
            Err(DeviceError::NoTraps)
        );
    }

    #[test]
    fn zero_capacity_rejected() {
        let traps = vec![Trap {
            id: TrapId(0),
            position: (0.0, 0.0),
            capacity: 0,
        }];
        assert!(matches!(
            Device::new(TopologyKind::Linear, traps, vec![], vec![]),
            Err(DeviceError::CapacityTooSmall { .. })
        ));
    }

    #[test]
    fn dangling_segment_rejected() {
        let traps = vec![Trap {
            id: TrapId(0),
            position: (0.0, 0.0),
            capacity: 2,
        }];
        let segments = vec![Segment {
            id: SegmentId(0),
            a: NodeId::Trap(TrapId(0)),
            b: NodeId::Trap(TrapId(9)),
        }];
        assert_eq!(
            Device::new(TopologyKind::Linear, traps, vec![], segments),
            Err(DeviceError::DanglingSegment(SegmentId(0)))
        );
    }

    #[test]
    fn disconnected_device_rejected() {
        let traps = vec![
            Trap {
                id: TrapId(0),
                position: (0.0, 0.0),
                capacity: 2,
            },
            Trap {
                id: TrapId(1),
                position: (0.0, 1.0),
                capacity: 2,
            },
        ];
        assert_eq!(
            Device::new(TopologyKind::Linear, traps, vec![], vec![]),
            Err(DeviceError::Disconnected)
        );
    }

    #[test]
    fn single_trap_mappable_qubits_uses_full_capacity() {
        let traps = vec![Trap {
            id: TrapId(0),
            position: (0.0, 0.0),
            capacity: 31,
        }];
        let device = Device::new(TopologyKind::Linear, traps, vec![], vec![]).unwrap();
        assert_eq!(device.mappable_qubits(), 31);
    }
}
