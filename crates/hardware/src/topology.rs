//! Topology builders: grid, linear and all-to-all switch devices.
//!
//! The paper's design-space exploration sweeps three communication
//! topologies (§3.2):
//!
//! * **grid** — junctions form a lattice and a trap sits on every lattice
//!   edge, matching Figure 1(c). This mirrors the surface code's structure.
//! * **linear** — traps in a chain, connected by direct segments. A
//!   single-trap "linear" device is the degenerate single-ion-chain
//!   configuration used by monolithic systems.
//! * **switch** — every trap connects to one central n-way junction,
//!   an optimistic MUSIQC-like all-to-all interconnect.
//!
//! Builders come in two flavours: explicit-size constructors and
//! `*_for_qubits` helpers that size the device to host a given number of
//! code qubits at a given trap capacity (filling traps to `capacity − 1`,
//! per §4.2).

use crate::{Device, Junction, JunctionId, NodeId, Segment, SegmentId, TopologyKind, Trap, TrapId};

impl Device {
    /// Builds a grid device with `junction_rows × junction_cols` junctions
    /// and a trap (of the given capacity) on every lattice edge.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the resulting lattice has no
    /// edges (1×1), or if `capacity == 0`.
    pub fn grid(junction_rows: usize, junction_cols: usize, capacity: usize) -> Device {
        assert!(
            junction_rows >= 1 && junction_cols >= 1,
            "grid needs at least one junction"
        );
        assert!(
            junction_rows * junction_cols >= 2,
            "a 1x1 junction grid has no edges to place traps on"
        );
        assert!(capacity >= 1, "capacity must be positive");

        let junction_index = |r: usize, c: usize| JunctionId((r * junction_cols + c) as u32);
        let mut junctions = Vec::new();
        for r in 0..junction_rows {
            for c in 0..junction_cols {
                junctions.push(Junction {
                    id: junction_index(r, c),
                    position: (r as f64, c as f64),
                });
            }
        }

        let mut traps = Vec::new();
        let mut segments = Vec::new();
        let mut add_trap_on_edge = |a: JunctionId, b: JunctionId, pos: (f64, f64)| {
            let trap_id = TrapId(traps.len() as u32);
            traps.push(Trap {
                id: trap_id,
                position: pos,
                capacity,
            });
            let s1 = SegmentId(segments.len() as u32);
            segments.push(Segment {
                id: s1,
                a: NodeId::Junction(a),
                b: NodeId::Trap(trap_id),
            });
            let s2 = SegmentId(segments.len() as u32);
            segments.push(Segment {
                id: s2,
                a: NodeId::Trap(trap_id),
                b: NodeId::Junction(b),
            });
        };

        for r in 0..junction_rows {
            for c in 0..junction_cols {
                // Horizontal edge to the right neighbour.
                if c + 1 < junction_cols {
                    add_trap_on_edge(
                        junction_index(r, c),
                        junction_index(r, c + 1),
                        (r as f64, c as f64 + 0.5),
                    );
                }
                // Vertical edge to the neighbour below.
                if r + 1 < junction_rows {
                    add_trap_on_edge(
                        junction_index(r, c),
                        junction_index(r + 1, c),
                        (r as f64 + 0.5, c as f64),
                    );
                }
            }
        }

        Device::new(TopologyKind::Grid, traps, junctions, segments)
            .expect("grid construction is internally consistent")
    }

    /// Builds a linear device: `num_traps` traps in a row connected by
    /// direct segments (no junctions).
    ///
    /// # Panics
    ///
    /// Panics if `num_traps == 0` or `capacity == 0`.
    pub fn linear(num_traps: usize, capacity: usize) -> Device {
        assert!(num_traps >= 1, "need at least one trap");
        assert!(capacity >= 1, "capacity must be positive");
        let traps: Vec<Trap> = (0..num_traps)
            .map(|i| Trap {
                id: TrapId(i as u32),
                position: (0.0, i as f64),
                capacity,
            })
            .collect();
        let segments: Vec<Segment> = (0..num_traps.saturating_sub(1))
            .map(|i| Segment {
                id: SegmentId(i as u32),
                a: NodeId::Trap(TrapId(i as u32)),
                b: NodeId::Trap(TrapId(i as u32 + 1)),
            })
            .collect();
        Device::new(TopologyKind::Linear, traps, vec![], segments)
            .expect("linear construction is internally consistent")
    }

    /// Builds an all-to-all switch device: every trap connects to one central
    /// n-way junction.
    ///
    /// # Panics
    ///
    /// Panics if `num_traps == 0` or `capacity == 0`.
    pub fn switch(num_traps: usize, capacity: usize) -> Device {
        assert!(num_traps >= 1, "need at least one trap");
        assert!(capacity >= 1, "capacity must be positive");
        let hub = Junction {
            id: JunctionId(0),
            position: (0.0, 0.0),
        };
        // Place traps on a circle around the hub so geometric matching still
        // has meaningful (if symmetric) distances.
        let traps: Vec<Trap> = (0..num_traps)
            .map(|i| {
                let angle = 2.0 * std::f64::consts::PI * i as f64 / num_traps as f64;
                Trap {
                    id: TrapId(i as u32),
                    position: (angle.sin(), angle.cos()),
                    capacity,
                }
            })
            .collect();
        let segments: Vec<Segment> = (0..num_traps)
            .map(|i| Segment {
                id: SegmentId(i as u32),
                a: NodeId::Trap(TrapId(i as u32)),
                b: NodeId::Junction(JunctionId(0)),
            })
            .collect();
        Device::new(TopologyKind::Switch, traps, vec![hub], segments)
            .expect("switch construction is internally consistent")
    }

    /// Builds a single-trap device (monolithic single ion chain) able to hold
    /// `capacity` ions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn single_chain(capacity: usize) -> Device {
        Device::linear(1, capacity)
    }
}

/// A compact description of a candidate architecture's topology and trap
/// capacity, used by the design-space exploration toolflow to size a device
/// for a particular QEC code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TopologySpec {
    /// Topology family.
    pub kind: TopologyKind,
    /// Trap capacity (maximum ions per trap).
    pub capacity: usize,
}

impl TopologySpec {
    /// Creates a spec.
    pub fn new(kind: TopologyKind, capacity: usize) -> Self {
        TopologySpec { kind, capacity }
    }

    /// Number of traps needed to host `num_qubits` qubits, filling each trap
    /// to `capacity − 1` (or completely, for a single-trap device).
    pub fn traps_needed(&self, num_qubits: usize) -> usize {
        if self.capacity >= num_qubits {
            return 1;
        }
        let usable = self.capacity.saturating_sub(1).max(1);
        num_qubits.div_ceil(usable)
    }

    /// Builds a device of this topology large enough to host `num_qubits`
    /// qubits.
    ///
    /// For the grid topology the junction lattice is chosen as the smallest
    /// near-square lattice whose edge count reaches the required trap count;
    /// linear and switch devices use exactly the required number of traps.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits == 0` or the capacity is zero.
    pub fn build_for_qubits(&self, num_qubits: usize) -> Device {
        assert!(num_qubits > 0, "cannot size a device for zero qubits");
        assert!(self.capacity >= 1, "capacity must be positive");
        let traps = self.traps_needed(num_qubits);
        match self.kind {
            TopologyKind::Linear => Device::linear(traps, self.capacity),
            TopologyKind::Switch => Device::switch(traps, self.capacity),
            TopologyKind::Grid => {
                if traps == 1 {
                    return Device::single_chain(self.capacity);
                }
                // Find the smallest m×n junction lattice (near-square) whose
                // edge count m(n−1) + n(m−1) is at least `traps`.
                let mut rows = 2usize;
                let mut cols = 2usize;
                loop {
                    let edges = rows * (cols - 1) + cols * (rows - 1);
                    if edges >= traps {
                        break;
                    }
                    if cols <= rows {
                        cols += 1;
                    } else {
                        rows += 1;
                    }
                }
                Device::grid(rows, cols, self.capacity)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_edge_and_junction_counts() {
        let device = Device::grid(3, 4, 2);
        assert_eq!(device.num_junctions(), 12);
        // Edges: 3·3 horizontal + 2·4 vertical = 17 traps.
        assert_eq!(device.num_traps(), 17);
        // Two segments per trap.
        assert_eq!(device.num_segments(), 34);
        assert_eq!(device.kind(), TopologyKind::Grid);
    }

    #[test]
    fn grid_junction_degree_is_at_most_four() {
        let device = Device::grid(3, 3, 2);
        for junction in device.junctions() {
            let degree = device.neighbours(NodeId::Junction(junction.id)).len();
            assert!((2..=4).contains(&degree), "degree {degree}");
        }
        for trap in device.traps() {
            assert_eq!(device.neighbours(NodeId::Trap(trap.id)).len(), 2);
        }
    }

    #[test]
    fn linear_device_structure() {
        let device = Device::linear(5, 3);
        assert_eq!(device.num_traps(), 5);
        assert_eq!(device.num_junctions(), 0);
        assert_eq!(device.num_segments(), 4);
        // End traps have one neighbour, middle traps two, and segment `i`
        // joins traps `i` and `i + 1`: a path four hops long.
        assert_eq!(device.neighbours(NodeId::Trap(TrapId(0))).len(), 1);
        assert_eq!(device.neighbours(NodeId::Trap(TrapId(2))).len(), 2);
        for (i, segment) in device.segments().iter().enumerate() {
            let ends = [segment.a, segment.b];
            assert_eq!(
                ends,
                [
                    NodeId::Trap(TrapId(i as u32)),
                    NodeId::Trap(TrapId(i as u32 + 1))
                ]
            );
        }
    }

    #[test]
    fn switch_device_structure() {
        let device = Device::switch(6, 2);
        assert_eq!(device.num_traps(), 6);
        assert_eq!(device.num_junctions(), 1);
        assert_eq!(device.num_segments(), 6);
        // Every trap's one neighbour is the hub, so every trap is two hops
        // from every other.
        for trap in device.traps() {
            let neighbours = device.neighbours(NodeId::Trap(trap.id));
            assert!(
                matches!(neighbours, [(_, NodeId::Junction(_))]),
                "{neighbours:?}"
            );
        }
    }

    #[test]
    fn single_chain_is_one_trap() {
        let device = Device::single_chain(31);
        assert_eq!(device.num_traps(), 1);
        assert_eq!(device.mappable_qubits(), 31);
    }

    #[test]
    fn traps_needed_accounts_for_free_slot() {
        let spec = TopologySpec::new(TopologyKind::Grid, 3);
        // Capacity 3 ⇒ 2 usable qubits per trap.
        assert_eq!(spec.traps_needed(17), 9);
        // A capacity that fits everything means a single trap.
        let big = TopologySpec::new(TopologyKind::Linear, 40);
        assert_eq!(big.traps_needed(17), 1);
    }

    #[test]
    fn build_for_qubits_provides_enough_slots() {
        for kind in [
            TopologyKind::Grid,
            TopologyKind::Linear,
            TopologyKind::Switch,
        ] {
            for capacity in [2usize, 3, 5, 12] {
                for num_qubits in [5usize, 17, 49, 97] {
                    let spec = TopologySpec::new(kind, capacity);
                    let device = spec.build_for_qubits(num_qubits);
                    assert!(
                        device.mappable_qubits() >= num_qubits,
                        "{kind:?} capacity {capacity} qubits {num_qubits}: only {} slots",
                        device.mappable_qubits()
                    );
                }
            }
        }
    }

    #[test]
    fn build_for_qubits_single_trap_when_capacity_large() {
        let spec = TopologySpec::new(TopologyKind::Grid, 31);
        let device = spec.build_for_qubits(17);
        assert_eq!(device.num_traps(), 1);
    }

    #[test]
    fn grid_positions_are_on_lattice_edges() {
        let device = Device::grid(2, 2, 2);
        for trap in device.traps() {
            let (r, c) = trap.position;
            let fractional = (r.fract() != 0.0) as u32 + (c.fract() != 0.0) as u32;
            assert_eq!(fractional, 1, "trap must sit midway along exactly one axis");
        }
    }

    #[test]
    #[should_panic(expected = "zero qubits")]
    fn build_for_zero_qubits_panics() {
        TopologySpec::new(TopologyKind::Grid, 2).build_for_qubits(0);
    }
}
