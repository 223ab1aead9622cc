//! Mutable device state tracked during ion routing.
//!
//! Between routing passes every ion sits inside some trap (junctions and
//! segments are empty — the router emits complete hop sequences), so the
//! state is simply: which trap holds each ion, and in what order the ions sit
//! within each trap's chain. Chain order matters because an ion must be at a
//! chain end to be split out (§2), which otherwise costs gate swaps.

use qccd_circuit::QubitId;
use qccd_hardware::{Device, TrapId};

use crate::QubitMapping;

/// The positions of all ions during routing. Per-trap tables are indexed by
/// [`TrapId::index`], per-ion tables by [`QubitId::index`].
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceState {
    chains: Vec<Vec<QubitId>>,
    location: Vec<Option<TrapId>>,
    capacity: Vec<usize>,
    /// The trap each ion was originally mapped to ("home"), used when
    /// evacuating visitors.
    home: Vec<Option<TrapId>>,
}

/// The slot of a dense table, grown with defaults to reach `index`.
fn slot<T: Clone + Default>(table: &mut Vec<T>, index: usize) -> &mut T {
    if table.len() <= index {
        table.resize(index + 1, T::default());
    }
    &mut table[index]
}

impl DeviceState {
    /// Initialises the state from the qubit-to-trap mapping.
    pub fn new(device: &Device, mapping: &QubitMapping) -> Self {
        let mut state = DeviceState {
            chains: vec![Vec::new(); device.num_traps()],
            location: Vec::new(),
            capacity: Vec::new(),
            home: Vec::new(),
        };
        for trap in device.traps() {
            *slot(&mut state.capacity, trap.id.index()) = trap.capacity;
        }
        for (&trap, chain) in mapping.chains() {
            *slot(&mut state.chains, trap.index()) = chain.clone();
            for &q in chain {
                *slot(&mut state.location, q.index()) = Some(trap);
                *slot(&mut state.home, q.index()) = Some(trap);
            }
        }
        state
    }

    /// The trap currently holding an ion.
    pub fn trap_of(&self, ion: QubitId) -> Option<TrapId> {
        self.location.get(ion.index()).copied().flatten()
    }

    /// The trap an ion was originally mapped to.
    pub fn home_of(&self, ion: QubitId) -> Option<TrapId> {
        self.home.get(ion.index()).copied().flatten()
    }

    /// Returns `true` if the ion is currently outside its home trap.
    pub fn is_visitor(&self, ion: QubitId) -> bool {
        self.trap_of(ion) != self.home_of(ion)
    }

    /// The ordered ion chain of a trap.
    pub fn chain(&self, trap: TrapId) -> &[QubitId] {
        self.chains.get(trap.index()).map_or(&[], Vec::as_slice)
    }

    /// Number of ions currently in a trap.
    pub fn occupancy(&self, trap: TrapId) -> usize {
        self.chain(trap).len()
    }

    /// The capacity of a trap.
    pub fn capacity(&self, trap: TrapId) -> usize {
        self.capacity.get(trap.index()).copied().unwrap_or(0)
    }

    /// Free ion slots in a trap.
    pub fn free_slots(&self, trap: TrapId) -> usize {
        self.capacity(trap).saturating_sub(self.occupancy(trap))
    }

    /// The position of an ion within its trap's chain.
    pub fn chain_position(&self, ion: QubitId) -> Option<usize> {
        let trap = self.trap_of(ion)?;
        self.chain(trap).iter().position(|&q| q == ion)
    }

    /// Number of neighbour swaps needed to bring an ion to the nearest end of
    /// its chain (so it can be split out).
    pub fn swaps_to_chain_end(&self, ion: QubitId) -> usize {
        match (self.trap_of(ion), self.chain_position(ion)) {
            (Some(trap), Some(pos)) => {
                let len = self.occupancy(trap);
                pos.min(len - 1 - pos)
            }
            _ => 0,
        }
    }

    /// Swaps an ion one position towards the nearest end of its chain,
    /// returning the neighbour it swapped with, or `None` if it is already at
    /// an end.
    pub fn swap_towards_end(&mut self, ion: QubitId) -> Option<QubitId> {
        let trap = self.trap_of(ion)?;
        let chain = self.chains.get_mut(trap.index())?;
        let pos = chain.iter().position(|&q| q == ion)?;
        let len = chain.len();
        if pos == 0 || pos == len - 1 {
            return None;
        }
        let towards_front = pos < len - 1 - pos;
        let neighbour_pos = if towards_front { pos - 1 } else { pos + 1 };
        let neighbour = chain[neighbour_pos];
        chain.swap(pos, neighbour_pos);
        Some(neighbour)
    }

    /// Removes an ion from its trap (it enters a transport segment).
    ///
    /// # Panics
    ///
    /// Panics if the ion is not currently in a trap.
    pub fn remove_ion(&mut self, ion: QubitId) -> TrapId {
        let trap = self.trap_of(ion).expect("ion must be in a trap");
        self.chains[trap.index()].retain(|&q| q != ion);
        self.location[ion.index()] = None;
        trap
    }

    /// Inserts an ion at the end of a trap's chain (after a merge).
    ///
    /// # Panics
    ///
    /// Panics if the trap is already at capacity.
    pub fn insert_ion(&mut self, trap: TrapId, ion: QubitId) {
        assert!(
            self.free_slots(trap) > 0,
            "trap {trap} is full; cannot merge {ion}"
        );
        slot(&mut self.chains, trap.index()).push(ion);
        *slot(&mut self.location, ion.index()) = Some(trap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_qubits;
    use qccd_qec::repetition_code;

    fn q(i: u32) -> QubitId {
        QubitId::new(i)
    }

    fn setup() -> (Device, DeviceState) {
        let layout = repetition_code(3);
        let device = Device::linear(5, 3);
        let mapping = map_qubits(&layout, &device).unwrap();
        let state = DeviceState::new(&device, &mapping);
        (device, state)
    }

    #[test]
    fn initial_state_matches_mapping() {
        let (_, state) = setup();
        let total: usize = (0..5).map(|i| state.occupancy(TrapId(i))).sum();
        assert_eq!(total, 5);
        for i in 0..5 {
            assert!(state.trap_of(q(i)).is_some());
            assert!(!state.is_visitor(q(i)));
        }
    }

    #[test]
    fn remove_and_insert_round_trip() {
        let (_, mut state) = setup();
        let ion = q(0);
        let from = state.remove_ion(ion);
        assert_eq!(state.trap_of(ion), None);
        assert!(state.free_slots(from) > 0);
        // Move it somewhere with space.
        let dest = (0..5)
            .map(TrapId)
            .find(|&t| t != from && state.free_slots(t) > 0)
            .unwrap();
        state.insert_ion(dest, ion);
        assert_eq!(state.trap_of(ion), Some(dest));
        assert!(state.is_visitor(ion));
        assert_eq!(state.home_of(ion), Some(from));
    }

    #[test]
    fn swaps_to_chain_end_counts_distance_to_nearest_end() {
        let layout = repetition_code(4);
        let device = Device::single_chain(10);
        let mapping = map_qubits(&layout, &device).unwrap();
        let state = DeviceState::new(&device, &mapping);
        let chain = state.chain(TrapId(0)).to_vec();
        assert_eq!(chain.len(), 7);
        assert_eq!(state.swaps_to_chain_end(chain[0]), 0);
        assert_eq!(state.swaps_to_chain_end(chain[6]), 0);
        assert_eq!(state.swaps_to_chain_end(chain[3]), 3);
        assert_eq!(state.swaps_to_chain_end(chain[1]), 1);
    }

    #[test]
    fn swap_towards_end_moves_one_step() {
        let layout = repetition_code(4);
        let device = Device::single_chain(10);
        let mapping = map_qubits(&layout, &device).unwrap();
        let mut state = DeviceState::new(&device, &mapping);
        let chain = state.chain(TrapId(0)).to_vec();
        let middle = chain[3];
        let before = state.swaps_to_chain_end(middle);
        let neighbour = state.swap_towards_end(middle).unwrap();
        assert_ne!(neighbour, middle);
        assert_eq!(state.swaps_to_chain_end(middle), before - 1);
        // An end ion cannot swap further.
        let chain = state.chain(TrapId(0)).to_vec();
        assert_eq!(state.swap_towards_end(chain[0]), None);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn inserting_into_full_trap_panics() {
        let (_, mut state) = setup();
        // Fill one trap to capacity (3), then try to over-fill it.
        let target = TrapId(2);
        let movers: Vec<QubitId> = (0..5)
            .map(q)
            .filter(|&ion| state.trap_of(ion) != Some(target))
            .collect();
        let mut moved = 0;
        for ion in movers {
            if state.free_slots(target) == 0 {
                break;
            }
            state.remove_ion(ion);
            state.insert_ion(target, ion);
            moved += 1;
        }
        assert!(moved >= 1);
        assert_eq!(state.free_slots(target), 0);
        let extra = (0..5)
            .map(q)
            .find(|&ion| state.trap_of(ion).is_some() && state.trap_of(ion) != Some(target))
            .unwrap();
        state.remove_ion(extra);
        state.insert_ion(target, extra);
    }
}
