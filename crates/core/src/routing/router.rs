//! The multi-pass ion-routing algorithm (§4.3, Figure 7 of the paper).
//!
//! The router consumes the code's Clifford circuit (with a fixed qubit-to-ion
//! mapping) and produces a stream of [`RoutedOp`]s in which every two-qubit
//! gate happens between ions that share a trap, inserting the ion-transport
//! primitives needed to make that true while honouring the QCCD hardware
//! constraints:
//!
//! * **trap capacity** — a trap never holds more than `capacity` ions;
//! * **junction exclusivity** — one ion per junction at a time;
//! * **segment exclusivity** — one ion per shuttling segment at a time.
//!
//! Each *pass* of the algorithm (Figure 7):
//!
//! 1. sequences every ready instruction that needs no movement;
//! 2. computes the destination trap of every ready cross-trap gate
//!    (prioritised in program order), finds a constraint-respecting shortest
//!    path for its mobile ion (the ancilla, for parity-check circuits), and
//!    reserves capacity along the path;
//! 3. emits the movement primitives (gate swaps to reach the chain end,
//!    split, shuttle, junction entry/exit, merge) for every planned route;
//! 4. the next pass then sequences the now-local gates, and visiting ions are
//!    routed onward to their next destination (or evacuated) so that every
//!    trap returns to at least one free slot.

use std::collections::VecDeque;

use qccd_circuit::{Circuit, QubitId};
use qccd_hardware::{Device, JunctionId, MovementKind, NodeId, SegmentId, TrapId};
use qccd_qec::{CodeLayout, QubitRole};

use crate::routing::DeviceState;
use crate::{CompileError, QubitMapping, RoutedOp, RoutedProgram};

/// Routes a circuit onto a device given a qubit mapping.
///
/// # Errors
///
/// Returns [`CompileError::RoutingStuck`] if no progress can be made (for
/// example, a disconnected device), or [`CompileError::UnmappedQubit`] if the
/// circuit references a qubit outside the mapping.
pub fn route(
    circuit: &Circuit,
    layout: &CodeLayout,
    device: &Device,
    mapping: &QubitMapping,
) -> Result<RoutedProgram, CompileError> {
    Router::new(circuit, layout, device, mapping)?.run()
}

/// A path through the routing graph: `(segment, next node)` hops, the
/// destination trap being the last node.
type Path = Vec<(SegmentId, NodeId)>;

/// The device's routing graph on dense node indices (traps by
/// [`TrapId::index`], then junctions), built once per [`route`], with the
/// scratch its breadth-first searches reuse. Adjacency is stored in exactly
/// [`Device::neighbours`]' order: BFS tie-breaks, hence the emitted paths,
/// depend on it.
struct RoutingGraph {
    num_traps: usize,
    /// Node `n`'s edges are `edges[first_edge[n]..first_edge[n + 1]]`.
    first_edge: Vec<usize>,
    edges: Vec<(SegmentId, usize)>,
    /// The search that last reached each node; equal to `epoch` for the
    /// nodes of the current one, whose `parent` and `hops` are then valid.
    reached: Vec<u32>,
    epoch: u32,
    parent: Vec<(usize, SegmentId)>,
    hops: Vec<usize>,
    queue: VecDeque<usize>,
}

impl RoutingGraph {
    fn new(device: &Device) -> Self {
        let num_traps = device.num_traps();
        let index = |node| match node {
            NodeId::Trap(t) => t.index(),
            NodeId::Junction(j) => num_traps + j.index(),
        };
        let nodes = device.nodes();
        debug_assert!(nodes.iter().enumerate().all(|(i, &n)| index(n) == i));
        let mut first_edge = vec![0];
        let mut edges = Vec::with_capacity(2 * device.num_segments());
        for &node in &nodes {
            edges.extend(
                device
                    .neighbours(node)
                    .iter()
                    .map(|&(segment, next)| (segment, index(next))),
            );
            first_edge.push(edges.len());
        }
        RoutingGraph {
            num_traps,
            first_edge,
            edges,
            reached: vec![0; nodes.len()],
            epoch: 0,
            parent: vec![(0, SegmentId(0)); nodes.len()],
            hops: vec![0; nodes.len()],
            queue: VecDeque::new(),
        }
    }

    fn node(&self, index: usize) -> NodeId {
        if index < self.num_traps {
            NodeId::Trap(TrapId(index as u32))
        } else {
            NodeId::Junction(JunctionId((index - self.num_traps) as u32))
        }
    }

    /// Breadth-first search out of `src`, stopping as soon as `goal` is
    /// reached (returning `true`). With `avail`, a trap can only be entered
    /// while it has a free slot this pass — for the merge at the destination,
    /// or transiently for a pass-through; without, every node is passable.
    fn search(&mut self, src: TrapId, goal: Option<TrapId>, avail: Option<&[usize]>) -> bool {
        self.epoch += 1;
        let goal = goal.map(TrapId::index);
        self.reached[src.index()] = self.epoch;
        self.hops[src.index()] = 0;
        self.queue.clear();
        self.queue.push_back(src.index());
        while let Some(node) = self.queue.pop_front() {
            for &(segment, next) in &self.edges[self.first_edge[node]..self.first_edge[node + 1]] {
                let full = next < self.num_traps && avail.is_some_and(|slots| slots[next] == 0);
                if self.reached[next] == self.epoch || full {
                    continue;
                }
                self.reached[next] = self.epoch;
                self.parent[next] = (node, segment);
                self.hops[next] = self.hops[node] + 1;
                if Some(next) == goal {
                    return true;
                }
                self.queue.push_back(next);
            }
        }
        false
    }

    /// Shortest path from `src` to `dest` under [`Self::search`]'s rules.
    fn find_path(&mut self, src: TrapId, dest: TrapId, avail: Option<&[usize]>) -> Option<Path> {
        if !self.search(src, Some(dest), avail) {
            return None;
        }
        let mut path = Vec::with_capacity(self.hops[dest.index()]);
        let mut cur = dest.index();
        while cur != src.index() {
            let (prev, segment) = self.parent[cur];
            path.push((segment, self.node(cur)));
            cur = prev;
        }
        path.reverse();
        Some(path)
    }
}

/// The traps a path enters, in order.
fn traps_on(path: &Path) -> impl DoubleEndedIterator<Item = TrapId> + '_ {
    path.iter().filter_map(|&(_, node)| node.as_trap())
}

struct Router<'a> {
    circuit: &'a Circuit,
    layout: &'a CodeLayout,
    device: &'a Device,
    state: DeviceState,
    graph: RoutingGraph,
    /// Instruction `i` acts on `operands[first_operand[i]..first_operand[i + 1]]`.
    first_operand: Vec<usize>,
    operands: Vec<QubitId>,
    /// FIFO of pending instruction indices per qubit, by [`QubitId::index`].
    queues: Vec<VecDeque<usize>>,
    /// The ready front: pending instructions at the head of at least one
    /// operand queue, ascending. Kept incrementally — an instruction joins
    /// (through `arrivals`, between emission rounds) when it first heads a
    /// queue and leaves when it is emitted.
    front: Vec<usize>,
    arrivals: Vec<usize>,
    /// Whether each instruction is on `front` or in `arrivals`.
    on_front: Vec<bool>,
    num_emitted: usize,
    /// Free slots per trap still unreserved in the current pass.
    avail: Vec<usize>,
    ops: Vec<RoutedOp>,
}

impl<'a> Router<'a> {
    fn new(
        circuit: &'a Circuit,
        layout: &'a CodeLayout,
        device: &'a Device,
        mapping: &'a QubitMapping,
    ) -> Result<Self, CompileError> {
        let mut router = Router {
            circuit,
            layout,
            device,
            state: DeviceState::new(device, mapping),
            graph: RoutingGraph::new(device),
            first_operand: vec![0],
            operands: Vec::new(),
            queues: vec![VecDeque::new(); circuit.num_qubits()],
            front: Vec::new(),
            arrivals: Vec::new(),
            on_front: vec![false; circuit.len()],
            num_emitted: 0,
            avail: Vec::new(),
            ops: Vec::new(),
        };
        for (idx, instruction) in circuit.iter().enumerate() {
            for q in instruction.qubits() {
                if mapping.trap_of(q).is_none() {
                    return Err(CompileError::UnmappedQubit(q));
                }
                router.queues[q.index()].push_back(idx);
                router.operands.push(q);
            }
            router.first_operand.push(router.operands.len());
        }
        for q in 0..router.queues.len() {
            router.note_queue_head(q);
        }
        router.front.append(&mut router.arrivals);
        router.front.sort_unstable();
        Ok(router)
    }

    fn run(mut self) -> Result<RoutedProgram, CompileError> {
        let total = self.circuit.len();
        // Stalls are passes without any instruction emission; movement alone
        // must eventually enable emissions or routing is declared stuck.
        let stall_limit = 50 * self.device.num_traps() + 500;
        let mut stalls = 0usize;
        while self.num_emitted < total {
            let local_progress = self.emit_ready_local_instructions();
            if self.num_emitted == total {
                break;
            }
            let ready_cross = self.ready_cross_trap_gates();
            let (moved_ions, blocked) = self.plan_and_emit_moves(&ready_cross);
            let moved = moved_ions.contains(&true);
            // Paper's step 9: restore the one-free-slot invariant where it is
            // actually blocking progress, by routing squatting visitors out
            // of the traps that a planned gate could not reach.
            let restored = self.evacuate_blocked(&blocked, &moved_ions);
            let stuck = !local_progress && !moved && !restored && !self.try_evacuation();
            stalls = if local_progress { 0 } else { stalls + 1 };
            if stuck || stalls > stall_limit {
                return Err(CompileError::RoutingStuck {
                    pending_instructions: total - self.num_emitted,
                });
            }
        }
        Ok(RoutedProgram { ops: self.ops })
    }

    // ------------------------------------------------------------------
    // Readiness bookkeeping.
    // ------------------------------------------------------------------

    fn operands(&self, idx: usize) -> &[QubitId] {
        &self.operands[self.first_operand[idx]..self.first_operand[idx + 1]]
    }

    fn is_ready(&self, idx: usize) -> bool {
        self.operands(idx)
            .iter()
            .all(|q| self.queues[q.index()].front() == Some(&idx))
    }

    fn is_local(&self, idx: usize) -> bool {
        let mut traps = self.operands(idx).iter().map(|&q| self.state.trap_of(q));
        let first = traps.next().flatten();
        first.is_some() && traps.all(|trap| trap == first)
    }

    /// Records the instruction now heading qubit `q`'s queue as an arrival
    /// to the ready front, unless it is on the front already.
    fn note_queue_head(&mut self, q: usize) {
        if let Some(&head) = self.queues[q].front() {
            if !std::mem::replace(&mut self.on_front[head], true) {
                self.arrivals.push(head);
            }
        }
    }

    fn emit_instruction(&mut self, idx: usize) {
        let instruction = self.circuit.instructions()[idx];
        let trap = self
            .state
            .trap_of(self.operands(idx)[0])
            .expect("operand must be in a trap");
        self.ops.push(RoutedOp::Gate {
            instruction,
            trap,
            chain_len: self.state.occupancy(trap),
        });
        for i in self.first_operand[idx]..self.first_operand[idx + 1] {
            let q = self.operands[i].index();
            let head = self.queues[q].pop_front();
            debug_assert_eq!(head, Some(idx));
            self.note_queue_head(q);
        }
        self.on_front[idx] = false;
        self.num_emitted += 1;
    }

    /// Emits every ready instruction whose operands already share a trap,
    /// looping until a fixpoint. Returns whether anything was emitted.
    ///
    /// Each round walks the front as it stood when the round began, in
    /// program order, testing readiness live; instructions that reach a queue
    /// head during the round wait for the next one.
    fn emit_ready_local_instructions(&mut self) -> bool {
        let mut any = false;
        loop {
            let emitted_before = self.num_emitted;
            for i in 0..self.front.len() {
                let idx = self.front[i];
                if self.is_ready(idx) && self.is_local(idx) {
                    self.emit_instruction(idx);
                }
            }
            if self.num_emitted == emitted_before {
                return any;
            }
            any = true;
            let on_front = &self.on_front;
            self.front.retain(|&idx| on_front[idx]);
            self.front.append(&mut self.arrivals);
            self.front.sort_unstable();
        }
    }

    /// Ready two-qubit gates whose operands currently sit in different traps,
    /// in program order.
    fn ready_cross_trap_gates(&self) -> Vec<usize> {
        self.front
            .iter()
            .copied()
            .filter(|&idx| self.is_ready(idx) && !self.is_local(idx))
            .collect()
    }

    /// Chooses which operand of a two-qubit gate travels: ancilla qubits move
    /// (data qubits stay put), falling back to the second operand.
    fn pick_mobile(&self, qubits: &[QubitId]) -> QubitId {
        let is_ancilla = |q: QubitId| {
            q.index() < self.layout.num_qubits() && self.layout.role(q) == QubitRole::Ancilla
        };
        match (is_ancilla(qubits[0]), is_ancilla(qubits[1])) {
            (true, false) => qubits[0],
            (false, true) => qubits[1],
            _ => qubits[1],
        }
    }

    // ------------------------------------------------------------------
    // Route planning.
    // ------------------------------------------------------------------

    /// Resets `avail` to every trap's currently free slots.
    fn reset_avail(&mut self) {
        let state = &self.state;
        self.avail.clear();
        self.avail
            .extend((0..self.graph.num_traps).map(|t| state.free_slots(TrapId(t as u32))));
    }

    /// Reserves, for the rest of the pass, one slot in every trap `path`
    /// enters. Segments and junctions are only time-multiplexed, which the
    /// scheduler's resource exclusivity enforces, so they are not reserved
    /// here (reserving them per pass was found to over-serialise large
    /// codes).
    fn reserve(&mut self, path: &Path) {
        for trap in traps_on(path) {
            self.avail[trap.index()] = self.avail[trap.index()].saturating_sub(1);
        }
    }

    /// Plans non-conflicting routes for as many ready cross-trap gates as
    /// possible (in priority order) and emits their movement primitives.
    /// Returns which ions were moved (by [`QubitId::index`]) and the traps
    /// that blocked a planned gate because they were full.
    fn plan_and_emit_moves(&mut self, ready_cross: &[usize]) -> (Vec<bool>, Vec<TrapId>) {
        self.reset_avail();
        let mut busy_ions = vec![false; self.queues.len()];
        let mut planned: Vec<(QubitId, TrapId, Path)> = Vec::new();
        let mut blocked: Vec<TrapId> = Vec::new();

        for &idx in ready_cross {
            let qubits = self.operands(idx);
            let mobile = self.pick_mobile(qubits);
            let stationary = if mobile == qubits[0] {
                qubits[1]
            } else {
                qubits[0]
            };
            if busy_ions[mobile.index()] || busy_ions[stationary.index()] {
                continue;
            }
            let (Some(src), Some(dest)) =
                (self.state.trap_of(mobile), self.state.trap_of(stationary))
            else {
                continue;
            };
            if src == dest {
                continue;
            }
            if self.avail[dest.index()] == 0 {
                if self.state.free_slots(dest) == 0 {
                    blocked.push(dest);
                }
                continue;
            }
            if let Some(path) = self.graph.find_path(src, dest, Some(&self.avail)) {
                self.reserve(&path);
                busy_ions[mobile.index()] = true;
                busy_ions[stationary.index()] = true;
                planned.push((mobile, src, path));
                continue;
            }
            // The full path is blocked by full traps (this only happens on
            // topologies where routes pass through other traps, such as the
            // linear chain). Make partial progress: move the ion as far along
            // the ideal route as capacity currently allows, or mark the full
            // traps on that route so their squatters get evacuated.
            let Some(ideal) = self.graph.find_path(src, dest, None) else {
                continue;
            };
            let (graph, avail) = (&mut self.graph, &self.avail);
            let partial = traps_on(&ideal)
                .rev()
                .skip(1)
                .filter(|stop| avail[stop.index()] >= 1)
                .find_map(|stop| graph.find_path(src, stop, Some(avail)));
            if let Some(path) = partial {
                self.reserve(&path);
                busy_ions[mobile.index()] = true;
                planned.push((mobile, src, path));
            } else {
                blocked.extend(traps_on(&ideal).filter(|&t| self.state.free_slots(t) == 0));
            }
        }

        let mut moved_ions = vec![false; self.queues.len()];
        for (ion, src, path) in planned {
            moved_ions[ion.index()] = true;
            self.emit_move(ion, src, &path);
        }
        blocked.sort_unstable();
        blocked.dedup();
        (moved_ions, blocked)
    }

    /// Emits the full movement sequence taking `ion` from trap `src` along
    /// `path` (gate swaps, split, shuttles, junction crossings, merges) and
    /// updates the device state.
    fn emit_move(&mut self, ion: QubitId, src: TrapId, path: &Path) {
        // Bring the ion to the nearest end of its chain.
        while self.state.swaps_to_chain_end(ion) > 0 {
            let chain_len = self.state.occupancy(src);
            let other = self
                .state
                .swap_towards_end(ion)
                .expect("swap available while not at chain end");
            self.ops.push(RoutedOp::GateSwap {
                trap: src,
                ion,
                other,
                chain_len,
            });
        }

        let mut current = NodeId::Trap(src);
        for (i, &(segment, node)) in path.iter().enumerate() {
            // Leave the current node onto the segment.
            match current {
                NodeId::Trap(t) => {
                    self.state.remove_ion(ion);
                    self.ops.push(RoutedOp::Movement {
                        kind: MovementKind::Split,
                        ion,
                        trap: Some(t),
                        junction: None,
                        segment,
                    });
                }
                NodeId::Junction(j) => {
                    self.ops.push(RoutedOp::Movement {
                        kind: MovementKind::JunctionExit,
                        ion,
                        trap: None,
                        junction: Some(j),
                        segment,
                    });
                }
            }
            // Traverse the segment.
            self.ops.push(RoutedOp::Movement {
                kind: MovementKind::Shuttle,
                ion,
                trap: None,
                junction: None,
                segment,
            });
            // Arrive at the next node.
            match node {
                NodeId::Trap(t) => {
                    self.ops.push(RoutedOp::Movement {
                        kind: MovementKind::Merge,
                        ion,
                        trap: Some(t),
                        junction: None,
                        segment,
                    });
                    self.state.insert_ion(t, ion);
                    let is_final = i == path.len() - 1;
                    if !is_final {
                        // Passing through a trap: the ion enters at one end
                        // and must reach the other end before splitting out,
                        // swapping past every resident ion.
                        let chain = self.state.chain(t);
                        for &other in chain.iter().filter(|&&q| q != ion) {
                            self.ops.push(RoutedOp::GateSwap {
                                trap: t,
                                ion,
                                other,
                                chain_len: chain.len(),
                            });
                        }
                    }
                }
                NodeId::Junction(j) => {
                    self.ops.push(RoutedOp::Movement {
                        kind: MovementKind::JunctionEntry,
                        ion,
                        trap: None,
                        junction: Some(j),
                        segment,
                    });
                }
            }
            current = node;
        }
    }

    // ------------------------------------------------------------------
    // Evacuation.
    // ------------------------------------------------------------------

    /// The last-resort evacuation targets out of `from`: every other trap
    /// with a free slot in `avail` that is not in `tried`, nearest first (hops
    /// from one search out of `from`), ties broken by trap id.
    fn fallback_traps(&mut self, from: TrapId, tried: &[TrapId]) -> Vec<TrapId> {
        self.graph.search(from, None, None);
        let graph = &self.graph;
        let mut others: Vec<(usize, TrapId)> = (0..graph.num_traps)
            .filter(|&t| graph.reached[t] == graph.epoch && self.avail[t] > 0)
            .map(|t| (graph.hops[t], TrapId(t as u32)))
            .filter(|&(_, t)| t != from && !tried.contains(&t))
            .collect();
        others.sort_unstable();
        others.into_iter().map(|(_, t)| t).collect()
    }

    /// Moves `ion` from `from` into `dest` if a path is open right now.
    fn try_move(&mut self, ion: QubitId, from: TrapId, dest: TrapId) -> bool {
        if self.avail[dest.index()] == 0 {
            return false;
        }
        let Some(path) = self.graph.find_path(from, dest, Some(&self.avail)) else {
            return false;
        };
        self.emit_move(ion, from, &path);
        true
    }

    /// Routes a squatting ion out of `from`. Returns `true` if a move was
    /// emitted.
    ///
    /// The destination preference is: the home trap itself, then the traps
    /// on the unconstrained shortest path home, nearest first (so repeated
    /// evacuations make monotone progress and cannot livelock two ions
    /// bouncing between the same pair of traps), and only when none of those
    /// can be reached the [`Self::fallback_traps`].
    fn evacuate_ion(&mut self, ion: QubitId, from: TrapId) -> bool {
        self.reset_avail();
        let mut tried = Vec::new();
        if let Some(home) = self.state.home_of(ion).filter(|&home| home != from) {
            if self.try_move(ion, from, home) {
                return true;
            }
            if let Some(ideal) = self.graph.find_path(from, home, None) {
                tried.extend(traps_on(&ideal).filter(|&t| t != home));
            }
            if tried.iter().any(|&dest| self.try_move(ion, from, dest)) {
                return true;
            }
            tried.push(home);
        }
        let fallback = self.fallback_traps(from, &tried);
        fallback.iter().any(|&dest| self.try_move(ion, from, dest))
    }

    /// Evacuates the last visitor in `trap`'s chain that is not in `keep`
    /// (by [`QubitId::index`]) and has somewhere to go.
    fn evacuate_a_visitor(&mut self, trap: TrapId, keep: &[bool]) -> bool {
        (0..self.state.occupancy(trap)).rev().any(|pos| {
            let ion = self.state.chain(trap)[pos];
            self.state.is_visitor(ion)
                && keep.get(ion.index()) != Some(&true)
                && self.evacuate_ion(ion, trap)
        })
    }

    /// Paper's step 9: a full trap that a planned gate could not enter gets
    /// one of its squatting visitors routed out (towards its home trap), so
    /// that the blocked gate can route in a later pass. Visitors that the
    /// route planner moved this pass are left alone; visitors the planner
    /// failed to move (for example, two ancillas blocking each other head-on
    /// in a linear chain) are evacuated to break the deadlock.
    fn evacuate_blocked(&mut self, blocked: &[TrapId], moved_ions: &[bool]) -> bool {
        let mut any = false;
        for &trap in blocked {
            if self.state.free_slots(trap) == 0 {
                any |= self.evacuate_a_visitor(trap, moved_ions);
            }
        }
        any
    }

    /// Last-resort progress: move any visiting ion out of a full trap so that
    /// blocked gates can route in a later pass.
    fn try_evacuation(&mut self) -> bool {
        (0..self.graph.num_traps)
            .map(|t| TrapId(t as u32))
            .any(|trap| {
                self.state.free_slots(trap) == 0
                    && self.state.occupancy(trap) > 0
                    && self.evacuate_a_visitor(trap, &[])
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{check_routing_invariants, map_qubits};
    use qccd_circuit::Instruction;
    use qccd_qec::{parity_check_round, repetition_code, rotated_surface_code};
    use std::collections::HashMap;

    fn route_code(
        layout: &CodeLayout,
        device: &Device,
        rounds: usize,
    ) -> (RoutedProgram, QubitMapping) {
        let mut circuit = Circuit::new();
        circuit.pad_qubits(layout.num_qubits());
        for _ in 0..rounds {
            let round = parity_check_round(layout);
            circuit.extend(round.iter().copied());
        }
        let mapping = map_qubits(layout, device).unwrap();
        let program = route(&circuit, layout, device, &mapping).unwrap();
        (program, mapping)
    }

    #[test]
    fn single_chain_needs_no_movement() {
        let layout = repetition_code(3);
        let device = Device::single_chain(layout.num_qubits());
        let (program, _) = route_code(&layout, &device, 1);
        assert!(!program.ops.iter().any(RoutedOp::is_movement));
        let gate_ops = program
            .ops
            .iter()
            .filter(|op| matches!(op, RoutedOp::Gate { .. }));
        assert_eq!(gate_ops.count(), parity_check_round(&layout).len());
    }

    #[test]
    fn repetition_code_on_linear_capacity_two_routes_and_respects_invariants() {
        let layout = repetition_code(3);
        let device = Device::linear(5, 2);
        let (program, mapping) = route_code(&layout, &device, 1);
        assert!(program.ops.iter().any(RoutedOp::is_movement));
        assert_eq!(
            check_routing_invariants(&program, &device, &mapping),
            Ok(())
        );
        // Every circuit instruction appears exactly once as a gate op.
        let gate_ops = program
            .ops
            .iter()
            .filter(|op| matches!(op, RoutedOp::Gate { .. }));
        assert_eq!(gate_ops.count(), parity_check_round(&layout).len());
    }

    #[test]
    fn rotated_surface_code_on_grid_capacity_two() {
        let layout = rotated_surface_code(3);
        let device = qccd_hardware::TopologySpec::new(qccd_hardware::TopologyKind::Grid, 2)
            .build_for_qubits(layout.num_qubits());
        let (program, mapping) = route_code(&layout, &device, 2);
        assert_eq!(
            check_routing_invariants(&program, &device, &mapping),
            Ok(())
        );
        let gate_ops = program
            .ops
            .iter()
            .filter(|op| matches!(op, RoutedOp::Gate { .. }));
        assert_eq!(gate_ops.count(), 2 * parity_check_round(&layout).len());
        assert!(program.ops.iter().any(RoutedOp::is_movement));
    }

    #[test]
    fn rotated_surface_code_on_switch_topology() {
        let layout = rotated_surface_code(3);
        let device = qccd_hardware::TopologySpec::new(qccd_hardware::TopologyKind::Switch, 2)
            .build_for_qubits(layout.num_qubits());
        let (program, mapping) = route_code(&layout, &device, 1);
        assert_eq!(
            check_routing_invariants(&program, &device, &mapping),
            Ok(())
        );
        let gate_ops = program
            .ops
            .iter()
            .filter(|op| matches!(op, RoutedOp::Gate { .. }));
        assert_eq!(gate_ops.count(), parity_check_round(&layout).len());
    }

    #[test]
    fn higher_capacity_needs_fewer_movement_ops() {
        let layout = rotated_surface_code(3);
        let grid = |capacity| {
            qccd_hardware::TopologySpec::new(qccd_hardware::TopologyKind::Grid, capacity)
                .build_for_qubits(layout.num_qubits())
        };
        let (low_cap, _) = route_code(&layout, &grid(2), 1);
        let (high_cap, _) = route_code(&layout, &grid(6), 1);
        let [low, high] =
            [low_cap, high_cap].map(|p| p.ops.iter().filter(|op| op.is_movement()).count());
        assert!(
            high < low,
            "capacity 6 ({high} moves) should need fewer moves than capacity 2 ({low} moves)"
        );
    }

    #[test]
    fn per_qubit_program_order_is_preserved() {
        let layout = rotated_surface_code(2);
        let device = qccd_hardware::TopologySpec::new(qccd_hardware::TopologyKind::Grid, 2)
            .build_for_qubits(layout.num_qubits());
        let mut circuit = Circuit::new();
        circuit.pad_qubits(layout.num_qubits());
        circuit.extend(parity_check_round(&layout).iter().copied());
        let mapping = map_qubits(&layout, &device).unwrap();
        let program = route(&circuit, &layout, &device, &mapping).unwrap();

        // Reconstruct, per qubit, the order of emitted instructions and
        // compare with the original program order.
        let mut per_qubit_original: HashMap<QubitId, Vec<Instruction>> = HashMap::new();
        for instruction in circuit.iter() {
            for q in instruction.qubits() {
                per_qubit_original.entry(q).or_default().push(*instruction);
            }
        }
        let mut per_qubit_emitted: HashMap<QubitId, Vec<Instruction>> = HashMap::new();
        for op in &program.ops {
            if let RoutedOp::Gate { instruction, .. } = op {
                for q in instruction.qubits() {
                    per_qubit_emitted.entry(q).or_default().push(*instruction);
                }
            }
        }
        assert_eq!(per_qubit_original, per_qubit_emitted);
    }

    /// `Device::linear(7, 2)` hosting one mapped ion, `Q0`, whose home is T5.
    struct Chain7 {
        device: Device,
        layout: CodeLayout,
        circuit: Circuit,
        mapping: QubitMapping,
    }

    const Q0: QubitId = QubitId::new(0);

    fn traps(ids: &[u32]) -> Vec<TrapId> {
        ids.iter().copied().map(TrapId).collect()
    }

    impl Chain7 {
        fn new() -> Self {
            Chain7 {
                device: Device::linear(7, 2),
                layout: repetition_code(2),
                circuit: Circuit::new(),
                mapping: QubitMapping::from_chains(HashMap::from([(TrapId(5), vec![Q0])])),
            }
        }

        /// A router in which `Q0` squats in T2 and the traps in `full` are
        /// filled to capacity with other ions.
        fn router(&self, full: &[u32]) -> Router<'_> {
            let mut router =
                Router::new(&self.circuit, &self.layout, &self.device, &self.mapping).unwrap();
            router.state.remove_ion(Q0);
            router.state.insert_ion(TrapId(2), Q0);
            for &t in full {
                while router.state.free_slots(TrapId(t)) > 0 {
                    let filler = 10 * t + router.state.occupancy(TrapId(t)) as u32 + 1;
                    router.state.insert_ion(TrapId(t), QubitId::new(filler));
                }
            }
            router
        }
    }

    #[test]
    fn evacuation_goes_home_when_home_is_reachable() {
        let chain = Chain7::new();
        let mut router = chain.router(&[]);
        assert!(router.evacuate_ion(Q0, TrapId(2)));
        assert_eq!(router.state.trap_of(Q0), Some(TrapId(5)));
        assert!(!router.state.is_visitor(Q0));
        // Home is probed before anything else is even ranked.
        assert_eq!(router.graph.epoch, 1);
    }

    #[test]
    fn evacuation_stops_at_the_nearest_trap_on_the_way_home_when_home_is_full() {
        let chain = Chain7::new();
        let mut router = chain.router(&[5]);
        assert!(router.evacuate_ion(Q0, TrapId(2)));
        assert_eq!(router.state.trap_of(Q0), Some(TrapId(3)));
    }

    #[test]
    fn fallback_traps_are_ranked_by_hops_then_trap_id() {
        let chain = Chain7::new();
        let mut router = chain.router(&[]);
        router.reset_avail();
        assert_eq!(
            router.fallback_traps(TrapId(2), &[]),
            traps(&[1, 3, 0, 4, 5, 6])
        );
        // Already-tried and full traps are left out; fullness does not change
        // the (unconstrained) hop ranking of the rest.
        let mut router = chain.router(&[0, 3]);
        router.reset_avail();
        assert_eq!(
            router.fallback_traps(TrapId(2), &traps(&[5])),
            traps(&[1, 4, 6])
        );
    }

    #[test]
    fn full_home_and_full_way_home_fall_through_to_the_nearest_free_trap() {
        let chain = Chain7::new();
        let mut router = chain.router(&[3, 4, 5]);
        assert!(router.evacuate_ion(Q0, TrapId(2)));
        assert_eq!(router.state.trap_of(Q0), Some(TrapId(1)));
    }

    #[test]
    fn a_trap_listed_by_two_tiers_is_probed_once() {
        // T1 and T3 are full, so nothing is reachable from T2. Home (T5) and
        // T4 are free, hence probed on the way home; they must not be probed
        // again as "any free trap" candidates. Searches: T5, the ideal way
        // home, T4 (T3 is skipped as full), the hop ranking, T0, T6.
        let chain = Chain7::new();
        let mut router = chain.router(&[1, 3]);
        assert!(!router.evacuate_ion(Q0, TrapId(2)));
        assert_eq!(router.graph.epoch, 6);
        assert!(router.ops.is_empty());
        assert_eq!(router.state.trap_of(Q0), Some(TrapId(2)));
    }

    #[test]
    fn unmapped_qubit_is_reported() {
        let layout = repetition_code(3);
        let device = Device::linear(5, 2);
        let mapping = map_qubits(&layout, &device).unwrap();
        let mut circuit = Circuit::new();
        circuit.push(Instruction::H(QubitId::new(40)));
        assert_eq!(
            route(&circuit, &layout, &device, &mapping),
            Err(CompileError::UnmappedQubit(QubitId::new(40)))
        );
    }
}
