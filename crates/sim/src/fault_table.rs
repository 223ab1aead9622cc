//! Per-channel fault signatures: the table both the detector error model
//! and the detector sampler are read from (see [`FaultTable`]).
//!
//! Extraction runs in a single **reverse pass** over the circuit. For every
//! qubit we maintain two *sensitivity sets*: the detectors/observables that
//! an X (resp. Z) error at the current position would flip. Walking
//! backwards:
//!
//! * a Z-basis measurement adds its detectors to the X sensitivity of the
//!   measured qubit and clears the Z sensitivity (post-collapse Z errors are
//!   gauge);
//! * a reset clears both sensitivities (errors before a reset are erased);
//! * a unitary gate transforms sensitivities according to its conjugation
//!   action (`sens_before(P) = sens_after(U P U†)`);
//! * a noise channel records, per component, the currently-accumulated
//!   sensitivity as its signature.
//!
//! Signatures are interned as they are met, in one flat open-addressed
//! table over a contiguous key arena (`SignatureInterner`). Ids follow
//! first-seen order, so the table, and every model and graph folded from
//! it, is independent of how the interner hashes.

use qccd_circuit::{Instruction, MeasurementRef};

use crate::{BitPlanes, DemError, DetectorErrorModel, NoiseChannel, NoisyCircuit, NoisyOp};

/// Component id of a Pauli that flips no detector and no observable.
const NO_SIGNATURE: u32 = u32::MAX;

fn xor_into(dst: &mut [u64], src: &[u64]) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Multiplier of the interner's word fold (2⁶⁴ / φ, odd).
const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;

/// Interns dense symptom bitsets as sparse signatures, ids in first-seen
/// order.
///
/// A flat open-addressed table: `u32` slots probed linearly (at most half
/// full), one stored hash per id and every key in one arena of `width`-word
/// rows, so a lookup folds the words in place and reads no per-key heap
/// pointer; only a new signature writes anything. Keys come from the
/// program, not from outside it: nothing here resists crafted collisions.
struct SignatureInterner {
    num_detectors: usize,
    width: usize,
    /// Id per slot, or [`NO_SIGNATURE`] for an empty one; the length is a
    /// power of two.
    slots: Vec<u32>,
    /// Hash of each id's key.
    hashes: Vec<u64>,
    /// Id `s`'s symptom words are `keys[s * width..(s + 1) * width]`.
    keys: Vec<u64>,
    offsets: Vec<u32>,
    bits: Vec<u32>,
}

impl SignatureInterner {
    fn new(num_detectors: usize, width: usize) -> Self {
        SignatureInterner {
            num_detectors,
            width,
            slots: vec![NO_SIGNATURE; 256],
            hashes: Vec::new(),
            keys: Vec::new(),
            offsets: vec![0],
            bits: Vec::new(),
        }
    }

    /// The home slot of `hash` in a table of `mask + 1` slots: the high
    /// half of the hash, which every key word reaches.
    fn home(hash: u64, mask: usize) -> usize {
        (hash >> 32) as usize & mask
    }

    fn intern(&mut self, symptoms: &[u64]) -> u32 {
        let (mut hash, mut any) = (0u64, 0u64);
        for &word in symptoms {
            any |= word;
            hash = (hash.rotate_left(5) ^ word).wrapping_mul(FOLD);
        }
        if any == 0 {
            return NO_SIGNATURE;
        }
        let hash = (hash ^ (hash >> 32)).wrapping_mul(FOLD);
        let mask = self.slots.len() - 1;
        let mut slot = Self::home(hash, mask);
        loop {
            let id = self.slots[slot] as usize;
            if id == NO_SIGNATURE as usize {
                break;
            }
            if self.hashes[id] == hash
                && self.keys[id * self.width..(id + 1) * self.width] == *symptoms
            {
                return id as u32;
            }
            slot = (slot + 1) & mask;
        }
        let id = self.hashes.len() as u32;
        self.slots[slot] = id;
        self.hashes.push(hash);
        self.keys.extend_from_slice(symptoms);
        let start = self.bits.len();
        for (w, &word) in symptoms.iter().enumerate() {
            let mut rest = word;
            while rest != 0 {
                self.bits.push((w * 64) as u32 + rest.trailing_zeros());
                rest &= rest - 1;
            }
        }
        // Detector bits come first; observables are stored by their own index.
        let num_detectors = self.num_detectors as u32;
        let split = start + self.bits[start..].partition_point(|&bit| bit < num_detectors);
        for bit in &mut self.bits[split..] {
            *bit -= num_detectors;
        }
        self.offsets.extend([split as u32, self.bits.len() as u32]);
        if 2 * self.hashes.len() > self.slots.len() {
            self.grow();
        }
        id
    }

    /// Doubles the slot table and re-homes every id from its stored hash.
    fn grow(&mut self) {
        self.slots = vec![NO_SIGNATURE; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (id, &hash) in (0..).zip(&self.hashes) {
            let mut slot = Self::home(hash, mask);
            while self.slots[slot] != NO_SIGNATURE {
                slot = (slot + 1) & mask;
            }
            self.slots[slot] = id;
        }
    }
}

/// The fault signatures of every noise channel of a circuit.
///
/// The circuit is Clifford and Pauli frames are linear, so every Pauli a
/// noise channel can insert has a fixed **signature** — the set of detectors
/// and logical observables it flips — no matter what else happens in the
/// shot. The table records, for every noise channel in op order, its total
/// probability and the signature of each of its mutually exclusive
/// components:
///
/// | channel | components, in stored order |
/// |---|---|
/// | `BitFlip` | X |
/// | `PhaseFlip` | Z |
/// | `Depolarize1` | X, Z, XZ |
/// | `Depolarize2` | codes 1..=15: bit 0 = X on `a`, 1 = Z on `a`, 2 = X on `b`, 3 = Z on `b` |
///
/// Signatures are interned: a few hundred distinct ones serve tens of
/// thousands of components. Gauge randomness (the re-randomised conjugate
/// component after a measurement or reset) never appears, because by
/// construction it cannot reach a detector.
///
/// [`FaultTable::dem`] folds the components into a [`DetectorErrorModel`];
/// [`crate::DetectorChunkSampler`] samples them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultTable {
    num_detectors: usize,
    num_observables: usize,
    /// Total probability of each channel, in op order.
    probabilities: Vec<f64>,
    /// Channel `k` owns `components[component_offsets[k]..component_offsets[k + 1]]`.
    component_offsets: Vec<u32>,
    /// Signature id per component, or [`NO_SIGNATURE`].
    components: Vec<u32>,
    /// Signature `s` flips detectors
    /// `signature_bits[signature_offsets[2s]..signature_offsets[2s + 1]]` and
    /// observables `signature_bits[signature_offsets[2s + 1]..signature_offsets[2s + 2]]`,
    /// each ascending.
    signature_offsets: Vec<u32>,
    signature_bits: Vec<u32>,
}

impl FaultTable {
    /// Extracts the fault table of a noisy circuit.
    ///
    /// # Errors
    ///
    /// Returns the first dangling [`MeasurementRef`] if a detector or
    /// observable references a measurement that does not exist.
    pub fn from_circuit(circuit: &NoisyCircuit) -> Result<Self, MeasurementRef> {
        let (detectors, observables) = circuit.resolve_annotations()?;
        let num_detectors = detectors.len();
        let num_observables = observables.len();
        // Symptom bitsets: detector bits, then observable bits.
        let width = (num_detectors + num_observables).div_ceil(64);

        // measurement index -> symptom bits that include it.
        let num_measurements = circuit.num_measurements();
        let mut meas_symptoms = BitPlanes::zeroed(num_measurements, width);
        for (bit, measurement_indices) in detectors.iter().chain(&observables).enumerate() {
            for &m in measurement_indices {
                meas_symptoms.plane_mut(m)[bit / 64] |= 1 << (bit % 64);
            }
        }

        // Lay the channels out forwards, so the reverse pass can write each
        // channel's components straight into its op-order slot.
        let num_channels = circuit.num_noise_channels();
        let mut probabilities = Vec::with_capacity(num_channels);
        let mut component_offsets = Vec::with_capacity(num_channels + 1);
        component_offsets.push(0u32);
        let mut total_components = 0u32;
        for op in circuit.ops() {
            if let NoisyOp::Noise(channel) = op {
                probabilities.push(channel.total_probability());
                total_components += match channel {
                    NoiseChannel::BitFlip { .. } | NoiseChannel::PhaseFlip { .. } => 1,
                    NoiseChannel::Depolarize1 { .. } => 3,
                    NoiseChannel::Depolarize2 { .. } => 15,
                };
                component_offsets.push(total_components);
            }
        }
        let mut components = vec![NO_SIGNATURE; total_components as usize];

        let n = circuit.num_qubits();
        let mut sens_x = BitPlanes::zeroed(n, width);
        let mut sens_z = BitPlanes::zeroed(n, width);
        let mut scratch = vec![0u64; width];
        let mut interner = SignatureInterner::new(num_detectors, width);

        let mut next_measurement = num_measurements;
        let mut next_channel = num_channels;
        for op in circuit.ops().iter().rev() {
            match op {
                NoisyOp::Gate(instruction) => match *instruction {
                    Instruction::Measure(q) => {
                        next_measurement -= 1;
                        xor_into(
                            sens_x.plane_mut(q.index()),
                            meas_symptoms.plane(next_measurement),
                        );
                        sens_z.plane_mut(q.index()).fill(0);
                    }
                    Instruction::MeasureX(q) => {
                        next_measurement -= 1;
                        xor_into(
                            sens_z.plane_mut(q.index()),
                            meas_symptoms.plane(next_measurement),
                        );
                        sens_x.plane_mut(q.index()).fill(0);
                    }
                    Instruction::Reset(q) => {
                        sens_x.plane_mut(q.index()).fill(0);
                        sens_z.plane_mut(q.index()).fill(0);
                    }
                    Instruction::I(_)
                    | Instruction::X(_)
                    | Instruction::Y(_)
                    | Instruction::Z(_) => {}
                    Instruction::H(q) => {
                        let q = q.index();
                        sens_x.plane_mut(q).swap_with_slice(sens_z.plane_mut(q));
                    }
                    Instruction::S(q) | Instruction::Sdg(q) => {
                        // X → Y = X·Z.
                        let q = q.index();
                        xor_into(sens_x.plane_mut(q), sens_z.plane(q));
                    }
                    Instruction::SqrtX(q) | Instruction::SqrtXdg(q) => {
                        // Z → Y = X·Z.
                        let q = q.index();
                        xor_into(sens_z.plane_mut(q), sens_x.plane(q));
                    }
                    Instruction::Cnot { control, target } => {
                        let (c, t) = (control.index(), target.index());
                        // X_c → X_c X_t ; Z_t → Z_c Z_t.
                        sens_x.xor_planes(c, t);
                        sens_z.xor_planes(t, c);
                    }
                    Instruction::Cz(a, b) => {
                        // X_a → X_a Z_b ; X_b → Z_a X_b.
                        let (a, b) = (a.index(), b.index());
                        xor_into(sens_x.plane_mut(a), sens_z.plane(b));
                        xor_into(sens_x.plane_mut(b), sens_z.plane(a));
                    }
                    Instruction::Swap(a, b) => {
                        let (a, b) = (a.index(), b.index());
                        sens_x.swap_planes(a, b);
                        sens_z.swap_planes(a, b);
                    }
                    Instruction::Ms(a, b) => {
                        // X unchanged; Z_a → X_a Z_a X_b ; Z_b → X_a X_b Z_b.
                        let (a, b) = (a.index(), b.index());
                        for z in [a, b] {
                            xor_into(sens_z.plane_mut(z), sens_x.plane(a));
                            xor_into(sens_z.plane_mut(z), sens_x.plane(b));
                        }
                    }
                },
                NoisyOp::Noise(channel) => {
                    next_channel -= 1;
                    let slot = &mut components[component_offsets[next_channel] as usize
                        ..component_offsets[next_channel + 1] as usize];
                    match *channel {
                        NoiseChannel::BitFlip { qubit, .. } => {
                            slot[0] = interner.intern(sens_x.plane(qubit.index()));
                        }
                        NoiseChannel::PhaseFlip { qubit, .. } => {
                            slot[0] = interner.intern(sens_z.plane(qubit.index()));
                        }
                        NoiseChannel::Depolarize1 { qubit, .. } => {
                            let q = qubit.index();
                            slot[0] = interner.intern(sens_x.plane(q));
                            slot[1] = interner.intern(sens_z.plane(q));
                            scratch.copy_from_slice(sens_x.plane(q));
                            xor_into(&mut scratch, sens_z.plane(q));
                            slot[2] = interner.intern(&scratch);
                        }
                        NoiseChannel::Depolarize2 { a, b, .. } => {
                            // Visit the 15 codes in Gray-code order: one
                            // sensitivity XORed in per step. A step whose
                            // sensitivity flips nothing leaves the symptom
                            // set as it was, so it keeps the previous id
                            // without a lookup.
                            let (a, b) = (a.index(), b.index());
                            let terms = [
                                sens_x.plane(a),
                                sens_z.plane(a),
                                sens_x.plane(b),
                                sens_z.plane(b),
                            ];
                            let flips = terms.map(|term| term.iter().any(|&w| w != 0));
                            scratch.fill(0);
                            let mut id = NO_SIGNATURE;
                            for step in 1usize..16 {
                                let term = step.trailing_zeros() as usize;
                                if flips[term] {
                                    xor_into(&mut scratch, terms[term]);
                                    id = interner.intern(&scratch);
                                }
                                slot[(step ^ (step >> 1)) - 1] = id;
                            }
                        }
                    }
                }
            }
        }
        debug_assert_eq!(next_measurement, 0, "every measurement must be visited");
        debug_assert_eq!(next_channel, 0, "every channel must be visited");

        Ok(FaultTable {
            num_detectors,
            num_observables,
            probabilities,
            component_offsets,
            components,
            signature_offsets: interner.offsets,
            signature_bits: interner.bits,
        })
    }

    /// Folds the table into a detector error model: one mechanism per
    /// distinct signature, the probabilities of the components that share it
    /// combined as independent events (`p ← p₁(1−p₂) + p₂(1−p₁)`).
    pub fn dem(&self) -> DetectorErrorModel {
        let mut merged: Vec<Option<f64>> = vec![None; self.num_signatures()];
        for channel in (0..self.num_channels()).rev() {
            let ids = self.component_ids(channel);
            let each = self.probabilities[channel] / ids.len() as f64;
            if each <= 0.0 {
                continue;
            }
            for &id in ids.iter().filter(|&&id| id != NO_SIGNATURE) {
                let entry = merged[id as usize].get_or_insert(0.0);
                // p <- p(1-q) + q(1-p): parity of independent events.
                *entry = *entry * (1.0 - each) + each * (1.0 - *entry);
            }
        }
        let mut errors: Vec<DemError> = merged
            .iter()
            .enumerate()
            .filter_map(|(id, probability)| {
                let (detectors, observables) = self.signature(id as u32);
                Some(DemError {
                    probability: (*probability)?,
                    detectors: detectors.to_vec(),
                    observables: observables.to_vec(),
                })
            })
            .collect();
        errors.sort_by(|a, b| (&a.detectors, &a.observables).cmp(&(&b.detectors, &b.observables)));
        DetectorErrorModel {
            num_detectors: self.num_detectors,
            num_observables: self.num_observables,
            errors,
        }
    }

    /// Number of noise channels.
    pub fn num_channels(&self) -> usize {
        self.probabilities.len()
    }

    /// Number of channel components (1, 3 or 15 per channel).
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Number of distinct non-empty signatures.
    pub fn num_signatures(&self) -> usize {
        self.signature_offsets.len() / 2
    }

    /// The `(detectors, observables)` signature of every component of one
    /// channel, in stored order; both empty for a component that flips
    /// nothing. For the sampler oracle.
    #[doc(hidden)]
    pub fn components(&self, channel: usize) -> impl Iterator<Item = (&[u32], &[u32])> + '_ {
        self.component_ids(channel)
            .iter()
            .map(|&id| self.signature(id))
    }

    pub(crate) fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    pub(crate) fn num_observables(&self) -> usize {
        self.num_observables
    }

    pub(crate) fn probabilities(&self) -> &[f64] {
        &self.probabilities
    }

    /// The same signatures under other channel probabilities, one per
    /// channel in op order — the re-weight behind importance sampling and
    /// behind sweeps that share one schedule across gate improvements.
    ///
    /// # Panics
    ///
    /// Panics if `probabilities` does not hold exactly one entry per
    /// channel.
    pub fn with_probabilities(&self, probabilities: Vec<f64>) -> FaultTable {
        assert_eq!(
            probabilities.len(),
            self.num_channels(),
            "a re-weight needs one probability per channel"
        );
        FaultTable {
            num_detectors: self.num_detectors,
            num_observables: self.num_observables,
            probabilities,
            component_offsets: self.component_offsets.clone(),
            components: self.components.clone(),
            signature_offsets: self.signature_offsets.clone(),
            signature_bits: self.signature_bits.clone(),
        }
    }

    pub(crate) fn component_ids(&self, channel: usize) -> &[u32] {
        &self.components
            [self.component_offsets[channel] as usize..self.component_offsets[channel + 1] as usize]
    }

    /// The `(detectors, observables)` a component id flips.
    pub(crate) fn signature(&self, id: u32) -> (&[u32], &[u32]) {
        if id == NO_SIGNATURE {
            return (&[], &[]);
        }
        let at = |k: usize| self.signature_offsets[2 * id as usize + k] as usize;
        (
            &self.signature_bits[at(0)..at(1)],
            &self.signature_bits[at(1)..at(2)],
        )
    }
}
