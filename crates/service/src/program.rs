//! Compiled decode programs: everything a stream needs to decode online.

use std::sync::atomic::{AtomicU64, Ordering};

use qccd_core::{ArchitectureConfig, Toolflow};
use qccd_decoder::{DecodeScratch, Decoder, DecoderKind, DecodingGraph, MemoConfig};
use qccd_sim::{FaultTable, NoisyCircuit};

use crate::ServiceError;

fn next_program_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One compiled decoding setup shared by every stream of the same
/// `(architecture, distance, decoder)` configuration: the noisy circuit the
/// syndromes are assumed to come from, its fault table, the decoder over the
/// table's detector error model, and the memo configuration every worker
/// scratch decodes under. The table is derived once, when the program is
/// built; the replay load generator samples from it. Nothing is decoded at
/// build time: each worker's memo learns the program's recurring defect
/// sets from the frames it is handed.
pub struct DecodeProgram {
    id: u64,
    key: String,
    noisy: NoisyCircuit,
    table: FaultTable,
    num_detectors: usize,
    num_observables: usize,
    decoder_kind: DecoderKind,
    decoder: Box<dyn Decoder + Send + Sync>,
    memo: MemoConfig,
}

impl std::fmt::Debug for DecodeProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecodeProgram")
            .field("id", &self.id)
            .field("key", &self.key)
            .field("num_detectors", &self.num_detectors)
            .field("num_observables", &self.num_observables)
            .field("decoder_kind", &self.decoder_kind)
            .finish()
    }
}

impl DecodeProgram {
    /// Compiles the paper's memory workload for `(arch, distance)`
    /// ([`Toolflow::memory_program`]) and builds the decode setup over its
    /// detector error model. Nothing is
    /// cached here: repeated `open_stream`s of one configuration share the
    /// program the service's registry already holds.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Compile`] when the architecture cannot host the code,
    /// [`ServiceError::InvalidCircuit`] / [`ServiceError::TooManyObservables`]
    /// as in [`DecodeProgram::from_circuit`].
    pub fn compile(
        arch: &ArchitectureConfig,
        distance: usize,
        decoder: DecoderKind,
    ) -> Result<Self, ServiceError> {
        Self::compile_with_memo(arch, distance, decoder, MemoConfig::default())
    }

    /// [`DecodeProgram::compile`] with an explicit memo configuration:
    /// every worker scratch decodes this program under `memo`'s
    /// defect/entry caps.
    ///
    /// # Errors
    ///
    /// As [`DecodeProgram::compile`].
    pub fn compile_with_memo(
        arch: &ArchitectureConfig,
        distance: usize,
        decoder: DecoderKind,
        memo: MemoConfig,
    ) -> Result<Self, ServiceError> {
        let program = Toolflow::new(arch.clone())
            .memory_program(distance)
            .map_err(|e| ServiceError::Compile(e.to_string()))?;
        DecodeProgram::from_circuit_with_memo(
            DecodeProgram::config_key(arch, distance, decoder),
            program.to_noisy_circuit(),
            decoder,
            memo,
        )
    }

    /// The canonical program key of one `(arch, distance, decoder)`
    /// configuration — what [`DecodeProgram::compile`] registers under and
    /// what stream-opening deduplicates by.
    pub fn config_key(arch: &ArchitectureConfig, distance: usize, decoder: DecoderKind) -> String {
        let rounds = distance.max(1);
        format!("memory|d{distance}|r{rounds}|Z|{arch:?}|{decoder:?}")
    }

    /// Builds a decode program over an arbitrary noisy circuit (the
    /// replay/load-generation entry point; [`DecodeProgram::compile`] lowers
    /// onto this).
    ///
    /// # Errors
    ///
    /// [`ServiceError::InvalidCircuit`] if the circuit's annotations dangle,
    /// [`ServiceError::TooManyObservables`] if more than 64 observables are
    /// predicted.
    pub fn from_circuit(
        key: impl Into<String>,
        noisy: NoisyCircuit,
        decoder_kind: DecoderKind,
    ) -> Result<Self, ServiceError> {
        Self::from_circuit_with_memo(key, noisy, decoder_kind, MemoConfig::default())
    }

    /// [`DecodeProgram::from_circuit`] with an explicit memo configuration
    /// (see [`DecodeProgram::compile_with_memo`]). One pass over the circuit
    /// builds its [`FaultTable`]; the decoding graph is folded from that
    /// table, and the program keeps it for the replay.
    ///
    /// # Errors
    ///
    /// As [`DecodeProgram::from_circuit`].
    pub fn from_circuit_with_memo(
        key: impl Into<String>,
        noisy: NoisyCircuit,
        decoder_kind: DecoderKind,
        memo: MemoConfig,
    ) -> Result<Self, ServiceError> {
        let table = FaultTable::from_circuit(&noisy)
            .map_err(|e| ServiceError::InvalidCircuit(format!("{e:?}")))?;
        let dem = table.dem();
        if dem.num_observables > 64 {
            return Err(ServiceError::TooManyObservables(dem.num_observables));
        }
        let num_detectors = dem.num_detectors;
        let num_observables = dem.num_observables;
        let decoder = decoder_kind.build(DecodingGraph::from_dem(&dem));
        Ok(DecodeProgram {
            id: next_program_id(),
            key: key.into(),
            noisy,
            table,
            num_detectors,
            num_observables,
            decoder_kind,
            decoder,
            memo,
        })
    }

    /// Process-unique identity of this program instance.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The canonical configuration key streams are deduplicated by.
    pub fn key(&self) -> &str {
        &self.key
    }

    /// Number of detectors per frame.
    pub fn num_detectors(&self) -> usize {
        self.num_detectors
    }

    /// Number of logical observables per correction.
    pub fn num_observables(&self) -> usize {
        self.num_observables
    }

    /// The memo configuration every worker scratch decodes this program
    /// under.
    pub fn memo_config(&self) -> MemoConfig {
        self.memo
    }

    /// The noisy circuit the program assumes frames are sampled from.
    pub fn circuit(&self) -> &NoisyCircuit {
        &self.noisy
    }

    /// The circuit's fault table, derived once when the program was built
    /// (the replay load generator samples from it).
    pub(crate) fn fault_table(&self) -> &FaultTable {
        &self.table
    }

    /// Decodes one bit-packed chunk exactly as a service worker would —
    /// word-parallel, under the program's memo configuration (installed in
    /// `scratch` first). This is the offline baseline the load generator
    /// verifies the streamed corrections against.
    pub fn decode_batch(
        &self,
        chunk: &qccd_sim::SyndromeChunk,
        scratch: &mut DecodeScratch,
    ) -> qccd_decoder::PredictionChunk {
        scratch.set_memo_config(self.memo);
        self.decoder.decode_batch(chunk, scratch)
    }

    /// The decoder instance.
    pub(crate) fn decoder(&self) -> &(dyn Decoder + Send + Sync) {
        self.decoder.as_ref()
    }
}
