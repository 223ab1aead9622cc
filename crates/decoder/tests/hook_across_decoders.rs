//! The decoder telemetry hook must count every noisy shot even when one
//! scratch passes from one decoder to another mid-stream.
//!
//! The hook is process-global, so this is the only test of its binary:
//! nothing else may decode while the registry is installed.

use qccd_decoder::{
    install_telemetry, uninstall_telemetry, DecodeScratch, Decoder, DecodingGraph, SyndromeChunk,
    UnionFindDecoder,
};
use qccd_sim::{DemError, DetectorErrorModel};
use qccd_telemetry::{Registry, TelemetryConfig};

/// A chain of `n` detectors with a boundary edge at each end.
fn chain_graph(n: u32) -> DecodingGraph {
    let mut errors = vec![DemError {
        probability: 0.01,
        detectors: vec![0],
        observables: vec![],
    }];
    errors.extend((0..n - 1).map(|i| DemError {
        probability: 0.01,
        detectors: vec![i, i + 1],
        observables: vec![],
    }));
    errors.push(DemError {
        probability: 0.01,
        detectors: vec![n - 1],
        observables: vec![0],
    });
    DecodingGraph::from_dem(&DetectorErrorModel {
        num_detectors: n as usize,
        num_observables: 1,
        errors,
    })
}

fn singles(detectors: &[usize]) -> SyndromeChunk {
    let shots: Vec<(Vec<usize>, Vec<usize>)> =
        detectors.iter().map(|&d| (vec![d], Vec::new())).collect();
    SyndromeChunk::from_shots(6, 1, &shots)
}

#[test]
fn hook_counts_survive_a_change_of_decoder() {
    let first = UnionFindDecoder::new(chain_graph(6));
    let second = UnionFindDecoder::new(chain_graph(6));
    let mut scratch = DecodeScratch::new();

    let registry = Registry::new(TelemetryConfig::full_sampling());
    install_telemetry(&registry);
    first.decode_batch(&singles(&[0, 1, 2]), &mut scratch);
    // The second decoder claims the scratch: entries go, counters stay.
    second.decode_batch(&singles(&[0, 1, 2, 3, 4]), &mut scratch);
    uninstall_telemetry();

    let snapshot = registry.snapshot();
    let counted = snapshot.counter("decoder.memo_hits")
        + snapshot.counter("decoder.memo_misses")
        + snapshot.counter("decoder.uncacheable");
    assert_eq!(counted, 8, "3 + 5 noisy shots went through the hook");
    assert_eq!(scratch.cache_stats().decoded(), 8);
}
