//! Cross-crate validation: the QEC memory-experiment circuits built by
//! `qccd-qec` must have deterministic detectors under the exact tableau
//! simulator, and their noiseless samples must be silent.

use qccd_qec::{
    memory_experiment, repetition_code, rotated_surface_code, unrotated_surface_code, MemoryBasis,
};
use qccd_sim::{sample_detector_chunks, verify_detectors, DetectorErrorModel, NoisyCircuit};

#[test]
fn repetition_code_detectors_are_deterministic() {
    for d in [2, 3, 5] {
        for rounds in [1, 2, 4] {
            let code = repetition_code(d);
            let exp = memory_experiment(&code, rounds, MemoryBasis::Z);
            let noisy = NoisyCircuit::from_circuit(&exp.circuit);
            verify_detectors(&noisy, &[0, 1, 2]).unwrap_or_else(|e| {
                panic!("repetition d={d} rounds={rounds}: {e}");
            });
        }
    }
}

#[test]
fn rotated_surface_code_detectors_are_deterministic() {
    for d in [2, 3, 4, 5] {
        let code = rotated_surface_code(d);
        let exp = memory_experiment(&code, d, MemoryBasis::Z);
        let noisy = NoisyCircuit::from_circuit(&exp.circuit);
        verify_detectors(&noisy, &[0, 1, 7]).unwrap_or_else(|e| {
            panic!("rotated surface d={d}: {e}");
        });
    }
}

#[test]
fn rotated_surface_code_x_basis_detectors_are_deterministic() {
    for d in [2, 3] {
        let code = rotated_surface_code(d);
        let exp = memory_experiment(&code, d, MemoryBasis::X);
        let noisy = NoisyCircuit::from_circuit(&exp.circuit);
        verify_detectors(&noisy, &[0, 3]).unwrap_or_else(|e| {
            panic!("rotated surface (X basis) d={d}: {e}");
        });
    }
}

#[test]
fn unrotated_surface_code_detectors_are_deterministic() {
    for d in [2, 3] {
        let code = unrotated_surface_code(d);
        let exp = memory_experiment(&code, d, MemoryBasis::Z);
        let noisy = NoisyCircuit::from_circuit(&exp.circuit);
        verify_detectors(&noisy, &[0, 5]).unwrap_or_else(|e| {
            panic!("unrotated surface d={d}: {e}");
        });
    }
}

#[test]
fn noiseless_memory_experiment_never_fires_detectors() {
    let code = rotated_surface_code(3);
    let exp = memory_experiment(&code, 3, MemoryBasis::Z);
    let noisy = NoisyCircuit::from_circuit(&exp.circuit);
    let samples = sample_detector_chunks(&noisy, 2048, 11, 2048)
        .expect("annotations resolve")
        .sample_chunk(0);
    assert!((0..samples.num_detectors()).all(|d| samples.detector_plane(d).iter().all(|&w| w == 0)));
    assert!(samples.observable_plane(0).iter().all(|&w| w == 0));
}

#[test]
fn noiseless_memory_experiment_has_empty_error_model() {
    let code = rotated_surface_code(3);
    let exp = memory_experiment(&code, 2, MemoryBasis::Z);
    let noisy = NoisyCircuit::from_circuit(&exp.circuit);
    let dem = DetectorErrorModel::from_circuit(&noisy).expect("annotations resolve");
    assert_eq!(dem.num_detectors, exp.num_detectors);
    assert_eq!(dem.num_observables, 1);
    assert!(dem.errors.is_empty());
}
