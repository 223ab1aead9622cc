//! Lattice-surgery workloads (§8 of the paper).
//!
//! Logical two-qubit operations on surface codes are performed by *lattice
//! surgery*: two neighbouring distance-`d` patches are merged into one
//! rectangular patch for `d` rounds of parity checks (measuring the joint
//! logical operator), then split again. The paper argues (§8) that because
//! the merged-patch circuits have the same local parity-check structure as a
//! single patch, the architectural conclusions — capacity-2 traps, grid
//! topology, constant round time — carry over to multi-logical-qubit
//! systems.
//!
//! This module provides the workloads needed to *check* that claim with the
//! compiler rather than assume it:
//!
//! * [`merged_zz_patch`] / [`merged_xx_patch`] — the merged patch that exists
//!   during a ZZ (rough) or XX (smooth) merge of two distance-`d` patches;
//! * [`seam_data_qubits`] — the column/row of data qubits that is introduced
//!   between the two patches by the merge;
//! * [`SurgeryWorkload`] — the pair (single patch, merged patch) that the
//!   extension experiment compiles on the same architecture to compare round
//!   times and error rates.
//!
//! # Modelling note
//!
//! The merged patch is modelled as a static rectangular code
//! ([`crate::rectangular_rotated_surface_code`]); the dynamic merge/split
//! boundary rounds (whose first-round seam stabilizers are non-deterministic
//! and yield the logical ZZ outcome) are not simulated. For the
//! *architectural* questions — QEC round time, movement operations, memory
//! logical error rate of the merged patch — the static merged-phase workload
//! exercises exactly the circuits that dominate a surgery operation, which
//! is the paper's own argument for why its results extend to lattice
//! surgery.

use qccd_circuit::QubitId;

use crate::{rectangular_rotated_surface_code, rotated_surface_code, CodeLayout};

/// The orientation of a lattice-surgery merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeKind {
    /// Rough merge along the Z boundaries: measures the joint logical Z⊗Z.
    ZZ,
    /// Smooth merge along the X boundaries: measures the joint logical X⊗X.
    XX,
}

impl MergeKind {
    /// A short lowercase label (`"zz"` / `"xx"`).
    pub fn label(self) -> &'static str {
        match self {
            MergeKind::ZZ => "zz",
            MergeKind::XX => "xx",
        }
    }
}

/// The merged patch present while measuring Z⊗Z of two distance-`d` patches.
///
/// Two `d × d` patches sitting side by side are joined through one extra
/// column of seam data qubits, producing a `d × (2d+1)` rectangular patch.
///
/// # Panics
///
/// Panics if `distance < 2`.
///
/// # Examples
///
/// ```
/// use qccd_qec::merged_zz_patch;
///
/// let merged = merged_zz_patch(3);
/// assert_eq!(merged.data_qubits().len(), 3 * 7);
/// assert_eq!(merged.distance(), 3);
/// assert_eq!(merged.validate(), Ok(()));
/// ```
pub fn merged_zz_patch(distance: usize) -> CodeLayout {
    assert!(distance >= 2, "surface code distance must be at least 2");
    rectangular_rotated_surface_code(distance, 2 * distance + 1)
}

/// The merged patch present while measuring X⊗X of two distance-`d` patches
/// stacked vertically: a `(2d+1) × d` rectangle.
///
/// # Panics
///
/// Panics if `distance < 2`.
pub fn merged_xx_patch(distance: usize) -> CodeLayout {
    assert!(distance >= 2, "surface code distance must be at least 2");
    rectangular_rotated_surface_code(2 * distance + 1, distance)
}

/// The seam data qubits introduced by the merge: the middle column (for a
/// [`MergeKind::ZZ`] merge) or middle row ([`MergeKind::XX`]) of the merged
/// patch, i.e. the `d` data qubits that do not belong to either original
/// patch.
///
/// # Examples
///
/// ```
/// use qccd_qec::{merged_zz_patch, seam_data_qubits, MergeKind};
///
/// let merged = merged_zz_patch(3);
/// let seam = seam_data_qubits(&merged, MergeKind::ZZ);
/// assert_eq!(seam.len(), 3);
/// ```
pub fn seam_data_qubits(merged: &CodeLayout, kind: MergeKind) -> Vec<QubitId> {
    // Data qubits sit at even (row, col) coordinates; the seam is the middle
    // column (ZZ) or row (XX) of the rectangle.
    let data = merged.data_qubits();
    let (max_row, max_col) = data.iter().fold((0, 0), |(mr, mc), &q| {
        let c = merged.coord(q);
        (mr.max(c.row), mc.max(c.col))
    });
    data.into_iter()
        .filter(|&q| {
            let c = merged.coord(q);
            match kind {
                MergeKind::ZZ => c.col == max_col / 2,
                MergeKind::XX => c.row == max_row / 2,
            }
        })
        .collect()
}

/// The pair of workloads compiled by the lattice-surgery extension
/// experiment: one isolated distance-`d` patch and the merged patch of the
/// corresponding surgery operation.
#[derive(Debug, Clone, PartialEq)]
pub struct SurgeryWorkload {
    /// Code distance of the individual patches.
    pub distance: usize,
    /// Merge orientation.
    pub kind: MergeKind,
    /// A single isolated patch (the idle / memory workload).
    pub patch: CodeLayout,
    /// The merged two-patch layout (the surgery-phase workload).
    pub merged: CodeLayout,
}

/// Builds the surgery workload for two distance-`d` patches.
///
/// # Panics
///
/// Panics if `distance < 2`.
///
/// # Examples
///
/// ```
/// use qccd_qec::{surgery_workload, MergeKind};
///
/// let workload = surgery_workload(3, MergeKind::ZZ);
/// assert_eq!(workload.patch.num_qubits(), 17);
/// assert_eq!(workload.merged.num_qubits(), 2 * 3 * 7 - 1);
/// ```
pub fn surgery_workload(distance: usize, kind: MergeKind) -> SurgeryWorkload {
    let patch = rotated_surface_code(distance);
    let merged = match kind {
        MergeKind::ZZ => merged_zz_patch(distance),
        MergeKind::XX => merged_xx_patch(distance),
    };
    SurgeryWorkload {
        distance,
        kind,
        patch,
        merged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QubitRole;

    #[test]
    fn merged_patch_counts() {
        // d × (2d+1) data qubits; 2·d·(2d+1) − 1 physical qubits in total.
        for d in 2..=6 {
            let merged = merged_zz_patch(d);
            assert_eq!(merged.data_qubits().len(), d * (2 * d + 1));
            assert_eq!(merged.num_qubits(), 2 * d * (2 * d + 1) - 1);
            assert_eq!(merged.distance(), d);
        }
    }

    #[test]
    fn merged_patches_are_valid_codes() {
        for d in 2..=5 {
            assert_eq!(merged_zz_patch(d).validate(), Ok(()), "zz d={d}");
            assert_eq!(merged_xx_patch(d).validate(), Ok(()), "xx d={d}");
        }
    }

    #[test]
    fn xx_patch_is_the_transpose_of_the_zz_patch() {
        let zz = merged_zz_patch(3);
        let xx = merged_xx_patch(3);
        assert_eq!(zz.num_qubits(), xx.num_qubits());
        assert_eq!(zz.stabilizers().len(), xx.stabilizers().len());
        // Logical operator weights swap between the two orientations.
        assert_eq!(zz.logical_z().len(), xx.logical_x().len());
        assert_eq!(zz.logical_x().len(), xx.logical_z().len());
    }

    #[test]
    fn seam_has_exactly_d_data_qubits_in_the_middle() {
        for d in 2..=5 {
            let merged = merged_zz_patch(d);
            let seam = seam_data_qubits(&merged, MergeKind::ZZ);
            assert_eq!(seam.len(), d, "d={d}");
            for q in &seam {
                assert_eq!(merged.role(*q), QubitRole::Data);
                // The seam is the middle data column, at doubled column 2d.
                assert_eq!(merged.coord(*q).col, 2 * d as i64);
            }
        }
        let merged = merged_xx_patch(4);
        let seam = seam_data_qubits(&merged, MergeKind::XX);
        assert_eq!(seam.len(), 4);
    }

    #[test]
    fn merge_overhead_is_the_seam_plus_boundary_ancillas() {
        // Two isolated d×d patches have 2(2d²−1) qubits; the merged patch
        // has 2d(2d+1)−1. The difference (2d+1 extra qubits for ZZ) is the
        // seam data column plus the ancillas that stitch it to the patches.
        for d in 2..=5 {
            let workload = surgery_workload(d, MergeKind::ZZ);
            let overhead = workload.merged.num_qubits() - 2 * workload.patch.num_qubits();
            assert_eq!(overhead, 2 * d + 1, "d={d}");
        }
    }

    #[test]
    fn workload_patch_is_the_standard_square_code() {
        let workload = surgery_workload(5, MergeKind::XX);
        assert_eq!(workload.patch.num_qubits(), 2 * 5 * 5 - 1);
        assert_eq!(workload.distance, 5);
        assert_eq!(workload.kind.label(), "xx");
    }
}
