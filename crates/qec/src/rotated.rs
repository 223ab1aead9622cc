//! The rotated surface code.
//!
//! The distance-`d` rotated surface code encodes one logical qubit into
//! `d²` data qubits and `d² − 1` ancilla qubits (2d² − 1 physical qubits in
//! total, as quoted in §6.1 of the paper). It is the primary workload of the
//! architectural study.
//!
//! # Geometry
//!
//! Data qubits form a `d × d` grid. Ancilla qubits sit at the corners between
//! data cells, in a checkerboard of X-type and Z-type plaquettes. Weight-2
//! boundary checks appear on the top/bottom boundaries (X-type) and the
//! left/right boundaries (Z-type). The logical Z operator is a horizontal
//! string of Z along the first data row; the logical X operator is a vertical
//! string of X along the first data column.

use crate::CodeLayout;

/// Builds the distance-`d` rotated surface code layout.
///
/// # Panics
///
/// Panics if `distance < 2`.
///
/// # Examples
///
/// ```
/// use qccd_qec::rotated_surface_code;
///
/// let code = rotated_surface_code(3);
/// assert_eq!(code.num_qubits(), 2 * 3 * 3 - 1);
/// assert_eq!(code.validate(), Ok(()));
/// ```
pub fn rotated_surface_code(distance: usize) -> CodeLayout {
    assert!(distance >= 2, "surface code distance must be at least 2");
    crate::rectangular::rotated_patch(format!("rotated_surface_d{distance}"), distance, distance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StabilizerBasis;
    use qccd_circuit::QubitId;
    use std::collections::HashSet;

    #[test]
    fn qubit_counts_match_2d2_minus_1() {
        for d in 2..=9 {
            let code = rotated_surface_code(d);
            assert_eq!(code.num_qubits(), 2 * d * d - 1, "distance {d}");
            assert_eq!(code.data_qubits().len(), d * d);
            assert_eq!(code.ancilla_qubits().len(), d * d - 1);
        }
    }

    #[test]
    fn stabilizer_type_counts() {
        // For odd d the X and Z checks split evenly; in general they sum to
        // d² − 1 and interior checks have weight 4, boundary checks weight 2.
        for d in 2..=8 {
            let code = rotated_surface_code(d);
            let x_count = code
                .stabilizers()
                .iter()
                .filter(|s| s.basis == StabilizerBasis::X)
                .count();
            let z_count = code.stabilizers().len() - x_count;
            assert_eq!(x_count + z_count, d * d - 1);
            if d % 2 == 1 {
                assert_eq!(x_count, z_count);
            }
            let weight2 = code
                .stabilizers()
                .iter()
                .filter(|s| s.weight() == 2)
                .count();
            let weight4 = code
                .stabilizers()
                .iter()
                .filter(|s| s.weight() == 4)
                .count();
            assert_eq!(weight2, 2 * (d - 1), "distance {d}");
            assert_eq!(weight4, (d - 1) * (d - 1), "distance {d}");
        }
    }

    #[test]
    fn layout_is_consistent() {
        for d in 2..=7 {
            assert_eq!(rotated_surface_code(d).validate(), Ok(()), "distance {d}");
        }
    }

    #[test]
    fn logical_operators_have_weight_d() {
        for d in 2..=7 {
            let code = rotated_surface_code(d);
            assert_eq!(code.logical_z().len(), d);
            assert_eq!(code.logical_x().len(), d);
        }
    }

    #[test]
    fn every_data_qubit_is_covered_by_both_bases() {
        // Each data qubit must participate in at least one X and one Z check,
        // otherwise single-qubit errors on it would be undetectable.
        let code = rotated_surface_code(5);
        let mut covered_x: HashSet<QubitId> = HashSet::new();
        let mut covered_z: HashSet<QubitId> = HashSet::new();
        for stab in code.stabilizers() {
            let set = match stab.basis {
                StabilizerBasis::X => &mut covered_x,
                StabilizerBasis::Z => &mut covered_z,
            };
            set.extend(stab.data_support());
        }
        for data in code.data_qubits() {
            assert!(covered_x.contains(&data), "{data} not covered by X checks");
            assert!(covered_z.contains(&data), "{data} not covered by Z checks");
        }
    }

    #[test]
    fn interior_checks_touch_four_distinct_neighbours() {
        let code = rotated_surface_code(4);
        for stab in code.stabilizers() {
            let support = stab.data_support();
            let unique: HashSet<_> = support.iter().collect();
            assert_eq!(unique.len(), support.len());
        }
    }

    #[test]
    fn ancilla_coordinates_are_odd() {
        let code = rotated_surface_code(4);
        for anc in code.ancilla_qubits() {
            let coord = code.coord(anc);
            assert_eq!(coord.row.rem_euclid(2), 1);
            assert_eq!(coord.col.rem_euclid(2), 1);
        }
    }

    #[test]
    fn schedule_has_four_steps() {
        let code = rotated_surface_code(3);
        assert_eq!(code.num_entangling_steps(), 4);
        for stab in code.stabilizers() {
            assert_eq!(stab.schedule.len(), 4);
        }
    }
}
