//! Rectangular (asymmetric) rotated surface codes.
//!
//! The `rows × cols` rectangular rotated surface code generalises the square
//! distance-`d` code of [`crate::rotated_surface_code`]: data qubits form a
//! `rows × cols` grid, X-type checks terminate on the top/bottom boundaries
//! and Z-type checks on the left/right boundaries, and the code distance is
//! `min(rows, cols)`.
//!
//! Rectangular patches appear in two places in the architectural study:
//!
//! * **lattice surgery** (§8 of the paper) — the merged patch formed while
//!   measuring a joint logical operator of two neighbouring patches is a
//!   `d × (2d+1)` rectangle (see [`crate::surgery`]);
//! * **asymmetric codes** — when one error species dominates, protecting it
//!   with a longer side is cheaper than growing the whole square patch.

use qccd_circuit::QubitId;

use crate::{CodeLayout, Coord, QubitInfo, QubitRole, Stabilizer, StabilizerBasis};

/// Builds a rectangular rotated surface code with `rows × cols` data qubits.
///
/// The layout is identical to [`crate::rotated_surface_code`] when
/// `rows == cols == d`: the logical Z operator is the horizontal Z string
/// along data row 0 (weight `cols`) and the logical X operator is the
/// vertical X string along data column 0 (weight `rows`). The code distance
/// recorded in the layout is `min(rows, cols)`.
///
/// # Panics
///
/// Panics if either dimension is less than 2.
///
/// # Examples
///
/// ```
/// use qccd_qec::rectangular_rotated_surface_code;
///
/// // A 3 × 7 patch: the merged patch of a distance-3 ZZ lattice surgery.
/// let code = rectangular_rotated_surface_code(3, 7);
/// assert_eq!(code.distance(), 3);
/// assert_eq!(code.data_qubits().len(), 21);
/// assert_eq!(code.validate(), Ok(()));
/// ```
pub fn rectangular_rotated_surface_code(rows: usize, cols: usize) -> CodeLayout {
    assert!(rows >= 2, "surface code patch needs at least 2 data rows");
    assert!(
        cols >= 2,
        "surface code patch needs at least 2 data columns"
    );
    rotated_patch(format!("rotated_surface_{rows}x{cols}"), rows, cols)
}

/// The one patch builder behind [`rectangular_rotated_surface_code`] and
/// [`crate::rotated_surface_code`] (the square `rows == cols` case), which
/// differ only in the layout `name` and their argument checks.
pub(crate) fn rotated_patch(name: String, rows: usize, cols: usize) -> CodeLayout {
    let nr = rows as i64;
    let nc = cols as i64;

    let mut qubits = Vec::new();
    // Data qubits: row-major rows×cols grid, ids 0..rows*cols.
    let data_id = |r: i64, c: i64| QubitId::new((r * nc + c) as u32);
    for r in 0..nr {
        for c in 0..nc {
            qubits.push(QubitInfo {
                id: data_id(r, c),
                coord: Coord::new(2 * r, 2 * c),
                role: QubitRole::Data,
            });
        }
    }

    // Ancilla qubits: plaquette corners (i, j) with i ∈ 0..=rows, j ∈ 0..=cols.
    let mut stabilizers = Vec::new();
    let mut next_id = (nr * nc) as u32;
    for i in 0..=nr {
        for j in 0..=nc {
            let nw = neighbour(i - 1, j - 1, nr, nc);
            let ne = neighbour(i - 1, j, nr, nc);
            let sw = neighbour(i, j - 1, nr, nc);
            let se = neighbour(i, j, nr, nc);
            let present = [nw, ne, sw, se].iter().filter(|n| n.is_some()).count();
            if present < 2 {
                // Corners of the dual lattice: no check.
                continue;
            }
            let basis = if (i + j) % 2 == 0 {
                StabilizerBasis::Z
            } else {
                StabilizerBasis::X
            };
            if present == 2 {
                // Boundary checks: X-type only on the top/bottom boundaries,
                // Z-type only on the left/right boundaries.
                let on_top_bottom = i == 0 || i == nr;
                let on_left_right = j == 0 || j == nc;
                let keep = match basis {
                    StabilizerBasis::X => on_top_bottom && !on_left_right,
                    StabilizerBasis::Z => on_left_right && !on_top_bottom,
                };
                if !keep {
                    continue;
                }
            }
            let ancilla = QubitId::new(next_id);
            next_id += 1;
            qubits.push(QubitInfo {
                id: ancilla,
                coord: Coord::new(2 * i - 1, 2 * j - 1),
                role: QubitRole::Ancilla,
            });
            // Entangling schedule: the standard "Z/N" orderings that avoid
            // same-step conflicts and bad hook errors.
            let schedule = match basis {
                StabilizerBasis::X => vec![nw, ne, sw, se],
                StabilizerBasis::Z => vec![nw, sw, ne, se],
            }
            .into_iter()
            .map(|n| n.map(|(r, c)| data_id(r, c)))
            .collect();
            stabilizers.push(Stabilizer {
                ancilla,
                basis,
                schedule,
            });
        }
    }

    // Logical Z: horizontal Z string along data row 0 (connects the two
    // Z-type boundaries). Logical X: vertical X string along data column 0.
    let logical_z = (0..nc).map(|c| data_id(0, c)).collect();
    let logical_x = (0..nr).map(|r| data_id(r, 0)).collect();

    CodeLayout::new(
        name,
        rows.min(cols),
        qubits,
        stabilizers,
        logical_z,
        logical_x,
    )
}

/// Returns `(r, c)` if the data coordinate is inside the rows×cols grid.
fn neighbour(r: i64, c: i64, rows: i64, cols: i64) -> Option<(i64, i64)> {
    if r >= 0 && r < rows && c >= 0 && c < cols {
        Some((r, c))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn qubit_counts_follow_the_rectangular_formula() {
        // rows*cols data qubits and rows*cols − 1 ancillas (one logical
        // qubit is encoded regardless of the aspect ratio).
        for (rows, cols) in [(2, 5), (3, 7), (4, 3), (5, 11), (3, 3)] {
            let code = rectangular_rotated_surface_code(rows, cols);
            assert_eq!(code.data_qubits().len(), rows * cols);
            assert_eq!(code.ancilla_qubits().len(), rows * cols - 1);
            assert_eq!(code.num_qubits(), 2 * rows * cols - 1);
        }
    }

    #[test]
    fn rectangular_layouts_are_valid_codes() {
        for (rows, cols) in [(2, 3), (3, 7), (4, 9), (5, 4), (2, 11)] {
            let code = rectangular_rotated_surface_code(rows, cols);
            assert_eq!(code.validate(), Ok(()), "{rows}x{cols}");
        }
    }

    #[test]
    fn distance_is_the_smaller_dimension() {
        assert_eq!(rectangular_rotated_surface_code(3, 7).distance(), 3);
        assert_eq!(rectangular_rotated_surface_code(7, 3).distance(), 3);
        assert_eq!(rectangular_rotated_surface_code(5, 5).distance(), 5);
    }

    #[test]
    fn logical_operator_weights_match_the_dimensions() {
        let code = rectangular_rotated_surface_code(3, 7);
        assert_eq!(code.logical_z().len(), 7);
        assert_eq!(code.logical_x().len(), 3);
    }

    #[test]
    fn every_data_qubit_is_covered_by_both_bases() {
        let code = rectangular_rotated_surface_code(3, 7);
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
    fn boundary_checks_have_weight_two_and_interior_weight_four() {
        let (rows, cols) = (4, 6);
        let code = rectangular_rotated_surface_code(rows, cols);
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
        assert_eq!(weight2, (rows - 1) + (cols - 1));
        assert_eq!(weight4, (rows - 1) * (cols - 1));
        assert_eq!(weight2 + weight4, code.stabilizers().len());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn degenerate_dimensions_are_rejected() {
        rectangular_rotated_surface_code(1, 5);
    }
}
