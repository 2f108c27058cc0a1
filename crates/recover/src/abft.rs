//! Algorithm-based fault tolerance (ABFT) signatures: block row/column
//! sums over tile outputs.
//!
//! For the paper's linear stencil operators a single corrupted cell
//! perturbs its row-block sum, its column-block sum and the total, so an
//! exact `f64` comparison against a reference-propagated signature
//! detects single-event upsets the FIFO/AXI checks miss. A wrapping
//! bit-pattern fold rides along for the exact regime: it catches the one
//! upset class the arithmetic sums are blind to, a sign flip on a zero
//! cell (`0.0` → `-0.0` leaves every sum unchanged but fails the
//! campaign's bitwise golden comparison). The RK4 chain (RTM) is
//! compared through the same machinery with an optional tolerance band.

use serde::{Deserialize, Serialize};
use sf_mesh::Element;

/// Number of row and column blocks a signature folds the mesh into.
/// Fixed so signatures from different mesh sizes stay comparable in cost
/// and the on-record representation stays bounded.
pub const ABFT_BLOCKS: usize = 16;

/// Block row/column checksum signature of one mesh state.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AbftSignature {
    /// Per-row-block sums (stream units folded into [`ABFT_BLOCKS`] bins).
    pub row_sums: Vec<f64>,
    /// Per-column-block sums (cells within a unit folded into bins).
    pub col_sums: Vec<f64>,
    /// Grand total over every lane of every cell.
    pub total: f64,
    /// Wrapping sum of every lane's raw bit pattern. The arithmetic sums
    /// are blind to upsets that preserve the numeric value (a sign flip
    /// on `0.0` yields `-0.0`); the bit fold is not, and any single-lane
    /// flip perturbs it. Only consulted in the exact (`tol = 0`) regime.
    pub bit_fold: u64,
}

impl AbftSignature {
    /// Compute the signature of a cell slice organized as stream units of
    /// `unit_len` cells (rows for 2D, planes for 3D). All element lanes
    /// are accumulated in `f64`.
    ///
    /// Cell `i` lies in unit `u = i / unit_len` at offset `w = i % unit_len`
    /// and adds its lane sum to row block `u · rows / units` and column
    /// block `w · cols / unit_len`. The walk goes unit by unit over the
    /// column blocks' precomputed offset ranges, so it divides once per unit
    /// rather than four times per cell; every accumulator still receives
    /// the same additions in the same order.
    pub fn compute<T: Element>(cells: &[T], unit_len: usize) -> AbftSignature {
        let unit_len = unit_len.max(1);
        let n_units = cells.len().div_ceil(unit_len).max(1);
        let n_row_blocks = ABFT_BLOCKS.min(n_units).max(1);
        let n_col_blocks = ABFT_BLOCKS.min(unit_len).max(1);
        // column block b starts at the least offset w with w · cols / unit_len ≥ b
        let col_start = |b: usize| (b * unit_len).div_ceil(n_col_blocks);
        let col_ranges: Vec<(usize, usize)> =
            (0..n_col_blocks).map(|b| (col_start(b), col_start(b + 1))).collect();
        let mut row_sums = vec![0.0f64; n_row_blocks];
        let mut col_sums = vec![0.0f64; n_col_blocks];
        let mut total = 0.0f64;
        let mut bit_fold = 0u64;
        for (unit, cells) in cells.chunks(unit_len).enumerate() {
            let row = &mut row_sums[unit * n_row_blocks / n_units];
            // a ragged last unit ends inside (or before) some column blocks
            for (col, &(lo, hi)) in col_sums.iter_mut().zip(&col_ranges) {
                for c in &cells[lo.min(cells.len())..hi.min(cells.len())] {
                    let mut s = 0.0f64;
                    for l in 0..T::LANES {
                        s += f64::from(c.lane(l));
                        bit_fold = bit_fold.wrapping_add(u64::from(c.lane(l).to_bits()));
                    }
                    *row += s;
                    *col += s;
                    total += s;
                }
            }
        }
        AbftSignature { row_sums, col_sums, total, bit_fold }
    }

    /// Compare against an expected signature within `tol` (absolute, per
    /// entry). `tol = 0.0` demands exact equality — valid for the linear
    /// operators because the simulated datapath is bit-exact against the
    /// reference kernels — and additionally compares the bit folds, which
    /// catch value-preserving upsets (`0.0` → `-0.0`) the sums cannot.
    /// Non-finite sums (NaN from a corrupted exponent) never match.
    pub fn matches(&self, expected: &AbftSignature, tol: f64) -> bool {
        if self.row_sums.len() != expected.row_sums.len()
            || self.col_sums.len() != expected.col_sums.len()
        {
            return false;
        }
        if tol == 0.0 && self.bit_fold != expected.bit_fold {
            return false;
        }
        let ok = |a: f64, b: f64| a.is_finite() && b.is_finite() && (a - b).abs() <= tol;
        if !ok(self.total, expected.total) {
            return false;
        }
        self.row_sums.iter().zip(&expected.row_sums).all(|(&a, &b)| ok(a, b))
            && self.col_sums.iter().zip(&expected.col_sums).all(|(&a, &b)| ok(a, b))
    }
}

/// Cycle cost of one ABFT check: the checksum tree consumes one vector
/// of `v` cells per cycle alongside the output stream.
pub fn abft_check_cycles(cells: u64, v: usize) -> u64 {
    cells.div_ceil(v.max(1) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_mesh::VecN;

    #[test]
    fn identical_states_match_exactly() {
        let cells: Vec<f32> = (0..64).map(|i| (i as f32) * 0.1 - 3.0).collect();
        let a = AbftSignature::compute(&cells, 8);
        let b = AbftSignature::compute(&cells, 8);
        assert!(a.matches(&b, 0.0));
    }

    #[test]
    fn single_cell_corruption_is_detected() {
        let cells: Vec<f32> = (0..64).map(|i| (i as f32) * 0.1 - 3.0).collect();
        let clean = AbftSignature::compute(&cells, 8);
        for victim in [0usize, 17, 63] {
            let mut bad = cells.clone();
            bad[victim] = f32::from_bits(bad[victim].to_bits() ^ (1 << 22));
            let sig = AbftSignature::compute(&bad, 8);
            assert!(!sig.matches(&clean, 0.0), "flip at {victim} must break the signature");
        }
    }

    #[test]
    fn sign_flip_on_zero_is_detected_in_exact_mode() {
        // 0.0 → -0.0 leaves every arithmetic sum unchanged; only the bit
        // fold sees it. This is the RTM wavefield escape: demo inputs are
        // mostly zero, so a window-buffer sign flip lands on a zero cell.
        let cells: Vec<f32> = vec![0.0; 64];
        let clean = AbftSignature::compute(&cells, 8);
        let mut bad = cells.clone();
        bad[13] = -0.0;
        let sig = AbftSignature::compute(&bad, 8);
        assert_eq!(sig.total, clean.total);
        assert!(!sig.matches(&clean, 0.0), "exact mode must catch 0.0 -> -0.0");
        // with a tolerance band (RK4/hardware drift) the bit fold is
        // intentionally not consulted
        assert!(sig.matches(&clean, 1e-9));
    }

    #[test]
    fn nan_corruption_never_matches() {
        let cells: Vec<f32> = vec![1.0; 32];
        let clean = AbftSignature::compute(&cells, 8);
        let mut bad = cells.clone();
        bad[5] = f32::NAN;
        assert!(!AbftSignature::compute(&bad, 8).matches(&clean, 1e9));
    }

    #[test]
    fn tolerance_band_admits_small_drift() {
        let cells: Vec<f32> = vec![2.0; 32];
        let a = AbftSignature::compute(&cells, 8);
        let mut drifted = cells.clone();
        drifted[0] = 2.0 + 1e-6;
        let b = AbftSignature::compute(&drifted, 8);
        assert!(!b.matches(&a, 0.0));
        assert!(b.matches(&a, 1e-3));
    }

    #[test]
    fn vector_lanes_participate_in_sums() {
        let cells: Vec<VecN<2>> = (0..16).map(|i| VecN::new([i as f32, 1.0])).collect();
        let clean = AbftSignature::compute(&cells, 4);
        let mut bad = cells.clone();
        bad[9].set_lane(1, 5.0);
        assert!(!AbftSignature::compute(&bad, 4).matches(&clean, 0.0));
    }

    #[test]
    fn check_cycles_scale_with_vector_width() {
        assert_eq!(abft_check_cycles(64, 8), 8);
        assert_eq!(abft_check_cycles(65, 8), 9);
        assert_eq!(abft_check_cycles(10, 0), 10);
    }
}
