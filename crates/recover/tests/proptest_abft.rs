//! Property test: the unit-by-unit ABFT signature walk equals the per-cell
//! formula it replaced, bit for bit.
//!
//! The oracle below is that formula: four integer divisions per cell to
//! find the cell's unit, its offset in the unit, and the row and column
//! block each belongs to. The cases cover ragged last units, units shorter
//! and longer than `ABFT_BLOCKS`, fewer units than blocks, and scalar and
//! vector lanes, with signed zeros and non-finite values in the payload.

use proptest::prelude::*;
use sf_mesh::{Element, VecN};
use sf_recover::{AbftSignature, ABFT_BLOCKS};

fn oracle<T: Element>(cells: &[T], unit_len: usize) -> AbftSignature {
    let unit_len = unit_len.max(1);
    let n_units = cells.len().div_ceil(unit_len).max(1);
    let n_row_blocks = ABFT_BLOCKS.min(n_units).max(1);
    let n_col_blocks = ABFT_BLOCKS.min(unit_len).max(1);
    let mut row_sums = vec![0.0f64; n_row_blocks];
    let mut col_sums = vec![0.0f64; n_col_blocks];
    let mut total = 0.0f64;
    let mut bit_fold = 0u64;
    for (i, c) in cells.iter().enumerate() {
        let unit = i / unit_len;
        let within = i % unit_len;
        let rb = (unit * n_row_blocks / n_units).min(n_row_blocks - 1);
        let cb = (within * n_col_blocks / unit_len).min(n_col_blocks - 1);
        let mut s = 0.0f64;
        for l in 0..T::LANES {
            s += f64::from(c.lane(l));
            bit_fold = bit_fold.wrapping_add(u64::from(c.lane(l).to_bits()));
        }
        row_sums[rb] += s;
        col_sums[cb] += s;
        total += s;
    }
    AbftSignature { row_sums, col_sums, total, bit_fold }
}

/// Every field as bit patterns, so `-0.0 != 0.0` and NaN equals itself.
fn bits(s: &AbftSignature) -> (Vec<u64>, Vec<u64>, u64, u64) {
    let b = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    (b(&s.row_sums), b(&s.col_sums), s.total.to_bits(), s.bit_fold)
}

/// A deterministic lane payload (the vendored proptest has no collection
/// strategies), with occasional signed zeros and NaN. Magnitudes span
/// 2^-40..2^40, so `f64` sums round and any change to the order of the
/// additions shows in the bits.
fn lanes(seed: u64, n: usize) -> Vec<f32> {
    let mut x = seed | 1;
    (0..n)
        .map(|_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            match z % 64 {
                0 => -0.0,
                1 => 0.0,
                2 if seed.is_multiple_of(4) => f32::NAN,
                _ => {
                    let (sign, exp) = ((z >> 63) as u32, 87 + ((z >> 8) % 80) as u32);
                    f32::from_bits(sign << 31 | exp << 23 | (z >> 32) as u32 & 0x7f_ffff)
                }
            }
        })
        .collect()
}

fn check<T: Element>(cells: &[T], unit_len: usize) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        bits(&AbftSignature::compute(cells, unit_len)),
        bits(&oracle(cells, unit_len)),
        "{} cells of {} lanes, unit_len {}",
        cells.len(),
        T::LANES,
        unit_len
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn scalar_walk_matches_per_cell_formula(seed in 0u64..u64::MAX, unit_len in 0usize..40,
                                            units in 0usize..40, ragged in 0usize..40) {
        // `ragged` cells of a further unit: a short last unit when below
        // `unit_len`, whole extra units otherwise
        let n = unit_len * units + ragged % unit_len.max(1);
        check(&lanes(seed, n), unit_len)?;
    }

    #[test]
    fn vector_walk_matches_per_cell_formula(seed in 0u64..u64::MAX, unit_len in 1usize..30,
                                            units in 1usize..24, ragged in 0usize..30) {
        let n = unit_len * units + ragged % unit_len;
        let flat = lanes(seed, n * 5);
        let cells: Vec<VecN<5>> = flat
            .chunks_exact(5)
            .map(|c| VecN::new([c[0], c[1], c[2], c[3], c[4]]))
            .collect();
        check(&cells, unit_len)?;
    }
}

#[test]
fn edge_shapes_match_per_cell_formula() {
    // unit lengths around ABFT_BLOCKS, unit counts around it, and ragged tails
    for unit_len in [1, 2, ABFT_BLOCKS - 1, ABFT_BLOCKS, ABFT_BLOCKS + 1, 3 * ABFT_BLOCKS + 5] {
        for units in [1, 2, ABFT_BLOCKS - 1, ABFT_BLOCKS, ABFT_BLOCKS + 3] {
            for ragged in [0, 1, unit_len / 2] {
                let n = unit_len * units + ragged.min(unit_len - 1);
                check(&lanes((unit_len * 131 + units) as u64, n), unit_len).unwrap();
            }
        }
    }
    check::<f32>(&[], 8).unwrap();
}
