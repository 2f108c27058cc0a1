#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-mesh — structured meshes for explicit stencil solvers
//!
//! This crate provides the data substrate shared by the golden reference
//! executors (`sf-kernels`), the FPGA dataflow simulator (`sf-fpga`) and
//! the GPU performance model (`sf-gpu`):
//!
//! * [`Mesh2D`] / [`Mesh3D`] — row-major rectangular meshes over scalar
//!   (`f32`) or small-vector ([`VecN`]) elements. The fastest-varying
//!   dimension is `x` (the paper's `m`), matching the streaming order of the
//!   FPGA window buffers.
//! * [`Batch2D`] / [`Batch3D`] — batches of same-shaped meshes stored
//!   contiguously, stacked along the slowest dimension exactly as the paper's
//!   batching optimization stacks them (§IV-B).
//! * [`tile`] — overlapped spatial-block (tile) decompositions with halo
//!   regions, 512-bit alignment and valid-region bookkeeping (§IV-A).
//! * [`norms`] — error norms used to validate simulator output against the
//!   golden references.
//!
//! Everything here is deterministic and `Send + Sync`; the mesh types are
//! plain contiguous buffers so that the golden references and the
//! cycle-level streaming simulator can walk them cheaply.

pub mod batch;
pub mod element;
pub mod mesh2d;
pub mod mesh3d;
pub mod norms;
pub mod stats;
pub mod tile;

pub use batch::{Batch2D, Batch3D};
pub use element::{Element, VecN};
pub use mesh2d::Mesh2D;
pub use mesh3d::Mesh3D;
pub use tile::{Tile1D, Tile2D, TileGrid1D, TileGrid2D};

use rand::{rngs::StdRng, Rng, SeedableRng};

/// Number of `f32` lanes in one 512-bit AXI word — the alignment unit used
/// throughout the FPGA designs (§IV-A: "we must maintain a 512 bit alignment
/// in read/write transactions").
pub const AXI_F32_LANES: usize = 16;

/// The one random fill behind [`Mesh2D::random`], [`Mesh3D::random`],
/// [`Batch2D::random`] and [`Batch3D::random`]: `members · cells` elements
/// with lanes uniform in `[lo, hi)`. Member `i` draws from its own
/// SplitMix64 stream seeded with `seed + i` (wrapping), cell after cell in
/// storage order and lane after lane within a cell. Each cell is written
/// once, straight into the returned buffer.
fn random_fill<T: Element>(cells: usize, members: usize, seed: u64, lo: f32, hi: f32) -> Vec<T> {
    let mut data = Vec::with_capacity(cells * members);
    for i in 0..members as u64 {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(i));
        data.extend((0..cells).map(|_| {
            let mut e = T::default();
            for c in 0..T::LANES {
                e.set_lane(c, rng.gen_range(lo..hi));
            }
            e
        }));
    }
    data
}

/// Round `n` up to a multiple of `to` (`to > 0`).
#[inline]
pub fn round_up(n: usize, to: usize) -> usize {
    debug_assert!(to > 0);
    n.div_ceil(to) * to
}

/// Round `n` down to a multiple of `to` (`to > 0`).
#[inline]
pub fn round_down(n: usize, to: usize) -> usize {
    debug_assert!(to > 0);
    (n / to) * to
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_up_basic() {
        assert_eq!(round_up(0, 16), 0);
        assert_eq!(round_up(1, 16), 16);
        assert_eq!(round_up(16, 16), 16);
        assert_eq!(round_up(17, 16), 32);
        assert_eq!(round_up(100, 8), 104);
    }

    #[test]
    fn round_down_basic() {
        assert_eq!(round_down(0, 16), 0);
        assert_eq!(round_down(15, 16), 0);
        assert_eq!(round_down(16, 16), 16);
        assert_eq!(round_down(31, 16), 16);
    }
}
