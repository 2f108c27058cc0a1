//! Mesh-state snapshots with content checksums.
//!
//! A [`Snapshot`] is deliberately *non-generic*: element lanes are
//! flattened to a `f32` vector at capture time so a single concrete type
//! can hold scalar meshes and RTM's packed [`VecN`] state alike, and so
//! the on-disk spill format stays independent of the element type that
//! produced it.
//!
//! Its [`content_checksum`] is FNV-1a over the shape header, byte by byte,
//! and over the payload, one 32-bit word per step; spill format v2 stores
//! it as the file's trailer.
//!
//! [`VecN`]: sf_mesh::VecN

use serde::{Deserialize, Serialize};
use sf_mesh::Element;

/// Typed failure modes of checkpoint restore and spill decode. Restores
/// never panic: every malformed input maps to one of these.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointError {
    /// Spill bytes do not start with the `SFCKPT` magic.
    BadMagic,
    /// Spill header carries a version this build cannot read.
    UnsupportedVersion {
        /// The version found in the header.
        found: u16,
    },
    /// Spill bytes end before the declared payload does.
    Truncated {
        /// Bytes needed to finish decoding.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Content checksum mismatch — the snapshot bytes were corrupted.
    ChecksumMismatch {
        /// Checksum recorded in the snapshot.
        expected: u64,
        /// Checksum recomputed over the payload.
        found: u64,
    },
    /// The snapshot's shape does not match what the caller asked to
    /// restore into (wrong lane count or cell count).
    ShapeMismatch {
        /// Human-readable description of the mismatch.
        detail: String,
    },
    /// Underlying I/O failure while spilling or reading a file.
    Io {
        /// Rendered I/O error.
        msg: String,
    },
}

impl core::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CheckpointError::BadMagic => write!(f, "checkpoint: bad magic (not an SFCKPT file)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(f, "checkpoint: unsupported spill version {found}")
            }
            CheckpointError::Truncated { needed, have } => {
                write!(f, "checkpoint: truncated input (need {needed} bytes, have {have})")
            }
            CheckpointError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint: content checksum mismatch (expected {expected:#018x}, found {found:#018x})"
            ),
            CheckpointError::ShapeMismatch { detail } => {
                write!(f, "checkpoint: shape mismatch: {detail}")
            }
            CheckpointError::Io { msg } => write!(f, "checkpoint: i/o error: {msg}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// One captured mesh state: shape header, lane-major `f32` payload and an
/// FNV-1a checksum over both ([`content_checksum`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Iterations fully completed when the snapshot was taken.
    pub iters_done: u64,
    /// Temporal batches (pipeline passes) completed when taken.
    pub passes_done: u64,
    /// Mesh dimensions, fastest-moving first (`[nx, ny]` / `[nx, ny, nz]`).
    pub dims: Vec<u64>,
    /// Batched independent meshes captured together.
    pub batch: u64,
    /// Lanes per element (`1` for scalar, `N` for RTM's `VecN<N>`).
    pub lanes: u32,
    /// Lane-major payload: `cells * lanes` values.
    pub data: Vec<f32>,
    /// FNV-1a 64 checksum over the header and the payload bit patterns.
    pub checksum: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over the snapshot header fields and payload bit patterns; used
/// both in memory and as the spill trailer (spill format v2).
///
/// Header fields fold byte by byte. Each payload value folds as one
/// 32-bit word — `h = (h ^ bits) · FNV_PRIME` — in one step instead of
/// eight byte steps. Like a byte step, a word step is a bijection of the
/// running hash for a fixed word (xor, then multiplication by an odd
/// prime), and it maps different words to different hashes from the same
/// running hash, so any single corrupted value changes the checksum.
pub fn content_checksum(
    iters_done: u64,
    passes_done: u64,
    dims: &[u64],
    batch: u64,
    lanes: u32,
    data: &[f32],
) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, iters_done);
    h = fnv_u64(h, passes_done);
    h = fnv_u64(h, dims.len() as u64);
    for &d in dims {
        h = fnv_u64(h, d);
    }
    h = fnv_u64(h, batch);
    h = fnv_u64(h, u64::from(lanes));
    h = fnv_u64(h, data.len() as u64);
    for &v in data {
        h = (h ^ u64::from(v.to_bits())).wrapping_mul(FNV_PRIME);
    }
    h
}

impl Snapshot {
    /// Capture mesh state from a cell slice, flattening element lanes.
    pub fn capture<T: Element>(
        iters_done: u64,
        passes_done: u64,
        dims: &[u64],
        batch: u64,
        cells: &[T],
    ) -> Snapshot {
        let lanes = T::LANES as u32;
        // a payload of its final size, filled cell by cell: no lane is pushed
        let mut data = vec![0.0; cells.len() * T::LANES];
        for (out, c) in data.chunks_exact_mut(T::LANES.max(1)).zip(cells) {
            for (l, v) in out.iter_mut().enumerate() {
                *v = c.lane(l);
            }
        }
        let checksum = content_checksum(iters_done, passes_done, dims, batch, lanes, &data);
        Snapshot { iters_done, passes_done, dims: dims.to_vec(), batch, lanes, data, checksum }
    }

    /// Number of cells the payload encodes.
    pub fn cells(&self) -> usize {
        if self.lanes == 0 {
            0
        } else {
            self.data.len() / self.lanes as usize
        }
    }

    /// Payload size in bytes — what a checkpoint writes through external
    /// memory, used to charge checkpoint cost into the cycle plan.
    pub fn payload_bytes(&self) -> u64 {
        self.data.len() as u64 * 4
    }

    /// Verify the content checksum against the stored fields.
    pub fn verify(&self) -> Result<(), CheckpointError> {
        let found = content_checksum(
            self.iters_done,
            self.passes_done,
            &self.dims,
            self.batch,
            self.lanes,
            &self.data,
        );
        if found != self.checksum {
            return Err(CheckpointError::ChecksumMismatch { expected: self.checksum, found });
        }
        Ok(())
    }

    /// Restore the payload into typed cells, verifying the checksum and
    /// the shape (`expected_cells` cells of `T::LANES` lanes) first.
    pub fn restore<T: Element>(&self, expected_cells: usize) -> Result<Vec<T>, CheckpointError> {
        self.verify()?;
        if self.lanes as usize != T::LANES {
            return Err(CheckpointError::ShapeMismatch {
                detail: format!("snapshot has {} lanes, element has {}", self.lanes, T::LANES),
            });
        }
        if self.cells() != expected_cells {
            return Err(CheckpointError::ShapeMismatch {
                detail: format!("snapshot has {} cells, expected {expected_cells}", self.cells()),
            });
        }
        let mut out = Vec::with_capacity(expected_cells);
        for chunk in self.data.chunks_exact(T::LANES) {
            let mut c = T::splat(0.0);
            for (l, &v) in chunk.iter().enumerate() {
                c.set_lane(l, v);
            }
            out.push(c);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_mesh::VecN;

    #[test]
    fn capture_restore_roundtrips_scalar() {
        let cells: Vec<f32> = (0..24).map(|i| i as f32 * 0.5 - 3.0).collect();
        let s = Snapshot::capture(7, 2, &[6, 4], 1, &cells);
        assert_eq!(s.cells(), 24);
        assert_eq!(s.payload_bytes(), 96);
        let back: Vec<f32> = s.restore(24).expect("restore");
        assert_eq!(back, cells);
    }

    #[test]
    fn capture_restore_roundtrips_vector_lanes() {
        let cells: Vec<VecN<3>> =
            (0..6).map(|i| VecN::new([i as f32, -(i as f32), 0.25 * i as f32])).collect();
        let s = Snapshot::capture(1, 1, &[3, 2], 1, &cells);
        assert_eq!(s.lanes, 3);
        let back: Vec<VecN<3>> = s.restore(6).expect("restore");
        assert_eq!(back, cells);
        // RTM's 20-lane packed cell: the payload is lane-major, cell after
        // cell, and its checksum is the one spill format v2 has recorded
        let wide: Vec<VecN<20>> = (0..5)
            .map(|i| VecN::new(std::array::from_fn(|l| (i * 20 + l) as f32 * 0.25 - 7.0)))
            .collect();
        let s = Snapshot::capture(3, 2, &[5, 1], 1, &wide);
        assert_eq!(s.lanes, 20);
        let lane_major: Vec<f32> = (0..100).map(|k| k as f32 * 0.25 - 7.0).collect();
        assert_eq!(s.data, lane_major);
        assert_eq!(s.checksum, 0xbd78_7912_b769_0703);
        let back: Vec<VecN<20>> = s.restore(5).expect("restore");
        assert_eq!(back, wide);
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        let cells: Vec<f32> = vec![1.0, 2.0, 3.0, 4.0];
        let mut s = Snapshot::capture(0, 0, &[4, 1], 1, &cells);
        s.data[2] = 99.0;
        assert!(matches!(s.verify(), Err(CheckpointError::ChecksumMismatch { .. })));
        assert!(s.restore::<f32>(4).is_err());
    }

    #[test]
    fn lane_mismatch_is_a_shape_error() {
        let cells: Vec<f32> = vec![1.0; 8];
        let s = Snapshot::capture(0, 0, &[8, 1], 1, &cells);
        let r: Result<Vec<VecN<4>>, _> = s.restore(2);
        assert!(matches!(r, Err(CheckpointError::ShapeMismatch { .. })));
    }
}
