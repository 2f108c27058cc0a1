//! Versioned binary spill format for checkpoints.
//!
//! Layout of version 2 (all integers little-endian):
//!
//! ```text
//! offset  size  field
//! 0       6     magic  b"SFCKPT"
//! 6       2     version (u16) — 2
//! 8       8     iters_done (u64)
//! 16      8     passes_done (u64)
//! 24      8     batch (u64)
//! 32      4     lanes (u32)
//! 36      4     ndims (u32)
//! 40      8*n   dims (u64 each)
//! ..      8     payload length in values (u64)
//! ..      4*m   payload (f32 bit patterns)
//! ..      8     content checksum (u64) — Snapshot's FNV-1a, payload
//!               folded one 32-bit word per step
//! ```
//!
//! Version 1 had the same layout with a checksum that folded the payload
//! one byte per step. This build reads version 2 only: a version-1 file is
//! rejected as [`CheckpointError::UnsupportedVersion`].
//!
//! Decoding is total: every malformed input maps to a typed
//! [`CheckpointError`] — bad magic, unknown version, truncation, checksum
//! mismatch — and never panics.

use crate::checkpoint::{content_checksum, CheckpointError, Snapshot};
use std::path::Path;

/// Magic prefix of every spill file.
pub const SPILL_MAGIC: &[u8; 6] = b"SFCKPT";
/// The spill format version this build writes and reads.
pub const SPILL_VERSION: u16 = 2;

/// Serialize a snapshot into the spill byte format.
pub fn to_bytes(snap: &Snapshot) -> Vec<u8> {
    let mut out = Vec::with_capacity(48 + snap.dims.len() * 8 + snap.data.len() * 4 + 8);
    out.extend_from_slice(SPILL_MAGIC);
    out.extend_from_slice(&SPILL_VERSION.to_le_bytes());
    out.extend_from_slice(&snap.iters_done.to_le_bytes());
    out.extend_from_slice(&snap.passes_done.to_le_bytes());
    out.extend_from_slice(&snap.batch.to_le_bytes());
    out.extend_from_slice(&snap.lanes.to_le_bytes());
    out.extend_from_slice(&(snap.dims.len() as u32).to_le_bytes());
    for &d in &snap.dims {
        out.extend_from_slice(&d.to_le_bytes());
    }
    out.extend_from_slice(&(snap.data.len() as u64).to_le_bytes());
    for &v in &snap.data {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out.extend_from_slice(&snap.checksum.to_le_bytes());
    out
}

/// Bounded little-endian reader over the spill bytes.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CheckpointError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(CheckpointError::Truncated { needed: usize::MAX, have: self.buf.len() })?;
        if end > self.buf.len() {
            return Err(CheckpointError::Truncated { needed: end, have: self.buf.len() });
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u16(&mut self) -> Result<u16, CheckpointError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, CheckpointError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

/// Decode spill bytes back into a snapshot, verifying magic, version and
/// content checksum. Total: returns a typed error on any malformed input.
pub fn try_from_bytes(bytes: &[u8]) -> Result<Snapshot, CheckpointError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    let magic = r.take(6)?;
    if magic != SPILL_MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = r.u16()?;
    if version != SPILL_VERSION {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    let iters_done = r.u64()?;
    let passes_done = r.u64()?;
    let batch = r.u64()?;
    let lanes = r.u32()?;
    let ndims = r.u32()? as usize;
    // dims and payload lengths are attacker-controlled: bound them by the
    // bytes actually present before allocating.
    // Both lengths saturate, so a corrupted one reports `needed > have`.
    let truncated = |pos: usize, len: usize| CheckpointError::Truncated {
        needed: pos.saturating_add(len),
        have: bytes.len(),
    };
    let remaining = bytes.len().saturating_sub(r.pos);
    if ndims.saturating_mul(8) > remaining {
        return Err(truncated(r.pos, ndims.saturating_mul(8)));
    }
    let mut dims = Vec::with_capacity(ndims);
    for _ in 0..ndims {
        dims.push(r.u64()?);
    }
    let nvals = r.u64()? as usize;
    let remaining = bytes.len().saturating_sub(r.pos);
    if nvals.saturating_mul(4) > remaining {
        return Err(truncated(r.pos, nvals.saturating_mul(4)));
    }
    let mut data = Vec::with_capacity(nvals);
    for _ in 0..nvals {
        data.push(f32::from_bits(r.u32()?));
    }
    let checksum = r.u64()?;
    let found = content_checksum(iters_done, passes_done, &dims, batch, lanes, &data);
    if found != checksum {
        return Err(CheckpointError::ChecksumMismatch { expected: checksum, found });
    }
    Ok(Snapshot { iters_done, passes_done, dims, batch, lanes, data, checksum })
}

/// Spill a snapshot to a file.
pub fn write_file(path: &Path, snap: &Snapshot) -> Result<(), CheckpointError> {
    std::fs::write(path, to_bytes(snap))
        .map_err(|e| CheckpointError::Io { msg: format!("{}: {e}", path.display()) })
}

/// Read a spilled snapshot back from a file.
pub fn read_file(path: &Path) -> Result<Snapshot, CheckpointError> {
    let bytes = std::fs::read(path)
        .map_err(|e| CheckpointError::Io { msg: format!("{}: {e}", path.display()) })?;
    try_from_bytes(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let cells: Vec<f32> = (0..12).map(|i| (i as f32).sin()).collect();
        Snapshot::capture(16, 4, &[4, 3], 1, &cells)
    }

    #[test]
    fn bytes_roundtrip() {
        let s = sample();
        let bytes = to_bytes(&s);
        let back = try_from_bytes(&bytes).expect("decode");
        assert_eq!(back, s);
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = to_bytes(&sample());
        bytes[0] = b'X';
        assert_eq!(try_from_bytes(&bytes), Err(CheckpointError::BadMagic));
    }

    #[test]
    fn unknown_version_is_typed() {
        let mut bytes = to_bytes(&sample());
        bytes[6] = 9;
        assert!(matches!(
            try_from_bytes(&bytes),
            Err(CheckpointError::UnsupportedVersion { found: 9 })
        ));
    }

    #[test]
    fn version_1_stream_is_unsupported() {
        // a genuine v1 encoding: v2's layout with the payload folded into
        // the checksum byte by byte
        let s = sample();
        let fnv = |mut h: u64, v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            h
        };
        let (d, n) = (&s.dims, s.data.len() as u64);
        let header = [s.iters_done, s.passes_done, 2, d[0], d[1], s.batch, u64::from(s.lanes), n];
        let mut h = header.iter().fold(0xcbf2_9ce4_8422_2325, |h, &v| fnv(h, v));
        for v in &s.data {
            h = fnv(h, u64::from(v.to_bits()));
        }
        let mut bytes = to_bytes(&s);
        bytes[6..8].copy_from_slice(&1u16.to_le_bytes());
        let trailer = bytes.len() - 8;
        bytes[trailer..].copy_from_slice(&h.to_le_bytes());
        assert_eq!(try_from_bytes(&bytes), Err(CheckpointError::UnsupportedVersion { found: 1 }));
    }

    #[test]
    fn corrupted_length_fields_report_truncation() {
        // the high bits of the payload length (offset 56, after two dims)
        // and of `ndims` (offset 36): a huge length must report more bytes
        // needed than present, not overflow
        let clean = to_bytes(&sample());
        for (field, width) in [(56usize, 8usize), (36, 4)] {
            for bit in 4..8 {
                let mut bytes = clean.clone();
                bytes[field + width - 1] ^= 1 << bit;
                match try_from_bytes(&bytes) {
                    Err(CheckpointError::Truncated { needed, have }) => {
                        assert!(needed > have, "field {field} bit {bit}: {needed} <= {have}")
                    }
                    other => panic!("field {field} bit {bit}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn every_truncation_point_is_typed_not_a_panic() {
        let bytes = to_bytes(&sample());
        for cut in 0..bytes.len() {
            let r = try_from_bytes(&bytes[..cut]);
            assert!(r.is_err(), "truncation at {cut} must fail");
        }
    }

    #[test]
    fn flipped_payload_bit_fails_checksum() {
        let mut bytes = to_bytes(&sample());
        let mid = bytes.len() - 16; // inside the payload, before the trailer
        bytes[mid] ^= 0x40;
        assert!(matches!(try_from_bytes(&bytes), Err(CheckpointError::ChecksumMismatch { .. })));
    }

    #[test]
    fn file_roundtrip_and_missing_file_error() {
        let dir = std::env::temp_dir().join("sf-recover-spill-test");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("ckpt.sfckpt");
        let s = sample();
        write_file(&path, &s).expect("write");
        assert_eq!(read_file(&path).expect("read"), s);
        let missing = dir.join("does-not-exist.sfckpt");
        assert!(matches!(read_file(&missing), Err(CheckpointError::Io { .. })));
        let _ = std::fs::remove_file(&path);
    }
}
