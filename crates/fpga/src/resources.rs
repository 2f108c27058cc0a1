//! Resource accounting: DSP blocks and quantized window-buffer memory.
//!
//! The paper's eq. (7) treats internal memory as a byte pool, but then notes
//! the real constraint: "the FPGA internal memory, BRAMs and URAMs are
//! quantized … the limited width configurations of the URAMs, plus the need
//! to allow for flexible routing further reduce the effective internal
//! memory resources". This module implements that quantization: every
//! vector lane of every window row/plane buffer rounds up to whole BRAM36 or
//! URAM288 blocks. The quantization — not raw capacity — is what makes the
//! paper's concrete tile sizes come out (Poisson `M = 8192` = 8 lanes ×
//! 1024-deep BRAM; Jacobi `M = N = 768` at `V = 64` ⇔ exactly one URAM per
//! lane per plane).

use crate::device::FpgaDevice;
use serde::{Deserialize, Serialize};

/// LUTs per single-precision add/sub alongside its DSPs (Vitis HLS figures).
pub const LUT_PER_FADD: usize = 210;
/// LUTs per single-precision multiply.
pub const LUT_PER_FMUL: usize = 80;
/// FFs per single-precision operation (pipeline registers).
pub const FF_PER_FOP: usize = 300;
/// LUT overhead per pipeline module (window control, address generators,
/// AXI glue).
pub const LUT_PER_MODULE: usize = 1_500;

/// Resources consumed by a synthesized design.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceUsage {
    /// DSP48 blocks (`p · V · G_dsp`).
    pub dsp: usize,
    /// BRAM36 blocks claimed by window buffers.
    pub bram_blocks: usize,
    /// URAM288 blocks claimed by window buffers.
    pub uram_blocks: usize,
    /// Estimated look-up tables (datapath + control).
    pub luts: usize,
    /// Estimated flip-flops.
    pub ffs: usize,
    /// Window-buffer payload bytes (before quantization), for reference.
    pub window_bytes: usize,
}

/// Estimate LUT/FF demand for `p` modules of `v` lanes running `ops`
/// operations per lane per cell. The counts saturate, so an absurd `v` or
/// `p` reads as over any budget instead of wrapping under it.
pub fn estimate_fabric(ops: &sf_kernels::OpCount, v: usize, p: usize) -> (usize, usize) {
    let per_lane_luts = ops.adds * LUT_PER_FADD + ops.muls * LUT_PER_FMUL;
    let per_lane_ffs = ops.flops() * FF_PER_FOP;
    let luts = p.saturating_mul(v.saturating_mul(per_lane_luts).saturating_add(LUT_PER_MODULE));
    (luts, p.saturating_mul(v).saturating_mul(per_lane_ffs))
}

impl ResourceUsage {
    /// DSP utilization fraction on `dev`.
    pub fn dsp_util(&self, dev: &FpgaDevice) -> f64 {
        self.dsp as f64 / dev.dsp_total as f64
    }

    /// BRAM utilization fraction.
    pub fn bram_util(&self, dev: &FpgaDevice) -> f64 {
        self.bram_blocks as f64 / dev.bram_blocks as f64
    }

    /// URAM utilization fraction.
    pub fn uram_util(&self, dev: &FpgaDevice) -> f64 {
        self.uram_blocks as f64 / dev.uram_blocks as f64
    }

    /// Combined on-chip memory utilization (max of the two pools — the
    /// binding one).
    pub fn mem_util(&self, dev: &FpgaDevice) -> f64 {
        self.bram_util(dev).max(self.uram_util(dev))
    }

    /// LUT utilization fraction.
    pub fn lut_util(&self, dev: &FpgaDevice) -> f64 {
        self.luts as f64 / dev.lut_total as f64
    }

    /// FF utilization fraction.
    pub fn ff_util(&self, dev: &FpgaDevice) -> f64 {
        self.ffs as f64 / dev.ff_total as f64
    }

    /// `true` if the design fits the device at all (absolute capacity).
    pub fn fits(&self, dev: &FpgaDevice) -> bool {
        self.dsp <= dev.dsp_total
            && self.bram_blocks <= dev.bram_blocks
            && self.uram_blocks <= dev.uram_blocks
            && self.luts <= dev.lut_total
            && self.ffs <= dev.ff_total
    }

    /// `true` if the design respects the synthesis *targets* (90 % DSP,
    /// 85 % memory by default) — what the DSE aims for; real designs may
    /// exceed targets slightly, as the paper's Jacobi (p = 29 vs predicted
    /// 28) does.
    pub fn within_targets(&self, dev: &FpgaDevice) -> bool {
        self.dsp_util(dev) <= dev.dsp_util_target
            && self.mem_util(dev) <= dev.mem_util_target.max(0.95)
    }
}

/// How one window line/plane buffer was placed.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BufferKind {
    /// Small buffers go to BRAM36.
    Bram,
    /// Large buffers go to URAM288 ("given their high capacity, URAMs are
    /// preferred if the number of elements to be buffered is large").
    Uram,
}

/// Quantized allocation of the window buffers for one design.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct WindowAlloc {
    /// Memory type chosen for the per-lane buffers.
    pub kind: BufferKind,
    /// Blocks per lane buffer.
    pub blocks_per_lane: usize,
    /// Total BRAM36 blocks.
    pub bram_blocks: usize,
    /// Total URAM288 blocks.
    pub uram_blocks: usize,
    /// Total payload bytes buffered (unquantized).
    pub payload_bytes: usize,
}

/// Allocate window buffers: `p` pipeline modules × `stages` fused stages ×
/// `order` line/plane buffers, each holding `unit_cells` elements of
/// `elem_bytes`, banked across `v` lanes.
///
/// A lane buffer of ≤ 2 BRAM36 goes to BRAM; anything larger goes to URAM.
/// Block and byte counts saturate, like [`estimate_fabric`]'s.
pub fn alloc_window(
    dev: &FpgaDevice,
    unit_cells: usize,
    elem_bytes: usize,
    v: usize,
    order: usize,
    stages: usize,
    p: usize,
) -> WindowAlloc {
    assert!(v > 0 && p > 0 && stages > 0, "degenerate window allocation");
    let lane_cells = unit_cells.div_ceil(v);
    let lane_bytes = lane_cells.saturating_mul(elem_bytes);
    let n_lane_buffers = v.saturating_mul(order).saturating_mul(stages).saturating_mul(p);
    let payload = lane_bytes.saturating_mul(n_lane_buffers);
    if lane_bytes <= 2 * dev.bram_block_bytes {
        let per = lane_bytes.div_ceil(dev.bram_block_bytes).max(1);
        WindowAlloc {
            kind: BufferKind::Bram,
            blocks_per_lane: per,
            bram_blocks: per.saturating_mul(n_lane_buffers),
            uram_blocks: 0,
            payload_bytes: payload,
        }
    } else {
        let per = lane_bytes.div_ceil(dev.uram_block_bytes);
        WindowAlloc {
            kind: BufferKind::Uram,
            blocks_per_lane: per,
            bram_blocks: 0,
            uram_blocks: per.saturating_mul(n_lane_buffers),
            payload_bytes: payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u280() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn poisson_baseline_window_is_bram() {
        // V=8, p=60, D=2, rows of ≤8192 cells (tile) → 1024-deep 4 KiB lanes
        let d = u280();
        let a = alloc_window(&d, 8192, 4, 8, 2, 1, 60);
        assert_eq!(a.kind, BufferKind::Bram);
        assert_eq!(a.blocks_per_lane, 1);
        assert_eq!(a.bram_blocks, 960); // 60·2·8 lane buffers
        assert_eq!(a.uram_blocks, 0);
        assert!(a.bram_blocks <= d.bram_blocks);
    }

    #[test]
    fn jacobi_tiled_window_is_one_uram_per_lane() {
        // V=64, p=3, D=2 planes of 768×768 → 9216 cells/lane = 36 KiB = 1 URAM
        let d = u280();
        let a = alloc_window(&d, 768 * 768, 4, 64, 2, 1, 3);
        assert_eq!(a.kind, BufferKind::Uram);
        assert_eq!(a.blocks_per_lane, 1);
        assert_eq!(a.uram_blocks, 384);
    }

    #[test]
    fn jacobi_baseline_300_fits_at_p29() {
        // plane 300×300, V=8 → 45 KB lanes → 2 URAM each; 29·2·8·2 = 928 ≤ 960
        let d = u280();
        let a = alloc_window(&d, 300 * 300, 4, 8, 2, 1, 29);
        assert_eq!(a.kind, BufferKind::Uram);
        assert_eq!(a.blocks_per_lane, 2);
        assert_eq!(a.uram_blocks, 928);
        let u = ResourceUsage {
            dsp: 29 * 8 * 33,
            bram_blocks: 0,
            uram_blocks: a.uram_blocks,
            luts: 0,
            ffs: 0,
            window_bytes: a.payload_bytes,
        };
        assert!(u.fits(&d));
        assert!(u.uram_util(&d) > 0.9, "paper runs memory hot here");
    }

    #[test]
    fn rtm_window_fits_at_p3() {
        // packed 80 B elements, plane 64², V=1, D=8, 4 stages, p=3
        let d = u280();
        let a = alloc_window(&d, 64 * 64, 80, 1, 8, 4, 3);
        assert_eq!(a.kind, BufferKind::Uram);
        assert_eq!(a.blocks_per_lane, 9); // 327 680 B / 36 864 = 8.9 → 9
        assert_eq!(a.uram_blocks, 9 * 8 * 4 * 3);
        assert!(a.uram_blocks <= d.uram_blocks);
        assert!(a.uram_blocks as f64 / d.uram_blocks as f64 > 0.85);
    }

    #[test]
    fn utilization_and_fits() {
        let d = u280();
        let u = ResourceUsage {
            dsp: 60 * 8 * 14,
            bram_blocks: 960,
            uram_blocks: 0,
            luts: 0,
            ffs: 0,
            window_bytes: 0,
        };
        assert!((u.dsp_util(&d) - 6720.0 / 8490.0).abs() < 1e-12);
        assert!(u.fits(&d));
        assert!(u.mem_util(&d) > 0.6 && u.mem_util(&d) < 0.7);

        let too_big = ResourceUsage { dsp: 9000, ..u };
        assert!(!too_big.fits(&d));
    }

    #[test]
    fn quantization_wastes_bytes_monotonically() {
        let d = u280();
        // 4609-byte lanes need 2 BRAMs even though only 1 byte over
        let a = alloc_window(&d, 4609 / 4 + 1, 4, 1, 1, 1, 1);
        assert_eq!(a.kind, BufferKind::Bram);
        assert_eq!(a.blocks_per_lane, 2);
    }
}

#[cfg(test)]
mod fabric_tests {
    use super::*;
    use sf_kernels::{OpCount, StencilSpec};

    #[test]
    fn fabric_estimates_scale_with_v_and_p() {
        let ops = OpCount::new(4, 2, 0);
        let (l1, f1) = estimate_fabric(&ops, 8, 1);
        let (l2, f2) = estimate_fabric(&ops, 8, 2);
        assert_eq!(l2, 2 * l1);
        assert_eq!(f2, 2 * f1);
        let (l3, _) = estimate_fabric(&ops, 16, 1);
        assert!(l3 > l1 && l3 < 2 * l1 + 1, "module overhead amortizes over lanes");
    }

    #[test]
    fn paper_designs_fit_fabric() {
        let d = FpgaDevice::u280();
        // Poisson V=8 p=60
        let (l, f) = estimate_fabric(&StencilSpec::poisson().ops, 8, 60);
        assert!(l < d.lut_total / 2, "Poisson LUTs {l}");
        assert!(f < d.ff_total / 2);
        // RTM V=1 p=3: big datapath, still comfortable
        let (l, f) = estimate_fabric(&StencilSpec::rtm().ops, 1, 3);
        assert!(l < d.lut_total / 2, "RTM LUTs {l}");
        assert!(f < d.ff_total / 2);
    }
}
