//! Design synthesis: turning `(application, V, p, execution mode)` into a
//! placed, clocked, resource-checked accelerator configuration.
//!
//! [`synthesize`] is the simulator's stand-in for Vivado HLS + place &
//! route: it allocates the quantized window buffers, counts DSPs, verifies
//! the configuration fits the device and its memory-bandwidth envelope
//! (paper eq. 4), and computes the achieved clock via the congestion model.
//! The result, [`StencilDesign`], is what the executors and the power model
//! consume, and its fields populate the "actual" columns of Table II.

use crate::axi;
use crate::clock;
use crate::device::FpgaDevice;
use crate::resources::{alloc_window, ResourceUsage};
use serde::{Deserialize, Serialize};
use sf_kernels::StencilSpec;

/// Which external memory the design streams through.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemKind {
    /// High Bandwidth Memory (32 channels on the U280).
    Hbm,
    /// DDR4 (2 banks; the paper's choice for large tiled meshes).
    Ddr4,
}

/// Execution strategy (§III baseline, §IV-A tiling, §IV-B batching).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecMode {
    /// Whole mesh streamed per pass; one problem.
    Baseline,
    /// `b` same-shaped problems stacked along the last dimension.
    Batched {
        /// Number of meshes in the batch (the paper's `B`).
        b: usize,
    },
    /// 2D meshes: tiles of `tile_m` cells along x, full extent in y.
    Tiled1D {
        /// Tile width `M` in cells.
        tile_m: usize,
    },
    /// 3D meshes: `tile_m × tile_n` blocks in x/y, full extent in z.
    Tiled2D {
        /// Tile width `M`.
        tile_m: usize,
        /// Tile height `N`.
        tile_n: usize,
    },
}

impl ExecMode {
    /// Batch factor of the mode (1 except for `Batched`).
    pub fn batch(&self) -> usize {
        match self {
            ExecMode::Batched { b } => *b,
            _ => 1,
        }
    }

    /// `true` for the spatially blocked modes.
    pub fn is_tiled(&self) -> bool {
        matches!(self, ExecMode::Tiled1D { .. } | ExecMode::Tiled2D { .. })
    }
}

/// The problem shape a design is synthesized for.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Workload {
    /// A (batch of) 2D problem(s).
    D2 {
        /// Row length (paper's `m`).
        nx: usize,
        /// Rows (paper's `n`).
        ny: usize,
        /// Independent meshes (1 = single problem).
        batch: usize,
    },
    /// A (batch of) 3D problem(s).
    D3 {
        /// Fastest dimension (paper's `m`).
        nx: usize,
        /// Middle dimension (paper's `n`).
        ny: usize,
        /// Plane count (paper's `l`).
        nz: usize,
        /// Independent meshes.
        batch: usize,
    },
}

impl Workload {
    /// Cells in one mesh.
    pub fn cells(&self) -> u64 {
        match *self {
            Workload::D2 { nx, ny, .. } => (nx * ny) as u64,
            Workload::D3 { nx, ny, nz, .. } => (nx * ny * nz) as u64,
        }
    }

    /// Cells across the whole batch.
    pub fn total_cells(&self) -> u64 {
        self.cells() * self.batch() as u64
    }

    /// Batch factor.
    pub fn batch(&self) -> usize {
        match *self {
            Workload::D2 { batch, .. } | Workload::D3 { batch, .. } => batch,
        }
    }

    /// Mesh dimensionality.
    pub fn dims(&self) -> usize {
        match self {
            Workload::D2 { .. } => 2,
            Workload::D3 { .. } => 3,
        }
    }

    /// Row length `nx`.
    pub fn nx(&self) -> usize {
        match *self {
            Workload::D2 { nx, .. } | Workload::D3 { nx, .. } => nx,
        }
    }
}

/// Why synthesis rejected a configuration.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum SynthesisError {
    /// Not enough DSP blocks: `p_dsp` would be below the requested `p`.
    InsufficientDsp {
        /// DSPs required.
        need: usize,
        /// DSPs on the device.
        have: usize,
    },
    /// Window buffers exceed BRAM/URAM capacity (`p_mem` below requested).
    InsufficientMemory {
        /// BRAM blocks required.
        need_bram: usize,
        /// URAM blocks required.
        need_uram: usize,
    },
    /// Requested vectorization exceeds the memory system's channels (eq. 4).
    InsufficientBandwidth {
        /// Channels required per direction.
        need_channels: usize,
        /// Channels available per direction.
        have_channels: usize,
    },
    /// Structurally invalid configuration (e.g. tile smaller than halo).
    Invalid(String),
    /// The module chain could not be floorplanned onto the SLRs.
    PlacementFailed(String),
    /// The workload's ping-pong buffers exceed the external memory.
    MeshTooLarge {
        /// Bytes the workload needs resident (input + output buffers).
        need_bytes: u64,
        /// Capacity of the selected memory.
        have_bytes: u64,
    },
}

impl core::fmt::Display for SynthesisError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SynthesisError::InsufficientDsp { need, have } => {
                write!(f, "insufficient DSPs: need {need}, device has {have}")
            }
            SynthesisError::InsufficientMemory { need_bram, need_uram } => {
                write!(f, "window buffers do not fit: need {need_bram} BRAM + {need_uram} URAM")
            }
            SynthesisError::InsufficientBandwidth { need_channels, have_channels } => {
                write!(f, "need {need_channels} channels/direction, memory has {have_channels}")
            }
            SynthesisError::Invalid(s) => write!(f, "invalid configuration: {s}"),
            SynthesisError::PlacementFailed(s) => write!(f, "SLR placement failed: {s}"),
            SynthesisError::MeshTooLarge { need_bytes, have_bytes } => {
                write!(f, "workload needs {need_bytes} B resident, memory holds {have_bytes} B")
            }
        }
    }
}

impl std::error::Error for SynthesisError {}

/// A synthesized accelerator configuration.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StencilDesign {
    /// The application this design implements.
    pub spec: StencilSpec,
    /// Vectorization factor (cells updated per cycle).
    pub v: usize,
    /// Iterative-loop unroll factor (pipeline modules chained).
    pub p: usize,
    /// Execution strategy.
    pub mode: ExecMode,
    /// External memory binding.
    pub mem: MemKind,
    /// Achieved kernel clock (Hz), from the congestion model.
    pub freq_hz: f64,
    /// Resources consumed.
    pub resources: ResourceUsage,
    /// Read channels assigned.
    pub read_channels: usize,
    /// Write channels assigned.
    pub write_channels: usize,
    /// Compute-pipeline latency in cycles for the full chained pipeline
    /// (excluding window fill, which the cycle model adds per pass).
    pub pipeline_latency_cycles: u64,
    /// SLR floorplan of the module chain.
    pub placement: crate::slr::SlrPlacement,
}

impl StencilDesign {
    /// Achieved clock in MHz (rounded).
    pub fn freq_mhz(&self) -> f64 {
        self.freq_hz / 1.0e6
    }
}

/// Width (cells) of the buffered streaming unit for a mode/workload: rows
/// for 2D, planes for 3D; tiles shrink it.
fn buffered_unit_cells(
    spec: &StencilSpec,
    mode: &ExecMode,
    wl: &Workload,
) -> Result<usize, SynthesisError> {
    match (wl, mode) {
        (Workload::D2 { nx, .. }, ExecMode::Tiled1D { tile_m }) => {
            let _ = nx;
            Ok(*tile_m)
        }
        (Workload::D2 { nx, .. }, _) => Ok(*nx),
        (Workload::D3 { .. }, ExecMode::Tiled2D { tile_m, tile_n }) => Ok(tile_m * tile_n),
        (Workload::D3 { nx, ny, .. }, _) => Ok(nx * ny),
        // note: Tiled2D on a 2D workload / Tiled1D on 3D are rejected below
    }
    .and_then(|cells| {
        if spec.dims != wl.dims() {
            return Err(SynthesisError::Invalid(format!(
                "{}D app on {}D workload",
                spec.dims,
                wl.dims()
            )));
        }
        Ok(cells)
    })
}

/// ```
/// use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
/// use sf_fpga::FpgaDevice;
/// use sf_kernels::StencilSpec;
///
/// let dev = FpgaDevice::u280();
/// let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
/// // the paper's Poisson configuration: V=8, p=60
/// let design = synthesize(&dev, &StencilSpec::poisson(), 8, 60,
///                         ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
/// assert_eq!(design.resources.dsp, 60 * 8 * 14);
/// assert!((design.freq_mhz() - 250.0).abs() < 10.0);
///
/// // a config exceeding the DSP budget is rejected with the reason
/// assert!(synthesize(&dev, &StencilSpec::poisson(), 64, 60,
///                    ExecMode::Baseline, MemKind::Hbm, &wl).is_err());
/// ```
/// Synthesize a design. This is the simulator's stand-in for HLS synthesis +
/// place & route; see module docs.
pub fn synthesize(
    dev: &FpgaDevice,
    spec: &StencilSpec,
    v: usize,
    p: usize,
    mode: ExecMode,
    mem: MemKind,
    wl: &Workload,
) -> Result<StencilDesign, SynthesisError> {
    if v == 0 || p == 0 {
        return Err(SynthesisError::Invalid("V and p must be positive".into()));
    }
    match (wl.dims(), &mode) {
        (2, ExecMode::Tiled2D { .. }) => {
            return Err(SynthesisError::Invalid("Tiled2D mode is for 3D workloads".into()))
        }
        (3, ExecMode::Tiled1D { .. }) => {
            return Err(SynthesisError::Invalid("Tiled1D mode is for 2D workloads".into()))
        }
        _ => {}
    }
    // A tile must leave valid cells between its two halos (eq. 8, M > pD).
    let both_halos = spec.halo(p).saturating_mul(2);
    if let ExecMode::Tiled1D { tile_m } = mode {
        if tile_m <= both_halos {
            return Err(SynthesisError::Invalid(format!(
                "tile M={tile_m} must exceed twice the halo, 2h={both_halos}"
            )));
        }
    }
    if let ExecMode::Tiled2D { tile_m, tile_n } = mode {
        if tile_m <= both_halos || tile_n <= both_halos {
            return Err(SynthesisError::Invalid(format!(
                "tile {tile_m}×{tile_n} must exceed twice the halo, 2h={both_halos}"
            )));
        }
    }

    // --- channel assignment + bandwidth feasibility (paper eq. 4) ---
    let mem_spec = match mem {
        MemKind::Hbm => &dev.hbm,
        MemKind::Ddr4 => &dev.ddr4,
    };
    let read_channels = axi::channels_needed(dev, mem_spec, v, spec.ext_read_bytes);
    let write_channels = axi::channels_needed(dev, mem_spec, v, spec.ext_write_bytes);

    // --- external capacity: ping-pong input/output buffers must be resident ---
    let resident = wl.total_cells() * (spec.ext_read_bytes + spec.ext_write_bytes) as u64;
    if resident > mem_spec.bytes {
        return Err(SynthesisError::MeshTooLarge {
            need_bytes: resident,
            have_bytes: mem_spec.bytes,
        });
    }
    let have = mem_spec.channels / 2; // per direction
    if read_channels.max(write_channels) > have.max(1) {
        return Err(SynthesisError::InsufficientBandwidth {
            need_channels: read_channels.max(write_channels),
            have_channels: have.max(1),
        });
    }

    // --- resources ---
    let dsp = p.saturating_mul(v).saturating_mul(spec.gdsp());
    if dsp > dev.dsp_total {
        return Err(SynthesisError::InsufficientDsp { need: dsp, have: dev.dsp_total });
    }
    let unit = buffered_unit_cells(spec, &mode, wl)?;
    let alloc = alloc_window(dev, unit, spec.window_elem_bytes, v, spec.order, spec.stages, p);
    // stream FIFOs: between chained stages and on the memory interfaces
    let fifo_bram = crate::fifo::fifo_brams(
        dev.bram_block_bytes,
        dev.axi_burst_bytes,
        v,
        spec.window_elem_bytes,
        p.saturating_mul(spec.stages),
    );
    let bram_blocks = alloc.bram_blocks.saturating_add(fifo_bram);
    if bram_blocks > dev.bram_blocks || alloc.uram_blocks > dev.uram_blocks {
        return Err(SynthesisError::InsufficientMemory {
            need_bram: bram_blocks,
            need_uram: alloc.uram_blocks,
        });
    }
    let (luts, ffs) = crate::resources::estimate_fabric(&spec.ops, v, p);
    if luts > dev.lut_total || ffs > dev.ff_total {
        return Err(SynthesisError::Invalid(format!(
            "fabric exhausted: {luts} LUTs / {ffs} FFs estimated"
        )));
    }
    let resources = ResourceUsage {
        dsp,
        bram_blocks,
        uram_blocks: alloc.uram_blocks,
        luts,
        ffs,
        window_bytes: alloc.payload_bytes,
    };

    // --- SLR floorplan ---
    let demand = crate::slr::ModuleDemand {
        dsp: dsp / p,
        bram: alloc.bram_blocks / p,
        uram: alloc.uram_blocks / p,
    };
    let placement = crate::slr::place_chain(dev, p, demand)
        .map_err(|e| SynthesisError::PlacementFailed(e.to_string()))?;

    // --- clock closure ---
    let freq_hz = clock::achieved_frequency_placed(
        dev,
        &resources,
        p,
        placement.crossings,
        placement.spanning_modules,
    );

    let pipeline_latency_cycles = (spec.pipeline_latency() * p) as u64;

    Ok(StencilDesign {
        spec: *spec,
        v,
        p,
        mode,
        mem,
        freq_hz,
        resources,
        read_channels,
        write_channels,
        pipeline_latency_cycles,
        placement,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn poisson_paper_design_synthesizes() {
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let ds =
            synthesize(&d, &StencilSpec::poisson(), 8, 60, ExecMode::Baseline, MemKind::Hbm, &wl)
                .expect("paper design must synthesize");
        assert_eq!(ds.resources.dsp, 6720);
        assert_eq!(ds.read_channels, 1);
        assert_eq!(ds.write_channels, 1);
        let mhz = ds.freq_mhz();
        assert!((mhz - 250.0).abs() <= 10.0, "freq {mhz} vs paper 250 MHz");
    }

    #[test]
    fn jacobi_paper_design_synthesizes() {
        let d = dev();
        let wl = Workload::D3 { nx: 300, ny: 300, nz: 300, batch: 1 };
        let ds =
            synthesize(&d, &StencilSpec::jacobi(), 8, 29, ExecMode::Baseline, MemKind::Hbm, &wl)
                .expect("paper design must synthesize");
        assert_eq!(ds.resources.dsp, 7656);
        assert_eq!(ds.resources.uram_blocks, 928);
        assert!((ds.freq_mhz() - 246.0).abs() <= 10.0);
    }

    #[test]
    fn rtm_paper_design_synthesizes() {
        let d = dev();
        let wl = Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 };
        let ds = synthesize(&d, &StencilSpec::rtm(), 1, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
            .expect("paper design must synthesize");
        assert_eq!(ds.resources.dsp, 3 * 1974);
        assert_eq!(ds.resources.uram_blocks, 864);
        assert!((ds.freq_mhz() - 261.0).abs() <= 10.0);
    }

    #[test]
    fn rtm_p4_does_not_fit() {
        // The paper: p=4 (needed for tiling) "requires a large amount of FPGA
        // internal memory, making an implementation on the U280 challenging".
        let d = dev();
        let wl = Workload::D3 { nx: 96, ny: 96, nz: 96, batch: 1 };
        let err = synthesize(&d, &StencilSpec::rtm(), 1, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap_err();
        assert!(matches!(err, SynthesisError::InsufficientMemory { .. }), "{err}");
    }

    #[test]
    fn oversized_mesh_exhausts_window_memory() {
        // eq. (7): big meshes can push p_mem below 1
        let d = dev();
        let wl = Workload::D3 { nx: 2500, ny: 2500, nz: 100, batch: 1 };
        let err =
            synthesize(&d, &StencilSpec::jacobi(), 8, 29, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap_err();
        assert!(matches!(err, SynthesisError::InsufficientMemory { .. }));
    }

    #[test]
    fn tiling_restores_feasibility_for_large_mesh() {
        let d = dev();
        let wl = Workload::D3 { nx: 2500, ny: 2500, nz: 100, batch: 1 };
        let ds = synthesize(
            &d,
            &StencilSpec::jacobi(),
            64,
            3,
            ExecMode::Tiled2D { tile_m: 768, tile_n: 768 },
            MemKind::Hbm,
            &wl,
        )
        .expect("tiled design must fit");
        assert_eq!(ds.resources.uram_blocks, 384);
        // 256 B/cycle over 47.9 B/cycle HBM channels → 6 per direction
        assert_eq!(ds.read_channels, 6);
    }

    #[test]
    fn excessive_dsp_rejected() {
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let err =
            synthesize(&d, &StencilSpec::poisson(), 64, 60, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap_err();
        assert!(matches!(err, SynthesisError::InsufficientDsp { .. }));
    }

    #[test]
    fn ddr4_limits_vectorization() {
        // V=64 needs 4 channels/direction; DDR4 has 1 per direction
        let d = dev();
        let wl = Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 };
        let err = synthesize(
            &d,
            &StencilSpec::jacobi(),
            64,
            3,
            ExecMode::Tiled2D { tile_m: 640, tile_n: 640 },
            MemKind::Ddr4,
            &wl,
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::InsufficientBandwidth { .. }));
    }

    #[test]
    fn tile_must_exceed_halo() {
        let d = dev();
        let wl = Workload::D2 { nx: 15000, ny: 15000, batch: 1 };
        let err = synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Tiled1D { tile_m: 120 },
            MemKind::Ddr4,
            &wl,
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::Invalid(_)));
    }

    #[test]
    fn mode_dimensionality_checked() {
        let d = dev();
        let wl2 = Workload::D2 { nx: 100, ny: 100, batch: 1 };
        assert!(synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Tiled2D { tile_m: 64, tile_n: 64 },
            MemKind::Hbm,
            &wl2
        )
        .is_err());
        let wl3 = Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 };
        assert!(synthesize(
            &d,
            &StencilSpec::jacobi(),
            8,
            4,
            ExecMode::Tiled1D { tile_m: 64 },
            MemKind::Hbm,
            &wl3
        )
        .is_err());
    }

    #[test]
    fn workload_accessors() {
        let w2 = Workload::D2 { nx: 10, ny: 20, batch: 5 };
        assert_eq!(w2.cells(), 200);
        assert_eq!(w2.total_cells(), 1000);
        assert_eq!(w2.dims(), 2);
        let w3 = Workload::D3 { nx: 4, ny: 5, nz: 6, batch: 2 };
        assert_eq!(w3.cells(), 120);
        assert_eq!(w3.total_cells(), 240);
        assert_eq!(w3.nx(), 4);
    }
}

#[cfg(test)]
mod capacity_tests {
    use super::*;
    use sf_kernels::StencilSpec;

    #[test]
    fn oversized_mesh_rejected_for_external_capacity() {
        // 100 000² f32 = 40 GB resident (in+out) > 32 GB DDR4
        let d = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 100_000, ny: 100_000, batch: 1 };
        let err = synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Tiled1D { tile_m: 8192 },
            MemKind::Ddr4,
            &wl,
        )
        .unwrap_err();
        assert!(matches!(err, SynthesisError::MeshTooLarge { .. }), "{err}");
        assert!(format!("{err}").contains("resident"));
    }

    #[test]
    fn hbm_capacity_tighter_than_ddr4() {
        // 25 000² = 5 GB resident: fits 32 GB DDR4, not 8 GB HBM... 25 000²·8 = 5 GB ≤ 8 GB;
        // use 35 000²·8 B = 9.8 GB: rejected on HBM, accepted on DDR4
        let d = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 35_000, ny: 35_000, batch: 1 };
        let hbm = synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Tiled1D { tile_m: 8192 },
            MemKind::Hbm,
            &wl,
        );
        assert!(matches!(hbm, Err(SynthesisError::MeshTooLarge { .. })));
        let ddr = synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Tiled1D { tile_m: 8192 },
            MemKind::Ddr4,
            &wl,
        );
        assert!(ddr.is_ok(), "{:?}", ddr.err());
    }

    #[test]
    fn paper_largest_meshes_fit() {
        // the paper's largest runs must not trip the capacity check:
        // Poisson 20000² on DDR4 (3.2 GB), Jacobi 600³ on HBM (1.7 GB)
        let d = FpgaDevice::u280();
        let p = Workload::D2 { nx: 20_000, ny: 20_000, batch: 1 };
        assert!(synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Tiled1D { tile_m: 4096 },
            MemKind::Ddr4,
            &p
        )
        .is_ok());
        let j = Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 };
        assert!(synthesize(
            &d,
            &StencilSpec::jacobi(),
            64,
            3,
            ExecMode::Tiled2D { tile_m: 640, tile_n: 640 },
            MemKind::Hbm,
            &j
        )
        .is_ok());
    }
}
