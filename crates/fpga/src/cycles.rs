//! The closed-form cycle/traffic model of the streaming executors.
//!
//! This is the simulator's ground truth for *time*: the streaming executors
//! process exactly the row/plane schedule priced here, so the numbers below
//! are the cycle counts a waveform of the dataflow design would show. It
//! implements the paper's eq. (2)/(3) structure plus the measured overheads:
//!
//! * per-row issue gap (`axi_issue_gap_cycles`, ≈ 3),
//! * pipeline fill of `p · stages · D/2` rows/planes per pass,
//! * compute/memory max per row ([`crate::axi::row_cycles`]),
//! * compute-pipeline latency plus residual host enqueue latency per pass,
//! * per-tile control-loop turnaround for blocked execution.
//!
//! The *predictive* model in `sf-model` is the paper's idealized equations;
//! comparing it against this module is the reproduction of the paper's
//! "±15 %" accuracy claim.

use crate::axi;
use crate::design::{ExecMode, MemKind, StencilDesign, Workload};
use crate::device::{FpgaDevice, MemorySpec};
use serde::{Deserialize, Serialize};
use sf_mesh::TileGrid1D;

/// Timing and traffic for a full solve (`niter` iterations of a workload on
/// a design).
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CyclePlan {
    /// Kernel passes (each pass advances `p` iterations).
    pub passes: u64,
    /// Cycles per pass (streaming + fill + pipeline latency).
    pub cycles_per_pass: u64,
    /// Total kernel cycles.
    pub total_cycles: u64,
    /// Host kernel enqueues.
    pub host_calls: u64,
    /// Wall-clock runtime in seconds (cycles/f + host latency).
    pub runtime_s: f64,
    /// External bytes read from DDR4/HBM over the whole solve.
    pub ext_read_bytes: u64,
    /// External bytes written.
    pub ext_write_bytes: u64,
    /// Logical bytes (the paper's bandwidth-accounting convention:
    /// mesh data accessed by the stencil loop, all iterations).
    pub logical_bytes: u64,
    /// `niter × total mesh cells` — cell updates delivered.
    pub cell_iters: u64,
}

impl CyclePlan {
    /// The paper's reported bandwidth: logical bytes / runtime, GB/s.
    /// Degenerate plans (a zero or non-finite runtime, e.g. `niter = 0`)
    /// report 0.0 rather than leaking NaN/inf into metrics JSON.
    pub fn bandwidth_gbs(&self) -> f64 {
        if !self.runtime_s.is_finite() || self.runtime_s <= 0.0 {
            return 0.0;
        }
        self.logical_bytes as f64 / self.runtime_s / 1.0e9
    }

    /// Delivered compute throughput in cell updates per second; 0.0 for
    /// degenerate zero-runtime plans (see [`CyclePlan::bandwidth_gbs`]).
    pub fn cells_per_sec(&self) -> f64 {
        if !self.runtime_s.is_finite() || self.runtime_s <= 0.0 {
            return 0.0;
        }
        self.cell_iters as f64 / self.runtime_s
    }
}

fn mem_spec(dev: &FpgaDevice, mem: MemKind) -> &MemorySpec {
    match mem {
        MemKind::Hbm => &dev.hbm,
        MemKind::Ddr4 => &dev.ddr4,
    }
}

/// Fill rows/planes per pass: each of the `p · stages` chained stages delays
/// the stream by `⌈D/2⌉` rows (2D) or planes (3D) — the `p·D/2` term of
/// eqs. (2)/(3) generalized to fused multi-stage pipelines. The division is
/// a ceiling *per chained stage*: an odd-order stencil still holds back a
/// whole extra row before its window is primed, so flooring the product
/// (`p·stages·D/2`) would under-price fill latency for odd `D`.
pub fn fill_units(design: &StencilDesign) -> u64 {
    design.spec.halo(design.p) as u64
}

/// The tile grids of a design over an `nx × ny` plane — the one place the
/// tile halo ([`sf_kernels::StencilSpec::halo`]) and the AXI alignment are
/// applied. x tiles of `tile_m` read cells align to the bus word; `Tiled2D`
/// y tiles of `tile_n` are unaligned. An axis the mode does not tile is a
/// single whole-extent tile.
pub fn tile_grids(
    dev: &FpgaDevice,
    design: &StencilDesign,
    nx: usize,
    ny: usize,
) -> (TileGrid1D, TileGrid1D) {
    let halo = design.spec.halo(design.p);
    let align = (dev.axi_bus_bytes / design.spec.elem_bytes).max(1);
    let whole = |n| TileGrid1D::new(n, n, 0, 1);
    match design.mode {
        ExecMode::Tiled1D { tile_m } => (TileGrid1D::new(nx, tile_m, halo, align), whole(ny)),
        ExecMode::Tiled2D { tile_m, tile_n } => {
            (TileGrid1D::new(nx, tile_m, halo, align), TileGrid1D::new(ny, tile_n, halo, 1))
        }
        ExecMode::Baseline | ExecMode::Batched { .. } => (whole(nx), whole(ny)),
    }
}

/// Cycles for one streamed row of the design: the max of compute issue and
/// AXI read/write service for `cells` lanes-worth of elements, plus the
/// per-row issue gap. Exposed for the multi-device planner (`sf-multi`),
/// which prices per-shard slabs with the same per-row cost.
pub fn design_row_cycles(
    dev: &FpgaDevice,
    design: &StencilDesign,
    cells: usize,
    write_cells: usize,
) -> u64 {
    axi::row_cycles(
        dev,
        mem_spec(dev, design.mem),
        design.freq_hz,
        design.v,
        cells,
        cells * design.spec.ext_read_bytes,
        write_cells * design.spec.ext_write_bytes,
        design.read_channels,
        design.write_channels,
    )
}

/// Plan a full solve.
///
/// # Panics
/// Panics if the design's mode/workload dimensionality disagree (synthesis
/// prevents constructing such designs).
pub fn plan(dev: &FpgaDevice, design: &StencilDesign, wl: &Workload, niter: u64) -> CyclePlan {
    let p = design.p as u64;
    let passes = niter.div_ceil(p).max(1);
    let spec = &design.spec;
    let fill = fill_units(design);

    let (cycles_per_pass, read_per_pass, write_per_pass) = match (*wl, design.mode) {
        // ---- whole-mesh streaming (baseline / batched), 2D ----
        (Workload::D2 { nx, ny, batch }, ExecMode::Baseline | ExecMode::Batched { .. }) => {
            let rows = (batch * ny) as u64 + fill;
            let rc = design_row_cycles(dev, design, nx, nx);
            let cells = (batch * ny * nx) as u64;
            (
                rows * rc + design.pipeline_latency_cycles,
                cells * spec.ext_read_bytes as u64,
                cells * spec.ext_write_bytes as u64,
            )
        }
        // ---- whole-mesh streaming, 3D ----
        (Workload::D3 { nx, ny, nz, batch }, ExecMode::Baseline | ExecMode::Batched { .. }) => {
            let planes = (batch * nz) as u64 + fill;
            let rows = planes * ny as u64;
            let rc = design_row_cycles(dev, design, nx, nx);
            let cells = (batch * nz * ny * nx) as u64;
            (
                rows * rc + design.pipeline_latency_cycles,
                cells * spec.ext_read_bytes as u64,
                cells * spec.ext_write_bytes as u64,
            )
        }
        // ---- 2D spatial blocking: tiles along x, full y extent ----
        (Workload::D2 { nx, ny, .. }, ExecMode::Tiled1D { .. }) => {
            let (grid, _) = tile_grids(dev, design, nx, ny);
            let mut cycles = 0u64;
            let mut read = 0u64;
            let mut write = 0u64;
            for t in grid.tiles() {
                let rows = ny as u64 + fill;
                let rc = design_row_cycles(dev, design, t.read_len, t.valid_len);
                cycles += rows * rc + dev.axi_latency_cycles as u64;
                read += (t.read_len * ny) as u64 * spec.ext_read_bytes as u64;
                write += (t.valid_len * ny) as u64 * spec.ext_write_bytes as u64;
            }
            (cycles + design.pipeline_latency_cycles, read, write)
        }
        // ---- 3D spatial blocking: M × N tiles, full z extent ----
        (Workload::D3 { nx, ny, nz, .. }, ExecMode::Tiled2D { .. }) => {
            let (gx, gy) = tile_grids(dev, design, nx, ny);
            let mut cycles = 0u64;
            let mut read = 0u64;
            let mut write = 0u64;
            for ty in gy.tiles() {
                for tx in gx.tiles() {
                    let planes = nz as u64 + fill;
                    let rows = planes * ty.read_len as u64;
                    let rc = design_row_cycles(dev, design, tx.read_len, tx.valid_len);
                    cycles += rows * rc + dev.axi_latency_cycles as u64;
                    read += (tx.read_len * ty.read_len * nz) as u64 * spec.ext_read_bytes as u64;
                    write +=
                        (tx.valid_len * ty.valid_len * nz) as u64 * spec.ext_write_bytes as u64;
                }
            }
            (cycles + design.pipeline_latency_cycles, read, write)
        }
        (Workload::D2 { .. }, ExecMode::Tiled2D { .. })
        | (Workload::D3 { .. }, ExecMode::Tiled1D { .. }) => {
            unreachable!("synthesis rejects mismatched mode/workload dims")
        }
    };

    let total_cycles = passes * cycles_per_pass;
    let host_calls = passes;
    let runtime_s =
        total_cycles as f64 / design.freq_hz + host_calls as f64 * dev.host_call_latency_s;
    let cell_iters = niter * wl.total_cells();
    CyclePlan {
        passes,
        cycles_per_pass,
        total_cycles,
        host_calls,
        runtime_s,
        ext_read_bytes: passes * read_per_pass,
        ext_write_bytes: passes * write_per_pass,
        logical_bytes: cell_iters * spec.logical_rw_bytes as u64,
        cell_iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, MemKind};
    use sf_kernels::StencilSpec;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn poisson_design(wl: &Workload, mode: ExecMode, mem: MemKind) -> StencilDesign {
        synthesize(&dev(), &StencilSpec::poisson(), 8, 60, mode, mem, wl).unwrap()
    }

    #[test]
    fn poisson_baseline_structure_matches_eq2() {
        // paper eq. (2): Clks = niter/p × (ceil(m/V) × (n + p·D/2))
        let d = dev();
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let ds = poisson_design(&wl, ExecMode::Baseline, MemKind::Hbm);
        let pl = plan(&d, &ds, &wl, 60_000);
        assert_eq!(pl.passes, 1000);
        // rows per pass: 100 + 60·1 = 160; row = 25 compute + 3 gap = 28
        let expect_rows = 160u64;
        let expect = expect_rows * 28 + ds.pipeline_latency_cycles;
        assert_eq!(pl.cycles_per_pass, expect);
        assert_eq!(pl.host_calls, 1000);
        // the idealized eq-2 count (no gaps) is a lower bound
        let eq2 = 1000u64 * (200u64.div_ceil(8) * 160);
        assert!(pl.total_cycles > eq2);
        assert!(pl.total_cycles < eq2 * 2);
    }

    #[test]
    fn poisson_baseline_bandwidth_near_paper_table4() {
        // paper Table IV baseline: 200×100 → 384 GB/s, 400×400 → 735 GB/s
        let d = dev();
        for (nx, ny, paper_bw) in [(200usize, 100usize, 384.0), (400, 400, 735.0)] {
            let wl = Workload::D2 { nx, ny, batch: 1 };
            let ds = poisson_design(&wl, ExecMode::Baseline, MemKind::Hbm);
            let pl = plan(&d, &ds, &wl, 60_000);
            let bw = pl.bandwidth_gbs();
            let ratio = bw / paper_bw;
            assert!(
                (0.7..1.4).contains(&ratio),
                "{nx}×{ny}: modeled {bw:.0} GB/s vs paper {paper_bw} GB/s"
            );
        }
    }

    #[test]
    fn batching_amortizes_fill_and_call_overheads() {
        let d = dev();
        let solo = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let ds1 = poisson_design(&solo, ExecMode::Baseline, MemKind::Hbm);
        let p1 = plan(&d, &ds1, &solo, 60_000);

        let batched = Workload::D2 { nx: 200, ny: 100, batch: 1000 };
        let ds2 = poisson_design(&batched, ExecMode::Batched { b: 1000 }, MemKind::Hbm);
        let p2 = plan(&d, &ds2, &batched, 60_000);

        // per-mesh time must improve substantially (paper: 384 → 867 GB/s)
        let per_mesh_1 = p1.runtime_s;
        let per_mesh_2 = p2.runtime_s / 1000.0;
        assert!(
            per_mesh_2 < per_mesh_1 * 0.75,
            "batching must speed up per-mesh solves: {per_mesh_1} vs {per_mesh_2}"
        );
        assert!(p2.bandwidth_gbs() > p1.bandwidth_gbs() * 1.5);
    }

    #[test]
    fn jacobi_baseline_bandwidth_near_paper_table5() {
        // paper Table V baseline: 100³ → 301, 300³ → 403 GB/s
        let d = dev();
        for (n, paper_bw) in [(100usize, 301.0), (300, 403.0)] {
            let wl = Workload::D3 { nx: n, ny: n, nz: n, batch: 1 };
            let ds = synthesize(
                &d,
                &StencilSpec::jacobi(),
                8,
                29,
                ExecMode::Baseline,
                MemKind::Hbm,
                &wl,
            )
            .unwrap();
            let pl = plan(&d, &ds, &wl, 29_000);
            let ratio = pl.bandwidth_gbs() / paper_bw;
            assert!(
                (0.7..1.4).contains(&ratio),
                "{n}³: modeled {:.0} vs paper {paper_bw}",
                pl.bandwidth_gbs()
            );
        }
    }

    #[test]
    fn tiled_2d_counts_redundant_halo_traffic() {
        let d = dev();
        let wl = Workload::D2 { nx: 15000, ny: 15000, batch: 1 };
        let ds = synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Tiled1D { tile_m: 1024 },
            MemKind::Ddr4,
            &wl,
        )
        .unwrap();
        let pl = plan(&d, &ds, &wl, 120);
        // reads exceed writes because of overlapped halos
        assert!(pl.ext_read_bytes > pl.ext_write_bytes);
        // writes cover exactly the mesh each pass
        assert_eq!(pl.ext_write_bytes, pl.passes * 15000 * 15000 * 4);
    }

    #[test]
    fn tiled_bandwidth_improves_with_tile_size() {
        // paper Table IV: 15000², tiles 1024 → 805, 4096 → 892, 8000 → 905
        let d = dev();
        let wl = Workload::D2 { nx: 15000, ny: 15000, batch: 1 };
        let mut last = 0.0;
        for tile in [1024usize, 4096, 8000] {
            let ds = synthesize(
                &d,
                &StencilSpec::poisson(),
                8,
                60,
                ExecMode::Tiled1D { tile_m: tile },
                MemKind::Ddr4,
                &wl,
            )
            .unwrap();
            let pl = plan(&d, &ds, &wl, 120);
            let bw = pl.bandwidth_gbs();
            assert!(bw > last, "bandwidth must grow with tile size: {bw} after {last}");
            last = bw;
        }
        assert!(last > 700.0 && last < 1100.0, "largest tile ≈ paper's 905 GB/s, got {last}");
    }

    #[test]
    fn jacobi_tiled_strided_penalty_shows() {
        // paper Table V: 600³ tiled 640² → 292 GB/s: far below the batched
        // 400+ GB/s because of short strided runs
        let d = dev();
        let wl = Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 };
        let ds = synthesize(
            &d,
            &StencilSpec::jacobi(),
            64,
            3,
            ExecMode::Tiled2D { tile_m: 640, tile_n: 640 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let pl = plan(&d, &ds, &wl, 120);
        let bw = pl.bandwidth_gbs();
        assert!((150.0..400.0).contains(&bw), "modeled {bw} vs paper 292 GB/s");
    }

    #[test]
    fn rtm_batching_beats_baseline_per_mesh() {
        let d = dev();
        let spec = StencilSpec::rtm();
        let solo = Workload::D3 { nx: 32, ny: 32, nz: 32, batch: 1 };
        let ds1 = synthesize(&d, &spec, 1, 3, ExecMode::Baseline, MemKind::Hbm, &solo).unwrap();
        let p1 = plan(&d, &ds1, &solo, 1800);

        let batch = Workload::D3 { nx: 32, ny: 32, nz: 32, batch: 40 };
        let ds2 =
            synthesize(&d, &spec, 1, 3, ExecMode::Batched { b: 40 }, MemKind::Hbm, &batch).unwrap();
        let p2 = plan(&d, &ds2, &batch, 180);

        // throughput in cell-iterations/s must rise substantially with batching
        assert!(
            p2.cells_per_sec() > p1.cells_per_sec() * 1.5,
            "RTM batching: {:.2e} vs baseline {:.2e} cells/s",
            p2.cells_per_sec(),
            p1.cells_per_sec()
        );
    }

    #[test]
    fn zero_runtime_plan_reports_zero_throughput() {
        // a degenerate plan (runtime_s = 0, as a niter=0 schedule could
        // produce) must not leak NaN/inf into derived metrics
        let pl = CyclePlan {
            passes: 0,
            cycles_per_pass: 0,
            total_cycles: 0,
            host_calls: 0,
            runtime_s: 0.0,
            ext_read_bytes: 0,
            ext_write_bytes: 0,
            logical_bytes: 1_000_000,
            cell_iters: 1_000_000,
        };
        assert_eq!(pl.bandwidth_gbs(), 0.0);
        assert_eq!(pl.cells_per_sec(), 0.0);
        assert!(pl.bandwidth_gbs().is_finite());
        assert!(pl.cells_per_sec().is_finite());
        // non-finite runtimes degrade the same way
        let nan = CyclePlan { runtime_s: f64::NAN, ..pl };
        assert_eq!(nan.bandwidth_gbs(), 0.0);
        assert_eq!(nan.cells_per_sec(), 0.0);
    }

    #[test]
    fn odd_order_fill_rounds_up_per_stage() {
        // an order-3 stencil holds back ⌈3/2⌉ = 2 rows per chained stage;
        // the old floored product p·stages·D/2 under-priced this
        let d = dev();
        let wl = Workload::D2 { nx: 128, ny: 64, batch: 1 };
        let mut spec = StencilSpec::poisson();
        spec.order = 3;
        let ds = synthesize(&d, &spec, 8, 5, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
        assert_eq!(fill_units(&ds), 10); // p=5 · stages=1 · ⌈3/2⌉=2
                                         // even orders are unchanged from the paper's p·stages·D/2 term
        let ds_even =
            synthesize(&d, &StencilSpec::poisson(), 8, 60, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        assert_eq!(fill_units(&ds_even), 60);
    }

    #[test]
    fn niter_not_multiple_of_p_rounds_up_passes() {
        let d = dev();
        let wl = Workload::D2 { nx: 128, ny: 64, batch: 1 };
        let ds = poisson_design(&wl, ExecMode::Baseline, MemKind::Hbm);
        let pl = plan(&d, &ds, &wl, 61); // p=60 → 2 passes
        assert_eq!(pl.passes, 2);
    }
}
