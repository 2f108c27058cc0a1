//! The closed-form cycle/traffic model of the streaming executors, and the
//! one schedule walker every consumer of that model folds over.
//!
//! This is the simulator's ground truth for *time*: the streaming executors
//! process exactly the row/plane schedule priced here, so the numbers below
//! are the cycle counts a waveform of the dataflow design would show. It
//! implements the paper's eq. (2)/(3) structure plus the measured overheads:
//!
//! * per-row issue gap (`axi_issue_gap_cycles`, ≈ 3),
//! * pipeline fill of `p · stages · ⌈D/2⌉` rows/planes per pass,
//! * compute/memory max per row ([`crate::axi::row_timing`]),
//! * compute-pipeline latency plus residual host enqueue latency per pass,
//! * per-tile control-loop turnaround for blocked execution.
//!
//! [`Schedule`] is the only code that turns a (device, design, workload,
//! device count and link) into the [`Segment`]s one pass streams: the
//! whole batch, each tile, or — on more than one device — each device's
//! halo-extended slab, each with its geometry, its data, fill and written
//! rows, its turnaround and its [`axi::RowTiming`]. It cuts the mesh into
//! slabs itself and prices each slab's halo exchange over the link. It is
//! also the only place that rejects a mode the workload cannot stream and
//! a device count it cannot be sharded across. Everything else folds over
//! its segments: [`Schedule::plan`] sums the totals ([`plan`] is its
//! one-device case), [`Schedule::sharded_plan`] adds the per-device
//! detail, the plan explanation ([`crate::trace`]) narrates them, the
//! recorder sink ([`crate::profile`]) draws them, the executors
//! ([`crate::driver`]) stream their tiles and slabs, and `sf-model`'s
//! predictions price them.
//!
//! The *predictive* model in `sf-model` is the paper's idealized equations;
//! comparing it against this module is the reproduction of the paper's
//! "±15 %" accuracy claim.

use crate::axi::{self, RowTiming};
use crate::design::{ExecMode, MemKind, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::{ExecError, MultiError};
use crate::link::{LinkModel, MultiConfig};
use crate::partition::slab_partition;
use serde::{Deserialize, Serialize};
use sf_mesh::{Tile1D, TileGrid1D};
use std::ops::Range;

/// Timing and traffic for a full solve (`niter` iterations of a workload on
/// a design).
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
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

/// What limits a streamed row.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RowBound {
    /// The `V`-wide compute issue dominates.
    Compute,
    /// The memory channels dominate (strided tiles, narrow `V·k` budgets).
    Memory,
}

/// One homogeneous streaming segment of a pass, as [`Schedule::segments`]
/// yields it: the whole batch, one tile, or one device's slab. Each pass
/// streams `data_rows + fill_rows` rows of `x.read_len` cells at
/// `timing.total()` cycles per row, then pays `turnaround`.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Segment {
    /// The device that streams it: 0 unless the run is sharded.
    pub device: usize,
    /// Tile index along x and y; `(0, 0)` for an untiled stream.
    pub tile: (usize, usize),
    /// The columns of a row: read, and written back (`valid_*`).
    pub x: Tile1D,
    /// The rows of a streamed unit: one row in 2D; the plane's rows, or
    /// the tile's, in 3D.
    pub y: Tile1D,
    /// First streamed unit (row in 2D, plane in 3D) of each mesh.
    pub first_unit: usize,
    /// Units streamed per mesh: the whole extent, or a slab with its
    /// halos.
    pub units: usize,
    /// Data rows streamed per pass.
    pub data_rows: u64,
    /// Fill rows per pass: each of the `p · stages` chained stages holds
    /// back `⌈D/2⌉` units before its window is primed
    /// ([`sf_kernels::StencilSpec::halo`]).
    pub fill_rows: u64,
    /// Rows written back per pass, `x.valid_len` cells each.
    pub written_rows: u64,
    /// Control-loop turnaround per pass (the AXI latency of a tile).
    pub turnaround: u64,
    /// Per-row timing: compute issue, read and write beats, issue gap.
    pub timing: RowTiming,
}

impl Segment {
    /// Rows streamed per pass, fill included.
    pub fn rows(&self) -> u64 {
        self.data_rows + self.fill_rows
    }

    /// Cycles per pass: every row at its row rate, plus the turnaround.
    pub fn cycles(&self) -> u64 {
        self.rows() * self.timing.total() + self.turnaround
    }

    /// Cycles to stream one unit: a row, or a plane of `y.read_len` rows.
    pub fn unit_cycles(&self) -> u64 {
        self.timing.total() * self.y.read_len as u64
    }

    /// Which side bounds the segment's rows.
    pub(crate) fn bound(&self) -> RowBound {
        if self.timing.busy() > self.timing.compute {
            RowBound::Memory
        } else {
            RowBound::Compute
        }
    }
}

/// One device's halo exchange per pass, all meshes.
#[derive(Copy, Clone, Debug, Default)]
pub(crate) struct Exchange {
    /// Link cycles its incoming halos occupy.
    link: u64,
    /// Halo messages it receives.
    messages: u64,
    /// Halo bytes it receives.
    bytes: u64,
    /// Link cycles that its interior compute cannot hide.
    pub(crate) exposed: u64,
}

/// The streaming schedule of one pass of a design over a workload: see
/// the module docs.
#[derive(Clone, Debug)]
pub struct Schedule<'a> {
    pub(crate) dev: &'a FpgaDevice,
    pub(crate) design: &'a StencilDesign,
    wl: Workload,
    /// Column tiles of a row, with each one's row timing.
    xs: Vec<(Tile1D, RowTiming)>,
    /// Row tiles of a unit.
    ys: Vec<Tile1D>,
    /// The units each device owns, in device order.
    owned: Vec<Range<usize>>,
    /// Units of the streamed axis: rows in 2D, planes in 3D.
    extent: usize,
    link: LinkModel,
    /// Meshes streamed back to back: the batch, or one for a tiled design.
    meshes: u64,
    turnaround: u64,
}

impl<'a> Schedule<'a> {
    /// Walk `design` over `wl` on `devices.devices` devices: above one, the
    /// streamed axis is cut into balanced slabs, each streaming the
    /// design's halo on either side (clipped to the mesh), and each slab's
    /// incoming halos are priced over `devices.link`.
    ///
    /// # Errors
    /// [`ExecError::Devices`] for no devices, more devices than units of
    /// the streamed axis, or a tiled design on more than one device;
    /// [`ExecError::ShapeMismatch`] for a tiled mode of the other
    /// dimension.
    pub fn new(
        dev: &'a FpgaDevice,
        design: &'a StencilDesign,
        wl: &Workload,
        devices: &MultiConfig,
    ) -> Result<Self, ExecError> {
        let shape = |detail: String| Err(ExecError::ShapeMismatch { detail });
        let sharding = |e: MultiError| Err(ExecError::Devices(Box::new(e)));
        let spec = &design.spec;
        let halo = spec.halo(design.p);
        let k = devices.devices;
        let extent = match *wl {
            Workload::D2 { ny, .. } => ny,
            Workload::D3 { nz, .. } => nz,
        };
        if k == 0 {
            return sharding(MultiError::NoDevices);
        }
        if k > 1 && k > extent {
            return sharding(MultiError::TooManyDevices { devices: k, extent });
        }
        // x tiles of `tile_m` read cells align to the bus word; `Tiled2D`
        // y tiles of `tile_n` are unaligned; an untiled axis is one tile
        let align = (dev.axi_bus_bytes / spec.elem_bytes).max(1);
        let tiles = |n, tile, align| TileGrid1D::new(n, tile, halo, align).tiles().to_vec();
        let whole = |n| vec![Tile1D { read_start: 0, read_len: n, valid_start: 0, valid_len: n }];
        let (xs, ys) = match (*wl, design.mode) {
            (Workload::D2 { nx, .. }, ExecMode::Baseline | ExecMode::Batched { .. }) => {
                (whole(nx), whole(1))
            }
            (Workload::D3 { nx, ny, .. }, ExecMode::Baseline | ExecMode::Batched { .. }) => {
                (whole(nx), whole(ny))
            }
            (Workload::D2 { nx, .. }, ExecMode::Tiled1D { tile_m }) => {
                (tiles(nx, tile_m, align), whole(1))
            }
            (Workload::D3 { nx, ny, .. }, ExecMode::Tiled2D { tile_m, tile_n }) => {
                (tiles(nx, tile_m, align), tiles(ny, tile_n, 1))
            }
            (Workload::D3 { .. }, ExecMode::Tiled1D { .. }) => {
                return shape("Tiled1D is a 2D mode".to_string())
            }
            (Workload::D2 { .. }, ExecMode::Tiled2D { .. }) => {
                return shape("Tiled2D is a 3D mode".to_string())
            }
        };
        let tiled = design.mode.is_tiled();
        if tiled && k > 1 {
            return sharding(MultiError::UnsupportedMode);
        }
        let mem = match design.mem {
            MemKind::Hbm => &dev.hbm,
            MemKind::Ddr4 => &dev.ddr4,
        };
        let timing = |x: &Tile1D| {
            axi::row_timing(
                dev,
                mem,
                design.freq_hz,
                design.v,
                x.read_len,
                x.read_len * spec.ext_read_bytes,
                x.valid_len * spec.ext_write_bytes,
                design.read_channels,
                design.write_channels,
            )
        };
        Ok(Schedule {
            dev,
            design,
            wl: *wl,
            owned: slab_partition(extent, k).collect(),
            xs: xs.iter().map(|x| (*x, timing(x))).collect(),
            ys,
            extent,
            link: devices.link,
            meshes: if tiled { 1 } else { wl.batch() as u64 },
            turnaround: if tiled { dev.axi_latency_cycles as u64 } else { 0 },
        })
    }

    /// Whether the schedule streams the slabs of more than one device.
    pub(crate) fn is_sharded(&self) -> bool {
        self.owned.len() > 1
    }

    /// The units each device owns, in device order.
    pub(crate) fn owned(&self) -> &[Range<usize>] {
        &self.owned
    }

    /// The units device `device` streams: the ones it owns plus up to a
    /// halo on either side, clipped to the mesh.
    pub(crate) fn streamed(&self, device: usize) -> Range<usize> {
        let (owned, halo) = (&self.owned[device], self.design.spec.halo(self.design.p));
        owned.start.saturating_sub(halo)..(owned.end + halo).min(self.extent)
    }

    /// Device `device`'s halo exchange over the link. Interior units read
    /// no incoming halo data, so their compute overlaps the exchange, and
    /// only the rest of the link time is exposed. A sharded design is
    /// untiled, so a unit is one row, or one plane of rows, of the mesh.
    pub(crate) fn exchange(&self, device: usize) -> Exchange {
        let (owned, streamed) = (&self.owned[device], self.streamed(device));
        let (Some((x, timing)), Some(y)) = (self.xs.first(), self.ys.first()) else {
            return Exchange::default();
        };
        let unit_bytes = (x.read_len * y.read_len * self.design.spec.elem_bytes) as u64;
        let mut e = Exchange::default();
        // incoming halos, clipped to what exists on each interior side
        for units in [owned.start - streamed.start, streamed.end - owned.end] {
            if units > 0 {
                let bytes = units as u64 * unit_bytes;
                e.link += self.link.transfer_cycles(bytes) * self.meshes;
                e.messages += self.meshes;
                e.bytes += bytes * self.meshes;
            }
        }
        let halo = self.design.spec.halo(self.design.p);
        let edges = usize::from(owned.start > 0) + usize::from(owned.end < self.extent);
        let interior = owned.len().saturating_sub(edges * halo) as u64;
        let unit_cycles = timing.total() * y.read_len as u64;
        e.exposed = e.link.saturating_sub(interior * unit_cycles * self.meshes);
        e
    }

    /// The segments one pass streams: device by device, then y tile by y
    /// tile, then x tile by x tile.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.owned.len()).flat_map(move |device| self.device_segments(device))
    }

    /// The segments device `device` streams each pass.
    fn device_segments(&self, device: usize) -> impl Iterator<Item = Segment> + '_ {
        let fill = self.design.spec.halo(self.design.p) as u64;
        let streamed = self.streamed(device);
        let (first_unit, units) = (streamed.start, streamed.len());
        let owned = self.owned[device].len();
        self.ys.iter().enumerate().flat_map(move |(j, &y)| {
            self.xs.iter().enumerate().map(move |(i, &(x, timing))| Segment {
                device,
                tile: (i, j),
                x,
                y,
                first_unit,
                units,
                data_rows: self.meshes * (units * y.read_len) as u64,
                fill_rows: fill * y.read_len as u64,
                written_rows: self.meshes * (owned * y.valid_len) as u64,
                turnaround: self.turnaround,
                timing,
            })
        })
    }

    /// Cycles per pass device `device` streams for, closed by the pipeline
    /// latency; its exposed exchange comes on top.
    fn pass_cycles(&self, device: usize) -> u64 {
        let stream: u64 = self.device_segments(device).map(|s| s.cycles()).sum();
        stream + self.design.pipeline_latency_cycles
    }

    /// Plan a full solve of `niter` iterations: every device streams its
    /// segments, closes the pass with the pipeline latency and waits for
    /// the exchange its interior compute could not hide, and the pass
    /// lasts as long as the slowest device. Traffic sums every segment,
    /// and each device enqueues once per pass.
    pub fn plan(&self, niter: u64) -> CyclePlan {
        let (dev, design, spec) = (self.dev, self.design, &self.design.spec);
        let passes = niter.div_ceil(design.p as u64).max(1);
        let (mut read, mut write) = (0u64, 0u64);
        for s in self.segments() {
            read += s.data_rows * (s.x.read_len * spec.ext_read_bytes) as u64;
            write += s.written_rows * (s.x.valid_len * spec.ext_write_bytes) as u64;
        }
        let cycles_per_pass = (0..self.owned.len())
            .map(|k| self.pass_cycles(k) + self.exchange(k).exposed)
            .max()
            .unwrap_or(0);
        let total_cycles = passes * cycles_per_pass;
        let host_calls = passes * self.owned.len() as u64;
        let runtime_s =
            total_cycles as f64 / design.freq_hz + host_calls as f64 * dev.host_call_latency_s;
        let cell_iters = niter * self.wl.total_cells();
        CyclePlan {
            passes,
            cycles_per_pass,
            total_cycles,
            host_calls,
            runtime_s,
            ext_read_bytes: passes * read,
            ext_write_bytes: passes * write,
            logical_bytes: cell_iters * spec.logical_rw_bytes as u64,
            cell_iters,
        }
    }

    /// [`Schedule::plan`] with the per-device detail behind it: each
    /// device's slab and pass cost, and the halo exchange over the link.
    pub fn sharded_plan(&self, niter: u64) -> ShardedPlan {
        let merged = self.plan(niter);
        let mut per_device = Vec::with_capacity(self.owned.len());
        let mut sum = Exchange::default();
        for (device, owned) in self.owned.iter().enumerate() {
            let e = self.exchange(device);
            sum.link += e.link;
            sum.messages += e.messages;
            sum.bytes += e.bytes;
            sum.exposed += e.exposed;
            per_device.push(DeviceCost {
                device,
                owned_start: owned.start,
                owned_len: owned.len(),
                extended_len: self.streamed(device).len(),
                pass_cycles: self.pass_cycles(device),
                link_cycles: e.link,
                exposed_cycles: e.exposed,
            });
        }
        ShardedPlan {
            devices: self.owned.len(),
            halo: self.design.spec.halo(self.design.p),
            merged,
            per_device,
            exchange_bytes_per_pass: sum.bytes,
            exchange_messages_per_pass: sum.messages,
            exchange_link_cycles: merged.passes * sum.link,
            exchange_exposed_cycles: merged.passes * sum.exposed,
        }
    }
}

/// Per-pass cost of one device's shard.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DeviceCost {
    /// Device index.
    pub device: usize,
    /// First owned outermost unit.
    pub owned_start: usize,
    /// Owned outermost units (rows in 2D, planes in 3D).
    pub owned_len: usize,
    /// Streamed units per mesh per pass: owned plus clamped halos.
    pub extended_len: usize,
    /// Streaming cycles per pass (extended slab + fill + pipeline drain).
    pub pass_cycles: u64,
    /// Link cycles per pass for this device's incoming halos.
    pub link_cycles: u64,
    /// Link cycles per pass *not* hidden behind interior compute.
    pub exposed_cycles: u64,
}

/// A multi-device execution plan: the merged single-plan view plus the
/// per-device detail behind it ([`Schedule::sharded_plan`]). Each device
/// must have exchanged the next pass's halos before it can start again;
/// exchange overlaps the device's *interior* compute — owned units further
/// than the halo from a device boundary, which read no incoming halo
/// data — and only the remainder is exposed:
///
/// ```text
/// pass_k    = (b·extended_k + fill) · unit_cycles + pipeline_latency
/// link_k    = Σ_iface  latency + ⌈halo_bytes / link_rate⌉
/// exposed_k = max(0, link_k − interior_k · unit_cycles · b)
/// pass wall = max_k (pass_k + exposed_k),  total = passes · pass wall
/// ```
///
/// With one device there are no interfaces, and `merged` is [`plan`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardedPlan {
    /// Device count the plan was built for.
    pub devices: usize,
    /// Halo depth in outermost units
    /// ([`StencilSpec::halo`](sf_kernels::StencilSpec::halo)).
    pub halo: usize,
    /// The merged plan: pass wall-clock is the slowest device including
    /// exposed exchange, traffic sums all devices (halo re-reads included),
    /// host calls count one enqueue per device per pass. Feeds
    /// [`crate::SimReport::from_plan`] unchanged.
    pub merged: CyclePlan,
    /// Per-device cost breakdown (one entry per shard, in slab order).
    pub per_device: Vec<DeviceCost>,
    /// Bytes crossing inter-device links per pass (all devices, all batch
    /// members; each message counted once, at its receiver).
    pub exchange_bytes_per_pass: u64,
    /// Halo messages per pass (per device interface, per batch member).
    pub exchange_messages_per_pass: u64,
    /// Total link-occupancy cycles over the whole solve, summed across
    /// devices (before overlap).
    pub exchange_link_cycles: u64,
    /// Total exchange cycles exposed on the critical path over the whole
    /// solve, summed across devices — what a sharded run charges as
    /// [`sf_telemetry::StallClass::Exchange`].
    pub exchange_exposed_cycles: u64,
}

/// Plan a full solve on one device. A design whose mode cannot stream
/// `wl` plans nothing (the all-zero plan); [`Schedule::new`] names why.
pub fn plan(dev: &FpgaDevice, design: &StencilDesign, wl: &Workload, niter: u64) -> CyclePlan {
    Schedule::new(dev, design, wl, &MultiConfig::default())
        .map_or_else(|_| CyclePlan::default(), |s| s.plan(niter))
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
        let fill = |ds: &StencilDesign| {
            Schedule::new(&d, ds, &wl, &MultiConfig::default())
                .unwrap()
                .segments()
                .map(|s| s.fill_rows)
                .sum::<u64>()
        };
        let ds = synthesize(&d, &spec, 8, 5, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
        assert_eq!(fill(&ds), 10); // p=5 · stages=1 · ⌈3/2⌉=2
                                   // even orders are unchanged from the paper's p·stages·D/2 term
        let ds_even =
            synthesize(&d, &StencilSpec::poisson(), 8, 60, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        assert_eq!(fill(&ds_even), 60);
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
