//! The sharded cycle plan: single-device streaming cost per slab plus the
//! halo-exchange link cost, combined into one [`CyclePlan`]-shaped answer.
//!
//! Per pass, each device `k` streams its *extended* slab (owned units plus
//! up to one halo of depth `h` per interior side) at the design's per-row
//! cost, then must have exchanged next pass's halos before it can start
//! again. Exchange is overlapped against the device's *interior* compute —
//! the owned units further than `h` from a device boundary, which do not
//! depend on incoming halo data — and only the remainder is exposed:
//!
//! ```text
//! pass_k    = (b·extended_k + fill) · unit_cycles + pipeline_latency
//! link_k    = Σ_iface  latency + ⌈halo_bytes / link_rate⌉
//! exposed_k = max(0, link_k − interior_k · unit_cycles · b)
//! pass wall = max_k (pass_k + exposed_k),  total = passes · pass wall
//! ```
//!
//! With one device this degenerates *exactly* to [`sf_fpga::cycles::plan`]
//! (no interfaces, extended = owned), which is the anchor for the
//! conformance suite: sharded execution must be bit-identical in numerics
//! and identical in plan at `K = 1`.

use crate::link::LinkModel;
use crate::partition::{halo_depth, slab_partition};
use serde::{Deserialize, Serialize};
use sf_fpga::cycles::{self, CyclePlan};
use sf_fpga::{ExecError, ExecMode, FpgaDevice, StencilDesign};

/// How a workload is spread over accelerators.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiConfig {
    /// Number of accelerator cards (`1` = the classic single-device path).
    pub devices: usize,
    /// The inter-device interconnect model.
    pub link: LinkModel,
}

impl MultiConfig {
    /// A `devices`-card config over the default (Aurora-style) link.
    pub fn new(devices: usize) -> Self {
        Self { devices, link: LinkModel::default() }
    }
}

impl Default for MultiConfig {
    /// Single device, default link — identical to unsharded execution.
    fn default() -> Self {
        Self::new(1)
    }
}

/// Why a workload cannot be sharded as requested.
#[derive(Clone, Debug, PartialEq)]
pub enum MultiError {
    /// `devices == 0` — there is no accelerator to run on.
    NoDevices,
    /// More devices than outermost mesh units: some shard would own
    /// nothing.
    TooManyDevices {
        /// Requested device count.
        devices: usize,
        /// Outermost-axis extent (rows in 2D, planes in 3D).
        extent: usize,
    },
    /// Sharding composes with whole-mesh streaming only; tiled designs
    /// already decompose the mesh their own way.
    UnsupportedMode,
    /// The run does not fit its input (batch size, stage count, `niter`).
    Exec(ExecError),
}

impl std::fmt::Display for MultiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoDevices => write!(f, "device count must be at least 1"),
            Self::TooManyDevices { devices, extent } => write!(
                f,
                "cannot shard {extent} outermost units across {devices} devices: \
                 every shard must own at least one row/plane"
            ),
            Self::UnsupportedMode => {
                write!(f, "multi-device sharding requires a Baseline or Batched design")
            }
            Self::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MultiError {}

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
/// per-device detail behind it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ShardedPlan {
    /// Device count the plan was built for.
    pub devices: usize,
    /// Halo depth in outermost units ([`crate::partition::halo_depth`]).
    pub halo: usize,
    /// The merged plan: pass wall-clock is the slowest device including
    /// exposed exchange, traffic sums all devices (halo re-reads included),
    /// host calls count one enqueue per device per pass. Feeds
    /// [`sf_fpga::SimReport::from_plan`] unchanged.
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
    /// solve, summed across devices — what executors charge as
    /// [`sf_telemetry::StallClass::Exchange`].
    pub exchange_exposed_cycles: u64,
}

/// Plan a full sharded solve of `wl` on `cfg.devices` copies of `design`.
///
/// # Errors
/// [`MultiError::NoDevices`] for a zero device count,
/// [`MultiError::TooManyDevices`] when shards would be empty, and
/// [`MultiError::UnsupportedMode`] for tiled designs.
pub fn sharded_plan(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &sf_fpga::design::Workload,
    niter: u64,
    cfg: &MultiConfig,
) -> Result<ShardedPlan, MultiError> {
    use sf_fpga::design::Workload;
    if cfg.devices == 0 {
        return Err(MultiError::NoDevices);
    }
    if !matches!(design.mode, ExecMode::Baseline | ExecMode::Batched { .. }) {
        return Err(MultiError::UnsupportedMode);
    }
    // Outermost extent, units per stream step, and batch for either dim.
    let (nx, extent, batch, rows_per_unit) = match *wl {
        Workload::D2 { nx, ny, batch } => (nx, ny, batch, 1usize),
        Workload::D3 { nx, ny, nz, batch } => (nx, nz, batch, ny),
    };
    if cfg.devices > extent {
        return Err(MultiError::TooManyDevices { devices: cfg.devices, extent });
    }

    let spec = &design.spec;
    let p = design.p as u64;
    let passes = niter.div_ceil(p).max(1);
    let fill = cycles::fill_units(design);
    let h = halo_depth(design);
    let rc = cycles::design_row_cycles(dev, design, nx, nx);
    let unit_cycles = rc * rows_per_unit as u64;
    let unit_cells = (nx * rows_per_unit) as u64;
    let b = batch as u64;

    let shards = slab_partition(extent, cfg.devices);
    let mut per_device = Vec::with_capacity(shards.len());
    let mut wall_per_pass = 0u64;
    let mut read_per_pass = 0u64;
    let mut bytes_per_pass = 0u64;
    let mut msgs_per_pass = 0u64;
    let mut link_per_pass = 0u64;
    let mut exposed_per_pass = 0u64;
    for s in &shards {
        let lo = s.start.saturating_sub(h);
        let hi = (s.end() + h).min(extent);
        let extended = hi - lo;
        // Incoming halos, clamped to what exists on each interior side.
        let up = (s.start - lo) as u64;
        let down = (hi - s.end()) as u64;
        let mut link = 0u64;
        for recv_units in [up, down] {
            if recv_units > 0 {
                link +=
                    cfg.link.transfer_cycles(recv_units * unit_cells * spec.elem_bytes as u64) * b;
                msgs_per_pass += b;
                bytes_per_pass += recv_units * unit_cells * spec.elem_bytes as u64 * b;
            }
        }
        // Interior units don't read incoming halo data; their compute
        // overlaps the exchange.
        let excl = (usize::from(s.start > 0) + usize::from(s.end() < extent)) * h;
        let interior = s.len.saturating_sub(excl) as u64;
        let exposed = link.saturating_sub(interior * unit_cycles * b);
        let pass_cycles =
            (b * extended as u64 + fill) * unit_cycles + design.pipeline_latency_cycles;
        wall_per_pass = wall_per_pass.max(pass_cycles + exposed);
        read_per_pass += b * extended as u64 * unit_cells * spec.ext_read_bytes as u64;
        link_per_pass += link;
        exposed_per_pass += exposed;
        per_device.push(DeviceCost {
            device: s.device,
            owned_start: s.start,
            owned_len: s.len,
            extended_len: extended,
            pass_cycles,
            link_cycles: link,
            exposed_cycles: exposed,
        });
    }

    let total_cycles = passes * wall_per_pass;
    let host_calls = passes * cfg.devices as u64;
    let runtime_s =
        total_cycles as f64 / design.freq_hz + host_calls as f64 * dev.host_call_latency_s;
    let cell_iters = niter * wl.total_cells();
    let write_per_pass = b * extent as u64 * unit_cells * spec.ext_write_bytes as u64;
    let merged = CyclePlan {
        passes,
        cycles_per_pass: wall_per_pass,
        total_cycles,
        host_calls,
        runtime_s,
        ext_read_bytes: passes * read_per_pass,
        ext_write_bytes: passes * write_per_pass,
        logical_bytes: cell_iters * spec.logical_rw_bytes as u64,
        cell_iters,
    };
    Ok(ShardedPlan {
        devices: cfg.devices,
        halo: h,
        merged,
        per_device,
        exchange_bytes_per_pass: bytes_per_pass,
        exchange_messages_per_pass: msgs_per_pass,
        exchange_link_cycles: passes * link_per_pass,
        exchange_exposed_cycles: passes * exposed_per_pass,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_fpga::design::{synthesize, MemKind, Workload};
    use sf_kernels::StencilSpec;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn single_device_plan_matches_cycles_plan_exactly() {
        let d = dev();
        for (wl, spec, v, p) in [
            (Workload::D2 { nx: 200, ny: 100, batch: 1 }, StencilSpec::poisson(), 8, 60),
            (Workload::D3 { nx: 48, ny: 48, nz: 48, batch: 1 }, StencilSpec::jacobi(), 8, 12),
        ] {
            let ds = synthesize(&d, &spec, v, p, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
            let single = cycles::plan(&d, &ds, &wl, 600);
            let sharded = sharded_plan(&d, &ds, &wl, 600, &MultiConfig::new(1)).unwrap();
            assert_eq!(sharded.merged, single);
            assert_eq!(sharded.exchange_bytes_per_pass, 0);
            assert_eq!(sharded.exchange_exposed_cycles, 0);
            assert_eq!(sharded.per_device.len(), 1);
        }
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let d = dev();
        let wl = Workload::D2 { nx: 64, ny: 32, batch: 1 };
        let ds =
            synthesize(&d, &StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        assert_eq!(sharded_plan(&d, &ds, &wl, 8, &MultiConfig::new(0)), Err(MultiError::NoDevices));
        assert_eq!(
            sharded_plan(&d, &ds, &wl, 8, &MultiConfig::new(33)),
            Err(MultiError::TooManyDevices { devices: 33, extent: 32 })
        );
        let tiled = synthesize(
            &d,
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Tiled1D { tile_m: 32 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        assert_eq!(
            sharded_plan(&d, &tiled, &wl, 8, &MultiConfig::new(2)),
            Err(MultiError::UnsupportedMode)
        );
    }

    #[test]
    fn sharding_charges_exchange_and_halo_rereads() {
        let d = dev();
        let wl = Workload::D2 { nx: 256, ny: 512, batch: 1 };
        let ds =
            synthesize(&d, &StencilSpec::poisson(), 8, 16, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let single = cycles::plan(&d, &ds, &wl, 320);
        let sp = sharded_plan(&d, &ds, &wl, 320, &MultiConfig::new(4)).unwrap();
        // writes cover the mesh exactly; reads grow by the halo re-reads
        assert_eq!(sp.merged.ext_write_bytes, single.ext_write_bytes);
        assert!(sp.merged.ext_read_bytes > single.ext_read_bytes);
        // halo = p·stages·⌈D/2⌉ = 16; 2 edge shards with 1 interface + 2
        // interior shards with 2 → 6 messages of 16 rows × 256 cells × 4 B
        assert_eq!(sp.halo, 16);
        assert_eq!(sp.exchange_messages_per_pass, 6);
        assert_eq!(sp.exchange_bytes_per_pass, 6 * 16 * 256 * 4);
        // each device streams fewer units, so the pass wall shrinks
        assert!(sp.merged.cycles_per_pass < single.cycles_per_pass);
        // host fans one enqueue per device per pass
        assert_eq!(sp.merged.host_calls, single.host_calls * 4);
    }

    #[test]
    fn slow_link_exposes_exchange_on_critical_path() {
        let d = dev();
        let wl = Workload::D2 { nx: 128, ny: 96, batch: 1 };
        let ds =
            synthesize(&d, &StencilSpec::poisson(), 8, 8, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let fast = MultiConfig { devices: 2, link: LinkModel::aurora() };
        let glacial = MultiConfig {
            devices: 2,
            link: LinkModel { latency_cycles: 1_000_000, bytes_per_cycle: 1 },
        };
        let sp_fast = sharded_plan(&d, &ds, &wl, 64, &fast).unwrap();
        let sp_slow = sharded_plan(&d, &ds, &wl, 64, &glacial).unwrap();
        assert!(sp_slow.exchange_exposed_cycles > 0);
        assert!(sp_slow.merged.cycles_per_pass > sp_fast.merged.cycles_per_pass);
        // exposure never exceeds raw link occupancy
        assert!(sp_slow.exchange_exposed_cycles <= sp_slow.exchange_link_cycles);
    }

    #[test]
    fn wide_shards_hide_fast_link_entirely() {
        // plenty of interior rows: aurora exchange fully overlaps
        let d = dev();
        let wl = Workload::D2 { nx: 256, ny: 4096, batch: 1 };
        let ds =
            synthesize(&d, &StencilSpec::poisson(), 8, 8, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let sp = sharded_plan(&d, &ds, &wl, 64, &MultiConfig::new(2)).unwrap();
        assert_eq!(sp.exchange_exposed_cycles, 0);
        assert!(sp.exchange_link_cycles > 0);
    }

    #[test]
    fn three_d_plans_shard_planes() {
        let d = dev();
        let wl = Workload::D3 { nx: 32, ny: 32, nz: 64, batch: 2 };
        let ds = synthesize(
            &d,
            &StencilSpec::jacobi(),
            8,
            4,
            ExecMode::Batched { b: 2 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let sp = sharded_plan(&d, &ds, &wl, 16, &MultiConfig::new(2)).unwrap();
        assert_eq!(sp.per_device.len(), 2);
        // halo = 4 planes of 32×32 f32 cells, two interfaces, two meshes
        assert_eq!(sp.halo, 4);
        assert_eq!(sp.exchange_bytes_per_pass, 2 * 4 * 32 * 32 * 4 * 2);
        assert_eq!(sp.per_device[0].extended_len, 36);
    }
}
