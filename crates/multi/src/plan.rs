//! The sharded cycle plan under the name the benchmark pins: one fold over
//! `sf-fpga`'s schedule walker ([`Schedule::sharded_plan`]), which cuts
//! the mesh into slabs and prices each slab's halo exchange. With one
//! device it degenerates *exactly* to [`sf_fpga::cycles::plan`] (no
//! interfaces, extended = owned), the anchor for the conformance suite.

use sf_fpga::cycles::{Schedule, ShardedPlan};
use sf_fpga::design::Workload;
use sf_fpga::{FpgaDevice, MultiConfig, MultiError, StencilDesign};

/// Plan a full sharded solve of `wl` on `cfg.devices` copies of `design`.
///
/// # Errors
/// [`MultiError::NoDevices`] for a zero device count,
/// [`MultiError::TooManyDevices`] when shards would be empty,
/// [`MultiError::UnsupportedMode`] for a tiled design on more than one
/// device, and [`MultiError::Exec`] for a mode that cannot stream `wl`.
pub fn sharded_plan(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    cfg: &MultiConfig,
) -> Result<ShardedPlan, MultiError> {
    Ok(Schedule::new(dev, design, wl, cfg)?.sharded_plan(niter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_fpga::cycles;
    use sf_fpga::design::{synthesize, ExecMode, MemKind};
    use sf_fpga::LinkModel;
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
