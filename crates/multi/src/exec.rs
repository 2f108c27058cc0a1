//! Sharded executors under the names the benchmark pins: each is one
//! [`Run`] on `cfg.devices` devices, or one schedule-only trace
//! ([`sf_fpga::profile::trace_devices`]).
//!
//! A sharded run streams every device's extended slab
//! `[start−h, end+h) ∩ [0, extent)` through the same window chain one
//! device uses and writes back only the owned units, bit-identical to one
//! device for any device count, engine and `jobs` value; see
//! [`Run::devices`]. Each device streams the meshes of a batch back to
//! back and records its first pass under `dev{k}/window/`, each device's
//! streamed rows are attributed to
//! compute or memory stalls, and the halo exchange is charged from the
//! plan — `exchange.bytes` / `exchange.messages` counters plus the exposed
//! cycles as [`sf_telemetry::StallClass::Exchange`] — so traces are
//! byte-identical for every `jobs` value. With one device, each wrapper is
//! the single-device run.

use sf_fpga::cycles::ShardedPlan;
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::driver::Run;
use sf_fpga::{ExecEngine, FpgaDevice, MultiConfig, MultiError, SimReport};
use sf_kernels::{LaneElement, LaneOp2D, LaneOp3D};
use sf_mesh::{Batch2D, Batch3D};
use sf_telemetry::Recorder;

/// Schedule-only telemetry for a run on `cfg.devices` devices, without
/// streaming any numerics ([`sf_fpga::profile::trace_devices`]): the
/// sharded-schedule metadata, the slab walk — per-pass spans from the
/// merged plan (pass wall-clock = slowest device, exposed exchange
/// included), first-pass spans per device on `dev{k}/pipeline`, each
/// device's streamed rows attributed to compute or memory stalls — and the
/// analytic exchange charges. For paper-scale workloads: spans on the
/// `pipeline` track sum to `merged.total_cycles`. With one device it
/// records what [`sf_fpga::profile::trace_schedule`] does.
///
/// # Errors
/// The [`MultiError`]s of [`crate::sharded_plan`]: zero devices, more
/// devices than outermost units, or a tiled design.
pub fn trace_sharded_schedule(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    cfg: &MultiConfig,
    rec: &mut Recorder,
) -> Result<ShardedPlan, MultiError> {
    Ok(sf_fpga::profile::trace_devices(dev, design, wl, niter, cfg, rec)?)
}

/// Multi-device sharded execution of a (batch of) 2D mesh(es) on `engine`,
/// with each pass's slabs fanned out over `jobs` workers.
///
/// Output is bit-identical to the single-device executors for every
/// device count and `jobs` value; the [`SimReport`] prices the sharded
/// schedule (slowest device per pass, exchange exposure included).
///
/// # Errors
/// The [`MultiError`]s of [`crate::sharded_plan`] (zero devices, more
/// devices than outermost units, a tiled design), and [`MultiError::Exec`]
/// for a design/input mismatch (wrong batch size, stage count) or
/// `niter == 0`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_2d_sharded_exec<T: LaneElement, K: LaneOp2D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    cfg: &MultiConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport), MultiError> {
    let (out, report, _) = Run {
        engine,
        jobs: Some(jobs),
        devices: *cfg,
        ..Run::new(dev, design, stages_per_iter, niter, rec)
    }
    .simulate(input)?;
    Ok((out, report))
}

/// [`simulate_batch_2d_sharded_exec`] for 3D batches.
///
/// # Errors
/// See [`simulate_batch_2d_sharded_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_3d_sharded_exec<T: LaneElement, K: LaneOp3D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    cfg: &MultiConfig,
    jobs: usize,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport), MultiError> {
    let (out, report, _) = Run {
        engine,
        jobs: Some(jobs),
        devices: *cfg,
        ..Run::new(dev, design, stages_per_iter, niter, rec)
    }
    .simulate(input)?;
    Ok((out, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharded_plan;
    use sf_fpga::design::{synthesize, ExecMode, MemKind};
    use sf_kernels::{Poisson2D, StencilSpec};

    #[test]
    fn sharded_runs_attribute_each_devices_streamed_rows() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 64, ny: 300, batch: 1 };
        let ds =
            synthesize(&dev, &StencilSpec::poisson(), 8, 40, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let cfg = MultiConfig::new(2);
        let plan = sharded_plan(&dev, &ds, &wl, 40, &cfg).unwrap();
        // every device's streamed rows, summed over devices like the exchange stall
        let streamed: u64 = plan
            .per_device
            .iter()
            .map(|d| plan.merged.passes * (d.pass_cycles - ds.pipeline_latency_cycles))
            .sum();
        assert!(streamed > 0);
        let input = Batch2D::<f32>::random(64, 300, 1, 7, -1.0, 1.0);
        let mut breakdowns = Vec::new();
        for jobs in [1, 2] {
            let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
            simulate_batch_2d_sharded_exec(
                ExecEngine::Fast,
                &dev,
                &ds,
                &[Poisson2D],
                &input,
                40,
                &cfg,
                jobs,
                &mut rec,
            )
            .unwrap();
            breakdowns.push(rec.stall_breakdown());
        }
        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        trace_sharded_schedule(&dev, &ds, &wl, 40, &cfg, &mut rec).unwrap();
        breakdowns.push(rec.stall_breakdown());
        for b in &breakdowns {
            assert_eq!(b.compute_cycles + b.memory_cycles, streamed, "{b:?}");
            assert_eq!(b, &breakdowns[0], "streamed, at any jobs, or schedule-only");
        }
        assert!(breakdowns[0].compute_cycles > 0, "Poisson rows are compute-bound");
    }
}
