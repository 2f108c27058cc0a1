//! Sharded executors: run each slab on its own simulated device and
//! exchange halos at every pass barrier.
//!
//! The executors are thin: they price the sharded schedule
//! ([`sharded_plan`]), decompose the outermost axis ([`slab_partition`]) and
//! hand both to the pass driver ([`sf_fpga::driver::Run::simulate_slabs`]),
//! which streams every device's extended slab `[start−h, end+h) ∩
//! [0, extent)` through the same window chain the single-device executors
//! use and writes back only the owned units. Bit-exactness is by
//! construction: a pass chains at most `p · stages` processors and a stage
//! of radius `r` only lets boundary treatment contaminate `r` more units,
//! so after the whole pass at most `p · stages · ⌈D/2⌉ = h` units adjacent
//! to a *fake* (slab-interior) edge are wrong — exactly the discarded
//! halo. Real mesh boundaries are never clamped away because the extension
//! is clipped to `[0, extent)`. The result is bit-identical to the
//! single-device executors for any device count, engine, and `jobs` value.
//!
//! Telemetry mirrors the per-mesh fan-out of [`sf_fpga::exec_batch`]: each
//! (device, mesh) pair records its first pass under a
//! `dev{k}/mesh{i}/window/` track prefix with deterministic cycle offsets,
//! shard recorders merge in slab order, and the halo-exchange cost is
//! charged analytically from the [`ShardedPlan`] — `exchange.bytes` /
//! `exchange.messages` counters plus the exposed (non-overlapped) cycles as
//! [`sf_telemetry::StallClass::Exchange`] — so traces stay byte-identical
//! for every `jobs` value.

use crate::partition::slab_partition;
use crate::plan::{sharded_plan, MultiConfig, MultiError, ShardedPlan};
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::driver::{GridKernel, Run, Slabs, StreamGrid};
use sf_fpga::window::{Engine, ScalarEngine};
use sf_fpga::{ExecEngine, FastEngine, FpgaDevice, SimReport};
use sf_kernels::{LaneElement, LaneOp2D, LaneOp3D};
use sf_mesh::{Batch2D, Batch3D};
use sf_telemetry::{Recorder, StallClass};

/// Charge the analytic exchange cost into the recorder. Counters and the
/// [`StallClass::Exchange`] stall come from the plan, not from measuring
/// the simulated transfers, so they are deterministic across `jobs`.
fn charge_exchange(rec: &mut Recorder, plan: &ShardedPlan) {
    if plan.devices <= 1 {
        return;
    }
    rec.counter_add("exchange.bytes", plan.merged.passes * plan.exchange_bytes_per_pass);
    rec.counter_add("exchange.messages", plan.merged.passes * plan.exchange_messages_per_pass);
    rec.stall(StallClass::Exchange, plan.exchange_exposed_cycles);
}

/// Run `run` sharded across `cfg.devices`: plan, stream the slabs, then
/// record the schedule metadata and the exchange charges.
fn sharded<B, K>(
    mut run: Run<'_, K>,
    input: &B,
    cfg: &MultiConfig,
) -> Result<(B, SimReport), MultiError>
where
    B: StreamGrid,
    K: GridKernel<B>,
    ScalarEngine: Engine<B, K>,
    FastEngine: Engine<B, K>,
{
    let plan = sharded_plan(run.dev, run.design, &input.workload(), run.niter as u64, cfg)?;
    let owned: Vec<_> =
        slab_partition(input.mesh_units(), cfg.devices).iter().map(|s| s.start..s.end()).collect();
    let power_w = sf_fpga::power::fpga_power_w(run.dev, run.design) * cfg.devices as f64;
    let slabs = Slabs { owned: &owned, halo: plan.halo, plan: &plan.merged, power_w };
    let out = run.simulate_slabs(input, &slabs).map_err(MultiError::Exec)?;
    if run.rec.is_enabled() {
        annotate(run.rec, &plan);
    }
    charge_exchange(run.rec, &plan);
    Ok(out)
}

/// Schedule-only telemetry for a sharded run: per-pass spans from the
/// merged plan (pass wall-clock = slowest device, exposed exchange
/// included), first-pass spans per device on `dev{k}/pipeline`, the
/// sharded-schedule metadata, and the analytic exchange charges — without
/// streaming any numerics. The multi-device twin of
/// [`sf_fpga::profile::trace_schedule`] for paper-scale workloads: spans
/// on the `pipeline` track sum to `merged.total_cycles`.
///
/// # Errors
/// The [`MultiError`]s of [`sharded_plan`]: zero devices, more devices
/// than outermost units, or a tiled design.
pub fn trace_sharded_schedule(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    cfg: &MultiConfig,
    rec: &mut Recorder,
) -> Result<ShardedPlan, MultiError> {
    // Same collapse threshold as the single-device schedule tracer.
    const MAX_PASS_SPANS: u64 = 256;
    let plan = sharded_plan(dev, design, wl, niter, cfg)?;
    if !rec.is_enabled() {
        return Ok(plan);
    }
    annotate(rec, &plan);
    let pipe = rec.track("pipeline");
    let cpp = plan.merged.cycles_per_pass;
    let shown = plan.merged.passes.min(MAX_PASS_SPANS);
    for i in 0..shown {
        rec.span(pipe, &format!("pass {i}"), i * cpp, (i + 1) * cpp);
    }
    if plan.merged.passes > shown {
        rec.span(
            pipe,
            &format!("passes {shown}..{}", plan.merged.passes),
            shown * cpp,
            plan.merged.passes * cpp,
        );
    }
    // First pass per device: the streamed extended slab, then whatever
    // exchange its interior compute could not hide.
    for d in &plan.per_device {
        let t = rec.track(&format!("dev{}/pipeline", d.device));
        rec.span(t, &format!("stream {} units", d.extended_len), 0, d.pass_cycles);
        if d.exposed_cycles > 0 {
            rec.span(t, "exchange (exposed)", d.pass_cycles, d.pass_cycles + d.exposed_cycles);
        }
    }
    charge_exchange(rec, &plan);
    Ok(plan)
}

/// Record the sharded schedule's headline numbers as trace metadata.
fn annotate(rec: &mut Recorder, plan: &ShardedPlan) {
    use serde::Value;
    rec.set_meta("devices", Value::U64(plan.devices as u64));
    rec.set_meta("halo_units", Value::U64(plan.halo as u64));
    rec.set_meta("sharded_passes", Value::U64(plan.merged.passes));
    rec.set_meta("sharded_cycles_per_pass", Value::U64(plan.merged.cycles_per_pass));
    rec.set_meta("exchange_bytes_per_pass", Value::U64(plan.exchange_bytes_per_pass));
}

/// Multi-device sharded execution of a (batch of) 2D mesh(es) on `engine`,
/// with each pass's slabs fanned out over `jobs` workers.
///
/// Output is bit-identical to the single-device executors for every
/// device count and `jobs` value; the [`SimReport`] prices the sharded
/// schedule (slowest device per pass, exchange exposure included).
///
/// # Errors
/// The [`MultiError`]s of [`sharded_plan`] (zero devices, more devices
/// than outermost units, a tiled design), and [`MultiError::Exec`] for a
/// design/input mismatch (wrong batch size, stage count) or `niter == 0`.
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
    let run =
        Run { engine, jobs: Some(jobs), ..Run::new(dev, design, stages_per_iter, niter, rec) };
    sharded(run, input, cfg)
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
    let run =
        Run { engine, jobs: Some(jobs), ..Run::new(dev, design, stages_per_iter, niter, rec) };
    sharded(run, input, cfg)
}
