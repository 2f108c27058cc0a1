//! Recoverable execution: checkpoint/rollback with ABFT detection layered
//! over the fault-aware pass loop.
//!
//! A fault-aware run ([`crate::driver::Faults`]) advances the solve `p_eff`
//! iterations per pipeline pass; with [`RecoveryPolicy::Rollback`](sf_recover::RecoveryPolicy::Rollback) the
//! driver groups passes into **checkpoint segments** of
//! [`RecoveryConfig::checkpoint_every`] passes. Per segment:
//!
//! 1. the segment is executed through the fault-aware pass loop;
//! 2. an [`AbftSignature`] (block row/column sums) of the segment output
//!    is compared against the signature of the reference-propagated state
//!    from the last verified checkpoint — silent data corruption the
//!    FIFO/AXI checks miss shows up here as `fault.sdc_detected`;
//! 3. on an ABFT mismatch *or* a watchdog deadlock, the last checkpoint
//!    is restored from the in-memory [`CheckpointRing`] (its content
//!    checksum re-verified) and only the lost passes are recomputed, up
//!    to [`RecoveryPolicy::Rollback`](sf_recover::RecoveryPolicy::Rollback)'s `max_retries` per segment;
//! 4. on success the new state is checkpointed (and optionally spilled
//!    to the versioned on-disk format). The run's final checkpoint is
//!    charged like every other, but without a spill directory its snapshot
//!    is not captured: no rollback can restore it.
//!
//! **The expected side** of every check is the golden reference
//! (`sf_kernels::reference`), never the engine under test. By default each
//! segment re-solves it from the verified start state. A run given the
//! input's [`GoldenTrajectory`] ([`Run::trajectory`], built by
//! [`golden_trajectory`]) first compares the start state's lane bit
//! patterns with the trajectory's state at that iteration, an O(n)
//! compare. When they are equal — every segment of a run whose checks all
//! pass — the expected signature is the trajectory's at the segment's end:
//! the reference is iteration-invariant, so that is the signature the
//! re-solve would produce. Any other start state re-solves as before.
//!
//! With [`RecoveryPolicy::Rerun`](sf_recover::RecoveryPolicy::Rerun) a fault-aware run has no segments:
//! detections surface to the caller.
//!
//! **Cost model.** Checkpoint writes are charged at the external-memory
//! write bandwidth of eq. 4 (`bytes / (BW/f)` cycles), ABFT checks at one
//! vector per cycle, and rollback replay at the plan's per-pass cycle
//! cost. All three are added to the [`CyclePlan`]'s total and attributed
//! to the dedicated [`StallClass::Checkpoint`] telemetry class, so the
//! overhead-vs-MTTR tradeoff of the checkpoint interval is directly
//! visible in the flat-metrics JSON and in cross-run `RunRecord`s.
//!
//! Determinism: the fault injector's RNG advances exactly once per
//! opportunity, replays re-consult it (a single-injection plan is clean
//! on replay — its budget is spent), and per-mesh runs derive their
//! injector seeds by index ([`derive_mesh_plan`]), so outputs, stats and
//! telemetry are byte-identical for any `--jobs` value and reproducible
//! per seed.
//!
//! [`CyclePlan`]: crate::cycles::CyclePlan
//! [`Run::trajectory`]: crate::driver::Run::trajectory

use crate::design::{MemKind, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::driver::{GridKernel, Passes, StreamGrid};
use crate::error::ExecError;
use crate::power;
use crate::report::SimReport;
use crate::resilient::{FaultHook, FaultyPlan};
use crate::window::Engine;
use sf_faults::{FaultInjector, FaultPlan};
use sf_mesh::Element;
use sf_recover::{
    abft_check_cycles, spill, AbftSignature, CheckpointRing, GoldenTrajectory, RecoveryConfig,
    RecoveryStats, Snapshot,
};
use sf_telemetry::{Recorder, StallClass};
use std::path::PathBuf;

/// Cycles to write `bytes` of checkpoint state through the design's
/// external memory at eq. 4 write bandwidth.
pub fn checkpoint_cost_cycles(dev: &FpgaDevice, design: &StencilDesign, bytes: u64) -> u64 {
    let mem = match design.mem {
        MemKind::Hbm => &dev.hbm,
        MemKind::Ddr4 => &dev.ddr4,
    };
    let bytes_per_cycle = mem.total_bw() / design.freq_hz;
    if bytes_per_cycle <= 0.0 {
        return bytes;
    }
    (bytes as f64 / bytes_per_cycle).ceil() as u64
}

/// Per-stream parameters of the checkpoint/rollback loop.
pub(crate) struct RecoverParams {
    /// Passes per checkpoint segment.
    interval: usize,
    /// Rollback attempts allowed per segment.
    max_retries: u32,
    /// Snapshots retained in memory.
    ring_capacity: usize,
    /// ABFT comparison tolerance.
    abft_tol: f64,
    /// Spill directory (optional) and file-name prefix for this stream.
    spill_dir: Option<PathBuf>,
    spill_prefix: String,
    /// Bytes of one snapshot of the stream.
    pub(crate) mesh_bytes: u64,
    /// Cycles charged per checkpoint write.
    ckpt_cost: u64,
    /// Cycles charged per ABFT check.
    abft_cost: u64,
    /// Watchdog budget of one pass.
    budget: u64,
}

impl RecoverParams {
    /// Parameters for recovering `stream` (a whole batch, or one member of
    /// a per-mesh run) under `rcfg`.
    pub(crate) fn new<B: StreamGrid>(
        rcfg: &RecoveryConfig,
        max_retries: u32,
        spill_prefix: String,
        dev: &FpgaDevice,
        design: &StencilDesign,
        stream: &B,
        budget: u64,
    ) -> RecoverParams {
        let cells = stream.as_slice().len();
        let mesh_bytes = (cells * B::Cell::size_bytes()) as u64;
        RecoverParams {
            interval: rcfg.checkpoint_every.max(1),
            max_retries,
            ring_capacity: rcfg.ring_capacity,
            abft_tol: rcfg.abft_tol,
            spill_dir: rcfg.spill_dir.clone(),
            spill_prefix,
            mesh_bytes,
            ckpt_cost: checkpoint_cost_cycles(dev, design, mesh_bytes),
            abft_cost: abft_check_cycles(cells as u64, design.v),
            budget,
        }
    }

    /// Checkpoint `state`, charging its cost: capture it into the ring and
    /// spill it, if spilling. The run's `last` checkpoint is only ever read
    /// back from a spill file, so without one it is charged, not captured.
    fn take_checkpoint<B: StreamGrid>(
        &self,
        ring: &mut CheckpointRing,
        stats: &mut RecoveryStats,
        state: &B,
        iters_done: u64,
        passes_done: u64,
        last: bool,
    ) -> Result<(), ExecError> {
        stats.checkpoints_taken += 1;
        stats.checkpoint_cycles += self.ckpt_cost;
        if last && self.spill_dir.is_none() {
            return Ok(());
        }
        let dims: Vec<u64> = match state.workload() {
            Workload::D2 { nx, ny, .. } => vec![nx as u64, ny as u64],
            Workload::D3 { nx, ny, nz, .. } => vec![nx as u64, ny as u64, nz as u64],
        };
        let snap = Snapshot::capture(
            iters_done,
            passes_done,
            &dims,
            state.batch() as u64,
            state.as_slice(),
        );
        if let Some(dir) = &self.spill_dir {
            let path = dir.join(format!("{}ckpt_{passes_done:06}.sfckpt", self.spill_prefix));
            spill::write_file(&path, &snap)
                .map_err(|e| ExecError::Checkpoint { detail: e.to_string() })?;
        }
        ring.push(snap);
        Ok(())
    }

    /// Restore the most recent checkpoint into `cells` after a detection.
    fn rollback<T: Element>(
        &self,
        ring: &CheckpointRing,
        cells: &mut [T],
        rollbacks: u32,
    ) -> Result<(), ExecError> {
        let snap = ring.latest().ok_or_else(|| ExecError::Checkpoint {
            detail: "rollback requested with no retained checkpoint".to_string(),
        })?;
        let restored: Vec<T> = snap
            .restore(cells.len())
            .map_err(|e| ExecError::Checkpoint { detail: format!("rollback {rollbacks}: {e}") })?;
        cells.copy_from_slice(&restored);
        Ok(())
    }
}

/// Split `remaining` iterations into per-pass `p_eff` chunks, at most
/// `interval` passes (one checkpoint segment).
pub(crate) fn segment_passes(p: usize, remaining: usize, interval: usize) -> Vec<usize> {
    let mut seg = Vec::new();
    let mut rem = remaining;
    while rem > 0 && seg.len() < interval {
        let pe = p.min(rem);
        seg.push(pe);
        rem -= pe;
    }
    seg
}

/// The golden trajectory of `input`: its `K::reference` state at iteration
/// 0 and after every pass of `p` iterations up to `niter`, each with its
/// ABFT signature over the input's stream units. Lent to the rollback runs
/// of this input ([`Run::trajectory`](crate::driver::Run::trajectory)) on a
/// design with `p` iterations per pass, it stands in for their per-segment
/// reference solves.
pub fn golden_trajectory<B: StreamGrid, K: GridKernel<B>>(
    stages: &[K],
    input: &B,
    p: usize,
    niter: usize,
) -> GoldenTrajectory {
    let mut golden = GoldenTrajectory::new(input.as_slice(), input.unit_len());
    let (mut state, mut done) = (input.clone(), 0);
    for iters in segment_passes(p, niter, usize::MAX) {
        state = K::reference(stages, &state, iters);
        done += iters;
        golden.push(done as u64, state.as_slice());
    }
    golden
}

/// The checkpoint/ABFT/rollback loop over one stream (a whole batch for a
/// single-stream run, one mesh for a per-mesh run). Every segment attempt
/// and replay streams through the run's engine, its chains built around
/// the run's window pool; the ABFT expected side is always the golden
/// reference — read from `golden` when the segment starts on its state,
/// re-solved otherwise — so every engine is verified against the same
/// signatures.
pub(crate) fn recover<B, K, E>(
    px: &Passes<'_, K, E>,
    input: &B,
    niter: usize,
    inj: &mut FaultInjector,
    prm: &RecoverParams,
    golden: Option<&GoldenTrajectory>,
) -> Result<(B, RecoveryStats), ExecError>
where
    B: StreamGrid,
    K: GridKernel<B>,
    E: Engine<B, K>,
{
    let unit = input.unit_len();
    let mut stats = RecoveryStats::default();
    let mut ring = CheckpointRing::new(prm.ring_capacity);
    let mut hook = FaultHook::new(inj, prm.budget);
    let mut off = Recorder::disabled();
    let mut verified = input.clone();
    let mut done = 0usize;
    let mut passes_done = 0u64;
    prm.take_checkpoint(&mut ring, &mut stats, &verified, 0, 0, false)?;

    while done < niter {
        let seg = segment_passes(px.sched.design.p, niter - done, prm.interval);
        let seg_iters: usize = seg.iter().sum();
        // replaying a segment costs its passes at the watchdog's pass price
        let seg_replay_cycles = seg.len() as u64 * prm.budget.saturating_sub(1);
        let solved;
        let expected_sig = match golden
            .filter(|g| g.holds(done as u64, verified.as_slice()))
            .and_then(|g| g.signature((done + seg_iters) as u64))
        {
            Some(sig) => sig,
            None => {
                let expected = K::reference(px.stages, &verified, seg_iters);
                solved = AbftSignature::compute(expected.as_slice(), unit);
                &solved
            }
        };

        let mut attempt = 0u32;
        let state = loop {
            match px.run(verified.clone(), &seg, None, &mut off, Some(&mut hook)) {
                Ok(state) => {
                    stats.abft_checks += 1;
                    stats.abft_cycles += prm.abft_cost;
                    let sig = AbftSignature::compute(state.as_slice(), unit);
                    if sig.matches(expected_sig, prm.abft_tol) {
                        break state;
                    }
                    stats.sdc_detected += 1;
                    if attempt >= prm.max_retries {
                        return Err(ExecError::RecoveryExhausted {
                            rollbacks: attempt,
                            detail: format!(
                                "ABFT signature mismatch persisted at iteration {done}"
                            ),
                        });
                    }
                }
                Err(ExecError::Deadlock(trip)) => {
                    if attempt >= prm.max_retries {
                        return Err(ExecError::Deadlock(trip));
                    }
                }
                Err(other) => return Err(other),
            }
            attempt += 1;
            stats.rollbacks += 1;
            stats.batches_replayed += seg.len() as u64;
            stats.recovery_cycles += seg_replay_cycles;
            prm.rollback(&ring, verified.as_mut_slice(), attempt)?;
        };
        verified = state;
        done += seg_iters;
        passes_done += seg.len() as u64;
        let last = done == niter;
        prm.take_checkpoint(&mut ring, &mut stats, &verified, done as u64, passes_done, last)?;
    }
    Ok((verified, stats))
}

/// Fold recovery stats into the plan, the recorder and the report.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finalize(
    dev: &FpgaDevice,
    design: &StencilDesign,
    fp: &FaultyPlan,
    niter: u64,
    mesh_bytes: u64,
    stats: &RecoveryStats,
    injected: u64,
    rec: &mut Recorder,
) -> SimReport {
    let mut plan = fp.plan;
    let overhead = stats.overhead_cycles();
    plan.total_cycles += overhead;
    plan.ext_write_bytes += stats.checkpoints_taken * mesh_bytes;
    plan.runtime_s = plan.total_cycles as f64 / design.freq_hz
        + plan.host_calls as f64 * dev.host_call_latency_s;
    rec.stall(StallClass::Checkpoint, overhead);
    rec.counter_add("fault.injected", injected);
    rec.counter_add("fault.axi.extra_cycles", fp.extra_axi_cycles);
    rec.counter_add("fault.axi.recovered", fp.bursts_recovered);
    rec.counter_add("fault.sdc_detected", stats.sdc_detected);
    rec.counter_add("recover.checkpoints", stats.checkpoints_taken);
    rec.counter_add("recover.checkpoint_cycles", stats.checkpoint_cycles);
    rec.counter_add("recover.abft_checks", stats.abft_checks);
    rec.counter_add("recover.abft_cycles", stats.abft_cycles);
    rec.counter_add("recover.rollbacks", stats.rollbacks);
    rec.counter_add("recover.batches_replayed", stats.batches_replayed);
    rec.counter_add("recover.recovery_cycles", stats.recovery_cycles);
    rec.counter_add("recover.mean_cycles_to_recovery", stats.mean_cycles_to_recovery());
    SimReport::from_plan(design, &plan, niter, power::fpga_power_w(dev, design))
}

/// SplitMix64 finalizer used to derive independent per-mesh fault seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Per-mesh fault plan for per-mesh runs: same kind, rate and injection
/// budget, seed derived from the base seed and the mesh index.
pub fn derive_mesh_plan(base: &FaultPlan, mesh_index: usize) -> FaultPlan {
    FaultPlan {
        seed: mix(base.seed ^ (mesh_index as u64).wrapping_mul(0xa076_1d64_78bd_642f)),
        ..*base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use crate::driver::{Faults, Run};
    use crate::fast::{ExecEngine, FastEngine};
    use crate::window::ScalarEngine;
    use sf_faults::FaultKind;
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::{norms, Batch2D, Batch3D, Mesh2D, Mesh3D};
    use sf_recover::RecoveryPolicy;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    /// A single-stream recoverable run on the scalar engine.
    fn recoverable<B, K>(
        ds: &StencilDesign,
        stages: &[K],
        input: &B,
        niter: usize,
        inj: &mut FaultInjector,
        rcfg: &RecoveryConfig,
        rec: &mut Recorder,
    ) -> Result<(B, SimReport, RecoveryStats), ExecError>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        Run {
            engine: ExecEngine::Scalar,
            faults: Faults::Injector(inj),
            recovery: Some(rcfg),
            ..Run::new(&dev(), ds, stages, niter, rec)
        }
        .simulate(input)
    }

    fn poisson_setup() -> (StencilDesign, Batch2D<f32>, Mesh2D<f32>) {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            4,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        (ds, batch, m)
    }

    fn rollback_cfg(every: usize) -> RecoveryConfig {
        RecoveryConfig {
            policy: RecoveryPolicy::Rollback { max_retries: 3 },
            checkpoint_every: every,
            ..RecoveryConfig::default()
        }
    }

    #[test]
    fn clean_run_matches_reference_and_charges_overhead() {
        let (ds, batch, m) = poisson_setup();
        let mut inj = FaultInjector::disabled();
        let mut rec = Recorder::enabled(300.0);
        let (out, rep, stats) =
            recoverable(&ds, &[Poisson2D], &batch, 12, &mut inj, &rollback_cfg(2), &mut rec)
                .unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        assert_eq!(stats.rollbacks, 0);
        assert_eq!(stats.sdc_detected, 0);
        // 12 iters at p=4 → 3 passes → 2 segments; initial + 2 checkpoints.
        assert_eq!(stats.checkpoints_taken, 3);
        assert_eq!(stats.abft_checks, 2);
        assert!(stats.checkpoint_cycles > 0 && stats.abft_cycles > 0);
        assert_eq!(rec.stall_breakdown().checkpoint_cycles, stats.overhead_cycles());
        assert!(rep.total_cycles > 0);
    }

    #[test]
    fn bitflip_is_detected_by_abft_and_rolled_back() {
        let (ds, batch, m) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(42, FaultKind::BitFlip, 1_000_000));
        let mut rec = Recorder::enabled(300.0);
        let (out, _, stats) =
            recoverable(&ds, &[Poisson2D], &batch, 12, &mut inj, &rollback_cfg(4), &mut rec)
                .unwrap();
        assert_eq!(inj.injected(), 1);
        assert_eq!(stats.sdc_detected, 1, "ABFT must catch the silent corruption");
        assert_eq!(stats.rollbacks, 1);
        assert!(stats.recovery_cycles > 0);
        assert_eq!(stats.mean_cycles_to_recovery(), stats.recovery_cycles);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(
            norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()),
            "post-rollback result must be bit-exact with the reference"
        );
        assert_eq!(rec.counter("fault.sdc_detected"), 1);
        assert_eq!(rec.counter("recover.rollbacks"), 1);
    }

    #[test]
    fn recovery_counters_reach_the_flat_metrics_json() {
        // The ISSUE acceptance criterion: recovery overhead and
        // mean-cycles-to-recovery must be visible in the flat-metrics JSON
        // a recoverable run's recorder produces.
        let (ds, batch, _) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(42, FaultKind::BitFlip, 1_000_000));
        let mut rec = Recorder::enabled(300.0);
        let (_, _, stats) =
            recoverable(&ds, &[Poisson2D], &batch, 12, &mut inj, &rollback_cfg(4), &mut rec)
                .unwrap();
        let doc = sf_telemetry::metrics::metrics(&rec);
        let counters = doc.get("counters").expect("counters block");
        let counter = |k: &str| counters.get(k).and_then(serde::Value::as_u64);
        assert_eq!(counter("recover.checkpoints"), Some(stats.checkpoints_taken));
        assert_eq!(counter("recover.rollbacks"), Some(stats.rollbacks));
        assert_eq!(counter("recover.recovery_cycles"), Some(stats.recovery_cycles));
        assert_eq!(
            counter("recover.mean_cycles_to_recovery"),
            Some(stats.mean_cycles_to_recovery())
        );
        assert_eq!(counter("fault.sdc_detected"), Some(stats.sdc_detected));
        let stalls = doc.get("stalls").expect("stalls block");
        assert_eq!(
            stalls.get("checkpoint_cycles").and_then(serde::Value::as_u64),
            Some(stats.overhead_cycles()),
            "checkpoint overhead must be attributed as its own stall class"
        );
    }

    #[test]
    fn fifo_drop_deadlock_is_rolled_back() {
        let (ds, batch, m) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000));
        let mut rec = Recorder::disabled();
        let (out, _, stats) =
            recoverable(&ds, &[Poisson2D], &batch, 12, &mut inj, &rollback_cfg(4), &mut rec)
                .unwrap();
        assert_eq!(stats.rollbacks, 1, "watchdog trip must trigger a rollback, not an error");
        assert_eq!(stats.sdc_detected, 0);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn rerun_policy_delegates_to_resilient_behavior() {
        let (ds, batch, _) = poisson_setup();
        let mut inj = FaultInjector::new(FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000));
        let mut rec = Recorder::disabled();
        let cfg = RecoveryConfig { policy: RecoveryPolicy::Rerun, ..RecoveryConfig::default() };
        let r = recoverable(&ds, &[Poisson2D], &batch, 12, &mut inj, &cfg, &mut rec);
        assert!(matches!(r, Err(ExecError::Deadlock(_))), "{r:?}");
    }

    #[test]
    fn recoverable_3d_rolls_back_bitflip() {
        let m = Mesh3D::<f32>::random(12, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let k = Jacobi3D::smoothing();
        let mut inj = FaultInjector::new(FaultPlan::single(21, FaultKind::BitFlip, 1_000_000));
        let mut rec = Recorder::disabled();
        let (out, _, stats) =
            recoverable(&ds, &[k], &batch, 6, &mut inj, &rollback_cfg(1), &mut rec).unwrap();
        assert_eq!(stats.sdc_detected, 1);
        assert_eq!(stats.rollbacks, 1);
        let expect = reference::run_3d(&k, &m, 6);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn spill_writes_versioned_checkpoints() {
        let dir = std::env::temp_dir().join("sf-fpga-recovery-spill-test");
        let _ = std::fs::create_dir_all(&dir);
        let (ds, batch, _) = poisson_setup();
        let mut inj = FaultInjector::disabled();
        let mut rec = Recorder::disabled();
        let cfg = RecoveryConfig { spill_dir: Some(dir.clone()), ..rollback_cfg(2) };
        let (_, _, _stats) =
            recoverable(&ds, &[Poisson2D], &batch, 12, &mut inj, &cfg, &mut rec).unwrap();
        let first = dir.join("ckpt_000000.sfckpt");
        let snap = spill::read_file(&first).expect("initial spilled checkpoint must decode");
        assert_eq!(snap.dims, vec![40, 24]);
        assert_eq!(snap.iters_done, 0);
        let last = dir.join("ckpt_000003.sfckpt");
        let snap = spill::read_file(&last).expect("final spilled checkpoint must decode");
        assert_eq!(snap.iters_done, 12);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A rollback run of Poisson (12 iterations, one 3-pass segment) on
    /// `batch` with an optional fault plan, lent `golden`.
    fn poisson_rollback(
        ds: &StencilDesign,
        batch: &Batch2D<f32>,
        plan: Option<FaultPlan>,
        golden: Option<&GoldenTrajectory>,
    ) -> Result<(Batch2D<f32>, SimReport, RecoveryStats), ExecError> {
        let mut inj = plan.map_or_else(FaultInjector::disabled, FaultInjector::new);
        let mut rec = Recorder::disabled();
        Run {
            faults: Faults::Injector(&mut inj),
            recovery: Some(&rollback_cfg(4)),
            trajectory: golden,
            ..Run::new(&dev(), ds, &[Poisson2D], 12, &mut rec)
        }
        .simulate(batch)
    }

    const BITFLIP: FaultPlan =
        FaultPlan { seed: 42, kind: FaultKind::BitFlip, rate_ppm: 1_000_000, max_injections: 1 };

    #[test]
    fn trajectory_run_matches_the_reference_and_rolls_back_bitflips() {
        let (ds, batch, m) = poisson_setup();
        let golden = golden_trajectory(&[Poisson2D], &batch, ds.p, 12);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(golden.holds(12, expect.as_slice()), "the trajectory ends on the reference");
        for plan in [None, Some(BITFLIP)] {
            let (out, rep, stats) = poisson_rollback(&ds, &batch, plan, Some(&golden)).unwrap();
            assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()), "{plan:?}");
            let (_, plain_rep, plain_stats) = poisson_rollback(&ds, &batch, plan, None).unwrap();
            assert_eq!(stats, plain_stats, "{plan:?}");
            assert_eq!(rep.total_cycles, plain_rep.total_cycles, "{plan:?}");
            let flipped = u64::from(plan.is_some());
            assert_eq!((stats.sdc_detected, stats.rollbacks), (flipped, flipped), "{plan:?}");
        }
    }

    #[test]
    fn foreign_trajectory_falls_back_to_the_reference() {
        // same shape, another input: no segment starts on its states
        let (ds, batch, m) = poisson_setup();
        let other = Batch2D::<f32>::random(40, 24, 1, 8, -1.0, 1.0);
        let foreign = golden_trajectory(&[Poisson2D], &other, ds.p, 12);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        for plan in [None, Some(BITFLIP)] {
            let (out, rep, stats) = poisson_rollback(&ds, &batch, plan, Some(&foreign)).unwrap();
            let (plain, plain_rep, plain_stats) =
                poisson_rollback(&ds, &batch, plan, None).unwrap();
            assert!(norms::bit_equal(out.as_slice(), plain.as_slice()), "{plan:?}");
            assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()), "{plan:?}");
            assert_eq!(stats, plain_stats, "{plan:?}");
            assert_eq!(rep.total_cycles, plain_rep.total_cycles, "{plan:?}");
        }
    }

    #[test]
    fn trajectory_signatures_are_the_expected_side() {
        // a trajectory that starts on the input but records wrong later
        // states: the fault-free run must trust its signatures, and fail
        let (ds, batch, _) = poisson_setup();
        let mut poisoned = GoldenTrajectory::new(batch.as_slice(), batch.unit_len());
        for it in [4, 8, 12] {
            poisoned.push(it, batch.as_slice());
        }
        let r = poisson_rollback(&ds, &batch, None, Some(&poisoned));
        assert!(matches!(r, Err(ExecError::RecoveryExhausted { .. })), "{:?}", r.map(|_| ()));
    }

    #[test]
    fn trajectory_must_fit_the_run() {
        let (ds, batch, _) = poisson_setup();
        let shape = |golden: &GoldenTrajectory| {
            let r = poisson_rollback(&ds, &batch, None, Some(golden));
            assert!(matches!(r, Err(ExecError::ShapeMismatch { .. })), "{:?}", r.map(|_| ()));
        };
        // 8 iterations, passes of 3, and 24×40 units of the same 960 cells
        shape(&golden_trajectory(&[Poisson2D], &batch, ds.p, 8));
        shape(&golden_trajectory(&[Poisson2D], &batch, 3, 12));
        let transposed = Batch2D::<f32>::random(24, 40, 1, 7, -1.0, 1.0);
        shape(&golden_trajectory(&[Poisson2D], &transposed, ds.p, 12));
        let lanes: Vec<sf_mesh::VecN<2>> = vec![sf_mesh::VecN::splat(0.0); 960];
        shape(&GoldenTrajectory::new(&lanes, 40));
        // only a single-stream rollback run reads a trajectory
        let golden = golden_trajectory(&[Poisson2D], &batch, ds.p, 12);
        let rerun = RecoveryConfig { policy: RecoveryPolicy::Rerun, ..rollback_cfg(4) };
        let mut rec = Recorder::disabled();
        let mut inj = FaultInjector::disabled();
        let r = Run {
            faults: Faults::Injector(&mut inj),
            recovery: Some(&rerun),
            trajectory: Some(&golden),
            ..Run::new(&dev(), &ds, &[Poisson2D], 12, &mut rec)
        }
        .simulate(&batch);
        assert!(matches!(r, Err(ExecError::Unsupported { .. })), "{:?}", r.map(|_| ()));
        let r = Run {
            jobs: Some(1),
            faults: Faults::Plan(BITFLIP),
            recovery: Some(&rollback_cfg(4)),
            trajectory: Some(&golden),
            ..Run::new(&dev(), &ds, &[Poisson2D], 12, &mut rec)
        }
        .simulate(&batch);
        assert!(matches!(r, Err(ExecError::Unsupported { .. })), "{:?}", r.map(|_| ()));
    }

    #[test]
    fn batch_parallel_recovery_is_jobs_invariant() {
        let wl = Workload::D2 { nx: 24, ny: 12, batch: 3 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            2,
            ExecMode::Batched { b: 3 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::<f32>::random(24, 12, 3, 11, -1.0, 1.0);
        let plan = FaultPlan::single(99, FaultKind::BitFlip, 200_000);
        let run = |jobs: usize| {
            let mut rec = Recorder::disabled();
            Run {
                engine: ExecEngine::Scalar,
                jobs: Some(jobs),
                faults: Faults::Plan(plan),
                recovery: Some(&rollback_cfg(2)),
                ..Run::new(&dev(), &ds, &[Poisson2D], 8, &mut rec)
            }
            .simulate(&batch)
            .unwrap()
        };
        let (o1, r1, s1) = run(1);
        let (o4, r4, s4) = run(4);
        assert!(norms::bit_equal(o1.as_slice(), o4.as_slice()));
        assert_eq!(s1, s4);
        assert_eq!(r1.total_cycles, r4.total_cycles);
        // every mesh result is bit-exact vs its own reference solve
        for i in 0..3 {
            let expect = reference::run_2d(&Poisson2D, &batch.mesh(i), 8);
            assert!(norms::bit_equal(o1.mesh(i).as_slice(), expect.as_slice()), "mesh {i}");
        }
    }
}
