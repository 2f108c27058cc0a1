//! Vectorized fast-path execution: lane-parallel stage processors that
//! advance [`LANES`] adjacent cells per step through the same window-buffer
//! chain the scalar engine streams, plus the engine-selecting entry points.
//!
//! # Bit-exactness by construction
//!
//! The fast processors do **not** reimplement any kernel. A kernel's update
//! is written once, generically over `sf_kernels::AbstractValue`; the SIMD
//! pack type [`sf_simd::F32xL`] implements that trait elementwise, so
//! instantiating the same generic update at the pack type replays the
//! identical per-cell floating-point operation sequence — no reassociation,
//! no FMA contraction, just `LANES` independent IEEE streams evaluated side
//! by side (see [`sf_kernels::lanes`]). Boundary cells and the ragged tail
//! of each row go through the kernel's scalar `apply`/`on_boundary`
//! methods. The result is bit-identical to the scalar engine (and hence
//! to the golden reference) for every mesh shape, batch size and stencil.
//!
//! # What is shared, what is swapped
//!
//! The [`Engine`] trait confines the fast path to one swap point: the
//! per-stage processor built by [`FastEngine`] instead of
//! [`ScalarEngine`](crate::window::ScalarEngine).
//! Streaming schedule, telemetry hooks (which fire per row/plane, never per
//! cell), drain logic, cycle accounting, fault injection points, watchdog
//! observation and recovery checkpointing are the *same code*
//! ([`crate::driver`]) for both engines, so traces,
//! [`crate::report::SimReport`]s and fault campaigns are byte-identical
//! across `--exec scalar|fast`. The entry points below only name the
//! engine; [`ExecEngine`] is resolved to an [`Engine`] in one place.
//!
//! Iteration is row-blocked: each emitted row (2D) or row-of-plane (3D) is
//! processed left boundary → lane packs → scalar epilogue → right boundary,
//! touching each cache line once per stencil row. Every cell is written in
//! place into the output unit the chain runner hands over — the next
//! stage's window slot, or the pass's output buffer — and each lane pack is
//! scattered straight into it, so an emitted unit costs no allocation and
//! no copy.

use crate::design::StencilDesign;
use crate::device::FpgaDevice;
use crate::driver::{expect_checked, Faults, Run};
use crate::error::ExecError;
use crate::report::SimReport;
use crate::window::{Engine, Stage, Window};
use serde::{Deserialize, Serialize};
use sf_faults::{FaultInjector, RetryPolicy};
use sf_kernels::{LaneElement, LaneOp2D, LaneOp3D};
use sf_mesh::{Batch2D, Batch3D};
use sf_recover::{RecoveryConfig, RecoveryStats};
use sf_simd::LANES;
use sf_telemetry::Recorder;

/// One lane-parallel pipeline stage streaming rows of a (possibly batched)
/// 2D mesh — the fast-path counterpart of
/// [`crate::window::StageProcessor2D`], emitting cell-for-cell bit-equal
/// rows.
pub struct FastStageProcessor2D<T: LaneElement, K: LaneOp2D<T>> {
    k: K,
    nx: usize,
    win: Window<T>,
}

impl<T: LaneElement, K: LaneOp2D<T>> FastStageProcessor2D<T, K> {
    /// Create a processor for a stream of `stream_rows` rows of `nx` cells,
    /// where every `mesh_ny` rows form an independent mesh.
    pub fn new(k: K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self {
        let win = Window::new(k.radius(), nx, stream_rows, mesh_ny);
        FastStageProcessor2D { k, nx, win }
    }
}

impl<T: LaneElement, K: LaneOp2D<T>> Stage<T> for FastStageProcessor2D<T, K> {
    fn window(&self) -> &Window<T> {
        &self.win
    }
    fn window_mut(&mut self) -> &mut Window<T> {
        &mut self.win
    }
    fn emit(&self, y: usize, out: &mut [T]) {
        let (nx, r) = (self.nx, self.win.radius());
        assert_eq!(out.len(), nx, "unit size mismatch");
        let center = self.win.get(y);
        if !self.win.interior(y) {
            // Boundary row of its mesh: every cell is a boundary cell.
            for (o, c) in out.iter_mut().zip(center) {
                *o = self.k.on_boundary(*c);
            }
            return;
        }
        // Interior ly ≥ r implies y ≥ r, so the window rows y−r..=y+r are
        // all resident; hoist the borrows out of the cell loop.
        let rows = self.win.around(y);
        let hi = nx.saturating_sub(r);
        for x in 0..r.min(nx) {
            out[x] = self.k.on_boundary(center[x]);
        }
        let mut x = r;
        while x + LANES <= hi {
            let at = |dx: i32, dy: i32| {
                T::gather(rows[(dy + r as i32) as usize], (x as i32 + dx) as usize)
            };
            T::scatter(self.k.apply_lanes(&at), out, x);
            x += LANES;
        }
        // Scalar epilogue for the ragged tail (hi − x < LANES cells).
        while x < hi {
            out[x] =
                self.k.apply(|dx, dy| rows[(dy + r as i32) as usize][(x as i32 + dx) as usize]);
            x += 1;
        }
        for x in hi.max(r)..nx {
            out[x] = self.k.on_boundary(center[x]);
        }
    }
}

/// One lane-parallel pipeline stage streaming planes of a (possibly
/// batched) 3D mesh — the fast-path counterpart of
/// [`crate::window::StageProcessor3D`].
pub struct FastStageProcessor3D<T: LaneElement, K: LaneOp3D<T>> {
    k: K,
    nx: usize,
    ny: usize,
    win: Window<T>,
}

impl<T: LaneElement, K: LaneOp3D<T>> FastStageProcessor3D<T, K> {
    /// Create a processor for a stream of `stream_planes` planes of
    /// `nx × ny` cells, `mesh_nz` planes per independent mesh.
    pub fn new(k: K, nx: usize, ny: usize, stream_planes: usize, mesh_nz: usize) -> Self {
        let win = Window::new(k.radius(), nx * ny, stream_planes, mesh_nz);
        FastStageProcessor3D { k, nx, ny, win }
    }
}

impl<T: LaneElement, K: LaneOp3D<T>> Stage<T> for FastStageProcessor3D<T, K> {
    fn window(&self) -> &Window<T> {
        &self.win
    }
    fn window_mut(&mut self) -> &mut Window<T> {
        &mut self.win
    }
    fn emit(&self, z: usize, out: &mut [T]) {
        let (nx, ny, r) = (self.nx, self.ny, self.win.radius());
        assert_eq!(out.len(), nx * ny, "unit size mismatch");
        let center = self.win.get(z);
        if !self.win.interior(z) {
            for (o, c) in out.iter_mut().zip(center) {
                *o = self.k.on_boundary(*c);
            }
            return;
        }
        let planes = self.win.around(z);
        let hi = nx.saturating_sub(r);
        for (y, row) in out.chunks_exact_mut(nx).enumerate() {
            let row_center = &center[y * nx..(y + 1) * nx];
            if y < r || y + r >= ny {
                for (o, c) in row.iter_mut().zip(row_center) {
                    *o = self.k.on_boundary(*c);
                }
                continue;
            }
            for x in 0..r.min(nx) {
                row[x] = self.k.on_boundary(row_center[x]);
            }
            let mut x = r;
            while x + LANES <= hi {
                let at = |dx: i32, dy: i32, dz: i32| {
                    let plane = planes[(dz + r as i32) as usize];
                    T::gather(plane, ((y as i32 + dy) as usize) * nx + (x as i32 + dx) as usize)
                };
                T::scatter(self.k.apply_lanes(&at), row, x);
                x += LANES;
            }
            while x < hi {
                row[x] = self.k.apply(|dx, dy, dz| {
                    let plane = planes[(dz + r as i32) as usize];
                    plane[((y as i32 + dy) as usize) * nx + (x as i32 + dx) as usize]
                });
                x += 1;
            }
            for x in hi.max(r)..nx {
                row[x] = self.k.on_boundary(row_center[x]);
            }
        }
    }
}

/// The lane-parallel engine: builds [`FastStageProcessor2D`] /
/// [`FastStageProcessor3D`] stages for kernels with a lane impl
/// ([`LaneOp2D`] / [`LaneOp3D`]).
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct FastEngine;

impl<T: LaneElement, K: LaneOp2D<T> + Clone> Engine<Batch2D<T>, K> for FastEngine {
    type Stage = FastStageProcessor2D<T, K>;
    fn stage(&self, k: &K, unit: (usize, usize), stream: usize, mesh: usize) -> Self::Stage {
        FastStageProcessor2D::new(k.clone(), unit.0, stream, mesh)
    }
}

impl<T: LaneElement, K: LaneOp3D<T> + Clone> Engine<Batch3D<T>, K> for FastEngine {
    type Stage = FastStageProcessor3D<T, K>;
    fn stage(&self, k: &K, unit: (usize, usize), stream: usize, mesh: usize) -> Self::Stage {
        FastStageProcessor3D::new(k.clone(), unit.0, unit.1, stream, mesh)
    }
}

/// Which execution engine a run streams through (the `--exec` CLI flag).
///
/// Both engines are bit-exact against the golden reference; `Fast` is the
/// default everywhere a kernel carries a lane impl.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum ExecEngine {
    /// Cell-at-a-time scalar stage processors — the reference path.
    Scalar,
    /// Lane-parallel stage processors advancing [`LANES`] cells per step.
    #[default]
    Fast,
}

impl ExecEngine {
    /// The names of the variants, in declaration order.
    const NAMES: [&'static str; 2] = ["scalar", "fast"];

    /// Stable lowercase name (CLI values, JSON keys).
    pub fn name(&self) -> &'static str {
        Self::NAMES[*self as usize]
    }

    /// Parse a CLI engine name.
    pub fn parse(s: &str) -> Option<ExecEngine> {
        [ExecEngine::Scalar, ExecEngine::Fast].into_iter().find(|e| e.name() == s)
    }
}

impl std::fmt::Display for ExecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Traced single-stream execution on `engine`: the schedule trace
/// ([`crate::profile::trace_schedule`] — per-pass/per-tile spans, AXI
/// channel utilisation, stall attribution) plus behavioral window-buffer
/// events (fill gauges, primed/drain instants) for the first pass. The
/// schedule repeats identically every pass, so later passes stream
/// untraced.
///
/// # Panics
/// Panics if the design mode disagrees with the input batch, like
/// [`crate::exec2d::simulate_2d`].
pub fn simulate_2d_exec<T: LaneElement, K: LaneOp2D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    rec: &mut Recorder,
) -> (Batch2D<T>, SimReport) {
    expect_checked(
        Run { engine, ..Run::new(dev, design, stages_per_iter, niter, rec) }.simulate(input),
    )
}

/// [`simulate_2d_exec`] for 3D batches.
///
/// # Panics
/// See [`simulate_2d_exec`].
pub fn simulate_3d_exec<T: LaneElement, K: LaneOp3D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    rec: &mut Recorder,
) -> (Batch3D<T>, SimReport) {
    expect_checked(
        Run { engine, ..Run::new(dev, design, stages_per_iter, niter, rec) }.simulate(input),
    )
}

/// Execute a (batch of) 2D mesh(es) with per-mesh fan-out across `jobs`
/// worker threads ([`crate::exec_batch`]). Output, [`SimReport`] and every
/// byte recorded into `rec` are identical for all `jobs` values; the
/// numeric result is bit-identical to [`simulate_2d_exec`].
///
/// # Panics
/// Panics on a design/input mismatch (wrong batch size, a tiled design) or
/// `niter == 0`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_2d_parallel_exec<T: LaneElement, K: LaneOp2D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    jobs: usize,
    rec: &mut Recorder,
) -> (Batch2D<T>, SimReport) {
    let mut run =
        Run { engine, jobs: Some(jobs), ..Run::new(dev, design, stages_per_iter, niter, rec) };
    expect_checked(run.simulate(input))
}

/// [`simulate_batch_2d_parallel_exec`] for 3D batches.
///
/// # Panics
/// See [`simulate_batch_2d_parallel_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_batch_3d_parallel_exec<T: LaneElement, K: LaneOp3D<T> + Clone + Sync>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    jobs: usize,
    rec: &mut Recorder,
) -> (Batch3D<T>, SimReport) {
    let mut run =
        Run { engine, jobs: Some(jobs), ..Run::new(dev, design, stages_per_iter, niter, rec) };
    expect_checked(run.simulate(input))
}

/// Fault-aware single-stream execution on `engine` with checkpoint
/// recovery ([`crate::recovery`]). With [`sf_recover::RecoveryPolicy::Rerun`]
/// every detection surfaces to the caller and the stats are all-zero;
/// with `Rollback` the run checkpoints every `checkpoint_every` passes,
/// verifies each segment with an ABFT signature and rolls back on a
/// watchdog or ABFT detection.
///
/// # Errors
/// The run check's [`ExecError::ShapeMismatch`]/[`ExecError::Unsupported`]
/// and the datapath errors of [`crate::driver::Run::simulate`]; injection
/// points and watchdog behavior are engine-independent.
#[allow(clippy::too_many_arguments)]
pub fn simulate_2d_recoverable_exec<T: LaneElement, K: LaneOp2D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    rec: &mut Recorder,
) -> Result<(Batch2D<T>, SimReport, RecoveryStats), ExecError> {
    Run {
        engine,
        faults: Faults::Injector(inj),
        retry: *policy,
        recovery: Some(rcfg),
        ..Run::new(dev, design, stages_per_iter, niter, rec)
    }
    .simulate(input)
}

/// [`simulate_2d_recoverable_exec`] for 3D batches.
///
/// # Errors
/// See [`simulate_2d_recoverable_exec`].
#[allow(clippy::too_many_arguments)]
pub fn simulate_3d_recoverable_exec<T: LaneElement, K: LaneOp3D<T> + Clone>(
    engine: ExecEngine,
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
    rcfg: &RecoveryConfig,
    rec: &mut Recorder,
) -> Result<(Batch3D<T>, SimReport, RecoveryStats), ExecError> {
    Run {
        engine,
        faults: Faults::Injector(inj),
        retry: *policy,
        recovery: Some(rcfg),
        ..Run::new(dev, design, stages_per_iter, niter, rec)
    }
    .simulate(input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind, Workload};
    use crate::exec2d::{simulate_2d, simulate_mesh_2d};
    use crate::exec3d::simulate_3d;
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::{norms, Batch2D, Batch3D, Mesh2D, Mesh3D};
    use sf_telemetry::{chrome::to_chrome_json, metrics::to_metrics_json};

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn fast_2d_bit_exact_vs_scalar_and_reference() {
        // 40 % 8 == 0 exercises full-lane rows; interior width 38 leaves a
        // ragged tail of 6 cells for the scalar epilogue.
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
        let (scalar, scalar_rep) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 12);
        let (fast, fast_rep) = simulate_2d_exec(
            ExecEngine::Fast,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            12,
            &mut Recorder::disabled(),
        );
        assert!(norms::bit_equal(fast.as_slice(), scalar.as_slice()));
        assert_eq!(fast_rep.total_cycles, scalar_rep.total_cycles);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(fast.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn fast_3d_bit_exact_vs_scalar() {
        let m = Mesh3D::<f32>::random(19, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 19, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let k = Jacobi3D::smoothing();
        let (scalar, _) = simulate_3d(&dev(), &ds, &[k], &batch, 6);
        let (fast, _) = simulate_3d_exec(
            ExecEngine::Fast,
            &dev(),
            &ds,
            &[k],
            &batch,
            6,
            &mut Recorder::disabled(),
        );
        assert!(norms::bit_equal(fast.as_slice(), scalar.as_slice()));
        let expect = reference::run_3d(&k, &m, 6);
        assert!(norms::bit_equal(fast.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn fast_tiled_2d_bit_exact() {
        let m = Mesh2D::<f32>::random(200, 30, 13, -1.0, 1.0);
        let wl = Workload::D2 { nx: 200, ny: 30, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            8,
            ExecMode::Tiled1D { tile_m: 64 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let (scalar, _) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 16);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let (fast, _) = simulate_2d_exec(
            ExecEngine::Fast,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            16,
            &mut Recorder::disabled(),
        );
        assert!(norms::bit_equal(fast.mesh(0).as_slice(), scalar.as_slice()));
    }

    #[test]
    fn fast_traces_byte_identical_to_scalar() {
        let m = Mesh2D::<f32>::random(40, 24, 3, -1.0, 1.0);
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
        let mut rec_s = Recorder::enabled(ds.freq_hz / 1e6);
        let _ =
            simulate_2d_exec(ExecEngine::Scalar, &dev(), &ds, &[Poisson2D], &batch, 8, &mut rec_s);
        let mut rec_f = Recorder::enabled(ds.freq_hz / 1e6);
        let _ =
            simulate_2d_exec(ExecEngine::Fast, &dev(), &ds, &[Poisson2D], &batch, 8, &mut rec_f);
        assert_eq!(to_chrome_json(&rec_s), to_chrome_json(&rec_f));
        assert_eq!(to_metrics_json(&rec_s), to_metrics_json(&rec_f));
    }

    #[test]
    fn exec_engine_names_round_trip() {
        assert_eq!(ExecEngine::parse("fast"), Some(ExecEngine::Fast));
        assert_eq!(ExecEngine::parse("scalar"), Some(ExecEngine::Scalar));
        assert_eq!(ExecEngine::parse("simd"), None);
        assert_eq!(ExecEngine::default(), ExecEngine::Fast);
        for e in [ExecEngine::Scalar, ExecEngine::Fast] {
            assert_eq!(ExecEngine::parse(e.name()), Some(e));
            assert_eq!(format!("{e}"), e.name());
        }
    }
}
