//! 2D executors: baseline, batched and tiled execution of a synthesized
//! design, producing both the numeric result (bit-exact vs the golden
//! reference) and a [`SimReport`].
//!
//! * [`simulate_2d`] — streams every cell through the window-buffer chain
//!   (use for validation-scale workloads).
//! * [`estimate_2d`] — timing/power only, for paper-scale workloads
//!   (60 000 iterations on 400×400 meshes would be pointless to stream
//!   cell by cell — the cycle plan is closed-form and exact either way).
//!
//! Both executors are one-line calls into [`crate::driver`]; this module
//! supplies what is 2D about them: a `Batch2D` streams rows, a
//! [`StreamGrid`] unit of one row. A tiled design blocks it along x only;
//! the pass driver streams the tiles of the schedule walk ([`Schedule`])
//! through the same pass body as a whole mesh, each tile with its own row
//! cost.

use crate::cycles::Schedule;
use crate::design::{StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::driver::{expect_checked, GridKernel, Run, StreamGrid};
use crate::error::ExecError;
use crate::link::MultiConfig;
use crate::power;
use crate::report::SimReport;
use crate::window::ScalarEngine;
use sf_kernels::{reference, StencilOp2D};
use sf_mesh::{Batch2D, Element, Mesh2D};
use sf_telemetry::Recorder;

/// Timing/power estimate for a workload without executing the numerics.
///
/// # Errors
/// [`ExecError::ShapeMismatch`] if the workload is not 2D, or if the
/// design's mode cannot stream it (a `Tiled2D` design).
pub fn estimate_2d(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
) -> Result<SimReport, ExecError> {
    if !matches!(wl, Workload::D2 { .. }) {
        return Err(ExecError::ShapeMismatch {
            detail: "2D estimator needs a 2D workload".to_string(),
        });
    }
    let plan = Schedule::new(dev, design, wl, &MultiConfig::default())?.plan(niter);
    Ok(SimReport::from_plan(design, &plan, niter, power::fpga_power_w(dev, design)))
}

/// Execute `niter` iterations of `stages_per_iter` on a (batch of) 2D
/// mesh(es) through the design's dataflow pipeline on the scalar engine.
/// Returns the result and the report.
///
/// ```
/// use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
/// use sf_fpga::{exec2d, FpgaDevice};
/// use sf_kernels::{reference, Poisson2D, StencilSpec};
/// use sf_mesh::{norms, Mesh2D};
///
/// let dev = FpgaDevice::u280();
/// let wl = Workload::D2 { nx: 40, ny: 20, batch: 1 };
/// let ds = synthesize(&dev, &StencilSpec::poisson(), 8, 4,
///                     ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
/// let m = Mesh2D::<f32>::random(40, 20, 1, -1.0, 1.0);
/// let (out, report) = exec2d::simulate_mesh_2d(&dev, &ds, &[Poisson2D], &m, 8);
/// // bit-exact against the golden reference
/// let golden = reference::run_2d(&Poisson2D, &m, 8);
/// assert!(norms::bit_equal(out.as_slice(), golden.as_slice()));
/// assert!(report.total_cycles > 0);
/// ```
///
/// # Panics
/// Panics if the design mode disagrees with the input batch (e.g. a
/// `Batched{b}` design fed a different batch size, or a tiled design fed a
/// batch).
pub fn simulate_2d<T: Element, K: StencilOp2D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch2D<T>,
    niter: usize,
) -> (Batch2D<T>, SimReport) {
    let mut rec = Recorder::disabled();
    let mut run = Run::new(dev, design, stages_per_iter, niter, &mut rec);
    expect_checked(run.drive(&ScalarEngine, input))
}

/// Convenience wrapper for single-mesh simulation.
pub fn simulate_mesh_2d<T: Element, K: StencilOp2D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Mesh2D<T>,
    niter: usize,
) -> (Mesh2D<T>, SimReport) {
    let batch = Batch2D::from_meshes(std::slice::from_ref(input));
    let (out, rep) = simulate_2d(dev, design, stages_per_iter, &batch, niter);
    (out.mesh(0), rep)
}

impl<T: Element> StreamGrid for Batch2D<T> {
    type Cell = T;
    const UNITS: &'static str = "rows";
    const STREAMED: &'static str = "window.rows_streamed";
    const DRAINED: &'static str = "window.drain_rows";

    fn unit_shape(&self) -> (usize, usize) {
        (self.nx(), 1)
    }
    fn mesh_units(&self) -> usize {
        self.ny()
    }
    fn batch(&self) -> usize {
        Batch2D::batch(self)
    }
    fn as_slice(&self) -> &[T] {
        Batch2D::as_slice(self)
    }
    fn as_mut_slice(&mut self) -> &mut [T] {
        Batch2D::as_mut_slice(self)
    }
    fn zeros(&self, batch: usize) -> Self {
        Batch2D::zeros(self.nx(), self.ny(), batch)
    }
    fn workload(&self) -> Workload {
        Workload::D2 { nx: self.nx(), ny: self.ny(), batch: Batch2D::batch(self) }
    }
}

impl<T: Element, K: StencilOp2D<T> + Clone> GridKernel<Batch2D<T>> for K {
    fn reference(stages: &[K], input: &Batch2D<T>, iters: usize) -> Batch2D<T> {
        let meshes: Vec<Mesh2D<T>> = (0..input.batch())
            .map(|i| reference::run_stages_2d(stages, &input.mesh(i), iters))
            .collect();
        Batch2D::from_meshes(&meshes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use crate::fast::{simulate_2d_exec, ExecEngine};
    use sf_kernels::{reference, Poisson2D, StencilSpec};
    use sf_mesh::norms;
    use sf_telemetry::Recorder;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn design(wl: &Workload, v: usize, p: usize, mode: ExecMode) -> StencilDesign {
        synthesize(&dev(), &StencilSpec::poisson(), v, p, mode, MemKind::Hbm, wl).unwrap()
    }

    #[test]
    fn baseline_bit_exact_vs_reference() {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = design(&wl, 8, 4, ExecMode::Baseline);
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 12);
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
        assert!(rep.runtime_s > 0.0);
        assert_eq!(rep.passes, 3);
    }

    #[test]
    fn baseline_handles_non_multiple_iters() {
        let m = Mesh2D::<f32>::random(32, 16, 3, -1.0, 1.0);
        let wl = Workload::D2 { nx: 32, ny: 16, batch: 1 };
        let ds = design(&wl, 8, 5, ExecMode::Baseline);
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 7);
        let expect = reference::run_2d(&Poisson2D, &m, 7);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
        assert_eq!(rep.passes, 2);
    }

    #[test]
    fn batched_bit_exact_vs_independent_solves() {
        let batch = Batch2D::<f32>::random(24, 12, 5, 11, -1.0, 1.0);
        let wl = Workload::D2 { nx: 24, ny: 12, batch: 5 };
        let ds = design(&wl, 8, 6, ExecMode::Batched { b: 5 });
        let (out, _) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 9);
        let expect = reference::run_batch_2d(&Poisson2D, &batch, 9);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn tiled_bit_exact_vs_reference() {
        // tile width 64 with halo p·D/2 = 8 → several overlapping tiles
        let m = Mesh2D::<f32>::random(200, 30, 13, -1.0, 1.0);
        let wl = Workload::D2 { nx: 200, ny: 30, batch: 1 };
        let ds = design(&wl, 8, 8, ExecMode::Tiled1D { tile_m: 64 });
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 16);
        let expect = reference::run_2d(&Poisson2D, &m, 16);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert_eq!(rep.passes, 2);
    }

    #[test]
    fn tiled_partial_final_pass_still_exact() {
        let m = Mesh2D::<f32>::random(150, 20, 17, -1.0, 1.0);
        let wl = Workload::D2 { nx: 150, ny: 20, batch: 1 };
        let ds = design(&wl, 8, 6, ExecMode::Tiled1D { tile_m: 48 });
        let (out, _) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 8); // 6 + 2
        let expect = reference::run_2d(&Poisson2D, &m, 8);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn estimate_matches_simulate_timing() {
        let m = Mesh2D::<f32>::random(64, 32, 1, 0.0, 1.0);
        let wl = Workload::D2 { nx: 64, ny: 32, batch: 1 };
        let ds = design(&wl, 8, 4, ExecMode::Baseline);
        let (_, sim) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 8);
        let est = estimate_2d(&dev(), &ds, &wl, 8).unwrap();
        assert_eq!(sim.total_cycles, est.total_cycles);
        assert_eq!(sim.runtime_s, est.runtime_s);
        assert_eq!(sim.energy_j, est.energy_j);
    }

    #[test]
    fn estimate_rejects_3d_workload_with_typed_error() {
        let wl = Workload::D2 { nx: 64, ny: 32, batch: 1 };
        let ds = design(&wl, 8, 4, ExecMode::Baseline);
        let bad = Workload::D3 { nx: 64, ny: 32, nz: 16, batch: 1 };
        let err = estimate_2d(&dev(), &ds, &bad, 8).unwrap_err();
        assert!(matches!(err, ExecError::ShapeMismatch { .. }), "{err:?}");
        assert!(format!("{err}").contains("2D estimator needs a 2D workload"));
    }

    #[test]
    fn estimate_rejects_a_mode_the_workload_cannot_stream() {
        // a Tiled2D design (a 3D mode) priced on a 2D workload used to panic
        // in the cycle plan; the schedule walk rejects it
        let wl3 = Workload::D3 { nx: 64, ny: 64, nz: 16, batch: 1 };
        let ds = synthesize(
            &dev(),
            &sf_kernels::StencilSpec::jacobi(),
            8,
            2,
            ExecMode::Tiled2D { tile_m: 32, tile_n: 32 },
            MemKind::Hbm,
            &wl3,
        )
        .unwrap();
        let wl2 = Workload::D2 { nx: 64, ny: 32, batch: 1 };
        let err = estimate_2d(&dev(), &ds, &wl2, 8).unwrap_err();
        assert!(matches!(err, ExecError::ShapeMismatch { .. }), "{err:?}");
        assert!(format!("{err}").contains("Tiled2D is a 3D mode"), "{err}");
    }

    #[test]
    fn traced_simulation_matches_untraced_and_reconciles_with_plan() {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = design(&wl, 8, 4, ExecMode::Baseline);
        let (plain, rep) = simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, 12);

        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let (traced, rep2) =
            simulate_2d_exec(ExecEngine::Scalar, &dev(), &ds, &[Poisson2D], &batch, 12, &mut rec);
        assert!(norms::bit_equal(traced.mesh(0).as_slice(), plain.as_slice()));
        assert_eq!(rep.total_cycles, rep2.total_cycles);

        // Schedule spans reconcile with the plan totals.
        let pipe = rec.find_track("pipeline").unwrap();
        assert_eq!(rec.track_span_cycles(pipe), rep.total_cycles);
        // Behavioral window events present for the first pass.
        assert!(rec.track_names().iter().any(|t| t.starts_with("window/stage:")));
        assert_eq!(rec.counter("window.rows_streamed"), 24);
        assert!(rec.instants().iter().any(|i| i.name == "primed"));
    }

    #[test]
    fn traced_tiled_simulation_traces_first_tile_only() {
        let m = Mesh2D::<f32>::random(200, 30, 13, -1.0, 1.0);
        let wl = Workload::D2 { nx: 200, ny: 30, batch: 1 };
        let ds = design(&wl, 8, 8, ExecMode::Tiled1D { tile_m: 64 });
        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let (out, _) =
            simulate_2d_exec(ExecEngine::Scalar, &dev(), &ds, &[Poisson2D], &batch, 16, &mut rec);
        let expect = reference::run_2d(&Poisson2D, &m, 16);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        // Window tracks exist only for the first tile's chain.
        let stage_tracks: Vec<_> =
            rec.track_names().iter().filter(|t| t.contains("stage:")).collect();
        assert!(!stage_tracks.is_empty());
        assert!(stage_tracks.iter().all(|t| t.starts_with("tile0/")));
        // Schedule segments cover every tile, though.
        let seg = rec.find_track("segments").unwrap();
        assert!(rec.spans().iter().filter(|s| s.track == seg).count() > 2);
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn batch_size_checked() {
        let batch = Batch2D::<f32>::zeros(16, 8, 3);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 4 };
        let ds = design(&wl, 8, 2, ExecMode::Batched { b: 4 });
        let _ = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 2);
    }
}

#[cfg(test)]
mod multistage_2d_tests {
    //! Fused multi-stage 2D pipelines ("multiple stencil loops" in 2D) —
    //! the wave2d kick/drift pair through every execution mode.

    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use sf_kernels::reference;
    use sf_kernels::wave2d::{self, WaveParams};
    use sf_mesh::norms;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    /// Build the per-iteration stage list as trait objects are not possible —
    /// use an enum wrapper so one chain type holds both stages.
    #[derive(Copy, Clone)]
    enum WaveStage {
        Kick(wave2d::WaveKick),
        Drift(wave2d::WaveDrift),
    }

    impl sf_kernels::StencilOp2D<wave2d::WaveState> for WaveStage {
        fn radius(&self) -> usize {
            match self {
                WaveStage::Kick(k) => k.radius(),
                WaveStage::Drift(d) => d.radius(),
            }
        }

        fn apply<F: Fn(i32, i32) -> wave2d::WaveState>(&self, at: F) -> wave2d::WaveState {
            match self {
                WaveStage::Kick(k) => k.apply(at),
                WaveStage::Drift(d) => d.apply(at),
            }
        }

        fn on_boundary(&self, c: wave2d::WaveState) -> wave2d::WaveState {
            match self {
                WaveStage::Kick(k) => k.on_boundary(c),
                WaveStage::Drift(d) => d.on_boundary(c),
            }
        }
    }

    fn stages() -> [WaveStage; 2] {
        let (k, d) = wave2d::pipeline(WaveParams::default());
        [WaveStage::Kick(k), WaveStage::Drift(d)]
    }

    #[test]
    fn wave_baseline_bit_exact() {
        let m = wave2d::standing_wave(30, 22);
        let wl = Workload::D2 { nx: 30, ny: 22, batch: 1 };
        let ds = synthesize(&dev(), &wave2d::spec(), 4, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
        let (out, rep) = simulate_mesh_2d(&dev(), &ds, &stages(), &m, 8);
        let expect = reference::run_stages_2d(&stages(), &m, 8);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert_eq!(rep.passes, 3);
    }

    #[test]
    fn wave_batched_bit_exact() {
        let meshes: Vec<_> = (0..4)
            .map(|i| {
                let mut m = wave2d::standing_wave(20, 16);
                let v = m.get(10, 8);
                m.set(10, 8, sf_mesh::VecN::new([v.0[0] * (1.0 + i as f32 * 0.1), 0.0]));
                m
            })
            .collect();
        let batch = Batch2D::from_meshes(&meshes);
        let wl = Workload::D2 { nx: 20, ny: 16, batch: 4 };
        let ds = synthesize(
            &dev(),
            &wave2d::spec(),
            4,
            2,
            ExecMode::Batched { b: 4 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let (out, _) = simulate_2d(&dev(), &ds, &stages(), &batch, 5);
        for (i, m) in meshes.iter().enumerate() {
            let solo = reference::run_stages_2d(&stages(), m, 5);
            assert!(norms::bit_equal(out.mesh(i).as_slice(), solo.as_slice()), "mesh {i} diverged");
        }
    }

    #[test]
    fn wave_tiled_bit_exact() {
        // halo = p · stages · D / 2 = 2·4/2... with p=2: 8 per side
        let m = wave2d::standing_wave(160, 18);
        let wl = Workload::D2 { nx: 160, ny: 18, batch: 1 };
        let ds = synthesize(
            &dev(),
            &wave2d::spec(),
            4,
            2,
            ExecMode::Tiled1D { tile_m: 48 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let (out, _) = simulate_mesh_2d(&dev(), &ds, &stages(), &m, 6);
        let expect = reference::run_stages_2d(&stages(), &m, 6);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
    }
}
