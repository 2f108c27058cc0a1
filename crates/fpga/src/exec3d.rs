//! 3D executors: baseline, batched and tiled execution (see [`crate::exec2d`]
//! for the 2D side). Multi-stage chains make these the RTM execution path:
//! one pass chains `p × stages` processors — the paper's "four fused loops
//! … brought into a single pipeline", unrolled `p` times.
//!
//! Both executors are one-line calls into [`crate::driver`]; this module
//! supplies what is 3D about them: a `Batch3D` streams planes, and a tiled
//! design blocks it into `M × N` columns spanning the full `z` extent
//! ([`StreamGrid::tiled_pass`]).

use crate::cycles;
use crate::design::{StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::driver::{expect_checked, GridKernel, Run, StreamGrid};
use crate::error::ExecError;
use crate::power;
use crate::report::SimReport;
use crate::window::{build_chain, run_chain, ChainTrace, Engine, ScalarEngine, Scatter};
use sf_kernels::{reference, StencilOp3D};
use sf_mesh::{Batch3D, Element, Mesh3D};
use sf_telemetry::Recorder;

/// Timing/power estimate without executing the numerics.
///
/// # Errors
/// [`ExecError::ShapeMismatch`] if the workload is not 3D.
pub fn estimate_3d(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
) -> Result<SimReport, ExecError> {
    if !matches!(wl, Workload::D3 { .. }) {
        return Err(ExecError::ShapeMismatch {
            detail: "3D estimator needs a 3D workload".to_string(),
        });
    }
    let plan = cycles::plan(dev, design, wl, niter);
    Ok(SimReport::from_plan(design, &plan, niter, power::fpga_power_w(dev, design)))
}

/// Execute `niter` iterations (each = all `stages_per_iter` in order) on a
/// (batch of) 3D mesh(es) on the scalar engine. Returns the result and the
/// report.
///
/// # Panics
/// Panics if the design mode disagrees with the input batch, like
/// [`crate::exec2d::simulate_2d`].
pub fn simulate_3d<T: Element, K: StencilOp3D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Batch3D<T>,
    niter: usize,
) -> (Batch3D<T>, SimReport) {
    let mut rec = Recorder::disabled();
    let mut run = Run::new(dev, design, stages_per_iter, niter, &mut rec);
    expect_checked(run.drive(&ScalarEngine, input, None))
}

/// Convenience wrapper for single-mesh simulation.
pub fn simulate_mesh_3d<T: Element, K: StencilOp3D<T> + Clone>(
    dev: &FpgaDevice,
    design: &StencilDesign,
    stages_per_iter: &[K],
    input: &Mesh3D<T>,
    niter: usize,
) -> (Mesh3D<T>, SimReport) {
    let batch = Batch3D::from_meshes(std::slice::from_ref(input));
    let (out, rep) = simulate_3d(dev, design, stages_per_iter, &batch, niter);
    (out.mesh(0), rep)
}

impl<T: Element> StreamGrid for Batch3D<T> {
    type Cell = T;
    const UNITS: &'static str = "planes";
    const STREAMED: &'static str = "window.planes_streamed";
    const DRAINED: &'static str = "window.drain_planes";

    fn unit_shape(&self) -> (usize, usize) {
        (self.nx(), self.ny())
    }
    fn mesh_units(&self) -> usize {
        self.nz()
    }
    fn batch(&self) -> usize {
        Batch3D::batch(self)
    }
    fn as_slice(&self) -> &[T] {
        Batch3D::as_slice(self)
    }
    fn as_mut_slice(&mut self) -> &mut [T] {
        Batch3D::as_mut_slice(self)
    }
    fn zeros(&self, batch: usize) -> Self {
        Batch3D::zeros(self.nx(), self.ny(), self.nz(), batch)
    }
    fn workload(&self) -> Workload {
        let (nx, ny, nz) = (self.nx(), self.ny(), self.nz());
        Workload::D3 { nx, ny, nz, batch: Batch3D::batch(self) }
    }

    /// `M × N` tiles spanning the full `z` extent, streamed plane by plane.
    fn tiled_pass<K, E: Engine<Self, K>>(
        engine: &E,
        dev: &FpgaDevice,
        design: &StencilDesign,
        chain: &[K],
        cur: &Self,
        next: &mut Self,
        rec: &mut Recorder,
    ) -> Result<(), ExecError> {
        let (nx, ny, nz) = (cur.nx(), cur.ny(), cur.nz());
        let (gx, gy) = cycles::tile_grids(dev, design, nx, ny);
        let (src, out) = (cur.as_slice(), next.as_mut_slice());
        let mut scratch = Vec::new();
        let mut off = Recorder::disabled();
        let mut first_tile = true;
        for ty in gy.tiles() {
            for tx in gx.tiles() {
                let input = |z: usize, slot: &mut [T]| {
                    let rows = slot.chunks_exact_mut(tx.read_len);
                    for (y, row) in (ty.read_start..ty.read_end()).zip(rows) {
                        let s = (z * ny + y) * nx + tx.read_start;
                        row.copy_from_slice(&src[s..s + tx.read_len]);
                    }
                };
                let trace = ChainTrace {
                    rec: if first_tile { &mut *rec } else { &mut off },
                    prefix: "tile0/",
                    base_cycle: 0,
                    unit_cycles: cycles::design_row_cycles(dev, design, tx.read_len, tx.valid_len)
                        * ty.read_len as u64,
                };
                first_tile = false;
                let (offx, offy) = (tx.valid_offset(), ty.valid_offset());
                scratch.resize(tx.read_len * ty.read_len, T::default());
                let put = |z: usize, pl: &[T]| {
                    for vy in 0..ty.valid_len {
                        let src = (offy + vy) * tx.read_len + offx;
                        let dst = (z * ny + ty.valid_start + vy) * nx + tx.valid_start;
                        out[dst..dst + tx.valid_len].copy_from_slice(&pl[src..src + tx.valid_len]);
                    }
                };
                let mut sink = Scatter { scratch: &mut scratch, put };
                let shape = (tx.read_len, ty.read_len);
                let mut stages = build_chain(engine, chain, shape, nz, nz);
                run_chain::<Self, _>(&mut stages, nz, input, &mut sink, trace, None)?;
            }
        }
        Ok(())
    }
}

impl<T: Element, K: StencilOp3D<T> + Clone> GridKernel<Batch3D<T>> for K {
    fn reference(stages: &[K], input: &Batch3D<T>, iters: usize) -> Batch3D<T> {
        let meshes: Vec<Mesh3D<T>> = (0..input.batch())
            .map(|i| reference::run_stages_3d(stages, &input.mesh(i), iters))
            .collect();
        Batch3D::from_meshes(&meshes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use crate::ExecEngine;
    use sf_kernels::{
        reference, rtm, AppId, Jacobi3D, RtmParams, RtmStage, StarStencil3D, StencilSpec,
    };
    use sf_mesh::norms;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn jacobi_baseline_bit_exact() {
        let m = Mesh3D::<f32>::random(16, 12, 10, 3, -1.0, 1.0);
        let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let k = Jacobi3D::smoothing();
        let (out, rep) = simulate_mesh_3d(&dev(), &ds, &[k], &m, 9);
        let expect = reference::run_3d(&k, &m, 9);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
        assert_eq!(rep.passes, 3);
    }

    #[test]
    fn jacobi_batched_bit_exact() {
        let batch = Batch3D::<f32>::random(10, 10, 8, 4, 21, -1.0, 1.0);
        let wl = Workload::D3 { nx: 10, ny: 10, nz: 8, batch: 4 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::jacobi(),
            8,
            3,
            ExecMode::Batched { b: 4 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let k = Jacobi3D::smoothing();
        let (out, _) = simulate_3d(&dev(), &ds, &[k], &batch, 6);
        let expect = reference::run_batch_3d(&k, &batch, 6);
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn jacobi_tiled_bit_exact() {
        let m = Mesh3D::<f32>::random(60, 44, 10, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 60, ny: 44, nz: 10, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::jacobi(),
            8,
            4,
            ExecMode::Tiled2D { tile_m: 32, tile_n: 24 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let k = Jacobi3D::smoothing();
        let (out, _) = simulate_mesh_3d(&dev(), &ds, &[k], &m, 8);
        let expect = reference::run_3d(&k, &m, 8);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
    }

    #[test]
    fn rtm_fused_pipeline_bit_exact() {
        // The headline integration: 4 fused RK4 stages × p unroll, streamed
        // through plane window buffers, must equal the golden RTM reference.
        let (y, rho, mu) = rtm::demo_workload(14, 13, 12);
        let prm = RtmParams::default();
        let packed = rtm::pack(&y, &rho, &mu);
        let wl = Workload::D3 { nx: 14, ny: 13, nz: 12, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::rtm(), 1, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let stages = RtmStage::pipeline(prm);
        let (out_packed, rep) = simulate_mesh_3d(&dev(), &ds, &stages, &packed, 6);
        let out = rtm::unpack(&out_packed);
        let expect = reference::rtm_run(&y, &rho, &mu, prm, 6);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert_eq!(rep.passes, 2);
        assert!(rep.bandwidth_gbs > 0.0);
    }

    #[test]
    fn rtm_batched_bit_exact() {
        let prm = RtmParams::default();
        let mut meshes = Vec::new();
        for i in 0..3 {
            let (y, rho, mu) = rtm::demo_workload(12 + i, 12, 12);
            // same shape required: regenerate at fixed shape with varied seed content
            let _ = (y, rho, mu);
            meshes.push({
                let (y, rho, mu) = rtm::demo_workload(12, 12, 12);
                let mut p = rtm::pack(&y, &rho, &mu);
                // perturb deterministically per mesh so batch members differ
                let v = p.get(6, 6, 6);
                let mut v2 = v;
                v2.0[0] += 0.01 * (i as f32 + 1.0);
                v2.0[6] = v2.0[0];
                v2.0[12] = v2.0[0];
                p.set(6, 6, 6, v2);
                p
            });
        }
        let batch = Batch3D::from_meshes(&meshes);
        let wl = Workload::D3 { nx: 12, ny: 12, nz: 12, batch: 3 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::rtm(),
            1,
            3,
            ExecMode::Batched { b: 3 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let stages = RtmStage::pipeline(prm);
        let (out, _) = simulate_3d(&dev(), &ds, &stages, &batch, 3);
        let expect = {
            let per: Vec<_> =
                meshes.iter().map(|m| reference::run_stages_3d(&stages, m, 3)).collect();
            Batch3D::from_meshes(&per)
        };
        assert!(norms::bit_equal(out.as_slice(), expect.as_slice()));
    }

    #[test]
    fn tiled_odd_order_one_sided_kernel_bit_exact() {
        // Order 3, radius 2, one-sided in y (reads y−2 ..= y+1): each chained
        // stage reaches ⌈3/2⌉ = 2 cells towards −y, so the tile halo must be
        // p · 2, not ⌊3p/2⌋. x tiles hide a short halo behind the 16-cell
        // AXI alignment; y tiles are unaligned and expose it.
        let k = StarStencil3D::new(vec![
            (0, -2, 0, 0.1),
            (0, -1, 0, 0.2),
            (0, 0, 0, 0.3),
            (0, 1, 0, 0.15),
            (-1, 0, 0, 0.1),
            (1, 0, 0, 0.1),
            (0, 0, -1, 0.025),
            (0, 0, 1, 0.025),
        ]);
        let spec = StencilSpec { app: AppId::Custom, order: 3, ..StencilSpec::jacobi() };
        let m = Mesh3D::<f32>::random(40, 36, 7, 11, -1.0, 1.0);
        let wl = Workload::D3 { nx: 40, ny: 36, nz: 7, batch: 1 };
        for p in 1..=3 {
            let mode = ExecMode::Tiled2D { tile_m: 32, tile_n: 16 };
            let ds = synthesize(&dev(), &spec, 8, p, mode, MemKind::Hbm, &wl).unwrap();
            let (out, _) = simulate_mesh_3d(&dev(), &ds, std::slice::from_ref(&k), &m, 2 * p);
            let expect = reference::run_3d(&k, &m, 2 * p);
            assert!(
                norms::bit_equal(out.as_slice(), expect.as_slice()),
                "p={p}: first mismatch at {:?}",
                norms::first_mismatch(out.as_slice(), expect.as_slice())
            );
        }
    }

    #[test]
    fn traced_3d_simulation_matches_untraced() {
        let m = Mesh3D::<f32>::random(16, 12, 10, 3, -1.0, 1.0);
        let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let k = Jacobi3D::smoothing();
        let (plain, rep) = simulate_mesh_3d(&dev(), &ds, &[k], &m, 9);
        let mut rec = crate::Recorder::enabled(ds.freq_hz / 1e6);
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let (traced, rep2) = crate::fast::simulate_3d_exec(
            ExecEngine::Scalar,
            &dev(),
            &ds,
            &[k],
            &batch,
            9,
            &mut rec,
        );
        assert!(norms::bit_equal(traced.mesh(0).as_slice(), plain.as_slice()));
        assert_eq!(rep.total_cycles, rep2.total_cycles);
        let pipe = rec.find_track("pipeline").unwrap();
        assert_eq!(rec.track_span_cycles(pipe), rep.total_cycles);
        assert_eq!(rec.counter("window.planes_streamed"), 10);
    }

    #[test]
    fn estimate_matches_simulate_timing_3d() {
        let m = Mesh3D::<f32>::random(12, 12, 12, 2, 0.0, 1.0);
        let wl = Workload::D3 { nx: 12, ny: 12, nz: 12, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let k = Jacobi3D::smoothing();
        let (_, sim) = simulate_mesh_3d(&dev(), &ds, &[k], &m, 4);
        let est = estimate_3d(&dev(), &ds, &wl, 4).unwrap();
        assert_eq!(sim.total_cycles, est.total_cycles);
        assert_eq!(sim.runtime_s, est.runtime_s);
    }

    #[test]
    fn estimate_rejects_2d_workload_with_typed_error() {
        let wl = Workload::D3 { nx: 12, ny: 12, nz: 12, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let bad = Workload::D2 { nx: 12, ny: 12, batch: 1 };
        let err = estimate_3d(&dev(), &ds, &bad, 4).unwrap_err();
        assert!(matches!(err, ExecError::ShapeMismatch { .. }), "{err:?}");
        assert!(format!("{err}").contains("3D estimator needs a 3D workload"));
    }
}

#[cfg(test)]
mod rtm_tiling_future_work {
    //! The paper's §V-C future-work item: spatially-blocked RTM.
    //!
    //! "A solution for the limited mesh size is of course spatial blocking,
    //! but it requires p=4. This leads to a tile size dimension M=96 from
    //! (12) given D is 8, which requires a large amount of FPGA internal
    //! memory, making an implementation on the U280 challenging … We leave
    //! this to future work."
    //!
    //! Implementing the future work here surfaces a subtlety the paper's
    //! estimate misses: one *fused* RK4 iteration propagates dependencies
    //! through all four chained stages, i.e. `stages · D/2 = 16` cells per
    //! side — so the tiling halo is `p · 32`, not the `p · 8` that eq. (12)
    //! with `D = 8` implies. At p = 4 the halo alone is 128 > M = 96: the
    //! paper's proposed configuration is structurally impossible, not merely
    //! memory-hungry. What *does* work: p = 1 tiling, which even fits the
    //! real U280; p = 2 needs roughly a 2× device.

    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind, SynthesisError};
    use sf_kernels::{reference, rtm, RtmParams, RtmStage, StencilSpec};
    use sf_mesh::norms;

    #[test]
    fn paper_p4_m96_is_structurally_impossible_for_the_fused_pipeline() {
        let d = FpgaDevice::u280();
        let wl = Workload::D3 { nx: 256, ny: 256, nz: 64, batch: 1 };
        let err = synthesize(
            &d,
            &StencilSpec::rtm(),
            1,
            4,
            ExecMode::Tiled2D { tile_m: 96, tile_n: 96 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap_err();
        // rejected for halo geometry (96 ≤ 4·32), before memory even matters
        assert!(matches!(err, SynthesisError::Invalid(_)), "{err}");
    }

    #[test]
    fn p1_m96_tiling_fits_the_real_u280() {
        // halo p·stages·D/2 = 16 < 96; window memory: 20 URAM per plane-lane
        // × 8 planes × 4 stages = 640 of 960 URAM
        let d = FpgaDevice::u280();
        let wl = Workload::D3 { nx: 256, ny: 256, nz: 64, batch: 1 };
        let ds = synthesize(
            &d,
            &StencilSpec::rtm(),
            1,
            1,
            ExecMode::Tiled2D { tile_m: 96, tile_n: 96 },
            MemKind::Hbm,
            &wl,
        )
        .expect("p=1 RTM tiling must fit the U280");
        assert!(ds.resources.uram_blocks <= 960);
        assert!(ds.resources.fits(&d));
    }

    #[test]
    fn p2_m96_tiling_needs_a_2x_device() {
        let wl = Workload::D3 { nx: 256, ny: 256, nz: 64, batch: 1 };
        let mode = ExecMode::Tiled2D { tile_m: 96, tile_n: 96 };
        let spec = StencilSpec::rtm();
        let err =
            synthesize(&FpgaDevice::u280(), &spec, 1, 2, mode, MemKind::Hbm, &wl).unwrap_err();
        assert!(matches!(err, SynthesisError::InsufficientMemory { .. }), "{err}");
        let ds = synthesize(&FpgaDevice::hypothetical_2x(), &spec, 1, 2, mode, MemKind::Hbm, &wl)
            .expect("2x device must fit p=2 tiling");
        assert_eq!(ds.p, 2);
    }

    #[test]
    fn tiled_fused_rtm_is_bit_exact() {
        // reduced geometry, same structure: p=1, halo stages·D/2 = 16,
        // overlapped 40×36 tiles on a 56×40×12 mesh
        let d = FpgaDevice::u280();
        let (y, rho, mu) = rtm::demo_workload(56, 40, 12);
        let prm = RtmParams::default();
        let packed = rtm::pack(&y, &rho, &mu);
        let wl = Workload::D3 { nx: 56, ny: 40, nz: 12, batch: 1 };
        let ds = synthesize(
            &d,
            &StencilSpec::rtm(),
            1,
            1,
            ExecMode::Tiled2D { tile_m: 40, tile_n: 36 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let stages = RtmStage::pipeline(prm);
        let (out_packed, rep) = simulate_mesh_3d(&d, &ds, &stages, &packed, 4);
        let out = rtm::unpack(&out_packed);
        let expect = reference::rtm_run(&y, &rho, &mu, prm, 4);
        assert!(
            norms::bit_equal(out.as_slice(), expect.as_slice()),
            "first mismatch: {:?}",
            norms::first_mismatch(out.as_slice(), expect.as_slice())
        );
        assert!(rep.ext_read_bytes > rep.ext_write_bytes, "halo redundancy");
    }
}
