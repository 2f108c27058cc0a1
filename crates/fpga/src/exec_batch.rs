//! Parallel batched execution: the paper's eq. 15 batch of `B` independent
//! meshes, fanned across worker threads.
//!
//! A single-stream run streams a `Batched{b}` workload as one stacked
//! mesh; per-mesh boundary handling inside the window chain makes each
//! batch member's result bit-identical to solving it alone (the
//! `batched_bit_exact_vs_independent_solves` invariant). A run with
//! `jobs: Some(n)` ([`crate::driver::Run`]) exploits exactly that
//! independence: `per_mesh` makes each mesh one work item for
//! [`sf_par::par_map`], and results come back in mesh order. The
//! consequences:
//!
//! * **Numerics** — bit-identical to the single-stream run, for any worker
//!   count.
//! * **Timing** — the [`SimReport`](crate::SimReport) comes from the same
//!   closed-form cycle plan over the *full batched workload* (eq. 2–15
//!   don't care how the simulation was scheduled on host threads), so it is
//!   byte-identical to the serial report.
//! * **Traces** — each mesh records into a private recorder shard under a
//!   `mesh{i}/window/` track prefix, with its cycle stamps offset to the
//!   mesh's position in the batched stream; shards merge back in mesh
//!   order, so the exported Chrome trace and flat-metrics JSON are
//!   byte-identical for every `jobs` value.
//! * **Faults** — none are injected: a fault-aware run streams the batch as
//!   one stream through one injector ([`crate::Faults`]).

use crate::driver::StreamGrid;
use crate::error::ExecError;

/// Run `f` on every member of `input` (as a batch of one) across `jobs`
/// workers and reassemble the results in mesh order, with each member's
/// side output. The first error in mesh order wins.
pub(crate) fn per_mesh<B, R, F>(jobs: usize, input: &B, f: F) -> Result<(B, Vec<R>), ExecError>
where
    B: StreamGrid,
    R: Send,
    F: Fn(usize, B) -> Result<(B, R), ExecError> + Sync,
{
    let b = input.batch();
    let members: Vec<B> = (0..b).map(|i| input.member(i)).collect();
    let results = sf_par::par_map(jobs, members, f);
    let mut out = input.zeros(b);
    let n = out.as_slice().len() / b;
    let mut side = Vec::with_capacity(b);
    for (i, r) in results.into_iter().enumerate() {
        let (mesh, extra) = r?;
        out.as_mut_slice()[i * n..(i + 1) * n].copy_from_slice(mesh.as_slice());
        side.push(extra);
    }
    Ok((out, side))
}

#[cfg(test)]
mod tests {
    use crate::design::{synthesize, ExecMode, MemKind, StencilDesign, Workload};
    use crate::exec2d::simulate_2d;
    use crate::exec3d::simulate_3d;
    use crate::fast::{simulate_batch_2d_parallel_exec, simulate_batch_3d_parallel_exec};
    use crate::{ExecEngine, FpgaDevice};
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::{norms, Batch2D, Batch3D};
    use sf_telemetry::{chrome::to_chrome_json, metrics::to_metrics_json, Recorder};

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn design_2d(wl: &Workload, b: usize) -> StencilDesign {
        synthesize(&dev(), &StencilSpec::poisson(), 8, 6, ExecMode::Batched { b }, MemKind::Hbm, wl)
            .unwrap()
    }

    #[test]
    fn batch_2d_matches_single_stream_and_reference() {
        let batch = Batch2D::<f32>::random(24, 12, 5, 11, -1.0, 1.0);
        let wl = Workload::D2 { nx: 24, ny: 12, batch: 5 };
        let ds = design_2d(&wl, 5);
        let (legacy, legacy_rep) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 9);
        for jobs in [1, 2, 4] {
            let (out, rep) = simulate_batch_2d_parallel_exec(
                ExecEngine::Scalar,
                &dev(),
                &ds,
                &[Poisson2D],
                &batch,
                9,
                jobs,
                &mut Recorder::disabled(),
            );
            assert!(norms::bit_equal(out.as_slice(), legacy.as_slice()), "jobs={jobs}");
            assert_eq!(rep.total_cycles, legacy_rep.total_cycles);
            assert_eq!(rep.runtime_s, legacy_rep.runtime_s);
        }
        let expect = reference::run_batch_2d(&Poisson2D, &batch, 9);
        assert!(norms::bit_equal(legacy.as_slice(), expect.as_slice()));
    }

    #[test]
    fn batch_2d_traces_are_jobs_invariant() {
        let batch = Batch2D::<f32>::random(20, 10, 4, 3, -1.0, 1.0);
        let wl = Workload::D2 { nx: 20, ny: 10, batch: 4 };
        let ds = design_2d(&wl, 4);
        let run = |jobs: usize| {
            let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
            let (out, _) = simulate_batch_2d_parallel_exec(
                ExecEngine::Scalar,
                &dev(),
                &ds,
                &[Poisson2D],
                &batch,
                7,
                jobs,
                &mut rec,
            );
            (out, to_chrome_json(&rec), to_metrics_json(&rec))
        };
        let (out1, chrome1, metrics1) = run(1);
        for jobs in [2, 3, 8] {
            let (out, chrome, metrics) = run(jobs);
            assert!(norms::bit_equal(out.as_slice(), out1.as_slice()), "jobs={jobs}");
            assert_eq!(chrome, chrome1, "chrome trace must be byte-identical at jobs={jobs}");
            assert_eq!(metrics, metrics1, "metrics JSON must be byte-identical at jobs={jobs}");
        }
    }

    #[test]
    fn batch_2d_trace_has_per_mesh_swimlanes_and_summed_counters() {
        let batch = Batch2D::<f32>::random(16, 8, 3, 5, -1.0, 1.0);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 3 };
        let ds = design_2d(&wl, 3);
        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        let _ = simulate_batch_2d_parallel_exec(
            ExecEngine::Scalar,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            6,
            2,
            &mut rec,
        );
        for i in 0..3 {
            let prefix = format!("mesh{i}/window/");
            assert!(
                rec.track_names().iter().any(|t| t.starts_with(&prefix)),
                "missing swimlane {prefix}"
            );
        }
        // every mesh streams its ny rows on the traced first pass
        assert_eq!(rec.counter("window.rows_streamed"), 3 * 8);
        // schedule trace still present exactly once
        assert!(rec.find_track("pipeline").is_some());
    }

    #[test]
    fn batch_3d_matches_single_stream_for_all_jobs() {
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
        let (legacy, legacy_rep) = simulate_3d(&dev(), &ds, &[k], &batch, 6);
        let run = |jobs: usize| {
            let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
            let (out, rep) = simulate_batch_3d_parallel_exec(
                ExecEngine::Scalar,
                &dev(),
                &ds,
                &[k],
                &batch,
                6,
                jobs,
                &mut rec,
            );
            (out, rep, to_chrome_json(&rec))
        };
        let (out1, rep1, chrome1) = run(1);
        assert!(norms::bit_equal(out1.as_slice(), legacy.as_slice()));
        assert_eq!(rep1.total_cycles, legacy_rep.total_cycles);
        for jobs in [2, 4] {
            let (out, rep, chrome) = run(jobs);
            assert!(norms::bit_equal(out.as_slice(), out1.as_slice()), "jobs={jobs}");
            assert_eq!(rep.total_cycles, rep1.total_cycles);
            assert_eq!(chrome, chrome1, "jobs={jobs}");
        }
        assert_eq!(
            {
                let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
                let _ = simulate_batch_3d_parallel_exec(
                    ExecEngine::Scalar,
                    &dev(),
                    &ds,
                    &[k],
                    &batch,
                    6,
                    2,
                    &mut rec,
                );
                rec.counter("window.planes_streamed")
            },
            4 * 8
        );
    }

    #[test]
    fn single_mesh_baseline_accepted() {
        let batch = Batch2D::<f32>::random(16, 8, 1, 9, -1.0, 1.0);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 1 };
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
        let (out, _) = simulate_batch_2d_parallel_exec(
            ExecEngine::Scalar,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            5,
            4,
            &mut Recorder::disabled(),
        );
        let (legacy, _) = simulate_2d(&dev(), &ds, &[Poisson2D], &batch, 5);
        assert!(norms::bit_equal(out.as_slice(), legacy.as_slice()));
    }

    #[test]
    #[should_panic(expected = "batch size mismatch")]
    fn batch_mismatch_panics() {
        let batch = Batch2D::<f32>::zeros(16, 8, 3);
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 4 };
        let ds = design_2d(&wl, 4);
        let _ = simulate_batch_2d_parallel_exec(
            ExecEngine::Scalar,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            2,
            2,
            &mut Recorder::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "Baseline or Batched")]
    fn tiled_design_rejected() {
        let batch = Batch2D::<f32>::zeros(200, 30, 1);
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
        let _ = simulate_batch_2d_parallel_exec(
            ExecEngine::Scalar,
            &dev(),
            &ds,
            &[Poisson2D],
            &batch,
            2,
            2,
            &mut Recorder::disabled(),
        );
    }
}
