//! Numeric cross-validation: every execution path (sequential reference,
//! FPGA dataflow simulator in each mode) must agree **bit-exactly** on every
//! application.

use sf_core::prelude::*;
use sf_fpga::design::synthesize;
use sf_fpga::{exec2d, exec3d};
use sf_kernels::{reference, rtm, RtmStage};
use sf_mesh::norms;

fn dev() -> FpgaDevice {
    FpgaDevice::u280()
}

#[test]
fn poisson_three_way_agreement() {
    let m = Mesh2D::<f32>::random(50, 34, 77, -2.0, 2.0);
    let iters = 15;

    let seq = reference::run_2d(&Poisson2D, &m, iters);

    let wl = Workload::D2 { nx: 50, ny: 34, batch: 1 };
    let ds =
        synthesize(&dev(), &StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
    let (fpga, _) = exec2d::simulate_mesh_2d(&dev(), &ds, &[Poisson2D], &m, iters);
    assert!(norms::bit_equal(seq.as_slice(), fpga.as_slice()), "fpga vs seq");
}

#[test]
fn jacobi_three_way_agreement() {
    let m = Mesh3D::<f32>::random(18, 14, 11, 9, -2.0, 2.0);
    let k = Jacobi3D::with_coefficients([0.05, 0.1, 0.15, 0.3, 0.15, 0.1, 0.15]);
    let iters = 9;

    let seq = reference::run_3d(&k, &m, iters);

    let wl = Workload::D3 { nx: 18, ny: 14, nz: 11, batch: 1 };
    let ds =
        synthesize(&dev(), &StencilSpec::jacobi(), 8, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
    let (fpga, _) = exec3d::simulate_mesh_3d(&dev(), &ds, &[k], &m, iters);
    assert!(norms::bit_equal(seq.as_slice(), fpga.as_slice()));
}

#[test]
fn rtm_three_way_agreement() {
    let (y, rho, mu) = rtm::demo_workload(15, 14, 13);
    let prm = RtmParams { dt: 2e-3, sigma: 0.03, sigma2: 0.015 };
    let iters = 5;

    let seq = reference::rtm_run(&y, &rho, &mu, prm, iters);

    let wl = Workload::D3 { nx: 15, ny: 14, nz: 13, batch: 1 };
    let ds = synthesize(&dev(), &StencilSpec::rtm(), 1, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    let stages = RtmStage::pipeline(prm);
    let packed = rtm::pack(&y, &rho, &mu);
    let (out_packed, _) = exec3d::simulate_mesh_3d(&dev(), &ds, &stages, &packed, iters);
    let fpga = rtm::unpack(&out_packed);
    assert!(
        norms::bit_equal(seq.as_slice(), fpga.as_slice()),
        "first mismatch: {:?}",
        norms::first_mismatch(seq.as_slice(), fpga.as_slice())
    );
}

#[test]
fn tiled_equals_baseline_equals_reference() {
    // same mesh, three execution strategies, one answer
    let m = Mesh2D::<f32>::random(320, 28, 31, -1.0, 1.0);
    let iters = 12;
    let seq = reference::run_2d(&Poisson2D, &m, iters);

    let wl = Workload::D2 { nx: 320, ny: 28, batch: 1 };
    let base =
        synthesize(&dev(), &StencilSpec::poisson(), 8, 6, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
    let (out_b, _) = exec2d::simulate_mesh_2d(&dev(), &base, &[Poisson2D], &m, iters);
    assert!(norms::bit_equal(seq.as_slice(), out_b.as_slice()));

    for tile in [64usize, 96, 160] {
        let tiled = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            6,
            ExecMode::Tiled1D { tile_m: tile },
            MemKind::Ddr4,
            &wl,
        )
        .unwrap();
        let (out_t, _) = exec2d::simulate_mesh_2d(&dev(), &tiled, &[Poisson2D], &m, iters);
        assert!(
            norms::bit_equal(seq.as_slice(), out_t.as_slice()),
            "tile {tile}: {:?}",
            norms::first_mismatch(seq.as_slice(), out_t.as_slice())
        );
    }
}

#[test]
fn batched_equals_per_mesh_solves_2d_and_3d() {
    let batch2 = Batch2D::<f32>::random(26, 18, 7, 100, -1.0, 1.0);
    let wl2 = Workload::D2 { nx: 26, ny: 18, batch: 7 };
    let d2 = synthesize(
        &dev(),
        &StencilSpec::poisson(),
        8,
        5,
        ExecMode::Batched { b: 7 },
        MemKind::Hbm,
        &wl2,
    )
    .unwrap();
    let (out2, _) = exec2d::simulate_2d(&dev(), &d2, &[Poisson2D], &batch2, 11);
    for i in 0..7 {
        let solo = reference::run_2d(&Poisson2D, &batch2.mesh(i), 11);
        assert!(norms::bit_equal(out2.mesh(i).as_slice(), solo.as_slice()), "mesh {i}");
    }

    let k = Jacobi3D::smoothing();
    let batch3 = Batch3D::<f32>::random(12, 10, 9, 4, 200, -1.0, 1.0);
    let wl3 = Workload::D3 { nx: 12, ny: 10, nz: 9, batch: 4 };
    let d3 = synthesize(
        &dev(),
        &StencilSpec::jacobi(),
        8,
        3,
        ExecMode::Batched { b: 4 },
        MemKind::Hbm,
        &wl3,
    )
    .unwrap();
    let (out3, _) = exec3d::simulate_3d(&dev(), &d3, &[k], &batch3, 7);
    for i in 0..4 {
        let solo = reference::run_3d(&k, &batch3.mesh(i), 7);
        assert!(norms::bit_equal(out3.mesh(i).as_slice(), solo.as_slice()), "mesh {i}");
    }
}

#[test]
fn rtm_energy_decays_under_damping() {
    // physics sanity on the real pipeline: with pure damping (no sources),
    // the wavefield max-norm must not explode over a long run
    let (y, rho, mu) = rtm::demo_workload(12, 12, 12);
    let prm = RtmParams::default();
    let out = reference::rtm_run(&y, &rho, &mu, prm, 200);
    assert!(out.all_finite());
    let n0 = norms::max_norm_3d(&y);
    let n1 = norms::max_norm_3d(&out);
    assert!(n1 < n0 * 3.0, "wavefield grew suspiciously: {n0} → {n1}");
}
