//! Golden sequential reference executors.
//!
//! These are the trusted implementations the FPGA dataflow simulator's
//! scalar and fast engines are validated against. They are deliberately
//! simple: double-buffered, interior-update / boundary pass-through,
//! iterating in plain row-major order.

use crate::op2d::StencilOp2D;
use crate::op3d::StencilOp3D;
use crate::rtm::{self, RtmParams, RtmStage, RtmState};
use sf_mesh::{Batch2D, Batch3D, Element, Mesh2D, Mesh3D};

/// Apply one 2D stage: interior cells get `k.apply`, boundary cells get
/// `k.on_boundary`.
pub fn step_2d<T: Element, K: StencilOp2D<T>>(k: &K, input: &Mesh2D<T>) -> Mesh2D<T> {
    let r = k.radius();
    let ri = r as i32;
    Mesh2D::from_fn(input.nx(), input.ny(), |x, y| {
        if input.is_interior(x, y, r) {
            k.apply(|dx, dy| {
                debug_assert!(dx.abs() <= ri && dy.abs() <= ri);
                input.get((x as i32 + dx) as usize, (y as i32 + dy) as usize)
            })
        } else {
            k.on_boundary(input.get(x, y))
        }
    })
}

/// Run `iters` iterations of a single 2D stencil loop.
pub fn run_2d<T: Element, K: StencilOp2D<T>>(k: &K, mesh: &Mesh2D<T>, iters: usize) -> Mesh2D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        cur = step_2d(k, &cur);
    }
    cur
}

/// Apply one 3D stage.
pub fn step_3d<T: Element, K: StencilOp3D<T>>(k: &K, input: &Mesh3D<T>) -> Mesh3D<T> {
    let r = k.radius();
    let ri = r as i32;
    Mesh3D::from_fn(input.nx(), input.ny(), input.nz(), |x, y, z| {
        if input.is_interior(x, y, z, r) {
            k.apply(|dx, dy, dz| {
                debug_assert!(dx.abs() <= ri && dy.abs() <= ri && dz.abs() <= ri);
                input.get(
                    (x as i32 + dx) as usize,
                    (y as i32 + dy) as usize,
                    (z as i32 + dz) as usize,
                )
            })
        } else {
            k.on_boundary(input.get(x, y, z))
        }
    })
}

/// Run `iters` iterations of a single 3D stencil loop.
pub fn run_3d<T: Element, K: StencilOp3D<T>>(k: &K, mesh: &Mesh3D<T>, iters: usize) -> Mesh3D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        cur = step_3d(k, &cur);
    }
    cur
}

/// Run `iters` iterations of a *multi-stage* 2D loop chain (all stages
/// applied per iteration, in order) — the pre-fusion view of a 2D multi-loop
/// application such as [`crate::wave2d`].
pub fn run_stages_2d<T: Element, K: StencilOp2D<T>>(
    stages: &[K],
    mesh: &Mesh2D<T>,
    iters: usize,
) -> Mesh2D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        for k in stages {
            cur = step_2d(k, &cur);
        }
    }
    cur
}

/// Run `iters` iterations of a *multi-stage* 3D loop chain (all stages applied
/// per iteration, in order) — the pre-fusion view of RTM's Algorithm 1.
pub fn run_stages_3d<T: Element, K: StencilOp3D<T>>(
    stages: &[K],
    mesh: &Mesh3D<T>,
    iters: usize,
) -> Mesh3D<T> {
    let mut cur = mesh.clone();
    for _ in 0..iters {
        for k in stages {
            cur = step_3d(k, &cur);
        }
    }
    cur
}

/// Run a batch of independent 2D problems (the semantic ground truth the
/// batched FPGA execution must reproduce).
pub fn run_batch_2d<T: Element, K: StencilOp2D<T>>(
    k: &K,
    batch: &Batch2D<T>,
    iters: usize,
) -> Batch2D<T> {
    let meshes: Vec<_> = (0..batch.batch()).map(|i| run_2d(k, &batch.mesh(i), iters)).collect();
    Batch2D::from_meshes(&meshes)
}

/// Run a batch of independent 3D problems.
pub fn run_batch_3d<T: Element, K: StencilOp3D<T>>(
    k: &K,
    batch: &Batch3D<T>,
    iters: usize,
) -> Batch3D<T> {
    let meshes: Vec<_> = (0..batch.batch()).map(|i| run_3d(k, &batch.mesh(i), iters)).collect();
    Batch3D::from_meshes(&meshes)
}

/// Full RTM forward pass: pack, run `iters` RK4 steps (4 fused stages each),
/// unpack the state.
pub fn rtm_run(
    y: &Mesh3D<RtmState>,
    rho: &Mesh3D<f32>,
    mu: &Mesh3D<f32>,
    params: RtmParams,
    iters: usize,
) -> Mesh3D<RtmState> {
    let stages = RtmStage::pipeline(params);
    let packed0 = rtm::pack(y, rho, mu);
    let packed = run_stages_3d(&stages, &packed0, iters);
    rtm::unpack(&packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi3d::Jacobi3D;
    use crate::poisson::Poisson2D;
    use sf_mesh::norms;

    #[test]
    fn poisson_boundary_held_fixed() {
        let m = Mesh2D::<f32>::random(8, 8, 1, 0.0, 1.0);
        let out = run_2d(&Poisson2D, &m, 5);
        for x in 0..8 {
            assert_eq!(out.get(x, 0), m.get(x, 0));
            assert_eq!(out.get(x, 7), m.get(x, 7));
            assert_eq!(out.get(0, x), m.get(0, x));
            assert_eq!(out.get(7, x), m.get(7, x));
        }
    }

    #[test]
    fn poisson_zero_iters_is_identity() {
        let m = Mesh2D::<f32>::random(10, 6, 2, -1.0, 1.0);
        assert_eq!(run_2d(&Poisson2D, &m, 0), m);
    }

    #[test]
    fn poisson_smooths_towards_boundary_values() {
        // all-zero boundary, hot interior → interior decays
        let mut m = Mesh2D::<f32>::zeros(16, 16);
        m.set(8, 8, 100.0);
        let out = run_2d(&Poisson2D, &m, 500);
        assert!(out.get(8, 8).abs() < 1.0, "interior must decay, got {}", out.get(8, 8));
        assert!(out.all_finite());
    }

    #[test]
    fn poisson_one_step_hand_checked() {
        let m = Mesh2D::<f32>::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        let out = step_2d(&Poisson2D, &m);
        // center: neighbors 3,5,1,7 sum=16 → 2 + 0.5*4 = 4
        assert_eq!(out.get(1, 1), 4.0);
        assert_eq!(out.get(0, 0), 0.0); // boundary held
    }

    #[test]
    fn jacobi_converges_for_smoothing_coefficients() {
        let m = Mesh3D::<f32>::random(12, 12, 12, 3, -1.0, 1.0);
        let out = run_3d(&Jacobi3D::smoothing(), &m, 200);
        assert!(out.all_finite());
        // smoothing contracts the interior towards the (random) boundary
        // envelope; max norm must not grow
        assert!(norms::max_norm_3d(&out) <= norms::max_norm_3d(&m) + 1e-6);
    }

    #[test]
    fn batch_equals_independent_runs() {
        let meshes: Vec<_> = (0..3).map(|i| Mesh2D::<f32>::random(8, 6, i, 0.0, 1.0)).collect();
        let batch = Batch2D::from_meshes(&meshes);
        let out = run_batch_2d(&Poisson2D, &batch, 7);
        for (i, m) in meshes.iter().enumerate() {
            let solo = run_2d(&Poisson2D, m, 7);
            assert!(
                norms::bit_equal(out.mesh(i).as_slice(), solo.as_slice()),
                "batched mesh {i} diverged from independent solve"
            );
        }
    }

    #[test]
    fn rtm_stays_finite_and_damps() {
        let (y, rho, mu) = rtm::demo_workload(14, 14, 14);
        let out = rtm_run(&y, &rho, &mu, RtmParams::default(), 50);
        assert!(out.all_finite());
    }

    #[test]
    fn rtm_zero_field_stays_zero() {
        let y = Mesh3D::<RtmState>::zeros(12, 12, 12);
        let rho = Mesh3D::<f32>::from_fn(12, 12, 12, |_, _, _| 1.0);
        let mu = Mesh3D::<f32>::from_fn(12, 12, 12, |_, _, _| 0.02);
        let out = rtm_run(&y, &rho, &mu, RtmParams::default(), 10);
        assert!(norms::max_norm_3d(&out) == 0.0);
    }

    #[test]
    fn rtm_wave_propagates_from_pulse() {
        let (y, rho, mu) = rtm::demo_workload(16, 16, 16);
        let out = rtm_run(&y, &rho, &mu, RtmParams { dt: 0.05, sigma: 0.01, sigma2: 0.01 }, 30);
        // a point 3 cells from the center starts ~0 in q; the wave coupling
        // must have moved something there
        let probe = out.get(11, 8, 8);
        assert!(probe.0.iter().any(|&v| v != y.get(11, 8, 8).0[0] && v.abs() > 0.0));
        assert!(out.all_finite());
    }
}
