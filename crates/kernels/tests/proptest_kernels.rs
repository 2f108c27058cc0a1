//! Property tests for the kernels: linearity of the linear stencils, RTM
//! physics invariants, and batching equivalences.

use proptest::prelude::*;
use sf_kernels::{reference, rtm, Jacobi3D, Poisson2D, RtmParams, StarStencil2D};
use sf_mesh::{norms, Batch2D, Element, Mesh2D, Mesh3D};

/// `a·u + b·v` lane-wise.
fn lincomb2d(a: f32, u: &Mesh2D<f32>, b: f32, v: &Mesh2D<f32>) -> Mesh2D<f32> {
    Mesh2D::from_fn(u.nx(), u.ny(), |x, y| a * u.get(x, y) + b * v.get(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The Poisson kernel is a linear operator: one step of `a·u + b·v`
    /// equals `a·step(u) + b·step(v)` up to f32 rounding.
    #[test]
    fn poisson_step_is_linear(
        nx in 3usize..24,
        ny in 3usize..24,
        seed in 0u64..500,
        a in -2.0f32..2.0,
        b in -2.0f32..2.0,
    ) {
        let u = Mesh2D::<f32>::random(nx, ny, seed, -1.0, 1.0);
        let v = Mesh2D::<f32>::random(nx, ny, seed + 1, -1.0, 1.0);
        let lhs = reference::step_2d(&Poisson2D, &lincomb2d(a, &u, b, &v));
        let rhs = lincomb2d(a, &reference::step_2d(&Poisson2D, &u), b, &reference::step_2d(&Poisson2D, &v));
        let err = norms::max_abs_diff(lhs.as_slice(), rhs.as_slice());
        prop_assert!(err < 1e-4, "linearity violated by {err}");
    }

    /// Batched solves equal independent solves (semantic definition of
    /// batching), for any batch size.
    #[test]
    fn batch_is_independent_solves(
        nx in 3usize..16,
        ny in 3usize..12,
        b in 1usize..6,
        iters in 1usize..6,
        seed in 0u64..500,
    ) {
        let batch = Batch2D::<f32>::random(nx, ny, b, seed, -1.0, 1.0);
        let whole = reference::run_batch_2d(&Poisson2D, &batch, iters);
        for i in 0..b {
            let solo = reference::run_2d(&Poisson2D, &batch.mesh(i), iters);
            prop_assert!(norms::bit_equal(whole.mesh(i).as_slice(), solo.as_slice()));
        }
    }

    /// Smoothing contracts: the max-norm never grows under the diagonally
    /// dominant Jacobi coefficients.
    #[test]
    fn jacobi_smoothing_contracts(
        n in 4usize..14,
        iters in 1usize..20,
        seed in 0u64..500,
    ) {
        let m = Mesh3D::<f32>::random(n, n, n, seed, -5.0, 5.0);
        let out = reference::run_3d(&Jacobi3D::smoothing(), &m, iters);
        prop_assert!(
            norms::max_norm_3d(&out) <= norms::max_norm_3d(&m) + 1e-4
        );
    }

    /// RTM: the zero field is a fixed point for any damping parameters, and
    /// random fields stay finite over short horizons.
    #[test]
    fn rtm_physics_invariants(
        n in 9usize..14,
        iters in 1usize..6,
        dt_m in 1u32..5,
        sg in 0u32..8,
    ) {
        let prm = RtmParams { dt: dt_m as f32 * 1e-3, sigma: sg as f32 * 0.01, sigma2: 0.01 };
        let zero = Mesh3D::<rtm::RtmState>::zeros(n, n, n);
        let rho = Mesh3D::from_fn(n, n, n, |_, _, _| 1.0);
        let mu = Mesh3D::from_fn(n, n, n, |_, _, _| 0.02);
        let out = reference::rtm_run(&zero, &rho, &mu, prm, iters);
        prop_assert_eq!(norms::max_norm_3d(&out), 0.0);

        let (y, rho, mu) = rtm::demo_workload(n, n, n);
        let out = reference::rtm_run(&y, &rho, &mu, prm, iters);
        prop_assert!(out.all_finite());
    }

    /// Custom star stencils: scaling every weight scales one interior step's
    /// update linearly.
    #[test]
    fn star_weights_scale_linearly(
        seed in 0u64..500,
        scale in 0.1f32..3.0,
    ) {
        let m = Mesh2D::<f32>::random(12, 12, seed, -1.0, 1.0);
        let s1 = StarStencil2D::laplace5(0.25, 0.0);
        let s2 = StarStencil2D::laplace5(0.25 * scale, 0.0);
        let o1 = reference::step_2d(&s1, &m);
        let o2 = reference::step_2d(&s2, &m);
        for y in 1..11 {
            for x in 1..11 {
                let e = (o2.get(x, y) - scale * o1.get(x, y)).abs();
                prop_assert!(e < 1e-4, "scaling violated by {e} at ({x},{y})");
            }
        }
    }

    /// VecN element algebra: axpy distributes over add, scale composes.
    #[test]
    fn vecn_algebra(
        a in -3.0f32..3.0,
        b in -3.0f32..3.0,
        v0 in -10.0f32..10.0,
        v1 in -10.0f32..10.0,
    ) {
        use sf_mesh::VecN;
        let u = VecN::new([v0, v1, 1.0]);
        let w = VecN::new([v1, v0, -1.0]);
        // axpy(u, w, a) = u + a·w lane-wise
        let r = u.axpy(w, a);
        for c in 0..3 {
            let expect = u.lane(c) + a * w.lane(c);
            prop_assert!((r.lane(c) - expect).abs() < 1e-5);
        }
        // scale(scale(u, a), b) ≈ scale(u, a·b)
        let s1 = u.scale(a).scale(b);
        let s2 = u.scale(a * b);
        for c in 0..3 {
            prop_assert!((s1.lane(c) - s2.lane(c)).abs() < 1e-3 * (1.0 + s2.lane(c).abs()));
        }
    }
}
