//! Reverse Time Migration (RTM) forward pass — the paper's third application
//! (§V-C, Algorithm 1).
//!
//! The paper's RTM kernel comes from NAG Ltd. and is proprietary; only its
//! *shape* is published:
//!
//! * 3D state arrays `Y`, `T`, `K1..K4` of **vector elements of size 6**
//!   (single precision),
//! * a PML right-hand side `f_pml` using a **25-point, 8th-order star
//!   stencil** plus two scalar coefficient meshes `ρ` and `μ` accessed with
//!   self-stencils,
//! * a classic RK4 time step (Algorithm 1),
//! * after loop fusion: **4 stages in a single pipeline**, with `T`/`K`
//!   traffic replaced by on-chip FIFO/window streams so external traffic is
//!   one read + one write of `Y` and one read each of `ρ`, `μ`,
//! * total fused arithmetic of `G_dsp ≈ 2444` DSP blocks, which at `V = 1`
//!   admits an unroll factor `p = 3` on the U280 (one RK4 stage set per SLR).
//!
//! We substitute a *synthetic but physically-sensible* acoustic system with
//! PML-style sponge damping (Clayton–Engquist-flavoured absorbing terms) that
//! matches every published property: the state is
//! `U = (p, q, vx, vy, vz, ψ)` with
//!
//! ```text
//! dp/dt  = μ·∇²q  + ρ·ψ                − σ·p
//! dq/dt  = μ·∇²p  − ρ·(vx + vy + vz)   − σ·q
//! dvi/dt = ρ·∂i p + σ₂·ψ               − σ·vi      (i = x, y, z)
//! dψ/dt  = μ·∇²ψ + σ·(p + q)           − σ₂·ψ
//! ```
//!
//! where `∇²` is the 8th-order 25-point star Laplacian and `∂i` the
//! 8th-order first derivative. The fused op count (4 RK4 stages, see
//! [`fused_op_count`]) is 1974 DSPs — the same resource band as the paper's
//! 2444, and crucially on the same side of the `p = 3` vs `p = 4` boundary
//! (`⌊0.9·8490/1974⌋ = 3`).
//!
//! ## Fused-stream representation
//!
//! To run all four RK4 stages in one dataflow pipeline (and bit-exactly in
//! the golden reference) each stage is a [`StencilOp3D`] over a *packed*
//! 20-lane element carrying `(Y, T, Yacc, ρ, μ)`:
//!
//! * lanes `0..6` — `Y`, the state at the start of the time step,
//! * lanes `6..12` — `T`, the current RK stage input (`T = Y` initially),
//! * lanes `12..18` — `Yacc`, the running RK4 combination
//!   `Y + K1/6 + K2/3 + …`,
//! * lane `18` — `ρ`, lane `19` — `μ`.
//!
//! Stage `k ∈ {1,2,3}` computes `K = dt·f_pml(T₂₅pt, ρ, μ)` and emits
//! `T' = Y + a_k·K`, `Yacc' = Yacc + b_k·K`. Stage 4 finalizes:
//! `Y_new = Yacc + b₄·K` is written to *all three* state slots so unrolled
//! iterations chain without a repack. This mirrors the paper exactly:
//! "Intermediate data T and K1..K4 were replaced with a FIFO stream connected
//! through window buffers. Similarly ρ, μ and Y were internally buffered and
//! fed to subsequent compute units."

use crate::domain::AbstractValue;
use crate::op3d::StencilOp3D;
use crate::ops::OpCount;
use serde::{Deserialize, Serialize};
use sf_mesh::{Batch3D, Mesh3D, VecN};

/// Number of state lanes (the paper's "vector elements of size 6").
pub const RTM_LANES: usize = 6;
/// Lanes of the packed fused-pipeline element: Y(6) + T(6) + Yacc(6) + ρ + μ.
pub const RTM_PACKED_LANES: usize = 20;

/// The 6-lane RTM state element.
pub type RtmState = VecN<RTM_LANES>;
/// The 20-lane packed stream element used by the fused pipeline.
pub type RtmPacked = VecN<RTM_PACKED_LANES>;

/// Lane indices within the 6-lane state.
pub mod lane {
    /// Pressure-like primary field.
    pub const P: usize = 0;
    /// Auxiliary wave field.
    pub const Q: usize = 1;
    /// x-velocity.
    pub const VX: usize = 2;
    /// y-velocity.
    pub const VY: usize = 3;
    /// z-velocity.
    pub const VZ: usize = 4;
    /// PML damping accumulator.
    pub const PSI: usize = 5;
}

/// Offsets of the packed sections.
pub mod packed {
    /// Start of the `Y` lanes.
    pub const Y: usize = 0;
    /// Start of the `T` lanes.
    pub const T: usize = 6;
    /// Start of the `Yacc` lanes.
    pub const ACC: usize = 12;
    /// ρ lane.
    pub const RHO: usize = 18;
    /// μ lane.
    pub const MU: usize = 19;
}

/// 8th-order central second-derivative weights `w0, w1..w4`
/// (`w0 = −205/72`, symmetric).
pub const W2: [f32; 5] = [-205.0 / 72.0, 8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0];

/// 8th-order central first-derivative weights `w1..w4` (antisymmetric).
pub const W1: [f32; 4] = [4.0 / 5.0, -1.0 / 5.0, 4.0 / 105.0, -1.0 / 280.0];

/// RK4 stage coefficients: `T' = Y + a_k·K`.
pub const RK_A: [f32; 4] = [0.5, 0.5, 1.0, 0.0];
/// RK4 stage coefficients: `Yacc' = Yacc + b_k·K`.
pub const RK_B: [f32; 4] = [1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0];

/// Time step and damping parameters of the synthetic PML system.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RtmParams {
    /// RK4 time step `dt` (Algorithm 1 multiplies `f_pml` by `dt`).
    pub dt: f32,
    /// Primary sponge damping coefficient σ.
    pub sigma: f32,
    /// Secondary (ψ-channel) damping coefficient σ₂.
    pub sigma2: f32,
}

impl Default for RtmParams {
    fn default() -> Self {
        // Stable for |μ| ≤ 0.05, |ρ| ≤ 1 meshes (CFL margin ≈ 4× at dt=1e-3
        // given the ∇² weight sum ≈ 8.54 per dim).
        RtmParams { dt: 1e-3, sigma: 0.05, sigma2: 0.02 }
    }
}

/// The PML right-hand side `f_pml(U₂₅pt, ρ, μ)` evaluated on the `T` section
/// of a packed neighborhood accessor. Returns `dU/dt` (6 lanes), **not** yet
/// scaled by `dt`.
///
/// The floating-point evaluation order is fixed so every executor computes
/// bit-identical results.
#[inline]
pub fn f_pml<F: Fn(i32, i32, i32) -> RtmPacked>(
    at: &F,
    rho: f32,
    mu: f32,
    prm: &RtmParams,
) -> [f32; 6] {
    f_pml_abs::<f32, _>(&|dx, dy, dz| at(dx, dy, dz).0, rho, mu, prm)
}

/// [`f_pml`] written once, generically over the value domain (see
/// [`crate::domain`]): the `f32` instantiation *is* the concrete kernel; an
/// abstract domain sees exactly the operations the datapath executes. The
/// `3·w0` center weight is a compile-time constant and folds before entering
/// the domain — one counted multiply, as in the synthesized pipeline.
#[inline]
pub fn f_pml_abs<V: AbstractValue, F: Fn(i32, i32, i32) -> [V; RTM_PACKED_LANES]>(
    at: &F,
    rho: V,
    mu: V,
    prm: &RtmParams,
) -> [V; RTM_LANES] {
    #[inline(always)]
    fn t<V: AbstractValue>(
        at: &impl Fn(i32, i32, i32) -> [V; RTM_PACKED_LANES],
        dx: i32,
        dy: i32,
        dz: i32,
        c: usize,
    ) -> V {
        at(dx, dy, dz)[packed::T + c]
    }

    // 25-point star Laplacian of component `c`.
    #[inline(always)]
    fn lap8<V: AbstractValue>(at: &impl Fn(i32, i32, i32) -> [V; RTM_PACKED_LANES], c: usize) -> V {
        let mut acc = V::constant(3.0 * W2[0]) * t(at, 0, 0, 0, c);
        for d in 1..=4i32 {
            acc = acc + V::constant(W2[d as usize]) * (t(at, d, 0, 0, c) + t(at, -d, 0, 0, c));
        }
        for d in 1..=4i32 {
            acc = acc + V::constant(W2[d as usize]) * (t(at, 0, d, 0, c) + t(at, 0, -d, 0, c));
        }
        for d in 1..=4i32 {
            acc = acc + V::constant(W2[d as usize]) * (t(at, 0, 0, d, c) + t(at, 0, 0, -d, c));
        }
        acc
    }

    // 8th-order first derivative of component `c` along `axis` (0=x,1=y,2=z).
    // The d = 1 term seeds the accumulator: 4 muls + 7 adds, matching
    // [`f_pml_op_count`].
    #[inline(always)]
    fn d1<V: AbstractValue>(
        at: &impl Fn(i32, i32, i32) -> [V; RTM_PACKED_LANES],
        c: usize,
        axis: usize,
    ) -> V {
        // Functions, not closures: the compiler may keep a closure out of
        // line, and then each lane-parallel neighbour read in it gathers all
        // RTM_PACKED_LANES components instead of the one `t` keeps.
        #[inline(always)]
        fn off(axis: usize, d: i32) -> (i32, i32, i32) {
            match axis {
                0 => (d, 0, 0),
                1 => (0, d, 0),
                _ => (0, 0, d),
            }
        }
        #[inline(always)]
        fn term<V: AbstractValue>(
            at: &impl Fn(i32, i32, i32) -> [V; RTM_PACKED_LANES],
            c: usize,
            axis: usize,
            d: i32,
        ) -> V {
            let (px, py, pz) = off(axis, d);
            let (mx, my, mz) = off(axis, -d);
            V::constant(W1[d as usize - 1]) * (t(at, px, py, pz, c) - t(at, mx, my, mz, c))
        }
        let mut acc = term(at, c, axis, 1);
        for d in 2..=4i32 {
            acc = acc + term(at, c, axis, d);
        }
        acc
    }

    let ctr = at(0, 0, 0);
    let p = ctr[packed::T + lane::P];
    let q = ctr[packed::T + lane::Q];
    let vx = ctr[packed::T + lane::VX];
    let vy = ctr[packed::T + lane::VY];
    let vz = ctr[packed::T + lane::VZ];
    let psi = ctr[packed::T + lane::PSI];

    let lp = lap8(at, lane::P);
    let lq = lap8(at, lane::Q);
    let lpsi = lap8(at, lane::PSI);
    let dx_p = d1(at, lane::P, 0);
    let dy_p = d1(at, lane::P, 1);
    let dz_p = d1(at, lane::P, 2);

    let sg = V::constant(prm.sigma);
    let sg2 = V::constant(prm.sigma2);

    let dp = mu * lq + rho * psi - sg * p;
    let dq = mu * lp - rho * ((vx + vy) + vz) - sg * q;
    let dvx = rho * dx_p + sg2 * psi - sg * vx;
    let dvy = rho * dy_p + sg2 * psi - sg * vy;
    let dvz = rho * dz_p + sg2 * psi - sg * vz;
    let dpsi = mu * lpsi + sg * (p + q) - sg2 * psi;

    [dp, dq, dvx, dvy, dvz, dpsi]
}

/// Arithmetic ops of one `f_pml` evaluation.
pub const fn f_pml_op_count() -> OpCount {
    // 3 × lap8 (13 muls, 24 adds each), 3 × d1 (4 muls, 7 adds each),
    // pointwise: dp (3m,2a) + dq (3m,4a) + 3×dv (3m,2a) + dpsi (3m,3a)
    OpCount::new(24 * 3 + 7 * 3 + 2 + 4 + 3 * 2 + 3, 13 * 3 + 4 * 3 + 3 + 3 + 3 * 3 + 3, 0)
}

/// Arithmetic ops of one fused RK4 stage `k ∈ {1,2,3}`
/// (`f_pml` + `K = dt·f` + `T' = Y + a·K` + `Yacc' = Yacc + b·K`).
pub const fn stage_op_count() -> OpCount {
    f_pml_op_count().plus(OpCount::new(12, 18, 0))
}

/// Arithmetic ops of the final stage 4 (`f_pml` + `K = dt·f` +
/// `Y_new = Yacc + b₄·K`).
pub const fn final_stage_op_count() -> OpCount {
    f_pml_op_count().plus(OpCount::new(6, 12, 0))
}

/// Total fused-pipeline ops for one complete RK4 time step — the `G_dsp`
/// driver for the analytic model (paper: 2444; ours: 1974).
pub const fn fused_op_count() -> OpCount {
    stage_op_count().times(3).plus(final_stage_op_count())
}

/// One fused RK4 stage as a radius-4 stencil over the packed stream.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RtmStage {
    /// Stage index `1..=4`.
    pub stage: usize,
    /// Physics/time-step parameters.
    pub params: RtmParams,
}

impl RtmStage {
    /// Construct stage `stage ∈ 1..=4`.
    pub fn new(stage: usize, params: RtmParams) -> Self {
        assert!((1..=4).contains(&stage), "RK4 stage must be 1..=4");
        RtmStage { stage, params }
    }

    /// The full 4-stage pipeline for one RK4 time step.
    pub fn pipeline(params: RtmParams) -> Vec<RtmStage> {
        (1..=4).map(|s| RtmStage::new(s, params)).collect()
    }

    /// The single copy of the fused-stage math, generic over the value
    /// domain: `K = dt·f_pml(T)`, then `T' = Y + a·K`, `Yacc' = Yacc + b·K`
    /// (stage 4 finalizes `Y_new = Yacc + b₄·K` into all three slots).
    /// [`StencilOp3D::apply`] delegates here at `V = f32`.
    #[inline]
    #[allow(clippy::needless_range_loop)] // `c` indexes three parallel lane sections
    pub fn update_packed<V, F>(&self, at: &F) -> [V; RTM_PACKED_LANES]
    where
        V: AbstractValue,
        F: Fn(i32, i32, i32) -> [V; RTM_PACKED_LANES],
    {
        let ctr = at(0, 0, 0);
        let rho = ctr[packed::RHO];
        let mu = ctr[packed::MU];
        let du = f_pml_abs(at, rho, mu, &self.params);

        let mut out = ctr;
        let a = V::constant(RK_A[self.stage - 1]);
        let b = V::constant(RK_B[self.stage - 1]);
        let dt = V::constant(self.params.dt);
        if self.stage < 4 {
            for c in 0..RTM_LANES {
                let k = du[c] * dt;
                out[packed::T + c] = ctr[packed::Y + c] + a * k;
                out[packed::ACC + c] = ctr[packed::ACC + c] + b * k;
            }
        } else {
            // finalize: Y_new into all three state slots so unrolled
            // iterations chain without a repack stage
            for c in 0..RTM_LANES {
                let k = du[c] * dt;
                let y_new = ctr[packed::ACC + c] + b * k;
                out[packed::Y + c] = y_new;
                out[packed::T + c] = y_new;
                out[packed::ACC + c] = y_new;
            }
        }
        out
    }
}

impl StencilOp3D<RtmPacked> for RtmStage {
    fn radius(&self) -> usize {
        4 // order D = 8
    }

    #[inline]
    fn apply<F: Fn(i32, i32, i32) -> RtmPacked>(&self, at: F) -> RtmPacked {
        VecN(self.update_packed::<f32, _>(&|dx, dy, dz| at(dx, dy, dz).0))
    }

    /// Boundary cells take `K = 0`: stages 1–3 emit `T' = Y`, stage 4 emits
    /// `Y_new = Yacc` into all slots. The output is one array of `center`'s
    /// lanes, so a boundary cell is a move of its 80 bytes, not a loop of
    /// lane stores. The pattern spells out the [`packed`] layout, which
    /// the `stage_boundary_semantics` test pins lane by lane.
    #[inline]
    fn on_boundary(&self, center: RtmPacked) -> RtmPacked {
        let [y0, y1, y2, y3, y4, y5, _, _, _, _, _, _, a0, a1, a2, a3, a4, a5, rho, mu] = center.0;
        VecN(if self.stage < 4 {
            [y0, y1, y2, y3, y4, y5, y0, y1, y2, y3, y4, y5, a0, a1, a2, a3, a4, a5, rho, mu]
        } else {
            [a0, a1, a2, a3, a4, a5, a0, a1, a2, a3, a4, a5, a0, a1, a2, a3, a4, a5, rho, mu]
        })
    }
}

/// Pack `(Y, ρ, μ)` meshes into the fused-stream representation
/// (`T = Yacc = Y`).
pub fn pack(y: &Mesh3D<RtmState>, rho: &Mesh3D<f32>, mu: &Mesh3D<f32>) -> Mesh3D<RtmPacked> {
    assert_eq!((y.nx(), y.ny(), y.nz()), (rho.nx(), rho.ny(), rho.nz()));
    assert_eq!((y.nx(), y.ny(), y.nz()), (mu.nx(), mu.ny(), mu.nz()));
    Mesh3D::from_fn(y.nx(), y.ny(), y.nz(), |x, yy, z| {
        pack_cell(y.get(x, yy, z), rho.get(x, yy, z), mu.get(x, yy, z))
    })
}

/// One packed element: `Y = T = Yacc = s`, then `ρ` and `μ`.
fn pack_cell(s: RtmState, rho: f32, mu: f32) -> RtmPacked {
    let mut e = RtmPacked::default();
    for c in 0..RTM_LANES {
        e.0[packed::Y + c] = s.0[c];
        e.0[packed::T + c] = s.0[c];
        e.0[packed::ACC + c] = s.0[c];
    }
    e.0[packed::RHO] = rho;
    e.0[packed::MU] = mu;
    e
}

/// Extract the state (`Y` lanes) from a packed mesh.
pub fn unpack(packed_mesh: &Mesh3D<RtmPacked>) -> Mesh3D<RtmState> {
    Mesh3D::from_fn(packed_mesh.nx(), packed_mesh.ny(), packed_mesh.nz(), |x, y, z| {
        let e = packed_mesh.get(x, y, z);
        let mut s = RtmState::default();
        for c in 0..RTM_LANES {
            s.0[c] = e.0[packed::Y + c];
        }
        s
    })
}

/// A deterministic, physically-plausible RTM workload: a Gaussian pressure
/// pulse in the mesh center, smooth ρ and μ coefficient fields. Returns
/// `(Y, ρ, μ)`.
pub fn demo_workload(
    nx: usize,
    ny: usize,
    nz: usize,
) -> (Mesh3D<RtmState>, Mesh3D<f32>, Mesh3D<f32>) {
    let demo = Demo::new(nx, ny, nz);
    let y = Mesh3D::from_fn(nx, ny, nz, |x, yy, z| demo.state(x, yy, z));
    let rho = Mesh3D::from_fn(nx, ny, nz, |x, _, _| demo.rho(x));
    let mu = Mesh3D::from_fn(nx, ny, nz, |_, yy, _| demo.mu(yy));
    (y, rho, mu)
}

/// The packed input the fused pipeline streams for [`demo_workload`], as a
/// batch of one mesh, built in one pass: each cell's pulse, ρ and μ are
/// packed straight into the buffer the batch holds. Bit-identical to
/// `Batch3D::from_meshes(&[pack(&y, &rho, &mu)])` over
/// `demo_workload(nx, ny, nz)`, without its four temporary meshes.
pub fn demo_batch(nx: usize, ny: usize, nz: usize) -> Batch3D<RtmPacked> {
    let demo = Demo::new(nx, ny, nz);
    Batch3D::from(Mesh3D::from_fn(nx, ny, nz, |x, y, z| {
        pack_cell(demo.state(x, y, z), demo.rho(x), demo.mu(y))
    }))
}

/// The demo workload's fields at one cell. [`demo_workload`] and
/// [`demo_batch`] both read them here, so they compute every value alike.
struct Demo {
    nx: usize,
    ny: usize,
    center: (f32, f32, f32),
}

impl Demo {
    fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Demo { nx, ny, center: (nx as f32 / 2.0, ny as f32 / 2.0, nz as f32 / 2.0) }
    }

    /// The state `Y`: a Gaussian pulse in `p`, half of it in `q`.
    fn state(&self, x: usize, y: usize, z: usize) -> RtmState {
        let (cx, cy, cz) = self.center;
        let r2 = (x as f32 - cx).powi(2) + (y as f32 - cy).powi(2) + (z as f32 - cz).powi(2);
        let pulse = (-r2 / (self.nx as f32)).exp();
        let mut s = RtmState::default();
        s.0[lane::P] = pulse;
        s.0[lane::Q] = 0.5 * pulse;
        s
    }

    fn rho(&self, x: usize) -> f32 {
        0.9 + 0.2 * (x as f32 / self.nx as f32)
    }

    fn mu(&self, y: usize) -> f32 {
        0.02 + 0.01 * (y as f32 / self.ny as f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zero_at() -> impl Fn(i32, i32, i32) -> RtmPacked {
        |_, _, _| RtmPacked::default()
    }

    #[test]
    fn f_pml_of_zero_is_zero() {
        let at = zero_at();
        let du = f_pml(&at, 1.0, 0.02, &RtmParams::default());
        assert_eq!(du, [0.0; 6]);
    }

    #[test]
    fn f_pml_constant_field_laplacian_vanishes() {
        // lap8 weights sum to 0 per dimension up to fp rounding; with a
        // constant T field only the pointwise damping terms survive.
        let mut e = RtmPacked::default();
        for c in 0..RTM_LANES {
            e.0[packed::T + c] = 1.0;
        }
        let at = move |_: i32, _: i32, _: i32| e;
        let prm = RtmParams { dt: 1e-3, sigma: 0.1, sigma2: 0.05 };
        let du = f_pml(&at, 2.0, 1.0, &prm);
        // dp = mu*lq + rho*psi - sigma*p ≈ 0 + 2 - 0.1
        assert!((du[0] - 1.9).abs() < 1e-4, "dp = {}", du[0]);
        // dq = mu*lp - rho*3 - sigma*q ≈ -6 - 0.1
        assert!((du[1] + 6.1).abs() < 1e-4, "dq = {}", du[1]);
        // dvx = rho*0 + sigma2*psi - sigma*vx = 0.05 - 0.1
        assert!((du[2] + 0.05).abs() < 1e-4, "dvx = {}", du[2]);
        // dpsi = mu*0 + sigma*2 - sigma2 = 0.2 - 0.05
        assert!((du[5] - 0.15).abs() < 1e-4, "dpsi = {}", du[5]);
    }

    #[test]
    fn lap8_weights_second_derivative_of_quadratic() {
        // T.p = x² → ∇²p = 2 exactly (8th-order scheme is exact on x²)
        let at = |dx: i32, _dy: i32, _dz: i32| {
            let mut e = RtmPacked::default();
            let x = dx as f32;
            e.0[packed::T + lane::Q] = x * x;
            e
        };
        let prm = RtmParams { dt: 1.0, sigma: 0.0, sigma2: 0.0 };
        // dp = mu * lap(q): with mu = 1 → should be ≈ 2
        let du = f_pml(&at, 0.0, 1.0, &prm);
        assert!((du[0] - 2.0).abs() < 1e-3, "lap8(x²) = {}", du[0]);
    }

    #[test]
    fn d1_weights_first_derivative_of_linear() {
        // T.p = 3x → ∂x p = 3 exactly
        let at = |dx: i32, _dy: i32, _dz: i32| {
            let mut e = RtmPacked::default();
            e.0[packed::T + lane::P] = 3.0 * dx as f32;
            e
        };
        let prm = RtmParams { dt: 1.0, sigma: 0.0, sigma2: 0.0 };
        // dvx = rho * d1x(p): rho = 1 → 3
        let du = f_pml(&at, 1.0, 0.0, &prm);
        assert!((du[2] - 3.0).abs() < 1e-4, "d1(3x) = {}", du[2]);
        // y and z derivatives of a pure-x field vanish
        assert!(du[3].abs() < 1e-4 && du[4].abs() < 1e-4);
    }

    #[test]
    fn op_counts_match_hand_derivation() {
        let f = f_pml_op_count();
        assert_eq!(f, OpCount::new(108, 69, 0));
        assert_eq!(stage_op_count(), OpCount::new(120, 87, 0));
        assert_eq!(final_stage_op_count(), OpCount::new(114, 81, 0));
        let fused = fused_op_count();
        assert_eq!(fused, OpCount::new(474, 342, 0));
        // The G_dsp band that admits p = 3 at V = 1 on the U280
        // (0.9·8490/4 < G_dsp ≤ 0.9·8490/3):
        let g = fused.dsp();
        assert_eq!(g, 1974);
        assert!(g > 7641 / 4 && g <= 7641 / 3);
    }

    #[test]
    fn stage_boundary_semantics() {
        let prm = RtmParams::default();
        // every lane a distinct bit pattern, among them a NaN with a
        // payload, -0.0 and a subnormal, so a moved or rounded lane shows
        let mut e = VecN::new(std::array::from_fn(|l| 1.0 + l as f32 * 0.5));
        e.0[packed::Y] = f32::from_bits(0x7fc0_1234);
        e.0[packed::ACC + 1] = -0.0;
        e.0[packed::MU] = f32::from_bits(1);
        let bits = |v: RtmPacked| v.0.map(f32::to_bits);
        let input = bits(e);
        for stage in 1..=4 {
            // stages 1–3: T' = Y, the rest unchanged; stage 4: Y_new = Yacc
            // in all three state slots; ρ and μ pass through
            let mut want = input;
            for c in 0..RTM_LANES {
                if stage < 4 {
                    want[packed::T + c] = input[packed::Y + c];
                } else {
                    want[packed::Y + c] = input[packed::ACC + c];
                    want[packed::T + c] = input[packed::ACC + c];
                }
            }
            assert_eq!(bits(RtmStage::new(stage, prm).on_boundary(e)), want, "stage {stage}");
        }
    }

    #[test]
    fn stage4_finalizes_all_slots_identically() {
        let prm = RtmParams::default();
        let mut e = RtmPacked::default();
        e.0[packed::T + lane::P] = 0.5;
        e.0[packed::ACC + lane::P] = 2.0;
        e.0[packed::RHO] = 1.0;
        e.0[packed::MU] = 0.02;
        let at = move |_: i32, _: i32, _: i32| e;
        let out = RtmStage::new(4, prm).apply(at);
        for c in 0..RTM_LANES {
            assert_eq!(out.0[packed::Y + c], out.0[packed::T + c]);
            assert_eq!(out.0[packed::Y + c], out.0[packed::ACC + c]);
        }
    }

    #[test]
    #[should_panic(expected = "RK4 stage must be 1..=4")]
    fn stage_index_validated() {
        let _ = RtmStage::new(5, RtmParams::default());
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let (y, rho, mu) = demo_workload(8, 8, 8);
        let pk = pack(&y, &rho, &mu);
        assert_eq!(pk.get(3, 4, 5).0[packed::RHO], rho.get(3, 4, 5));
        assert_eq!(pk.get(3, 4, 5).0[packed::MU], mu.get(3, 4, 5));
        let back = unpack(&pk);
        assert_eq!(back, y);
    }

    #[test]
    fn demo_batch_is_the_packed_demo_workload_bit_for_bit() {
        for (nx, ny, nz) in [(12, 10, 8), (40, 24, 33), (1, 1, 1), (7, 3, 5)] {
            let (y, rho, mu) = demo_workload(nx, ny, nz);
            let three_step = Batch3D::from_meshes(&[pack(&y, &rho, &mu)]);
            let one_pass = demo_batch(nx, ny, nz);
            assert_eq!((one_pass.nx(), one_pass.ny(), one_pass.nz()), (nx, ny, nz));
            assert_eq!(one_pass.batch(), 1);
            assert!(
                sf_mesh::norms::bit_equal(one_pass.as_slice(), three_step.as_slice()),
                "{nx}x{ny}x{nz}"
            );
        }
    }

    #[test]
    fn pipeline_has_four_stages_radius_4() {
        let p = RtmStage::pipeline(RtmParams::default());
        assert_eq!(p.len(), 4);
        for (i, s) in p.iter().enumerate() {
            assert_eq!(s.stage, i + 1);
            assert_eq!(s.radius(), 4);
        }
    }

    #[test]
    fn demo_workload_is_centered_pulse() {
        let (y, rho, mu) = demo_workload(16, 16, 16);
        let c = y.get(8, 8, 8).0[lane::P];
        let edge = y.get(0, 0, 0).0[lane::P];
        assert!(c > edge, "pulse must peak at the center");
        assert!(rho.all_finite() && mu.all_finite());
        assert!(y.get(8, 8, 8).0[lane::VX] == 0.0);
    }
}
