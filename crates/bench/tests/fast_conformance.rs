//! Differential conformance for the lane-parallel fast path.
//!
//! For each sampled `(star stencil, mesh, batch, V, p, niter)` point that
//! synthesizes, the fast executors must be bit-identical to the scalar
//! executors and to the golden [`sf_kernels::reference`] solve — the
//! stencil itself is randomized (weights and radius), not just the shape,
//! so the generic-update bit-exactness argument is exercised over the
//! whole kernel family, on widths that deliberately include ragged and
//! sub-lane interiors.
//!
//! Every sampled point also runs a halving-boundary variant of its star
//! ([`HalvingStar2D`]/[`HalvingStar3D`]): the paper's kernels hold boundary
//! cells, so a pass that failed to write a boundary cell would still look
//! right; halving them makes every boundary write visible.
//!
//! The deterministic tests pin the interop surface: batch-parallel
//! telemetry byte-identical across `jobs` × engine, checkpoint/rollback
//! recovery byte-identical under `--exec scalar` vs `--exec fast`, and the
//! halving kernels through tiled and 2-device sharded passes.
//!
//! The quick variants run in the default suite; the `deep_*` variants are
//! `#[ignore]`d 200-case sweeps for the nightly-style
//! `cargo test --release -- --ignored` job.

use proptest::prelude::*;
use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::{exec2d, exec3d, fast, ExecEngine, FpgaDevice, Recorder};
use sf_kernels::{
    reference, LaneElement, LaneOp2D, LaneOp3D, StarStencil2D, StarStencil3D, StencilOp2D,
    StencilOp3D, StencilSpec,
};
use sf_mesh::{norms, Batch2D, Batch3D};
use sf_telemetry::{chrome, metrics};

/// Input-mesh seed, independent of the sampled design point.
const INPUT_SEED: u64 = 9_182_736;

/// Vectorization widths worth sampling (paper uses powers of two).
const V_CHOICES: [usize; 4] = [1, 2, 4, 8];

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err(format!($($fmt)*));
        }
    };
}

/// Build a random axis star from sampled integer weights (eighths, so
/// every weight is exactly representable) and a radius of 1 or 2.
fn star_2d(r: usize, w: [i32; 5]) -> StarStencil2D {
    let f = |i: i32| i as f32 / 8.0;
    let mut pts = Vec::new();
    for d in 1..=r {
        let d = d as i32;
        pts.push((-d, 0, f(w[0]) / d as f32));
        pts.push((d, 0, f(w[1]) / d as f32));
        pts.push((0, -d, f(w[2]) / d as f32));
        pts.push((0, d, f(w[3]) / d as f32));
    }
    pts.push((0, 0, f(w[4])));
    StarStencil2D::new(pts)
}

fn star_3d(r: usize, w: [i32; 4]) -> StarStencil3D {
    let f = |i: i32| i as f32 / 8.0;
    let mut pts = Vec::new();
    for (axis, &wa) in w.iter().enumerate().take(3) {
        for d in 1..=r {
            let d = d as i32;
            let wt = f(wa) / d as f32;
            let off = |s: i32| match axis {
                0 => (s, 0, 0),
                1 => (0, s, 0),
                _ => (0, 0, s),
            };
            let (x, y, z) = off(d);
            pts.push((x, y, z, wt));
            let (x, y, z) = off(-d);
            pts.push((x, y, z, wt));
        }
    }
    pts.push((0, 0, 0, f(w[3])));
    StarStencil3D::new(pts)
}

/// The f32 lane pack the fast engine evaluates a kernel at.
type Pack = <f32 as LaneElement>::Lanes;

/// A kernel the differential checks can synthesize a design for.
trait Specified {
    /// The stencil's shape and cost, for `synthesize`.
    fn spec(&self) -> StencilSpec;
}

impl Specified for StarStencil2D {
    fn spec(&self) -> StencilSpec {
        StarStencil2D::spec(self)
    }
}

impl Specified for StarStencil3D {
    fn spec(&self) -> StencilSpec {
        StarStencil3D::spec(self)
    }
}

/// A 2D star whose boundary cells are halved instead of held. The interior
/// update is the star's own generic one, so both engines run it.
#[derive(Clone, Debug)]
struct HalvingStar2D(StarStencil2D);

impl StencilOp2D<f32> for HalvingStar2D {
    fn radius(&self) -> usize {
        self.0.radius()
    }
    fn apply<F: Fn(i32, i32) -> f32>(&self, at: F) -> f32 {
        self.0.apply(at)
    }
    fn on_boundary(&self, center: f32) -> f32 {
        0.5 * center
    }
}

impl LaneOp2D<f32> for HalvingStar2D {
    fn apply_lanes<F: Fn(i32, i32) -> Pack>(&self, at: &F) -> Pack {
        self.0.apply_lanes(at)
    }
}

impl Specified for HalvingStar2D {
    fn spec(&self) -> StencilSpec {
        self.0.spec()
    }
}

/// The 3D twin of [`HalvingStar2D`].
#[derive(Clone, Debug)]
struct HalvingStar3D(StarStencil3D);

impl StencilOp3D<f32> for HalvingStar3D {
    fn radius(&self) -> usize {
        self.0.radius()
    }
    fn apply<F: Fn(i32, i32, i32) -> f32>(&self, at: F) -> f32 {
        self.0.apply(at)
    }
    fn on_boundary(&self, center: f32) -> f32 {
        0.5 * center
    }
}

impl LaneOp3D<f32> for HalvingStar3D {
    fn apply_lanes<F: Fn(i32, i32, i32) -> Pack>(&self, at: &F) -> Pack {
        self.0.apply_lanes(at)
    }
}

impl Specified for HalvingStar3D {
    fn spec(&self) -> StencilSpec {
        self.0.spec()
    }
}

/// One 2D fast-vs-scalar differential check on a random star stencil.
/// `Ok(false)` means the sampled point does not synthesize (rejected,
/// resampled); `Err` is a genuine conformance failure.
#[allow(clippy::too_many_arguments)]
fn check_2d<K: LaneOp2D<f32> + Specified + Clone>(
    k: &K,
    nx: usize,
    ny: usize,
    batch: usize,
    v: usize,
    p: usize,
    niter: usize,
) -> Result<bool, String> {
    let dev = FpgaDevice::u280();
    let wl = Workload::D2 { nx, ny, batch };
    let mode = if batch > 1 { ExecMode::Batched { b: batch } } else { ExecMode::Baseline };
    let Ok(ds) = synthesize(&dev, &k.spec(), v, p, mode, MemKind::Hbm, &wl) else {
        return Ok(false);
    };
    let tag = format!("star r={} V={v} p={p} {nx}x{ny} batch={batch} iters={niter}", k.radius());
    let input = Batch2D::<f32>::random(nx, ny, batch, INPUT_SEED, -1.0, 1.0);
    let golden = reference::run_batch_2d(k, &input, niter);

    let (scalar_out, scalar_rep) =
        exec2d::simulate_2d(&dev, &ds, std::slice::from_ref(k), &input, niter);
    ensure!(
        norms::bit_equal(scalar_out.as_slice(), golden.as_slice()),
        "scalar 2D output differs from reference ({tag})"
    );
    let (fast_out, fast_rep) = fast::simulate_2d_exec(
        ExecEngine::Fast,
        &dev,
        &ds,
        std::slice::from_ref(k),
        &input,
        niter,
        &mut Recorder::disabled(),
    );
    ensure!(
        norms::bit_equal(fast_out.as_slice(), scalar_out.as_slice()),
        "fast 2D output differs from scalar ({tag})"
    );
    ensure!(
        fast_rep.total_cycles == scalar_rep.total_cycles,
        "2D cycle reports diverge across engines: {} vs {} ({tag})",
        fast_rep.total_cycles,
        scalar_rep.total_cycles
    );

    // Batch engine: every (engine, jobs) combination must agree byte for
    // byte — outputs, cycle report and telemetry.
    let mut runs = Vec::new();
    for engine in [ExecEngine::Scalar, ExecEngine::Fast] {
        for jobs in [1usize, 3] {
            let mut rec = Recorder::enabled(ds.freq_mhz());
            let (out, rep) = fast::simulate_batch_2d_parallel_exec(
                engine,
                &dev,
                &ds,
                std::slice::from_ref(k),
                &input,
                niter,
                jobs,
                &mut rec,
            );
            runs.push((engine, jobs, out, rep, rec));
        }
    }
    let (_, _, out0, rep0, rec0) = &runs[0];
    ensure!(
        norms::bit_equal(out0.as_slice(), golden.as_slice()),
        "batch 2D output differs from reference ({tag})"
    );
    for (engine, jobs, out, rep, rec) in &runs[1..] {
        let case = format!("engine={engine} jobs={jobs} ({tag})");
        ensure!(
            norms::bit_equal(out.as_slice(), out0.as_slice()),
            "batch 2D output diverges: {case}"
        );
        ensure!(rep.total_cycles == rep0.total_cycles, "batch 2D cycles diverge: {case}");
        ensure!(
            chrome::to_chrome_json(rec) == chrome::to_chrome_json(rec0),
            "batch 2D Chrome traces diverge: {case}"
        );
        ensure!(
            metrics::to_metrics_json(rec) == metrics::to_metrics_json(rec0),
            "batch 2D metrics JSON diverges: {case}"
        );
    }
    Ok(true)
}

/// 3D counterpart of [`check_2d`].
#[allow(clippy::too_many_arguments)]
fn check_3d<K: LaneOp3D<f32> + Specified + Clone>(
    k: &K,
    nx: usize,
    ny: usize,
    nz: usize,
    batch: usize,
    v: usize,
    p: usize,
    niter: usize,
) -> Result<bool, String> {
    let dev = FpgaDevice::u280();
    let wl = Workload::D3 { nx, ny, nz, batch };
    let mode = if batch > 1 { ExecMode::Batched { b: batch } } else { ExecMode::Baseline };
    let Ok(ds) = synthesize(&dev, &k.spec(), v, p, mode, MemKind::Hbm, &wl) else {
        return Ok(false);
    };
    let tag =
        format!("star r={} V={v} p={p} {nx}x{ny}x{nz} batch={batch} iters={niter}", k.radius());
    let input = Batch3D::<f32>::random(nx, ny, nz, batch, INPUT_SEED, -1.0, 1.0);
    let golden = reference::run_batch_3d(k, &input, niter);

    let (scalar_out, scalar_rep) =
        exec3d::simulate_3d(&dev, &ds, std::slice::from_ref(k), &input, niter);
    ensure!(
        norms::bit_equal(scalar_out.as_slice(), golden.as_slice()),
        "scalar 3D output differs from reference ({tag})"
    );
    let (fast_out, fast_rep) = fast::simulate_3d_exec(
        ExecEngine::Fast,
        &dev,
        &ds,
        std::slice::from_ref(k),
        &input,
        niter,
        &mut Recorder::disabled(),
    );
    ensure!(
        norms::bit_equal(fast_out.as_slice(), scalar_out.as_slice()),
        "fast 3D output differs from scalar ({tag})"
    );
    ensure!(
        fast_rep.total_cycles == scalar_rep.total_cycles,
        "3D cycle reports diverge across engines ({tag})"
    );

    let mut rec_s = Recorder::enabled(ds.freq_mhz());
    let (out_s, rep_s) = fast::simulate_batch_3d_parallel_exec(
        ExecEngine::Scalar,
        &dev,
        &ds,
        std::slice::from_ref(k),
        &input,
        niter,
        1,
        &mut rec_s,
    );
    let mut rec_f = Recorder::enabled(ds.freq_mhz());
    let (out_f, rep_f) = fast::simulate_batch_3d_parallel_exec(
        ExecEngine::Fast,
        &dev,
        &ds,
        std::slice::from_ref(k),
        &input,
        niter,
        3,
        &mut rec_f,
    );
    ensure!(
        norms::bit_equal(out_s.as_slice(), golden.as_slice()),
        "batch 3D output differs from reference ({tag})"
    );
    ensure!(
        norms::bit_equal(out_f.as_slice(), out_s.as_slice()),
        "batch 3D fast/jobs=3 output differs from scalar/jobs=1 ({tag})"
    );
    ensure!(rep_f.total_cycles == rep_s.total_cycles, "batch 3D cycles diverge ({tag})");
    ensure!(
        chrome::to_chrome_json(&rec_f) == chrome::to_chrome_json(&rec_s),
        "batch 3D Chrome traces diverge across engine x jobs ({tag})"
    );
    ensure!(
        metrics::to_metrics_json(&rec_f) == metrics::to_metrics_json(&rec_s),
        "batch 3D metrics JSON diverges across engine x jobs ({tag})"
    );
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn quick_fast_conformance_2d(
        r in 1usize..3,
        w0 in -8i32..9,
        w1 in -8i32..9,
        w2 in -8i32..9,
        w3 in -8i32..9,
        w4 in -8i32..9,
        nx in 4usize..40,
        ny in 6usize..24,
        batch in 1usize..4,
        vi in 0usize..4,
        p in 1usize..5,
        niter in 1usize..4,
    ) {
        let k = star_2d(r, [w0, w1, w2, w3, w4]);
        let res = check_2d(&k, nx, ny, batch, V_CHOICES[vi], p, niter);
        prop_assert!(res.is_ok(), "{}", res.as_ref().err().cloned().unwrap_or_default());
        let halving = check_2d(&HalvingStar2D(k), nx, ny, batch, V_CHOICES[vi], p, niter);
        prop_assert!(halving.is_ok(), "halving: {}", halving.err().unwrap_or_default());
        prop_assume!(matches!(res, Ok(true)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn quick_fast_conformance_3d(
        r in 1usize..3,
        w0 in -8i32..9,
        w1 in -8i32..9,
        w2 in -8i32..9,
        w3 in -8i32..9,
        nx in 4usize..20,
        ny in 4usize..10,
        nz in 4usize..10,
        batch in 1usize..3,
        vi in 0usize..4,
        p in 1usize..4,
        niter in 1usize..3,
    ) {
        let k = star_3d(r, [w0, w1, w2, w3]);
        let res = check_3d(&k, nx, ny, nz, batch, V_CHOICES[vi], p, niter);
        prop_assert!(res.is_ok(), "{}", res.as_ref().err().cloned().unwrap_or_default());
        let halving = check_3d(&HalvingStar3D(k), nx, ny, nz, batch, V_CHOICES[vi], p, niter);
        prop_assert!(halving.is_ok(), "halving: {}", halving.err().unwrap_or_default());
        prop_assume!(matches!(res, Ok(true)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Nightly-depth sweep: 200 feasible 2D star designs fast vs scalar.
    #[test]
    #[ignore]
    fn deep_fast_conformance_2d(
        r in 1usize..3,
        w0 in -8i32..9,
        w1 in -8i32..9,
        w2 in -8i32..9,
        w3 in -8i32..9,
        w4 in -8i32..9,
        nx in 4usize..40,
        ny in 6usize..24,
        batch in 1usize..4,
        vi in 0usize..4,
        p in 1usize..5,
        niter in 1usize..4,
    ) {
        let k = star_2d(r, [w0, w1, w2, w3, w4]);
        let res = check_2d(&k, nx, ny, batch, V_CHOICES[vi], p, niter);
        prop_assert!(res.is_ok(), "{}", res.as_ref().err().cloned().unwrap_or_default());
        let halving = check_2d(&HalvingStar2D(k), nx, ny, batch, V_CHOICES[vi], p, niter);
        prop_assert!(halving.is_ok(), "halving: {}", halving.err().unwrap_or_default());
        prop_assume!(matches!(res, Ok(true)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Nightly-depth sweep: 200 feasible 3D star designs fast vs scalar.
    #[test]
    #[ignore]
    fn deep_fast_conformance_3d(
        r in 1usize..3,
        w0 in -8i32..9,
        w1 in -8i32..9,
        w2 in -8i32..9,
        w3 in -8i32..9,
        nx in 4usize..20,
        ny in 4usize..10,
        nz in 4usize..10,
        batch in 1usize..3,
        vi in 0usize..4,
        p in 1usize..4,
        niter in 1usize..3,
    ) {
        let k = star_3d(r, [w0, w1, w2, w3]);
        let res = check_3d(&k, nx, ny, nz, batch, V_CHOICES[vi], p, niter);
        prop_assert!(res.is_ok(), "{}", res.as_ref().err().cloned().unwrap_or_default());
        let halving = check_3d(&HalvingStar3D(k), nx, ny, nz, batch, V_CHOICES[vi], p, niter);
        prop_assert!(halving.is_ok(), "halving: {}", halving.err().unwrap_or_default());
        prop_assume!(matches!(res, Ok(true)));
    }
}

// ---------------------------------------------------------------------------
// Recovery interop: checkpoint/rollback byte-identical across engines.
// ---------------------------------------------------------------------------

fn rollback_cfg(every: usize) -> sf_fpga::RecoveryConfig {
    sf_fpga::RecoveryConfig {
        policy: sf_fpga::RecoveryPolicy::Rollback { max_retries: 3 },
        checkpoint_every: every,
        ..sf_fpga::RecoveryConfig::default()
    }
}

#[test]
fn rollback_recovery_2d_is_engine_invariant() {
    use sf_fpga::{FaultInjector, FaultKind, FaultPlan, Faults, Run};
    use sf_kernels::{Poisson2D, StencilSpec};
    let dev = FpgaDevice::u280();
    let wl = Workload::D2 { nx: 24, ny: 12, batch: 3 };
    let ds = synthesize(
        &dev,
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
    let run = |engine: ExecEngine| {
        let mut inj = FaultInjector::new(plan);
        let mut rec = Recorder::disabled();
        Run {
            engine,
            faults: Faults::Injector(&mut inj),
            recovery: Some(&rollback_cfg(2)),
            ..Run::new(&dev, &ds, &[Poisson2D], 8, &mut rec)
        }
        .simulate(&batch)
        .unwrap()
    };
    let (o_s, r_s, s_s) = run(ExecEngine::Scalar);
    let (o_f, r_f, s_f) = run(ExecEngine::Fast);
    assert!(norms::bit_equal(o_s.as_slice(), o_f.as_slice()), "outputs diverge across engines");
    assert_eq!(s_s, s_f, "recovery stats diverge across engines");
    assert_eq!(r_s.total_cycles, r_f.total_cycles, "cycles diverge across engines");
    // and the recovered answer is the right one
    for i in 0..3 {
        let expect = reference::run_2d(&Poisson2D, &batch.mesh(i), 8);
        assert!(norms::bit_equal(o_s.mesh(i).as_slice(), expect.as_slice()), "mesh {i}");
    }
    assert!(s_s.rollbacks > 0, "the plan must exercise the rollback path: {s_s:?}");
}

#[test]
fn rollback_recovery_3d_is_engine_invariant() {
    use sf_fpga::{FaultInjector, FaultKind, FaultPlan, RetryPolicy};
    use sf_kernels::{Jacobi3D, StencilSpec};
    let dev = FpgaDevice::u280();
    let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
    let ds = synthesize(&dev, &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    let k = Jacobi3D::smoothing();
    let input = Batch3D::<f32>::random(16, 12, 10, 1, 11, -1.0, 1.0);
    let plan = FaultPlan::single(7, FaultKind::BitFlip, 1_000_000);
    let run = |engine: ExecEngine| {
        let mut inj = FaultInjector::new(plan);
        let mut rec = Recorder::enabled(ds.freq_mhz());
        let out = fast::simulate_3d_recoverable_exec(
            engine,
            &dev,
            &ds,
            &[k],
            &input,
            6,
            &mut inj,
            &RetryPolicy::default(),
            &rollback_cfg(2),
            &mut rec,
        )
        .unwrap();
        (out, metrics::to_metrics_json(&rec))
    };
    let ((o_s, rep_s, st_s), m_s) = run(ExecEngine::Scalar);
    let ((o_f, rep_f, st_f), m_f) = run(ExecEngine::Fast);
    assert!(norms::bit_equal(o_s.as_slice(), o_f.as_slice()));
    assert_eq!(st_s, st_f);
    assert_eq!(rep_s.total_cycles, rep_f.total_cycles);
    assert_eq!(m_s, m_f, "recovery telemetry must be byte-identical across engines");
    assert!(st_s.sdc_detected > 0, "the saturation bit-flip must trip the ABFT check");
    let expect = reference::run_3d(&k, &input.mesh(0), 6);
    assert!(norms::bit_equal(o_s.mesh(0).as_slice(), expect.as_slice()));
}

// ---------------------------------------------------------------------------
// Non-identity boundaries through tiled and sharded passes.
// ---------------------------------------------------------------------------

/// A halving radius-1 2D star (the Poisson weights, exactly representable).
fn halving_2d() -> HalvingStar2D {
    HalvingStar2D(StarStencil2D::laplace5(0.25, 0.0))
}

#[test]
fn halving_boundary_tiled_1d_matches_reference() {
    let (nx, ny, p) = (203, 30, 4);
    assert_ne!(nx % lanes(), 0);
    let k = halving_2d();
    let dev = FpgaDevice::u280();
    let wl = Workload::D2 { nx, ny, batch: 1 };
    let mode = ExecMode::Tiled1D { tile_m: 64 };
    let ds = synthesize(&dev, &k.spec(), 8, p, mode, MemKind::Hbm, &wl).unwrap();
    let input = Batch2D::<f32>::random(nx, ny, 1, INPUT_SEED, -1.0, 1.0);
    let niter = 2 * p + 1;
    let golden = reference::run_batch_2d(&k, &input, niter);
    for engine in [ExecEngine::Scalar, ExecEngine::Fast] {
        let mut rec = Recorder::disabled();
        let stages = std::slice::from_ref(&k);
        let (out, _) = fast::simulate_2d_exec(engine, &dev, &ds, stages, &input, niter, &mut rec);
        assert!(norms::bit_equal(out.as_slice(), golden.as_slice()), "engine={engine}");
    }
}

#[test]
fn halving_boundary_tiled_2d_matches_reference() {
    let (nx, ny, nz, p) = (45, 40, 8, 2);
    assert_ne!(nx % lanes(), 0);
    let k = HalvingStar3D(StarStencil3D::high_order(&[-6.0 / 8.0, 1.0 / 8.0], 0.5, 1.0));
    let dev = FpgaDevice::u280();
    let wl = Workload::D3 { nx, ny, nz, batch: 1 };
    let mode = ExecMode::Tiled2D { tile_m: 32, tile_n: 16 };
    let ds = synthesize(&dev, &k.spec(), 8, p, mode, MemKind::Hbm, &wl).unwrap();
    let input = Batch3D::<f32>::random(nx, ny, nz, 1, INPUT_SEED, -1.0, 1.0);
    let niter = 2 * p + 1;
    let golden = reference::run_batch_3d(&k, &input, niter);
    for engine in [ExecEngine::Scalar, ExecEngine::Fast] {
        let mut rec = Recorder::disabled();
        let stages = std::slice::from_ref(&k);
        let (out, _) = fast::simulate_3d_exec(engine, &dev, &ds, stages, &input, niter, &mut rec);
        assert!(norms::bit_equal(out.as_slice(), golden.as_slice()), "engine={engine}");
    }
}

#[test]
fn halving_boundary_two_device_slabs_match_reference() {
    let (nx, ny, p) = (37, 40, 3);
    assert_ne!(nx % lanes(), 0);
    let k = halving_2d();
    let dev = FpgaDevice::u280();
    let wl = Workload::D2 { nx, ny, batch: 2 };
    let ds =
        synthesize(&dev, &k.spec(), 8, p, ExecMode::Batched { b: 2 }, MemKind::Hbm, &wl).unwrap();
    let input = Batch2D::<f32>::random(nx, ny, 2, INPUT_SEED, -1.0, 1.0);
    let niter = 2 * p + 1;
    let golden = reference::run_batch_2d(&k, &input, niter);
    let cfg = sf_multi::MultiConfig::new(2);
    for engine in [ExecEngine::Scalar, ExecEngine::Fast] {
        for jobs in [1, 2] {
            let mut rec = Recorder::disabled();
            let stages = std::slice::from_ref(&k);
            let (out, _) = sf_multi::simulate_batch_2d_sharded_exec(
                engine, &dev, &ds, stages, &input, niter, &cfg, jobs, &mut rec,
            )
            .unwrap();
            let case = format!("engine={engine} jobs={jobs}");
            assert!(norms::bit_equal(out.as_slice(), golden.as_slice()), "{case}");
        }
    }
}

/// The fast engine's lane count.
fn lanes() -> usize {
    std::mem::size_of::<Pack>() / std::mem::size_of::<f32>()
}
