//! Differential conformance: randomized feasible designs must agree across
//! every execution engine.
//!
//! For each sampled `(mesh, batch, V, p, niter)` point that synthesizes:
//!
//! * the golden scalar [`sf_kernels::reference`] solver, the single-stream
//!   behavioral executor ([`exec2d`]/[`exec3d`]) and the parallel batch
//!   engine ([`exec_batch`]) produce bit-identical outputs;
//! * the batch engine at `jobs = 3` is byte-identical to `jobs = 1` —
//!   outputs, cycle report, Chrome trace and metrics JSON;
//! * the batch engine's cycle report matches the single-stream report
//!   (both are closed-form from the same plan).
//!
//! The quick variants run in the default suite; the `deep_*` variants are
//! `#[ignore]`d 200-case sweeps for the nightly-style
//! `cargo test --release -- --ignored` job.

use proptest::prelude::*;
use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::{exec2d, exec3d, fast, ExecEngine, FpgaDevice, Recorder};
use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
use sf_mesh::{norms, Batch2D, Batch3D};
use sf_telemetry::{chrome, metrics};

/// Input-mesh seed, independent of the sampled design point.
const INPUT_SEED: u64 = 7_654_321;

/// Vectorization widths worth sampling (paper uses powers of two).
const V_CHOICES: [usize; 4] = [1, 2, 4, 8];

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return Err(format!($($fmt)*));
        }
    };
}

/// One 2D differential check. `Ok(false)` means the sampled point does not
/// synthesize (rejected, resampled); `Err` is a genuine conformance failure.
fn check_2d(
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
    let spec = StencilSpec::poisson();
    let Ok(ds) = synthesize(&dev, &spec, v, p, mode, MemKind::Hbm, &wl) else {
        return Ok(false);
    };
    let tag = format!("V={v} p={p} {nx}x{ny} batch={batch} iters={niter}");
    let input = Batch2D::<f32>::random(nx, ny, batch, INPUT_SEED, -1.0, 1.0);
    let golden = reference::run_batch_2d(&Poisson2D, &input, niter);

    let (serial_out, serial_rep) = exec2d::simulate_2d(&dev, &ds, &[Poisson2D], &input, niter);
    ensure!(
        norms::bit_equal(serial_out.as_slice(), golden.as_slice()),
        "single-stream 2D output differs from reference ({tag})"
    );

    let mut rec1 = Recorder::enabled(ds.freq_mhz());
    let (out1, rep1) = fast::simulate_batch_2d_parallel_exec(
        ExecEngine::Scalar,
        &dev,
        &ds,
        &[Poisson2D],
        &input,
        niter,
        1,
        &mut rec1,
    );
    let mut rec3 = Recorder::enabled(ds.freq_mhz());
    let (out3, rep3) = fast::simulate_batch_2d_parallel_exec(
        ExecEngine::Scalar,
        &dev,
        &ds,
        &[Poisson2D],
        &input,
        niter,
        3,
        &mut rec3,
    );
    ensure!(
        norms::bit_equal(out1.as_slice(), golden.as_slice()),
        "batch-engine 2D output differs from reference ({tag})"
    );
    ensure!(
        norms::bit_equal(out1.as_slice(), out3.as_slice()),
        "parallel batch 2D output differs from serial ({tag})"
    );
    ensure!(
        rep1.total_cycles == rep3.total_cycles,
        "2D cycle reports diverge across jobs: {} vs {} ({tag})",
        rep1.total_cycles,
        rep3.total_cycles
    );
    ensure!(
        rep1.total_cycles == serial_rep.total_cycles,
        "2D batch engine cycles {} != single-stream cycles {} ({tag})",
        rep1.total_cycles,
        serial_rep.total_cycles
    );
    ensure!(
        chrome::to_chrome_json(&rec1) == chrome::to_chrome_json(&rec3),
        "2D Chrome traces diverge across jobs ({tag})"
    );
    ensure!(
        metrics::to_metrics_json(&rec1) == metrics::to_metrics_json(&rec3),
        "2D metrics JSON diverges across jobs ({tag})"
    );
    Ok(true)
}

/// 3D counterpart of [`check_2d`] on the Jacobi smoothing kernel.
fn check_3d(
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
    let spec = StencilSpec::jacobi();
    let Ok(ds) = synthesize(&dev, &spec, v, p, mode, MemKind::Hbm, &wl) else {
        return Ok(false);
    };
    let tag = format!("V={v} p={p} {nx}x{ny}x{nz} batch={batch} iters={niter}");
    let k = Jacobi3D::smoothing();
    let input = Batch3D::<f32>::random(nx, ny, nz, batch, INPUT_SEED, -1.0, 1.0);
    let golden = reference::run_batch_3d(&k, &input, niter);

    let (serial_out, serial_rep) = exec3d::simulate_3d(&dev, &ds, &[k], &input, niter);
    ensure!(
        norms::bit_equal(serial_out.as_slice(), golden.as_slice()),
        "single-stream 3D output differs from reference ({tag})"
    );

    let mut rec1 = Recorder::enabled(ds.freq_mhz());
    let (out1, rep1) = fast::simulate_batch_3d_parallel_exec(
        ExecEngine::Scalar,
        &dev,
        &ds,
        &[k],
        &input,
        niter,
        1,
        &mut rec1,
    );
    let mut rec3 = Recorder::enabled(ds.freq_mhz());
    let (out3, rep3) = fast::simulate_batch_3d_parallel_exec(
        ExecEngine::Scalar,
        &dev,
        &ds,
        &[k],
        &input,
        niter,
        3,
        &mut rec3,
    );
    ensure!(
        norms::bit_equal(out1.as_slice(), golden.as_slice()),
        "batch-engine 3D output differs from reference ({tag})"
    );
    ensure!(
        norms::bit_equal(out1.as_slice(), out3.as_slice()),
        "parallel batch 3D output differs from serial ({tag})"
    );
    ensure!(
        rep1.total_cycles == rep3.total_cycles,
        "3D cycle reports diverge across jobs: {} vs {} ({tag})",
        rep1.total_cycles,
        rep3.total_cycles
    );
    ensure!(
        rep1.total_cycles == serial_rep.total_cycles,
        "3D batch engine cycles {} != single-stream cycles {} ({tag})",
        rep1.total_cycles,
        serial_rep.total_cycles
    );
    ensure!(
        chrome::to_chrome_json(&rec1) == chrome::to_chrome_json(&rec3),
        "3D Chrome traces diverge across jobs ({tag})"
    );
    ensure!(
        metrics::to_metrics_json(&rec1) == metrics::to_metrics_json(&rec3),
        "3D metrics JSON diverges across jobs ({tag})"
    );
    Ok(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn quick_differential_2d(
        nxk in 1usize..5,
        ny in 6usize..24,
        batch in 1usize..4,
        vi in 0usize..4,
        p in 1usize..5,
        niter in 1usize..4,
    ) {
        let r = check_2d(8 * nxk, ny, batch, V_CHOICES[vi], p, niter);
        prop_assert!(r.is_ok(), "{}", r.as_ref().err().cloned().unwrap_or_default());
        prop_assume!(matches!(r, Ok(true)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn quick_differential_3d(
        nxk in 1usize..3,
        ny in 4usize..10,
        nz in 4usize..10,
        batch in 1usize..3,
        vi in 0usize..4,
        p in 1usize..4,
        niter in 1usize..3,
    ) {
        let r = check_3d(8 * nxk, ny, nz, batch, V_CHOICES[vi], p, niter);
        prop_assert!(r.is_ok(), "{}", r.as_ref().err().cloned().unwrap_or_default());
        prop_assume!(matches!(r, Ok(true)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Nightly-depth sweep: 200 feasible 2D designs end to end.
    #[test]
    #[ignore]
    fn deep_differential_2d(
        nxk in 1usize..5,
        ny in 6usize..24,
        batch in 1usize..4,
        vi in 0usize..4,
        p in 1usize..5,
        niter in 1usize..4,
    ) {
        let r = check_2d(8 * nxk, ny, batch, V_CHOICES[vi], p, niter);
        prop_assert!(r.is_ok(), "{}", r.as_ref().err().cloned().unwrap_or_default());
        prop_assume!(matches!(r, Ok(true)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Nightly-depth sweep: 200 feasible 3D designs end to end.
    #[test]
    #[ignore]
    fn deep_differential_3d(
        nxk in 1usize..3,
        ny in 4usize..10,
        nz in 4usize..10,
        batch in 1usize..3,
        vi in 0usize..4,
        p in 1usize..4,
        niter in 1usize..3,
    ) {
        let r = check_3d(8 * nxk, ny, nz, batch, V_CHOICES[vi], p, niter);
        prop_assert!(r.is_ok(), "{}", r.as_ref().err().cloned().unwrap_or_default());
        prop_assume!(matches!(r, Ok(true)));
    }
}
