//! Scalar vs lane-parallel fast path on all three paper applications.
//!
//! Both engines stream the identical window-buffer/FIFO chain and are
//! bit-exact (the conformance suite asserts it), so the only thing under
//! the stopwatch here is the cost of advancing one cell per step versus
//! `sf_simd::LANES` cells per step. The `poisson2d` group is the headline
//! number: the PR targets a ≥4× wall-clock speedup of `fast` over
//! `scalar` at validation scale, and `BENCH_pr9.json` archives the
//! `--output-format bencher` rows so later PRs regress against them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::{fast, ExecEngine, FpgaDevice, Recorder};
use sf_kernels::{rtm, Jacobi3D, Poisson2D, RtmStage, StencilSpec};
use sf_mesh::{Batch2D, Batch3D};

const SEED: u64 = 42;
const ENGINES: [ExecEngine; 2] = [ExecEngine::Scalar, ExecEngine::Fast];

/// Poisson 2D at validation scale (the mesh the differential suite and the
/// DSE examples run at) — the ≥4× target applies to this group.
fn bench_poisson_2d(c: &mut Criterion) {
    let dev = FpgaDevice::u280();
    let (nx, ny, niter) = (400usize, 400usize, 10usize);
    let wl = Workload::D2 { nx, ny, batch: 1 };
    let ds = synthesize(&dev, &StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    let input = Batch2D::<f32>::random(nx, ny, 1, SEED, -1.0, 1.0);
    let mut g = c.benchmark_group("fast_path_poisson2d_400x400");
    g.sample_size(10);
    g.throughput(Throughput::Elements((nx * ny * niter) as u64));
    for engine in ENGINES {
        g.bench_with_input(BenchmarkId::new("engine", engine), &engine, |b, &engine| {
            b.iter(|| {
                fast::simulate_2d_exec(
                    engine,
                    &dev,
                    &ds,
                    &[Poisson2D],
                    &input,
                    niter,
                    &mut Recorder::disabled(),
                )
            })
        });
    }
    g.finish();
}

fn bench_jacobi_3d(c: &mut Criterion) {
    let dev = FpgaDevice::u280();
    let (nx, ny, nz, niter) = (64usize, 64usize, 64usize, 4usize);
    let wl = Workload::D3 { nx, ny, nz, batch: 1 };
    let ds = synthesize(&dev, &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    let k = Jacobi3D::smoothing();
    let input = Batch3D::<f32>::random(nx, ny, nz, 1, SEED, -1.0, 1.0);
    let mut g = c.benchmark_group("fast_path_jacobi3d_64x64x64");
    g.sample_size(10);
    g.throughput(Throughput::Elements((nx * ny * nz * niter) as u64));
    for engine in ENGINES {
        g.bench_with_input(BenchmarkId::new("engine", engine), &engine, |b, &engine| {
            b.iter(|| {
                fast::simulate_3d_exec(
                    engine,
                    &dev,
                    &ds,
                    &[k],
                    &input,
                    niter,
                    &mut Recorder::disabled(),
                )
            })
        });
    }
    g.finish();
}

fn bench_rtm_3d(c: &mut Criterion) {
    let dev = FpgaDevice::u280();
    let (nx, ny, nz, niter) = (32usize, 32usize, 32usize, 2usize);
    let wl = Workload::D3 { nx, ny, nz, batch: 1 };
    let ds =
        synthesize(&dev, &StencilSpec::rtm(), 1, 3, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
    let input = rtm::demo_batch(nx, ny, nz);
    let stages = RtmStage::pipeline(sf_kernels::RtmParams::default());
    let mut g = c.benchmark_group("fast_path_rtm3d_32x32x32");
    g.sample_size(10);
    g.throughput(Throughput::Elements((nx * ny * nz * niter) as u64));
    for engine in ENGINES {
        g.bench_with_input(BenchmarkId::new("engine", engine), &engine, |b, &engine| {
            b.iter(|| {
                fast::simulate_3d_exec(
                    engine,
                    &dev,
                    &ds,
                    &stages,
                    &input,
                    niter,
                    &mut Recorder::disabled(),
                )
            })
        });
    }
    g.finish();
}

/// Batched Poisson through the sharded parallel path: the fast engine must
/// compose with `--jobs` sharding, not replace it.
fn bench_batch_2d(c: &mut Criterion) {
    let dev = FpgaDevice::u280();
    let (nx, ny, batch, niter) = (128usize, 64usize, 8usize, 6usize);
    let wl = Workload::D2 { nx, ny, batch };
    let ds = synthesize(
        &dev,
        &StencilSpec::poisson(),
        8,
        4,
        ExecMode::Batched { b: batch },
        MemKind::Hbm,
        &wl,
    )
    .unwrap();
    let input = Batch2D::<f32>::random(nx, ny, batch, SEED, -1.0, 1.0);
    let mut g = c.benchmark_group("fast_path_batch2d_128x64x8_jobs2");
    g.sample_size(10);
    g.throughput(Throughput::Elements((nx * ny * batch * niter) as u64));
    for engine in ENGINES {
        g.bench_with_input(BenchmarkId::new("engine", engine), &engine, |b, &engine| {
            b.iter(|| {
                fast::simulate_batch_2d_parallel_exec(
                    engine,
                    &dev,
                    &ds,
                    &[Poisson2D],
                    &input,
                    niter,
                    2,
                    &mut Recorder::disabled(),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_poisson_2d, bench_jacobi_3d, bench_rtm_3d, bench_batch_2d);
criterion_main!(benches);
