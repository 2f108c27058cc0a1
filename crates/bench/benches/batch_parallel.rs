//! The parallel execution layer under the stopwatch: batched 2D/3D
//! simulation across worker counts and the parallel DSE sweep.
//!
//! On a multi-core host the `jobs=4` rows should beat `jobs=1` roughly
//! linearly until the batch runs out; on a single-core CI runner they
//! degenerate to the same number — the point of the CI job is the archived
//! trend (`--output-format bencher`), not an absolute speedup gate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sf_core::prelude::*;
use sf_fpga::design::synthesize;
use sf_fpga::{fast, ExecEngine, Recorder};
use sf_kernels::{Jacobi3D, Poisson2D};
use sf_mesh::{Batch2D, Batch3D};

const SEED: u64 = 42;

fn bench_batch_2d(c: &mut Criterion) {
    let dev = FpgaDevice::u280();
    let (nx, ny, batch, niter) = (64usize, 32usize, 8usize, 10usize);
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
    let mut g = c.benchmark_group("batch2d_64x32x8");
    g.sample_size(10);
    g.throughput(Throughput::Elements((nx * ny * batch * niter) as u64));
    for jobs in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                fast::simulate_batch_2d_parallel_exec(
                    ExecEngine::Scalar,
                    &dev,
                    &ds,
                    &[Poisson2D],
                    &input,
                    niter,
                    jobs,
                    &mut Recorder::disabled(),
                )
            })
        });
    }
    g.finish();
}

fn bench_batch_3d(c: &mut Criterion) {
    let dev = FpgaDevice::u280();
    let (nx, ny, nz, batch, niter) = (16usize, 12usize, 10usize, 6usize, 6usize);
    let wl = Workload::D3 { nx, ny, nz, batch };
    let ds = synthesize(
        &dev,
        &StencilSpec::jacobi(),
        8,
        3,
        ExecMode::Batched { b: batch },
        MemKind::Hbm,
        &wl,
    )
    .unwrap();
    let k = Jacobi3D::smoothing();
    let input = Batch3D::<f32>::random(nx, ny, nz, batch, SEED, -1.0, 1.0);
    let mut g = c.benchmark_group("batch3d_16x12x10x6");
    g.sample_size(10);
    g.throughput(Throughput::Elements((nx * ny * nz * batch * niter) as u64));
    for jobs in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| {
                fast::simulate_batch_3d_parallel_exec(
                    ExecEngine::Scalar,
                    &dev,
                    &ds,
                    &[k],
                    &input,
                    niter,
                    jobs,
                    &mut Recorder::disabled(),
                )
            })
        });
    }
    g.finish();
}

fn bench_dse_parallel(c: &mut Criterion) {
    let wf = Workflow::u280_vs_v100();
    let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
    let mut g = c.benchmark_group("dse_poisson_400");
    g.sample_size(10);
    for jobs in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::new("jobs", jobs), &jobs, |b, &jobs| {
            b.iter(|| wf.explore_jobs(&StencilSpec::poisson(), &wl, 60_000, jobs).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_batch_2d, bench_batch_3d, bench_dse_parallel);
criterion_main!(benches);
