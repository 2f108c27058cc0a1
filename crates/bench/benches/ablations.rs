//! Ablation benches: design-choice sweeps DESIGN.md calls out — number
//! formats, device scaling, quantized vs continuous tile selection, and the
//! fused multi-stage 2D wave pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sf_bench::experiments;
use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::{exec2d, FpgaDevice};
use sf_kernels::ops::NumberFormat;
use sf_kernels::{wave2d, StencilSpec};
use sf_model::blocking;

fn bench_ablation_experiments(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_experiments");
    g.sample_size(10);
    g.bench_function("precision_sweep", |b| b.iter(experiments::ablation_precision));
    g.bench_function("overhead_decomposition", |b| b.iter(experiments::ablation_overheads));
    g.bench_function("device_scaling", |b| b.iter(experiments::ablation_device_scaling));
    g.bench_function("energy_summary", |b| b.iter(experiments::energy_summary));
    g.finish();
}

fn bench_format_synthesis(c: &mut Criterion) {
    let mut g = c.benchmark_group("format_synthesis");
    let d = FpgaDevice::u280();
    let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
    for fmt in [NumberFormat::Fp32, NumberFormat::Fp16, NumberFormat::Fixed18] {
        let spec = StencilSpec::poisson().with_format(fmt);
        g.bench_with_input(BenchmarkId::new("poisson", format!("{fmt}")), &spec, |b, s| {
            b.iter(|| synthesize(&d, s, 8, 40, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap())
        });
    }
    g.finish();
}

fn bench_tile_selection(c: &mut Criterion) {
    let d = FpgaDevice::u280();
    c.bench_function("recommended_tile_2d", |b| {
        b.iter(|| blocking::recommended_tile_2d(&d, &StencilSpec::poisson(), 8, 60))
    });
    c.bench_function("recommended_tile_3d", |b| {
        b.iter(|| blocking::recommended_tile_3d(&d, &StencilSpec::jacobi(), 64, 3))
    });
    c.bench_function("blocking_plan_rtm", |b| {
        b.iter(|| blocking::blocking_plan(&d, &StencilSpec::rtm(), 1))
    });
}

fn bench_wave2d_chain(c: &mut Criterion) {
    let mut g = c.benchmark_group("wave2d_fused_chain");
    let d = FpgaDevice::u280();
    let m = wave2d::standing_wave(128, 96);
    let (kick, drift) = wave2d::pipeline(wave2d::WaveParams::default());
    // chain of 3 fused iterations = 6 alternating stages: use the generic
    // enum trick is test-only, so bench kick-only and kick+drift via two
    // single-stage runs of one p = 3 pass each
    let spec = StencilSpec { stages: 1, ..wave2d::spec() };
    let wl = Workload::D2 { nx: 128, ny: 96, batch: 1 };
    let ds = synthesize(&d, &spec, 4, 3, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
    g.throughput(Throughput::Elements((m.len() * 3) as u64));
    g.bench_function("kick_x3", |b| b.iter(|| exec2d::simulate_mesh_2d(&d, &ds, &[kick], &m, 3)));
    g.bench_function("drift_x3", |b| b.iter(|| exec2d::simulate_mesh_2d(&d, &ds, &[drift], &m, 3)));
    g.finish();
}

criterion_group!(
    benches,
    bench_ablation_experiments,
    bench_format_synthesis,
    bench_tile_selection,
    bench_wave2d_chain
);
criterion_main!(benches);
