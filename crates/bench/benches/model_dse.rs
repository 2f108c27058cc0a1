//! Cost of the analytic machinery itself: single predictions, full
//! design-space sweeps, and the paper-wide accuracy suite — the "model
//! significantly narrows the design space" workflow must itself be cheap.

use criterion::{criterion_group, criterion_main, Criterion};
use sf_core::prelude::*;
use sf_fpga::design::synthesize;
use sf_model::{accuracy, predict};

fn bench_predict(c: &mut Criterion) {
    let d = FpgaDevice::u280();
    let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
    let ds = synthesize(&d, &StencilSpec::poisson(), 8, 60, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    c.bench_function("predict_extended_single", |b| {
        b.iter(|| predict(&d, &ds, &wl, 60_000, PredictionLevel::Extended))
    });

    let wlt = Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 };
    let dst = synthesize(
        &d,
        &StencilSpec::poisson(),
        8,
        60,
        ExecMode::Tiled1D { tile_m: 4096 },
        MemKind::Ddr4,
        &wlt,
    )
    .unwrap();
    c.bench_function("predict_extended_tiled_15000", |b| {
        b.iter(|| predict(&d, &dst, &wlt, 100, PredictionLevel::Extended))
    });
}

fn bench_synthesize(c: &mut Criterion) {
    let d = FpgaDevice::u280();
    let wl = Workload::D3 { nx: 300, ny: 300, nz: 300, batch: 1 };
    c.bench_function("synthesize_jacobi", |b| {
        b.iter(|| {
            synthesize(&d, &StencilSpec::jacobi(), 8, 29, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap()
        })
    });
}

fn bench_dse_sweep(c: &mut Criterion) {
    let wf = Workflow::u280_vs_v100();
    c.bench_function("dse_poisson_400", |b| {
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        b.iter(|| wf.explore(&StencilSpec::poisson(), &wl, 60_000))
    });
    // the same sweep keeping only its leader: what profile, explain,
    // compare and a DSE-selected check pay
    c.bench_function("best_design_poisson_400", |b| {
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        b.iter(|| wf.best_design(&StencilSpec::poisson(), &wl, 60_000))
    });
    // one design-rule check at the sweep's deepest unroll (max_p = 128)
    c.bench_function("check_poisson_p128", |b| {
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let design = sf_check::Design::new(
            StencilSpec::poisson(),
            4,
            128,
            ExecMode::Baseline,
            MemKind::Hbm,
            wl,
        );
        b.iter(|| sf_check::check(&wf.device, &design))
    });
    c.bench_function("dse_rtm_32", |b| {
        let wl = Workload::D3 { nx: 32, ny: 32, nz: 32, batch: 1 };
        b.iter(|| wf.explore(&StencilSpec::rtm(), &wl, 1_800))
    });
}

fn bench_accuracy_suite(c: &mut Criterion) {
    let d = FpgaDevice::u280();
    let mut g = c.benchmark_group("accuracy");
    g.sample_size(10);
    g.bench_function("paper_suite", |b| b.iter(|| accuracy::accuracy_suite(&d)));
    g.finish();
}

criterion_group!(benches, bench_predict, bench_synthesize, bench_dse_sweep, bench_accuracy_suite);
criterion_main!(benches);
