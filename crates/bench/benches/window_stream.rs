//! Window-buffer streaming throughput: the behavioral core of the FPGA
//! simulator — how fast cells move through window-buffer stage chains.
//! Each chain run is one pipeline pass (`p` = chain depth, one pass of `p`
//! iterations) on the scalar engine; the stage group streams one mesh
//! through a single stage of each engine, pushing borrowed rows and
//! emitting into one reused output row.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sf_fpga::design::{synthesize, ExecMode, MemKind, StencilDesign, Workload};
use sf_fpga::fast::FastStageProcessor2D;
use sf_fpga::window::{Stage, StageProcessor2D};
use sf_fpga::{ExecEngine, FpgaDevice, Recorder, Run};
use sf_kernels::{Jacobi3D, Poisson2D, RtmParams, RtmStage, StencilSpec};
use sf_mesh::{Batch2D, Batch3D};

fn design(spec: &StencilSpec, v: usize, p: usize, wl: &Workload) -> StencilDesign {
    synthesize(&FpgaDevice::u280(), spec, v, p, ExecMode::Baseline, MemKind::Hbm, wl).unwrap()
}

/// Push every row of `cells` through `stage`, emitting each ready row
/// (and the drained tail) into `out`.
fn stream_stage<S: Stage<f32>>(mut stage: S, cells: &[f32], out: &mut [f32]) {
    for row in cells.chunks(out.len()) {
        if let Some(y) = stage.push(row) {
            stage.emit(y, out);
        }
    }
    for y in stage.drain() {
        stage.emit(y, out);
    }
}

fn bench_stage_2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_stage_2d");
    let m = Batch2D::<f32>::random(256, 128, 1, 1, -1.0, 1.0);
    let mut out = vec![0.0f32; 256];
    g.throughput(Throughput::Elements(m.len() as u64));
    g.bench_function("scalar_poisson_256x128", |b| {
        b.iter(|| {
            stream_stage(StageProcessor2D::new(Poisson2D, 256, 128, 128), m.as_slice(), &mut out)
        })
    });
    g.bench_function("fast_poisson_256x128", |b| {
        b.iter(|| {
            let stage = FastStageProcessor2D::new(Poisson2D, 256, 128, 128);
            stream_stage(stage, m.as_slice(), &mut out)
        })
    });
    g.finish();
}

fn bench_chain_2d(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_chain_2d");
    let dev = FpgaDevice::u280();
    let m = Batch2D::<f32>::random(256, 128, 1, 1, -1.0, 1.0);
    let wl = Workload::D2 { nx: 256, ny: 128, batch: 1 };
    for depth in [1usize, 4, 16] {
        let ds = design(&StencilSpec::poisson(), 8, depth, &wl);
        g.throughput(Throughput::Elements((m.len() * depth) as u64));
        g.bench_with_input(BenchmarkId::new("poisson_depth", depth), &depth, |b, &d| {
            b.iter(|| {
                let mut rec = Recorder::disabled();
                let run = Run::new(&dev, &ds, &[Poisson2D], d, &mut rec);
                Run { engine: ExecEngine::Scalar, ..run }.simulate(&m).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_chain_3d(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_chain_3d");
    let dev = FpgaDevice::u280();
    let m = Batch3D::<f32>::random(48, 48, 48, 1, 2, -1.0, 1.0);
    let wl = Workload::D3 { nx: 48, ny: 48, nz: 48, batch: 1 };
    let k = [Jacobi3D::smoothing()];
    for depth in [1usize, 3, 9] {
        let ds = design(&StencilSpec::jacobi(), 8, depth, &wl);
        g.throughput(Throughput::Elements((m.len() * depth) as u64));
        g.bench_with_input(BenchmarkId::new("jacobi_depth", depth), &depth, |b, &d| {
            b.iter(|| {
                let mut rec = Recorder::disabled();
                let run = Run::new(&dev, &ds, &k, d, &mut rec);
                Run { engine: ExecEngine::Scalar, ..run }.simulate(&m).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_rtm_stages(c: &mut Criterion) {
    let mut g = c.benchmark_group("window_chain_rtm");
    let dev = FpgaDevice::u280();
    let packed = sf_kernels::rtm::demo_batch(20, 20, 20);
    let wl = Workload::D3 { nx: 20, ny: 20, nz: 20, batch: 1 };
    let ds = design(&StencilSpec::rtm(), 1, 1, &wl);
    let stages = RtmStage::pipeline(RtmParams::default());
    g.throughput(Throughput::Elements(packed.len() as u64 * 4));
    g.bench_function("fused_rk4_step_20cubed", |b| {
        b.iter(|| {
            let mut rec = Recorder::disabled();
            let run = Run::new(&dev, &ds, &stages, 1, &mut rec);
            Run { engine: ExecEngine::Scalar, ..run }.simulate(&packed).unwrap()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_stage_2d, bench_chain_2d, bench_chain_3d, bench_rtm_stages);
criterion_main!(benches);
