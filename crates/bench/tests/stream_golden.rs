//! Golden pin of single-device streamed runs: what a run on one device
//! reports, records and computes, for every way one device streams.
//!
//! `sharded_runs.json` pins runs spread over several devices; this file
//! pins the runs of one device:
//! - the `Workflow::profile_multi` runs behind the CI `cmp` shapes of
//!   `sfstencil profile` (Poisson 200×100/50, Jacobi 16×12×10/10, RTM
//!   12×10×8/5), each with the digest of a direct `Run` of the design the
//!   profile picked on a seeded input;
//! - a batched Poisson design streamed as one stack (`jobs: None`), and the
//!   same design fanned out per mesh (`jobs: Some(n)`);
//! - a Tiled1D Poisson run (203×30, tile 64, `p` 4, 9 iterations: a ragged
//!   last tile and a short last pass);
//! - a Tiled2D Jacobi run (45×40×8, tiles 32×16, `p` 2, 5 iterations:
//!   ragged in x and in y).
//!
//! Each case serializes its `SimReport`, metrics JSON and Chrome trace into
//! `tests/golden/stream_runs.json`, with a digest of its output bits. The
//! file must match byte for byte on the fast engine at two workers and on
//! the scalar engine, and one worker must match two (ignoring the metrics
//! JSON's `parallel` block, which records the worker count).
//!
//! Regenerate after an intentional change with
//! `SF_UPDATE_GOLDEN=1 cargo test -p sf-bench --test stream_golden`.

use serde::Value;
use sf_core::Workflow;
use sf_fpga::design::{synthesize, ExecMode, MemKind, StencilDesign, Workload};
use sf_fpga::driver::{GridKernel, StreamGrid};
use sf_fpga::fast::FastEngine;
use sf_fpga::window::{Engine, ScalarEngine};
use sf_fpga::{ExecEngine, FpgaDevice, MultiConfig, Recorder, Run, SimReport};
use sf_kernels::{rtm, Jacobi3D, Poisson2D, RtmParams, RtmStage, StencilSpec};
use sf_mesh::{Batch2D, Batch3D, Element};
use sf_telemetry::{chrome, metrics};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/stream_runs.json");

/// The report, metrics JSON and Chrome trace of one run. Both exports are
/// embedded as parsed values, after checking that re-serializing them
/// reproduces the exported bytes, so the golden pins those bytes.
fn render_run(report: &SimReport, rec: &Recorder, keep_parallel: bool) -> Vec<(String, Value)> {
    let (metrics_json, chrome_json) = (metrics::to_metrics_json(rec), chrome::to_chrome_json(rec));
    let mut metrics = serde_json::parse_value(&metrics_json).unwrap();
    let chrome = serde_json::parse_value(&chrome_json).unwrap();
    assert_eq!(serde_json::to_string_pretty(&metrics).unwrap(), metrics_json);
    assert_eq!(serde_json::to_string(&chrome).unwrap(), chrome_json);
    if !keep_parallel {
        let Value::Object(fields) = &mut metrics else { panic!("metrics must be an object") };
        fields.retain(|(k, _)| k != "parallel");
    }
    vec![
        ("report".to_string(), serde_json::to_value(report)),
        ("metrics".to_string(), metrics),
        ("chrome".to_string(), chrome),
    ]
}

/// FNV-1a over the bit patterns of every lane of `out`, as hex.
fn digest<B: StreamGrid>(out: &B) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let lanes = out.as_slice().iter().flat_map(|c| (0..B::Cell::LANES).map(|l| c.lane(l)));
    for b in lanes.flat_map(|v| v.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// One direct run of `ds` on `input`: its output digest, report, metrics
/// and trace.
fn run_case<B, K>(
    ds: &StencilDesign,
    stages: &[K],
    input: &B,
    niter: usize,
    jobs: Option<usize>,
    engine: ExecEngine,
    keep_parallel: bool,
) -> Value
where
    B: StreamGrid,
    K: GridKernel<B>,
    ScalarEngine: Engine<B, K>,
    FastEngine: Engine<B, K>,
{
    let dev = FpgaDevice::u280();
    let mut rec = Recorder::enabled(ds.freq_mhz());
    let (out, report, _) = Run { engine, jobs, ..Run::new(&dev, ds, stages, niter, &mut rec) }
        .simulate(input)
        .unwrap();
    let mut fields = vec![("output_digest".to_string(), Value::String(digest(&out)))];
    fields.extend(render_run(&report, &rec, keep_parallel));
    Value::Object(fields)
}

/// `sfstencil profile` on one workload, plus the digest of a direct run of
/// the design it picked on `input`.
#[allow(clippy::too_many_arguments)]
fn profile_case<B, K>(
    spec: &StencilSpec,
    wl: Workload,
    niter: usize,
    stages: &[K],
    input: &B,
    jobs: usize,
    engine: ExecEngine,
    keep_parallel: bool,
) -> Value
where
    B: StreamGrid,
    K: GridKernel<B>,
    ScalarEngine: Engine<B, K>,
    FastEngine: Engine<B, K>,
{
    let wf = Workflow::u280_vs_v100();
    let cfg = MultiConfig::new(1);
    let pr = wf.profile_multi(spec, &wl, niter as u64, jobs, engine, &cfg).unwrap();
    assert!(pr.behavioral, "{spec:?} must stream");
    let dev = FpgaDevice::u280();
    let mut off = Recorder::disabled();
    let (out, _, _) = Run { engine, ..Run::new(&dev, &pr.design, stages, niter, &mut off) }
        .simulate(input)
        .unwrap();
    let mut fields = vec![("output_digest".to_string(), Value::String(digest(&out)))];
    fields.extend(render_run(&pr.report, &pr.recorder, keep_parallel));
    Value::Object(fields)
}

fn synth(spec: &StencilSpec, v: usize, p: usize, mode: ExecMode, wl: Workload) -> StencilDesign {
    synthesize(&FpgaDevice::u280(), spec, v, p, mode, MemKind::Hbm, &wl).unwrap()
}

fn render_golden(jobs: usize, engine: ExecEngine, keep_parallel: bool) -> String {
    let (poisson, jacobi) = (StencilSpec::poisson(), StencilSpec::jacobi());
    let k3 = [Jacobi3D::smoothing()];
    let rtm_stages = RtmStage::pipeline(RtmParams::default());
    let mut rows = Vec::new();
    let mut push = |key: &str, v: Value| rows.push((key.to_string(), v));

    let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
    let input = Batch2D::<f32>::random(200, 100, 1, 31, -1.0, 1.0);
    let case = profile_case(&poisson, wl, 50, &[Poisson2D], &input, jobs, engine, keep_parallel);
    push("profile_poisson_200x100_i50", case);
    let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
    let input = Batch3D::<f32>::random(16, 12, 10, 1, 32, -1.0, 1.0);
    let case = profile_case(&jacobi, wl, 10, &k3, &input, jobs, engine, keep_parallel);
    push("profile_jacobi_16x12x10_i10", case);
    let wl = Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 };
    let input = rtm::demo_batch(12, 10, 8);
    let case =
        profile_case(&StencilSpec::rtm(), wl, 5, &rtm_stages, &input, jobs, engine, keep_parallel);
    push("profile_rtm_12x10x8_i5", case);

    let wl = Workload::D2 { nx: 40, ny: 24, batch: 3 };
    let ds = synth(&poisson, 8, 4, ExecMode::Batched { b: 3 }, wl);
    let input = Batch2D::<f32>::random(40, 24, 3, 33, -1.0, 1.0);
    let stack = run_case(&ds, &[Poisson2D], &input, 9, None, engine, keep_parallel);
    push("batched_poisson_40x24x3_i9_stacked", stack);
    let fanned = run_case(&ds, &[Poisson2D], &input, 9, Some(jobs), engine, keep_parallel);
    push("batched_poisson_40x24x3_i9_per_mesh", fanned);

    let wl = Workload::D2 { nx: 203, ny: 30, batch: 1 };
    let ds = synth(&poisson, 8, 4, ExecMode::Tiled1D { tile_m: 64 }, wl);
    let input = Batch2D::<f32>::random(203, 30, 1, 34, -1.0, 1.0);
    let tiled = run_case(&ds, &[Poisson2D], &input, 9, None, engine, keep_parallel);
    push("tiled1d_poisson_203x30_m64_p4_i9", tiled);
    let wl = Workload::D3 { nx: 45, ny: 40, nz: 8, batch: 1 };
    let ds = synth(&jacobi, 8, 2, ExecMode::Tiled2D { tile_m: 32, tile_n: 16 }, wl);
    let input = Batch3D::<f32>::random(45, 40, 8, 1, 35, -1.0, 1.0);
    let tiled = run_case(&ds, &k3, &input, 5, None, engine, keep_parallel);
    push("tiled2d_jacobi_45x40x8_m32x16_p2_i5", tiled);

    let mut s = serde_json::to_string_pretty(&Value::Object(rows)).expect("serializable");
    s.push('\n');
    s
}

fn first_diff(got: &str, want: &str) -> Option<usize> {
    got.lines().zip(want.lines()).position(|(a, b)| a != b)
}

#[test]
fn single_device_streams_match_golden_file() {
    let got = render_golden(2, ExecEngine::Fast, true);
    if std::env::var_os("SF_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present; regenerate with SF_UPDATE_GOLDEN=1");
    assert!(
        got == want,
        "streamed runs drifted from tests/golden/stream_runs.json (first differing line: {:?}); \
         SF_UPDATE_GOLDEN=1 accepts an intentional change",
        first_diff(&got, &want)
    );
    let scalar = render_golden(2, ExecEngine::Scalar, true);
    assert!(scalar == want, "scalar engine differs at line {:?}", first_diff(&scalar, &want));
    let (serial, two) =
        (render_golden(1, ExecEngine::Fast, false), render_golden(2, ExecEngine::Fast, false));
    assert!(serial == two, "one worker differs at line {:?}", first_diff(&serial, &two));
}
