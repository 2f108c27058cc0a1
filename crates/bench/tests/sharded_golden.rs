//! Golden pin of sharded runs: what a multi-device run reports and records.
//!
//! `schedule.json` pins sharded *plans*; this file pins the recorder output
//! of sharded *runs*. For the `Workflow::profile_multi` runs behind
//! `sfstencil profile --devices K` (Poisson 48×64/8 at K = 2, batched
//! Poisson 32×96×2/6 at K = 3, Jacobi 12×10×32/6 at K = 2, RTM 10×10×64/2
//! at K = 2), two schedule-only profiles at paper scale (Poisson 400²/60000
//! at K = 2, Jacobi 300³/500 at K = 4) and one direct
//! `simulate_batch_2d_sharded_exec` call over a slow link (so exchange is
//! exposed), it serializes the `SimReport`, the metrics JSON and the Chrome
//! trace — plus a digest of the direct call's output bits — into
//! `tests/golden/sharded_runs.json`, and requires the file to match byte
//! for byte at two workers, at one worker (ignoring the metrics JSON's
//! `parallel` block, which records the worker count) and on the scalar
//! engine.
//!
//! Regenerate after an intentional change with
//! `SF_UPDATE_GOLDEN=1 cargo test -p sf-bench --test sharded_golden`.

use serde::Value;
use sf_core::Workflow;
use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::{ExecEngine, FpgaDevice, Recorder, SimReport};
use sf_kernels::{Poisson2D, StencilSpec};
use sf_mesh::Batch2D;
use sf_multi::{simulate_batch_2d_sharded_exec, LinkModel, MultiConfig};
use sf_telemetry::{chrome, metrics};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/sharded_runs.json");

/// A workflow configured the way `sfstencil --devices K` configures it:
/// the DSE also sweeps device counts 1, 2, 4, … up to K.
fn cli_workflow(devices: usize) -> Workflow {
    let mut wf = Workflow::u280_vs_v100();
    let mut counts = Vec::new();
    let mut d = 1;
    while d < devices {
        counts.push(d);
        d *= 2;
    }
    counts.push(devices);
    wf.opts.device_candidates = counts;
    wf
}

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

/// `sfstencil profile --devices K` on one workload.
fn profile_case(
    spec: StencilSpec,
    wl: Workload,
    niter: u64,
    devices: usize,
    jobs: usize,
    engine: ExecEngine,
    keep_parallel: bool,
) -> Value {
    let cfg = MultiConfig::new(devices);
    let pr = cli_workflow(devices).profile_multi(&spec, &wl, niter, jobs, engine, &cfg).unwrap();
    let mut fields = vec![("behavioral".to_string(), Value::Bool(pr.behavioral))];
    fields.extend(render_run(&pr.report, &pr.recorder, keep_parallel));
    Value::Object(fields)
}

/// FNV-1a over the bit patterns of `cells`, as hex.
fn digest(cells: &[f32]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in cells.iter().flat_map(|c| c.to_bits().to_le_bytes()) {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// A direct sharded call over a link slow enough that exchange is exposed.
fn direct_case(jobs: usize, engine: ExecEngine) -> Value {
    let dev = FpgaDevice::u280();
    let wl = Workload::D2 { nx: 32, ny: 24, batch: 2 };
    let ds = synthesize(
        &dev,
        &StencilSpec::poisson(),
        8,
        3,
        ExecMode::Batched { b: 2 },
        MemKind::Hbm,
        &wl,
    )
    .unwrap();
    let input = Batch2D::<f32>::random(32, 24, 2, 13, -1.0, 1.0);
    let cfg =
        MultiConfig { devices: 3, link: LinkModel { latency_cycles: 100_000, bytes_per_cycle: 1 } };
    let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
    let (out, report) = simulate_batch_2d_sharded_exec(
        engine,
        &dev,
        &ds,
        &[Poisson2D],
        &input,
        6,
        &cfg,
        jobs,
        &mut rec,
    )
    .unwrap();
    let mut fields = vec![("output_digest".to_string(), Value::String(digest(out.as_slice())))];
    fields.extend(render_run(&report, &rec, true));
    Value::Object(fields)
}

fn render_golden(jobs: usize, engine: ExecEngine, keep_parallel: bool) -> String {
    let poisson = StencilSpec::poisson;
    let jacobi = StencilSpec::jacobi;
    let d2 = |nx, ny, batch| Workload::D2 { nx, ny, batch };
    let d3 = |nx, ny, nz| Workload::D3 { nx, ny, nz, batch: 1 };
    let profiles = [
        ("profile_poisson_48x64_i8_k2", poisson(), d2(48, 64, 1), 8, 2),
        ("profile_poisson_32x96x2_i6_k3", poisson(), d2(32, 96, 2), 6, 3),
        ("profile_jacobi_12x10x32_i6_k2", jacobi(), d3(12, 10, 32), 6, 2),
        ("profile_rtm_10x10x64_i2_k2", StencilSpec::rtm(), d3(10, 10, 64), 2, 2),
        ("schedule_poisson_400x400_i60000_k2", poisson(), d2(400, 400, 1), 60_000, 2),
        ("schedule_jacobi_300x300x300_i500_k4", jacobi(), d3(300, 300, 300), 500, 4),
    ];
    let mut rows: Vec<(String, Value)> = profiles
        .into_iter()
        .map(|(key, spec, wl, niter, k)| {
            (key.to_string(), profile_case(spec, wl, niter, k, jobs, engine, keep_parallel))
        })
        .collect();
    rows.push(("direct_poisson_32x24x2_i6_k3_slow_link".to_string(), direct_case(jobs, engine)));
    let mut s = serde_json::to_string_pretty(&Value::Object(rows)).expect("serializable");
    s.push('\n');
    s
}

fn first_diff(got: &str, want: &str) -> Option<usize> {
    got.lines().zip(want.lines()).position(|(a, b)| a != b)
}

#[test]
fn sharded_runs_match_golden_file() {
    let got = render_golden(2, ExecEngine::Fast, true);
    if std::env::var_os("SF_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present; regenerate with SF_UPDATE_GOLDEN=1");
    assert!(
        got == want,
        "sharded runs drifted from tests/golden/sharded_runs.json (first differing line: {:?}); \
         SF_UPDATE_GOLDEN=1 accepts an intentional change",
        first_diff(&got, &want)
    );
    let scalar = render_golden(2, ExecEngine::Scalar, true);
    assert!(scalar == want, "scalar engine differs at line {:?}", first_diff(&scalar, &want));
    let (serial, two) =
        (render_golden(1, ExecEngine::Fast, false), render_golden(2, ExecEngine::Fast, false));
    assert!(serial == two, "one worker differs at line {:?}", first_diff(&serial, &two));
}
