//! Golden pin of the streaming schedule every model layer derives.
//!
//! For a fixed set of designs — Baseline and Batched in 2D and 3D, a
//! DDR4 `Tiled1D` design whose last tile is ragged, a `Tiled2D` design
//! with memory-bound rows, an order-3 stencil, RTM, and slab sharding over
//! 2 and 4 devices in 2D and in batched 3D — this test serializes the
//! cycle plan, the plan explanation (segments and rendered text), the
//! Ideal and Extended predictions and, for sharded cases, the sharded plan
//! into `tests/golden/schedule.json`, and requires the file to match byte
//! for byte. Every number here is closed-form and deterministic, so any
//! drift is a model change.
//!
//! Regenerate after an intentional model change with
//! `SF_UPDATE_GOLDEN=1 cargo test -p sf-bench --test schedule_golden`.

use serde::Value;
use sf_fpga::design::{synthesize, ExecMode, MemKind, StencilDesign, Workload};
use sf_fpga::{cycles, trace, FpgaDevice};
use sf_kernels::StencilSpec;
use sf_model::{predict, PredictionLevel};
use sf_multi::{sharded_plan, MultiConfig};

const GOLDEN_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/schedule.json");

struct Case {
    key: &'static str,
    design: StencilDesign,
    wl: Workload,
    niter: u64,
    /// Device counts to price a sharded plan for (empty: single-device only).
    devices: &'static [usize],
}

fn cases() -> Vec<Case> {
    let dev = FpgaDevice::u280();
    let mk = |spec: StencilSpec, v: usize, p: usize, mode: ExecMode, mem: MemKind, wl: Workload| {
        synthesize(&dev, &spec, v, p, mode, mem, &wl).expect("pinned design must synthesize")
    };
    let hbm = MemKind::Hbm;
    let mut order3 = StencilSpec::poisson();
    order3.order = 3;
    let p2 = |nx, ny, batch| Workload::D2 { nx, ny, batch };
    let p3 = |nx, ny, nz, batch| Workload::D3 { nx, ny, nz, batch };
    vec![
        Case {
            key: "poisson_baseline_200x100_v8_p60",
            design: mk(StencilSpec::poisson(), 8, 60, ExecMode::Baseline, hbm, p2(200, 100, 1)),
            wl: p2(200, 100, 1),
            niter: 6_000,
            devices: &[],
        },
        Case {
            key: "poisson_batched_200x100x100_v8_p60",
            design: mk(
                StencilSpec::poisson(),
                8,
                60,
                ExecMode::Batched { b: 100 },
                hbm,
                p2(200, 100, 100),
            ),
            wl: p2(200, 100, 100),
            niter: 6_000,
            devices: &[],
        },
        Case {
            key: "jacobi_baseline_100x100x100_v8_p29",
            design: mk(StencilSpec::jacobi(), 8, 29, ExecMode::Baseline, hbm, p3(100, 100, 100, 1)),
            wl: p3(100, 100, 100, 1),
            niter: 2_900,
            devices: &[],
        },
        Case {
            key: "jacobi_batched_48x40x32x6_v8_p12",
            design: mk(
                StencilSpec::jacobi(),
                8,
                12,
                ExecMode::Batched { b: 6 },
                hbm,
                p3(48, 40, 32, 6),
            ),
            wl: p3(48, 40, 32, 6),
            niter: 120,
            devices: &[],
        },
        Case {
            // 10000 = 3976 + 3976 + 2048 valid columns: the last tile is ragged
            key: "poisson_tiled1d_ddr4_10000x2000_m4096_v8_p60",
            design: mk(
                StencilSpec::poisson(),
                8,
                60,
                ExecMode::Tiled1D { tile_m: 4096 },
                MemKind::Ddr4,
                p2(10_000, 2_000, 1),
            ),
            wl: p2(10_000, 2_000, 1),
            niter: 6_000,
            devices: &[],
        },
        Case {
            // four read channels where the synthesizer sizes six: 640-cell
            // rows need 12 read beats against 10 compute cycles
            key: "jacobi_tiled2d_1200x1000x64_640x640_v64_p3_rd4",
            design: StencilDesign {
                read_channels: 4,
                ..mk(
                    StencilSpec::jacobi(),
                    64,
                    3,
                    ExecMode::Tiled2D { tile_m: 640, tile_n: 640 },
                    hbm,
                    p3(1200, 1000, 64, 1),
                )
            },
            wl: p3(1200, 1000, 64, 1),
            niter: 120,
            devices: &[],
        },
        Case {
            key: "order3_baseline_128x64_v8_p5",
            design: mk(order3, 8, 5, ExecMode::Baseline, hbm, p2(128, 64, 1)),
            wl: p2(128, 64, 1),
            niter: 61,
            devices: &[],
        },
        Case {
            key: "order3_tiled1d_700x90_m96_v8_p5",
            design: mk(order3, 8, 5, ExecMode::Tiled1D { tile_m: 96 }, hbm, p2(700, 90, 1)),
            wl: p2(700, 90, 1),
            niter: 23,
            devices: &[],
        },
        Case {
            key: "rtm_baseline_64x64x64_v1_p3",
            design: mk(StencilSpec::rtm(), 1, 3, ExecMode::Baseline, hbm, p3(64, 64, 64, 1)),
            wl: p3(64, 64, 64, 1),
            niter: 1_800,
            devices: &[],
        },
        Case {
            key: "rtm_batched_32x32x32x40_v1_p3",
            design: mk(
                StencilSpec::rtm(),
                1,
                3,
                ExecMode::Batched { b: 40 },
                hbm,
                p3(32, 32, 32, 40),
            ),
            wl: p3(32, 32, 32, 40),
            niter: 180,
            devices: &[],
        },
        Case {
            key: "poisson_sharded_256x512_v8_p16",
            design: mk(StencilSpec::poisson(), 8, 16, ExecMode::Baseline, hbm, p2(256, 512, 1)),
            wl: p2(256, 512, 1),
            niter: 320,
            devices: &[1, 2, 4],
        },
        Case {
            key: "jacobi_sharded_batched_32x32x64x2_v8_p4",
            design: mk(
                StencilSpec::jacobi(),
                8,
                4,
                ExecMode::Batched { b: 2 },
                hbm,
                p3(32, 32, 64, 2),
            ),
            wl: p3(32, 32, 64, 2),
            niter: 16,
            devices: &[1, 2, 4],
        },
    ]
}

fn render_case(c: &Case) -> Value {
    let dev = FpgaDevice::u280();
    let tr = trace::explain(&dev, &c.design, &c.wl, c.niter);
    let pr = |level| predict(&dev, &c.design, &c.wl, c.niter, level).expect("prediction");
    let mut fields = vec![
        ("plan".to_string(), serde_json::to_value(&cycles::plan(&dev, &c.design, &c.wl, c.niter))),
        ("render".to_string(), Value::String(tr.render())),
        ("trace".to_string(), serde_json::to_value(&tr)),
        ("ideal".to_string(), serde_json::to_value(&pr(PredictionLevel::Ideal))),
        ("extended".to_string(), serde_json::to_value(&pr(PredictionLevel::Extended))),
    ];
    for &k in c.devices {
        let sp = sharded_plan(&dev, &c.design, &c.wl, c.niter, &MultiConfig::new(k))
            .expect("sharded plan");
        fields.push((format!("sharded_{k}"), serde_json::to_value(&sp)));
    }
    Value::Object(fields)
}

fn render_golden() -> String {
    let rows = cases().iter().map(|c| (c.key.to_string(), render_case(c))).collect();
    let mut s = serde_json::to_string_pretty(&Value::Object(rows)).expect("serializable");
    s.push('\n');
    s
}

#[test]
fn schedule_matches_golden_file() {
    let got = render_golden();
    if std::env::var_os("SF_UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &got).unwrap();
    }
    let want = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file present; regenerate with SF_UPDATE_GOLDEN=1");
    if got != want {
        let line = got.lines().zip(want.lines()).position(|(a, b)| a != b);
        panic!(
            "schedule drifted from tests/golden/schedule.json (first differing line: {line:?}); \
             SF_UPDATE_GOLDEN=1 accepts an intentional model change"
        );
    }
}

#[test]
fn golden_covers_the_schedule_shapes() {
    let golden: Value =
        serde_json::from_str(&std::fs::read_to_string(GOLDEN_PATH).unwrap()).unwrap();
    let bound = |key: &str, b: &str| {
        golden.get(key).and_then(|c| c.get("trace")).and_then(|t| t.get("segments")).is_some_and(
            |s| {
                s.as_array()
                    .unwrap()
                    .iter()
                    .any(|s| s.get("bound").and_then(Value::as_str) == Some(b))
            },
        )
    };
    // the Tiled2D case exercises memory-bound rows, the others compute-bound
    assert!(bound("jacobi_tiled2d_1200x1000x64_640x640_v64_p3_rd4", "Memory"));
    assert!(bound("poisson_baseline_200x100_v8_p60", "Compute"));
    // the DDR4 Tiled1D case ends in a ragged tile: its last tile writes
    // fewer columns than the first
    let case = |key: &str| golden.get(key).unwrap_or_else(|| panic!("missing case {key}"));
    let segs = case("poisson_tiled1d_ddr4_10000x2000_m4096_v8_p60")
        .get("trace")
        .and_then(|t| t.get("segments"))
        .and_then(Value::as_array)
        .unwrap();
    let written = |s: &Value| s.get("write_cells_per_row").and_then(Value::as_u64).unwrap();
    assert!(segs.len() >= 3);
    assert!(written(&segs[segs.len() - 1]) < written(&segs[0]));
    for key in ["poisson_sharded_256x512_v8_p16", "jacobi_sharded_batched_32x32x64x2_v8_p4"] {
        for k in [2u64, 4] {
            let sp = case(key).get(&format!("sharded_{k}")).unwrap();
            assert_eq!(sp.get("devices").and_then(Value::as_u64), Some(k), "{key}");
        }
    }
}
