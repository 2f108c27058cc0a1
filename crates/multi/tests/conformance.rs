//! Sharded-vs-single-device conformance: the multi-device executors must
//! be **bit-identical** to the single-device batch executors for all three
//! paper applications, under both execution engines, for every device
//! count and host-thread count — the halo depth proof made checkable.

use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::{
    simulate_batch_2d_parallel_exec, simulate_batch_3d_parallel_exec, ExecEngine, FpgaDevice,
};
use sf_kernels::{rtm, Jacobi3D, Poisson2D, RtmStage, StencilSpec};
use sf_mesh::{norms, Batch2D, Batch3D};
use sf_multi::{
    sharded_plan, simulate_batch_2d_sharded_exec, simulate_batch_3d_sharded_exec, LinkModel,
    MultiConfig,
};
use sf_telemetry::{Recorder, StallClass};

fn dev() -> FpgaDevice {
    FpgaDevice::u280()
}

const ENGINES: [ExecEngine; 2] = [ExecEngine::Scalar, ExecEngine::Fast];

#[test]
fn poisson2d_sharded_matches_single_device_bitwise() {
    let d = dev();
    let batch = Batch2D::<f32>::random(48, 32, 1, 7, -1.0, 1.0);
    let wl = Workload::D2 { nx: 48, ny: 32, batch: 1 };
    let ds = synthesize(&d, &StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    for engine in ENGINES {
        let (single, single_rep) = simulate_batch_2d_parallel_exec(
            engine,
            &d,
            &ds,
            &[Poisson2D],
            &batch,
            11,
            1,
            &mut Recorder::disabled(),
        );
        for devices in [1usize, 2, 4] {
            for jobs in [1usize, 3] {
                let cfg = MultiConfig::new(devices);
                let (out, rep) = simulate_batch_2d_sharded_exec(
                    engine,
                    &d,
                    &ds,
                    &[Poisson2D],
                    &batch,
                    11,
                    &cfg,
                    jobs,
                    &mut Recorder::disabled(),
                )
                .unwrap();
                assert!(
                    norms::bit_equal(out.as_slice(), single.as_slice()),
                    "poisson2d {engine:?} devices={devices} jobs={jobs}"
                );
                if devices == 1 {
                    assert_eq!(rep.total_cycles, single_rep.total_cycles);
                    assert_eq!(rep.runtime_s, single_rep.runtime_s);
                }
            }
        }
    }
}

#[test]
fn poisson2d_batched_sharded_matches_single_device() {
    let d = dev();
    let batch = Batch2D::<f32>::random(32, 24, 3, 19, -1.0, 1.0);
    let wl = Workload::D2 { nx: 32, ny: 24, batch: 3 };
    let ds = synthesize(
        &d,
        &StencilSpec::poisson(),
        8,
        3,
        ExecMode::Batched { b: 3 },
        MemKind::Hbm,
        &wl,
    )
    .unwrap();
    for engine in ENGINES {
        let (single, _) = simulate_batch_2d_parallel_exec(
            engine,
            &d,
            &ds,
            &[Poisson2D],
            &batch,
            7,
            2,
            &mut Recorder::disabled(),
        );
        for devices in [2usize, 4] {
            let (out, _) = simulate_batch_2d_sharded_exec(
                engine,
                &d,
                &ds,
                &[Poisson2D],
                &batch,
                7,
                &MultiConfig::new(devices),
                2,
                &mut Recorder::disabled(),
            )
            .unwrap();
            assert!(
                norms::bit_equal(out.as_slice(), single.as_slice()),
                "batched poisson2d {engine:?} devices={devices}"
            );
        }
    }
}

#[test]
fn jacobi3d_sharded_matches_single_device_bitwise() {
    let d = dev();
    let batch = Batch3D::<f32>::random(12, 10, 16, 1, 5, -1.0, 1.0);
    let wl = Workload::D3 { nx: 12, ny: 10, nz: 16, batch: 1 };
    let ds = synthesize(&d, &StencilSpec::jacobi(), 4, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    let k = Jacobi3D::smoothing();
    for engine in ENGINES {
        let (single, _) = simulate_batch_3d_parallel_exec(
            engine,
            &d,
            &ds,
            &[k],
            &batch,
            9,
            1,
            &mut Recorder::disabled(),
        );
        for devices in [1usize, 2, 4] {
            for jobs in [1usize, 3] {
                let (out, _) = simulate_batch_3d_sharded_exec(
                    engine,
                    &d,
                    &ds,
                    &[k],
                    &batch,
                    9,
                    &MultiConfig::new(devices),
                    jobs,
                    &mut Recorder::disabled(),
                )
                .unwrap();
                assert!(
                    norms::bit_equal(out.as_slice(), single.as_slice()),
                    "jacobi3d {engine:?} devices={devices} jobs={jobs}"
                );
            }
        }
    }
}

#[test]
fn rtm3d_sharded_matches_single_device_bitwise() {
    let d = dev();
    let batch = rtm::demo_batch(10, 10, 64);
    let wl = Workload::D3 { nx: 10, ny: 10, nz: 64, batch: 1 };
    let ds =
        synthesize(&d, &StencilSpec::rtm(), 1, 1, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
    let stages = RtmStage::pipeline(sf_kernels::RtmParams::default());
    for engine in ENGINES {
        let (single, _) = simulate_batch_3d_parallel_exec(
            engine,
            &d,
            &ds,
            &stages,
            &batch,
            2,
            1,
            &mut Recorder::disabled(),
        );
        // h = p·stages·⌈D/2⌉ = 1·4·4 = 16 planes; 64 planes across 4
        // devices gives 16-plane shards — the legality boundary exactly
        for devices in [1usize, 2, 4] {
            let (out, _) = simulate_batch_3d_sharded_exec(
                engine,
                &d,
                &ds,
                &stages,
                &batch,
                2,
                &MultiConfig::new(devices),
                2,
                &mut Recorder::disabled(),
            )
            .unwrap();
            assert!(
                norms::bit_equal(out.as_slice(), single.as_slice()),
                "rtm3d {engine:?} devices={devices}"
            );
        }
    }
}

#[test]
fn shard_per_row_is_still_bit_exact() {
    // The executor gathers halos from the pass-barrier global state, so it
    // stays bit-exact even for shards narrower than the halo (one row per
    // device). The *neighbour-only* link model no longer applies there —
    // which is precisely what the SFC-X check rule flags as illegal — but
    // numerics must not be the thing that breaks.
    let d = dev();
    let batch = Batch2D::<f32>::random(16, 8, 1, 3, -1.0, 1.0);
    let wl = Workload::D2 { nx: 16, ny: 8, batch: 1 };
    let ds = synthesize(&d, &StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    let (single, _) = simulate_batch_2d_parallel_exec(
        ExecEngine::Fast,
        &d,
        &ds,
        &[Poisson2D],
        &batch,
        5,
        1,
        &mut Recorder::disabled(),
    );
    let (out, _) = simulate_batch_2d_sharded_exec(
        ExecEngine::Fast,
        &d,
        &ds,
        &[Poisson2D],
        &batch,
        5,
        &MultiConfig::new(8),
        4,
        &mut Recorder::disabled(),
    )
    .unwrap();
    assert!(norms::bit_equal(out.as_slice(), single.as_slice()));
}

#[test]
fn sharded_traces_are_jobs_invariant_with_exchange_visible() {
    use sf_telemetry::{chrome::to_chrome_json, metrics::to_metrics_json};
    let d = dev();
    let batch = Batch2D::<f32>::random(32, 24, 2, 13, -1.0, 1.0);
    let wl = Workload::D2 { nx: 32, ny: 24, batch: 2 };
    let ds = synthesize(
        &d,
        &StencilSpec::poisson(),
        8,
        3,
        ExecMode::Batched { b: 2 },
        MemKind::Hbm,
        &wl,
    )
    .unwrap();
    // a deliberately slow link so exchange shows up exposed, not hidden
    let cfg =
        MultiConfig { devices: 3, link: LinkModel { latency_cycles: 100_000, bytes_per_cycle: 1 } };
    let run = |jobs: usize| {
        let mut rec = Recorder::enabled(ds.freq_hz / 1e6);
        let (out, rep) = simulate_batch_2d_sharded_exec(
            ExecEngine::Fast,
            &d,
            &ds,
            &[Poisson2D],
            &batch,
            6,
            &cfg,
            jobs,
            &mut rec,
        )
        .unwrap();
        (out, rep, rec)
    };
    let (out1, rep1, rec1) = run(1);
    let plan = sharded_plan(&d, &ds, &wl, 6, &cfg).unwrap();
    // exchange is visible in counters, stall breakdown, and the report
    assert_eq!(rec1.counter("exchange.bytes"), plan.merged.passes * plan.exchange_bytes_per_pass);
    assert!(rec1.counter("exchange.messages") > 0);
    let stalls = rec1.stall_breakdown();
    assert_eq!(stalls.cycles(StallClass::Exchange), plan.exchange_exposed_cycles);
    assert!(stalls.exchange_cycles > 0, "slow link must expose exchange");
    assert_eq!(rep1.total_cycles, plan.merged.total_cycles);
    // per-device swimlanes exist for every (device, mesh) pair
    for k in 0..3 {
        for i in 0..2 {
            let prefix = format!("dev{k}/mesh{i}/window/");
            assert!(
                rec1.track_names().iter().any(|t| t.starts_with(&prefix)),
                "missing swimlane {prefix}"
            );
        }
    }
    // byte-identical traces for every jobs value
    let (chrome1, metrics1) = (to_chrome_json(&rec1), to_metrics_json(&rec1));
    for jobs in [2usize, 5] {
        let (out, rep, rec) = run(jobs);
        assert!(norms::bit_equal(out.as_slice(), out1.as_slice()), "jobs={jobs}");
        assert_eq!(rep.total_cycles, rep1.total_cycles);
        assert_eq!(to_chrome_json(&rec), chrome1, "jobs={jobs}");
        assert_eq!(to_metrics_json(&rec), metrics1, "jobs={jobs}");
    }
}

#[test]
fn invalid_device_counts_surface_as_errors_not_panics() {
    let d = dev();
    let batch = Batch2D::<f32>::zeros(16, 8, 1);
    let wl = Workload::D2 { nx: 16, ny: 8, batch: 1 };
    let ds = synthesize(&d, &StencilSpec::poisson(), 8, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    for devices in [0usize, 9] {
        let r = simulate_batch_2d_sharded_exec(
            ExecEngine::Fast,
            &d,
            &ds,
            &[Poisson2D],
            &batch,
            4,
            &MultiConfig::new(devices),
            1,
            &mut Recorder::disabled(),
        );
        assert!(r.is_err(), "devices={devices} must be a typed error");
    }
}
