//! Property tests for the analytic model: equation identities, prediction
//! ordering, DSE optimality, and feasibility consistency with synthesis.

use proptest::prelude::*;
use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
use sf_fpga::FpgaDevice;
use sf_kernels::StencilSpec;
use sf_model::dse::{best, explore_jobs};
use sf_model::{equations, feasibility::FeasibilityReport, predict, DseOptions, PredictionLevel};

fn dev() -> FpgaDevice {
    FpgaDevice::u280()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Eq. (5) is one pass of eq. (2) divided by the mesh size when `m` is a
    /// multiple of `V` — the identity the paper derives it from (one pass of
    /// the `p`-deep pipeline advances the whole mesh by `p` iterations).
    #[test]
    fn eq5_is_eq2_per_cell(
        mv in 1u64..64,
        n in 1u64..2000,
        p in 1u64..64,
        v_pow in 0u32..4,
    ) {
        let v = 1u64 << v_pow;
        let m = mv * v;
        let clks_one_pass = equations::clks_2d(p, p, m, n, v, 2);
        let per_cell = clks_one_pass as f64 / (m * n) as f64;
        let eq5 = equations::clks_per_cell_2d(p, n, v, 2);
        prop_assert!((per_cell - eq5).abs() < 1e-9, "{per_cell} vs {eq5}");
    }

    /// Eq. (10) equals eq. (8) / eq. (9) — throughput is valid cells over
    /// block cycles, exactly as the paper derives it.
    #[test]
    fn eq10_is_eq8_over_eq9(
        m in 64u64..2048,
        n in 64u64..2048,
        l in 64u64..4096,
        p in 1u64..8,
        v_pow in 0u32..7,
    ) {
        let v = 1u64 << v_pow;
        let d = 2u64;
        prop_assume!(m > p * d && n > p * d);
        let valid = equations::block_valid_3d(m, n, l, p, d) as f64;
        let clks = equations::clks_block_3d(m, n, l, p, v, d);
        let t_direct = valid / clks;
        // eq. (10) assumes M and N exactly divisible contributions; compare
        // within the rounding slack of M/V
        let t_eq10 = equations::throughput_3d(m as f64, n as f64, l as f64, p as f64, v as f64, d as f64);
        let rel = (t_direct - t_eq10).abs() / t_eq10;
        prop_assert!(rel < 0.02, "direct {t_direct} vs eq10 {t_eq10}");
    }

    /// Extended predictions always dominate ideal ones, and both grow
    /// monotonically with iterations.
    #[test]
    fn prediction_ordering(
        nx in 32usize..400,
        ny in 32usize..400,
        p in 1usize..30,
        niter in 1u64..10_000,
    ) {
        let d = dev();
        let wl = Workload::D2 { nx, ny, batch: 1 };
        let ds = synthesize(&d, &StencilSpec::poisson(), 8, p, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
        let i1 = predict(&d, &ds, &wl, niter, PredictionLevel::Ideal).unwrap();
        let e1 = predict(&d, &ds, &wl, niter, PredictionLevel::Extended).unwrap();
        prop_assert!(e1.runtime_s >= i1.runtime_s);
        let i2 = predict(&d, &ds, &wl, niter + p as u64, PredictionLevel::Ideal).unwrap();
        prop_assert!(i2.cycles > i1.cycles);
    }

    /// The DSE winner is at least as fast (by its own metric) as the paper's
    /// hand-picked configuration whenever that configuration is feasible.
    #[test]
    fn dse_beats_or_matches_manual_choice(
        nx in 64usize..500,
        ny in 64usize..500,
        niter in 100u64..20_000,
    ) {
        let d = dev();
        let wl = Workload::D2 { nx, ny, batch: 1 };
        let opts = DseOptions::default();
        let best = sf_model::dse::best(&d, &StencilSpec::poisson(), &wl, niter, &opts)
            .unwrap()
            .unwrap();
        let manual = synthesize(&d, &StencilSpec::poisson(), 8, 60, ExecMode::Baseline, MemKind::Hbm, &wl)
            .unwrap();
        let manual_rt = sf_fpga::cycles::plan(&d, &manual, &wl, niter).runtime_s;
        prop_assert!(best.planned_runtime_s <= manual_rt * 1.0001);
    }

    /// Feasibility's p_dsp agrees with what synthesis accepts: p = p_dsp
    /// synthesizes (given memory headroom), p far beyond it does not.
    #[test]
    fn feasibility_consistent_with_synthesis(
        v_pow in 0u32..4,
        ny in 32usize..200,
    ) {
        let d = dev();
        let v = 1usize << v_pow;
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 256, ny, batch: 1 };
        let rep = FeasibilityReport::analyze(&d, &spec, v, 256, MemKind::Hbm).unwrap();
        prop_assume!(rep.p_dsp >= 1);
        // p = p_dsp either synthesizes or is rejected for *memory* (very deep
        // V=1 chains exhaust window/FIFO BRAM first) — never for DSPs
        match synthesize(&d, &spec, v, rep.p_dsp, ExecMode::Baseline, MemKind::Hbm, &wl) {
            Ok(_) => {}
            Err(sf_fpga::SynthesisError::InsufficientMemory { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected rejection at p_dsp: {e}"),
        }
        // 30% beyond the absolute DSP budget must fail
        let too_deep = (d.dsp_total / (v * spec.gdsp())) + 1;
        let bad = synthesize(&d, &spec, v, too_deep + too_deep / 3, ExecMode::Baseline, MemKind::Hbm, &wl);
        prop_assert!(bad.is_err());
    }

    /// The pipeline-fill term is in lockstep between the simulator's
    /// schedule walk (`sf_fpga::cycles::Schedule`) and the model's eq. (2)
    /// fill — including odd-order stencils, where both apply ⌈D/2⌉ per
    /// chained stage (the old floored product `p·stages·D/2` under-priced
    /// fill for odd D).
    #[test]
    fn fill_term_locksteps_simulator_and_model(
        order in 1usize..9,
        stages in 1usize..5,
        p in 1usize..12,
        ny in 16usize..128,
    ) {
        let d = dev();
        let mut spec = StencilSpec::poisson();
        spec.order = order;
        spec.stages = stages;
        let wl = Workload::D2 { nx: 256, ny, batch: 1 };
        let ds = match synthesize(&d, &spec, 8, p, ExecMode::Baseline, MemKind::Hbm, &wl) {
            Ok(ds) => ds,
            Err(_) => return Ok(()), // infeasible corner of the sweep
        };
        let fill = (p * stages * order.div_ceil(2)) as u64;
        let walk = sf_fpga::cycles::Schedule::new(&d, &ds, &wl, &sf_fpga::MultiConfig::default()).unwrap();
        prop_assert_eq!(walk.segments().map(|s| s.fill_rows).sum::<u64>(), fill);
        // the ideal prediction is eq. (2) with the effective (even) order
        // 2·stages·⌈D/2⌉ — i.e. the same fill rows per pass
        let d_eff = 2 * (stages * order.div_ceil(2)) as u64;
        let ideal = predict(&d, &ds, &wl, 500, PredictionLevel::Ideal).unwrap();
        prop_assert_eq!(ideal.cycles, equations::clks_2d(500, p as u64, 256, ny as u64, 8, d_eff));
        // on compute-bound rows the extended model must agree with the
        // simulator's plan exactly, fill term included
        let plan = sf_fpga::cycles::plan(&d, &ds, &wl, 500);
        let compute_bound_pass = (ny as u64 + fill)
            * (256u64.div_ceil(8) + d.axi_issue_gap_cycles as u64)
            + ds.pipeline_latency_cycles;
        if plan.cycles_per_pass == compute_bound_pass {
            let e = predict(&d, &ds, &wl, 500, PredictionLevel::Extended).unwrap();
            prop_assert_eq!(e.cycles, plan.total_cycles);
        }
    }

    /// Batching never slows the modeled per-mesh solve.
    #[test]
    fn batching_never_hurts(
        nx in 32usize..300,
        ny in 16usize..200,
        b in 2usize..64,
    ) {
        let d = dev();
        let solo = Workload::D2 { nx, ny, batch: 1 };
        let ds1 = synthesize(&d, &StencilSpec::poisson(), 8, 20, ExecMode::Baseline, MemKind::Hbm, &solo)
            .unwrap();
        let t1 = sf_fpga::cycles::plan(&d, &ds1, &solo, 1000).runtime_s;
        let batched = Workload::D2 { nx, ny, batch: b };
        let ds2 = synthesize(&d, &StencilSpec::poisson(), 8, 20, ExecMode::Batched { b }, MemKind::Hbm, &batched)
            .unwrap();
        let t2 = sf_fpga::cycles::plan(&d, &ds2, &batched, 1000).runtime_s / b as f64;
        prop_assert!(t2 <= t1 * 1.0001, "batched per-mesh {t2} vs solo {t1}");
    }
}

/// One draw of the DSE oracle's domain: every app, 2D and 3D extents from
/// below the stencil footprint to paper scale, batching, both memories,
/// tiling on and off, every device sweep, and malformed options and a
/// drifted spec.
struct DseDomain;

impl Strategy for DseDomain {
    type Value = (StencilSpec, Workload, u64, DseOptions);

    fn sample(&self, rng: &mut TestRng) -> Self::Value {
        let app = (0usize..3).sample(rng);
        let scale = (0usize..4).sample(rng);
        let ext_x = (0usize..1_000_000).sample(rng);
        let ext_y = (0usize..1_000_000).sample(rng);
        let ext_z = (0usize..1_000_000).sample(rng);
        let batch_draw = (0usize..16).sample(rng);
        let niter = (1u64..100_000).sample(rng);
        let flags = (0u8..4).sample(rng);
        let device_mask = (1usize..8).sample(rng);
        let v_mask = (1usize..128).sample(rng);
        let max_p = (1usize..129).sample(rng);
        let fault = (0u8..12).sample(rng);
        let spec = [StencilSpec::poisson(), StencilSpec::jacobi(), StencilSpec::rtm()][app];
        // one extent range per scale, from infeasibly small to paper scale
        let (lo, hi) = if spec.dims == 2 {
            [(1, 8), (8, 128), (128, 1024), (1024, 16_000)][scale]
        } else {
            [(1, 4), (4, 32), (32, 128), (128, 320)][scale]
        };
        let extent = |draw: usize| lo + draw % (hi - lo + 1);
        // single meshes (the only ones with tiled candidates) half the time
        let batch = batch_draw.saturating_sub(7).max(1);
        let wl = if spec.dims == 2 {
            Workload::D2 { nx: extent(ext_x), ny: extent(ext_y), batch }
        } else {
            Workload::D3 { nx: extent(ext_x), ny: extent(ext_y), nz: extent(ext_z), batch }
        };
        let pick = |mask: usize, from: &[usize]| -> Vec<usize> {
            from.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &x)| x).collect()
        };
        let mut opts = DseOptions {
            mem: if flags & 1 == 1 { MemKind::Ddr4 } else { MemKind::Hbm },
            v_candidates: pick(v_mask, &[1, 2, 4, 8, 16, 32, 64]),
            max_p,
            allow_tiling: flags & 2 == 2,
            device_candidates: pick(device_mask, &[1, 2, 4]),
            ..DseOptions::default()
        };
        let mut spec = spec;
        match fault {
            0 => opts.v_candidates.clear(),
            1 => opts.v_candidates.push(0),
            2 => opts.max_p = 0,
            3 => opts.device_candidates.insert(0, 0),
            4 => spec.ops = sf_kernels::OpCount::new(40, 40, 0),
            _ => {}
        }
        (spec, wl, niter, opts)
    }
}

/// `best` is the head of `explore`'s ranking: the same candidate, or the
/// same error.
fn head_of_explore(
    (spec, wl, niter, opts): &(StencilSpec, Workload, u64, DseOptions),
) -> Result<(), TestCaseError> {
    let d = dev();
    let head = explore_jobs(&d, spec, wl, *niter, opts, 1).map(|v| v.into_iter().next());
    prop_assert_eq!(best(&d, spec, wl, *niter, opts), head);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// [`head_of_explore`] over the [`DseDomain`].
    #[test]
    fn best_is_the_head_of_explore(case in DseDomain) {
        head_of_explore(&case)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// [`best_is_the_head_of_explore`] at 1024 cases.
    #[test]
    #[ignore = "deep sweep: cargo test --release -p sf-model -- --ignored"]
    fn best_is_the_head_of_explore_deep(case in DseDomain) {
        head_of_explore(&case)?;
    }
}
