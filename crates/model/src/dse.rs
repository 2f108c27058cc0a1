//! Design-space exploration.
//!
//! The paper's workflow uses the model to "significantly narrow the design
//! space, enabling us to reason about and quickly obtain an optimum
//! configuration" (§V-A). [`explore`] sweeps `(V, p, mode)` candidates,
//! synthesizes each on the simulated device (which applies the real resource,
//! bandwidth and clock constraints), predicts runtime with the extended
//! model, and returns candidates ranked fastest-first. [`best`] walks the
//! same sweep but keeps only the leader, so picking a design never holds
//! more than one [`Candidate`].
//!
//! Before any candidate is synthesized or costed it is pre-filtered through
//! the static checker (`sf_check::check`): configurations with
//! error-severity diagnostics — resource over-subscription, loop-carried
//! RAW hazards, illegal tiles — never reach the cost model. The checker's
//! error rules are a superset of the synthesizer's rejections, so the
//! filter is sound; it is also stricter (the RAW-hazard rule rejects deep
//! unrolls the synthesizer would accept), which keeps statically-unsafe
//! designs out of the ranking entirely.

use crate::blocking;
use crate::error::ModelError;
use crate::predict::{predict, Prediction, PredictionLevel};
use core::cmp::Ordering;
use serde::{Deserialize, Serialize};
use sf_fpga::design::{synthesize, ExecMode, StencilDesign, Workload};
use sf_fpga::{FpgaDevice, MemKind};
use sf_kernels::StencilSpec;

/// Exploration options.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DseOptions {
    /// External memory to bind.
    pub mem: MemKind,
    /// Vectorization factors to try (filtered by synthesis feasibility).
    pub v_candidates: Vec<usize>,
    /// Upper bound on the unroll factor sweep.
    pub max_p: usize,
    /// Also consider spatially-blocked designs (with the recommended tile).
    pub allow_tiling: bool,
    /// Device counts to try for whole-mesh (baseline/batched) designs.
    /// `vec![1]` — the default — is the classic single-device sweep; extra
    /// entries add sharded candidates costed with the halo-exchange plan.
    /// Tiled candidates are always single-device: tiling and slab sharding
    /// both decompose the mesh and do not compose.
    pub device_candidates: Vec<usize>,
    /// Inter-device link model used to cost sharded candidates.
    pub link: sf_fpga::LinkModel,
}

impl Default for DseOptions {
    fn default() -> Self {
        DseOptions {
            mem: MemKind::Hbm,
            v_candidates: vec![1, 2, 4, 8, 16, 32, 64],
            max_p: 128,
            allow_tiling: true,
            device_candidates: vec![1],
            link: sf_fpga::LinkModel::default(),
        }
    }
}

/// One feasible design point with its prediction.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// The synthesized design.
    pub design: StencilDesign,
    /// Accelerator cards the point was costed for (`1` = single-device).
    pub devices: usize,
    /// Extended-model prediction for the given workload/iterations; sharded
    /// points use [`crate::predict::predict_sharded`].
    pub prediction: Prediction,
    /// Full cycle-plan runtime (the quantity the ranking uses — it also
    /// accounts for memory-bound rows, which the closed-form model
    /// deliberately omits; see `predict`). For `devices > 1` this is the
    /// sharded plan's merged runtime: slowest device per pass, exposed
    /// exchange included.
    pub planned_runtime_s: f64,
}

/// Enumerate feasible designs for `niter` iterations of `wl`, ranked by
/// predicted runtime (fastest first). Infeasible configurations are silently
/// skipped — that *is* the model's job. Malformed options (an empty or
/// zero-valued `v_candidates` sweep, `max_p == 0`) are
/// [`ModelError::InvalidParameter`]s.
/// ```
/// use sf_fpga::design::Workload;
/// use sf_fpga::FpgaDevice;
/// use sf_kernels::StencilSpec;
/// use sf_model::dse::{explore, DseOptions};
///
/// let dev = FpgaDevice::u280();
/// let wl = Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 };
/// let cands = explore(&dev, &StencilSpec::rtm(), &wl, 1800, &DseOptions::default()).unwrap();
/// // the paper's configuration wins: V=1, p=3
/// assert_eq!((cands[0].design.v, cands[0].design.p), (1, 3));
/// ```
pub fn explore(
    dev: &FpgaDevice,
    spec: &StencilSpec,
    wl: &Workload,
    niter: u64,
    opts: &DseOptions,
) -> Result<Vec<Candidate>, ModelError> {
    explore_jobs(dev, spec, wl, niter, opts, sf_par::resolve_jobs(None))
}

/// [`explore`] with an explicit worker count.
///
/// Candidate `(V, p, mode)` points are enumerated in the deterministic
/// sweep order, evaluated (static check → synthesis → prediction) on up to
/// `jobs` threads via [`sf_par::par_map`], then ranked by planned runtime
/// with ties kept in sweep order — so the returned vector is identical for
/// every `jobs` value. The first evaluation error in sweep order is
/// returned. Every candidate is distinct, so each is checked
/// (`sf_check::check`) and predicted ([`predict`]) directly; nothing is
/// memoized between candidates, sweeps or callers.
pub fn explore_jobs(
    dev: &FpgaDevice,
    spec: &StencilSpec,
    wl: &Workload,
    niter: u64,
    opts: &DseOptions,
    jobs: usize,
) -> Result<Vec<Candidate>, ModelError> {
    let points = sweep(dev, spec, wl, opts)?;
    let evaluated = sf_par::par_map(jobs, points, |_, pt| evaluate(dev, spec, wl, niter, opts, pt));
    let mut out = Vec::new();
    for (pos, r) in evaluated.into_iter().enumerate() {
        if let Some(c) = r? {
            out.push((pos, c));
        }
    }
    out.sort_unstable_by(|(i, a), (j, b)| {
        rank((a.planned_runtime_s, *i), (b.planned_runtime_s, *j))
    });
    Ok(out.into_iter().map(|(_, c)| c).collect())
}

/// The single best candidate, if any design is feasible: the head of
/// [`explore`]'s ranking, errors included, without materializing it.
pub fn best(
    dev: &FpgaDevice,
    spec: &StencilSpec,
    wl: &Workload,
    niter: u64,
    opts: &DseOptions,
) -> Result<Option<Candidate>, ModelError> {
    best_jobs(dev, spec, wl, niter, opts, sf_par::resolve_jobs(None))
}

/// [`best`] with an explicit worker count.
///
/// An ordered reduction over [`explore_jobs`]'s sweep: every point goes
/// through the same evaluation, but only its `(planned runtime, sweep
/// position)` is kept; the first error in sweep order is returned, as
/// [`explore_jobs`] returns it, and the winner is evaluated once more to
/// rebuild its [`Candidate`]. Never more than one `Candidate` per worker
/// is alive, and the result is identical for every `jobs` value.
pub fn best_jobs(
    dev: &FpgaDevice,
    spec: &StencilSpec,
    wl: &Workload,
    niter: u64,
    opts: &DseOptions,
    jobs: usize,
) -> Result<Option<Candidate>, ModelError> {
    let points = sweep(dev, spec, wl, opts)?;
    let keys = sf_par::par_map(jobs, points.iter().collect(), |pos, &pt| {
        Ok(evaluate(dev, spec, wl, niter, opts, pt)?.map(|c| (c.planned_runtime_s, pos)))
    });
    let mut leader: Option<(f64, usize)> = None;
    for key in keys {
        if let Some(k) = key? {
            if leader.is_none_or(|l| rank(k, l).is_lt()) {
                leader = Some(k);
            }
        }
    }
    match leader {
        Some((_, pos)) => evaluate(dev, spec, wl, niter, opts, points[pos]),
        None => Ok(None),
    }
}

/// The one ranking order of the sweep: planned runtime, then sweep
/// position. `total_cmp` rather than `partial_cmp`: [`evaluate`] already
/// rejected non-finite runtimes, so the order is total either way, but the
/// ranking must never be a panic site.
fn rank((rt_a, pos_a): (f64, usize), (rt_b, pos_b): (f64, usize)) -> Ordering {
    rt_a.total_cmp(&rt_b).then(pos_a.cmp(&pos_b))
}

/// One sweep point: `(V, p, mode, devices)`.
type Point = (usize, usize, ExecMode, usize);

/// Validate the options and the spec, then enumerate the sweep serially
/// (cheap arithmetic only), so the point list — and therefore every result
/// order — is independent of the worker count.
fn sweep(
    dev: &FpgaDevice,
    spec: &StencilSpec,
    wl: &Workload,
    opts: &DseOptions,
) -> Result<Vec<Point>, ModelError> {
    if opts.v_candidates.is_empty() {
        return Err(ModelError::invalid("v_candidates", "sweep must name at least one V"));
    }
    if opts.v_candidates.contains(&0) {
        return Err(ModelError::invalid("v_candidates", "vectorization factors must be >= 1"));
    }
    if opts.max_p == 0 {
        return Err(ModelError::invalid("max_p", "unroll sweep bound must be >= 1"));
    }
    if opts.device_candidates.is_empty() {
        return Err(ModelError::invalid(
            "device_candidates",
            "sweep must name at least one device count",
        ));
    }
    if opts.device_candidates.contains(&0) {
        return Err(ModelError::invalid("device_candidates", "device counts must be >= 1"));
    }
    // A drifted spec poisons every eq. (5)/(6) decision below (the p_dsp
    // sweep bound, window sizing, the ranking itself) — reject it up front.
    crate::verify::verify_spec(spec)?;
    let batch = wl.batch();
    let mut points = Vec::new();
    for &v in &opts.v_candidates {
        let p_cap = crate::equations::p_dsp(dev.dsp_total, dev.dsp_util_target, v, spec.gdsp())
            .min(opts.max_p);
        for p in 1..=p_cap {
            // whole-mesh (baseline/batched) candidates, one per device count
            let mode = if batch > 1 { ExecMode::Batched { b: batch } } else { ExecMode::Baseline };
            for &devices in &opts.device_candidates {
                points.push((v, p, mode, devices));
            }
            // tiled candidate (single-mesh workloads only); the checker
            // rejects a tile within twice the halo (SFC-T01) but only
            // warns about one wider than the mesh (SFC-T02), so that
            // policy is the DSE's own
            if opts.allow_tiling && batch == 1 {
                let mode = match *wl {
                    Workload::D2 { nx, .. } => {
                        let m = blocking::recommended_tile_2d(dev, spec, v, p);
                        (m <= nx).then_some(ExecMode::Tiled1D { tile_m: m })
                    }
                    Workload::D3 { nx, ny, .. } => {
                        let (m, n) = blocking::recommended_tile_3d(dev, spec, v, p);
                        (m <= nx && n <= ny).then_some(ExecMode::Tiled2D { tile_m: m, tile_n: n })
                    }
                };
                if let Some(mode) = mode {
                    points.push((v, p, mode, 1));
                }
            }
        }
    }
    Ok(points)
}

/// Evaluate one point: static check → synthesis → prediction.
/// `Ok(None)` is an infeasible point, silently skipped.
///
/// The check is the DSE pruning filter: a point with an error-severity
/// diagnostic never reaches synthesis. Warnings (tile alignment, FIFO
/// slack) do not prune — they trade throughput, not legality. The
/// device count flows into the SFC-X shard-legality rule, so shardings
/// whose slabs would be narrower than the halo depth (or that
/// out-number the mesh's outermost units) never reach the cost model.
fn evaluate(
    dev: &FpgaDevice,
    spec: &StencilSpec,
    wl: &Workload,
    niter: u64,
    opts: &DseOptions,
    (v, p, mode, devices): Point,
) -> Result<Option<Candidate>, ModelError> {
    let mem = opts.mem;
    let checked = sf_check::Design::new(*spec, v, p, mode, mem, *wl).with_devices(devices);
    if sf_check::check(dev, &checked).has_errors() {
        return Ok(None);
    }
    let Ok(design) = synthesize(dev, spec, v, p, mode, mem, wl) else { return Ok(None) };
    let (prediction, planned_runtime_s) = if devices > 1 {
        // The sharded plan *is* the extended model for multi-device points —
        // it prices memory-bound rows, halo re-reads and exposed exchange —
        // so prediction and plan coincide by construction.
        let cfg = sf_fpga::MultiConfig { devices, link: opts.link };
        let pr = crate::predict::predict_sharded(dev, &design, wl, niter, &cfg)?;
        (pr, pr.runtime_s)
    } else {
        let pr = predict(dev, &design, wl, niter, PredictionLevel::Extended)?;
        (pr, sf_fpga::cycles::plan(dev, &design, wl, niter).runtime_s)
    };
    if !planned_runtime_s.is_finite() {
        return Err(ModelError::NonFiniteRuntime {
            detail: format!("V={} p={} mode {:?} on {:?}", design.v, design.p, design.mode, wl),
        });
    }
    Ok(Some(Candidate { design, devices, prediction, planned_runtime_s }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_kernels::AppId;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn poisson_dse_picks_deep_unroll() {
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let opts = DseOptions { allow_tiling: false, ..DseOptions::default() };
        let best = best(&d, &StencilSpec::poisson(), &wl, 60_000, &opts).unwrap().unwrap();
        // the paper lands at V=8, p=60 (pV = 480) under its two-channel
        // budget; with HBM channels unconstrained the DSE may trade V against
        // p, but must deliver at least the paper's aggregate parallelism and
        // beat the paper's own configuration.
        assert!(
            best.design.p * best.design.v >= 480,
            "DSE picked V={} p={}",
            best.design.v,
            best.design.p
        );
        assert_eq!(best.design.spec.app, AppId::Poisson2D);
        let paper =
            synthesize(&d, &StencilSpec::poisson(), 8, 60, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let paper_plan = sf_fpga::cycles::plan(&d, &paper, &wl, 60_000);
        assert!(best.planned_runtime_s <= paper_plan.runtime_s * 1.001);
    }

    #[test]
    fn rtm_dse_respects_dsp_wall() {
        let d = dev();
        let wl = Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 };
        let cands = explore(&d, &StencilSpec::rtm(), &wl, 1800, &DseOptions::default()).unwrap();
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.design.p <= 3, "no RTM design can exceed p=3 (got {})", c.design.p);
            assert!(c.design.resources.fits(&d));
        }
        let best = &cands[0];
        assert_eq!(best.design.p, 3, "DSE must find the paper's p=3");
    }

    #[test]
    fn large_mesh_forces_tiled_winner() {
        // 2500² planes (50 MB of double-plane buffering) cannot fit the
        // 41 MB of on-chip memory at any V — eq. (7)'s p_mem < 1 case.
        let d = dev();
        let wl = Workload::D3 { nx: 2500, ny: 2500, nz: 100, batch: 1 };
        let cands = explore(&d, &StencilSpec::jacobi(), &wl, 120, &DseOptions::default()).unwrap();
        assert!(!cands.is_empty(), "tiling must rescue the oversized mesh");
        assert!(cands.iter().all(|c| c.design.mode.is_tiled()));
    }

    #[test]
    fn ranking_is_fastest_first() {
        let d = dev();
        let wl = Workload::D2 { nx: 300, ny: 300, batch: 1 };
        let cands =
            explore(&d, &StencilSpec::poisson(), &wl, 1000, &DseOptions::default()).unwrap();
        assert!(cands.len() > 10, "sweep should produce many candidates");
        for w in cands.windows(2) {
            assert!(w[0].planned_runtime_s <= w[1].planned_runtime_s);
        }
    }

    #[test]
    fn batched_workload_explores_batched_designs() {
        let d = dev();
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 100 };
        let best = best(&d, &StencilSpec::poisson(), &wl, 60_000, &DseOptions::default())
            .unwrap()
            .unwrap();
        assert!(matches!(best.design.mode, ExecMode::Batched { b: 100 }));
    }

    #[test]
    fn every_candidate_is_check_clean() {
        // the pruning filter must guarantee: nothing the DSE ranks carries
        // an error-severity diagnostic
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let cands =
            explore(&d, &StencilSpec::poisson(), &wl, 1000, &DseOptions::default()).unwrap();
        assert!(!cands.is_empty());
        for c in &cands {
            let rep = sf_check::check(&d, &sf_check::Design::from_synthesized(&c.design, &wl));
            assert!(!rep.has_errors(), "ranked candidate has errors: {}", rep.render());
        }
    }

    #[test]
    fn raw_hazard_prunes_deep_unrolls_on_short_meshes() {
        // a 50-row mesh: unrolls p ≥ 50 synthesize fine (resources allow up
        // to p=68 at V=8) but carry a loop-carried RAW hazard — the static
        // filter must keep them out of the ranking
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 50, batch: 1 };
        let spec = StencilSpec::poisson();
        assert!(
            synthesize(&d, &spec, 8, 50, ExecMode::Baseline, MemKind::Hbm, &wl).is_ok(),
            "precondition: the synthesizer alone would accept p=50"
        );
        let opts = DseOptions { allow_tiling: false, ..DseOptions::default() };
        let cands = explore(&d, &spec, &wl, 1000, &opts).unwrap();
        assert!(!cands.is_empty());
        for c in &cands {
            assert!(c.design.p < 50, "RAW-hazardous p={} survived pruning", c.design.p);
        }
    }

    #[test]
    fn device_sweep_ranks_sharded_candidates() {
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let opts = DseOptions {
            allow_tiling: false,
            device_candidates: vec![1, 2, 4],
            ..DseOptions::default()
        };
        let cands = explore(&d, &StencilSpec::poisson(), &wl, 60_000, &opts).unwrap();
        for devices in [1usize, 2, 4] {
            assert!(
                cands.iter().any(|c| c.devices == devices),
                "no candidate at devices={devices}"
            );
        }
        // every sharded candidate passed the SFC-X legality rule: its shard
        // width covers the halo depth
        for c in cands.iter().filter(|c| c.devices > 1) {
            let h = c.design.p * c.design.spec.stages * c.design.spec.order.div_ceil(2);
            assert!(
                400 / c.devices >= h,
                "devices={} p={} slipped past SFC-X",
                c.devices,
                c.design.p
            );
        }
        // ranking stays fastest-first across mixed device counts
        for w in cands.windows(2) {
            assert!(w[0].planned_runtime_s <= w[1].planned_runtime_s);
        }
        // with a fast default link and a large mesh, sharding across more
        // cards must win the sweep outright
        assert!(cands[0].devices > 1, "multi-device should win, got devices=1");
    }

    #[test]
    fn narrow_mesh_prunes_illegal_shardings() {
        // 100 rows over 2 devices = 50-row shards: the SFC-X rule must keep
        // every p > 50 sharded point (halo deeper than the shard) out of
        // the ranking while the single-device sweep still explores them.
        let d = dev();
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let opts = DseOptions {
            allow_tiling: false,
            device_candidates: vec![1, 2],
            ..DseOptions::default()
        };
        let cands = explore(&d, &StencilSpec::poisson(), &wl, 6000, &opts).unwrap();
        assert!(cands.iter().any(|c| c.devices == 2));
        assert!(cands.iter().any(|c| c.devices == 1 && c.design.p > 50));
        for c in cands.iter().filter(|c| c.devices == 2) {
            assert!(c.design.p <= 50, "p={} halo exceeds the 50-row shard", c.design.p);
        }
    }

    #[test]
    fn glacial_link_ranks_sharding_behind_single_device() {
        // communication-bound regime: a link so slow that exposed exchange
        // dwarfs the compute saved by sharding
        let d = dev();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let opts = DseOptions {
            allow_tiling: false,
            device_candidates: vec![1, 4],
            link: sf_multi::LinkModel { latency_cycles: 50_000_000, bytes_per_cycle: 1 },
            ..DseOptions::default()
        };
        let cands = explore(&d, &StencilSpec::poisson(), &wl, 60_000, &opts).unwrap();
        assert!(cands.iter().any(|c| c.devices == 4), "sharded points must still be ranked");
        assert_eq!(cands[0].devices, 1, "a glacial link must not win the sweep");
    }

    #[test]
    fn malformed_device_candidates_are_typed_errors() {
        let d = dev();
        let wl = Workload::D2 { nx: 100, ny: 100, batch: 1 };
        let spec = StencilSpec::poisson();
        let empty = DseOptions { device_candidates: vec![], ..DseOptions::default() };
        assert!(matches!(
            explore(&d, &spec, &wl, 100, &empty).unwrap_err(),
            crate::ModelError::InvalidParameter { .. }
        ));
        let zero = DseOptions { device_candidates: vec![0, 2], ..DseOptions::default() };
        assert!(explore(&d, &spec, &wl, 100, &zero).is_err());
    }

    #[test]
    fn device_sweep_is_jobs_invariant() {
        let d = dev();
        let wl = Workload::D2 { nx: 300, ny: 300, batch: 1 };
        let spec = StencilSpec::poisson();
        let opts = DseOptions {
            allow_tiling: false,
            device_candidates: vec![1, 2, 4],
            ..DseOptions::default()
        };
        let serial = explore_jobs(&d, &spec, &wl, 1000, &opts, 1).unwrap();
        assert!(serial.iter().any(|c| c.devices > 1));
        for jobs in [2, 8] {
            let par = explore_jobs(&d, &spec, &wl, 1000, &opts, jobs).unwrap();
            assert_eq!(par, serial, "jobs={jobs} must reproduce the serial ranking exactly");
        }
    }

    #[test]
    fn parallel_sweep_is_jobs_invariant() {
        let d = dev();
        let wl = Workload::D2 { nx: 300, ny: 300, batch: 1 };
        let spec = StencilSpec::poisson();
        let opts = DseOptions::default();
        let serial = explore_jobs(&d, &spec, &wl, 1000, &opts, 1).unwrap();
        assert!(!serial.is_empty());
        for jobs in [2, 4, 8] {
            let par = explore_jobs(&d, &spec, &wl, 1000, &opts, jobs).unwrap();
            assert_eq!(par, serial, "jobs={jobs} must reproduce the serial ranking exactly");
        }
    }

    #[test]
    fn drifted_spec_is_rejected_before_the_sweep() {
        let d = dev();
        let wl = Workload::D2 { nx: 100, ny: 100, batch: 1 };
        let mut spec = StencilSpec::poisson();
        spec.ops = sf_kernels::OpCount::new(40, 40, 0); // kernel counts 4+2
        assert!(matches!(
            explore(&d, &spec, &wl, 100, &DseOptions::default()).unwrap_err(),
            crate::ModelError::SpecDrift { .. }
        ));
    }

    #[test]
    fn malformed_options_are_typed_errors() {
        let d = dev();
        let wl = Workload::D2 { nx: 100, ny: 100, batch: 1 };
        let spec = StencilSpec::poisson();
        let empty = DseOptions { v_candidates: vec![], ..DseOptions::default() };
        assert!(matches!(
            explore(&d, &spec, &wl, 100, &empty).unwrap_err(),
            crate::ModelError::InvalidParameter { .. }
        ));
        let zero_v = DseOptions { v_candidates: vec![0, 8], ..DseOptions::default() };
        assert!(explore(&d, &spec, &wl, 100, &zero_v).is_err());
        let zero_p = DseOptions { max_p: 0, ..DseOptions::default() };
        assert!(explore(&d, &spec, &wl, 100, &zero_p).is_err());
        // and best() propagates rather than panicking
        assert!(best(&d, &spec, &wl, 100, &zero_p).is_err());
    }
}
