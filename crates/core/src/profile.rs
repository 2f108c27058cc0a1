//! Step 6 — profiling: run the winning design with full telemetry.
//!
//! [`Workflow::profile`] selects the best design (like
//! [`Workflow::compare`]), runs it with an enabled `sf-telemetry`
//! [`Recorder`], and packages everything an engineer needs to see where
//! the cycles went: the schedule trace (per-pass/per-tile spans, AXI
//! channel utilisation, FIFO backpressure), the stall-attribution
//! breakdown, and the continuous model-accuracy check — predicted vs
//! simulated cycles, the paper's ±15 % invariant, emitted on every run.
//!
//! Validation-scale workloads additionally stream real numerics through
//! the behavioral window-buffer pipeline (so the trace carries genuine
//! buffer fill/drain events); paper-scale workloads trace the schedule
//! only — the cycle accounting is identical either way.

use crate::error::SfError;
use crate::resilience::Degradation;
use crate::workflow::Workflow;
use serde::Value;
use sf_fpga::cycles::{Schedule, ShardedPlan};
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::trace::PlanTrace;
use sf_fpga::{trace, ExecEngine, ExecError, MultiConfig, Recorder, Run, SimReport};
use sf_kernels::{rtm, AppId, Jacobi3D, Poisson2D, RtmStage, StencilSpec};
use sf_mesh::{Batch2D, Batch3D};
use sf_model::{predict, Prediction, PredictionLevel};
use sf_telemetry::Divergence;

/// Cell-iterations (total cells × niter) up to which `profile` streams the
/// behavioral pipeline; beyond that only the schedule is traced.
pub const BEHAVIORAL_BUDGET: u64 = 20_000_000;

/// Seed for the synthetic input meshes the behavioral profile streams.
const PROFILE_SEED: u64 = 42;

/// Everything [`Workflow::profile`] produces.
#[derive(Clone, Debug)]
pub struct ProfileResult {
    /// The profiled design.
    pub design: StencilDesign,
    /// The workload that was profiled.
    pub workload: Workload,
    /// Iterations solved.
    pub niter: u64,
    /// Resolved worker count the run was configured with.
    pub jobs: usize,
    /// Execution engine the behavioral pipeline streamed through (fast by
    /// default; both engines are bit-exact, so everything else in the
    /// profile is engine-independent).
    pub engine: ExecEngine,
    /// Accelerator cards the run was sharded across (1 = single device).
    pub devices: usize,
    /// The multi-device plan behind the report — per-device cost and
    /// exchange accounting. `None` for single-device profiles.
    pub sharded: Option<ShardedPlan>,
    /// The model's prediction for it (Extended level).
    pub prediction: Prediction,
    /// Simulated performance report.
    pub report: SimReport,
    /// The mandatory static pre-flight report for the profiled design
    /// (error-free by construction — errors abort the profile — but any
    /// warnings ride along for the caller to surface).
    pub preflight: sf_check::CheckReport,
    /// The annotated cycle breakdown ([`trace::explain`]).
    pub trace: PlanTrace,
    /// The event recorder — feed to `sf_telemetry::chrome::to_chrome_json`
    /// or `sf_telemetry::metrics::to_metrics_json`.
    pub recorder: Recorder,
    /// Predicted-vs-simulated cycles (also stored in the recorder).
    pub divergence: Divergence,
    /// Whether real numerics were streamed (vs schedule-only tracing).
    pub behavioral: bool,
    /// Concessions made to produce this profile (schedule-only fallback
    /// when the workload exceeds [`BEHAVIORAL_BUDGET`] or has no concrete
    /// kernel to stream).
    pub degradations: Vec<Degradation>,
}

impl Workflow {
    /// Profile the best design for `(spec, wl, niter)` with telemetry
    /// enabled. See the module docs for what gets recorded.
    ///
    /// Worker count is resolved from `SF_JOBS` / machine parallelism; the
    /// profile (numerics, report, every recorded byte) is identical for
    /// any count — see [`Workflow::profile_jobs`].
    pub fn profile(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
    ) -> Result<ProfileResult, SfError> {
        self.profile_jobs(spec, wl, niter, sf_par::resolve_jobs(None))
    }

    /// [`Workflow::profile`] with an explicit worker count (the `--jobs`
    /// CLI flag lands here). Batched behavioral workloads fan their meshes
    /// across `jobs` threads via the deterministic batch engine
    /// ([`sf_fpga::exec_batch`]); everything else about the profile is
    /// unaffected by `jobs`. Streams through the default (fast) engine.
    pub fn profile_jobs(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
        jobs: usize,
    ) -> Result<ProfileResult, SfError> {
        self.profile_exec(spec, wl, niter, jobs, ExecEngine::default())
    }

    /// [`Workflow::profile_jobs`] with an explicit execution engine (the
    /// `--exec` CLI flag lands here). Both engines are bit-exact, so the
    /// numerics, report and every recorded byte are identical; `scalar`
    /// exists to cross-check the fast path and for differential debugging.
    pub fn profile_exec(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
        jobs: usize,
        engine: ExecEngine,
    ) -> Result<ProfileResult, SfError> {
        self.profile_multi(spec, wl, niter, jobs, engine, &MultiConfig::default())
    }

    /// [`Workflow::profile_exec`] sharded across `cfg.devices` accelerator
    /// cards (the `--devices` / `--link` CLI flags land here). The mesh is
    /// slab-decomposed along its outermost axis; each shard runs on its
    /// own simulated device and halos are exchanged at every pass barrier
    /// over `cfg.link`, overlapped against interior compute. Numerics stay
    /// bit-identical to the single-device profile; the report, prediction
    /// and telemetry price the sharded schedule (slowest device per pass,
    /// exposed exchange as [`sf_telemetry::StallClass::Exchange`]).
    ///
    /// Illegal shardings — zero devices, more shards than outermost mesh
    /// units, shards narrower than the halo depth — fail the SFC-X
    /// pre-flight rule with [`SfError::Check`] before anything runs.
    pub fn profile_multi(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
        jobs: usize,
        engine: ExecEngine,
        cfg: &MultiConfig,
    ) -> Result<ProfileResult, SfError> {
        // A zero-iteration profile has nothing to stream, predict or
        // attribute — reject it as a typed error here, before the
        // executors (which assert on it) can turn it into a panic.
        if niter == 0 {
            return Err(SfError::Model(sf_model::ModelError::invalid(
                "niter",
                "a profile needs at least one iteration",
            )));
        }
        let best = self.best_design(spec, wl, niter)?;
        let design = best.design.clone();
        let preflight = self
            .preflight_devices(&design, wl, cfg.devices)
            .into_result()
            .map_err(SfError::Check)?;
        let dev = &self.device;
        let sharded = if cfg.devices > 1 {
            Some(Schedule::new(dev, &design, wl, cfg).map_err(exec_err)?.sharded_plan(niter))
        } else {
            None
        };
        let mut rec = Recorder::enabled(design.freq_hz / 1e6);
        rec.set_jobs(jobs as u64);
        rec.set_meta("app", Value::String(format!("{}", spec.app)));
        rec.set_meta("workload", Value::String(format!("{wl:?}")));
        rec.set_meta("niter", Value::U64(niter));

        let behavioral = wl.total_cells() * niter <= BEHAVIORAL_BUDGET;
        let report = if behavioral {
            run_behavioral(dev, &design, spec, wl, niter, jobs, engine, cfg, &mut rec)?
        } else {
            None
        };
        let behavioral = report.is_some();
        let report = match report {
            Some(r) => r,
            None => {
                // Schedule-only: same cycle accounting, no numerics.
                let plan = sf_fpga::profile::trace_devices(dev, &design, wl, niter, cfg, &mut rec)
                    .map_err(exec_err)?;
                let power = sf_fpga::power::fpga_power_w(dev, &design) * cfg.devices as f64;
                SimReport::from_plan(&design, &plan.merged, niter, power)
            }
        };

        let prediction = if cfg.devices > 1 {
            sf_model::predict_sharded(dev, &design, wl, niter, cfg)?
        } else {
            predict(dev, &design, wl, niter, PredictionLevel::Extended)?
        };
        let divergence = Divergence::new(prediction.cycles, report.total_cycles);
        rec.set_divergence(divergence);
        let tr = trace::explain(dev, &design, wl, niter);
        let degradations =
            if behavioral { Vec::new() } else { vec![Degradation::ScheduleOnlyProfile] };
        Ok(ProfileResult {
            design,
            workload: *wl,
            niter,
            jobs,
            engine,
            devices: cfg.devices,
            sharded,
            prediction,
            report,
            preflight,
            trace: tr,
            recorder: rec,
            divergence,
            behavioral,
            degradations,
        })
    }
}

/// A device-count error at this point means the sharding slipped past the
/// SFC-X pre-flight — surface it as the model-layer parameter error it is
/// rather than panicking; any other run error as itself.
fn exec_err(e: ExecError) -> SfError {
    match e {
        ExecError::Devices(e) => {
            SfError::Model(sf_model::ModelError::invalid("devices", e.to_string()))
        }
        e => SfError::Exec(e),
    }
}

impl ProfileResult {
    /// Package the profile as a durable [`sf_report::RunRecord`] for the
    /// cross-run store (`sfstencil profile --record-out`).
    pub fn to_run_record(&self) -> sf_report::RunRecord {
        use sf_check::Severity;
        use sf_fpga::design::{ExecMode, MemKind};

        let mut rec = sf_report::RunRecord::empty(
            sf_report::RunKind::Profile,
            sf_report::app_slug(self.design.spec.app),
        );
        let (dims, batch) = match self.workload {
            Workload::D2 { nx, ny, batch } => (vec![nx as u64, ny as u64], batch),
            Workload::D3 { nx, ny, nz, batch } => (vec![nx as u64, ny as u64, nz as u64], batch),
        };
        rec.dims = dims;
        rec.batch = batch as u64;
        rec.niter = self.niter;
        rec.v = self.design.v as u64;
        rec.p = self.design.p as u64;
        rec.mode = format!("{:?}", self.design.mode);
        rec.tile_m = match self.design.mode {
            ExecMode::Tiled1D { tile_m } | ExecMode::Tiled2D { tile_m, .. } => Some(tile_m as u64),
            _ => None,
        };
        rec.tile_n = match self.design.mode {
            ExecMode::Tiled2D { tile_n, .. } => Some(tile_n as u64),
            _ => None,
        };
        rec.mem = match self.design.mem {
            MemKind::Hbm => "hbm".to_string(),
            MemKind::Ddr4 => "ddr4".to_string(),
        };
        rec.freq_mhz = self.design.freq_mhz();
        rec.devices = self.devices as u64;
        rec.jobs = self.jobs as u64;
        rec.shards_merged = self.recorder.shards_merged();
        rec.predicted_cycles = self.prediction.cycles;
        rec.measured_cycles = self.report.total_cycles;
        rec.runtime_s = self.report.runtime_s;
        rec.stalls = self.recorder.stall_breakdown();
        rec.check_errors =
            self.preflight.diagnostics.iter().filter(|d| d.severity == Severity::Error).count()
                as u64;
        rec.check_warnings =
            self.preflight.diagnostics.iter().filter(|d| d.severity == Severity::Warning).count()
                as u64;
        rec.divergence_pct = self.divergence.pct_finite();
        rec
    }
}

/// Stream real numerics through one [`Run`] for the paper's apps. Returns
/// `Ok(None)` for custom specs (no concrete kernel to run) — the caller
/// falls back to schedule-only tracing.
///
/// A batch fans its meshes out over `jobs` workers (per-mesh
/// `mesh{i}/window/` swimlanes) and a sharded run its slabs
/// (`dev{k}/mesh{i}/window/` swimlanes, exchange charges); a single mesh on
/// one device streams as one (tiling included). Numerics are bit-identical
/// either way, and `engine` selects scalar or lane-parallel stage
/// processors with the same output and recorded bytes.
#[allow(clippy::too_many_arguments)]
fn run_behavioral(
    dev: &sf_fpga::FpgaDevice,
    design: &StencilDesign,
    spec: &StencilSpec,
    wl: &Workload,
    niter: u64,
    jobs: usize,
    engine: ExecEngine,
    cfg: &MultiConfig,
    rec: &mut Recorder,
) -> Result<Option<SimReport>, SfError> {
    let jobs = (wl.batch() > 1 || cfg.devices > 1).then_some(jobs);
    let n = niter as usize;
    let report = match (spec.app, *wl) {
        (AppId::Poisson2D, Workload::D2 { nx, ny, batch }) => {
            let input = Batch2D::<f32>::random(nx, ny, batch, PROFILE_SEED, -1.0, 1.0);
            Run { engine, jobs, devices: *cfg, ..Run::new(dev, design, &[Poisson2D], n, rec) }
                .simulate(&input)
                .map(|(_, report, _)| report)
        }
        (AppId::Jacobi3D, Workload::D3 { nx, ny, nz, batch }) => {
            let input = Batch3D::<f32>::random(nx, ny, nz, batch, PROFILE_SEED, -1.0, 1.0);
            let k = [Jacobi3D::smoothing()];
            Run { engine, jobs, devices: *cfg, ..Run::new(dev, design, &k, n, rec) }
                .simulate(&input)
                .map(|(_, report, _)| report)
        }
        (AppId::Rtm3D, Workload::D3 { nx, ny, nz, batch: 1 }) => {
            let input = rtm::demo_batch(nx, ny, nz);
            let stages = RtmStage::pipeline(sf_kernels::RtmParams::default());
            Run { engine, jobs, devices: *cfg, ..Run::new(dev, design, &stages, n, rec) }
                .simulate(&input)
                .map(|(_, report, _)| report)
        }
        _ => return Ok(None),
    };
    report.map(Some).map_err(exec_err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_telemetry::StallClass;

    #[test]
    fn profile_poisson_behavioral_with_divergence() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let pr = wf.profile(&spec, &wl, 100).unwrap();
        assert!(pr.behavioral);
        assert!(pr.degradations.is_empty());
        // Divergence is emitted on every run and within the paper tolerance.
        assert!(pr.divergence.within(15.0), "{}", pr.divergence.summary());
        assert!(pr.recorder.divergence().is_some());
        // Stall attribution agrees with the plan trace.
        let expect = pr.trace.stall_breakdown();
        let got = pr.recorder.stall_breakdown();
        assert_eq!(got.compute_cycles, expect.compute_cycles);
        assert_eq!(got.memory_cycles, expect.memory_cycles);
        // Pipeline spans reconcile with the simulated total.
        let pipe = pr.recorder.find_track("pipeline").unwrap();
        assert_eq!(pr.recorder.track_span_cycles(pipe), pr.report.total_cycles);
        // Behavioral window events present.
        assert!(pr.recorder.counter("window.rows_streamed") > 0);
    }

    /// Drop the `"parallel"` provenance block from a flat-metrics dump:
    /// it exists precisely to record the worker count, so it is the one
    /// part of the export that legitimately varies with `--jobs`.
    fn strip_parallel(metrics_json: &str) -> String {
        let v = serde_json::parse_value(metrics_json).unwrap();
        let serde::Value::Object(mut fields) = v else { panic!("metrics must be an object") };
        fields.retain(|(k, _)| k != "parallel");
        serde_json::to_string(&serde::Value::Object(fields)).unwrap()
    }

    #[test]
    fn batched_profile_is_jobs_invariant() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 64, ny: 32, batch: 6 };
        let run = |jobs: usize| {
            let pr = wf.profile_jobs(&spec, &wl, 50, jobs).unwrap();
            assert!(pr.behavioral);
            (
                sf_telemetry::chrome::to_chrome_json(&pr.recorder),
                strip_parallel(&sf_telemetry::metrics::to_metrics_json(&pr.recorder)),
                pr.report.total_cycles,
            )
        };
        let serial = run(1);
        for jobs in [2, 4] {
            assert_eq!(run(jobs), serial, "profile must be byte-identical at jobs={jobs}");
        }
        // per-mesh swimlanes from the batch engine
        let pr = wf.profile_jobs(&spec, &wl, 50, 2).unwrap();
        assert!(pr.recorder.track_names().iter().any(|t| t.starts_with("mesh0/window/")));
        assert!(pr.recorder.track_names().iter().any(|t| t.starts_with("mesh5/window/")));
        // ...while the provenance block records the actual worker count
        assert_eq!(pr.recorder.jobs(), Some(2));
    }

    #[test]
    fn profile_is_engine_invariant() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 64, ny: 32, batch: 3 };
        let run = |engine: ExecEngine| {
            let pr = wf.profile_exec(&spec, &wl, 40, 2, engine).unwrap();
            assert!(pr.behavioral);
            assert_eq!(pr.engine, engine);
            (
                sf_telemetry::chrome::to_chrome_json(&pr.recorder),
                sf_telemetry::metrics::to_metrics_json(&pr.recorder),
                pr.report.total_cycles,
            )
        };
        assert_eq!(run(ExecEngine::Fast), run(ExecEngine::Scalar));
        // The default profile entry points stream the fast engine.
        let pr = wf.profile_jobs(&spec, &wl, 40, 2).unwrap();
        assert_eq!(pr.engine, ExecEngine::Fast);
    }

    #[test]
    fn profile_packages_a_run_record() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let pr = wf.profile_jobs(&spec, &wl, 100, 2).unwrap();
        let rec = pr.to_run_record();
        assert_eq!(rec.schema, sf_report::RECORD_SCHEMA);
        assert_eq!(rec.app, "poisson2d");
        assert_eq!(rec.dims, vec![200, 100]);
        assert_eq!(rec.niter, 100);
        assert_eq!(rec.jobs, 2);
        assert_eq!(rec.v, pr.design.v as u64);
        assert_eq!(rec.predicted_cycles, pr.prediction.cycles);
        assert_eq!(rec.measured_cycles, pr.report.total_cycles);
        assert!(rec.has_measurement());
        assert_eq!(rec.check_errors, 0);
        // divergence is finite on a behavioral run
        assert!(rec.divergence_pct.is_some());
        // the record's stall attribution is the recorder's
        assert_eq!(rec.stalls, pr.recorder.stall_breakdown());
        // and it round-trips through the store format
        let line = serde_json::to_string(&rec).unwrap();
        let back: sf_report::RunRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn sharded_profile_is_bit_exact_and_prices_exchange() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        // 300 rows: two shards of 150 cover any halo the DSE can pick
        // (p is capped at 128), so the sharding is always legal
        let wl = Workload::D2 { nx: 64, ny: 300, batch: 1 };
        let solo = wf.profile_jobs(&spec, &wl, 40, 2).unwrap();
        let cfg = MultiConfig::new(2);
        let multi = wf.profile_multi(&spec, &wl, 40, 2, ExecEngine::Fast, &cfg).unwrap();
        assert!(multi.behavioral);
        assert_eq!(multi.devices, 2);
        let plan = multi.sharded.as_ref().expect("sharded plan rides along");
        assert_eq!(plan.devices, 2);
        // sharded report follows the sharded plan, not the solo plan
        assert_eq!(multi.report.total_cycles, plan.merged.total_cycles);
        assert_ne!(multi.report.total_cycles, solo.report.total_cycles);
        // prediction is the sharded model: divergence is zero by construction
        assert_eq!(multi.prediction.cycles, plan.merged.total_cycles);
        assert!(multi.divergence.within(15.0), "{}", multi.divergence.summary());
        // per-device swimlanes and the exchange counters are recorded
        assert!(multi.recorder.track_names().iter().any(|t| t.starts_with("dev1/mesh0/window/")));
        // the streamed run draws its schedule: pass spans reconcile with the
        // sharded total, and every device has its schedule lane
        let pipe = multi.recorder.find_track("pipeline").expect("pipeline track");
        assert_eq!(multi.recorder.track_span_cycles(pipe), multi.report.total_cycles);
        for lane in ["dev0/pipeline", "dev1/pipeline"] {
            assert!(multi.recorder.find_track(lane).is_some(), "missing {lane}");
        }
        assert_eq!(
            multi.recorder.counter("exchange.bytes"),
            plan.merged.passes * plan.exchange_bytes_per_pass
        );
        // the run record carries the device count in its config key
        let rec = multi.to_run_record();
        assert_eq!(rec.devices, 2);
        assert!(rec.config_key().contains("/d2/"), "{}", rec.config_key());
    }

    #[test]
    fn sharded_profile_paper_scale_traces_schedule_only() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let cfg = MultiConfig::new(4);
        let pr = wf.profile_multi(&spec, &wl, 60_000, 1, ExecEngine::Fast, &cfg).unwrap();
        assert!(!pr.behavioral);
        assert_eq!(pr.degradations, vec![Degradation::ScheduleOnlyProfile]);
        let plan = pr.sharded.as_ref().unwrap();
        assert_eq!(pr.report.total_cycles, plan.merged.total_cycles);
        // pipeline pass spans reconcile with the merged sharded total
        let pipe = pr.recorder.find_track("pipeline").unwrap();
        assert_eq!(pr.recorder.track_span_cycles(pipe), pr.report.total_cycles);
        // per-device schedule lanes exist
        assert!(pr.recorder.find_track("dev0/pipeline").is_some());
        assert!(pr.recorder.find_track("dev3/pipeline").is_some());
        assert!(pr.divergence.within(15.0), "{}", pr.divergence.summary());
    }

    #[test]
    fn illegal_sharding_fails_preflight_with_sfc_x() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        // the paper mesh: 100 rows; the best design's halo is far deeper
        // than the 50-row shards two devices would own
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let err = wf
            .profile_multi(&spec, &wl, 100, 1, ExecEngine::Fast, &MultiConfig::new(64))
            .unwrap_err();
        let crate::error::SfError::Check(check) = err else { panic!("want Check, got {err}") };
        assert!(
            check.report.diagnostics.iter().any(|d| d.rule.code() == "SFC-X01"),
            "{}",
            check.report.render()
        );
    }

    #[test]
    fn degenerate_workloads_fail_with_typed_errors_not_panics() {
        let wf = Workflow::u280_vs_v100();
        let poisson = StencilSpec::poisson();
        let jacobi = StencilSpec::jacobi();

        // niter = 0: rejected before the executors (which assert on it)
        // can panic, single- and multi-device, 2D and 3D alike
        let d2 = Workload::D2 { nx: 64, ny: 300, batch: 1 };
        let d3 = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
        for devices in [1usize, 2] {
            let cfg = MultiConfig::new(devices);
            let err = wf.profile_multi(&poisson, &d2, 0, 1, ExecEngine::Fast, &cfg).unwrap_err();
            assert!(format!("{err}").contains("niter"), "{err}");
            let err = wf.profile_multi(&jacobi, &d3, 0, 1, ExecEngine::Fast, &cfg).unwrap_err();
            assert!(format!("{err}").contains("niter"), "{err}");
        }

        // 1×1 and 1-wide meshes: no feasible design, a typed workflow error
        for (spec, wl) in [
            (&poisson, Workload::D2 { nx: 1, ny: 1, batch: 1 }),
            (&poisson, Workload::D2 { nx: 1, ny: 300, batch: 1 }),
            (&jacobi, Workload::D3 { nx: 1, ny: 1, nz: 1, batch: 1 }),
        ] {
            for devices in [1usize, 2] {
                let cfg = MultiConfig::new(devices);
                let err = wf.profile_multi(spec, &wl, 10, 1, ExecEngine::Fast, &cfg).unwrap_err();
                assert!(format!("{err}").contains("no feasible"), "{wl:?} d={devices}: {err}");
            }
        }

        // shard count = outermost extent: 1-unit slabs are always
        // narrower than the halo, so the SFC-X pre-flight rejects them
        for (spec, wl, devices) in [
            (&poisson, Workload::D2 { nx: 64, ny: 300, batch: 1 }, 300usize),
            (&jacobi, Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 }, 10),
        ] {
            let err = wf
                .profile_multi(spec, &wl, 10, 1, ExecEngine::Fast, &MultiConfig::new(devices))
                .unwrap_err();
            let crate::error::SfError::Check(check) = err else { panic!("want Check, got {err}") };
            assert!(
                check.report.diagnostics.iter().any(|d| d.rule.code() == "SFC-X01"),
                "{}",
                check.report.render()
            );
        }
    }

    #[test]
    fn profile_paper_scale_falls_back_to_schedule_only() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 400, ny: 400, batch: 1 };
        let pr = wf.profile(&spec, &wl, 60_000).unwrap();
        assert!(!pr.behavioral);
        assert_eq!(pr.degradations, vec![Degradation::ScheduleOnlyProfile]);
        assert_eq!(pr.recorder.counter("window.rows_streamed"), 0);
        let pipe = pr.recorder.find_track("pipeline").unwrap();
        assert_eq!(pr.recorder.track_span_cycles(pipe), pr.report.total_cycles);
        assert!(pr.divergence.within(15.0), "{}", pr.divergence.summary());
        // A compute-bound design must be reported as such.
        assert_eq!(pr.recorder.stall_breakdown().dominant(), StallClass::Compute);
    }
}
