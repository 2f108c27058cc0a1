//! The step-wise design workflow (paper §III–§IV as an API).

use crate::compare::Comparison;
use crate::error::SfError;
use serde::{Deserialize, Serialize};
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::{cycles, power, FpgaDevice, SimReport};
use sf_gpu::{gpu_report, GpuDevice};
use sf_kernels::StencilSpec;
use sf_model::dse::{self, Candidate, DseOptions};
use sf_model::feasibility::FeasibilityReport;

/// Workflow failures surfaced to the user.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkflowError {
    /// No feasible design exists in the explored space.
    NoFeasibleDesign {
        /// Application that failed.
        app: String,
    },
}

impl core::fmt::Display for WorkflowError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WorkflowError::NoFeasibleDesign { app } => {
                write!(f, "no feasible FPGA design found for {app}")
            }
        }
    }
}

impl std::error::Error for WorkflowError {}

/// The unified workflow: a target FPGA, a comparator GPU, and exploration
/// options.
#[derive(Clone, Debug)]
pub struct Workflow {
    /// Target FPGA card.
    pub device: FpgaDevice,
    /// Comparator GPU.
    pub gpu: GpuDevice,
    /// Design-space exploration options.
    pub opts: DseOptions,
}

impl Workflow {
    /// The paper's experimental setup: Alveo U280 vs Tesla V100.
    pub fn u280_vs_v100() -> Self {
        Workflow { device: FpgaDevice::u280(), gpu: GpuDevice::v100(), opts: DseOptions::default() }
    }

    /// Step 1 — feasibility analysis (eqs. 4/6/7 + §VI determinants).
    /// The streaming buffer unit is derived from the workload: row length for
    /// 2D, plane size for 3D.
    pub fn feasibility(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
    ) -> Result<FeasibilityReport, SfError> {
        let unit = match *wl {
            Workload::D2 { nx, .. } => nx,
            Workload::D3 { nx, ny, .. } => nx * ny,
        };
        let v = sf_model::feasibility::nominal_v(&self.device, spec, self.opts.mem);
        Ok(FeasibilityReport::analyze(&self.device, spec, v, unit, self.opts.mem)?)
    }

    /// Step 2 — design-space exploration, ranked fastest-first.
    ///
    /// Candidate evaluation fans across worker threads (resolved from
    /// `SF_JOBS` / machine parallelism); the ranking is identical for any
    /// worker count. See [`Workflow::explore_jobs`] for an explicit count.
    pub fn explore(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
    ) -> Result<Vec<Candidate>, SfError> {
        Ok(dse::explore(&self.device, spec, wl, niter, &self.opts)?)
    }

    /// [`Workflow::explore`] with an explicit worker count (the `--jobs`
    /// CLI flag lands here).
    pub fn explore_jobs(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
        jobs: usize,
    ) -> Result<Vec<Candidate>, SfError> {
        Ok(dse::explore_jobs(&self.device, spec, wl, niter, &self.opts, jobs)?)
    }

    /// Step 0 — mandatory static pre-flight: the `sf-check` design-rule
    /// checker applied to a synthesized design before anything executes it,
    /// plus the kernel-analysis rules (`SFC-K01` … `SFC-K05`) from
    /// `sf-absint`'s probe execution of the canonical kernel behind the
    /// design's spec. Returns the full diagnostic report (warnings
    /// included); callers that must not proceed on errors convert it with
    /// [`sf_check::CheckReport::into_result`].
    ///
    /// The design rules run afresh on every call — they cost microseconds,
    /// and no cache stands in front of them; the kernel analysis behind
    /// the paper's three apps is computed once per process by `sf-absint`.
    pub fn preflight(&self, design: &StencilDesign, wl: &Workload) -> sf_check::CheckReport {
        self.preflight_devices(design, wl, 1)
    }

    /// [`Workflow::preflight`] with an explicit device count: the SFC-X
    /// shard-legality rule sees `devices`, so illegal shardings (zero
    /// devices, more shards than outermost mesh units, shards narrower
    /// than the halo depth) surface as error-severity diagnostics before
    /// anything runs.
    pub fn preflight_devices(
        &self,
        design: &StencilDesign,
        wl: &Workload,
        devices: usize,
    ) -> sf_check::CheckReport {
        let mut rep = sf_check::check(
            &self.device,
            &sf_check::Design::from_synthesized(design, wl).with_devices(devices),
        );
        rep.extend_diagnostics(sf_absint::app_diagnostics(&design.spec, design.p));
        rep
    }

    /// [`Workflow::preflight`] for an explicit 2D kernel (a custom stencil,
    /// or a paper kernel with overridden coefficients): runs the full
    /// abstract interpretation — footprint/op-count extraction, interval
    /// ranges, von Neumann stability — on `op` itself, applies the K-rules
    /// against the design's spec at its unroll factor, and rejects with a
    /// typed [`SfError::Check`] on any error-severity finding **before a
    /// single simulation cycle runs**. A statically-unstable iterative
    /// configuration (`SFC-K05`) never reaches the executor.
    pub fn preflight_kernel2d<K: sf_kernels::AbstractOp2D + ?Sized>(
        &self,
        op: &K,
        design: &StencilDesign,
        wl: &Workload,
    ) -> Result<sf_check::CheckReport, SfError> {
        let cfg = sf_absint::AbsintConfig::default();
        let analysis = sf_absint::analyze_2d(op, &cfg);
        let mut rep = self.preflight(design, wl);
        rep.extend_diagnostics(sf_absint::kernel_diagnostics(
            &analysis,
            &design.spec,
            design.p,
            &cfg,
        ));
        rep.into_result().map_err(SfError::Check)
    }

    /// [`Workflow::preflight_kernel2d`] for 3D kernels.
    pub fn preflight_kernel3d<K: sf_kernels::AbstractOp3D + ?Sized>(
        &self,
        op: &K,
        design: &StencilDesign,
        wl: &Workload,
    ) -> Result<sf_check::CheckReport, SfError> {
        let cfg = sf_absint::AbsintConfig::default();
        let analysis = sf_absint::analyze_3d(op, &cfg);
        let mut rep = self.preflight(design, wl);
        rep.extend_diagnostics(sf_absint::kernel_diagnostics(
            &analysis,
            &design.spec,
            design.p,
            &cfg,
        ));
        rep.into_result().map_err(SfError::Check)
    }

    /// Step 3 — the winning design: the head of [`Workflow::explore`]'s
    /// ranking, found without materializing the rest of it.
    pub fn best_design(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
    ) -> Result<Candidate, SfError> {
        dse::best(&self.device, spec, wl, niter, &self.opts)?
            .ok_or_else(|| WorkflowError::NoFeasibleDesign { app: format!("{}", spec.app) }.into())
    }

    /// Step 4 — achieved performance of a design on the simulated U280.
    pub fn fpga_estimate(&self, design: &StencilDesign, wl: &Workload, niter: u64) -> SimReport {
        let plan = cycles::plan(&self.device, design, wl, niter);
        SimReport::from_plan(design, &plan, niter, power::fpga_power_w(&self.device, design))
    }

    /// The comparator: the same workload on the modeled V100.
    pub fn gpu_estimate(&self, spec: &StencilSpec, wl: &Workload, niter: u64) -> SimReport {
        gpu_report(&self.gpu, spec, wl, niter)
    }

    /// Step 5 — end-to-end comparison: best FPGA design vs the GPU.
    pub fn compare(
        &self,
        spec: &StencilSpec,
        wl: &Workload,
        niter: u64,
    ) -> Result<Comparison, SfError> {
        let best = self.best_design(spec, wl, niter)?;
        let fpga = self.fpga_estimate(&best.design, wl, niter);
        let gpu = self.gpu_estimate(spec, wl, niter);
        Ok(Comparison { design: best.design, prediction: best.prediction, fpga, gpu })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_kernels::AppId;

    #[test]
    fn workflow_end_to_end_poisson() {
        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::poisson();
        let wl = Workload::D2 { nx: 300, ny: 300, batch: 1 };
        let feas = wf.feasibility(&spec, &wl).unwrap();
        assert!(feas.baseline_feasible);
        let cmp = wf.compare(&spec, &wl, 60_000).unwrap();
        assert_eq!(cmp.fpga.app, AppId::Poisson2D);
        assert!(cmp.fpga.runtime_s > 0.0 && cmp.gpu.runtime_s > 0.0);
        // paper Fig. 3a: baseline Poisson strongly favours the FPGA
        assert!(cmp.speedup() > 1.0, "speedup {}", cmp.speedup());
    }

    #[test]
    fn no_feasible_design_is_reported() {
        let mut wf = Workflow::u280_vs_v100();
        wf.opts.allow_tiling = false;
        wf.opts.v_candidates = vec![1];
        let spec = StencilSpec::jacobi();
        // baseline on a mesh whose planes exceed on-chip memory
        let wl = Workload::D3 { nx: 2500, ny: 2500, nz: 50, batch: 1 };
        let err = wf.best_design(&spec, &wl, 100).unwrap_err();
        assert!(matches!(err, SfError::Workflow(WorkflowError::NoFeasibleDesign { .. })));
        assert!(format!("{err}").contains("Jacobi"));
    }

    #[test]
    fn unstable_kernel_is_rejected_before_any_simulation() {
        use sf_fpga::design::{synthesize, ExecMode};
        use sf_fpga::MemKind;

        let wf = Workflow::u280_vs_v100();
        let spec = StencilSpec::jacobi();
        let wl = Workload::D3 { nx: 64, ny: 64, nz: 64, batch: 1 };
        let design =
            synthesize(&wf.device, &spec, 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
        // the canonical smoothing kernel passes the full kernel preflight
        wf.preflight_kernel3d(&sf_kernels::Jacobi3D::smoothing(), &design, &wl).unwrap();
        // an amplifying coefficient set is statically unstable: rejected
        // with SFC-K05 before any simulation cycles
        let bad = sf_kernels::Jacobi3D::with_coefficients([0.5; 7]);
        let err = wf.preflight_kernel3d(&bad, &design, &wl).unwrap_err();
        match err {
            SfError::Check(ce) => {
                assert!(ce.report.fired(sf_check::RuleId::KernelUnstable));
                assert!(format!("{ce}").contains("SFC-K05"), "{ce}");
            }
            other => panic!("expected SfError::Check, got {other:?}"),
        }
    }

    #[test]
    fn preflight_merges_kernel_rules_for_drifted_specs() {
        use sf_fpga::design::{synthesize, ExecMode};
        use sf_fpga::MemKind;

        let wf = Workflow::u280_vs_v100();
        let wl = Workload::D2 { nx: 100, ny: 100, batch: 1 };
        let mut spec = StencilSpec::poisson();
        let design =
            synthesize(&wf.device, &spec, 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl).unwrap();
        assert!(!wf.preflight(&design, &wl).has_errors());
        // drift the spec's declared reach after synthesis: preflight's
        // K-rules catch what the design rules alone cannot see
        spec.order = 0;
        let mut drifted = design;
        drifted.spec = spec;
        let rep = wf.preflight(&drifted, &wl);
        assert!(rep.fired(sf_check::RuleId::KernelFootprint), "{}", rep.render());
    }

    #[test]
    fn gpu_estimate_standalone() {
        let wf = Workflow::u280_vs_v100();
        let wl = Workload::D3 { nx: 100, ny: 100, nz: 100, batch: 1 };
        let rep = wf.gpu_estimate(&StencilSpec::jacobi(), &wl, 1000);
        assert!(rep.platform.contains("V100"));
        assert!(rep.bandwidth_gbs > 100.0);
    }
}
