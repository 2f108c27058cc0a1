#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-core — the unified stencil-to-FPGA design workflow
//!
//! This crate is the public face of the reproduction: the paper's
//! "implementation template and accompanying step-wise optimization strategy
//! for conversion of structured-mesh, explicit, iterative stencil
//! applications to FPGA accelerators", wrapped as a library a downstream
//! user can drive end to end:
//!
//! ```
//! use sf_core::prelude::*;
//!
//! // 1. describe the platform and the application
//! let wf = Workflow::u280_vs_v100();
//! let spec = StencilSpec::poisson();
//! let wl = Workload::D2 { nx: 300, ny: 300, batch: 1 };
//!
//! // 2. feasibility: V_max, p_dsp, p_mem, amenability (paper §III-A, §VI)
//! let feas = wf.feasibility(&spec, &wl).unwrap();
//! assert!(feas.baseline_feasible);
//!
//! // 3. design-space exploration with the predictive model (§III–§IV)
//! let best = wf.best_design(&spec, &wl, 1000).unwrap();
//!
//! // 4. "synthesize" + estimate on the simulated U280, compare with the V100
//! let cmp = wf.compare(&spec, &wl, 1000).unwrap();
//! println!("FPGA {:.2} ms vs GPU {:.2} ms (speedup {:.2}x, energy {:.2}x)",
//!          cmp.fpga.runtime_s * 1e3, cmp.gpu.runtime_s * 1e3,
//!          cmp.speedup(), cmp.energy_ratio());
//! # let _ = best;
//! ```
//!
//! Numeric execution (bit-exact vs the golden references) is available
//! through the typed solvers in [`solvers`]: [`solvers::PoissonSolver`],
//! [`solvers::JacobiSolver`], [`solvers::RtmSolver`].
//!
//! Fault-tolerant execution is available at two levels of a fault-aware
//! `sf_fpga::Run`: the rerun policy (`sf_fpga::resilient` fault hooks,
//! typed detection + clean rerun) and the checkpoint/rollback recovery
//! layer (`sf_fpga::recovery`, ABFT silent-corruption detection + in-run
//! rollback); the recovery
//! configuration types ([`prelude::RecoveryConfig`],
//! [`prelude::RecoveryPolicy`], [`prelude::RecoveryStats`]) are part of
//! the prelude.

pub mod compare;
pub mod error;
pub mod profile;
pub mod resilience;
pub mod solvers;
pub mod workflow;

pub use compare::Comparison;
pub use error::SfError;
pub use profile::ProfileResult;
pub use resilience::{synthesize_degraded, Degradation, DegradedDesign};
pub use workflow::{Workflow, WorkflowError};

/// Everything a typical user needs.
pub mod prelude {
    pub use crate::compare::Comparison;
    pub use crate::error::SfError;
    pub use crate::profile::ProfileResult;
    pub use crate::resilience::{synthesize_degraded, Degradation, DegradedDesign};
    pub use crate::solvers::{JacobiSolver, PoissonSolver, RtmSolver};
    pub use crate::workflow::{Workflow, WorkflowError};
    pub use sf_check::{check, CheckError, CheckReport, Design, Diagnostic, RuleId, Severity};
    pub use sf_fpga::design::{ExecMode, MemKind, StencilDesign, Workload};
    pub use sf_fpga::{FpgaDevice, SimReport};
    pub use sf_fpga::{RecoveryConfig, RecoveryPolicy, RecoveryStats};
    pub use sf_gpu::GpuDevice;
    pub use sf_kernels::ops::NumberFormat;
    pub use sf_kernels::{AppId, Jacobi3D, Poisson2D, RtmParams, StencilSpec};
    pub use sf_mesh::{Batch2D, Batch3D, Mesh2D, Mesh3D, VecN};
    pub use sf_model::{DseOptions, FeasibilityReport, PredictionLevel};
}
