#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-kernels — the paper's stencil applications and golden references
//!
//! This crate defines:
//!
//! * [`domain`] / [`probe`] — abstract-value domains and probe execution:
//!   every kernel's update is written once, generically over an
//!   [`AbstractValue`]; `f32` instantiates the concrete kernel, abstract
//!   domains (op counting, intervals, impulse probing — see `sf-absint`)
//!   re-execute the *same* code as a static analysis.
//! * [`ops`] / [`spec`] — arithmetic op counting ([`ops::OpCount`], with the
//!   Xilinx single-precision DSP costs fadd/fsub = 2, fmul = 3 that
//!   reproduce the paper's `G_dsp` figures) and the application descriptor
//!   [`spec::StencilSpec`] consumed by the analytic model.
//! * [`op2d`]/[`op3d`] — the [`StencilOp2D`]/[`StencilOp3D`] traits: a pure
//!   per-cell update over a neighborhood accessor. The FPGA dataflow
//!   simulator and the golden references call the *same* trait methods in the
//!   *same* per-cell floating-point order, so their results are bit-exact.
//! * [`poisson`] — Poisson-5pt-2D (paper eq. 16).
//! * [`jacobi3d`] — Jacobi-7pt-3D (paper eq. 18).
//! * [`rtm`] — the Reverse Time Migration forward pass (paper Algorithm 1):
//!   an RK4 time integrator over a 6-component state with a 25-point
//!   8th-order star stencil and PML-style damping, expressed as 4 fusable
//!   pipeline stages exactly as the paper fuses them.
//! * [`mod@reference`] — golden sequential executors (double-buffered,
//!   interior-update / boundary pass-through).

pub mod domain;
pub mod jacobi3d;
pub mod lanes;
pub mod op2d;
pub mod op3d;
pub mod ops;
pub mod poisson;
pub mod probe;
pub mod reference;
pub mod rtm;
pub mod spec;
pub mod star;
pub mod wave2d;
pub mod workloads;

pub use domain::{AbstractOp2D, AbstractOp3D, AbstractValue};
pub use jacobi3d::Jacobi3D;
pub use lanes::{LaneElement, LaneOp2D, LaneOp3D};
pub use op2d::StencilOp2D;
pub use op3d::StencilOp3D;
pub use ops::OpCount;
pub use poisson::Poisson2D;
pub use rtm::{RtmParams, RtmStage, RtmState, RTM_LANES, RTM_PACKED_LANES};
pub use spec::{AppId, StencilSpec};
pub use star::{StarStencil2D, StarStencil3D};
