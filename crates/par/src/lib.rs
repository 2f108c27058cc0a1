//! Deterministic parallel execution layer for the stencil-fpga workspace.
//!
//! Everything in the simulator that scales with cores — batched-mesh
//! execution (paper eq. 15), the DSE sweep over (V, p, M, N) candidates,
//! and the fault-injection campaign's kind×rate×seed grid — is
//! embarrassingly parallel: independent work items whose results are
//! combined in a fixed order. This crate provides the one primitive those
//! paths share, [`par_map`], plus the policy glue around it:
//!
//! * [`par_map`] — an ordered parallel map over owned work items. Results
//!   come back in **input order** regardless of worker count or OS
//!   scheduling, which is what makes "parallel runs are byte-identical to
//!   serial runs" a structural guarantee rather than a test-lottery win.
//! * [`jobs`] — worker-count resolution with one precedence rule shared by
//!   every CLI entry point: explicit `--jobs` flag, then the `SF_JOBS`
//!   environment variable, then [`std::thread::available_parallelism`].
//!
//! The crate holds no process-wide state: results flow back to the caller,
//! never into a shared cache.
//!
//! This crate is where the workspace's threads live. It uses only
//! [`std::thread::scope`] — no unsafe code, no external dependencies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod jobs;
mod pool;

pub use jobs::{available_jobs, resolve_jobs};
pub use pool::par_map;
