//! # sf-multi — multi-accelerator sharded execution
//!
//! Scales the single-FPGA streaming architecture of the source paper
//! (Kamalavasan et al., IPDPS 2021) across `K` accelerator cards the way
//! multi-board stencil deployments actually do it: a **1D slab
//! decomposition** of the outermost mesh axis, a **halo exchange** at
//! every pass barrier over a modeled device-to-device link, and
//! **overlap** of exchange with interior compute.
//!
//! The crate provides three layers:
//!
//! * [`partition`] — balanced slab decomposition of the outermost axis;
//!   each slab streams a halo of `p · stages · ⌈D/2⌉` units, the
//!   pipeline-fill depth.
//! * [`link`] + [`plan`] — the latency/bandwidth link model and the
//!   sharded cycle plan. `sf-fpga`'s schedule walker
//!   ([`sf_fpga::cycles::Schedule`]) yields each device's slab segment and
//!   folds them into one [`sf_fpga::cycles::CyclePlan`] whose pass
//!   wall-clock is the slowest device; this crate adds only the link
//!   terms: link occupancy and exposed (non-overlapped) exchange.
//! * [`exec`] — sharded executors for 2D/3D batches under both the scalar
//!   and vectorized fast engines: thin calls that hand the slab
//!   decomposition to `sf-fpga`'s pass driver. **Bit-identical** to the
//!   single-device executors for every device count and `jobs` value, with
//!   per-device swimlanes (`dev{k}/mesh{i}/window/`), `exchange.*`
//!   counters, each device's streamed rows attributed to compute or memory
//!   stalls, and exposed exchange charged as
//!   [`sf_telemetry::StallClass::Exchange`].
//!
//! Single-device degeneration is exact: `devices = 1` produces the same
//! numerics *and* the same [`sf_fpga::cycles::CyclePlan`] as the
//! unsharded path, which anchors the conformance suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod link;
pub mod partition;
pub mod plan;

pub use exec::{
    simulate_batch_2d_sharded_exec, simulate_batch_3d_sharded_exec, trace_sharded_schedule,
};
pub use link::LinkModel;
pub use partition::{slab_partition, Shard};
pub use plan::{sharded_plan, DeviceCost, MultiConfig, MultiError, ShardedPlan};
