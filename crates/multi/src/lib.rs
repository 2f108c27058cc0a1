//! # sf-multi — the multi-device names the benchmark pins
//!
//! Multi-accelerator sharding scales the single-FPGA streaming
//! architecture of the source paper (Kamalavasan et al., IPDPS 2021)
//! across `K` cards: a 1D slab decomposition of the outermost mesh axis, a
//! halo exchange at every pass barrier over a modeled device-to-device
//! link, and overlap of exchange with interior compute. All of it lives in
//! `sf-fpga`: a [`sf_fpga::driver::Run`] takes its device count and
//! link ([`MultiConfig`]), the schedule walker ([`sf_fpga::cycles::Schedule`])
//! partitions the mesh and prices the link, and the recorder sink
//! ([`sf_fpga::profile`]) draws the slabs and charges the exchange.
//!
//! This crate only re-exports those names and keeps the wrappers the
//! benchmark (`sfbench/src/api.rs`) pins, each one call into `sf-fpga`:
//! [`sharded_plan`], [`trace_sharded_schedule`] and the executors
//! [`simulate_batch_2d_sharded_exec`] / [`simulate_batch_3d_sharded_exec`].
//! It goes once the benchmark stops pinning them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod plan;

pub use exec::{
    simulate_batch_2d_sharded_exec, simulate_batch_3d_sharded_exec, trace_sharded_schedule,
};
pub use plan::sharded_plan;
pub use sf_fpga::cycles::{DeviceCost, ShardedPlan};
pub use sf_fpga::{LinkModel, MultiConfig, MultiError};
