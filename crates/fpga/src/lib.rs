#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-fpga — the U280 substrate: a behavioral + cycle-approximate FPGA
//! dataflow simulator
//!
//! The paper synthesizes stencil accelerators with Vivado HLS and measures
//! them on a Xilinx Alveo U280. This crate replaces that hardware path with
//! a simulator that reproduces both *what* the accelerator computes and *how
//! long* it takes, using the same mechanisms the paper's design relies on:
//!
//! * [`device`] — the U280 descriptor (Table I) plus the calibrated
//!   micro-architectural constants (AXI latency/gap, host enqueue latency).
//! * [`resources`] — the resource allocator: DSP accounting via `G_dsp`, and
//!   window-buffer memory **quantized to BRAM36/URAM288 blocks per lane**,
//!   which is what actually limits tile sizes on the real device.
//! * [`clock`] — the routing-congestion frequency model: achievable clock
//!   derated by DSP/memory utilization and unroll depth, calibrated to the
//!   paper's Table II (Poisson p=60 → 250 MHz, Jacobi p=29 → 246 MHz,
//!   RTM p=3 → 261 MHz).
//! * [`axi`] — per-row/burst transfer timing: request-issue gaps, strided
//!   run efficiency (`run/(run+gap)`), channel counts.
//! * [`design`] — [`design::StencilDesign`]: a synthesized configuration
//!   (`V`, `p`, execution mode, memory binding, achieved clock, resources),
//!   produced by [`design::synthesize`].
//! * [`window`] — genuine ring-buffer window buffers (one flat buffer of
//!   `2r+1` unit slots per stage) and streaming stage processors: the
//!   behavioral heart of the simulator. Cells stream in row-major order
//!   through chained stages exactly as the HLS dataflow pipeline would, each
//!   stage writing its output straight into the next stage's window, so
//!   results are bit-exact vs the golden reference. The buffers belong to a
//!   [`WindowPool`] that outlives a chain, and a caller that runs one design
//!   many times lends one pool to every run ([`Run::windows`]).
//! * [`cycles`] — the closed-form cycle model and the one schedule walker
//!   ([`cycles::Schedule`]): the per-pass segments (mesh, tile or device
//!   slab) that the plan, the sharded plan, the explainer ([`trace`]), the
//!   telemetry sink ([`profile`]), the tiled and sharded passes and
//!   `sf-model`'s predictions all fold over.
//! * [`driver`] — the one pass driver behind every executor: a
//!   [`driver::Run`] (design, stages, iterations, engine, fan-out, devices,
//!   faults, recovery, recorder) executes on a `Batch2D` or `Batch3D`
//!   through one chain runner ([`window`]) and one pass loop, with per-mesh
//!   fan-out ([`exec_batch`]), fault hooks ([`resilient`]) and checkpoint
//!   segments ([`recovery`]) layered on it.
//! * Sharding across devices is owned by `driver`, `cycles` and `profile`:
//!   a run's device count and link ([`link::MultiConfig`]) go to the walker,
//!   which cuts the streamed axis into one balanced slab per device, prices
//!   each slab's halo exchange over the [`link::LinkModel`] and folds the
//!   devices into one plan ([`cycles::ShardedPlan`]); the driver streams
//!   the slabs, and the recorder sink draws them and charges the exchange.
//!   A device count the workload cannot be sharded across is a typed
//!   [`MultiError`].
//! * [`fast`] — the lane-parallel engine and the engine-selecting entry
//!   points (`simulate_*_exec`).
//! * [`exec2d`]/[`exec3d`] — the scalar entry points and what is
//!   dimension-specific (row vs plane streaming, 1D vs 2D tiling);
//!   `simulate_*` runs numerics + timing, `estimate_*` produces timing only
//!   (for paper-scale workloads).
//! * [`power`] — the xbutil-equivalent power/energy model.
//! * [`profile`] — schedule-level telemetry, the recorder sink of the
//!   schedule walk: feeds an `sf-telemetry` [`Recorder`] with per-pass,
//!   per-tile and per-device spans, AXI channel utilisation, FIFO
//!   backpressure and stall attribution; a fault-free run adds behavioral
//!   window-buffer events on top.

pub mod axi;
pub mod clock;
pub mod cycles;
pub mod design;
pub mod device;
pub mod driver;
pub mod error;
pub mod exec2d;
pub mod exec3d;
pub mod exec_batch;
pub mod fast;
pub mod fifo;
pub mod link;
mod partition;
pub mod power;
pub mod profile;
pub mod recovery;
pub mod report;
pub mod resilient;
pub mod resources;
pub mod slr;
pub mod trace;
pub mod window;

pub use design::{ExecMode, MemKind, StencilDesign, SynthesisError};
pub use device::{FpgaDevice, MemorySpec};
pub use driver::{Faults, Run};
pub use error::{ExecError, MultiError};
pub use fast::{
    simulate_2d_exec, simulate_3d_exec, simulate_batch_2d_parallel_exec,
    simulate_batch_3d_parallel_exec, ExecEngine, FastEngine,
};
pub use link::{LinkModel, MultiConfig};
pub use report::SimReport;
pub use resilient::{plan_with_faults, FaultyPlan};
pub use resources::ResourceUsage;
pub use sf_faults::{
    AxiVerdict, FaultInjector, FaultKind, FaultPlan, RetryPolicy, Watchdog, WatchdogTrip,
};
pub use sf_recover::{GoldenTrajectory, RecoveryConfig, RecoveryPolicy, RecoveryStats};
pub use sf_telemetry::{Recorder, StallClass};
pub use window::WindowPool;
