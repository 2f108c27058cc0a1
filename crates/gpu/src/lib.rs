#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-gpu — the V100 comparator
//!
//! The paper benchmarks every FPGA design against "equivalent highly
//! optimized implementations … on a modern Nvidia GPU" (Tesla V100 PCIe,
//! Table I). We have no V100, so this crate substitutes a calibrated
//! analytic performance and power model. It prices a run and computes no
//! meshes:
//!
//! * stencil kernels on a V100 are **memory-bandwidth-bound**; runtime is
//!   `t = Σ_kernels (t_launch + bytes / BW_eff(bytes))` per iteration with
//!   one saturation curve `BW_eff(s) = BW_peak · s/(s + s_half)`
//!   (`BW_peak = 580 GB/s` — the stencil-effective fraction of the 900 GB/s
//!   HBM2 peak; `s_half = 2.2 MB`; `t_launch = 6 µs`). This single curve
//!   reproduces the paper's GPU columns in Tables IV–VI typically within
//!   ~10 % (see `sf-bench` and EXPERIMENTS.md).
//! * RTM runs the *unfused* loop chain (4 × `f_pml` + 3 × `T`-update +
//!   1 × `Y`-update = 8 kernels/iteration); the radius-4 25-point kernels
//!   additionally pay a cache-efficiency factor (0.35), matching the paper's
//!   note that `f_pml` achieved only ~180 GB/s while simple kernels exceeded
//!   340 GB/s.
//! * power follows utilization: `P = 40 W + 200 W × BW/BW_peak`, the
//!   `nvidia-smi` range (40–240 W) the paper reports.

pub mod device;
pub mod perf;

pub use device::GpuDevice;
pub use perf::{gpu_report, KernelCost};
