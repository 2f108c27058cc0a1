//! # sf-recover — checkpoint/rollback recovery with ABFT detection
//!
//! The paper's explicit solvers advance thousands of iterations in
//! *temporal batches* of `p` fused iterations; batch boundaries are the
//! natural synchronization points of the dataflow pipeline and therefore
//! the natural **checkpoint cadence**. This crate provides the three
//! building blocks the recoverable executors in `sf-fpga` thread
//! together:
//!
//! 1. **Deterministic checkpointing** — [`Snapshot`] captures the full
//!    mesh state (including RTM's packed vector fields, flattened
//!    lane-major to `f32`) with an FNV-1a content checksum that folds the
//!    payload one 32-bit word per step; a bounded [`CheckpointRing`] keeps
//!    the last `K` snapshots in memory and [`spill`] serializes them to a
//!    versioned on-disk format (v2).
//! 2. **ABFT detection** — [`AbftSignature`] holds block row/column sums
//!    over tile outputs (Huang and Abraham's row/column checksums, applied
//!    to stencil states); exact comparison catches single-event silent
//!    data corruption in linear stencil operators, and a tolerance band
//!    covers the RK4 chain. The expected side is the golden reference; a
//!    [`GoldenTrajectory`] holds one input's reference states and their
//!    signatures, so repeated runs of that input solve it once.
//! 3. **Rollback policy** — [`RecoveryPolicy`] selects between the
//!    legacy clean-rerun behavior and in-run rollback with a bounded
//!    retry budget; [`RecoveryStats`] accumulates checkpoint/ABFT
//!    overhead and mean-cycles-to-recovery for the telemetry and
//!    cross-run report layers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abft;
pub mod checkpoint;
pub mod policy;
pub mod ring;
pub mod spill;
pub mod trajectory;

pub use abft::{abft_check_cycles, AbftSignature, ABFT_BLOCKS};
pub use checkpoint::{CheckpointError, Snapshot};
pub use policy::{RecoveryConfig, RecoveryPolicy, RecoveryStats};
pub use ring::CheckpointRing;
pub use spill::{read_file, to_bytes, try_from_bytes, write_file, SPILL_VERSION};
pub use trajectory::GoldenTrajectory;
