//! Typed executor errors.
//!
//! The resilient execution paths ([`crate::resilient`]) never panic on a
//! datapath fault: a wedged pipeline becomes [`ExecError::Deadlock`] carrying
//! the watchdog's structured diagnosis, an exhausted AXI retry budget becomes
//! [`ExecError::AxiExhausted`], and configuration mismatches that the plain
//! executors assert on become [`ExecError::ShapeMismatch`]. A device count
//! the workload or design cannot be sharded across is a [`MultiError`],
//! carried by [`ExecError::Devices`] through a run.

use sf_faults::WatchdogTrip;

/// Error from a resilient executor run.
#[derive(Clone, Debug, PartialEq)]
pub enum ExecError {
    /// The pipeline made no forward progress within the watchdog budget
    /// (e.g. a dropped FIFO element starved a downstream stage).
    Deadlock(WatchdogTrip),
    /// An AXI burst failed more times than the retry policy allows.
    AxiExhausted {
        /// Index of the exhausted burst.
        burst: u64,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// The input shape disagrees with the design's execution mode.
    ShapeMismatch {
        /// What disagreed.
        detail: String,
    },
    /// The requested combination is not supported by the resilient path.
    Unsupported {
        /// What is unsupported.
        detail: String,
    },
    /// A checkpoint operation failed (spill I/O, corrupted snapshot on
    /// restore).
    Checkpoint {
        /// What went wrong.
        detail: String,
    },
    /// Rollback recovery gave up: a checkpoint segment kept failing after
    /// the configured number of restore/replay attempts.
    RecoveryExhausted {
        /// Rollbacks attempted on the failing segment.
        rollbacks: u32,
        /// What kept going wrong.
        detail: String,
    },
    /// The run cannot be sharded across its device count.
    Devices(Box<MultiError>),
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::Deadlock(trip) => write!(f, "pipeline deadlock: {trip}"),
            ExecError::AxiExhausted { burst, attempts } => {
                write!(f, "AXI burst {burst} failed {attempts} times; retry budget exhausted")
            }
            ExecError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            ExecError::Unsupported { detail } => write!(f, "unsupported: {detail}"),
            ExecError::Checkpoint { detail } => write!(f, "checkpoint failure: {detail}"),
            ExecError::RecoveryExhausted { rollbacks, detail } => {
                write!(f, "recovery exhausted after {rollbacks} rollback(s): {detail}")
            }
            ExecError::Devices(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<WatchdogTrip> for ExecError {
    fn from(t: WatchdogTrip) -> Self {
        ExecError::Deadlock(t)
    }
}

/// Why a workload cannot be sharded as requested.
#[derive(Clone, Debug, PartialEq)]
pub enum MultiError {
    /// `devices == 0` — there is no accelerator to run on.
    NoDevices,
    /// More devices than outermost mesh units: some shard would own
    /// nothing.
    TooManyDevices {
        /// Requested device count.
        devices: usize,
        /// Outermost-axis extent (rows in 2D, planes in 3D).
        extent: usize,
    },
    /// Sharding composes with whole-mesh streaming only; tiled designs
    /// already decompose the mesh their own way.
    UnsupportedMode,
    /// The run does not fit its input (batch size, stage count, `niter`).
    Exec(ExecError),
}

impl std::fmt::Display for MultiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoDevices => write!(f, "device count must be at least 1"),
            Self::TooManyDevices { devices, extent } => write!(
                f,
                "cannot shard {extent} outermost units across {devices} devices: \
                 every shard must own at least one row/plane"
            ),
            Self::UnsupportedMode => {
                write!(f, "multi-device sharding requires a Baseline or Batched design")
            }
            Self::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for MultiError {}

impl From<ExecError> for MultiError {
    /// A device-count error as itself; any other run error as
    /// [`MultiError::Exec`].
    fn from(e: ExecError) -> Self {
        match e {
            ExecError::Devices(e) => *e,
            other => MultiError::Exec(other),
        }
    }
}
