//! Recovery policy, executor configuration and accumulated statistics.

use serde::{Deserialize, Serialize};
use std::path::PathBuf;

/// What a resilient executor does when a fault is detected mid-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryPolicy {
    /// Legacy behavior: surface the error (or the checksum mismatch) and
    /// let the caller rerun the whole workload from iteration zero.
    Rerun,
    /// Roll back to the last valid checkpoint and recompute only the
    /// lost iteration batches, at most `max_retries` times per segment.
    Rollback {
        /// Rollback attempts allowed per checkpoint segment before the
        /// run is declared unrecoverable.
        max_retries: u32,
    },
}

impl RecoveryPolicy {
    /// Parse a CLI policy name (`rerun` | `rollback`). Rollback uses the
    /// caller's retry budget.
    pub fn parse(s: &str, max_retries: u32) -> Option<RecoveryPolicy> {
        match s {
            "rerun" => Some(RecoveryPolicy::Rerun),
            "rollback" => Some(RecoveryPolicy::Rollback { max_retries }),
            _ => None,
        }
    }

    /// Stable lowercase label.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryPolicy::Rerun => "rerun",
            RecoveryPolicy::Rollback { .. } => "rollback",
        }
    }
}

/// Full configuration of the recoverable executors.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryConfig {
    /// Rerun vs rollback (with retry budget).
    pub policy: RecoveryPolicy,
    /// Checkpoint every `N` temporal batches (pipeline passes). Must be
    /// positive — the CLI rejects 0 before it gets here.
    pub checkpoint_every: usize,
    /// Snapshots retained in the in-memory ring.
    pub ring_capacity: usize,
    /// ABFT comparison tolerance (absolute, per block sum). `0.0` is
    /// exact — correct for the linear operators; RK4 chains may widen it.
    pub abft_tol: f64,
    /// When set, every checkpoint is also spilled to
    /// `<dir>/ckpt_<passes>.sfckpt` in the versioned format.
    pub spill_dir: Option<PathBuf>,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            policy: RecoveryPolicy::Rollback { max_retries: 3 },
            checkpoint_every: 4,
            ring_capacity: 2,
            abft_tol: 0.0,
            spill_dir: None,
        }
    }
}

/// Accumulated recovery accounting for one run. All cycle figures are in
/// kernel cycles and are charged into the cycle plan by the executor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Checkpoints captured (including the initial one).
    pub checkpoints_taken: u64,
    /// Cycles spent writing checkpoints through external memory (eq. 4
    /// write bandwidth).
    pub checkpoint_cycles: u64,
    /// ABFT signature comparisons performed.
    pub abft_checks: u64,
    /// Cycles spent streaming outputs through the checksum tree.
    pub abft_cycles: u64,
    /// Silent-data-corruption events caught by ABFT signatures.
    pub sdc_detected: u64,
    /// Rollbacks performed (checkpoint restores).
    pub rollbacks: u64,
    /// Temporal batches recomputed across all rollbacks.
    pub batches_replayed: u64,
    /// Cycles spent recomputing lost batches.
    pub recovery_cycles: u64,
}

impl RecoveryStats {
    /// Mean cycles per recovery event (0 when no rollback happened).
    pub fn mean_cycles_to_recovery(&self) -> u64 {
        self.recovery_cycles.checked_div(self.rollbacks).unwrap_or(0)
    }

    /// Total overhead the recovery layer added on top of the fault-free
    /// plan: checkpoint writes + ABFT checks + replayed batches.
    pub fn overhead_cycles(&self) -> u64 {
        self.checkpoint_cycles + self.abft_cycles + self.recovery_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_parses_cli_names() {
        assert_eq!(RecoveryPolicy::parse("rerun", 3), Some(RecoveryPolicy::Rerun));
        assert_eq!(
            RecoveryPolicy::parse("rollback", 5),
            Some(RecoveryPolicy::Rollback { max_retries: 5 })
        );
        assert_eq!(RecoveryPolicy::parse("retry", 1), None);
        assert_eq!(RecoveryPolicy::Rollback { max_retries: 2 }.name(), "rollback");
    }

    #[test]
    fn stats_mean_and_overhead() {
        let mut s = RecoveryStats::default();
        assert_eq!(s.mean_cycles_to_recovery(), 0);
        s.rollbacks = 2;
        s.recovery_cycles = 300;
        s.checkpoint_cycles = 40;
        s.abft_cycles = 10;
        assert_eq!(s.mean_cycles_to_recovery(), 150);
        assert_eq!(s.overhead_cycles(), 350);
    }
}
