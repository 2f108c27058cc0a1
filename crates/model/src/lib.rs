#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # sf-model — the paper's predictive analytic model
//!
//! The second headline contribution of the paper is "a predictive analytic
//! model that provides estimates for determining the feasibility of
//! implementing a given stencil application on an FPGA using the proposed
//! design strategy … It predicts the runtime of the resulting FPGA synthesis
//! of the application accurate to within ±15 % of the achieved runtime."
//!
//! This crate implements that model:
//!
//! * [`equations`] — the paper's equations (2)–(15) as documented free
//!   functions (cycle counts, per-cell cost, blocked throughput, batching).
//! * [`feasibility`] — `V_max` from channel bandwidth (eq. 4), `p_dsp`
//!   (eq. 6), `p_mem` (eq. 7), and the §VI "determinants" as a
//!   [`feasibility::FeasibilityReport`].
//! * [`blocking`] — tile-size optimization: `M_opt = sqrt(mem/kpD)`
//!   (eq. 11), `p_max = M/3D` (eq. 12), and the *quantized* tile
//!   recommendation that reproduces the paper's concrete `M = 8192` /
//!   `M = N = 768` choices.
//! * [`mod@predict`] — runtime predictions for a synthesized design:
//!   [`predict::PredictionLevel::Ideal`] is the pure paper model;
//!   [`predict::PredictionLevel::Extended`] adds the two calibrated
//!   overheads (per-row issue gap, host enqueue latency) that §IV discusses
//!   qualitatively.
//! * [`dse`] — design-space exploration: sweep `(V, p, tile)`, synthesize
//!   each candidate on the simulated device, rank by predicted runtime —
//!   the "model significantly narrows the design space" workflow of §V-A.
//!   Every candidate is checked and predicted afresh: the model keeps no
//!   cache, since a sweep never repeats a candidate. [`dse::best`] finds
//!   [`explore`]'s head by branch and bound: it plans the points in order
//!   of eq. (2)'s ideal clock count, a floor under each one's runtime,
//!   stops at the first floor above the leader's, and predicts only the
//!   winner.
//! * [`accuracy`] — the ±15 % validation harness comparing predictions
//!   against the cycle-level simulator across a configuration suite.
//! * [`error`] — [`ModelError`], the typed error every public model API
//!   returns instead of panicking on out-of-domain inputs.
//! * [`verify`] — spec cross-validation against `sf-absint`'s probe
//!   execution of the kernel, so the model never reasons from drifted
//!   eq. (5)/(6) inputs.

pub mod accuracy;
pub mod blocking;
pub mod dse;
pub mod equations;
pub mod error;
pub mod feasibility;
pub mod predict;
pub mod verify;

pub use accuracy::{accuracy_suite, AccuracyCase, AccuracyStats};
pub use dse::{explore, explore_jobs, Candidate, DseOptions};
pub use error::ModelError;
pub use feasibility::FeasibilityReport;
/// [`predict()`] under the name the benchmark package pins (`sfbench`); the
/// model keeps no cache, so it is the same function.
pub use predict::predict as predict_cached;
pub use predict::{predict, predict_sharded, Prediction, PredictionLevel};
pub use verify::verify_spec;

/// Kept because the benchmark package (`sfbench`) calls it to start each
/// request as a fresh process would: the model keeps no cache, so there is
/// nothing to clear and this does nothing.
pub fn clear_caches() {}
