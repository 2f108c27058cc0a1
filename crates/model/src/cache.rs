//! Process-wide memoized analytic-model results.
//!
//! Every consumer of the model re-derives the same pure functions: the DSE
//! sweep predicts hundreds of `(V, p, mode)` points, `Workflow::preflight`
//! re-checks the design the DSE just check-filtered, and repeated
//! `sfstencil` subcommands in one process (or one benchmark) recompute
//! identical eq. 2–15 plans. Both derivations are pure in
//! (device, design, workload), so they memoize safely behind a pair of
//! process-wide [`sf_par::Memo`] caches keyed on a deterministic `Debug`
//! fingerprint of the inputs.
//!
//! The caches are thread-safe (the parallel DSE hits them from worker
//! threads) and deterministic: a cached value is by definition the value
//! the underlying function returns, so cache hits can never change a
//! result, only skip recomputation. [`prediction_cache_stats`] /
//! [`check_cache_stats`] expose hit/miss counters for benchmarks and
//! diagnostics; [`clear_caches`] exists for tests that need cold-cache
//! timings.

use crate::error::ModelError;
use crate::predict::{predict, Prediction, PredictionLevel};
use sf_check::CheckReport;
use sf_fpga::design::{StencilDesign, Workload};
use sf_fpga::FpgaDevice;
use sf_par::{Memo, MemoStats};
use std::sync::OnceLock;

fn prediction_memo() -> &'static Memo<Prediction> {
    static MEMO: OnceLock<Memo<Prediction>> = OnceLock::new();
    MEMO.get_or_init(Memo::new)
}

fn check_memo() -> &'static Memo<CheckReport> {
    static MEMO: OnceLock<Memo<CheckReport>> = OnceLock::new();
    MEMO.get_or_init(Memo::new)
}

/// Deterministic fingerprint of the device: the `Debug` rendering covers
/// every field, so two devices collide only when they are identical.
fn device_key(dev: &FpgaDevice) -> String {
    format!("{dev:?}")
}

/// [`predict`] behind the process-wide prediction cache.
///
/// Keyed on (device, design, workload, iterations, level); errors are
/// propagated and never cached.
pub fn predict_cached(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    level: PredictionLevel,
) -> Result<Prediction, ModelError> {
    let key = prediction_key(dev, design, wl, niter, level);
    prediction_memo().try_get_or_insert_with(&key, || predict(dev, design, wl, niter, level))
}

fn prediction_key(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    level: PredictionLevel,
) -> String {
    format!("predict|{}|{design:?}|{wl:?}|{niter}|{level:?}", device_key(dev))
}

/// [`sf_check::check`] behind the process-wide check-report cache.
///
/// The DSE pruning filter and `Workflow::preflight` check the same
/// configurations — a preflight of the DSE's winner is a guaranteed hit.
pub fn check_cached(dev: &FpgaDevice, design: &sf_check::Design) -> CheckReport {
    let key = format!("check|{}|{design:?}", device_key(dev));
    check_memo().get_or_insert_with(&key, || sf_check::check(dev, design))
}

/// Hit/miss/entry counters of the prediction cache.
pub fn prediction_cache_stats() -> MemoStats {
    prediction_memo().stats()
}

/// Hit/miss/entry counters of the check-report cache.
pub fn check_cache_stats() -> MemoStats {
    check_memo().stats()
}

/// Drop every cached model result (tests and cold-cache benchmarks).
pub fn clear_caches() {
    prediction_memo().clear();
    check_memo().clear();
}

/// The cached prediction for these inputs, without computing one on a miss.
#[cfg(test)]
pub(crate) fn cached_prediction(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    level: PredictionLevel,
) -> Option<Prediction> {
    prediction_memo().get(&prediction_key(dev, design, wl, niter, level))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_fpga::design::{synthesize, ExecMode};
    use sf_fpga::MemKind;
    use sf_kernels::StencilSpec;

    #[test]
    fn cached_prediction_matches_uncached() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 96, ny: 96, batch: 1 };
        let ds =
            synthesize(&dev, &StencilSpec::poisson(), 8, 4, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let direct = predict(&dev, &ds, &wl, 500, PredictionLevel::Extended).unwrap();
        let c1 = predict_cached(&dev, &ds, &wl, 500, PredictionLevel::Extended).unwrap();
        let c2 = predict_cached(&dev, &ds, &wl, 500, PredictionLevel::Extended).unwrap();
        assert_eq!(direct.cycles, c1.cycles);
        assert_eq!(c1.cycles, c2.cycles);
        assert_eq!(direct.runtime_s.to_bits(), c2.runtime_s.to_bits());
    }

    #[test]
    fn check_cache_returns_identical_reports() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 128, ny: 128, batch: 1 };
        let d = sf_check::Design::new(
            StencilSpec::poisson(),
            8,
            4,
            ExecMode::Baseline,
            MemKind::Hbm,
            wl,
        );
        let direct = sf_check::check(&dev, &d);
        let cached = check_cached(&dev, &d);
        assert_eq!(direct, cached);
        assert_eq!(check_cached(&dev, &d), cached);
    }

    #[test]
    fn distinct_levels_and_iters_get_distinct_entries() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 80, ny: 80, batch: 1 };
        let ds =
            synthesize(&dev, &StencilSpec::poisson(), 8, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let a = predict_cached(&dev, &ds, &wl, 100, PredictionLevel::Ideal).unwrap();
        let b = predict_cached(&dev, &ds, &wl, 200, PredictionLevel::Ideal).unwrap();
        assert!(b.cycles > a.cycles, "different iteration counts must not collide");
    }
}
