//! Fault-aware execution: the fault hook of the chain runner and the AXI
//! fault/retry model of the cycle plan.
//!
//! A run that carries a fault injector ([`crate::driver::Faults`]) streams
//! through the same chain runner as every other run
//! (`window::run_chain`), with a `FaultHook` consulting the
//! [`FaultInjector`] at each opportunity point:
//!
//! * **window-buffer cells** — a [`FaultKind::BitFlip`](sf_faults::FaultKind)
//!   flips one bit of one lane before the cell enters the first window
//!   buffer; the run completes but the output checksum vs the golden
//!   reference catches it.
//! * **stream elements** — `FifoDrop` starves the downstream stages, which
//!   the [`Watchdog`] reports as a deadlock with a structured diagnosis;
//!   `FifoDup` overflows the input FIFO (the surplus element is discarded at
//!   the full queue) and shifts the stream; `FifoCorrupt` mangles a payload.
//! * **AXI bursts** — `AxiDelay`/`AxiFail` go through the
//!   [`RetryPolicy`] backoff model ([`plan_with_faults`]): recovered bursts
//!   charge their extra cycles to the [`CyclePlan`] (and telemetry), an
//!   exhausted retry budget becomes [`ExecError::AxiExhausted`].
//!
//! Every datapath fault and shape mismatch is a typed [`ExecError`], never
//! a panic. With a [`FaultInjector::disabled`] injector a fault-aware run
//! is bit-exact with a plain one.

use crate::cycles::{self, CyclePlan};
use crate::design::{StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::ExecError;
use sf_faults::{AxiVerdict, FaultInjector, RetryPolicy, StreamFault, Watchdog};
use sf_mesh::Element;

/// Flip bit `bit` of lane `lane` of `cell` in a streamed unit.
fn apply_bitflip<T: Element>(unit: &mut [T], cell: usize, lane: usize, bit: u32) {
    let mut v = unit[cell];
    let bits = v.lane(lane).to_bits() ^ (1u32 << (bit % 32));
    v.set_lane(lane, f32::from_bits(bits));
    unit[cell] = v;
}

/// The per-unit fault hook of a chain run: consults the injector once per
/// input unit and watches for forward progress. One hook serves every
/// pass of a run; each chain run starts a fresh watchdog.
pub(crate) struct FaultHook<'i> {
    inj: &'i mut FaultInjector,
    /// Watchdog budget of one pass ([`pass_budget`]).
    budget: u64,
    dog: Watchdog,
    stream_units: usize,
    /// The streamed unit: `"rows"` or `"planes"`.
    units: &'static str,
    /// `"streaming input rows"` / `"streaming input planes"`.
    streaming: String,
}

impl<'i> FaultHook<'i> {
    pub(crate) fn new(inj: &'i mut FaultInjector, budget: u64) -> Self {
        FaultHook {
            inj,
            budget,
            dog: Watchdog::new(budget, 0),
            stream_units: 0,
            units: "",
            streaming: String::new(),
        }
    }

    /// Arm the watchdog for a chain run of `stream_units` `units`.
    pub(crate) fn start(&mut self, stream_units: usize, units: &'static str) {
        self.dog = Watchdog::new(self.budget, stream_units as u64);
        self.stream_units = stream_units;
        self.units = units;
        self.streaming = format!("streaming input {units}");
    }

    /// Apply the faults the injector draws for input unit `j`; returns how
    /// many copies of it enter the input FIFO (0 drops it).
    pub(crate) fn copies<T: Element>(&mut self, j: usize, unit: &mut [T]) -> usize {
        if let Some(flip) = self.inj.window_bitflip(0, j, unit.len(), T::LANES) {
            apply_bitflip(unit, flip.cell, flip.lane, flip.bit);
        }
        match self.inj.stream_fault(j) {
            StreamFault::Drop => 0,
            StreamFault::Dup => 2,
            StreamFault::Corrupt => {
                // mangle the mantissa of the middle cell's first lane
                let mid = unit.len() / 2;
                apply_bitflip(unit, mid, 0, 22);
                1
            }
            StreamFault::None => 1,
        }
    }

    /// The chain's output grew from `before` to `after` units at `cycle`.
    pub(crate) fn progress(&mut self, cycle: u64, before: usize, after: usize) {
        if after > before {
            self.dog.observe(cycle, (after - before) as u64);
        }
    }

    /// Per-input-unit watchdog check.
    pub(crate) fn check(&self, cycle: u64) -> Result<(), ExecError> {
        Ok(self.dog.check(cycle, &self.streaming)?)
    }

    /// After the input ends: a stream that lost units waits forever for
    /// them — a starvation deadlock on real hardware.
    pub(crate) fn check_fed(&self, cycle: u64, fed: usize) -> Result<(), ExecError> {
        if fed == self.stream_units {
            return Ok(());
        }
        let detail = format!(
            "input stream starved: {fed}/{} {} reached the pipeline",
            self.stream_units, self.units
        );
        Err(self
            .dog
            .finish(cycle, &detail)
            .expect_err("starved stream cannot have emitted the full output")
            .into())
    }

    /// End-of-run check once the chain has drained.
    pub(crate) fn drained(&self, cycle: u64) -> Result<(), ExecError> {
        Ok(self.dog.finish(cycle, "chain drained")?)
    }
}

/// A [`CyclePlan`] with the AXI fault/retry model applied.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultyPlan {
    /// The plan including retry backoff in `total_cycles`/`runtime_s`.
    pub plan: CyclePlan,
    /// Backoff cycles added by recovered bursts.
    pub extra_axi_cycles: u64,
    /// Bursts that failed and recovered via retry.
    pub bursts_recovered: u64,
    /// Total bursts the solve issues.
    pub bursts_total: u64,
}

/// Bursts actually walked through the injector; beyond this the sampled
/// backoff is scaled to the full burst population (keeps paper-scale
/// workloads plannable).
const MAX_BURST_WALK: u64 = 65_536;

/// [`cycles::plan`] with AXI faults: every burst (up to `MAX_BURST_WALK`,
/// then scaled) is pushed through the injector's retry model. Recovered
/// bursts add their backoff to the plan; an exhausted burst aborts with
/// [`ExecError::AxiExhausted`].
pub fn plan_with_faults(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    inj: &mut FaultInjector,
    policy: &RetryPolicy,
) -> Result<FaultyPlan, ExecError> {
    let mut plan = cycles::plan(dev, design, wl, niter);
    let bytes = plan.ext_read_bytes + plan.ext_write_bytes;
    let bursts_total = (bytes / dev.axi_burst_bytes as u64).max(1);
    let walk = bursts_total.min(MAX_BURST_WALK);
    let mut extra = 0u64;
    let mut recovered = 0u64;
    for b in 0..walk {
        match inj.axi_burst(b, policy) {
            AxiVerdict::Ok => {}
            AxiVerdict::Recovered { extra_cycles, .. } => {
                extra += extra_cycles;
                recovered += 1;
            }
            AxiVerdict::Exhausted { attempts } => {
                return Err(ExecError::AxiExhausted { burst: b, attempts })
            }
        }
    }
    if bursts_total > walk {
        extra = (extra as f64 * bursts_total as f64 / walk as f64) as u64;
    }
    plan.total_cycles += extra;
    plan.runtime_s = plan.total_cycles as f64 / design.freq_hz
        + plan.host_calls as f64 * dev.host_call_latency_s;
    Ok(FaultyPlan { plan, extra_axi_cycles: extra, bursts_recovered: recovered, bursts_total })
}

/// Watchdog budget for one pass: a full pass worth of cycles with no
/// forward progress means the pipeline is wedged.
pub(crate) fn pass_budget(design: &StencilDesign, stream_units: u64, unit_cycles: u64) -> u64 {
    unit_cycles * (stream_units + cycles::fill_units(design)) + design.pipeline_latency_cycles + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, ExecMode, MemKind};
    use crate::driver::{Faults, Run};
    use crate::report::SimReport;
    use sf_faults::{FaultKind, FaultPlan};
    use sf_kernels::{reference, Jacobi3D, Poisson2D, StencilSpec};
    use sf_mesh::{norms, Batch2D, Batch3D, Mesh2D, Mesh3D};
    use sf_telemetry::Recorder;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    fn design_2d(wl: &Workload, v: usize, p: usize) -> StencilDesign {
        synthesize(&dev(), &StencilSpec::poisson(), v, p, ExecMode::Baseline, MemKind::Hbm, wl)
            .unwrap()
    }

    #[allow(clippy::type_complexity)]
    fn run_2d(
        plan: FaultPlan,
        niter: usize,
    ) -> (Result<(Batch2D<f32>, SimReport), ExecError>, Mesh2D<f32>, FaultInjector) {
        let m = Mesh2D::<f32>::random(40, 24, 7, -1.0, 1.0);
        let wl = Workload::D2 { nx: 40, ny: 24, batch: 1 };
        let ds = design_2d(&wl, 8, 4);
        let batch = Batch2D::from_meshes(std::slice::from_ref(&m));
        let mut inj = FaultInjector::new(plan);
        let mut rec = Recorder::disabled();
        let r = Run {
            faults: Faults::Injector(&mut inj),
            ..Run::new(&dev(), &ds, &[Poisson2D], niter, &mut rec)
        }
        .simulate(&batch)
        .map(|(out, rep, _)| (out, rep));
        (r, m, inj)
    }

    #[test]
    fn disabled_injector_is_bit_exact() {
        let (r, m, inj) = run_2d(FaultInjector::disabled().plan().to_owned(), 12);
        let (out, rep) = r.unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        assert!(rep.total_cycles > 0);
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn bitflip_completes_but_diverges_from_reference() {
        let (r, m, inj) = run_2d(FaultPlan::single(42, FaultKind::BitFlip, 1_000_000), 12);
        let (out, _) = r.unwrap();
        assert_eq!(inj.injected(), 1, "single-fault plan injects exactly once");
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(
            !norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()),
            "a window-buffer bit flip must corrupt the result"
        );
    }

    #[test]
    fn fifo_drop_trips_the_watchdog() {
        let (r, _, inj) = run_2d(FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000), 12);
        match r {
            Err(ExecError::Deadlock(trip)) => {
                assert!(trip.units_emitted < trip.units_expected);
                assert!(trip.to_string().contains("starved"), "{trip}");
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn fifo_dup_completes_but_diverges() {
        let (r, m, _) = run_2d(FaultPlan::single(3, FaultKind::FifoDup, 1_000_000), 12);
        let (out, _) = r.unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(!norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn fifo_corrupt_completes_but_diverges() {
        let (r, m, _) = run_2d(FaultPlan::single(5, FaultKind::FifoCorrupt, 1_000_000), 12);
        let (out, _) = r.unwrap();
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(!norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn axi_delay_recovers_and_charges_extra_cycles() {
        let (clean, _, _) = run_2d(FaultInjector::disabled().plan().to_owned(), 12);
        let (_, clean_rep) = clean.unwrap();
        let (r, m, _) = run_2d(
            FaultPlan { seed: 9, kind: FaultKind::AxiDelay, rate_ppm: 500_000, max_injections: 0 },
            12,
        );
        let (out, rep) = r.unwrap();
        // Numerically untouched but measurably slower.
        let expect = reference::run_2d(&Poisson2D, &m, 12);
        assert!(norms::bit_equal(out.mesh(0).as_slice(), expect.as_slice()));
        assert!(
            rep.total_cycles > clean_rep.total_cycles,
            "retry backoff must be visible in the plan: {} vs {}",
            rep.total_cycles,
            clean_rep.total_cycles
        );
    }

    #[test]
    fn axi_fail_exhausts_to_typed_error() {
        // 100 % failure rate over many bursts: some burst draws a failure
        // count above the retry budget.
        let (r, _, _) = run_2d(
            FaultPlan {
                seed: 11,
                kind: FaultKind::AxiFail,
                rate_ppm: 1_000_000,
                max_injections: 0,
            },
            12,
        );
        match r {
            Err(ExecError::AxiExhausted { attempts, .. }) => assert!(attempts > 0),
            other => panic!("expected AxiExhausted, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_is_an_error_not_a_panic() {
        let wl = Workload::D2 { nx: 16, ny: 8, batch: 4 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            2,
            ExecMode::Batched { b: 4 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let batch = Batch2D::<f32>::zeros(16, 8, 3);
        let mut inj = FaultInjector::disabled();
        let mut rec = Recorder::disabled();
        let r = Run {
            faults: Faults::Injector(&mut inj),
            ..Run::new(&dev(), &ds, &[Poisson2D], 2, &mut rec)
        }
        .simulate(&batch);
        assert!(matches!(r, Err(ExecError::ShapeMismatch { .. })), "{r:?}");
    }

    fn run_3d(plan: FaultPlan) -> (Result<Batch3D<f32>, ExecError>, Mesh3D<f32>) {
        let m = Mesh3D::<f32>::random(12, 10, 8, 5, -1.0, 1.0);
        let wl = Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let batch = Batch3D::from_meshes(std::slice::from_ref(&m));
        let mut inj = FaultInjector::new(plan);
        let mut rec = Recorder::disabled();
        let r = Run {
            faults: Faults::Injector(&mut inj),
            ..Run::new(&dev(), &ds, &[Jacobi3D::smoothing()], 6, &mut rec)
        }
        .simulate(&batch)
        .map(|(out, _, _)| out);
        (r, m)
    }

    #[test]
    fn resilient_3d_bit_exact_without_faults() {
        let (r, m) = run_3d(FaultInjector::disabled().plan().to_owned());
        let expect = reference::run_3d(&Jacobi3D::smoothing(), &m, 6);
        assert!(norms::bit_equal(r.unwrap().mesh(0).as_slice(), expect.as_slice()));
    }

    #[test]
    fn resilient_3d_drop_trips_watchdog() {
        let (r, _) = run_3d(FaultPlan::single(13, FaultKind::FifoDrop, 1_000_000));
        assert!(matches!(r, Err(ExecError::Deadlock(_))), "{r:?}");
    }

    #[test]
    fn same_seed_reproduces_identical_fault_runs() {
        let plan = FaultPlan::single(42, FaultKind::BitFlip, 1_000_000);
        let (r1, _, i1) = run_2d(plan, 12);
        let (r2, _, i2) = run_2d(plan, 12);
        let (o1, _) = r1.unwrap();
        let (o2, _) = r2.unwrap();
        assert!(norms::bit_equal(o1.mesh(0).as_slice(), o2.mesh(0).as_slice()));
        assert_eq!(i1.log(), i2.log());
    }
}
