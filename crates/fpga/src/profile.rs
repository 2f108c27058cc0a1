//! Schedule-level telemetry: the recorder sink of the schedule walk
//! ([`crate::cycles::Schedule`]). It turns a walked schedule into recorder
//! events — per-pass and per-segment spans, per-channel AXI utilisation,
//! FIFO backpressure, and a compute/memory/backpressure stall breakdown —
//! for any device count: a schedule-only trace ([`trace_schedule`],
//! [`trace_devices`]) or the schedule of a streaming run
//! ([`crate::driver`]). A sharded schedule adds its headline numbers as
//! metadata, each device's pass on `dev{k}/pipeline`, and the analytic
//! halo-exchange charges.
//!
//! The emitted spans follow the *deterministic* streaming schedule (model
//! cycles, not wall clock), so they reconcile exactly with the plan's
//! totals:
//!
//! * spans on the `pipeline` track sum to `total_cycles`;
//! * on one device, spans on the `segments` track (tiles plus the
//!   pipeline-latency remainder) sum to `cycles_per_pass`; a sharded run
//!   draws each device's pass and exposed exchange on `dev{k}/pipeline`;
//! * the compute/memory stall attribution equals
//!   [`crate::trace::PlanTrace::stall_breakdown`] summed over devices, with
//!   FIFO backpressure on top.
//!
//! Both invariants are pinned by property tests.
//!
//! One device also prices backpressure on the FIFO between the compute
//! chain and the write engine, in closed form over a whole pass
//! (`fifo::chain_backpressure`). The segment that streams the most rows stands
//! for the pass: the chain offers a row every `max(compute, read) + gap`
//! cycles, the write engine drains one every `write` cycles, and the FIFO
//! holds [`fifo::interstage_depth`] vector words. Every row of the segment
//! costs the same and every pass is alike, so the run's counts are one
//! pass's times the pass count.

use crate::cycles::{CyclePlan, RowBound, Schedule, ShardedPlan};
use crate::design::{StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::ExecError;
use crate::fifo;
use crate::link::MultiConfig;
use crate::trace::{self, PlanTrace};
use serde::Value;
use sf_telemetry::{Recorder, StallClass};

/// Individual pass spans beyond this count are collapsed into one
/// aggregate span so 60 000-iteration runs don't emit 1 000 identical
/// events.
const MAX_PASS_SPANS: u64 = 256;

/// Emit the full schedule trace for `(design, wl, niter)` into `rec` and
/// return the cycle plan it narrates. With a disabled recorder this is
/// exactly [`crate::cycles::plan`] (the all-zero plan for a mode that
/// cannot stream `wl`).
pub fn trace_schedule(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    rec: &mut Recorder,
) -> CyclePlan {
    trace_devices(dev, design, wl, niter, &MultiConfig::default(), rec)
        .map_or_else(|_| CyclePlan::default(), |p| p.merged)
}

/// [`trace_schedule`] on `devices.devices` devices, without streaming any
/// numerics (paper-scale profiles): record the schedule and return its
/// sharded plan. On more than one device, spans on the `pipeline` track
/// sum to `merged.total_cycles`, whose pass wall-clock is the slowest
/// device, exposed exchange included.
///
/// # Errors
/// The walk's errors ([`Schedule::new`]): a device count the workload or
/// design cannot be sharded across, or a mode that cannot stream `wl`.
pub fn trace_devices(
    dev: &FpgaDevice,
    design: &StencilDesign,
    wl: &Workload,
    niter: u64,
    devices: &MultiConfig,
    rec: &mut Recorder,
) -> Result<ShardedPlan, ExecError> {
    let sched = Schedule::new(dev, design, wl, devices)?;
    let plan = sched.sharded_plan(niter);
    record_run(rec, &sched, &plan);
    Ok(plan)
}

/// Record a walked schedule whose sharded plan is `plan`: its headline
/// numbers as trace metadata and the walk ([`record_schedule`]). On more
/// than one device, the halo exchange is charged from the plan rather than
/// measured, so it is identical at any `jobs`: `exchange.bytes` and
/// `exchange.messages` counters, and the exposed cycles as
/// [`StallClass::Exchange`].
pub(crate) fn record_run(rec: &mut Recorder, sched: &Schedule<'_>, plan: &ShardedPlan) {
    if !rec.is_enabled() {
        return;
    }
    let merged = &plan.merged;
    if sched.is_sharded() {
        rec.set_meta("devices", Value::U64(plan.devices as u64));
        rec.set_meta("halo_units", Value::U64(plan.halo as u64));
        rec.set_meta("sharded_passes", Value::U64(merged.passes));
        rec.set_meta("sharded_cycles_per_pass", Value::U64(merged.cycles_per_pass));
        rec.set_meta("exchange_bytes_per_pass", Value::U64(plan.exchange_bytes_per_pass));
        rec.counter_add("exchange.bytes", merged.passes * plan.exchange_bytes_per_pass);
        rec.counter_add("exchange.messages", merged.passes * plan.exchange_messages_per_pass);
        rec.stall(StallClass::Exchange, plan.exchange_exposed_cycles);
    } else {
        let design = sched.design;
        rec.set_meta("mode", Value::String(format!("{:?}", design.mode)));
        rec.set_meta("v", Value::U64(design.v as u64));
        rec.set_meta("p", Value::U64(design.p as u64));
        rec.set_meta("freq_mhz", Value::F64(design.freq_hz / 1e6));
        rec.set_meta("passes", Value::U64(merged.passes));
        rec.set_meta("cycles_per_pass", Value::U64(merged.cycles_per_pass));
        rec.set_meta("total_cycles", Value::U64(merged.total_cycles));
    }
    record_schedule(rec, sched, merged);
}

/// Record a walked schedule whose plan is `plan`: pass `i` spans
/// `[i·cycles_per_pass, (i+1)·cycles_per_pass)` on the `pipeline` track;
/// the first pass's segments are drawn under their [`trace::explain`]
/// labels; and every segment's streamed rows are charged to the stall
/// class its row bound names.
///
/// On one device the segments tile the `segments` track with their AXI
/// channel utilisation, closed by the pipeline latency, and a FIFO model
/// prices backpressure. A sharded schedule draws each device's pass on
/// `dev{k}/pipeline`, followed by the exchange cycles its interior compute
/// could not hide.
pub(crate) fn record_schedule(rec: &mut Recorder, sched: &Schedule<'_>, plan: &CyclePlan) {
    if !rec.is_enabled() {
        return;
    }
    let pipe = rec.track("pipeline");
    let cpp = plan.cycles_per_pass;
    let shown = plan.passes.min(MAX_PASS_SPANS);
    for i in 0..shown {
        rec.span(pipe, &format!("pass {i}"), i * cpp, (i + 1) * cpp);
    }
    if plan.passes > shown {
        rec.span_with_args(
            pipe,
            &format!("passes {shown}..{}", plan.passes),
            shown * cpp,
            plan.passes * cpp,
            vec![("aggregated_passes".into(), Value::U64(plan.passes - shown))],
        );
    }
    let tr = trace::narrate(sched, plan);
    if sched.is_sharded() {
        let latency = sched.design.pipeline_latency_cycles;
        for (s, t) in sched.segments().zip(&tr.segments) {
            let lane = rec.track(&format!("dev{}/pipeline", s.device));
            let pass = s.cycles() + latency;
            rec.span(lane, &t.label, 0, pass);
            let exposed = sched.exchange(s.device).exposed;
            if exposed > 0 {
                rec.span(lane, "exchange (exposed)", pass, pass + exposed);
            }
        }
        attribute_stalls(rec, sched, plan.passes);
    } else {
        record_segments(rec, sched, &tr, plan);
    }
}

/// Charge each segment's `passes × rows × row cycles` to the stall class
/// its [`RowBound`] names, summed over devices. The static plan sizes
/// inter-stage FIFOs so chained stages never backpressure
/// ([`fifo::interstage_depth`]); backpressure on the write side is priced
/// separately.
fn attribute_stalls(rec: &mut Recorder, sched: &Schedule<'_>, passes: u64) {
    let (mut compute, mut memory) = (0u64, 0u64);
    for s in sched.segments() {
        let cycles = passes * s.rows() * s.timing.total();
        match s.bound() {
            RowBound::Compute => compute += cycles,
            RowBound::Memory => memory += cycles,
        }
    }
    rec.stall(StallClass::Compute, compute);
    rec.stall(StallClass::Memory, memory);
}

/// The single-device detail of [`record_schedule`]: segment spans with
/// AXI utilisation, stall attribution and FIFO backpressure.
fn record_segments(rec: &mut Recorder, sched: &Schedule<'_>, tr: &PlanTrace, plan: &CyclePlan) {
    let (dev, design) = (sched.dev, sched.design);
    // Each segment costs (data + fill) rows at its row rate plus its
    // turnaround; the pass closes with the compute-pipeline latency. The
    // sum reproduces cycles_per_pass exactly.
    let seg_track = rec.track("segments");
    let mut cursor = 0u64;
    for (s, t) in sched.segments().zip(&tr.segments) {
        let dur = s.cycles();
        rec.span_with_args(
            seg_track,
            &t.label,
            cursor,
            cursor + dur,
            vec![
                ("data_rows".into(), Value::U64(s.data_rows)),
                ("fill_rows".into(), Value::U64(s.fill_rows)),
                ("row_cycles".into(), Value::U64(s.timing.total())),
                ("bound".into(), Value::String(format!("{:?}", s.bound()))),
            ],
        );
        // Per-channel burst utilisation for this segment's rows: bytes are
        // spread evenly across the assigned channels, so every channel in a
        // direction sees the same duty cycle.
        for ch in 0..design.read_channels {
            let track = rec.track(&format!("axi:rd{ch}"));
            rec.gauge(track, "utilization", cursor, s.timing.read_utilization());
        }
        for ch in 0..design.write_channels {
            let track = rec.track(&format!("axi:wr{ch}"));
            rec.gauge(track, "utilization", cursor, s.timing.write_utilization());
        }
        cursor += dur;
    }
    rec.span(seg_track, "pipeline latency", cursor, cursor + design.pipeline_latency_cycles);
    debug_assert_eq!(
        cursor + design.pipeline_latency_cycles,
        plan.cycles_per_pass,
        "segment spans must tile cycles_per_pass"
    );
    attribute_stalls(rec, sched, plan.passes);

    // ---- FIFO backpressure between the compute chain and the write engine --
    // With write ≤ producer rate (every design the static plan calls compute-
    // or read-bound) the FIFO never fills and zero backpressure is recorded,
    // matching PlanTrace. A write-dominated segment surfaces producer stalls.
    if let Some(s) = sched.segments().max_by_key(|s| s.rows()) {
        let t = s.timing;
        let depth_words =
            fifo::interstage_depth(dev.axi_burst_bytes, design.v, design.spec.elem_bytes);
        let cap_rows = (depth_words * design.v / s.x.read_len.max(1)).max(1) as u64;
        let rows = s.rows();
        let (stalls, high_water) =
            fifo::chain_backpressure(rows, t.compute.max(t.read) + t.gap, t.write.max(1), cap_rows);
        rec.counter_add("fifo.total_pushes", rows.saturating_mul(plan.passes));
        rec.counter_add("fifo.stalls", stalls.saturating_mul(plan.passes));
        let fifo_track = rec.track("fifo:chain->wr");
        rec.gauge(fifo_track, "high_water", 0, high_water as f64);
        rec.gauge(fifo_track, "capacity", 0, cap_rows as f64);
        let stall_rate =
            if stalls == 0 { 0.0 } else { stalls as f64 / stalls.saturating_add(rows) as f64 };
        rec.gauge(fifo_track, "stall_rate", 0, stall_rate);
        rec.stall(StallClass::Backpressure, stalls.saturating_mul(plan.passes));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles;
    use crate::design::{synthesize, ExecMode, MemKind};
    use sf_kernels::StencilSpec;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    /// What [`fifo::chain_backpressure`] computes, stepped one cycle at a time
    /// over an occupancy count.
    fn stepped_backpressure(rows: u64, produce: u64, drain: u64, cap: u64) -> (u64, u64) {
        let (mut held, mut high_water, mut stalls) = (0, 0, 0);
        let (mut pushed, mut popped, mut next_push, mut next_pop) = (0, 0, 0, drain);
        let mut cycle = 0;
        while popped < rows {
            if pushed < rows && cycle >= next_push {
                if held == cap {
                    stalls += 1;
                } else {
                    held += 1;
                    pushed += 1;
                    high_water = high_water.max(held);
                    next_push = cycle + produce;
                }
            }
            if held > 0 && cycle >= next_pop {
                held -= 1;
                popped += 1;
                next_pop = cycle + drain;
            }
            cycle += 1;
        }
        (stalls, high_water)
    }

    #[test]
    fn closed_form_backpressure_matches_the_stepped_model() {
        // write engines faster than, as fast as and slower than the chain,
        // one-row FIFOs, and passes shorter and longer than the FIFO
        let grid = (0..=40).flat_map(|rows| {
            (1..=9).flat_map(move |produce| {
                (1..=9).flat_map(move |drain| (1..=6).map(move |cap| (rows, produce, drain, cap)))
            })
        });
        // plus longer passes, and the value cases of `fifo`'s tests: matched
        // rates, a chain twice as fast behind a 4- and a 64-row FIFO, and one
        // four times as fast
        let long = [
            (460, 7, 9, 3),
            (460, 9, 7, 3),
            (4096, 2, 3, 16),
            (4096, 5, 5, 1),
            (100, 3, 3, 4),
            (200, 1, 2, 4),
            (50, 1, 2, 64),
            (400, 1, 4, 8),
        ];
        for (rows, produce, drain, cap) in grid.chain(long) {
            assert_eq!(
                fifo::chain_backpressure(rows, produce, drain, cap),
                stepped_backpressure(rows, produce, drain, cap),
                "{rows} rows, produced every {produce}, drained every {drain}, {cap} deep"
            );
        }
    }

    #[test]
    fn pass_spans_sum_to_total_cycles() {
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let mut rec = Recorder::enabled(300.0);
        let plan = trace_schedule(&dev(), &ds, &wl, 600, &mut rec);
        let pipe = rec.find_track("pipeline").unwrap();
        assert_eq!(rec.track_span_cycles(pipe), plan.total_cycles);
        assert_eq!(rec.max_cycle(), plan.total_cycles);
    }

    #[test]
    fn aggregated_passes_still_sum_exactly() {
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let mut rec = Recorder::enabled(300.0);
        // 60 000 iters → 1000 passes > MAX_PASS_SPANS → aggregate tail span.
        let plan = trace_schedule(&dev(), &ds, &wl, 60_000, &mut rec);
        assert_eq!(plan.passes, 1000);
        let pipe = rec.find_track("pipeline").unwrap();
        assert_eq!(rec.track_span_cycles(pipe), plan.total_cycles);
        let n_spans = rec.spans().iter().filter(|s| s.track == pipe).count() as u64;
        assert_eq!(n_spans, MAX_PASS_SPANS + 1);
    }

    #[test]
    fn segment_spans_tile_one_pass() {
        let wl = Workload::D2 { nx: 15_000, ny: 15_000, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Tiled1D { tile_m: 4096 },
            MemKind::Ddr4,
            &wl,
        )
        .unwrap();
        let mut rec = Recorder::enabled(300.0);
        let plan = trace_schedule(&dev(), &ds, &wl, 6_000, &mut rec);
        let seg = rec.find_track("segments").unwrap();
        assert_eq!(rec.track_span_cycles(seg), plan.cycles_per_pass);
    }

    #[test]
    fn compute_memory_attribution_matches_plan_trace() {
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let mut rec = Recorder::enabled(300.0);
        trace_schedule(&dev(), &ds, &wl, 600, &mut rec);
        let expect = trace::explain(&dev(), &ds, &wl, 600).stall_breakdown();
        let got = rec.stall_breakdown();
        assert_eq!(got.compute_cycles, expect.compute_cycles);
        assert_eq!(got.memory_cycles, expect.memory_cycles);
        // Poisson baseline: write side no slower than compute → no
        // backpressure, and the FIFO counters say so.
        assert_eq!(got.backpressure_cycles, 0);
        assert_eq!(rec.counter("fifo.stalls"), 0);
        assert!(rec.counter("fifo.total_pushes") > 0);
    }

    #[test]
    fn axi_utilization_gauges_per_channel() {
        let wl = Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::jacobi(),
            64,
            3,
            ExecMode::Tiled2D { tile_m: 640, tile_n: 640 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let mut rec = Recorder::enabled(300.0);
        trace_schedule(&dev(), &ds, &wl, 120, &mut rec);
        // One gauge track per read and write channel.
        for ch in 0..ds.read_channels {
            let t = rec.find_track(&format!("axi:rd{ch}")).unwrap();
            let g: Vec<_> = rec.gauges().iter().filter(|g| g.track == t).collect();
            assert!(!g.is_empty());
            assert!(g.iter().all(|g| (0.0..=1.0).contains(&g.value)));
        }
        assert!(rec.track_names().iter().any(|t| t.starts_with("axi:wr")));
    }

    #[test]
    fn disabled_recorder_reduces_to_plan() {
        let wl = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Baseline,
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let mut rec = Recorder::disabled();
        let plan = trace_schedule(&dev(), &ds, &wl, 600, &mut rec);
        assert_eq!(plan, cycles::plan(&dev(), &ds, &wl, 600));
        assert!(rec.spans().is_empty());
    }
}
