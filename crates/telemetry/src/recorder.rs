//! The event recorder: tracks, spans, counters, gauges and stall
//! attribution, all stamped in model cycles.

use crate::divergence::Divergence;
use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;

/// Interned handle for a named track (stage, FIFO, AXI channel, …).
///
/// Tracks map to trace-viewer threads in the Chrome exporter, so each
/// pipeline component gets its own swimlane.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TrackId(pub u32);

/// A closed interval of model cycles on one track.
#[derive(Clone, Debug, Serialize)]
pub struct SpanEvent {
    pub track: TrackId,
    pub name: String,
    pub start_cycle: u64,
    pub end_cycle: u64,
    pub args: Vec<(String, Value)>,
}

impl SpanEvent {
    pub fn duration(&self) -> u64 {
        self.end_cycle.saturating_sub(self.start_cycle)
    }
}

/// A point event on a track (e.g. "buffer primed").
#[derive(Clone, Debug, Serialize)]
pub struct InstantEvent {
    pub track: TrackId,
    pub name: String,
    pub cycle: u64,
}

/// One sample of a time-varying quantity (FIFO occupancy, burst
/// utilisation, …). Rendered as a counter track by the Chrome exporter.
#[derive(Clone, Debug, Serialize)]
pub struct GaugeSample {
    pub track: TrackId,
    pub name: String,
    pub cycle: u64,
    pub value: f64,
}

/// What a stalled (non-productive) cycle was waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StallClass {
    /// Pipeline limited by datapath depth/initiation interval.
    Compute,
    /// Pipeline limited by external-memory bandwidth.
    Memory,
    /// Pipeline limited by a full downstream FIFO.
    Backpressure,
    /// Cycles spent on checkpoint writes, ABFT checks and rollback
    /// replay in the recovery layer (`sf-recover`).
    Checkpoint,
    /// Cycles spent on inter-device halo exchange over the modeled
    /// device-to-device link (`sf_fpga::link`), net of compute overlap.
    Exchange,
}

/// Cycle totals attributed to each stall class.
///
/// "Attributed" cycles are row cycles classified by which resource bounds
/// them — the same classification `PlanTrace::RowBound` makes per segment —
/// plus FIFO backpressure observed during dataflow simulation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StallBreakdown {
    pub compute_cycles: u64,
    pub memory_cycles: u64,
    pub backpressure_cycles: u64,
    /// Recovery-layer overhead (checkpoint writes, ABFT checks, rollback
    /// replay); zero everywhere the recovery layer is not engaged.
    pub checkpoint_cycles: u64,
    /// Inter-device halo-exchange overhead (link latency plus serialized
    /// transfer cycles not hidden behind interior compute); zero for
    /// single-device runs.
    pub exchange_cycles: u64,
}

impl StallBreakdown {
    pub fn total(&self) -> u64 {
        self.compute_cycles
            + self.memory_cycles
            + self.backpressure_cycles
            + self.checkpoint_cycles
            + self.exchange_cycles
    }

    /// Cycles attributed to `class`.
    pub fn cycles(&self, class: StallClass) -> u64 {
        match class {
            StallClass::Compute => self.compute_cycles,
            StallClass::Memory => self.memory_cycles,
            StallClass::Backpressure => self.backpressure_cycles,
            StallClass::Checkpoint => self.checkpoint_cycles,
            StallClass::Exchange => self.exchange_cycles,
        }
    }

    /// Fraction of attributed cycles in `class` (0.0 when nothing recorded).
    pub fn fraction(&self, class: StallClass) -> f64 {
        let t = self.total();
        if t == 0 {
            return 0.0;
        }
        self.cycles(class) as f64 / t as f64
    }

    /// The class holding the most attributed cycles. Ties keep the
    /// earlier-listed class, preserving the original compute-first bias.
    pub fn dominant(&self) -> StallClass {
        let mut best = (StallClass::Compute, self.compute_cycles);
        for (class, cycles) in [
            (StallClass::Memory, self.memory_cycles),
            (StallClass::Backpressure, self.backpressure_cycles),
            (StallClass::Checkpoint, self.checkpoint_cycles),
            (StallClass::Exchange, self.exchange_cycles),
        ] {
            if cycles > best.1 {
                best = (class, cycles);
            }
        }
        best.0
    }
}

/// Cycle-stamped event recorder.
///
/// Construct with [`Recorder::enabled`] to collect events or
/// [`Recorder::disabled`] for a no-op sink: every recording method begins
/// with a single `if !self.on` branch and touches nothing else when off,
/// so instrumented simulator paths pay (almost) nothing unless profiling
/// was requested.
#[derive(Clone, Debug)]
pub struct Recorder {
    on: bool,
    /// Clock used by exporters to convert cycles to wall time.
    cycles_per_us: f64,
    tracks: Vec<String>,
    spans: Vec<SpanEvent>,
    instants: Vec<InstantEvent>,
    gauges: Vec<GaugeSample>,
    counters: BTreeMap<String, u64>,
    stalls: StallBreakdown,
    divergence: Option<Divergence>,
    meta: Vec<(String, Value)>,
    /// Worker count the producing run was configured with (`--jobs`);
    /// `None` until [`Recorder::set_jobs`] is called.
    jobs: Option<u64>,
    /// Shard recorders folded in via [`Recorder::merge_shards`].
    shards_merged: u64,
}

impl Recorder {
    /// A recorder that collects events. `cycles_per_us` is the design
    /// clock in MHz (cycles per microsecond), used only for export.
    pub fn enabled(cycles_per_us: f64) -> Self {
        Recorder {
            on: true,
            cycles_per_us: if cycles_per_us > 0.0 { cycles_per_us } else { 1.0 },
            tracks: Vec::new(),
            spans: Vec::new(),
            instants: Vec::new(),
            gauges: Vec::new(),
            counters: BTreeMap::new(),
            stalls: StallBreakdown::default(),
            divergence: None,
            meta: Vec::new(),
            jobs: None,
            shards_merged: 0,
        }
    }

    /// A no-op sink: all recording methods return after one branch.
    pub fn disabled() -> Self {
        let mut r = Self::enabled(1.0);
        r.on = false;
        r
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.on
    }

    /// Intern a track name; repeated calls with the same name return the
    /// same id. Disabled recorders return a dummy id.
    pub fn track(&mut self, name: &str) -> TrackId {
        if !self.on {
            return TrackId(0);
        }
        if let Some(i) = self.tracks.iter().position(|t| t == name) {
            return TrackId(i as u32);
        }
        self.tracks.push(name.to_string());
        TrackId((self.tracks.len() - 1) as u32)
    }

    /// Record a `[start_cycle, end_cycle)` span on `track`.
    #[inline]
    pub fn span(&mut self, track: TrackId, name: &str, start_cycle: u64, end_cycle: u64) {
        if !self.on {
            return;
        }
        self.spans.push(SpanEvent {
            track,
            name: name.to_string(),
            start_cycle,
            end_cycle,
            args: Vec::new(),
        });
    }

    /// Record a span carrying extra key/value arguments.
    #[inline]
    pub fn span_with_args(
        &mut self,
        track: TrackId,
        name: &str,
        start_cycle: u64,
        end_cycle: u64,
        args: Vec<(String, Value)>,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(SpanEvent { track, name: name.to_string(), start_cycle, end_cycle, args });
    }

    /// Record a point event.
    #[inline]
    pub fn instant(&mut self, track: TrackId, name: &str, cycle: u64) {
        if !self.on {
            return;
        }
        self.instants.push(InstantEvent { track, name: name.to_string(), cycle });
    }

    /// Sample a gauge (occupancy, utilisation, …) at `cycle`.
    #[inline]
    pub fn gauge(&mut self, track: TrackId, name: &str, cycle: u64, value: f64) {
        if !self.on {
            return;
        }
        self.gauges.push(GaugeSample { track, name: name.to_string(), cycle, value });
    }

    /// Add `delta` to the named monotonic counter.
    #[inline]
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if !self.on {
            return;
        }
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    /// Attribute `cycles` to a stall class.
    #[inline]
    pub fn stall(&mut self, class: StallClass, cycles: u64) {
        if !self.on {
            return;
        }
        match class {
            StallClass::Compute => self.stalls.compute_cycles += cycles,
            StallClass::Memory => self.stalls.memory_cycles += cycles,
            StallClass::Backpressure => self.stalls.backpressure_cycles += cycles,
            StallClass::Checkpoint => self.stalls.checkpoint_cycles += cycles,
            StallClass::Exchange => self.stalls.exchange_cycles += cycles,
        }
    }

    /// Record the predicted-vs-simulated divergence for this run.
    pub fn set_divergence(&mut self, d: Divergence) {
        if !self.on {
            return;
        }
        self.divergence = Some(d);
    }

    /// Record the worker count this run was configured with (the resolved
    /// `--jobs` value). Exported by the flat-metrics dump so aggregated
    /// output distinguishes parallel runs from serial ones.
    pub fn set_jobs(&mut self, jobs: u64) {
        if !self.on {
            return;
        }
        self.jobs = Some(jobs);
    }

    /// Attach run-level metadata (app name, mesh, …) shown by exporters.
    pub fn set_meta(&mut self, key: &str, value: Value) {
        if !self.on {
            return;
        }
        if let Some(slot) = self.meta.iter_mut().find(|(k, _)| k == key) {
            slot.1 = value;
        } else {
            self.meta.push((key.to_string(), value));
        }
    }

    // ---- shard merging (parallel execution) --------------------------------

    /// Merge per-worker shard recorders into this one, deterministically.
    ///
    /// Parallel executors (`sf-fpga`'s batch engine) record each work
    /// item's events into a private shard `Recorder`, collect the shards
    /// in **work-item order** (never thread-completion order), and merge
    /// them here. The merge is a pure function of the shard list:
    ///
    /// * shard tracks are re-interned in shard order and every event's
    ///   [`TrackId`] is remapped, so identically named tracks from
    ///   different shards coalesce;
    /// * spans, instants and gauges are appended in cycle-stamp order,
    ///   with (shard index, within-shard sequence) as the tie-break —
    ///   byte-identical output however many worker threads produced the
    ///   shards;
    /// * counters and stall attributions are summed.
    ///
    /// Shard-level `meta` and `divergence` are run-level concerns and are
    /// intentionally **not** merged — they stay owned by `self`.
    pub fn merge_shards(&mut self, shards: Vec<Recorder>) {
        if !self.on {
            return;
        }
        let mut spans: Vec<(u64, usize, usize, SpanEvent)> = Vec::new();
        let mut instants: Vec<(u64, usize, usize, InstantEvent)> = Vec::new();
        let mut gauges: Vec<(u64, usize, usize, GaugeSample)> = Vec::new();
        for (si, shard) in shards.into_iter().enumerate() {
            self.shards_merged += 1 + shard.shards_merged;
            let remap: Vec<TrackId> = shard.tracks.iter().map(|t| self.track(t)).collect();
            let map = |id: TrackId| remap.get(id.0 as usize).copied().unwrap_or(id);
            for (seq, mut e) in shard.spans.into_iter().enumerate() {
                e.track = map(e.track);
                spans.push((e.start_cycle, si, seq, e));
            }
            for (seq, mut e) in shard.instants.into_iter().enumerate() {
                e.track = map(e.track);
                instants.push((e.cycle, si, seq, e));
            }
            for (seq, mut e) in shard.gauges.into_iter().enumerate() {
                e.track = map(e.track);
                gauges.push((e.cycle, si, seq, e));
            }
            for (k, v) in shard.counters {
                *self.counters.entry(k).or_insert(0) += v;
            }
            self.stalls.compute_cycles += shard.stalls.compute_cycles;
            self.stalls.memory_cycles += shard.stalls.memory_cycles;
            self.stalls.backpressure_cycles += shard.stalls.backpressure_cycles;
            self.stalls.checkpoint_cycles += shard.stalls.checkpoint_cycles;
            self.stalls.exchange_cycles += shard.stalls.exchange_cycles;
        }
        spans.sort_by_key(|a| (a.0, a.1, a.2));
        instants.sort_by_key(|a| (a.0, a.1, a.2));
        gauges.sort_by_key(|a| (a.0, a.1, a.2));
        self.spans.extend(spans.into_iter().map(|t| t.3));
        self.instants.extend(instants.into_iter().map(|t| t.3));
        self.gauges.extend(gauges.into_iter().map(|t| t.3));
    }

    /// Merge a single shard (see [`Recorder::merge_shards`]).
    pub fn merge_shard(&mut self, shard: Recorder) {
        self.merge_shards(vec![shard]);
    }

    // ---- accessors (exporters & tests) -------------------------------------

    pub fn cycles_per_us(&self) -> f64 {
        self.cycles_per_us
    }

    pub fn track_names(&self) -> &[String] {
        &self.tracks
    }

    /// Look up an existing track by name without interning a new one.
    pub fn find_track(&self, name: &str) -> Option<TrackId> {
        self.tracks.iter().position(|t| t == name).map(|i| TrackId(i as u32))
    }

    pub fn track_name(&self, id: TrackId) -> &str {
        self.tracks.get(id.0 as usize).map(|s| s.as_str()).unwrap_or("<unknown>")
    }

    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    pub fn instants(&self) -> &[InstantEvent] {
        &self.instants
    }

    pub fn gauges(&self) -> &[GaugeSample] {
        &self.gauges
    }

    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn stall_breakdown(&self) -> StallBreakdown {
        self.stalls
    }

    pub fn divergence(&self) -> Option<&Divergence> {
        self.divergence.as_ref()
    }

    pub fn meta(&self) -> &[(String, Value)] {
        &self.meta
    }

    /// Worker count recorded with [`Recorder::set_jobs`], if any.
    pub fn jobs(&self) -> Option<u64> {
        self.jobs
    }

    /// Total shard recorders merged into this one (0 for a serial run).
    pub fn shards_merged(&self) -> u64 {
        self.shards_merged
    }

    /// Sum of span durations on one track (used to reconcile against the
    /// cycle plan's totals).
    pub fn track_span_cycles(&self, track: TrackId) -> u64 {
        self.spans.iter().filter(|s| s.track == track).map(|s| s.duration()).sum()
    }

    /// Last cycle stamped on any event — the trace's horizon.
    pub fn max_cycle(&self) -> u64 {
        let spans = self.spans.iter().map(|s| s.end_cycle).max().unwrap_or(0);
        let inst = self.instants.iter().map(|i| i.cycle).max().unwrap_or(0);
        let gauges = self.gauges.iter().map(|g| g.cycle).max().unwrap_or(0);
        spans.max(inst).max(gauges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_collects_nothing() {
        let mut r = Recorder::disabled();
        let t = r.track("stage:0");
        r.span(t, "pass", 0, 100);
        r.counter_add("pushes", 5);
        r.gauge(t, "occ", 10, 3.0);
        r.stall(StallClass::Memory, 42);
        assert!(!r.is_enabled());
        assert!(r.spans().is_empty());
        assert!(r.counters().is_empty());
        assert!(r.gauges().is_empty());
        assert_eq!(r.stall_breakdown().total(), 0);
    }

    #[test]
    fn track_interning_is_stable() {
        let mut r = Recorder::enabled(300.0);
        let a = r.track("axi:rd0");
        let b = r.track("axi:wr0");
        let a2 = r.track("axi:rd0");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(r.track_name(a), "axi:rd0");
    }

    #[test]
    fn span_totals_and_max_cycle() {
        let mut r = Recorder::enabled(300.0);
        let t = r.track("stage:0");
        r.span(t, "pass0", 0, 100);
        r.span(t, "pass1", 100, 250);
        let u = r.track("stage:1");
        r.span(u, "pass0", 50, 80);
        assert_eq!(r.track_span_cycles(t), 250);
        assert_eq!(r.track_span_cycles(u), 30);
        assert_eq!(r.max_cycle(), 250);
    }

    #[test]
    fn stall_breakdown_fractions() {
        let mut r = Recorder::enabled(300.0);
        r.stall(StallClass::Compute, 60);
        r.stall(StallClass::Memory, 30);
        r.stall(StallClass::Backpressure, 10);
        let b = r.stall_breakdown();
        assert_eq!(b.total(), 100);
        assert!((b.fraction(StallClass::Compute) - 0.6).abs() < 1e-12);
        assert_eq!(b.dominant(), StallClass::Compute);
    }

    #[test]
    fn exchange_stalls_attribute_merge_and_dominate() {
        let mut r = Recorder::enabled(300.0);
        r.stall(StallClass::Exchange, 50);
        r.stall(StallClass::Compute, 20);
        let mut shard = Recorder::enabled(300.0);
        shard.stall(StallClass::Exchange, 40);
        r.merge_shard(shard);
        let b = r.stall_breakdown();
        assert_eq!(b.exchange_cycles, 90);
        assert_eq!(b.cycles(StallClass::Exchange), 90);
        assert_eq!(b.total(), 110);
        assert_eq!(b.dominant(), StallClass::Exchange);
    }

    #[test]
    fn merge_shards_interleaves_by_cycle_and_remaps_tracks() {
        let mut main = Recorder::enabled(300.0);
        let sched = main.track("pipeline");
        main.span(sched, "pass0", 0, 1000);

        let mut s0 = Recorder::enabled(300.0);
        let t0 = s0.track("mesh0/stage:0");
        s0.span(t0, "row", 500, 600);
        s0.instant(t0, "primed", 510);
        s0.counter_add("window.rows_streamed", 4);
        s0.stall(StallClass::Memory, 7);

        let mut s1 = Recorder::enabled(300.0);
        let t1 = s1.track("mesh1/stage:0");
        s1.span(t1, "row", 100, 200);
        s1.gauge(t1, "fill", 120, 2.0);
        s1.counter_add("window.rows_streamed", 4);
        s1.stall(StallClass::Memory, 3);

        main.merge_shards(vec![s0, s1]);
        // tracks re-interned in shard order after existing ones
        assert_eq!(main.track_names(), &["pipeline", "mesh0/stage:0", "mesh1/stage:0"]);
        // shard spans appended in cycle order: mesh1's earlier span first
        let merged: Vec<_> = main.spans().iter().map(|s| s.start_cycle).collect();
        assert_eq!(merged, vec![0, 100, 500]);
        // events remapped onto the re-interned tracks
        let m1 = main.find_track("mesh1/stage:0").unwrap();
        assert_eq!(main.spans()[1].track, m1);
        assert_eq!(main.gauges()[0].track, m1);
        // counters and stalls summed
        assert_eq!(main.counter("window.rows_streamed"), 8);
        assert_eq!(main.stall_breakdown().memory_cycles, 10);
    }

    #[test]
    fn merge_is_pure_in_shard_list() {
        let shard = |base: u64| {
            let mut s = Recorder::enabled(300.0);
            let t = s.track(&format!("mesh{base}/w"));
            s.span(t, "row", base * 10, base * 10 + 5);
            s
        };
        let mut a = Recorder::enabled(300.0);
        a.merge_shards(vec![shard(0), shard(1), shard(2)]);
        let mut b = Recorder::enabled(300.0);
        for i in 0..3 {
            b.merge_shard(shard(i));
        }
        assert_eq!(a.track_names(), b.track_names());
        let cycles = |r: &Recorder| r.spans().iter().map(|s| s.start_cycle).collect::<Vec<_>>();
        assert_eq!(cycles(&a), cycles(&b));
    }

    #[test]
    fn merge_into_disabled_is_a_noop() {
        let mut off = Recorder::disabled();
        let mut s = Recorder::enabled(300.0);
        let t = s.track("x");
        s.span(t, "row", 0, 5);
        off.merge_shard(s);
        assert!(off.spans().is_empty());
        assert!(off.track_names().is_empty());
    }

    #[test]
    fn identically_named_shard_tracks_coalesce() {
        let mut main = Recorder::enabled(300.0);
        let mk = || {
            let mut s = Recorder::enabled(300.0);
            let t = s.track("window/stage:0");
            s.span(t, "row", 0, 5);
            s
        };
        main.merge_shards(vec![mk(), mk()]);
        assert_eq!(main.track_names(), &["window/stage:0"]);
        assert_eq!(main.spans().len(), 2);
        assert_eq!(main.spans()[0].track, main.spans()[1].track);
    }

    #[test]
    fn jobs_and_shard_count_are_tracked() {
        let mut r = Recorder::enabled(300.0);
        assert_eq!(r.jobs(), None);
        assert_eq!(r.shards_merged(), 0);
        r.set_jobs(4);
        assert_eq!(r.jobs(), Some(4));
        let mk = || {
            let mut s = Recorder::enabled(300.0);
            let t = s.track("w");
            s.span(t, "row", 0, 5);
            s
        };
        r.merge_shards(vec![mk(), mk(), mk()]);
        assert_eq!(r.shards_merged(), 3);
        // nested merges count transitively
        let mut outer = Recorder::enabled(300.0);
        outer.merge_shard(r);
        assert_eq!(outer.shards_merged(), 4);
        // disabled recorders track nothing
        let mut off = Recorder::disabled();
        off.set_jobs(8);
        assert_eq!(off.jobs(), None);
    }

    #[test]
    fn counters_accumulate() {
        let mut r = Recorder::enabled(300.0);
        r.counter_add("fifo.stalls", 3);
        r.counter_add("fifo.stalls", 4);
        assert_eq!(r.counter("fifo.stalls"), 7);
        assert_eq!(r.counter("missing"), 0);
    }
}
