//! The pass driver: one streaming loop behind every executor.
//!
//! The paper's implementation template — window buffers, a `p`-fold
//! unrolled chain, tiling, batching — is one loop whatever the mesh, engine
//! or fault mode, so the simulator runs it as one. A [`Run`] describes what
//! to execute; [`Run::simulate`] executes it on a `Batch2D` or `Batch3D`
//! ([`StreamGrid`]: the streamed unit is a row in 2D and a plane in 3D).
//! The run check walks the run's schedule once ([`crate::cycles::Schedule`]):
//! its segments give the unit cost and a tiled pass's tiles. Underneath
//! there is:
//!
//! * one chain runner (`window::run_chain`) with an optional fault
//!   hook ([`crate::resilient`]);
//! * one pass loop: `⌈niter/p⌉` passes, each chaining `p_eff × stages`
//!   stages, with window events traced on the first pass only. The loop
//!   owns two batch buffers for the whole run and ping-pongs them: a pass
//!   reads the pass-start state from one and its last stage writes straight
//!   into the other. A whole-stream pass reuses one stage chain, windows
//!   included, for every pass. A pass streams the whole batch, its tiles
//!   ([`StreamGrid::tiled_pass`]) or — for a sharded run
//!   ([`Run::simulate_slabs`]) — each device's halo-extended slab, borrowed
//!   in place from the pass-start buffer, with each device writing the
//!   units it owns into its own disjoint chunk of the other buffer;
//! * per-mesh `jobs` fan-out ([`crate::exec_batch`]);
//! * checkpoint segments with ABFT checks and rollback
//!   ([`crate::recovery`]).
//!
//! [`ExecEngine`] is matched in one function; everything below it is
//! monomorphized per engine and dimension.

use crate::cycles::{CyclePlan, Schedule};
use crate::design::{ExecMode, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::ExecError;
use crate::exec_batch::per_mesh;
use crate::fast::{ExecEngine, FastEngine};
use crate::recovery::{self, RecoverParams};
use crate::report::SimReport;
use crate::resilient::{pass_budget, plan_with_faults, FaultHook};
use crate::window::{build_chain, run_chain, ChainTrace, Engine, Flat, ScalarEngine};
use crate::{power, profile};
use sf_faults::{FaultInjector, FaultPlan, RetryPolicy};
use sf_mesh::Element;
use sf_recover::{GoldenTrajectory, RecoveryConfig, RecoveryPolicy, RecoveryStats};
use sf_telemetry::Recorder;
use std::ops::Range;

/// A batch of meshes as the pipeline streams it: a sequence of units —
/// rows of a `Batch2D`, planes of a `Batch3D` — `mesh_units` per mesh.
pub trait StreamGrid: Clone + Send + Sync + Sized {
    /// The mesh element.
    type Cell: Element;
    /// The streamed unit in diagnostics: `"rows"` or `"planes"`.
    const UNITS: &'static str;
    /// Counter of input units a chain run streamed.
    const STREAMED: &'static str;
    /// Counter of trailing units the stages drained.
    const DRAINED: &'static str;

    /// A unit is `.1` rows of `.0` cells: `(nx, 1)` in 2D, `(nx, ny)` in 3D.
    fn unit_shape(&self) -> (usize, usize);
    /// Units per mesh: `ny` in 2D, `nz` in 3D.
    fn mesh_units(&self) -> usize;
    /// Meshes in the batch.
    fn batch(&self) -> usize;
    /// The cells, mesh after mesh, unit after unit.
    fn as_slice(&self) -> &[Self::Cell];
    /// Mutable view of [`StreamGrid::as_slice`].
    fn as_mut_slice(&mut self) -> &mut [Self::Cell];
    /// An all-zero batch of `batch` meshes of this batch's shape.
    fn zeros(&self, batch: usize) -> Self;
    /// The workload this batch is.
    fn workload(&self) -> Workload;
    /// One spatially blocked pass of a tiled design over a single mesh:
    /// every tile of `sched` ([`Schedule::segments`]) streams `chain`
    /// against the pass-start state `cur` and writes its valid region into
    /// `next`; the valid regions cover the mesh. 1D (2D-mesh) and 2D
    /// (3D-mesh) tiling differ, so each dimension brings its own.
    ///
    /// # Errors
    /// None today: a tiled pass runs no fault hook.
    fn tiled_pass<K, E: Engine<Self, K>>(
        engine: &E,
        sched: &Schedule<'_>,
        chain: &[K],
        cur: &Self,
        next: &mut Self,
        rec: &mut Recorder,
    ) -> Result<(), ExecError>;

    /// Cells per unit.
    fn unit_len(&self) -> usize {
        self.unit_shape().0 * self.unit_shape().1
    }

    /// Batch member `i` as a batch of one.
    fn member(&self, i: usize) -> Self {
        let mut m = self.zeros(1);
        let n = m.as_slice().len();
        m.as_mut_slice().copy_from_slice(&self.as_slice()[i * n..(i + 1) * n]);
        m
    }
}

/// A kernel that streams over grids of type `B`. Its golden reference
/// (`sf_kernels::reference`) is the expected side of the ABFT check.
pub trait GridKernel<B>: Clone + Sync {
    /// `iters` reference iterations of `stages` on every mesh of `input`.
    fn reference(stages: &[Self], input: &B, iters: usize) -> B;
}

/// Where a run's faults come from.
#[derive(Debug)]
pub enum Faults<'a> {
    /// A fault-free run: schedule trace plus window events, no watchdog.
    Off,
    /// One injector consulted across the whole stacked stream.
    Injector(&'a mut FaultInjector),
    /// A base plan; each batch member gets an injector seeded from it and
    /// its index ([`crate::recovery::derive_mesh_plan`]). Needs per-mesh
    /// fan-out and the rollback policy.
    Plan(FaultPlan),
}

/// A run description: everything one execution needs besides its input.
///
/// ```
/// use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
/// use sf_fpga::driver::Run;
/// use sf_fpga::{ExecEngine, FpgaDevice, Recorder};
/// use sf_kernels::{reference, Poisson2D, StencilSpec};
/// use sf_mesh::{norms, Batch2D};
///
/// let dev = FpgaDevice::u280();
/// let wl = Workload::D2 { nx: 40, ny: 20, batch: 3 };
/// let ds = synthesize(&dev, &StencilSpec::poisson(), 8, 4,
///                     ExecMode::Batched { b: 3 }, MemKind::Hbm, &wl).unwrap();
/// let input = Batch2D::<f32>::random(40, 20, 3, 1, -1.0, 1.0);
/// let mut rec = Recorder::disabled();
/// let (out, report, _) = Run {
///     engine: ExecEngine::Scalar,
///     jobs: Some(2),
///     ..Run::new(&dev, &ds, &[Poisson2D], 8, &mut rec)
/// }
/// .simulate(&input)
/// .unwrap();
/// let golden = reference::run_batch_2d(&Poisson2D, &input, 8);
/// assert!(norms::bit_equal(out.as_slice(), golden.as_slice()));
/// assert!(report.total_cycles > 0);
/// ```
pub struct Run<'a, K> {
    /// The device the design was synthesized for.
    pub dev: &'a FpgaDevice,
    /// The synthesized design.
    pub design: &'a StencilDesign,
    /// The stages of one iteration, in order.
    pub stages: &'a [K],
    /// Iterations to run (≥ 1).
    pub niter: usize,
    /// Scalar or lane-parallel stage processors.
    pub engine: ExecEngine,
    /// `None` streams the batch as one stacked stream. `Some(n)` runs each
    /// batch member as its own work item on `n` workers (per-mesh
    /// `mesh{i}/` trace swimlanes); a sharded run fans its slabs out
    /// instead. Results and traces are identical for every `n`.
    pub jobs: Option<usize>,
    /// Fault injection.
    pub faults: Faults<'a>,
    /// AXI retry budget and backoff of a fault-aware run.
    pub retry: RetryPolicy,
    /// Checkpoint/rollback configuration of a fault-aware run; `None` and
    /// [`RecoveryPolicy::Rerun`] surface every detection to the caller.
    pub recovery: Option<&'a RecoveryConfig>,
    /// The golden trajectory of the input at the design's pass boundaries
    /// ([`recovery::golden_trajectory`]), for a single-stream rollback run.
    /// A segment that starts on the input's golden state reads its ABFT
    /// expected signature from it instead of re-solving the segment with
    /// the golden reference; any other start re-solves as without it. The
    /// run's outputs, stats and counters are the same either way. This is
    /// data about the input, not configuration: a caller that runs one
    /// input many times solves it once and lends it to every run.
    pub trajectory: Option<&'a GoldenTrajectory>,
    /// Telemetry sink.
    pub rec: &'a mut Recorder,
}

/// A multi-device slab decomposition of the streamed axis. Each pass,
/// every slab streams its owned units plus `halo` units on either side
/// (clipped to the mesh) and writes back only the units it owns.
pub struct Slabs<'s> {
    /// The units each device owns, in device order: non-empty, contiguous
    /// ranges that tile the mesh's units exactly (the run check rejects
    /// any other layout).
    pub owned: &'s [Range<usize>],
    /// Halo depth in units: at least the design's
    /// [`StencilSpec::halo`](sf_kernels::StencilSpec::halo).
    pub halo: usize,
    /// The schedule the report prices.
    pub plan: &'s CyclePlan,
    /// Power of all devices together.
    pub power_w: f64,
}

/// How one pass streams the state.
#[derive(Copy, Clone)]
pub(crate) enum Layout<'s> {
    /// As one stream, window events under `prefix` from `base_cycle` on.
    Whole { prefix: &'s str, base_cycle: u64 },
    /// Slab by slab, for mesh `mesh` of a sharded run.
    Sharded { slabs: &'s Slabs<'s>, mesh: usize },
}

/// The whole-batch stream of a single-stream run.
pub(crate) const WHOLE: Layout<'static> = Layout::Whole { prefix: "window/", base_cycle: 0 };

impl<'a, K> Run<'a, K> {
    /// A fault-free, single-stream run on the default engine.
    pub fn new(
        dev: &'a FpgaDevice,
        design: &'a StencilDesign,
        stages: &'a [K],
        niter: usize,
        rec: &'a mut Recorder,
    ) -> Self {
        Run {
            dev,
            design,
            stages,
            niter,
            engine: ExecEngine::default(),
            jobs: None,
            faults: Faults::Off,
            retry: RetryPolicy::default(),
            recovery: None,
            trajectory: None,
            rec,
        }
    }

    /// Execute the run on `input`: the result, the report priced from the
    /// design's cycle plan, and the checkpoint/rollback accounting
    /// (all-zero without recovery).
    ///
    /// A fault-free run records the schedule trace and first-pass window
    /// events. A fault-aware run charges AXI retry backoff into the report
    /// and `fault.*` (and `recover.*`) counters into the recorder instead.
    ///
    /// # Errors
    /// [`ExecError::ShapeMismatch`] or [`ExecError::Unsupported`] when the
    /// run does not fit its input (the run check), and the datapath
    /// errors of a fault-aware run: deadlock, exhausted AXI retries,
    /// exhausted rollbacks, checkpoint I/O.
    pub fn simulate<B>(&mut self, input: &B) -> Result<(B, SimReport, RecoveryStats), ExecError>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        self.on_engine(input, None)
    }

    /// Execute a fault-free run sharded into `slabs` (the multi-device
    /// executors): meshes run one after another, each pass fans the slabs
    /// out over `jobs` workers, and the first pass of each mesh records
    /// under `dev{k}/mesh{i}/window/`. The report prices `slabs.plan`.
    ///
    /// # Errors
    /// See [`Run::simulate`]; a sharded run also needs a whole-mesh design
    /// and no faults.
    pub fn simulate_slabs<B>(
        &mut self,
        input: &B,
        slabs: &Slabs<'_>,
    ) -> Result<(B, SimReport), ExecError>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        self.on_engine(input, Some(slabs)).map(|(out, report, _)| (out, report))
    }

    fn on_engine<B>(
        &mut self,
        input: &B,
        slabs: Option<&Slabs<'_>>,
    ) -> Result<(B, SimReport, RecoveryStats), ExecError>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        match self.engine {
            ExecEngine::Scalar => self.drive(&ScalarEngine, input, slabs),
            ExecEngine::Fast => self.drive(&FastEngine, input, slabs),
        }
    }

    /// The run check: does this run fit `input`? The schedule walk
    /// ([`Schedule::new`]) rejects modes and slab layouts the input cannot
    /// stream; the rest is about batch size, fan-out and faults.
    pub(crate) fn check<B: StreamGrid>(
        &self,
        input: &B,
        slabs: Option<&Slabs<'_>>,
    ) -> Result<Schedule<'a>, ExecError> {
        let shape = |detail: String| Err(ExecError::ShapeMismatch { detail });
        let unsupported = |detail: &str| Err(ExecError::Unsupported { detail: detail.to_string() });
        let (design, b) = (self.design, input.batch());
        if self.niter == 0 {
            return shape("niter must be positive".to_string());
        }
        if self.stages.len() != design.spec.stages {
            return shape(format!(
                "design expects {} stages per iteration, got {}",
                design.spec.stages,
                self.stages.len()
            ));
        }
        let sched =
            Schedule::new(self.dev, design, &input.workload(), slabs.map(|s| (s.owned, s.halo)))?;
        match design.mode {
            ExecMode::Batched { b: db } if b != db => {
                return shape(format!("batch size mismatch: design batch {db} fed batch {b}"))
            }
            ExecMode::Baseline if b != 1 => {
                return shape(format!("baseline design runs one mesh, got batch {b}"))
            }
            ExecMode::Tiled1D { .. } | ExecMode::Tiled2D { .. } if b != 1 => {
                return shape(format!("tiled design runs one mesh, got batch {b}"))
            }
            _ => {}
        }
        let tiled = design.mode.is_tiled();
        let sharded = slabs.is_some();
        let combination = match self.faults {
            _ if tiled && (self.jobs.is_some() || sharded) => {
                unsupported("batch and sharded executors need a Baseline or Batched design")
            }
            Faults::Off if self.recovery.is_some() => {
                unsupported("checkpoint recovery needs a fault injector or plan")
            }
            Faults::Off => Ok(()),
            _ if sharded => unsupported("sharded runs inject no faults"),
            _ if tiled => unsupported("fault injection targets whole-mesh streaming designs"),
            Faults::Injector(_) if self.jobs.is_some() => {
                unsupported("per-mesh fan-out takes a fault plan, not a shared injector")
            }
            Faults::Injector(_) => Ok(()),
            Faults::Plan(_) if self.jobs.is_none() => {
                unsupported("a fault plan seeds per-mesh injectors: set jobs")
            }
            Faults::Plan(_) => Ok(()),
        };
        combination?;
        let Some(t) = self.trajectory else { return Ok(sched) };
        let rollback =
            matches!(self.recovery.map(|r| r.policy), Some(RecoveryPolicy::Rollback { .. }));
        if !rollback || self.jobs.is_some() {
            return Err(ExecError::Unsupported {
                detail: "a golden trajectory serves single-stream rollback runs".to_string(),
            });
        }
        let fits = t.cells() == input.as_slice().len()
            && t.lanes() == B::Cell::LANES
            && t.unit_len() == input.unit_len()
            && t.spans(design.p, self.niter);
        if !fits {
            return shape(format!(
                "golden trajectory of {} cells × {} lanes in units of {} does not span {} \
                 iterations of this input in passes of {}",
                t.cells(),
                t.lanes(),
                t.unit_len(),
                self.niter,
                design.p
            ));
        }
        Ok(sched)
    }

    /// [`Run::simulate`] on a given engine (kernels without a lane impl run
    /// on [`ScalarEngine`]).
    pub(crate) fn drive<B, E>(
        &mut self,
        engine: &E,
        input: &B,
        slabs: Option<&Slabs<'_>>,
    ) -> Result<(B, SimReport, RecoveryStats), ExecError>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        E: Engine<B, K>,
    {
        let sched = self.check(input, slabs)?;
        let Run { dev, design, stages, niter, jobs, retry, recovery, trajectory, .. } = *self;
        let (wl, n_iter) = (input.workload(), niter as u64);
        let px = Passes {
            engine,
            stages,
            sched: &sched,
            // whole-stream and slab segments stream the same unit; a tiled
            // pass reads each tile's own
            unit_cycles: sched.segments().next().map_or(0, |s| s.unit_cycles()),
            jobs: jobs.unwrap_or(1),
        };
        let all = recovery::segment_passes(design.p, niter, usize::MAX);
        let rec = &mut *self.rec;
        let power_w = power::fpga_power_w(dev, design);
        let with_stalls = |e: ExecError, rec: &Recorder| match e {
            ExecError::Deadlock(t) => ExecError::Deadlock(t.with_stalls(&rec.stall_breakdown())),
            other => other,
        };
        let rollback = match recovery.map(|r| (r, r.policy)) {
            Some((rcfg, RecoveryPolicy::Rollback { max_retries })) => Some((rcfg, max_retries)),
            _ => None,
        };
        match &mut self.faults {
            Faults::Off => {
                if let Some(slabs) = slabs {
                    let mut out = input.zeros(input.batch());
                    let n = out.as_slice().len() / input.batch();
                    for i in 0..input.batch() {
                        let layout = Layout::Sharded { slabs, mesh: i };
                        let mesh = px.run(input.member(i), &all, layout, rec, None)?;
                        out.as_mut_slice()[i * n..(i + 1) * n].copy_from_slice(mesh.as_slice());
                    }
                    profile::attribute_stalls(rec, &sched, slabs.plan.passes);
                    let report = SimReport::from_plan(design, slabs.plan, n_iter, slabs.power_w);
                    return Ok((out, report, RecoveryStats::default()));
                }
                let plan = profile::trace_schedule(dev, design, &wl, n_iter, rec);
                let out = match jobs {
                    None => px.run(input.clone(), &all, WHOLE, rec, None)?,
                    Some(jobs) => {
                        let (on, clock) = (rec.is_enabled(), rec.cycles_per_us());
                        let mesh_cycles = input.mesh_units() as u64 * px.unit_cycles;
                        let (out, shards) = per_mesh(jobs, input, |i, mesh| {
                            let mut shard =
                                if on { Recorder::enabled(clock) } else { Recorder::disabled() };
                            // mesh i's units start at i · mesh_cycles in the batched stream
                            let prefix = format!("mesh{i}/window/");
                            let base_cycle = i as u64 * mesh_cycles;
                            let layout = Layout::Whole { prefix: &prefix, base_cycle };
                            Ok((px.run(mesh, &all, layout, &mut shard, None)?, shard))
                        })?;
                        rec.merge_shards(shards);
                        out
                    }
                };
                let report = SimReport::from_plan(design, &plan, n_iter, power_w);
                Ok((out, report, RecoveryStats::default()))
            }
            Faults::Injector(inj) => {
                let fp = plan_with_faults(dev, design, &wl, n_iter, inj, &retry)?;
                let stream_units = (input.batch() * input.mesh_units()) as u64;
                let budget = pass_budget(design, stream_units, px.unit_cycles);
                let Some((rcfg, max_retries)) = rollback else {
                    let mut hook = FaultHook::new(inj, budget);
                    let out = px
                        .run(input.clone(), &all, WHOLE, &mut Recorder::disabled(), Some(&mut hook))
                        .map_err(|e| with_stalls(e, rec))?;
                    rec.counter_add("fault.injected", inj.injected());
                    rec.counter_add("fault.axi.extra_cycles", fp.extra_axi_cycles);
                    rec.counter_add("fault.axi.recovered", fp.bursts_recovered);
                    let report = SimReport::from_plan(design, &fp.plan, n_iter, power_w);
                    return Ok((out, report, RecoveryStats::default()));
                };
                let prm = RecoverParams::new(
                    rcfg,
                    max_retries,
                    String::new(),
                    dev,
                    design,
                    input,
                    budget,
                );
                let (out, stats) = recovery::recover(&px, input, niter, inj, &prm, trajectory)
                    .map_err(|e| with_stalls(e, rec))?;
                let report = recovery::finalize(
                    dev,
                    design,
                    &fp,
                    n_iter,
                    prm.mesh_bytes,
                    &stats,
                    inj.injected(),
                    rec,
                );
                Ok((out, report, stats))
            }
            Faults::Plan(base) => {
                let base = *base;
                let Some((rcfg, max_retries)) = rollback else {
                    return Err(ExecError::Unsupported {
                        detail: "batch-parallel recovery requires the rollback policy".to_string(),
                    });
                };
                // AXI faults model the shared memory interface: one injector
                // prices the whole batch's bursts.
                let mut axi_inj = FaultInjector::new(base);
                let fp = plan_with_faults(dev, design, &wl, n_iter, &mut axi_inj, &retry)?;
                let budget = pass_budget(design, input.mesh_units() as u64, px.unit_cycles);
                let (out, per) = per_mesh(jobs.unwrap_or(1), input, |i, mesh| {
                    let mut inj = FaultInjector::new(recovery::derive_mesh_plan(&base, i));
                    let prefix = format!("mesh{i}_");
                    let prm =
                        RecoverParams::new(rcfg, max_retries, prefix, dev, design, &mesh, budget);
                    let (out, stats) = recovery::recover(&px, &mesh, niter, &mut inj, &prm, None)?;
                    Ok((out, (stats, inj.injected())))
                })
                .map_err(|e| with_stalls(e, rec))?;
                let mut stats = RecoveryStats::default();
                let mut injected = axi_inj.injected();
                for (s, n) in &per {
                    stats.merge(s);
                    injected += n;
                }
                let mesh_bytes =
                    (input.as_slice().len() / input.batch() * B::Cell::size_bytes()) as u64;
                let report =
                    recovery::finalize(dev, design, &fp, n_iter, mesh_bytes, &stats, injected, rec);
                Ok((out, report, stats))
            }
        }
    }
}

/// What every pass of a run shares: the engine, one iteration's stages, the
/// schedule walk and the streaming cost of one unit.
pub(crate) struct Passes<'p, K, E> {
    engine: &'p E,
    pub(crate) stages: &'p [K],
    pub(crate) sched: &'p Schedule<'p>,
    /// Cycles to stream one unit: a row, or a plane of `ny` rows.
    unit_cycles: u64,
    /// Workers for the slabs of a sharded pass.
    jobs: usize,
}

impl<K: Clone + Sync, E> Passes<'_, K, E> {
    /// The pass loop: advance `cur` by `passes` pipeline passes of
    /// `passes[n]` chained iterations each. Two batch buffers serve the
    /// whole loop: each pass streams the pass-start state out of one and
    /// writes the next state into the other, then they swap. Window events
    /// of the first pass go to `rec`; later passes repeat the same schedule
    /// untraced.
    pub(crate) fn run<B: StreamGrid>(
        &self,
        mut cur: B,
        passes: &[usize],
        layout: Layout<'_>,
        rec: &mut Recorder,
        mut faults: Option<&mut FaultHook<'_>>,
    ) -> Result<B, ExecError>
    where
        E: Engine<B, K>,
    {
        let tiled = self.sched.design.mode.is_tiled();
        // the deepest pass's chain; a shorter pass streams a prefix of it
        let depth = passes.iter().copied().max().unwrap_or(0);
        let full: Vec<K> = (0..depth).flat_map(|_| self.stages.iter().cloned()).collect();
        let mut next = cur.zeros(cur.batch());
        // one whole-stream chain for every pass; a shorter pass runs a prefix
        let mut whole = Vec::new();
        let mut off = Recorder::disabled();
        for (n, &p_eff) in passes.iter().enumerate() {
            let chain = &full[..p_eff * self.stages.len()];
            let pass_rec: &mut Recorder = if n == 0 { &mut *rec } else { &mut off };
            match layout {
                _ if tiled => {
                    B::tiled_pass(self.engine, self.sched, chain, &cur, &mut next, pass_rec)?
                }
                Layout::Whole { prefix, base_cycle } => {
                    let trace = ChainTrace {
                        rec: pass_rec,
                        prefix,
                        base_cycle,
                        unit_cycles: self.unit_cycles,
                    };
                    let (len, mesh_units) = (cur.unit_len(), cur.mesh_units());
                    let units = cur.batch() * mesh_units;
                    if whole.is_empty() {
                        whole =
                            build_chain(self.engine, &full, cur.unit_shape(), units, mesh_units);
                    }
                    let src = cur.as_slice();
                    let input = |j: usize, slot: &mut [B::Cell]| {
                        slot.copy_from_slice(&src[j * len..(j + 1) * len]);
                    };
                    run_chain::<B, _>(
                        &mut whole[..chain.len()],
                        units,
                        input,
                        &mut Flat::new(next.as_mut_slice(), len, 0),
                        trace,
                        faults.as_deref_mut(),
                    )?;
                }
                Layout::Sharded { slabs, mesh } => {
                    self.slab_pass(chain, &cur, &mut next, slabs, mesh, rec, n == 0)?
                }
            }
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur)
    }

    /// One pass of a sharded run over one mesh: every device streams its
    /// extended slab of the pass-barrier state `cur` (the halo exchange),
    /// borrowed in place, with the slab as its seam period — slab edges are
    /// mesh boundaries to it — and emits only its owned units, straight
    /// into its own chunk of `next`. A stage of radius `r` lets boundary
    /// treatment contaminate `r` more units, so after a pass at most
    /// `p · stages · ⌈D/2⌉ = halo` units next to a slab-interior edge are
    /// wrong, and those are exactly the discarded halo.
    #[allow(clippy::too_many_arguments)]
    fn slab_pass<B: StreamGrid>(
        &self,
        chain: &[K],
        cur: &B,
        next: &mut B,
        slabs: &Slabs<'_>,
        mesh: usize,
        rec: &mut Recorder,
        first_pass: bool,
    ) -> Result<(), ExecError>
    where
        E: Engine<B, K>,
    {
        let (len, extent, h, shape) =
            (cur.unit_len(), cur.mesh_units(), slabs.halo, cur.unit_shape());
        let src = cur.as_slice();
        // The run check made the owned ranges tile the mesh in order, so
        // splitting `next` in slab order hands each device its own chunk.
        let mut rest = next.as_mut_slice();
        let mut items = Vec::with_capacity(slabs.owned.len());
        for s in slabs.owned {
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(s.len() * len);
            rest = tail;
            items.push((s.clone(), chunk));
        }
        let traced = rec.is_enabled() && first_pass;
        let clock = rec.cycles_per_us();
        let results = sf_par::par_map(self.jobs, items, |k, (s, chunk)| {
            let mut shard = if traced { Recorder::enabled(clock) } else { Recorder::disabled() };
            let prefix = format!("dev{k}/mesh{mesh}/window/");
            let trace = ChainTrace {
                rec: &mut shard,
                prefix: &prefix,
                base_cycle: (mesh * extent + s.start) as u64 * self.unit_cycles,
                unit_cycles: self.unit_cycles,
            };
            let lo = s.start.saturating_sub(h);
            let slab = (s.end + h).min(extent) - lo;
            let input = |j: usize, slot: &mut [B::Cell]| {
                slot.copy_from_slice(&src[(lo + j) * len..(lo + j + 1) * len]);
            };
            let mut sink = Flat::new(chunk, len, s.start - lo);
            let mut stages = build_chain(self.engine, chain, shape, slab, slab);
            let done = run_chain::<B, _>(&mut stages, slab, input, &mut sink, trace, None);
            (done, shard)
        });
        let mut shards = Vec::with_capacity(results.len());
        for (done, shard) in results {
            done?;
            shards.push(shard);
        }
        if traced {
            rec.merge_shards(shards);
        }
        Ok(())
    }
}

/// Unwrap a fault-free run for an entry point that returns a bare tuple:
/// such a run fails only its run check, which those entry points document
/// as a panic.
pub(crate) fn expect_checked<B>(
    r: Result<(B, SimReport, RecoveryStats), ExecError>,
) -> (B, SimReport) {
    let failed = r.as_ref().err().map(ToString::to_string);
    assert!(failed.is_none(), "{}", failed.unwrap_or_default());
    let Ok((out, report, _)) = r else { unreachable!("the assertion above rejects errors") };
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cycles;
    use crate::design::{synthesize, MemKind};
    use sf_kernels::{Poisson2D, StencilSpec};
    use sf_mesh::Batch2D;

    fn design(mode: ExecMode, wl: &Workload) -> StencilDesign {
        synthesize(&FpgaDevice::u280(), &StencilSpec::poisson(), 8, 4, mode, MemKind::Hbm, wl)
            .unwrap()
    }

    #[test]
    fn run_check_returns_typed_errors() {
        let dev = FpgaDevice::u280();
        let wl = Workload::D2 { nx: 64, ny: 16, batch: 1 };
        let base = design(ExecMode::Baseline, &wl);
        let tiled = design(ExecMode::Tiled1D { tile_m: 32 }, &wl);
        let one = Batch2D::<f32>::zeros(64, 16, 1);
        let two = Batch2D::<f32>::zeros(64, 16, 2);
        let rcfg = RecoveryConfig { policy: RecoveryPolicy::Rerun, ..RecoveryConfig::default() };
        let plan = FaultPlan::single(1, sf_faults::FaultKind::BitFlip, 1);
        let mut rec = Recorder::disabled();
        let shape = |r: Result<(Batch2D<f32>, SimReport, RecoveryStats), ExecError>| {
            matches!(r, Err(ExecError::ShapeMismatch { .. }))
        };
        let unsupported = |r: Result<(Batch2D<f32>, SimReport, RecoveryStats), ExecError>| {
            matches!(r, Err(ExecError::Unsupported { .. }))
        };
        assert!(shape(Run::new(&dev, &base, &[Poisson2D], 0, &mut rec).simulate(&one)));
        assert!(shape(Run::new(&dev, &base, &[Poisson2D; 2], 4, &mut rec).simulate(&one)));
        assert!(shape(Run::new(&dev, &base, &[Poisson2D], 4, &mut rec).simulate(&two)));
        let r = Run { jobs: Some(2), ..Run::new(&dev, &tiled, &[Poisson2D], 4, &mut rec) }
            .simulate(&one);
        assert!(format!("{:?}", r.as_ref().err()).contains("Baseline or Batched"), "{r:?}");
        let r = Run { recovery: Some(&rcfg), ..Run::new(&dev, &base, &[Poisson2D], 4, &mut rec) }
            .simulate(&one);
        assert!(unsupported(r));
        let r =
            Run { faults: Faults::Plan(plan), ..Run::new(&dev, &base, &[Poisson2D], 4, &mut rec) }
                .simulate(&one);
        assert!(unsupported(r));
        let r = Run {
            jobs: Some(1),
            faults: Faults::Plan(plan),
            recovery: Some(&rcfg),
            ..Run::new(&dev, &base, &[Poisson2D], 4, &mut rec)
        }
        .simulate(&one);
        assert!(unsupported(r), "a plan needs the rollback policy");
        let plan = cycles::plan(&dev, &base, &wl, 4);
        let owned = [0..8, 8..16];
        let slabs = Slabs { owned: &owned, halo: 4, plan: &plan, power_w: 1.0 };
        let r = Run::new(&dev, &base, &[Poisson2D], 4, &mut rec).simulate_slabs(&two, &slabs);
        assert!(matches!(r, Err(ExecError::ShapeMismatch { .. })), "{r:?}");
        // Slab layouts must tile the mesh's 16 rows in order, with at least
        // the design's halo (StencilSpec::halo(4) = 4): a gap, an overlap,
        // a slab past the extent and a short halo are all rejected.
        let input = Batch2D::<f32>::random(64, 16, 1, 3, -1.0, 1.0);
        let mut sharded = |owned: &[Range<usize>], halo: usize| {
            let slabs = Slabs { owned, halo, plan: &plan, power_w: 1.0 };
            Run { jobs: Some(2), ..Run::new(&dev, &base, &[Poisson2D], 8, &mut rec) }
                .simulate_slabs(&input, &slabs)
        };
        for (owned, halo) in
            [(&[0..7, 8..16][..], 4), (&[0..9, 8..16], 4), (&[0..8, 8..20], 4), (&owned, 1)]
        {
            let r = sharded(owned, halo);
            assert!(
                matches!(r, Err(ExecError::ShapeMismatch { .. })),
                "slabs {owned:?} halo {halo}: {:?}",
                r.map(|_| ())
            );
        }
        let (out, _) = sharded(&owned, 4).unwrap();
        let golden = sf_kernels::reference::run_batch_2d(&Poisson2D, &input, 8);
        assert!(sf_mesh::norms::bit_equal(out.as_slice(), golden.as_slice()));
    }
}
