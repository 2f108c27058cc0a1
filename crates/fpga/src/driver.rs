//! The pass driver: one streaming loop behind every executor.
//!
//! The paper's implementation template — window buffers, a `p`-fold
//! unrolled chain, tiling, batching — is one loop whatever the mesh, engine
//! or fault mode, so the simulator runs it as one. A [`Run`] describes what
//! to execute; [`Run::simulate`] executes it on a `Batch2D` or `Batch3D`
//! ([`StreamGrid`]: the streamed unit is a row in 2D and a plane in 3D).
//! The run check walks the run's schedule once ([`crate::cycles::Schedule`]),
//! and the run streams exactly the walk's segments. Underneath there is:
//!
//! * one chain runner (`window::run_chain`) with an optional fault
//!   hook ([`crate::resilient`]);
//! * one pass loop: `⌈niter/p⌉` passes, each chaining `p_eff × stages`
//!   stages, with window events traced on the first pass only. The loop
//!   owns two batch buffers for the whole run and ping-pongs them: a pass
//!   reads the pass-start state from one and writes the next state into
//!   the other;
//! * one pass body: every segment of the walk ([`Schedule::segments`]) —
//!   the whole batch, one tile, or on more than one device
//!   ([`Run::devices`]) one device's halo-extended slab — streams its
//!   meshes back to back through a chain of its own, built once per run
//!   around windows from the run's [`WindowPool`] ([`Run::windows`]), and
//!   only the valid region of the units a device owns is written back. The
//!   devices of a pass fan out over `jobs` workers; one device streams its
//!   tiles in order;
//! * per-mesh `jobs` fan-out ([`crate::exec_batch`]);
//! * checkpoint segments with ABFT checks and rollback
//!   ([`crate::recovery`]).
//!
//! [`ExecEngine`] is matched in one function; everything below it is
//! monomorphized per engine and dimension.

use crate::cycles::{Schedule, Segment};
use crate::design::{ExecMode, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::error::ExecError;
use crate::exec_batch::per_mesh;
use crate::fast::{ExecEngine, FastEngine};
use crate::link::MultiConfig;
use crate::recovery::{self, RecoverParams};
use crate::report::SimReport;
use crate::resilient::{pass_budget, plan_with_faults, FaultHook};
use crate::window::{
    build_chain, run_chain, Chain, ChainTrace, Engine, ScalarEngine, Sink, WindowPool,
};
use crate::{power, profile};
use sf_faults::{FaultInjector, RetryPolicy};
use sf_mesh::Element;
use sf_recover::{GoldenTrajectory, RecoveryConfig, RecoveryPolicy, RecoveryStats};
use sf_telemetry::Recorder;

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
    /// One injector consulted across the whole stacked stream: no per-mesh
    /// fan-out, no tiles and one device.
    Injector(&'a mut FaultInjector),
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
    /// The devices the run is spread over and the link between them; one
    /// device by default. On more than one, every pass streams each
    /// device's halo-extended slab of the schedule walk, all meshes back to
    /// back through one chain, with the devices of a pass fanned out over
    /// `jobs` workers, and writes back the units it owns, bit-identical to
    /// one device. Each device's first pass records under `dev{k}/window/`,
    /// and the report prices the sharded schedule: the slowest device per
    /// pass, exposed halo exchange included, at every device's power.
    pub devices: MultiConfig,
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
    /// The pool every chain of the run takes its window buffers from and
    /// gives them back to; `None` gives the run a pool of its own. A
    /// handed-out buffer may hold an earlier run's or chain's cells, and a
    /// window writes every slot before it reads it, so the run's outputs,
    /// report, stats and recorded events are the same either way. This is
    /// memory, not configuration: a caller that runs one design many times
    /// lends one pool to every run, so the windows are allocated once and
    /// never refilled, as a bitstream's are.
    pub windows: Option<&'a WindowPool>,
    /// Telemetry sink.
    pub rec: &'a mut Recorder,
}

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
            devices: MultiConfig::default(),
            faults: Faults::Off,
            retry: RetryPolicy::default(),
            recovery: None,
            trajectory: None,
            windows: None,
            rec,
        }
    }

    /// Execute the run on `input`: the result, the report priced from the
    /// run's own schedule walk, and the checkpoint/rollback accounting
    /// (all-zero without recovery).
    ///
    /// A fault-free run records the schedule trace and first-pass window
    /// events. A fault-aware run charges AXI retry backoff into the report
    /// and `fault.*` (and `recover.*`) counters into the recorder instead.
    ///
    /// # Errors
    /// [`ExecError::ShapeMismatch`] or [`ExecError::Unsupported`] when the
    /// run does not fit its input (the run check), [`ExecError::Devices`]
    /// when it cannot be sharded across its devices, and the datapath
    /// errors of a fault-aware run: deadlock, exhausted AXI retries,
    /// exhausted rollbacks, checkpoint I/O.
    pub fn simulate<B>(&mut self, input: &B) -> Result<(B, SimReport, RecoveryStats), ExecError>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        match self.engine {
            ExecEngine::Scalar => self.drive(&ScalarEngine, input),
            ExecEngine::Fast => self.drive(&FastEngine, input),
        }
    }

    /// The run check: does this run fit `input`? The schedule walk
    /// ([`Schedule::new`]) rejects modes the input cannot stream and device
    /// counts it cannot be sharded across; the rest is about batch size,
    /// fan-out and faults.
    pub(crate) fn check<B: StreamGrid>(&self, input: &B) -> Result<Schedule<'a>, ExecError> {
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
        let sched = Schedule::new(self.dev, design, &input.workload(), &self.devices)?;
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
        let sharded = sched.is_sharded();
        let combination = match self.faults {
            _ if tiled && self.jobs.is_some() => {
                unsupported("batch executors need a Baseline or Batched design")
            }
            Faults::Off if self.recovery.is_some() => {
                unsupported("checkpoint recovery needs a fault injector")
            }
            Faults::Off => Ok(()),
            _ if sharded => unsupported("sharded runs inject no faults"),
            _ if tiled => unsupported("fault injection targets whole-mesh streaming designs"),
            Faults::Injector(_) if self.jobs.is_some() => {
                unsupported("per-mesh fan-out injects no faults")
            }
            Faults::Injector(_) => Ok(()),
        };
        combination?;
        let Some(t) = self.trajectory else { return Ok(sched) };
        let rollback =
            matches!(self.recovery.map(|r| r.policy), Some(RecoveryPolicy::Rollback { .. }));
        if !rollback {
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
    ) -> Result<(B, SimReport, RecoveryStats), ExecError>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        E: Engine<B, K>,
    {
        let sched = self.check(input)?;
        let Run { dev, design, stages, niter, jobs, retry, recovery, trajectory, windows, .. } =
            *self;
        let (wl, n_iter) = (input.workload(), niter as u64);
        let own = WindowPool::new();
        let px = Passes {
            engine,
            stages,
            sched: &sched,
            // whole-stream and slab segments stream the same unit; a tile
            // streams its own
            unit_cycles: sched.segments().next().map_or(0, |s| s.unit_cycles()),
            jobs: jobs.unwrap_or(1),
            windows: windows.unwrap_or(&own),
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
                let plan = sched.sharded_plan(n_iter);
                let report = SimReport::from_plan(
                    design,
                    &plan.merged,
                    n_iter,
                    power_w * plan.devices as f64,
                );
                // one device's schedule tracks come before its window
                // tracks, a sharded run's after them
                let sharded = sched.is_sharded();
                if !sharded {
                    profile::record_run(rec, &sched, &plan);
                }
                let out = match jobs {
                    Some(jobs) if !sharded => {
                        let (on, clock) = (rec.is_enabled(), rec.cycles_per_us());
                        let (out, shards) = per_mesh(jobs, input, |i, mesh| {
                            let mut shard =
                                if on { Recorder::enabled(clock) } else { Recorder::disabled() };
                            Ok((px.run(mesh, &all, Some(i), &mut shard, None)?, shard))
                        })?;
                        rec.merge_shards(shards);
                        out
                    }
                    _ => px.run(input.clone(), &all, None, rec, None)?,
                };
                if sharded {
                    profile::record_run(rec, &sched, &plan);
                }
                Ok((out, report, RecoveryStats::default()))
            }
            Faults::Injector(inj) => {
                let fp = plan_with_faults(dev, design, &wl, n_iter, inj, &retry)?;
                let stream_units = (input.batch() * input.mesh_units()) as u64;
                let budget = pass_budget(design, stream_units, px.unit_cycles);
                let Some((rcfg, max_retries)) = rollback else {
                    let mut hook = FaultHook::new(inj, budget);
                    let out = px
                        .run(input.clone(), &all, None, &mut Recorder::disabled(), Some(&mut hook))
                        .map_err(|e| with_stalls(e, rec))?;
                    rec.counter_add("fault.injected", inj.injected());
                    rec.counter_add("fault.axi.extra_cycles", fp.extra_axi_cycles);
                    rec.counter_add("fault.axi.recovered", fp.bursts_recovered);
                    let report = SimReport::from_plan(design, &fp.plan, n_iter, power_w);
                    return Ok((out, report, RecoveryStats::default()));
                };
                let prm = RecoverParams::new(rcfg, max_retries, dev, design, input, budget);
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
        }
    }
}

/// A segment of the schedule walk and the chain that streams it every pass.
type Stream<'w, T, S> = (Segment, Chain<'w, T, S>);

/// What every pass of a run shares: the engine, one iteration's stages, the
/// schedule walk, the streaming cost of one unit and the run's window pool.
pub(crate) struct Passes<'p, K, E> {
    engine: &'p E,
    pub(crate) stages: &'p [K],
    pub(crate) sched: &'p Schedule<'p>,
    /// Cycles to stream one unit: a row, or a plane of `ny` rows.
    unit_cycles: u64,
    /// Workers for the devices of a sharded pass.
    jobs: usize,
    /// The run's window buffers: the lent pool, or the run's own.
    windows: &'p WindowPool,
}

impl<K: Clone + Sync, E> Passes<'_, K, E> {
    /// The pass loop: advance `cur` by `passes` pipeline passes of
    /// `passes[n]` chained iterations each. Two batch buffers serve the
    /// whole loop: each pass streams the pass-start state out of one and
    /// writes the next state into the other, then they swap. Every segment
    /// of the walk streams through a chain of its own, built once for the
    /// deepest pass around windows from the run's pool and restarted every
    /// pass; a shorter pass streams a prefix of it. The windows go back to
    /// the pool on every exit, errors included.
    ///
    /// Window events of the first pass go to `rec`; later passes repeat the
    /// same schedule untraced. One device records straight into `rec`, and
    /// only its first tile's chain; the devices of a sharded pass record
    /// into shards merged in device order. `member` is the batch index of a
    /// per-mesh fan-out's stream, which records under `mesh{i}/` at the
    /// mesh's place in the batched stream.
    pub(crate) fn run<B: StreamGrid>(
        &self,
        mut cur: B,
        passes: &[usize],
        member: Option<usize>,
        rec: &mut Recorder,
        mut faults: Option<&mut FaultHook<'_>>,
    ) -> Result<B, ExecError>
    where
        E: Engine<B, K>,
    {
        let (meshes, len) = (cur.batch(), cur.unit_len());
        let depth = passes.iter().copied().max().unwrap_or(0);
        let full: Vec<K> = (0..depth).flat_map(|_| self.stages.iter().cloned()).collect();
        let mut streams: Vec<_> = self
            .sched
            .segments()
            .map(|s| {
                let unit = (s.x.read_len, s.y.read_len);
                (s, build_chain(self.engine, &full, unit, meshes * s.units, s.units, self.windows))
            })
            .collect();
        let owned = self.sched.owned();
        let lanes: Vec<_> =
            (0..owned.len()).map(|k| self.lane(member, k, cur.mesh_units())).collect();
        let per_device = streams.len() / owned.len();
        let mut next = cur.zeros(meshes);
        let mut off = Recorder::disabled();
        for (n, &p_eff) in passes.iter().enumerate() {
            let depth = p_eff * self.stages.len();
            let rec: &mut Recorder = if n == 0 { &mut *rec } else { &mut off };
            // The walk's owned ranges tile every mesh in order, so cutting
            // `next` mesh by mesh, device by device, hands each device its
            // own units.
            let mut outs: Vec<Vec<_>> = owned.iter().map(|_| Vec::with_capacity(meshes)).collect();
            let mut rest = next.as_mut_slice();
            for _ in 0..meshes {
                for (out, units) in outs.iter_mut().zip(owned) {
                    let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(units.len() * len);
                    out.push(chunk);
                    rest = tail;
                }
            }
            let mut devices: Vec<_> =
                streams.chunks_mut(per_device).zip(outs).zip(&lanes).collect();
            if let [((streams, out), lane)] = &mut devices[..] {
                let faults = faults.as_deref_mut();
                self.device_pass(&cur, streams, depth, out, rec, lane, faults)?;
            } else {
                let (traced, clock) = (rec.is_enabled(), rec.cycles_per_us());
                let results = sf_par::par_map(self.jobs, devices, |_, device| {
                    let ((streams, mut out), lane) = device;
                    let mut shard =
                        if traced { Recorder::enabled(clock) } else { Recorder::disabled() };
                    let done =
                        self.device_pass(&cur, streams, depth, &mut out, &mut shard, lane, None);
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
            }
            std::mem::swap(&mut cur, &mut next);
        }
        Ok(cur)
    }

    /// One device's share of a pass: each of its segments in turn streams
    /// the first `depth` stages of its chain. Stage 0's slot for unit `j` is
    /// gathered from rows `y.read` and columns `x.read` of unit
    /// `first_unit + j mod units` of mesh `j div units` of `cur`: one
    /// contiguous copy when the unit's rows are whole. The valid region of
    /// every owned output unit goes into `out`, the device's owned units of
    /// each mesh ([`Sink`]). A slab's edges are mesh boundaries to its
    /// chain, so after a pass at most `p · stages · ⌈D/2⌉ = halo` units
    /// next to a slab-interior edge are wrong, and those are exactly the
    /// dropped halo; a tile's halo columns and rows are dropped alike. The
    /// first tile records its window events on the device's `lane`
    /// ([`Passes::lane`]).
    #[allow(clippy::too_many_arguments)]
    fn device_pass<B: StreamGrid>(
        &self,
        cur: &B,
        streams: &mut [Stream<'_, B::Cell, E::Stage>],
        depth: usize,
        out: &mut [&mut [B::Cell]],
        rec: &mut Recorder,
        (prefix, base_cycle): &(String, u64),
        mut faults: Option<&mut FaultHook<'_>>,
    ) -> Result<(), ExecError>
    where
        E: Engine<B, K>,
    {
        let ((nx, ny), extent, src) = (cur.unit_shape(), cur.mesh_units(), cur.as_slice());
        let mut off = Recorder::disabled();
        for (seg, chain) in streams {
            let (x, y, first, units) = (seg.x, seg.y, seg.first_unit, seg.units);
            let input = |j: usize, slot: &mut [B::Cell]| {
                let row = ((j / units * extent + first + j % units) * ny + y.read_start) * nx;
                if x.read_len == nx {
                    slot.copy_from_slice(&src[row..row + slot.len()]);
                    return;
                }
                for (r, cells) in slot.chunks_exact_mut(x.read_len).enumerate() {
                    let s = row + r * nx + x.read_start;
                    cells.copy_from_slice(&src[s..s + x.read_len]);
                }
            };
            let trace = ChainTrace {
                rec: if seg.tile == (0, 0) { &mut *rec } else { &mut off },
                prefix,
                base_cycle: *base_cycle,
                unit_cycles: seg.unit_cycles(),
            };
            let owned = self.sched.owned()[seg.device].clone();
            let mut sink = Sink::new(out, (nx, ny), (x, y), first..first + units, owned);
            let stream = cur.batch() * units;
            let faults = faults.as_deref_mut();
            run_chain::<B, _>(&mut chain[..depth], stream, input, &mut sink, trace, faults)?;
        }
        Ok(())
    }

    /// Where device `k`'s window events go: its track prefix, and the cycle
    /// its first owned unit streams at in the batched stream. Member `i` of
    /// a per-mesh fan-out records under `mesh{i}/`.
    fn lane(&self, member: Option<usize>, k: usize, extent: usize) -> (String, u64) {
        let mesh = member.map_or_else(String::new, |i| format!("mesh{i}/"));
        let name = if self.sched.design.mode.is_tiled() {
            "tile0/".to_string()
        } else if self.sched.is_sharded() {
            format!("dev{k}/window/")
        } else {
            "window/".to_string()
        };
        let first = member.unwrap_or(0) * extent + self.sched.owned()[k].start;
        (format!("{mesh}{name}"), first as u64 * self.unit_cycles)
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
    use crate::error::MultiError;
    use sf_faults::{FaultKind, FaultPlan};
    use sf_kernels::{rtm, Jacobi3D, Poisson2D, RtmParams, RtmStage, StencilSpec};
    use sf_mesh::{Batch2D, Batch3D};

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
        // Device counts are checked by the walk: a sharded run still checks
        // the batch size and takes no faults, and a device count the 16
        // rows cannot be cut into, or a tiled design on two devices, is a
        // typed device error.
        let two_devices = MultiConfig::new(2);
        let r = Run { devices: two_devices, ..Run::new(&dev, &base, &[Poisson2D], 4, &mut rec) }
            .simulate(&two);
        assert!(shape(r));
        let mut inj = FaultInjector::disabled();
        let r = Run {
            devices: two_devices,
            faults: Faults::Injector(&mut inj),
            ..Run::new(&dev, &base, &[Poisson2D], 4, &mut rec)
        }
        .simulate(&one);
        assert!(unsupported(r));
        for (ds, devices, want) in [
            (&base, 0, MultiError::NoDevices),
            (&base, 17, MultiError::TooManyDevices { devices: 17, extent: 16 }),
            (&tiled, 2, MultiError::UnsupportedMode),
        ] {
            let devices = MultiConfig::new(devices);
            let r = Run { devices, ..Run::new(&dev, ds, &[Poisson2D], 4, &mut rec) }.simulate(&one);
            assert_eq!(r.map(|_| ()).map_err(MultiError::from), Err(want));
        }
        // Two devices stream the 16 rows as two slabs, bit-exact, and the
        // report prices the run's own sharded schedule at both devices'
        // power.
        let input = Batch2D::<f32>::random(64, 16, 1, 3, -1.0, 1.0);
        let (out, report, _) = Run {
            jobs: Some(2),
            devices: two_devices,
            ..Run::new(&dev, &base, &[Poisson2D], 8, &mut rec)
        }
        .simulate(&input)
        .unwrap();
        let sharded = Schedule::new(&dev, &base, &wl, &two_devices).unwrap().plan(8);
        assert_ne!(sharded, cycles::plan(&dev, &base, &wl, 8));
        let power_w = 2.0 * power::fpga_power_w(&dev, &base);
        assert_eq!(report, SimReport::from_plan(&base, &sharded, 8, power_w));
        let golden = sf_kernels::reference::run_batch_2d(&Poisson2D, &input, 8);
        assert!(sf_mesh::norms::bit_equal(out.as_slice(), golden.as_slice()));
    }

    /// A streamed run on `devices` devices streams what its schedule walk
    /// prices: its first pass streams every segment's data units and drains
    /// every segment's fill, and each device records one set of window
    /// tracks, one per chained stage.
    fn assert_streams_what_the_walker_prices<B, K>(
        ds: &StencilDesign,
        stages: &[K],
        input: &B,
        devices: usize,
        jobs: Option<usize>,
    ) where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        let dev = FpgaDevice::u280();
        let cfg = MultiConfig::new(devices);
        let mut rec = Recorder::enabled(ds.freq_mhz());
        let niter = 2 * ds.p;
        Run { jobs, devices: cfg, ..Run::new(&dev, ds, stages, niter, &mut rec) }
            .simulate(input)
            .unwrap();
        let sched = Schedule::new(&dev, ds, &input.workload(), &cfg).unwrap();
        let units = |rows: fn(&Segment) -> u64| -> u64 {
            sched.segments().map(|s| rows(&s) / s.y.read_len as u64).sum()
        };
        let shape = format!("{:?} on {devices} devices at jobs {jobs:?}", input.workload());
        assert_eq!(rec.counter(B::STREAMED), units(|s| s.data_rows), "{shape}");
        assert_eq!(rec.counter(B::DRAINED), units(|s| s.fill_rows), "{shape}");
        let depth = ds.p * stages.len();
        let window = |t: &&String| t.contains("window/");
        assert_eq!(rec.track_names().iter().filter(window).count(), devices * depth, "{shape}");
        for k in 0..devices {
            let lane = if devices > 1 { format!("dev{k}/window/") } else { "window/".to_string() };
            let tracks = rec.track_names().iter().filter(|t| t.starts_with(&lane)).count();
            assert_eq!(tracks, depth, "{shape}: {lane}");
        }
    }

    #[test]
    fn the_executor_streams_what_the_walker_prices() {
        let dev = FpgaDevice::u280();
        let synth = |spec: StencilSpec, wl: Workload| {
            let b = wl.batch();
            let mode = if b > 1 { ExecMode::Batched { b } } else { ExecMode::Baseline };
            synthesize(&dev, &spec, 8, 3, mode, MemKind::Hbm, &wl).unwrap()
        };
        let k3 = [Jacobi3D::smoothing()];
        // one device with one mesh or a stacked batch of 3, two devices with
        // one mesh, three devices with a batch of 2; one device streams a
        // batch as one stack, and the devices of a pass fan out over jobs
        for (devices, b) in [(1, 1), (1, 3), (2, 1), (3, 2)] {
            let jobs = if devices > 1 { vec![Some(1), Some(2)] } else { vec![None] };
            for jobs in jobs {
                let ds = synth(StencilSpec::poisson(), Workload::D2 { nx: 32, ny: 48, batch: b });
                let input = Batch2D::<f32>::random(32, 48, b, 9, -1.0, 1.0);
                assert_streams_what_the_walker_prices(&ds, &[Poisson2D], &input, devices, jobs);
                let wl = Workload::D3 { nx: 10, ny: 8, nz: 24, batch: b };
                let input = Batch3D::<f32>::random(10, 8, 24, b, 10, -1.0, 1.0);
                assert_streams_what_the_walker_prices(
                    &synth(StencilSpec::jacobi(), wl),
                    &k3,
                    &input,
                    devices,
                    jobs,
                );
            }
        }
    }

    /// What a run gives its caller: the output's lane bits, the report and
    /// the stats, or the error; and the metrics JSON it recorded.
    type Outcome = (Result<(Vec<u32>, SimReport, RecoveryStats), String>, String);

    /// How one run of a lending test is set up.
    #[derive(Clone, Copy, Debug)]
    struct Setup {
        engine: ExecEngine,
        devices: usize,
        jobs: Option<usize>,
        /// An injector's plan and whether the run rolls back (checkpoint
        /// every pass) or surfaces detections.
        faults: Option<(FaultPlan, bool)>,
    }

    fn outcome<B, K>(
        ds: &StencilDesign,
        stages: &[K],
        input: &B,
        niter: usize,
        setup: Setup,
        windows: Option<&WindowPool>,
    ) -> Outcome
    where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        let dev = FpgaDevice::u280();
        let mut rec = Recorder::enabled(ds.freq_mhz());
        let rollback = RecoveryConfig {
            policy: RecoveryPolicy::Rollback { max_retries: 3 },
            checkpoint_every: 1,
            ..RecoveryConfig::default()
        };
        let mut inj = setup.faults.map(|(plan, _)| FaultInjector::new(plan));
        let run = Run {
            engine: setup.engine,
            jobs: setup.jobs,
            devices: MultiConfig::new(setup.devices),
            faults: inj.as_mut().map_or(Faults::Off, Faults::Injector),
            recovery: setup.faults.filter(|&(_, rolls_back)| rolls_back).map(|_| &rollback),
            windows,
            ..Run::new(&dev, ds, stages, niter, &mut rec)
        }
        .simulate(input);
        let bits = |out: B| -> Vec<u32> {
            let cells = out.as_slice().iter();
            cells.flat_map(|c| (0..B::Cell::LANES).map(|l| c.lane(l).to_bits())).collect()
        };
        let result =
            run.map(|(out, rep, stats)| (bits(out), rep, stats)).map_err(|e| format!("{e:?}"));
        (result, sf_telemetry::metrics::to_metrics_json(&rec))
    }

    /// Each of `runs` on `input`, lent `pool`, has the outcome it has on a
    /// pool of its own, and repeating a serial one leaves `pool` as it was.
    /// First an all-NaN input streams through every run's chains on `pool`,
    /// so a cell left over from an earlier run would show.
    fn assert_lending_is_invisible<B, K>(
        pool: &WindowPool,
        stages: &[K],
        input: &B,
        runs: &[(&StencilDesign, usize, Setup)],
    ) -> Vec<Outcome>
    where
        B: StreamGrid,
        K: GridKernel<B>,
        ScalarEngine: Engine<B, K>,
        FastEngine: Engine<B, K>,
    {
        let mut nan = input.clone();
        nan.as_mut_slice().fill(B::Cell::splat(f32::NAN));
        for &(ds, niter, setup) in runs {
            let clean = Setup { faults: None, ..setup };
            assert!(outcome(ds, stages, &nan, niter, clean, Some(pool)).0.is_ok(), "{clean:?}");
        }
        let mut outcomes = Vec::new();
        for &(ds, niter, setup) in runs {
            let lent = outcome(ds, stages, input, niter, setup, Some(pool));
            let own = outcome(ds, stages, input, niter, setup, None);
            assert!(lent == own, "a lent pool changed {setup:?}");
            // which worker takes which buffer depends on thread timing, so
            // only a serial run takes and gives back the same buffers
            if setup.jobs.unwrap_or(1) == 1 {
                let held = pool.held::<B::Cell>();
                let again = outcome(ds, stages, input, niter, setup, Some(pool));
                assert!(again == lent, "a repeated {setup:?} differs");
                assert_eq!(pool.held::<B::Cell>(), held, "a repeated {setup:?} grew the pool");
            }
            outcomes.push(lent);
        }
        outcomes
    }

    #[test]
    fn a_lent_window_pool_is_invisible() {
        let dev = FpgaDevice::u280();
        let synth = |spec: StencilSpec, v: usize, p: usize, mode: ExecMode, wl: Workload| {
            synthesize(&dev, &spec, v, p, mode, MemKind::Hbm, &wl).unwrap()
        };
        let bitflip = (FaultPlan::single(1, FaultKind::BitFlip, 1_000_000), true);
        let drop = (FaultPlan::single(7, FaultKind::FifoDrop, 1_000_000), false);
        // Faulty runs, a deadlock followed by a clean run, per-mesh fan-out
        // and two devices (three passes, slabs on two workers); then tiles.
        let variety = |engine: ExecEngine| {
            let setup = Setup { engine, devices: 1, jobs: None, faults: None };
            [
                Setup { faults: Some(bitflip), ..setup },
                Setup { faults: Some(drop), ..setup },
                setup,
                Setup { jobs: Some(1), ..setup },
                Setup { devices: 2, jobs: Some(2), ..setup },
            ]
        };
        let check = |outcomes: &[Outcome]| {
            let rolled_back = |o: &Outcome| matches!(&o.0, Ok((_, _, s)) if s.rollbacks > 0);
            assert!(rolled_back(&outcomes[0]), "{:?}", outcomes[0].0.as_ref().err());
            assert!(matches!(&outcomes[1].0, Err(e) if e.starts_with("Deadlock")));
        };
        let pool = WindowPool::new();
        for engine in [ExecEngine::Scalar, ExecEngine::Fast] {
            let tiled = Setup { engine, devices: 1, jobs: None, faults: None };

            let wl = Workload::D2 { nx: 48, ny: 24, batch: 1 };
            let base = synth(StencilSpec::poisson(), 8, 4, ExecMode::Baseline, wl);
            let input = Batch2D::<f32>::random(48, 24, 1, 5, -1.0, 1.0);
            let runs = variety(engine).map(|setup| (&base, 12, setup));
            check(&assert_lending_is_invisible(&pool, &[Poisson2D], &input, &runs));
            let wl = Workload::D2 { nx: 200, ny: 20, batch: 1 };
            let ds = synth(StencilSpec::poisson(), 8, 4, ExecMode::Tiled1D { tile_m: 64 }, wl);
            let input = Batch2D::<f32>::random(200, 20, 1, 6, -1.0, 1.0);
            assert_lending_is_invisible(&pool, &[Poisson2D], &input, &[(&ds, 8, tiled)]);

            let k = [Jacobi3D::smoothing()];
            let wl = Workload::D3 { nx: 16, ny: 12, nz: 10, batch: 1 };
            let base = synth(StencilSpec::jacobi(), 8, 3, ExecMode::Baseline, wl);
            let input = Batch3D::<f32>::random(16, 12, 10, 1, 7, -1.0, 1.0);
            let runs = variety(engine).map(|setup| (&base, 9, setup));
            check(&assert_lending_is_invisible(&pool, &k, &input, &runs));
            let wl = Workload::D3 { nx: 60, ny: 44, nz: 6, batch: 1 };
            let mode = ExecMode::Tiled2D { tile_m: 32, tile_n: 24 };
            let ds = synth(StencilSpec::jacobi(), 8, 3, mode, wl);
            let input = Batch3D::<f32>::random(60, 44, 6, 1, 8, -1.0, 1.0);
            assert_lending_is_invisible(&pool, &k, &input, &[(&ds, 6, tiled)]);

            // RTM streams a packed element; its slabs and tiles need the
            // shallower p = 1 pipeline to fit their halos
            let k = RtmStage::pipeline(RtmParams::default());
            let wl = Workload::D3 { nx: 12, ny: 10, nz: 8, batch: 1 };
            let base = synth(StencilSpec::rtm(), 1, 3, ExecMode::Baseline, wl);
            let runs = variety(engine).map(|setup| (&base, 4, setup));
            let [faulty @ .., sharded] = runs;
            check(&assert_lending_is_invisible(&pool, &k, &rtm::demo_batch(12, 10, 8), &faulty));
            let wl = Workload::D3 { nx: 12, ny: 10, nz: 40, batch: 1 };
            let p1 = synth(StencilSpec::rtm(), 1, 1, ExecMode::Baseline, wl);
            let runs = [(&p1, 3, sharded.2)];
            assert_lending_is_invisible(&pool, &k, &rtm::demo_batch(12, 10, 40), &runs);
            let wl = Workload::D3 { nx: 48, ny: 12, nz: 6, batch: 1 };
            let ds =
                synth(StencilSpec::rtm(), 1, 1, ExecMode::Tiled2D { tile_m: 40, tile_n: 36 }, wl);
            assert_lending_is_invisible(&pool, &k, &rtm::demo_batch(48, 12, 6), &[(&ds, 2, tiled)]);
        }
    }
}
