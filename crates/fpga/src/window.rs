//! Window buffers, streaming stage processors and the chain runner — the
//! behavioral heart of the dataflow simulator.
//!
//! An HLS stencil pipeline streams the mesh in row-major order and keeps the
//! last `D` rows (2D) or planes (3D) in on-chip cyclic buffers so every
//! neighborhood read is served on-chip (Fig. 1 of the paper, "window
//! buffers"). A [`Window`] is exactly that buffer: one flat buffer of
//! `2r+1` unit slots, unit `j` living in slot `j mod (2r+1)`.
//! A stage emits output unit `y` once input unit `y+r` has arrived.
//! Chaining `p × stages` processors reproduces the unrolled iterative
//! pipeline of Fig. 2.
//!
//! On the device the window buffers are fixed when the design is
//! synthesized, and every run streams through the same ones. Here a
//! [`WindowPool`] owns the buffers: every chain takes its stages' buffers
//! from its run's pool and gives them back when it is dropped, so a caller
//! that lends one pool to many runs of a design allocates its windows once.
//!
//! The [`Stage`] contract mirrors the hardware channel between two
//! processing elements: [`Stage::push`] copies a borrowed input unit into
//! the window's next slot, and [`Stage::emit`] writes a ready output unit
//! into a caller-owned buffer. The chain runner hands each stage the next
//! stage's free slot as that buffer — the last stage writes a whole owned
//! unit straight into the pass's output, and a tile's or halo's through one
//! scratch unit — so a cell moves down the chain without any per-unit
//! allocation.
//!
//! A stage reads its window the way the device reads its window buffers, at
//! fixed offsets. Every processor reads through one accessor: `around`
//! resolves the `2r+1` units an output unit reads once per emitted unit,
//! with no division and, up to radius 4, no allocation, and `tap` offsets
//! each neighbour from the cell's own index in native index arithmetic.
//! The window steps its free slot as units are accepted.
//!
//! The processors are *seam-aware* for batched execution: the stream may
//! carry `B` stacked meshes, and a cell is only interior with respect to its
//! own mesh (`mesh_extent`-periodic in the streaming dimension), so stencils
//! never read across a batch seam.
//!
//! The chain runner is generic over an **execution engine** ([`Engine`]): a
//! factory for the per-stage processors, keyed by the streamed batch type
//! ([`StreamGrid`]: a row of a `Batch2D`, a plane of a `Batch3D`). The
//! [`ScalarEngine`] builds the cell-at-a-time processors; the vectorized
//! fast path (`crate::fast`) plugs in lane-parallel processors through the
//! same trait, so the streaming schedule, telemetry hooks, fault hooks and
//! drain logic are one function — and therefore byte-identical — across
//! both engines and both dimensionalities.

use crate::driver::StreamGrid;
use crate::error::ExecError;
use crate::resilient::FaultHook;
use sf_kernels::{StencilOp2D, StencilOp3D};
use sf_mesh::{Batch2D, Batch3D, Element, Tile1D};
use sf_telemetry::{Recorder, TrackId};
use std::any::Any;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut, Range};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The window buffer of one stage: the last `2r+1` stream units (rows or
/// planes) in one flat buffer of `2r+1` unit slots, addressable by
/// absolute unit index, plus the seam period and the emit cursor. The
/// buffer outlives a stream: a chain reused for the next pass restarts its
/// windows and keeps their slots, and a chain borrows its buffers from a
/// [`WindowPool`]. A stage differs from another only in how it computes one
/// output unit. Stages build and drive their windows inside this crate;
/// callers reach one through the [`Stage`] methods.
#[derive(Debug)]
pub struct Window<T> {
    /// Up to `slots × unit_len` cells; unit `i` lives in slot `i % slots`
    /// while `i ≥ pushed − slots`. It starts empty and grows slot by slot
    /// as the first stream hands the slots out, so no cell a pooled buffer
    /// held before is ever read.
    cells: Vec<T>,
    unit_len: usize,
    slots: usize,
    r: usize,
    /// Units pushed so far.
    pushed: usize,
    /// The free slot, `pushed mod slots`, stepped as units are accepted.
    head: usize,
    stream_units: usize,
    /// Units per independent mesh in the stream (seam period).
    mesh_units: usize,
    next_out: usize,
}

impl<T: Element> Window<T> {
    /// A window for a radius-`r` stage over a stream of `stream_units`
    /// units of `unit_len` cells, `mesh_units` units per independent mesh.
    ///
    /// # Panics
    /// Panics unless the stream is a whole number of meshes.
    pub(crate) fn new(r: usize, unit_len: usize, stream_units: usize, mesh_units: usize) -> Self {
        assert!(stream_units.is_multiple_of(mesh_units), "stream must be whole meshes");
        Window {
            cells: Vec::new(),
            unit_len,
            slots: 2 * r + 1,
            r,
            pushed: 0,
            head: 0,
            stream_units,
            mesh_units,
            next_out: 0,
        }
    }

    /// Copy the next input unit into the window; returns the index of the
    /// output unit it completes (none while the window is filling).
    ///
    /// # Panics
    /// Panics if `unit` is not one unit long or the stream is complete.
    pub(crate) fn push(&mut self, unit: &[T]) -> Option<usize> {
        assert_eq!(unit.len(), self.unit_len, "unit size mismatch");
        self.slot_mut().copy_from_slice(unit);
        self.commit()
    }

    /// The free slot the next input unit goes into. It holds no live
    /// unit: the one it last held is older than every unit a pending
    /// output still reads.
    pub(crate) fn slot_mut(&mut self) -> &mut [T] {
        let end = (self.head + 1) * self.unit_len;
        if self.cells.len() < end {
            // Slots are handed out in order, so the first stream through a
            // window initializes each slot just before its first write, and
            // a stream shorter than the window never touches the rest.
            self.cells.resize(end, T::default());
        }
        &mut self.cells[self.head * self.unit_len..end]
    }

    /// Accept the unit written into [`Window::slot_mut`] as the next input
    /// unit; returns the index of the output unit it completes.
    pub(crate) fn commit(&mut self) -> Option<usize> {
        assert!(self.pushed < self.stream_units, "stream overrun");
        self.pushed += 1;
        self.head = if self.head + 1 == self.slots { 0 } else { self.head + 1 };
        let out = (self.pushed - 1).checked_sub(self.r)?;
        self.next_out = out + 1;
        Some(out)
    }

    /// Copy the last accepted unit into the free slot (a duplicated stream
    /// element enters the window twice).
    pub(crate) fn repeat(&mut self) {
        // the free slot may not have been handed out yet
        self.slot_mut();
        let last = self.slot(self.pushed - 1);
        let len = self.unit_len;
        self.cells.copy_within(last * len..(last + 1) * len, self.head * len);
    }

    /// Start the stream over, keeping the buffer: every slot is written
    /// before it is read again.
    pub(crate) fn reset(&mut self) {
        self.pushed = 0;
        self.head = 0;
        self.next_out = 0;
    }

    /// After the last input unit: the trailing output units still owed.
    ///
    /// # Panics
    /// Panics if the stream is incomplete.
    pub(crate) fn drain(&mut self) -> Range<usize> {
        assert_eq!(self.pushed, self.stream_units, "stream incomplete");
        let rest = self.next_out..self.stream_units;
        self.next_out = self.stream_units;
        rest
    }

    /// The slot of unit `abs` (must still be resident), `abs mod slots`
    /// counted back from the free slot.
    fn slot(&self, abs: usize) -> usize {
        debug_assert!(
            abs < self.pushed && abs + self.slots >= self.pushed,
            "unit {abs} evicted (pushed {}, slots {})",
            self.pushed,
            self.slots
        );
        let s = self.head + self.slots - (self.pushed - abs);
        if s >= self.slots {
            s - self.slots
        } else {
            s
        }
    }

    /// Borrow unit `abs` (must still be resident).
    pub(crate) fn get(&self, abs: usize) -> &[T] {
        let s = self.slot(abs);
        &self.cells[s * self.unit_len..(s + 1) * self.unit_len]
    }

    /// The `2r+1` units centered on unit `z` (`z ≥ r`, all resident): what
    /// an output unit `z` interior to its mesh reads.
    #[inline]
    pub(crate) fn around(&self, z: usize) -> Around<'_, T> {
        let n = self.slots;
        let mut around = Around { inline: [&[]; INLINE_UNITS], spill: Vec::new(), len: n };
        let units = if n <= INLINE_UNITS {
            &mut around.inline[..n]
        } else {
            around.spill.resize(n, &[]);
            &mut around.spill[..]
        };
        let mut s = self.slot(z - self.r);
        for unit in units {
            *unit = &self.cells[s * self.unit_len..(s + 1) * self.unit_len];
            s = if s + 1 == n { 0 } else { s + 1 };
        }
        around
    }

    /// Whether stream unit `z` is interior to its own mesh along the
    /// streamed axis.
    pub(crate) fn interior(&self, z: usize) -> bool {
        // a stream is mostly one mesh, whose units need no division
        let l = if z < self.mesh_units { z } else { z % self.mesh_units };
        l >= self.r && l + self.r < self.mesh_units
    }

    /// Units currently resident in the window (≤ `2r+1`).
    pub(crate) fn fill(&self) -> usize {
        self.pushed.min(self.slots)
    }
}

/// Units an [`Around`] holds inline: the `2r+1` of a radius-4 stage, the
/// widest the paper's applications stream (RTM's 8th-order star). A wider
/// window's units spill to one heap buffer per emitted unit.
const INLINE_UNITS: usize = 9;

/// The units `z−r..=z+r` an output unit `z` reads, in stream order,
/// resolved from the window once per emitted unit: `units()[r + d]` is unit
/// `z + d`. A stage then reads every neighbour at a fixed offset from its
/// own index ([`tap`]), as the device reads its window buffers, and works
/// out no slot or address per read.
pub(crate) struct Around<'w, T> {
    inline: [&'w [T]; INLINE_UNITS],
    spill: Vec<&'w [T]>,
    len: usize,
}

impl<'w, T> Around<'w, T> {
    /// The units, oldest first.
    pub(crate) fn units(&self) -> &[&'w [T]] {
        if self.len <= INLINE_UNITS {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

/// Index `i` moved by the stencil offset `d`, in native index arithmetic:
/// where the tap `d` of the cell, row or unit at `i` lies.
#[inline(always)]
pub(crate) fn tap(i: usize, d: i32) -> usize {
    i.wrapping_add_signed(d as isize)
}

/// One streaming pipeline stage, as the chain runner sees it: a window and
/// a rule for computing one output unit from it. Implemented by the scalar
/// and the lane-parallel processors of both dimensions.
pub trait Stage<T: Element> {
    /// The stage's window buffer.
    fn window(&self) -> &Window<T>;
    /// Mutable access to the window buffer.
    fn window_mut(&mut self) -> &mut Window<T>;
    /// Write output unit `j` — one the window has completed ([`Stage::push`]
    /// returned it, or [`Stage::drain`] listed it) — into `out`, which is
    /// exactly one unit long.
    fn emit(&self, j: usize, out: &mut [T]);

    /// Copy the next input unit into the window; returns the index of the
    /// output unit that became ready (none while the window is filling).
    fn push(&mut self, unit: &[T]) -> Option<usize> {
        self.window_mut().push(unit)
    }
    /// After the last input unit: the trailing output units still owed.
    fn drain(&mut self) -> Range<usize> {
        self.window_mut().drain()
    }
    /// Units currently held in the window buffer.
    fn window_fill(&self) -> usize {
        self.window().fill()
    }
}

/// One pipeline stage streaming rows of a (possibly batched) 2D mesh.
pub struct StageProcessor2D<T: Element, K: StencilOp2D<T>> {
    k: K,
    nx: usize,
    win: Window<T>,
}

impl<T: Element, K: StencilOp2D<T>> StageProcessor2D<T, K> {
    /// Create a processor for a stream of `stream_rows` rows of `nx` cells,
    /// where every `mesh_ny` rows form an independent mesh.
    pub fn new(k: K, nx: usize, stream_rows: usize, mesh_ny: usize) -> Self {
        let win = Window::new(k.radius(), nx, stream_rows, mesh_ny);
        StageProcessor2D { k, nx, win }
    }
}

impl<T: Element, K: StencilOp2D<T>> Stage<T> for StageProcessor2D<T, K> {
    fn window(&self) -> &Window<T> {
        &self.win
    }
    fn window_mut(&mut self) -> &mut Window<T> {
        &mut self.win
    }
    fn emit(&self, y: usize, out: &mut [T]) {
        let (nx, r) = (self.nx, self.k.radius());
        assert_eq!(out.len(), nx, "unit size mismatch");
        if !self.win.interior(y) {
            for (o, c) in out.iter_mut().zip(self.win.get(y)) {
                *o = self.k.on_boundary(*c);
            }
            return;
        }
        let around = self.win.around(y);
        let rows = around.units();
        let center = rows[r];
        for (x, o) in out.iter_mut().enumerate() {
            *o = if x >= r && x + r < nx {
                self.k.apply(|dx, dy| rows[tap(r, dy)][tap(x, dx)])
            } else {
                self.k.on_boundary(center[x])
            };
        }
    }
}

/// One pipeline stage streaming planes of a (possibly batched) 3D mesh.
/// A plane is `nx × ny` cells, row-major.
pub struct StageProcessor3D<T: Element, K: StencilOp3D<T>> {
    k: K,
    nx: usize,
    ny: usize,
    win: Window<T>,
}

impl<T: Element, K: StencilOp3D<T>> StageProcessor3D<T, K> {
    /// Create a processor for a stream of `stream_planes` planes of
    /// `nx × ny` cells, `mesh_nz` planes per independent mesh.
    pub fn new(k: K, nx: usize, ny: usize, stream_planes: usize, mesh_nz: usize) -> Self {
        let win = Window::new(k.radius(), nx * ny, stream_planes, mesh_nz);
        StageProcessor3D { k, nx, ny, win }
    }
}

impl<T: Element, K: StencilOp3D<T>> Stage<T> for StageProcessor3D<T, K> {
    fn window(&self) -> &Window<T> {
        &self.win
    }
    fn window_mut(&mut self) -> &mut Window<T> {
        &mut self.win
    }
    fn emit(&self, z: usize, out: &mut [T]) {
        let (nx, ny, r) = (self.nx, self.ny, self.k.radius());
        assert_eq!(out.len(), nx * ny, "unit size mismatch");
        if !self.win.interior(z) {
            for (o, c) in out.iter_mut().zip(self.win.get(z)) {
                *o = self.k.on_boundary(*c);
            }
            return;
        }
        let around = self.win.around(z);
        let planes = around.units();
        let center = planes[r];
        for (y, row) in out.chunks_exact_mut(nx).enumerate() {
            let y_interior = y >= r && y + r < ny;
            for (x, o) in row.iter_mut().enumerate() {
                *o = if y_interior && x >= r && x + r < nx {
                    self.k.apply(|dx, dy, dz| planes[tap(r, dz)][tap(y, dy) * nx + tap(x, dx)])
                } else {
                    self.k.on_boundary(center[y * nx + x])
                };
            }
        }
    }
}

/// An execution engine: a factory turning one kernel of the chain into a
/// streaming stage over batches of type `B`. The chain runner owns
/// everything else (feed cascade, telemetry, faults, drain), so two engines
/// that build cell-for-cell-equal stages produce byte-identical runs.
pub trait Engine<B: StreamGrid, K>: Sync {
    /// The stage processor this engine builds. A chain of them lives for a
    /// whole run and may stream on a different worker every pass.
    type Stage: Stage<B::Cell> + Send;
    /// Build the stage for kernel `k` over a stream of `stream_units` units
    /// of `unit.1` rows of `unit.0` cells (a 2D row has `unit.1 == 1`),
    /// `mesh_units` units per independent mesh.
    fn stage(
        &self,
        k: &K,
        unit: (usize, usize),
        stream_units: usize,
        mesh_units: usize,
    ) -> Self::Stage;
}

/// The cell-at-a-time engine: builds the classic scalar stage processors.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ScalarEngine;

impl<T: Element, K: StencilOp2D<T> + Clone> Engine<Batch2D<T>, K> for ScalarEngine {
    type Stage = StageProcessor2D<T, K>;
    fn stage(&self, k: &K, unit: (usize, usize), stream: usize, mesh: usize) -> Self::Stage {
        StageProcessor2D::new(k.clone(), unit.0, stream, mesh)
    }
}

impl<T: Element, K: StencilOp3D<T> + Clone> Engine<Batch3D<T>, K> for ScalarEngine {
    type Stage = StageProcessor3D<T, K>;
    fn stage(&self, k: &K, unit: (usize, usize), stream: usize, mesh: usize) -> Self::Stage {
        StageProcessor3D::new(k.clone(), unit.0, unit.1, stream, mesh)
    }
}

/// Where the last stage of a chain run writes its output units. The run
/// streams one segment of the schedule walk: its unit `j` is unit
/// `streamed.start + j mod units` of mesh `j div units`, read as `x`
/// columns by `y` rows. Only the valid region of each `owned` unit reaches
/// `out`, which holds the owned units of each mesh, mesh after mesh. A
/// whole owned unit is emitted straight into `out`; a tile's unit goes to a
/// scratch unit, whose valid rows and columns are then copied out; a halo
/// unit goes to the scratch unit and is dropped.
pub(crate) struct Sink<'s, 'o, T> {
    out: &'s mut [&'o mut [T]],
    /// A mesh unit is `.1` rows of `.0` cells.
    shape: (usize, usize),
    x: Tile1D,
    y: Tile1D,
    streamed: Range<usize>,
    owned: Range<usize>,
    /// Whether a streamed unit is a whole mesh unit.
    whole: bool,
    scratch: Vec<T>,
}

impl<'s, 'o, T: Element> Sink<'s, 'o, T> {
    pub(crate) fn new(
        out: &'s mut [&'o mut [T]],
        shape: (usize, usize),
        (x, y): (Tile1D, Tile1D),
        streamed: Range<usize>,
        owned: Range<usize>,
    ) -> Self {
        let whole = (x.read_len, y.read_len) == shape;
        Sink { out, shape, x, y, streamed, owned, whole, scratch: Vec::new() }
    }

    /// The mesh of stream unit `j` and its index among the mesh's owned
    /// units, if the device owns it.
    fn owned_unit(&self, j: usize) -> Option<(usize, usize)> {
        let units = self.streamed.len();
        let u = self.streamed.start + j % units;
        self.owned.contains(&u).then(|| (j / units, u - self.owned.start))
    }

    /// The one-unit buffer output unit `j` is emitted into.
    fn unit(&mut self, j: usize) -> &mut [T] {
        if self.whole {
            if let Some((m, i)) = self.owned_unit(j) {
                let len = self.shape.0 * self.shape.1;
                return &mut self.out[m][i * len..(i + 1) * len];
            }
        }
        self.scratch.resize(self.x.read_len * self.y.read_len, T::default());
        &mut self.scratch
    }

    /// Output unit `j` is complete in [`Sink::unit`]'s buffer.
    fn done(&mut self, j: usize) {
        let Some((m, i)) = self.owned_unit(j).filter(|_| !self.whole) else { return };
        let (x, y, (nx, ny)) = (self.x, self.y, self.shape);
        for v in 0..y.valid_len {
            let src = (y.valid_offset() + v) * x.read_len + x.valid_offset();
            let dst = (i * ny + y.valid_start + v) * nx + x.valid_start;
            self.out[m][dst..dst + x.valid_len]
                .copy_from_slice(&self.scratch[src..src + x.valid_len]);
        }
    }
}

/// Where a chain run's window events go: per-stage tracks named
/// `{prefix}stage:{i}`, with input unit `j` stamped at cycle
/// `base_cycle + j · unit_cycles`.
pub(crate) struct ChainTrace<'r> {
    pub(crate) rec: &'r mut Recorder,
    pub(crate) prefix: &'r str,
    pub(crate) base_cycle: u64,
    pub(crate) unit_cycles: u64,
}

/// Per-stage telemetry state of a chain run.
struct StageTrace {
    track: TrackId,
    primed: bool,
}

/// Stage `i` emits its ready output unit `y` into the free slot of stage
/// `i + 1`, or into the sink after the last stage.
fn emit_down<T: Element, S: Stage<T>>(stages: &mut [S], i: usize, y: usize, sink: &mut Sink<T>) {
    let (up, down) = stages.split_at_mut(i + 1);
    match down.first_mut() {
        Some(next) => up[i].emit(y, next.window_mut().slot_mut()),
        None => {
            up[i].emit(y, sink.unit(y));
            sink.done(y);
        }
    }
}

/// Accept the unit waiting in stage `from`'s free slot and cascade: a stage
/// that completes an output unit emits it into the next stage's slot (the
/// last into the sink) and the cascade continues; a buffering stage stops
/// it. Returns how many units reached the sink (0 or 1). A stage's first
/// emission records a "primed" instant; a buffering push samples its
/// window fill.
fn feed<T: Element, S: Stage<T>>(
    stages: &mut [S],
    tr: &mut [StageTrace],
    from: usize,
    sink: &mut Sink<T>,
    rec: &mut Recorder,
    cycle: u64,
) -> usize {
    for i in from..stages.len() {
        let Some(y) = stages[i].window_mut().commit() else {
            rec.gauge(tr[i].track, "window_fill", cycle, stages[i].window_fill() as f64);
            return 0;
        };
        if !tr[i].primed {
            tr[i].primed = true;
            rec.instant(tr[i].track, "primed", cycle);
        }
        emit_down(stages, i, y, sink);
    }
    1
}

/// Window memory with an owner that outlives a run, as a synthesized
/// design's window buffers outlive every run of its bitstream. Every chain
/// of a run takes its stages' buffers from the run's pool and gives them
/// back when it is done, errors included. A run makes a pool of its own
/// unless one is lent to it ([`Run::windows`](crate::driver::Run::windows));
/// a caller that runs one design many times lends one pool to every run,
/// so their windows are allocated once instead of once per run.
///
/// A pool holds buffers of any [`Element`] type, hands a buffer out only
/// for its own element type, and can be shared by reference across worker
/// threads. A handed-out buffer is empty: a window writes every cell before
/// it reads it, so what a buffer held in an earlier run is never seen.
#[derive(Debug, Default)]
pub struct WindowPool {
    /// One free list per element type `T`, each a `Vec<Vec<T>>`.
    free: Mutex<Vec<Box<dyn Any + Send>>>,
}

impl WindowPool {
    /// An empty pool.
    pub fn new() -> Self {
        WindowPool::default()
    }

    /// The free lists. Every update leaves them valid, so a panic on
    /// another worker poisons nothing.
    fn lists(&self) -> MutexGuard<'_, Vec<Box<dyn Any + Send>>> {
        self.free.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// An empty buffer with room for `cells` cells: a free one, grown if
    /// it is smaller, or a new one.
    fn take<T: Element>(&self, cells: usize) -> Vec<T> {
        let free = self.lists().iter_mut().find_map(|l| l.downcast_mut::<Vec<Vec<T>>>()?.pop());
        let mut buf = free.unwrap_or_default();
        buf.clear();
        buf.reserve_exact(cells);
        buf
    }

    /// Keep `bufs` for later chains.
    fn give<T: Element>(&self, bufs: impl Iterator<Item = Vec<T>>) {
        let mut lists = self.lists();
        if !lists.iter().any(|l| l.is::<Vec<Vec<T>>>()) {
            lists.push(Box::new(Vec::<Vec<T>>::new()));
        }
        if let Some(free) = lists.iter_mut().find_map(|l| l.downcast_mut::<Vec<Vec<T>>>()) {
            free.extend(bufs);
        }
    }
}

/// The stages of one chain, their windows' buffers borrowed from a
/// [`WindowPool`] by [`build_chain`]. Dropping the chain gives the buffers
/// back, whether its streams completed, failed or panicked.
pub(crate) struct Chain<'w, T: Element, S: Stage<T>> {
    stages: Vec<S>,
    pool: &'w WindowPool,
    cell: PhantomData<T>,
}

impl<T: Element, S: Stage<T>> Deref for Chain<'_, T, S> {
    type Target = [S];
    fn deref(&self) -> &[S] {
        &self.stages
    }
}

impl<T: Element, S: Stage<T>> DerefMut for Chain<'_, T, S> {
    fn deref_mut(&mut self) -> &mut [S] {
        &mut self.stages
    }
}

impl<T: Element, S: Stage<T>> Drop for Chain<'_, T, S> {
    fn drop(&mut self) {
        let bufs = self.stages.iter_mut().map(|s| std::mem::take(&mut s.window_mut().cells));
        self.pool.give(bufs);
    }
}

/// The stages `engine` builds from `chain` (the unrolled pipeline of
/// Fig. 2) for a stream of `stream_units` units of shape `unit`,
/// `mesh_units` units per independent mesh, each window around a buffer
/// taken from `pool`.
pub(crate) fn build_chain<'w, B: StreamGrid, K, E: Engine<B, K>>(
    engine: &E,
    chain: &[K],
    unit: (usize, usize),
    stream_units: usize,
    mesh_units: usize,
    pool: &'w WindowPool,
) -> Chain<'w, B::Cell, E::Stage> {
    let stages = chain
        .iter()
        .map(|k| {
            let mut stage = engine.stage(k, unit, stream_units, mesh_units);
            let win = stage.window_mut();
            win.cells = pool.take(win.slots * win.unit_len);
            stage
        })
        .collect();
    Chain { stages, pool, cell: PhantomData }
}

/// Stream `stream_units` units through `stages` (built for that stream by
/// [`build_chain`]; a chain run restarts their windows, so a pass loop
/// reuses one chain for every pass). `input(j, slot)` writes input unit
/// `j` into the first stage's free slot; the last stage emits every output
/// unit into `sink`.
///
/// Telemetry: per-stage fill gauges while each window primes, a "primed"
/// instant when a stage first emits, a "drain" instant when its trailing
/// units flush, and streamed/drained unit counters. With a disabled
/// recorder every hook is a single predictable branch.
///
/// With a fault hook the runner consults the injector once per input unit,
/// on the first stage's copy of it, and reports forward progress to the
/// hook's watchdog: a dropped unit starves the pipeline and surfaces as
/// [`ExecError::Deadlock`]; duplicated, corrupted and bit-flipped units
/// complete with wrong data. Without one the run cannot fail.
pub(crate) fn run_chain<B: StreamGrid, S: Stage<B::Cell>>(
    stages: &mut [S],
    stream_units: usize,
    mut input: impl FnMut(usize, &mut [B::Cell]),
    sink: &mut Sink<B::Cell>,
    trace: ChainTrace<'_>,
    mut faults: Option<&mut FaultHook<'_>>,
) -> Result<(), ExecError> {
    let ChainTrace { rec, prefix, base_cycle, unit_cycles } = trace;
    for s in stages.iter_mut() {
        s.window_mut().reset();
    }
    let mut tr: Vec<StageTrace> = (0..stages.len())
        .map(|i| StageTrace {
            track: if rec.is_enabled() {
                rec.track(&format!("{prefix}stage:{i}"))
            } else {
                TrackId(0)
            },
            primed: false,
        })
        .collect();
    if let Some(f) = faults.as_deref_mut() {
        f.start(stream_units, B::UNITS);
    }
    let (mut fed, mut emitted) = (0usize, 0usize);
    for j in 0..stream_units {
        let cycle = base_cycle + j as u64 * unit_cycles;
        let slot = stages[0].window_mut().slot_mut();
        input(j, slot);
        let copies = faults.as_deref_mut().map_or(1, |f| f.copies(j, slot));
        for c in 0..copies {
            if fed == stream_units {
                // Input FIFO already holds the whole stream: the surplus
                // element is discarded at the full queue.
                break;
            }
            if c > 0 {
                stages[0].window_mut().repeat();
            }
            let before = emitted;
            emitted += feed(stages, &mut tr, 0, sink, rec, cycle);
            fed += 1;
            if let Some(f) = faults.as_deref_mut() {
                f.progress(cycle, before, emitted);
            }
        }
        if let Some(f) = faults.as_deref_mut() {
            f.check(cycle)?;
        }
    }
    rec.counter_add(B::STREAMED, stream_units as u64);
    let end_cycle = base_cycle + stream_units as u64 * unit_cycles;
    if let Some(f) = faults.as_deref_mut() {
        f.check_fed(end_cycle, fed)?;
    }
    // flush stage by stage, cascading trailing units downstream
    for i in 0..stages.len() {
        let trailing = stages[i].drain();
        rec.counter_add(B::DRAINED, trailing.len() as u64);
        rec.instant(tr[i].track, "drain", end_cycle);
        for y in trailing {
            emit_down(stages, i, y, sink);
            let before = emitted;
            emitted += feed(stages, &mut tr, i + 1, sink, rec, end_cycle);
            if let Some(f) = faults.as_deref_mut() {
                f.progress(end_cycle, before, emitted);
            }
        }
    }
    if let Some(f) = faults {
        f.drained(end_cycle)?;
    }
    assert_eq!(emitted, stream_units, "chain must emit the full stream");
    Ok(())
}

#[cfg(test)]
impl WindowPool {
    /// Free buffers of element type `T` and their total capacity in cells.
    pub(crate) fn held<T: Element>(&self) -> (usize, usize) {
        let lists = self.lists();
        let free = lists.iter().find_map(|l| l.downcast_ref::<Vec<Vec<T>>>());
        free.map_or((0, 0), |free| (free.len(), free.iter().map(Vec::capacity).sum()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_kernels::{reference, Jacobi3D, Poisson2D};
    use sf_mesh::{norms, Mesh2D, Mesh3D};

    /// The chain runner without faults, as the executors call it: `cells`
    /// streamed unit by unit, the output collected into one flat buffer.
    #[allow(clippy::too_many_arguments)]
    fn chain<B: StreamGrid, K>(
        chain: &[K],
        unit: (usize, usize),
        stream_units: usize,
        mesh_units: usize,
        cells: &[B::Cell],
        rec: &mut Recorder,
        prefix: &str,
        base_cycle: u64,
        unit_cycles: u64,
    ) -> Vec<B::Cell>
    where
        ScalarEngine: Engine<B, K>,
    {
        let len = unit.0 * unit.1;
        let mut out = vec![B::Cell::default(); cells.len()];
        let input = |j: usize, slot: &mut [B::Cell]| {
            slot.copy_from_slice(&cells[j * len..(j + 1) * len]);
        };
        let trace = ChainTrace { rec, prefix, base_cycle, unit_cycles };
        let whole = |n| Tile1D { read_start: 0, read_len: n, valid_start: 0, valid_len: n };
        let mut meshes: Vec<&mut [B::Cell]> = out.chunks_mut(mesh_units * len).collect();
        let tiles = (whole(unit.0), whole(unit.1));
        let mut sink = Sink::new(&mut meshes, unit, tiles, 0..mesh_units, 0..mesh_units);
        let pool = WindowPool::new();
        let mut stages = build_chain(&ScalarEngine, chain, unit, stream_units, mesh_units, &pool);
        run_chain::<B, _>(&mut stages, stream_units, input, &mut sink, trace, None).unwrap();
        out
    }

    fn run_2d(k: &[Poisson2D], nx: usize, rows: usize, mesh_ny: usize, cells: &[f32]) -> Vec<f32> {
        let mut rec = Recorder::disabled();
        chain::<Batch2D<f32>, _>(k, (nx, 1), rows, mesh_ny, cells, &mut rec, "", 0, 1)
    }

    #[test]
    fn ring_buffer_eviction_and_access() {
        let mut w = Window::<f32>::new(1, 1, 5, 5);
        let done: Vec<_> = (0..5).map(|i| w.push(&[i as f32])).collect();
        assert_eq!(done, [None, Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(w.fill(), 3);
        assert_eq!(w.get(2), &[2.0]);
        assert_eq!(w.get(4), &[4.0]);
        assert_eq!(w.around(3).units(), [&[2.0][..], &[3.0], &[4.0]]);
        assert_eq!(w.drain(), 4..5);
    }

    #[test]
    fn stepped_free_slot_and_around_follow_the_stream() {
        // radius 4 fills the inline units exactly, radius 5 spills; 23 units
        // wrap each ring at least twice, and the second pass duplicates
        // every fifth unit
        for r in [1, 2, 4, 5] {
            let units = 23;
            let mut w = Window::<f32>::new(r, 2, units, units);
            for pass in 0..2 {
                w.reset();
                let mut accepted: Vec<[f32; 2]> = Vec::new();
                for j in 0..units {
                    assert_eq!(w.head, w.pushed % w.slots, "r={r} pass {pass} unit {j}");
                    let cells = if pass == 1 && j % 5 == 4 {
                        w.repeat();
                        accepted[j - 1]
                    } else {
                        let cells = [j as f32, (100 * pass) as f32];
                        w.slot_mut().copy_from_slice(&cells);
                        cells
                    };
                    accepted.push(cells);
                    let out = w.commit();
                    assert_eq!(out, j.checked_sub(r), "r={r} pass {pass} unit {j}");
                    for (u, cells) in
                        accepted.iter().enumerate().skip((j + 1).saturating_sub(w.slots))
                    {
                        assert_eq!(w.get(u), cells, "r={r} pass {pass} unit {u}");
                    }
                    if let Some(z) = out.filter(|&z| z >= r) {
                        let around = w.around(z);
                        let want: Vec<&[f32]> = (z - r..=z + r).map(|u| &accepted[u][..]).collect();
                        assert_eq!(around.units(), want, "r={r} pass {pass} z={z}");
                    }
                }
                assert_eq!(w.head, w.pushed % w.slots, "r={r} pass {pass} end");
            }
        }
    }

    #[test]
    fn repeat_fills_the_free_slot_while_priming() {
        // a duplicated first unit enters before its slot was ever handed out
        let mut w = Window::<f32>::new(1, 2, 4, 4);
        assert_eq!(w.push(&[1.0, 2.0]), None);
        w.repeat();
        assert_eq!(w.commit(), Some(0));
        assert_eq!(w.get(1), &[1.0, 2.0]);
        assert_eq!(w.fill(), 2);
    }

    #[test]
    fn single_stage_equals_reference_step() {
        let m = Mesh2D::<f32>::random(17, 9, 3, -1.0, 1.0);
        let got = run_2d(&[Poisson2D], 17, 9, 9, m.as_slice());
        let expect = reference::step_2d(&Poisson2D, &m);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn chained_stages_equal_iterated_reference() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let got = run_2d(&[Poisson2D; 5], 21, 13, 13, m.as_slice());
        let expect = reference::run_2d(&Poisson2D, &m, 5);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn batched_stream_respects_seams() {
        // 3 stacked meshes must come out exactly as 3 independent solves
        let batch = Batch2D::<f32>::random(11, 7, 3, 9, -1.0, 1.0);
        // seam period = per-mesh rows
        let got = run_2d(&[Poisson2D; 4], 11, 21, 7, batch.as_slice());
        let expect = reference::run_batch_2d(&Poisson2D, &batch, 4);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    fn run_3d(k: &[Jacobi3D], m: &Mesh3D<f32>, rec: &mut Recorder, cpp: u64) -> Vec<f32> {
        let (nx, ny, nz) = (m.nx(), m.ny(), m.nz());
        chain::<Batch3D<f32>, _>(k, (nx, ny), nz, nz, m.as_slice(), rec, "", 0, cpp)
    }

    #[test]
    fn chain_3d_equals_reference() {
        let m = Mesh3D::<f32>::random(9, 8, 7, 5, -1.0, 1.0);
        let k = Jacobi3D::smoothing();
        let got = run_3d(&[k; 3], &m, &mut Recorder::disabled(), 1);
        let expect = reference::run_3d(&k, &m, 3);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn traced_chain_matches_untraced_and_records_events() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let chain3 = [Poisson2D; 3];
        let plain = run_2d(&chain3, 21, 13, 13, m.as_slice());

        let mut rec = Recorder::enabled(300.0);
        let traced = chain::<Batch2D<f32>, _>(
            &chain3,
            (21, 1),
            13,
            13,
            m.as_slice(),
            &mut rec,
            "p0/",
            100,
            28,
        );
        assert_eq!(plain, traced, "telemetry must not change results");

        // One track per stage, each primed exactly once and drained once.
        assert_eq!(rec.track_names(), &["p0/stage:0", "p0/stage:1", "p0/stage:2"]);
        let primed: Vec<_> = rec.instants().iter().filter(|i| i.name == "primed").collect();
        assert_eq!(primed.len(), 3);
        // Stage s first emits on input row s·r + r (radius 1) → cycle stamps
        // follow base + j·cpr and grow down the chain.
        assert_eq!(primed[0].cycle, 100 + 28);
        assert!(primed[1].cycle > primed[0].cycle);
        assert_eq!(rec.instants().iter().filter(|i| i.name == "drain").count(), 3);
        // Fill gauges only while windows prime: r rows per stage.
        assert_eq!(rec.gauges().iter().filter(|g| g.name == "window_fill").count(), 3);
        assert_eq!(rec.counter("window.rows_streamed"), 13);
        assert_eq!(rec.counter("window.drain_rows"), 3);
    }

    #[test]
    fn traced_chain_3d_matches_untraced() {
        let m = Mesh3D::<f32>::random(9, 8, 7, 5, -1.0, 1.0);
        let k = Jacobi3D::smoothing();
        let plain = run_3d(&[k; 2], &m, &mut Recorder::disabled(), 1);
        let mut rec = Recorder::enabled(300.0);
        let traced = run_3d(&[k; 2], &m, &mut rec, 10);
        assert_eq!(plain, traced);
        assert_eq!(rec.counter("window.planes_streamed"), 7);
        assert_eq!(rec.instants().iter().filter(|i| i.name == "primed").count(), 2);
    }

    #[test]
    fn tiny_mesh_all_boundary() {
        // 2×2 mesh with radius-1 stencil: everything is boundary
        let m = Mesh2D::<f32>::random(2, 2, 1, 0.0, 1.0);
        let got = run_2d(&[Poisson2D], 2, 2, 2, m.as_slice());
        assert!(norms::bit_equal(&got, m.as_slice()));
    }

    #[test]
    #[should_panic(expected = "stream must be whole meshes")]
    fn seam_period_must_divide_stream() {
        let _ = StageProcessor2D::new(Poisson2D, 4, 10, 3);
    }

    #[test]
    #[should_panic(expected = "unit size mismatch")]
    fn row_width_checked() {
        let mut p = StageProcessor2D::new(Poisson2D, 4, 4, 4);
        let _ = p.push(&[0.0; 5]);
    }
}
