//! Window buffers, streaming stage processors and the chain runner — the
//! behavioral heart of the dataflow simulator.
//!
//! An HLS stencil pipeline streams the mesh in row-major order and keeps the
//! last `D` rows (2D) or planes (3D) in on-chip cyclic buffers so every
//! neighborhood read is served on-chip (Fig. 1 of the paper, "window
//! buffers"). [`StageProcessor2D`]/[`StageProcessor3D`] implement exactly
//! that: a ring of `2r+1` rows/planes; a stage emits output row `y` once
//! input row `y+r` has arrived. Chaining `p × stages` processors reproduces
//! the unrolled iterative pipeline of Fig. 2.
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
use sf_mesh::{Batch2D, Batch3D, Element};
use sf_telemetry::{Recorder, TrackId};
use std::ops::Range;

/// Fixed-capacity ring of stream units (rows or planes), addressable by
/// absolute unit index.
#[derive(Debug)]
pub struct RingBuffer<T> {
    slots: Vec<Vec<T>>,
    capacity: usize,
    /// Number of units pushed so far; unit `i` lives in slot `i % capacity`
    /// while `i ≥ pushed − capacity`.
    pushed: usize,
}

impl<T> RingBuffer<T> {
    /// Create a ring holding up to `capacity` units.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        RingBuffer { slots: Vec::with_capacity(capacity), capacity, pushed: 0 }
    }

    /// Push the next unit (evicting the oldest once full).
    pub fn push(&mut self, unit: Vec<T>) {
        if self.slots.len() < self.capacity {
            self.slots.push(unit);
        } else {
            self.slots[self.pushed % self.capacity] = unit;
        }
        self.pushed += 1;
    }

    /// Borrow unit `abs` (must still be resident).
    pub fn get(&self, abs: usize) -> &[T] {
        debug_assert!(
            abs < self.pushed && abs + self.capacity >= self.pushed,
            "unit {abs} evicted (pushed {}, capacity {})",
            self.pushed,
            self.capacity
        );
        &self.slots[abs % self.capacity]
    }

    /// Units pushed so far.
    pub fn pushed(&self) -> usize {
        self.pushed
    }

    /// Units currently resident (≤ capacity).
    pub fn resident(&self) -> usize {
        self.slots.len()
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// The window every stage processor keeps: the ring of the last `2r+1`
/// units, the seam period and the emit cursor. A stage differs from
/// another only in how it computes one output unit.
pub(crate) struct Window<T> {
    pub(crate) ring: RingBuffer<T>,
    pub(crate) r: usize,
    stream_units: usize,
    /// Units per independent mesh in the stream (seam period).
    mesh_units: usize,
    next_out: usize,
}

impl<T> Window<T> {
    pub(crate) fn new(r: usize, stream_units: usize, mesh_units: usize) -> Self {
        assert!(stream_units.is_multiple_of(mesh_units), "stream must be whole meshes");
        Window { ring: RingBuffer::new(2 * r + 1), r, stream_units, mesh_units, next_out: 0 }
    }

    /// Push the next input unit; returns the index of the output unit it
    /// completes (none while the window is filling).
    pub(crate) fn push(&mut self, unit: Vec<T>) -> Option<usize> {
        assert!(self.ring.pushed() < self.stream_units, "stream overrun");
        self.ring.push(unit);
        let j = self.ring.pushed() - 1;
        let out = j.checked_sub(self.r)?;
        self.next_out = out + 1;
        Some(out)
    }

    /// After the last input unit: the trailing output units still owed.
    pub(crate) fn drain(&mut self) -> Range<usize> {
        assert_eq!(self.ring.pushed(), self.stream_units, "stream incomplete");
        let rest = self.next_out..self.stream_units;
        self.next_out = self.stream_units;
        rest
    }

    /// Whether stream unit `z` is interior to its own mesh along the
    /// streamed axis.
    pub(crate) fn interior(&self, z: usize) -> bool {
        let l = z % self.mesh_units;
        l >= self.r && l + self.r < self.mesh_units
    }

    /// Units currently held in the window buffer.
    pub(crate) fn fill(&self) -> usize {
        self.ring.resident()
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
        let win = Window::new(k.radius(), stream_rows, mesh_ny);
        StageProcessor2D { k, nx, win }
    }

    fn emit(&self, y: usize) -> Vec<T> {
        let (nx, r, ring) = (self.nx, self.win.r, &self.win.ring);
        let y_interior = self.win.interior(y);
        let mut out = Vec::with_capacity(nx);
        for x in 0..nx {
            let v = if y_interior && x >= r && x + r < nx {
                self.k.apply(|dx, dy| ring.get((y as i32 + dy) as usize)[(x as i32 + dx) as usize])
            } else {
                self.k.on_boundary(ring.get(y)[x])
            };
            out.push(v);
        }
        out
    }

    /// Feed the next input row; returns the output row that became ready
    /// (none while the window is filling).
    pub fn push_row(&mut self, row: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(row.len(), self.nx, "row width mismatch");
        let y = self.win.push(row)?;
        Some(self.emit(y))
    }

    /// After the last input row, drain the trailing `r` output rows.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        self.win.drain().map(|y| self.emit(y)).collect()
    }

    /// Rows currently held in the window buffer.
    pub fn window_fill(&self) -> usize {
        self.win.fill()
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
        let win = Window::new(k.radius(), stream_planes, mesh_nz);
        StageProcessor3D { k, nx, ny, win }
    }

    fn emit(&self, z: usize) -> Vec<T> {
        let (nx, ny, r, ring) = (self.nx, self.ny, self.win.r, &self.win.ring);
        let z_interior = self.win.interior(z);
        let mut out = Vec::with_capacity(nx * ny);
        for y in 0..ny {
            let y_interior = y >= r && y + r < ny;
            for x in 0..nx {
                let v = if z_interior && y_interior && x >= r && x + r < nx {
                    self.k.apply(|dx, dy, dz| {
                        let plane = ring.get((z as i32 + dz) as usize);
                        plane[((y as i32 + dy) as usize) * nx + (x as i32 + dx) as usize]
                    })
                } else {
                    self.k.on_boundary(ring.get(z)[y * nx + x])
                };
                out.push(v);
            }
        }
        out
    }

    /// Feed the next plane; returns the output plane that became ready.
    pub fn push_plane(&mut self, plane: Vec<T>) -> Option<Vec<T>> {
        assert_eq!(plane.len(), self.nx * self.ny, "plane size mismatch");
        let z = self.win.push(plane)?;
        Some(self.emit(z))
    }

    /// Drain the trailing `r` planes.
    pub fn finish(&mut self) -> Vec<Vec<T>> {
        self.win.drain().map(|z| self.emit(z)).collect()
    }

    /// Planes currently held in the window buffer.
    pub fn window_fill(&self) -> usize {
        self.win.fill()
    }
}

/// One streaming pipeline stage, as the chain runner sees it: units go
/// in, ready units come out, trailing units drain at the end. Implemented
/// by the scalar and the lane-parallel processors of both dimensions.
pub trait Stage<T> {
    /// Feed the next input unit; returns the output unit that became ready
    /// (none while the window is filling).
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>>;
    /// After the last input unit, drain the trailing output units.
    fn finish(&mut self) -> Vec<Vec<T>>;
    /// Units currently held in the window buffer.
    fn window_fill(&self) -> usize;
}

impl<T: Element, K: StencilOp2D<T>> Stage<T> for StageProcessor2D<T, K> {
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        self.push_row(unit)
    }
    fn finish(&mut self) -> Vec<Vec<T>> {
        Self::finish(self)
    }
    fn window_fill(&self) -> usize {
        Self::window_fill(self)
    }
}

impl<T: Element, K: StencilOp3D<T>> Stage<T> for StageProcessor3D<T, K> {
    fn push(&mut self, unit: Vec<T>) -> Option<Vec<T>> {
        self.push_plane(unit)
    }
    fn finish(&mut self) -> Vec<Vec<T>> {
        Self::finish(self)
    }
    fn window_fill(&self) -> usize {
        Self::window_fill(self)
    }
}

/// An execution engine: a factory turning one kernel of the chain into a
/// streaming stage over batches of type `B`. The chain runner owns
/// everything else (feed cascade, telemetry, faults, drain), so two engines
/// that build cell-for-cell-equal stages produce byte-identical runs.
pub trait Engine<B: StreamGrid, K>: Sync {
    /// The stage processor this engine builds.
    type Stage: Stage<B::Cell>;
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

/// Push `unit` into stage `from` and cascade: an emitted unit continues
/// down the chain, a buffered one stops. A stage's first emission records
/// a "primed" instant; a buffering push samples its window fill.
fn feed<T, S: Stage<T>>(
    stages: &mut [S],
    tr: &mut [StageTrace],
    from: usize,
    unit: Vec<T>,
    out: &mut Vec<Vec<T>>,
    rec: &mut Recorder,
    cycle: u64,
) {
    let mut current = unit;
    for i in from..stages.len() {
        match stages[i].push(current) {
            Some(u) => {
                if !tr[i].primed {
                    tr[i].primed = true;
                    rec.instant(tr[i].track, "primed", cycle);
                }
                current = u;
            }
            None => {
                rec.gauge(tr[i].track, "window_fill", cycle, stages[i].window_fill() as f64);
                return;
            }
        }
    }
    out.push(current);
}

/// Stream `units` through the chain of stages `engine` builds from `chain`
/// (the unrolled pipeline of Fig. 2) and collect the final output units.
///
/// Telemetry: per-stage fill gauges while each window primes, a "primed"
/// instant when a stage first emits, a "drain" instant when its trailing
/// units flush, and streamed/drained unit counters. With a disabled
/// recorder every hook is a single predictable branch.
///
/// With a fault hook the runner consults the injector once per input unit
/// and reports forward progress to the hook's watchdog: a dropped unit
/// starves the pipeline and surfaces as [`ExecError::Deadlock`];
/// duplicated, corrupted and bit-flipped units complete with wrong data.
/// Without one the run cannot fail.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chain<B: StreamGrid, K, E: Engine<B, K>>(
    engine: &E,
    chain: &[K],
    unit: (usize, usize),
    stream_units: usize,
    mesh_units: usize,
    units: impl Iterator<Item = Vec<B::Cell>>,
    trace: ChainTrace<'_>,
    mut faults: Option<&mut FaultHook<'_>>,
) -> Result<Vec<Vec<B::Cell>>, ExecError> {
    let ChainTrace { rec, prefix, base_cycle, unit_cycles } = trace;
    let mut stages: Vec<E::Stage> =
        chain.iter().map(|k| engine.stage(k, unit, stream_units, mesh_units)).collect();
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
    let mut out = Vec::with_capacity(stream_units);
    let (mut j, mut fed) = (0u64, 0usize);
    for mut u in units {
        let cycle = base_cycle + j * unit_cycles;
        let copies = faults.as_deref_mut().map_or(1, |f| f.copies(j as usize, &mut u));
        j += 1;
        for c in 0..copies {
            if fed == stream_units {
                // Input FIFO already holds the whole stream: the surplus
                // element is discarded at the full queue.
                break;
            }
            let x = if c + 1 < copies { u.clone() } else { std::mem::take(&mut u) };
            let before = out.len();
            feed(&mut stages, &mut tr, 0, x, &mut out, rec, cycle);
            fed += 1;
            if let Some(f) = faults.as_deref_mut() {
                f.progress(cycle, before, out.len());
            }
        }
        if let Some(f) = faults.as_deref_mut() {
            f.check(cycle)?;
        }
    }
    rec.counter_add(B::STREAMED, j);
    let end_cycle = base_cycle + j * unit_cycles;
    if let Some(f) = faults.as_deref_mut() {
        f.check_fed(end_cycle, fed)?;
    }
    // flush stage by stage, cascading trailing units downstream
    for i in 0..stages.len() {
        let trailing = stages[i].finish();
        rec.counter_add(B::DRAINED, trailing.len() as u64);
        rec.instant(tr[i].track, "drain", end_cycle);
        for x in trailing {
            let before = out.len();
            feed(&mut stages, &mut tr, i + 1, x, &mut out, rec, end_cycle);
            if let Some(f) = faults.as_deref_mut() {
                f.progress(end_cycle, before, out.len());
            }
        }
    }
    if let Some(f) = faults {
        f.drained(end_cycle)?;
    }
    assert_eq!(out.len(), stream_units, "chain must emit the full stream");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_kernels::{reference, Jacobi3D, Poisson2D};
    use sf_mesh::{norms, Mesh2D, Mesh3D};

    /// The chain runner without faults, as the executors call it.
    #[allow(clippy::too_many_arguments)]
    fn chain<B: StreamGrid, K>(
        chain: &[K],
        unit: (usize, usize),
        stream_units: usize,
        mesh_units: usize,
        units: impl Iterator<Item = Vec<B::Cell>>,
        rec: &mut Recorder,
        prefix: &str,
        base_cycle: u64,
        unit_cycles: u64,
    ) -> Vec<Vec<B::Cell>>
    where
        ScalarEngine: Engine<B, K>,
    {
        let trace = ChainTrace { rec, prefix, base_cycle, unit_cycles };
        let r = run_chain(&ScalarEngine, chain, unit, stream_units, mesh_units, units, trace, None);
        r.unwrap()
    }

    fn run_2d(
        k: &[Poisson2D],
        nx: usize,
        rows: usize,
        mesh_ny: usize,
        cells: &[f32],
    ) -> Vec<Vec<f32>> {
        let units = cells.chunks(nx).map(|r| r.to_vec());
        chain::<Batch2D<f32>, _>(
            k,
            (nx, 1),
            rows,
            mesh_ny,
            units,
            &mut Recorder::disabled(),
            "",
            0,
            1,
        )
    }

    #[test]
    fn ring_buffer_eviction_and_access() {
        let mut r = RingBuffer::<f32>::new(3);
        for i in 0..5 {
            r.push(vec![i as f32]);
        }
        assert_eq!(r.pushed(), 5);
        assert_eq!(r.get(2), &[2.0]);
        assert_eq!(r.get(4), &[4.0]);
    }

    #[test]
    fn single_stage_equals_reference_step() {
        let m = Mesh2D::<f32>::random(17, 9, 3, -1.0, 1.0);
        let rows = run_2d(&[Poisson2D], 17, 9, 9, m.as_slice());
        let expect = reference::step_2d(&Poisson2D, &m);
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn chained_stages_equal_iterated_reference() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let rows = run_2d(&[Poisson2D; 5], 21, 13, 13, m.as_slice());
        let expect = reference::run_2d(&Poisson2D, &m, 5);
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn batched_stream_respects_seams() {
        // 3 stacked meshes must come out exactly as 3 independent solves
        let batch = Batch2D::<f32>::random(11, 7, 3, 9, -1.0, 1.0);
        // seam period = per-mesh rows
        let rows = run_2d(&[Poisson2D; 4], 11, 21, 7, batch.as_slice());
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        let expect = reference::run_batch_2d(&Poisson2D, &batch, 4);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    fn run_3d(k: &[Jacobi3D], m: &Mesh3D<f32>, rec: &mut Recorder, cpp: u64) -> Vec<Vec<f32>> {
        let (nx, ny, nz) = (m.nx(), m.ny(), m.nz());
        let units = m.as_slice().chunks(nx * ny).map(|p| p.to_vec());
        chain::<Batch3D<f32>, _>(k, (nx, ny), nz, nz, units, rec, "", 0, cpp)
    }

    #[test]
    fn chain_3d_equals_reference() {
        let m = Mesh3D::<f32>::random(9, 8, 7, 5, -1.0, 1.0);
        let k = Jacobi3D::smoothing();
        let planes = run_3d(&[k; 3], &m, &mut Recorder::disabled(), 1);
        let got: Vec<f32> = planes.into_iter().flatten().collect();
        let expect = reference::run_3d(&k, &m, 3);
        assert!(norms::bit_equal(&got, expect.as_slice()));
    }

    #[test]
    fn traced_chain_matches_untraced_and_records_events() {
        let m = Mesh2D::<f32>::random(21, 13, 4, -1.0, 1.0);
        let chain3 = [Poisson2D; 3];
        let plain = run_2d(&chain3, 21, 13, 13, m.as_slice());

        let mut rec = Recorder::enabled(300.0);
        let units = m.as_slice().chunks(21).map(|r| r.to_vec());
        let traced =
            chain::<Batch2D<f32>, _>(&chain3, (21, 1), 13, 13, units, &mut rec, "p0/", 100, 28);
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
        let rows = run_2d(&[Poisson2D], 2, 2, 2, m.as_slice());
        let got: Vec<f32> = rows.into_iter().flatten().collect();
        assert!(norms::bit_equal(&got, m.as_slice()));
    }

    #[test]
    #[should_panic(expected = "stream must be whole meshes")]
    fn seam_period_must_divide_stream() {
        let _ = StageProcessor2D::new(Poisson2D, 4, 10, 3);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut p = StageProcessor2D::new(Poisson2D, 4, 4, 4);
        let _ = p.push_row(vec![0.0; 5]);
    }
}
