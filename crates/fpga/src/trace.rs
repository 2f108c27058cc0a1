//! Plan explanation: an annotated breakdown of where a design's cycles go.
//!
//! [`explain`] narrates the schedule walk of [`crate::cycles::Schedule`] —
//! fill vs data rows, per-row compute/memory occupancy and which side bounds
//! the row, per-tile geometry, pass overheads — the reasoning a designer
//! does over an HLS latency report. It is the one sink of the walk that
//! formats labels; the recorder sink ([`crate::profile`]) draws segments
//! under these names. Used by the CLI and examples; tests pin the
//! classifications for the paper's designs.

pub use crate::cycles::RowBound;
use crate::cycles::{CyclePlan, Schedule};
use crate::design::{ExecMode, StencilDesign, Workload};
use crate::device::FpgaDevice;
use crate::link::MultiConfig;
use serde::{Deserialize, Serialize};

/// One homogeneous streaming segment (whole mesh, one tile, or one
/// device's slab).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SegmentTrace {
    /// Human label ("mesh", "tile 3 [4096..8192)", "stream 190 units").
    pub label: String,
    /// Data rows streamed per pass.
    pub data_rows: u64,
    /// Fill rows per pass (pipeline priming).
    pub fill_rows: u64,
    /// Cells per row.
    pub cells_per_row: usize,
    /// Cells written back per row (< `cells_per_row` for halo tiles).
    pub write_cells_per_row: usize,
    /// Cycles per row.
    pub row_cycles: u64,
    /// Compute cycles per row (`⌈cells/V⌉`).
    pub compute_cycles: u64,
    /// Which side bounds the row.
    pub bound: RowBound,
}

/// A full plan explanation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PlanTrace {
    /// Per-segment breakdown (one per tile for blocked modes).
    pub segments: Vec<SegmentTrace>,
    /// Passes over the workload.
    pub passes: u64,
    /// Pipeline latency charged per pass.
    pub pipeline_latency_cycles: u64,
    /// Host enqueue latency per pass, seconds.
    pub host_latency_s: f64,
    /// Totals from the cycle plan, for cross-checking.
    pub total_cycles: u64,
    /// Fraction of cycles spent on fill rows.
    pub fill_fraction: f64,
}

impl PlanTrace {
    /// Attribute the plan's streamed-row cycles to stall classes.
    ///
    /// Each segment's `passes × (data + fill) × row_cycles` goes to the
    /// class its [`RowBound`] names. The static plan sizes inter-stage
    /// FIFOs so chained stages never backpressure ([`crate::fifo::interstage_depth`]),
    /// so `backpressure_cycles` is always 0 here — the dataflow simulator's
    /// recorder reports any observed backpressure separately, and the two
    /// breakdowns are cross-checked in tests.
    pub fn stall_breakdown(&self) -> sf_telemetry::StallBreakdown {
        let mut b = sf_telemetry::StallBreakdown::default();
        for s in &self.segments {
            let cycles = self.passes * (s.data_rows + s.fill_rows) * s.row_cycles;
            match s.bound {
                RowBound::Compute => b.compute_cycles += cycles,
                RowBound::Memory => b.memory_cycles += cycles,
            }
        }
        b
    }

    /// Render a human-readable explanation.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "passes: {}   pipeline latency/pass: {} cy   host latency/pass: {:.1} µs\n",
            self.passes,
            self.pipeline_latency_cycles,
            self.host_latency_s * 1e6
        ));
        s.push_str(&format!(
            "fill overhead: {:.1} % of streamed rows\n",
            self.fill_fraction * 100.0
        ));
        let show = self.segments.len().min(6);
        for seg in &self.segments[..show] {
            s.push_str(&format!(
                "  {:<22} rows {:>8} (+{} fill) × {:>4} cy/row  [{:>4} cells, {} cy compute, {:?}-bound]\n",
                seg.label,
                seg.data_rows,
                seg.fill_rows,
                seg.row_cycles,
                seg.cells_per_row,
                seg.compute_cycles,
                seg.bound,
            ));
        }
        if self.segments.len() > show {
            s.push_str(&format!("  … and {} more segments\n", self.segments.len() - show));
        }
        s.push_str(&format!("total: {} cycles\n", self.total_cycles));
        s
    }
}

/// Narrate a walked schedule whose plan is `plan`.
pub(crate) fn narrate(sched: &Schedule<'_>, plan: &CyclePlan) -> PlanTrace {
    let design = sched.design;
    let segments: Vec<SegmentTrace> = sched
        .segments()
        .map(|s| SegmentTrace {
            label: match design.mode {
                _ if sched.is_sharded() => format!("stream {} units", s.units),
                ExecMode::Baseline | ExecMode::Batched { .. } => "mesh".to_string(),
                ExecMode::Tiled1D { .. } => {
                    format!("tile {} [{}..{})", s.tile.0, s.x.read_start, s.x.read_end())
                }
                ExecMode::Tiled2D { .. } => format!("tile ({},{})", s.tile.0, s.tile.1),
            },
            data_rows: s.data_rows,
            fill_rows: s.fill_rows,
            cells_per_row: s.x.read_len,
            write_cells_per_row: s.x.valid_len,
            row_cycles: s.timing.total(),
            compute_cycles: s.timing.compute,
            bound: s.bound(),
        })
        .collect();
    let total_rows: u64 = segments.iter().map(|s| s.data_rows + s.fill_rows).sum();
    let fill_rows: u64 = segments.iter().map(|s| s.fill_rows).sum();
    PlanTrace {
        segments,
        passes: plan.passes,
        pipeline_latency_cycles: design.pipeline_latency_cycles,
        host_latency_s: sched.dev.host_call_latency_s,
        total_cycles: plan.total_cycles,
        fill_fraction: fill_rows as f64 / total_rows.max(1) as f64,
    }
}

/// Explain where a design's cycles go on a workload. A mode that cannot
/// stream `wl` explains nothing: no segments and zero cycles
/// ([`Schedule::new`] names why).
pub fn explain(dev: &FpgaDevice, design: &StencilDesign, wl: &Workload, niter: u64) -> PlanTrace {
    match Schedule::new(dev, design, wl, &MultiConfig::default()) {
        Ok(sched) => narrate(&sched, &sched.plan(niter)),
        Err(_) => PlanTrace {
            segments: Vec::new(),
            passes: 0,
            pipeline_latency_cycles: design.pipeline_latency_cycles,
            host_latency_s: dev.host_call_latency_s,
            total_cycles: 0,
            fill_fraction: 0.0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::design::{synthesize, MemKind};
    use sf_kernels::StencilSpec;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn poisson_baseline_is_compute_bound() {
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
        let tr = explain(&dev(), &ds, &wl, 60_000);
        assert_eq!(tr.segments.len(), 1);
        assert_eq!(tr.segments[0].bound, RowBound::Compute);
        assert_eq!(tr.segments[0].data_rows, 100);
        assert_eq!(tr.segments[0].fill_rows, 60);
        // fill is the §IV-B latency the batching optimization removes
        assert!((tr.fill_fraction - 60.0 / 160.0).abs() < 1e-12);
        assert!(tr.render().contains("Compute-bound"));
    }

    #[test]
    fn batching_shrinks_fill_fraction() {
        let solo = Workload::D2 { nx: 200, ny: 100, batch: 1 };
        let d1 = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Baseline,
            MemKind::Hbm,
            &solo,
        )
        .unwrap();
        let batched = Workload::D2 { nx: 200, ny: 100, batch: 1000 };
        let d2 = synthesize(
            &dev(),
            &StencilSpec::poisson(),
            8,
            60,
            ExecMode::Batched { b: 1000 },
            MemKind::Hbm,
            &batched,
        )
        .unwrap();
        let f1 = explain(&dev(), &d1, &solo, 60_000).fill_fraction;
        let f2 = explain(&dev(), &d2, &batched, 60_000).fill_fraction;
        assert!(f2 < f1 / 100.0, "batched fill {f2} vs baseline {f1}");
    }

    #[test]
    fn rtm_baseline_fill_dominates_small_meshes() {
        let wl = Workload::D3 { nx: 32, ny: 32, nz: 32, batch: 1 };
        let ds =
            synthesize(&dev(), &StencilSpec::rtm(), 1, 3, ExecMode::Baseline, MemKind::Hbm, &wl)
                .unwrap();
        let tr = explain(&dev(), &ds, &wl, 1_800);
        // 48 fill planes vs 32 data planes — the Table VI baseline penalty
        assert!(tr.fill_fraction > 0.5, "fill fraction {}", tr.fill_fraction);
    }

    #[test]
    fn stall_breakdown_matches_row_bounds() {
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
        let tr = explain(&dev(), &ds, &wl, 60_000);
        let b = tr.stall_breakdown();
        // Poisson baseline is compute-bound: all attributed cycles land there.
        assert_eq!(b.memory_cycles, 0);
        assert_eq!(b.backpressure_cycles, 0);
        assert_eq!(
            b.compute_cycles,
            tr.passes
                * (tr.segments[0].data_rows + tr.segments[0].fill_rows)
                * tr.segments[0].row_cycles
        );
        use sf_telemetry::StallClass;
        assert_eq!(b.dominant(), StallClass::Compute);
    }

    #[test]
    fn tiled_trace_enumerates_tiles() {
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
        let tr = explain(&dev(), &ds, &wl, 6_000);
        assert!(tr.segments.len() > 1);
        assert!(tr.render().contains("more segments") || tr.segments.len() <= 6);
        // totals must agree with the plan it explains
        let plan = crate::cycles::plan(&dev(), &ds, &wl, 6_000);
        assert_eq!(tr.total_cycles, plan.total_cycles);
    }

    #[test]
    fn strided_3d_tiles_classified_memory_bound_when_narrow() {
        // tiny tile rows over few channels: memory side dominates
        let wl = Workload::D3 { nx: 600, ny: 600, nz: 600, batch: 1 };
        let ds = synthesize(
            &dev(),
            &StencilSpec::jacobi(),
            64,
            3,
            ExecMode::Tiled2D { tile_m: 256, tile_n: 256 },
            MemKind::Hbm,
            &wl,
        )
        .unwrap();
        let tr = explain(&dev(), &ds, &wl, 120);
        assert!(!tr.segments.is_empty());
        // at 256-cell rows: compute 4 cy vs memory 1024B/(57.5·6)=3 → compute
        // or memory within 1 cycle; assert the trace is at least coherent
        for s in &tr.segments {
            assert!(s.row_cycles >= s.compute_cycles);
        }
    }
}
