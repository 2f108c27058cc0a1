//! Application descriptors consumed by the analytic model and simulator.
//!
//! A [`StencilSpec`] captures everything the paper's performance/resource
//! model (§III-A, §IV) needs to know about an application *without* running
//! it: dimensionality, stencil order `D`, element size `k`, fused stage
//! count, per-cell arithmetic (→ `G_dsp`), and the byte-accounting
//! conventions used for bandwidth reporting.

use crate::jacobi3d::Jacobi3D;
use crate::ops::{NumberFormat, OpCount};
use crate::poisson::Poisson2D;
use crate::rtm;
use serde::{Deserialize, Serialize};

/// Which of the paper's three applications a spec describes.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppId {
    /// Poisson-5pt-2D (§V-A).
    Poisson2D,
    /// Jacobi-7pt-3D (§V-B).
    Jacobi3D,
    /// Reverse Time Migration forward pass (§V-C).
    Rtm3D,
    /// A user-defined stencil built with [`crate::star`] — the workflow
    /// applied beyond the paper's three applications.
    Custom,
}

impl AppId {
    /// All three applications, in the paper's order.
    pub const ALL: [AppId; 3] = [AppId::Poisson2D, AppId::Jacobi3D, AppId::Rtm3D];

    /// The spec for this application, or `None` for [`AppId::Custom`] —
    /// custom stencils carry their own spec (see [`crate::star`]).
    pub fn try_spec(self) -> Option<StencilSpec> {
        match self {
            AppId::Poisson2D => Some(StencilSpec::poisson()),
            AppId::Jacobi3D => Some(StencilSpec::jacobi()),
            AppId::Rtm3D => Some(StencilSpec::rtm()),
            AppId::Custom => None,
        }
    }

    /// The spec for this application.
    ///
    /// # Panics
    /// Panics for [`AppId::Custom`] — custom stencils carry their own spec;
    /// use [`AppId::try_spec`] when the app id is not statically known.
    pub fn spec(self) -> StencilSpec {
        assert!(!matches!(self, AppId::Custom), "custom stencils carry their own spec");
        match self {
            AppId::Jacobi3D => StencilSpec::jacobi(),
            AppId::Rtm3D => StencilSpec::rtm(),
            _ => StencilSpec::poisson(),
        }
    }
}

impl core::fmt::Display for AppId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            AppId::Poisson2D => "Poisson-5pt-2D",
            AppId::Jacobi3D => "Jacobi-7pt-3D",
            AppId::Rtm3D => "Reverse Time Migration",
            AppId::Custom => "custom stencil",
        };
        f.write_str(s)
    }
}

/// Static description of a stencil application for modeling purposes.
#[derive(Copy, Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StencilSpec {
    /// Which application this is.
    pub app: AppId,
    /// Mesh dimensionality (2 or 3).
    pub dims: usize,
    /// Stencil order `D` (rows/planes to buffer for perfect reuse).
    pub order: usize,
    /// Bytes of the external mesh element (the paper's `k = sizeof(t)`):
    /// what one cell costs to read or write from DDR4/HBM.
    pub elem_bytes: usize,
    /// Bytes per cell held in the *window buffers* (≥ `elem_bytes`; RTM's
    /// fused pipeline buffers the packed 20-lane stream).
    pub window_elem_bytes: usize,
    /// Fused pipeline stages per iteration (1 for single-loop apps,
    /// 4 for RTM's fused RK4).
    pub stages: usize,
    /// Per-cell arithmetic for one full iteration (all fused stages).
    pub ops: OpCount,
    /// Logical bytes/cell/iteration for bandwidth reporting (the paper's
    /// convention: mesh data accessed by the stencil loop).
    pub logical_rw_bytes: usize,
    /// External read bytes/cell/iteration after fusion (what actually moves
    /// from DDR4/HBM per unrolled iteration group ÷ p).
    pub ext_read_bytes: usize,
    /// External write bytes/cell/iteration after fusion.
    pub ext_write_bytes: usize,
    /// Datapath number representation (the paper evaluates Fp32; other
    /// formats model its future-work axis).
    pub format: NumberFormat,
}

impl StencilSpec {
    /// Poisson-5pt-2D: D = 2, scalar f32, single loop.
    pub const fn poisson() -> Self {
        StencilSpec {
            app: AppId::Poisson2D,
            dims: 2,
            order: Poisson2D::ORDER,
            elem_bytes: 4,
            window_elem_bytes: 4,
            stages: 1,
            ops: Poisson2D::op_count(),
            logical_rw_bytes: 8,
            ext_read_bytes: 4,
            ext_write_bytes: 4,
            format: NumberFormat::Fp32,
        }
    }

    /// Jacobi-7pt-3D: D = 2, scalar f32, single loop.
    pub const fn jacobi() -> Self {
        StencilSpec {
            app: AppId::Jacobi3D,
            dims: 3,
            order: Jacobi3D::ORDER,
            elem_bytes: 4,
            window_elem_bytes: 4,
            stages: 1,
            ops: Jacobi3D::op_count(),
            logical_rw_bytes: 8,
            ext_read_bytes: 4,
            ext_write_bytes: 4,
            format: NumberFormat::Fp32,
        }
    }

    /// RTM forward pass: D = 8, 6-lane state (24 B) externally, 20-lane
    /// packed stream (80 B) in the window buffers, 4 fused stages.
    ///
    /// Logical bandwidth counts each fused stage's stream traffic
    /// (in + out + ρ,μ = 24 + 24 + 8 = 56 B × 4 stages = 224 B/cell/iter),
    /// matching the paper's note that "the bandwidth reported is for the
    /// fused loop".
    pub const fn rtm() -> Self {
        StencilSpec {
            app: AppId::Rtm3D,
            dims: 3,
            order: 8,
            elem_bytes: 24,
            window_elem_bytes: rtm::RTM_PACKED_LANES * 4,
            stages: 4,
            ops: rtm::fused_op_count(),
            logical_rw_bytes: 224,
            ext_read_bytes: 24 + 8,
            ext_write_bytes: 24,
            format: NumberFormat::Fp32,
        }
    }

    /// Stencil radius `r = D/2`.
    pub const fn radius(&self) -> usize {
        self.order / 2
    }

    /// Effective per-iteration dependency order of the *fused* pipeline:
    /// `stages × D`. For single-loop applications this is just `D`, but a
    /// fused multi-stage iteration (RTM's RK4) propagates information
    /// `stages × D/2` cells per side — one radius per chained stage. This is
    /// the order spatial-blocking halos must use; note the paper's §V-C
    /// `M = 96` estimate applies eq. (12) with `D = 8`, under-estimating the
    /// fused halo by 4× (see `sf-fpga::exec3d::rtm_tiling_future_work`).
    pub const fn halo_order(&self) -> usize {
        self.order * self.stages
    }

    /// Halo depth of `p` chained iterations, in cells (rows or planes
    /// along the streamed axis): each of the `p · stages` chained stages
    /// reaches `⌈D/2⌉` further. The ceiling is per stage, so an odd-order
    /// stencil that reads one side further keeps its full reach. Tile
    /// halos, multi-device slab halos and pipeline fill all use this depth.
    pub const fn halo(&self, p: usize) -> usize {
        p.saturating_mul(self.stages).saturating_mul(self.order.div_ceil(2))
    }

    /// The paper's `G_dsp` for one mesh-point update of the fused pipeline,
    /// under the spec's number representation.
    pub const fn gdsp(&self) -> usize {
        self.ops.dsp_with(self.format)
    }

    /// Re-target the spec to another number representation: rescales every
    /// byte-accounting field by the lane-width ratio and switches the DSP
    /// cost model. The behavioral simulator still computes in `f32`; this
    /// affects the performance/resource model only (see DESIGN.md §6).
    pub const fn with_format(mut self, format: NumberFormat) -> Self {
        let old = self.format.lane_bytes();
        let new = format.lane_bytes();
        self.elem_bytes = self.elem_bytes * new / old;
        self.window_elem_bytes = self.window_elem_bytes * new / old;
        self.logical_rw_bytes = self.logical_rw_bytes * new / old;
        self.ext_read_bytes = self.ext_read_bytes * new / old;
        self.ext_write_bytes = self.ext_write_bytes * new / old;
        self.format = format;
        self
    }

    /// Floating-point operations per cell per iteration.
    pub const fn flops_per_cell(&self) -> usize {
        self.ops.flops()
    }

    /// Rough compute-pipeline latency in cycles for one unrolled iteration
    /// (all fused stages back to back, excluding window fill).
    pub fn pipeline_latency(&self) -> usize {
        self.ops.pipeline_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_spec_covers_the_paper_apps_and_refuses_custom() {
        for app in AppId::ALL {
            assert_eq!(app.try_spec(), Some(app.spec()));
        }
        assert_eq!(AppId::Custom.try_spec(), None);
    }

    #[test]
    #[should_panic(expected = "custom stencils carry their own spec")]
    fn spec_panics_for_custom() {
        let _ = AppId::Custom.spec();
    }

    #[test]
    fn poisson_spec_matches_paper() {
        let s = StencilSpec::poisson();
        assert_eq!(s.gdsp(), 14);
        assert_eq!(s.order, 2);
        assert_eq!(s.dims, 2);
        assert_eq!(s.radius(), 1);
        assert_eq!(s.stages, 1);
    }

    #[test]
    fn jacobi_spec_matches_paper() {
        let s = StencilSpec::jacobi();
        assert_eq!(s.gdsp(), 33);
        assert_eq!(s.dims, 3);
        assert_eq!(s.logical_rw_bytes, 8);
    }

    #[test]
    fn rtm_spec_shape() {
        let s = StencilSpec::rtm();
        assert_eq!(s.order, 8);
        assert_eq!(s.radius(), 4);
        assert_eq!(s.stages, 4);
        assert_eq!(s.elem_bytes, 24);
        assert_eq!(s.window_elem_bytes, 80);
        assert_eq!(s.logical_rw_bytes, 224);
        // same G_dsp band as the paper's 2444: p = 3 at V = 1 on the U280
        assert_eq!(s.gdsp(), 1974);
    }

    #[test]
    fn all_apps_resolve_specs() {
        for app in AppId::ALL {
            let s = app.spec();
            assert_eq!(s.app, app);
            assert!(s.gdsp() > 0);
            assert!(s.elem_bytes > 0);
            assert!(!format!("{app}").is_empty());
        }
    }

    #[test]
    fn with_format_rescales_consistently() {
        let s = StencilSpec::poisson().with_format(NumberFormat::Fp16);
        assert_eq!(s.elem_bytes, 2);
        assert_eq!(s.logical_rw_bytes, 4);
        assert_eq!(s.gdsp(), 6); // 4 adds + 2 muls at 1 DSP each
                                 // round-trip back to fp32 restores everything
        let back = s.with_format(NumberFormat::Fp32);
        assert_eq!(back, StencilSpec::poisson());

        let r = StencilSpec::rtm().with_format(NumberFormat::Fixed18);
        assert_eq!(r.elem_bytes, 12);
        assert_eq!(r.window_elem_bytes, 40);
        assert_eq!(r.gdsp(), 342); // muls only at 1 DSP
    }

    #[test]
    fn flops_accounting() {
        assert_eq!(StencilSpec::poisson().flops_per_cell(), 6);
        assert_eq!(StencilSpec::jacobi().flops_per_cell(), 13);
        assert_eq!(StencilSpec::rtm().flops_per_cell(), 816);
    }
}
