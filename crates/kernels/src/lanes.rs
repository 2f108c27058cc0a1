//! Lane-parallel kernel evaluation: the bridge between the generic
//! [`AbstractValue`] kernel bodies and the `sf-simd` pack type.
//!
//! The fast-path executors (`sf_fpga::fast`) advance [`sf_simd::LANES`]
//! adjacent cells per step. Three pieces make that possible without a
//! second copy of any kernel:
//!
//! * [`F32xL`] implements [`AbstractValue`], so every generic `update`
//!   body in this crate can be instantiated at the pack type. Each lane
//!   replays the *identical* floating-point operation sequence the `f32`
//!   instantiation performs — the per-cell result is bit-exact by
//!   construction (elementwise IEEE ops, no reassociation, no FMA).
//! * [`LaneElement`] extends [`Element`] with a gather/scatter pair that
//!   maps a run of `LANES` mesh elements to the kernel's pack
//!   representation: `f32` cells load straight into one [`F32xL`];
//!   [`VecN`] cells transpose array-of-structs storage into one pack per
//!   component (the structure-of-arrays layout the packed kernels expect).
//! * [`LaneOp2D`] / [`LaneOp3D`] are the lane-parallel counterparts of
//!   [`StencilOp2D`] / [`StencilOp3D`]: `apply_lanes` evaluates the update
//!   for `LANES` adjacent cells at once, given a neighborhood accessor
//!   that gathers packs instead of single elements. Implementations
//!   delegate to the same generic `update` the scalar `apply` uses.
//!
//! Only kernels whose updates are written generically carry a lane impl
//! (the paper's three applications and the random star stencils); kernels
//! with hand-written scalar bodies — e.g. [`crate::wave2d`] — simply stay
//! on the scalar executors.

use crate::domain::{AbstractOp2D, AbstractOp3D, AbstractValue};
use crate::jacobi3d::Jacobi3D;
use crate::op2d::StencilOp2D;
use crate::op3d::StencilOp3D;
use crate::poisson::Poisson2D;
use crate::rtm::{RtmPacked, RtmStage, RTM_PACKED_LANES};
use crate::star::{StarStencil2D, StarStencil3D};
use sf_mesh::{Element, VecN};
use sf_simd::{F32xL, LANES};

impl AbstractValue for F32xL {
    #[inline(always)]
    fn constant(c: f32) -> Self {
        F32xL::splat(c)
    }
}

/// An [`Element`] whose meshes the fast path can process `LANES` cells at
/// a time: a gather/scatter pair between a run of adjacent elements and
/// the kernel's pack representation.
pub trait LaneElement: Element {
    /// The pack representation of `LANES` adjacent cells of this element.
    type Lanes: Copy;

    /// Load the `LANES` elements at `row[x..x + LANES]` into packs.
    ///
    /// # Panics
    /// Panics if the run extends past the end of `row`.
    fn gather(row: &[Self], x: usize) -> Self::Lanes;

    /// Store packs back into the `LANES` elements at `row[x..x + LANES]`.
    ///
    /// # Panics
    /// Panics if the run extends past the end of `row`.
    fn scatter(lanes: Self::Lanes, row: &mut [Self], x: usize);
}

impl LaneElement for f32 {
    type Lanes = F32xL;

    #[inline]
    fn gather(row: &[Self], x: usize) -> F32xL {
        F32xL::from_slice(&row[x..x + LANES])
    }

    #[inline]
    fn scatter(lanes: F32xL, row: &mut [Self], x: usize) {
        lanes.write_to(&mut row[x..x + LANES]);
    }
}

impl<const N: usize> LaneElement for VecN<N> {
    /// One pack per component: the AoS→SoA transpose of `LANES` cells.
    type Lanes = [F32xL; N];

    #[inline]
    fn gather(row: &[Self], x: usize) -> [F32xL; N] {
        // One bounds check for the whole run: a packed kernel reads one
        // component of most gathered neighbours, and the unread ones only
        // fold away when the gather stays small enough to inline.
        let cells = &row[x..x + LANES];
        let mut out = [F32xL::default(); N];
        for (c, pack) in out.iter_mut().enumerate() {
            let mut lanes = [0.0f32; LANES];
            for (lane, cell) in lanes.iter_mut().zip(cells) {
                *lane = cell.0[c];
            }
            *pack = F32xL(lanes);
        }
        out
    }

    #[inline]
    fn scatter(lanes: [F32xL; N], row: &mut [Self], x: usize) {
        let cells = &mut row[x..x + LANES];
        for (c, pack) in lanes.iter().enumerate() {
            for (i, cell) in cells.iter_mut().enumerate() {
                cell.0[c] = pack.lane(i);
            }
        }
    }
}

/// A 2D stencil the fast path can evaluate `LANES` cells at a time.
///
/// `apply_lanes` must compute, lane for lane, exactly what
/// [`StencilOp2D::apply`] computes for the corresponding cell — every
/// implementation here guarantees that by instantiating the *same* generic
/// update at [`F32xL`] instead of `f32`.
pub trait LaneOp2D<T: LaneElement>: StencilOp2D<T> {
    /// The per-pack update over a neighborhood accessor `at(dx, dy)` that
    /// gathers the packs for `LANES` adjacent cells at offset `(dx, dy)`.
    fn apply_lanes<F: Fn(i32, i32) -> T::Lanes>(&self, at: &F) -> T::Lanes;
}

/// The 3D twin of [`LaneOp2D`].
pub trait LaneOp3D<T: LaneElement>: StencilOp3D<T> {
    /// The per-pack update over a neighborhood accessor `at(dx, dy, dz)`.
    fn apply_lanes<F: Fn(i32, i32, i32) -> T::Lanes>(&self, at: &F) -> T::Lanes;
}

impl<T: LaneElement, K: LaneOp2D<T>> LaneOp2D<T> for &K {
    fn apply_lanes<F: Fn(i32, i32) -> T::Lanes>(&self, at: &F) -> T::Lanes {
        (**self).apply_lanes(at)
    }
}

impl<T: LaneElement, K: LaneOp3D<T>> LaneOp3D<T> for &K {
    fn apply_lanes<F: Fn(i32, i32, i32) -> T::Lanes>(&self, at: &F) -> T::Lanes {
        (**self).apply_lanes(at)
    }
}

impl LaneOp2D<f32> for Poisson2D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(at)
    }
}

impl LaneOp2D<f32> for StarStencil2D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(at)
    }
}

impl LaneOp3D<f32> for Jacobi3D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, i32) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(at)
    }
}

impl LaneOp3D<f32> for StarStencil3D {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, i32) -> F32xL>(&self, at: &F) -> F32xL {
        self.update::<F32xL, _>(at)
    }
}

impl LaneOp3D<RtmPacked> for RtmStage {
    #[inline]
    fn apply_lanes<F: Fn(i32, i32, i32) -> [F32xL; RTM_PACKED_LANES]>(
        &self,
        at: &F,
    ) -> [F32xL; RTM_PACKED_LANES] {
        self.update_packed::<F32xL, _>(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic pseudo-mesh value for cell (x, y).
    fn cell(x: i32, y: i32) -> f32 {
        ((x * 31 + y * 7) % 13) as f32 * 0.125 - 0.5
    }

    #[test]
    fn poisson_lanes_bit_exact_vs_scalar_apply() {
        let x0 = 3i32;
        let lanes = Poisson2D.apply_lanes(&|dx, dy| {
            let mut v = [0.0f32; LANES];
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = cell(x0 + i as i32 + dx, 10 + dy);
            }
            F32xL(v)
        });
        for i in 0..LANES {
            let scalar = Poisson2D.apply(|dx, dy| cell(x0 + i as i32 + dx, 10 + dy));
            assert_eq!(lanes.lane(i).to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn star_lanes_bit_exact_vs_scalar_apply() {
        let k = StarStencil2D::laplace9_order4(0.1, 0.4);
        let lanes = k.apply_lanes(&|dx, dy| {
            let mut v = [0.0f32; LANES];
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = cell(i as i32 + dx, dy);
            }
            F32xL(v)
        });
        for i in 0..LANES {
            let scalar = k.apply(|dx, dy| cell(i as i32 + dx, dy));
            assert_eq!(lanes.lane(i).to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn jacobi_lanes_bit_exact_vs_scalar_apply() {
        let k = Jacobi3D::smoothing();
        let f = |x: i32, y: i32, z: i32| ((x * 5 + y * 3 + z) % 11) as f32 * 0.1;
        let lanes = k.apply_lanes(&|dx, dy, dz| {
            let mut v = [0.0f32; LANES];
            for (i, lane) in v.iter_mut().enumerate() {
                *lane = f(i as i32 + dx, dy, dz);
            }
            F32xL(v)
        });
        for i in 0..LANES {
            let scalar = k.apply(|dx, dy, dz| f(i as i32 + dx, dy, dz));
            assert_eq!(lanes.lane(i).to_bits(), scalar.to_bits(), "lane {i}");
        }
    }

    #[test]
    fn vecn_gather_scatter_roundtrips_and_transposes() {
        let row: Vec<VecN<3>> =
            (0..LANES + 4).map(|i| VecN([i as f32, i as f32 + 0.5, -(i as f32)])).collect();
        let packs = <VecN<3> as LaneElement>::gather(&row, 2);
        for (c, pack) in packs.iter().enumerate() {
            for i in 0..LANES {
                assert_eq!(pack.lane(i), row[2 + i].0[c], "component {c} lane {i}");
            }
        }
        let mut out = vec![VecN::<3>::default(); LANES + 4];
        <VecN<3> as LaneElement>::scatter(packs, &mut out, 2);
        assert_eq!(&out[2..2 + LANES], &row[2..2 + LANES]);
    }

    #[test]
    fn rtm_stage_lanes_bit_exact_vs_scalar_apply() {
        use crate::rtm::RtmParams;
        let stages = RtmStage::pipeline(RtmParams::default());
        let f = |x: i32, y: i32, z: i32, c: usize| {
            (((x * 3 + y * 5 + z * 7 + c as i32) % 17) as f32) * 0.01 + 0.1
        };
        for (si, stage) in stages.iter().enumerate() {
            let lanes = stage.apply_lanes(&|dx, dy, dz| {
                let mut packs = [F32xL::default(); RTM_PACKED_LANES];
                for (c, pack) in packs.iter_mut().enumerate() {
                    let mut v = [0.0f32; LANES];
                    for (i, lane) in v.iter_mut().enumerate() {
                        *lane = f(i as i32 + dx, dy, dz, c);
                    }
                    *pack = F32xL(v);
                }
                packs
            });
            for i in 0..LANES {
                let scalar: RtmPacked = stage.apply(|dx, dy, dz| {
                    let mut v = VecN::<RTM_PACKED_LANES>::default();
                    for c in 0..RTM_PACKED_LANES {
                        v.0[c] = f(i as i32 + dx, dy, dz, c);
                    }
                    v
                });
                for (c, pack) in lanes.iter().enumerate() {
                    assert_eq!(
                        pack.lane(i).to_bits(),
                        scalar.0[c].to_bits(),
                        "stage {si} component {c} lane {i}"
                    );
                }
            }
        }
    }
}
