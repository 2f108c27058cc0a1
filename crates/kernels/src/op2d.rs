//! The 2D stencil-stage abstraction.
//!
//! A [`StencilOp2D`] is one pipeline stage: a pure function from a
//! neighborhood of the input stream to one output element. Both the golden
//! reference and the FPGA window-buffer simulator evaluate stages through
//! this trait, guaranteeing identical floating-point evaluation order and
//! hence bit-exact results.

use sf_mesh::Element;

/// One 2D stencil pipeline stage.
///
/// `apply` receives an accessor `at(dx, dy)` valid for `|dx|,|dy| ≤ radius`
/// and must be a *pure* function of those reads (the dataflow pipeline
/// evaluates it once per cell, in streaming order). A stage is plain data:
/// chains of stages are shared with, and handed to, worker threads.
pub trait StencilOp2D<T: Element>: Send + Sync {
    /// Stencil radius `r = D/2` (order `D`).
    fn radius(&self) -> usize;

    /// Compute the output element for one interior cell.
    fn apply<F: Fn(i32, i32) -> T>(&self, at: F) -> T;

    /// Output for a boundary cell (closer than `radius` to the mesh edge).
    /// Default: pass the input through unchanged (Dirichlet-style hold).
    fn on_boundary(&self, center: T) -> T {
        center
    }
}

/// Blanket impl so `&K` is also a stage (lets executors borrow).
impl<T: Element, K: StencilOp2D<T>> StencilOp2D<T> for &K {
    fn radius(&self) -> usize {
        (**self).radius()
    }

    fn apply<F: Fn(i32, i32) -> T>(&self, at: F) -> T {
        (**self).apply(at)
    }

    fn on_boundary(&self, center: T) -> T {
        (**self).on_boundary(center)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy 1-radius averaging stage for trait plumbing tests.
    struct Avg;

    impl StencilOp2D<f32> for Avg {
        fn radius(&self) -> usize {
            1
        }

        fn apply<F: Fn(i32, i32) -> f32>(&self, at: F) -> f32 {
            (at(-1, 0) + at(1, 0) + at(0, -1) + at(0, 1)) * 0.25
        }
    }

    #[test]
    fn trait_applies_through_reference() {
        let k = Avg;
        let r: &Avg = &k;
        let v = r.apply(|dx, dy| (dx + 2 * dy) as f32);
        assert_eq!(v, 0.0);
        assert_eq!(r.radius(), 1);
        assert_eq!(r.on_boundary(7.0), 7.0);
    }
}
