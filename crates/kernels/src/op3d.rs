//! The 3D stencil-stage abstraction (see [`crate::op2d`] for the 2D twin).

use sf_mesh::Element;

/// One 3D stencil pipeline stage; plain data, like [`crate::StencilOp2D`].
pub trait StencilOp3D<T: Element>: Send + Sync {
    /// Stencil radius `r = D/2` (order `D`).
    fn radius(&self) -> usize;

    /// Compute the output element for one interior cell; `at(dx, dy, dz)` is
    /// valid for offsets within the radius.
    fn apply<F: Fn(i32, i32, i32) -> T>(&self, at: F) -> T;

    /// Output for a boundary cell. Default: pass-through.
    fn on_boundary(&self, center: T) -> T {
        center
    }
}

impl<T: Element, K: StencilOp3D<T>> StencilOp3D<T> for &K {
    fn radius(&self) -> usize {
        (**self).radius()
    }

    fn apply<F: Fn(i32, i32, i32) -> T>(&self, at: F) -> T {
        (**self).apply(at)
    }

    fn on_boundary(&self, center: T) -> T {
        (**self).on_boundary(center)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Sum6;

    impl StencilOp3D<f32> for Sum6 {
        fn radius(&self) -> usize {
            1
        }

        fn apply<F: Fn(i32, i32, i32) -> f32>(&self, at: F) -> f32 {
            at(-1, 0, 0) + at(1, 0, 0) + at(0, -1, 0) + at(0, 1, 0) + at(0, 0, -1) + at(0, 0, 1)
        }
    }

    #[test]
    fn trait_plumbing() {
        let k = Sum6;
        let v = k.apply(|dx, dy, dz| (dx + dy + dz) as f32);
        assert_eq!(v, 0.0);
        assert_eq!(k.on_boundary(3.0), 3.0);
    }
}
