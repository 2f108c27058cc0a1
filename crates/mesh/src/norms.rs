//! Error norms and mesh comparison helpers.
//!
//! Used to validate the FPGA dataflow simulator, which must be **bit-exact**
//! against the golden sequential reference, since both call the same per-cell
//! kernel in the same order.

use crate::element::Element;
use crate::mesh2d::Mesh2D;
use crate::mesh3d::Mesh3D;

/// Maximum absolute lane-wise difference between two equally-shaped slices.
pub fn max_abs_diff<T: Element>(a: &[T], b: &[T]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut m = 0.0f32;
    for (ea, eb) in a.iter().zip(b) {
        for c in 0..T::LANES {
            m = m.max((ea.lane(c) - eb.lane(c)).abs());
        }
    }
    m
}

/// Root-mean-square lane-wise difference.
pub fn rms_diff<T: Element>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let mut acc = 0.0f64;
    let n = a.len() * T::LANES;
    for (ea, eb) in a.iter().zip(b) {
        for c in 0..T::LANES {
            let d = (ea.lane(c) - eb.lane(c)) as f64;
            acc += d * d;
        }
    }
    (acc / n as f64).sqrt()
}

/// `true` when two slices are bit-identical lane by lane (NaN-aware: NaN in
/// the same lane position on both sides counts as equal).
pub fn bit_equal<T: Element>(a: &[T], b: &[T]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter()
        .zip(b)
        .all(|(ea, eb)| (0..T::LANES).all(|c| ea.lane(c).to_bits() == eb.lane(c).to_bits()))
}

/// Max-norm over a whole mesh (largest absolute lane value).
pub fn max_norm_2d<T: Element>(m: &Mesh2D<T>) -> f32 {
    m.as_slice().iter().fold(0.0f32, |acc, e| acc.max(e.max_abs()))
}

/// Max-norm over a 3D mesh.
pub fn max_norm_3d<T: Element>(m: &Mesh3D<T>) -> f32 {
    m.as_slice().iter().fold(0.0f32, |acc, e| acc.max(e.max_abs()))
}

/// Index and magnitude of the first lane-wise mismatch, for debugging.
pub fn first_mismatch<T: Element>(a: &[T], b: &[T]) -> Option<(usize, usize, f32, f32)> {
    assert_eq!(a.len(), b.len(), "length mismatch");
    for (i, (ea, eb)) in a.iter().zip(b).enumerate() {
        for c in 0..T::LANES {
            if ea.lane(c).to_bits() != eb.lane(c).to_bits() {
                return Some((i, c, ea.lane(c), eb.lane(c)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecN;

    #[test]
    fn max_abs_diff_basic() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [1.5f32, 2.0, 2.0];
        assert_eq!(max_abs_diff(&a, &b), 1.0);
        assert_eq!(max_abs_diff(&a, &a), 0.0);
    }

    #[test]
    fn rms_diff_basic() {
        let a = [0.0f32, 0.0];
        let b = [3.0f32, 4.0];
        // sqrt((9+16)/2) = sqrt(12.5)
        assert!((rms_diff(&a, &b) - 12.5f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn bit_equal_distinguishes_signed_zero() {
        let a = [0.0f32];
        let b = [-0.0f32];
        assert!(!bit_equal(&a, &b));
        assert!(bit_equal(&a, &a));
    }

    #[test]
    fn bit_equal_nan_aware() {
        let a = [f32::NAN];
        assert!(bit_equal(&a, &a));
    }

    #[test]
    fn first_mismatch_reports_lane() {
        let a = [VecN::new([1.0, 2.0]), VecN::new([3.0, 4.0])];
        let mut b = a;
        b[1].0[1] = 9.0;
        let (i, c, va, vb) = first_mismatch(&a, &b).unwrap();
        assert_eq!((i, c), (1, 1));
        assert_eq!((va, vb), (4.0, 9.0));
        assert!(first_mismatch(&a, &a).is_none());
    }

    #[test]
    fn norms_over_meshes() {
        let m = Mesh2D::<f32>::from_fn(3, 3, |x, y| -((x + y) as f32));
        assert_eq!(max_norm_2d(&m), 4.0);
        let m3 = Mesh3D::<f32>::from_fn(2, 2, 2, |x, y, z| (x + y + z) as f32);
        assert_eq!(max_norm_3d(&m3), 3.0);
    }
}
