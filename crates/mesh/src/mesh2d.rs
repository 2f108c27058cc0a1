//! 2D rectangular meshes.
//!
//! Storage is row-major with `x` fastest (`idx = y * nx + x`), which is the
//! order the FPGA design streams cells from external memory into the window
//! buffers. The paper calls the row length `m` and the row count `n`; we use
//! `nx`/`ny`.

use crate::element::Element;

/// A dense 2D mesh of elements.
///
/// ```
/// use sf_mesh::Mesh2D;
/// let mut m = Mesh2D::<f32>::zeros(8, 4);
/// m.set(3, 2, 1.5);
/// assert_eq!(m.get(3, 2), 1.5);
/// assert_eq!(m.row(2)[3], 1.5);          // row-major, x fastest
/// assert!(m.is_interior(3, 2, 1));
/// assert!(!m.is_interior(0, 2, 1));      // boundary cell
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Mesh2D<T: Element> {
    nx: usize,
    ny: usize,
    data: Vec<T>,
}

impl<T: Element> Mesh2D<T> {
    /// Create an `nx × ny` mesh of default (zero) elements.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn zeros(nx: usize, ny: usize) -> Self {
        Mesh2D { nx, ny, data: vec![T::default(); checked_len(nx, ny)] }
    }

    /// Create a mesh filled by `f(x, y)`, called once per cell in storage
    /// order.
    pub fn from_fn(nx: usize, ny: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(checked_len(nx, ny));
        for y in 0..ny {
            data.extend((0..nx).map(|x| f(x, y)));
        }
        Mesh2D { nx, ny, data }
    }

    /// Create a mesh with lanes drawn uniformly from `[lo, hi)` using a
    /// deterministic seed — the workload generator used by the experiment
    /// harness. One SplitMix64 stream seeded with `seed` fills the cells in
    /// storage order, lane after lane within a cell.
    pub fn random(nx: usize, ny: usize, seed: u64, lo: f32, hi: f32) -> Self {
        Mesh2D { nx, ny, data: crate::random_fill(checked_len(nx, ny), 1, seed, lo, hi) }
    }

    /// Row length (the paper's `m`, fastest-varying dimension).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Number of rows (the paper's `n`).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Total number of mesh points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny
    }

    /// `true` when the mesh has no points (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the mesh payload in bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.len() * T::size_bytes()
    }

    /// Linear index of `(x, y)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny);
        y * self.nx + x
    }

    /// Read the element at `(x, y)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        self.data[self.idx(x, y)]
    }

    /// Write the element at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        let i = self.idx(x, y);
        self.data[i] = v;
    }

    /// Borrow the underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying row-major buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Borrow row `y`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        let s = y * self.nx;
        &self.data[s..s + self.nx]
    }

    /// `true` when `(x, y)` is at least `r` cells away from every boundary —
    /// i.e. a cell a radius-`r` stencil may update.
    #[inline]
    pub fn is_interior(&self, x: usize, y: usize, r: usize) -> bool {
        x >= r && y >= r && x + r < self.nx && y + r < self.ny
    }

    /// Iterate `(x, y, value)` over all points in streaming (row-major) order.
    pub fn iter_points(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        let nx = self.nx;
        self.data.iter().enumerate().map(move |(i, &v)| (i % nx, i / nx, v))
    }

    /// `true` if every lane of every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|e| e.is_finite())
    }

    /// Extract the rectangle `[x0, x0+w) × [y0, y0+h)` as a new mesh.
    ///
    /// Used by the tiled executor to cut overlapped blocks out of the global
    /// mesh (the host-side part of spatial blocking).
    pub fn extract(&self, x0: usize, y0: usize, w: usize, h: usize) -> Mesh2D<T> {
        assert!(x0 + w <= self.nx && y0 + h <= self.ny, "extract out of bounds");
        Mesh2D::from_fn(w, h, |x, y| self.get(x0 + x, y0 + y))
    }

    /// Write `src` into the rectangle starting at `(x0, y0)`, restricted to
    /// the sub-rectangle `[vx0, vx0+vw) × [vy0, vy0+vh)` of `src` — i.e. copy
    /// back only a tile's *valid* region.
    #[allow(clippy::too_many_arguments)] // tile-copy geometry is naturally 7-place
    pub fn insert_valid(
        &mut self,
        src: &Mesh2D<T>,
        x0: usize,
        y0: usize,
        vx0: usize,
        vy0: usize,
        vw: usize,
        vh: usize,
    ) {
        assert!(vx0 + vw <= src.nx && vy0 + vh <= src.ny, "valid region out of src");
        assert!(x0 + vx0 + vw <= self.nx && y0 + vy0 + vh <= self.ny, "insert out of bounds");
        for y in vy0..vy0 + vh {
            for x in vx0..vx0 + vw {
                self.set(x0 + x, y0 + y, src.get(x, y));
            }
        }
    }
}

/// `nx · ny`, after the positive-dimension check every constructor makes.
fn checked_len(nx: usize, ny: usize) -> usize {
    assert!(nx > 0 && ny > 0, "mesh dimensions must be positive");
    nx * ny
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_dims() {
        let m = Mesh2D::<f32>::zeros(8, 4);
        assert_eq!(m.nx(), 8);
        assert_eq!(m.ny(), 4);
        assert_eq!(m.len(), 32);
        assert_eq!(m.size_bytes(), 128);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = Mesh2D::<f32>::zeros(0, 4);
    }

    #[test]
    fn from_fn_layout_is_row_major_x_fastest() {
        let m = Mesh2D::<f32>::from_fn(3, 2, |x, y| (y * 10 + x) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(m.get(2, 1), 12.0);
        assert_eq!(m.row(1), &[10.0, 11.0, 12.0]);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Mesh2D::<f32>::zeros(4, 4);
        m.set(3, 2, 7.5);
        assert_eq!(m.get(3, 2), 7.5);
        assert_eq!(m.as_slice()[2 * 4 + 3], 7.5);
    }

    #[test]
    fn random_is_deterministic_and_in_range() {
        let a = Mesh2D::<f32>::random(16, 16, 42, -1.0, 1.0);
        let b = Mesh2D::<f32>::random(16, 16, 42, -1.0, 1.0);
        let c = Mesh2D::<f32>::random(16, 16, 43, -1.0, 1.0);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.as_slice().iter().all(|&v| (-1.0..1.0).contains(&v)));
    }

    #[test]
    fn interior_predicate() {
        let m = Mesh2D::<f32>::zeros(5, 5);
        assert!(m.is_interior(2, 2, 1));
        assert!(m.is_interior(1, 1, 1));
        assert!(!m.is_interior(0, 2, 1));
        assert!(!m.is_interior(4, 2, 1));
        assert!(!m.is_interior(2, 0, 1));
        assert!(!m.is_interior(3, 3, 2));
        assert!(m.is_interior(2, 2, 2));
    }

    #[test]
    fn iter_points_covers_every_cell_once_in_order() {
        let m = Mesh2D::<f32>::from_fn(3, 3, |x, y| (y * 3 + x) as f32);
        let pts: Vec<_> = m.iter_points().collect();
        assert_eq!(pts.len(), 9);
        assert_eq!(pts[0], (0, 0, 0.0));
        assert_eq!(pts[4], (1, 1, 4.0));
        assert_eq!(pts[8], (2, 2, 8.0));
    }

    #[test]
    fn extract_and_insert_valid_roundtrip() {
        let m = Mesh2D::<f32>::from_fn(8, 6, |x, y| (y * 100 + x) as f32);
        let t = m.extract(2, 1, 4, 3);
        assert_eq!(t.nx(), 4);
        assert_eq!(t.get(0, 0), 102.0);
        assert_eq!(t.get(3, 2), 305.0);

        let mut dst = Mesh2D::<f32>::zeros(8, 6);
        dst.insert_valid(&t, 2, 1, 1, 1, 2, 1);
        // only src cells (1..3, 1..2) copied, offset by tile origin (2,1)
        assert_eq!(dst.get(3, 2), 203.0);
        assert_eq!(dst.get(4, 2), 204.0);
        assert_eq!(dst.get(2, 2), 0.0);
        assert_eq!(dst.get(5, 2), 0.0);
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut m = Mesh2D::<f32>::zeros(4, 4);
        assert!(m.all_finite());
        m.set(1, 1, f32::NAN);
        assert!(!m.all_finite());
    }
}
