//! 3D rectangular meshes.
//!
//! Storage is row-major with `x` fastest and `z` slowest
//! (`idx = (z * ny + y) * nx + x`). The paper's 3D mesh is `m × n × l`; we
//! use `nx`/`ny`/`nz`. Planes (fixed `z`) are the unit the 3D window buffers
//! cache.

use crate::element::Element;

/// A dense 3D mesh of elements.
#[derive(Clone, Debug, PartialEq)]
pub struct Mesh3D<T: Element> {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<T>,
}

impl<T: Element> Mesh3D<T> {
    /// Create an `nx × ny × nz` mesh of default (zero) elements.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Mesh3D { nx, ny, nz, data: vec![T::default(); checked_len(nx, ny, nz)] }
    }

    /// Create a mesh filled by `f(x, y, z)`, called once per cell in storage
    /// order.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        mut f: impl FnMut(usize, usize, usize) -> T,
    ) -> Self {
        let mut data = Vec::with_capacity(checked_len(nx, ny, nz));
        for z in 0..nz {
            for y in 0..ny {
                data.extend((0..nx).map(|x| f(x, y, z)));
            }
        }
        Mesh3D { nx, ny, nz, data }
    }

    /// Deterministic random fill with lanes uniform in `[lo, hi)`: one
    /// SplitMix64 stream seeded with `seed` fills the cells in storage
    /// order, lane after lane within a cell.
    pub fn random(nx: usize, ny: usize, nz: usize, seed: u64, lo: f32, hi: f32) -> Self {
        let data = crate::random_fill(checked_len(nx, ny, nz), 1, seed, lo, hi);
        Mesh3D { nx, ny, nz, data }
    }

    /// Fastest-varying dimension (the paper's `m`).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Middle dimension (the paper's `n`).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Slowest dimension / plane count (the paper's `l`).
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Total number of mesh points.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
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

    /// Linear index of `(x, y, z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    /// Read the element at `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> T {
        self.data[self.idx(x, y, z)]
    }

    /// Write the element at `(x, y, z)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: T) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Give up the underlying buffer, without a copy.
    pub(crate) fn into_vec(self) -> Vec<T> {
        self.data
    }

    /// Borrow the underlying buffer.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutably borrow the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// `true` when `(x, y, z)` is at least `r` cells from every boundary.
    #[inline]
    pub fn is_interior(&self, x: usize, y: usize, z: usize, r: usize) -> bool {
        x >= r && y >= r && z >= r && x + r < self.nx && y + r < self.ny && z + r < self.nz
    }

    /// `true` if every lane of every element is finite.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|e| e.is_finite())
    }

    /// Extract the box `[x0, x0+w) × [y0, y0+h) × [0, nz)` — tiles in the
    /// paper's 3D spatial blocking span the full `l` dimension (`M × N × l`).
    pub fn extract_xy(&self, x0: usize, y0: usize, w: usize, h: usize) -> Mesh3D<T> {
        assert!(x0 + w <= self.nx && y0 + h <= self.ny, "extract out of bounds");
        Mesh3D::from_fn(w, h, self.nz, |x, y, z| self.get(x0 + x, y0 + y, z))
    }

    /// Copy the valid `[vx0, vx0+vw) × [vy0, vy0+vh)` sub-box of `src` (full
    /// `z` extent) back into this mesh at tile origin `(x0, y0)`.
    #[allow(clippy::too_many_arguments)] // tile-copy geometry is naturally 7-place
    pub fn insert_valid_xy(
        &mut self,
        src: &Mesh3D<T>,
        x0: usize,
        y0: usize,
        vx0: usize,
        vy0: usize,
        vw: usize,
        vh: usize,
    ) {
        assert_eq!(src.nz, self.nz, "tile must span full z extent");
        assert!(vx0 + vw <= src.nx && vy0 + vh <= src.ny, "valid region out of src");
        assert!(x0 + vx0 + vw <= self.nx && y0 + vy0 + vh <= self.ny, "insert out of bounds");
        for z in 0..self.nz {
            for y in vy0..vy0 + vh {
                for x in vx0..vx0 + vw {
                    self.set(x0 + x, y0 + y, z, src.get(x, y, z));
                }
            }
        }
    }
}

/// `nx · ny · nz`, after the positive-dimension check every constructor
/// makes.
fn checked_len(nx: usize, ny: usize, nz: usize) -> usize {
    assert!(nx > 0 && ny > 0 && nz > 0, "mesh dimensions must be positive");
    nx * ny * nz
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecN;

    #[test]
    fn layout_x_fastest_z_slowest() {
        let m = Mesh3D::<f32>::from_fn(2, 2, 2, |x, y, z| (z * 100 + y * 10 + x) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 10.0, 11.0, 100.0, 101.0, 110.0, 111.0]);
        assert_eq!(m.get(1, 0, 1), 101.0);
    }

    #[test]
    fn dims_and_bytes() {
        let m = Mesh3D::<VecN<6>>::zeros(4, 3, 2);
        assert_eq!(m.len(), 24);
        assert_eq!(m.size_bytes(), 24 * 24);
        assert_eq!((m.nx(), m.ny(), m.nz()), (4, 3, 2));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_dim_panics() {
        let _ = Mesh3D::<f32>::zeros(2, 0, 2);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut m = Mesh3D::<f32>::zeros(3, 3, 3);
        m.set(2, 1, 2, 5.0);
        assert_eq!(m.get(2, 1, 2), 5.0);
        assert_eq!(m.as_slice()[(2 * 3 + 1) * 3 + 2], 5.0);
    }

    #[test]
    fn random_deterministic() {
        let a = Mesh3D::<f32>::random(4, 4, 4, 7, 0.0, 1.0);
        let b = Mesh3D::<f32>::random(4, 4, 4, 7, 0.0, 1.0);
        assert_eq!(a, b);
        assert!(a.all_finite());
    }

    #[test]
    fn interior_predicate_3d() {
        let m = Mesh3D::<f32>::zeros(9, 9, 9);
        assert!(m.is_interior(4, 4, 4, 4));
        assert!(!m.is_interior(3, 4, 4, 4));
        assert!(!m.is_interior(4, 4, 8, 1));
        assert!(m.is_interior(1, 1, 1, 1));
    }

    #[test]
    fn extract_insert_xy_roundtrip() {
        let m = Mesh3D::<f32>::from_fn(6, 6, 2, |x, y, z| (z * 1000 + y * 10 + x) as f32);
        let t = m.extract_xy(1, 2, 3, 3);
        assert_eq!((t.nx(), t.ny(), t.nz()), (3, 3, 2));
        assert_eq!(t.get(0, 0, 0), 21.0);
        assert_eq!(t.get(2, 2, 1), 1043.0);

        let mut dst = Mesh3D::<f32>::zeros(6, 6, 2);
        dst.insert_valid_xy(&t, 1, 2, 1, 1, 1, 1);
        assert_eq!(dst.get(2, 3, 0), 32.0);
        assert_eq!(dst.get(2, 3, 1), 1032.0);
        assert_eq!(dst.get(1, 3, 0), 0.0);
    }
}
