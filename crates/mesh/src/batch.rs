//! Batches of same-shaped meshes (§IV-B of the paper).
//!
//! The batching optimization "extends the mesh in the last dimension by
//! stacking up the small meshes": a [`Batch2D`] of `B` meshes of `nx × ny`
//! behaves like one `nx × (ny·B)` stream, a [`Batch3D`] like one
//! `nx × ny × (nz·B)` stream. Crucially the meshes remain *independent*
//! problems — a stencil must never read across a mesh seam — so the batch
//! types track which global row/plane belongs to which mesh and expose
//! seam-aware interior predicates used by both the golden reference and the
//! FPGA dataflow executor.

use crate::element::Element;
use crate::mesh2d::Mesh2D;
use crate::mesh3d::Mesh3D;

/// A batch of `B` independent `nx × ny` meshes stacked along `y`.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch2D<T: Element> {
    nx: usize,
    ny: usize,
    b: usize,
    /// Contiguous storage: mesh `i` occupies global rows `[i·ny, (i+1)·ny)`.
    data: Vec<T>,
}

impl<T: Element> Batch2D<T> {
    /// Create a batch of `b` zero meshes.
    pub fn zeros(nx: usize, ny: usize, b: usize) -> Self {
        assert!(nx > 0 && ny > 0 && b > 0, "batch dimensions must be positive");
        Batch2D { nx, ny, b, data: vec![T::default(); nx * ny * b] }
    }

    /// Build a batch from `b` individual meshes (all must share the shape).
    pub fn from_meshes(meshes: &[Mesh2D<T>]) -> Self {
        assert!(!meshes.is_empty(), "empty batch");
        let (nx, ny) = (meshes[0].nx(), meshes[0].ny());
        let mut data = Vec::with_capacity(nx * ny * meshes.len());
        for (i, m) in meshes.iter().enumerate() {
            assert_eq!((m.nx(), m.ny()), (nx, ny), "mesh {i} shape mismatch");
            data.extend_from_slice(m.as_slice());
        }
        Batch2D { nx, ny, b: meshes.len(), data }
    }

    /// Deterministic random batch: mesh `i` is [`Mesh2D::random`] with seed
    /// `seed + i`, wrapping past `u64::MAX`. The meshes are drawn one after
    /// another, straight into the batch.
    pub fn random(nx: usize, ny: usize, b: usize, seed: u64, lo: f32, hi: f32) -> Self {
        assert!(nx > 0 && ny > 0 && b > 0, "batch dimensions must be positive");
        Batch2D { nx, ny, b, data: crate::random_fill(nx * ny, b, seed, lo, hi) }
    }

    /// Per-mesh row length.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Per-mesh row count.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Number of meshes in the batch (the paper's `B`).
    #[inline]
    pub fn batch(&self) -> usize {
        self.b
    }

    /// Stacked row count `ny · B` — the length of the fused stream.
    #[inline]
    pub fn stacked_ny(&self) -> usize {
        self.ny * self.b
    }

    /// Total points across the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the batch holds no points (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total payload bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.len() * T::size_bytes()
    }

    /// View the whole batch as one stacked buffer (global row-major).
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable stacked view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Read element `(x, y)` of mesh `i`.
    #[inline]
    pub fn get(&self, i: usize, x: usize, y: usize) -> T {
        debug_assert!(i < self.b && x < self.nx && y < self.ny);
        self.data[(i * self.ny + y) * self.nx + x]
    }

    /// Write element `(x, y)` of mesh `i`.
    #[inline]
    pub fn set(&mut self, i: usize, x: usize, y: usize, v: T) {
        debug_assert!(i < self.b && x < self.nx && y < self.ny);
        self.data[(i * self.ny + y) * self.nx + x] = v;
    }

    /// Which mesh owns global row `gy`, and its local row.
    #[inline]
    pub fn owner(&self, gy: usize) -> (usize, usize) {
        debug_assert!(gy < self.stacked_ny());
        (gy / self.ny, gy % self.ny)
    }

    /// `true` when global cell `(x, gy)` is interior *to its own mesh* for a
    /// radius-`r` stencil — this is the seam guard: cells near a mesh seam
    /// are boundaries of their own mesh even though the stacked stream
    /// continues past them.
    #[inline]
    pub fn is_interior_global(&self, x: usize, gy: usize, r: usize) -> bool {
        let (_, ly) = self.owner(gy);
        x >= r && x + r < self.nx && ly >= r && ly + r < self.ny
    }

    /// Extract mesh `i` as a standalone [`Mesh2D`].
    pub fn mesh(&self, i: usize) -> Mesh2D<T> {
        assert!(i < self.b);
        Mesh2D::from_fn(self.nx, self.ny, |x, y| self.get(i, x, y))
    }
}

/// Group a heterogeneous collection of 2D meshes into same-shape batches —
/// the paper batches only "meshes with the same dimensions", so a mixed book
/// must be partitioned first. Returns one `(batch, original_indices)` pair
/// per distinct shape, shapes in first-appearance order, and meshes in
/// original relative order within each batch.
pub fn group_by_shape_2d<T: Element>(meshes: &[Mesh2D<T>]) -> Vec<(Batch2D<T>, Vec<usize>)> {
    let mut shapes: Vec<(usize, usize)> = Vec::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, m) in meshes.iter().enumerate() {
        let shape = (m.nx(), m.ny());
        match shapes.iter().position(|&s| s == shape) {
            Some(g) => groups[g].push(i),
            None => {
                shapes.push(shape);
                groups.push(vec![i]);
            }
        }
    }
    groups
        .into_iter()
        .map(|idxs| {
            let members: Vec<_> = idxs.iter().map(|&i| meshes[i].clone()).collect();
            (Batch2D::from_meshes(&members), idxs)
        })
        .collect()
}

/// A batch of `B` independent `nx × ny × nz` meshes stacked along `z`.
#[derive(Clone, Debug, PartialEq)]
pub struct Batch3D<T: Element> {
    nx: usize,
    ny: usize,
    nz: usize,
    b: usize,
    /// Mesh `i` occupies global planes `[i·nz, (i+1)·nz)`.
    data: Vec<T>,
}

impl<T: Element> Batch3D<T> {
    /// Create a batch of `b` zero meshes.
    pub fn zeros(nx: usize, ny: usize, nz: usize, b: usize) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0 && b > 0, "batch dimensions must be positive");
        Batch3D { nx, ny, nz, b, data: vec![T::default(); nx * ny * nz * b] }
    }

    /// Build a batch from individual meshes (all must share the shape).
    pub fn from_meshes(meshes: &[Mesh3D<T>]) -> Self {
        assert!(!meshes.is_empty(), "empty batch");
        let (nx, ny, nz) = (meshes[0].nx(), meshes[0].ny(), meshes[0].nz());
        let mut data = Vec::with_capacity(nx * ny * nz * meshes.len());
        for (i, m) in meshes.iter().enumerate() {
            assert_eq!((m.nx(), m.ny(), m.nz()), (nx, ny, nz), "mesh {i} shape mismatch");
            data.extend_from_slice(m.as_slice());
        }
        Batch3D { nx, ny, nz, b: meshes.len(), data }
    }

    /// Deterministic random batch: mesh `i` is [`Mesh3D::random`] with seed
    /// `seed + i`, wrapping past `u64::MAX`. The meshes are drawn one after
    /// another, straight into the batch.
    pub fn random(nx: usize, ny: usize, nz: usize, b: usize, seed: u64, lo: f32, hi: f32) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0 && b > 0, "batch dimensions must be positive");
        Batch3D { nx, ny, nz, b, data: crate::random_fill(nx * ny * nz, b, seed, lo, hi) }
    }

    /// Per-mesh `x` extent.
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Per-mesh `y` extent.
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Per-mesh `z` extent.
    #[inline]
    pub fn nz(&self) -> usize {
        self.nz
    }

    /// Number of meshes (the paper's `B`).
    #[inline]
    pub fn batch(&self) -> usize {
        self.b
    }

    /// Stacked plane count `nz · B`.
    #[inline]
    pub fn stacked_nz(&self) -> usize {
        self.nz * self.b
    }

    /// Total points across the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the batch holds no points (never, by construction).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Total payload bytes.
    #[inline]
    pub fn size_bytes(&self) -> usize {
        self.len() * T::size_bytes()
    }

    /// Stacked buffer view.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable stacked view.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Read element `(x, y, z)` of mesh `i`.
    #[inline]
    pub fn get(&self, i: usize, x: usize, y: usize, z: usize) -> T {
        debug_assert!(i < self.b && x < self.nx && y < self.ny && z < self.nz);
        self.data[((i * self.nz + z) * self.ny + y) * self.nx + x]
    }

    /// Write element `(x, y, z)` of mesh `i`.
    #[inline]
    pub fn set(&mut self, i: usize, x: usize, y: usize, z: usize, v: T) {
        debug_assert!(i < self.b && x < self.nx && y < self.ny && z < self.nz);
        self.data[((i * self.nz + z) * self.ny + y) * self.nx + x] = v;
    }

    /// Which mesh owns global plane `gz`, and its local plane index.
    #[inline]
    pub fn owner(&self, gz: usize) -> (usize, usize) {
        debug_assert!(gz < self.stacked_nz());
        (gz / self.nz, gz % self.nz)
    }

    /// Seam-aware interior predicate for global cell `(x, y, gz)`.
    #[inline]
    pub fn is_interior_global(&self, x: usize, y: usize, gz: usize, r: usize) -> bool {
        let (_, lz) = self.owner(gz);
        x >= r && x + r < self.nx && y >= r && y + r < self.ny && lz >= r && lz + r < self.nz
    }

    /// Extract mesh `i` as a standalone [`Mesh3D`].
    pub fn mesh(&self, i: usize) -> Mesh3D<T> {
        assert!(i < self.b);
        Mesh3D::from_fn(self.nx, self.ny, self.nz, |x, y, z| self.get(i, x, y, z))
    }
}

/// A batch of one mesh, which moves the mesh's buffer in without a copy.
impl<T: Element> From<Mesh3D<T>> for Batch3D<T> {
    fn from(m: Mesh3D<T>) -> Self {
        let (nx, ny, nz) = (m.nx(), m.ny(), m.nz());
        Batch3D { nx, ny, nz, b: 1, data: m.into_vec() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::VecN;

    #[test]
    fn batch2d_from_meshes_roundtrip() {
        let m0 = Mesh2D::<f32>::from_fn(4, 3, |x, y| (y * 10 + x) as f32);
        let m1 = Mesh2D::<f32>::from_fn(4, 3, |x, y| 1000.0 + (y * 10 + x) as f32);
        let b = Batch2D::from_meshes(&[m0.clone(), m1.clone()]);
        assert_eq!(b.batch(), 2);
        assert_eq!(b.stacked_ny(), 6);
        assert_eq!(b.mesh(0), m0);
        assert_eq!(b.mesh(1), m1);
        assert_eq!(b.get(1, 2, 1), 1012.0);
    }

    #[test]
    fn batch2d_owner_and_seam_guard() {
        let b = Batch2D::<f32>::zeros(8, 4, 3);
        assert_eq!(b.owner(0), (0, 0));
        assert_eq!(b.owner(3), (0, 3));
        assert_eq!(b.owner(4), (1, 0));
        assert_eq!(b.owner(11), (2, 3));
        // radius-1 stencil: local rows 0 and 3 are boundary rows
        assert!(!b.is_interior_global(4, 4, 1)); // first row of mesh 1
        assert!(b.is_interior_global(4, 5, 1));
        assert!(b.is_interior_global(4, 6, 1));
        assert!(!b.is_interior_global(4, 7, 1)); // last row of mesh 1
        assert!(!b.is_interior_global(0, 5, 1)); // x boundary
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn batch2d_shape_mismatch_panics() {
        let m0 = Mesh2D::<f32>::zeros(4, 3);
        let m1 = Mesh2D::<f32>::zeros(4, 4);
        let _ = Batch2D::from_meshes(&[m0, m1]);
    }

    #[test]
    fn batch2d_stacked_layout_matches_mesh_order() {
        let b = Batch2D::<f32>::random(4, 2, 3, 9, 0.0, 1.0);
        // stacked buffer row gy = i*ny + y
        for i in 0..3 {
            for y in 0..2 {
                for x in 0..4 {
                    let gy = i * 2 + y;
                    assert_eq!(b.as_slice()[gy * 4 + x], b.get(i, x, y));
                }
            }
        }
    }

    #[test]
    fn group_by_shape_partitions_and_preserves_order() {
        let a1 = Mesh2D::<f32>::random(8, 4, 1, 0.0, 1.0);
        let b1 = Mesh2D::<f32>::random(6, 6, 2, 0.0, 1.0);
        let a2 = Mesh2D::<f32>::random(8, 4, 3, 0.0, 1.0);
        let c1 = Mesh2D::<f32>::random(10, 2, 4, 0.0, 1.0);
        let a3 = Mesh2D::<f32>::random(8, 4, 5, 0.0, 1.0);
        let groups =
            group_by_shape_2d(&[a1.clone(), b1.clone(), a2.clone(), c1.clone(), a3.clone()]);
        assert_eq!(groups.len(), 3);
        // first group: the 8×4 meshes, in order 0, 2, 4
        assert_eq!(groups[0].1, vec![0, 2, 4]);
        assert_eq!(groups[0].0.batch(), 3);
        assert_eq!(groups[0].0.mesh(0), a1);
        assert_eq!(groups[0].0.mesh(1), a2);
        assert_eq!(groups[0].0.mesh(2), a3);
        assert_eq!(groups[1].1, vec![1]);
        assert_eq!(groups[1].0.mesh(0), b1);
        assert_eq!(groups[2].1, vec![3]);
        assert_eq!(groups[2].0.mesh(0), c1);
    }

    #[test]
    fn group_by_shape_empty_and_uniform() {
        let empty: Vec<Mesh2D<f32>> = Vec::new();
        assert!(group_by_shape_2d(&empty).is_empty());
        let ms: Vec<_> = (0..4).map(|i| Mesh2D::<f32>::random(5, 5, i, 0.0, 1.0)).collect();
        let groups = group_by_shape_2d(&ms);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0.batch(), 4);
    }

    #[test]
    fn batch3d_owner_and_seam_guard() {
        let b = Batch3D::<f32>::zeros(6, 6, 4, 2);
        assert_eq!(b.owner(3), (0, 3));
        assert_eq!(b.owner(4), (1, 0));
        assert!(!b.is_interior_global(3, 3, 4, 1)); // first plane of mesh 1
        assert!(b.is_interior_global(3, 3, 5, 1));
        assert!(!b.is_interior_global(3, 3, 7, 1)); // last plane of mesh 1
    }

    #[test]
    fn batch3d_mesh_extraction() {
        let m0 = Mesh3D::<f32>::random(3, 3, 3, 1, 0.0, 1.0);
        let m1 = Mesh3D::<f32>::random(3, 3, 3, 2, 0.0, 1.0);
        let b = Batch3D::from_meshes(&[m0.clone(), m1.clone()]);
        assert_eq!(b.mesh(0), m0);
        assert_eq!(b.mesh(1), m1);
        assert_eq!(b.size_bytes(), 2 * 27 * 4);
        let one = Batch3D::from(m1.clone());
        assert_eq!((one.batch(), one.mesh(0)), (1, m1));
    }

    #[test]
    fn random_batch_member_seeds_wrap_past_u64_max() {
        let b = Batch2D::<f32>::random(4, 4, 2, u64::MAX, -1.0, 1.0);
        assert_eq!(b.mesh(0), Mesh2D::random(4, 4, u64::MAX, -1.0, 1.0));
        assert_eq!(b.mesh(1), Mesh2D::random(4, 4, 0, -1.0, 1.0));
        let b = Batch3D::<VecN<3>>::random(3, 2, 2, 3, u64::MAX - 1, 0.0, 2.0);
        for (i, seed) in [u64::MAX - 1, u64::MAX, 0].into_iter().enumerate() {
            assert_eq!(b.mesh(i), Mesh3D::random(3, 2, 2, seed, 0.0, 2.0));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn random_batch_zero_dim_panics() {
        let _ = Batch3D::<f32>::random(2, 2, 2, 0, 1, 0.0, 1.0);
    }

    #[test]
    fn batch3d_random_meshes_differ() {
        let b = Batch3D::<f32>::random(4, 4, 4, 2, 5, 0.0, 1.0);
        assert_ne!(b.mesh(0), b.mesh(1));
    }
}
