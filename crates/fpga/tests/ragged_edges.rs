//! Ragged-edge conformance for the lane-parallel fast path.
//!
//! The fast stage processors advance `sf_simd::LANES` cells per step and
//! fall back to a scalar epilogue for the ragged tail of each row, and to
//! whole-row/plane scalar evaluation on mesh boundaries. These tests pin
//! the stage-level contract on exactly the shapes where the epilogue and
//! boundary splits carry all the weight: widths that are not a multiple of
//! `LANES`, widths smaller than `LANES`, 1-wide and 1-tall degenerate
//! meshes, and multi-mesh streams whose seams force boundary re-entry —
//! in 2D and 3D. Every emitted row/plane must be bit-identical to the
//! scalar [`StageProcessor2D`]/[`StageProcessor3D`] fed the same stream.

use sf_fpga::fast::{FastStageProcessor2D, FastStageProcessor3D};
use sf_fpga::window::{Stage, StageProcessor2D, StageProcessor3D};
use sf_kernels::{LaneOp2D, LaneOp3D, Poisson2D, StarStencil2D, StarStencil3D};
use sf_mesh::{norms, Mesh2D, Mesh3D};
use sf_simd::LANES;

/// Emit output unit `j` of both stages into fresh `len`-cell buffers.
fn emit_both<S: Stage<f32>, F: Stage<f32>>(
    scalar: &S,
    fast: &F,
    j: usize,
    len: usize,
) -> (Vec<f32>, Vec<f32>) {
    let (mut a, mut b) = (vec![0.0; len], vec![0.0; len]);
    scalar.emit(j, &mut a);
    fast.emit(j, &mut b);
    (a, b)
}

/// Stream `meshes` random 2D meshes through a scalar and a fast stage and
/// demand bit-identical rows at every step (incremental emissions, drain,
/// and window-fill gauge alike).
fn conform_2d<K: LaneOp2D<f32> + Clone>(k: K, nx: usize, ny: usize, meshes: usize, seed: u64) {
    let stream_rows = ny * meshes;
    let mut scalar = StageProcessor2D::new(k.clone(), nx, stream_rows, ny);
    let mut fast = FastStageProcessor2D::new(k, nx, stream_rows, ny);
    let tag = format!("{nx}x{ny} x{meshes} meshes");
    for m in 0..meshes {
        let mesh = Mesh2D::<f32>::random(nx, ny, seed + m as u64, -1.0, 1.0);
        for j in 0..ny {
            let row = &mesh.as_slice()[j * nx..(j + 1) * nx];
            let a = scalar.push(row);
            let b = fast.push(row);
            assert_eq!(a.is_some(), b.is_some(), "emission schedule diverged ({tag})");
            if let (Some(ya), Some(yb)) = (a, b) {
                assert_eq!(ya, yb, "emission schedule diverged ({tag})");
                let (a, b) = emit_both(&scalar, &fast, ya, nx);
                assert!(norms::bit_equal(&a, &b), "row differs mid-stream ({tag})");
            }
            assert_eq!(scalar.window_fill(), fast.window_fill(), "window fill ({tag})");
        }
    }
    let da = scalar.drain();
    let db = fast.drain();
    assert_eq!(da.len(), db.len(), "drain length ({tag})");
    for (ya, yb) in da.zip(db) {
        assert_eq!(ya, yb, "drain schedule diverged ({tag})");
        let (a, b) = emit_both(&scalar, &fast, ya, nx);
        assert!(norms::bit_equal(&a, &b), "drained row differs ({tag})");
    }
}

/// 3D counterpart of [`conform_2d`]: planes in, planes out.
fn conform_3d<K: LaneOp3D<f32> + Clone>(
    k: K,
    nx: usize,
    ny: usize,
    nz: usize,
    meshes: usize,
    seed: u64,
) {
    let stream_planes = nz * meshes;
    let mut scalar = StageProcessor3D::new(k.clone(), nx, ny, stream_planes, nz);
    let mut fast = FastStageProcessor3D::new(k, nx, ny, stream_planes, nz);
    let tag = format!("{nx}x{ny}x{nz} x{meshes} meshes");
    for m in 0..meshes {
        let mesh = Mesh3D::<f32>::random(nx, ny, nz, seed + m as u64, -1.0, 1.0);
        for zp in 0..nz {
            let plane = &mesh.as_slice()[zp * nx * ny..(zp + 1) * nx * ny];
            let a = scalar.push(plane);
            let b = fast.push(plane);
            assert_eq!(a.is_some(), b.is_some(), "emission schedule diverged ({tag})");
            if let (Some(za), Some(zb)) = (a, b) {
                assert_eq!(za, zb, "emission schedule diverged ({tag})");
                let (a, b) = emit_both(&scalar, &fast, za, nx * ny);
                assert!(norms::bit_equal(&a, &b), "plane differs mid-stream ({tag})");
            }
            assert_eq!(scalar.window_fill(), fast.window_fill(), "window fill ({tag})");
        }
    }
    let da = scalar.drain();
    let db = fast.drain();
    assert_eq!(da.len(), db.len(), "drain length ({tag})");
    for (za, zb) in da.zip(db) {
        assert_eq!(za, zb, "drain schedule diverged ({tag})");
        let (a, b) = emit_both(&scalar, &fast, za, nx * ny);
        assert!(norms::bit_equal(&a, &b), "drained plane differs ({tag})");
    }
}

/// A radius-2 star so the boundary margin and epilogue interact with a
/// deeper window than Poisson's radius 1.
fn star_r2() -> StarStencil2D {
    StarStencil2D::laplace9_order4(0.1, 0.4)
}

fn star3_r2() -> StarStencil3D {
    // 4th-order second-derivative weights (center, ±1, ±2) → radius 2
    StarStencil3D::high_order(&[-30.0 / 12.0, 16.0 / 12.0, -1.0 / 12.0], 0.05, 0.7)
}

#[test]
fn ragged_width_2d_not_multiple_of_lanes() {
    // interior width (nx − 2r) deliberately not a multiple of LANES
    for nx in [LANES + 1, 2 * LANES - 3, 3 * LANES + 5] {
        conform_2d(Poisson2D, nx, 9, 1, 101);
        conform_2d(star_r2(), nx, 9, 1, 102);
    }
}

#[test]
fn exact_multiple_width_2d_has_no_epilogue_gap() {
    // nx a multiple of LANES still leaves a ragged interior (nx − 2r);
    // both the full-lane and the all-epilogue split must agree
    conform_2d(Poisson2D, 4 * LANES, 12, 1, 103);
    conform_2d(star_r2(), 2 * LANES, 12, 1, 104);
}

#[test]
fn narrow_2d_meshes_below_lane_width() {
    // nx < LANES: the lane loop never fires, everything is epilogue +
    // boundary
    for nx in [2, 3, LANES - 1] {
        conform_2d(Poisson2D, nx, 8, 1, 105);
    }
    conform_2d(star_r2(), LANES - 2, 10, 1, 106);
}

#[test]
fn degenerate_1_wide_and_1_tall_2d() {
    conform_2d(Poisson2D, 1, 7, 1, 107); // every cell is a boundary cell
    conform_2d(Poisson2D, 23, 1, 1, 108); // single boundary row
    conform_2d(star_r2(), 1, 6, 1, 109);
    conform_2d(star_r2(), 17, 1, 1, 110);
    conform_2d(Poisson2D, 1, 1, 1, 111); // 1×1: fully degenerate
}

#[test]
fn multi_mesh_2d_stream_reenters_boundaries_at_seams() {
    conform_2d(Poisson2D, LANES + 3, 5, 3, 112);
    conform_2d(star_r2(), 2 * LANES + 1, 6, 2, 113);
}

#[test]
fn radius_wider_than_mesh_2d_is_all_boundary() {
    // nx < r and nx < 2r: the interior split degenerates to nothing
    conform_2d(star_r2(), 1, 8, 1, 114);
    conform_2d(star_r2(), 3, 8, 1, 115);
    conform_2d(star_r2(), 4, 8, 1, 116);
}

#[test]
fn ragged_width_3d_not_multiple_of_lanes() {
    use sf_kernels::Jacobi3D;
    for nx in [LANES + 1, 2 * LANES - 3] {
        conform_3d(Jacobi3D::smoothing(), nx, 7, 6, 1, 201);
    }
    conform_3d(star3_r2(), LANES + 5, 8, 7, 1, 202);
}

#[test]
fn narrow_and_degenerate_3d_meshes() {
    use sf_kernels::Jacobi3D;
    let k = Jacobi3D::smoothing();
    conform_3d(k, 3, 5, 5, 1, 203); // nx < LANES
    conform_3d(k, 1, 6, 5, 1, 204); // 1-wide
    conform_3d(k, 11, 1, 5, 1, 205); // 1-tall rows: every row is boundary
    conform_3d(k, 11, 6, 1, 1, 206); // single plane: all boundary
    conform_3d(k, 1, 1, 1, 1, 207); // fully degenerate
    conform_3d(star3_r2(), 4, 6, 6, 1, 208); // nx == 2r: no interior cells
}

#[test]
fn multi_mesh_3d_stream_reenters_boundaries_at_seams() {
    use sf_kernels::Jacobi3D;
    conform_3d(Jacobi3D::smoothing(), LANES + 2, 6, 4, 3, 209);
    conform_3d(star3_r2(), LANES + 1, 7, 6, 2, 210);
}

/// Executor-level ragged check: the public fast entry point agrees with the
/// scalar executor on a width with both a lane body and a ragged tail.
#[test]
fn executor_level_ragged_2d_and_3d() {
    use sf_fpga::design::{synthesize, ExecMode, MemKind, Workload};
    use sf_fpga::{exec2d, exec3d, fast, ExecEngine, FpgaDevice, Recorder};
    use sf_kernels::{Jacobi3D, StencilSpec};
    use sf_mesh::{Batch2D, Batch3D};

    let dev = FpgaDevice::u280();
    let nx = 3 * LANES + 3;
    let wl = Workload::D2 { nx, ny: 11, batch: 1 };
    let ds = synthesize(&dev, &StencilSpec::poisson(), 1, 2, ExecMode::Baseline, MemKind::Hbm, &wl)
        .unwrap();
    let input = Batch2D::<f32>::random(nx, 11, 1, 42, -1.0, 1.0);
    let (scalar, _) = exec2d::simulate_2d(&dev, &ds, &[Poisson2D], &input, 7);
    let (fast_out, _) = fast::simulate_2d_exec(
        ExecEngine::Fast,
        &dev,
        &ds,
        &[Poisson2D],
        &input,
        7,
        &mut Recorder::disabled(),
    );
    assert!(norms::bit_equal(scalar.as_slice(), fast_out.as_slice()));

    let nx3 = 2 * LANES + 5;
    let wl3 = Workload::D3 { nx: nx3, ny: 7, nz: 6, batch: 1 };
    let ds3 =
        synthesize(&dev, &StencilSpec::jacobi(), 1, 2, ExecMode::Baseline, MemKind::Hbm, &wl3)
            .unwrap();
    let input3 = Batch3D::<f32>::random(nx3, 7, 6, 1, 43, -1.0, 1.0);
    let k = Jacobi3D::smoothing();
    let (scalar3, _) = exec3d::simulate_3d(&dev, &ds3, &[k], &input3, 4);
    let (fast3, _) = fast::simulate_3d_exec(
        ExecEngine::Fast,
        &dev,
        &ds3,
        &[k],
        &input3,
        4,
        &mut Recorder::disabled(),
    );
    assert!(norms::bit_equal(scalar3.as_slice(), fast3.as_slice()));
}
