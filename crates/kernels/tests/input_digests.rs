//! Every generated input, pinned bit for bit.
//!
//! The random meshes and batches and the RTM demo input are what every
//! profile, benchmark request and conformance suite streams. A faster
//! generator must draw the same lanes in the same order, so these digests
//! (FNV-1a over each lane's `to_bits`, in storage order) may never change.

use sf_kernels::rtm;
use sf_mesh::{Batch2D, Batch3D, Element, Mesh2D, Mesh3D, VecN};

type V3 = VecN<3>;

fn fnv1a<T: Element>(cells: &[T]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for e in cells {
        for c in 0..T::LANES {
            for byte in e.lane(c).to_bits().to_le_bytes() {
                h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

fn assert_digests(got: &[(&str, u64)], want: &[u64]) {
    assert_eq!(got.len(), want.len());
    for (&(name, got), &want) in got.iter().zip(want) {
        assert_eq!(got, want, "{name}: digest {got:#018x}, pinned {want:#018x}");
    }
}

#[test]
fn random_meshes_keep_their_bits() {
    let got = [
        ("Mesh2D<f32> 99x38", fnv1a(Mesh2D::<f32>::random(99, 38, 5, -1.0, 1.0).as_slice())),
        ("Mesh2D<V3> 99x38", fnv1a(Mesh2D::<V3>::random(99, 38, 6, -2.0, 3.0).as_slice())),
        ("Mesh3D<f32> 17x18x19", fnv1a(Mesh3D::<f32>::random(17, 18, 19, 7, -1.0, 1.0).as_slice())),
        ("Mesh3D<V3> 17x18x19", fnv1a(Mesh3D::<V3>::random(17, 18, 19, 8, 0.0, 1.0).as_slice())),
    ];
    assert_digests(
        &got,
        &[
            0xa10c_bd2e_3608_bcfc,
            0xe20e_79e3_2b4a_293d,
            0x47fd_f67a_79e8_1db1,
            0xc3d2_accc_abdb_c7e6,
        ],
    );
}

#[test]
fn random_batches_keep_their_bits() {
    let got = [
        (
            "Batch2D<f32> 99x38 b1",
            fnv1a(Batch2D::<f32>::random(99, 38, 1, 42, -1.0, 1.0).as_slice()),
        ),
        (
            "Batch2D<f32> 99x38 b3",
            fnv1a(Batch2D::<f32>::random(99, 38, 3, 9, -1.0, 1.0).as_slice()),
        ),
        ("Batch2D<V3> 99x38 b1", fnv1a(Batch2D::<V3>::random(99, 38, 1, 10, -2.0, 3.0).as_slice())),
        ("Batch2D<V3> 99x38 b3", fnv1a(Batch2D::<V3>::random(99, 38, 3, 11, -2.0, 3.0).as_slice())),
        (
            "Batch3D<f32> 17x18x19 b1",
            fnv1a(Batch3D::<f32>::random(17, 18, 19, 1, 42, -1.0, 1.0).as_slice()),
        ),
        (
            "Batch3D<f32> 17x18x19 b3",
            fnv1a(Batch3D::<f32>::random(17, 18, 19, 3, 12, -1.0, 1.0).as_slice()),
        ),
        (
            "Batch3D<V3> 17x18x19 b1",
            fnv1a(Batch3D::<V3>::random(17, 18, 19, 1, 13, 0.0, 1.0).as_slice()),
        ),
        (
            "Batch3D<V3> 17x18x19 b3",
            fnv1a(Batch3D::<V3>::random(17, 18, 19, 3, 14, 0.0, 1.0).as_slice()),
        ),
    ];
    assert_digests(
        &got,
        &[
            0xdf2f_7b8d_f661_d67a,
            0x63d0_290e_d77c_de34,
            0x2722_2311_f6bd_7c55,
            0x4958_d629_eac5_5fc5,
            0x423e_0fe7_df33_861d,
            0xf0fb_1995_6bdd_ceff,
            0x83a2_2d7d_3e8f_7c93,
            0x45f9_f00b_9e5e_030c,
        ],
    );
}

#[test]
fn rtm_demo_input_keeps_its_bits() {
    let three_step = |nx, ny, nz| {
        let (y, rho, mu) = rtm::demo_workload(nx, ny, nz);
        Batch3D::from_meshes(&[rtm::pack(&y, &rho, &mu)])
    };
    let got = [
        ("RTM 12x10x8", fnv1a(three_step(12, 10, 8).as_slice())),
        ("RTM 40x24x33", fnv1a(three_step(40, 24, 33).as_slice())),
    ];
    assert_digests(&got, &[0x2aa8_7974_1305_049c, 0x8211_4094_f0f3_8e02]);
}
