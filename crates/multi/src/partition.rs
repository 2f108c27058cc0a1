//! 1D slab decomposition of the outermost mesh axis across devices.
//!
//! Sharding follows the classic distributed-stencil layout: the outermost
//! axis (rows `y` in 2D, planes `z` in 3D) is cut into `K` contiguous slabs,
//! one per accelerator, balanced to within one unit. Each device owns its
//! slab and additionally *streams* a halo of
//! [`StencilSpec::halo`](sf_kernels::StencilSpec::halo) extra units
//! (`p · stages · ⌈D/2⌉`, the pipeline-fill depth) on each interior side,
//! so a full pass (`p` fused iterations × `stages` chained stages) over the
//! extended slab reproduces the single-device result bit-exactly on the
//! owned units — the contamination from treating the slab edge as a mesh
//! boundary advances at most one stencil radius per chained stage and
//! therefore never reaches past the halo. The schedule walker
//! ([`sf_fpga::cycles::Schedule`]) turns the slabs and halo into each
//! device's streamed segment.

use serde::{Deserialize, Serialize};

/// One device's contiguous slab of the outermost axis (rows in 2D, planes
/// in 3D).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Shard {
    /// Device index, `0..devices`.
    pub device: usize,
    /// First owned unit (inclusive).
    pub start: usize,
    /// Number of owned units.
    pub len: usize,
}

impl Shard {
    /// One past the last owned unit.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Split `extent` outermost units into `devices` balanced contiguous slabs.
/// The first `extent % devices` shards get one extra unit, so shard widths
/// differ by at most one and cover the axis exactly.
///
/// # Panics
/// Panics when `devices` is zero or exceeds `extent` (an empty shard has no
/// owned units to exchange from); [`crate::plan::sharded_plan`] reports
/// these as typed [`crate::plan::MultiError`]s before partitioning.
pub fn slab_partition(extent: usize, devices: usize) -> Vec<Shard> {
    assert!(devices >= 1, "device count must be positive");
    assert!(devices <= extent, "more devices ({devices}) than outermost units ({extent})");
    let base = extent / devices;
    let extra = extent % devices;
    let mut shards = Vec::with_capacity(devices);
    let mut start = 0usize;
    for device in 0..devices {
        let len = base + usize::from(device < extra);
        shards.push(Shard { device, start, len });
        start += len;
    }
    shards
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn balanced_partition_covers_axis() {
        let shards = slab_partition(10, 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0], Shard { device: 0, start: 0, len: 4 });
        assert_eq!(shards[1], Shard { device: 1, start: 4, len: 3 });
        assert_eq!(shards[2], Shard { device: 2, start: 7, len: 3 });
    }

    #[test]
    fn one_device_owns_everything() {
        let shards = slab_partition(37, 1);
        assert_eq!(shards, vec![Shard { device: 0, start: 0, len: 37 }]);
    }

    #[test]
    fn shard_per_unit_is_legal() {
        let shards = slab_partition(4, 4);
        assert!(shards.iter().all(|s| s.len == 1));
        assert_eq!(shards.last().map(Shard::end), Some(4));
    }

    #[test]
    #[should_panic(expected = "more devices")]
    fn more_devices_than_units_panics() {
        let _ = slab_partition(3, 4);
    }

    proptest! {
        #[test]
        fn partition_is_contiguous_and_balanced(
            extent in 1usize..5000,
            devices in 1usize..64,
        ) {
            prop_assume!(devices <= extent);
            let shards = slab_partition(extent, devices);
            prop_assert_eq!(shards.len(), devices);
            let mut next = 0usize;
            for (k, s) in shards.iter().enumerate() {
                prop_assert_eq!(s.device, k);
                prop_assert_eq!(s.start, next);
                prop_assert!(s.len >= 1);
                next = s.end();
            }
            prop_assert_eq!(next, extent);
            let min = shards.iter().map(|s| s.len).min().unwrap();
            let max = shards.iter().map(|s| s.len).max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
