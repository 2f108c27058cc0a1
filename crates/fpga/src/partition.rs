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
//! ([`crate::cycles::Schedule`]) is the only caller: it checks the device
//! count, partitions, and turns each slab and its halo into the device's
//! streamed segment.

use std::ops::Range;

/// Split `extent` outermost units into `devices` balanced contiguous slabs,
/// in device order. The first `extent % devices` slabs get one extra unit,
/// so slab widths differ by at most one and cover the axis exactly. The
/// caller guarantees `1 ≤ devices ≤ extent`.
pub(crate) fn slab_partition(extent: usize, devices: usize) -> impl Iterator<Item = Range<usize>> {
    let (base, extra) = (extent / devices, extent % devices);
    (0..devices).map(move |k| {
        let start = k * base + k.min(extra);
        start..start + base + usize::from(k < extra)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn slabs(extent: usize, devices: usize) -> Vec<Range<usize>> {
        slab_partition(extent, devices).collect()
    }

    #[test]
    fn balanced_partition_covers_axis() {
        assert_eq!(slabs(10, 3), vec![0..4, 4..7, 7..10]);
    }

    #[test]
    fn one_device_owns_everything() {
        assert_eq!(slabs(37, 1), vec![0..37]);
    }

    #[test]
    fn shard_per_unit_is_legal() {
        let shards = slabs(4, 4);
        assert!(shards.iter().all(|s| s.len() == 1));
        assert_eq!(shards.last().map(|s| s.end), Some(4));
    }

    proptest! {
        #[test]
        fn partition_is_contiguous_and_balanced(
            extent in 1usize..5000,
            devices in 1usize..64,
        ) {
            prop_assume!(devices <= extent);
            let shards = slabs(extent, devices);
            prop_assert_eq!(shards.len(), devices);
            let mut next = 0usize;
            for s in &shards {
                prop_assert_eq!(s.start, next);
                prop_assert!(!s.is_empty());
                next = s.end;
            }
            prop_assert_eq!(next, extent);
            let min = shards.iter().map(Range::len).min().unwrap();
            let max = shards.iter().map(Range::len).max().unwrap();
            prop_assert!(max - min <= 1);
        }
    }
}
