//! Super Logic Region (SLR) placement.
//!
//! The U280 die is three SLRs; "bandwidth within an SLR is extremely high
//! (TB/s) … while between SLRs it is limited by the number of silicon
//! connections available" (§III). The paper's RTM design is explicitly
//! floorplanned around this: "Our implementation avoids spanning of a
//! compute unit on multiple SLRs to avoid inter SLR routing congestion, by
//! setting V to 1, allowing us to fit the four fused loops in one SLR. This,
//! then allows for an iterative loop unroll factor of 3 (p) given the three
//! SLRs on the U280."
//!
//! [`place_chain`] performs the same greedy contiguous placement: pipeline
//! modules fill SLR 0, then SLR 1, then SLR 2. It reports
//!
//! * how many chain edges cross an SLR boundary (each crossing consumes
//!   scarce SLL routes and hurts timing), and
//! * whether any single module is too large for one SLR and must *span*
//!   regions — the situation the paper's designs avoid, penalized by the
//!   clock model.

use crate::device::FpgaDevice;
use serde::{Deserialize, Serialize};

/// Resource capacity of one SLR (the U280 splits its resources roughly
/// evenly across its three regions).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlrCapacity {
    /// DSP blocks per SLR.
    pub dsp: usize,
    /// BRAM36 blocks per SLR.
    pub bram: usize,
    /// URAM288 blocks per SLR.
    pub uram: usize,
}

impl SlrCapacity {
    /// Even split of a device's resources across its SLRs.
    pub fn of(dev: &FpgaDevice) -> Self {
        SlrCapacity {
            dsp: dev.dsp_total / dev.slr_count,
            bram: dev.bram_blocks / dev.slr_count,
            uram: dev.uram_blocks / dev.slr_count,
        }
    }
}

/// Per-module resource demand of one pipeline module (one unrolled
/// iteration: all fused stages and their window buffers).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModuleDemand {
    /// DSPs per module.
    pub dsp: usize,
    /// BRAM36 per module.
    pub bram: usize,
    /// URAM288 per module.
    pub uram: usize,
}

/// Result of placing a `p`-module chain onto the SLRs.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct SlrPlacement {
    /// SLR index of each module, in chain order.
    pub assignments: Vec<usize>,
    /// Chain edges that cross an SLR boundary.
    pub crossings: usize,
    /// Modules too large for a single SLR (must span regions).
    pub spanning_modules: usize,
}

impl SlrPlacement {
    /// Modules per SLR, for utilization reports.
    pub fn occupancy(&self, slr_count: usize) -> Vec<usize> {
        let mut occ = vec![0usize; slr_count];
        for &s in &self.assignments {
            occ[s.min(slr_count - 1)] += 1;
        }
        occ
    }
}

/// Errors from placement.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementError {
    /// The chain does not fit the die even spread across all SLRs.
    DoesNotFit {
        /// Modules placed before capacity ran out.
        placed: usize,
        /// Modules requested.
        requested: usize,
    },
}

impl core::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PlacementError::DoesNotFit { placed, requested } => {
                write!(f, "chain does not fit: placed {placed} of {requested} modules")
            }
        }
    }
}

impl std::error::Error for PlacementError {}

/// Greedily place a `p`-module chain in order across the SLRs.
///
/// A module that alone exceeds a single SLR's capacity is counted as
/// *spanning* and charged one whole SLR plus overflow into the next (the
/// U280 has no better option); otherwise modules pack contiguously.
///
/// The modules are identical, so the greedy walk is arithmetic: each SLR
/// packs the same number of them, and a spanning module claims the same
/// number of SLRs. The chain's fit is known before anything is placed, so a
/// chain far larger than the die fails without allocating for it.
pub fn place_chain(
    dev: &FpgaDevice,
    p: usize,
    demand: ModuleDemand,
) -> Result<SlrPlacement, PlacementError> {
    assert!(p > 0, "empty chain");
    let cap = SlrCapacity::of(dev);
    let spans_one = demand.dsp > cap.dsp || demand.bram > cap.bram || demand.uram > cap.uram;
    // modules per SLR, SLRs per module, and how many modules the die holds
    let fit = |need: usize, have: usize| have.checked_div(need).unwrap_or(usize::MAX);
    let (per_slr, stride, placed) = if spans_one {
        // a spanning module consumes its SLR entirely and bleeds over
        let stride = demand.dsp.div_ceil(cap.dsp.max(1));
        (1, stride, fit(stride, dev.slr_count))
    } else {
        let per_slr = fit(demand.dsp, cap.dsp)
            .min(fit(demand.bram, cap.bram))
            .min(fit(demand.uram, cap.uram));
        (per_slr, 1, per_slr.saturating_mul(dev.slr_count))
    };
    if p > placed {
        return Err(PlacementError::DoesNotFit { placed, requested: p });
    }
    let mut assignments = vec![0; p];
    for (k, run) in assignments.chunks_mut(per_slr).enumerate() {
        run.fill(k * stride);
    }
    let crossings = assignments.windows(2).filter(|w| w[0] != w[1]).count();
    let spanning_modules = if spans_one { p } else { 0 };
    Ok(SlrPlacement { assignments, crossings, spanning_modules })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> FpgaDevice {
        FpgaDevice::u280()
    }

    #[test]
    fn rtm_paper_placement_one_module_per_slr() {
        // V=1 RTM: 1974 DSP + 288 URAM per module, p=3 → one per SLR
        let d = dev();
        let pl = place_chain(&d, 3, ModuleDemand { dsp: 1974, bram: 0, uram: 288 }).unwrap();
        assert_eq!(pl.assignments, vec![0, 1, 2]);
        assert_eq!(pl.crossings, 2);
        assert_eq!(pl.spanning_modules, 0);
        assert_eq!(pl.occupancy(3), vec![1, 1, 1]);
    }

    #[test]
    fn rtm_v2_module_spans_slrs() {
        // V=2 doubles the module: 3948 DSP > 2830 per SLR → spanning — the
        // exact configuration the paper avoids by setting V=1
        let d = dev();
        let pl = place_chain(&d, 1, ModuleDemand { dsp: 3948, bram: 0, uram: 576 }).unwrap();
        assert_eq!(pl.spanning_modules, 1);
    }

    #[test]
    fn poisson_p60_spreads_over_three_slrs() {
        // 112 DSP + 16 BRAM per module: 25 modules per SLR by DSP
        let d = dev();
        let pl = place_chain(&d, 60, ModuleDemand { dsp: 112, bram: 16, uram: 0 }).unwrap();
        assert_eq!(pl.crossings, 2);
        let occ = pl.occupancy(3);
        assert_eq!(occ.iter().sum::<usize>(), 60);
        assert!(occ[0] >= 20 && occ[0] <= 25, "occupancy {occ:?}");
        assert_eq!(pl.spanning_modules, 0);
    }

    #[test]
    fn overflow_reports_does_not_fit() {
        // 25 modules of 112 DSP fill each 2830-DSP SLR; a 2^62-module chain
        // fails at the same count without allocating for its modules
        let d = dev();
        for requested in [100, 1 << 62] {
            let demand = ModuleDemand { dsp: 112, bram: 0, uram: 0 };
            let err = place_chain(&d, requested, demand).unwrap_err();
            assert_eq!(err, PlacementError::DoesNotFit { placed: 75, requested });
            assert!(format!("{err}").contains("does not fit"));
        }
    }

    #[test]
    fn small_chain_stays_in_one_slr() {
        let d = dev();
        let pl = place_chain(&d, 4, ModuleDemand { dsp: 112, bram: 16, uram: 0 }).unwrap();
        assert_eq!(pl.crossings, 0);
        assert_eq!(pl.assignments, vec![0, 0, 0, 0]);
    }

    #[test]
    fn uram_can_be_the_binding_resource() {
        // 29 Jacobi modules of 32 URAM each: 320/SLR → 10 per SLR
        let d = dev();
        let pl = place_chain(&d, 29, ModuleDemand { dsp: 264, bram: 0, uram: 32 }).unwrap();
        assert_eq!(pl.crossings, 2);
        let occ = pl.occupancy(3);
        assert_eq!(occ[0], 10);
    }
}
