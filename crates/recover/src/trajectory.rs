//! Golden trajectories: the reference solve of one input, kept as the ABFT
//! expected side of every rollback run of that input.
//!
//! A rollback run checks each checkpoint segment against the signature of
//! the golden reference propagated from the segment's verified start state.
//! The reference is iteration-invariant, so when that start state is bit
//! for bit the input's golden state after `done` iterations, the propagated
//! state is the golden state after `done + seg_iters` iterations. A caller
//! that runs one input many times — a fault campaign — solves it once into
//! a [`GoldenTrajectory`] and lends it to every run; a run whose start state
//! is anything else re-solves from it as before, so the comparison is the
//! same either way.
//!
//! Like [`Snapshot`](crate::Snapshot), the type is non-generic: each state
//! is held as lane-flattened `f32` bit patterns.

use crate::abft::AbftSignature;
use sf_mesh::Element;

/// The golden state of an input after some iterations, with its signature.
#[derive(Clone, Debug, PartialEq)]
struct GoldenState {
    iters_done: u64,
    /// Lane-major bit patterns: `cells * lanes` values.
    bits: Vec<u32>,
    signature: AbftSignature,
}

/// The reference states of one input at iteration 0 and after each pass
/// boundary (or each iteration), each with its [`AbftSignature`].
#[derive(Clone, Debug, PartialEq)]
pub struct GoldenTrajectory {
    cells: usize,
    lanes: usize,
    unit_len: usize,
    states: Vec<GoldenState>,
}

impl GoldenTrajectory {
    /// A trajectory that starts at `input` (iteration 0). Signatures fold
    /// stream units of `unit_len` cells, as the run's own checks do.
    pub fn new<T: Element>(input: &[T], unit_len: usize) -> GoldenTrajectory {
        let mut t =
            GoldenTrajectory { cells: input.len(), lanes: T::LANES, unit_len, states: Vec::new() };
        t.push(0, input);
        t
    }

    /// Record the golden state after `iters_done` iterations. States are
    /// pushed in increasing iteration order, each of the input's shape.
    pub fn push<T: Element>(&mut self, iters_done: u64, cells: &[T]) {
        debug_assert!(cells.len() == self.cells && T::LANES == self.lanes);
        debug_assert!(self.states.last().is_none_or(|s| s.iters_done < iters_done));
        // bits of their final size, filled cell by cell: no lane is pushed
        let mut bits = vec![0; cells.len() * T::LANES];
        for (out, c) in bits.chunks_exact_mut(T::LANES.max(1)).zip(cells) {
            for (l, b) in out.iter_mut().enumerate() {
                *b = c.lane(l).to_bits();
            }
        }
        let signature = AbftSignature::compute(cells, self.unit_len);
        self.states.push(GoldenState { iters_done, bits, signature });
    }

    /// Cells of every state.
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// Lanes per cell.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cells per stream unit the signatures fold.
    pub fn unit_len(&self) -> usize {
        self.unit_len
    }

    /// Whether a run of `niter` iterations in passes of `step` finds every
    /// state it needs: the trajectory ends at `niter` and records 0 and
    /// every multiple of `step` below `niter`. A per-iteration trajectory
    /// spans any `step`.
    pub fn spans(&self, step: usize, niter: usize) -> bool {
        self.states.last().is_some_and(|s| s.iters_done == niter as u64)
            && (0..niter as u64).step_by(step.max(1)).all(|it| self.state(it).is_some())
    }

    fn state(&self, iters_done: u64) -> Option<&GoldenState> {
        let i = self.states.binary_search_by_key(&iters_done, |s| s.iters_done).ok()?;
        Some(&self.states[i])
    }

    /// Whether `cells` is, lane for lane and bit for bit, the golden state
    /// after `iters_done` iterations (`false` where none is recorded).
    pub fn holds<T: Element>(&self, iters_done: u64, cells: &[T]) -> bool {
        self.state(iters_done).is_some_and(|s| {
            cells.len() == self.cells
                && T::LANES == self.lanes
                && s.bits.chunks_exact(T::LANES.max(1)).zip(cells).all(|(bits, c)| {
                    bits.iter().enumerate().all(|(l, &b)| c.lane(l).to_bits() == b)
                })
        })
    }

    /// The signature of the golden state after `iters_done` iterations.
    pub fn signature(&self, iters_done: u64) -> Option<&AbftSignature> {
        self.state(iters_done).map(|s| &s.signature)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sf_mesh::VecN;

    fn states() -> Vec<Vec<f32>> {
        (0..4).map(|k| (0..12).map(|i| (i * (k + 1)) as f32 * 0.5 - 2.0).collect()).collect()
    }

    /// States at iterations 0, 3, 6 and 7: passes of 3 over 7 iterations.
    fn trajectory() -> GoldenTrajectory {
        let s = states();
        let mut t = GoldenTrajectory::new(&s[0], 4);
        for (k, it) in [(1, 3), (2, 6), (3, 7)] {
            t.push(it, &s[k]);
        }
        t
    }

    #[test]
    fn holds_compares_bit_patterns_at_recorded_iterations() {
        let (t, s) = (trajectory(), states());
        assert!(t.holds(0, &s[0]) && t.holds(6, &s[2]) && t.holds(7, &s[3]));
        assert!(!t.holds(3, &s[2]), "another state");
        assert!(!t.holds(4, &s[1]), "no state recorded at 4");
        let mut zero = s[1].clone();
        zero[5] = 0.0;
        let mut t0 = GoldenTrajectory::new(&zero, 4);
        t0.push(1, &zero);
        zero[5] = -0.0;
        assert!(!t0.holds(1, &zero), "-0.0 is not 0.0 bit for bit");
        // 20 lanes, a NaN in one of them: the same NaN holds, another
        // payload does not
        let nan = |payload: u32| f32::from_bits(0x7fc0_0000 | payload);
        let wide: Vec<VecN<20>> =
            (0..6).map(|i| VecN::new(core::array::from_fn(|l| (i * 20 + l) as f32))).collect();
        let mut golden = wide.clone();
        golden[3].set_lane(17, nan(1));
        let mut tw = GoldenTrajectory::new(&wide, 2);
        tw.push(5, &golden);
        assert!(tw.holds(5, &golden), "a NaN is its own bit pattern");
        let mut payload = golden.clone();
        payload[3].set_lane(17, nan(2));
        assert!(!tw.holds(5, &payload), "another NaN payload");
        assert!(!tw.holds(5, &wide));
        assert_eq!(t.signature(3), Some(&AbftSignature::compute(&s[1], 4)));
        assert_eq!(t.signature(5), None);
    }

    #[test]
    fn spans_exactly_the_pass_boundaries() {
        let t = trajectory();
        assert!(t.spans(3, 7));
        assert!(!t.spans(3, 6), "records past niter");
        assert!(!t.spans(3, 8), "misses niter");
        assert!(!t.spans(2, 7), "misses 2 and 4");
        assert!(!t.spans(1, 7));
        let s = states();
        let mut every = GoldenTrajectory::new(&s[0], 4);
        for it in 1..=4 {
            every.push(it, &s[(it as usize) % 4]);
        }
        assert!(every.spans(1, 4) && every.spans(2, 4) && every.spans(3, 4) && every.spans(4, 4));
        assert!(!every.spans(2, 3));
    }

    #[test]
    fn vector_lanes_are_flattened() {
        let cells: Vec<VecN<3>> = (0..6).map(|i| VecN::new([i as f32, 1.0, -(i as f32)])).collect();
        let t = GoldenTrajectory::new(&cells, 2);
        assert_eq!((t.cells(), t.lanes(), t.unit_len()), (6, 3, 2));
        assert!(t.holds(0, &cells));
        let mut bad = cells.clone();
        bad[4].set_lane(2, 7.0);
        assert!(!t.holds(0, &bad));
        assert!(!t.holds(0, &cells[..5]));
    }
}
