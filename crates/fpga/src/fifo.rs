//! Stream FIFO sizing and backpressure.
//!
//! §III: "A perfect data reuse path can be created by (1) using a
//! First-In-First-Out (FIFO) buffer to fetch data from DDR4/HBM memory
//! without interruption (allowing burst transfers)…". HLS dataflow designs
//! also place FIFOs between chained kernels. This module holds the sizing
//! rules the design synthesizer charges FIFO BRAM by, and that the design
//! checker and the schedule telemetry read: [`interstage_depth`] and
//! [`fifo_brams`].
//!
//! No FIFO is simulated element by element. `chain_backpressure` counts
//! backpressure on the FIFO between the compute chain and the write engine
//! in closed form for the schedule telemetry ([`crate::profile`]), at a
//! segment's fixed row timing: it assumes every row of a pass costs the
//! same.

/// Depth of the FIFO between two chained pipeline stages: two vector words
/// of slack per AXI burst so a burst refill never stalls the consumer —
/// `max(16, 2 · burst_bytes / (V · elem_bytes))` elements.
pub fn interstage_depth(burst_bytes: usize, v: usize, elem_bytes: usize) -> usize {
    (2 * burst_bytes / v.saturating_mul(elem_bytes).max(1)).max(16)
}

/// BRAM18/36 blocks for a design's stream FIFOs: one FIFO per chained stage
/// boundary plus one read- and one write-side memory FIFO, each sized by
/// [`interstage_depth`] and quantized to BRAM36. The count saturates, so an
/// absurd `v` or chain length reads as over any budget instead of wrapping.
pub fn fifo_brams(
    bram_block_bytes: usize,
    burst_bytes: usize,
    v: usize,
    elem_bytes: usize,
    chained_stages: usize,
) -> usize {
    let depth = interstage_depth(burst_bytes, v, elem_bytes);
    let bytes = depth.saturating_mul(v).saturating_mul(elem_bytes);
    let blocks_per_fifo = bytes.div_ceil(bram_block_bytes).max(1);
    let n_fifos = chained_stages.saturating_sub(1).saturating_add(2);
    blocks_per_fifo.saturating_mul(n_fifos)
}

/// Backpressure on the chain→write FIFO over one pass of `rows` rows, as
/// `(stall cycles, high water)`. The chain offers row `k` at cycle
/// `k·produce` unless all `cap` rows of the FIFO are full, and then every
/// cycle until one frees; each stalled cycle delays every later row. The
/// write engine takes one row every `drain` cycles from cycle `drain` on,
/// and a push lands before a pop of the same cycle.
///
/// A write engine faster than the chain holds at most one row. One no
/// faster pops row `j` at cycle `(j + 1)·drain`, so row `k ≥ cap` lands one
/// cycle after the pop of row `k − cap`, and the last row at
/// `(rows − cap)·drain + 1` rather than `(rows − 1)·produce`: the
/// difference is the stall. Without a stall the FIFO is deepest at the last
/// push, less the rows popped before it. Products saturate, so an absurd
/// mesh cannot overflow.
pub(crate) fn chain_backpressure(rows: u64, produce: u64, drain: u64, cap: u64) -> (u64, u64) {
    if rows == 0 {
        return (0, 0);
    }
    let last_push = (rows - 1).saturating_mul(produce);
    let stalls = if rows > cap {
        (rows - cap).saturating_mul(drain).saturating_add(1).saturating_sub(last_push)
    } else {
        0
    };
    let high_water = if stalls > 0 {
        cap
    } else if drain < produce {
        1
    } else {
        rows - last_push.saturating_sub(1) / drain
    };
    (stalls, high_water)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interstage_depth_sizing() {
        // Poisson V=8: 2·4096/(8·4) = 256 elements
        assert_eq!(interstage_depth(4096, 8, 4), 256);
        // RTM V=1 packed 80 B: 2·4096/80 = 102
        assert_eq!(interstage_depth(4096, 1, 80), 102);
        // floor at 16
        assert_eq!(interstage_depth(64, 64, 4), 16);
    }

    #[test]
    fn fifo_bram_accounting() {
        // Poisson p=60: 61 FIFOs of 256×32 B = 8 KiB → 2 BRAM36 each
        let b = fifo_brams(4608, 4096, 8, 4, 60);
        assert_eq!(b, 61 * 2);
        // single-stage chain still needs the two memory-side FIFOs
        let b1 = fifo_brams(4608, 4096, 8, 4, 1);
        assert_eq!(b1, 2 * 2);
    }

    #[test]
    fn matched_rates_never_stall() {
        // Steady state keeps at most a couple of rows in flight.
        let (stalls, high_water) = chain_backpressure(100, 3, 3, 4);
        assert_eq!(stalls, 0);
        assert_eq!(high_water, 2);
    }

    #[test]
    fn fast_producer_slow_consumer_stalls() {
        // A chain twice as fast as the write engine behind a small FIFO:
        // once the FIFO fills, the chain stalls about every other cycle.
        let (stalls, high_water) = chain_backpressure(200, 1, 2, 4);
        assert_eq!(stalls, 194);
        assert_eq!(high_water, 4, "FIFO should hit capacity");
    }

    #[test]
    fn deep_fifo_absorbs_a_burst() {
        // Same rates, FIFO deep enough to hold everything → no stalls. The
        // burst piles up (about half the rows) but never hits capacity.
        let (stalls, high_water) = chain_backpressure(50, 1, 2, 64);
        assert_eq!(stalls, 0);
        assert_eq!(high_water, 26);
    }

    #[test]
    fn overflow_under_sustained_backpressure_bounds_occupancy() {
        // A chain 4× faster than the write engine: the FIFO saturates at
        // capacity (never beyond), and the chain is blocked most of the pass.
        let (stalls, high_water) = chain_backpressure(400, 1, 4, 8);
        assert_eq!(high_water, 8, "occupancy must cap at capacity");
        assert_eq!(stalls, 1170);
    }
}
