//! Stream FIFOs.
//!
//! §III: "A perfect data reuse path can be created by (1) using a
//! First-In-First-Out (FIFO) buffer to fetch data from DDR4/HBM memory
//! without interruption (allowing burst transfers)…". HLS dataflow designs
//! also place FIFOs between chained kernels. This module provides:
//!
//! * [`Fifo`] — a bounded queue with backpressure semantics and occupancy
//!   statistics (high-water mark, stall count), the behavioral element;
//! * [`interstage_depth`] / [`fifo_brams`] — the sizing rules the design
//!   synthesizer uses to charge FIFO BRAM.

use serde::{Deserialize, Serialize};
use sf_faults::{Watchdog, WatchdogTrip};
use std::collections::VecDeque;

/// Error returned when pushing into a full FIFO (backpressure).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Full;

/// A bounded FIFO with occupancy statistics.
#[derive(Clone, Debug)]
pub struct Fifo<T> {
    buf: VecDeque<T>,
    capacity: usize,
    high_water: usize,
    stalls: u64,
    total_pushes: u64,
    underflows: u64,
}

impl<T> Fifo<T> {
    /// Create a FIFO of the given capacity (> 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "FIFO capacity must be positive");
        Fifo {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
            stalls: 0,
            total_pushes: 0,
            underflows: 0,
        }
    }

    /// Push one element; `Err(Full)` applies backpressure (and is counted).
    pub fn try_push(&mut self, v: T) -> Result<(), Full> {
        if self.buf.len() == self.capacity {
            self.stalls += 1;
            return Err(Full);
        }
        self.buf.push_back(v);
        self.total_pushes += 1;
        self.high_water = self.high_water.max(self.buf.len());
        Ok(())
    }

    /// Pop the oldest element. A pop from an empty FIFO is counted as an
    /// underflow (consumer starvation) and returns `None`.
    pub fn pop(&mut self) -> Option<T> {
        let v = self.buf.pop_front();
        if v.is_none() {
            self.underflows += 1;
        }
        v
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// `true` when at capacity.
    pub fn is_full(&self) -> bool {
        self.buf.len() == self.capacity
    }

    /// Deepest occupancy observed — what the hardware FIFO must hold.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Rejected pushes (producer stalls).
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Pops attempted on an empty FIFO (consumer starvation).
    pub fn underflows(&self) -> u64 {
        self.underflows
    }

    /// Accepted pushes.
    pub fn total_pushes(&self) -> u64 {
        self.total_pushes
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Fraction of push attempts rejected for backpressure:
    /// `stalls / (stalls + total_pushes)`, 0.0 before any attempt.
    pub fn stall_rate(&self) -> f64 {
        let attempts = self.stalls + self.total_pushes;
        if attempts == 0 {
            return 0.0;
        }
        self.stalls as f64 / attempts as f64
    }
}

/// Depth of the FIFO between two chained pipeline stages: two vector words
/// of slack per AXI burst so a burst refill never stalls the consumer —
/// `max(16, 2 · burst_bytes / (V · elem_bytes))` elements.
pub fn interstage_depth(burst_bytes: usize, v: usize, elem_bytes: usize) -> usize {
    (2 * burst_bytes / v.saturating_mul(elem_bytes).max(1)).max(16)
}

/// Statistics snapshot for reporting.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FifoStats {
    /// Configured capacity.
    pub capacity: usize,
    /// High-water mark.
    pub high_water: usize,
    /// Producer stalls.
    pub stalls: u64,
    /// Pops attempted on an empty FIFO.
    pub underflows: u64,
}

impl<T> Fifo<T> {
    /// Snapshot the statistics.
    pub fn stats(&self) -> FifoStats {
        FifoStats {
            capacity: self.capacity,
            high_water: self.high_water,
            stalls: self.stalls,
            underflows: self.underflows,
        }
    }
}

/// Result of a [`simulate_backpressure`] run.
#[derive(Copy, Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct BackpressureReport {
    /// Final FIFO statistics (capacity, high-water, stall count).
    pub stats: FifoStats,
    /// Elements accepted into the FIFO.
    pub total_pushes: u64,
    /// Cycles the producer spent blocked on a full FIFO.
    pub stall_cycles: u64,
    /// Cycle at which the consumer drained the last element.
    pub finish_cycle: u64,
}

/// Cycle-stepped producer/consumer rate model over a real [`Fifo`].
///
/// The producer emits one element every `produce_interval` cycles, the
/// consumer drains one every `drain_interval` cycles, through a FIFO of
/// `capacity` elements. Every cycle the producer is ready but the FIFO is
/// full counts as one stall cycle — the backpressure the dataflow
/// simulator attributes to inter-stage FIFOs when the downstream (write)
/// side is slower than the upstream (compute) side.
pub fn simulate_backpressure(
    items: u64,
    produce_interval: u64,
    drain_interval: u64,
    capacity: usize,
) -> BackpressureReport {
    assert!(produce_interval > 0 && drain_interval > 0);
    let mut fifo: Fifo<u64> = Fifo::new(capacity);
    let mut produced: u64 = 0;
    let mut drained: u64 = 0;
    let mut next_produce: u64 = 0;
    let mut next_drain: u64 = drain_interval;
    let mut stall_cycles: u64 = 0;
    let mut cycle: u64 = 0;
    let mut finish_cycle: u64 = 0;
    // Hard bound so a degenerate parameterization cannot loop forever.
    let horizon = items
        .saturating_mul(produce_interval.max(drain_interval))
        .saturating_add(items.saturating_mul(capacity as u64))
        .saturating_add(produce_interval + drain_interval);
    while drained < items && cycle <= horizon {
        if produced < items && cycle >= next_produce {
            match fifo.try_push(produced) {
                Ok(()) => {
                    produced += 1;
                    next_produce = cycle + produce_interval;
                }
                Err(Full) => stall_cycles += 1,
            }
        }
        if cycle >= next_drain && fifo.pop().is_some() {
            drained += 1;
            next_drain = cycle + drain_interval;
            finish_cycle = cycle;
        }
        cycle += 1;
    }
    BackpressureReport {
        stats: fifo.stats(),
        total_pushes: fifo.total_pushes(),
        stall_cycles,
        finish_cycle,
    }
}

/// [`simulate_backpressure`] guarded by a [`Watchdog`] instead of the silent
/// horizon bound: the watchdog observes each drained element, and a run that
/// stops making forward progress for `watchdog_budget` cycles returns the
/// structured [`WatchdogTrip`] diagnosis instead of a truncated report.
///
/// `wedge_after_drains` artificially stops the consumer after that many
/// elements — an injected downstream stall that wedges the pipeline once the
/// FIFO fills, exactly the deadlock the watchdog exists to catch.
pub fn simulate_backpressure_watched(
    items: u64,
    produce_interval: u64,
    drain_interval: u64,
    capacity: usize,
    wedge_after_drains: Option<u64>,
    watchdog_budget: u64,
) -> Result<BackpressureReport, WatchdogTrip> {
    assert!(produce_interval > 0 && drain_interval > 0);
    let mut fifo: Fifo<u64> = Fifo::new(capacity);
    let mut dog = Watchdog::new(watchdog_budget, items);
    let mut produced: u64 = 0;
    let mut drained: u64 = 0;
    let mut next_produce: u64 = 0;
    let mut next_drain: u64 = drain_interval;
    let mut stall_cycles: u64 = 0;
    let mut cycle: u64 = 0;
    let mut finish_cycle: u64 = 0;
    while drained < items {
        if produced < items && cycle >= next_produce {
            match fifo.try_push(produced) {
                Ok(()) => {
                    produced += 1;
                    next_produce = cycle + produce_interval;
                }
                Err(Full) => stall_cycles += 1,
            }
        }
        let consumer_wedged = wedge_after_drains.is_some_and(|n| drained >= n);
        if !consumer_wedged && cycle >= next_drain && fifo.pop().is_some() {
            drained += 1;
            next_drain = cycle + drain_interval;
            finish_cycle = cycle;
            dog.observe(cycle, 1);
        }
        dog.check(
            cycle,
            &format!(
                "fifo {}/{} occupied, producer {} stall cycles",
                fifo.len(),
                fifo.capacity(),
                stall_cycles
            ),
        )?;
        cycle += 1;
    }
    Ok(BackpressureReport {
        stats: fifo.stats(),
        total_pushes: fifo.total_pushes(),
        stall_cycles,
        finish_cycle,
    })
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_pop_order() {
        let mut f = Fifo::new(4);
        for i in 0..4 {
            f.try_push(i).unwrap();
        }
        assert!(f.is_full());
        assert_eq!(f.try_push(9), Err(Full));
        assert_eq!(f.stalls(), 1);
        assert_eq!(f.pop(), Some(0));
        assert_eq!(f.pop(), Some(1));
        f.try_push(4).unwrap();
        assert_eq!(f.pop(), Some(2));
        assert_eq!(f.pop(), Some(3));
        assert_eq!(f.pop(), Some(4));
        assert_eq!(f.pop(), None);
        assert!(f.is_empty());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut f = Fifo::new(8);
        for i in 0..5 {
            f.try_push(i).unwrap();
        }
        for _ in 0..5 {
            f.pop();
        }
        for i in 0..3 {
            f.try_push(i).unwrap();
        }
        assert_eq!(f.high_water(), 5);
        assert_eq!(f.total_pushes(), 8);
        let s = f.stats();
        assert_eq!(s.capacity, 8);
        assert_eq!(s.high_water, 5);
        assert_eq!(s.stalls, 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Fifo::<u8>::new(0);
    }

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
    fn stall_rate_counts_rejected_fraction() {
        let mut f = Fifo::new(2);
        assert_eq!(f.stall_rate(), 0.0);
        f.try_push(0).unwrap();
        f.try_push(1).unwrap();
        assert_eq!(f.try_push(2), Err(Full));
        assert_eq!(f.try_push(3), Err(Full));
        // 2 accepted, 2 rejected → 50 % stall rate.
        assert!((f.stall_rate() - 0.5).abs() < 1e-12);
        assert_eq!(f.capacity(), 2);
    }

    #[test]
    fn matched_rates_never_stall() {
        let r = simulate_backpressure(100, 3, 3, 4);
        assert_eq!(r.stall_cycles, 0);
        assert_eq!(r.stats.stalls, 0);
        assert_eq!(r.total_pushes, 100);
        // Steady state keeps at most a couple of elements in flight.
        assert!(r.stats.high_water <= 2, "high_water {}", r.stats.high_water);
    }

    #[test]
    fn fast_producer_slow_consumer_stalls() {
        // Producer twice as fast as the consumer behind a small FIFO: once
        // the FIFO fills, the producer stalls roughly every other cycle.
        let r = simulate_backpressure(200, 1, 2, 4);
        assert!(r.stall_cycles > 0);
        assert_eq!(r.stats.high_water, 4, "FIFO should hit capacity");
        assert_eq!(r.total_pushes, 200);
        // Finish time is consumer-bound: ~2 cycles per element.
        assert!(r.finish_cycle >= 2 * 200 - 2);
    }

    #[test]
    fn deep_fifo_absorbs_a_burst() {
        // Same rates, FIFO deep enough to hold everything → no stalls.
        let r = simulate_backpressure(50, 1, 2, 64);
        assert_eq!(r.stall_cycles, 0);
        assert_eq!(r.stats.stalls, 0);
        // The burst piles up (~half the items) but never hits capacity.
        assert!(r.stats.high_water > 20 && r.stats.high_water < 64);
    }

    #[test]
    fn overflow_under_sustained_backpressure_bounds_occupancy() {
        // Producer 4× faster than the consumer: the FIFO must saturate at
        // capacity (never beyond), and every surplus push must be counted
        // as a stall, not silently dropped or grown.
        let r = simulate_backpressure(400, 1, 4, 8);
        assert_eq!(r.stats.high_water, 8, "occupancy must cap at capacity");
        assert_eq!(r.total_pushes, 400, "every element is eventually accepted");
        // Sustained backpressure: producer blocked most of the run.
        assert!(r.stall_cycles > 400, "expected heavy stalling, got {}", r.stall_cycles);
        assert!(r.stats.stalls > 0);
    }

    #[test]
    fn underflow_on_drained_producer_is_counted() {
        let mut f = Fifo::<u32>::new(4);
        assert_eq!(f.pop(), None);
        assert_eq!(f.underflows(), 1);
        f.try_push(1).unwrap();
        assert_eq!(f.pop(), Some(1));
        assert_eq!(f.pop(), None);
        assert_eq!(f.pop(), None);
        assert_eq!(f.underflows(), 3);
        assert_eq!(f.stats().underflows, 3);
    }

    #[test]
    fn slow_producer_starves_consumer_underflows() {
        // Consumer polls every cycle, producer delivers every 8 cycles: the
        // consumer finds the FIFO empty most of the time.
        let r = simulate_backpressure(20, 8, 1, 4);
        assert!(r.stats.underflows > 0, "starved consumer must record underflows");
        assert_eq!(r.total_pushes, 20);
    }

    #[test]
    fn watched_simulation_matches_unwatched_when_healthy() {
        let plain = simulate_backpressure(200, 1, 2, 4);
        let watched = simulate_backpressure_watched(200, 1, 2, 4, None, 1_000).unwrap();
        assert_eq!(plain, watched);
    }

    #[test]
    fn watchdog_fires_on_wedged_pipeline() {
        // Consumer stops after 10 elements: FIFO fills, producer stalls
        // forever. The watchdog must trip with a structured diagnosis
        // instead of hanging or silently truncating.
        let trip = simulate_backpressure_watched(100, 1, 2, 8, Some(10), 500).unwrap_err();
        assert_eq!(trip.units_emitted, 10);
        assert_eq!(trip.units_expected, 100);
        assert!(trip.tripped_at_cycle > trip.last_progress_cycle + 500);
        let msg = trip.to_string();
        assert!(msg.contains("no forward progress"), "{msg}");
        assert!(msg.contains("8/8 occupied"), "diagnosis must show the full FIFO: {msg}");
    }

    #[test]
    fn watchdog_fires_when_consumer_never_starts() {
        let trip = simulate_backpressure_watched(10, 2, 3, 4, Some(0), 100).unwrap_err();
        assert_eq!(trip.units_emitted, 0);
        assert_eq!(trip.last_progress_cycle, 0);
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
}
