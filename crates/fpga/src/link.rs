//! The devices a run is spread over and the link between them, a
//! latency + bandwidth pipe between neighbouring accelerators.
//!
//! Both deployment styles the paper's platform supports are covered by the
//! same two-parameter model, evaluated in *design clock cycles* so link
//! time composes directly with the streaming cycle plan:
//!
//! * **Aurora-style** serial links (direct QSFP28 board-to-board): low
//!   latency, full line rate.
//! * **PCIe-style** staging through the host: much higher setup latency
//!   and a lower effective per-cycle payload.
//!
//! A transfer of `B` bytes costs `latency + ⌈B / bytes_per_cycle⌉` cycles.
//! Links are modeled full-duplex: the send of a halo overlaps the
//! neighbour's matching receive, so each exchange is charged once, at the
//! receiver.
//!
//! A [`MultiConfig`] names the device count and the link; the schedule
//! walker ([`crate::cycles::Schedule`]) cuts the mesh into one slab per
//! device and prices each slab's halo exchange over the link.

use serde::{Deserialize, Serialize};

/// How a workload is spread over accelerators.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiConfig {
    /// Number of accelerator cards (`1` = the classic single-device path).
    pub devices: usize,
    /// The inter-device interconnect model.
    pub link: LinkModel,
}

impl MultiConfig {
    /// A `devices`-card config over the default (Aurora-style) link.
    pub fn new(devices: usize) -> Self {
        Self { devices, link: LinkModel::default() }
    }
}

impl Default for MultiConfig {
    /// Single device, default link — identical to unsharded execution.
    fn default() -> Self {
        Self::new(1)
    }
}

/// Latency/bandwidth description of the device-to-device interconnect.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkModel {
    /// Fixed per-message setup cost in design-clock cycles (protocol
    /// framing, DMA descriptor setup, host round-trip for PCIe staging).
    pub latency_cycles: u64,
    /// Payload bytes the link moves per design-clock cycle once streaming.
    pub bytes_per_cycle: u64,
}

impl LinkModel {
    /// Direct Aurora-style serial link: ≈100 Gbit/s at a 300 MHz design
    /// clock (64 B/cycle ≈ 19 GB/s per direction) with short framing
    /// latency.
    pub fn aurora() -> Self {
        Self { latency_cycles: 200, bytes_per_cycle: 64 }
    }

    /// PCIe-style host-staged exchange: each message pays a host round
    /// trip, and staging through host memory halves the effective rate.
    pub fn pcie() -> Self {
        Self { latency_cycles: 1500, bytes_per_cycle: 32 }
    }

    /// Parse a CLI preset name (`aurora` or `pcie`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "aurora" => Some(Self::aurora()),
            "pcie" => Some(Self::pcie()),
            _ => None,
        }
    }

    /// Cycles to move one `bytes`-sized halo message across the link.
    /// Zero-byte transfers are free — no message is sent at all.
    pub fn transfer_cycles(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        self.latency_cycles + bytes.div_ceil(self.bytes_per_cycle.max(1))
    }
}

impl Default for LinkModel {
    /// Defaults to the direct [`LinkModel::aurora`] link, the paper
    /// platform's native multi-board interconnect.
    fn default() -> Self {
        Self::aurora()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_is_latency_plus_ceil_bandwidth() {
        let l = LinkModel { latency_cycles: 100, bytes_per_cycle: 64 };
        assert_eq!(l.transfer_cycles(0), 0);
        assert_eq!(l.transfer_cycles(1), 101);
        assert_eq!(l.transfer_cycles(64), 101);
        assert_eq!(l.transfer_cycles(65), 102);
        assert_eq!(l.transfer_cycles(6400), 200);
    }

    #[test]
    fn zero_bandwidth_degrades_to_byte_per_cycle() {
        let l = LinkModel { latency_cycles: 10, bytes_per_cycle: 0 };
        assert_eq!(l.transfer_cycles(8), 18);
    }

    #[test]
    fn presets_parse_and_rank_sensibly() {
        assert_eq!(LinkModel::parse("aurora"), Some(LinkModel::aurora()));
        assert_eq!(LinkModel::parse("pcie"), Some(LinkModel::pcie()));
        assert_eq!(LinkModel::parse("infiniband"), None);
        // PCIe staging must cost more than a direct link for any message
        let bytes = 4096;
        assert!(
            LinkModel::pcie().transfer_cycles(bytes) > LinkModel::aurora().transfer_cycles(bytes)
        );
        assert_eq!(LinkModel::default(), LinkModel::aurora());
    }
}
