//! The PCIe DMA / bridge model (paper Figure 2, "PCIe DMA/Bridge IP").
//!
//! The attestation kernel sits between the RoCE kernel and the PCIe DMA engine
//! that moves payloads between host memory and the device. The paper's
//! latency breakdown (Figure 6) attributes roughly 16 µs of the 23 µs
//! synchronous `Attest()` round trip to device access and data transfer; this
//! module models exactly that cost.

use tnic_sim::latency::SizeDependentLatency;
use tnic_sim::time::SimDuration;

/// Transfer modes supported by the DMA engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaMode {
    /// Synchronous transfers as used in the stand-alone hardware evaluation
    /// (§8.1): each operation pays the full access + transfer cost.
    Synchronous,
    /// Asynchronous user-space DMA as used on the kernel-bypass data path
    /// (§5.2): the fixed access cost is largely hidden.
    Asynchronous,
}

/// Statistics kept by the DMA engine.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Host-to-device transfers.
    pub h2d_transfers: u64,
    /// Device-to-host transfers.
    pub d2h_transfers: u64,
    /// Total bytes moved.
    pub bytes: u64,
}

/// The PCIe DMA engine: a timing model plus counters.
#[derive(Debug, Clone)]
pub struct DmaEngine {
    mode: DmaMode,
    sync_cost: SizeDependentLatency,
    async_cost: SizeDependentLatency,
    stats: DmaStats,
}

impl DmaEngine {
    /// Creates a DMA engine calibrated to the paper's measurements: a
    /// synchronous round trip costs ~16 µs of access/transfer for small
    /// payloads (Figure 6), while the asynchronous kernel-bypass path costs a
    /// couple of microseconds of doorbell/DMA latency (§8.2's 5 µs RDMA-hw
    /// round trips imply ~2 µs per direction).
    #[must_use]
    pub fn paper_calibrated(mode: DmaMode) -> Self {
        DmaEngine {
            mode,
            sync_cost: SizeDependentLatency::new(SimDuration::from_micros(8), 0.35),
            async_cost: SizeDependentLatency::new(SimDuration::from_nanos(1_200), 0.012),
            stats: DmaStats::default(),
        }
    }

    /// The engine's current transfer mode.
    #[must_use]
    pub fn mode(&self) -> DmaMode {
        self.mode
    }

    /// Switches transfer mode.
    pub fn set_mode(&mut self, mode: DmaMode) {
        self.mode = mode;
    }

    fn cost(&self, bytes: usize) -> SimDuration {
        match self.mode {
            DmaMode::Synchronous => self.sync_cost.cost(bytes),
            DmaMode::Asynchronous => self.async_cost.cost(bytes),
        }
    }

    /// Accounts a host-to-device transfer of `bytes` bytes.
    pub fn host_to_device(&mut self, bytes: usize) -> SimDuration {
        self.stats.h2d_transfers += 1;
        self.stats.bytes += bytes as u64;
        self.cost(bytes)
    }

    /// Accounts a device-to-host transfer of `bytes` bytes.
    pub fn device_to_host(&mut self, bytes: usize) -> SimDuration {
        self.stats.d2h_transfers += 1;
        self.stats.bytes += bytes as u64;
        self.cost(bytes)
    }

    /// Current statistics.
    #[must_use]
    pub fn stats(&self) -> DmaStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synchronous_mode_is_slower() {
        let mut sync = DmaEngine::paper_calibrated(DmaMode::Synchronous);
        let mut asy = DmaEngine::paper_calibrated(DmaMode::Asynchronous);
        assert!(sync.host_to_device(128) > asy.host_to_device(128));
    }

    #[test]
    fn paper_calibration_matches_figure6() {
        // The synchronous access+transfer cost for a 128 B payload should be
        // in the ~16 µs ballpark reported in Figure 6 (two directions).
        let mut dma = DmaEngine::paper_calibrated(DmaMode::Synchronous);
        let round_trip =
            dma.host_to_device(128).as_micros_f64() + dma.device_to_host(128).as_micros_f64();
        assert!((14.0..=20.0).contains(&round_trip), "got {round_trip}");
    }

    #[test]
    fn stats_accumulate() {
        let mut dma = DmaEngine::paper_calibrated(DmaMode::Asynchronous);
        dma.host_to_device(100);
        dma.device_to_host(50);
        let s = dma.stats();
        assert_eq!(s.h2d_transfers, 1);
        assert_eq!(s.d2h_transfers, 1);
        assert_eq!(s.bytes, 150);
    }
}
