//! The PCIe DMA / bridge model (paper Figure 2, "PCIe DMA/Bridge IP").
//!
//! The attestation kernel sits between the RoCE kernel and the PCIe DMA engine
//! that moves payloads between host memory and the device. The paper's
//! latency breakdown (Figure 6) attributes roughly 16 µs of the 23 µs
//! synchronous `Attest()` round trip to device access and data transfer; this
//! module models exactly that cost and also provides a tiny host-memory
//! abstraction used by the ibv memory registration path.

use crate::error::DeviceError;
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

/// A registered host-memory region eligible for DMA (the "ibv memory").
///
/// A region is `len` bytes that read as zero until written. Only the bytes
/// up to the highest one ever written are backed by memory: every endpoint
/// registers 1 MiB and most never write a byte of it, and a zeroed `Vec` of
/// that size per endpoint is what went resident (1 GB at n = 1000) from the
/// second deployment a process built.
#[derive(Debug, Clone)]
pub struct DmaRegion {
    len: usize,
    /// The bytes below the high-water mark; `data.len() <= len`.
    data: Vec<u8>,
}

/// Two regions are equal when they have the same length and read the same
/// everywhere, however far each has been written.
impl PartialEq for DmaRegion {
    fn eq(&self, other: &Self) -> bool {
        let (short, long) = if self.data.len() <= other.data.len() {
            (&self.data, &other.data)
        } else {
            (&other.data, &self.data)
        };
        let (head, tail) = long.split_at(short.len());
        self.len == other.len && head == short && tail.iter().all(|&b| b == 0)
    }
}

impl Eq for DmaRegion {}

impl DmaRegion {
    /// Registers a region of `len` zeroed bytes.
    #[must_use]
    pub fn new(len: usize) -> Self {
        DmaRegion {
            len,
            data: Vec::new(),
        }
    }

    /// Region length in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the region has zero length.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Copies `bytes` into the region at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DmaOutOfBounds`] if the write exceeds the region.
    pub fn write(&mut self, offset: usize, bytes: &[u8]) -> Result<(), DeviceError> {
        let end = offset
            .checked_add(bytes.len())
            .ok_or(DeviceError::DmaOutOfBounds)?;
        if end > self.len {
            return Err(DeviceError::DmaOutOfBounds);
        }
        if bytes.is_empty() {
            return Ok(());
        }
        if end > self.data.len() {
            self.data.resize(end, 0);
        }
        self.data[offset..end].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads `len` bytes starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DmaOutOfBounds`] if the read exceeds the region.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, DeviceError> {
        let end = offset.checked_add(len).ok_or(DeviceError::DmaOutOfBounds)?;
        if end > self.len {
            return Err(DeviceError::DmaOutOfBounds);
        }
        let mut out = vec![0u8; len];
        if let Some(written) = self.data.get(offset..) {
            let n = written.len().min(len);
            out[..n].copy_from_slice(&written[..n]);
        }
        Ok(out)
    }
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
    fn region_read_write_round_trip() {
        let mut region = DmaRegion::new(64);
        assert_eq!(region.len(), 64);
        region.write(10, b"hello").unwrap();
        assert_eq!(region.read(10, 5).unwrap(), b"hello");
    }

    #[test]
    fn region_bounds_checked() {
        let mut region = DmaRegion::new(16);
        assert_eq!(
            region.write(12, b"too long"),
            Err(DeviceError::DmaOutOfBounds)
        );
        assert_eq!(region.read(10, 7), Err(DeviceError::DmaOutOfBounds));
        assert_eq!(region.read(usize::MAX, 2), Err(DeviceError::DmaOutOfBounds));
    }

    #[test]
    fn unwritten_bytes_read_as_zero() {
        let mut region = DmaRegion::new(1 << 20);
        assert_eq!(region.read(0, 8).unwrap(), [0u8; 8]);
        assert_eq!(region.read((1 << 20) - 4, 4).unwrap(), [0u8; 4]);
        region.write(100, b"abc").unwrap();
        // Below, across and above the highest byte written.
        assert_eq!(region.read(98, 4).unwrap(), b"\0\0ab");
        assert_eq!(region.read(101, 5).unwrap(), b"bc\0\0\0");
        assert_eq!(region.read(103, 3).unwrap(), [0u8; 3]);
        assert_eq!(region.read(5000, 2).unwrap(), [0u8; 2]);
        assert_eq!(region.read(1 << 20, 0).unwrap(), b"");
        assert_eq!(region.len(), 1 << 20);
    }

    #[test]
    fn last_byte_is_writable_and_nothing_past_it() {
        let mut region = DmaRegion::new(4096);
        region.write(4095, b"z").unwrap();
        region.write(4096, b"").unwrap();
        assert_eq!(region.read(4094, 2).unwrap(), b"\0z");
        // A refused write leaves the region as it was.
        let before = region.clone();
        assert_eq!(region.write(4095, b"zz"), Err(DeviceError::DmaOutOfBounds));
        assert_eq!(region.write(4097, b""), Err(DeviceError::DmaOutOfBounds));
        assert_eq!(
            region.write(usize::MAX, b"z"),
            Err(DeviceError::DmaOutOfBounds)
        );
        assert_eq!(region.read(4095, 2), Err(DeviceError::DmaOutOfBounds));
        assert_eq!(region, before);
    }

    #[test]
    fn equality_is_of_contents_not_of_how_far_a_region_was_written() {
        let mut low = DmaRegion::new(1024);
        let mut high = DmaRegion::new(1024);
        low.write(0, b"same").unwrap();
        high.write(0, b"same").unwrap();
        high.write(900, &[0u8; 16]).unwrap();
        assert_eq!(low, high);
        assert_eq!(high, low);
        assert_eq!(DmaRegion::new(1024), {
            let mut zeroed = DmaRegion::new(1024);
            zeroed.write(1000, &[0u8; 24]).unwrap();
            zeroed
        });
        high.write(915, &[1]).unwrap();
        assert_ne!(low, high);
        assert_ne!(high, low);
        low.write(1, b"A").unwrap();
        high.write(915, &[0]).unwrap();
        assert_ne!(low, high);
        assert_ne!(DmaRegion::new(1024), DmaRegion::new(1025));
    }

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
