//! The 100 Gb Ethernet MAC model (paper §4.2).
//!
//! The CMAC kernel connects the RoCE kernel to the network fabric over a 100G
//! Ethernet subsystem. The model accounts for wire serialisation time at the
//! configured line rate and keeps frame counters, plus a frame check sequence
//! so link-level corruption is detectable in simulations that inject it.

use tnic_sim::latency::SizeDependentLatency;
use tnic_sim::time::SimDuration;

/// Statistics exposed by the MAC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MacStats {
    /// Frames transmitted.
    pub tx_frames: u64,
    /// Bytes transmitted.
    pub tx_bytes: u64,
    /// Frames received.
    pub rx_frames: u64,
    /// Bytes received.
    pub rx_bytes: u64,
    /// Frames dropped due to FCS errors.
    pub fcs_errors: u64,
}

/// The 100 Gb MAC: line-rate serialisation model + counters.
#[derive(Debug, Clone)]
pub struct EthernetMac {
    line: SizeDependentLatency,
    stats: MacStats,
}

impl Default for EthernetMac {
    fn default() -> Self {
        Self::new_100g()
    }
}

impl EthernetMac {
    /// A MAC operating at 100 Gb/s with a small fixed per-frame overhead.
    #[must_use]
    pub fn new_100g() -> Self {
        EthernetMac {
            line: SizeDependentLatency::from_line_rate_gbps(SimDuration::from_nanos(50), 100.0),
            stats: MacStats::default(),
        }
    }

    /// A MAC operating at an arbitrary line rate (Gb/s).
    #[must_use]
    pub fn with_line_rate(gbps: f64) -> Self {
        EthernetMac {
            line: SizeDependentLatency::from_line_rate_gbps(SimDuration::from_nanos(50), gbps),
            stats: MacStats::default(),
        }
    }

    /// Computes the frame check sequence over a frame (CRC-32/ISO-HDLC).
    #[must_use]
    pub fn frame_check_sequence(frame: &[u8]) -> u32 {
        let mut crc: u32 = 0xffff_ffff;
        for &byte in frame {
            crc ^= u32::from(byte);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xedb8_8320 & mask);
            }
        }
        !crc
    }

    /// Accounts for the transmission of a frame of `bytes` bytes and returns
    /// the serialisation delay.
    pub fn transmit(&mut self, bytes: usize) -> SimDuration {
        self.stats.tx_frames += 1;
        self.stats.tx_bytes += bytes as u64;
        self.line.cost(bytes)
    }

    /// Accounts for the reception of a frame, checking its FCS. Returns
    /// `Some(delay)` when the frame is accepted and `None` if it is dropped
    /// because the FCS does not match.
    pub fn receive(&mut self, frame: &[u8], fcs: u32) -> Option<SimDuration> {
        if Self::frame_check_sequence(frame) != fcs {
            self.stats.fcs_errors += 1;
            return None;
        }
        self.stats.rx_frames += 1;
        self.stats.rx_bytes += frame.len() as u64;
        Some(self.line.cost(frame.len()))
    }

    /// Current MAC statistics.
    #[must_use]
    pub fn stats(&self) -> MacStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // CRC-32/ISO-HDLC of "123456789" is 0xCBF43926.
        assert_eq!(EthernetMac::frame_check_sequence(b"123456789"), 0xcbf4_3926);
    }

    #[test]
    fn transmit_serialisation_scales_with_size() {
        let mut mac = EthernetMac::new_100g();
        let small = mac.transmit(128);
        let large = mac.transmit(32 * 1024);
        assert!(large > small);
        assert_eq!(mac.stats().tx_frames, 2);
        assert_eq!(mac.stats().tx_bytes, 128 + 32 * 1024);
    }

    #[test]
    fn receive_checks_fcs() {
        let mut mac = EthernetMac::new_100g();
        let frame = b"attested message frame";
        let fcs = EthernetMac::frame_check_sequence(frame);
        assert!(mac.receive(frame, fcs).is_some());
        assert!(mac.receive(frame, fcs ^ 1).is_none());
        assert_eq!(mac.stats().rx_frames, 1);
        assert_eq!(mac.stats().fcs_errors, 1);
    }

    #[test]
    fn slower_line_rate_costs_more() {
        let mut fast = EthernetMac::new_100g();
        let mut slow = EthernetMac::with_line_rate(10.0);
        assert!(slow.transmit(4096) > fast.transmit(4096));
    }
}
