//! RoCE v2 packet formats: Ethernet + UDP/IPv4 + IB base transport header.

use crate::types::{Ipv4Addr, MacAddr, QueuePairId};

/// RDMA operation codes supported by the TNIC RoCE kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RdmaOpcode {
    /// One-sided RDMA write (used by `auth_send`/`rem_write`).
    Write,
    /// One-sided RDMA read request (used by `rem_read`).
    Read,
    /// Response carrying data for a previous read request.
    ReadResponse,
    /// Two-sided send.
    Send,
    /// Cumulative acknowledgement.
    Ack,
    /// Negative acknowledgement (out-of-sequence PSN).
    Nak,
}

impl RdmaOpcode {
    /// Returns `true` for opcodes that carry application payload.
    #[must_use]
    pub fn carries_payload(self) -> bool {
        matches!(
            self,
            RdmaOpcode::Write | RdmaOpcode::Send | RdmaOpcode::ReadResponse
        )
    }
}

/// The combined header the RoCE kernel prepends to each packet: link-layer
/// addresses, UDP/IPv4 addressing and the IB base transport header fields
/// (opcode, destination queue pair, packet and message sequence numbers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketHeader {
    /// Source MAC address (filled from the ARP/device configuration).
    pub src_mac: MacAddr,
    /// Destination MAC address (resolved through the ARP server).
    pub dst_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Destination UDP port (4791 for RoCE v2).
    pub udp_port: u16,
    /// Operation code.
    pub opcode: RdmaOpcode,
    /// Destination queue pair.
    pub qp: QueuePairId,
    /// Packet sequence number.
    pub psn: u32,
    /// Message sequence number.
    pub msn: u32,
    /// For ACK/NAK packets: the cumulative PSN being acknowledged.
    pub ack_psn: u32,
}

/// Size in bytes of the protocol headers modelled on the wire
/// (14 B Ethernet + 20 B IPv4 + 8 B UDP + 12 B BTH + 4 B iCRC).
pub const HEADER_WIRE_LEN: usize = 58;

/// A RoCE packet: headers plus (possibly attested) payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RocePacket {
    /// The packet headers.
    pub header: PacketHeader,
    /// The payload carried by the packet (already extended by the attestation
    /// kernel on the transmission path).
    pub payload: Vec<u8>,
}

impl RocePacket {
    /// Total bytes this packet occupies on the wire.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        HEADER_WIRE_LEN + self.payload.len()
    }

    /// Returns `true` if this is an acknowledgement (positive or negative).
    #[must_use]
    pub fn is_ack(&self) -> bool {
        matches!(self.header.opcode, RdmaOpcode::Ack | RdmaOpcode::Nak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DeviceId;

    fn header(opcode: RdmaOpcode, psn: u32) -> PacketHeader {
        PacketHeader {
            src_mac: MacAddr::from_device(DeviceId(1)),
            dst_mac: MacAddr::from_device(DeviceId(2)),
            src_ip: Ipv4Addr::from_device(DeviceId(1)),
            dst_ip: Ipv4Addr::from_device(DeviceId(2)),
            udp_port: 4791,
            opcode,
            qp: QueuePairId(1),
            psn,
            msn: 0,
            ack_psn: 0,
        }
    }

    #[test]
    fn wire_len_includes_headers() {
        let p = RocePacket {
            header: header(RdmaOpcode::Write, 0),
            payload: vec![0u8; 100],
        };
        assert_eq!(p.wire_len(), 158);
    }

    #[test]
    fn opcode_classification() {
        assert!(RdmaOpcode::Write.carries_payload());
        assert!(RdmaOpcode::Send.carries_payload());
        assert!(!RdmaOpcode::Ack.carries_payload());
        let ack = RocePacket {
            header: header(RdmaOpcode::Ack, 3),
            payload: vec![],
        };
        assert!(ack.is_ack());
        let data = RocePacket {
            header: header(RdmaOpcode::Write, 3),
            payload: vec![1],
        };
        assert!(!data.is_ack());
    }
}
