//! Queue pair state, part of the RoCE kernel's state tables (paper §4.2).

use super::packet::RocePacket;
use crate::types::{Ipv4Addr, QueuePairId};
use std::collections::BTreeMap;
use tnic_sim::time::SimInstant;

/// An entry in the completion queue, signalled to the host when a message has
/// been transmitted and acknowledged, or received and verified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletionEntry {
    /// The queue pair the completion belongs to.
    pub qp: QueuePairId,
    /// The message sequence number that completed.
    pub msn: u32,
    /// Virtual time of completion.
    pub at: SimInstant,
}

/// Per-connection protocol state: sequence numbers, retransmission buffer and
/// completion queue (the paper's "State tables").
#[derive(Debug, Clone)]
pub struct QueuePair {
    /// This queue pair's identifier.
    pub id: QueuePairId,
    /// The remote endpoint's IP address.
    pub remote_ip: Ipv4Addr,
    /// The remote queue pair number.
    pub remote_qp: QueuePairId,
    /// Next packet sequence number to assign on transmission.
    pub next_psn: u32,
    /// Next packet sequence number expected on reception.
    pub expected_psn: u32,
    /// Next message sequence number to assign on transmission.
    pub next_msn: u32,
    /// Packets sent but not yet acknowledged, keyed by PSN.
    pub unacked: BTreeMap<u32, RocePacket>,
    /// Deadline of the retransmission timer, if armed.
    pub retransmit_deadline: Option<SimInstant>,
    /// Completions not yet polled by the host.
    pub completions: Vec<CompletionEntry>,
    /// Count of retransmitted packets (statistics).
    pub retransmissions: u64,
}

impl QueuePair {
    /// Creates a fresh queue pair connected to `remote_ip`/`remote_qp`.
    #[must_use]
    pub fn new(id: QueuePairId, remote_ip: Ipv4Addr, remote_qp: QueuePairId) -> Self {
        QueuePair {
            id,
            remote_ip,
            remote_qp,
            next_psn: 0,
            expected_psn: 0,
            next_msn: 0,
            unacked: BTreeMap::new(),
            retransmit_deadline: None,
            completions: Vec::new(),
            retransmissions: 0,
        }
    }

    /// Number of packets awaiting acknowledgement.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.unacked.len()
    }

    /// Removes all packets with PSN `<= ack_psn` from the retransmission
    /// buffer (cumulative acknowledgement) and returns how many were removed.
    pub fn acknowledge_up_to(&mut self, ack_psn: u32) -> usize {
        let before = self.unacked.len();
        self.unacked.retain(|&psn, _| psn > ack_psn);
        let acked = before - self.unacked.len();
        if self.unacked.is_empty() {
            self.retransmit_deadline = None;
        }
        acked
    }

    /// Drains the pending completion entries.
    pub fn take_completions(&mut self) -> Vec<CompletionEntry> {
        std::mem::take(&mut self.completions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::roce::packet::{PacketHeader, RdmaOpcode};
    use crate::types::{DeviceId, MacAddr};

    fn dummy_packet(psn: u32) -> RocePacket {
        RocePacket {
            header: PacketHeader {
                src_mac: MacAddr::from_device(DeviceId(1)),
                dst_mac: MacAddr::from_device(DeviceId(2)),
                src_ip: Ipv4Addr::from_device(DeviceId(1)),
                dst_ip: Ipv4Addr::from_device(DeviceId(2)),
                udp_port: 4791,
                opcode: RdmaOpcode::Write,
                qp: QueuePairId(5),
                psn,
                msn: psn,
                ack_psn: 0,
            },
            payload: vec![psn as u8],
        }
    }

    #[test]
    fn cumulative_ack_clears_buffer() {
        let mut qp = QueuePair::new(QueuePairId(5), Ipv4Addr::new(10, 0, 0, 2), QueuePairId(9));
        for psn in 0..4 {
            qp.unacked.insert(psn, dummy_packet(psn));
        }
        qp.retransmit_deadline = Some(SimInstant::from_nanos(100));
        assert_eq!(qp.in_flight(), 4);
        assert_eq!(qp.acknowledge_up_to(1), 2);
        assert_eq!(qp.in_flight(), 2);
        assert!(qp.retransmit_deadline.is_some());
        assert_eq!(qp.acknowledge_up_to(10), 2);
        assert_eq!(qp.in_flight(), 0);
        assert!(qp.retransmit_deadline.is_none());
    }

    #[test]
    fn completions_drain() {
        let mut qp = QueuePair::new(QueuePairId(1), Ipv4Addr::new(10, 0, 0, 2), QueuePairId(2));
        qp.completions.push(CompletionEntry {
            qp: QueuePairId(1),
            msn: 0,
            at: SimInstant::EPOCH,
        });
        assert_eq!(qp.take_completions().len(), 1);
        assert!(qp.take_completions().is_empty());
    }
}
