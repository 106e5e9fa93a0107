//! The reliable-connection transport of the RoCE kernel.
//!
//! Implements go-back-N style reliable, in-order delivery: every data packet
//! carries a packet sequence number (PSN); the receiver only delivers the
//! exact next expected PSN and acknowledges cumulatively; the sender buffers
//! unacknowledged packets and retransmits them when the retransmission timer
//! expires. Together with the attestation kernel's counters this provides the
//! FIFO, no-loss channel the paper's transformation relies on (§6.2, §8.5).

use super::packet::{PacketHeader, RdmaOpcode, RocePacket};
use super::qp::{CompletionEntry, QueuePair};
use crate::error::DeviceError;
use crate::types::{DeviceConfig, Ipv4Addr, MacAddr, QueuePairId};
use std::collections::HashMap;
use tnic_sim::time::{SimDuration, SimInstant};

/// Default retransmission timeout.
pub const DEFAULT_RETRANSMIT_TIMEOUT: SimDuration = SimDuration::from_micros(100);

/// The per-device reliable transport state machine.
#[derive(Debug, Clone)]
pub struct ReliableTransport {
    config: DeviceConfig,
    queue_pairs: HashMap<QueuePairId, QueuePair>,
    retransmit_timeout: SimDuration,
}

impl ReliableTransport {
    /// Creates a transport bound to the device configuration.
    #[must_use]
    pub fn new(config: DeviceConfig) -> Self {
        ReliableTransport {
            config,
            queue_pairs: HashMap::new(),
            retransmit_timeout: DEFAULT_RETRANSMIT_TIMEOUT,
        }
    }

    /// Creates a queue pair connected to a remote endpoint.
    pub fn create_queue_pair(
        &mut self,
        id: QueuePairId,
        remote_ip: Ipv4Addr,
        remote_qp: QueuePairId,
    ) {
        self.queue_pairs
            .insert(id, QueuePair::new(id, remote_ip, remote_qp));
    }

    /// Returns a reference to a queue pair, if it exists.
    #[must_use]
    pub fn queue_pair(&self, id: QueuePairId) -> Option<&QueuePair> {
        self.queue_pairs.get(&id)
    }

    fn qp_mut(&mut self, id: QueuePairId) -> Result<&mut QueuePair, DeviceError> {
        self.queue_pairs
            .get_mut(&id)
            .ok_or(DeviceError::UnknownQueuePair(id))
    }

    /// Builds, buffers and returns a data packet carrying `payload` on queue
    /// pair `qp`, arming the retransmission timer.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownQueuePair`] for an unknown queue pair.
    pub fn send(
        &mut self,
        qp_id: QueuePairId,
        opcode: RdmaOpcode,
        payload: Vec<u8>,
        dst_mac: MacAddr,
        now: SimInstant,
    ) -> Result<RocePacket, DeviceError> {
        let src_mac = self.config.mac_addr;
        let src_ip = self.config.ip_addr;
        let udp_port = self.config.udp_port;
        let timeout = self.retransmit_timeout;
        let qp = self.qp_mut(qp_id)?;
        let psn = qp.next_psn;
        qp.next_psn = qp.next_psn.wrapping_add(1);
        let msn = qp.next_msn;
        qp.next_msn = qp.next_msn.wrapping_add(1);
        let packet = RocePacket {
            header: PacketHeader {
                src_mac,
                dst_mac,
                src_ip,
                dst_ip: qp.remote_ip,
                udp_port,
                opcode,
                qp: qp.remote_qp,
                psn,
                msn,
                ack_psn: 0,
            },
            payload,
        };
        qp.unacked.insert(psn, packet.clone());
        if qp.retransmit_deadline.is_none() {
            qp.retransmit_deadline = Some(now + timeout);
        }
        Ok(packet)
    }

    /// Processes a received packet addressed to local queue pair `local_qp`.
    ///
    /// Returns `(delivered_payload, response_packet)`:
    /// * for in-order data packets the payload is delivered and a cumulative
    ///   ACK is produced;
    /// * for duplicate (already seen) data packets nothing is delivered but an
    ///   ACK is regenerated so the sender stops retransmitting;
    /// * for out-of-order (future) packets nothing is delivered and a NAK
    ///   carrying the last in-order PSN is produced;
    /// * for ACK/NAK packets the retransmission buffer is updated.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownQueuePair`] for an unknown queue pair.
    pub fn on_receive(
        &mut self,
        local_qp: QueuePairId,
        packet: &RocePacket,
        now: SimInstant,
    ) -> Result<(Option<Vec<u8>>, Option<RocePacket>), DeviceError> {
        let src_mac = self.config.mac_addr;
        let src_ip = self.config.ip_addr;
        let udp_port = self.config.udp_port;
        let qp = self.qp_mut(local_qp)?;
        match packet.header.opcode {
            RdmaOpcode::Ack => {
                qp.acknowledge_up_to(packet.header.ack_psn);
                qp.completions.push(CompletionEntry {
                    qp: local_qp,
                    msn: packet.header.msn,
                    at: now,
                });
                Ok((None, None))
            }
            RdmaOpcode::Nak => {
                // Go-back-N: the receiver is missing packets starting at
                // `ack_psn`; expire the timer so everything unacknowledged is
                // retransmitted promptly.
                if !qp.unacked.is_empty() {
                    qp.retransmit_deadline = Some(now);
                }
                Ok((None, None))
            }
            _ => {
                let psn = packet.header.psn;
                let make_response = |opcode: RdmaOpcode, ack_psn: u32, msn: u32| RocePacket {
                    header: PacketHeader {
                        src_mac,
                        dst_mac: packet.header.src_mac,
                        src_ip,
                        dst_ip: packet.header.src_ip,
                        udp_port,
                        opcode,
                        qp: packet.header.qp,
                        psn: 0,
                        msn,
                        ack_psn,
                    },
                    payload: Vec::new(),
                };
                if psn == qp.expected_psn {
                    qp.expected_psn = qp.expected_psn.wrapping_add(1);
                    let ack = make_response(RdmaOpcode::Ack, psn, packet.header.msn);
                    Ok((Some(packet.payload.clone()), Some(ack)))
                } else if psn < qp.expected_psn {
                    // Duplicate: re-acknowledge but do not deliver twice.
                    let ack =
                        make_response(RdmaOpcode::Ack, qp.expected_psn - 1, packet.header.msn);
                    Ok((None, Some(ack)))
                } else {
                    // Gap: negative-acknowledge, reporting the first missing PSN.
                    let nak = make_response(RdmaOpcode::Nak, qp.expected_psn, packet.header.msn);
                    Ok((None, Some(nak)))
                }
            }
        }
    }

    /// Returns the packets whose retransmission timer has expired at `now`,
    /// re-arming the timer.
    pub fn poll_retransmissions(&mut self, now: SimInstant) -> Vec<RocePacket> {
        let timeout = self.retransmit_timeout;
        let mut out = Vec::new();
        for qp in self.queue_pairs.values_mut() {
            if let Some(deadline) = qp.retransmit_deadline {
                if deadline <= now && !qp.unacked.is_empty() {
                    out.extend(qp.unacked.values().cloned());
                    qp.retransmissions += qp.unacked.len() as u64;
                    qp.retransmit_deadline = Some(now + timeout);
                }
            }
        }
        out
    }

    /// Drains completion entries across all queue pairs (what `poll()`
    /// ultimately reads).
    pub fn take_completions(&mut self) -> Vec<CompletionEntry> {
        let mut out = Vec::new();
        for qp in self.queue_pairs.values_mut() {
            out.extend(qp.take_completions());
        }
        out.sort_by_key(|c| c.at);
        out
    }

    /// Total number of retransmitted packets across all queue pairs.
    #[must_use]
    pub fn total_retransmissions(&self) -> u64 {
        self.queue_pairs.values().map(|qp| qp.retransmissions).sum()
    }

    /// The device configuration this transport uses.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::DeviceId;

    fn pair() -> (ReliableTransport, ReliableTransport) {
        let a_cfg = DeviceConfig::for_device(DeviceId(1));
        let b_cfg = DeviceConfig::for_device(DeviceId(2));
        let mut a = ReliableTransport::new(a_cfg);
        let mut b = ReliableTransport::new(b_cfg);
        a.create_queue_pair(QueuePairId(1), b_cfg.ip_addr, QueuePairId(2));
        b.create_queue_pair(QueuePairId(2), a_cfg.ip_addr, QueuePairId(1));
        (a, b)
    }

    fn now(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn in_order_delivery_with_acks() {
        let (mut a, mut b) = pair();
        let dst = MacAddr::from_device(DeviceId(2));
        let p0 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m0".to_vec(),
                dst,
                now(0),
            )
            .unwrap();
        let p1 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m1".to_vec(),
                dst,
                now(1),
            )
            .unwrap();
        let (d0, ack0) = b.on_receive(QueuePairId(2), &p0, now(2)).unwrap();
        assert_eq!(d0.unwrap(), b"m0");
        let (d1, _ack1) = b.on_receive(QueuePairId(2), &p1, now(3)).unwrap();
        assert_eq!(d1.unwrap(), b"m1");
        // Deliver first ack to a: one packet acked.
        a.on_receive(QueuePairId(1), &ack0.unwrap(), now(4))
            .unwrap();
        assert_eq!(a.queue_pair(QueuePairId(1)).unwrap().in_flight(), 1);
    }

    #[test]
    fn out_of_order_packet_is_not_delivered() {
        let (mut a, mut b) = pair();
        let dst = MacAddr::from_device(DeviceId(2));
        let _p0 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m0".to_vec(),
                dst,
                now(0),
            )
            .unwrap();
        let p1 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m1".to_vec(),
                dst,
                now(1),
            )
            .unwrap();
        let (delivered, response) = b.on_receive(QueuePairId(2), &p1, now(2)).unwrap();
        assert!(delivered.is_none());
        assert_eq!(response.unwrap().header.opcode, RdmaOpcode::Nak);
    }

    #[test]
    fn duplicate_packet_reacked_but_not_redelivered() {
        let (mut a, mut b) = pair();
        let dst = MacAddr::from_device(DeviceId(2));
        let p0 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m0".to_vec(),
                dst,
                now(0),
            )
            .unwrap();
        let (d, _) = b.on_receive(QueuePairId(2), &p0, now(1)).unwrap();
        assert!(d.is_some());
        let (d2, ack) = b.on_receive(QueuePairId(2), &p0, now(2)).unwrap();
        assert!(d2.is_none());
        assert_eq!(ack.unwrap().header.opcode, RdmaOpcode::Ack);
    }

    #[test]
    fn lost_packet_recovered_by_retransmission() {
        let (mut a, mut b) = pair();
        let dst = MacAddr::from_device(DeviceId(2));
        let p0 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m0".to_vec(),
                dst,
                now(0),
            )
            .unwrap();
        // p0 is "lost": never delivered to b. Timer expires, retransmit.
        assert!(
            a.poll_retransmissions(now(50)).is_empty(),
            "timer not yet expired"
        );
        let retx = a.poll_retransmissions(now(150));
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0], p0);
        let (d, ack) = b.on_receive(QueuePairId(2), &retx[0], now(151)).unwrap();
        assert_eq!(d.unwrap(), b"m0");
        a.on_receive(QueuePairId(1), &ack.unwrap(), now(152))
            .unwrap();
        assert_eq!(a.queue_pair(QueuePairId(1)).unwrap().in_flight(), 0);
        assert_eq!(a.total_retransmissions(), 1);
    }

    #[test]
    fn nak_triggers_fast_retransmission() {
        let (mut a, mut b) = pair();
        let dst = MacAddr::from_device(DeviceId(2));
        let p0 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m0".to_vec(),
                dst,
                now(0),
            )
            .unwrap();
        let p1 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m1".to_vec(),
                dst,
                now(0),
            )
            .unwrap();
        // p0 lost; p1 arrives and generates a NAK.
        let (_, nak) = b.on_receive(QueuePairId(2), &p1, now(1)).unwrap();
        a.on_receive(QueuePairId(1), &nak.unwrap(), now(2)).unwrap();
        // NAK sets the deadline to "now", so retransmission happens immediately.
        let retx = a.poll_retransmissions(now(2));
        assert_eq!(retx.len(), 2);
        let (d0, _) = b.on_receive(QueuePairId(2), &p0, now(3)).unwrap();
        assert_eq!(d0.unwrap(), b"m0");
        let (d1, _) = b.on_receive(QueuePairId(2), &p1, now(4)).unwrap();
        assert_eq!(d1.unwrap(), b"m1");
    }

    #[test]
    fn completions_signalled_on_ack() {
        let (mut a, mut b) = pair();
        let dst = MacAddr::from_device(DeviceId(2));
        let p0 = a
            .send(
                QueuePairId(1),
                RdmaOpcode::Write,
                b"m0".to_vec(),
                dst,
                now(0),
            )
            .unwrap();
        let (_, ack) = b.on_receive(QueuePairId(2), &p0, now(1)).unwrap();
        a.on_receive(QueuePairId(1), &ack.unwrap(), now(2)).unwrap();
        let completions = a.take_completions();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].qp, QueuePairId(1));
    }

    #[test]
    fn unknown_queue_pair_errors() {
        let (mut a, _) = pair();
        let err = a
            .send(
                QueuePairId(99),
                RdmaOpcode::Write,
                vec![],
                MacAddr::BROADCAST,
                now(0),
            )
            .unwrap_err();
        assert!(matches!(
            err,
            DeviceError::UnknownQueuePair(QueuePairId(99))
        ));
    }
}
