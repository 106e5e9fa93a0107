//! The assembled TNIC device: attestation kernel + RoCE kernel + DMA + MAC +
//! ARP + controller (paper Figure 2).

use crate::arp::ArpServer;
use crate::attestation::{
    AttestationKernel, AttestationTiming, AttestedMessage, AttestedView, WIRE_OVERHEAD,
};
use crate::controller::{ControllerBinary, DeviceController, HardwareKey};
use crate::dma::{DmaEngine, DmaMode};
use crate::error::DeviceError;
use crate::mac::EthernetMac;
use crate::roce::packet::{RdmaOpcode, RocePacket};
use crate::roce::qp::CompletionEntry;
use crate::roce::transport::ReliableTransport;
use crate::types::{DeviceConfig, DeviceId, Ipv4Addr, MacAddr, QueuePairId, SessionId};
use tnic_crypto::ed25519::VerifyingKey;
use tnic_sim::time::{SimDuration, SimInstant};

/// Outcome of pushing a received packet through the device's reception path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReceiveOutcome {
    /// The verified attested message delivered to the host, if the packet was
    /// the next in-order data packet and its attestation verified.
    pub delivered: Option<AttestedMessage>,
    /// A response packet (ACK/NAK) to hand back to the fabric, if any.
    pub response: Option<RocePacket>,
    /// Time spent on the device data path for this packet.
    pub elapsed: SimDuration,
}

/// A full TNIC device instance.
#[derive(Debug, Clone)]
pub struct TnicDevice {
    config: DeviceConfig,
    attestation: AttestationKernel,
    transport: ReliableTransport,
    arp: ArpServer,
    mac: EthernetMac,
    dma: DmaEngine,
    controller: DeviceController,
}

impl TnicDevice {
    /// Creates a device with paper-calibrated timing and a booted controller.
    #[must_use]
    pub fn new(
        config: DeviceConfig,
        hw_key: HardwareKey,
        ip_vendor_public: VerifyingKey,
        controller_key_seed: [u8; 32],
    ) -> Self {
        let controller = DeviceController::boot(
            config.device_id,
            hw_key,
            ControllerBinary::reference("1.0"),
            ip_vendor_public,
            controller_key_seed,
        );
        TnicDevice {
            config,
            attestation: AttestationKernel::new(
                config.device_id,
                AttestationTiming::paper_calibrated(),
            ),
            transport: ReliableTransport::new(config),
            arp: ArpServer::new(),
            mac: EthernetMac::new_100g(),
            dma: DmaEngine::paper_calibrated(DmaMode::Asynchronous),
            controller,
        }
    }

    /// A convenience constructor for tests and examples: derives the hardware
    /// key and controller seed from the device id.
    #[must_use]
    pub fn for_tests(device_id: DeviceId, ip_vendor_public: VerifyingKey) -> Self {
        let mut hw = [0u8; 32];
        hw[..4].copy_from_slice(&device_id.0.to_le_bytes());
        let mut seed = [0xA5u8; 32];
        seed[..4].copy_from_slice(&device_id.0.to_le_bytes());
        TnicDevice::new(
            DeviceConfig::for_device(device_id),
            HardwareKey(hw),
            ip_vendor_public,
            seed,
        )
    }

    /// The static device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.config
    }

    /// The device identifier.
    #[must_use]
    pub fn id(&self) -> DeviceId {
        self.config.device_id
    }

    /// Mutable access to the device controller (used by the remote-attestation
    /// protocol).
    pub fn controller_mut(&mut self) -> &mut DeviceController {
        &mut self.controller
    }

    /// Shared access to the device controller.
    #[must_use]
    pub fn controller(&self) -> &DeviceController {
        &self.controller
    }

    /// Switches the DMA transfer mode (synchronous for the stand-alone §8.1
    /// evaluation, asynchronous on the kernel-bypass data path).
    pub fn set_dma_mode(&mut self, mode: DmaMode) {
        self.dma.set_mode(mode);
    }

    /// Installs a session key in the attestation kernel.
    pub fn provision_session(&mut self, session: SessionId, key: [u8; 32]) {
        self.attestation.install_session_key(session, key);
    }

    /// Returns `true` if a key is installed for `session`.
    #[must_use]
    pub fn has_session(&self, session: SessionId) -> bool {
        self.attestation.has_session(session)
    }

    /// Adds an ARP mapping for a peer device.
    pub fn add_peer(&mut self, ip: Ipv4Addr, mac: MacAddr) {
        self.arp.insert(ip, mac);
    }

    /// Creates a queue pair towards a remote endpoint.
    pub fn create_queue_pair(
        &mut self,
        local: QueuePairId,
        remote_ip: Ipv4Addr,
        remote_qp: QueuePairId,
    ) {
        self.transport
            .create_queue_pair(local, remote_ip, remote_qp);
    }

    /// `local_send()`: fetches the payload over DMA, attests it and returns
    /// the attested message without transmitting it (paper §6.1; also the
    /// §8.1 stand-alone `Attest()` evaluation path).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed.
    pub fn local_send(
        &mut self,
        session: SessionId,
        payload: &[u8],
    ) -> Result<(AttestedMessage, SimDuration), DeviceError> {
        let dma_in = self.dma.host_to_device(payload.len());
        let (message, hmac_cost) = self.attestation.attest(session, payload)?;
        let dma_out = self.dma.device_to_host(message.wire_len());
        Ok((message, dma_in + hmac_cost + dma_out))
    }

    /// `local_verify()`: verifies the cryptographic binding of an attested
    /// message without enforcing receive-counter order (paper §6.1).
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAttestation`] or [`DeviceError::UnknownSession`].
    pub fn local_verify(&mut self, message: &AttestedMessage) -> Result<SimDuration, DeviceError> {
        let dma_in = self.dma.host_to_device(message.wire_len());
        let cost = self.attestation.verify_binding(message)?;
        Ok(dma_in + cost)
    }

    /// The transmission data path (paper Figure 2, blue axes): DMA the payload
    /// from host memory, attest it, wrap it in a RoCE packet and serialise it
    /// through the 100G MAC. Returns the packet to inject into the fabric and
    /// the on-device latency.
    ///
    /// # Errors
    ///
    /// Propagates attestation, queue-pair and ARP errors.
    pub fn send_attested(
        &mut self,
        qp: QueuePairId,
        session: SessionId,
        payload: &[u8],
        now: SimInstant,
    ) -> Result<(RocePacket, SimDuration), DeviceError> {
        let dma = self.dma.host_to_device(payload.len());
        // Attest straight into the buffer that becomes the packet payload:
        // no intermediate `AttestedMessage` and no second serialisation pass.
        let mut wire = Vec::with_capacity(WIRE_OVERHEAD + payload.len());
        let hmac_cost = self.attestation.attest_into(session, payload, &mut wire)?;
        let remote_ip = self
            .transport
            .queue_pair(qp)
            .ok_or(DeviceError::UnknownQueuePair(qp))?
            .remote_ip;
        let dst_mac = self.arp.lookup(remote_ip)?;
        let packet = self
            .transport
            .send(qp, RdmaOpcode::Write, wire, dst_mac, now)?;
        let wire = self.mac.transmit(packet.wire_len());
        Ok((packet, dma + hmac_cost + wire))
    }

    /// The reception data path (paper Figure 2, red axes): parse the packet in
    /// the RoCE kernel, verify the attestation (MAC + counter) and DMA the
    /// verified message to host memory. Non-data packets (ACK/NAK) update the
    /// transport state instead.
    ///
    /// # Errors
    ///
    /// Returns an error if the attestation or counter check fails; transport
    /// errors propagate as well. A failed verification does **not** advance
    /// protocol state, so the poll() path never observes the message.
    pub fn receive_packet(
        &mut self,
        local_qp: QueuePairId,
        packet: &RocePacket,
        now: SimInstant,
    ) -> Result<ReceiveOutcome, DeviceError> {
        let mut elapsed = self.mac.transmit(0); // minimal RX MAC latency (fixed part)
        let (delivered_bytes, response) = self.transport.on_receive(local_qp, packet, now)?;
        let delivered = match delivered_bytes {
            None => None,
            Some(bytes) => {
                // Parse a borrowed view and verify before any payload copy:
                // rejected messages never allocate.
                let view = AttestedView::parse(&bytes)?;
                let verify_cost = self.attestation.verify_view(&view)?;
                let dma = self.dma.device_to_host(view.payload.len());
                elapsed += verify_cost + dma;
                Some(view.to_owned())
            }
        };
        Ok(ReceiveOutcome {
            delivered,
            response,
            elapsed,
        })
    }

    /// Completion entries available to the host `poll()` call.
    pub fn poll_completions(&mut self) -> Vec<CompletionEntry> {
        self.transport.take_completions()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_crypto::ed25519::Keypair;

    fn device_pair() -> (TnicDevice, TnicDevice) {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        let mut a = TnicDevice::for_tests(DeviceId(1), vendor.verifying);
        let mut b = TnicDevice::for_tests(DeviceId(2), vendor.verifying);
        let key = [7u8; 32];
        a.provision_session(SessionId(1), key);
        b.provision_session(SessionId(1), key);
        a.add_peer(b.config().ip_addr, b.config().mac_addr);
        b.add_peer(a.config().ip_addr, a.config().mac_addr);
        a.create_queue_pair(QueuePairId(1), b.config().ip_addr, QueuePairId(2));
        b.create_queue_pair(QueuePairId(2), a.config().ip_addr, QueuePairId(1));
        (a, b)
    }

    fn t(us: u64) -> SimInstant {
        SimInstant::EPOCH + SimDuration::from_micros(us)
    }

    #[test]
    fn end_to_end_attested_send_receive() {
        let (mut a, mut b) = device_pair();
        let (packet, tx_cost) = a
            .send_attested(QueuePairId(1), SessionId(1), b"client request", t(0))
            .unwrap();
        assert!(tx_cost > SimDuration::ZERO);
        let outcome = b.receive_packet(QueuePairId(2), &packet, t(10)).unwrap();
        let delivered = outcome.delivered.expect("message delivered");
        assert_eq!(delivered.payload, b"client request");
        assert_eq!(delivered.device, DeviceId(1));
        assert_eq!(delivered.counter, 0);
        assert!(outcome.response.unwrap().is_ack());
    }

    #[test]
    fn tampered_packet_rejected_on_reception() {
        let (mut a, mut b) = device_pair();
        let (mut packet, _) = a
            .send_attested(QueuePairId(1), SessionId(1), b"payload", t(0))
            .unwrap();
        // Flip one byte of the attested payload inside the RoCE packet.
        let last = packet.payload.len() - 1;
        packet.payload[last] ^= 0xff;
        let err = b.receive_packet(QueuePairId(2), &packet, t(5)).unwrap_err();
        assert_eq!(err, DeviceError::BadAttestation);
    }

    #[test]
    fn replayed_packet_not_delivered_twice() {
        let (mut a, mut b) = device_pair();
        let (packet, _) = a
            .send_attested(QueuePairId(1), SessionId(1), b"once", t(0))
            .unwrap();
        let first = b.receive_packet(QueuePairId(2), &packet, t(1)).unwrap();
        assert!(first.delivered.is_some());
        // The RoCE layer treats it as a duplicate: re-ACK, no delivery, and
        // the attestation kernel is never consulted again.
        let second = b.receive_packet(QueuePairId(2), &packet, t(2)).unwrap();
        assert!(second.delivered.is_none());
        assert!(second.response.unwrap().is_ack());
    }

    #[test]
    fn local_send_verify_round_trip() {
        let (mut a, mut b) = device_pair();
        let (msg, cost) = a.local_send(SessionId(1), b"log entry").unwrap();
        assert!(cost > SimDuration::ZERO);
        b.local_verify(&msg).unwrap();
        // Binding verification can be repeated (log audits).
        b.local_verify(&msg).unwrap();
    }

    #[test]
    fn completions_after_ack_round_trip() {
        let (mut a, mut b) = device_pair();
        let (packet, _) = a
            .send_attested(QueuePairId(1), SessionId(1), b"m", t(0))
            .unwrap();
        let outcome = b.receive_packet(QueuePairId(2), &packet, t(1)).unwrap();
        let ack = outcome.response.unwrap();
        let ack_outcome = a.receive_packet(QueuePairId(1), &ack, t(2)).unwrap();
        assert!(ack_outcome.delivered.is_none());
        let completions = a.poll_completions();
        assert_eq!(completions.len(), 1);
    }

    #[test]
    fn unknown_session_and_qp_errors() {
        let (mut a, _) = device_pair();
        assert!(matches!(
            a.send_attested(QueuePairId(1), SessionId(99), b"x", t(0)),
            Err(DeviceError::UnknownSession(_))
        ));
        assert!(matches!(
            a.send_attested(QueuePairId(99), SessionId(1), b"x", t(0)),
            Err(DeviceError::UnknownQueuePair(_))
        ));
    }

    #[test]
    fn arp_miss_blocks_transmission() {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        let mut a = TnicDevice::for_tests(DeviceId(1), vendor.verifying);
        a.provision_session(SessionId(1), [0u8; 32]);
        a.create_queue_pair(QueuePairId(1), Ipv4Addr::new(10, 0, 9, 9), QueuePairId(2));
        assert_eq!(
            a.send_attested(QueuePairId(1), SessionId(1), b"x", t(0))
                .unwrap_err(),
            DeviceError::ArpMiss
        );
    }

    #[test]
    fn sync_dma_mode_costs_more() {
        let (mut a, _) = device_pair();
        let (_, async_cost) = a.local_send(SessionId(1), &[0u8; 64]).unwrap();
        a.set_dma_mode(DmaMode::Synchronous);
        let (_, sync_cost) = a.local_send(SessionId(1), &[0u8; 64]).unwrap();
        assert!(sync_cost > async_cost);
    }
}
