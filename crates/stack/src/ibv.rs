//! The user-space RDMA ("ibv") library (paper §5.2).
//!
//! Holds the software half of the RDMA protocol: queue-pair bookkeeping,
//! allocation of the DMA-eligible ibv memory in the huge-page area,
//! registration of that memory with the device, out-of-band synchronisation of
//! connection metadata with the peer, and the post/poll data path that drives
//! the device through the mapped register page.

use crate::driver::{lock_device, SharedDevice};
use crate::regs::MappedRegsPage;
use std::collections::HashMap;
use tnic_device::attestation::AttestedMessage;
use tnic_device::device::ReceiveOutcome;
use tnic_device::dma::DmaRegion;
use tnic_device::error::DeviceError;
use tnic_device::regs::Register;
use tnic_device::roce::packet::RocePacket;
use tnic_device::roce::qp::CompletionEntry;
use tnic_device::types::{Ipv4Addr, MacAddr, QueuePairId, SessionId};
use tnic_sim::time::{SimDuration, SimInstant};

/// A registered, DMA-eligible memory region (the "ibv memory"), allocated in
/// the huge-page area and mapped into the application's address space.
#[derive(Debug)]
pub struct IbvMemory {
    region: DmaRegion,
    lkey: u32,
    rkey: u32,
    registered: bool,
}

impl IbvMemory {
    /// Local access key.
    #[must_use]
    pub fn lkey(&self) -> u32 {
        self.lkey
    }

    /// Remote access key advertised to peers.
    #[must_use]
    pub fn rkey(&self) -> u32 {
        self.rkey
    }

    /// Whether the memory has been registered with the device.
    #[must_use]
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Length of the region in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Returns `true` if the region is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.region.is_empty()
    }

    /// Writes application data into the region.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DmaOutOfBounds`] on overflow.
    pub fn write(&mut self, offset: usize, data: &[u8]) -> Result<(), DeviceError> {
        self.region.write(offset, data)
    }

    /// Reads application data from the region.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DmaOutOfBounds`] on overflow.
    pub fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, DeviceError> {
        self.region.read(offset, len)
    }
}

/// Connection metadata exchanged out of band by `ibv_sync()` (queue-pair
/// numbers, addresses, rkeys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbvConnectionInfo {
    /// The peer's IP address.
    pub ip: Ipv4Addr,
    /// The peer's MAC address.
    pub mac: MacAddr,
    /// The peer's queue-pair number.
    pub qp: QueuePairId,
    /// The peer's remote access key.
    pub rkey: u32,
    /// The shared session (attestation key slot) for this connection.
    pub session: SessionId,
}

/// A software queue pair: the ibv struct created by `ibv_qp_conn()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IbvQueuePair {
    /// The local queue-pair number.
    pub local_qp: QueuePairId,
    /// The attestation session bound to this connection.
    pub session: SessionId,
    /// The peer's connection information (filled in by `ibv_sync`).
    pub remote: Option<IbvConnectionInfo>,
}

/// The per-host ibv context: device handle, register mapping, ibv memory and
/// queue pairs.
#[derive(Debug)]
pub struct IbvContext {
    device: SharedDevice,
    regs: MappedRegsPage,
    memory: Option<IbvMemory>,
    queue_pairs: HashMap<QueuePairId, IbvQueuePair>,
    next_key: u32,
}

impl IbvContext {
    /// Creates a context over a mapped register page.
    #[must_use]
    pub fn new(regs: MappedRegsPage) -> Self {
        IbvContext {
            device: regs.device(),
            regs,
            memory: None,
            queue_pairs: HashMap::new(),
            next_key: 1,
        }
    }

    /// `ibv_qp_conn()`: creates the ibv struct for one connection.
    pub fn qp_conn(&mut self, local_qp: QueuePairId, session: SessionId) -> IbvQueuePair {
        let qp = IbvQueuePair {
            local_qp,
            session,
            remote: None,
        };
        self.queue_pairs.insert(local_qp, qp);
        qp
    }

    /// `alloc_mem()`: allocates the DMA-eligible ibv memory.
    pub fn alloc_mem(&mut self, len: usize) -> &mut IbvMemory {
        let lkey = self.next_key;
        let rkey = self.next_key + 1;
        self.next_key += 2;
        self.memory = Some(IbvMemory {
            region: DmaRegion::new(len),
            lkey,
            rkey,
            registered: false,
        });
        self.memory.as_mut().expect("just allocated")
    }

    /// `init_lqueue()`: registers the ibv memory with the TNIC hardware.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DmaOutOfBounds`] if no memory has been allocated.
    pub fn init_lqueue(&mut self) -> Result<(), DeviceError> {
        let memory = self.memory.as_mut().ok_or(DeviceError::DmaOutOfBounds)?;
        memory.registered = true;
        self.regs
            .write(Register::RequestAddr, u64::from(memory.lkey));
        self.regs.write(Register::RequestLen, memory.len() as u64);
        Ok(())
    }

    /// The local connection information advertised to the peer.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::DmaOutOfBounds`] if the ibv memory has not been
    /// allocated and registered yet.
    pub fn local_info(&self, local_qp: QueuePairId) -> Result<IbvConnectionInfo, DeviceError> {
        let memory = self.memory.as_ref().ok_or(DeviceError::DmaOutOfBounds)?;
        let qp = self
            .queue_pairs
            .get(&local_qp)
            .ok_or(DeviceError::UnknownQueuePair(local_qp))?;
        let dev = lock_device(&self.device);
        Ok(IbvConnectionInfo {
            ip: dev.config().ip_addr,
            mac: dev.config().mac_addr,
            qp: local_qp,
            rkey: memory.rkey(),
            session: qp.session,
        })
    }

    /// `ibv_sync()`: installs the peer's connection information (exchanged out
    /// of band) and creates the hardware queue pair towards it.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownQueuePair`] if `local_qp` was never
    /// created with [`IbvContext::qp_conn`].
    pub fn sync(
        &mut self,
        local_qp: QueuePairId,
        peer: IbvConnectionInfo,
    ) -> Result<(), DeviceError> {
        let qp = self
            .queue_pairs
            .get_mut(&local_qp)
            .ok_or(DeviceError::UnknownQueuePair(local_qp))?;
        qp.remote = Some(peer);
        let mut dev = lock_device(&self.device);
        dev.add_peer(peer.ip, peer.mac);
        dev.create_queue_pair(local_qp, peer.ip, peer.qp);
        Ok(())
    }

    /// Posts an attested send on `local_qp`, driving the device through the
    /// control registers and returning the packet to inject into the fabric
    /// along with the host+device latency.
    ///
    /// # Errors
    ///
    /// Propagates device errors (unknown session/queue pair, ARP miss).
    pub fn post_send(
        &mut self,
        local_qp: QueuePairId,
        payload: &[u8],
        now: SimInstant,
    ) -> Result<(RocePacket, SimDuration), DeviceError> {
        let qp = self
            .queue_pairs
            .get(&local_qp)
            .ok_or(DeviceError::UnknownQueuePair(local_qp))?;
        self.regs.write(Register::RequestQp, u64::from(local_qp.0));
        self.regs
            .write(Register::RequestSession, u64::from(qp.session.0));
        self.regs.write(Register::RequestLen, payload.len() as u64);
        self.regs.write(Register::Doorbell, 1);
        let mut dev = lock_device(&self.device);
        dev.send_attested(local_qp, qp.session, payload, now)
    }

    /// Handles a packet arriving from the fabric for `local_qp`.
    ///
    /// # Errors
    ///
    /// Propagates attestation and transport errors.
    pub fn on_packet(
        &mut self,
        local_qp: QueuePairId,
        packet: &RocePacket,
        now: SimInstant,
    ) -> Result<ReceiveOutcome, DeviceError> {
        lock_device(&self.device).receive_packet(local_qp, packet, now)
    }

    /// `poll()`: drains completion entries from the device.
    pub fn poll(&mut self) -> Vec<CompletionEntry> {
        lock_device(&self.device).poll_completions()
    }

    /// `local_send()`: generates an attested message without transmitting it.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn local_send(
        &mut self,
        session: SessionId,
        payload: &[u8],
    ) -> Result<(AttestedMessage, SimDuration), DeviceError> {
        lock_device(&self.device).local_send(session, payload)
    }

    /// `local_verify()`: verifies the binding of an attested message.
    ///
    /// # Errors
    ///
    /// Propagates device errors.
    pub fn local_verify(&mut self, message: &AttestedMessage) -> Result<SimDuration, DeviceError> {
        lock_device(&self.device).local_verify(message)
    }

    /// The queue pairs created on this context.
    #[must_use]
    pub fn queue_pairs(&self) -> Vec<IbvQueuePair> {
        self.queue_pairs.values().copied().collect()
    }

    /// Shared access to the ibv memory, if allocated.
    #[must_use]
    pub fn memory(&self) -> Option<&IbvMemory> {
        self.memory.as_ref()
    }

    /// Mutable access to the ibv memory, if allocated.
    pub fn memory_mut(&mut self) -> Option<&mut IbvMemory> {
        self.memory.as_mut()
    }

    /// The underlying shared device handle.
    #[must_use]
    pub fn device(&self) -> SharedDevice {
        self.device.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TnicDriver;
    use tnic_crypto::ed25519::Keypair;
    use tnic_device::device::TnicDevice;
    use tnic_device::types::DeviceId;

    fn context(id: u32) -> IbvContext {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        let mut device = TnicDevice::for_tests(DeviceId(id), vendor.verifying);
        device.provision_session(SessionId(1), [5u8; 32]);
        let driver = TnicDriver::probe(device);
        IbvContext::new(driver.map_regs())
    }

    fn connected_pair() -> (IbvContext, IbvContext) {
        let mut a = context(1);
        let mut b = context(2);
        a.qp_conn(QueuePairId(1), SessionId(1));
        b.qp_conn(QueuePairId(2), SessionId(1));
        a.alloc_mem(4096);
        b.alloc_mem(4096);
        a.init_lqueue().unwrap();
        b.init_lqueue().unwrap();
        let a_info = a.local_info(QueuePairId(1)).unwrap();
        let b_info = b.local_info(QueuePairId(2)).unwrap();
        a.sync(QueuePairId(1), b_info).unwrap();
        b.sync(QueuePairId(2), a_info).unwrap();
        (a, b)
    }

    #[test]
    fn initialization_sequence_matches_table1() {
        let (a, b) = connected_pair();
        assert!(a.memory().unwrap().is_registered());
        assert!(b.memory().unwrap().is_registered());
        assert_eq!(a.queue_pairs().len(), 1);
        assert!(a.queue_pairs()[0].remote.is_some());
    }

    #[test]
    fn post_send_then_receive_delivers_verified_message() {
        let (mut a, mut b) = connected_pair();
        let (packet, cost) = a
            .post_send(QueuePairId(1), b"request via ibv", SimInstant::EPOCH)
            .unwrap();
        assert!(cost > SimDuration::ZERO);
        let outcome = b
            .on_packet(QueuePairId(2), &packet, SimInstant::EPOCH)
            .unwrap();
        assert_eq!(outcome.delivered.unwrap().payload, b"request via ibv");
        // Completion reaches the sender once the ACK flows back.
        let ack = outcome.response.unwrap();
        a.on_packet(QueuePairId(1), &ack, SimInstant::EPOCH)
            .unwrap();
        assert_eq!(a.poll().len(), 1);
    }

    #[test]
    fn local_send_and_verify_via_context() {
        let (mut a, mut b) = connected_pair();
        let (msg, _) = a.local_send(SessionId(1), b"log entry").unwrap();
        b.local_verify(&msg).unwrap();
    }

    #[test]
    fn ibv_memory_read_write() {
        let mut ctx = context(5);
        let mem = ctx.alloc_mem(128);
        mem.write(0, b"buffer contents").unwrap();
        assert_eq!(mem.read(0, 6).unwrap(), b"buffer");
        assert_eq!(mem.len(), 128);
        assert!(!mem.is_registered());
    }

    #[test]
    fn init_lqueue_without_alloc_fails() {
        let mut ctx = context(6);
        assert!(ctx.init_lqueue().is_err());
    }

    #[test]
    fn sync_requires_existing_qp() {
        let mut a = context(7);
        a.alloc_mem(64);
        let info = IbvConnectionInfo {
            ip: Ipv4Addr::new(10, 0, 0, 9),
            mac: MacAddr::BROADCAST,
            qp: QueuePairId(9),
            rkey: 1,
            session: SessionId(1),
        };
        assert!(matches!(
            a.sync(QueuePairId(1), info),
            Err(DeviceError::UnknownQueuePair(_))
        ));
    }
}
