//! The TNIC-OS library (paper §5.2).
//!
//! Each TNIC device is represented by a `tnic-process` object — not a
//! scheduling entity, but a handle managed by the OS library that acquires a
//! lock on the device's REG pages so concurrent applications access the
//! hardware in isolation. Requests are scheduled FIFO per device.

use crate::regs::MappedRegsPage;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use tnic_device::regs::Register;
use tnic_device::types::{QueuePairId, SessionId};

/// A request posted to the device through the OS library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostedRequest {
    /// Which queue pair the request targets.
    pub qp: QueuePairId,
    /// The attestation session to use.
    pub session: SessionId,
    /// The payload to send.
    pub payload: Vec<u8>,
}

/// The `tnic-process` object: a lockable handle over one device's REG pages.
#[derive(Debug, Clone)]
pub struct TnicProcess {
    regs: Arc<Mutex<MappedRegsPage>>,
    pending: Arc<Mutex<VecDeque<PostedRequest>>>,
}

impl TnicProcess {
    /// Wraps a mapped register page into a process handle.
    #[must_use]
    pub fn new(regs: MappedRegsPage) -> Self {
        TnicProcess {
            regs: Arc::new(Mutex::new(regs)),
            pending: Arc::new(Mutex::new(VecDeque::new())),
        }
    }

    fn regs(&self) -> MutexGuard<'_, MappedRegsPage> {
        self.regs
            .lock()
            .expect("a holder of the REG-page lock panicked")
    }

    fn queue(&self) -> MutexGuard<'_, VecDeque<PostedRequest>> {
        self.pending
            .lock()
            .expect("a holder of the request-queue lock panicked")
    }

    /// Enqueues a request; the doorbell is rung while holding the REG-page
    /// lock so concurrent posters cannot interleave register writes.
    pub fn post(&self, request: PostedRequest) {
        {
            let regs = self.regs();
            regs.write(Register::RequestQp, u64::from(request.qp.0));
            regs.write(Register::RequestSession, u64::from(request.session.0));
            regs.write(Register::RequestLen, request.payload.len() as u64);
            regs.write(Register::Doorbell, 1);
        }
        self.queue().push_back(request);
    }

    /// Removes the next request to execute (FIFO order).
    pub fn next_request(&self) -> Option<PostedRequest> {
        self.queue().pop_front()
    }

    /// Number of requests waiting to be executed.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.queue().len()
    }

    /// Runs `f` with exclusive access to the mapped register page.
    pub fn with_regs<R>(&self, f: impl FnOnce(&MappedRegsPage) -> R) -> R {
        f(&self.regs())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::TnicDriver;
    use tnic_crypto::ed25519::Keypair;
    use tnic_device::device::TnicDevice;
    use tnic_device::types::DeviceId;

    fn process() -> TnicProcess {
        let vendor = Keypair::from_seed(&[1u8; 32]);
        let driver = TnicDriver::probe(TnicDevice::for_tests(DeviceId(1), vendor.verifying));
        TnicProcess::new(driver.map_regs())
    }

    fn request(n: u8) -> PostedRequest {
        PostedRequest {
            qp: QueuePairId(1),
            session: SessionId(1),
            payload: vec![n; 8],
        }
    }

    #[test]
    fn requests_are_fifo() {
        let proc = process();
        proc.post(request(1));
        proc.post(request(2));
        proc.post(request(3));
        assert_eq!(proc.pending(), 3);
        assert_eq!(proc.next_request().unwrap().payload[0], 1);
        assert_eq!(proc.next_request().unwrap().payload[0], 2);
        assert_eq!(proc.next_request().unwrap().payload[0], 3);
        assert!(proc.next_request().is_none());
    }

    #[test]
    fn posting_writes_request_registers() {
        let proc = process();
        proc.post(PostedRequest {
            qp: QueuePairId(7),
            session: SessionId(3),
            payload: vec![0; 99],
        });
        proc.with_regs(|regs| {
            assert_eq!(regs.read(Register::RequestQp), 7);
            assert_eq!(regs.read(Register::RequestSession), 3);
            assert_eq!(regs.read(Register::RequestLen), 99);
        });
    }

    #[test]
    fn clones_share_the_queue() {
        let proc = process();
        let clone = proc.clone();
        proc.post(request(9));
        assert_eq!(clone.pending(), 1);
        assert_eq!(clone.next_request().unwrap().payload[0], 9);
        assert_eq!(proc.pending(), 0);
    }

    #[test]
    fn concurrent_posting_is_serialised() {
        let proc = process();
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let p = proc.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        p.post(request(i));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(proc.pending(), 200);
    }
}
