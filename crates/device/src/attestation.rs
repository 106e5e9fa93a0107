//! The NIC attestation kernel (paper §4.1, Algorithm 1).
//!
//! The attestation kernel sits on the data path between the RoCE protocol
//! kernel and the PCIe DMA engine. On transmission it computes
//! `α = HMAC(key[session], msg ‖ device-id ‖ counter)` and emits the attested
//! message `α ‖ msg ‖ id ‖ cnt`; on reception it recomputes the MAC and checks
//! that the carried counter equals the expected receive counter, which yields
//! transferable authentication and non-equivocation.
//!
//! Timing: the paper measures ~23 µs for a synchronous host→device→host
//! `Attest()` round trip of which ~70 % is PCIe transfer (Figure 6), and notes
//! that the in-fabric HMAC cost grows with the message size because HMAC
//! cannot be parallelised (§8.2). The kernel therefore charges a
//! size-dependent computation cost plus (optionally) the DMA access cost
//! against the simulation clock.

use crate::error::DeviceError;
use crate::keystore::SessionTable;
use crate::types::{DeviceId, SessionId};
use tnic_crypto::hmac::HmacSha256Key;
use tnic_sim::latency::SizeDependentLatency;
use tnic_sim::time::SimDuration;

/// Length of the attestation certificate α in bytes (HMAC-SHA-256).
///
/// The paper reserves 64 B for α plus metadata on the wire; we carry a 32-byte
/// HMAC-SHA-256 tag plus 16 bytes of metadata, which preserves the "payload
/// extension is negligible" property.
pub const ATTESTATION_LEN: usize = 32;

/// Length of the metadata (session id, device id, counter) appended to the
/// payload.
pub const METADATA_LEN: usize = 4 + 4 + 8;

/// Total wire overhead added by the attestation kernel.
pub const WIRE_OVERHEAD: usize = ATTESTATION_LEN + METADATA_LEN + 4;

/// A message extended with its attestation certificate and metadata, as
/// produced by `Attest()` and consumed by `Verify()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestedMessage {
    /// The attestation certificate α.
    pub mac: [u8; ATTESTATION_LEN],
    /// The session (connection) the message belongs to.
    pub session: SessionId,
    /// The device that generated the attestation.
    pub device: DeviceId,
    /// The monotonically increasing message counter ("timestamp").
    pub counter: u64,
    /// The application payload.
    pub payload: Vec<u8>,
}

/// A zero-copy view of an attested message in its wire format: all fields
/// are parsed, the payload stays a borrow of the wire buffer. This is the
/// hot-path reception type — parse, verify, and only materialise an owned
/// [`AttestedMessage`] (via [`AttestedView::to_owned`]) once verification
/// succeeded, so rejected traffic costs no allocation at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestedView<'a> {
    /// The attestation certificate α.
    pub mac: [u8; ATTESTATION_LEN],
    /// The session (connection) the message belongs to.
    pub session: SessionId,
    /// The device that generated the attestation.
    pub device: DeviceId,
    /// The monotonically increasing message counter ("timestamp").
    pub counter: u64,
    /// The application payload, borrowed from the wire buffer.
    pub payload: &'a [u8],
}

impl<'a> AttestedView<'a> {
    /// Parses a wire-format attested message without copying the payload.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] if the buffer is truncated
    /// or the length field is inconsistent.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, DeviceError> {
        if bytes.len() < WIRE_OVERHEAD {
            return Err(DeviceError::MalformedMessage("short header"));
        }
        let mut mac = [0u8; ATTESTATION_LEN];
        mac.copy_from_slice(&bytes[..ATTESTATION_LEN]);
        let mut off = ATTESTATION_LEN;
        let session = SessionId(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()));
        off += 4;
        let device = DeviceId(u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()));
        off += 4;
        let counter = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        off += 8;
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        if bytes.len() != off + len {
            return Err(DeviceError::MalformedMessage("length mismatch"));
        }
        Ok(AttestedView {
            mac,
            session,
            device,
            counter,
            payload: &bytes[off..],
        })
    }

    /// Serialises into `out`, appending: the wire format of
    /// [`AttestedMessage::encode`] for these fields, whoever holds the
    /// payload.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(WIRE_OVERHEAD + self.payload.len());
        encode_parts(
            &self.mac,
            self.session,
            self.device,
            self.counter,
            self.payload,
            out,
        );
    }

    /// Materialises an owned message (one payload allocation).
    #[must_use]
    pub fn to_owned(&self) -> AttestedMessage {
        AttestedMessage {
            mac: self.mac,
            session: self.session,
            device: self.device,
            counter: self.counter,
            payload: self.payload.to_vec(),
        }
    }
}

impl<'a> From<&'a AttestedMessage> for AttestedView<'a> {
    fn from(message: &'a AttestedMessage) -> Self {
        message.as_view()
    }
}

impl AttestedMessage {
    /// A borrowed view of this message (for the `*_view` verification
    /// entry points).
    #[must_use]
    pub fn as_view(&self) -> AttestedView<'_> {
        AttestedView {
            mac: self.mac,
            session: self.session,
            device: self.device,
            counter: self.counter,
            payload: &self.payload,
        }
    }

    /// Serialises the attested message into the TNIC wire format:
    /// `α ‖ session ‖ device ‖ counter ‖ len ‖ payload`.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(WIRE_OVERHEAD + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Serialises into `out`, appending (callers `clear()` and reuse the
    /// buffer across messages — the allocation-free transmit path).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(WIRE_OVERHEAD + self.payload.len());
        encode_parts(
            &self.mac,
            self.session,
            self.device,
            self.counter,
            &self.payload,
            out,
        );
    }

    /// Parses a wire-format attested message into an owned value. For the
    /// reception hot path prefer [`AttestedView::parse`] + verification +
    /// [`AttestedView::to_owned`], which allocates only for accepted
    /// messages.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::MalformedMessage`] if the buffer is truncated or
    /// the length field is inconsistent.
    pub fn decode(bytes: &[u8]) -> Result<Self, DeviceError> {
        Ok(AttestedView::parse(bytes)?.to_owned())
    }

    /// Total size of the message on the wire.
    #[must_use]
    pub fn wire_len(&self) -> usize {
        WIRE_OVERHEAD + self.payload.len()
    }
}

/// Appends the wire format `α ‖ session ‖ device ‖ counter ‖ len ‖ payload`.
fn encode_parts(
    mac: &[u8; ATTESTATION_LEN],
    session: SessionId,
    device: DeviceId,
    counter: u64,
    payload: &[u8],
    out: &mut Vec<u8>,
) {
    out.extend_from_slice(mac);
    out.extend_from_slice(&session.0.to_le_bytes());
    out.extend_from_slice(&device.0.to_le_bytes());
    out.extend_from_slice(&counter.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Algorithm 1's `α = hmac(keys[c_id], msg ‖ ID ‖ cnt)`: HMAC-SHA-256 under
/// the session key — in the prepared form a session record keeps —
/// over the payload, the little-endian `u32` id of the attesting device and
/// the little-endian `u64` send counter, streamed without an intermediate
/// buffer. The one place these bytes are chosen: every baseline attests and
/// verifies through this kernel (`tnic_core::provider::Provider` only
/// changes what an invocation costs). The wire format around the tag is
/// [`AttestedMessage`]'s.
#[must_use]
fn compute_mac(key: &HmacSha256Key, payload: &[u8], device: DeviceId, counter: u64) -> [u8; 32] {
    let mut mac = key.start();
    mac.update(payload);
    mac.update(&device.0.to_le_bytes());
    mac.update(&counter.to_le_bytes());
    mac.finalize()
}

/// Timing model of the attestation kernel.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttestationTiming {
    /// Cost of the HMAC computation as a function of payload size.
    pub hmac: SizeDependentLatency,
}

impl AttestationTiming {
    /// Timing calibrated to the paper's measurements: the in-fabric HMAC
    /// accounts for roughly 7 µs of the 23 µs `Attest()` latency at 64–128 B
    /// (the remainder being PCIe access/transfer, Figure 6), and latency grows
    /// by 30–40 % per payload doubling above 1 KiB (§8.2).
    #[must_use]
    pub fn paper_calibrated() -> Self {
        AttestationTiming {
            hmac: SizeDependentLatency::new(SimDuration::from_nanos(6_500), 5.0),
        }
    }

    /// A zero-cost timing model (for functional tests).
    #[must_use]
    pub fn zero() -> Self {
        AttestationTiming {
            hmac: SizeDependentLatency::new(SimDuration::ZERO, 0.0),
        }
    }
}

/// The binding check both `verify_binding` entry points run: the MAC of
/// `message` under `key`, counted in `stats`, charged at `timing`.
fn check_binding(
    key: &HmacSha256Key,
    timing: &AttestationTiming,
    stats: &mut AttestationStats,
    message: &AttestedView<'_>,
) -> Result<SimDuration, DeviceError> {
    let cost = timing.hmac.cost(message.payload.len());
    let expected_mac = compute_mac(key, message.payload, message.device, message.counter);
    if !tnic_crypto::ct::ct_eq(&expected_mac, &message.mac) {
        stats.rejected += 1;
        return Err(DeviceError::BadAttestation);
    }
    stats.verified += 1;
    Ok(cost)
}

/// Statistics kept by the attestation kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttestationStats {
    /// Number of `Attest()` invocations.
    pub attested: u64,
    /// Number of successful `Verify()` invocations.
    pub verified: u64,
    /// Number of rejected messages (bad MAC or counter).
    pub rejected: u64,
}

/// The attestation kernel: the HMAC unit over one table of session records
/// (key, prepared key, send and receive counter), one lookup per call.
#[derive(Debug, Clone)]
pub struct AttestationKernel {
    device: DeviceId,
    sessions: SessionTable,
    timing: AttestationTiming,
    stats: AttestationStats,
}

impl AttestationKernel {
    /// Creates an attestation kernel for `device` with the given timing model.
    #[must_use]
    pub fn new(device: DeviceId, timing: AttestationTiming) -> Self {
        AttestationKernel {
            device,
            sessions: SessionTable::default(),
            timing,
            stats: AttestationStats::default(),
        }
    }

    /// Installs a session key, or replaces it: the prepared form of the old
    /// key is dropped and the session's counters carry on. In the paper the
    /// §4.3 bootstrap does this, never the untrusted host software; here the
    /// cluster installs it.
    pub fn install_session_key(&mut self, session: SessionId, key: [u8; 32]) {
        self.sessions.install(session, key);
    }

    /// Returns `true` if a key is installed for `session`.
    #[must_use]
    pub fn has_session(&self, session: SessionId) -> bool {
        self.sessions.contains(session)
    }

    /// `Attest()` (Algorithm 1, lines 1–5): binds the payload to this device
    /// and the next send counter, returning the attested message and the time
    /// the in-fabric computation took.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed for
    /// `session`.
    pub fn attest(
        &mut self,
        session: SessionId,
        payload: &[u8],
    ) -> Result<(AttestedMessage, SimDuration), DeviceError> {
        let (mac, counter) = self.seal(session, payload)?;
        let cost = self.timing.hmac.cost(payload.len());
        Ok((
            AttestedMessage {
                mac,
                session,
                device: self.device,
                counter,
                payload: payload.to_vec(),
            },
            cost,
        ))
    }

    /// What both `Attest()` entry points do before they differ in output:
    /// takes the session's next send counter and MACs `payload` under it,
    /// counting and tracing the attestation.
    fn seal(
        &mut self,
        session: SessionId,
        payload: &[u8],
    ) -> Result<([u8; ATTESTATION_LEN], u64), DeviceError> {
        let record = self.sessions.get_mut(session)?;
        let counter = record.counters.next_send();
        let mac = compute_mac(record.prepared(), payload, self.device, counter);
        self.stats.attested += 1;
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Attest,
            node: self.device.0,
            seq: counter,
            aux: payload.len() as u64
        );
        Ok((mac, counter))
    }

    /// `Attest()` writing the wire format straight into `out` (appending):
    /// the allocation-free transmit path. No intermediate [`AttestedMessage`]
    /// is built and the payload is copied exactly once, into the wire
    /// buffer — callers reuse `out` across messages.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] if no key is installed for
    /// `session`.
    pub fn attest_into(
        &mut self,
        session: SessionId,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<SimDuration, DeviceError> {
        let (mac, counter) = self.seal(session, payload)?;
        out.reserve(WIRE_OVERHEAD + payload.len());
        encode_parts(&mac, session, self.device, counter, payload, out);
        Ok(self.timing.hmac.cost(payload.len()))
    }

    /// `Verify()` (Algorithm 1, lines 6–11): recomputes the MAC and enforces
    /// that the carried counter is exactly the next expected one, advancing it
    /// on success. This is the reception-path check that provides
    /// non-equivocation (no loss, no reordering, no duplication).
    ///
    /// # Errors
    ///
    /// * [`DeviceError::UnknownSession`] — no key installed.
    /// * [`DeviceError::BadAttestation`] — MAC mismatch, or a message this
    ///   device attested itself.
    /// * [`DeviceError::CounterMismatch`] — replay, gap or reordering.
    pub fn verify(&mut self, message: &AttestedMessage) -> Result<SimDuration, DeviceError> {
        self.verify_view(&message.as_view())
    }

    /// [`AttestationKernel::verify`] over a zero-copy [`AttestedView`] — the
    /// reception hot path, run before any payload allocation.
    ///
    /// # Errors
    ///
    /// As [`AttestationKernel::verify`].
    pub fn verify_view(&mut self, message: &AttestedView<'_>) -> Result<SimDuration, DeviceError> {
        let record = self.sessions.get_mut(message.session)?;
        // A device never receives its own messages. A copy reflected back to
        // its sender would otherwise pass whenever the session's receive
        // counter, which counts the peer's traffic, equals the sender's own.
        if message.device == self.device {
            self.stats.rejected += 1;
            return Err(DeviceError::BadAttestation);
        }
        let cost = self.timing.hmac.cost(message.payload.len());
        let expected_mac = compute_mac(
            record.prepared(),
            message.payload,
            message.device,
            message.counter,
        );
        if !tnic_crypto::ct::ct_eq(&expected_mac, &message.mac) {
            self.stats.rejected += 1;
            return Err(DeviceError::BadAttestation);
        }
        // Algorithm 1 line 8: exactly the next expected counter, or nothing
        // advances (no loss, no reordering, no duplication).
        if !record.counters.check_and_advance_recv(message.counter) {
            self.stats.rejected += 1;
            return Err(DeviceError::CounterMismatch {
                received: message.counter,
                expected: record.counters.expected_recv(),
            });
        }
        self.stats.verified += 1;
        tnic_obs::trace_event!(
            tnic_obs::EventKind::Verify,
            node: self.device.0,
            peer: message.device.0,
            seq: message.counter,
            aux: message.payload.len() as u64
        );
        Ok(cost)
    }

    /// Verifies only the cryptographic binding (MAC) of an attested message,
    /// without enforcing or advancing the receive counter. Used for local log
    /// verification (A2M `verify_lookup`, PeerReview audits) where entries are
    /// checked out of order.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] or [`DeviceError::BadAttestation`].
    pub fn verify_binding(
        &mut self,
        message: &AttestedMessage,
    ) -> Result<SimDuration, DeviceError> {
        let key = self.sessions.get_mut(message.session)?.prepared();
        check_binding(key, &self.timing, &mut self.stats, &message.as_view())
    }

    /// [`AttestationKernel::verify_binding`] under a prepared session key
    /// its caller holds instead of one installed here: the HMAC unit, cost
    /// and statistics are this kernel's, the key is not looked up. An
    /// auditor that holds the log-session keys of many devices once passes
    /// each in rather than installing it on every auditing kernel.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::BadAttestation`] if the MAC does not match.
    pub fn verify_binding_under(
        &mut self,
        key: &HmacSha256Key,
        message: &AttestedView<'_>,
    ) -> Result<SimDuration, DeviceError> {
        check_binding(key, &self.timing, &mut self.stats, message)
    }

    /// Kernel statistics.
    #[must_use]
    pub fn stats(&self) -> AttestationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kernel_pair() -> (AttestationKernel, AttestationKernel) {
        let mut tx = AttestationKernel::new(DeviceId(1), AttestationTiming::zero());
        let mut rx = AttestationKernel::new(DeviceId(2), AttestationTiming::zero());
        tx.install_session_key(SessionId(7), [9u8; 32]);
        rx.install_session_key(SessionId(7), [9u8; 32]);
        (tx, rx)
    }

    #[test]
    fn attest_then_verify_succeeds() {
        let (mut tx, mut rx) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"hello").unwrap();
        assert_eq!(msg.counter, 0);
        assert_eq!(msg.device, DeviceId(1));
        rx.verify(&msg).unwrap();
        assert_eq!(rx.stats().verified, 1);
    }

    #[test]
    fn counters_increase_per_message() {
        let (mut tx, mut rx) = kernel_pair();
        for expected in 0..5u64 {
            let (msg, _) = tx.attest(SessionId(7), b"m").unwrap();
            assert_eq!(msg.counter, expected);
            rx.verify(&msg).unwrap();
        }
        assert_eq!(rx.sessions.get(SessionId(7)).counters.expected_recv(), 5);
    }

    #[test]
    fn tampered_payload_rejected() {
        let (mut tx, mut rx) = kernel_pair();
        let (mut msg, _) = tx.attest(SessionId(7), b"pay").unwrap();
        msg.payload[0] ^= 1;
        assert_eq!(rx.verify(&msg), Err(DeviceError::BadAttestation));
        assert_eq!(rx.stats().rejected, 1);
    }

    #[test]
    fn tampered_counter_rejected() {
        let (mut tx, mut rx) = kernel_pair();
        let (mut msg, _) = tx.attest(SessionId(7), b"pay").unwrap();
        msg.counter = 5;
        // The MAC binds the counter, so this is caught as a bad attestation.
        assert_eq!(rx.verify(&msg), Err(DeviceError::BadAttestation));
    }

    #[test]
    fn reflected_message_rejected() {
        // Both ends of a session share its key: the sender's own message,
        // carrying counter 0 like the first one the peer will send, must
        // not pass at the sender as if the peer had sent it.
        let (mut tx, _) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"pay").unwrap();
        assert_eq!(tx.verify(&msg), Err(DeviceError::BadAttestation));
        assert_eq!(tx.sessions.get(SessionId(7)).counters.expected_recv(), 0);
    }

    #[test]
    fn replayed_message_rejected() {
        let (mut tx, mut rx) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"pay").unwrap();
        rx.verify(&msg).unwrap();
        let err = rx.verify(&msg).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::CounterMismatch {
                received: 0,
                expected: 1
            }
        ));
    }

    #[test]
    fn reordered_messages_rejected_until_gap_filled() {
        let (mut tx, mut rx) = kernel_pair();
        let (m0, _) = tx.attest(SessionId(7), b"a").unwrap();
        let (m1, _) = tx.attest(SessionId(7), b"b").unwrap();
        assert!(matches!(
            rx.verify(&m1),
            Err(DeviceError::CounterMismatch { .. })
        ));
        rx.verify(&m0).unwrap();
        rx.verify(&m1).unwrap();
    }

    #[test]
    fn wrong_session_key_rejected() {
        let mut tx = AttestationKernel::new(DeviceId(1), AttestationTiming::zero());
        let mut rx = AttestationKernel::new(DeviceId(2), AttestationTiming::zero());
        tx.install_session_key(SessionId(7), [1u8; 32]);
        rx.install_session_key(SessionId(7), [2u8; 32]);
        let (msg, _) = tx.attest(SessionId(7), b"x").unwrap();
        assert_eq!(rx.verify(&msg), Err(DeviceError::BadAttestation));
    }

    #[test]
    fn reinstalled_session_key_replaces_the_one_in_use() {
        let (mut tx, mut rx) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"under the old key").unwrap();
        rx.verify(&msg).unwrap();
        // Both kernels have used the session; the sender is re-keyed first.
        tx.install_session_key(SessionId(7), [8u8; 32]);
        let (msg, _) = tx.attest(SessionId(7), b"under the new key").unwrap();
        assert_eq!(rx.verify(&msg), Err(DeviceError::BadAttestation));
        rx.install_session_key(SessionId(7), [8u8; 32]);
        rx.verify(&msg).unwrap();
        let mut old_key_holder = AttestationKernel::new(DeviceId(3), AttestationTiming::zero());
        old_key_holder.install_session_key(SessionId(7), [9u8; 32]);
        assert_eq!(
            old_key_holder.verify_binding(&msg),
            Err(DeviceError::BadAttestation)
        );
    }

    #[test]
    fn cloned_kernel_attests_identically() {
        let (mut tx, _) = kernel_pair();
        tx.install_session_key(SessionId(8), [4u8; 32]);
        // One session used before the clone, one first used after it.
        tx.attest(SessionId(7), b"warm").unwrap();
        let mut twin = tx.clone();
        for session in [SessionId(7), SessionId(8)] {
            assert_eq!(
                tx.attest(session, b"same").unwrap(),
                twin.attest(session, b"same").unwrap()
            );
        }
    }

    #[test]
    fn unknown_session_errors() {
        let (mut tx, _) = kernel_pair();
        let (mut msg, _) = tx.attest(SessionId(7), b"x").unwrap();
        msg.session = SessionId(9);
        let mut k = AttestationKernel::new(DeviceId(2), AttestationTiming::zero());
        let unknown = Err(DeviceError::UnknownSession(SessionId(9)));
        assert_eq!(k.attest(SessionId(9), b"x").map(|_| ()), unknown);
        let mut wire = Vec::new();
        assert_eq!(
            k.attest_into(SessionId(9), b"x", &mut wire).map(|_| ()),
            unknown
        );
        assert!(wire.is_empty());
        // Checked before the reflected-device check: an unknown session
        // wins even on a message this device attested itself.
        let mut reflected = msg.clone();
        reflected.device = DeviceId(2);
        assert_eq!(k.verify(&reflected).map(|_| ()), unknown);
        assert_eq!(k.verify_binding(&msg).map(|_| ()), unknown);
        assert!(!k.has_session(SessionId(9)));
        assert_eq!(k.sessions.len(), 0);
        assert_eq!(k.stats(), AttestationStats::default());
        k.install_session_key(SessionId(9), [5u8; 32]);
        assert_eq!(k.verify(&msg).map(|_| ()), Err(DeviceError::BadAttestation));
    }

    #[test]
    fn send_counters_are_monotonic_and_per_session() {
        let (mut tx, _) = kernel_pair();
        tx.install_session_key(SessionId(8), [4u8; 32]);
        let mut wire = Vec::new();
        let mut next = |session: SessionId| {
            wire.clear();
            tx.attest_into(session, b"m", &mut wire).unwrap();
            AttestedView::parse(&wire).unwrap().counter
        };
        let order = [7, 7, 8, 7, 8].map(|s| next(SessionId(s)));
        assert_eq!(order, [0, 1, 0, 2, 1]);
    }

    #[test]
    fn receive_counters_are_fifo_and_a_rejection_advances_nothing() {
        let (mut tx, mut rx) = kernel_pair();
        let (m0, _) = tx.attest(SessionId(7), b"a").unwrap();
        let (m1, _) = tx.attest(SessionId(7), b"b").unwrap();
        let gap = DeviceError::CounterMismatch {
            received: 1,
            expected: 0,
        };
        assert_eq!(rx.verify(&m1), Err(gap.clone()));
        assert_eq!(rx.verify(&m1), Err(gap), "a rejection must not advance");
        rx.verify(&m0).unwrap();
        assert_eq!(
            rx.verify(&m0),
            Err(DeviceError::CounterMismatch {
                received: 0,
                expected: 1
            })
        );
        rx.verify(&m1).unwrap();
        assert_eq!(rx.sessions.get(SessionId(7)).counters.expected_recv(), 2);
    }

    #[test]
    fn reinstall_replaces_key_drops_prepared_form_keeps_counters() {
        let (mut tx, mut rx) = kernel_pair();
        for session in [SessionId(7), SessionId(8)] {
            tx.install_session_key(session, [9u8; 32]);
            rx.install_session_key(session, [9u8; 32]);
        }
        // Both sessions used, so both keys are held prepared on both sides.
        for session in [SessionId(7), SessionId(8)] {
            let (msg, _) = tx.attest(session, b"old").unwrap();
            rx.verify(&msg).unwrap();
        }
        let (reply, _) = rx.attest(SessionId(7), b"reply").unwrap();
        tx.verify(&reply).unwrap();
        let counters = |k: &AttestationKernel| {
            let s = k.sessions.get(SessionId(7));
            (
                s.counters.send(),
                s.counters.expected_recv(),
                s.is_prepared(),
            )
        };
        assert_eq!(counters(&tx), (1, 1, true));

        tx.install_session_key(SessionId(7), [8u8; 32]);
        assert_eq!(counters(&tx), (1, 1, false));
        assert_eq!(tx.sessions.len(), 2);
        let (msg, _) = tx.attest(SessionId(7), b"new").unwrap();
        assert_eq!(msg.counter, 1, "the send counter survives the re-key");
        assert_eq!(rx.verify(&msg), Err(DeviceError::BadAttestation));
        rx.install_session_key(SessionId(7), [8u8; 32]);
        rx.verify(&msg).unwrap();
        let (reply, _) = rx.attest(SessionId(7), b"reply").unwrap();
        assert_eq!(reply.counter, 1);
        tx.verify(&reply).unwrap();
        // The neighbouring session kept its key and counters throughout.
        let (msg, _) = tx.attest(SessionId(8), b"old").unwrap();
        assert_eq!(msg.counter, 1);
        rx.verify(&msg).unwrap();
    }

    #[test]
    fn debug_never_prints_keys() {
        let mut k = AttestationKernel::new(DeviceId(1), AttestationTiming::zero());
        k.install_session_key(SessionId(3), [0xAB; 32]);
        let unused = format!("{k:?}");
        k.attest(SessionId(3), b"x").unwrap();
        let used = format!("{k:?}");
        // Raw or prepared, used or not: the counters and nothing else.
        assert!(unused.contains(
            "SessionId(3): Session { counters: Counters { send_cnt: 0, recv_cnt: 0 }, .. }"
        ));
        assert!(used.contains(
            "SessionId(3): Session { counters: Counters { send_cnt: 1, recv_cnt: 0 }, .. }"
        ));
        for text in [unused, used] {
            assert!(!text.contains("171") && !text.contains("key"), "{text}");
        }
    }

    #[test]
    fn verify_binding_ignores_counter_order() {
        let (mut tx, mut rx) = kernel_pair();
        let (m0, _) = tx.attest(SessionId(7), b"a").unwrap();
        let (m1, _) = tx.attest(SessionId(7), b"b").unwrap();
        rx.verify_binding(&m1).unwrap();
        rx.verify_binding(&m0).unwrap();
        rx.verify_binding(&m0).unwrap();
    }

    #[test]
    fn wire_round_trip() {
        let (mut tx, _) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"some payload bytes").unwrap();
        let encoded = msg.encode();
        assert_eq!(encoded.len(), msg.wire_len());
        let decoded = AttestedMessage::decode(&encoded).unwrap();
        assert_eq!(decoded, msg);
    }

    #[test]
    fn attest_into_matches_owned_wire_format() {
        let (mut tx_a, mut rx) = kernel_pair();
        let mut tx_b = AttestationKernel::new(DeviceId(1), AttestationTiming::zero());
        tx_b.install_session_key(SessionId(7), [9u8; 32]);
        let (owned, cost_a) = tx_a.attest(SessionId(7), b"same payload").unwrap();
        let mut wire = Vec::new();
        let cost_b = tx_b
            .attest_into(SessionId(7), b"same payload", &mut wire)
            .unwrap();
        assert_eq!(wire, owned.encode());
        assert_eq!(cost_a, cost_b);
        // The in-place wire bytes verify like any attested message.
        let view = AttestedView::parse(&wire).unwrap();
        rx.verify_view(&view).unwrap();
    }

    #[test]
    fn attest_into_reuses_the_buffer_and_advances_counters() {
        let (mut tx, mut rx) = kernel_pair();
        let mut wire = Vec::new();
        for expected in 0..3u64 {
            wire.clear();
            tx.attest_into(SessionId(7), b"m", &mut wire).unwrap();
            let view = AttestedView::parse(&wire).unwrap();
            assert_eq!(view.counter, expected);
            rx.verify_view(&view).unwrap();
        }
    }

    #[test]
    fn view_parse_borrows_and_round_trips() {
        let (mut tx, mut rx) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"view payload").unwrap();
        let encoded = msg.encode();
        let view = AttestedView::parse(&encoded).unwrap();
        assert_eq!(view.payload, b"view payload");
        assert_eq!(view.to_owned(), msg);
        assert_eq!(msg.as_view(), view);
        rx.verify_view(&view).unwrap();
        // Truncated and over-long buffers are rejected without allocation.
        assert!(AttestedView::parse(&encoded[..WIRE_OVERHEAD - 1]).is_err());
        assert!(AttestedView::parse(&encoded[..encoded.len() - 1]).is_err());
        let mut extended = encoded.clone();
        extended.push(0);
        assert!(AttestedView::parse(&extended).is_err());
    }

    #[test]
    fn tampered_view_rejected_before_any_copy() {
        let (mut tx, mut rx) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"payload").unwrap();
        let mut encoded = msg.encode();
        let last = encoded.len() - 1;
        encoded[last] ^= 1;
        let view = AttestedView::parse(&encoded).unwrap();
        assert_eq!(rx.verify_view(&view), Err(DeviceError::BadAttestation));
    }

    #[test]
    fn encode_into_appends_to_reused_buffer() {
        let (mut tx, _) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"abc").unwrap();
        let mut buf = Vec::new();
        msg.encode_into(&mut buf);
        assert_eq!(buf, msg.encode());
        buf.clear();
        msg.encode_into(&mut buf);
        assert_eq!(buf, msg.encode());
    }

    #[test]
    fn decode_rejects_truncation_and_bad_length() {
        let (mut tx, _) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"payload").unwrap();
        let encoded = msg.encode();
        assert!(AttestedMessage::decode(&encoded[..10]).is_err());
        let mut bad = encoded.clone();
        bad.truncate(encoded.len() - 1);
        assert!(AttestedMessage::decode(&bad).is_err());
        let mut extended = encoded;
        extended.push(0);
        assert!(AttestedMessage::decode(&extended).is_err());
    }

    #[test]
    fn timing_grows_with_payload_size() {
        let timing = AttestationTiming::paper_calibrated();
        let mut k = AttestationKernel::new(DeviceId(1), timing);
        k.install_session_key(SessionId(1), [0u8; 32]);
        let (_, cost_small) = k.attest(SessionId(1), &[0u8; 64]).unwrap();
        let (_, cost_large) = k.attest(SessionId(1), &[0u8; 8192]).unwrap();
        assert!(cost_large > cost_small);
    }

    #[test]
    fn stats_track_operations() {
        let (mut tx, mut rx) = kernel_pair();
        let (msg, _) = tx.attest(SessionId(7), b"x").unwrap();
        rx.verify(&msg).unwrap();
        let _ = rx.verify(&msg);
        assert_eq!(tx.stats().attested, 1);
        assert_eq!(rx.stats().verified, 1);
        assert_eq!(rx.stats().rejected, 1);
    }
}
