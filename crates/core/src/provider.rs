//! The attestation provider: one kernel, and the cost its baseline charges.
//!
//! The paper evaluates every distributed system over several attestation
//! back-ends (§8.3): the SSL library, the native SSL server, SGX, AMD SEV and
//! TNIC itself. What it swaps is *where* Algorithm 1 runs and what an
//! invocation costs, never what it computes, and the TEE back-ends are
//! emulated by injecting their measured delays (§8.1). A [`Provider`] is
//! that: the one [`AttestationKernel`] — keys, counters, the MAC, the
//! in-order check, its statistics and trace events — plus a private cost.
//! On [`Baseline::Tnic`] the cost is the kernel's own HMAC time between two
//! DMA transfers; on a host baseline the kernel is built with zero timing
//! and each invocation draws the baseline's [`BaselineProfile`].
//!
//! A host service has done its work — reached over its socket or enclave
//! transition, the HMAC computed — before it can tell that a message does
//! not verify, so the host cost is drawn as soon as the session key is
//! found, whatever the comparison then says: a rejected message advances
//! the baseline's generator like an accepted one, and only an unknown
//! session draws nothing. On [`Baseline::Tnic`] a rejected message returns
//! its error and no cost.

use tnic_crypto::hmac::HmacSha256Key;
use tnic_device::attestation::{
    AttestationKernel, AttestationTiming, AttestedMessage, AttestedView, WIRE_OVERHEAD,
};
use tnic_device::dma::{DmaEngine, DmaMode};
use tnic_device::error::DeviceError;
use tnic_device::types::{DeviceId, SessionId};
use tnic_sim::rng::DetRng;
use tnic_sim::time::SimDuration;
use tnic_tee::profile::{Baseline, BaselineProfile};

/// An attestation provider: the attestation kernel, charged as the
/// (simulated) TNIC hardware or as one of the host-side baselines.
#[derive(Debug, Clone)]
pub struct Provider {
    kernel: AttestationKernel,
    cost: Cost,
}

/// What one kernel invocation costs on the provider's baseline.
#[derive(Debug, Clone)]
enum Cost {
    /// The TNIC data path: kernel-bypass DMA around the in-fabric HMAC.
    Hardware(DmaEngine),
    /// A host-side service (native or TEE-hosted): the baseline's measured
    /// delays, drawn per invocation.
    Host {
        profile: BaselineProfile,
        rng: DetRng,
    },
}

impl Cost {
    /// The cost `baseline` charges, and the timing its kernel runs with: the
    /// calibrated in-fabric HMAC on TNIC, none on a host baseline, whose
    /// profile already contains the computation.
    fn new(baseline: Baseline, seed: u64) -> (Self, AttestationTiming) {
        match baseline {
            Baseline::Tnic => (
                Cost::Hardware(DmaEngine::paper_calibrated(DmaMode::Asynchronous)),
                AttestationTiming::paper_calibrated(),
            ),
            host => (
                Cost::Host {
                    profile: host.profile(),
                    rng: DetRng::new(seed),
                },
                AttestationTiming::zero(),
            ),
        }
    }

    /// The cost of an `Attest()` whose in-kernel HMAC took `hmac`.
    fn attest(&mut self, payload_len: usize, hmac: SimDuration) -> SimDuration {
        match self {
            Cost::Hardware(dma) => {
                dma.host_to_device(payload_len)
                    + hmac
                    + dma.device_to_host(WIRE_OVERHEAD + payload_len)
            }
            Cost::Host { profile, rng } => invocation_cost(profile, rng, payload_len),
        }
    }

    /// The cost of a verification the kernel answered with `outcome` (its
    /// HMAC time, or why it refused the message).
    fn verify(
        &mut self,
        payload_len: usize,
        outcome: Result<SimDuration, DeviceError>,
    ) -> Result<SimDuration, DeviceError> {
        match self {
            Cost::Hardware(dma) => {
                let hmac = outcome?;
                Ok(dma.host_to_device(WIRE_OVERHEAD + payload_len) + hmac)
            }
            Cost::Host { profile, rng } => {
                if let Err(DeviceError::UnknownSession(_)) = outcome {
                    return outcome;
                }
                let cost = invocation_cost(profile, rng, payload_len);
                outcome.map(|_| cost)
            }
        }
    }
}

/// One invocation of a host-side service: reach it, compute the HMAC of a
/// 64 B payload, and the per-byte term for what the payload has beyond that.
fn invocation_cost(profile: &BaselineProfile, rng: &mut DetRng, payload_len: usize) -> SimDuration {
    let access = profile.access_transfer.sample(rng);
    let compute = profile.computation.sample(rng);
    let per_byte = SimDuration::from_nanos(
        (profile.computation_per_byte_ns * payload_len.saturating_sub(64) as f64) as u64,
    );
    access + compute + per_byte
}

impl Provider {
    /// Creates a provider of the given flavour for logical node `node`.
    #[must_use]
    pub fn new(baseline: Baseline, node: DeviceId, seed: u64) -> Self {
        let (cost, timing) = Cost::new(baseline, seed);
        Provider {
            kernel: AttestationKernel::new(node, timing),
            cost,
        }
    }

    /// Installs a per-session symmetric key.
    pub fn install_session_key(&mut self, session: SessionId, key: [u8; 32]) {
        self.kernel.install_session_key(session, key);
    }

    /// Returns `true` if a key is installed for `session`.
    #[must_use]
    pub fn has_session(&self, session: SessionId) -> bool {
        self.kernel.has_session(session)
    }

    /// Whether this provider has attested any message yet.
    pub(crate) fn has_attested(&self) -> bool {
        self.kernel.stats().attested > 0
    }

    /// Generates an attestation for `payload` on `session`.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownSession`] when no key is installed.
    pub fn attest(
        &mut self,
        session: SessionId,
        payload: &[u8],
    ) -> Result<(AttestedMessage, SimDuration), DeviceError> {
        let (msg, hmac) = self.kernel.attest(session, payload)?;
        Ok((msg, self.cost.attest(payload.len(), hmac)))
    }

    /// Verifies an attested message, enforcing receive-counter order.
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceError::BadAttestation`] / [`DeviceError::CounterMismatch`].
    pub fn verify(&mut self, message: &AttestedMessage) -> Result<SimDuration, DeviceError> {
        let outcome = self.kernel.verify(message);
        self.cost.verify(message.payload.len(), outcome)
    }

    /// Verifies only the cryptographic binding (for out-of-order log audits).
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceError::BadAttestation`].
    pub fn verify_binding(
        &mut self,
        message: &AttestedMessage,
    ) -> Result<SimDuration, DeviceError> {
        let outcome = self.kernel.verify_binding(message);
        self.cost.verify(message.payload.len(), outcome)
    }

    /// [`Provider::verify_binding`] under `key`, the prepared key of the
    /// message's session, which the caller holds instead of this provider:
    /// an auditor keeps each audited node's log-session key once rather
    /// than installing it on every auditing provider. The MAC runs on this
    /// provider's kernel and is charged to its baseline.
    ///
    /// # Errors
    ///
    /// Propagates [`DeviceError::BadAttestation`].
    pub fn verify_binding_under(
        &mut self,
        key: &HmacSha256Key,
        message: &AttestedView<'_>,
    ) -> Result<SimDuration, DeviceError> {
        let outcome = self.kernel.verify_binding_under(key, message);
        self.cost.verify(message.payload.len(), outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider_pair(baseline: Baseline) -> (Provider, Provider) {
        let mut a = Provider::new(baseline, DeviceId(1), 1);
        let mut b = Provider::new(baseline, DeviceId(2), 2);
        a.install_session_key(SessionId(1), [9u8; 32]);
        b.install_session_key(SessionId(1), [9u8; 32]);
        (a, b)
    }

    #[test]
    fn all_baselines_round_trip() {
        for baseline in Baseline::ALL {
            let (mut a, mut b) = provider_pair(baseline);
            let (msg, cost) = a.attest(SessionId(1), b"request").unwrap();
            assert!(cost > SimDuration::ZERO, "{baseline}");
            assert_eq!(AttestedMessage::decode(&msg.encode()).unwrap(), msg);
            let cost = b.verify(&msg).unwrap_or_else(|e| panic!("{baseline}: {e}"));
            assert!(cost > SimDuration::ZERO, "{baseline}");
        }
    }

    #[test]
    fn hardware_and_host_providers_interoperate() {
        // One wire format and one MAC whatever the baseline charges: a
        // message attested on any of them verifies on any other holding the
        // session key (transferable authentication across back-ends).
        for sender in Baseline::ALL {
            for verifier in Baseline::ALL {
                let mut tx = Provider::new(sender, DeviceId(1), 1);
                let mut rx = Provider::new(verifier, DeviceId(2), 2);
                tx.install_session_key(SessionId(3), [4u8; 32]);
                rx.install_session_key(SessionId(3), [4u8; 32]);
                let (msg, _) = tx.attest(SessionId(3), b"cross-backend").unwrap();
                rx.verify(&msg)
                    .unwrap_or_else(|e| panic!("{sender} -> {verifier}: {e}"));
            }
        }
    }

    #[test]
    fn tnic_provider_faster_than_tee_but_slower_than_native_lib() {
        let mut totals = std::collections::HashMap::new();
        for baseline in [Baseline::Tnic, Baseline::Sgx, Baseline::SslLib] {
            let (mut a, _) = provider_pair(baseline);
            let mut total = SimDuration::ZERO;
            for _ in 0..50 {
                total += a.attest(SessionId(1), &[0u8; 64]).unwrap().1;
            }
            totals.insert(baseline.label(), total);
        }
        assert!(totals["TNIC"] < totals["SGX"]);
        assert!(totals["TNIC"] > totals["SSL-lib"]);
        assert!(totals["SGX"] > totals["SSL-lib"] * 5);
    }

    #[test]
    fn tnic_profile_is_the_synchronous_stand_alone_device() {
        // Fig. 5's TNIC `Attest()` is §8.1's stand-alone synchronous-DMA
        // `local_send`; a provider charges the cheaper kernel-bypass path.
        let vendor = tnic_crypto::ed25519::Keypair::from_seed(&[1u8; 32]);
        let mut device = tnic_device::TnicDevice::for_tests(DeviceId(1), vendor.verifying);
        device.provision_session(SessionId(1), [7u8; 32]);
        device.set_dma_mode(DmaMode::Synchronous);
        let mut total = SimDuration::ZERO;
        for _ in 0..200 {
            total += device.local_send(SessionId(1), &[0u8; 64]).unwrap().1;
        }
        let device_us = total.as_micros_f64() / 200.0;
        let profile_us = Baseline::Tnic.profile().mean_total_us(64);
        assert!(
            (device_us / profile_us - 1.0).abs() <= 0.05,
            "synchronous device {device_us:.2} us vs profile {profile_us:.2} us"
        );
        let (mut provider, _) = provider_pair(Baseline::Tnic);
        let (_, datapath) = provider.attest(SessionId(1), &[0u8; 64]).unwrap();
        assert!(datapath.as_micros_f64() < device_us / 2.0, "{datapath:?}");
    }

    #[test]
    fn counter_discipline_enforced_by_all_backends() {
        for baseline in Baseline::ALL {
            let (mut a, mut b) = provider_pair(baseline);
            let (m0, _) = a.attest(SessionId(1), b"0").unwrap();
            let (m1, _) = a.attest(SessionId(1), b"1").unwrap();
            assert_eq!((m0.counter, m1.counter), (0, 1), "{baseline}");
            assert_eq!(
                b.verify(&m1),
                Err(DeviceError::CounterMismatch {
                    received: 1,
                    expected: 0
                }),
                "{baseline}: gap must be rejected"
            );
            b.verify(&m0).unwrap();
            b.verify(&m1).unwrap();
            assert_eq!(
                b.verify(&m1),
                Err(DeviceError::CounterMismatch {
                    received: 1,
                    expected: 2
                }),
                "{baseline}: replay must be rejected"
            );
        }
    }

    #[test]
    fn tampering_detected_by_all_backends() {
        for baseline in Baseline::ALL {
            let (mut a, mut b) = provider_pair(baseline);
            let (mut msg, _) = a.attest(SessionId(1), b"payload").unwrap();
            msg.payload[0] ^= 1;
            assert_eq!(b.verify(&msg), Err(DeviceError::BadAttestation));
            assert_eq!(b.verify_binding(&msg), Err(DeviceError::BadAttestation));
        }
    }

    #[test]
    fn binding_verification_ignores_order() {
        for baseline in Baseline::ALL {
            let (mut a, mut b) = provider_pair(baseline);
            let (m0, _) = a.attest(SessionId(1), b"0").unwrap();
            let (m1, _) = a.attest(SessionId(1), b"1").unwrap();
            b.verify_binding(&m1).unwrap();
            b.verify_binding(&m0).unwrap();
            b.verify_binding(&m0).unwrap();
        }
    }

    #[test]
    fn missing_session_reported() {
        for baseline in Baseline::ALL {
            let mut p = Provider::new(baseline, DeviceId(1), 1);
            assert!(!p.has_session(SessionId(9)));
            assert_eq!(
                p.attest(SessionId(9), b"x").unwrap_err(),
                DeviceError::UnknownSession(SessionId(9))
            );
        }
    }

    /// What the first `attest` of 64 B costs, in ns, on the verifier of
    /// `provider_pair` once it has refused one tampered 64 B message —
    /// dumped from the commit that still had a separate host-side
    /// implementation. A refused message has consumed one access and one
    /// computation sample.
    const ATTEST_NS_AFTER_ONE_REJECTION: [(Baseline, u64); 5] = [
        (Baseline::SslLib, 1_099),
        (Baseline::SslServerIntel, 11_064),
        (Baseline::SslServerAmd, 31_150),
        (Baseline::Sgx, 43_454),
        (Baseline::AmdSev, 86_907),
    ];

    #[test]
    fn host_cost_is_drawn_for_a_rejected_message_and_not_for_an_unknown_session() {
        for (baseline, expected_ns) in ATTEST_NS_AFTER_ONE_REJECTION {
            let (mut a, mut b) = provider_pair(baseline);
            let mut undisturbed = b.clone();
            let (mut msg, _) = a.attest(SessionId(1), &[0u8; 64]).unwrap();

            // A session nobody installed: refused before any service ran.
            let mut stray = msg.clone();
            stray.session = SessionId(8);
            assert_eq!(
                b.verify(&stray),
                Err(DeviceError::UnknownSession(SessionId(8)))
            );
            assert_eq!(
                b.clone().attest(SessionId(1), &[0u8; 64]).unwrap(),
                undisturbed
                    .clone()
                    .attest(SessionId(1), &[0u8; 64])
                    .unwrap(),
                "{baseline}: an unknown session draws nothing"
            );

            msg.payload[0] ^= 1;
            assert_eq!(b.verify(&msg), Err(DeviceError::BadAttestation));
            let (_, cost) = b.attest(SessionId(1), &[0u8; 64]).unwrap();
            assert_eq!(cost.as_nanos(), expected_ns, "{baseline}");
            let (_, first) = undisturbed.attest(SessionId(1), &[0u8; 64]).unwrap();
            assert_ne!(cost, first, "{baseline}: the rejection drew its samples");
        }
    }
}
