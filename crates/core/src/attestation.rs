//! Bootstrapping and remote attestation of TNIC devices (paper §4.3, Figure 3).
//!
//! Three mutually trusting parties provision a device deployed in an untrusted
//! cloud: the **manufacturer** burns a device-unique hardware key, the
//! **system designer** supplies the configuration (session keys to install),
//! and the **IP vendor** verifies that a genuine controller runs on a genuine
//! device before shipping the encrypted bitstream and secrets over a mutually
//! authenticated channel.
//!
//! Message flow implemented here (numbers follow Figure 3):
//! * (1) vendor → controller: fresh nonce `n`
//! * (2–3) controller → vendor: `cert = <n, Ctrl_bin cert>` signed with
//!   `Ctrl_priv`
//! * (4–5) vendor verifies the measurement with `HW_key` and the nonce
//! * (6) both sides run an X25519 handshake authenticated by the controller
//!   signature and the vendor's key embedded in the binary (mutual TLS)
//! * (7–8) vendor sends the bitstream and the session secrets over the
//!   channel; the controller installs them and the device becomes
//!   operational.

use crate::error::CoreError;
use crate::verification::{ActionFact, LemmaMonitor};
use std::collections::HashMap;
use tnic_crypto::ed25519::{Keypair, VerifyingKey};
use tnic_crypto::hkdf::hkdf;
use tnic_crypto::secretbox::SecretBox;
use tnic_crypto::x25519;
use tnic_device::controller::{ControllerBinary, HardwareKey};
use tnic_device::device::TnicDevice;
use tnic_device::types::{DeviceId, SessionId};
use tnic_sim::rng::DetRng;

/// The device manufacturer: burns hardware keys and discloses them only to
/// the trusted IP vendor.
#[derive(Debug, Default)]
pub struct Manufacturer {
    burned: HashMap<DeviceId, HardwareKey>,
}

impl Manufacturer {
    /// Creates a manufacturer with no devices yet.
    #[must_use]
    pub fn new() -> Self {
        Manufacturer::default()
    }

    /// Burns a fresh hardware key into a device at production time.
    pub fn burn_hw_key(&mut self, device: DeviceId, rng: &mut DetRng) -> HardwareKey {
        let key = HardwareKey(rng.bytes32());
        self.burned.insert(device, key);
        key
    }

    /// Shares the hardware keys with the trusted IP vendor.
    #[must_use]
    pub fn disclose_to_vendor(&self) -> HashMap<DeviceId, HardwareKey> {
        self.burned.clone()
    }
}

/// Configuration supplied by the system designer: which sessions to install on
/// the device and the secrets for each.
#[derive(Debug, Clone, Default)]
pub struct DesignerConfig {
    /// Session keys to be installed into the attestation kernel.
    pub session_keys: Vec<(SessionId, [u8; 32])>,
}

impl DesignerConfig {
    /// A configuration with `n` fresh session keys.
    #[must_use]
    pub fn with_sessions(n: u32, rng: &mut DetRng) -> Self {
        DesignerConfig {
            session_keys: (1..=n).map(|i| (SessionId(i), rng.bytes32())).collect(),
        }
    }
}

/// The trusted IP vendor.
#[derive(Debug)]
pub struct IpVendor {
    keypair: Keypair,
    hw_keys: HashMap<DeviceId, HardwareKey>,
    expected_binary_hash: [u8; 32],
    bitstream: Vec<u8>,
}

impl IpVendor {
    /// Creates a vendor that knows the manufacturer's hardware keys, the
    /// expected controller binary and the TNIC bitstream to ship.
    #[must_use]
    pub fn new(
        seed: [u8; 32],
        hw_keys: HashMap<DeviceId, HardwareKey>,
        binary: &ControllerBinary,
        bitstream: Vec<u8>,
    ) -> Self {
        IpVendor {
            keypair: Keypair::from_seed(&seed),
            hw_keys,
            expected_binary_hash: binary.measurement(),
            bitstream,
        }
    }

    /// The vendor's public key, embedded into controller binaries.
    #[must_use]
    pub fn public_key(&self) -> VerifyingKey {
        self.keypair.verifying
    }
}

/// The outcome of a successful remote attestation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// The attested device.
    pub device: DeviceId,
    /// Number of session keys installed.
    pub sessions_installed: usize,
    /// Measurement of the installed bitstream.
    pub bitstream_hash: [u8; 32],
}

/// Runs the full bootstrapping + remote-attestation protocol between `vendor`
/// and `device`, installing the designer's session keys on success. Its
/// action facts go to `monitor`, which decides lemma (1) of §4.4.
///
/// # Errors
///
/// Returns [`CoreError::AttestationFailed`] naming the step that failed.
pub fn run_remote_attestation(
    vendor: &mut IpVendor,
    device: &mut TnicDevice,
    config: &DesignerConfig,
    rng: &mut DetRng,
    monitor: &mut LemmaMonitor,
) -> Result<AttestationReport, CoreError> {
    let device_id = device.id();
    let connection = rng.next_u64();

    // (1) Vendor sends a freshness nonce.
    let nonce = rng.bytes32();

    // (2)-(3) Controller produces the nonce-bound certificate.
    let cert = device.controller().certify(nonce);

    // (4)-(5) Vendor verifies: genuine device (HW key), genuine binary
    // (measurement), fresh nonce, valid controller signature.
    let hw_key = vendor
        .hw_keys
        .get(&device_id)
        .ok_or(CoreError::AttestationFailed("unknown device"))?;
    if !cert.verify(hw_key, &vendor.expected_binary_hash, &nonce) {
        return Err(CoreError::AttestationFailed("certificate verification"));
    }

    // (6) Mutually authenticated channel: X25519 handshake where each side
    // signs its ephemeral public key — the controller with Ctrl_priv (already
    // bound to the device by the certificate), the vendor with the key
    // embedded in the controller binary.
    let mut ctrl_secret = rng.bytes32();
    ctrl_secret = x25519::clamp_scalar(ctrl_secret);
    let ctrl_public = x25519::public_key(&ctrl_secret);
    let ctrl_sig = device.controller().sign(&ctrl_public);

    let mut vendor_secret = rng.bytes32();
    vendor_secret = x25519::clamp_scalar(vendor_secret);
    let vendor_public = x25519::public_key(&vendor_secret);
    let vendor_sig = vendor.keypair.signing.sign(&vendor_public);

    // Controller checks the vendor signature with the embedded key.
    device
        .controller()
        .ip_vendor_public()
        .verify(&vendor_public, &vendor_sig)
        .map_err(|_| CoreError::AttestationFailed("vendor channel authentication"))?;
    // Vendor checks the controller signature with the certified Ctrl_pub.
    cert.binary_cert
        .controller_public
        .verify(&ctrl_public, &ctrl_sig)
        .map_err(|_| CoreError::AttestationFailed("controller channel authentication"))?;

    // Both sides derive the shared channel key.
    let vendor_shared = x25519::shared_secret(&vendor_secret, &ctrl_public);
    let ctrl_shared = x25519::shared_secret(&ctrl_secret, &vendor_public);
    if vendor_shared != ctrl_shared {
        return Err(CoreError::AttestationFailed("key agreement"));
    }
    // One HKDF expansion yields the channel key *and* a distinct nonce per
    // sealed message. Both parties derive them identically; reusing a fixed
    // nonce for the bitstream and the secrets under the same key would let a
    // network observer XOR the two ciphertexts (stream-cipher keystream
    // reuse).
    let channel_okm = hkdf(
        &nonce,
        &vendor_shared,
        b"tnic remote attestation channel",
        32 + 12 + 12,
    );
    let channel = SecretBox::new(&channel_okm[..32]);
    let nonce_bitstream: [u8; 12] = channel_okm[32..44].try_into().expect("sized");
    let nonce_secrets: [u8; 12] = channel_okm[44..56].try_into().expect("sized");

    // The device half of the attestation is now complete.
    monitor.observe(ActionFact::DeviceAttested {
        device: device_id,
        connection,
    });

    // (7)-(8) Vendor seals the bitstream and the designer's secrets; the
    // controller opens them, loads the bitstream and installs the session keys.
    let mut secrets = Vec::new();
    for (session, key) in &config.session_keys {
        secrets.extend_from_slice(&session.0.to_le_bytes());
        secrets.extend_from_slice(key);
    }
    let sealed_bitstream = channel.seal(&nonce_bitstream, b"bitstream", &vendor.bitstream);
    let sealed_secrets = channel.seal(&nonce_secrets, b"secrets", &secrets);

    let bitstream = channel
        .open(&nonce_bitstream, b"bitstream", &sealed_bitstream)
        .map_err(|_| CoreError::AttestationFailed("bitstream decryption"))?;
    let opened_secrets = channel
        .open(&nonce_secrets, b"secrets", &sealed_secrets)
        .map_err(|_| CoreError::AttestationFailed("secret decryption"))?;

    device.controller_mut().install_bitstream(bitstream);
    let mut sessions_installed = 0;
    for chunk in opened_secrets.chunks_exact(36) {
        let session = SessionId(u32::from_le_bytes(chunk[..4].try_into().unwrap()));
        let mut key = [0u8; 32];
        key.copy_from_slice(&chunk[4..]);
        device.provision_session(session, key);
        sessions_installed += 1;
    }

    // Vendor-side completion.
    monitor.observe(ActionFact::VendorAttested {
        device: device_id,
        connection,
    });

    let bitstream_hash = device
        .controller()
        .bitstream_measurement()
        .map_err(CoreError::Device)?;
    Ok(AttestationReport {
        device: device_id,
        sessions_installed,
        bitstream_hash,
    })
}

/// A convenience helper: manufactures a device, builds the matching vendor and
/// runs remote attestation end to end. Returns the provisioned device, the
/// report and the monitor that observed the protocol.
///
/// # Errors
///
/// Propagates [`CoreError::AttestationFailed`] if any step fails.
pub fn provision_device(
    device_id: DeviceId,
    sessions: u32,
    seed: u64,
) -> Result<(TnicDevice, AttestationReport, LemmaMonitor), CoreError> {
    let mut rng = DetRng::new(seed);
    let mut monitor = LemmaMonitor::default();

    let mut manufacturer = Manufacturer::new();
    let hw_key = manufacturer.burn_hw_key(device_id, &mut rng);
    let binary = ControllerBinary::reference("1.0");
    let vendor_seed = rng.bytes32();
    let mut vendor = IpVendor::new(
        vendor_seed,
        manufacturer.disclose_to_vendor(),
        &binary,
        b"tnic-bitstream-v1".to_vec(),
    );

    let mut device = TnicDevice::new(
        tnic_device::types::DeviceConfig::for_device(device_id),
        hw_key,
        vendor.public_key(),
        rng.bytes32(),
    );

    let config = DesignerConfig::with_sessions(sessions, &mut rng);
    let report = run_remote_attestation(&mut vendor, &mut device, &config, &mut rng, &mut monitor)?;
    Ok((device, report, monitor))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnic_device::types::DeviceConfig;

    #[test]
    fn end_to_end_provisioning_succeeds() {
        let (device, report, monitor) = provision_device(DeviceId(7), 3, 99).unwrap();
        assert_eq!(report.device, DeviceId(7));
        assert_eq!(report.sessions_installed, 3);
        assert!(device.controller().is_provisioned());
        assert!(device.has_session(SessionId(1)));
        assert!(device.has_session(SessionId(3)));
        assert!(!device.has_session(SessionId(4)));
        assert!(
            monitor.violations().is_empty(),
            "{:?}",
            monitor.violations()
        );
    }

    #[test]
    fn wrong_hardware_key_fails_attestation() {
        let mut rng = DetRng::new(5);
        let mut monitor = LemmaMonitor::default();
        let binary = ControllerBinary::reference("1.0");
        // Vendor knows a *different* hardware key than the one in the device.
        let mut hw_keys = HashMap::new();
        hw_keys.insert(DeviceId(1), HardwareKey([0xAA; 32]));
        let mut vendor = IpVendor::new(rng.bytes32(), hw_keys, &binary, b"bits".to_vec());
        let mut device = TnicDevice::new(
            DeviceConfig::for_device(DeviceId(1)),
            HardwareKey([0xBB; 32]),
            vendor.public_key(),
            rng.bytes32(),
        );
        let config = DesignerConfig::with_sessions(1, &mut rng);
        let err = run_remote_attestation(&mut vendor, &mut device, &config, &mut rng, &mut monitor)
            .unwrap_err();
        assert_eq!(
            err,
            CoreError::AttestationFailed("certificate verification")
        );
        assert!(!device.controller().is_provisioned());
    }

    #[test]
    fn wrong_binary_measurement_fails_attestation() {
        let mut rng = DetRng::new(6);
        let mut monitor = LemmaMonitor::default();
        let mut manufacturer = Manufacturer::new();
        let hw_key = manufacturer.burn_hw_key(DeviceId(2), &mut rng);
        // The vendor expects version 2.0 but the device runs 1.0.
        let expected = ControllerBinary::reference("2.0");
        let mut vendor = IpVendor::new(
            rng.bytes32(),
            manufacturer.disclose_to_vendor(),
            &expected,
            b"bits".to_vec(),
        );
        let mut device = TnicDevice::new(
            DeviceConfig::for_device(DeviceId(2)),
            hw_key,
            vendor.public_key(),
            rng.bytes32(),
        );
        let config = DesignerConfig::with_sessions(1, &mut rng);
        assert!(
            run_remote_attestation(&mut vendor, &mut device, &config, &mut rng, &mut monitor)
                .is_err()
        );
    }

    #[test]
    fn unknown_device_fails_attestation() {
        let mut rng = DetRng::new(7);
        let mut monitor = LemmaMonitor::default();
        let binary = ControllerBinary::reference("1.0");
        let mut vendor = IpVendor::new(rng.bytes32(), HashMap::new(), &binary, b"bits".to_vec());
        let mut device = TnicDevice::new(
            DeviceConfig::for_device(DeviceId(3)),
            HardwareKey([1u8; 32]),
            vendor.public_key(),
            rng.bytes32(),
        );
        let config = DesignerConfig::default();
        let err = run_remote_attestation(&mut vendor, &mut device, &config, &mut rng, &mut monitor)
            .unwrap_err();
        assert_eq!(err, CoreError::AttestationFailed("unknown device"));
    }

    #[test]
    fn provisioned_devices_share_working_sessions() {
        // Two devices provisioned with the same designer config can exchange
        // attested messages on the shared sessions.
        let mut rng = DetRng::new(8);
        let mut monitor = LemmaMonitor::default();
        let mut manufacturer = Manufacturer::new();
        let binary = ControllerBinary::reference("1.0");
        let k1 = manufacturer.burn_hw_key(DeviceId(1), &mut rng);
        let k2 = manufacturer.burn_hw_key(DeviceId(2), &mut rng);
        let mut vendor = IpVendor::new(
            rng.bytes32(),
            manufacturer.disclose_to_vendor(),
            &binary,
            b"bits".to_vec(),
        );
        let mut d1 = TnicDevice::new(
            DeviceConfig::for_device(DeviceId(1)),
            k1,
            vendor.public_key(),
            rng.bytes32(),
        );
        let mut d2 = TnicDevice::new(
            DeviceConfig::for_device(DeviceId(2)),
            k2,
            vendor.public_key(),
            rng.bytes32(),
        );
        let config = DesignerConfig::with_sessions(1, &mut rng);
        run_remote_attestation(&mut vendor, &mut d1, &config, &mut rng, &mut monitor).unwrap();
        run_remote_attestation(&mut vendor, &mut d2, &config, &mut rng, &mut monitor).unwrap();
        let (msg, _) = d1.local_send(SessionId(1), b"cross-device").unwrap();
        d2.local_verify(&msg).unwrap();
        assert!(monitor.violations().is_empty());
    }
}
