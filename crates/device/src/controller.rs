//! Device-side bootstrapping state: hardware key, controller binary and
//! controller key pair (paper §4.3).
//!
//! At manufacturing time a device-unique hardware key `HW_key` is burnt into
//! the card. The firmware later loads the controller binary `Ctrl_bin`,
//! generates a key pair `Ctrl_pub/priv` for this device and binary, and signs
//! the measurement `m = <H(Ctrl_bin), Ctrl_pub>` with `HW_key`, producing the
//! certificate used during remote attestation. The remote-attestation message
//! flow itself is orchestrated by `tnic-core::attestation`; this module only
//! holds the trusted device-side state and primitive operations.

use crate::error::DeviceError;
use crate::types::DeviceId;
use tnic_crypto::ed25519::{Keypair, Signature, VerifyingKey};
use tnic_crypto::hmac::{hmac_sha256, verify_hmac_sha256};
use tnic_crypto::sha256::sha256;

/// The device-unique secret burnt by the manufacturer.
///
/// The manufacturer shares it with the (trusted) IP vendor so the vendor can
/// check that measurements really come from a genuine device.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct HardwareKey(pub [u8; 32]);

impl std::fmt::Debug for HardwareKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("HardwareKey(<redacted>)")
    }
}

/// The controller firmware binary (modelled as its raw bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerBinary {
    /// The binary image.
    pub image: Vec<u8>,
    /// Human-readable version tag.
    pub version: String,
}

impl ControllerBinary {
    /// A reference controller binary for tests and examples.
    #[must_use]
    pub fn reference(version: &str) -> Self {
        ControllerBinary {
            image: format!("tnic-controller-{version}").into_bytes(),
            version: version.to_owned(),
        }
    }

    /// SHA-256 measurement of the binary.
    #[must_use]
    pub fn measurement(&self) -> [u8; 32] {
        sha256(&self.image)
    }
}

/// The measurement certificate `Ctrl_bin cert = <m, Sign(m, HW_key)>` where
/// `m = <H(Ctrl_bin), Ctrl_pub>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryCertificate {
    /// Hash of the controller binary.
    pub binary_hash: [u8; 32],
    /// The controller's public key.
    pub controller_public: VerifyingKey,
    /// HMAC of the measurement under the hardware key.
    pub hw_signature: [u8; 32],
}

impl BinaryCertificate {
    fn measurement_bytes(binary_hash: &[u8; 32], controller_public: &VerifyingKey) -> Vec<u8> {
        let mut m = Vec::with_capacity(64);
        m.extend_from_slice(binary_hash);
        m.extend_from_slice(&controller_public.to_bytes());
        m
    }

    /// Verifies the certificate against a hardware key and an expected binary
    /// measurement (what the IP vendor does in step 4 of Figure 3).
    #[must_use]
    pub fn verify(&self, hw_key: &HardwareKey, expected_binary_hash: &[u8; 32]) -> bool {
        if &self.binary_hash != expected_binary_hash {
            return false;
        }
        let m = Self::measurement_bytes(&self.binary_hash, &self.controller_public);
        verify_hmac_sha256(&hw_key.0, &m, &self.hw_signature)
    }
}

/// A nonce-bound attestation certificate `cert = <n, Ctrl_bin cert>` signed
/// with the controller key (steps 2–3 of Figure 3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationCertificate {
    /// The IP vendor's freshness nonce.
    pub nonce: [u8; 32],
    /// The embedded binary certificate.
    pub binary_cert: BinaryCertificate,
    /// Signature over `nonce ‖ binary_cert` with `Ctrl_priv`.
    pub signature: Signature,
}

impl AttestationCertificate {
    fn signed_bytes(nonce: &[u8; 32], binary_cert: &BinaryCertificate) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(nonce);
        out.extend_from_slice(&binary_cert.binary_hash);
        out.extend_from_slice(&binary_cert.controller_public.to_bytes());
        out.extend_from_slice(&binary_cert.hw_signature);
        out
    }

    /// Verifies the controller signature and the embedded binary certificate.
    #[must_use]
    pub fn verify(
        &self,
        hw_key: &HardwareKey,
        expected_binary_hash: &[u8; 32],
        expected_nonce: &[u8; 32],
    ) -> bool {
        if &self.nonce != expected_nonce {
            return false;
        }
        if !self.binary_cert.verify(hw_key, expected_binary_hash) {
            return false;
        }
        let bytes = Self::signed_bytes(&self.nonce, &self.binary_cert);
        self.binary_cert
            .controller_public
            .verify(&bytes, &self.signature)
            .is_ok()
    }
}

/// The controller running on the TNIC device during bootstrapping and remote
/// attestation.
#[derive(Debug, Clone)]
pub struct DeviceController {
    device: DeviceId,
    hw_key: HardwareKey,
    binary: ControllerBinary,
    keypair: Keypair,
    ip_vendor_public: VerifyingKey,
    bitstream: Option<Vec<u8>>,
}

impl DeviceController {
    /// Boots the controller: loads the binary, generates the per-device
    /// controller key pair and records the embedded IP-vendor public key.
    #[must_use]
    pub fn boot(
        device: DeviceId,
        hw_key: HardwareKey,
        binary: ControllerBinary,
        ip_vendor_public: VerifyingKey,
        key_seed: [u8; 32],
    ) -> Self {
        DeviceController {
            device,
            hw_key,
            binary,
            keypair: Keypair::from_seed(&key_seed),
            ip_vendor_public,
            bitstream: None,
        }
    }

    /// The device this controller runs on.
    #[must_use]
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// The controller's public key.
    #[must_use]
    pub fn public_key(&self) -> VerifyingKey {
        self.keypair.verifying
    }

    /// The IP vendor public key embedded in the controller binary.
    #[must_use]
    pub fn ip_vendor_public(&self) -> VerifyingKey {
        self.ip_vendor_public
    }

    /// Produces the `Ctrl_bin cert`: the measurement signed with the hardware
    /// key (done once by the firmware during bootstrapping).
    #[must_use]
    pub fn binary_certificate(&self) -> BinaryCertificate {
        let binary_hash = self.binary.measurement();
        let m = BinaryCertificate::measurement_bytes(&binary_hash, &self.keypair.verifying);
        BinaryCertificate {
            binary_hash,
            controller_public: self.keypair.verifying,
            hw_signature: hmac_sha256(&self.hw_key.0, &m),
        }
    }

    /// Produces the nonce-bound attestation certificate (steps 2–3 of
    /// Figure 3) in response to the IP vendor's challenge.
    #[must_use]
    pub fn certify(&self, nonce: [u8; 32]) -> AttestationCertificate {
        let binary_cert = self.binary_certificate();
        let bytes = AttestationCertificate::signed_bytes(&nonce, &binary_cert);
        AttestationCertificate {
            nonce,
            binary_cert,
            signature: self.keypair.signing.sign(&bytes),
        }
    }

    /// Signs arbitrary channel-establishment data with the controller key
    /// (used for the mutually authenticated TLS-like handshake).
    #[must_use]
    pub fn sign(&self, data: &[u8]) -> Signature {
        self.keypair.signing.sign(data)
    }

    /// Installs the decrypted TNIC bitstream received from the IP vendor
    /// (step 7/17 of the protocol). The device is provisioned afterwards.
    pub fn install_bitstream(&mut self, bitstream: Vec<u8>) {
        self.bitstream = Some(bitstream);
    }

    /// Returns `true` once a bitstream has been installed.
    #[must_use]
    pub fn is_provisioned(&self) -> bool {
        self.bitstream.is_some()
    }

    /// The hash of the installed bitstream.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::NotProvisioned`] if no bitstream is installed.
    pub fn bitstream_measurement(&self) -> Result<[u8; 32], DeviceError> {
        self.bitstream
            .as_ref()
            .map(|b| sha256(b))
            .ok_or(DeviceError::NotProvisioned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> (DeviceController, HardwareKey, ControllerBinary, Keypair) {
        let hw_key = HardwareKey([0x11; 32]);
        let binary = ControllerBinary::reference("1.0");
        let vendor = Keypair::from_seed(&[0x22; 32]);
        let ctrl = DeviceController::boot(
            DeviceId(1),
            hw_key,
            binary.clone(),
            vendor.verifying,
            [0x33; 32],
        );
        (ctrl, hw_key, binary, vendor)
    }

    #[test]
    fn binary_certificate_verifies_with_correct_hw_key() {
        let (ctrl, hw_key, binary, _) = controller();
        let cert = ctrl.binary_certificate();
        assert!(cert.verify(&hw_key, &binary.measurement()));
    }

    #[test]
    fn binary_certificate_rejects_wrong_key_or_binary() {
        let (ctrl, _, binary, _) = controller();
        let cert = ctrl.binary_certificate();
        assert!(!cert.verify(&HardwareKey([0x99; 32]), &binary.measurement()));
        let other = ControllerBinary::reference("2.0");
        let (_, hw_key, _, _) = controller();
        assert!(!cert.verify(&hw_key, &other.measurement()));
    }

    #[test]
    fn attestation_certificate_binds_nonce() {
        let (ctrl, hw_key, binary, _) = controller();
        let nonce = [0x55; 32];
        let cert = ctrl.certify(nonce);
        assert!(cert.verify(&hw_key, &binary.measurement(), &nonce));
        assert!(!cert.verify(&hw_key, &binary.measurement(), &[0x56; 32]));
    }

    #[test]
    fn attestation_certificate_signature_tamper_detected() {
        let (ctrl, hw_key, binary, _) = controller();
        let nonce = [0x55; 32];
        let mut cert = ctrl.certify(nonce);
        let mut sig = cert.signature.to_bytes();
        sig[0] ^= 1;
        cert.signature = Signature(sig);
        assert!(!cert.verify(&hw_key, &binary.measurement(), &nonce));
    }

    #[test]
    fn bitstream_installation_marks_provisioned() {
        let (mut ctrl, _, _, _) = controller();
        assert!(!ctrl.is_provisioned());
        assert_eq!(
            ctrl.bitstream_measurement(),
            Err(DeviceError::NotProvisioned)
        );
        ctrl.install_bitstream(b"tnic-bitstream-v1".to_vec());
        assert!(ctrl.is_provisioned());
        assert_eq!(
            ctrl.bitstream_measurement().unwrap(),
            sha256(b"tnic-bitstream-v1")
        );
    }

    #[test]
    fn debug_does_not_leak_hw_key() {
        let (ctrl, _, _, _) = controller();
        assert!(format!("{ctrl:?}").contains("redacted"));
    }
}
