//! Error type of the TNIC core library.

use std::error::Error;
use std::fmt;
use tnic_crypto::CryptoError;
use tnic_device::DeviceError;

/// Errors surfaced by the TNIC programming API, the transformation recipe and
/// the remote-attestation protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// An error raised by the (simulated) TNIC hardware or a TEE baseline.
    Device(DeviceError),
    /// A cryptographic operation failed.
    Crypto(CryptoError),
    /// The referenced node is not part of the cluster.
    UnknownNode(u32),
    /// No session has been established with the peer.
    NoSession {
        /// The local node.
        from: u32,
        /// The peer node.
        to: u32,
    },
    /// Remote attestation failed at the named step.
    AttestationFailed(&'static str),
    /// An application's simulate-and-check step rejected a message (a
    /// malformed proof or operation, or metadata that disagrees with its
    /// attestation).
    TransformViolation(&'static str),
    /// A property lemma was violated on the recorded trace.
    PropertyViolation(String),
    /// The peer is not currently reachable — departed, crash-stopped or cut
    /// off by an open network partition. The send was refused *before* the
    /// attested channel's session counter advanced, so the channel stays
    /// consistent for a later recovery.
    Unreachable {
        /// The sending node.
        from: u32,
        /// The unreachable peer.
        to: u32,
        /// Why the link is down (`"departed"`, `"crashed"`, `"partitioned"`).
        reason: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Device(e) => write!(f, "device error: {e}"),
            CoreError::Crypto(e) => write!(f, "crypto error: {e}"),
            CoreError::UnknownNode(n) => write!(f, "unknown node {n}"),
            CoreError::NoSession { from, to } => {
                write!(
                    f,
                    "no session established between node {from} and node {to}"
                )
            }
            CoreError::AttestationFailed(step) => write!(f, "remote attestation failed: {step}"),
            CoreError::TransformViolation(what) => write!(f, "transformation violation: {what}"),
            CoreError::PropertyViolation(what) => write!(f, "property violation: {what}"),
            CoreError::Unreachable { from, to, reason } => {
                write!(f, "node {to} unreachable from node {from} ({reason})")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Device(e) => Some(e),
            CoreError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DeviceError> for CoreError {
    fn from(e: DeviceError) -> Self {
        CoreError::Device(e)
    }
}

impl From<CryptoError> for CoreError {
    fn from(e: CryptoError) -> Self {
        CoreError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = DeviceError::BadAttestation.into();
        assert!(e.to_string().contains("attestation"));
        let e: CoreError = CryptoError::InvalidSignature.into();
        assert!(e.to_string().contains("crypto"));
        assert!(CoreError::NoSession { from: 1, to: 2 }
            .to_string()
            .contains('2'));
    }

    #[test]
    fn source_chains() {
        let e = CoreError::Device(DeviceError::ArpMiss);
        assert!(std::error::Error::source(&e).is_some());
        assert!(std::error::Error::source(&CoreError::UnknownNode(3)).is_none());
    }
}
