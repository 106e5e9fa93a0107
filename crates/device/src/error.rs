//! Error types for the TNIC device model.

use crate::types::{QueuePairId, SessionId};
use std::error::Error;
use std::fmt;

/// Errors raised by the TNIC hardware model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceError {
    /// No key installed for the given session.
    UnknownSession(SessionId),
    /// No state for the given queue pair.
    UnknownQueuePair(QueuePairId),
    /// The attestation MAC did not verify (transferable authentication
    /// violation or corrupted message).
    BadAttestation,
    /// The message counter did not match the expected receive counter
    /// (equivocation, replay, reordering or loss).
    CounterMismatch {
        /// Counter carried by the message.
        received: u64,
        /// Counter the device expected next.
        expected: u64,
    },
    /// A malformed wire message could not be decoded.
    MalformedMessage(&'static str),
    /// ARP lookup failed for the destination address.
    ArpMiss,
    /// The device has not been bootstrapped / attested yet.
    NotProvisioned,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::UnknownSession(s) => write!(f, "no key installed for session {s}"),
            DeviceError::UnknownQueuePair(qp) => write!(f, "unknown queue pair {qp}"),
            DeviceError::BadAttestation => write!(f, "attestation verification failed"),
            DeviceError::CounterMismatch { received, expected } => write!(
                f,
                "counter mismatch: received {received}, expected {expected}"
            ),
            DeviceError::MalformedMessage(what) => write!(f, "malformed message: {what}"),
            DeviceError::ArpMiss => write!(f, "arp lookup failed"),
            DeviceError::NotProvisioned => write!(f, "device has not been provisioned"),
        }
    }
}

impl Error for DeviceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_detail() {
        let e = DeviceError::CounterMismatch {
            received: 5,
            expected: 3,
        };
        let s = e.to_string();
        assert!(s.contains('5') && s.contains('3'));
        assert!(DeviceError::UnknownSession(SessionId(9))
            .to_string()
            .contains("s9"));
    }

    #[test]
    fn error_trait_object() {
        let e: Box<dyn Error> = Box::new(DeviceError::BadAttestation);
        assert!(!e.to_string().is_empty());
    }
}
