//! Error type shared by the fallible operations in this crate.

use std::error::Error;
use std::fmt;

/// Errors returned by cryptographic operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CryptoError {
    /// A signature failed to verify against the given public key and message.
    InvalidSignature,
    /// An encoded point was not a valid curve point.
    InvalidPoint,
    /// An encoded scalar was out of range or malformed.
    InvalidScalar,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let msg = match self {
            CryptoError::InvalidSignature => "signature verification failed",
            CryptoError::InvalidPoint => "invalid curve point encoding",
            CryptoError::InvalidScalar => "invalid scalar encoding",
        };
        f.write_str(msg)
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let variants = [
            CryptoError::InvalidSignature,
            CryptoError::InvalidPoint,
            CryptoError::InvalidScalar,
        ];
        for v in variants {
            let s = v.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
