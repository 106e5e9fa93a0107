//! Constant-time comparison helpers.
//!
//! The attestation kernel compares received HMAC attestations against locally
//! recomputed ones; doing so with a short-circuiting comparison would leak the
//! position of the first mismatching byte. These helpers compare in time that
//! depends only on the input length.

/// Compares two byte slices in constant time (with respect to their content).
///
/// Returns `true` if and only if `a` and `b` have the same length and content.
///
/// # Example
///
/// ```
/// use tnic_crypto::ct::ct_eq;
/// assert!(ct_eq(b"abc", b"abc"));
/// assert!(!ct_eq(b"abc", b"abd"));
/// assert!(!ct_eq(b"abc", b"ab"));
/// ```
#[must_use]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff: u8 = 0;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_slices() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
    }

    #[test]
    fn unequal_slices() {
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
        assert!(!ct_eq(&[0], &[]));
    }
}
