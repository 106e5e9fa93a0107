//! HMAC (RFC 2104) over SHA-256 and SHA-512.
//!
//! The TNIC attestation kernel (paper §4.1, Algorithm 1) computes
//! `α = hmac(keys[c_id], msg || ID || cnt)`; this module provides that
//! primitive for both the simulated NIC hardware and the host-side TEE
//! baselines.

use crate::sha256::{self, Sha256};
use crate::sha512::{self, Sha512};

/// Computes `HMAC-SHA-256(key, message)`.
///
/// Keys of any length are accepted: keys longer than the block size are
/// hashed first, exactly as RFC 2104 prescribes.
///
/// # Example
///
/// ```
/// use tnic_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(tag[0], 0xf7);
/// ```
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let mut ctx = HmacSha256::new(key);
    ctx.update(message);
    ctx.finalize()
}

/// Computes `HMAC-SHA-512(key, message)`.
#[must_use]
pub fn hmac_sha512(key: &[u8], message: &[u8]) -> [u8; 64] {
    const BLOCK: usize = sha512::BLOCK_LEN;
    let mut key_block = [0u8; BLOCK];
    if key.len() > BLOCK {
        key_block[..64].copy_from_slice(&sha512::sha512(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    let mut ipad = [0u8; BLOCK];
    let mut opad = [0u8; BLOCK];
    for i in 0..BLOCK {
        ipad[i] = key_block[i] ^ 0x36;
        opad[i] = key_block[i] ^ 0x5c;
    }
    let mut inner = Sha512::new();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = Sha512::new();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Incremental HMAC-SHA-256 context.
///
/// Useful when the authenticated message is assembled from several parts
/// (payload, device id, counter) without intermediate copies, which is how the
/// attestation kernel's data path operates.
#[derive(Debug, Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad: [u8; sha256::BLOCK_LEN],
}

impl HmacSha256 {
    /// Creates a new context keyed with `key`.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        const BLOCK: usize = sha256::BLOCK_LEN;
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK];
        let mut opad = [0u8; BLOCK];
        for i in 0..BLOCK {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 { inner, opad }
    }

    /// Feeds more message bytes into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Verifies an HMAC-SHA-256 tag in constant time.
#[must_use]
pub fn verify_hmac_sha256(key: &[u8], message: &[u8], tag: &[u8]) -> bool {
    crate::ct::ct_eq(&hmac_sha256(key, message), tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex(&hmac_sha512(&key, data)),
            "87aa7cdea5ef619d4ff0b4241a1d6cb02379f4e2ce4ec2787ad0b30545e17cde\
             daa833b7d6b8a702038b274eaea3f4e4be9d914eeb61f1702e696c203a126854"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_eq!(
            hex(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_case3() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        assert_eq!(
            hex(&hmac_sha256(&key, &data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let data = b"Test Using Larger Than Block-Size Key - Hash Key First";
        assert_eq!(
            hex(&hmac_sha256(&key, data)),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn wikipedia_fox_vector() {
        assert_eq!(
            hex(&hmac_sha256(
                b"key",
                b"The quick brown fox jumps over the lazy dog"
            )),
            "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let key = b"session-key-0123456789";
        let parts: [&[u8]; 3] = [b"message", b"||device-7||", b"counter-42"];
        let joined: Vec<u8> = parts.concat();
        let mut ctx = HmacSha256::new(key);
        for p in parts {
            ctx.update(p);
        }
        assert_eq!(ctx.finalize(), hmac_sha256(key, &joined));
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let tag = hmac_sha256(b"k", b"m");
        assert!(verify_hmac_sha256(b"k", b"m", &tag));
        assert!(!verify_hmac_sha256(b"k", b"m2", &tag));
        assert!(!verify_hmac_sha256(b"k2", b"m", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify_hmac_sha256(b"k", b"m", &bad));
    }

    #[test]
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"a", b"msg"), hmac_sha256(b"b", b"msg"));
    }
}
