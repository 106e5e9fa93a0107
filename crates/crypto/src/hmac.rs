//! HMAC (RFC 2104) over SHA-256.
//!
//! The TNIC attestation kernel (paper §4.1, Algorithm 1) computes
//! `α = hmac(keys[c_id], msg || ID || cnt)`; this module provides that
//! primitive for both the simulated NIC hardware and the host-side TEE
//! baselines.
//!
//! HMAC-SHA-256 is built on a *prepared key*, [`HmacSha256Key`]: the hash
//! state after the key's ipad block and after its opad block. A party that
//! keeps a key — the kernel's session keys sit in static on-chip memory —
//! keeps the prepared form beside it and starts every MAC from there, which
//! leaves the message blocks and one outer block to compress.

use crate::sha256::{self, Sha256};

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

/// An HMAC-SHA-256 key prepared for repeated use: the two SHA-256 chaining
/// values left after compressing the key's ipad and opad blocks (2 × 32 B).
///
/// Both blocks depend on the key alone, so a holder of many messages under
/// one key — the attestation kernel's per-session key in static on-chip
/// memory — pays for them once instead of on every MAC: a 64 B attested
/// message costs three compressions instead of five. [`HmacSha256::new`]
/// prepares a key and starts from it, so this is the only HMAC-SHA-256
/// there is; the one-shot [`hmac_sha256`] prepares its key on every call.
///
/// A prepared key forges exactly what the raw key forges. Treat it as the
/// key: keep it where the key is kept, drop it when the key is replaced, and
/// never print it (its `Debug` shows no field).
#[derive(Clone)]
pub struct HmacSha256Key {
    inner: [u32; 8],
    outer: [u32; 8],
}

impl HmacSha256Key {
    /// Prepares `key`. Keys of any length are accepted: keys longer than the
    /// block size are hashed first, exactly as RFC 2104 prescribes.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        const BLOCK: usize = sha256::BLOCK_LEN;
        let mut key_block = [0u8; BLOCK];
        if key.len() > BLOCK {
            key_block[..32].copy_from_slice(&sha256::sha256(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }
        let after_pad = |pad: u8| {
            let mut hasher = Sha256::new();
            hasher.update(&key_block.map(|b| b ^ pad));
            hasher.chaining_value()
        };
        HmacSha256Key {
            inner: after_pad(0x36),
            outer: after_pad(0x5c),
        }
    }

    /// Starts a MAC under this key.
    #[must_use]
    pub fn start(&self) -> HmacSha256 {
        HmacSha256 {
            inner: Sha256::resume(self.inner, 1),
            outer: self.outer,
        }
    }
}

impl std::fmt::Debug for HmacSha256Key {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Both chaining values are key-equivalent.
        f.debug_struct("HmacSha256Key").finish_non_exhaustive()
    }
}

/// Incremental HMAC-SHA-256 context.
///
/// Useful when the authenticated message is assembled from several parts
/// (payload, device id, counter) without intermediate copies, which is how the
/// attestation kernel's data path operates.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: [u32; 8],
}

impl HmacSha256 {
    /// Creates a new context keyed with `key`. A caller that MACs many
    /// messages under one key prepares it once ([`HmacSha256Key::new`]) and
    /// calls [`HmacSha256Key::start`] per message instead.
    #[must_use]
    pub fn new(key: &[u8]) -> Self {
        HmacSha256Key::new(key).start()
    }

    /// Feeds more message bytes into the MAC.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes the computation and returns the 32-byte tag.
    #[must_use]
    pub fn finalize(self) -> [u8; 32] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::resume(self.outer, 1);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The inner hash state and the outer chaining value are derived from
        // the key alone until message bytes arrive.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::seeded_bytes;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks a known-answer vector on the one-shot function and on one
    /// prepared key started twice, whole and byte by byte.
    fn assert_mac(key: &[u8], data: &[u8], expected: &str) {
        assert_eq!(hex(&hmac_sha256(key, data)), expected);
        let prepared = HmacSha256Key::new(key);
        let mut whole = prepared.start();
        whole.update(data);
        assert_eq!(hex(&whole.finalize()), expected);
        let mut bytewise = prepared.start();
        for byte in data {
            bytewise.update(std::slice::from_ref(byte));
        }
        assert_eq!(hex(&bytewise.finalize()), expected);
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let data = b"Hi There";
        assert_mac(
            &key,
            data,
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case2() {
        assert_mac(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    // RFC 4231 test case 3: 20-byte 0xaa key, 50-byte 0xdd data.
    #[test]
    fn rfc4231_case3() {
        assert_mac(
            &[0xaau8; 20],
            &[0xddu8; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    // RFC 4231 test cases 4 (25-byte counting key), 5 (tag truncated to
    // 128 bits) and 7 (key and data both longer than a block).
    #[test]
    fn rfc4231_cases_4_5_7() {
        let key4: Vec<u8> = (1..=25).collect();
        assert_mac(
            &key4,
            &[0xcdu8; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
        let mut case5 = HmacSha256Key::new(&[0x0cu8; 20]).start();
        case5.update(b"Test With Truncation");
        assert_eq!(
            hex(&case5.finalize()[..16]),
            "a3b6167473100ee06e0c796c2955552b"
        );
        assert_mac(
            &[0xaau8; 131],
            b"This is a test using a larger than block-size key and a larger than \
              block-size data. The key needs to be hashed before being used by the HMAC \
              algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case6_long_key() {
        assert_mac(
            &[0xaau8; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    // A key of exactly one block is used as it is, one byte more is hashed
    // first (expected values from Python's `hmac`).
    #[test]
    fn block_sized_key_is_not_hashed_first() {
        let key: Vec<u8> = (0..65).collect();
        assert_mac(
            &key[..64],
            b"exactly one block of key",
            "aed89a53f83495834369f6c764db660e0e41d224347eb2b6f2054241399e36e2",
        );
        assert_mac(
            &key,
            b"one byte over a block of key",
            "71f187949fa0f711f958715e6e173bc75ed3b174fc56575af118483a668f02cf",
        );
    }

    #[test]
    fn wikipedia_fox_vector() {
        assert_mac(
            b"key",
            b"The quick brown fox jumps over the lazy dog",
            "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8",
        );
    }

    /// RFC 2104 as written, `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))` over whole
    /// buffers: shares only the hash function with the prepared-key path.
    fn rfc2104_reference(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut block = [0u8; sha256::BLOCK_LEN];
        if key.len() > block.len() {
            block[..32].copy_from_slice(&sha256::sha256(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner = block.map(|b| b ^ 0x36).to_vec();
        inner.extend_from_slice(message);
        let mut outer = block.map(|b| b ^ 0x5c).to_vec();
        outer.extend_from_slice(&sha256::sha256(&inner));
        sha256::sha256(&outer)
    }

    #[test]
    fn prepared_key_matches_rfc2104_at_every_length() {
        const KIB8: usize = 8 << 10;
        let data = seeded_bytes(3, KIB8 + 1);
        // Every short length, and one byte before, on and one byte after
        // every block edge up to 8 KiB.
        let lengths: Vec<usize> = (0..=200)
            .chain(
                (256..=KIB8)
                    .step_by(sha256::BLOCK_LEN)
                    .flat_map(|edge| edge - 1..=edge + 1),
            )
            .collect();
        for seed in 0..64u8 {
            // Short, digest-sized, block-sized and hashed-first keys.
            let key_len = [0, 1, 20, 32, 63, 64, 65, 131][usize::from(seed) % 8];
            let key = seeded_bytes(100 + seed, key_len);
            let prepared = HmacSha256Key::new(&key);
            for &len in &lengths {
                let mut mac = prepared.start();
                mac.update(&data[..len]);
                assert_eq!(
                    mac.finalize(),
                    rfc2104_reference(&key, &data[..len]),
                    "key seed {seed} ({key_len} B), message {len} B"
                );
            }
        }
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
    fn different_keys_differ() {
        assert_ne!(hmac_sha256(b"a", b"msg"), hmac_sha256(b"b", b"msg"));
    }

    #[test]
    fn debug_never_prints_keys() {
        // Both chaining values and the running hash state are derived from
        // the key; `Debug` shows the type name and nothing else.
        let key = HmacSha256Key::new(&[0xAB; 32]);
        let mut running = key.start();
        running.update(b"message bytes");
        assert_eq!(format!("{key:?}"), "HmacSha256Key { .. }");
        assert_eq!(format!("{key:#?}"), "HmacSha256Key { .. }");
        assert_eq!(format!("{running:?}"), "HmacSha256 { .. }");
    }
}
