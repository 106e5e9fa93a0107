//! Ed25519 signatures (RFC 8032).
//!
//! TNIC uses signatures in two places (paper §4.3 and Appendix C.1): the
//! controller key pair `Ctrl_pub/priv` that signs attestation certificates
//! during bootstrapping, and the per-device client key pair `C_pub/priv` used
//! to sign replies to (Byzantine) clients that cannot hold the symmetric
//! session keys.

use crate::edwards::{EdwardsPoint, Radix16Table};
use crate::error::CryptoError;
use crate::scalar25519::Scalar;
use crate::sha512::Sha512;

/// Length of an Ed25519 signature in bytes.
pub const SIGNATURE_LEN: usize = 64;
/// Length of a public key in bytes.
pub const PUBLIC_KEY_LEN: usize = 32;
/// Length of a secret seed in bytes.
pub const SEED_LEN: usize = 32;

/// A detached Ed25519 signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; SIGNATURE_LEN]);

impl Signature {
    /// Returns the raw 64-byte encoding.
    #[must_use]
    pub fn to_bytes(self) -> [u8; SIGNATURE_LEN] {
        self.0
    }
}

/// An Ed25519 verifying (public) key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VerifyingKey(pub [u8; PUBLIC_KEY_LEN]);

impl VerifyingKey {
    /// Verifies `signature` over `message` by preparing this key for one
    /// use. A key that checks many signatures keeps its
    /// [`PreparedVerifyingKey`] instead and pays the preparation once.
    ///
    /// # Errors
    ///
    /// Those of [`PreparedVerifyingKey::verify`].
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        PreparedVerifyingKey::new(*self).verify(message, signature)
    }

    /// Returns the raw 32-byte encoding.
    #[must_use]
    pub fn to_bytes(self) -> [u8; PUBLIC_KEY_LEN] {
        self.0
    }
}

/// A verifying key readied for verification: it holds a 32 KiB fixed-base
/// table of −A, so `verify` computes `[k](−A) + [S]B` from two tables with
/// four doublings. Building the table costs about four verifications.
///
/// A key that does not decompress is accepted here and reported as
/// [`CryptoError::InvalidPoint`] by each `verify` whose `S` is canonical and
/// whose `R` decompresses.
pub struct PreparedVerifyingKey {
    key: VerifyingKey,
    /// The table of −A, or `None` when A does not decompress.
    minus_a: Option<Box<Radix16Table>>,
}

impl PreparedVerifyingKey {
    /// Decompresses `key` and builds the table of its negation.
    #[must_use]
    pub fn new(key: VerifyingKey) -> Self {
        let minus_a = EdwardsPoint::decompress(&key.0)
            .ok()
            .map(|a| Box::new(Radix16Table::new(&a.neg())));
        PreparedVerifyingKey { key, minus_a }
    }

    /// Verifies `signature` over `message`, checking in this order: `S` is
    /// canonical, `R` decompresses, `A` decompresses, then
    /// `[k](−A) + [S]B == R` for k = H(R ‖ A ‖ M).
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidSignature`] if the signature does not
    /// verify, or [`CryptoError::InvalidPoint`] / [`CryptoError::InvalidScalar`]
    /// if the key or signature encoding is malformed.
    pub fn verify(&self, message: &[u8], signature: &Signature) -> Result<(), CryptoError> {
        let sig = &signature.0;
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&sig[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig[32..]);

        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::InvalidScalar)?;
        let r_point = EdwardsPoint::decompress(&r_bytes)?;
        let minus_a = self.minus_a.as_deref().ok_or(CryptoError::InvalidPoint)?;

        let mut hasher = Sha512::new();
        hasher.update(&r_bytes);
        hasher.update(&self.key.0);
        hasher.update(message);
        let k = Scalar::from_bytes_mod_order_wide(&hasher.finalize());

        let terms = [
            (minus_a, &k.to_bytes()),
            (Radix16Table::basepoint(), &s.to_bytes()),
        ];
        if EdwardsPoint::fixed_base_mul(terms) == r_point {
            Ok(())
        } else {
            Err(CryptoError::InvalidSignature)
        }
    }
}

/// An Ed25519 signing (secret) key, derived from a 32-byte seed.
#[derive(Clone)]
pub struct SigningKey {
    /// The clamped secret scalar of RFC 8032 §5.1.5, reduced modulo ℓ.
    secret: Scalar,
    prefix: [u8; 32],
    public: VerifyingKey,
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigningKey")
            .field("public", &self.public)
            .field("secret", &"<redacted>")
            .finish()
    }
}

impl SigningKey {
    /// Derives a signing key from a 32-byte seed, per RFC 8032 §5.1.5.
    #[must_use]
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> Self {
        let mut h = Sha512::new();
        h.update(seed);
        let digest = h.finalize();
        let mut clamped = [0u8; 32];
        clamped.copy_from_slice(&digest[..32]);
        clamped[0] &= 248;
        clamped[31] &= 127;
        clamped[31] |= 64;
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&digest[32..]);
        let public_point = EdwardsPoint::basepoint_mul(&clamped);
        SigningKey {
            secret: Scalar::from_bytes_mod_order(&clamped),
            prefix,
            public: VerifyingKey(public_point.compress()),
        }
    }

    /// Returns the corresponding public key.
    #[must_use]
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Signs `message`, returning a detached signature.
    #[must_use]
    pub fn sign(&self, message: &[u8]) -> Signature {
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(message);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());
        let r_point = EdwardsPoint::basepoint_mul(&r.to_bytes());
        let r_bytes = r_point.compress();

        let mut h2 = Sha512::new();
        h2.update(&r_bytes);
        h2.update(&self.public.0);
        h2.update(message);
        let k = Scalar::from_bytes_mod_order_wide(&h2.finalize());

        let s = k.mul_add(&self.secret, &r);

        let mut sig = [0u8; SIGNATURE_LEN];
        sig[..32].copy_from_slice(&r_bytes);
        sig[32..].copy_from_slice(&s.to_bytes());
        Signature(sig)
    }
}

/// A convenience pairing of a signing key and its public key.
#[derive(Debug, Clone)]
pub struct Keypair {
    /// The secret half.
    pub signing: SigningKey,
    /// The public half.
    pub verifying: VerifyingKey,
}

impl Keypair {
    /// Derives a key pair deterministically from a seed.
    #[must_use]
    pub fn from_seed(seed: &[u8; SEED_LEN]) -> Self {
        let signing = SigningKey::from_seed(seed);
        let verifying = signing.verifying_key();
        Keypair { signing, verifying }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn unhex32(s: &str) -> [u8; 32] {
        let v = unhex(s);
        let mut out = [0u8; 32];
        out.copy_from_slice(&v);
        out
    }

    struct Vector {
        seed: &'static str,
        public: &'static str,
        message: &'static str,
        signature: &'static str,
    }

    const RFC8032_VECTORS: &[Vector] = &[
        Vector {
            seed: "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            public: "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            message: "",
            signature: "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
                        5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        },
        Vector {
            seed: "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            public: "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            message: "72",
            signature: "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
                        085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        },
        Vector {
            seed: "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            public: "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            message: "af82",
            signature: "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
                        18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        },
    ];

    #[test]
    fn rfc8032_public_keys() {
        for v in RFC8032_VECTORS {
            let key = SigningKey::from_seed(&unhex32(v.seed));
            assert_eq!(key.verifying_key().to_bytes(), unhex32(v.public));
        }
    }

    #[test]
    fn rfc8032_signatures() {
        for v in RFC8032_VECTORS {
            let key = SigningKey::from_seed(&unhex32(v.seed));
            let msg = unhex(v.message);
            let sig = key.sign(&msg);
            assert_eq!(sig.to_bytes().to_vec(), unhex(v.signature));
            key.verifying_key().verify(&msg, &sig).expect("verifies");
        }
    }

    #[test]
    fn tampered_message_rejected() {
        let key = SigningKey::from_seed(&[7u8; 32]);
        let sig = key.sign(b"proof of execution #42");
        assert!(key
            .verifying_key()
            .verify(b"proof of execution #43", &sig)
            .is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let key = SigningKey::from_seed(&[8u8; 32]);
        let mut sig = key.sign(b"msg").to_bytes();
        sig[5] ^= 1;
        assert!(key.verifying_key().verify(b"msg", &Signature(sig)).is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let key1 = SigningKey::from_seed(&[1u8; 32]);
        let key2 = SigningKey::from_seed(&[2u8; 32]);
        let sig = key1.sign(b"msg");
        assert!(key2.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn non_canonical_s_rejected() {
        let key = SigningKey::from_seed(&[3u8; 32]);
        let mut sig = key.sign(b"msg").to_bytes();
        // Force S >= L by setting its top bits.
        sig[63] |= 0xf0;
        assert_eq!(
            key.verifying_key().verify(b"msg", &Signature(sig)),
            Err(CryptoError::InvalidScalar)
        );
    }

    #[test]
    fn debug_does_not_leak_seed() {
        let key = SigningKey::from_seed(&[0xAAu8; 32]);
        let s = format!("{key:?}");
        assert!(s.contains("redacted"));
    }

    #[test]
    fn keypair_is_deterministic() {
        let a = Keypair::from_seed(&[5u8; 32]);
        let b = Keypair::from_seed(&[5u8; 32]);
        assert_eq!(a.verifying, b.verifying);
    }
}
