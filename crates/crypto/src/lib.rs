//! Cryptographic substrate for the TNIC reproduction.
//!
//! The TNIC paper's attestation kernel is built around HMAC over message
//! payloads, its remote-attestation protocol (Fig. 3) around device key pairs,
//! signatures and a mutually authenticated encrypted channel. This crate
//! provides all of those primitives implemented from scratch so the trusted
//! computing base of the simulated hardware is self-contained:
//!
//! * [`sha256`] / [`sha512`] — FIPS 180-4 hash functions.
//! * [`hmac`] — HMAC (RFC 2104) over either hash.
//! * [`hkdf`] — HKDF (RFC 5869) key derivation for session keys.
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439).
//! * [`secretbox`] — authenticated encryption via ChaCha20 + HMAC-SHA-256
//!   (encrypt-then-MAC), used for bitstream/secret delivery.
//! * [`field25519`], [`scalar25519`], [`edwards`] — Curve25519 arithmetic.
//! * [`ed25519`] — Ed25519 signatures (RFC 8032) for controller and client
//!   certificates.
//! * [`x25519`] — X25519 Diffie–Hellman (RFC 7748) for the attestation channel.
//!
//! # Hardware dispatch and the one `unsafe` block
//!
//! TNIC's attestation kernel is a hardware HMAC pipeline, and nearly all the
//! wall-clock of this model above the crate is SHA-256 compression. So
//! [`sha256`] routes every compression through one private function,
//! `compress_blocks`, which picks its implementation from a property of the
//! machine and nothing else: on x86-64, if
//! `is_x86_feature_detected!("sha")` (with `ssse3` and `sse4.1`) holds, a
//! run of blocks goes to a kernel written with the SHA-NI intrinsics;
//! everywhere else — other architectures, where that kernel is not even
//! compiled, and x86-64 CPUs without the extensions — it goes to the
//! portable FIPS 180-4 loop. There is no Cargo feature, environment
//! variable or runtime option that selects a path.
//!
//! The kernel is a safe `#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]`
//! function: it builds its vectors from `u32`s (`_mm_set_epi32` over
//! `u32::from_be_bytes`) and reads them back with `_mm_extract_epi32`, so it
//! dereferences no pointer and every intrinsic in it is a safe call. What
//! Rust cannot check is that the CPU executing it has those instructions;
//! calling it from ordinary code is therefore `unsafe`, and that call is the
//! crate's only `unsafe` block. **SAFETY argument:** the block sits directly
//! behind the run-time feature check in the same function
//! (`sha256::shani::try_compress_blocks`), SSE2 is part of the x86-64
//! baseline, and the callee has no other precondition.
//!
//! This is why the crate is `#![deny(unsafe_code)]` with a single
//! `#[allow(unsafe_code)]` on that function rather than
//! `#![forbid(unsafe_code)]`: `forbid` cannot be lifted for one item, `deny`
//! can, and any second `unsafe` anywhere in the crate still fails the build.
//! `#![deny(clippy::undocumented_unsafe_blocks)]` makes the `// SAFETY:`
//! comment mandatory under `cargo clippy -- -D warnings`.
//!
//! The portable loop stays tested on hosts that never dispatch to it: the
//! in-module tests run the FIPS 180-4 vectors and every message length
//! 0..=300, 8 KiB and 1 MiB through a reference built on the portable
//! compression function alone, and a differential test compares the two
//! compression functions state-for-state from random starting states for
//! 1..=33 blocks per call (skipped, not faked, where there are no SHA
//! extensions).
//!
//! # Curve arithmetic at its textbook operation count
//!
//! Ed25519 stays off the attested datapath, as in the paper, but three
//! signatures and three verifications are most of every BFT / CR client
//! reply, so [`field25519`], [`edwards`] and [`scalar25519`] do the standard
//! amount of work and no more: field elements are unreduced below 2²⁵⁶ and
//! made canonical only where observed; inversion and the decompression
//! square root share one 254-squaring addition chain;
//! [`edwards::EdwardsPoint::basepoint_mul`] — key generation and `sign` —
//! adds one entry per signed radix-16 digit from a 32 KiB table of
//! (j + 1)·256ⁱ·B; `verify` evaluates `[S]B − [k]A` in a single pass of
//! doublings over non-adjacent forms, with an 8 KiB table of B's odd
//! multiples; scalars reduce modulo ℓ limb-wise. Both tables are built once
//! per process behind `std::sync::OnceLock` (no `unsafe`). The
//! double-and-add, generic `pow` and bit-serial reduction they replaced
//! survive under `#[cfg(test)]` as oracles, and `tests/` pins the result
//! from outside: keys and signatures byte-identical to OpenSSL's on 325
//! vectors, and the verdict on 1 572 hostile inputs unchanged from before
//! the rewrite.
//!
//! # Security disclaimer
//!
//! Nothing in this crate's curve code is, or ever was, constant-time. The
//! first version branched on secret scalar bits in `scalar_mul` and
//! `basepoint_mul` and left its field reduction through a data-dependent
//! early exit; this one has a branch-free field but indexes its tables by
//! secret digits and skips zero digits, which leaks the same scalars through
//! the cache and the branch predictor instead. No blinding is applied.
//! Neither is fit for a key that matters outside a simulation: this is a
//! research substrate, not a production cryptography library.
//!
//! # Example
//!
//! ```
//! use tnic_crypto::hmac::hmac_sha256;
//!
//! let tag = hmac_sha256(b"session-key", b"message||device||counter");
//! assert_eq!(tag.len(), 32);
//! ```

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod chacha20;
pub mod ct;
pub mod ed25519;
pub mod edwards;
pub mod error;
pub mod field25519;
pub mod hkdf;
pub mod hmac;
pub mod scalar25519;
pub mod secretbox;
pub mod sha256;
pub mod sha512;
pub mod x25519;

pub use error::CryptoError;
pub use hmac::{hmac_sha256, hmac_sha512};
pub use sha256::Sha256;
pub use sha512::Sha512;

#[cfg(test)]
mod test_util {
    /// `len` deterministic pseudo-random bytes (the ChaCha20 keystream under
    /// a key made of `seed`), for tests that need inputs no hash produced.
    pub(crate) fn seeded_bytes(seed: u8, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        crate::chacha20::chacha20_xor(&[seed; 32], &[0u8; 12], 0, &mut out);
        out
    }
}
