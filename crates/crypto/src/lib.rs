//! Cryptographic substrate for the TNIC reproduction.
//!
//! The TNIC paper's attestation kernel is built around HMAC over message
//! payloads, and its replies to Byzantine clients (Appendix C.1) around
//! signatures. This crate provides those primitives implemented from
//! scratch so the trusted computing base of the simulated hardware is
//! self-contained:
//!
//! * [`sha256`] / [`sha512`] — FIPS 180-4 hash functions.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104).
//! * [`ct`] — constant-time comparison of attestation MACs.
//! * [`field25519`], [`scalar25519`], [`edwards`] — Curve25519 arithmetic.
//! * [`ed25519`] — Ed25519 signatures (RFC 8032) for client replies.
//!
//! The §4.3 bootstrap's channel (X25519 agreement, key derivation, sealed
//! key shipment) is not modelled: every session key is installed directly.
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
//! square root share one 254-squaring addition chain; scalars reduce modulo
//! ℓ limb-wise. One signed radix-16 walk adds one table entry per digit from
//! 32 KiB tables of (j + 1)·256ⁱ·P, and serves both callers:
//! [`edwards::EdwardsPoint::basepoint_mul`] (key generation and `sign`, over
//! the process-wide table of B) and
//! [`ed25519::PreparedVerifyingKey::verify`], which computes
//! `[k](−A) + [S]B` from a table of −A and the table of B, with four
//! doublings. A client keeps one prepared key per replica in
//! `Cluster::verify_reply`, where the same few keys check every reply;
//! [`ed25519::VerifyingKey::verify`] prepares its key for a single use, at
//! the price of about four verifications, which suits only a key checked
//! once. The process-wide table of B is built once behind
//! `std::sync::OnceLock` (no `unsafe`). The double-and-add,
//! generic `pow` and bit-serial reduction they replaced survive under
//! `#[cfg(test)]` as oracles, and `tests/` pins the result from outside,
//! through both verify entry points: keys and signatures byte-identical to
//! OpenSSL's on 325 vectors, and the verdict on 1 572 hostile inputs
//! unchanged from before the rewrite.
//!
//! # Security disclaimer
//!
//! Nothing in this crate's curve code is, or ever was, constant-time. The
//! first version branched on secret scalar bits in `scalar_mul` and
//! `basepoint_mul` and left its field reduction through a data-dependent
//! early exit; this one has a branch-free field but indexes its tables by
//! secret digits and skips zero digits, which leaks the same scalars through
//! the cache and the branch predictor instead. No blinding is applied. A
//! prepared verifying key's table adds no secret-dependent lookup: it is
//! indexed by the digits of k = H(R ‖ A ‖ M) and S, both public.
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

pub mod ct;
pub mod ed25519;
pub mod edwards;
pub mod error;
pub mod field25519;
pub mod hmac;
pub mod scalar25519;
pub mod sha256;
pub mod sha512;

pub use error::CryptoError;
pub use hmac::hmac_sha256;
pub use sha256::Sha256;
pub use sha512::Sha512;

#[cfg(test)]
mod test_util {
    /// `len` deterministic pseudo-random bytes (SplitMix64 from `seed`), for
    /// tests that need inputs no hash produced. Every caller compares two
    /// computations on them; none pins a value derived from them.
    pub(crate) fn seeded_bytes(seed: u8, len: usize) -> Vec<u8> {
        let mut state = u64::from(seed);
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }
}
