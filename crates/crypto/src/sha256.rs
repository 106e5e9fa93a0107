//! SHA-256 (FIPS 180-4).
//!
//! Used by the attestation kernel's HMAC and by the tamper-evident logs of
//! the A2M and PeerReview systems.
//!
//! Every compression goes through one private function, `compress_blocks`,
//! which runs a whole run of 64-byte blocks on the x86-64 SHA extensions
//! when the CPU has them and on the portable loop otherwise (see the crate
//! docs for the dispatch rule and the one `unsafe` block it costs).

/// Digest length in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block length in bytes.
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use tnic_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// let digest = h.finalize();
/// assert_eq!(digest[0], 0xba);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a new hasher in the initial state.
    #[must_use]
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// A hasher that continues from `state`, the chaining value left after
    /// `blocks` whole blocks of input (see [`Sha256::chaining_value`]).
    /// Crate-private: it exists for HMAC's prepared keys, which skip the
    /// ipad / opad block of every MAC this way.
    pub(crate) fn resume(state: [u32; 8], blocks: u64) -> Self {
        Sha256 {
            state,
            buffer: [0u8; BLOCK_LEN],
            buffer_len: 0,
            total_len: blocks * BLOCK_LEN as u64,
        }
    }

    /// The chaining value after the whole blocks fed so far; the input must
    /// end on a block edge, or buffered bytes would be left out.
    pub(crate) fn chaining_value(&self) -> [u32; 8] {
        debug_assert_eq!(self.buffer_len, 0, "input must end on a block edge");
        self.state
    }

    /// Feeds `data` into the hasher.
    pub fn update(&mut self, data: &[u8]) {
        let mut input = data;
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        if self.buffer_len > 0 {
            let need = BLOCK_LEN - self.buffer_len;
            let take = need.min(input.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&input[..take]);
            self.buffer_len += take;
            input = &input[take..];
            if self.buffer_len == BLOCK_LEN {
                compress_blocks(&mut self.state, &self.buffer);
                self.buffer_len = 0;
            }
        }
        // Full blocks are compressed straight from the caller's slice.
        let (blocks, rest) = input.split_at(input.len() - input.len() % BLOCK_LEN);
        if !blocks.is_empty() {
            compress_blocks(&mut self.state, blocks);
        }
        if !rest.is_empty() {
            self.buffer[..rest.len()].copy_from_slice(rest);
            self.buffer_len = rest.len();
        }
    }

    /// Consumes the hasher and returns the 32-byte digest.
    #[must_use]
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80 then zero padding then 64-bit length.
        self.update_padding();
        // buffer_len is now <= 56 and the length fits in the current block.
        self.buffer[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress_blocks(&mut self.state, &self.buffer);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    fn update_padding(&mut self) {
        // Write 0x80 and zeros directly into the buffer, compressing if the
        // length field does not fit.
        self.buffer[self.buffer_len] = 0x80;
        let after = self.buffer_len + 1;
        if after > 56 {
            for b in &mut self.buffer[after..] {
                *b = 0;
            }
            compress_blocks(&mut self.state, &self.buffer);
            self.buffer = [0u8; BLOCK_LEN];
        } else {
            for b in &mut self.buffer[after..56] {
                *b = 0;
            }
        }
        self.buffer_len = 0;
    }

    /// The portable FIPS 180-4 compression function for one block: the path
    /// every host without the SHA extensions runs, and the reference the
    /// accelerated kernel is tested against.
    fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// Runs the compression function over `blocks` — a whole number of 64-byte
/// blocks — on the SHA extensions if this CPU has them and on the portable
/// loop otherwise.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::try_compress_blocks(state, blocks) {
        return;
    }
    compress_blocks_portable(state, blocks);
}

fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.as_chunks::<BLOCK_LEN>().0 {
        Sha256::compress(state, block);
    }
}

/// The compression function on the x86-64 SHA extensions (SHA-NI).
///
/// No pointer is dereferenced here: vectors are built from `u32`s with
/// `_mm_set_epi32` and read back with `_mm_extract_epi32`, which keeps every
/// intrinsic a safe call inside the `#[target_feature]` function.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::{BLOCK_LEN, K};
    use core::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    /// Compresses `blocks` into `state` and returns `true` if this CPU has
    /// the SHA extensions; leaves `state` untouched and returns `false` if
    /// it does not. `std` caches the CPUID result, so the check is a load
    /// and a bit test per feature (SSE2 is part of the x86-64 baseline).
    #[allow(unsafe_code)]
    pub(super) fn try_compress_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
        let detected = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        if detected {
            // SAFETY: `compress_blocks` is an otherwise safe function whose
            // only requirement on its caller is that the CPU implements its
            // `#[target_feature]` list — sha, sse2, ssse3 and sse4.1. SSE2
            // is unconditional on x86-64 and the run-time check directly
            // above has confirmed the other three on this CPU.
            unsafe { compress_blocks(state, blocks) };
        }
        detected
    }

    /// Packs four words into a vector, `w0` in the lowest lane.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn words(w0: u32, w1: u32, w2: u32, w3: u32) -> __m128i {
        _mm_set_epi32(w3 as i32, w2 as i32, w1 as i32, w0 as i32)
    }

    /// Four rounds: `$w + K[$i..$i + 4]` feeds two rounds from its low half
    /// and two from its high half.
    macro_rules! rounds4 {
        ($abef:ident, $cdgh:ident, $w:ident, $i:expr) => {{
            let wk = _mm_add_epi32($w, words(K[$i], K[$i + 1], K[$i + 2], K[$i + 3]));
            $cdgh = _mm_sha256rnds2_epu32($cdgh, $abef, wk);
            $abef = _mm_sha256rnds2_epu32($abef, $cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }

    /// The next four message-schedule words from the previous sixteen
    /// (`$w0` oldest); the result replaces `$w0`.
    macro_rules! schedule {
        ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {
            $w0 = _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        // `sha256rnds2` wants the working variables as (A,B,E,F) and
        // (C,D,G,H), highest lane first.
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = words(f, e, b, a);
        let mut cdgh = words(h, g, d, c);
        for block in blocks.as_chunks::<BLOCK_LEN>().0 {
            let be =
                |i: usize| u32::from_be_bytes([block[i], block[i + 1], block[i + 2], block[i + 3]]);
            let mut w0 = words(be(0), be(4), be(8), be(12));
            let mut w1 = words(be(16), be(20), be(24), be(28));
            let mut w2 = words(be(32), be(36), be(40), be(44));
            let mut w3 = words(be(48), be(52), be(56), be(60));
            let (abef_in, cdgh_in) = (abef, cdgh);

            rounds4!(abef, cdgh, w0, 0);
            rounds4!(abef, cdgh, w1, 4);
            rounds4!(abef, cdgh, w2, 8);
            rounds4!(abef, cdgh, w3, 12);
            schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 16);
            schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 20);
            schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 24);
            schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 28);
            schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 32);
            schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 36);
            schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 40);
            schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 44);
            schedule!(w0, w1, w2, w3);
            rounds4!(abef, cdgh, w0, 48);
            schedule!(w1, w2, w3, w0);
            rounds4!(abef, cdgh, w1, 52);
            schedule!(w2, w3, w0, w1);
            rounds4!(abef, cdgh, w2, 56);
            schedule!(w3, w0, w1, w2);
            rounds4!(abef, cdgh, w3, 60);

            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3) as u32,
            _mm_extract_epi32(abef, 2) as u32,
            _mm_extract_epi32(cdgh, 3) as u32,
            _mm_extract_epi32(cdgh, 2) as u32,
            _mm_extract_epi32(abef, 1) as u32,
            _mm_extract_epi32(abef, 0) as u32,
            _mm_extract_epi32(cdgh, 1) as u32,
            _mm_extract_epi32(cdgh, 0) as u32,
        ];
    }
}

/// Computes the SHA-256 digest of `data` in one call.
///
/// # Example
///
/// ```
/// let d = tnic_crypto::sha256::sha256(b"");
/// assert_eq!(hex(&d), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
/// fn hex(b: &[u8]) -> String { b.iter().map(|x| format!("{x:02x}")).collect() }
/// ```
#[must_use]
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::seeded_bytes;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Checks a known-answer vector on the dispatched path and on the
    /// portable one, so the fallback passes every vector on every host.
    fn assert_digest(data: &[u8], expected: &str) {
        assert_eq!(hex(&sha256(data)), expected);
        assert_eq!(hex(&portable_reference(data)), expected);
    }

    #[test]
    fn empty_vector() {
        assert_digest(
            b"",
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        );
    }

    #[test]
    fn abc_vector() {
        assert_digest(
            b"abc",
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
        );
    }

    #[test]
    fn two_block_vector() {
        assert_digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
        );
    }

    #[test]
    fn million_a_vector() {
        assert_digest(
            &vec![b'a'; 1_000_000],
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
        );
    }

    /// FIPS 180-4 padding and digest serialisation around the *portable*
    /// compression function only: shares no code with `update`, `finalize`
    /// or the accelerated kernel.
    fn portable_reference(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_blocks_portable(&mut state, &padded);
        let mut out = [0u8; DIGEST_LEN];
        for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// Hashes `data` fed in pieces whose sizes cycle through `pieces`.
    fn fed_in_pieces(data: &[u8], pieces: &[usize]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::new();
        let mut rest = data;
        for &piece in pieces.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (head, tail) = rest.split_at(piece.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.finalize()
    }

    const KIB8: usize = 8 << 10;
    const MIB: usize = 1 << 20;

    #[test]
    fn incremental_matches_oneshot() {
        let data = seeded_bytes(1, MIB);
        // Every two-way split of every short message.
        for len in 0..=300usize {
            let expected = sha256(&data[..len]);
            for split in 0..=len {
                assert_eq!(
                    fed_in_pieces(&data[..len], &[split, len]),
                    expected,
                    "len {len} split at {split}"
                );
            }
        }
        // 8 KiB: every split one byte before, on and one byte after a block
        // edge, so the buffered head, the no-copy middle and the buffered
        // tail all change hands at every edge.
        let expected = sha256(&data[..KIB8]);
        for edge in (0..=KIB8).step_by(BLOCK_LEN) {
            for split in [edge.saturating_sub(1), edge, (edge + 1).min(KIB8)] {
                assert_eq!(
                    fed_in_pieces(&data[..KIB8], &[split, KIB8]),
                    expected,
                    "8 KiB split at {split}"
                );
            }
        }
        // 1 MiB: piece sizes that walk the split point across every residue
        // of the block length, and ones that straddle several blocks.
        let expected = sha256(&data);
        for pieces in [
            &[1usize][..],
            &[63],
            &[64],
            &[65],
            &[1, 127],
            &[129, 64, 7],
            &[MIB / 2 - 1, 2, MIB],
        ] {
            assert_eq!(fed_in_pieces(&data, pieces), expected, "pieces {pieces:?}");
        }
    }

    #[test]
    fn resumed_hasher_continues_from_a_block_edge() {
        let data = seeded_bytes(4, 1000);
        for blocks in 0..=15usize {
            let (head, tail) = data.split_at(blocks * BLOCK_LEN);
            let mut first = Sha256::new();
            first.update(head);
            let mut resumed = Sha256::resume(first.chaining_value(), blocks as u64);
            resumed.update(tail);
            assert_eq!(resumed.finalize(), sha256(&data), "{blocks} blocks");
        }
    }

    #[test]
    fn boundary_lengths() {
        // Exercise the padding logic around every 56/64-byte boundary, and
        // the no-copy `update` / in-place `finalize` against the portable
        // reference.
        let data = seeded_bytes(2, MIB);
        for len in (0..=300usize).chain([KIB8, MIB]) {
            let d1 = sha256(&data[..len]);
            assert_eq!(d1, portable_reference(&data[..len]), "len {len}");
            if len <= 300 {
                assert_eq!(fed_in_pieces(&data[..len], &[1]), d1, "len {len}");
            }
        }
    }

    /// The accelerated and the portable compression functions leave the
    /// same state, from arbitrary starting states, for every run length the
    /// callers produce. On a CPU without the SHA extensions there is no
    /// accelerated side to compare, and the test says so instead of
    /// comparing the portable loop with itself.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn accelerated_compression_matches_portable() {
        for blocks in 1..=33usize {
            let input = seeded_bytes(blocks as u8, 32 + blocks * BLOCK_LEN);
            let (start, data) = input.split_at(32);
            let start: [u32; 8] = core::array::from_fn(|i| {
                u32::from_le_bytes(start[i * 4..i * 4 + 4].try_into().unwrap())
            });
            let mut accelerated = start;
            if !shani::try_compress_blocks(&mut accelerated, data) {
                eprintln!("no SHA extensions on this CPU: accelerated kernel not exercised");
                return;
            }
            let mut portable = start;
            compress_blocks_portable(&mut portable, data);
            assert_eq!(accelerated, portable, "{blocks} blocks");
        }
    }
}
