//! Arithmetic in the prime field GF(2²⁵⁵ − 19) used by Curve25519.
//!
//! An element is four little-endian 64-bit limbs holding *any* representative
//! of its residue class below 2²⁵⁶: every bit pattern is a valid element, so
//! there is no invariant for an operation to break. Arithmetic folds what
//! spills past the top limb back in through 2²⁵⁶ ≡ 38 (and, under a product,
//! 2²⁵⁵ ≡ 19) without a branch and never reduces further; the canonical
//! value in `[0, p)` is computed only where it is observed —
//! [`FieldElement::to_bytes`], [`FieldElement::is_zero`],
//! [`FieldElement::is_negative`], `==` and `Hash` — so two elements are equal
//! exactly when their residues are, whatever their limbs hold. Inversion and
//! the square-root exponent share the standard 2²⁵⁰ − 1 addition chain
//! (254 squarings + 11 multiplications).
//!
//! Nothing here is constant-time by construction (see the crate docs).

use std::hash::{Hash, Hasher};

/// The field prime p = 2²⁵⁵ − 19 as little-endian limbs.
pub const P: [u64; 4] = [
    0xffff_ffff_ffff_ffed,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0x7fff_ffff_ffff_ffff,
];

const LOW_63_BITS: u64 = 0x7fff_ffff_ffff_ffff;

/// An element of GF(2²⁵⁵ − 19): any representative below 2²⁵⁶, compared and
/// hashed by its canonical value.
#[derive(Debug, Clone, Copy)]
pub struct FieldElement(pub(crate) [u64; 4]);

impl Default for FieldElement {
    fn default() -> Self {
        FieldElement::ZERO
    }
}

impl PartialEq for FieldElement {
    fn eq(&self, other: &Self) -> bool {
        self.canonical() == other.canonical()
    }
}

impl Eq for FieldElement {}

impl Hash for FieldElement {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.canonical().hash(state);
    }
}

/// `a + b + carry` as (low limb, carry out).
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let v = (a as u128) + (b as u128) + (carry as u128);
    (v as u64, (v >> 64) as u64)
}

/// `a − b − borrow` as (low limb, borrow out).
#[inline(always)]
fn sbb(a: u64, b: u64, borrow: u64) -> (u64, u64) {
    let v = (a as u128).wrapping_sub((b as u128) + (borrow as u128));
    (v as u64, (v >> 127) as u64)
}

/// `acc + a·b + carry` as (low limb, high limb); cannot overflow 128 bits.
#[inline(always)]
fn mac(acc: u64, a: u64, b: u64, carry: u64) -> (u64, u64) {
    let v = (acc as u128) + (a as u128) * (b as u128) + (carry as u128);
    (v as u64, (v >> 64) as u64)
}

/// `limbs + small` as (sum mod 2²⁵⁶, carry out).
#[inline(always)]
fn add_small(limbs: [u64; 4], small: u64) -> ([u64; 4], u64) {
    let (r0, c) = adc(limbs[0], small, 0);
    let (r1, c) = adc(limbs[1], 0, c);
    let (r2, c) = adc(limbs[2], 0, c);
    let (r3, c) = adc(limbs[3], 0, c);
    ([r0, r1, r2, r3], c)
}

/// The element `limbs + carry·2²⁵⁶` for a carry bit, using 2²⁵⁶ ≡ 38 twice.
#[inline(always)]
fn fold(limbs: [u64; 4], carry: u64) -> FieldElement {
    let (mut r, wrapped) = add_small(limbs, 38 * carry);
    // A second wrap leaves less than 38 in `r`, so this one cannot carry.
    r[0] += 38 * wrapped;
    FieldElement(r)
}

/// Reduces a 512-bit product to a representative below 2²⁵⁶.
#[inline(always)]
fn reduce_wide(t: &[u64; 8]) -> [u64; 4] {
    // 2²⁵⁶ ≡ 38: the high half comes down 38-fold, leaving a carry ≤ 38.
    let (r0, c) = mac(t[0], t[4], 38, 0);
    let (r1, c) = mac(t[1], t[5], 38, c);
    let (r2, c) = mac(t[2], t[6], 38, c);
    let (r3, c) = mac(t[3], t[7], 38, c);
    // 2²⁵⁵ ≡ 19: everything from bit 255 up (at most 77) comes down 19-fold
    // onto 255 bits, which cannot carry out of the top limb again.
    let high = (c << 1) | (r3 >> 63);
    let (r, _) = add_small([r0, r1, r2, r3 & LOW_63_BITS], 19 * high);
    r
}

/// The limbs of `a²`: the six cross products once, doubled, plus the four
/// squares (10 limb products against 16 for a multiplication).
#[inline(always)]
fn square_limbs(a: &[u64; 4]) -> [u64; 4] {
    let [a0, a1, a2, a3] = *a;
    let (t1, c) = mac(0, a0, a1, 0);
    let (t2, c) = mac(0, a0, a2, c);
    let (t3, t4) = mac(0, a0, a3, c);
    let (t3, c) = mac(t3, a1, a2, 0);
    let (t4, t5) = mac(t4, a1, a3, c);
    let (t5, t6) = mac(t5, a2, a3, 0);

    let t7 = t6 >> 63;
    let t6 = (t6 << 1) | (t5 >> 63);
    let t5 = (t5 << 1) | (t4 >> 63);
    let t4 = (t4 << 1) | (t3 >> 63);
    let t3 = (t3 << 1) | (t2 >> 63);
    let t2 = (t2 << 1) | (t1 >> 63);
    let t1 = t1 << 1;

    let (t0, c) = mac(0, a0, a0, 0);
    let (t1, c) = adc(t1, c, 0);
    let (t2, c) = mac(t2, a1, a1, c);
    let (t3, c) = adc(t3, c, 0);
    let (t4, c) = mac(t4, a2, a2, c);
    let (t5, c) = adc(t5, c, 0);
    let (t6, c) = mac(t6, a3, a3, c);
    let (t7, _) = adc(t7, c, 0);
    reduce_wide(&[t0, t1, t2, t3, t4, t5, t6, t7])
}

impl FieldElement {
    /// The additive identity.
    pub const ZERO: FieldElement = FieldElement([0, 0, 0, 0]);
    /// The multiplicative identity.
    pub const ONE: FieldElement = FieldElement([1, 0, 0, 0]);

    /// The Edwards curve constant d = −121665/121666.
    pub const D: FieldElement = FieldElement([
        0x75eb_4dca_1359_78a3,
        0x0070_0a4d_4141_d8ab,
        0x8cc7_4079_7779_e898,
        0x5203_6cee_2b6f_fe73,
    ]);
    /// 2·d.
    pub const D2: FieldElement = FieldElement([
        0xebd6_9b94_26b2_f159,
        0x00e0_149a_8283_b156,
        0x198e_80f2_eef3_d130,
        0x2406_d9dc_56df_fce7,
    ]);
    /// A square root of −1 (used during point decompression).
    pub const SQRT_M1: FieldElement = FieldElement([
        0xc4ee_1b27_4a0e_a0b0,
        0x2f43_1806_ad2f_e478,
        0x2b4d_0099_3dfb_d7a7,
        0x2b83_2480_4fc1_df0b,
    ]);

    /// Decodes 32 little-endian bytes, ignoring the top bit (bit 255). Values
    /// in `[p, 2²⁵⁵)` are accepted as the residues they represent.
    #[must_use]
    pub fn from_bytes(bytes: &[u8; 32]) -> Self {
        let mut limbs = [0u64; 4];
        for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
            *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        limbs[3] &= LOW_63_BITS;
        FieldElement(limbs)
    }

    /// Encodes the canonical value as 32 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let limbs = self.canonical();
        let mut out = [0u8; 32];
        for (chunk, limb) in out.chunks_exact_mut(8).zip(limbs) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        out
    }

    /// Returns `true` if this element is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.canonical() == [0, 0, 0, 0]
    }

    /// Returns `true` if the canonical encoding has its least-significant bit
    /// set (the "negative" convention used by Ed25519 point compression).
    #[must_use]
    pub fn is_negative(&self) -> bool {
        self.canonical()[0] & 1 == 1
    }

    /// The limbs of the unique representative in `[0, p)`, branch-free.
    fn canonical(&self) -> [u64; 4] {
        // 2²⁵⁵ ≡ 19: fold bit 255 down, leaving v ≤ 2²⁵⁵ + 18 < 2p.
        let mut v = self.0;
        let top = v[3] >> 63;
        v[3] &= LOW_63_BITS;
        let (v, _) = add_small(v, 19 * top);
        // v ≥ p exactly when v + 19 reaches bit 255, and then v − p is
        // v + 19 without that bit.
        let (w, _) = add_small(v, 19);
        let (mut r, _) = add_small(v, 19 * (w[3] >> 63));
        r[3] &= LOW_63_BITS;
        r
    }

    /// Field addition.
    #[must_use]
    pub fn add(&self, other: &FieldElement) -> FieldElement {
        let (a, b) = (&self.0, &other.0);
        let (r0, c) = adc(a[0], b[0], 0);
        let (r1, c) = adc(a[1], b[1], c);
        let (r2, c) = adc(a[2], b[2], c);
        let (r3, c) = adc(a[3], b[3], c);
        fold([r0, r1, r2, r3], c)
    }

    /// Field subtraction.
    #[must_use]
    pub fn sub(&self, other: &FieldElement) -> FieldElement {
        let (a, b) = (&self.0, &other.0);
        let (r0, w) = sbb(a[0], b[0], 0);
        let (r1, w) = sbb(a[1], b[1], w);
        let (r2, w) = sbb(a[2], b[2], w);
        let (r3, w) = sbb(a[3], b[3], w);
        // A wrap added 2²⁵⁶ ≡ 38: take it back, and once more if that wraps.
        let (r0, w) = sbb(r0, 38 * w, 0);
        let (r1, w) = sbb(r1, 0, w);
        let (r2, w) = sbb(r2, 0, w);
        let (r3, w) = sbb(r3, 0, w);
        // After a second wrap the value is at least 2²⁵⁶ − 38: no borrow.
        FieldElement([r0 - 38 * w, r1, r2, r3])
    }

    /// Additive inverse.
    #[must_use]
    pub fn neg(&self) -> FieldElement {
        FieldElement::ZERO.sub(self)
    }

    /// Field multiplication.
    #[must_use]
    pub fn mul(&self, other: &FieldElement) -> FieldElement {
        let (a, b) = (&self.0, &other.0);
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry = 0;
            for j in 0..4 {
                (t[i + j], carry) = mac(t[i + j], a[i], b[j], carry);
            }
            t[i + 4] = carry;
        }
        FieldElement(reduce_wide(&t))
    }

    /// Field squaring.
    #[must_use]
    pub fn square(&self) -> FieldElement {
        FieldElement(square_limbs(&self.0))
    }

    /// `self^(2^count)`: `count` successive squarings, kept in registers.
    fn square_times(&self, count: u32) -> FieldElement {
        let mut limbs = self.0;
        for _ in 0..count {
            limbs = square_limbs(&limbs);
        }
        FieldElement(limbs)
    }

    /// The shared prefix of the two fixed exponentiations: returns
    /// (`self^(2²⁵⁰ − 1)`, `self^11`).
    fn pow_2_250_minus_1(&self) -> (FieldElement, FieldElement) {
        let z2 = self.square();
        let z9 = z2.square_times(2).mul(self);
        let z11 = z9.mul(&z2);
        let z_5_0 = z11.square().mul(&z9); // 2⁵ − 1
        let z_10_0 = z_5_0.square_times(5).mul(&z_5_0);
        let z_20_0 = z_10_0.square_times(10).mul(&z_10_0);
        let z_40_0 = z_20_0.square_times(20).mul(&z_20_0);
        let z_50_0 = z_40_0.square_times(10).mul(&z_10_0);
        let z_100_0 = z_50_0.square_times(50).mul(&z_50_0);
        let z_200_0 = z_100_0.square_times(100).mul(&z_100_0);
        let z_250_0 = z_200_0.square_times(50).mul(&z_50_0);
        (z_250_0, z11)
    }

    /// Multiplicative inverse (returns zero for zero): `self^(p − 2)` with
    /// p − 2 = 2²⁵⁵ − 21 = (2²⁵⁰ − 1)·2⁵ + 11.
    #[must_use]
    pub fn invert(&self) -> FieldElement {
        let (z_250_0, z11) = self.pow_2_250_minus_1();
        z_250_0.square_times(5).mul(&z11)
    }

    /// `self^((p − 5)/8)` with (p − 5)/8 = 2²⁵² − 3 = (2²⁵⁰ − 1)·2² + 1.
    fn pow_p58(&self) -> FieldElement {
        let (z_250_0, _) = self.pow_2_250_minus_1();
        z_250_0.square_times(2).mul(self)
    }

    /// Raises this element to the power given by `exponent` (little-endian
    /// limbs) using square-and-multiply: the oracle for the addition chains.
    #[cfg(test)]
    fn pow(&self, exponent: &[u64; 4]) -> FieldElement {
        let mut result = FieldElement::ONE;
        for limb_index in (0..4).rev() {
            for bit in (0..64).rev() {
                result = result.square();
                if (exponent[limb_index] >> bit) & 1 == 1 {
                    result = result.mul(self);
                }
            }
        }
        result
    }

    /// Computes x such that `x² · v = u`, if it exists.
    ///
    /// This is the square-root-of-ratio operation used for Ed25519 point
    /// decompression. Returns `None` when `u/v` is not a square.
    #[must_use]
    pub fn sqrt_ratio(u: &FieldElement, v: &FieldElement) -> Option<FieldElement> {
        if v.is_zero() {
            return if u.is_zero() {
                Some(FieldElement::ZERO)
            } else {
                None
            };
        }
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut x = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let check = v.mul(&x.square());
        let neg_u = u.neg();
        if check == *u {
            Some(x)
        } else if check == neg_u {
            x = x.mul(&FieldElement::SQRT_M1);
            Some(x)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Ordering::Less;

    fn fe(n: u64) -> FieldElement {
        FieldElement([n, 0, 0, 0])
    }

    /// Every 256-bit pattern is an element: all four limbs from the stream.
    fn seeded_elements(seed: u8, count: usize) -> Vec<FieldElement> {
        crate::test_util::seeded_bytes(seed, count * 32)
            .chunks_exact(32)
            .map(|c| {
                FieldElement(core::array::from_fn(|i| {
                    u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().unwrap())
                }))
            })
            .collect()
    }

    /// 0, 1, 19, p − 1, p, p + 1, 2p − 1 = 2²⁵⁶ − 39, 2p = 2²⁵⁶ − 38, 2²⁵⁶ − 1:
    /// both ends of every range a representative can fall in.
    fn edge_elements() -> Vec<FieldElement> {
        let max = u64::MAX;
        vec![
            FieldElement([0, 0, 0, 0]),
            FieldElement([1, 0, 0, 0]),
            FieldElement([19, 0, 0, 0]),
            FieldElement([P[0] - 1, P[1], P[2], P[3]]),
            FieldElement(P),
            FieldElement([P[0] + 1, P[1], P[2], P[3]]),
            FieldElement([max - 38, max, max, max]),
            FieldElement([max - 37, max, max, max]),
            FieldElement([max, max, max, max]),
        ]
    }

    // Reference arithmetic on canonical limbs, sharing nothing with the code
    // under test but the one-limb helpers: reduction by compare-and-subtract,
    // addition through it, multiplication by double-and-add over that.

    fn ref_reduce(mut v: [u64; 4]) -> [u64; 4] {
        while (0..4).rev().map(|i| v[i].cmp(&P[i])).find(|o| o.is_ne()) != Some(Less) {
            let mut borrow = 0;
            for i in 0..4 {
                (v[i], borrow) = sbb(v[i], P[i], borrow);
            }
        }
        v
    }

    fn ref_add(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut r = [0u64; 4];
        let mut carry = 0;
        for i in 0..4 {
            (r[i], carry) = adc(a[i], b[i], carry);
        }
        assert_eq!(carry, 0, "canonical operands: the sum is below 2p");
        ref_reduce(r)
    }

    fn ref_neg(a: [u64; 4]) -> [u64; 4] {
        let mut r = [0u64; 4];
        let mut borrow = 0;
        for i in 0..4 {
            (r[i], borrow) = sbb(P[i], a[i], borrow);
        }
        ref_reduce(r)
    }

    fn ref_mul(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut acc = [0u64; 4];
        for bit in (0..256).rev() {
            acc = ref_add(acc, acc);
            if (b[bit / 64] >> (bit % 64)) & 1 == 1 {
                acc = ref_add(acc, a);
            }
        }
        acc
    }

    fn hash_of(x: &FieldElement) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    #[test]
    fn every_operation_agrees_with_canonical_reference_on_any_representative() {
        let mut operands = edge_elements();
        operands.extend(seeded_elements(11, 8));
        for a in &operands {
            let ra = ref_reduce(a.0);
            assert_eq!(a.canonical(), ra, "{a:x?}");
            assert_eq!(*a, FieldElement(ra));
            assert_eq!(hash_of(a), hash_of(&FieldElement(ra)));
            assert_eq!(a.to_bytes(), FieldElement(ra).to_bytes());
            assert_eq!(FieldElement::from_bytes(&a.to_bytes()).0, ra);
            assert_eq!(a.is_zero(), ra == [0; 4]);
            assert_eq!(a.is_negative(), ra[0] & 1 == 1);
            assert_eq!(a.neg().canonical(), ref_neg(ra), "-{a:x?}");
            assert_eq!(a.square().canonical(), ref_mul(ra, ra), "{a:x?}^2");
            for b in &operands {
                let rb = ref_reduce(b.0);
                assert_eq!(a.add(b).canonical(), ref_add(ra, rb), "{a:x?} + {b:x?}");
                assert_eq!(
                    a.sub(b).canonical(),
                    ref_add(ra, ref_neg(rb)),
                    "{a:x?} - {b:x?}"
                );
                assert_eq!(a.mul(b).canonical(), ref_mul(ra, rb), "{a:x?} * {b:x?}");
            }
        }
    }

    #[test]
    fn distinct_residues_compare_unequal() {
        let edges = edge_elements();
        for (i, a) in edges.iter().enumerate() {
            for (j, b) in edges.iter().enumerate() {
                assert_eq!(a == b, ref_reduce(a.0) == ref_reduce(b.0), "{i} vs {j}");
            }
        }
    }

    #[test]
    fn square_matches_mul_by_self() {
        for a in edge_elements().iter().chain(&seeded_elements(12, 64)) {
            assert_eq!(a.square().0, a.mul(a).0, "{a:x?}");
        }
    }

    #[test]
    fn addition_chains_match_generic_pow() {
        // p − 2 and (p − 5)/8 = 2²⁵² − 3.
        let p_minus_2 = [P[0] - 2, P[1], P[2], P[3]];
        let p58 = [u64::MAX - 2, u64::MAX, u64::MAX, u64::MAX >> 4];
        let mut inputs = seeded_elements(13, 64);
        inputs.push(FieldElement::ZERO);
        inputs.push(FieldElement::ONE);
        inputs.push(FieldElement::ONE.neg());
        for a in &inputs {
            assert_eq!(a.invert(), a.pow(&p_minus_2), "{a:x?}");
            assert_eq!(a.pow_p58(), a.pow(&p58), "{a:x?}");
            if !a.is_zero() {
                assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
            }
        }
        assert!(FieldElement(P).invert().is_zero());
    }

    #[test]
    fn add_sub_round_trip() {
        let a = fe(1234567);
        let b = fe(7654321);
        assert_eq!(a.add(&b).sub(&b), a);
        assert_eq!(a.sub(&b).add(&b), a);
    }

    #[test]
    fn additive_identity_and_inverse() {
        let a = fe(99);
        assert_eq!(a.add(&FieldElement::ZERO), a);
        assert_eq!(a.add(&a.neg()), FieldElement::ZERO);
        assert_eq!(FieldElement::ZERO.neg(), FieldElement::ZERO);
    }

    #[test]
    fn multiplicative_identity_and_inverse() {
        let a = fe(123456789);
        assert_eq!(a.mul(&FieldElement::ONE), a);
        assert_eq!(a.mul(&a.invert()), FieldElement::ONE);
    }

    #[test]
    fn small_multiplication() {
        assert_eq!(fe(6).mul(&fe(7)), fe(42));
        assert_eq!(fe(0).mul(&fe(7)), FieldElement::ZERO);
    }

    #[test]
    fn wraparound_at_p() {
        // (p - 1) + 2 = 1 (mod p)
        let p_minus_1 = FieldElement(P).sub(&FieldElement::ONE);
        assert_eq!(p_minus_1.add(&fe(2)), FieldElement::ONE);
        // (p - 1) * (p - 1) = 1 (mod p) since p-1 ≡ -1
        assert_eq!(p_minus_1.mul(&p_minus_1), FieldElement::ONE);
    }

    #[test]
    fn from_bytes_masks_high_bit() {
        let mut bytes = [0u8; 32];
        bytes[0] = 5;
        bytes[31] = 0x80;
        assert_eq!(FieldElement::from_bytes(&bytes), fe(5));
    }

    #[test]
    fn bytes_round_trip() {
        let a = fe(0xdead_beef_cafe_f00d);
        assert_eq!(FieldElement::from_bytes(&a.to_bytes()), a);
        let b = FieldElement::D;
        assert_eq!(FieldElement::from_bytes(&b.to_bytes()), b);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let minus_one = FieldElement::ZERO.sub(&FieldElement::ONE);
        assert_eq!(FieldElement::SQRT_M1.square(), minus_one);
    }

    #[test]
    fn d2_is_twice_d() {
        assert_eq!(FieldElement::D.add(&FieldElement::D), FieldElement::D2);
    }

    #[test]
    fn sqrt_ratio_of_square() {
        let a = fe(12345);
        let sq = a.square();
        let root = FieldElement::sqrt_ratio(&sq, &FieldElement::ONE).expect("square has a root");
        assert!(root == a || root == a.neg());
    }

    #[test]
    fn sqrt_ratio_of_nonsquare_fails() {
        // 2 is a non-residue mod p (p ≡ 5 mod 8 and 2^((p-1)/2) = -1).
        assert!(FieldElement::sqrt_ratio(&fe(2), &FieldElement::ONE).is_none());
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let a = fe(3);
        let mut expected = FieldElement::ONE;
        for _ in 0..13 {
            expected = expected.mul(&a);
        }
        assert_eq!(a.pow(&[13, 0, 0, 0]), expected);
    }

    #[test]
    fn distributivity() {
        let a = fe(111);
        let b = fe(222);
        let c = fe(333);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }

    #[test]
    fn inversion_of_one_and_minus_one() {
        assert_eq!(FieldElement::ONE.invert(), FieldElement::ONE);
        let minus_one = FieldElement::ONE.neg();
        assert_eq!(minus_one.invert(), minus_one);
    }
}
