//! Arithmetic modulo the Ed25519 group order
//! ℓ = 2²⁵² + 27742317777372353535851937790883648493.

/// The group order ℓ as little-endian limbs.
pub const L: [u64; 4] = [
    0x5812_631a_5cf5_d3ed,
    0x14de_f9de_a2f7_9cd6,
    0x0000_0000_0000_0000,
    0x1000_0000_0000_0000,
];

/// A scalar modulo ℓ, always stored fully reduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Scalar(pub(crate) [u64; 4]);

impl Scalar {
    /// The scalar 0.
    pub const ZERO: Scalar = Scalar([0, 0, 0, 0]);
    /// The scalar 1.
    pub const ONE: Scalar = Scalar([1, 0, 0, 0]);

    /// Reduces 32 little-endian bytes modulo ℓ.
    #[must_use]
    pub fn from_bytes_mod_order(bytes: &[u8; 32]) -> Scalar {
        let mut wide = [0u8; 64];
        wide[..32].copy_from_slice(bytes);
        Scalar::from_bytes_mod_order_wide(&wide)
    }

    /// Reduces 64 little-endian bytes (e.g. a SHA-512 output) modulo ℓ.
    #[must_use]
    pub fn from_bytes_mod_order_wide(bytes: &[u8; 64]) -> Scalar {
        let mut limbs = [0u64; 8];
        for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
            *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Scalar::reduce_wide(&limbs)
    }

    /// Returns `Some(scalar)` if the 32 little-endian bytes already encode a
    /// canonical scalar (`< ℓ`), `None` otherwise. Used when validating the
    /// `S` component of a signature.
    #[must_use]
    pub fn from_canonical_bytes(bytes: &[u8; 32]) -> Option<Scalar> {
        let mut limbs = [0u64; 4];
        for i in 0..4 {
            let mut chunk = [0u8; 8];
            chunk.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
            limbs[i] = u64::from_le_bytes(chunk);
        }
        let candidate = Scalar(limbs);
        if candidate.is_canonical() {
            Some(candidate)
        } else {
            None
        }
    }

    fn is_canonical(&self) -> bool {
        // self < L ?
        for i in (0..4).rev() {
            if self.0[i] < L[i] {
                return true;
            }
            if self.0[i] > L[i] {
                return false;
            }
        }
        false
    }

    /// Reduces a 512-bit little-endian value modulo ℓ, limb-wise.
    ///
    /// ℓ = 2²⁵² + c with c < 2¹²⁵, so 2²⁵² ≡ −c: split x = lo + 2²⁵²·hi and
    /// x ≡ lo − c·hi, where the product is 127 bits shorter than x was.
    /// Three splits take 512 bits to 385, 258 and 131, leaving
    /// x ≡ lo₀ − lo₁ + lo₂ − c·hi₂ with every term below 2²⁵².
    fn reduce_wide(x: &[u64; 8]) -> Scalar {
        let (lo0, product) = split_and_fold(x);
        let (lo1, product) = split_and_fold(&product);
        let (lo2, product) = split_and_fold(&product);
        debug_assert_eq!(product[4..], [0; 4], "c·hi₂ is below 2¹³¹");
        let last = Scalar([product[0], product[1], product[2], product[3]]);
        // Each sum of two terms is below 2²⁵³ < 2ℓ: one subtraction reduces it.
        let plus = Scalar(lo0).add(&Scalar(lo2));
        let minus = Scalar(lo1).add(&last);
        plus.sub(&minus)
    }

    /// The bit-serial reduction the limb-wise one replaced, kept as its
    /// oracle: Horner over a big-endian byte string, one doubling per bit.
    #[cfg(test)]
    fn reduce_be_bytes(bytes: &[u8]) -> Scalar {
        let mut acc = Scalar::ZERO;
        for &byte in bytes {
            for _ in 0..8 {
                acc = acc.add(&acc);
            }
            acc = acc.add(&Scalar([u64::from(byte), 0, 0, 0]));
        }
        acc
    }

    fn conditional_sub_l(self) -> Scalar {
        let (reduced, borrow) = self.sub_raw(&Scalar(L));
        if borrow == 0 {
            reduced
        } else {
            self
        }
    }

    fn sub_raw(&self, other: &Scalar) -> (Scalar, u64) {
        let mut out = [0u64; 4];
        let mut borrow: u64 = 0;
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            let (d1, b1) = a.overflowing_sub(*b);
            let (d2, b2) = d1.overflowing_sub(borrow);
            *o = d2;
            borrow = u64::from(b1) | u64::from(b2);
        }
        (Scalar(out), borrow)
    }

    /// Addition modulo ℓ.
    #[must_use]
    pub fn add(&self, other: &Scalar) -> Scalar {
        let mut out = [0u64; 4];
        let mut carry: u128 = 0;
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(&other.0)) {
            let v = (*a as u128) + (*b as u128) + carry;
            *o = v as u64;
            carry = v >> 64;
        }
        debug_assert_eq!(carry, 0, "sum of two canonical scalars fits in 256 bits");
        Scalar(out).conditional_sub_l()
    }

    /// Subtraction modulo ℓ.
    #[must_use]
    pub fn sub(&self, other: &Scalar) -> Scalar {
        let (diff, borrow) = self.sub_raw(other);
        if borrow == 0 {
            return diff;
        }
        // Add ℓ back.
        let mut out = [0u64; 4];
        let mut carry: u128 = 0;
        for i in 0..4 {
            let v = (diff.0[i] as u128) + (L[i] as u128) + carry;
            out[i] = v as u64;
            carry = v >> 64;
        }
        Scalar(out)
    }

    /// Multiplication modulo ℓ.
    #[must_use]
    pub fn mul(&self, other: &Scalar) -> Scalar {
        let mut t = [0u64; 8];
        for i in 0..4 {
            let mut carry: u128 = 0;
            for j in 0..4 {
                let v = (t[i + j] as u128) + (self.0[i] as u128) * (other.0[j] as u128) + carry;
                t[i + j] = v as u64;
                carry = v >> 64;
            }
            t[i + 4] = carry as u64;
        }
        Scalar::reduce_wide(&t)
    }

    /// Computes `self * b + c` modulo ℓ (the core of Ed25519 signing).
    #[must_use]
    pub fn mul_add(&self, b: &Scalar, c: &Scalar) -> Scalar {
        self.mul(b).add(c)
    }

    /// Encodes the canonical scalar as 32 little-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 32] {
        let mut out = [0u8; 32];
        for i in 0..4 {
            out[i * 8..i * 8 + 8].copy_from_slice(&self.0[i].to_le_bytes());
        }
        out
    }

    /// Returns `true` if the scalar is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.0 == [0, 0, 0, 0]
    }
}

/// c = ℓ − 2²⁵², the low two limbs of ℓ.
const C: [u64; 2] = [L[0], L[1]];

/// Splits x = lo + 2²⁵²·hi and returns (lo, c·hi). The product fits eight
/// limbs for any x: hi < 2²⁶⁰ and c < 2¹²⁵.
fn split_and_fold(x: &[u64; 8]) -> ([u64; 4], [u64; 8]) {
    let lo = [x[0], x[1], x[2], x[3] & (u64::MAX >> 4)];
    let mut product = [0u64; 8];
    for i in 0..5 {
        let above = if i < 4 { x[i + 4] } else { 0 };
        let hi = (x[i + 3] >> 60) | (above << 4);
        let mut carry: u128 = 0;
        for (j, c) in C.iter().enumerate() {
            let v = (product[i + j] as u128) + (hi as u128) * (*c as u128) + carry;
            product[i + j] = v as u64;
            carry = v >> 64;
        }
        product[i + 2] = carry as u64;
    }
    (lo, product)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one() {
        assert!(Scalar::ZERO.is_zero());
        assert_eq!(Scalar::ONE.add(&Scalar::ZERO), Scalar::ONE);
        assert_eq!(Scalar::ONE.mul(&Scalar::ONE), Scalar::ONE);
    }

    #[test]
    fn l_reduces_to_zero() {
        let mut bytes = [0u8; 32];
        for i in 0..4 {
            bytes[i * 8..i * 8 + 8].copy_from_slice(&L[i].to_le_bytes());
        }
        assert!(Scalar::from_bytes_mod_order(&bytes).is_zero());
        assert!(Scalar::from_canonical_bytes(&bytes).is_none());
    }

    #[test]
    fn l_minus_one_is_canonical_and_adds_to_zero() {
        let l_minus_1 = Scalar(L).sub(&Scalar::ONE);
        assert!(l_minus_1.is_canonical());
        assert!(l_minus_1.add(&Scalar::ONE).is_zero());
        let bytes = l_minus_1.to_bytes();
        assert_eq!(Scalar::from_canonical_bytes(&bytes), Some(l_minus_1));
    }

    #[test]
    fn small_arithmetic() {
        let a = Scalar([7, 0, 0, 0]);
        let b = Scalar([6, 0, 0, 0]);
        assert_eq!(a.mul(&b), Scalar([42, 0, 0, 0]));
        assert_eq!(a.sub(&b), Scalar::ONE);
        assert_eq!(b.sub(&a), Scalar(L).sub(&Scalar::ONE));
        assert_eq!(a.mul_add(&b, &Scalar::ONE), Scalar([43, 0, 0, 0]));
    }

    #[test]
    fn wide_reduction_matches_narrow_for_small_values() {
        let mut wide = [0u8; 64];
        wide[0] = 0xab;
        wide[1] = 0x01;
        let mut narrow = [0u8; 32];
        narrow[0] = 0xab;
        narrow[1] = 0x01;
        assert_eq!(
            Scalar::from_bytes_mod_order_wide(&wide),
            Scalar::from_bytes_mod_order(&narrow)
        );
    }

    /// The oracle sees the same number: little-endian input, big-endian walk.
    fn bit_serial(le: &[u8]) -> Scalar {
        let be: Vec<u8> = le.iter().rev().copied().collect();
        Scalar::reduce_be_bytes(&be)
    }

    #[test]
    fn limbwise_reduction_matches_bit_serial_on_seeded_inputs() {
        for chunk in crate::test_util::seeded_bytes(5, 512 * 64).chunks_exact(64) {
            let wide: [u8; 64] = chunk.try_into().unwrap();
            let reduced = Scalar::from_bytes_mod_order_wide(&wide);
            assert!(reduced.is_canonical());
            assert_eq!(reduced, bit_serial(&wide), "{wide:02x?}");
            let narrow: [u8; 32] = wide[..32].try_into().unwrap();
            assert_eq!(Scalar::from_bytes_mod_order(&narrow), bit_serial(&narrow));
        }
    }

    #[test]
    fn limbwise_reduction_matches_bit_serial_around_multiples_of_l() {
        // ℓ·k − 1, ℓ·k and ℓ·k + 1 for small k, for k a power of two up to the
        // top of 512 bits, and the all-ones ends of both input widths.
        let mut multipliers: Vec<[u64; 5]> = (1..=40).map(|k| [k, 0, 0, 0, 0]).collect();
        multipliers.extend((6..259).step_by(7).map(|bit| {
            let mut k = [0u64; 5];
            k[bit / 64] = 1 << (bit % 64);
            k
        }));
        for k in multipliers {
            let mut product = [0u64; 9];
            for (i, ki) in k.iter().enumerate() {
                let mut carry: u128 = 0;
                for (j, lj) in L.iter().enumerate() {
                    let v = (product[i + j] as u128) + (*ki as u128) * (*lj as u128) + carry;
                    product[i + j] = v as u64;
                    carry = v >> 64;
                }
                product[i + 4] = carry as u64;
            }
            assert_eq!(product[8], 0);
            let mut bytes = [0u8; 64];
            for (chunk, limb) in bytes.chunks_exact_mut(8).zip(product) {
                chunk.copy_from_slice(&limb.to_le_bytes());
            }
            assert!(
                Scalar::from_bytes_mod_order_wide(&bytes).is_zero(),
                "{k:x?}"
            );
            let mut plus_one = bytes;
            for byte in &mut plus_one {
                *byte = byte.wrapping_add(1);
                if *byte != 0 {
                    break;
                }
            }
            assert_eq!(Scalar::from_bytes_mod_order_wide(&plus_one), Scalar::ONE);
            assert_eq!(bit_serial(&plus_one), Scalar::ONE);
            let mut minus_one = bytes;
            for byte in &mut minus_one {
                *byte = byte.wrapping_sub(1);
                if *byte != 255 {
                    break;
                }
            }
            let l_minus_1 = Scalar(L).sub(&Scalar::ONE);
            assert_eq!(Scalar::from_bytes_mod_order_wide(&minus_one), l_minus_1);
            assert_eq!(bit_serial(&minus_one), l_minus_1);
        }
        assert_eq!(
            Scalar::from_bytes_mod_order_wide(&[0xff; 64]),
            bit_serial(&[0xff; 64])
        );
        assert_eq!(
            Scalar::from_bytes_mod_order(&[0xff; 32]),
            bit_serial(&[0xff; 32])
        );
    }

    #[test]
    fn largest_product_reduces_to_one() {
        // (ℓ − 1)² is the largest product `mul` hands to the reduction: (−1)² = 1.
        let l_minus_1 = Scalar(L).sub(&Scalar::ONE);
        assert_eq!(l_minus_1.mul(&l_minus_1), Scalar::ONE);
    }

    #[test]
    fn round_trip_bytes() {
        let s = Scalar::from_bytes_mod_order(&[0x42u8; 32]);
        assert_eq!(Scalar::from_bytes_mod_order(&s.to_bytes()), s);
    }

    #[test]
    fn mul_is_commutative_and_distributive() {
        let a = Scalar::from_bytes_mod_order(&[17u8; 32]);
        let b = Scalar::from_bytes_mod_order(&[99u8; 32]);
        let c = Scalar::from_bytes_mod_order(&[3u8; 32]);
        assert_eq!(a.mul(&b), b.mul(&a));
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}
