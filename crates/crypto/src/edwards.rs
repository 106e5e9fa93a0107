//! The twisted Edwards curve −x² + y² = 1 + d·x²y² over GF(2²⁵⁵ − 19)
//! (the Ed25519 curve), in extended homogeneous coordinates.

use crate::error::CryptoError;
use crate::field25519::FieldElement;
use std::sync::OnceLock;

/// 2^i·B for i in 0..256, built on the first [`EdwardsPoint::basepoint_mul`]
/// of the process (255 doublings, 32 KiB).
static BASEPOINT_POWERS: OnceLock<[EdwardsPoint; 256]> = OnceLock::new();

/// A point on the Ed25519 curve in extended coordinates (X : Y : Z : T) with
/// x = X/Z, y = Y/Z and T = XY/Z.
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

impl EdwardsPoint {
    /// The identity element (0, 1).
    pub const IDENTITY: EdwardsPoint = EdwardsPoint {
        x: FieldElement::ZERO,
        y: FieldElement::ONE,
        z: FieldElement::ONE,
        t: FieldElement::ZERO,
    };

    /// The standard base point B with y = 4/5.
    #[must_use]
    pub fn basepoint() -> EdwardsPoint {
        let x = FieldElement([
            0xc956_2d60_8f25_d51a,
            0x692c_c760_9525_a7b2,
            0xc0a4_e231_fdd6_dc5c,
            0x2169_36d3_cd6e_53fe,
        ]);
        let y = FieldElement([
            0x6666_6666_6666_6658,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
            0x6666_6666_6666_6666,
        ]);
        EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        }
    }

    /// Point addition (unified formulas, valid for doubling as well).
    #[must_use]
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let b = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let c = self.t.mul(&FieldElement::D2).mul(&other.t);
        let d = self.z.mul(&other.z).add(&self.z.mul(&other.z));
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Point doubling.
    #[must_use]
    pub fn double(&self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square().add(&self.z.square());
        let d = a.neg();
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = d.add(&b);
        let f = g.sub(&c);
        let h = d.sub(&b);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// Negation: (x, y) ↦ (−x, y).
    #[must_use]
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication by a 256-bit little-endian scalar (double-and-add).
    ///
    /// The scalar is used as-is (no reduction, no clamping); callers decide
    /// whether to clamp (X25519-style secret keys) or reduce (signature math).
    #[must_use]
    pub fn scalar_mul(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
        let mut result = EdwardsPoint::IDENTITY;
        for byte_index in (0..32).rev() {
            for bit in (0..8).rev() {
                result = result.double();
                if (scalar_le[byte_index] >> bit) & 1 == 1 {
                    result = result.add(self);
                }
            }
        }
        result
    }

    /// Multiplies the standard base point by a scalar: one addition from a
    /// process-wide table of 2^i·B per set bit, no doublings. The scalar is
    /// used as-is, like in [`EdwardsPoint::scalar_mul`].
    #[must_use]
    pub fn basepoint_mul(scalar_le: &[u8; 32]) -> EdwardsPoint {
        let powers = BASEPOINT_POWERS.get_or_init(|| {
            let mut power = EdwardsPoint::basepoint();
            core::array::from_fn(|_| {
                let current = power;
                power = power.double();
                current
            })
        });
        let mut result = EdwardsPoint::IDENTITY;
        for (i, power) in powers.iter().enumerate() {
            if (scalar_le[i / 8] >> (i % 8)) & 1 == 1 {
                result = result.add(power);
            }
        }
        result
    }

    /// Compresses the point to its 32-byte Ed25519 encoding
    /// (y with the sign of x in the top bit).
    #[must_use]
    pub fn compress(&self) -> [u8; 32] {
        let z_inv = self.z.invert();
        let x = self.x.mul(&z_inv);
        let y = self.y.mul(&z_inv);
        let mut bytes = y.to_bytes();
        if x.is_negative() {
            bytes[31] |= 0x80;
        }
        bytes
    }

    /// Decompresses a 32-byte Ed25519 point encoding.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidPoint`] if the encoding does not
    /// correspond to a point on the curve.
    pub fn decompress(bytes: &[u8; 32]) -> Result<EdwardsPoint, CryptoError> {
        let sign = (bytes[31] >> 7) & 1;
        let y = FieldElement::from_bytes(bytes);
        let y_sq = y.square();
        let u = y_sq.sub(&FieldElement::ONE);
        let v = y_sq.mul(&FieldElement::D).add(&FieldElement::ONE);
        let mut x = FieldElement::sqrt_ratio(&u, &v).ok_or(CryptoError::InvalidPoint)?;
        if x.is_zero() && sign == 1 {
            return Err(CryptoError::InvalidPoint);
        }
        if u64::from(x.is_negative()) != u64::from(sign) {
            x = x.neg();
        }
        Ok(EdwardsPoint {
            x,
            y,
            z: FieldElement::ONE,
            t: x.mul(&y),
        })
    }

    /// Returns `true` if this is the identity element.
    #[must_use]
    pub fn is_identity(&self) -> bool {
        // x == 0 and y == z
        let z_inv = self.z.invert();
        self.x.mul(&z_inv).is_zero() && self.y.mul(&z_inv) == FieldElement::ONE
    }

    /// Checks whether the affine coordinates satisfy the curve equation.
    #[must_use]
    pub fn is_on_curve(&self) -> bool {
        let z_inv = self.z.invert();
        let x = self.x.mul(&z_inv);
        let y = self.y.mul(&z_inv);
        let x2 = x.square();
        let y2 = y.square();
        let lhs = y2.sub(&x2);
        let rhs = FieldElement::ONE.add(&FieldElement::D.mul(&x2).mul(&y2));
        lhs == rhs
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        // Compare affine coordinates: X1*Z2 == X2*Z1 and Y1*Z2 == Y2*Z1.
        self.x.mul(&other.z) == other.x.mul(&self.z) && self.y.mul(&other.z) == other.y.mul(&self.z)
    }
}

impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar_bytes(n: u64) -> [u8; 32] {
        let mut b = [0u8; 32];
        b[..8].copy_from_slice(&n.to_le_bytes());
        b
    }

    #[test]
    fn basepoint_is_on_curve() {
        assert!(EdwardsPoint::basepoint().is_on_curve());
    }

    #[test]
    fn identity_is_on_curve_and_neutral() {
        let b = EdwardsPoint::basepoint();
        assert!(EdwardsPoint::IDENTITY.is_on_curve());
        assert_eq!(b.add(&EdwardsPoint::IDENTITY), b);
        assert_eq!(EdwardsPoint::IDENTITY.add(&b), b);
    }

    #[test]
    fn double_matches_add() {
        let b = EdwardsPoint::basepoint();
        assert_eq!(b.double(), b.add(&b));
        let b4 = b.double().double();
        assert_eq!(b4, b.add(&b).add(&b).add(&b));
        assert!(b4.is_on_curve());
    }

    #[test]
    fn addition_is_commutative_and_associative() {
        let b = EdwardsPoint::basepoint();
        let p = b.double();
        let q = b.double().double().add(&b);
        assert_eq!(p.add(&q), q.add(&p));
        assert_eq!(p.add(&q).add(&b), p.add(&q.add(&b)));
    }

    #[test]
    fn negation_cancels() {
        let b = EdwardsPoint::basepoint();
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = EdwardsPoint::basepoint();
        assert!(b.scalar_mul(&scalar_bytes(0)).is_identity());
        assert_eq!(b.scalar_mul(&scalar_bytes(1)), b);
        assert_eq!(b.scalar_mul(&scalar_bytes(2)), b.double());
        assert_eq!(b.scalar_mul(&scalar_bytes(5)), b.double().double().add(&b));
    }

    #[test]
    fn scalar_mul_distributes_over_addition() {
        let b = EdwardsPoint::basepoint();
        let p3 = b.scalar_mul(&scalar_bytes(3));
        let p7 = b.scalar_mul(&scalar_bytes(7));
        let p10 = b.scalar_mul(&scalar_bytes(10));
        assert_eq!(p3.add(&p7), p10);
    }

    /// The group order L as a little-endian scalar.
    fn order_bytes() -> [u8; 32] {
        let mut l_bytes = [0u8; 32];
        for (i, limb) in crate::scalar25519::L.iter().enumerate() {
            l_bytes[i * 8..i * 8 + 8].copy_from_slice(&limb.to_le_bytes());
        }
        l_bytes
    }

    #[test]
    fn order_l_times_basepoint_is_identity() {
        assert!(EdwardsPoint::basepoint_mul(&order_bytes()).is_identity());
    }

    #[test]
    fn basepoint_mul_matches_generic_scalar_mul() {
        let b = EdwardsPoint::basepoint();
        let l_bytes = order_bytes();
        let mut l_minus_one = l_bytes;
        l_minus_one[0] -= 1;
        let mut all_ones_255 = [0xffu8; 32];
        all_ones_255[31] = 0x7f;
        let mut scalars = vec![
            scalar_bytes(0),
            scalar_bytes(1),
            l_minus_one,
            l_bytes,
            all_ones_255,
            [0xff; 32],
        ];
        // Clamped the way RFC 8032 §5.1.5 derives secret scalars.
        for chunk in crate::test_util::seeded_bytes(3, 256 * 32).chunks_exact(32) {
            let mut s: [u8; 32] = chunk.try_into().unwrap();
            s[0] &= 248;
            s[31] &= 127;
            s[31] |= 64;
            scalars.push(s);
        }
        for s in &scalars {
            assert_eq!(EdwardsPoint::basepoint_mul(s), b.scalar_mul(s), "{s:02x?}");
        }
        assert_eq!(EdwardsPoint::basepoint_mul(&l_minus_one), b.neg());
    }

    #[test]
    fn compress_decompress_round_trip() {
        let b = EdwardsPoint::basepoint();
        for n in [1u64, 2, 3, 17, 255, 65537] {
            let p = b.scalar_mul(&scalar_bytes(n));
            let enc = p.compress();
            let dec = EdwardsPoint::decompress(&enc).expect("valid point");
            assert_eq!(dec, p, "n = {n}");
            assert!(dec.is_on_curve());
        }
    }

    #[test]
    fn basepoint_compresses_to_rfc_encoding() {
        // RFC 8032: the encoding of the base point is 0x5866666666...66.
        let enc = EdwardsPoint::basepoint().compress();
        assert_eq!(enc[0], 0x58);
        assert!(enc[1..31].iter().all(|&b| b == 0x66));
        assert_eq!(enc[31], 0x66);
    }

    #[test]
    fn decompress_rejects_invalid_encoding() {
        // y = 7 does not correspond to a curve point with the given sign bits
        // for at least one of the two sign choices combined with tampering.
        let mut bytes = [0u8; 32];
        bytes[0] = 2; // y = 2 is not on the curve
        assert!(EdwardsPoint::decompress(&bytes).is_err());
    }
}
