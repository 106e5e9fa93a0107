//! The twisted Edwards curve −x² + y² = 1 + d·x²y² over GF(2²⁵⁵ − 19)
//! (the Ed25519 curve), in extended homogeneous coordinates.
//!
//! Scalar multiplication is fixed-base, at its textbook operation count: a
//! `Radix16Table` of (j + 1)·256ⁱ·P costs 32 KiB and 512 point operations
//! to build; after that one signed radix-16 walk adds one entry per digit
//! (64 additions and 4 doublings per scalar, and several scalars share the
//! doublings). The process-wide table of B serves
//! [`EdwardsPoint::basepoint_mul`] (key generation and `sign`), and every
//! signature verification walks a table of −A beside it
//! ([`PreparedVerifyingKey`]): BFT / CR clients build one per replica key
//! and check every reply against it.
//!
//! The scalar is taken as 256 unreduced bits. Table entries are chosen by
//! digit value, so none of this is constant-time (see the crate docs).
//!
//! [`PreparedVerifyingKey`]: crate::ed25519::PreparedVerifyingKey

use crate::error::CryptoError;
use crate::field25519::FieldElement;
use std::sync::OnceLock;

/// The table of B, built on the first [`EdwardsPoint::basepoint_mul`] of
/// the process.
static BASEPOINT_TABLE: OnceLock<Radix16Table> = OnceLock::new();

/// A point on the Ed25519 curve in extended coordinates (X : Y : Z : T) with
/// x = X/Z, y = Y/Z and T = XY/Z.
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    x: FieldElement,
    y: FieldElement,
    z: FieldElement,
    t: FieldElement,
}

/// A point readied to be the second operand of an addition:
/// (Y + X, Y − X, 2Z, 2d·T), which leaves the addition 8 multiplications.
#[derive(Debug, Clone, Copy)]
struct PreparedPoint {
    y_plus_x: FieldElement,
    y_minus_x: FieldElement,
    z2: FieldElement,
    t2d: FieldElement,
}

impl PreparedPoint {
    fn neg(&self) -> PreparedPoint {
        PreparedPoint {
            y_plus_x: self.y_minus_x,
            y_minus_x: self.y_plus_x,
            z2: self.z2,
            t2d: self.t2d.neg(),
        }
    }
}

/// A fixed-base table for a point P: row i holds (j + 1)·256ⁱ·P for
/// j in 0..8, the multiples a signed radix-16 digit pair can ask for
/// (32 KiB).
pub(crate) struct Radix16Table([[PreparedPoint; 8]; 32]);

impl Radix16Table {
    /// Builds the table of `point`: eight additions and eight doublings
    /// per row.
    pub(crate) fn new(point: &EdwardsPoint) -> Radix16Table {
        let mut row_base = *point;
        Radix16Table(core::array::from_fn(|_| {
            let row = row_base.multiples();
            for _ in 0..8 {
                row_base = row_base.double();
            }
            row
        }))
    }

    /// The process-wide table of the standard base point B.
    pub(crate) fn basepoint() -> &'static Radix16Table {
        BASEPOINT_TABLE.get_or_init(|| Radix16Table::new(&EdwardsPoint::basepoint()))
    }
}

/// Recodes a 256-bit scalar into signed radix-16 digits: the scalar is
/// Σ digits[i]·16ⁱ with digits[0..64] in [−8, 8) and digits[64] the carry
/// out of the top nibble: 0 for a scalar reduced modulo ℓ, 1 for anything
/// from just under 2²⁵⁵ − 2²⁵¹ up, clamped secrets included.
fn radix16(scalar_le: &[u8; 32]) -> [i8; 65] {
    let mut digits = [0i8; 65];
    for (i, byte) in scalar_le.iter().enumerate() {
        digits[2 * i] = (byte & 15) as i8;
        digits[2 * i + 1] = (byte >> 4) as i8;
    }
    let mut carry = 0;
    for digit in &mut digits[..64] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    digits[64] = carry;
    digits
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

    fn prepare(&self) -> PreparedPoint {
        PreparedPoint {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z2: self.z.add(&self.z),
            t2d: self.t.mul(&FieldElement::D2),
        }
    }

    /// `self + other` by the unified formulas (valid for doubling as well).
    fn add_prepared(&self, other: &PreparedPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&other.y_minus_x);
        let b = self.y.add(&self.x).mul(&other.y_plus_x);
        let c = self.t.mul(&other.t2d);
        let d = self.z.mul(&other.z2);
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

    /// `self + digit·P` from a table with `table[i]` = (i + 1)·P.
    fn add_multiple(&self, table: &[PreparedPoint], digit: i8) -> EdwardsPoint {
        if digit == 0 {
            return *self;
        }
        let multiple = &table[digit.unsigned_abs() as usize - 1];
        if digit > 0 {
            self.add_prepared(multiple)
        } else {
            self.add_prepared(&multiple.neg())
        }
    }

    /// `[P, 2P, 3P, …]` for this point P.
    fn multiples<const N: usize>(&self) -> [PreparedPoint; N] {
        let step = self.prepare();
        let mut multiple = *self;
        core::array::from_fn(|_| {
            let current = multiple.prepare();
            multiple = multiple.add_prepared(&step);
            current
        })
    }

    /// Point addition (unified formulas, valid for doubling as well).
    #[must_use]
    pub fn add(&self, other: &EdwardsPoint) -> EdwardsPoint {
        self.add_prepared(&other.prepare())
    }

    /// Point doubling (4 squarings + 4 multiplications).
    #[must_use]
    pub fn double(&self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let h = a.add(&b);
        let e = h.sub(&self.x.add(&self.y).square());
        let g = a.sub(&b);
        let f = c.add(&g);
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

    /// Multiplies the standard base point by a scalar: one addition from a
    /// process-wide table of (j + 1)·256ⁱ·B per signed radix-16 digit and
    /// four doublings in all. The scalar is used as-is (no reduction, no
    /// clamping).
    #[must_use]
    pub fn basepoint_mul(scalar_le: &[u8; 32]) -> EdwardsPoint {
        EdwardsPoint::fixed_base_mul([(Radix16Table::basepoint(), scalar_le)])
    }

    /// Σ [scalarᵢ]Pᵢ, each Pᵢ given by its table: one addition per signed
    /// radix-16 digit and four doublings shared by all the terms. Scalars
    /// are used as-is.
    pub(crate) fn fixed_base_mul<const N: usize>(
        terms: [(&Radix16Table, &[u8; 32]); N],
    ) -> EdwardsPoint {
        let digits = terms.map(|(_, scalar_le)| radix16(scalar_le));
        // Digit 2i + 1 weighs 16·256ⁱ: sum the odd digits over the rows first,
        // multiply that by 16, then add the even digits.
        let mut result = EdwardsPoint::IDENTITY;
        for ((Radix16Table(table), _), digits) in terms.iter().zip(&digits) {
            for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
                result = result.add_multiple(row, pair[1]);
            }
            if digits[64] != 0 {
                // 2²⁵⁶ = 16·(16·256³¹): two more 8-folds of the last row.
                result = result.add_multiple(&table[31], 8);
                result = result.add_multiple(&table[31], 8);
            }
        }
        result = result.double().double().double().double();
        for ((Radix16Table(table), _), digits) in terms.iter().zip(&digits) {
            for (row, pair) in table.iter().zip(digits.chunks_exact(2)) {
                result = result.add_multiple(row, pair[0]);
            }
        }
        result
    }

    /// Double-and-add over the public `add` and `double`: what the
    /// fixed-base walk is tested against.
    #[cfg(test)]
    fn scalar_mul_reference(&self, scalar_le: &[u8; 32]) -> EdwardsPoint {
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
        assert!(b.scalar_mul_reference(&scalar_bytes(0)).is_identity());
        assert_eq!(b.scalar_mul_reference(&scalar_bytes(1)), b);
        assert_eq!(b.scalar_mul_reference(&scalar_bytes(2)), b.double());
        assert_eq!(
            b.scalar_mul_reference(&scalar_bytes(5)),
            b.double().double().add(&b)
        );
    }

    #[test]
    fn scalar_mul_distributes_over_addition() {
        let b = EdwardsPoint::basepoint();
        let p3 = b.scalar_mul_reference(&scalar_bytes(3));
        let p7 = b.scalar_mul_reference(&scalar_bytes(7));
        let p10 = b.scalar_mul_reference(&scalar_bytes(10));
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

    /// 0, 1, ℓ − 1, ℓ, 2²⁵⁵ − 1, 2²⁵⁶ − 1 and 256 seeded scalars clamped the
    /// way RFC 8032 §5.1.5 derives secret scalars.
    fn edge_and_clamped_scalars() -> Vec<[u8; 32]> {
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
        for chunk in crate::test_util::seeded_bytes(3, 256 * 32).chunks_exact(32) {
            let mut s: [u8; 32] = chunk.try_into().unwrap();
            s[0] &= 248;
            s[31] &= 127;
            s[31] |= 64;
            scalars.push(s);
        }
        scalars
    }

    /// 256 seeded scalars with all 256 bits free.
    fn full_width_scalars(seed: u8) -> Vec<[u8; 32]> {
        crate::test_util::seeded_bytes(seed, 256 * 32)
            .chunks_exact(32)
            .map(|chunk| chunk.try_into().unwrap())
            .collect()
    }

    /// Σ digits[i]·2^(radix_bits·i) as 33 little-endian bytes, by Horner from
    /// the top digit. Every partial sum of a signed-digit form of a
    /// non-negative scalar is itself non-negative, so nothing may leave the
    /// 264 bits in either direction.
    fn resum(digits: &[i8], radix_bits: u32) -> [u8; 33] {
        let mut acc = [0u8; 33];
        for &digit in digits.iter().rev() {
            let mut carry = i32::from(digit);
            for byte in &mut acc {
                let v = (i32::from(*byte) << radix_bits) + carry;
                *byte = v.rem_euclid(256) as u8;
                carry = v.div_euclid(256);
            }
            assert_eq!(carry, 0, "partial sum outside [0, 2²⁶⁴)");
        }
        acc
    }

    fn widened(scalar: &[u8; 32]) -> [u8; 33] {
        let mut out = [0u8; 33];
        out[..32].copy_from_slice(scalar);
        out
    }

    #[test]
    fn radix16_digits_resum_to_the_scalar() {
        let mut scalars = edge_and_clamped_scalars();
        scalars.extend(full_width_scalars(4));
        for s in &scalars {
            let digits = radix16(s);
            assert!(digits[..64].iter().all(|d| (-8..8).contains(d)), "{s:02x?}");
            assert!((0..=1).contains(&digits[64]));
            assert_eq!(resum(&digits, 4), widened(s), "{s:02x?}");
        }
        assert_eq!(
            radix16(&[0xff; 32])[64],
            1,
            "the carry out of digit 63 is real"
        );
    }

    #[test]
    fn basepoint_mul_matches_generic_scalar_mul() {
        let b = EdwardsPoint::basepoint();
        let scalars = edge_and_clamped_scalars();
        for s in &scalars {
            let expected = b.scalar_mul_reference(s);
            assert_eq!(EdwardsPoint::basepoint_mul(s), expected, "{s:02x?}");
        }
        assert_eq!(EdwardsPoint::basepoint_mul(&scalars[2]), b.neg());
    }

    /// `[k]A + [S]B` the way verification computes it: A's table and B's
    /// sharing one walk.
    #[test]
    fn joint_pass_matches_separate_multiplications() {
        let b = EdwardsPoint::basepoint();
        let scalars = full_width_scalars(6);
        for triple in scalars[..48].chunks_exact(3) {
            let [k, a_scalar, s] = triple else {
                unreachable!()
            };
            let a = b.scalar_mul_reference(a_scalar);
            let expected = a
                .scalar_mul_reference(k)
                .add(&EdwardsPoint::basepoint_mul(s));
            assert_eq!(
                EdwardsPoint::fixed_base_mul([
                    (&Radix16Table::new(&a), k),
                    (Radix16Table::basepoint(), s)
                ]),
                expected
            );
            assert_eq!(
                a.scalar_mul_reference(k).add(&b.scalar_mul_reference(s)),
                expected
            );
        }
    }

    #[test]
    fn scalar_mul_on_torsion_and_mixed_order_points() {
        // A point outside the prime-order subgroup: B plus the order-2 point.
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let order_two = EdwardsPoint::decompress(&minus_one).unwrap();
        let mixed = EdwardsPoint::basepoint().add(&order_two);
        for s in full_width_scalars(7).iter().take(16) {
            let torsion = order_two.scalar_mul_reference(s);
            if s[0] & 1 == 0 {
                assert!(torsion.is_identity());
            } else {
                assert_eq!(torsion, order_two);
            }
            let prime_order = EdwardsPoint::basepoint().scalar_mul_reference(s);
            assert_eq!(mixed.scalar_mul_reference(s), prime_order.add(&torsion));
        }
    }

    /// Any point's table, not only B's: the 262 edge and clamped scalars
    /// (whose radix-16 carry into `digits[64]` is 1 for most of them) and
    /// 256 full-width ones, on B, a mixed-order point and an order-8 point,
    /// alone and as two terms sharing the doublings.
    #[test]
    fn fixed_base_mul_matches_reference_for_any_table() {
        let b = EdwardsPoint::basepoint();
        let order_eight = EdwardsPoint::decompress(&[
            0xc7, 0x17, 0x6a, 0x70, 0x3d, 0x4d, 0xd8, 0x4f, 0xba, 0x3c, 0x0b, 0x76, 0x0d, 0x10,
            0x67, 0x0f, 0x2a, 0x20, 0x53, 0xfa, 0x2c, 0x39, 0xcc, 0xc6, 0x4e, 0xc7, 0xfd, 0x77,
            0x92, 0xac, 0x03, 0x7a,
        ])
        .unwrap();
        assert!(order_eight
            .scalar_mul_reference(&scalar_bytes(8))
            .is_identity());
        assert!(!order_eight
            .scalar_mul_reference(&scalar_bytes(4))
            .is_identity());
        let mixed = b.double().add(&order_eight);
        let mut scalars = edge_and_clamped_scalars();
        assert_eq!(scalars.len(), 262);
        assert!(scalars.iter().any(|s| radix16(s)[64] == 1));
        scalars.extend(full_width_scalars(8));
        for point in [b, mixed, order_eight] {
            let table = Radix16Table::new(&point);
            for s in &scalars {
                assert_eq!(
                    EdwardsPoint::fixed_base_mul([(&table, s)]),
                    point.scalar_mul_reference(s),
                    "{s:02x?}"
                );
            }
        }
        let (mixed_table, b_table) = (Radix16Table::new(&mixed), Radix16Table::basepoint());
        for pair in scalars.chunks_exact(2) {
            let [k, s] = pair else { unreachable!() };
            assert_eq!(
                EdwardsPoint::fixed_base_mul([(&mixed_table, k), (b_table, s)]),
                mixed
                    .scalar_mul_reference(k)
                    .add(&b.scalar_mul_reference(s)),
                "{k:02x?} {s:02x?}"
            );
        }
    }

    #[test]
    fn compress_decompress_round_trip() {
        let b = EdwardsPoint::basepoint();
        for n in [1u64, 2, 3, 17, 255, 65537] {
            let p = b.scalar_mul_reference(&scalar_bytes(n));
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
