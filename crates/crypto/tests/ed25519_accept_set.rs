//! The accept set of `VerifyingKey::verify` on hostile inputs, pinned.
//!
//! `vectors/ed25519_accept_set.txt` was dumped from the build *before* the
//! verification equation was rearranged into one joint pass (`[S]B − [k]A`
//! compared with R instead of `[S]B == R + [k]A`), from the case list below:
//! one line per case, `Ok` or the exact `CryptoError` variant, then a SHA-512
//! over every (key, signature, message) fed in, so a drifted case list cannot
//! pass for a reproduced table. Any change to how `verify` is computed must
//! reproduce the file line for line, through `VerifyingKey::verify` and
//! through `PreparedVerifyingKey::verify` alike.
//!
//! What the table records and does not endorse: `FieldElement::from_bytes`
//! reduces y ≥ p, so non-canonical encodings of R and A decompress (RFC 8032
//! §5.1.3 says reject), and the equation is the cofactorless one, so
//! small-order keys verify for the messages whose k cancels them. Both are
//! decisions for the decoder-totality work (ROADMAP item 3), not for a PR
//! that changes speed.

use std::fmt::Write;
use tnic_crypto::ed25519::{PreparedVerifyingKey, Signature, SigningKey, VerifyingKey};
use tnic_crypto::edwards::EdwardsPoint;
use tnic_crypto::scalar25519::L;
use tnic_crypto::{CryptoError, Sha512};

const GOLDEN: &str = include_str!("vectors/ed25519_accept_set.txt");
const MESSAGE: &[u8] = b"tnic accept set";

/// The eight points of order dividing 8, canonically encoded.
const SMALL_ORDER: [&str; 8] = [
    "0100000000000000000000000000000000000000000000000000000000000000",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac037a",
    "0000000000000000000000000000000000000000000000000000000000000080",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05",
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc85",
    "0000000000000000000000000000000000000000000000000000000000000000",
    "c7176a703d4dd84fba3c0b760d10670f2a2053fa2c39ccc64ec7fd7792ac03fa",
];

fn unhex32(s: &str) -> [u8; 32] {
    core::array::from_fn(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap())
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn le_bytes(limbs: [u64; 4]) -> [u8; 32] {
    core::array::from_fn(|i| limbs[i / 8].to_le_bytes()[i % 8])
}

/// The encoding of y = p + `offset` (0..=18 are all the non-canonical y)
/// with the given sign bit.
fn y_from_p(offset: u8, sign: bool) -> [u8; 32] {
    let mut bytes = [0xff; 32];
    bytes[0] = 0xed + offset;
    bytes[31] = if sign { 0xff } else { 0x7f };
    bytes
}

/// Verifies one case with a given key encoding.
type Verify = fn(&[u8; 32], &[u8], &Signature) -> Result<(), CryptoError>;

struct Table {
    verify: Verify,
    lines: String,
    inputs: Sha512,
}

impl Table {
    fn case(&mut self, label: &str, key: &[u8; 32], r: &[u8; 32], s: &[u8; 32], message: &[u8]) {
        let mut sig = [0u8; 64];
        sig[..32].copy_from_slice(r);
        sig[32..].copy_from_slice(s);
        self.inputs.update(key);
        self.inputs.update(&sig);
        self.inputs.update(&(message.len() as u64).to_le_bytes());
        self.inputs.update(message);
        match (self.verify)(key, message, &Signature(sig)) {
            Ok(()) => writeln!(self.lines, "{label}: Ok"),
            Err(e) => writeln!(self.lines, "{label}: {e:?}"),
        }
        .unwrap();
    }
}

fn verdict_table(verify: Verify) -> String {
    let signer = SigningKey::from_seed(&[0x21; 32]);
    let key = signer.verifying_key().to_bytes();
    let sig = signer.sign(MESSAGE).to_bytes();
    let r: [u8; 32] = sig[..32].try_into().unwrap();
    let s: [u8; 32] = sig[32..].try_into().unwrap();
    let zero = [0u8; 32];

    let mut t = Table {
        verify,
        lines: String::new(),
        inputs: Sha512::new(),
    };
    t.case("valid", &key, &r, &s, MESSAGE);
    t.case("valid, other message", &key, &r, &s, b"tnic accept set!");
    let other = SigningKey::from_seed(&[0x22; 32])
        .verifying_key()
        .to_bytes();
    t.case("valid, wrong key", &other, &r, &s, MESSAGE);

    // Every non-canonical y, as R and as A, under the honest S and under S = 0.
    for offset in 0..=18 {
        for sign in [false, true] {
            let enc = y_from_p(offset, sign);
            let name = format!("y=p+{offset} sign={}", u8::from(sign));
            t.case(&format!("R {name}"), &key, &enc, &s, MESSAGE);
            t.case(&format!("R {name} S=0"), &key, &enc, &zero, MESSAGE);
            t.case(&format!("A {name}"), &enc, &r, &s, MESSAGE);
            t.case(&format!("A {name} S=0"), &enc, &r, &zero, MESSAGE);
        }
    }

    // The torsion corner: the eight small-order points, their non-canonical
    // spellings (y = p is 0, y = p + 1 is 1) and the two x = 0 encodings with
    // the sign bit set, crossed as key and as R under S = 0 — where the
    // cofactorless equation accepts exactly when R = −[k]A — and each alone
    // against the honest other half.
    let mut torsion: Vec<(String, [u8; 32])> = SMALL_ORDER
        .iter()
        .enumerate()
        .map(|(i, h)| (format!("T{i}"), unhex32(h)))
        .collect();
    torsion.push(("y=p".into(), y_from_p(0, false)));
    torsion.push(("y=p|sign".into(), y_from_p(0, true)));
    torsion.push(("y=p+1".into(), y_from_p(1, false)));
    torsion.push(("y=p+1|sign".into(), y_from_p(1, true)));
    let mut one_signed = unhex32(SMALL_ORDER[0]);
    one_signed[31] |= 0x80;
    torsion.push(("y=1|sign".into(), one_signed));
    let mut minus_one_signed = unhex32(SMALL_ORDER[4]);
    minus_one_signed[31] |= 0x80;
    torsion.push(("y=-1|sign".into(), minus_one_signed));
    for (name, enc) in &torsion {
        t.case(&format!("A={name}"), enc, &r, &s, MESSAGE);
        t.case(&format!("R={name}"), &key, enc, &s, MESSAGE);
        t.case(&format!("R={name} S=0"), &key, enc, &zero, MESSAGE);
    }
    for (a_name, a) in &torsion {
        for (r_name, small_r) in &torsion {
            for message in [&b"a"[..], b"b", b"c"] {
                let label = format!("A={a_name} R={r_name} S=0 m={}", message[0] as char);
                t.case(&label, a, small_r, &zero, message);
            }
        }
    }

    // S at and around the range check, also with an undecodable R and key to
    // pin which check speaks first.
    let l = le_bytes(L);
    let mut l_minus_1 = l;
    l_minus_1[0] -= 1;
    let mut l_plus_1 = l;
    l_plus_1[0] += 1;
    let mut two_253 = [0u8; 32];
    two_253[31] = 0x20;
    let mut not_a_point = [0u8; 32];
    not_a_point[0] = 2;
    for (name, s_enc) in [
        ("0", zero),
        ("l-1", l_minus_1),
        ("l", l),
        ("l+1", l_plus_1),
        ("2^253", two_253),
        ("2^256-1", [0xff; 32]),
    ] {
        t.case(&format!("S={name}"), &key, &r, &s_enc, MESSAGE);
        t.case(
            &format!("S={name} R=y2"),
            &key,
            &not_a_point,
            &s_enc,
            MESSAGE,
        );
        t.case(&format!("S={name} A=y2"), &not_a_point, &r, &s_enc, MESSAGE);
    }
    t.case("R=y2 A=y2", &not_a_point, &not_a_point, &s, MESSAGE);

    // Every single-bit flip of the signature and of the key.
    for bit in 0..512 {
        let mut flipped = sig;
        flipped[bit / 8] ^= 1 << (bit % 8);
        let (fr, fs) = flipped.split_at(32);
        t.case(
            &format!("sig bit {bit}"),
            &key,
            fr.try_into().unwrap(),
            fs.try_into().unwrap(),
            MESSAGE,
        );
    }
    for bit in 0..256 {
        let mut flipped = key;
        flipped[bit / 8] ^= 1 << (bit % 8);
        t.case(&format!("key bit {bit}"), &flipped, &r, &s, MESSAGE);
    }

    writeln!(t.lines, "inputs sha512: {}", hex(&t.inputs.finalize())).unwrap();
    t.lines
}

#[test]
fn small_order_constants_are_the_eight_torsion_points() {
    let mut seen = Vec::new();
    for h in SMALL_ORDER {
        let enc = unhex32(h);
        let point = EdwardsPoint::decompress(&enc).expect("on the curve");
        assert_eq!(point.compress(), enc, "canonical");
        assert!(point.double().double().double().is_identity());
        assert!(!seen.contains(&enc));
        seen.push(enc);
    }
}

fn assert_matches_golden(table: &str) {
    for (n, (got, want)) in table.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {}", n + 1);
    }
    assert_eq!(table.lines().count(), GOLDEN.lines().count());
}

#[test]
fn hostile_input_verdicts_match_the_table_dumped_before_the_rewrite() {
    assert_matches_golden(&verdict_table(|key, message, sig| {
        VerifyingKey(*key).verify(message, sig)
    }));
}

/// The prepared key gives the same verdict on every case, down to which
/// check speaks first when S, R and the key are all bad.
#[test]
fn prepared_key_verdicts_match_the_same_table() {
    assert_matches_golden(&verdict_table(|key, message, sig| {
        PreparedVerifyingKey::new(VerifyingKey(*key)).verify(message, sig)
    }));
}
