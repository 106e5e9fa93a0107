//! Same bytes as another implementation: public keys and signatures must be
//! byte-identical to OpenSSL's on the committed vector files (Ed25519 is
//! deterministic, so equality is the whole test), and `verify` must accept
//! them. `vectors/gen_ed25519_vectors.py` wrote both files offline.

use tnic_crypto::ed25519::SigningKey;

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// Checks every `seed:message:public:signature` line; returns the message
/// lengths seen.
fn check(vectors: &str) -> Vec<usize> {
    vectors
        .lines()
        .enumerate()
        .map(|(n, line)| {
            let fields: Vec<Vec<u8>> = line.split(':').map(unhex).collect();
            let [seed, message, public, signature] = &fields[..] else {
                panic!("line {}: four fields", n + 1);
            };
            let key = SigningKey::from_seed(seed[..].try_into().unwrap());
            assert_eq!(
                key.verifying_key().to_bytes()[..],
                public[..],
                "line {}",
                n + 1
            );
            let sig = key.sign(message);
            assert_eq!(sig.to_bytes()[..], signature[..], "line {}", n + 1);
            key.verifying_key()
                .verify(message, &sig)
                .unwrap_or_else(|e| panic!("line {}: {e}", n + 1));
            message.len()
        })
        .collect()
}

#[test]
fn rfc8032_section_7_1_all_five() {
    let lengths = check(include_str!("vectors/rfc8032_7_1.txt"));
    assert_eq!(lengths, [0, 1, 2, 1023, 64]);
}

#[test]
fn openssl_keys_and_signatures_byte_identical() {
    let lengths = check(include_str!("vectors/ed25519_openssl.txt"));
    assert!(lengths.len() >= 256);
    assert!((0..=200).all(|len| lengths.contains(&len)));
}
