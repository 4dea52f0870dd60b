//! The shape of a generated RSA key, counted rather than timed.
//!
//! `generate_prime` sets the top two bits of every prime, so the product
//! of two is never a bit short and `RsaKeyPair::generate` is exactly two
//! searches. That is checked by replay: a second RNG on the same seed,
//! driven through two bare `generate_prime` calls, must find the key's
//! primes and stop at the stream position `generate` stopped at. While
//! only the top bit was forced, 39 % of seeds failed it — the key had
//! come from a second, third, … pair.

use gridsec_bignum::prime::generate_prime;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_util::rng::RngCore;

/// Generate the key for (`bits`, `seed`) and check everything a caller
/// may assume about it.
fn check_key(bits: usize, seed: u64) {
    let what = format!("keygen shape {bits} {seed}");
    let mut rng = ChaChaRng::from_seed_bytes(what.as_bytes());
    let mut replay = ChaChaRng::from_seed_bytes(what.as_bytes());
    let key = RsaKeyPair::generate(&mut rng, bits);

    // Two searches, no redraw.
    let first = generate_prime(&mut replay, bits / 2, 16);
    let second = generate_prime(&mut replay, bits - bits / 2, 16);
    let (p, q) = key.primes();
    assert_eq!((&first, &second), (p, q), "{what}: not the first pair");
    assert_eq!(rng.next_u64(), replay.next_u64(), "{what}: stream position");

    assert_eq!(key.public().modulus().bit_len(), bits, "{what}");
    assert_eq!((p.bit_len(), q.bit_len()), (bits / 2, bits - bits / 2));
    for prime in [p, q] {
        let top = prime.bit_len() - 1;
        assert!(prime.bit(top) && prime.bit(top - 1), "{what}: {prime}");
    }
    assert_ne!(p, q, "{what}");

    // The two halves invert each other: key transport at every width,
    // signatures from the 62-byte modulus SHA-256's DigestInfo needs.
    let wrapped = key.public().encrypt_pkcs1(&mut rng, b"cek!").unwrap();
    assert_eq!(key.decrypt_pkcs1(&wrapped).unwrap(), b"cek!", "{what}");
    if bits >= 8 * 62 {
        let sig = key.sign_pkcs1_sha256(what.as_bytes());
        assert!(key.public().verify_pkcs1_sha256(what.as_bytes(), &sig));
        assert!(!key.public().verify_pkcs1_sha256(b"another message", &sig));
    }
}

#[test]
fn every_seeded_key_is_full_length_from_exactly_two_searches() {
    // Even and odd widths around the limb and kernel-width boundaries;
    // 320 keys in all.
    for (bits, seeds) in [
        (128, 80),
        (129, 80),
        (255, 50),
        (256, 50),
        (511, 30),
        (512, 30),
    ] {
        for seed in 0..seeds {
            check_key(bits, seed);
        }
    }
}

#[test]
fn a_few_1024_bit_keys_have_the_same_shape() {
    for seed in 0..3 {
        check_key(1024, seed);
    }
}
