//! One seeded RSA key, pinned.
//!
//! Key generation is a pure function of the RNG stream: which primes
//! the search in `gridsec_bignum::prime` returns and how many bytes it
//! draws on the way decide every seeded key, certificate and transcript
//! in the workspace. The digest below was computed before that search
//! grew its sieve; a faster search must land on the same key.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_crypto::sha256::sha256;

#[test]
fn seeded_512_bit_key_is_the_pinned_key() {
    let mut rng = ChaChaRng::from_seed_bytes(b"golden key");
    let key = RsaKeyPair::generate(&mut rng, 512);
    let mut n_then_d = key.public().modulus().to_bytes_be();
    n_then_d.extend(key.private_exponent().to_bytes_be());
    let digest: String = sha256(&n_then_d)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        digest,
        "711e240d5c40562d4989141731db6f3e72e3395297ada63e5181ce15135ca38f"
    );
}
