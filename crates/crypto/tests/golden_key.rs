//! One seeded RSA key, pinned.
//!
//! Key generation is a pure function of the RNG stream: which primes
//! the search in `gridsec_bignum::prime` returns and how many bytes it
//! draws on the way decide every seeded key, certificate and transcript
//! in the workspace. A faster search must land on the same key; a
//! search that draws differently moves it, and says so through
//! `scripts/repin.sh`. The pin (`key.rsa512` in `tests/golden.pins`)
//! held from before the sieve until the start draw began forcing bit
//! `bits - 2`, so that a key is exactly two searches; that re-pin was
//! its last move.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_crypto::sha256::sha256;
use gridsec_util::pins;

#[test]
fn seeded_512_bit_key_is_the_pinned_key() {
    let mut rng = ChaChaRng::from_seed_bytes(b"golden key");
    let key = RsaKeyPair::generate(&mut rng, 512);
    let mut n_then_d = key.public().modulus().to_bytes_be();
    n_then_d.extend(key.private_exponent().to_bytes_be());
    pins::check("key.rsa512", sha256(&n_then_d), n_then_d.len());
}
