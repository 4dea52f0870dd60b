//! One seeded RSA key, pinned.
//!
//! Key generation is a pure function of the RNG stream: which primes
//! `gridsec_bignum::prime::generate_prime` returns and how many bytes
//! it draws on the way decide every seeded key, certificate and
//! transcript in the workspace. A faster generator that draws the same
//! way must land on the same key; one that draws differently moves it,
//! and says so through `scripts/repin.sh`. The pin (`key.rsa512` in
//! `tests/golden.pins`) held from before the sieve until PR 18 forced
//! bit `bits - 2` of every start draw (a key is exactly two searches),
//! and last moved in PR 19, when the primes stopped being searched for
//! and tested 29 times and began to be constructed with a Pocklington
//! proof. `scripts/verify.sh` runs this test under `--release` as well
//! as in the debug profile: the debug-only Miller–Rabin cross-check of
//! every constructed prime draws from its own generator, so both
//! profiles must reach the one pin.

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
