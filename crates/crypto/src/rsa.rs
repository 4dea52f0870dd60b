//! RSA key generation, PKCS#1 v1.5 signatures, and key-transport
//! encryption.
//!
//! GSI identity certificates, proxy certificates, GRIM host credentials,
//! CAS assertion signatures, and XML-Signature values in `gridsec-wsse`
//! all sign through this module.
//!
//! Supported operations:
//! * [`RsaKeyPair::generate`] — two-prime key generation with `e = 65537`,
//!   CRT parameters precomputed.
//! * [`RsaKeyPair::sign_pkcs1_sha256`] / [`RsaPublicKey::verify_pkcs1_sha256`]
//!   — EMSA-PKCS1-v1_5 with the SHA-256 `DigestInfo` prefix.
//! * [`RsaPublicKey::encrypt_pkcs1`] / [`RsaKeyPair::decrypt_pkcs1`] —
//!   EME-PKCS1-v1_5 (type 2) key transport, used to wrap AEAD content keys
//!   in XML-Encryption.
//! * [`RsaVerifyCtx`] — a precomputed verification context for one hot
//!   public key (CA verify key, a busy server's key), with
//!   [`RsaVerifyCtx::verify_batch`] verifying N signatures under one
//!   shared Montgomery context and attributing any failures by index.

use std::sync::Arc;

use crate::ct::ct_eq;
use crate::sha256::sha256;
use crate::CryptoError;
use gridsec_bignum::modular::{mod_inv, mod_pow};
use gridsec_bignum::montgomery::Montgomery;
use gridsec_bignum::prime::{generate_prime, EntropySource};
use gridsec_bignum::BigUint;

/// DER `DigestInfo` prefix for SHA-256 (RFC 8017 §9.2 note 1).
const SHA256_DIGEST_INFO: [u8; 19] = [
    0x30, 0x31, 0x30, 0x0d, 0x06, 0x09, 0x60, 0x86, 0x48, 0x01, 0x65, 0x03, 0x04, 0x02, 0x01, 0x05,
    0x00, 0x04, 0x20,
];

/// The public half of an RSA key.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
}

impl RsaPublicKey {
    /// Construct from modulus and public exponent.
    pub fn new(n: BigUint, e: BigUint) -> Self {
        RsaPublicKey { n, e }
    }

    /// The modulus.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The public exponent.
    pub fn exponent(&self) -> &BigUint {
        &self.e
    }

    /// Modulus length in bytes.
    pub fn modulus_len(&self) -> usize {
        self.n.bit_len().div_ceil(8)
    }

    /// Verify an EMSA-PKCS1-v1_5 / SHA-256 signature over `msg`.
    pub fn verify_pkcs1_sha256(&self, msg: &[u8], signature: &[u8]) -> bool {
        let k = self.modulus_len();
        if signature.len() != k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.n {
            return false;
        }
        let em = mod_pow(&s, &self.e, &self.n).to_bytes_be_padded(k);
        let expected = match emsa_pkcs1_encode(msg, k) {
            Ok(v) => v,
            Err(_) => return false,
        };
        ct_eq(&em, &expected)
    }

    /// EME-PKCS1-v1_5 (type 2) encryption for key transport.
    ///
    /// `msg` must be at most `modulus_len() - 11` bytes.
    pub fn encrypt_pkcs1<E: EntropySource>(
        &self,
        rng: &mut E,
        msg: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let k = self.modulus_len();
        if msg.len() + 11 > k {
            return Err(CryptoError::Malformed("message too long for RSA modulus"));
        }
        let mut em = vec![0u8; k];
        em[1] = 0x02;
        let ps_len = k - 3 - msg.len();
        // Nonzero random padding bytes.
        let mut i = 0;
        while i < ps_len {
            let mut b = [0u8; 1];
            rng.fill_bytes(&mut b);
            if b[0] != 0 {
                em[2 + i] = b[0];
                i += 1;
            }
        }
        em[2 + ps_len] = 0x00;
        em[3 + ps_len..].copy_from_slice(msg);
        let m = BigUint::from_bytes_be(&em);
        Ok(mod_pow(&m, &self.e, &self.n).to_bytes_be_padded(k))
    }

    /// Raw public-key operation (`m^e mod n`), exposed for protocol code
    /// that layers its own encoding.
    pub fn raw_public_op(&self, m: &BigUint) -> BigUint {
        mod_pow(m, &self.e, &self.n)
    }

    /// A short, stable fingerprint of the key: SHA-256 over `n || e`.
    pub fn fingerprint(&self) -> [u8; 32] {
        let mut data = self.n.to_bytes_be();
        data.extend_from_slice(&self.e.to_bytes_be());
        sha256(&data)
    }

    /// Build a reusable verification context for this key (see
    /// [`RsaVerifyCtx`]).
    pub fn verify_ctx(&self) -> RsaVerifyCtx {
        RsaVerifyCtx::new(self)
    }
}

/// Per-index outcome of [`RsaVerifyCtx::verify_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    valid: Vec<bool>,
}

impl BatchOutcome {
    /// `true` when every signature in the batch verified.
    pub fn all_valid(&self) -> bool {
        self.valid.iter().all(|&v| v)
    }

    /// Per-item verdicts, batch order.
    pub fn valid(&self) -> &[bool] {
        &self.valid
    }

    /// Indices of the items that failed, ascending.
    pub fn invalid_indices(&self) -> Vec<usize> {
        (0..self.valid.len()).filter(|&i| !self.valid[i]).collect()
    }

    /// Number of items in the batch.
    pub fn len(&self) -> usize {
        self.valid.len()
    }

    /// Whether the batch was empty.
    pub fn is_empty(&self) -> bool {
        self.valid.is_empty()
    }
}

/// Precomputed verification context for one RSA public key.
///
/// [`RsaPublicKey::verify_pkcs1_sha256`] rebuilds the Montgomery
/// context — including the `R^2 mod n` division — on every call. For a
/// key that verifies thousands of signatures per login wave (the CA
/// verify key, a portal server's key) this context builds it once and
/// reuses it for every verification.
///
/// `verify_batch` evaluates the **same predicate** as N individual
/// `verify_pkcs1_sha256` calls — each item is verified on its own under
/// the shared context, so a failure is attributed to its exact index
/// and an accept can never diverge from the individual path. (The
/// classic product-screening batch test `(∏ sᵢ)^e = ∏ mᵢ` is rejected
/// here by design: a compensating pair `t·s, t⁻¹·s'` passes the screen
/// with two invalid signatures, and randomized screening à la
/// Bellare–Garay–Rabin costs more than it saves for `e = 65537`. See
/// DESIGN.md §13.)
pub struct RsaVerifyCtx {
    key: RsaPublicKey,
    /// Shared context; `None` for moduli that admit none (even,
    /// trivial, over-wide), which keep the plain `mod_pow` fallback.
    mont: Option<Montgomery>,
}

impl RsaVerifyCtx {
    /// Build a context for `key`. Degenerate keys (even or trivial
    /// modulus) are accepted and simply keep the uncached path so the
    /// verdict always matches [`RsaPublicKey::verify_pkcs1_sha256`].
    pub fn new(key: &RsaPublicKey) -> Self {
        RsaVerifyCtx {
            key: key.clone(),
            mont: Montgomery::new(&key.n),
        }
    }

    /// The key this context verifies under.
    pub fn key(&self) -> &RsaPublicKey {
        &self.key
    }

    /// `s^e mod n` through the shared context.
    fn public_op(&self, s: &BigUint) -> BigUint {
        pow_with(&self.mont, s, &self.key.e, &self.key.n)
    }

    /// Verify one EMSA-PKCS1-v1_5 / SHA-256 signature — the same
    /// checks, in the same order, as
    /// [`RsaPublicKey::verify_pkcs1_sha256`], with the exponentiation
    /// routed through the shared context.
    pub fn verify_pkcs1_sha256(&self, msg: &[u8], signature: &[u8]) -> bool {
        let k = self.key.modulus_len();
        if signature.len() != k {
            return false;
        }
        let s = BigUint::from_bytes_be(signature);
        if s >= self.key.n {
            return false;
        }
        let em = self.public_op(&s).to_bytes_be_padded(k);
        let expected = match emsa_pkcs1_encode(msg, k) {
            Ok(v) => v,
            Err(_) => return false,
        };
        ct_eq(&em, &expected)
    }

    /// Verify a batch of `(msg, signature)` pairs under this key.
    ///
    /// Each item runs under the shared context; any rejection falls
    /// back to the independent single-shot verifier to attribute the
    /// failure, so the outcome is exactly what N individual
    /// [`RsaPublicKey::verify_pkcs1_sha256`] calls would return, with
    /// failing indices reported via [`BatchOutcome::invalid_indices`].
    pub fn verify_batch(&self, items: &[(&[u8], &[u8])]) -> BatchOutcome {
        let valid = items
            .iter()
            .map(|(msg, sig)| {
                if self.verify_pkcs1_sha256(msg, sig) {
                    return true;
                }
                // Attribute through the uncached reference path. The
                // kernels are differentially tested identical, so this
                // is belt-and-braces: if they ever disagreed, the
                // individual verdict wins and batch/individual
                // agreement still holds.
                let individual = self.key.verify_pkcs1_sha256(msg, sig);
                debug_assert!(!individual, "batch and individual verify diverged");
                individual
            })
            .collect();
        BatchOutcome { valid }
    }
}

/// An RSA key pair with CRT acceleration parameters.
#[derive(Clone, Debug)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    p: BigUint,
    q: BigUint,
    dp: BigUint,
    dq: BigUint,
    qinv: BigUint,
    /// Montgomery contexts for `p` and `q`, built once with the key
    /// and shared by its clones; `None` for a prime that admits none
    /// (possible only for hostile [`RsaKeyPair::from_components`]
    /// input).
    crt: Arc<[Option<Montgomery>; 2]>,
}

/// `base^exp mod modulus` through `ctx`, the context held for
/// `modulus`, or through `mod_pow` when the modulus admits none.
fn pow_with(ctx: &Option<Montgomery>, base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    match ctx {
        Some(m) => m.pow(base, exp),
        None => mod_pow(base, exp, modulus),
    }
}

impl RsaKeyPair {
    /// Generate a fresh key pair with a modulus of exactly `bits` bits
    /// (`e = 65537`). Test code typically uses 512-bit keys for speed.
    ///
    /// A key is two calls of [`generate_prime`], `p` of `bits / 2` bits
    /// and then `q` of the rest, and both primes are *proven*: each is
    /// built as `2kr + 1` on a proven prime `r` of half its width and
    /// carries a Pocklington proof (FIPS 186-4 B.3.2, "provably prime"),
    /// so `p − 1` and `q − 1` each have a prime factor of a quarter of
    /// the modulus' width and no error probability attaches to the key.
    /// The `16` passed as `rounds` buys none of that: it is the number
    /// of random-base Miller–Rabin rounds a debug build cross-checks
    /// every prime with, off the caller's stream. [`generate_prime`]
    /// sets the top two bits of each prime, so
    /// `p·q ≥ 9/16·2^bits > 2^(bits-1)` whether the widths are equal
    /// (even `bits`) or one apart (odd `bits`), and the modulus is never
    /// a bit short. The pair is redrawn only for `p == q` or
    /// `gcd(e, φ) ≠ 1` — about 2 in 65 537 keys.
    pub fn generate<E: EntropySource>(rng: &mut E, bits: usize) -> Self {
        assert!(bits >= 128, "RSA modulus must be at least 128 bits");
        let e = BigUint::from(65537u64);
        loop {
            let p = generate_prime(rng, bits / 2, 16);
            let q = generate_prime(rng, bits - bits / 2, 16);
            if p == q {
                continue;
            }
            match Self::from_components(p, q, e.clone()) {
                Ok(key) => {
                    assert_eq!(key.public.n.bit_len(), bits, "p, q >= 3/4 of their width");
                    return key;
                }
                Err(_) => continue, // gcd(e, phi) != 1; re-draw primes
            }
        }
    }

    /// Reconstruct a key pair from its primes and public exponent
    /// (used by key (de)serialization in `gridsec-pki`), deriving the
    /// CRT parameters and the per-prime Montgomery contexts.
    pub fn from_components(p: BigUint, q: BigUint, e: BigUint) -> Result<Self, CryptoError> {
        let one = BigUint::one();
        let n = p.mul_ref(&q);
        let p1 = p.sub_ref(&one);
        let q1 = q.sub_ref(&one);
        let phi = p1.mul_ref(&q1);
        let d = mod_inv(&e, &phi).ok_or(CryptoError::InvalidKey("e not invertible mod phi(n)"))?;
        let dp = d.rem_ref(&p1);
        let dq = d.rem_ref(&q1);
        let qinv = mod_inv(&q, &p).ok_or(CryptoError::InvalidKey("p and q not coprime"))?;
        let crt = Arc::new([Montgomery::new(&p), Montgomery::new(&q)]);
        Ok(RsaKeyPair {
            public: RsaPublicKey::new(n, e),
            d,
            p,
            q,
            dp,
            dq,
            qinv,
            crt,
        })
    }

    /// The public half.
    pub fn public(&self) -> &RsaPublicKey {
        &self.public
    }

    /// The prime factors `(p, q)` — exposed for serialization only.
    pub fn primes(&self) -> (&BigUint, &BigUint) {
        (&self.p, &self.q)
    }

    /// The private exponent `d` (kept for completeness; the hot path uses
    /// the CRT parameters instead).
    pub fn private_exponent(&self) -> &BigUint {
        &self.d
    }

    /// Private-key operation using the Chinese Remainder Theorem.
    fn raw_private_op(&self, c: &BigUint) -> BigUint {
        let [ctx_p, ctx_q] = &*self.crt;
        let m1 = pow_with(ctx_p, &c.rem_ref(&self.p), &self.dp, &self.p);
        let m2 = pow_with(ctx_q, &c.rem_ref(&self.q), &self.dq, &self.q);
        // h = qinv * (m1 - m2) mod p
        let diff = if m1 >= m2 {
            m1.sub_ref(&m2)
        } else {
            // (m1 - m2) mod p with borrow
            let t = m2.sub_ref(&m1).rem_ref(&self.p);
            if t.is_zero() {
                t
            } else {
                self.p.sub_ref(&t)
            }
        };
        let h = self.qinv.mul_ref(&diff).rem_ref(&self.p);
        m2.add_ref(&h.mul_ref(&self.q))
    }

    /// Sign `msg` with EMSA-PKCS1-v1_5 / SHA-256.
    pub fn sign_pkcs1_sha256(&self, msg: &[u8]) -> Vec<u8> {
        let k = self.public.modulus_len();
        let em = emsa_pkcs1_encode(msg, k).expect("modulus checked at generation");
        let m = BigUint::from_bytes_be(&em);
        self.raw_private_op(&m).to_bytes_be_padded(k)
    }

    /// Decrypt an EME-PKCS1-v1_5 ciphertext produced by
    /// [`RsaPublicKey::encrypt_pkcs1`].
    pub fn decrypt_pkcs1(&self, ciphertext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let k = self.public.modulus_len();
        if ciphertext.len() != k {
            return Err(CryptoError::Malformed(
                "ciphertext length != modulus length",
            ));
        }
        let c = BigUint::from_bytes_be(ciphertext);
        if c >= *self.public.modulus() {
            return Err(CryptoError::Malformed("ciphertext out of range"));
        }
        let em = self.raw_private_op(&c).to_bytes_be_padded(k);
        // Parse 0x00 0x02 PS 0x00 M.
        if em.len() < 11 || em[0] != 0x00 || em[1] != 0x02 {
            return Err(CryptoError::Malformed("bad PKCS#1 type-2 header"));
        }
        let sep = em[2..]
            .iter()
            .position(|&b| b == 0)
            .ok_or(CryptoError::Malformed("missing PKCS#1 separator"))?;
        if sep < 8 {
            return Err(CryptoError::Malformed("PKCS#1 padding too short"));
        }
        Ok(em[2 + sep + 1..].to_vec())
    }
}

/// EMSA-PKCS1-v1_5 encoding: `0x00 0x01 FF..FF 0x00 DigestInfo || H(msg)`.
fn emsa_pkcs1_encode(msg: &[u8], k: usize) -> Result<Vec<u8>, CryptoError> {
    let h = sha256(msg);
    let t_len = SHA256_DIGEST_INFO.len() + h.len();
    if k < t_len + 11 {
        return Err(CryptoError::InvalidKey(
            "modulus too small for SHA-256 PKCS#1",
        ));
    }
    let mut em = Vec::with_capacity(k);
    em.push(0x00);
    em.push(0x01);
    em.resize(k - t_len - 1, 0xFF);
    em.push(0x00);
    em.extend_from_slice(&SHA256_DIGEST_INFO);
    em.extend_from_slice(&h);
    Ok(em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ChaChaRng;

    fn test_key() -> RsaKeyPair {
        let mut rng = ChaChaRng::from_seed_bytes(b"rsa unit test key");
        RsaKeyPair::generate(&mut rng, 512)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let key = test_key();
        let sig = key.sign_pkcs1_sha256(b"hello grid");
        assert_eq!(sig.len(), key.public().modulus_len());
        assert!(key.public().verify_pkcs1_sha256(b"hello grid", &sig));
    }

    #[test]
    fn verify_rejects_wrong_message() {
        let key = test_key();
        let sig = key.sign_pkcs1_sha256(b"message A");
        assert!(!key.public().verify_pkcs1_sha256(b"message B", &sig));
    }

    #[test]
    fn verify_rejects_bitflips() {
        let key = test_key();
        let mut sig = key.sign_pkcs1_sha256(b"msg");
        sig[10] ^= 1;
        assert!(!key.public().verify_pkcs1_sha256(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_wrong_key() {
        let key = test_key();
        let mut rng = ChaChaRng::from_seed_bytes(b"another key");
        let other = RsaKeyPair::generate(&mut rng, 512);
        let sig = key.sign_pkcs1_sha256(b"msg");
        assert!(!other.public().verify_pkcs1_sha256(b"msg", &sig));
    }

    #[test]
    fn verify_rejects_bad_lengths() {
        let key = test_key();
        let sig = key.sign_pkcs1_sha256(b"msg");
        assert!(!key.public().verify_pkcs1_sha256(b"msg", &sig[1..]));
        let mut long = sig.clone();
        long.push(0);
        assert!(!key.public().verify_pkcs1_sha256(b"msg", &long));
        assert!(!key.public().verify_pkcs1_sha256(b"msg", &[]));
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let key = test_key();
        let mut rng = ChaChaRng::from_seed_bytes(b"enc");
        let msg = b"aead content key!";
        let ct = key.public().encrypt_pkcs1(&mut rng, msg).unwrap();
        assert_eq!(key.decrypt_pkcs1(&ct).unwrap(), msg);
    }

    #[test]
    fn encrypt_rejects_oversized() {
        let key = test_key();
        let mut rng = ChaChaRng::from_seed_bytes(b"enc");
        let big = vec![1u8; key.public().modulus_len() - 10];
        assert!(key.public().encrypt_pkcs1(&mut rng, &big).is_err());
    }

    #[test]
    fn decrypt_rejects_garbage() {
        let key = test_key();
        let garbage = vec![0x17u8; key.public().modulus_len()];
        assert!(key.decrypt_pkcs1(&garbage).is_err());
        assert!(key.decrypt_pkcs1(&[1, 2, 3]).is_err());
    }

    #[test]
    fn ciphertexts_are_randomized() {
        let key = test_key();
        let mut rng = ChaChaRng::from_seed_bytes(b"enc rand");
        let a = key.public().encrypt_pkcs1(&mut rng, b"m").unwrap();
        let b = key.public().encrypt_pkcs1(&mut rng, b"m").unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn from_components_matches_generate() {
        let key = test_key();
        let (p, q) = key.primes();
        let rebuilt =
            RsaKeyPair::from_components(p.clone(), q.clone(), key.public().exponent().clone())
                .unwrap();
        let sig = rebuilt.sign_pkcs1_sha256(b"rebuild");
        assert!(key.public().verify_pkcs1_sha256(b"rebuild", &sig));
    }

    #[test]
    fn fingerprints_are_stable_and_distinct() {
        let key = test_key();
        assert_eq!(key.public().fingerprint(), key.public().fingerprint());
        let mut rng = ChaChaRng::from_seed_bytes(b"fp other");
        let other = RsaKeyPair::generate(&mut rng, 512);
        assert_ne!(key.public().fingerprint(), other.public().fingerprint());
    }

    #[test]
    fn clone_signs_identically_and_shares_crt_contexts() {
        let key = test_key();
        let clone = key.clone();
        assert!(key.crt.iter().all(Option::is_some));
        assert!(Arc::ptr_eq(&key.crt, &clone.crt), "shared, not rebuilt");
        assert_eq!(
            key.sign_pkcs1_sha256(b"cloned"),
            clone.sign_pkcs1_sha256(b"cloned")
        );
    }

    #[test]
    fn crt_matches_plain_exponentiation() {
        let key = test_key();
        let m = BigUint::from(0xDEADBEEFu64);
        let c = key.public().raw_public_op(&m);
        let back = key.raw_private_op(&c);
        assert_eq!(back, m);
        // And the textbook way (without CRT) agrees:
        let plain = mod_pow(&c, &key.d, key.public.modulus());
        assert_eq!(plain, m);
    }
}
