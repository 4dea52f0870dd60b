//! Property-based tests over the crypto primitives.

use gridsec_crypto::aead;
use gridsec_crypto::chacha20;
use gridsec_crypto::hmac::{hkdf, hmac_sha256};
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::rsa::RsaKeyPair;
use gridsec_crypto::sha256::sha256;
use gridsec_util::check::check;

const CASES: u64 = 64;

#[test]
fn sha256_is_deterministic() {
    check("sha256_is_deterministic", CASES, |g| {
        let data = g.bytes(0..512);
        assert_eq!(sha256(&data), sha256(&data));
    });
}

#[test]
fn sha256_streaming_split_invariance() {
    check("sha256_streaming_split_invariance", CASES, |g| {
        let data = g.bytes(1..512);
        let split = ((data.len() as f64) * g.f64_unit()) as usize;
        let mut h = gridsec_crypto::sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data));
    });
}

#[test]
fn chacha20_roundtrip() {
    check("chacha20_roundtrip", CASES, |g| {
        let key: [u8; 32] = g.byte_array();
        let nonce: [u8; 12] = g.byte_array();
        let data = g.bytes(0..512);
        let mut buf = data.clone();
        chacha20::xor_stream(&key, &nonce, 0, &mut buf);
        chacha20::xor_stream(&key, &nonce, 0, &mut buf);
        assert_eq!(buf, data);
    });
}

#[test]
fn aead_roundtrip() {
    check("aead_roundtrip", CASES, |g| {
        let key: [u8; 32] = g.byte_array();
        let nonce: [u8; 12] = g.byte_array();
        let aad = g.bytes(0..64);
        let data = g.bytes(0..256);
        let sealed = aead::seal(&key, &nonce, &aad, &data);
        assert_eq!(sealed.len(), data.len() + 16);
        assert_eq!(aead::open(&key, &nonce, &aad, &sealed).unwrap(), data);
    });
}

#[test]
fn aead_detects_any_single_bitflip() {
    check("aead_detects_any_single_bitflip", CASES, |g| {
        let key: [u8; 32] = g.byte_array();
        let nonce: [u8; 12] = g.byte_array();
        let data = g.bytes(1..64);
        let mut sealed = aead::seal(&key, &nonce, b"", &data);
        let idx = ((sealed.len() as f64) * g.f64_unit()) as usize % sealed.len();
        sealed[idx] ^= 1 << g.u8_in(0..8);
        assert!(aead::open(&key, &nonce, b"", &sealed).is_err());
    });
}

#[test]
fn hmac_keys_separate_domains() {
    check("hmac_keys_separate_domains", CASES, |g| {
        let k1 = g.bytes(1..48);
        let k2 = g.bytes(1..48);
        let msg = g.bytes(0..128);
        if k1 != k2 {
            assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
        }
    });
}

#[test]
fn hkdf_length_contract() {
    check("hkdf_length_contract", CASES, |g| {
        let len = g.usize_in(1..500);
        assert_eq!(hkdf(b"salt", b"ikm", b"info", len).len(), len);
    });
}

// RSA generation is too slow for per-case generation; use one shared key.

#[test]
fn rsa_sign_verify_any_message() {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaKeyPair> = OnceLock::new();
    check("rsa_sign_verify_any_message", 16, |g| {
        let msg = g.bytes(0..256);
        let key = KEY.get_or_init(|| {
            let mut rng = ChaChaRng::from_seed_bytes(b"proptest rsa");
            RsaKeyPair::generate(&mut rng, 512)
        });
        let sig = key.sign_pkcs1_sha256(&msg);
        assert!(key.public().verify_pkcs1_sha256(&msg, &sig));
        let mut other = msg.clone();
        other.push(0x55);
        assert!(!key.public().verify_pkcs1_sha256(&other, &sig));
    });
}

#[test]
fn rsa_encrypt_decrypt_any_short_message() {
    use std::sync::OnceLock;
    static KEY: OnceLock<RsaKeyPair> = OnceLock::new();
    check("rsa_encrypt_decrypt_any_short_message", 16, |g| {
        let msg = g.bytes(0..48);
        let key = KEY.get_or_init(|| {
            let mut rng = ChaChaRng::from_seed_bytes(b"proptest rsa enc");
            RsaKeyPair::generate(&mut rng, 512)
        });
        let mut rng = ChaChaRng::from_seed_bytes(&msg);
        let ct = key.public().encrypt_pkcs1(&mut rng, &msg).unwrap();
        assert_eq!(key.decrypt_pkcs1(&ct).unwrap(), msg);
    });
}
