//! HMAC-SHA-256 (RFC 2104) and HKDF (RFC 5869).
//!
//! HKDF is the key-derivation workhorse for the `gridsec-tls` handshake
//! (master secret → record keys) and for WS-SecureConversation derived
//! keys in `gridsec-wsse`.

use crate::sha256::{sha256, Sha256, BLOCK_LEN, DIGEST_LEN};

/// Compute `HMAC-SHA256(key, data)`.
pub fn hmac_sha256(key: &[u8], data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(data);
    mac.finalize()
}

/// Streaming HMAC-SHA-256.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    opad_key: [u8; BLOCK_LEN],
}

impl HmacSha256 {
    /// Create a MAC instance keyed with `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        HmacSha256 {
            inner,
            opad_key: opad,
        }
    }

    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalize and return the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = Sha256::new();
        outer.update(&self.opad_key);
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// An HMAC key schedule precomputed once and reused: the SHA-256 states
/// with the ipad- and opad-xored key blocks already absorbed.
///
/// [`HmacSha256::new`] derives the padded key and absorbs one 64-byte
/// block into the inner hash on every call, and `finalize` absorbs the
/// opad block into a fresh outer hash — two compression-function
/// invocations of pure key schedule per MAC. When many MACs share one
/// key (every HKDF-Expand block is keyed by the same PRK; a TLS key
/// schedule MACs its Finished messages and derives its resumption
/// ticket under the same master secret), priming once and cloning the
/// two states per MAC skips that rework — the amortization a
/// [`DhGroup`](crate::dh::DhGroup) applies to `g^x` with its fixed-base
/// table, applied to the symmetric side.
///
/// Byte-identity with the one-shot path is pinned by tests here and in
/// `gridsec-tls` (the RFC 4231/5869 vectors run through this type via
/// [`hkdf_expand`]).
#[derive(Clone)]
pub struct PrimedHmac {
    /// SHA-256 state with `key ⊕ ipad` absorbed.
    inner: Sha256,
    /// SHA-256 state with `key ⊕ opad` absorbed.
    outer: Sha256,
}

impl PrimedHmac {
    /// Precompute the key schedule for `key` (any length).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            k[..DIGEST_LEN].copy_from_slice(&sha256(key));
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        PrimedHmac { inner, outer }
    }

    /// Begin a streaming MAC from the primed states.
    pub fn begin(&self) -> PrimedMac {
        PrimedMac {
            inner: self.inner.clone(),
            outer: self.outer.clone(),
        }
    }

    /// One-shot MAC over `data`. Identical bytes to
    /// [`hmac_sha256`]`(key, data)` for the priming key.
    pub fn mac(&self, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut m = self.begin();
        m.update(data);
        m.finalize()
    }
}

/// A streaming MAC started from a [`PrimedHmac`].
pub struct PrimedMac {
    inner: Sha256,
    outer: Sha256,
}

impl PrimedMac {
    /// Absorb message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finalize and return the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// HKDF-Extract (RFC 5869 §2.2): `PRK = HMAC(salt, ikm)`.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3) producing `len` bytes (≤ 255 * 32).
pub fn hkdf_expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    assert!(len <= 255 * DIGEST_LEN, "HKDF output too long");
    // Every block is keyed by the same PRK: prime the key schedule once
    // and clone it per block instead of re-deriving it.
    let primed = PrimedHmac::new(prk);
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        let mut mac = primed.begin();
        mac.update(&t);
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize().to_vec();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&t[..take]);
        counter = counter.checked_add(1).expect("HKDF counter overflow");
    }
    out
}

/// Convenience: extract-then-expand in one call.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0bu8; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3_long_data() {
        let key = [0xaau8; 20];
        let data = [0xddu8; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaau8; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn hkdf_rfc5869_case1() {
        let ikm = unhex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let okm = hkdf(&salt, &ikm, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    #[test]
    fn hkdf_rfc5869_case3_empty_salt_info() {
        let ikm = unhex("0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b0b");
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let key = b"streaming key";
        let data: Vec<u8> = (0..500u16).map(|i| i as u8).collect();
        let mut mac = HmacSha256::new(key);
        mac.update(&data[..123]);
        mac.update(&data[123..]);
        assert_eq!(mac.finalize(), hmac_sha256(key, &data));
    }

    #[test]
    fn primed_is_byte_identical_to_one_shot() {
        // Every key-length regime: empty, short, block-boundary
        // (63/64/65), and hashed-down long keys.
        let data: Vec<u8> = (0..300u16).map(|i| (i * 7) as u8).collect();
        for key_len in [0usize, 1, 31, 32, 63, 64, 65, 100, 131, 256] {
            let key: Vec<u8> = (0..key_len).map(|i| (i * 13 + 5) as u8).collect();
            let primed = PrimedHmac::new(&key);
            for msg_len in [0usize, 1, 55, 56, 64, 120, 300] {
                assert_eq!(
                    primed.mac(&data[..msg_len]),
                    hmac_sha256(&key, &data[..msg_len]),
                    "key_len={key_len} msg_len={msg_len}"
                );
            }
            // Streaming splits hit the same bytes, and a primed
            // schedule is reusable: the second begin() is unaffected by
            // the first.
            let mut m = primed.begin();
            m.update(&data[..123]);
            m.update(&data[123..]);
            assert_eq!(m.finalize(), hmac_sha256(&key, &data));
            assert_eq!(primed.mac(b"again"), hmac_sha256(&key, b"again"));
        }
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"msg"), hmac_sha256(b"k2", b"msg"));
        assert_ne!(hmac_sha256(b"k", b"msg1"), hmac_sha256(b"k", b"msg2"));
    }

    #[test]
    fn hkdf_expand_multiple_blocks() {
        let out = hkdf(b"salt", b"ikm", b"info", 100);
        assert_eq!(out.len(), 100);
        // Prefix property: shorter outputs are prefixes of longer ones.
        let short = hkdf(b"salt", b"ikm", b"info", 32);
        assert_eq!(&out[..32], &short[..]);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn hkdf_output_cap() {
        hkdf_expand(&[0u8; 32], b"", 255 * 32 + 1);
    }
}
