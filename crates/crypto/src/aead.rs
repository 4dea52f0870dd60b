//! ChaCha20-Poly1305 AEAD (RFC 8439 §2.8).
//!
//! This is the message-protection workhorse of the stack: the
//! `gridsec-tls` record layer, Kerberos ticket encryption, and
//! XML-Encryption payloads all seal through this module.

use crate::chacha20::{self, KEY_LEN, NONCE_LEN};
use crate::ct::ct_eq;
use crate::poly1305::{Poly1305, TAG_LEN};
use crate::CryptoError;

/// Seal `plaintext` with `key`/`nonce`, binding `aad`. Returns
/// `ciphertext || tag`, allocated once and encrypted in place.
pub fn seal(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
    out.extend_from_slice(plaintext);
    chacha20::xor_stream(key, nonce, 1, &mut out);
    let tag = compute_tag(&one_time_key(key, nonce), aad, &out);
    out.extend_from_slice(&tag);
    out
}

/// Open `ciphertext || tag`, verifying the tag over `aad` first.
pub fn open(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    aad: &[u8],
    sealed: &[u8],
) -> Result<Vec<u8>, CryptoError> {
    if sealed.len() < TAG_LEN {
        return Err(CryptoError::Malformed("AEAD input shorter than tag"));
    }
    let (ct, tag) = sealed.split_at(sealed.len() - TAG_LEN);
    let expect = compute_tag(&one_time_key(key, nonce), aad, ct);
    if !ct_eq(&expect, tag) {
        return Err(CryptoError::VerificationFailed);
    }
    Ok(chacha20::apply(key, nonce, 1, ct))
}

/// One-time Poly1305 key = first 32 bytes of block 0 keystream.
fn one_time_key(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> [u8; 32] {
    let block0 = chacha20::block(key, 0, nonce);
    block0[..32].try_into().expect("32 of the block's 64 bytes")
}

/// MAC input layout per RFC 8439: aad, pad16, ct, pad16, len(aad) LE64,
/// len(ct) LE64.
fn compute_tag(otk: &[u8; 32], aad: &[u8], ct: &[u8]) -> [u8; TAG_LEN] {
    const ZEROS: [u8; 16] = [0; 16];
    let pad16 = |len: usize| &ZEROS[..(16 - len % 16) % 16];
    let mut mac = Poly1305::new(otk);
    mac.update(aad);
    mac.update(pad16(aad.len()));
    mac.update(ct);
    mac.update(pad16(ct.len()));
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ct.len() as u64).to_le_bytes());
    mac.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn rfc8439_aead_vector() {
        // RFC 8439 §2.8.2
        let key: [u8; 32] =
            unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
        let aad = unhex("50515253c0c1c2c3c4c5c6c7");
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";

        let sealed = seal(&key, &nonce, &aad, plaintext);
        let (ct, tag) = sealed.split_at(sealed.len() - 16);
        assert_eq!(
            hex(ct),
            "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116"
        );
        assert_eq!(hex(tag), "1ae10b594f09e26a7e902ecbd0600691");

        let opened = open(&key, &nonce, &aad, &sealed).unwrap();
        assert_eq!(opened, plaintext);
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let key = [5u8; 32];
        let nonce = [6u8; 12];
        let mut sealed = seal(&key, &nonce, b"aad", b"secret payload");
        sealed[3] ^= 0x80;
        assert_eq!(
            open(&key, &nonce, b"aad", &sealed),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn tampered_tag_rejected() {
        let key = [5u8; 32];
        let nonce = [6u8; 12];
        let mut sealed = seal(&key, &nonce, b"", b"secret payload");
        let n = sealed.len();
        sealed[n - 1] ^= 1;
        assert_eq!(
            open(&key, &nonce, b"", &sealed),
            Err(CryptoError::VerificationFailed)
        );
    }

    #[test]
    fn wrong_aad_rejected() {
        let key = [5u8; 32];
        let nonce = [6u8; 12];
        let sealed = seal(&key, &nonce, b"context-A", b"payload");
        assert!(open(&key, &nonce, b"context-B", &sealed).is_err());
        assert!(open(&key, &nonce, b"context-A", &sealed).is_ok());
    }

    #[test]
    fn wrong_key_or_nonce_rejected() {
        let key = [5u8; 32];
        let nonce = [6u8; 12];
        let sealed = seal(&key, &nonce, b"", b"payload");
        let mut k2 = key;
        k2[0] ^= 1;
        assert!(open(&k2, &nonce, b"", &sealed).is_err());
        let mut n2 = nonce;
        n2[0] ^= 1;
        assert!(open(&key, &n2, b"", &sealed).is_err());
    }

    #[test]
    fn empty_plaintext() {
        let key = [9u8; 32];
        let nonce = [1u8; 12];
        let sealed = seal(&key, &nonce, b"header only", b"");
        assert_eq!(sealed.len(), 16);
        assert_eq!(open(&key, &nonce, b"header only", &sealed).unwrap(), b"");
    }

    #[test]
    fn too_short_input() {
        let key = [9u8; 32];
        let nonce = [1u8; 12];
        assert!(matches!(
            open(&key, &nonce, b"", &[0u8; 15]),
            Err(CryptoError::Malformed(_))
        ));
    }
}
