//! One signed object: a certificate, a CRL or a CAS assertion.
//!
//! A [`Signed`] keeps the bytes its issuer signed beside the decoded,
//! read-only body, and checks the signature over those bytes, never over
//! a re-encoding: a body re-framed into other bytes (a modulus with a
//! leading zero, say) fails its own signature, so a valid object has one
//! wire form. [`Signed::sign`] and [`Codec::decode`] alone make one.

use crate::encoding::{Codec, Decoder, Encoder};
use crate::PkiError;
use gridsec_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use gridsec_crypto::sha256::sha256;

/// `put_bytes`'s length prefix, between the body and the signature.
const LEN_PREFIX: usize = 4;

/// A body and the bytes its issuer signed; equal iff the bytes are.
#[derive(Clone, Debug)]
pub struct Signed<T> {
    body: T,
    /// The body's encoding, then the signature as `put_bytes` writes it.
    bytes: Vec<u8>,
    /// Where the body's encoding ends in `bytes`.
    end: usize,
}

impl<T: Codec> Signed<T> {
    /// Sign `body` with `key`: encode it once and sign those bytes.
    pub fn sign(body: T, key: &RsaKeyPair) -> Self {
        let mut enc = Encoder::new();
        body.encode(&mut enc);
        let end = enc.encoded().len();
        let signature = key.sign_pkcs1_sha256(enc.encoded());
        enc.put_bytes(&signature);
        let bytes = enc.finish();
        Signed { body, bytes, end }
    }

    /// `true` iff `key` signed the body bytes this object holds.
    pub fn verify(&self, key: &RsaPublicKey) -> bool {
        let (body, signature) = self.bytes.split_at(self.end);
        key.verify_pkcs1_sha256(body, &signature[LEN_PREFIX..])
    }
}

impl<T> Signed<T> {
    /// The signed content.
    pub fn body(&self) -> &T {
        &self.body
    }

    /// The object's encoding, exactly as signed or received.
    pub(crate) fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// SHA-256 over the object's encoding.
    pub(crate) fn fingerprint(&self) -> [u8; 32] {
        sha256(&self.bytes)
    }
}

impl<T> PartialEq for Signed<T> {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl<T> Eq for Signed<T> {}

impl<T: Codec> Codec for Signed<T> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_raw(&self.bytes);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, PkiError> {
        let ((body, signature_len), bytes) =
            dec.get_raw(|d| Ok((T::decode(d)?, d.get_bytes_ref()?.len())))?;
        let end = bytes.len() - LEN_PREFIX - signature_len;
        let bytes = bytes.to_vec();
        Ok(Signed { body, bytes, end })
    }
}

#[cfg(test)]
impl<T: Codec> Signed<T> {
    /// `body` beside this object's signature, as a forger would send it:
    /// encoded, then decoded.
    pub(crate) fn forged(&self, body: &T) -> Self {
        let mut enc = Encoder::new();
        body.encode(&mut enc);
        enc.put_raw(&self.bytes[self.end..]);
        Signed::from_bytes(&enc.finish()).expect("a forgery decodes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::name::DistinguishedName;
    use gridsec_crypto::rng::ChaChaRng;

    fn key(seed: &[u8]) -> RsaKeyPair {
        RsaKeyPair::generate(&mut ChaChaRng::from_seed_bytes(seed), 512)
    }

    fn name() -> DistinguishedName {
        DistinguishedName::parse("/O=Grid/CN=Jane").unwrap()
    }

    #[test]
    fn signed_bytes_are_the_body_then_the_signature() {
        let key = key(b"signed layout");
        let signed = Signed::sign(name(), &key);
        let body = name().to_bytes();
        let mut enc = Encoder::new();
        enc.put_raw(&body).put_bytes(&key.sign_pkcs1_sha256(&body));
        assert_eq!(signed.to_bytes(), enc.finish());
        assert_eq!(signed.fingerprint(), sha256(&signed.to_bytes()));
        assert!(signed.verify(key.public()));
    }

    #[test]
    fn decode_keeps_the_bytes_it_read() {
        let key = key(b"signed decode");
        let signed = Signed::sign(name(), &key);
        let mut enc = Encoder::new();
        enc.put_u8(7);
        signed.encode(&mut enc);
        enc.put_u8(9);
        let wire = enc.finish();
        let mut dec = Decoder::new(&wire);
        dec.get_u8().unwrap();
        let decoded = Signed::<DistinguishedName>::decode(&mut dec).unwrap();
        assert_eq!(dec.get_u8().unwrap(), 9, "the signature's span ends it");
        assert_eq!(decoded, signed);
        assert_eq!(decoded.body(), signed.body());
        assert!(decoded.verify(key.public()));
    }

    #[test]
    fn another_body_or_key_fails_the_signature() {
        let (key, other) = (key(b"signed key"), key(b"signed other"));
        let signed = Signed::sign(name(), &key);
        assert!(!signed.verify(other.public()));
        let forged = signed.forged(&DistinguishedName::parse("/O=Grid/CN=Eve").unwrap());
        assert!(!forged.verify(key.public()));
        assert_ne!(forged, signed);
    }

    #[test]
    fn a_truncated_object_does_not_decode() {
        let signed = Signed::sign(name(), &key(b"signed truncated"));
        let wire = signed.to_bytes();
        for cut in [1, 4, 64] {
            let short = &wire[..wire.len() - cut];
            assert!(Signed::<DistinguishedName>::from_bytes(short).is_err());
        }
    }
}
