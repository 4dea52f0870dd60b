//! Record protection: per-message AEAD under direction-specific keys.
//!
//! A [`SecureChannel`] is produced by a completed handshake. It has no
//! transport: callers seal a message, move the bytes however they like
//! (TCP-sim stream, SOAP envelope, carrier pigeon), and the peer opens
//! it. Sequence numbers are bound into the nonce, so reordering, replay,
//! and truncation within a direction are all detected.

use gridsec_crypto::aead;
use gridsec_crypto::poly1305::TAG_LEN;
use gridsec_pki::validate::ValidatedIdentity;

use crate::session::ResumptionData;
use crate::TlsError;

/// Direction-specific keys and sequence state for an established session.
///
/// The `Debug` impl deliberately omits key material.
pub struct SecureChannel {
    /// The authenticated peer identity (from chain validation).
    pub peer: ValidatedIdentity,
    write_key: [u8; 32],
    read_key: [u8; 32],
    write_nonce_base: [u8; 12],
    read_nonce_base: [u8; 12],
    write_mic_key: [u8; 32],
    read_mic_key: [u8; 32],
    write_seq: u64,
    read_seq: u64,
    mic_write_seq: u64,
    mic_read_seq: u64,
    resumption: Option<ResumptionData>,
}

/// Size of the key block the channel constructor expects:
/// two AEAD keys, two nonce bases, two MIC keys.
pub(crate) const KEY_BLOCK_LEN: usize = 32 + 32 + 12 + 12 + 32 + 32;

impl core::fmt::Debug for SecureChannel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SecureChannel")
            .field("peer", &self.peer.subject.to_string())
            .field("write_seq", &self.write_seq)
            .field("read_seq", &self.read_seq)
            .finish_non_exhaustive()
    }
}

impl SecureChannel {
    /// Assemble a channel from derived key material. `is_client` selects
    /// which half of the key block is "write" vs. "read".
    pub(crate) fn from_key_block(
        peer: ValidatedIdentity,
        key_block: &[u8],
        is_client: bool,
    ) -> Self {
        assert_eq!(
            key_block.len(),
            KEY_BLOCK_LEN,
            "key block must be {KEY_BLOCK_LEN} bytes"
        );
        let client_key: [u8; 32] = key_block[0..32].try_into().unwrap();
        let server_key: [u8; 32] = key_block[32..64].try_into().unwrap();
        let client_nonce: [u8; 12] = key_block[64..76].try_into().unwrap();
        let server_nonce: [u8; 12] = key_block[76..88].try_into().unwrap();
        let client_mic: [u8; 32] = key_block[88..120].try_into().unwrap();
        let server_mic: [u8; 32] = key_block[120..152].try_into().unwrap();
        if is_client {
            SecureChannel {
                peer,
                write_key: client_key,
                read_key: server_key,
                write_nonce_base: client_nonce,
                read_nonce_base: server_nonce,
                write_mic_key: client_mic,
                read_mic_key: server_mic,
                write_seq: 0,
                read_seq: 0,
                mic_write_seq: 0,
                mic_read_seq: 0,
                resumption: None,
            }
        } else {
            SecureChannel {
                peer,
                write_key: server_key,
                read_key: client_key,
                write_nonce_base: server_nonce,
                read_nonce_base: client_nonce,
                write_mic_key: server_mic,
                read_mic_key: client_mic,
                write_seq: 0,
                read_seq: 0,
                mic_write_seq: 0,
                mic_read_seq: 0,
                resumption: None,
            }
        }
    }

    /// Attach resumption state (called by the handshake layers).
    pub(crate) fn with_resumption(mut self, resumption: ResumptionData) -> Self {
        self.resumption = Some(resumption);
        self
    }

    /// Resumption state minted by the handshake that produced this
    /// channel, if any — feed it to a session cache to make later
    /// contexts with the same peer skip the asymmetric handshake.
    pub(crate) fn resumption(&self) -> Option<&ResumptionData> {
        self.resumption.as_ref()
    }

    fn nonce_for(base: &[u8; 12], seq: u64) -> [u8; 12] {
        let mut n = *base;
        for (i, b) in seq.to_be_bytes().iter().enumerate() {
            n[4 + i] ^= b;
        }
        n
    }

    /// Seal a message for the peer; consumes the next send sequence
    /// number. Sequence numbers are also bound as associated data.
    pub fn seal(&mut self, plaintext: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(plaintext.len() + TAG_LEN);
        buf.extend_from_slice(plaintext);
        self.seal_in_place(&mut buf);
        buf
    }

    /// [`seal`](Self::seal) the message in `buf` where it lies: it
    /// becomes the sealed record.
    pub fn seal_in_place(&mut self, buf: &mut Vec<u8>) {
        let seq = self.write_seq;
        self.write_seq += 1;
        let nonce = Self::nonce_for(&self.write_nonce_base, seq);
        aead::seal_in_place(&self.write_key, &nonce, &seq.to_be_bytes(), buf);
    }

    /// Open the next message from the peer (messages must arrive in
    /// order; replay/reorder yields `RecordIntegrity`).
    pub fn open(&mut self, sealed: &[u8]) -> Result<Vec<u8>, TlsError> {
        let mut buf = sealed.to_vec();
        self.open_in_place(&mut buf)?;
        Ok(buf)
    }

    /// [`open`](Self::open) the record in `buf` where it lies: on `Ok` it
    /// holds the message, on `Err` it is left as it was.
    pub fn open_in_place(&mut self, buf: &mut Vec<u8>) -> Result<(), TlsError> {
        let seq = self.read_seq;
        let nonce = Self::nonce_for(&self.read_nonce_base, seq);
        aead::open_in_place(&self.read_key, &nonce, &seq.to_be_bytes(), buf)
            .map_err(|_| TlsError::RecordIntegrity)?;
        self.read_seq += 1;
        Ok(())
    }

    /// Compute a detached integrity check (GSS `GetMIC`) over `msg`.
    /// MIC sequence numbers are independent of the sealed-message stream.
    pub fn get_mic(&mut self, msg: &[u8]) -> Vec<u8> {
        let seq = self.mic_write_seq;
        self.mic_write_seq += 1;
        let mut data = seq.to_be_bytes().to_vec();
        data.extend_from_slice(msg);
        let mut out = seq.to_be_bytes().to_vec();
        out.extend_from_slice(&gridsec_crypto::hmac::hmac_sha256(
            &self.write_mic_key,
            &data,
        ));
        out
    }

    /// Verify a detached MIC (GSS `VerifyMIC`). MICs may be verified out
    /// of order (the sequence number travels inside the token) but each
    /// sequence number is accepted at most once per direction via a
    /// monotonic low-water mark: a MIC older than the highest seen is
    /// rejected as a replay, which suffices for our in-order transports.
    pub fn verify_mic(&mut self, msg: &[u8], mic: &[u8]) -> Result<(), TlsError> {
        if mic.len() != 8 + 32 {
            return Err(TlsError::RecordIntegrity);
        }
        let seq = u64::from_be_bytes(mic[..8].try_into().unwrap());
        if seq < self.mic_read_seq {
            return Err(TlsError::RecordIntegrity); // replay
        }
        let mut data = mic[..8].to_vec();
        data.extend_from_slice(msg);
        let expect = gridsec_crypto::hmac::hmac_sha256(&self.read_mic_key, &data);
        if !gridsec_crypto::ct::ct_eq(&expect, &mic[8..]) {
            return Err(TlsError::RecordIntegrity);
        }
        self.mic_read_seq = seq + 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_pki::validate::validate_chain;

    fn peer_identity() -> ValidatedIdentity {
        let mut rng = ChaChaRng::from_seed_bytes(b"channel peer");
        let ca = CertificateAuthority::create_root(
            &mut rng,
            DistinguishedName::parse("/O=G/CN=CA").unwrap(),
            512,
            0,
            1000,
        );
        let cred = ca.issue_identity(
            &mut rng,
            DistinguishedName::parse("/O=G/CN=X").unwrap(),
            512,
            0,
            1000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        validate_chain(cred.chain(), &trust, 10).unwrap()
    }

    fn channel_pair() -> (SecureChannel, SecureChannel) {
        let kb: Vec<u8> = (0..KEY_BLOCK_LEN as u8).collect();
        (
            SecureChannel::from_key_block(peer_identity(), &kb, true),
            SecureChannel::from_key_block(peer_identity(), &kb, false),
        )
    }

    #[test]
    fn mic_roundtrip_and_replay() {
        let (mut c, mut s) = channel_pair();
        let mic1 = c.get_mic(b"message one");
        let mic2 = c.get_mic(b"message two");
        assert!(s.verify_mic(b"message one", &mic1).is_ok());
        // Replay of mic1 rejected.
        assert!(s.verify_mic(b"message one", &mic1).is_err());
        // Later MIC still fine.
        assert!(s.verify_mic(b"message two", &mic2).is_ok());
    }

    #[test]
    fn mic_detects_tampering() {
        let (mut c, mut s) = channel_pair();
        let mic = c.get_mic(b"authentic");
        assert!(s.verify_mic(b"tampered", &mic).is_err());
        let mut bad_mic = c.get_mic(b"authentic");
        let n = bad_mic.len();
        bad_mic[n - 1] ^= 1;
        assert!(s.verify_mic(b"authentic", &bad_mic).is_err());
        assert!(s.verify_mic(b"authentic", b"short").is_err());
    }

    #[test]
    fn mic_and_seal_sequences_independent() {
        let (mut c, mut s) = channel_pair();
        let sealed = c.seal(b"sealed");
        let mic = c.get_mic(b"mic'd");
        assert!(s.verify_mic(b"mic'd", &mic).is_ok());
        assert_eq!(s.open(&sealed).unwrap(), b"sealed");
    }

    #[test]
    fn roundtrip_both_directions() {
        let (mut c, mut s) = channel_pair();
        let m1 = c.seal(b"hello from client");
        assert_eq!(s.open(&m1).unwrap(), b"hello from client");
        let m2 = s.seal(b"hello from server");
        assert_eq!(c.open(&m2).unwrap(), b"hello from server");
    }

    #[test]
    fn replay_detected() {
        let (mut c, mut s) = channel_pair();
        let m = c.seal(b"once");
        assert!(s.open(&m).is_ok());
        assert_eq!(s.open(&m).unwrap_err(), TlsError::RecordIntegrity);
    }

    #[test]
    fn reorder_detected() {
        let (mut c, mut s) = channel_pair();
        let m1 = c.seal(b"first");
        let m2 = c.seal(b"second");
        assert_eq!(s.open(&m2).unwrap_err(), TlsError::RecordIntegrity);
        // In-order delivery still works after the failed attempt.
        assert_eq!(s.open(&m1).unwrap(), b"first");
        assert_eq!(s.open(&m2).unwrap(), b"second");
    }

    #[test]
    fn tamper_detected() {
        let (mut c, mut s) = channel_pair();
        let mut m = c.seal(b"payload");
        m[0] ^= 1;
        assert_eq!(s.open(&m).unwrap_err(), TlsError::RecordIntegrity);
    }

    #[test]
    fn directions_use_distinct_keys() {
        let (mut c, mut s) = channel_pair();
        let from_client = c.seal(b"msg");
        let from_server = s.seal(b"msg");
        assert_ne!(from_client, from_server);
    }

    #[test]
    fn counters_track() {
        let (mut c, mut s) = channel_pair();
        for i in 0..5 {
            let m = c.seal(format!("m{i}").as_bytes());
            s.open(&m).unwrap();
        }
        assert_eq!(c.write_seq, 5);
        assert_eq!(s.read_seq, 5);
    }
}
