//! Property tests for the secure channel: any message sequence
//! roundtrips; any single corruption is caught.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_tls::channel::SecureChannel;
use gridsec_tls::handshake::{handshake_in_memory, TlsConfig};
use gridsec_util::check::check;
use std::sync::OnceLock;

const CASES: u64 = 16;

/// Build a fresh channel pair per test case (channels are stateful),
/// keyed by a handshake drawn from `seed` alone: the case's generator
/// supplies it, so `GRIDSEC_PT_SEED` replays the channel with the case.
fn channel_pair(seed: [u8; 32]) -> (SecureChannel, SecureChannel) {
    // Cache the expensive world (CA + creds) once; handshakes are cheap.
    struct World {
        client_cfg: TlsConfig,
        server_cfg: TlsConfig,
    }
    static W: OnceLock<World> = OnceLock::new();
    let w = W.get_or_init(|| {
        let mut rng = ChaChaRng::from_seed_bytes(b"tls proptest world");
        let ca = CertificateAuthority::create_root(
            &mut rng,
            DistinguishedName::parse("/O=T/CN=CA").unwrap(),
            512,
            0,
            1_000_000,
        );
        let a = ca.issue_identity(
            &mut rng,
            DistinguishedName::parse("/O=T/CN=A").unwrap(),
            512,
            0,
            1_000_000,
        );
        let b = ca.issue_identity(
            &mut rng,
            DistinguishedName::parse("/O=T/CN=B").unwrap(),
            512,
            0,
            1_000_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            client_cfg: TlsConfig::new(a, trust.clone(), 10),
            server_cfg: TlsConfig::new(b, trust, 10),
        }
    });
    let mut rng = ChaChaRng::from_seed_bytes(&seed);
    handshake_in_memory(w.client_cfg.clone(), w.server_cfg.clone(), &mut rng).unwrap()
}

#[test]
fn any_message_sequence_roundtrips() {
    check("any_message_sequence_roundtrips", CASES, |g| {
        let messages = g.vec(1..8, |g| g.bytes(0..256));
        let seed = g.byte_array::<32>();
        let (mut c, mut s) = channel_pair(seed);
        let (mut replay, _) = channel_pair(seed);
        for (i, m) in messages.iter().enumerate() {
            if i % 2 == 0 {
                let sealed = c.seal(m);
                // The seed alone fixes the keys: a second pair seals the same bytes.
                assert_eq!(replay.seal(m), sealed);
                assert_eq!(&s.open(&sealed).unwrap(), m);
            } else {
                let sealed = s.seal(m);
                assert_eq!(&c.open(&sealed).unwrap(), m);
            }
        }
    });
}

#[test]
fn any_bitflip_is_detected() {
    check("any_bitflip_is_detected", CASES, |g| {
        let msg = g.bytes(1..128);
        let byte_frac = g.f64_unit();
        let bit = g.u8_in(0..8);
        let (mut c, mut s) = channel_pair(g.byte_array());
        let mut sealed = c.seal(&msg);
        let idx = ((sealed.len() as f64) * byte_frac) as usize % sealed.len();
        sealed[idx] ^= 1 << bit;
        assert!(s.open(&sealed).is_err());
    });
}

#[test]
fn mic_agrees_for_any_message() {
    check("mic_agrees_for_any_message", CASES, |g| {
        let msg = g.bytes(0..256);
        let (mut c, mut s) = channel_pair(g.byte_array());
        let mic = c.get_mic(&msg);
        assert!(s.verify_mic(&msg, &mic).is_ok());
        // A different message never verifies against the same MIC.
        let mut other = msg.clone();
        other.push(0);
        let mic2 = c.get_mic(&other);
        assert!(s.verify_mic(&msg, &mic2).is_err());
    });
}
