//! `RecordSession::next_message` opens a record in the buffer it arrived
//! in when the record ends the buffered bytes, and copies it out first
//! when bytes follow it. On every arrival schedule it must read the
//! stream exactly as `FrameBuf::next_frame` and the copying
//! `SecureChannel::open` do: the same plaintexts at the same feeds, the
//! same `RecordIntegrity` for a tampered record, and that record
//! consumed, so the genuine record behind it still opens.

use std::sync::OnceLock;

use gridsec_crypto::rng::ChaChaRng;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_tls::channel::SecureChannel;
use gridsec_tls::handshake::{handshake_in_memory, TlsConfig};
use gridsec_tls::records::{frame, FrameBuf, RecordSession};
use gridsec_tls::TlsError;
use gridsec_util::rng::RngCore;

/// The four messages, in stream order; the third one's record is tampered.
const SIZES: [usize; 4] = [16, 70 * 1024, 256, 1024 * 1024];
const TAMPERED: usize = 2;
/// Split offsets drawn at random across the whole stream.
const SAMPLED: usize = 48;

/// A channel pair keyed by one fixed handshake: every call returns
/// channels with the same keys at sequence number 0.
fn pair() -> (SecureChannel, SecureChannel) {
    static CONFIGS: OnceLock<(TlsConfig, TlsConfig)> = OnceLock::new();
    let (client, server) = CONFIGS.get_or_init(|| {
        let mut rng = ChaChaRng::from_seed_bytes(b"next_message differential world");
        let dn = |s: &str| DistinguishedName::parse(s).unwrap();
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=T/CN=CA"), 512, 0, 1_000_000);
        let a = ca.issue_identity(&mut rng, dn("/O=T/CN=A"), 512, 0, 1_000_000);
        let b = ca.issue_identity(&mut rng, dn("/O=T/CN=B"), 512, 0, 1_000_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        (
            TlsConfig::new(a, trust.clone(), 10),
            TlsConfig::new(b, trust, 10),
        )
    });
    let mut rng = ChaChaRng::from_seed_bytes(b"next_message differential keys");
    handshake_in_memory(client.clone(), server.clone(), &mut rng).unwrap()
}

/// The framed stream, the offset each frame starts at, and the messages.
///
/// The tampered third frame is a forgery injected into the stream: a
/// record sealed under the sender's keys at the sequence number the
/// sender uses next, then altered. A refused record does not advance the
/// receiver's sequence, so the sender's own third seal, the 1 MiB
/// message, opens behind it.
fn stream() -> (Vec<u8>, Vec<usize>, Vec<Vec<u8>>) {
    let mut rng = ChaChaRng::from_seed_bytes(b"next_message differential messages");
    let messages: Vec<Vec<u8>> = SIZES
        .iter()
        .map(|&n| {
            let mut m = vec![0u8; n];
            rng.fill_bytes(&mut m);
            m
        })
        .collect();
    let (mut sender, _) = pair();
    let (mut forger, _) = pair();
    let mut bytes = Vec::new();
    let mut starts = Vec::new();
    for (i, m) in messages.iter().enumerate() {
        let record = if i == TAMPERED {
            let mut forged = forger.seal(m);
            forged[m.len() / 2] ^= 0x20;
            forged
        } else {
            forger.seal(m);
            sender.seal(m)
        };
        starts.push(bytes.len());
        bytes.extend_from_slice(&frame(&record));
    }
    (bytes, starts, messages)
}

type Reading = Vec<(usize, Result<Vec<u8>, TlsError>)>;

/// Feed `pieces` one by one into a fresh receiver, reading every message
/// that completes after each feed (tagged with that feed's index).
fn under_test(pieces: &[&[u8]]) -> Reading {
    let mut rx = RecordSession::new(pair().1);
    let mut out = Vec::new();
    for (i, piece) in pieces.iter().enumerate() {
        rx.feed(piece);
        loop {
            match rx.next_message() {
                Ok(Some(m)) => out.push((i, Ok(m))),
                Ok(None) => break,
                Err(e) => {
                    assert_eq!(e, TlsError::RecordIntegrity, "only the forgery fails");
                    out.push((i, Err(e)));
                }
            }
        }
    }
    out
}

/// The same feeds read by the copying reference.
fn reference(pieces: &[&[u8]]) -> Reading {
    let mut channel = pair().1;
    let mut buf = FrameBuf::new();
    let mut out = Vec::new();
    for (i, piece) in pieces.iter().enumerate() {
        buf.feed(piece);
        while let Some(sealed) = buf.next_frame().unwrap() {
            out.push((i, channel.open(&sealed)));
        }
    }
    out
}

/// A reading as lengths and errors: what a failed comparison prints.
fn shape(r: &Reading) -> Vec<(usize, Result<usize, TlsError>)> {
    r.iter()
        .map(|(i, m)| (*i, m.as_ref().map(Vec::len).map_err(Clone::clone)))
        .collect()
}

fn cut<'a>(bytes: &'a [u8], offsets: &[usize]) -> Vec<&'a [u8]> {
    let mut pieces = Vec::new();
    let mut from = 0;
    for &k in offsets {
        pieces.push(&bytes[from..k]);
        from = k;
    }
    pieces.push(&bytes[from..]);
    pieces
}

#[test]
fn next_message_reads_every_split_as_the_copying_reference() {
    let (bytes, starts, messages) = stream();
    // Every offset inside each length prefix and each frame boundary
    // (the end of a prefix is where its payload starts), then a seeded
    // sample of the rest.
    let mut offsets: Vec<usize> = starts.iter().flat_map(|&s| s..=s + 4).collect();
    offsets.push(bytes.len());
    let mut rng = ChaChaRng::from_seed_bytes(b"next_message differential splits");
    offsets.extend((0..SAMPLED).map(|_| 1 + rng.next_u64() as usize % (bytes.len() - 1)));
    offsets.sort_unstable();
    offsets.dedup();

    let expected: Vec<Result<usize, TlsError>> = messages
        .iter()
        .enumerate()
        .map(|(i, m)| {
            if i == TAMPERED {
                Err(TlsError::RecordIntegrity)
            } else {
                Ok(m.len())
            }
        })
        .collect();
    let mut schedules: Vec<Vec<usize>> = offsets.iter().map(|&k| vec![k]).collect();
    schedules.push(offsets.clone());
    for schedule in &schedules {
        let pieces = cut(&bytes, schedule);
        let got = under_test(&pieces);
        let want = reference(&pieces);
        assert!(
            got == want,
            "split at {schedule:?}: next_message read {:?}, the reference {:?}",
            shape(&got),
            shape(&want)
        );
        // The forgery is refused and consumed either way: the sender's
        // record behind it opens.
        let lengths: Vec<_> = shape(&want).into_iter().map(|(_, r)| r).collect();
        assert_eq!(lengths, expected, "split at {schedule:?}");
        for ((_, r), m) in want.iter().zip(&messages) {
            if let Ok(opened) = r {
                assert!(opened == m, "a message changed at split {schedule:?}");
            }
        }
    }
}
