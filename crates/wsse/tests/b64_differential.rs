//! The table-driven base64 codec held to the one it replaced. The old
//! codec lives on here, as the reference: `decode` must agree with it on
//! every input except those it accepted with `=` before the final quad,
//! which are now refused. The run kernels (12 bytes to 16 characters
//! and back) are held to it at every length and around every offset of
//! a run.

use gridsec_util::rng::{DetRng, RngCore};
use gridsec_wsse::b64::{decode, encode};

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

fn reference_encode(data: &[u8]) -> String {
    let mut out = String::new();
    for chunk in data.chunks(3) {
        let b = [
            chunk[0],
            *chunk.get(1).unwrap_or(&0),
            *chunk.get(2).unwrap_or(&0),
        ];
        let n = (b[0] as usize) << 16 | (b[1] as usize) << 8 | b[2] as usize;
        let quad = [n >> 18, n >> 12, n >> 6, n].map(|i| ALPHABET[i & 63] as char);
        out.extend(quad.iter().take(chunk.len() + 1));
        out.extend(std::iter::repeat_n('=', 3 - chunk.len()));
    }
    out
}

/// The parent commit's `decode`: whitespace stripped, then every quad on
/// its own may end in one or two `=`.
fn reference_decode(s: &str) -> Option<Vec<u8>> {
    let cleaned: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    if !cleaned.len().is_multiple_of(4) {
        return None;
    }
    let mut out = Vec::new();
    for quad in cleaned.chunks(4) {
        let pad = quad.iter().filter(|&&c| c == b'=').count();
        if pad > 2 || quad[..4 - pad].contains(&b'=') {
            return None;
        }
        let mut n = 0u32;
        for (i, c) in quad[..4 - pad].iter().enumerate() {
            n |= (ALPHABET.iter().position(|a| a == c)? as u32) << (18 - 6 * i);
        }
        out.extend_from_slice(&n.to_be_bytes()[1..4 - pad]);
    }
    Some(out)
}

/// Whether `=` appears before the final quad (whitespace not counted).
fn has_interior_padding(s: &str) -> bool {
    let cleaned: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    let last_quad = cleaned.len().saturating_sub(4);
    cleaned[..last_quad].contains(&b'=')
}

#[test]
fn every_length_round_trips_and_matches_the_reference() {
    let mut rng = DetRng::seed_from_u64(64);
    for len in 0..=200 {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let enc = encode(&data);
        assert_eq!(enc, reference_encode(&data), "len {len}");
        assert_eq!(enc.len(), len.div_ceil(3) * 4);
        assert_eq!(decode(&enc).as_deref(), Some(&data[..]), "len {len}");
        assert_eq!(
            reference_decode(&enc).as_deref(),
            Some(&data[..]),
            "len {len}"
        );
    }
}

#[test]
fn seeded_strings_decode_as_before_except_interior_padding() {
    // The alphabet, `=` and two kinds of whitespace weighted up, two
    // characters outside it: short strings so that many are well formed.
    let mut charset = ALPHABET.to_vec();
    charset.extend_from_slice(b"====    \n\n-*");
    let mut rng = DetRng::seed_from_u64(4648);
    let (mut both_some, mut both_none, mut newly_refused) = (0, 0, 0);
    for case in 0..200_000 {
        let s: String = if case % 2 == 0 {
            // Seeded characters.
            let len = rng.next_u32() as usize % 14;
            (0..len)
                .map(|_| charset[rng.next_u32() as usize % charset.len()] as char)
                .collect()
        } else {
            // Two encodings back to back (the first may end in padding),
            // then up to two characters overwritten.
            let mut data = vec![0u8; rng.next_u32() as usize % 40];
            rng.fill_bytes(&mut data);
            let cut = rng.next_u32() as usize % (data.len() + 1);
            let mut s = (encode(&data[..cut]) + &encode(&data[cut..])).into_bytes();
            for _ in 0..rng.next_u32() % 3 {
                if !s.is_empty() {
                    let at = rng.next_u32() as usize % s.len();
                    s[at] = charset[rng.next_u32() as usize % charset.len()];
                }
            }
            String::from_utf8(s).unwrap()
        };
        let (new, old) = (decode(&s), reference_decode(&s));
        if old.is_some() && has_interior_padding(&s) {
            assert_eq!(new, None, "{s:?}");
            newly_refused += 1;
        } else {
            assert_eq!(new, old, "{s:?}");
            match new {
                Some(bytes) => {
                    both_some += 1;
                    assert_eq!(decode(&encode(&bytes)), Some(bytes));
                }
                None => both_none += 1,
            }
        }
    }
    // Each class is well populated, so none of the three arms is vacuous.
    assert!(both_some > 20_000, "{both_some}");
    assert!(both_none > 20_000, "{both_none}");
    assert!(newly_refused > 2_000, "{newly_refused}");
}

#[test]
fn the_run_encoder_matches_the_reference_at_every_length() {
    let mut rng = DetRng::seed_from_u64(1216);
    for len in (0..=256).chain([16 * 1024 - 1, 16 * 1024, 16 * 1024 + 1]) {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let enc = encode(&data);
        assert_eq!(enc, reference_encode(&data), "len {len}");
        assert_eq!(decode(&enc).as_deref(), Some(&data[..]), "len {len}");
    }
}

/// `decode` against the reference on `s`, but for interior padding.
fn agrees(s: &[u8]) {
    let s = std::str::from_utf8(s).expect("ASCII");
    let (new, old) = (decode(s), reference_decode(s));
    if old.is_some() && has_interior_padding(s) {
        assert_eq!(new, None, "{s:?}");
    } else {
        assert_eq!(new, old, "{s:?}");
    }
}

#[test]
fn a_run_broken_at_any_offset_decodes_as_the_reference() {
    let mut rng = DetRng::seed_from_u64(6416);
    // Four whole 16-character runs, and 64 characters ending in one and
    // in two `=`.
    for len in [48, 47, 46] {
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let valid = encode(&data).into_bytes();
        assert_eq!(valid.len(), 64);
        let inserts: [&[u8]; 7] = [b" ", b"\r\n", b"\t", b"=", b"==", b"-", b"\xc3\xa9"];
        for at in 0..=valid.len() {
            agrees(&valid[..at]);
            for insert in inserts {
                let mut s = valid[..at].to_vec();
                s.extend_from_slice(insert);
                s.extend_from_slice(&valid[at..]);
                agrees(&s);
            }
            if at < valid.len() {
                for replace in [b' ', b'\n', b'=', b'-', b'*', b'.', 0, 0x7f] {
                    let mut s = valid.clone();
                    s[at] = replace;
                    agrees(&s);
                }
            }
        }
    }
}
