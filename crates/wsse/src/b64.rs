//! Standard base64 (RFC 4648, with padding) for embedding binary tokens,
//! digests, and signatures in XML text content.
//!
//! Both directions work on runs, in one pass, into one buffer: `encode`
//! turns whole 3-byte groups into 4 characters of a buffer sized up front,
//! `decode` looks each character up in a 256-entry table and turns whole
//! quads into 3 bytes, with no allocation but the output.
//!
//! **What `decode` accepts.** ASCII whitespace (space, `\t`, `\n`, `\x0C`,
//! `\r`) anywhere, and is ignored; what remains must be a multiple of four
//! characters of the alphabet `A–Z a–z 0–9 + /`, of which the last one or
//! two may be `=` padding. `=` anywhere else — in particular a padded quad
//! followed by more data — is refused, so a byte string has one encoding up
//! to whitespace (the non-significant bits of a padded quad are not
//! checked). Everything else is `None`.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Encode bytes to base64.
pub fn encode(data: &[u8]) -> String {
    let sextet = |n: u32, shift: u32| ALPHABET[(n >> shift) as usize & 63];
    let mut out = vec![b'='; data.len().div_ceil(3) * 4];
    let mut groups = data.chunks_exact(3);
    let mut quads = out.chunks_exact_mut(4);
    for (g, q) in (&mut groups).zip(&mut quads) {
        let n = (g[0] as u32) << 16 | (g[1] as u32) << 8 | g[2] as u32;
        q.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    // A quad is left exactly when one or two bytes are: they make two or
    // three characters and the rest of it stays `=`.
    if let Some(q) = quads.next() {
        let rem = groups.remainder();
        let n = (rem[0] as u32) << 16 | rem.get(1).map_or(0, |&b| (b as u32) << 8);
        q[0] = sextet(n, 18);
        q[1] = sextet(n, 12);
        if rem.len() == 2 {
            q[2] = sextet(n, 6);
        }
    }
    String::from_utf8(out).expect("the alphabet and '=' are ASCII")
}

/// Table entry of a byte outside the alphabet.
const INVALID: u8 = 0xff;
/// Table entry of ASCII whitespace.
const SPACE: u8 = 0xfe;
/// Table entry of `=`.
const PAD: u8 = 0xfd;

/// Byte → sextet, or one of the three marks above (all ≥ 64).
const DECODE: [u8; 256] = {
    let mut t = [INVALID; 256];
    let mut i = 0;
    while i < 64 {
        t[ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    t[b'=' as usize] = PAD;
    // `u8::is_ascii_whitespace`: space, tab, line feed, form feed, return.
    t[b' ' as usize] = SPACE;
    t[b'\t' as usize] = SPACE;
    t[b'\n' as usize] = SPACE;
    t[0x0c] = SPACE;
    t[b'\r' as usize] = SPACE;
    t
};

/// Decode base64 (padding required and only at the end; whitespace
/// tolerated). The module docs state the accept set.
pub fn decode(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    let mut out = vec![0u8; bytes.len() / 4 * 3];
    // Input consumed and output produced so far.
    let (mut i, mut o) = (0, 0);
    // The quad collected one character at a time: `n` holds `have`
    // sextets, `pad` counts the `=` seen, after which only `=` and
    // whitespace may follow.
    let (mut n, mut have, mut pad) = (0u32, 0usize, 0usize);
    while i < bytes.len() {
        // Whole quads of alphabet characters, the common case, four at a time.
        let mut whole = 0;
        for (quad, dst) in bytes[i..].chunks_exact(4).zip(out[o..].chunks_exact_mut(3)) {
            let v = [quad[0], quad[1], quad[2], quad[3]].map(|c| DECODE[c as usize]);
            if (v[0] | v[1] | v[2] | v[3]) >= 64 {
                break;
            }
            let n = (v[0] as u32) << 18 | (v[1] as u32) << 12 | (v[2] as u32) << 6 | v[3] as u32;
            dst.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
            whole += 1;
        }
        i += whole * 4;
        o += whole * 3;
        // Then the quad that whitespace or padding broke up, a character
        // at a time; once it is complete the loop above takes over again,
        // so line-wrapped text leaves it once a line.
        while i < bytes.len() {
            let c = bytes[i];
            i += 1;
            match DECODE[c as usize] {
                INVALID => return None,
                SPACE => continue,
                PAD => pad += 1,
                _ if pad > 0 => return None,
                v => n = n << 6 | v as u32,
            }
            have += 1;
            if have == 4 && pad == 0 {
                out[o..o + 3].copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
                o += 3;
                (n, have) = (0, 0);
                break;
            }
        }
    }
    out.truncate(o);
    match (have, pad) {
        (0, 0) => {}
        (4, 1) => out.extend_from_slice(&[(n >> 10) as u8, (n >> 2) as u8]),
        (4, 2) => out.push((n >> 4) as u8),
        _ => return None,
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc4648_vectors() {
        let cases = [
            ("", ""),
            ("f", "Zg=="),
            ("fo", "Zm8="),
            ("foo", "Zm9v"),
            ("foob", "Zm9vYg=="),
            ("fooba", "Zm9vYmE="),
            ("foobar", "Zm9vYmFy"),
        ];
        for (plain, enc) in cases {
            assert_eq!(encode(plain.as_bytes()), enc);
            assert_eq!(decode(enc).unwrap(), plain.as_bytes());
        }
    }

    #[test]
    fn binary_roundtrip() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn whitespace_tolerated() {
        assert_eq!(decode("Zm9v\nYmFy").unwrap(), b"foobar");
        assert_eq!(decode("  Zm9v  ").unwrap(), b"foo");
    }

    #[test]
    fn line_wrapped_text_decodes_at_any_column() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 + i / 13) as u8).collect();
        let flat = encode(&data);
        for column in [1, 3, 4, 7, 64, 76] {
            let mut wrapped = String::new();
            for line in flat.as_bytes().chunks(column) {
                wrapped.push_str(std::str::from_utf8(line).unwrap());
                wrapped.push_str("\r\n");
            }
            assert_eq!(decode(&wrapped).unwrap(), data, "column {column}");
        }
    }

    #[test]
    fn padding_only_ends_the_message() {
        // Both decoded at the parent commit, to "AA" and "ABABC": padding
        // was checked per quad, so a byte string had many encodings.
        assert_eq!(decode("QQ==QQ=="), None);
        assert_eq!(decode("QUI=QUJD"), None);
        assert_eq!(decode("QQ==\nQQ=="), None);
        assert_eq!(decode("QUJD QQ== QUJD"), None);
        // The final quad still may be padded, whitespace around it or not.
        assert_eq!(decode("QUJDQQ==").unwrap(), b"ABCA");
        assert_eq!(decode("QUJDQUI=").unwrap(), b"ABCAB");
        assert_eq!(decode("QQ== \n").unwrap(), b"A");
        assert_eq!(decode("QUI=\r\n").unwrap(), b"AB");
        assert_eq!(decode("Q Q =\t= ").unwrap(), b"A");
    }

    #[test]
    fn malformed_rejected() {
        for bad in [
            "A",
            "AB",
            "ABC",
            "A===",
            "====",
            "Zm9v!",
            "=AAA",
            "A=AA",
            "AA=A",
            "Zm9v=",
            "Zm9vZ===",
            "Zm9v====",
            "Zm\u{e9}v",
        ] {
            assert!(decode(bad).is_none(), "{bad:?}");
        }
    }
}
