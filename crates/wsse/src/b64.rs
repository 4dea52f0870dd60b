//! Standard base64 (RFC 4648, with padding) for embedding binary tokens,
//! digests, and signatures in XML text content.
//!
//! Both directions work on runs, in one pass, into one buffer sized up
//! front. `encode` turns 12 bytes into 16 characters per step: two
//! overlapping big-endian `u64` loads give eight 12-bit indexes into a
//! table of character pairs. `decode` turns 16 characters into 12 bytes
//! per step through four tables that hold each character's sextet
//! already shifted into place, and tests one bit per 16 characters for
//! anything outside the alphabet. What is left over — the last few bytes
//! or characters, and any run that whitespace or padding breaks up —
//! goes through 3-byte groups and 4-character quads, a character at a
//! time where it must.
//!
//! **What `decode` accepts.** ASCII whitespace (space, `\t`, `\n`, `\x0C`,
//! `\r`) anywhere, and is ignored; what remains must be a multiple of four
//! characters of the alphabet `A–Z a–z 0–9 + /`, of which the last one or
//! two may be `=` padding. `=` anywhere else — in particular a padded quad
//! followed by more data — is refused, so a byte string has one encoding up
//! to whitespace (the non-significant bits of a padded quad are not
//! checked). Everything else is `None`.

const ALPHABET: &[u8; 64] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// 12 bits → the two characters that encode them, first character in the
/// low byte (8 KiB).
static PAIRS: [u16; 4096] = {
    let mut t = [0u16; 4096];
    let mut i = 0;
    while i < 4096 {
        t[i] = ALPHABET[i >> 6] as u16 | (ALPHABET[i & 63] as u16) << 8;
        i += 1;
    }
    t
};

/// Encode bytes to base64.
pub fn encode(data: &[u8]) -> String {
    let sextet = |n: u32, shift: u32| ALPHABET[(n >> shift) as usize & 63];
    let mut out = vec![b'='; data.len().div_ceil(3) * 4];
    // Whole 12-byte runs, eight character pairs each: bytes 0–5 are the
    // top 48 bits of the first load, bytes 6–11 the low 48 of the second.
    let (runs, data) = data.split_at(data.len() / 12 * 12);
    let (head, tail) = out.split_at_mut(runs.len() / 12 * 16);
    for (run, d) in runs.chunks_exact(12).zip(head.chunks_exact_mut(16)) {
        let hi = u64::from_be_bytes(run[..8].try_into().expect("8 of 12 bytes"));
        let lo = u64::from_be_bytes(run[4..].try_into().expect("8 of 12 bytes"));
        let pair = |x: u64, shift: u32| PAIRS[(x >> shift) as usize & 0xfff] as u64;
        let a = pair(hi, 52) | pair(hi, 40) << 16 | pair(hi, 28) << 32 | pair(hi, 16) << 48;
        let b = pair(lo, 36) | pair(lo, 24) << 16 | pair(lo, 12) << 32 | pair(lo, 0) << 48;
        d[..8].copy_from_slice(&a.to_le_bytes());
        d[8..].copy_from_slice(&b.to_le_bytes());
    }
    // The last 0–11 bytes: whole 3-byte groups into 4 characters.
    let mut groups = data.chunks_exact(3);
    let mut quads = tail.chunks_exact_mut(4);
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

/// Set in a [`SHIFTED`] entry of every byte outside the alphabet,
/// whitespace and `=` included; never set by an OR of four sextets.
const NOT_SEXTET: u32 = 1 << 31;

/// For each position `k` of a quad: byte → its sextet shifted to bits
/// `18 − 6k`, or [`NOT_SEXTET`]. The OR of a quad's four lookups is its
/// 24 bits, or has the high bit set.
static SHIFTED: [[u32; 256]; 4] = {
    let mut t = [[NOT_SEXTET; 256]; 4];
    let mut c = 0;
    while c < 256 {
        let v = DECODE[c];
        if v < 64 {
            let mut k = 0;
            while k < 4 {
                t[k][c] = (v as u32) << (18 - 6 * k);
                k += 1;
            }
        }
        c += 1;
    }
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
        // Runs of 16 alphabet characters, the common case, with one
        // test for anything else per run.
        let mut whole = 0;
        for (run, dst) in bytes[i..]
            .chunks_exact(16)
            .zip(out[o..].chunks_exact_mut(12))
        {
            let quad = |q: &[u8]| {
                SHIFTED[0][q[0] as usize]
                    | SHIFTED[1][q[1] as usize]
                    | SHIFTED[2][q[2] as usize]
                    | SHIFTED[3][q[3] as usize]
            };
            let (a, b, c, d) = (
                quad(&run[..4]),
                quad(&run[4..8]),
                quad(&run[8..12]),
                quad(&run[12..]),
            );
            if (a | b | c | d) & NOT_SEXTET != 0 {
                break;
            }
            let hi = (a as u64) << 40 | (b as u64) << 16 | (c as u64) >> 8;
            dst[..8].copy_from_slice(&hi.to_be_bytes());
            dst[8..].copy_from_slice(&(c << 24 | d).to_be_bytes());
            whole += 1;
        }
        i += whole * 16;
        o += whole * 12;
        // Then whole quads of alphabet characters, four at a time.
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
        // at a time; once it is complete the loops above take over again,
        // so line-wrapped text leaves them once a line.
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
