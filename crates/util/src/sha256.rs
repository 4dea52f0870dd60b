//! SHA-256 (FIPS 180-4).
//!
//! Streaming implementation with a one-shot convenience function. Verified
//! against the NIST short-message vectors in the unit tests.
//!
//! Lives in `gridsec-util` so that `gridsec-crypto` (hashing, HMAC, HKDF,
//! signatures) and the testbed's stored file digests share one
//! implementation; `gridsec_crypto::sha256` re-exports this module.
//!
//! Two paths compute the same digest. [`Sha256::update`] expands the
//! message schedules of every run of [`LANES`] whole blocks in one pass,
//! then runs their round sequences one after another; a single block —
//! the tail of a message, the padding, every short HMAC/HKDF input —
//! goes through the one-block compression function. Both run the same
//! unrolled rounds over `W[i] + K[i]`.

/// Digest output size in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes (needed by HMAC).
pub const BLOCK_LEN: usize = 64;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= LANES * BLOCK_LEN {
            self.compress_wide(&data[..LANES * BLOCK_LEN]);
            data = &data[LANES * BLOCK_LEN..];
        }
        while data.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&data[..BLOCK_LEN]);
            self.compress(&block);
            data = &data[BLOCK_LEN..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finalize and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Padding: 0x80, zeros, 64-bit big-endian length — in a second
        // block when the length no longer fits after the 0x80.
        self.buf[self.buf_len] = 0x80;
        self.buf[self.buf_len + 1..].fill(0);
        if self.buf_len >= BLOCK_LEN - 8 {
            let block = self.buf;
            self.compress(&block);
            self.buf = [0; BLOCK_LEN];
        }
        self.buf[BLOCK_LEN - 8..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    /// [`LANES`] whole blocks: one pass over their schedules, then their
    /// rounds in order. The 4 KiB table is made here rather than in
    /// `update`, so a short `update` does not pay for zeroing it.
    #[allow(clippy::needless_range_loop)] // `l` indexes the inner dimension
    fn compress_wide(&mut self, blocks: &[u8]) {
        let mut w = [[0u32; LANES]; 64];
        schedule_wide(blocks, &mut w);
        for l in 0..LANES {
            rounds(&mut self.state, |i| w[i][l]);
        }
    }

    /// One block: the tail of a message, the padding, and every input
    /// shorter than [`LANES`] blocks.
    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                block[i * 4],
                block[i * 4 + 1],
                block[i * 4 + 2],
                block[i * 4 + 3],
            ]);
        }
        for i in 16..64 {
            w[i] = w[i - 16]
                .wrapping_add(small_sigma0(w[i - 15]))
                .wrapping_add(w[i - 7])
                .wrapping_add(small_sigma1(w[i - 2]));
        }
        for (word, k) in w.iter_mut().zip(K) {
            *word = word.wrapping_add(k);
        }
        rounds(&mut self.state, |i| w[i]);
    }
}

/// Blocks whose message schedules [`Sha256::update`] expands in one pass.
///
/// A block's schedule does not depend on the chaining value, so sixteen
/// of them can be expanded side by side before any round runs. The table
/// is word-major, lane `l` holding block `l`: each word's sixteen lanes
/// are one loop of sixteen independent trips, which LLVM's loop
/// vectoriser turns into SSE2 at the baseline x86-64 target. Four- and
/// eight-trip lane loops are fully unrolled before the vectoriser sees
/// them and stay scalar.
const LANES: usize = 16;

fn small_sigma0(x: u32) -> u32 {
    x.rotate_right(7) ^ x.rotate_right(18) ^ (x >> 3)
}

fn small_sigma1(x: u32) -> u32 {
    x.rotate_right(17) ^ x.rotate_right(19) ^ (x >> 10)
}

/// Expand the schedules of the `LANES` whole blocks in `blocks` into `w`,
/// with `K[i]` already added to word `i`.
fn schedule_wide(blocks: &[u8], w: &mut [[u32; LANES]; 64]) {
    for (l, block) in blocks.chunks_exact(BLOCK_LEN).enumerate() {
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i][l] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
    }
    for i in 16..64 {
        let (w16, w15, w7, w2) = (w[i - 16], w[i - 15], w[i - 7], w[i - 2]);
        for (l, word) in w[i].iter_mut().enumerate() {
            *word = w16[l]
                .wrapping_add(small_sigma0(w15[l]))
                .wrapping_add(w7[l])
                .wrapping_add(small_sigma1(w2[l]));
        }
    }
    for (row, k) in w.iter_mut().zip(K) {
        for word in row {
            *word = word.wrapping_add(k);
        }
    }
}

/// The 64 rounds over one block's schedule (`wk(i)` = `W[i] + K[i]`),
/// added into `state`. Eight rounds per step rename the working
/// variables instead of shifting them.
#[inline(always)]
fn rounds(state: &mut [u32; 8], wk: impl Fn(usize) -> u32) {
    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $i:expr) => {
            let t1 = $h
                .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
                .wrapping_add((($f ^ $g) & $e) ^ $g)
                .wrapping_add(wk($i));
            $d = $d.wrapping_add(t1);
            $h = t1
                .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
                .wrapping_add((($a | $b) & $c) | ($a & $b));
        };
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in (0..64).step_by(8) {
        round!(a, b, c, d, e, f, g, h, i);
        round!(h, a, b, c, d, e, f, g, i + 1);
        round!(g, h, a, b, c, d, e, f, i + 2);
        round!(f, g, h, a, b, c, d, e, i + 3);
        round!(e, f, g, h, a, b, c, d, i + 4);
        round!(d, e, f, g, h, a, b, c, i + 5);
        round!(c, d, e, f, g, h, a, b, i + 6);
        round!(b, c, d, e, f, g, h, a, i + 7);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data: Vec<u8> = (0u16..1000).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 17, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split={split}");
        }
    }

    #[test]
    fn length_boundary_paddings() {
        // Every length through two blocks and past: 55/56 and 119/120 are
        // where the length stops fitting beside the 0x80.
        let mut digests = Vec::new();
        for len in 0..=130 {
            let data = vec![0x61u8; len];
            // Cross-check the streaming implementation against itself with
            // byte-at-a-time feeding.
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            let digest = sha256(&data);
            assert_eq!(h.finalize(), digest, "len={len}");
            digests.extend_from_slice(&digest);
        }
        // The 131 digests of "a" × 0..=130, concatenated and hashed, as
        // an independent SHA-256 implementation computes them.
        assert_eq!(
            hex(&sha256(&digests)),
            "f908a43fc8456c583aacde0fb2627959f8513dc76d0c03979b7f945a7dd78f22"
        );
    }
}
