//! The ChaCha20 stream cipher core (RFC 8439).
//!
//! Lives in `gridsec-util` so that both `gridsec-crypto` (cipher, AEAD,
//! CSPRNG) and the deterministic test RNG in [`crate::rng`] share one
//! audited keystream implementation. `gridsec_crypto::chacha20` re-exports
//! this module unchanged.
//!
//! Two kernels compute the same keystream. [`block`] is one 64-byte block
//! at a time; the AEAD's one-time key and the tail of a stream use it.
//! [`xor_stream`] runs four consecutive blocks per pass for every
//! whole 256 bytes: the state is held word-major (`x[word][lane]`, lane
//! `l` at counter `c + l`) and a whole double round sits inside one loop
//! over the four lanes. That loop body is too large for LLVM to unroll
//! early, so it reaches the loop vectoriser, which turns each word's four
//! lanes into one SSE2 register on baseline x86-64 — in safe Rust, with
//! no `target-cpu` or intrinsics. A loop around each single operation
//! instead is unrolled first and stays scalar. Four lanes make a 256-byte
//! record exactly one pass.
//!
//! [`Keystream`] is the buffered keystream under both RNGs, which differ
//! only in how they derive its key from a seed.

use crate::rng::RngCore;

/// Key size in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce size in bytes (IETF 96-bit variant).
pub const NONCE_LEN: usize = 12;
/// Keystream block size in bytes.
pub const BLOCK_LEN: usize = 64;

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574]; // "expand 32-byte k"

/// Blocks per pass of the wide kernel.
const LANES: usize = 4;

/// Word-major state of [`LANES`] blocks: `x[word][lane]`.
type Wide = [[u32; LANES]; 16];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// [`quarter_round`] on lane `l` of a word-major state.
#[inline(always)]
fn lane_quarter_round(x: &mut Wide, l: usize, a: usize, b: usize, c: usize, d: usize) {
    x[a][l] = x[a][l].wrapping_add(x[b][l]);
    x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(16);
    x[c][l] = x[c][l].wrapping_add(x[d][l]);
    x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(12);
    x[a][l] = x[a][l].wrapping_add(x[b][l]);
    x[d][l] = (x[d][l] ^ x[a][l]).rotate_left(8);
    x[c][l] = x[c][l].wrapping_add(x[d][l]);
    x[b][l] = (x[b][l] ^ x[c][l]).rotate_left(7);
}

/// The initial state for (key, counter, nonce), RFC 8439 §2.3.
fn initial_state(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&SIGMA);
    for i in 0..8 {
        state[4 + i] =
            u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
    }
    state[12] = counter;
    for i in 0..3 {
        state[13 + i] = u32::from_le_bytes([
            nonce[i * 4],
            nonce[i * 4 + 1],
            nonce[i * 4 + 2],
            nonce[i * 4 + 3],
        ]);
    }
    state
}

/// The [`LANES`] keystream blocks at counters `counter + l`, written
/// word-major into `ks`: `ks[word][lane]` is word `word` of block `lane`.
/// `state` is [`initial_state`]; its counter word is ignored.
fn wide_blocks(state: &[u32; 16], counter: u32, ks: &mut Wide) {
    // A loop, not `state.map`: LLVM does not always inline the `map` (it
    // stopped once `Keystream` refilled through this kernel), and the
    // out-of-line fill cost `xor_stream` ≈5 %.
    let mut x: Wide = [[0; LANES]; 16];
    for (lanes, &word) in x.iter_mut().zip(state) {
        *lanes = [word; LANES];
    }
    for (l, c) in x[12].iter_mut().enumerate() {
        *c = counter.wrapping_add(l as u32);
    }
    let start = x;
    for _ in 0..10 {
        for l in 0..LANES {
            lane_quarter_round(&mut x, l, 0, 4, 8, 12);
            lane_quarter_round(&mut x, l, 1, 5, 9, 13);
            lane_quarter_round(&mut x, l, 2, 6, 10, 14);
            lane_quarter_round(&mut x, l, 3, 7, 11, 15);
            lane_quarter_round(&mut x, l, 0, 5, 10, 15);
            lane_quarter_round(&mut x, l, 1, 6, 11, 12);
            lane_quarter_round(&mut x, l, 2, 7, 8, 13);
            lane_quarter_round(&mut x, l, 3, 4, 9, 14);
        }
    }
    for ((out, w), s) in ks.iter_mut().zip(&x).zip(&start) {
        for l in 0..LANES {
            out[l] = w[l].wrapping_add(s[l]);
        }
    }
}

/// Compute one 64-byte ChaCha20 keystream block for (key, counter, nonce).
pub fn block(key: &[u8; KEY_LEN], counter: u32, nonce: &[u8; NONCE_LEN]) -> [u8; BLOCK_LEN] {
    let state = initial_state(key, counter, nonce);
    let mut working = state;
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut working, 0, 4, 8, 12);
        quarter_round(&mut working, 1, 5, 9, 13);
        quarter_round(&mut working, 2, 6, 10, 14);
        quarter_round(&mut working, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut working, 0, 5, 10, 15);
        quarter_round(&mut working, 1, 6, 11, 12);
        quarter_round(&mut working, 2, 7, 8, 13);
        quarter_round(&mut working, 3, 4, 9, 14);
    }

    let mut out = [0u8; BLOCK_LEN];
    for i in 0..16 {
        let word = working[i].wrapping_add(state[i]);
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
    }
    out
}

/// XOR `data` in place with the ChaCha20 keystream starting at block
/// `initial_counter`. Encryption and decryption are the same operation.
/// Whole 256-byte runs take the four-block kernel, the rest [`block`];
/// the counter wraps at `u32::MAX` alike in both.
pub fn xor_stream(
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    initial_counter: u32,
    data: &mut [u8],
) {
    let state = initial_state(key, initial_counter, nonce);
    let mut counter = initial_counter;
    let mut ks: Wide = [[0; LANES]; 16];
    let mut wide = data.chunks_exact_mut(LANES * BLOCK_LEN);
    for run in &mut wide {
        wide_blocks(&state, counter, &mut ks);
        for (l, chunk) in run.chunks_exact_mut(BLOCK_LEN).enumerate() {
            for (bytes, word) in chunk.chunks_exact_mut(4).zip(&ks) {
                let b: [u8; 4] = bytes.try_into().expect("4 bytes");
                bytes.copy_from_slice(&(u32::from_le_bytes(b) ^ word[l]).to_le_bytes());
            }
        }
        counter = counter.wrapping_add(LANES as u32);
    }
    for chunk in wide.into_remainder().chunks_mut(BLOCK_LEN) {
        let ks = block(key, counter, nonce);
        for (b, k) in chunk.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
        counter = counter.wrapping_add(1);
    }
}

/// The ChaCha20 keystream under one key, served through [`RngCore`]:
/// blocks `0, 1, 2, …` of a 64-bit counter, its low word the block
/// counter and its high word nonce bytes 4..12.
///
/// A stream's first two refills compute one block each, so a stream
/// that draws a nonce or a key share or two (most per-handshake ones
/// serve at most 128 bytes) costs what one block per refill did; later
/// refills compute four in one wide pass, except a pass that would wrap
/// the low word (the nonce changes there), which computes one. The
/// bytes served are the same either way.
#[derive(Clone, Debug)]
pub struct Keystream {
    key: [u8; KEY_LEN],
    /// The next block to compute.
    counter: u64,
    buf: [u8; LANES * BLOCK_LEN],
    /// `buf[pos..len]` is computed and not yet served.
    pos: usize,
    len: usize,
}

impl Keystream {
    /// The keystream under `key`, from block 0.
    pub fn new(key: [u8; KEY_LEN]) -> Self {
        Keystream {
            key,
            counter: 0,
            buf: [0; LANES * BLOCK_LEN],
            pos: 0,
            len: 0,
        }
    }

    /// One [`block`] for a stream's first two refills and at the low
    /// word's wrap; otherwise [`LANES`] blocks, [`xor_stream`] over zeros.
    fn refill(&mut self) {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[4..].copy_from_slice(&(self.counter >> 32).to_le_bytes());
        let low = self.counter as u32;
        let blocks = if self.counter < 2 || low.checked_add(LANES as u32 - 1).is_none() {
            self.buf[..BLOCK_LEN].copy_from_slice(&block(&self.key, low, &nonce));
            1
        } else {
            self.buf.fill(0);
            xor_stream(&self.key, &nonce, low, &mut self.buf);
            LANES
        };
        self.counter = self.counter.wrapping_add(blocks as u64);
        self.pos = 0;
        self.len = blocks * BLOCK_LEN;
    }

    /// The next `N` bytes, read in place when the buffer holds them.
    #[inline]
    fn take<const N: usize>(&mut self) -> [u8; N] {
        if let Some(word) = self.buf[..self.len].get(self.pos..self.pos + N) {
            self.pos += N;
            return word.try_into().expect("N bytes");
        }
        let mut out = [0u8; N];
        self.fill_bytes(&mut out);
        out
    }
}

impl RngCore for Keystream {
    fn fill_bytes(&mut self, mut dest: &mut [u8]) {
        while !dest.is_empty() {
            if self.pos == self.len {
                self.refill();
            }
            let take = (self.len - self.pos).min(dest.len());
            let (head, rest) = dest.split_at_mut(take);
            head.copy_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            dest = rest;
        }
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes(self.take())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Keystream {
        /// The same stream from block `counter` on.
        pub(crate) fn at_counter(key: [u8; KEY_LEN], counter: u64) -> Self {
            Keystream {
                counter,
                ..Self::new(key)
            }
        }
    }

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

    /// `data` XORed with the keystream, in a new buffer.
    fn apply(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        xor_stream(key, nonce, counter, &mut out);
        out
    }

    #[test]
    fn rfc8439_block_function_vector() {
        // RFC 8439 §2.3.2
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let ks = block(&key, 1, &nonce);
        assert_eq!(
            hex(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    #[test]
    fn rfc8439_encryption_vector() {
        // RFC 8439 §2.4.2
        let key: [u8; 32] =
            unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f")
                .try_into()
                .unwrap();
        let nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ct = apply(&key, &nonce, 1, plaintext);
        assert_eq!(
            hex(&ct),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
                .replace(' ', "")
        );
    }

    #[test]
    fn roundtrip() {
        let key = [7u8; 32];
        let nonce = [9u8; 12];
        let msg: Vec<u8> = (0..300u16).map(|i| i as u8).collect();
        let ct = apply(&key, &nonce, 0, &msg);
        assert_ne!(ct, msg);
        assert_eq!(apply(&key, &nonce, 0, &ct), msg);
    }

    #[test]
    fn counter_advances_per_block() {
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        // Encrypting 128 bytes starting at counter 0 equals two blocks at 0,1.
        let data = [0u8; 128];
        let full = apply(&key, &nonce, 0, &data);
        let b0 = block(&key, 0, &nonce);
        let b1 = block(&key, 1, &nonce);
        assert_eq!(&full[..64], &b0[..]);
        assert_eq!(&full[64..], &b1[..]);
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = [3u8; 32];
        let data = [0u8; 64];
        let a = apply(&key, &[0u8; 12], 0, &data);
        let mut n2 = [0u8; 12];
        n2[11] = 1;
        let b = apply(&key, &n2, 0, &data);
        assert_ne!(a, b);
    }
}
