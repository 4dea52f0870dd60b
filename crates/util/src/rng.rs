//! Entropy abstraction and a deterministic seedable RNG.
//!
//! [`RngCore`] is the workspace-wide random-source trait (the shape of
//! `rand::RngCore`, minus the fallible variant nobody used). Two
//! implementations matter:
//!
//! * [`DetRng`] here — a ChaCha20-keystream RNG with splitmix64 seed
//!   expansion, for tests, property generation, and benches.
//! * `gridsec_crypto::rng::ChaChaRng` — the stack's CSPRNG (SHA-256 seed
//!   hashing), which also implements this trait.
//!
//! Both are one [`Keystream`] under the key their seed derives.

use crate::chacha::Keystream;

/// A source of random bytes. Implementors only need [`RngCore::fill_bytes`].
pub trait RngCore {
    /// Fill `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]);

    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.fill_bytes(&mut b);
        u32::from_le_bytes(b)
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.fill_bytes(&mut b);
        u64::from_le_bytes(b)
    }
}

impl<T: RngCore + ?Sized> RngCore for &mut T {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Marker for RNGs whose output is cryptographically strong.
pub trait CryptoRng {}

const SPLITMIX_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// One splitmix64 output step (Steele et al.); good avalanche for cheap
/// seed expansion. Not a keystream — only used to spread seed material
/// over the ChaCha key.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic, seedable RNG: ChaCha20 keystream under a key expanded
/// from the seed with splitmix64. Same seed → same stream, on every
/// platform. Replaces `rand::rngs::StdRng` at the workspace's test and
/// bench call sites.
#[derive(Clone, Debug)]
pub struct DetRng(Keystream);

impl DetRng {
    /// The stream under the key `state` expands to through splitmix64.
    fn from_splitmix(mut state: u64) -> Self {
        let mut key = [0u8; 32];
        for chunk in key.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
        }
        DetRng(Keystream::new(key))
    }

    /// Seed from a 64-bit integer (the `StdRng::seed_from_u64` shape).
    pub fn seed_from_u64(seed: u64) -> Self {
        Self::from_splitmix(seed)
    }

    /// Seed deterministically from arbitrary bytes.
    pub fn from_seed_bytes(seed: &[u8]) -> Self {
        // Fold the bytes through splitmix64, mixing in position and length
        // so permutations and prefixes of a seed produce unrelated keys.
        let mut state = SPLITMIX_GAMMA ^ (seed.len() as u64);
        let mut acc = 0u64;
        for (i, &b) in seed.iter().enumerate() {
            acc = acc.rotate_left(8) ^ u64::from(b);
            if i % 8 == 7 {
                state ^= splitmix64(&mut state) ^ acc;
            }
        }
        state ^= splitmix64(&mut state) ^ acc;
        Self::from_splitmix(state)
    }
}

impl RngCore for DetRng {
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        self.0.fill_bytes(dest)
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        self.0.next_u32()
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.0.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed_from_u64(42);
        let mut b = DetRng::seed_from_u64(42);
        let mut ba = [0u8; 333];
        let mut bb = [0u8; 333];
        a.fill_bytes(&mut ba);
        b.fill_bytes(&mut bb);
        assert_eq!(ba[..], bb[..]);
        assert_eq!(a.next_u64(), b.next_u64());
        assert_eq!(a.next_u32(), b.next_u32());
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = DetRng::seed_from_u64(1);
        let mut b = DetRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut c = DetRng::from_seed_bytes(b"alpha");
        let mut d = DetRng::from_seed_bytes(b"alphb");
        assert_ne!(c.next_u64(), d.next_u64());
        // Length extension of the seed changes the stream too.
        let mut e = DetRng::from_seed_bytes(b"alpha\0");
        let mut f = DetRng::from_seed_bytes(b"alpha");
        assert_ne!(e.next_u64(), f.next_u64());
    }

    #[test]
    fn byte_seed_matches_across_chunked_lengths() {
        // Seeds longer than one 8-byte fold chunk still work and differ.
        let s1 = DetRng::from_seed_bytes(b"a longer seed string, 30 bytes");
        let mut s2 = DetRng::from_seed_bytes(b"a longer seed string, 30 bytes");
        let mut s1 = s1;
        assert_eq!(s1.next_u64(), s2.next_u64());
    }

    #[test]
    fn chunked_reads_match_bulk() {
        let mut a = DetRng::seed_from_u64(7);
        let mut b = DetRng::seed_from_u64(7);
        let mut bulk = [0u8; 200];
        a.fill_bytes(&mut bulk);
        let mut pieced = Vec::new();
        for size in [1usize, 7, 64, 128] {
            let mut buf = vec![0u8; size];
            b.fill_bytes(&mut buf);
            pieced.extend_from_slice(&buf);
        }
        assert_eq!(&bulk[..], &pieced[..]);
    }

    /// Blocks `from..to` of `key`'s stream, one scalar block at a time,
    /// the counter's high word in nonce bytes 4..12.
    fn blocks(key: &[u8; 32], from: u64, to: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for counter in from..to {
            let mut nonce = [0u8; 12];
            nonce[4..].copy_from_slice(&(counter >> 32).to_le_bytes());
            out.extend_from_slice(&crate::chacha::block(key, counter as u32, &nonce));
        }
        out
    }

    /// `want.len()` bytes of `rng` through word draws and odd-length
    /// fills, so reads straddle every refill boundary.
    fn drawn(rng: &mut DetRng, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        for round in 0.. {
            if out.len() >= len {
                break;
            }
            out.extend_from_slice(&rng.next_u32().to_le_bytes());
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
            let mut fill = vec![0u8; [1, 5, 63, 67, 255, 259][round % 6]];
            rng.fill_bytes(&mut fill);
            out.extend_from_slice(&fill);
        }
        out.truncate(len);
        out
    }

    #[test]
    fn stream_is_the_scalar_blocks_under_the_nonce_rule() {
        let key = [0x5a; 32];
        // From block 0: two single blocks, then four-block passes.
        let want = blocks(&key, 0, 40);
        let got = drawn(&mut DetRng(Keystream::new(key)), want.len());
        assert_eq!(got, want);
        // Across the low word's wrap: a four-block pass ending three
        // blocks short of it, single blocks up to it, and passes again
        // under the next nonce.
        let start = (1u64 << 32) - 7;
        let want = blocks(&key, start, start + 40);
        let got = drawn(&mut DetRng(Keystream::at_counter(key, start)), want.len());
        assert_eq!(got, want);
    }

    #[test]
    fn stream_not_trivially_repeating() {
        let mut r = DetRng::seed_from_u64(9);
        let a = r.next_u64();
        let b = r.next_u64();
        let c = r.next_u64();
        assert!(a != b && b != c && a != c);
    }
}
