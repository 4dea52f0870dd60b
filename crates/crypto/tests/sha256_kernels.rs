//! SHA-256's sixteen-block message schedule held to the one-block
//! compression function it runs beside: every length across the 1 024-
//! and 2 048-byte wide-run boundaries, every two-way split of a message
//! that straddles them, and two long digests recorded from an
//! independent implementation.

use gridsec_crypto::sha256::{sha256, Sha256};

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

/// The compression function as FIPS 180-4 §6.2.2 writes it: one block,
/// its own schedule, eight working variables shifted every round.
fn compress(state: &mut [u32; 8], block: &[u8]) {
    let mut w = [0u32; 64];
    for i in 0..16 {
        w[i] = u32::from_be_bytes(block[i * 4..i * 4 + 4].try_into().unwrap());
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// SHA-256 of `data`, one block at a time through [`compress`].
fn reference(data: &[u8]) -> [u8; 32] {
    let mut state = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut padded = data.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    for block in padded.chunks_exact(64) {
        compress(&mut state, block);
    }
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The test message: byte `i` is `(i*31 + i/7) as u8`, so no two blocks
/// of a long message repeat and a lane mixed up with its neighbour shows.
fn message(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + i / 7) as u8).collect()
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn every_length_to_2200_is_the_one_block_digest() {
    let data = message(2200);
    for len in 0..=data.len() {
        let want = reference(&data[..len]);
        assert_eq!(sha256(&data[..len]), want, "one-shot, len={len}");
        // Odd-sized pieces: the buffered head and tail around each wide
        // run land on every offset.
        for size in [67, 1100] {
            let mut h = Sha256::new();
            for piece in data[..len].chunks(size) {
                h.update(piece);
            }
            assert_eq!(h.finalize(), want, "pieces of {size}, len={len}");
        }
    }
}

#[test]
fn every_split_of_2100_bytes_is_the_one_shot_digest() {
    let data = message(2100);
    let want = reference(&data);
    for split in 0..=data.len() {
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), want, "split={split}");
    }
}

#[test]
fn long_messages_match_an_independent_implementation() {
    // Recorded with Python's `hashlib.sha256` over the same bytes.
    for (len, want) in [
        (
            1_000_000,
            "071965f808a0e31200d5521129adef0601be3a07f9d8768da1bddc8cf5aeecd2",
        ),
        (
            300_001,
            "a8379ab6d9acc904d8fcc95a6ffb5af5ec60ab40988bf296bbc5319e15d4dea2",
        ),
    ] {
        let data = message(len);
        assert_eq!(hex(&sha256(&data)), want, "whole, len={len}");
        let mut h = Sha256::new();
        for piece in data.chunks(1000) {
            h.update(piece);
        }
        assert_eq!(hex(&h.finalize()), want, "pieces of 1000, len={len}");
    }
}
