//! The two RNG streams, pinned.
//!
//! Every seeded byte in the workspace — keys, nonces, the fault layer's
//! drop / latency / reorder / duplicate draws, property-test cases —
//! comes out of one of two ChaCha20 keystreams: `DetRng` (splitmix64
//! key) and `ChaChaRng` (SHA-256 key). How a stream is computed (one
//! block per refill or four, word draws straight from the buffer or
//! through `fill_bytes`) is free to change; the bytes it serves are not.
//! The pins (`rng.det.*`, `rng.chacha.*` in `tests/golden.pins`) hold
//! the first 4 KiB of each at two seeds, and a mixed run of word draws
//! and odd-length fills that crosses the 64- and 256-byte refill
//! boundaries many times over.

use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_util::pins;
use gridsec_util::rng::{DetRng, RngCore};

/// The first 4 KiB `rng` serves through one `fill_bytes`.
fn first_4k(rng: &mut impl RngCore) -> Vec<u8> {
    let mut out = vec![0u8; 4096];
    rng.fill_bytes(&mut out);
    out
}

/// Word draws and odd-length fills in a fixed order, everything served
/// appended little-endian. The fill lengths straddle a 64-byte block
/// and a 256-byte four-block pass from every offset the words leave.
fn mixed(rng: &mut impl RngCore) -> Vec<u8> {
    const FILLS: [usize; 12] = [1, 3, 7, 13, 31, 61, 63, 65, 127, 129, 255, 257];
    let mut out = Vec::new();
    for round in 0..24 {
        out.extend_from_slice(&rng.next_u32().to_le_bytes());
        let mut fill = vec![0u8; FILLS[round % FILLS.len()]];
        rng.fill_bytes(&mut fill);
        out.extend_from_slice(&fill);
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
        if round % 3 == 0 {
            out.extend_from_slice(&rng.next_u64().to_le_bytes());
            out.extend_from_slice(&rng.next_u32().to_le_bytes());
        }
    }
    out
}

fn pin(name: &str, bytes: &[u8]) {
    pins::check(name, sha256(bytes), bytes.len());
}

#[test]
fn det_rng_stream_is_pinned() {
    pin(
        "rng.det.first_4k.1",
        &first_4k(&mut DetRng::seed_from_u64(1)),
    );
    pin(
        "rng.det.first_4k.c4a05eed",
        &first_4k(&mut DetRng::seed_from_u64(0xC4A0_5EED)),
    );
    pin("rng.det.mixed", &mixed(&mut DetRng::seed_from_u64(3)));
}

#[test]
fn chacha_rng_stream_is_pinned() {
    pin(
        "rng.chacha.first_4k.golden",
        &first_4k(&mut ChaChaRng::from_seed_bytes(b"golden key")),
    );
    pin(
        "rng.chacha.first_4k.empty",
        &first_4k(&mut ChaChaRng::from_seed_bytes(b"")),
    );
    pin(
        "rng.chacha.mixed",
        &mixed(&mut ChaChaRng::from_seed_bytes(b"mixed")),
    );
}
