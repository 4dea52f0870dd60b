//! The AEAD's two per-byte kernels and the single-allocation `seal`, held
//! to what they replaced: the four-block keystream against the one-block
//! `chacha20::block` XORed in, the two-block Poly1305 step against the RFC
//! 8439 vectors (§2.5.2 and the reduction/carry edge cases of Appendix
//! A.3) and the definition of the MAC computed with `gridsec_bignum`, and
//! `seal`/`open` across the block and four-block boundaries, and the
//! in-place forms to the copying ones.

use gridsec_bignum::BigUint;
use gridsec_crypto::aead::{open, open_in_place, seal, seal_in_place};
use gridsec_crypto::chacha20::{block, xor_stream};
use gridsec_crypto::poly1305::{poly1305, Poly1305};
use gridsec_crypto::CryptoError;
use gridsec_util::rng::{DetRng, RngCore};

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn key(r: &str, s: &str) -> [u8; 32] {
    let mut k = unhex(r);
    k.extend(unhex(s));
    k.try_into().expect("16 + 16 bytes")
}

fn le(bytes: &[u8]) -> BigUint {
    let be: Vec<u8> = bytes.iter().rev().copied().collect();
    BigUint::from_bytes_be(&be)
}

/// Poly1305 as RFC 8439 §2.5.1 writes it down:
/// `acc = ((acc + block‖0x01) · r) mod (2^130 − 5)` per block, then
/// `(acc + s) mod 2^128`.
fn reference(key: &[u8; 32], msg: &[u8]) -> [u8; 16] {
    let p = (BigUint::one() << 130) - BigUint::from(5u32);
    let mut r = key[..16].to_vec();
    for i in [3, 7, 11, 15] {
        r[i] &= 0x0f;
    }
    for i in [4, 8, 12] {
        r[i] &= 0xfc;
    }
    let r = le(&r);
    let mut acc = BigUint::zero();
    for block in msg.chunks(16) {
        let mut n = block.to_vec();
        n.push(1);
        acc = &((acc + le(&n)) * &r) % &p;
    }
    let mut tag = (acc + le(&key[16..])).to_bytes_be_padded(17);
    tag.reverse();
    tag[..16].try_into().unwrap()
}

const ZERO16: &str = "00000000000000000000000000000000";
const IETF: &str = "Any submission to the IETF intended by the Contributor for publication \
as all or part of an IETF Internet-Draft or RFC and any statement made within the context of \
an IETF activity is considered an \"IETF Contribution\". Such statements include oral \
statements in IETF sessions, as well as written and electronic communications made at any time \
or place, which are addressed to";
const JABBERWOCKY: &str = "'Twas brillig, and the slithy toves\nDid gyre and gimble in the \
wabe:\nAll mimsy were the borogoves,\nAnd the mome raths outgrabe.";

/// The reference keystream: one 64-byte `block` at a time, the counter
/// wrapping at `u32::MAX`.
fn xor_block_by_block(key: &[u8; 32], nonce: &[u8; 12], counter: u32, data: &mut [u8]) {
    for (i, chunk) in data.chunks_mut(64).enumerate() {
        let ks = block(key, counter.wrapping_add(i as u32), nonce);
        chunk.iter_mut().zip(ks).for_each(|(b, k)| *b ^= k);
    }
}

#[test]
fn four_block_keystream_is_the_block_keystream() {
    let mut rng = DetRng::seed_from_u64(0xc4ac);
    let mut key = [0u8; 32];
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut key);
    rng.fill_bytes(&mut nonce);
    let mut plain = vec![0u8; 1100];
    rng.fill_bytes(&mut plain);
    // u32::MAX − 2: the lanes of the first wide pass run at
    // MAX − 2, MAX − 1, MAX and 0.
    for counter in [0, 1, u32::MAX - 2] {
        for len in 0..=plain.len() {
            let mut wide = plain[..len].to_vec();
            xor_stream(&key, &nonce, counter, &mut wide);
            let mut scalar = plain[..len].to_vec();
            xor_block_by_block(&key, &nonce, counter, &mut scalar);
            assert_eq!(wide, scalar, "counter {counter}, len {len}");
        }
    }
}

#[test]
fn rfc8439_vectors() {
    let a3_2_s = "36e5f6b5c5e06070f0efca96227a863e";
    let r1 = "01000000000000000000000000000000";
    let r2 = "02000000000000000000000000000000";
    let r10 = "01000000000000000400000000000000";
    let ff = "ffffffffffffffffffffffffffffffff";
    let v10 = "e33594d7505e43b90000000000000000 3394d7505e4379cd0100000000000000 \
               00000000000000000000000000000000 01000000000000000000000000000000";
    let cases: [(&str, [u8; 32], Vec<u8>, &str); 12] = [
        (
            "§2.5.2",
            key(
                "85d6be7857556d337f4452fe42d506a8",
                "0103808afb0db2fd4abff6af4149f51b",
            ),
            b"Cryptographic Forum Research Group".to_vec(),
            "a8061dc1305136c6c22b8baf0c0127a9",
        ),
        ("A.3 #1", key(ZERO16, ZERO16), vec![0; 64], ZERO16),
        ("A.3 #2", key(ZERO16, a3_2_s), IETF.into(), a3_2_s),
        (
            "A.3 #3",
            key(a3_2_s, ZERO16),
            IETF.into(),
            "f3477e7cd95417af89a6b8794c310cf0",
        ),
        (
            "A.3 #4",
            key(
                "1c9240a5eb55d38af333888604f6b5f0",
                "473917c1402b80099dca5cbc207075c0",
            ),
            JABBERWOCKY.into(),
            "4541669a7eaaee61e708dc7cbcc5eb62",
        ),
        // #5: 2^130 − 5 reached exactly; #6: h + s wraps 2^128.
        (
            "A.3 #5",
            key(r2, ZERO16),
            unhex(ff),
            "03000000000000000000000000000000",
        ),
        (
            "A.3 #6",
            key(r2, ff),
            unhex(r2),
            "03000000000000000000000000000000",
        ),
        // #7: a carry out of every limb; #8: the same, landing on zero.
        (
            "A.3 #7",
            key(r1, ZERO16),
            unhex(&format!(
                "{ff} f0ffffffffffffffffffffffffffffff 11000000000000000000000000000000"
            )),
            "05000000000000000000000000000000",
        ),
        (
            "A.3 #8",
            key(r1, ZERO16),
            unhex(&format!(
                "{ff} fbfefefefefefefefefefefefefefefe 01010101010101010101010101010101"
            )),
            ZERO16,
        ),
        // #9: the final subtraction of p must happen, 2^130 − 3 → 2.
        (
            "A.3 #9",
            key(r2, ZERO16),
            unhex("fdffffffffffffffffffffffffffffff"),
            "faffffffffffffffffffffffffffffff",
        ),
        // #10, #11: products that straddle the limb boundaries.
        (
            "A.3 #10",
            key(r10, ZERO16),
            unhex(v10),
            "14000000000000005500000000000000",
        ),
        (
            "A.3 #11",
            key(r10, ZERO16),
            unhex(v10)[..48].to_vec(),
            "13000000000000000000000000000000",
        ),
    ];
    for (name, key, msg, tag) in cases {
        assert_eq!(poly1305(&key, &msg).to_vec(), unhex(tag), "{name}");
        assert_eq!(
            reference(&key, &msg).to_vec(),
            unhex(tag),
            "reference, {name}"
        );
    }
}

#[test]
fn agrees_with_bignum_arithmetic_mod_2_130_minus_5() {
    let mut rng = DetRng::seed_from_u64(0x1305);
    for len in 0..=160 {
        for _ in 0..4 {
            let mut key = [0u8; 32];
            rng.fill_bytes(&mut key);
            let mut msg = vec![0u8; len];
            rng.fill_bytes(&mut msg);
            assert_eq!(poly1305(&key, &msg), reference(&key, &msg), "len {len}");
            // All-ones blocks under the same key: maximal limbs.
            msg.fill(0xff);
            assert_eq!(poly1305(&key, &msg), reference(&key, &msg), "0xff × {len}");
        }
    }
    // All-ones r (clamped) and s against all-ones blocks: pairs only,
    // and pairs then an odd block (1, 3, 5 and 257 blocks), so both the
    // two-block step and the one-block tail see maximal limbs.
    let key = [0xff; 32];
    for len in [16, 32, 48, 64, 79, 80, 4096, 257 * 16] {
        let msg = vec![0xff; len];
        assert_eq!(
            poly1305(&key, &msg),
            reference(&key, &msg),
            "max key, {len}"
        );
    }
}

#[test]
fn every_split_of_update_gives_the_one_shot_tag() {
    let mut rng = DetRng::seed_from_u64(0x5917);
    let mut key = [0u8; 32];
    rng.fill_bytes(&mut key);
    let mut msg = [0u8; 160];
    rng.fill_bytes(&mut msg);
    let whole = poly1305(&key, &msg);
    assert_eq!(whole, reference(&key, &msg));
    for a in 0..=msg.len() {
        for b in a..=msg.len() {
            let mut mac = Poly1305::new(&key);
            mac.update(&msg[..a]);
            mac.update(&msg[a..b]);
            mac.update(&msg[b..]);
            assert_eq!(mac.finalize(), whole, "splits {a}, {b}");
        }
    }
    // Byte at a time.
    let mut mac = Poly1305::new(&key);
    msg.iter().for_each(|b| mac.update(&[*b]));
    assert_eq!(mac.finalize(), whole);
}

#[test]
fn seal_open_across_block_boundaries_and_every_flipped_bit_refused() {
    let mut rng = DetRng::seed_from_u64(0xaead);
    let mut key = [0u8; 32];
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut key);
    rng.fill_bytes(&mut nonce);
    let aad = b"seq 7";
    for len in [
        0,
        1,
        15,
        16,
        17,
        63,
        64,
        65,
        255,
        256,
        257,
        511,
        512,
        513,
        65_536,
        1 << 20,
    ] {
        let mut plain = vec![0u8; len];
        rng.fill_bytes(&mut plain);
        let sealed = seal(&key, &nonce, aad, &plain);
        assert_eq!(sealed.len(), len + 16);
        assert_eq!(sealed.capacity(), len + 16, "one allocation, exact");
        assert_eq!(
            open(&key, &nonce, aad, &sealed).unwrap(),
            plain,
            "len {len}"
        );
        // The tag is Poly1305 over the RFC 8439 §2.8 layout.
        let mut mac_input = aad.to_vec();
        mac_input.resize(16, 0);
        mac_input.extend_from_slice(&sealed[..len]);
        mac_input.resize(16 + len.div_ceil(16) * 16, 0);
        mac_input.extend_from_slice(&(aad.len() as u64).to_le_bytes());
        mac_input.extend_from_slice(&(len as u64).to_le_bytes());
        let otk: [u8; 32] = block(&key, 0, &nonce)[..32].try_into().unwrap();
        assert_eq!(sealed[len..], poly1305(&otk, &mac_input), "len {len}");

        // A flipped bit at the front, in the middle and in the tag.
        for at in [0, sealed.len() / 2, sealed.len() - 1] {
            let mut bad = sealed.clone();
            bad[at] ^= 0x10;
            assert_eq!(
                open(&key, &nonce, aad, &bad),
                Err(CryptoError::VerificationFailed),
                "len {len}, byte {at}"
            );
        }
    }
}

#[test]
fn in_place_forms_are_the_copying_forms_at_every_length() {
    let mut rng = DetRng::seed_from_u64(0x1a9ace);
    let mut key = [0u8; 32];
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut key);
    rng.fill_bytes(&mut nonce);
    let aad = b"in place";
    for len in 0..=1100 {
        let mut plain = vec![0u8; len];
        rng.fill_bytes(&mut plain);
        let sealed = seal(&key, &nonce, aad, &plain);
        // Room for the tag up front: sealed where it lies, never moved.
        let mut buf = Vec::with_capacity(len + 16);
        buf.extend_from_slice(&plain);
        let at = buf.as_ptr();
        seal_in_place(&key, &nonce, aad, &mut buf);
        assert_eq!(buf, sealed, "len {len}");
        assert_eq!(buf.as_ptr(), at, "len {len}: regrown");
        open_in_place(&key, &nonce, aad, &mut buf).unwrap();
        assert_eq!(buf, plain, "len {len}");
        assert_eq!(buf, open(&key, &nonce, aad, &sealed).unwrap(), "len {len}");
        assert_eq!(buf.as_ptr(), at, "len {len}: opened into a new buffer");
    }
}

#[test]
fn rfc8439_aead_vector_in_place() {
    // RFC 8439 §2.8.2.
    let key: [u8; 32] = unhex("808182838485868788898a8b8c8d8e8f909192939495969798999a9b9c9d9e9f")
        .try_into()
        .unwrap();
    let nonce: [u8; 12] = unhex("070000004041424344454647").try_into().unwrap();
    let aad = unhex("50515253c0c1c2c3c4c5c6c7");
    let plain = b"Ladies and Gentlemen of the class of '99: If I could offer you only one \
tip for the future, sunscreen would be it.";
    let mut buf = plain.to_vec();
    seal_in_place(&key, &nonce, &aad, &mut buf);
    let mut want = unhex(
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
         3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
         92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
         3ff4def08e4b7a9de576d26586cec64b6116",
    );
    want.extend(unhex("1ae10b594f09e26a7e902ecbd0600691"));
    assert_eq!(buf, want);
    open_in_place(&key, &nonce, &aad, &mut buf).unwrap();
    assert_eq!(buf, plain);
}

#[test]
fn a_refused_open_in_place_leaves_no_plaintext() {
    let mut rng = DetRng::seed_from_u64(0x0bad);
    let mut key = [0u8; 32];
    let mut nonce = [0u8; 12];
    rng.fill_bytes(&mut key);
    rng.fill_bytes(&mut nonce);
    let aad = b"seq 9".to_vec();
    for len in [0, 1, 64, 300, 1100] {
        let mut plain = vec![0u8; len];
        rng.fill_bytes(&mut plain);
        let sealed = seal(&key, &nonce, &aad, &plain);
        // Every ciphertext and tag byte flipped, and every AAD byte.
        let tampered = (0..sealed.len()).map(|at| {
            let mut bad = sealed.clone();
            bad[at] ^= 0x01;
            (bad, aad.clone())
        });
        let wrong_aad = (0..aad.len()).map(|at| {
            let mut bad = aad.clone();
            bad[at] ^= 0x80;
            (sealed.clone(), bad)
        });
        for (bad, bad_aad) in tampered.chain(wrong_aad) {
            let mut buf = bad.clone();
            assert_eq!(
                open_in_place(&key, &nonce, &bad_aad, &mut buf),
                Err(CryptoError::VerificationFailed),
                "len {len}"
            );
            // Untouched: still the ciphertext and tag it was handed.
            assert_eq!(buf, bad, "len {len}");
        }
    }
    for short in 0..16 {
        let mut buf = vec![0x5a; short];
        assert!(matches!(
            open_in_place(&key, &nonce, &aad, &mut buf),
            Err(CryptoError::Malformed(_))
        ));
        assert_eq!(buf, vec![0x5a; short]);
    }
}
