//! The Poly1305 kernel and the single-allocation `seal`, held to what they
//! replaced: the RFC 8439 vectors (§2.5.2 and the reduction/carry edge
//! cases of Appendix A.3), the definition of the MAC computed with
//! `gridsec_bignum`, and `seal`/`open` across the block boundaries.

use gridsec_bignum::BigUint;
use gridsec_crypto::aead::{open, seal};
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
    for len in 0..=80 {
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
    // All-ones r (clamped) and s against all-ones blocks.
    let key = [0xff; 32];
    for len in [16, 32, 48, 64, 79, 80, 4096] {
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
    let mut msg = [0u8; 80];
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
    for len in [0, 1, 15, 16, 17, 63, 64, 65, 255, 256, 257, 65_536, 1 << 20] {
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
        let otk: [u8; 32] = gridsec_crypto::chacha20::block(&key, 0, &nonce)[..32]
            .try_into()
            .unwrap();
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
