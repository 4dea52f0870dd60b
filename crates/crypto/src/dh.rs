//! Finite-field Diffie–Hellman key agreement.
//!
//! The `gridsec-tls` handshake is DHE-RSA-shaped: ephemeral DH shares are
//! signed with the parties' certificate keys, and the shared secret feeds
//! HKDF to derive record keys — the structure GT2's TLS channel relies on.

use std::sync::{Arc, OnceLock};

use gridsec_bignum::modular::mod_pow;
use gridsec_bignum::montgomery::Montgomery;
use gridsec_bignum::precomp::FixedBaseTable;
use gridsec_bignum::prime::{random_below, EntropySource};
use gridsec_bignum::BigUint;

/// A Diffie–Hellman group (safe prime `p`, generator `g`).
///
/// The group owns the precomputation that is a function of `(p, g)`: a
/// Montgomery context for `p`, built with the group, and a fixed-base
/// table for `g`, built on the first [`DhKeyPair::generate`]. Clones
/// share both.
#[derive(Clone)]
pub struct DhGroup {
    /// The group modulus (a safe prime).
    pub p: BigUint,
    /// The generator.
    pub g: BigUint,
    precomp: Arc<GroupPrecomp>,
}

/// What a [`DhGroup`] precomputes. Each piece records the operands it
/// was built for and is used only while they still equal the group's
/// (public) fields, so a mutated group is slow, never wrong.
struct GroupPrecomp {
    /// Context for `p`; `None` when `p` admits none.
    mont: Option<Montgomery>,
    /// Fixed-base table for `g^x mod p`; inner `None` when `(g, p)`
    /// admits none.
    table: OnceLock<Option<FixedBaseTable>>,
}

impl DhGroup {
    /// A group with modulus `p` and generator `g`. Any values are
    /// accepted; ones the Montgomery kernel refuses (even `p`, `g ≡ 0`)
    /// simply exponentiate through the generic path.
    pub fn new(p: BigUint, g: BigUint) -> Self {
        let precomp = Arc::new(GroupPrecomp {
            mont: Montgomery::new(&p),
            table: OnceLock::new(),
        });
        DhGroup { p, g, precomp }
    }

    /// RFC 3526 MODP group 14 (2048-bit). Interop-grade parameters.
    pub fn modp2048() -> Self {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        Self::constant(
            &GROUP,
            "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74\
             020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437\
             4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED\
             EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05\
             98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB\
             9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B\
             E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718\
             3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
        )
    }

    /// A small 256-bit test group (fast; **test use only**).
    ///
    /// `p` is a fixed safe prime generated once with
    /// `gridsec_bignum::prime::generate_safe_prime` and recorded here as a
    /// constant; the unit tests re-verify both `p` and `(p-1)/2`.
    pub fn test_group_256() -> Self {
        static GROUP: OnceLock<DhGroup> = OnceLock::new();
        Self::constant(
            &GROUP,
            "a5e579f41b72505da9fce2ccb8c774b1690261ea0a07ccb37921a10d9644c0bf",
        )
    }

    /// A clone of the process-wide group with modulus `p_hex` and
    /// generator 2, built on first use — so that the `TlsConfig::new`
    /// every principal calls shares one table instead of building its
    /// own.
    fn constant(cell: &'static OnceLock<DhGroup>, p_hex: &str) -> DhGroup {
        cell.get_or_init(|| {
            let p = BigUint::from_hex(p_hex).expect("constant");
            DhGroup::new(p, BigUint::from(2u64))
        })
        .clone()
    }

    /// Byte length of the group modulus.
    pub fn modulus_len(&self) -> usize {
        self.p.bit_len().div_ceil(8)
    }

    /// Build the generator's fixed-base table now instead of on the
    /// first [`DhKeyPair::generate`], so the cost lands in set-up.
    pub fn precompute(&self) {
        self.table();
    }

    /// The fixed-base table for the current `(g, p)`, if it has one.
    fn table(&self) -> Option<&FixedBaseTable> {
        self.precomp
            .table
            .get_or_init(|| FixedBaseTable::build(&self.g, &self.p, self.p.bit_len()))
            .as_ref()
            .filter(|t| *t.base() == self.g && *t.modulus() == self.p)
    }

    /// `g^exp mod p`: squaring-free through the table when it covers
    /// `exp`.
    fn pow_g(&self, exp: &BigUint) -> BigUint {
        match self.table().and_then(|t| t.pow(exp)) {
            Some(v) => v,
            None => self.pow(&self.g, exp),
        }
    }

    /// `base^exp mod p` through the group's own context.
    fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        match &self.precomp.mont {
            Some(m) if *m.modulus() == self.p => m.pow(base, exp),
            _ => mod_pow(base, exp, &self.p),
        }
    }
}

/// An ephemeral DH key pair within a group.
pub struct DhKeyPair {
    group: DhGroup,
    private: BigUint,
    /// The public share `g^x mod p`.
    pub public: BigUint,
}

impl DhKeyPair {
    /// Generate an ephemeral key pair: `x ∈ [2, p-2]`, `y = g^x mod p`.
    pub fn generate<E: EntropySource>(rng: &mut E, group: &DhGroup) -> Self {
        let two = BigUint::from(2u64);
        let range = group.p.sub_ref(&BigUint::from(3u64));
        let private = random_below(rng, &range).add_ref(&two);
        let public = group.pow_g(&private);
        DhKeyPair {
            group: group.clone(),
            private,
            public,
        }
    }

    /// Compute the shared secret with a peer's public share, serialized as
    /// fixed-width big-endian bytes (input to HKDF).
    ///
    /// Returns `None` for degenerate peer shares (0, 1, p-1, ≥ p) — the
    /// classic small-subgroup / identity-element checks.
    pub fn agree(&self, peer_public: &BigUint) -> Option<Vec<u8>> {
        let one = BigUint::one();
        let p_minus_1 = self.group.p.sub_ref(&one);
        if peer_public.is_zero()
            || peer_public.is_one()
            || *peer_public >= self.group.p
            || *peer_public == p_minus_1
        {
            return None;
        }
        let secret = self.group.pow(peer_public, &self.private);
        Some(secret.to_bytes_be_padded(self.group.modulus_len()))
    }

    /// The group this key pair belongs to.
    pub fn group(&self) -> &DhGroup {
        &self.group
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::ChaChaRng;
    use gridsec_bignum::prime::{is_probably_prime, Primality};

    #[test]
    fn test_group_is_safe_prime() {
        let mut rng = ChaChaRng::from_seed_bytes(b"dh check");
        let g = DhGroup::test_group_256();
        assert_eq!(
            is_probably_prime(&g.p, 20, &mut rng),
            Primality::ProbablyPrime,
            "p must be prime"
        );
        let q = (&g.p - &BigUint::one()) >> 1;
        assert_eq!(
            is_probably_prime(&q, 20, &mut rng),
            Primality::ProbablyPrime,
            "(p-1)/2 must be prime"
        );
    }

    #[test]
    fn agreement_matches() {
        let mut rng = ChaChaRng::from_seed_bytes(b"dh agree");
        let group = DhGroup::test_group_256();
        let alice = DhKeyPair::generate(&mut rng, &group);
        let bob = DhKeyPair::generate(&mut rng, &group);
        let s1 = alice.agree(&bob.public).unwrap();
        let s2 = bob.agree(&alice.public).unwrap();
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), group.modulus_len());
    }

    #[test]
    fn different_sessions_different_secrets() {
        let mut rng = ChaChaRng::from_seed_bytes(b"dh fresh");
        let group = DhGroup::test_group_256();
        let alice = DhKeyPair::generate(&mut rng, &group);
        let bob1 = DhKeyPair::generate(&mut rng, &group);
        let bob2 = DhKeyPair::generate(&mut rng, &group);
        assert_ne!(alice.agree(&bob1.public), alice.agree(&bob2.public));
    }

    #[test]
    fn degenerate_shares_rejected() {
        let mut rng = ChaChaRng::from_seed_bytes(b"dh degen");
        let group = DhGroup::test_group_256();
        let kp = DhKeyPair::generate(&mut rng, &group);
        assert!(kp.agree(&BigUint::zero()).is_none());
        assert!(kp.agree(&BigUint::one()).is_none());
        assert!(kp.agree(&(&group.p - &BigUint::one())).is_none());
        assert!(kp.agree(&group.p).is_none());
        assert!(kp.agree(&(&group.p + &BigUint::one())).is_none());
    }

    #[test]
    fn clone_agrees_identically_and_shares_precomp() {
        let constant = DhGroup::test_group_256();
        assert!(Arc::ptr_eq(
            &constant.precomp,
            &DhGroup::test_group_256().precomp
        ));
        // A fresh group, so that this test sees its table being built.
        let group = DhGroup::new(constant.p, constant.g);
        let clone = group.clone();
        assert!(Arc::ptr_eq(&group.precomp, &clone.precomp));
        assert!(group.precomp.table.get().is_none(), "built on first use");
        let pair = |g: &DhGroup| {
            let mut rng = ChaChaRng::from_seed_bytes(b"dh clone");
            (
                DhKeyPair::generate(&mut rng, g),
                DhKeyPair::generate(&mut rng, g),
            )
        };
        let (a, b) = pair(&clone);
        assert!(group.precomp.table.get().is_some(), "the clone's is ours");
        let (a2, b2) = pair(&group);
        assert_eq!((&a.public, &b.public), (&a2.public, &b2.public));
        assert_eq!(a.agree(&b.public), a2.agree(&b2.public));
        assert_eq!(a.agree(&b.public), b.agree(&a.public));
    }

    #[test]
    fn modp2048_parses() {
        let g = DhGroup::modp2048();
        assert_eq!(g.p.bit_len(), 2048);
        assert_eq!(g.modulus_len(), 256);
    }
}
