//! Multi-session context establishment with shared crypto state.
//!
//! A grid service at login time sees a *wave* of `init_sec_context`
//! tokens: hundreds of users, each with a chain hanging off the same
//! handful of CAs, all arriving at once. [`HandshakeMill`] is the
//! acceptor-side driver for that shape. It owns a
//! [`CryptoPool`] — a chain-validation verdict cache, and verify
//! contexts for returning peers' binding signatures — and accepts a
//! wave of hellos in order: a loop of [`AcceptorContext::answer_hello`]
//! on the pooled config. The DH table and the service credential's
//! signing contexts belong to the config's group and key, not to the
//! mill.
//!
//! Every verdict is identical to what a fresh [`AcceptorContext`] would
//! have produced for the same token; the mill only changes *how fast*
//! the same answers arrive — a chain seen before costs a digest, not a
//! walk.

use std::sync::{Arc, Mutex};

use gridsec_bignum::prime::EntropySource;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::pool::CryptoPool;

use crate::context::AcceptorContext;
use crate::GssError;

/// Acceptor-side batch driver over a shared [`CryptoPool`].
pub struct HandshakeMill {
    config: TlsConfig,
    pool: Arc<Mutex<CryptoPool>>,
    accepted: u64,
    rejected: u64,
}

impl HandshakeMill {
    /// Build a mill around `config`: creates a [`CryptoPool`] and
    /// attaches it to the config. If the config already carries a
    /// pool, that pool is reused.
    pub fn new(config: TlsConfig) -> Self {
        let pool = config
            .pool
            .clone()
            .unwrap_or_else(|| Arc::new(Mutex::new(CryptoPool::new())));
        let config = config.with_pool(Arc::clone(&pool));
        HandshakeMill {
            config,
            pool,
            accepted: 0,
            rejected: 0,
        }
    }

    /// The shared pool (for stats, or to attach to initiator configs).
    /// Its `Arc<Mutex<_>>` type is frozen for the `benchmark/` crate; it
    /// turns single-owner with ROADMAP item 1(a).
    pub fn pool(&self) -> Arc<Mutex<CryptoPool>> {
        Arc::clone(&self.pool)
    }

    /// The acceptor config with the pool attached (e.g. to hand to a
    /// plain [`AcceptorContext`] for a straggler arriving outside a
    /// wave).
    pub fn config(&self) -> &TlsConfig {
        &self.config
    }

    /// Accept a wave of initial tokens (ClientHellos). Returns, per
    /// token and in order, the acceptor awaiting that session's final
    /// token plus the ServerHello token to send back — or the same error
    /// the one-at-a-time acceptor would have reported.
    pub fn accept_wave<E: EntropySource>(
        &mut self,
        rng: &mut E,
        hellos: &[&[u8]],
    ) -> Vec<Result<(AcceptorContext, Vec<u8>), GssError>> {
        hellos
            .iter()
            .map(|hello| {
                let answered = AcceptorContext::answer_hello(hello, self.config.clone(), rng);
                match answered {
                    Ok(_) => self.accepted += 1,
                    Err(_) => self.rejected += 1,
                }
                answered
            })
            .collect()
    }

    /// Hellos that produced a ServerHello so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Hellos rejected so far (parse, validation, or binding failures).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{establish_in_memory, InitiatorContext};
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        trust: TrustStore,
        users: Vec<Credential>,
        service: Credential,
    }

    fn world(n_users: usize) -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"mill tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let users = (0..n_users)
            .map(|i| ca.issue_identity(&mut rng, dn(&format!("/O=G/CN=U{i}")), 512, 0, 100_000))
            .collect();
        let service = ca.issue_identity(&mut rng, dn("/O=G/CN=MJS"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            trust,
            users,
            service,
        }
    }

    fn cfg(w: &World, cred: &Credential) -> TlsConfig {
        TlsConfig::new(cred.clone(), w.trust.clone(), 100)
    }

    #[test]
    fn wave_establishes_working_contexts() {
        let mut w = world(6);
        let mut mill = HandshakeMill::new(cfg(&w, &w.service));

        // A wave of initiators.
        let mut inits = Vec::new();
        let mut hellos = Vec::new();
        for user in &w.users {
            let (init, hello) = InitiatorContext::new(cfg(&w, user), &mut w.rng);
            inits.push(init);
            hellos.push(hello);
        }
        let hello_refs: Vec<&[u8]> = hellos.iter().map(|h| h.as_slice()).collect();
        let wave = mill.accept_wave(&mut w.rng, &hello_refs);
        assert_eq!(mill.accepted(), 6);
        assert_eq!(mill.rejected(), 0);

        // Finish every session and exchange a message both ways.
        for (i, (init, accepted)) in inits.into_iter().zip(wave).enumerate() {
            let (acceptor, server_hello) = accepted.unwrap();
            let (finished, mut ictx) = init.step(&server_hello).unwrap();
            let mut actx = acceptor.step(&finished).unwrap();
            assert_eq!(actx.peer().base_identity, dn(&format!("/O=G/CN=U{i}")));
            assert_eq!(ictx.peer().base_identity, dn("/O=G/CN=MJS"));
            let t = ictx.wrap(format!("request {i}").as_bytes());
            assert_eq!(actx.unwrap(&t).unwrap(), format!("request {i}").as_bytes());
            let r = actx.wrap(b"ok");
            assert_eq!(ictx.unwrap(&r).unwrap(), b"ok");
        }

        // The pool did the chain walks once each.
        let pool = mill.pool();
        let pool = pool.lock().unwrap();
        assert_eq!(pool.validator().misses(), 6);
    }

    #[test]
    fn wave_rejections_match_individual_acceptor() {
        let mut w = world(3);
        let rogue_ca =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1_000_000);
        let mallory = rogue_ca.issue_identity(&mut w.rng, dn("/O=Evil/CN=M"), 512, 0, 100_000);

        let (_i0, good) = InitiatorContext::new(cfg(&w, &w.users[0]), &mut w.rng);
        let (_i1, bad) = InitiatorContext::new(cfg(&w, &mallory), &mut w.rng);
        let garbage = b"not a token".to_vec();

        let mut mill = HandshakeMill::new(cfg(&w, &w.service));
        let wave = mill.accept_wave(
            &mut w.rng,
            &[good.as_slice(), bad.as_slice(), garbage.as_slice()],
        );
        assert!(wave[0].is_ok());
        assert!(matches!(
            wave[1],
            Err(GssError::Tls(gridsec_tls::TlsError::Pki(
                gridsec_pki::PkiError::UntrustedRoot
            )))
        ));
        assert!(matches!(
            wave[2],
            Err(GssError::Tls(gridsec_tls::TlsError::Protocol(_)))
        ));
        assert_eq!((mill.accepted(), mill.rejected()), (1, 2));

        // The individual acceptor agrees on each verdict.
        for (i, hello) in [good.as_slice(), bad.as_slice(), garbage.as_slice()]
            .into_iter()
            .enumerate()
        {
            let individual = AcceptorContext::answer_hello(hello, cfg(&w, &w.service), &mut w.rng);
            assert_eq!(individual.is_ok(), wave[i].is_ok(), "token {i}");
        }
    }

    #[test]
    fn a_memoized_chain_with_one_flipped_byte_misses_and_is_walked() {
        use gridsec_pki::encoding::Codec;
        let mut w = world(1);
        let mut mill = HandshakeMill::new(cfg(&w, &w.service));
        let pool = mill.pool();
        let stats = || {
            let p = pool.lock().unwrap();
            (p.validator().hits(), p.validator().misses())
        };
        let user = w.users[0].clone();
        let (_warm, hello) = InitiatorContext::new(cfg(&w, &user), &mut w.rng);
        assert!(mill.accept_wave(&mut w.rng, &[hello.as_slice()])[0].is_ok());
        assert_eq!(stats(), (0, 1), "the user's chain is memoized");

        // The same user three times in one wave; the middle hello's
        // chain span has the last byte of the leaf's signature flipped.
        let mut hellos: Vec<Vec<u8>> = (0..3)
            .map(|_| InitiatorContext::new(cfg(&w, &user), &mut w.rng).1)
            .collect();
        let span = user.encoded_chain();
        let at = hellos[1]
            .windows(span.len())
            .position(|win| win == span)
            .expect("a hello carries its credential's chain encoding");
        let leaf_end = at + 4 + user.certificate().to_bytes().len();
        hellos[1][leaf_end - 1] ^= 0x01;
        let refs: Vec<&[u8]> = hellos.iter().map(Vec::as_slice).collect();
        let wave = mill.accept_wave(&mut w.rng, &refs);
        assert!(wave[0].is_ok() && wave[2].is_ok());
        assert!(
            matches!(
                wave[1],
                Err(GssError::Tls(gridsec_tls::TlsError::Pki(
                    gridsec_pki::PkiError::BadSignature
                )))
            ),
            "the flipped chain is walked and refused"
        );
        assert_eq!(stats(), (2, 2), "two hits; the flipped chain missed");
        assert_eq!((mill.accepted(), mill.rejected()), (3, 1));
    }

    /// One wave — every user plus a garbage hello — through `mill`,
    /// each accepted session finished and used: the bytes of every
    /// token and sealed message (or the refusal), then what the shared
    /// rng yields next.
    fn wave_outcome(w: &mut World, mill: &mut HandshakeMill) -> (Vec<String>, u64) {
        use gridsec_util::rng::RngCore;
        let users = w.users.clone();
        let mut inits = Vec::new();
        let mut hellos = Vec::new();
        for user in &users {
            let cfg = cfg(w, user).with_pool(mill.pool());
            let (init, hello) = InitiatorContext::new(cfg, &mut w.rng);
            inits.push(Some(init));
            hellos.push(hello);
        }
        inits.push(None);
        hellos.push(b"not a token".to_vec());
        let hello_refs: Vec<&[u8]> = hellos.iter().map(|h| h.as_slice()).collect();
        let wave = mill.accept_wave(&mut w.rng, &hello_refs);
        let mut out = Vec::new();
        for (init, accepted) in inits.into_iter().zip(wave) {
            let (acceptor, server_hello) = match accepted {
                Ok(ok) => ok,
                Err(e) => {
                    out.push(format!("refused: {e}"));
                    continue;
                }
            };
            let init = init.expect("only real initiators are accepted");
            let (finished, mut ictx) = init.step(&server_hello).unwrap();
            let mut actx = acceptor.step(&finished).unwrap();
            let sealed = ictx.wrap(b"request");
            assert_eq!(actx.unwrap(&sealed).unwrap(), b"request");
            let reply = actx.wrap(b"ok");
            assert_eq!(ictx.unwrap(&reply).unwrap(), b"ok");
            out.push(format!(
                "{server_hello:?} {finished:?} {sealed:?} {reply:?}"
            ));
        }
        (out, w.rng.next_u64())
    }

    #[test]
    fn dropping_an_older_pool_leaves_a_younger_one_untouched() {
        // Reference: one world, two waves, no other pool ever built.
        let mut alone = world(3);
        let mut mill = HandshakeMill::new(cfg(&alone, &alone.service));
        let want = [
            wave_outcome(&mut alone, &mut mill),
            wave_outcome(&mut alone, &mut mill),
        ];
        assert!(want[0].0.iter().any(|o| o.starts_with("refused")));
        assert_eq!(mill.accepted(), 6);

        // Two pooled worlds over the same keys and group, alive at
        // once; each runs a wave, one pool is dropped — the older, then
        // in a second pass the younger — and the survivor runs another.
        for drop_older in [true, false] {
            let mut older = world(3);
            let mut older_mill = HandshakeMill::new(cfg(&older, &older.service));
            let mut younger = world(3);
            let mut younger_mill = HandshakeMill::new(cfg(&younger, &younger.service));
            assert_eq!(wave_outcome(&mut older, &mut older_mill), want[0]);
            assert_eq!(wave_outcome(&mut younger, &mut younger_mill), want[0]);
            let (mut kept, mut kept_mill) = if drop_older {
                drop(older_mill);
                (younger, younger_mill)
            } else {
                drop(younger_mill);
                (older, older_mill)
            };
            assert_eq!(wave_outcome(&mut kept, &mut kept_mill), want[1]);
        }
    }

    #[test]
    fn pooled_and_plain_establishment_agree() {
        let mut w = world(1);
        // Same world, two paths: a mill-driven wave of one, and the
        // plain in-memory loop. Both must authenticate the same pair.
        let mut mill = HandshakeMill::new(cfg(&w, &w.service));
        let (init, hello) = InitiatorContext::new(cfg(&w, &w.users[0]), &mut w.rng);
        let wave = mill.accept_wave(&mut w.rng, &[hello.as_slice()]);
        let (acceptor, server_hello) = wave.into_iter().next().unwrap().unwrap();
        let (finished, ictx) = init.step(&server_hello).unwrap();
        let actx = acceptor.step(&finished).unwrap();

        let (pictx, pactx) =
            establish_in_memory(cfg(&w, &w.users[0]), cfg(&w, &w.service), &mut w.rng).unwrap();
        assert_eq!(ictx.peer().base_identity, pictx.peer().base_identity);
        assert_eq!(actx.peer().base_identity, pactx.peer().base_identity);
    }
}
