//! Poll-style GSS context establishment for scheduler-scale storms.
//!
//! A driver of the [`crate::context`] types usually blocks per session.
//! At storm scale — 10⁵–10⁶ principals on one
//! [`gridsec_testbed::sched::Scheduler`] — every principal is a
//! `Step::WaitMail`-driven task instead, and the acceptor side sees
//! hellos *arrive across tasks* rather than as a pre-collected batch.
//! [`WaveAcceptor`] is the gateway side of that shape: hellos submitted
//! by many tasks accumulate until the gateway task reaches mail
//! quiescence, then one [`WaveAcceptor::flush_wave`] call drives the
//! whole accumulated wave through the [`HandshakeMill`]: in order, each
//! hello getting what a single session gets, with chain verdicts
//! memoized in the shared [`gridsec_tls::pool::CryptoPool`]. A principal
//! is an [`InitiatorContext`] already: built, it mails its hello; one
//! `step` on the answer yields the Finished token and its context.
//! [`PollInitiator`] is that context under another name, kept for the
//! frozen `benchmark/` crate.
//!
//! Every verdict is identical to the one-at-a-time [`AcceptorContext`]
//! loop — a wave *is* that loop; collecting one only moves the
//! acceptor's work to the scheduler's quiescence point, so wave sizes
//! are a pure function of the seed.

use std::collections::HashMap;

use gridsec_bignum::prime::EntropySource;
use gridsec_tls::handshake::TlsConfig;

use crate::context::{AcceptorContext, EstablishedContext, InitiatorContext};
use crate::mill::HandshakeMill;
use crate::GssError;

/// An [`InitiatorContext`] under the name the frozen `benchmark/` crate
/// calls it by.
pub struct PollInitiator {
    inner: InitiatorContext,
}

impl PollInitiator {
    /// [`InitiatorContext::new`].
    pub fn new<E: EntropySource>(config: TlsConfig, rng: &mut E) -> (Self, Vec<u8>) {
        let (inner, hello) = InitiatorContext::new(config, rng);
        (PollInitiator { inner }, hello)
    }

    /// [`InitiatorContext::step`].
    pub fn feed(self, token: &[u8]) -> Result<(Vec<u8>, EstablishedContext), GssError> {
        self.inner.step(token)
    }
}

/// Gateway-side wave collector over a [`HandshakeMill`].
///
/// Sessions are caller-assigned `u64` ids (the storm uses the
/// principal's interned endpoint name). Hellos accumulate via
/// [`submit_hello`](WaveAcceptor::submit_hello); the owning task calls
/// [`flush_wave`](WaveAcceptor::flush_wave) once its mailbox runs dry,
/// batching everything that arrived since the previous flush.
pub struct WaveAcceptor {
    mill: HandshakeMill,
    pending: Vec<(u64, Vec<u8>)>,
    awaiting: HashMap<u64, AcceptorContext>,
    established: u64,
    failed: u64,
    waves: u64,
}

impl WaveAcceptor {
    /// Build the collector around the acceptor credential config (the
    /// mill registers the config's DH group and signing contexts in the
    /// shared pool).
    pub fn new(config: TlsConfig) -> Self {
        WaveAcceptor {
            mill: HandshakeMill::new(config),
            pending: Vec::new(),
            awaiting: HashMap::new(),
            established: 0,
            failed: 0,
            waves: 0,
        }
    }

    /// The underlying mill (pool statistics, config with pool attached).
    pub fn mill(&self) -> &HandshakeMill {
        &self.mill
    }

    /// Queue a ClientHello from session `id` for the next wave.
    pub fn submit_hello(&mut self, id: u64, hello: Vec<u8>) {
        self.pending.push((id, hello));
    }

    /// Hellos queued and not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Sessions that received a ServerHello and now await Finished.
    pub fn awaiting(&self) -> usize {
        self.awaiting.len()
    }

    /// Drive every queued hello through the mill as one batch. Returns,
    /// in submission order, each session's ServerHello token (to send
    /// back) or the same error the per-session acceptor would report.
    /// Accepted sessions are parked until their Finished token arrives
    /// via [`submit_finished`](WaveAcceptor::submit_finished).
    pub fn flush_wave<E: EntropySource>(
        &mut self,
        rng: &mut E,
    ) -> Vec<(u64, Result<Vec<u8>, GssError>)> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let wave = std::mem::take(&mut self.pending);
        self.waves += 1;
        let hellos: Vec<&[u8]> = wave.iter().map(|(_, h)| h.as_slice()).collect();
        let results = self.mill.accept_wave(rng, &hellos);
        wave.iter()
            .zip(results)
            .map(|((id, _), r)| match r {
                Ok((acceptor, server_hello)) => {
                    self.awaiting.insert(*id, acceptor);
                    (*id, Ok(server_hello))
                }
                Err(e) => {
                    self.failed += 1;
                    (*id, Err(e))
                }
            })
            .collect()
    }

    /// Feed session `id`'s Finished token, completing establishment.
    /// Finishing draws no entropy; `_rng` stays for the frozen
    /// `benchmark/` crate.
    pub fn submit_finished<E: EntropySource>(
        &mut self,
        id: u64,
        _rng: &mut E,
        token: &[u8],
    ) -> Result<EstablishedContext, GssError> {
        let acceptor = self
            .awaiting
            .remove(&id)
            .ok_or(GssError::BadState("no session awaiting this token"))?;
        let established = acceptor.step(token);
        match established {
            Ok(_) => self.established += 1,
            Err(_) => self.failed += 1,
        }
        established
    }

    /// Fully established sessions.
    pub fn established(&self) -> u64 {
        self.established
    }

    /// Sessions that failed at either token (rejected hello or bad
    /// Finished).
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Waves flushed so far.
    pub fn waves(&self) -> u64 {
        self.waves
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn world(n: usize) -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gss poll tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let users = (0..n)
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
    fn cross_task_wave_establishes_working_contexts() {
        let mut w = world(5);
        let mut gw = WaveAcceptor::new(cfg(&w, &w.service));

        // Hellos trickle in "across tasks" — two flushes, arbitrary
        // session ids, interleaved with quiescence points.
        let mut inits = HashMap::new();
        for (i, user) in w.users.iter().enumerate() {
            let (init, hello) = InitiatorContext::new(cfg(&w, user), &mut w.rng);
            let id = 1000 + i as u64;
            inits.insert(id, init);
            gw.submit_hello(id, hello);
            if i == 2 {
                // First quiescence: a wave of 3.
                assert_eq!(gw.pending(), 3);
                for (id, r) in gw.flush_wave(&mut w.rng) {
                    let server_hello = r.unwrap();
                    let init = inits.remove(&id).unwrap();
                    let (finished, mut ictx) = init.step(&server_hello).unwrap();
                    let mut actx = gw.submit_finished(id, &mut w.rng, &finished).unwrap();
                    let sealed = ictx.wrap(b"req");
                    assert_eq!(actx.unwrap(&sealed).unwrap(), b"req");
                }
            }
        }
        // Second quiescence: the remaining 2.
        for (id, r) in gw.flush_wave(&mut w.rng) {
            let server_hello = r.unwrap();
            let init = inits.remove(&id).unwrap();
            let (finished, mut ictx) = init.step(&server_hello).unwrap();
            let mut actx = gw.submit_finished(id, &mut w.rng, &finished).unwrap();
            let sealed = actx.wrap(b"rep");
            assert_eq!(ictx.unwrap(&sealed).unwrap(), b"rep");
        }
        assert_eq!(gw.established(), 5);
        assert_eq!(gw.failed(), 0);
        assert_eq!(gw.waves(), 2);
        assert_eq!(gw.awaiting(), 0);
        // The pool amortized: one chain walk per distinct user cert.
        let pool = gw.mill().pool();
        assert_eq!(pool.lock().unwrap().validator().misses(), 5);
    }

    #[test]
    fn rejections_and_unknown_sessions_error_like_the_plain_loop() {
        let mut w = world(1);
        let rogue =
            CertificateAuthority::create_root(&mut w.rng, dn("/O=Evil/CN=CA"), 512, 0, 1_000_000);
        let mallory = rogue.issue_identity(&mut w.rng, dn("/O=Evil/CN=M"), 512, 0, 100_000);

        let mut gw = WaveAcceptor::new(cfg(&w, &w.service));
        let (_good_init, good) = InitiatorContext::new(cfg(&w, &w.users[0]), &mut w.rng);
        let (_bad_init, bad) = InitiatorContext::new(cfg(&w, &mallory), &mut w.rng);
        gw.submit_hello(1, good);
        gw.submit_hello(2, bad);
        gw.submit_hello(3, b"garbage".to_vec());
        let wave = gw.flush_wave(&mut w.rng);
        assert!(wave[0].1.is_ok());
        assert!(matches!(
            wave[1].1,
            Err(GssError::Tls(gridsec_tls::TlsError::Pki(
                gridsec_pki::PkiError::UntrustedRoot
            )))
        ));
        assert!(matches!(
            wave[2].1,
            Err(GssError::Tls(gridsec_tls::TlsError::Protocol(_)))
        ));
        assert_eq!(gw.failed(), 2);

        // Finished for a session that never got a ServerHello.
        assert!(matches!(
            gw.submit_finished(99, &mut w.rng, b"x"),
            Err(GssError::BadState(_))
        ));
        // A bad Finished for a parked session fails and unparks it.
        assert!(gw.submit_finished(1, &mut w.rng, b"junk").is_err());
        assert_eq!(gw.awaiting(), 0);
        assert_eq!(gw.established(), 0);
    }

    #[test]
    fn empty_flush_is_a_no_op() {
        let mut w = world(0);
        let mut gw = WaveAcceptor::new(cfg(&w, &w.service));
        assert!(gw.flush_wave(&mut w.rng).is_empty());
        assert_eq!(gw.waves(), 0);
    }
}
