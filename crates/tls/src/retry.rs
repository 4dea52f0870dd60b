//! Handshake-with-retry driver for the GT2 stream channel.
//!
//! The stream substrate (`gridsec_testbed::net::SimStream`, a
//! connection over the world's network) models TCP over a flaky WAN: a
//! lost segment tears the connection and every subsequent read/write
//! fails with `ConnectionReset`, which the record layer surfaces as
//! [`TlsError::Io`]. A TLS handshake cannot
//! resume across a torn transport — the only correct recovery is to
//! dial a fresh connection and restart the handshake from ClientHello.
//! [`connect_with_retry`] encodes exactly that: dial, handshake, and on
//! a *transport* error (never a security error) back off and redial per
//! the [`RetryPolicy`].
//!
//! This crate stays transport-agnostic: `dial` is any closure producing
//! a fresh `Read + Write` connection. Each redial's scheduled wait is
//! recorded as a `tls.redial` trace event; nothing sleeps here.

use crate::handshake::TlsConfig;
use crate::stream::{client_connect, SecureStream};
use crate::TlsError;
use gridsec_bignum::prime::EntropySource;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace;
use std::io::{Read, Write};

/// Outcome statistics for a retried connect.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnectStats {
    /// Handshake attempts made (≥ 1).
    pub attempts: u32,
    /// Attempts that failed on a transport (`Io`) error.
    pub transport_failures: u32,
}

/// `true` for errors worth retrying: transport failures. Security
/// failures (bad signature, bad finished, PKI rejection, protocol
/// violation) are deterministic verdicts about the peer — retrying
/// them would just repeat the refusal, so they abort immediately.
pub fn is_transient(e: &TlsError) -> bool {
    matches!(e, TlsError::Io(_))
}

/// Establish a client-side [`SecureStream`], redialing and restarting
/// the handshake on transport errors until `policy` is exhausted.
///
/// `dial` produces a fresh connection per attempt (attempt index
/// passed so seeded testbed dials can vary deterministically).
/// Returns the stream plus attempt statistics, or the last error once
/// the policy is exhausted / a non-transient error occurs.
pub fn connect_with_retry<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    mut dial: D,
) -> Result<(SecureStream<S>, ConnectStats), TlsError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(u32) -> Result<S, TlsError>,
{
    let mut sp = trace::span("tls.connect");
    let mut stats = ConnectStats::default();
    let mut last = TlsError::Io("no attempts made".into());
    for (attempt, wait) in policy.schedule() {
        if attempt > 0 {
            trace::add("tls.redials", 1);
            trace::event("tls.redial", &format!("attempt={attempt} wait={wait}"));
        }
        stats.attempts += 1;
        let result = dial(attempt).and_then(|stream| client_connect(stream, config.clone(), rng));
        match result {
            Ok(stream) => {
                trace::event("tls.handshake.ok", &format!("attempts={}", stats.attempts));
                trace::add("tls.handshakes", 1);
                return Ok((stream, stats));
            }
            Err(e) if is_transient(&e) => {
                stats.transport_failures += 1;
                trace::event("tls.transport.torn", &format!("attempt={attempt}"));
                last = e;
            }
            Err(e) => {
                // Security verdicts abort without retry; record why.
                sp.fail(&e.to_string());
                trace::event("tls.security.abort", &e.to_string());
                return Err(e);
            }
        }
    }
    sp.fail("retry budget exhausted");
    trace::flight_dump("tls redial budget exhausted");
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{Accepted, RecordSession, ServerAcceptor};
    use crate::stream::write_frame;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::net::{FaultProfile, Network, SimStream};
    use gridsec_testbed::sched::{Scheduler, Step, TaskCx};
    use gridsec_util::trace::Tracer;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        client_cfg: TlsConfig,
        server_cfg: TlsConfig,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"tls retry tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let server = ca.issue_identity(&mut rng, dn("/O=G/CN=Gatekeeper"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        World {
            rng,
            client_cfg: TlsConfig::new(alice, trust.clone(), 100),
            server_cfg: TlsConfig::new(server, trust, 100),
        }
    }

    /// Spawn an uppercase-echo TLS server as a scheduler task over
    /// `stream`: sans-io accept, one request/reply, then done. Any
    /// tear or protocol error just ends this connection's task; the
    /// client redials with a fresh connection and a fresh task.
    fn spawn_upper_server(sched: &mut Scheduler, mut stream: SimStream, config: TlsConfig) {
        let mut rng = ChaChaRng::from_seed_bytes(b"server side");
        let mut acceptor = Some(ServerAcceptor::new(config));
        let mut session: Option<RecordSession> = None;
        sched.spawn_mailbox_id(stream.endpoint().id(), move |_cx: &TaskCx| {
            let mut tmp = [0u8; 4096];
            loop {
                match stream.try_read(&mut tmp) {
                    Ok(Some(0)) | Err(_) => return Step::Done,
                    Ok(Some(n)) => match (&mut session, &mut acceptor) {
                        (Some(s), _) => s.feed(&tmp[..n]),
                        (None, Some(a)) => a.feed(&tmp[..n]),
                        (None, None) => unreachable!("acceptor lives until establishment"),
                    },
                    Ok(None) => break,
                }
            }
            if session.is_none() {
                loop {
                    match acceptor.as_mut().unwrap().advance(&mut rng) {
                        Err(_) => return Step::Done,
                        Ok(Accepted::Pending) => break,
                        Ok(Accepted::Respond(token)) => {
                            if write_frame(&mut stream, &token).is_err() {
                                return Step::Done;
                            }
                        }
                        Ok(Accepted::Established(s)) => {
                            session = Some(*s);
                            acceptor = None;
                            break;
                        }
                    }
                }
            }
            if let Some(s) = session.as_mut() {
                match s.next_message() {
                    Err(_) => return Step::Done,
                    Ok(Some(msg)) => {
                        let sealed = s.send(&msg.to_ascii_uppercase());
                        let _ = write_frame(&mut stream, &sealed);
                        return Step::Done;
                    }
                    Ok(None) => {}
                }
            }
            Step::WaitMail { deadline: None }
        });
    }

    /// Dial a fresh connection per attempt and run its server side as a
    /// scheduler task, in one world whose only fault is `drop_rate`
    /// (seeded by `seed`), so the whole retry sequence is
    /// deterministic. The dialer owns the world: the client's blocking
    /// reads run the server tasks through the scheduler bound to it.
    fn lossy_dialer(
        server_cfg: TlsConfig,
        seed: u64,
        drop_rate: f64,
    ) -> impl FnMut(u32) -> Result<SimStream, TlsError> {
        let net = Network::new();
        let profile = FaultProfile {
            drop: drop_rate,
            ..FaultProfile::default()
        };
        net.enable_faults(SimClock::new(), seed, profile);
        let mut sched = Scheduler::new(&net);
        move |attempt| {
            let (client, server) = net.connect(
                &format!("alice:{attempt}"),
                &format!("gatekeeper:{attempt}"),
            );
            spawn_upper_server(&mut sched, server, server_cfg.clone());
            Ok(client)
        }
    }

    #[test]
    fn clean_transport_connects_first_try() {
        let mut w = world();
        let mut dialer = lossy_dialer(w.server_cfg.clone(), 1, 0.0);
        let (mut stream, stats) = connect_with_retry(
            &w.client_cfg,
            &mut w.rng,
            RetryPolicy::default(),
            &mut dialer,
        )
        .unwrap();
        assert_eq!(stats.attempts, 1);
        stream.send(b"gt2 job").unwrap();
        assert_eq!(stream.recv().unwrap(), b"GT2 JOB");
    }

    #[test]
    fn retries_through_torn_connections_deterministically() {
        let run = || {
            let mut w = world();
            let mut dialer = lossy_dialer(w.server_cfg.clone(), 0xD1A1, 0.05);
            let policy = RetryPolicy {
                max_attempts: 10,
                base_timeout: 1,
                multiplier: 2,
                max_timeout: 8,
            };
            let tracer = Tracer::new();
            let _installed = trace::install(&tracer);
            let (mut stream, stats) =
                connect_with_retry(&w.client_cfg, &mut w.rng, policy, &mut dialer).unwrap();
            // The stream stays lossy after the handshake, so the app
            // exchange may still tear; only a non-transport error is a
            // test failure here (the retry driver's contract covers
            // establishment, not the application conversation).
            match stream.send(b"payload").and_then(|()| stream.recv()) {
                Ok(msg) => assert_eq!(msg, b"PAYLOAD"),
                Err(e) => assert!(is_transient(&e), "{e:?}"),
            }
            // Each redial's backoff is on record as a `tls.redial` event.
            let waits: Vec<u64> = tracer
                .dump()
                .lines()
                .filter(|l| l.contains("tls.redial"))
                .map(|l| l.rsplit("wait=").next().unwrap().trim().parse().unwrap())
                .collect();
            (stats, waits)
        };
        let (s1, w1) = run();
        let (s2, w2) = run();
        assert_eq!(s1, s2, "same seeds, same attempt count");
        assert_eq!(w1, w2);
        // Backoff accounting matches the failure count.
        assert_eq!(s1.attempts, s1.transport_failures + 1);
        assert_eq!(w1.len() as u32, s1.transport_failures);
    }

    #[test]
    fn exhausted_policy_returns_last_io_error() {
        let mut w = world();
        // drop rate 1.0: the very first client segment is lost, every attempt.
        let mut dialer = lossy_dialer(w.server_cfg.clone(), 3, 1.0);
        let policy = RetryPolicy {
            max_attempts: 3,
            base_timeout: 1,
            multiplier: 2,
            max_timeout: 4,
        };
        let err = connect_with_retry(&w.client_cfg, &mut w.rng, policy, &mut dialer)
            .map(|_| ())
            .unwrap_err();
        assert!(is_transient(&err), "{err:?}");
    }

    #[test]
    fn security_errors_do_not_retry() {
        let mut w = world();
        // A server whose credential chains to a CA the client does not
        // trust: every attempt would fail identically, so the driver
        // must abort on attempt 1. The rogue server itself trusts both
        // roots, so it accepts Alice and the client gets far enough to
        // judge the rogue certificate (rather than seeing a hangup).
        let mut rng = ChaChaRng::from_seed_bytes(b"rogue");
        let rogue_ca =
            CertificateAuthority::create_root(&mut rng, dn("/O=Rogue/CN=CA"), 512, 0, 1_000_000);
        let rogue = rogue_ca.issue_identity(&mut rng, dn("/O=Rogue/CN=Srv"), 512, 0, 100_000);
        let mut rogue_trust = w.client_cfg.trust.clone();
        rogue_trust.add_root(rogue_ca.certificate().clone());
        let rogue_cfg = TlsConfig::new(rogue, rogue_trust, 100);
        let attempts = Rc::new(RefCell::new(0u32));
        let mut dialer = {
            let mut dial = lossy_dialer(rogue_cfg, 7, 0.0);
            let attempts = attempts.clone();
            move |attempt: u32| {
                *attempts.borrow_mut() += 1;
                dial(attempt)
            }
        };
        let result = connect_with_retry(
            &w.client_cfg,
            &mut w.rng,
            RetryPolicy::default(),
            &mut dialer,
        )
        .map(|_| ());
        assert!(result.is_err());
        assert_eq!(
            *attempts.borrow(),
            1,
            "security failures must not be retried"
        );
    }
}
