//! GT2 mode: the handshake tokens and sealed records pumped over a
//! blocking byte stream with `u32` length-prefix framing.
//!
//! This is the *compatibility shim* over the sans-io state machines in
//! [`crate::records`]: the protocol logic lives there; this module only
//! moves bytes — `read_frame` blocks for one frame, feeds it to the
//! machine, and [`write_frame`] transmits whatever the machine
//! returned. Wire bytes are identical to the pre-sans-io implementation
//! (same frames, same write pattern: one length write + one payload
//! write per frame — two segments on a `gridsec_testbed::net::SimStream`,
//! each drawing its fate from the world's fault layer).

use std::io::{Read, Write};

use gridsec_bignum::prime::EntropySource;

use crate::handshake::TlsConfig;
use crate::records::{frame, ClientConnector, RecordSession};
use crate::TlsError;

/// Write one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), TlsError> {
    w.write_all(&(payload.len() as u32).to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one length-prefixed frame.
pub(crate) fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, TlsError> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > crate::records::MAX_FRAME {
        return Err(TlsError::Protocol("frame too large"));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// A secured message stream: a [`RecordSession`] bound to a transport.
pub struct SecureStream<S> {
    stream: S,
    session: RecordSession,
}

impl<S: Read + Write> SecureStream<S> {
    /// The authenticated peer identity.
    pub fn peer(&self) -> &gridsec_pki::validate::ValidatedIdentity {
        self.session.peer()
    }

    /// Seal and send one message.
    pub fn send(&mut self, plaintext: &[u8]) -> Result<(), TlsError> {
        let sealed = self.session.send(plaintext);
        write_frame(&mut self.stream, &sealed)
    }

    /// Receive one message, opened in the buffer its frame was read into.
    pub fn recv(&mut self) -> Result<Vec<u8>, TlsError> {
        let sealed = read_frame(&mut self.stream)?;
        self.session.open_owned(sealed)
    }
}

/// Client side: run the handshake over `stream` and return the secured
/// stream.
pub fn client_connect<S: Read + Write, E: EntropySource>(
    mut stream: S,
    config: TlsConfig,
    rng: &mut E,
) -> Result<SecureStream<S>, TlsError> {
    let (mut conn, hello) = ClientConnector::new(config, rng);
    write_frame(&mut stream, &hello)?;
    let server_hello = read_frame(&mut stream)?;
    conn.feed(&frame(&server_hello));
    let (finished, session) = conn
        .advance()?
        .expect("a complete frame was fed; the machine must advance");
    write_frame(&mut stream, &finished)?;
    Ok(SecureStream { stream, session })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::{Accepted, ServerAcceptor};
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::net::{Network, SimStream, TrafficStats};
    use gridsec_testbed::sched::{Scheduler, Step, TaskCx};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn configs() -> (TlsConfig, TlsConfig) {
        let mut rng = ChaChaRng::from_seed_bytes(b"tls stream tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let alice = ca.issue_identity(&mut rng, dn("/O=G/CN=Alice"), 512, 0, 100_000);
        let server = ca.issue_identity(&mut rng, dn("/O=G/CN=Srv"), 512, 0, 100_000);
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        (
            TlsConfig::new(alice, trust.clone(), 100),
            TlsConfig::new(server, trust, 100),
        )
    }

    /// A one-request echo server as a scheduler task: sans-io TLS over
    /// a [`SimStream`], no thread, no blocking read.
    fn spawn_echo_server(
        sched: &mut Scheduler,
        mut stream: SimStream,
        config: TlsConfig,
        seen_peer: Rc<RefCell<Option<String>>>,
    ) {
        let mut rng = ChaChaRng::from_seed_bytes(b"server rng");
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
                    match acceptor.as_mut().unwrap().advance(&mut rng).unwrap() {
                        Accepted::Pending => break,
                        Accepted::Respond(token) => write_frame(&mut stream, &token).unwrap(),
                        Accepted::Established(s) => {
                            session = Some(*s);
                            acceptor = None;
                            break;
                        }
                    }
                }
            }
            if let Some(s) = session.as_mut() {
                if let Some(req) = s.next_message().unwrap() {
                    assert_eq!(req, b"submit job");
                    *seen_peer.borrow_mut() = Some(s.peer().base_identity.to_string());
                    let sealed = s.send(b"job accepted");
                    write_frame(&mut stream, &sealed).unwrap();
                    return Step::Done;
                }
            }
            Step::WaitMail { deadline: None }
        });
    }

    #[test]
    fn full_duplex_over_sim_stream() {
        let (client_cfg, server_cfg) = configs();
        let net = Network::new();
        let (a, b) = net.connect("alice", "server");
        let seen = Rc::new(RefCell::new(None));
        let mut sched = Scheduler::new(&net);
        spawn_echo_server(&mut sched, b, server_cfg, seen.clone());
        // The client's blocking reads park in `sched`, bound to the
        // network both halves are registered on.
        let mut rng = ChaChaRng::from_seed_bytes(b"client rng");
        let mut cs = client_connect(a, client_cfg, &mut rng).unwrap();
        cs.send(b"submit job").unwrap();
        assert_eq!(cs.recv().unwrap(), b"job accepted");
        assert_eq!(cs.peer().base_identity.to_string(), "/O=G/CN=Srv");
        assert_eq!(
            seen.borrow().as_deref(),
            Some("/O=G/CN=Alice"),
            "server task authenticated the client"
        );
        // Three handshake frames and two app messages crossed the wire,
        // each a length segment and a payload segment, then the server
        // task's FIN.
        let TrafficStats { messages, bytes } = net.stats();
        assert_eq!(messages, 11);
        assert!(bytes > 0);
    }

    #[test]
    fn frame_roundtrip() {
        let net = Network::new();
        let (mut a, mut b) = net.connect("alice", "bob");
        write_frame(&mut a, b"frame one").unwrap();
        write_frame(&mut a, b"").unwrap();
        assert_eq!(read_frame(&mut b).unwrap(), b"frame one");
        assert_eq!(read_frame(&mut b).unwrap(), b"");
    }

    #[test]
    fn oversized_frame_rejected() {
        let net = Network::new();
        let (mut a, mut b) = net.connect("alice", "bob");
        use std::io::Write;
        a.write_all(&u32::MAX.to_be_bytes()).unwrap();
        assert!(matches!(
            read_frame(&mut b),
            Err(TlsError::Protocol("frame too large"))
        ));
    }

    #[test]
    fn truncated_stream_errors() {
        let net = Network::new();
        let (mut a, mut b) = net.connect("alice", "bob");
        use std::io::Write;
        a.write_all(&8u32.to_be_bytes()).unwrap();
        a.write_all(b"ab").unwrap();
        drop(a);
        assert!(matches!(read_frame(&mut b), Err(TlsError::Io(_))));
    }
}
