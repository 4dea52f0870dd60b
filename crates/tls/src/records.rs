//! Sans-io TLS record layer: feed bytes in, get events out.
//!
//! The call-shaped drivers in [`crate::stream`] own their transport —
//! they call `read_exact` and wait for it, which is why every GT2-style
//! server used to burn an OS thread per connection (DESIGN.md §16).
//! This module factors the protocol out of the I/O: a [`FrameBuf`]
//! turns an arbitrary byte arrival schedule into complete
//! length-prefixed frames, and the [`ClientConnector`] /
//! [`ServerAcceptor`] / [`RecordSession`] state machines consume frames
//! and *return* the bytes they want transmitted instead of writing them
//! anywhere. The caller — a blocking loop, a scheduler task, a test
//! feeding one byte at a time — decides how bytes move.
//!
//! Wire format is unchanged from [`crate::stream`]: the same `u32`
//! big-endian length prefix, the same handshake tokens, the same sealed
//! records, so a sans-io endpoint interoperates byte-for-byte with the
//! blocking shim (pinned by the parity tests below). All outputs are
//! *unframed* tokens/records; transports add the length prefix via
//! [`crate::stream::write_frame`], which keeps the two-write-per-frame
//! pattern the seeded loss layer's draw schedule depends on.

use std::ops::Range;

use gridsec_bignum::prime::EntropySource;
use gridsec_pki::validate::ValidatedIdentity;

use crate::channel::SecureChannel;
use crate::handshake::{ClientHandshake, ServerAwaitFinished, ServerHandshake, TlsConfig};
use crate::TlsError;

/// Maximum accepted frame payload, matching [`crate::stream::read_frame`].
pub(crate) const MAX_FRAME: usize = 64 * 1024 * 1024;

/// Incremental length-prefixed frame parser. Bytes go in via
/// [`FrameBuf::feed`] in whatever chunks the transport produces;
/// complete frames come out of [`FrameBuf::next_frame`]. Parsing is a
/// pure function of the concatenated input — feeding one byte at a
/// time yields exactly the frames of feeding everything at once (the
/// equivalence property pinned in the tests).
#[derive(Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Append transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, so long sessions
        // stay O(in-flight bytes).
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extract the next complete frame payload, `Ok(None)` if more
    /// bytes are needed, or [`TlsError::Protocol`] on an oversized
    /// length prefix (the same "frame too large" the blocking reader
    /// reports).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, TlsError> {
        Ok(self.take_frame()?.map(|r| self.buf[r].to_vec()))
    }

    /// [`next_frame`](FrameBuf::next_frame) without the copy where it
    /// can: a frame that ends the buffered bytes is handed over in the
    /// buffer itself, the consumed prefix and its length prefix drained
    /// from the front, and the `FrameBuf` is left empty. A frame with
    /// bytes behind it is copied out: moving the tail down to free the
    /// head would cost a burst of N frames O(N²) bytes moved.
    fn take_owned(&mut self) -> Result<Option<Vec<u8>>, TlsError> {
        let Some(r) = self.take_frame()? else {
            return Ok(None);
        };
        if r.end < self.buf.len() {
            return Ok(Some(self.buf[r].to_vec()));
        }
        let mut owned = std::mem::take(&mut self.buf);
        owned.drain(..r.start);
        self.pos = 0;
        Ok(Some(owned))
    }

    /// Consume the next complete frame and return where its payload
    /// lies in the buffer.
    fn take_frame(&mut self) -> Result<Option<Range<usize>>, TlsError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_FRAME {
            return Err(TlsError::Protocol("frame too large"));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let start = self.pos + 4;
        self.pos = start + len;
        Ok(Some(start..self.pos))
    }
}

/// Encode one frame (length prefix + payload) — the byte sequence
/// [`crate::stream::write_frame`] puts on the wire.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// An established record session: a [`SecureChannel`] plus the frame
/// reassembly for its inbound bytes. Outbound, [`RecordSession::send`]
/// seals a message and returns the record to transmit; inbound,
/// [`RecordSession::feed`] accepts raw transport bytes and
/// [`RecordSession::next_message`] yields opened plaintexts in order.
pub struct RecordSession {
    channel: SecureChannel,
    buf: FrameBuf,
}

impl RecordSession {
    /// Wrap an already-established channel (no buffered bytes).
    pub fn new(channel: SecureChannel) -> Self {
        RecordSession {
            channel,
            buf: FrameBuf::new(),
        }
    }

    /// The authenticated peer identity.
    pub fn peer(&self) -> &ValidatedIdentity {
        &self.channel.peer
    }

    /// Seal one message, returning the record to transmit (unframed).
    pub fn send(&mut self, plaintext: &[u8]) -> Vec<u8> {
        self.channel.seal(plaintext)
    }

    /// [`send`](Self::send) a message that is already in a buffer of its
    /// own: it is sealed where it lies and becomes the record.
    pub fn send_owned(&mut self, mut message: Vec<u8>) -> Vec<u8> {
        self.channel.seal_in_place(&mut message);
        message
    }

    /// Append inbound transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.feed(bytes);
    }

    /// Open the next complete inbound record, `Ok(None)` if more bytes
    /// are needed. A record that ends the buffered bytes is opened in
    /// the buffer it arrived in, which becomes the message; one with
    /// bytes behind it is copied out first. It is consumed whether or
    /// not it opens.
    pub fn next_message(&mut self) -> Result<Option<Vec<u8>>, TlsError> {
        match self.buf.take_owned()? {
            Some(record) => self.open_owned(record).map(Some),
            None => Ok(None),
        }
    }

    /// Open one record that arrived in a buffer of its own, where it
    /// lies: the buffer becomes the message.
    pub(crate) fn open_owned(&mut self, mut record: Vec<u8>) -> Result<Vec<u8>, TlsError> {
        self.channel.open_in_place(&mut record)?;
        Ok(record)
    }
}

/// Client side of the handshake as a sans-io machine.
///
/// ```text
/// new()      -> hello token        (transmit framed)
/// feed()     <- transport bytes
/// advance()  -> finished token + RecordSession once the server hello
///               is complete
/// ```
pub struct ClientConnector {
    buf: FrameBuf,
    hs: Option<ClientHandshake>,
}

impl ClientConnector {
    /// Start a handshake: returns the connector and the client hello
    /// token to transmit.
    pub fn new<E: EntropySource>(config: TlsConfig, rng: &mut E) -> (Self, Vec<u8>) {
        let (hs, hello) = ClientHandshake::new(config, rng);
        (
            ClientConnector {
                buf: FrameBuf::new(),
                hs: Some(hs),
            },
            hello,
        )
    }

    /// Append inbound transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.feed(bytes);
    }

    /// Try to complete the handshake. `Ok(None)` means the server hello
    /// is still incomplete. On completion, returns the finished token
    /// to transmit and the established session (which inherits any
    /// bytes that arrived after the server hello).
    pub fn advance(&mut self) -> Result<Option<(Vec<u8>, RecordSession)>, TlsError> {
        if self.hs.is_none() {
            return Err(TlsError::Protocol("handshake already completed"));
        }
        let Some(server_hello) = self.buf.next_frame()? else {
            return Ok(None);
        };
        let hs = self.hs.take().expect("checked above");
        let (finished, channel) = hs.step(&server_hello)?;
        let session = RecordSession {
            channel,
            buf: std::mem::take(&mut self.buf),
        };
        Ok(Some((finished, session)))
    }
}

enum AcceptorState {
    AwaitHello(TlsConfig),
    AwaitFinished(ServerAwaitFinished),
    Done,
}

/// One step of server-side progress from [`ServerAcceptor::advance`].
pub enum Accepted {
    /// More bytes needed.
    Pending,
    /// Transmit this server-hello token; the handshake continues.
    Respond(Vec<u8>),
    /// Handshake complete: the established session (which inherits any
    /// bytes that arrived after the finished token).
    Established(Box<RecordSession>),
}

/// Server side of the handshake as a sans-io machine. Each call to
/// [`ServerAcceptor::advance`] consumes at most one inbound frame and
/// reports what happened; callers loop until `Pending`.
pub struct ServerAcceptor {
    buf: FrameBuf,
    state: AcceptorState,
}

impl ServerAcceptor {
    /// Await a client hello for `config`.
    pub fn new(config: TlsConfig) -> Self {
        ServerAcceptor {
            buf: FrameBuf::new(),
            state: AcceptorState::AwaitHello(config),
        }
    }

    /// Append inbound transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.feed(bytes);
    }

    /// Consume at most one inbound frame and advance the handshake.
    pub fn advance<E: EntropySource>(&mut self, rng: &mut E) -> Result<Accepted, TlsError> {
        match std::mem::replace(&mut self.state, AcceptorState::Done) {
            AcceptorState::AwaitHello(config) => {
                let Some(hello) = self.buf.next_frame()? else {
                    self.state = AcceptorState::AwaitHello(config);
                    return Ok(Accepted::Pending);
                };
                let (server_hello, await_finished) =
                    ServerHandshake::new(config).step(rng, &hello)?;
                self.state = AcceptorState::AwaitFinished(await_finished);
                Ok(Accepted::Respond(server_hello))
            }
            AcceptorState::AwaitFinished(await_finished) => {
                let Some(finished) = self.buf.next_frame()? else {
                    self.state = AcceptorState::AwaitFinished(await_finished);
                    return Ok(Accepted::Pending);
                };
                let channel = await_finished.step(&finished)?;
                Ok(Accepted::Established(Box::new(RecordSession {
                    channel,
                    buf: std::mem::take(&mut self.buf),
                })))
            }
            AcceptorState::Done => Err(TlsError::Protocol("handshake already completed")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;

    impl FrameBuf {
        /// Number of buffered, not-yet-consumed bytes.
        fn pending(&self) -> usize {
            self.buf.len() - self.pos
        }
    }

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    fn configs() -> (TlsConfig, TlsConfig) {
        let mut rng = ChaChaRng::from_seed_bytes(b"records tests");
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

    /// Run a full sans-io handshake, feeding each peer's output to the
    /// other in `chunk`-byte slices, and exchange one message each way.
    fn sans_io_roundtrip(chunk: usize) -> (Vec<u8>, Vec<u8>, String, String) {
        let (client_cfg, server_cfg) = configs();
        let mut crng = ChaChaRng::from_seed_bytes(b"client rng");
        let mut srng = ChaChaRng::from_seed_bytes(b"server rng");

        let (mut client, hello) = ClientConnector::new(client_cfg, &mut crng);
        let mut server = ServerAcceptor::new(server_cfg);

        let feed = |dst: &mut dyn FnMut(&[u8]), bytes: &[u8]| {
            for piece in bytes.chunks(chunk.max(1)) {
                dst(piece);
            }
        };

        feed(&mut |b| server.feed(b), &frame(&hello));
        let server_hello = match server.advance(&mut srng).unwrap() {
            Accepted::Respond(t) => t,
            _ => panic!("expected server hello"),
        };
        feed(&mut |b| client.feed(b), &frame(&server_hello));
        let (finished, mut csess) = client.advance().unwrap().expect("client established");
        feed(&mut |b| server.feed(b), &frame(&finished));
        let mut ssess = match server.advance(&mut srng).unwrap() {
            Accepted::Established(s) => *s,
            _ => panic!("expected establishment"),
        };

        let c2s = csess.send(b"submit job");
        feed(&mut |b| ssess.feed(b), &frame(&c2s));
        let got = ssess.next_message().unwrap().expect("complete record");
        let s2c = ssess.send(b"job accepted");
        feed(&mut |b| csess.feed(b), &frame(&s2c));
        let reply = csess.next_message().unwrap().expect("complete record");
        (
            got,
            reply,
            csess.peer().base_identity.to_string(),
            ssess.peer().base_identity.to_string(),
        )
    }

    #[test]
    fn handshake_and_records_feed_incrementally() {
        let whole = sans_io_roundtrip(usize::MAX);
        assert_eq!(whole.0, b"submit job");
        assert_eq!(whole.1, b"job accepted");
        assert_eq!(whole.2, "/O=G/CN=Srv");
        assert_eq!(whole.3, "/O=G/CN=Alice");
        // Incremental feed (1 byte, 3 bytes) is equivalent to feeding
        // whole buffers: same plaintexts, same authenticated peers.
        assert_eq!(sans_io_roundtrip(1), whole);
        assert_eq!(sans_io_roundtrip(3), whole);
    }

    #[test]
    fn frame_buf_matches_blocking_reader() {
        // frame() produces exactly what write_frame puts on the wire,
        // and FrameBuf parses it back.
        let mut fb = FrameBuf::new();
        fb.feed(&frame(b"frame one"));
        fb.feed(&frame(b""));
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"frame one");
        assert_eq!(fb.next_frame().unwrap().unwrap(), b"");
        assert_eq!(fb.next_frame().unwrap(), None);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn oversized_frame_rejected() {
        let mut fb = FrameBuf::new();
        fb.feed(&u32::MAX.to_be_bytes());
        assert!(matches!(
            fb.next_frame(),
            Err(TlsError::Protocol("frame too large"))
        ));
    }

    #[test]
    fn leftover_bytes_carry_into_the_session() {
        // A peer that pipelines app data right behind its finished
        // token must not lose it: the acceptor's buffered surplus moves
        // into the RecordSession.
        let (client_cfg, server_cfg) = configs();
        let mut crng = ChaChaRng::from_seed_bytes(b"client rng");
        let mut srng = ChaChaRng::from_seed_bytes(b"server rng");
        let (mut client, hello) = ClientConnector::new(client_cfg, &mut crng);
        let mut server = ServerAcceptor::new(server_cfg);
        server.feed(&frame(&hello));
        let server_hello = match server.advance(&mut srng).unwrap() {
            Accepted::Respond(t) => t,
            _ => panic!("expected server hello"),
        };
        client.feed(&frame(&server_hello));
        let (finished, mut csess) = client.advance().unwrap().expect("client established");
        // Pipeline: finished + first record in one burst.
        let record = csess.send(b"eager");
        let mut burst = frame(&finished);
        burst.extend_from_slice(&frame(&record));
        server.feed(&burst);
        let mut ssess = match server.advance(&mut srng).unwrap() {
            Accepted::Established(s) => *s,
            _ => panic!("expected establishment"),
        };
        assert_eq!(ssess.next_message().unwrap().unwrap(), b"eager");
    }

    #[test]
    fn a_record_that_fails_to_open_is_still_consumed() {
        let (client_cfg, server_cfg) = configs();
        let mut crng = ChaChaRng::from_seed_bytes(b"client rng");
        let mut srng = ChaChaRng::from_seed_bytes(b"server rng");
        let (mut client, hello) = ClientConnector::new(client_cfg, &mut crng);
        let mut server = ServerAcceptor::new(server_cfg);
        server.feed(&frame(&hello));
        let Accepted::Respond(server_hello) = server.advance(&mut srng).unwrap() else {
            panic!("expected server hello");
        };
        client.feed(&frame(&server_hello));
        let (finished, mut csess) = client.advance().unwrap().expect("client established");
        server.feed(&frame(&finished));
        let Accepted::Established(ssess) = server.advance(&mut srng).unwrap() else {
            panic!("expected establishment");
        };
        let mut ssess = *ssess;
        let mut bad = csess.send(b"tampered");
        bad[0] ^= 1;
        let next = csess.send(b"next");
        ssess.feed(&frame(&bad));
        ssess.feed(&frame(&next));
        assert!(matches!(
            ssess.next_message(),
            Err(TlsError::RecordIntegrity)
        ));
        // The bad frame is consumed: what is left is exactly the next one.
        assert_eq!(ssess.buf.pending(), 4 + next.len());
    }
}
