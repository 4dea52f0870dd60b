//! `bulk_xfer`: op = one file transfer (GT2 data movement).
//!
//! The client is the sans-io record layer (`tls::records`) speaking the
//! wire commands; the server is `gridftp::poll::ServerSession`, fed and
//! drained by this driver — no stream, no thread. A slice is
//! [`ROUNDS`] rounds of one Classic session (GET and PUT of a 1 MiB file,
//! one large record each) and one Resumable session (GETR and PUTR of
//! two 256 KiB files, 1024 records of 256 B each, SHA-256 checked by the
//! protocol). Two large and four small transfers per round split the
//! time about evenly between per-byte and per-record cost, and leave
//! the median op inside one class.

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_gridftp::poll::{Dialect, ServerSession};
use gridsec_gridftp::resume::CHUNK;
use gridsec_gridftp::GridFtpServer;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::os::{FileMode, SimOs, Uid};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::records::{frame, ClientConnector, RecordSession};
use gridsec_util::rng::RngCore;

use crate::harness::{hex, slice_seed, ClosedLoop, Config, Sabotage, SliceOutcome, Workload};
use crate::span::span;

/// Rounds per slice; ≈50 ms of transfers.
pub const ROUNDS: usize = 1;
pub const BIG: usize = 1024 * 1024;
pub const SMALL: usize = 256 * 1024;
const HOST: &str = "dtn1";
const NOW: u64 = 100;
const SMALL_FILES: [&str; 2] = ["/data/small-a", "/data/small-b"];

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("benchmark DN")
}

fn seeded_bytes(rng: &mut ChaChaRng, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    rng.fill_bytes(&mut v);
    v
}

/// The seeded world: CA, a mapped user, a GridFTP server over a
/// simulated filesystem holding the files to fetch.
pub struct XferWorld {
    pub trust: TrustStore,
    pub user: Credential,
    pub os: SimOs,
    pub uid: Uid,
    pub server: GridFtpServer,
    pub big: Vec<u8>,
    pub small: [Vec<u8>; 2],
    /// What the client uploads (stamped per transfer).
    pub up_big: Vec<u8>,
    pub up_small: Vec<u8>,
}

impl XferWorld {
    pub fn build(seed: u64) -> Self {
        let mut rng = ChaChaRng::from_seed_bytes(format!("gridbench xfer {seed:#x}").as_bytes());
        let ca =
            CertificateAuthority::create_root(&mut rng, dn("/O=Bench/CN=CA"), 512, 0, u64::MAX / 2);
        let user = ca.issue_identity(&mut rng, dn("/O=Bench/CN=Mover"), 512, 0, u64::MAX / 4);
        let host = ca.issue_host_identity(
            &mut rng,
            dn("/O=Bench/CN=host dtn1"),
            vec![HOST.to_string()],
            512,
            0,
            u64::MAX / 4,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let mut gridmap = GridMapFile::new();
        gridmap.add(dn("/O=Bench/CN=Mover"), vec!["xfer".to_string()]);
        let os = SimOs::new();
        let server = GridFtpServer::new(os.clone(), HOST, host, trust.clone(), gridmap)
            .expect("server on a fresh host");
        let uid = os.uid_of(HOST, "xfer").expect("mapped account exists");

        let big = seeded_bytes(&mut rng, BIG);
        let small = [seeded_bytes(&mut rng, SMALL), seeded_bytes(&mut rng, SMALL)];
        let seed_file = |path: &str, data: &[u8]| {
            os.write_file(HOST, path, uid, FileMode::private(), data.to_vec())
                .expect("seed a file")
        };
        seed_file("/data/big", &big);
        seed_file(SMALL_FILES[0], &small[0]);
        seed_file(SMALL_FILES[1], &small[1]);
        let up_big = seeded_bytes(&mut rng, BIG);
        let up_small = seeded_bytes(&mut rng, SMALL);
        XferWorld {
            trust,
            user,
            os,
            uid,
            server,
            big,
            small,
            up_big,
            up_small,
        }
    }
}

/// One connection: the client's record session, the server's session
/// machine, and the frames that crossed between them.
pub struct Link {
    client: RecordSession,
    server: ServerSession,
    rng: ChaChaRng,
    pub wire_bytes: u64,
    pub records: u64,
}

/// Feed one framed record to the server, run it, and return its framed
/// replies — the server's whole share of the work.
fn serve(
    server: &mut ServerSession,
    rng: &mut ChaChaRng,
    framed: &[u8],
    wire: &mut u64,
    records: &mut u64,
) -> Vec<Vec<u8>> {
    *wire += framed.len() as u64;
    *records += 1;
    let replies = span("gridftp.server", framed.len() as u64, || {
        server.feed(framed);
        server.drive(rng);
        server.take_output()
    });
    replies
        .iter()
        .map(|r| {
            *wire += 4 + r.len() as u64;
            *records += 1;
            frame(r)
        })
        .collect()
}

impl Link {
    /// Handshake and greeting.
    pub fn connect(world: &XferWorld, dialect: Dialect, label: &str) -> Result<Link, String> {
        let mut rng = ChaChaRng::from_seed_bytes(label.as_bytes());
        let mut server = ServerSession::new(&world.server, dialect, NOW, CrashPlan::disabled());
        let (mut wire_bytes, mut records) = (0u64, 0u64);
        let config = TlsConfig::new(world.user.clone(), world.trust.clone(), NOW);
        let (mut connector, hello) = span("tls.client_connect", 0, || {
            ClientConnector::new(config, &mut rng)
        });
        for reply in serve(
            &mut server,
            &mut rng,
            &frame(&hello),
            &mut wire_bytes,
            &mut records,
        ) {
            connector.feed(&reply);
        }
        let (finished, client) = span("tls.client_connect", 1, || connector.advance())
            .map_err(|e| e.to_string())?
            .ok_or("server hello incomplete")?;
        let mut link = Link {
            client,
            server,
            rng,
            wire_bytes,
            records,
        };
        link.deliver(&frame(&finished));
        match link.recv()? {
            Some(greeting) if greeting.starts_with(b"OK") => Ok(link),
            other => Err(format!("bad greeting: {other:?}")),
        }
    }

    fn deliver(&mut self, framed: &[u8]) {
        let replies = serve(
            &mut self.server,
            &mut self.rng,
            framed,
            &mut self.wire_bytes,
            &mut self.records,
        );
        span("tls.client_feed", replies.len() as u64, || {
            for r in &replies {
                self.client.feed(r);
            }
        });
    }

    /// Seal and send one message; the server's replies are queued.
    pub fn send(&mut self, plaintext: &[u8]) {
        let record = span("tls.client_send", plaintext.len() as u64, || {
            self.client.send(plaintext)
        });
        self.deliver(&frame(&record));
    }

    /// Open the next queued reply.
    pub fn recv(&mut self) -> Result<Option<Vec<u8>>, String> {
        span("tls.client_recv", 0, || self.client.next_message()).map_err(|e| e.to_string())
    }

    fn recv_text(&mut self) -> Result<String, String> {
        let msg = self.recv()?.ok_or("server sent nothing")?;
        String::from_utf8(msg).map_err(|e| e.to_string())
    }

    pub fn get(&mut self, path: &str) -> Result<Vec<u8>, String> {
        self.send(format!("GET {path}").as_bytes());
        let header = self.recv_text()?;
        let len: usize = header
            .strip_prefix("DATA ")
            .and_then(|n| n.parse().ok())
            .ok_or(header)?;
        let data = self.recv()?.ok_or("no data record")?;
        (data.len() == len)
            .then_some(data)
            .ok_or("length mismatch".into())
    }

    pub fn put(&mut self, path: &str, data: &[u8]) -> Result<(), String> {
        self.send(format!("PUT {path}").as_bytes());
        self.send(data);
        match self.recv_text()?.as_str() {
            "STORED" => Ok(()),
            other => Err(other.to_string()),
        }
    }

    /// `GETR` from offset 0; the protocol's SHA-256 is checked here as
    /// the resumable client checks it.
    pub fn getr(&mut self, path: &str) -> Result<Vec<u8>, String> {
        self.send(format!("GETR {path} 0").as_bytes());
        let header = self.recv_text()?;
        let mut it = header.split_whitespace();
        let (Some("DATA"), Some(total), Some("0"), Some(digest)) =
            (it.next(), it.next(), it.next(), it.next())
        else {
            return Err(header);
        };
        let total: usize = total.parse().map_err(|_| "bad total")?;
        let mut buf = Vec::with_capacity(total);
        while buf.len() < total {
            let chunk = self.recv()?.ok_or("transfer ended early")?;
            buf.extend_from_slice(&chunk);
        }
        (hex(&sha256(&buf)) == digest && buf.len() == total)
            .then_some(buf)
            .ok_or("digest mismatch".into())
    }

    /// `PUTR` of a file the server has not seen; checks the digest of
    /// what the server stored.
    pub fn putr(&mut self, path: &str, data: &[u8]) -> Result<(), String> {
        let local = hex(&sha256(data));
        self.send(format!("PUTR {path} {}", data.len()).as_bytes());
        match self.recv_text()?.as_str() {
            "OFFSET 0" => {}
            other => return Err(other.to_string()),
        }
        for chunk in data.chunks(CHUNK) {
            self.send(chunk);
        }
        match self.recv_text()?.strip_prefix("STORED ") {
            Some(stored) if stored == local => Ok(()),
            other => Err(format!("stored {other:?}")),
        }
    }

    pub fn quit(mut self) -> (u64, u64) {
        self.send(b"QUIT");
        let _ = self.recv();
        (self.wire_bytes, self.records)
    }
}

pub struct BulkXfer {
    seed: u64,
    sabotage: Option<Sabotage>,
    world: XferWorld,
}

/// Stamp the transfer's identity into an upload buffer so no two
/// uploads carry the same bytes.
fn stamp(buf: &mut [u8], seed: u64, round: usize, n: usize) {
    buf[..8].copy_from_slice(&seed.to_be_bytes());
    buf[8..16].copy_from_slice(&((round * 16 + n) as u64).to_be_bytes());
}

impl Workload for BulkXfer {
    const NAME: &'static str = "bulk_xfer";
    const CLOSED_LOOP: bool = true;

    fn build(cfg: &Config) -> Self {
        BulkXfer {
            seed: cfg.seed,
            sabotage: cfg.sabotage,
            world: XferWorld::build(cfg.seed),
        }
    }

    fn slice(&mut self, index: u64) -> SliceOutcome {
        let seed = slice_seed(self.seed, index);
        let mut ops = ClosedLoop::new(Self::NAME);
        let (mut wire, mut records) = (0u64, 0u64);
        let mut flip = self.sabotage == Some(Sabotage::FlipTransferByte);
        let w = &self.world;
        let read_back = |path: &str| w.os.read_file(HOST, path, w.uid).ok();
        let mut up_big = w.up_big.clone();
        let mut up_small = w.up_small.clone();
        let mut hang_up = |ops: &mut ClosedLoop, link: Link| {
            let (b, n) = ops.aside("gridftp.quit", || link.quit());
            wire += b;
            records += n;
        };

        for round in 0..ROUNDS {
            // ---- Classic: one large record each way -------------------
            let label = format!("xfer classic {seed:#x} {round}");
            let connected = ops.aside("gridftp.connect", || {
                Link::connect(w, Dialect::Classic, &label)
            });
            let Ok(mut link) = connected else {
                ops.out.failed += 1;
                continue;
            };
            let _ = ops.op(
                "gridftp.op.get_1m",
                || link.get("/data/big"),
                |r, d| {
                    let mut got = r.as_ref().ok()?.clone();
                    if std::mem::take(&mut flip) {
                        got[BIG / 2] ^= 1;
                    }
                    d.u64(got.len() as u64).bytes(&got[..32]);
                    (got == w.big).then_some(BIG as u64)
                },
            );
            stamp(&mut up_big, seed, round, 0);
            let _ = ops.op(
                "gridftp.op.put_1m",
                || link.put("/up/big", &up_big),
                |r, d| {
                    r.as_ref().ok()?;
                    d.bytes(&up_big[..32]);
                    (read_back("/up/big")? == up_big).then_some(BIG as u64)
                },
            );
            hang_up(&mut ops, link);

            // ---- Resumable: 1024 records of 256 B each way, twice -----
            let label = format!("xfer resumable {seed:#x} {round}");
            let connected = ops.aside("gridftp.connect", || {
                Link::connect(w, Dialect::Resumable, &label)
            });
            let Ok(mut link) = connected else {
                ops.out.failed += 1;
                continue;
            };
            for (n, path) in SMALL_FILES.iter().enumerate() {
                let _ = ops.op(
                    "gridftp.op.getr_256k",
                    || link.getr(path),
                    |r, d| {
                        let got = r.as_ref().ok()?;
                        d.bytes(&sha256(got));
                        (*got == w.small[n]).then_some(SMALL as u64)
                    },
                );
                stamp(&mut up_small, seed, round, 1 + n);
                let up = format!("/up/small-{n}");
                let _ = ops.op(
                    "gridftp.op.putr_256k",
                    || link.putr(&up, &up_small),
                    |r, d| {
                        r.as_ref().ok()?;
                        d.bytes(&sha256(&up_small));
                        (read_back(&up)? == up_small).then_some(SMALL as u64)
                    },
                );
                // A second PUTR of a finished path is answered from the
                // stored file; remove it so every upload moves its bytes.
                let _ = w.os.remove_file(HOST, &up, w.uid);
            }
            hang_up(&mut ops, link);
        }
        ops.out.counts = vec![("gridftp.records", records)];
        ops.finish(wire, records)
    }
}
