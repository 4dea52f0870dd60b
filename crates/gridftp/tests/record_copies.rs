//! A classic 1 MiB transfer holds each record once on each side. The
//! server seals a `GET`'s file bytes in the buffer it read them into and
//! opens a `PUT`'s record in the buffer it arrived in; the client opens
//! the `GET`'s record where its bytes were fed. Counted by a global
//! allocator that tracks the calling thread's live heap and its high
//! water, over a `ServerSession` and a client `RecordSession` driven
//! directly, with no stream between them. A `realloc` counts as growing
//! in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gridftp::poll::{Dialect, ServerSession};
use gridsec_gridftp::GridFtpServer;
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::os::{FileMode, SimOs};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::records::{frame, ClientConnector, RecordSession};
use gridsec_util::rng::RngCore;

struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static HIGH: Cell<isize> = const { Cell::new(0) };
}

fn grow(by: isize) {
    LIVE.with(|live| {
        live.set(live.get() + by);
        HIGH.with(|high| high.set(high.get().max(live.get())));
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator;
// the tallies are const-initialised thread-local `Cell`s, which neither
// allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grow(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f`; return its result and how far this thread's live heap rose
/// above where it stood when `f` began. What was live before — the
/// bytes handed to `f` to feed — is not counted.
fn high_water<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    HIGH.with(|high| high.set(base));
    let out = f();
    (out, (HIGH.with(Cell::get) - base) as usize)
}

const HOST: &str = "dtn1";
const NOW: u64 = 100;
const BIG: usize = 1024 * 1024;
/// One sealed 1 MiB record with its length prefix.
const RECORD: usize = BIG + 16 + 4;
/// Everything else a step may hold: command and reply strings, the
/// reply queue, a small frame's buffer.
const BOOKKEEPING: usize = 16 * 1024;

/// A server session and a client record session, connected and mapped.
struct Link {
    server: ServerSession,
    client: RecordSession,
    rng: ChaChaRng,
}

impl Link {
    /// The server's sealed replies to one framed input.
    fn serve(&mut self, framed: &[u8]) -> Vec<Vec<u8>> {
        self.server.feed(framed);
        self.server.drive(&mut self.rng);
        self.server.take_output()
    }

    /// Feed replies to the client as a transport delivers them, length
    /// prefix then payload, and read every message that completes.
    fn receive(&mut self, replies: &[Vec<u8>]) -> Vec<Vec<u8>> {
        for r in replies {
            self.client.feed(&(r.len() as u32).to_be_bytes());
            self.client.feed(r);
        }
        let mut messages = Vec::new();
        while let Some(m) = self.client.next_message().unwrap() {
            messages.push(m);
        }
        messages
    }
}

#[test]
fn a_classic_transfer_holds_one_record_per_side() {
    let mut rng = ChaChaRng::from_seed_bytes(b"gridftp record copies");
    let dn = |s: &str| DistinguishedName::parse(s).unwrap();
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let user = ca.issue_identity(&mut rng, dn("/O=G/CN=Mover"), 512, 0, 500_000);
    let host = ca.issue_host_identity(
        &mut rng,
        dn("/O=G/CN=host dtn1"),
        vec![HOST.into()],
        512,
        0,
        500_000,
    );
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());
    let gridmap = GridMapFile::parse("\"/O=G/CN=Mover\" xfer\n").unwrap();
    let os = SimOs::new();
    let server = GridFtpServer::new(os.clone(), HOST, host, trust.clone(), gridmap).unwrap();
    let uid = os.uid_of(HOST, "xfer").unwrap();
    let mut file = vec![0u8; BIG];
    rng.fill_bytes(&mut file);
    os.write_file(HOST, "/data/big", uid, FileMode::private(), file.clone())
        .unwrap();

    let (mut connector, hello) = ClientConnector::new(TlsConfig::new(user, trust, NOW), &mut rng);
    let mut server = ServerSession::new(&server, Dialect::Classic, NOW, CrashPlan::disabled());
    server.feed(&frame(&hello));
    server.drive(&mut rng);
    for token in server.take_output() {
        connector.feed(&frame(&token));
    }
    let (finished, client) = connector.advance().unwrap().expect("server hello complete");
    let mut link = Link {
        server,
        client,
        rng,
    };
    let greeting = link.serve(&frame(&finished));
    assert!(link.receive(&greeting)[0].starts_with(b"OK mapped to xfer"));

    // GET: the server seals the file in the buffer it read, the client
    // opens the record in the buffer it fed.
    let command = frame(&link.client.send(b"GET /data/big"));
    let (replies, server_side) = high_water(|| link.serve(&command));
    let (messages, client_side) = high_water(|| link.receive(&replies));
    assert_eq!(messages.len(), 2);
    assert_eq!(messages[0], format!("DATA {BIG}").as_bytes());
    assert!(messages[1] == file, "GET returned the file");
    drop((replies, messages));
    assert!(
        server_side <= RECORD + BOOKKEEPING,
        "GET server high water {server_side} B, one record is {RECORD} B"
    );
    assert!(
        client_side <= RECORD + BOOKKEEPING,
        "GET client high water {client_side} B, one record is {RECORD} B"
    );

    // PUT: the client seals from the caller's slice, the server opens
    // the record in the buffer it arrived in and stores that buffer.
    let command = frame(&link.client.send(b"PUT /up/big"));
    assert!(
        link.serve(&command).is_empty(),
        "PUT awaits its data record"
    );
    let (record, client_side) = high_water(|| link.client.send(&file));
    let (replies, server_side) = high_water(|| {
        link.server.feed(&(record.len() as u32).to_be_bytes());
        link.serve(&record)
    });
    assert_eq!(link.receive(&replies), vec![b"STORED".to_vec()]);
    assert!(
        os.read_file(HOST, "/up/big", uid).unwrap() == file,
        "PUT stored the file"
    );
    assert!(
        client_side <= RECORD + BOOKKEEPING,
        "PUT client high water {client_side} B, one record is {RECORD} B"
    );
    assert!(
        server_side <= RECORD + BOOKKEEPING,
        "PUT server high water {server_side} B, one record is {RECORD} B"
    );

    // A record that arrives in a stream's 4 KiB reads grows the receive
    // buffer by doubling; the stored file keeps only its bytes.
    let command = frame(&link.client.send(b"PUT /up/pieces"));
    assert!(
        link.serve(&command).is_empty(),
        "PUT awaits its data record"
    );
    let record = frame(&link.client.send(&file));
    let before = LIVE.with(Cell::get);
    for piece in record.chunks(4096) {
        link.server.feed(piece);
        link.server.drive(&mut link.rng);
    }
    let replies = link.server.take_output();
    let kept = (LIVE.with(Cell::get) - before) as usize;
    assert_eq!(link.receive(&replies), vec![b"STORED".to_vec()]);
    assert!(
        os.read_file(HOST, "/up/pieces", uid).unwrap() == file,
        "PUT stored the file"
    );
    assert!(
        kept <= RECORD + BOOKKEEPING,
        "PUT in pieces: the server kept {kept} B, one record is {RECORD} B"
    );
}
