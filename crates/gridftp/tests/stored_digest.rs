//! The GridFTP server's digests are the ones its filesystem stores
//! beside each file: every `GETR` reports the SHA-256 of what the path
//! holds now, whichever dialect wrote it last, and hashes each version of
//! a file once; and a `PUTR` killed at any chunk resumes to a promoted
//! file whose `STORED` digest is the data's, with no staging file left.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_gridftp::congestion::AimdConfig;
use gridsec_gridftp::poll::{Dialect, SessionTask};
use gridsec_gridftp::resume::{resumable_get, resumable_put, CHUNK};
use gridsec_gridftp::stripe::{striped_put, StripeOpts};
use gridsec_gridftp::{GridFtpClient, GridFtpServer};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::net::{Network, SimStream};
use gridsec_testbed::os::{FileMode, SimOs, Uid};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::retry::RetryPolicy;

const HOST: &str = "data1";

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// One GridFTP server on a loss-free link, and the user it maps to
/// `jdoe`. Every dial spawns a session task of the asked-for dialect on
/// the world's own scheduler.
struct World {
    trust: TrustStore,
    jane: Credential,
    server: Rc<RefCell<GridFtpServer>>,
    os: SimOs,
    uid: Uid,
    net: Network,
    sched: Scheduler,
    dials: u64,
}

impl World {
    fn new() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gridftp stored digest tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let host = ca.issue_host_identity(
            &mut rng,
            dn("/O=G/CN=host data1"),
            vec![HOST.into()],
            512,
            0,
            500_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
        let os = SimOs::new();
        let server = GridFtpServer::new(os.clone(), HOST, host, trust.clone(), gridmap).unwrap();
        let uid = os.uid_of(HOST, "jdoe").unwrap();
        let net = Network::new();
        let sched = Scheduler::new(&net);
        World {
            trust,
            jane,
            server: Rc::new(RefCell::new(server)),
            os,
            uid,
            net,
            sched,
            dials: 0,
        }
    }

    fn config(&self) -> TlsConfig {
        TlsConfig::new(self.jane.clone(), self.trust.clone(), 100)
    }

    fn dial(&mut self, dialect: Dialect, plan: &CrashPlan) -> SimStream {
        self.dials += 1;
        let n = self.dials;
        let (client, server) = self
            .net
            .connect(&format!("jane:{n}"), &format!("{HOST}:{n}"));
        let task = SessionTask {
            server: Rc::clone(&self.server),
            dialect,
            now: 100,
            plan: plan.clone(),
        };
        task.spawn(&mut self.sched, server, &n.to_be_bytes());
        client
    }

    /// `GETR` the whole of `path`; returns the server's digest (which the
    /// client has checked against the bytes) and the bytes.
    fn getr(&mut self, path: &str) -> (String, Vec<u8>) {
        let config = self.config();
        let mut rng = ChaChaRng::from_seed_bytes(b"getr client");
        let plan = CrashPlan::disabled();
        let dial = |_| Ok(self.dial(Dialect::Resumable, &plan));
        let out = resumable_get(&config, &mut rng, RetryPolicy::default(), dial, path, 4).unwrap();
        (out.sha256, out.bytes)
    }

    fn putr(&mut self, path: &str, data: &[u8], plan: &CrashPlan) -> (String, u32) {
        let config = self.config();
        let mut rng = ChaChaRng::from_seed_bytes(b"putr client");
        let dial = |_| Ok(self.dial(Dialect::Resumable, plan));
        let policy = RetryPolicy::default();
        let out = resumable_put(&config, &mut rng, policy, dial, path, data, 4).unwrap();
        (out.sha256, out.sessions)
    }
}

/// `len` bytes that differ for every `version`.
fn payload(len: usize, version: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i * 31 % 251) as u8 ^ version.wrapping_mul(0x5b))
        .collect()
}

#[test]
fn getr_reports_the_digest_of_what_the_path_holds_now() {
    let mut w = World::new();
    let path = "/home/jdoe/v.dat";
    let hashed = |w: &World| w.os.digests_computed();
    let expect = |w: &mut World, data: &[u8], new_digests: u64| {
        let before = hashed(w);
        let (digest, bytes) = w.getr(path);
        assert_eq!(bytes, data);
        assert_eq!(digest, hex(&sha256(data)));
        assert_eq!(hashed(w) - before, new_digests);
    };

    let v1 = payload(16 * CHUNK, 1);
    w.os.write_file(HOST, path, w.uid, FileMode::private(), v1.clone())
        .unwrap();
    expect(&mut w, &v1, 1);
    expect(&mut w, &v1, 0);

    // Classic PUT replaces the file; the next GETR hashes the new one.
    let v2 = payload(16 * CHUNK + 7, 2);
    let stream = w.dial(Dialect::Classic, &CrashPlan::disabled());
    let mut rng = ChaChaRng::from_seed_bytes(b"classic client");
    let mut client =
        GridFtpClient::connect(stream, w.jane.clone(), w.trust.clone(), 100, &mut rng).unwrap();
    client.put(path, &v2).unwrap();
    client.quit().unwrap();
    expect(&mut w, &v2, 1);

    // PUTR promotes its staging file; the digest STORED reports is the
    // one GETR reads back.
    let v3 = payload(9 * CHUNK, 3);
    let before = hashed(&w);
    let (stored, _) = w.putr(path, &v3, &CrashPlan::disabled());
    assert_eq!(stored, hex(&sha256(&v3)));
    assert_eq!(hashed(&w) - before, 1);
    expect(&mut w, &v3, 0);

    // A striped FINS assembles, checks and promotes; GETR reads its
    // digest back without hashing again.
    let v4 = payload(20 * CHUNK + 3, 4);
    let opts = StripeOpts {
        aimd: AimdConfig::pinned_stripes(3),
        ..StripeOpts::default()
    };
    let config = w.config();
    let mut rng = ChaChaRng::from_seed_bytes(b"striped client");
    let plan = CrashPlan::disabled();
    let before = hashed(&w);
    let dial = |_, _| Ok(w.dial(Dialect::Striped, &plan));
    striped_put(
        &config,
        &mut rng,
        RetryPolicy::default(),
        dial,
        path,
        &v4,
        opts,
    )
    .unwrap();
    assert_eq!(hashed(&w) - before, 1);
    expect(&mut w, &v4, 0);
    assert_eq!(
        w.os.file_len(HOST, &format!("{path}.merge")).unwrap(),
        None,
        "the assembled file was promoted by rename"
    );
}

/// A striped upload of `data` to `path` that gives up after a few torn
/// `FINS` sessions.
fn striped_put_once(w: &mut World, path: &str, data: &[u8]) -> bool {
    let opts = StripeOpts {
        aimd: AimdConfig::pinned_stripes(2),
        max_sessions: 3,
        ..StripeOpts::default()
    };
    let config = w.config();
    let mut rng = ChaChaRng::from_seed_bytes(b"refused striped client");
    let plan = CrashPlan::disabled();
    let dial = |_, _| Ok(w.dial(Dialect::Striped, &plan));
    striped_put(
        &config,
        &mut rng,
        RetryPolicy::default(),
        dial,
        path,
        data,
        opts,
    )
    .is_ok()
}

#[test]
fn refused_fins_leaves_no_staging_file_and_spares_anyone_elses() {
    let mut w = World::new();
    let other = w.os.add_account(HOST, "other").unwrap();
    let data = payload(6 * CHUNK + 5, 6);
    let theirs = payload(100, 7);

    // The target belongs to someone else: the assembled file is staged,
    // checked, refused at the rename, and taken away again.
    let path = "/home/jdoe/theirs.dat";
    w.os.write_file(HOST, path, other, FileMode::private(), theirs.clone())
        .unwrap();
    assert!(!striped_put_once(&mut w, path, &data));
    assert_eq!(w.os.read_file(HOST, path, other).unwrap(), theirs);
    assert_eq!(
        w.os.file_len(HOST, &format!("{path}.merge")).unwrap(),
        None,
        "a refused promote leaves no staging file"
    );

    // Someone else's file sits where the staging file would go: FINS
    // refuses to replace it and writes no target.
    let path = "/home/jdoe/mine.dat";
    let staged = format!("{path}.merge");
    w.os.write_file(HOST, &staged, other, FileMode::private(), theirs.clone())
        .unwrap();
    assert!(!striped_put_once(&mut w, path, &data));
    assert_eq!(w.os.read_file(HOST, &staged, other).unwrap(), theirs);
    assert_eq!(w.os.file_len(HOST, path).unwrap(), None);

    // A staging file of the user's own, as a killed merge leaves it, is
    // replaced and promoted.
    w.os.remove_file(HOST, &staged, other).unwrap();
    w.os.write_file(HOST, &staged, w.uid, FileMode::private(), theirs)
        .unwrap();
    assert!(striped_put_once(&mut w, path, &data));
    assert_eq!(w.os.read_file(HOST, path, w.uid).unwrap(), data);
    assert_eq!(w.os.file_len(HOST, &staged).unwrap(), None);
}

#[test]
fn putr_killed_at_every_chunk_resumes_to_the_stored_digest() {
    const CHUNKS: u64 = 16;
    let mut w = World::new();
    let data = payload(CHUNKS as usize * CHUNK, 5);
    for nth in 1..=CHUNKS {
        let path = format!("/home/jdoe/kill-{nth}.dat");
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.put.chunk", nth);
        let (stored, sessions) = w.putr(&path, &data, &plan);
        assert_eq!(plan.crashes(), 1, "nth={nth}");
        assert_eq!(sessions, 2, "nth={nth}");
        assert_eq!(stored, hex(&sha256(&data)), "nth={nth}");
        assert_eq!(
            w.os.read_file(HOST, &path, w.uid).unwrap(),
            data,
            "nth={nth}"
        );
        assert_eq!(
            w.os.file_len(HOST, &format!("{path}.part")).unwrap(),
            None,
            "nth={nth}"
        );
    }
}
