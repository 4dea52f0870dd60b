//! The GridFTP server asks its gate once per command, in every dialect,
//! on the path the command names and whether it reads or writes. The
//! client presents a proxy whose CAS assertion grants reading one exact
//! path, so a command passes only when the server takes the right path
//! out of its arguments and the right action from its verb.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::cas::{CasAssertion, CasAssertionTbs, Right};
use gridsec_authz::gridmap::GridMapFile;
use gridsec_authz::AuthzError;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gridftp::poll::{Dialect, SessionTask};
use gridsec_gridftp::{FtpError, GridFtpServer};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::proxy::issue_proxy;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::net::Network;
use gridsec_testbed::os::{FileMode, SimOs};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::stream::client_connect;

const GRANTED: &str = "/home/jdoe/run1.dat";

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).unwrap()
}

struct World {
    trust: TrustStore,
    /// Jane's proxy, restricted to reading [`GRANTED`].
    reader: Credential,
    server: Rc<RefCell<GridFtpServer>>,
}

fn world() -> World {
    let mut rng = ChaChaRng::from_seed_bytes(b"gridftp command gate");
    let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
    let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
    let cas = ca.issue_identity(&mut rng, dn("/O=G/CN=CAS"), 512, 0, 500_000);
    let host = ca.issue_identity(&mut rng, dn("/O=G/CN=host data1"), 512, 0, 500_000);
    let mut trust = TrustStore::new();
    trust.add_root(ca.certificate().clone());

    let tbs = CasAssertionTbs {
        vo: "physics-vo".to_string(),
        subject: dn("/O=G/CN=Jane"),
        rights: vec![Right {
            resource: GRANTED.to_string(),
            action: "read".to_string(),
        }],
        not_before: 0,
        not_after: 10_000,
    };
    let restriction = CasAssertion::sign(tbs, cas.key()).restriction();
    let reader = issue_proxy(&mut rng, &jane, restriction, 512, 0, 10_000).unwrap();

    let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
    let mut server =
        GridFtpServer::new(SimOs::new(), "data1", host, trust.clone(), gridmap).unwrap();
    server
        .gate
        .trust_cas("physics-vo", cas.certificate().public_key().clone());
    let uid = server.os().uid_of("data1", "jdoe").unwrap();
    server
        .os()
        .write_file("data1", GRANTED, uid, FileMode::private(), b"data".to_vec())
        .unwrap();
    World {
        trust,
        reader,
        server: Rc::new(RefCell::new(server)),
    }
}

/// Send one command on a fresh `dialect` session; the server's first
/// reply and the session's outcome once the client hangs up.
fn one_command(w: &World, dialect: Dialect, command: &str) -> (String, Result<u64, FtpError>) {
    let net = Network::new();
    let mut sched = Scheduler::new(&net);
    let (client_end, server_end) = net.connect("jane", "data1");
    let task = SessionTask {
        server: Rc::clone(&w.server),
        dialect,
        now: 100,
        plan: CrashPlan::disabled(),
    };
    let served = task.spawn(&mut sched, server_end, b"server");
    let mut rng = ChaChaRng::from_seed_bytes(b"client");
    let config = TlsConfig::new(w.reader.clone(), w.trust.clone(), 100);
    let mut stream = client_connect(client_end, config, &mut rng).unwrap();
    assert!(stream.recv().unwrap().starts_with(b"OK"));
    stream.send(command.as_bytes()).unwrap();
    let reply = String::from_utf8_lossy(&stream.recv().unwrap()).into_owned();
    drop(stream);
    sched.run();
    let outcome = served.borrow_mut().take().expect("server session resolved");
    (reply, outcome)
}

#[test]
fn every_command_is_gated_on_its_path_and_action() {
    let w = world();
    let other = "/home/jdoe/run2.dat";
    let rows = [
        (Dialect::Classic, format!("GET {GRANTED}"), true),
        (Dialect::Classic, format!("GET {other}"), false),
        (Dialect::Classic, format!("PUT {GRANTED}"), false),
        (Dialect::Resumable, format!("GETR {GRANTED} 0"), true),
        (Dialect::Resumable, format!("GETR {other} 0"), false),
        (Dialect::Resumable, format!("PUTR {GRANTED} 4"), false),
        (Dialect::Striped, format!("SIZE {GRANTED}"), true),
        (Dialect::Striped, format!("GETS {GRANTED} 0 4"), true),
        (Dialect::Striped, format!("GETS {other} 0 4"), false),
        (Dialect::Striped, format!("PUTS {GRANTED} 0 4 4"), false),
        (Dialect::Striped, format!("FINS {GRANTED} 4 00 0-4"), false),
    ];
    for (dialect, command, permitted) in rows {
        let (reply, outcome) = one_command(&w, dialect, &command);
        let refused = outcome == Err(FtpError::RightsRefused(AuthzError::NotGranted));
        assert_eq!(!refused, permitted, "{command}: {reply} / {outcome:?}");
        assert_eq!(reply.starts_with("ERR"), !permitted, "{command}: {reply}");
    }
}
