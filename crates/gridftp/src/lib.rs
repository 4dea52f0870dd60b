//! # gridsec-gridftp
//!
//! A GridFTP-like secured data-movement service — the third GT2 service
//! family the paper names ("GT2 includes services for Grid Resource
//! Allocation and Management (GRAM), Monitoring and Discovery (MDS), and
//! data movement (GridFTP)", §3) — for the `gridsec` reproduction of
//! *Security for Grid Services* (Welch et al., HPDC 2003).
//!
//! Its role in the reproduction is to make the **limited proxy** policy
//! split observable end to end: GT2's site-defined reduced-rights set
//! lets a limited proxy *move data* but not *start jobs*. This service
//! accepts both `Full` and `Limited` rights; `gridsec-gram` refuses
//! `Limited`. (`Independent` proxies inherit nothing and are refused
//! here too.)
//!
//! Protocol: a GT2-style mutually-authenticated secure channel
//! (`gridsec-tls`), then length-framed commands — `GET <path>`,
//! `PUT <path>` + data, `QUIT` — against files in the mapped user's
//! account on the simulated OS, with SimOs permission enforcement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod congestion;
pub mod poll;
pub mod resume;
pub mod stripe;

use std::io::{Read, Write};

use gridsec_authz::gridmap::GridMapFile;
use gridsec_bignum::prime::EntropySource;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::os::SimOs;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::stream::{client_connect, SecureStream};

/// Errors from transfer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtpError {
    /// Channel establishment or I/O failure.
    Channel(String),
    /// The peer's rights do not permit data movement.
    RightsRefused(&'static str),
    /// No grid-mapfile entry for the client.
    NoMapping(String),
    /// File access denied or missing.
    File(String),
    /// Protocol violation.
    Protocol(String),
    /// A transfer-engine invariant did not hold (e.g. bookkeeping state
    /// lost across a torn session). Returned instead of panicking so
    /// fault-injection runs degrade into a failed transfer, never a
    /// crashed client.
    Xfer(&'static str),
}

impl core::fmt::Display for FtpError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FtpError::Channel(m) => write!(f, "channel error: {m}"),
            FtpError::RightsRefused(m) => write!(f, "rights refused: {m}"),
            FtpError::NoMapping(dn) => write!(f, "no mapping for {dn}"),
            FtpError::File(m) => write!(f, "file error: {m}"),
            FtpError::Protocol(m) => write!(f, "protocol error: {m}"),
            FtpError::Xfer(m) => write!(f, "transfer invariant violated: {m}"),
        }
    }
}

impl std::error::Error for FtpError {}

/// A GridFTP-like server bound to one simulated host.
pub struct GridFtpServer {
    /// Host name in the simulated OS.
    pub host: String,
    os: SimOs,
    credential: Credential,
    trust: TrustStore,
    gridmap: GridMapFile,
    /// Transfers served (gets + puts).
    pub transfers: u64,
}

impl GridFtpServer {
    /// Create a server. Accounts for mapped users must already exist (or
    /// are created here).
    pub fn new(
        os: SimOs,
        host: &str,
        credential: Credential,
        trust: TrustStore,
        gridmap: GridMapFile,
    ) -> Result<Self, FtpError> {
        os.add_host(host);
        for e in gridmap.entries() {
            for a in &e.accounts {
                os.add_account(host, a)
                    .map_err(|e| FtpError::File(e.to_string()))?;
            }
        }
        Ok(GridFtpServer {
            host: host.to_string(),
            os,
            credential,
            trust,
            gridmap,
            transfers: 0,
        })
    }

    /// Shared OS handle (for test assertions).
    pub fn os(&self) -> &SimOs {
        &self.os
    }
}

/// A client session for one connected transfer channel.
pub struct GridFtpClient<S: Read + Write> {
    stream: SecureStream<S>,
}

impl<S: Read + Write> GridFtpClient<S> {
    /// Connect and authenticate over a raw stream.
    pub fn connect<E: EntropySource>(
        stream: S,
        credential: Credential,
        trust: TrustStore,
        now: u64,
        rng: &mut E,
    ) -> Result<Self, FtpError> {
        let config = TlsConfig::new(credential, trust, now);
        let mut secured =
            client_connect(stream, config, rng).map_err(|e| FtpError::Channel(e.to_string()))?;
        let greeting = secured
            .recv()
            .map_err(|e| FtpError::Channel(e.to_string()))?;
        let text = String::from_utf8_lossy(&greeting).into_owned();
        if !text.starts_with("OK") {
            return Err(FtpError::Protocol(text));
        }
        Ok(GridFtpClient { stream: secured })
    }

    /// Fetch a remote file.
    pub fn get(&mut self, path: &str) -> Result<Vec<u8>, FtpError> {
        self.stream
            .send(format!("GET {path}").as_bytes())
            .map_err(|e| FtpError::Channel(e.to_string()))?;
        let header = self
            .stream
            .recv()
            .map_err(|e| FtpError::Channel(e.to_string()))?;
        let text = String::from_utf8_lossy(&header).into_owned();
        if let Some(len) = text.strip_prefix("DATA ") {
            let expected: usize = len
                .parse()
                .map_err(|_| FtpError::Protocol("bad DATA header".to_string()))?;
            let data = self
                .stream
                .recv()
                .map_err(|e| FtpError::Channel(e.to_string()))?;
            if data.len() != expected {
                return Err(FtpError::Protocol("length mismatch".to_string()));
            }
            Ok(data)
        } else {
            Err(FtpError::File(text))
        }
    }

    /// Store a remote file.
    pub fn put(&mut self, path: &str, data: &[u8]) -> Result<(), FtpError> {
        self.stream
            .send(format!("PUT {path}").as_bytes())
            .map_err(|e| FtpError::Channel(e.to_string()))?;
        self.stream
            .send(data)
            .map_err(|e| FtpError::Channel(e.to_string()))?;
        let reply = self
            .stream
            .recv()
            .map_err(|e| FtpError::Channel(e.to_string()))?;
        if reply == b"STORED" {
            Ok(())
        } else {
            Err(FtpError::File(String::from_utf8_lossy(&reply).into_owned()))
        }
    }

    /// End the session.
    pub fn quit(mut self) -> Result<(), FtpError> {
        self.stream
            .send(b"QUIT")
            .map_err(|e| FtpError::Channel(e.to_string()))?;
        let _ = self.stream.recv();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::proxy::{issue_proxy, ProxyType};
    use gridsec_testbed::faults::CrashPlan;
    use gridsec_testbed::net::{Network, StreamPair};
    use gridsec_testbed::os::{FileMode, ROOT_UID};
    use gridsec_testbed::sched::Scheduler;
    use std::sync::{Arc, Mutex};

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        rng: ChaChaRng,
        trust: TrustStore,
        jane: Credential,
        server: Arc<Mutex<GridFtpServer>>,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gridftp tests");
        let ca = CertificateAuthority::create_root(&mut rng, dn("/O=G/CN=CA"), 512, 0, 1_000_000);
        let jane = ca.issue_identity(&mut rng, dn("/O=G/CN=Jane"), 512, 0, 500_000);
        let host = ca.issue_host_identity(
            &mut rng,
            dn("/O=G/CN=host data1"),
            vec!["data1".into()],
            512,
            0,
            500_000,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        let gridmap = GridMapFile::parse("\"/O=G/CN=Jane\" jdoe\n").unwrap();
        let server =
            GridFtpServer::new(SimOs::new(), "data1", host, trust.clone(), gridmap).unwrap();
        World {
            rng,
            trust,
            jane,
            server: Arc::new(Mutex::new(server)),
        }
    }

    /// Run client ops against the server on a stream pair; the server
    /// runs as a sans-io scheduler task, inside the client's reads.
    fn with_session<F, R>(
        w: &mut World,
        cred: Credential,
        f: F,
    ) -> (Result<R, FtpError>, Result<u64, FtpError>)
    where
        F: FnOnce(&mut GridFtpClient<gridsec_testbed::net::SimStream>) -> Result<R, FtpError>,
    {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let (a, b, _) = StreamPair::new();
        let task = poll::SessionTask {
            server: Arc::clone(&w.server),
            dialect: poll::Dialect::Classic,
            now: 100,
            plan: CrashPlan::disabled(),
        };
        let served = task.spawn(&mut sched, &net, "ftp-classic", b, b"server side");
        let mut client_rng = ChaChaRng::from_seed_bytes(b"client side");
        let result = GridFtpClient::connect(a, cred, w.trust.clone(), 100, &mut client_rng)
            .and_then(|mut client| {
                let out = f(&mut client)?;
                client.quit()?;
                Ok(out)
            });
        // Drain the scheduler so the server task observes the client's
        // close and resolves its outcome.
        sched.run();
        let served = served.borrow_mut().take().expect("server session resolved");
        (result, served)
    }

    #[test]
    fn put_then_get_roundtrip() {
        let mut w = world();
        let jane = w.jane.clone();
        let (result, served) = with_session(&mut w, jane, |c| {
            c.put("/home/jdoe/results.dat", b"simulation output")?;
            c.get("/home/jdoe/results.dat")
        });
        assert_eq!(result.unwrap(), b"simulation output");
        assert_eq!(served.unwrap(), 2);
        // File landed under the mapped account's uid.
        let srv = w.server.lock().unwrap();
        let uid = srv.os().uid_of("data1", "jdoe").unwrap();
        assert!(srv
            .os()
            .read_file("data1", "/home/jdoe/results.dat", uid)
            .is_ok());
    }

    #[test]
    fn limited_proxy_may_transfer() {
        let mut w = world();
        let limited =
            issue_proxy(&mut w.rng, &w.jane, ProxyType::Limited, 512, 50, 10_000).unwrap();
        let (result, _) = with_session(&mut w, limited, |c| {
            c.put("/home/jdoe/from-limited.dat", b"data mover")
        });
        // The split the paper's §3 describes: limited is enough here
        // (GRAM refuses the same proxy — tested in gridsec-gram).
        assert!(result.is_ok());
    }

    #[test]
    fn independent_proxy_refused() {
        let mut w = world();
        let independent =
            issue_proxy(&mut w.rng, &w.jane, ProxyType::Independent, 512, 50, 10_000).unwrap();
        let (result, served) = with_session(&mut w, independent, |c| c.get("/x"));
        assert!(result.is_err());
        assert_eq!(
            served.unwrap_err(),
            FtpError::RightsRefused("independent proxy")
        );
    }

    #[test]
    fn unmapped_user_refused() {
        let mut w = world();
        let mut rng = ChaChaRng::from_seed_bytes(b"stranger");
        let ca2 = CertificateAuthority::create_root(&mut rng, dn("/O=G2/CN=CA"), 512, 0, 1000);
        // Trusted CA but unmapped user: add CA2 to server trust first.
        w.server
            .lock()
            .unwrap()
            .trust
            .add_root(ca2.certificate().clone());
        let mut trust2 = w.trust.clone();
        trust2.add_root(ca2.certificate().clone());
        w.trust = trust2;
        let stranger = ca2.issue_identity(&mut rng, dn("/O=G2/CN=Stray"), 512, 0, 1000);
        let (result, served) = with_session(&mut w, stranger, |c| c.get("/x"));
        assert!(result.is_err());
        assert!(matches!(served.unwrap_err(), FtpError::NoMapping(_)));
    }

    #[test]
    fn permissions_enforced_within_account() {
        let mut w = world();
        // A root-owned private file is invisible to jdoe.
        w.server
            .lock()
            .unwrap()
            .os()
            .write_file(
                "data1",
                "/etc/secret",
                ROOT_UID,
                FileMode::private(),
                b"root only".to_vec(),
            )
            .unwrap();
        let jane = w.jane.clone();
        let (result, _) = with_session(&mut w, jane, |c| c.get("/etc/secret"));
        assert!(matches!(result.unwrap_err(), FtpError::File(_)));
    }

    #[test]
    fn untrusted_client_cannot_even_handshake() {
        let mut w = world();
        let mut rng = ChaChaRng::from_seed_bytes(b"rogue");
        let rogue = CertificateAuthority::create_root(&mut rng, dn("/O=E/CN=CA"), 512, 0, 1000);
        let mallory = rogue.issue_identity(&mut rng, dn("/O=E/CN=M"), 512, 0, 1000);
        let (result, served) = with_session(&mut w, mallory, |c| c.get("/x"));
        assert!(matches!(result.unwrap_err(), FtpError::Channel(_)));
        assert!(matches!(served.unwrap_err(), FtpError::Channel(_)));
    }

    #[test]
    fn missing_file_reports_error_not_disconnect() {
        let mut w = world();
        let jane = w.jane.clone();
        let (result, served) = with_session(&mut w, jane, |c| {
            let miss = c.get("/home/jdoe/nope.dat");
            assert!(matches!(miss.unwrap_err(), FtpError::File(_)));
            // Session still usable afterwards.
            c.put("/home/jdoe/ok.dat", b"fine")
        });
        assert!(result.is_ok());
        assert_eq!(served.unwrap(), 1);
    }
}
