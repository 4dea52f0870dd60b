//! Restart-marker resumable transfers (`GETR`/`PUTR`).
//!
//! Real GridFTP survives WAN faults with *restart markers*: the
//! receiver periodically records how much data is safely on disk, and
//! after a failure the transfer resumes from the marker instead of from
//! byte zero. This module reproduces that contract on the simulated
//! testbed, where a connection tears deterministically when the
//! world's fault profile loses one of its segments
//! ([`SimStream`](gridsec_testbed::net::SimStream)) and the server
//! process can be killed mid-transfer by a
//! [`CrashPlan`](gridsec_testbed::faults::CrashPlan).
//!
//! Protocol (after the same secure-channel prologue as the classic
//! session):
//!
//! * `GETR <path> <offset>` → `DATA <total> <offset> <sha256>` followed
//!   by ≤[`CHUNK`]-byte data records from `offset`. Every delivered
//!   chunk is a restart marker: the client's buffer length *is* the
//!   offset it asks for on the next session.
//! * `PUTR <path> <total>` → `OFFSET <n>`, where `n` is read back from
//!   the durable `<path>.part` staging file (the server's journal for
//!   uploads — it lives in [`SimOs`](gridsec_testbed::os::SimOs), so it
//!   survives process death). The client streams chunks from `n`; each
//!   is appended durably on receipt. At `total` bytes the server
//!   promotes `.part` to the final path and replies `STORED <sha256>`.
//!   A repeat `PUTR` of an already-complete file short-circuits to
//!   `OFFSET <total>` → `STORED`, so retransmitted uploads are
//!   idempotent.
//!
//! Recovery contract: a torn connection or a kill at `xfer.get.chunk` /
//! `xfer.put.chunk` never loses acknowledged bytes and never duplicates
//! bytes — the resume offset is always derived from durable state (the
//! client buffer for GET, the `.part` file for PUT), and the final
//! digests prove end-to-end integrity.
//!
//! Tracing is client-side only (`xfer.get` / `xfer.put` spans,
//! `xfer.resume` events, `xfer.bytes_*` / `xfer.resumes` counters), so
//! flight-recorder dumps carry one side of the story: server sessions
//! are scheduler tasks on the same thread and emit no trace events.

use std::io::{Read, Write};

use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::sha256::sha256;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::retry::{connect_with_retry, is_transient, ConnectStats};
use gridsec_tls::stream::SecureStream;
use gridsec_tls::TlsError;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace::{self, SpanGuard};

use crate::FtpError;

/// Data-record size: every `CHUNK` bytes delivered is a restart marker.
pub const CHUNK: usize = 256;

/// Lowercase hex of a digest.
pub(crate) fn hex(d: &[u8]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

pub(crate) fn parse_two(rest: &str) -> Option<(String, usize)> {
    let mut it = rest.split_whitespace();
    let path = it.next()?.to_string();
    let n: usize = it.next()?.parse().ok()?;
    if it.next().is_some() {
        return None;
    }
    Some((path, n))
}

/// Outcome of a completed resumable transfer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct XferOutcome {
    /// Fetched bytes (GET) — empty for PUT.
    pub bytes: Vec<u8>,
    /// Sessions that ended in a torn connection and were resumed.
    pub resumes: u32,
    /// Total secure sessions established (≥ 1).
    pub sessions: u32,
    /// Hex SHA-256 of the transferred file, verified end to end.
    pub sha256: String,
}

/// How one session attempt ended.
pub(crate) enum SessionErr {
    /// Transport tear — redial and resume from the restart marker.
    /// Which side saw the tear first (own lost write, peer reset, or
    /// EOF from a killed server) is scheduling-dependent, so the tear
    /// carries no detail: nothing nondeterministic may reach the trace.
    Torn,
    /// Deterministic refusal (security, protocol, file) — give up.
    Fatal(FtpError),
}

pub(crate) fn tls_err(e: TlsError) -> SessionErr {
    if is_transient(&e) {
        SessionErr::Torn
    } else {
        SessionErr::Fatal(FtpError::channel(e))
    }
}

/// Fetch `path` with resume-on-tear. `dial` produces a fresh raw stream
/// per attempt (sessions and handshake retries share its counter);
/// `max_sessions` bounds how many times the transfer may resume.
pub fn resumable_get<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    mut dial: D,
    path: &str,
    max_sessions: u32,
) -> Result<XferOutcome, FtpError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(u32) -> Result<S, TlsError>,
{
    let mut sp = trace::span_with("xfer.get", path);
    // The restart marker (the bytes so far) and the digest they must hash to.
    let mut got: (Vec<u8>, Option<String>) = (Vec::new(), None);
    let (mut stream, (), sessions) = run_sessions(
        || connect_with_retry(config, rng, policy, &mut dial),
        max_sessions,
        &mut sp,
        &mut got,
        |(buf, _)| format!("get {path} offset={}", buf.len()),
        |stream, (buf, expected_sha)| get_once(stream, path, buf, expected_sha),
    )?;
    let (buf, expected_sha) = got;
    let digest = hex(&sha256(&buf));
    if expected_sha.as_deref() != Some(digest.as_str()) {
        sp.fail("digest mismatch");
        return Err(FtpError::Protocol(
            "transferred data does not match server digest".to_string(),
        ));
    }
    let _ = stream.send(b"QUIT");
    let _ = stream.recv();
    trace::add("xfer.bytes_got", buf.len() as u64);
    Ok(XferOutcome {
        bytes: buf,
        resumes: sessions - 1,
        sessions,
        sha256: digest,
    })
}

/// The session loop both resumable transfers share: check the budget,
/// count the session — a resumed one with an `xfer.resume` event whose
/// text `resumed` renders from `state` — connect, and run one `once`
/// session on `state`. A tear (in the handshake or mid-session) goes
/// round again; a refusal ends the transfer. Returns the finished
/// session's stream and result, and the sessions it took.
fn run_sessions<S, St, T>(
    mut connect: impl FnMut() -> Result<(SecureStream<S>, ConnectStats), TlsError>,
    max_sessions: u32,
    sp: &mut SpanGuard,
    state: &mut St,
    resumed: impl Fn(&St) -> String,
    mut once: impl FnMut(&mut SecureStream<S>, &mut St) -> Result<T, SessionErr>,
) -> Result<(SecureStream<S>, T, u32), FtpError>
where
    S: Read + Write,
{
    let mut sessions = 0u32;
    loop {
        if sessions >= max_sessions {
            sp.fail("resume budget exhausted");
            return Err(FtpError::Channel("resume budget exhausted".to_string()));
        }
        sessions += 1;
        if sessions > 1 {
            trace::event("xfer.resume", &resumed(state));
            trace::add("xfer.resumes", 1);
        }
        let mut stream = match connect() {
            Ok((s, _)) => s,
            Err(e) if is_transient(&e) => continue,
            Err(e) => {
                sp.fail("connect failed");
                return Err(FtpError::channel(e));
            }
        };
        match once(&mut stream, state) {
            Ok(done) => return Ok((stream, done, sessions)),
            Err(SessionErr::Torn) => continue,
            Err(SessionErr::Fatal(e)) => {
                sp.fail(&e.to_string());
                return Err(e);
            }
        }
    }
}

/// One GET session: greet, request from the restart marker, drain
/// chunks into `buf` until complete or the connection tears.
fn get_once<S: Read + Write>(
    stream: &mut SecureStream<S>,
    path: &str,
    buf: &mut Vec<u8>,
    expected_sha: &mut Option<String>,
) -> Result<(), SessionErr> {
    greet(stream)?;
    stream
        .send(format!("GETR {path} {}", buf.len()).as_bytes())
        .map_err(tls_err)?;
    let header = recv_text(stream)?;
    let mut it = header.split_whitespace();
    if it.next() != Some("DATA") {
        return Err(SessionErr::Fatal(FtpError::File(header)));
    }
    let total: usize = parse_field(it.next())?;
    let offset: usize = parse_field(it.next())?;
    let sha = it
        .next()
        .ok_or_else(|| SessionErr::Fatal(FtpError::Protocol("bad DATA header".to_string())))?
        .to_string();
    if offset != buf.len() {
        return Err(SessionErr::Fatal(FtpError::Protocol(
            "server ignored restart marker".to_string(),
        )));
    }
    match expected_sha {
        Some(prev) if *prev != sha => {
            return Err(SessionErr::Fatal(FtpError::Protocol(
                "file changed between resume sessions".to_string(),
            )))
        }
        Some(_) => {}
        None => *expected_sha = Some(sha),
    }
    while buf.len() < total {
        let chunk = stream.recv().map_err(tls_err)?;
        if buf.len() + chunk.len() > total {
            return Err(SessionErr::Fatal(FtpError::Protocol(
                "download overruns declared total".to_string(),
            )));
        }
        buf.extend_from_slice(&chunk);
    }
    Ok(())
}

/// Store `data` at `path` with resume-on-tear; the server's durable
/// `.part` staging file carries progress across tears and crashes.
pub fn resumable_put<S, E, D>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    mut dial: D,
    path: &str,
    data: &[u8],
    max_sessions: u32,
) -> Result<XferOutcome, FtpError>
where
    S: Read + Write,
    E: EntropySource,
    D: FnMut(u32) -> Result<S, TlsError>,
{
    let mut sp = trace::span_with("xfer.put", path);
    let local_sha = hex(&sha256(data));
    let (mut stream, server_sha, sessions) = run_sessions(
        || connect_with_retry(config, rng, policy, &mut dial),
        max_sessions,
        &mut sp,
        &mut (),
        |()| format!("put {path}"),
        |stream, ()| put_once(stream, path, data),
    )?;
    if server_sha != local_sha {
        sp.fail("digest mismatch");
        return Err(FtpError::Protocol(
            "server stored different bytes than sent".to_string(),
        ));
    }
    let _ = stream.send(b"QUIT");
    let _ = stream.recv();
    trace::add("xfer.bytes_put", data.len() as u64);
    Ok(XferOutcome {
        bytes: Vec::new(),
        resumes: sessions - 1,
        sessions,
        sha256: local_sha,
    })
}

/// One PUT session: greet, learn the durable offset, stream the
/// remainder, collect the `STORED` digest.
fn put_once<S: Read + Write>(
    stream: &mut SecureStream<S>,
    path: &str,
    data: &[u8],
) -> Result<String, SessionErr> {
    greet(stream)?;
    stream
        .send(format!("PUTR {path} {}", data.len()).as_bytes())
        .map_err(tls_err)?;
    let reply = recv_text(stream)?;
    let offset: usize = match reply.strip_prefix("OFFSET ") {
        Some(n) => parse_field(Some(n))?,
        None => return Err(SessionErr::Fatal(FtpError::File(reply))),
    };
    if offset > data.len() {
        return Err(SessionErr::Fatal(FtpError::Protocol(
            "server claims more bytes than sent".to_string(),
        )));
    }
    let mut pos = offset;
    while pos < data.len() {
        let end = (pos + CHUNK).min(data.len());
        stream.send(&data[pos..end]).map_err(tls_err)?;
        pos = end;
    }
    let done = recv_text(stream)?;
    match done.strip_prefix("STORED ") {
        Some(sha) => Ok(sha.to_string()),
        None => Err(SessionErr::Fatal(FtpError::File(done))),
    }
}

pub(crate) fn greet<S: Read + Write>(stream: &mut SecureStream<S>) -> Result<(), SessionErr> {
    let text = recv_text(stream)?;
    if text.starts_with("OK") {
        Ok(())
    } else {
        Err(SessionErr::Fatal(FtpError::Protocol(text)))
    }
}

pub(crate) fn recv_text<S: Read + Write>(
    stream: &mut SecureStream<S>,
) -> Result<String, SessionErr> {
    let msg = stream.recv().map_err(tls_err)?;
    Ok(String::from_utf8_lossy(&msg).into_owned())
}

pub(crate) fn parse_field<T: std::str::FromStr>(f: Option<&str>) -> Result<T, SessionErr> {
    f.and_then(|s| s.parse().ok())
        .ok_or_else(|| SessionErr::Fatal(FtpError::Protocol("bad numeric field".to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::{Dialect, SessionTask};
    use crate::GridFtpServer;
    use gridsec_authz::gridmap::GridMapFile;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_pki::ca::CertificateAuthority;
    use gridsec_pki::credential::Credential;
    use gridsec_pki::name::DistinguishedName;
    use gridsec_pki::store::TrustStore;
    use gridsec_testbed::clock::SimClock;
    use gridsec_testbed::faults::CrashPlan;
    use gridsec_testbed::net::{FaultProfile, Network, SimStream};
    use gridsec_testbed::os::{FileMode, SimOs};
    use gridsec_testbed::sched::Scheduler;
    use gridsec_util::trace::{install, Tracer};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn dn(s: &str) -> DistinguishedName {
        DistinguishedName::parse(s).unwrap()
    }

    struct World {
        trust: TrustStore,
        jane: Credential,
        server: Rc<RefCell<GridFtpServer>>,
    }

    fn world() -> World {
        let mut rng = ChaChaRng::from_seed_bytes(b"gridftp resume tests");
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
            trust,
            jane,
            server: Rc::new(RefCell::new(server)),
        }
    }

    /// Deterministic test payload: `len` bytes, low-entropy but varied.
    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 % 251) as u8).collect()
    }

    /// A dialer that spawns one sans-io server task per dial, each over
    /// a fresh connection in one world whose only fault is `drop`
    /// (seeded by `base_seed`), with a distinct, deterministic server
    /// rng; the client's reads run the tasks.
    fn dialer(
        w: &World,
        plan: CrashPlan,
        base_seed: u64,
        drop: f64,
    ) -> impl FnMut(u32) -> Result<SimStream, TlsError> {
        let task = SessionTask {
            server: Rc::clone(&w.server),
            dialect: Dialect::Resumable,
            now: 100,
            plan,
        };
        let net = Network::new();
        let profile = FaultProfile {
            drop,
            ..FaultProfile::default()
        };
        net.enable_faults(SimClock::new(), base_seed, profile);
        let mut sched = Scheduler::new(&net);
        let mut n = 0u64;
        move |_| {
            n += 1;
            let (client, server) = net.connect(&format!("jane:{n}"), &format!("data1:{n}"));
            task.spawn(&mut sched, server, &n.to_be_bytes());
            Ok(client)
        }
    }

    fn seed_file(w: &World, path: &str, data: &[u8]) {
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        s.os()
            .write_file("data1", path, uid, FileMode::private(), data.to_vec())
            .unwrap();
    }

    fn run_get(w: &World, plan: CrashPlan, seed: u64, drop: f64, path: &str) -> XferOutcome {
        let mut rng = ChaChaRng::from_seed_bytes(b"resume client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let dial = dialer(w, plan, seed, drop);
        resumable_get(&config, &mut rng, RetryPolicy::default(), dial, path, 64).unwrap()
    }

    fn run_put(
        w: &World,
        plan: CrashPlan,
        seed: u64,
        drop: f64,
        path: &str,
        data: &[u8],
    ) -> XferOutcome {
        let mut rng = ChaChaRng::from_seed_bytes(b"resume client");
        let config = TlsConfig::new(w.jane.clone(), w.trust.clone(), 100);
        let dial = dialer(w, plan, seed, drop);
        let policy = RetryPolicy::default();
        resumable_put(&config, &mut rng, policy, dial, path, data, 64).unwrap()
    }

    #[test]
    fn get_hash_equal_under_10pct_drop() {
        let w = world();
        let data = payload(4096);
        seed_file(&w, "/home/jdoe/big.dat", &data);
        let out = run_get(
            &w,
            CrashPlan::disabled(),
            0x9e_17,
            0.10,
            "/home/jdoe/big.dat",
        );
        assert_eq!(out.bytes, data);
        assert_eq!(out.sha256, hex(&sha256(&data)));
        // 4 KiB in 256-byte chunks over a 10% per-write loss stream
        // cannot complete in one session with this seed.
        assert!(out.resumes >= 1, "expected tears, got {}", out.resumes);
    }

    #[test]
    fn get_is_deterministic_for_a_seed() {
        let w1 = world();
        let w2 = world();
        let data = payload(4096);
        seed_file(&w1, "/home/jdoe/big.dat", &data);
        seed_file(&w2, "/home/jdoe/big.dat", &data);
        let a = run_get(
            &w1,
            CrashPlan::disabled(),
            0x9e_17,
            0.10,
            "/home/jdoe/big.dat",
        );
        let b = run_get(
            &w2,
            CrashPlan::disabled(),
            0x9e_17,
            0.10,
            "/home/jdoe/big.dat",
        );
        assert_eq!(a, b);
    }

    #[test]
    fn put_hash_equal_under_10pct_drop() {
        let w = world();
        let data = payload(4096);
        let out = run_put(
            &w,
            CrashPlan::disabled(),
            0x5a_31,
            0.10,
            "/home/jdoe/up.dat",
            &data,
        );
        assert_eq!(out.sha256, hex(&sha256(&data)));
        assert!(out.resumes >= 1, "expected tears, got {}", out.resumes);
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        let stored = s.os().read_file("data1", "/home/jdoe/up.dat", uid).unwrap();
        assert_eq!(stored, data, "no lost or duplicated bytes");
        // Staging file was promoted and removed.
        assert_eq!(
            s.os().file_len("data1", "/home/jdoe/up.dat.part").unwrap(),
            None
        );
    }

    #[test]
    fn get_resumes_after_injected_crash() {
        let w = world();
        let data = payload(1024);
        seed_file(&w, "/home/jdoe/f.dat", &data);
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.get.chunk", 2); // die sending the second chunk
        let out = run_get(&w, plan.clone(), 0x77, 0.0, "/home/jdoe/f.dat");
        assert_eq!(out.bytes, data);
        assert_eq!(plan.crashes(), 1);
        assert_eq!(out.sessions, 2);
        assert_eq!(out.resumes, 1);
        assert!(plan
            .transcript()
            .iter()
            .any(|l| l.contains("point=xfer.get.chunk")));
    }

    #[test]
    fn put_resumes_from_durable_offset_after_crash() {
        let w = world();
        let data = payload(1024);
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.put.chunk", 3); // die with 2 chunks durable
        let out = run_put(&w, plan.clone(), 0x78, 0.0, "/home/jdoe/g.dat", &data);
        assert_eq!(plan.crashes(), 1);
        assert_eq!(out.sessions, 2);
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        let stored = s.os().read_file("data1", "/home/jdoe/g.dat", uid).unwrap();
        assert_eq!(stored, data, "resume must not lose or duplicate bytes");
        assert_eq!(
            s.os().file_len("data1", "/home/jdoe/g.dat.part").unwrap(),
            None
        );
    }

    #[test]
    fn repeat_put_of_completed_file_is_idempotent() {
        let w = world();
        let data = payload(700);
        run_put(
            &w,
            CrashPlan::disabled(),
            0x80,
            0.0,
            "/home/jdoe/h.dat",
            &data,
        );
        let again = run_put(
            &w,
            CrashPlan::disabled(),
            0x81,
            0.0,
            "/home/jdoe/h.dat",
            &data,
        );
        assert_eq!(again.sha256, hex(&sha256(&data)));
        assert_eq!(again.sessions, 1);
        let s = w.server.borrow();
        let uid = s.os().uid_of("data1", "jdoe").unwrap();
        assert_eq!(
            s.os().read_file("data1", "/home/jdoe/h.dat", uid).unwrap(),
            data
        );
    }

    #[test]
    fn transfer_spans_and_resume_events_reach_the_tracer() {
        let w = world();
        let data = payload(1024);
        seed_file(&w, "/home/jdoe/t.dat", &data);
        let plan = CrashPlan::manual(0);
        plan.arm("xfer.get.chunk", 2);
        let tracer = Tracer::new();
        let dump = {
            let _g = install(&tracer);
            run_get(&w, plan, 0x90, 0.0, "/home/jdoe/t.dat");
            tracer.dump()
        };
        assert!(dump.contains("xfer.get"), "missing span: {dump}");
        assert!(dump.contains("xfer.resume"), "missing event: {dump}");
        let counters = tracer.metrics().counters;
        assert_eq!(counters.get("xfer.bytes_got"), Some(&1024));
        assert_eq!(counters.get("xfer.resumes"), Some(&1));
    }
}
