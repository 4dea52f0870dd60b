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
//! The client is [`crate::client`]'s engine at one stripe.

use gridsec_bignum::prime::EntropySource;
use gridsec_testbed::net::SimStream;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::retry::RetryPolicy;

use crate::client::{run, Job, XferOutcome};
use crate::congestion::AimdConfig;
use crate::poll::Dialect;
use crate::stripe::StripeOpts;
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

/// One stripe, with `max_sessions` as its tear budget.
fn one_stripe(max_sessions: u32) -> StripeOpts {
    StripeOpts {
        max_sessions,
        aimd: AimdConfig::pinned_stripes(1),
        ..StripeOpts::default()
    }
}

/// Fetch `path` with resume-on-tear. `dial` opens a fresh connection
/// per session; `max_sessions` is the tear budget
/// ([`StripeOpts::max_sessions`]).
pub fn resumable_get<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: impl FnMut(usize) -> SimStream,
    path: &str,
    max_sessions: u32,
) -> Result<XferOutcome, FtpError> {
    let job = Job {
        dialect: Dialect::Resumable,
        path,
        upload: None,
    };
    run(config, rng, policy, dial, job, one_stripe(max_sessions))
}

/// Store `data` at `path` with resume-on-tear; the server's durable
/// `.part` staging file carries progress across tears and crashes.
pub fn resumable_put<E: EntropySource>(
    config: &TlsConfig,
    rng: &mut E,
    policy: RetryPolicy,
    dial: impl FnMut(usize) -> SimStream,
    path: &str,
    data: &[u8],
    max_sessions: u32,
) -> Result<XferOutcome, FtpError> {
    let job = Job {
        dialect: Dialect::Resumable,
        path,
        upload: Some(data),
    };
    run(config, rng, policy, dial, job, one_stripe(max_sessions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poll::SessionTask;
    use crate::GridFtpServer;
    use gridsec_authz::gridmap::GridMapFile;
    use gridsec_crypto::rng::ChaChaRng;
    use gridsec_crypto::sha256::sha256;
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
    ) -> impl FnMut(usize) -> SimStream {
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
            client
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
        assert!(out.tears >= 1, "expected tears, got {}", out.tears);
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
        assert!(out.tears >= 1, "expected tears, got {}", out.tears);
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
        assert_eq!(out.tears, 1);
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
