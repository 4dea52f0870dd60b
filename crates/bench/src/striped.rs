//! Shared harness for the striped-GridFTP goodput experiments.
//!
//! `striped_xfer` (the bench bin) and `perf_guard` (the CI gate) must
//! measure the *same* deterministic quantity, so the world construction
//! and per-cell runner live here: one CA/host/user world, one seeded
//! payload, and one `run_get_cell` that fetches it over N stripes on a
//! WAN with latency and reports the outcome in sim seconds. Everything
//! is a pure function of the seeds — no wall clock enters the goodput
//! figures.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gridftp::client::XferOutcome;
use gridsec_gridftp::congestion::AimdConfig;
use gridsec_gridftp::poll::{Dialect, SessionTask};
use gridsec_gridftp::stripe::{striped_get, StripeOpts};
use gridsec_gridftp::GridFtpServer;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::net::{FaultProfile, Network, SimStream};
use gridsec_testbed::os::{FileMode, SimOs};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::retry::RetryPolicy;

use crate::bench_world;

/// One GridFTP server plus the client credential that maps into it.
pub struct StripedWorld {
    /// Trust anchors shared by both sides.
    pub trust: TrustStore,
    /// Client credential (maps to `jdoe` via the grid-mapfile).
    pub user: Credential,
    /// The server, shared by every spawned data-channel session.
    pub server: Rc<RefCell<GridFtpServer>>,
}

/// Build the striped bench world: single CA, host `node1`, user mapped
/// to `jdoe`. Reuses [`bench_world`] so every bench shares key sizes.
pub fn striped_world(seed: &[u8]) -> StripedWorld {
    let w = bench_world(seed);
    let gridmap = GridMapFile::parse("\"/O=B/CN=User\" jdoe\n").expect("bench gridmap");
    let server = GridFtpServer::new(SimOs::new(), "node1", w.host, w.trust.clone(), gridmap)
        .expect("bench gridftp server");
    StripedWorld {
        trust: w.trust,
        user: w.user,
        server: Rc::new(RefCell::new(server)),
    }
}

/// Deterministic payload shared by every cell.
pub fn striped_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Seed `path` on the server with `data`, owned by `jdoe`.
pub fn seed_file(w: &StripedWorld, path: &str, data: &[u8]) {
    let s = w.server.borrow();
    let uid = s.os().uid_of("node1", "jdoe").expect("jdoe uid");
    s.os()
        .write_file("node1", path, uid, FileMode::private(), data.to_vec())
        .expect("seed bench file");
}

/// The bench WAN: 1–4 s latency, a 25% chance of up to 3 s reorder
/// jitter, and a fraction `drop` of segments lost.
fn wan(drop: f64) -> FaultProfile {
    FaultProfile {
        drop,
        duplicate: 0.0,
        ..FaultProfile::lossy_wan()
    }
}

/// Reply timeouts above the bench WAN's worst round trip (2 × 7 s).
fn wan_policy() -> RetryPolicy {
    RetryPolicy {
        base_timeout: 16,
        max_timeout: 64,
        ..RetryPolicy::default()
    }
}

/// Dialer spawning one sans-io striped server task per dial, each over a
/// fresh connection in one world under [`wan`]`(drop)` (seeded by
/// `base_seed`, which isolates cells from each other). No transcript is
/// kept: the cell reads outcomes.
fn dialer(w: &StripedWorld, base_seed: u64, drop: f64) -> impl FnMut(usize) -> SimStream {
    let task = SessionTask {
        server: Rc::clone(&w.server),
        dialect: Dialect::Striped,
        now: 100,
        plan: CrashPlan::disabled(),
    };
    let net = Network::new();
    net.enable_faults(SimClock::new(), base_seed, wan(drop));
    net.set_transcript_recording(false);
    let mut sched = Scheduler::new(&net);
    let mut n = 0u64;
    move |slot| {
        n += 1;
        let conn = format!("{slot}-{n}");
        let (client, server) = net.connect(&format!("user:{conn}"), &format!("node1:{conn}"));
        task.spawn(
            &mut sched,
            server,
            &(n + ((slot as u64) << 32)).to_be_bytes(),
        );
        client
    }
}

/// Fetch `path` once over the bench WAN with `drop` loss.
/// `stripes = Some(n)` pins the stripe count (the
/// goodput-vs-parallelism curve); `None` lets the AIMD controller adapt.
/// Deterministic for a given `(base_seed, drop, stripes)` triple.
pub fn run_get_cell(
    w: &StripedWorld,
    base_seed: u64,
    drop: f64,
    stripes: Option<u32>,
    path: &str,
) -> XferOutcome {
    let aimd = match stripes {
        Some(n) => AimdConfig::pinned_stripes(n),
        None => AimdConfig::default(),
    };
    let opts = StripeOpts {
        aimd,
        max_sessions: 256,
        seed: base_seed ^ 0x57A1_BE11,
        ..StripeOpts::default()
    };
    let mut rng = ChaChaRng::from_seed_bytes(&base_seed.to_be_bytes());
    let config = TlsConfig::new(w.user.clone(), w.trust.clone(), 100);
    let dial = dialer(w, base_seed, drop);
    striped_get(&config, &mut rng, wan_policy(), dial, path, opts)
        .expect("striped bench cell completes")
}
