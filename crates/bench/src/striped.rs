//! Shared harness for the striped-GridFTP goodput experiments.
//!
//! `striped_xfer` (the bench bin) and `perf_guard` (the CI gate) must
//! measure the *same* deterministic quantity, so the world construction
//! and per-cell runner live here: one CA/host/user world, one seeded
//! payload, and one `run_get_cell` that fetches it over N lossy stripes
//! and reports the tick-model outcome. Everything is a pure function of
//! the seeds — no wall clock enters the goodput figures.

use std::sync::{Arc, Mutex};

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gridftp::congestion::AimdConfig;
use gridsec_gridftp::poll::{Dialect, SessionTask};
use gridsec_gridftp::stripe::{striped_get, StripeOpts, StripedOutcome};
use gridsec_gridftp::GridFtpServer;
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::net::{Network, SimStream, StreamPair, StreamStats};
use gridsec_testbed::os::{FileMode, SimOs};
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::TlsError;
use gridsec_util::retry::RetryPolicy;

use crate::bench_world;

/// One GridFTP server plus the client credential that maps into it.
pub struct StripedWorld {
    /// Trust anchors shared by both sides.
    pub trust: TrustStore,
    /// Client credential (maps to `jdoe` via the grid-mapfile).
    pub user: Credential,
    /// The server, shared by every spawned data-channel session.
    pub server: Arc<Mutex<GridFtpServer>>,
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
        server: Arc::new(Mutex::new(server)),
    }
}

/// Deterministic payload shared by every cell.
pub fn striped_payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 % 251) as u8).collect()
}

/// Seed `path` on the server with `data`, owned by `jdoe`.
pub fn seed_file(w: &StripedWorld, path: &str, data: &[u8]) {
    let s = w.server.lock().expect("server lock");
    let uid = s.os().uid_of("node1", "jdoe").expect("jdoe uid");
    s.os()
        .write_file("node1", path, uid, FileMode::private(), data.to_vec())
        .expect("seed bench file");
}

/// Dialer spawning one sans-io striped server task per dial over a
/// seeded lossy pair, on a scheduler it owns (the client's reads find
/// it through the pair). `base_seed` isolates cells from each other.
fn dialer(
    w: &StripedWorld,
    base_seed: u64,
    drop: f64,
) -> impl FnMut(usize, u32) -> Result<(SimStream, StreamStats), TlsError> {
    let task = SessionTask {
        server: Arc::clone(&w.server),
        dialect: Dialect::Striped,
        now: 100,
        plan: CrashPlan::disabled(),
    };
    let net = Network::new();
    let mut sched = Scheduler::new(&net);
    let mut n = 0u64;
    move |slot, _attempt| {
        n += 1;
        let seed = base_seed.wrapping_add(n).wrapping_add((slot as u64) << 32);
        let (a, b, stats) = StreamPair::lossy(seed, drop);
        let mailbox = format!("bench-stripe-{base_seed:x}-{slot}-{n}");
        task.spawn(&mut sched, &net, &mailbox, b, &seed.to_be_bytes());
        Ok((a, stats))
    }
}

/// Fetch `path` once with `drop` loss. `stripes = Some(n)` pins the
/// stripe count (the goodput-vs-parallelism curve); `None` lets the
/// AIMD controller adapt. Deterministic for a given `(base_seed, drop,
/// stripes)` triple.
pub fn run_get_cell(
    w: &StripedWorld,
    base_seed: u64,
    drop: f64,
    stripes: Option<u32>,
    path: &str,
) -> StripedOutcome {
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
    striped_get(&config, &mut rng, RetryPolicy::default(), dial, path, opts)
        .expect("striped bench cell completes")
}
