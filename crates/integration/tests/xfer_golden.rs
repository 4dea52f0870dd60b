//! Cross-commit striped-transfer goldens: the client engine behind
//! `gridftp::stripe::{striped_get, striped_put}` may be restructured,
//! what a seeded striped run observes may not move.
//!
//! Each `xfer.*` pin in `tests/golden.pins` holds the SHA-256 and length
//! of one whole deterministic render. The `xfer.fig5s.*` pins are the
//! striped chaos scenario (`figure5_striped`: GET + PUT of 8 KiB under
//! `lossy_wan()`, a shared token bucket and the AIMD controller) at the chaos
//! suite's default seed, rendered as completion, kill counts, transcript
//! (which embeds the controller's decision log) and trace dump, for four
//! settings: no crashes, seeded crashes, the three armed mid-stripe
//! kills, and a total partition that must exhaust the redial budget.
//! `xfer.put_cells` renders a grid of striped PUTs — one and four pinned
//! stripes and the adaptive controller at 0%, 5% and 10% loss, plus an
//! empty file each way — through dialers shaped like the striped bench
//! harness's: every outcome field, the stored file, and the tracer's
//! counters. The GET grid is held by the recorded `striped_xfer` run.

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_crypto::sha256::sha256;
use gridsec_gridftp::client::XferOutcome;
use gridsec_gridftp::congestion::AimdConfig;
use gridsec_gridftp::poll::{Dialect, SessionTask};
use gridsec_gridftp::stripe::{striped_get, striped_put, StripeOpts};
use gridsec_gridftp::GridFtpServer;
use gridsec_integration::scenarios::{figure5_striped, ChaosOpts};
use gridsec_integration::{basic_world, dn};
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::faults::CrashPlan;
use gridsec_testbed::net::{FaultProfile, Network, SimStream};
use gridsec_testbed::os::SimOs;
use gridsec_testbed::sched::Scheduler;
use gridsec_tls::handshake::TlsConfig;
use gridsec_util::pins;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace::{self, Tracer};

/// The chaos suite's default master seed (`tests/chaos.rs`).
const CHAOS_SEED: u64 = 0xC4A0_5EED;

/// Hold `render` to the pin `name`; a failing run prints it.
fn check_render(name: &str, render: &str) {
    println!("{name}:\n{render}");
    pins::check(name, sha256(render.as_bytes()), render.len());
}

#[test]
fn figure5_striped_renders_are_the_recorded_ones() {
    let armed = ChaosOpts {
        armed_crashes: vec![
            ("xfer.stripe.get.chunk".to_string(), 3),
            ("xfer.stripe.put.chunk".to_string(), 3),
            ("xfer.stripe.merge".to_string(), 1),
        ],
        ..ChaosOpts::default()
    };
    for (name, opts) in [
        ("xfer.fig5s.default", ChaosOpts::default()),
        (
            "xfer.fig5s.crashes",
            ChaosOpts {
                crashes: true,
                ..ChaosOpts::default()
            },
        ),
        ("xfer.fig5s.armed", armed),
        (
            "xfer.fig5s.partition",
            ChaosOpts {
                partition_all: true,
                ..ChaosOpts::default()
            },
        ),
    ] {
        let r = figure5_striped(CHAOS_SEED, &opts);
        let render = format!(
            "completed={} crashes={} restarts={}\n{}\n{}",
            r.completed,
            r.crashes,
            r.restarts,
            r.lines.join("\n"),
            r.trace
        );
        check_render(name, &render);
    }
}

/// One GridFTP server on `node1` and the client credential mapped to
/// `jdoe` on it.
struct World {
    trust: TrustStore,
    user: Credential,
    server: Rc<RefCell<GridFtpServer>>,
}

fn world() -> World {
    let mut w = basic_world(b"xfer golden world");
    let host = w.ca.issue_host_identity(
        &mut w.rng,
        dn("/O=G/CN=host node1"),
        vec!["node1".into()],
        512,
        0,
        1_000_000,
    );
    let gridmap = GridMapFile::parse("\"/O=G/CN=User\" jdoe\n").unwrap();
    let server = GridFtpServer::new(SimOs::new(), "node1", host, w.trust.clone(), gridmap).unwrap();
    World {
        trust: w.trust,
        user: w.user,
        server: Rc::new(RefCell::new(server)),
    }
}

/// One sans-io striped server task per dial, each over a fresh
/// connection in one world whose only fault is `drop`, seeded by
/// `base_seed`, which isolates cells.
fn dialer(w: &World, base_seed: u64, drop: f64) -> impl FnMut(usize) -> SimStream {
    let task = SessionTask {
        server: Rc::clone(&w.server),
        dialect: Dialect::Striped,
        now: 100,
        plan: CrashPlan::disabled(),
    };
    let net = Network::new();
    let profile = FaultProfile {
        drop,
        ..FaultProfile::default()
    };
    net.enable_faults(SimClock::new(), base_seed, profile);
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

fn opts(base_seed: u64, stripes: Option<u32>) -> StripeOpts {
    StripeOpts {
        aimd: match stripes {
            Some(n) => AimdConfig::pinned_stripes(n),
            None => AimdConfig::default(),
        },
        max_sessions: 256,
        seed: base_seed ^ 0x57A1_BE11,
        ..StripeOpts::default()
    }
}

fn render_outcome(label: &str, out: &XferOutcome, tracer: &Tracer) -> String {
    let mut s = format!(
        "{label} bytes={} sha={} sessions={} tears={} secs={} goodput={} peak={} \
         waits={} waited={}\n",
        out.bytes.len(),
        out.sha256,
        out.sessions,
        out.tears,
        out.secs,
        out.goodput,
        out.peak_stripes,
        out.throttle_waits,
        out.throttle_waited_secs,
    );
    for d in &out.decisions {
        s.push_str(&format!("{label} aimd {d}\n"));
    }
    s.push_str(&tracer.metrics().render());
    s
}

#[test]
fn striped_put_cells_render_the_recorded_ones() {
    let w = world();
    let data: Vec<u8> = (0..8192usize).map(|i| (i * 31 % 251) as u8).collect();
    let uid = w.server.borrow().os().uid_of("node1", "jdoe").unwrap();
    let config = TlsConfig::new(w.user.clone(), w.trust.clone(), 100);
    let mut render = String::new();
    let mut put = |label: &str, base_seed: u64, drop: f64, stripes: Option<u32>, data: &[u8]| {
        let path = format!("/home/jdoe/{label}.dat");
        let tracer = Tracer::new();
        let out = {
            let _g = trace::install(&tracer);
            let mut rng = ChaChaRng::from_seed_bytes(&base_seed.to_be_bytes());
            let dial = dialer(&w, base_seed, drop);
            let policy = RetryPolicy::default();
            striped_put(
                &config,
                &mut rng,
                policy,
                dial,
                &path,
                data,
                opts(base_seed, stripes),
            )
            .expect("striped PUT cell completes")
        };
        let stored = w
            .server
            .borrow()
            .os()
            .read_file("node1", &path, uid)
            .unwrap();
        assert_eq!(stored, data, "cell {label} stored other bytes");
        render.push_str(&render_outcome(label, &out, &tracer));
    };
    for loss_permille in [0u64, 50, 100] {
        for stripes in [Some(1), Some(4), None] {
            let label = match stripes {
                Some(n) => format!("put.l{loss_permille:03}.s{n}"),
                None => format!("put.l{loss_permille:03}.adaptive"),
            };
            let base_seed =
                0x5712 ^ (loss_permille << 32) ^ (u64::from(stripes.unwrap_or(0)) << 16);
            put(
                &label,
                base_seed,
                loss_permille as f64 / 1000.0,
                stripes,
                &data,
            );
        }
    }
    put("put.empty", 0x5713, 0.0, None, b"");

    // The empty file back out again: size discovery alone, no task.
    let tracer = Tracer::new();
    let got = {
        let _g = trace::install(&tracer);
        let mut rng = ChaChaRng::from_seed_bytes(b"golden empty get");
        let dial = dialer(&w, 0x5714, 0.0);
        let path = "/home/jdoe/put.empty.dat";
        striped_get(
            &config,
            &mut rng,
            RetryPolicy::default(),
            dial,
            path,
            opts(0x5714, None),
        )
        .expect("striped GET of the empty file completes")
    };
    render.push_str(&render_outcome("get.empty", &got, &tracer));
    check_render("xfer.put_cells", &render);
}
