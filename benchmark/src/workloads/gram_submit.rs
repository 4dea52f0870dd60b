//! `gram_submit`: op = one Figure-4 job submission carried through to a
//! delegated proxy at the MJS.
//!
//! Closed loop, one requestor at a time. A slice installs a fresh
//! `GramResource` (so the users' first submissions take the cold
//! MMJFS → Setuid Starter → GRIM → LMJFS path) and serves
//! [`USERS_PER_SLICE`] of the [`MAPPED_USERS`] mapped users: each signs
//! on once (`gsi::sso::grid_proxy_init`, a fresh RSA key) and submits
//! [`JOBS_PER_USER`] jobs, of which the first is cold and the rest warm.
//! An op is `Requestor::submit_job` split at its three public seams
//! (`signed_request`, `GramResource::submit`, `connect_and_start`) so
//! each can be spanned from outside.

use gridsec_authz::gridmap::GridMapFile;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gram::resource::{GramConfig, GramResource};
use gridsec_gram::types::{JobDescription, JobState};
use gridsec_gram::{GramError, Requestor};
use gridsec_gsi::sso::{grid_proxy_init, ProxyOptions};
use gridsec_pki::ca::CertificateAuthority;
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::os::SimOs;

use crate::harness::{slice_seed, ClosedLoop, Config, SliceOutcome, Workload};
use crate::span::span;

/// Users in the grid-mapfile.
pub const MAPPED_USERS: usize = 16;
/// Users served per slice; the slice index rotates through the pool.
pub const USERS_PER_SLICE: usize = 1;
/// Submissions per sign-on: 1 cold + 15 warm.
pub const JOBS_PER_USER: usize = 16;
const HOST: &str = "node1";
const NOW: u64 = 100;

fn dn(s: &str) -> DistinguishedName {
    DistinguishedName::parse(s).expect("benchmark DN")
}

/// The seeded world of Figure 4: CA, mapped user identities, the host
/// credential and the grid-mapfile.
pub struct GramWorld {
    pub trust: TrustStore,
    pub users: Vec<Credential>,
    pub host: Credential,
    pub gridmap: GridMapFile,
}

impl GramWorld {
    pub fn build(seed: u64) -> Self {
        let mut rng = ChaChaRng::from_seed_bytes(format!("gridbench gram {seed:#x}").as_bytes());
        let ca =
            CertificateAuthority::create_root(&mut rng, dn("/O=Bench/CN=CA"), 512, 0, u64::MAX / 2);
        let mut gridmap = GridMapFile::new();
        let users = (0..MAPPED_USERS)
            .map(|i| {
                let name = dn(&format!("/O=Bench/CN=User{i}"));
                gridmap.add(name.clone(), vec![format!("u{i}")]);
                ca.issue_identity(&mut rng, name, 512, 0, u64::MAX / 4)
            })
            .collect();
        let host = ca.issue_host_identity(
            &mut rng,
            dn("/O=Bench/CN=host node1"),
            vec![HOST.to_string()],
            512,
            0,
            u64::MAX / 4,
        );
        let mut trust = TrustStore::new();
        trust.add_root(ca.certificate().clone());
        GramWorld {
            trust,
            users,
            host,
            gridmap,
        }
    }

    /// GT3 GRAM freshly installed on a new simulated host.
    pub fn install(&self) -> GramResource {
        GramResource::install(
            SimOs::new(),
            SimClock::starting_at(NOW),
            HOST,
            self.trust.clone(),
            self.host.clone(),
            &self.gridmap,
            GramConfig::default(),
        )
        .expect("install GRAM on a fresh host")
    }
}

pub struct GramSubmit {
    seed: u64,
    world: GramWorld,
}

/// What one submission produced, as far as a requestor can see.
struct Submitted {
    handle: String,
    cold: bool,
    account: String,
    state: JobState,
    request_bytes: usize,
}

fn submit(
    requestor: &mut Requestor,
    resource: &mut GramResource,
    description: &JobDescription,
    op: u64,
    expect_cold: bool,
) -> Result<Submitted, GramError> {
    let request = span("gram.signed_request", op, || {
        requestor.signed_request(description, NOW)
    });
    let name = if expect_cold {
        "gram.resource_submit_cold"
    } else {
        "gram.resource_submit_warm"
    };
    let outcome = span(name, op, || resource.submit(&request))?;
    span("gram.connect_and_start", op, || {
        requestor.connect_and_start(resource, &outcome.mjs_handle, Some(&outcome.account), NOW)
    })?;
    let state = resource.job_state(&outcome.mjs_handle)?;
    Ok(Submitted {
        handle: outcome.mjs_handle,
        cold: outcome.cold_start,
        account: outcome.account,
        state,
        request_bytes: request.len(),
    })
}

impl Workload for GramSubmit {
    const NAME: &'static str = "gram_submit";
    const CLOSED_LOOP: bool = true;

    fn build(cfg: &Config) -> Self {
        GramSubmit {
            seed: cfg.seed,
            world: GramWorld::build(cfg.seed),
        }
    }

    fn slice(&mut self, index: u64) -> SliceOutcome {
        let seed = slice_seed(self.seed, index);
        let mut ops = ClosedLoop::new(Self::NAME);
        let mut wire = 0u64;
        let mut msgs = 0u64;
        let mut resource = ops.aside("gram.install", || self.world.install());

        for u in 0..USERS_PER_SLICE {
            let who = (index as usize * USERS_PER_SLICE + u) % MAPPED_USERS;
            let mut rng = ChaChaRng::from_seed_bytes(format!("gram sso {seed:#x} {u}").as_bytes());
            let session = ops
                .aside("gsi.proxy_init", || {
                    grid_proxy_init(
                        &mut rng,
                        &self.world.users[who],
                        ProxyOptions::default(),
                        NOW,
                    )
                })
                .expect("sign-on from a valid identity");
            let mut requestor = Requestor::new(
                session.credential().clone(),
                self.world.trust.clone(),
                format!("gram requestor {seed:#x} {u}").as_bytes(),
            );

            for j in 0..JOBS_PER_USER {
                let arg = format!("{seed:x}-{u}-{j}");
                let description = JobDescription::new("/bin/simulate").with_args(&[&arg]);
                let expect_cold = j == 0;
                let name = if expect_cold {
                    "gram.op.cold_submit"
                } else {
                    "gram.op.warm_submit"
                };
                let op = ops.n;
                let done = ops.op(
                    name,
                    || submit(&mut requestor, &mut resource, &description, op, expect_cold),
                    |r, d| {
                        let s = r.as_ref().ok()?;
                        let right = s.cold == expect_cold
                            && s.account == format!("u{who}")
                            && s.state == JobState::Active;
                        d.bytes(s.handle.as_bytes())
                            .bytes(s.account.as_bytes())
                            .u64(u64::from(s.cold));
                        right.then_some(description.to_element().to_xml().len() as u64)
                    },
                );
                if let Ok(s) = done {
                    wire += s.request_bytes as u64;
                    msgs += 1;
                }
            }
        }
        let stats = resource.stats;
        ops.digest
            .u64(stats.jobs_submitted)
            .u64(stats.cold_starts)
            .u64(stats.warm_starts)
            .u64(stats.denied);
        ops.out.counts = vec![
            ("gram.cold_starts", stats.cold_starts),
            ("gram.submits", stats.jobs_submitted),
        ];
        ops.finish(wire, msgs)
    }
}
