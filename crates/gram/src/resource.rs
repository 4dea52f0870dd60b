//! The resource side of GT3 GRAM: Proxy Router, MMJFS, Setuid Starter,
//! GRIM, LMJFS, and MJS instances, with full privilege bookkeeping on the
//! simulated OS.

use std::collections::HashMap;

use gridsec_authz::gridmap::GridMapFile;
use gridsec_bignum::prime::EntropySource;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::{AcceptorContext, EstablishedContext, StepResult};
use gridsec_pki::credential::Credential;
use gridsec_pki::name::DistinguishedName;
use gridsec_pki::store::CrlStore;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::os::{FileMode, Pid, SimOs, ROOT_UID};
use gridsec_tls::handshake::TlsConfig;
use gridsec_tls::session::{
    is_resume_hello, ServerResumeAwait, ServerSessionCache, DEFAULT_SESSION_CAPACITY,
    DEFAULT_SESSION_LIFETIME,
};
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::xmlsig;

use crate::grim::issue_grim_credential;
use crate::types::{JobDescription, JobState};
use crate::GramError;

/// Paths used on the simulated host.
pub const GRIDMAP_PATH: &str = "/etc/grid-security/grid-mapfile";
/// Host credential path (root-only).
pub const HOSTCRED_PATH: &str = "/etc/grid-security/hostcred.p12";
/// Name of the installed Setuid Starter binary.
pub const SETUID_STARTER: &str = "setuid-starter";
/// Name of the installed GRIM binary.
pub const GRIM_BINARY: &str = "grim";

/// Tunables for a GRAM installation.
#[derive(Clone, Debug)]
pub struct GramConfig {
    /// RSA key size for GRIM proxies and job delegation.
    pub key_bits: usize,
    /// Lifetime of GRIM credentials.
    pub grim_lifetime: u64,
    /// Local policy string GRIM embeds.
    pub local_policy: String,
}

impl Default for GramConfig {
    fn default() -> Self {
        GramConfig {
            key_bits: 512,
            grim_lifetime: 43_200,
            local_policy: "queues=batch".to_string(),
        }
    }
}

/// Counters describing a resource's GRAM activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GramStats {
    /// Total successful job submissions.
    pub jobs_submitted: u64,
    /// Submissions that had to start an LMJFS (MMJFS path).
    pub cold_starts: u64,
    /// Submissions routed to a resident LMJFS.
    pub warm_starts: u64,
    /// Rejected requests.
    pub denied: u64,
    /// Step-7 contexts established by the full handshake.
    pub full_handshakes: u64,
    /// Step-7 contexts resumed from an LMJFS session cache.
    pub resumed_handshakes: u64,
}

struct LmjfsInstance {
    pid: Pid,
    user_identity: DistinguishedName,
    credential: Credential,
    /// Step-7 sessions established under `credential`, by ticket. It
    /// lives beside the GRIM credential, never host-wide: a ticket is
    /// honoured only by the LMJFS whose credential authenticated it.
    sessions: ServerSessionCache,
}

fn lmjfs_sessions() -> ServerSessionCache {
    ServerSessionCache::new(DEFAULT_SESSION_CAPACITY, DEFAULT_SESSION_LIFETIME)
}

/// An MJS half-way through step 7: token 2 has been answered, the
/// requestor's finished token is awaited
/// ([`GramResource::mjs_accept_finished`]). It names the LMJFS whose
/// cache the established session goes to.
pub struct MjsAcceptor {
    account: String,
    acceptance: Acceptance,
}

enum Acceptance {
    Full(AcceptorContext),
    Resumed(Box<ServerResumeAwait>),
}

struct MjsInstance {
    account: String,
    owner: DistinguishedName,
    credential: Credential,
    description: JobDescription,
    state: JobState,
    job_pid: Option<Pid>,
}

/// Result of routing a signed job request (steps 1–6).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitOutcome {
    /// Handle of the created MJS.
    pub mjs_handle: String,
    /// `true` if the MMJFS cold path ran (Setuid Starter + GRIM).
    pub cold_start: bool,
    /// The account the job will run in.
    pub account: String,
}

/// One GRAM-managed compute resource.
pub struct GramResource {
    /// Host name in the simulated OS.
    pub host: String,
    os: SimOs,
    clock: SimClock,
    trust: TrustStore,
    crls: CrlStore,
    host_credential: Credential,
    config: GramConfig,
    rng: ChaChaRng,
    mmjfs_pid: Pid,
    router_pid: Pid,
    lmjfs: HashMap<String, LmjfsInstance>,
    mjs: HashMap<String, MjsInstance>,
    next_mjs_id: u64,
    /// Activity counters.
    pub stats: GramStats,
}

impl GramResource {
    /// Install GT3 GRAM on `host`: writes the grid-mapfile and host
    /// credential, installs the two setuid binaries, and starts the
    /// unprivileged Proxy Router and MMJFS.
    pub fn install(
        os: SimOs,
        clock: SimClock,
        host: &str,
        trust: TrustStore,
        host_credential: Credential,
        gridmap: &GridMapFile,
        config: GramConfig,
    ) -> Result<Self, GramError> {
        let oserr = |e: gridsec_testbed::TestbedError| GramError::Os(e.to_string());
        os.add_host(host);
        os.add_account(host, "gram").map_err(oserr)?;
        // Accounts for every mapped user.
        for entry in gridmap.entries() {
            for account in &entry.accounts {
                os.add_account(host, account).map_err(oserr)?;
            }
        }
        os.write_file(
            host,
            GRIDMAP_PATH,
            ROOT_UID,
            FileMode::world_readable(),
            gridmap.to_text().into_bytes(),
        )
        .map_err(oserr)?;
        os.write_file(
            host,
            HOSTCRED_PATH,
            ROOT_UID,
            FileMode::private(),
            b"host credential key material".to_vec(),
        )
        .map_err(oserr)?;
        os.install_setuid_binary(host, SETUID_STARTER)
            .map_err(oserr)?;
        os.install_setuid_binary(host, GRIM_BINARY).map_err(oserr)?;

        // The two long-running network services, both unprivileged.
        let router_pid = os.spawn(host, "proxy-router", "gram").map_err(oserr)?;
        os.mark_network_facing(host, router_pid).map_err(oserr)?;
        let mmjfs_pid = os.spawn(host, "MMJFS", "gram").map_err(oserr)?;
        os.mark_network_facing(host, mmjfs_pid).map_err(oserr)?;

        let rng = ChaChaRng::from_seed_bytes(format!("gram:{host}").as_bytes());
        Ok(GramResource {
            host: host.to_string(),
            os,
            clock,
            trust,
            crls: CrlStore::new(),
            host_credential,
            config,
            rng,
            mmjfs_pid,
            router_pid,
            lmjfs: HashMap::new(),
            mjs: HashMap::new(),
            next_mjs_id: 0,
            stats: GramStats::default(),
        })
    }

    /// Install revocation state, checked on request verification and on
    /// step 7's full handshake. Every LMJFS session cache is emptied: a
    /// resumed context skips chain validation, so no session
    /// authenticated under the old revocation state may be resumed.
    pub fn set_crls(&mut self, crls: CrlStore) {
        self.crls = crls;
        for lmjfs in self.lmjfs.values_mut() {
            lmjfs.sessions = lmjfs_sessions();
        }
    }

    /// Pid of the MMJFS (for fault injection).
    pub fn mmjfs_pid(&self) -> Pid {
        self.mmjfs_pid
    }

    /// Pid of the Proxy Router (for fault injection).
    pub fn router_pid(&self) -> Pid {
        self.router_pid
    }

    /// Pid of a resident LMJFS, if any.
    pub fn lmjfs_pid(&self, account: &str) -> Option<Pid> {
        self.lmjfs.get(account).map(|l| l.pid)
    }

    /// The step-7 session cache of a resident LMJFS, if any.
    pub fn lmjfs_sessions(&self, account: &str) -> Option<&ServerSessionCache> {
        self.lmjfs.get(account).map(|l| &l.sessions)
    }

    /// Shared OS handle (for privilege audits).
    pub fn os(&self) -> &SimOs {
        &self.os
    }

    /// The host's grid identity (publicly known; clients pin it in
    /// step 7's GRIM check).
    pub fn host_identity(&self) -> &DistinguishedName {
        self.host_credential.base_identity()
    }

    fn read_gridmap(&self, euid: u32) -> Result<GridMapFile, GramError> {
        let bytes = self
            .os
            .read_file(&self.host, GRIDMAP_PATH, euid)
            .map_err(|e| GramError::Os(e.to_string()))?;
        GridMapFile::parse(&String::from_utf8_lossy(&bytes))
            .map_err(|e| GramError::Os(e.to_string()))
    }

    /// Steps 1–6 of Figure 4: route a signed job request, cold-starting an
    /// LMJFS when needed, and create the MJS.
    pub fn submit(&mut self, signed_request_xml: &str) -> Result<SubmitOutcome, GramError> {
        let deny = |s: &mut GramStats| s.denied += 1;
        let now = self.clock.now();

        // ---- Step 2: the Proxy Router accepts the request. It verifies
        // the signature (it is unprivileged; verification needs no
        // secrets) to learn the requestor identity for routing.
        let env = Envelope::parse(signed_request_xml).map_err(|e| {
            deny(&mut self.stats);
            GramError::RequestRejected(e.to_string())
        })?;
        let verified =
            xmlsig::verify_envelope(&env, &self.trust, &self.crls, now).map_err(|e| {
                deny(&mut self.stats);
                GramError::RequestRejected(e.to_string())
            })?;
        let identity = verified.identity;
        // GT semantics: a *limited* proxy may move data but must not start
        // jobs (the site-defined reduced-rights set of §3). GridFTP-style
        // services accept limited proxies; GRAM refuses them.
        if identity.rights == gridsec_pki::validate::EffectiveRights::Limited {
            deny(&mut self.stats);
            return Err(GramError::NotAuthorized(
                "limited proxies may not submit jobs".to_string(),
            ));
        }
        let user_dn = identity.base_identity.clone();

        // ---- Step 3: grid-mapfile lookup (MMJFS euid can read it; it is
        // world-readable). Router and MMJFS run as the same account here.
        let mmjfs_euid = self
            .os
            .process(&self.host, self.mmjfs_pid)
            .map_err(|e| GramError::Os(e.to_string()))?
            .euid;
        let gridmap = self.read_gridmap(mmjfs_euid)?;
        let account = gridmap
            .lookup(&user_dn)
            .ok_or_else(|| {
                deny(&mut self.stats);
                GramError::NoMapping(user_dn.to_string())
            })?
            .to_string();

        // ---- Steps 4–5 (cold path) or direct routing (warm path).
        let cold_start = !self.lmjfs.contains_key(&account);
        if cold_start {
            self.cold_start_lmjfs(&account, &user_dn)?;
        }
        let lmjfs = self.lmjfs.get(&account).expect("just ensured");

        // ---- Step 6: the LMJFS re-verifies the signed request and checks
        // that the requestor is authorized for this account.
        if !gridmap.permits(&user_dn, &account) {
            deny(&mut self.stats);
            return Err(GramError::NotAuthorized(format!(
                "{user_dn} may not use account {account}"
            )));
        }
        // An LMJFS serves exactly one user identity; a different mapped
        // user gets their own LMJFS/account (enforced by mapping), but a
        // mismatch here would mean a routing bug or attack.
        if lmjfs.user_identity != user_dn {
            deny(&mut self.stats);
            return Err(GramError::NotAuthorized(format!(
                "LMJFS for {account} serves {}, not {user_dn}",
                lmjfs.user_identity
            )));
        }
        let description = env
            .payload()
            .and_then(JobDescription::from_element)
            .ok_or_else(|| {
                deny(&mut self.stats);
                GramError::RequestRejected("missing or malformed job description".to_string())
            })?;

        // Create the MJS inside the LMJFS's hosting environment.
        self.next_mjs_id += 1;
        let handle = format!("gsh:mjs-{}-{}", account, self.next_mjs_id);
        self.mjs.insert(
            handle.clone(),
            MjsInstance {
                account: account.clone(),
                owner: user_dn,
                credential: lmjfs.credential.clone(),
                description,
                state: JobState::Unsubmitted,
                job_pid: None,
            },
        );
        self.stats.jobs_submitted += 1;
        if cold_start {
            self.stats.cold_starts += 1;
        } else {
            self.stats.warm_starts += 1;
        }
        Ok(SubmitOutcome {
            mjs_handle: handle,
            cold_start,
            account,
        })
    }

    /// Steps 4–5: MMJFS invokes the Setuid Starter, which launches the
    /// LMJFS in the user's account; the LMJFS invokes GRIM for creds.
    fn cold_start_lmjfs(
        &mut self,
        account: &str,
        user_dn: &DistinguishedName,
    ) -> Result<(), GramError> {
        let oserr = |e: gridsec_testbed::TestbedError| GramError::Os(e.to_string());
        let now = self.clock.now();

        // Step 4: Setuid Starter — runs privileged for exactly one spawn.
        let starter_pid = self
            .os
            .exec_setuid_binary(&self.host, self.mmjfs_pid, SETUID_STARTER)
            .map_err(oserr)?;
        let lmjfs_pid = self
            .os
            .setuid_spawn(&self.host, starter_pid, "LMJFS", account)
            .map_err(oserr)?;
        self.os.kill(&self.host, starter_pid).map_err(oserr)?;

        // Step 5: GRIM — privileged read of the host credential, one
        // proxy issuance, then exit.
        let grim_pid = self
            .os
            .exec_setuid_binary(&self.host, lmjfs_pid, GRIM_BINARY)
            .map_err(oserr)?;
        // The privileged read (enforced by the simulated OS).
        let _host_key_material = self
            .os
            .read_file(&self.host, HOSTCRED_PATH, ROOT_UID)
            .map_err(oserr)?;
        let credential = issue_grim_credential(
            &mut self.rng,
            &self.host_credential,
            user_dn,
            account,
            &self.config.local_policy,
            self.config.key_bits,
            now,
            self.config.grim_lifetime,
        )?;
        self.os.kill(&self.host, grim_pid).map_err(oserr)?;
        self.os
            .grant_credential(
                &self.host,
                lmjfs_pid,
                &format!("GRIM proxy for {user_dn} in {account}"),
            )
            .map_err(oserr)?;
        // The LMJFS registers with the Proxy Router (our routing map).
        self.lmjfs.insert(
            account.to_string(),
            LmjfsInstance {
                pid: lmjfs_pid,
                user_identity: user_dn.clone(),
                credential,
                sessions: lmjfs_sessions(),
            },
        );
        Ok(())
    }

    /// Step 7 server side, token 1. A ClientHello starts the full
    /// mutually-authenticated handshake under the MJS's GRIM credential;
    /// a ResumeHello is answered from the session cache of the LMJFS
    /// hosting the MJS, and from no other. An unknown or expired ticket
    /// is a [`GramError::Context`] the requestor answers with the full
    /// handshake. Returns token 2.
    pub fn mjs_accept_hello<E: EntropySource>(
        &mut self,
        handle: &str,
        rng: &mut E,
        token: &[u8],
    ) -> Result<(Vec<u8>, MjsAcceptor), GramError> {
        let now = self.clock.now();
        let mjs = self
            .mjs
            .get(handle)
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))?;
        let account = mjs.account.clone();
        if is_resume_hello(token) {
            let lmjfs = self
                .lmjfs
                .get_mut(&account)
                .ok_or_else(|| GramError::Os(format!("no resident LMJFS for {account}")))?;
            let (token2, await_finished) = lmjfs
                .sessions
                .accept(token, now, rng)
                .map_err(GramError::context)?;
            let acceptance = Acceptance::Resumed(Box::new(await_finished));
            return Ok((
                token2,
                MjsAcceptor {
                    account,
                    acceptance,
                },
            ));
        }
        let config = TlsConfig::new(mjs.credential.clone(), self.trust.clone(), now)
            .with_crls(self.crls.clone());
        let mut acceptor = AcceptorContext::new(config);
        match acceptor.step(rng, token).map_err(GramError::context)? {
            StepResult::ContinueWith(token2) => {
                let acceptance = Acceptance::Full(acceptor);
                Ok((
                    token2,
                    MjsAcceptor {
                        account,
                        acceptance,
                    },
                ))
            }
            StepResult::Established { .. } => Err(GramError::context("unexpected acceptor state")),
        }
    }

    /// Step 7 server side, token 3: the MJS's half of the context is
    /// established, and its session stored in the cache of the LMJFS
    /// that hosts the MJS, so the requestor's next job there can resume
    /// it.
    pub fn mjs_accept_finished<E: EntropySource>(
        &mut self,
        acceptor: MjsAcceptor,
        rng: &mut E,
        token: &[u8],
    ) -> Result<Box<EstablishedContext>, GramError> {
        let account = acceptor.account;
        let lmjfs = self
            .lmjfs
            .get_mut(&account)
            .ok_or_else(|| GramError::Os(format!("no resident LMJFS for {account}")))?;
        let context = match acceptor.acceptance {
            Acceptance::Full(mut acceptor) => {
                match acceptor.step(rng, token).map_err(GramError::context)? {
                    StepResult::Established { context, .. } => {
                        self.stats.full_handshakes += 1;
                        context
                    }
                    StepResult::ContinueWith(_) => {
                        return Err(GramError::context("acceptor should finish"))
                    }
                }
            }
            Acceptance::Resumed(await_finished) => {
                let channel = await_finished.step(token).map_err(GramError::context)?;
                self.stats.resumed_handshakes += 1;
                Box::new(EstablishedContext::from_channel(channel))
            }
        };
        lmjfs.sessions.store(context.channel());
        Ok(context)
    }

    /// Step 7 completion, MJS side: after the context is established and
    /// the requestor has delegated `delegated`, verify the requestor is
    /// the MJS owner and start the job process in the local account.
    pub fn mjs_start_job(
        &mut self,
        handle: &str,
        requestor: &DistinguishedName,
        delegated: Credential,
    ) -> Result<Pid, GramError> {
        let oserr = |e: gridsec_testbed::TestbedError| GramError::Os(e.to_string());
        let mjs = self
            .mjs
            .get_mut(handle)
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))?;
        if mjs.state != JobState::Unsubmitted {
            return Err(GramError::BadState("job already started"));
        }
        // "The MJS verifies that the requestor is authorized to initiate
        // processes in the local account."
        if &mjs.owner != requestor {
            return Err(GramError::NotAuthorized(format!(
                "{requestor} does not own {handle}"
            )));
        }
        // Delegated credential must speak for the requestor.
        if delegated.base_identity() != requestor {
            return Err(GramError::NotAuthorized(
                "delegated credential is not the requestor's".to_string(),
            ));
        }
        let job_pid = self
            .os
            .spawn(
                &self.host,
                &format!("job:{}", mjs.description.executable),
                &mjs.account,
            )
            .map_err(oserr)?;
        self.os
            .grant_credential(
                &self.host,
                job_pid,
                &format!("delegated proxy of {requestor}"),
            )
            .map_err(oserr)?;
        mjs.job_pid = Some(job_pid);
        mjs.state = JobState::Active;
        Ok(job_pid)
    }

    /// Monitoring: job state (any authenticated party may query in GT3;
    /// SDE access control is out of scope here).
    pub fn job_state(&self, handle: &str) -> Result<JobState, GramError> {
        self.mjs
            .get(handle)
            .map(|m| m.state)
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))
    }

    /// The job description held by an MJS.
    pub fn job_description(&self, handle: &str) -> Result<&JobDescription, GramError> {
        self.mjs
            .get(handle)
            .map(|m| &m.description)
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))
    }

    /// Management: cancel a job (owner only).
    pub fn cancel(&mut self, handle: &str, caller: &DistinguishedName) -> Result<(), GramError> {
        let mjs = self
            .mjs
            .get_mut(handle)
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))?;
        if &mjs.owner != caller {
            return Err(GramError::NotAuthorized(format!(
                "{caller} does not own {handle}"
            )));
        }
        if mjs.state != JobState::Active {
            return Err(GramError::BadState("job not active"));
        }
        if let Some(pid) = mjs.job_pid {
            self.os
                .kill(&self.host, pid)
                .map_err(|e| GramError::Os(e.to_string()))?;
        }
        mjs.state = JobState::Cancelled;
        Ok(())
    }

    /// Simulation helper: mark an active job as completed.
    pub fn complete(&mut self, handle: &str) -> Result<(), GramError> {
        let mjs = self
            .mjs
            .get_mut(handle)
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))?;
        if mjs.state != JobState::Active {
            return Err(GramError::BadState("job not active"));
        }
        if let Some(pid) = mjs.job_pid {
            self.os
                .kill(&self.host, pid)
                .map_err(|e| GramError::Os(e.to_string()))?;
        }
        mjs.state = JobState::Done;
        Ok(())
    }

    /// Live MJS handles.
    pub fn job_handles(&self) -> Vec<String> {
        let mut v: Vec<String> = self.mjs.keys().cloned().collect();
        v.sort();
        v
    }

    /// Pid of the job process an MJS started, if any.
    pub fn job_pid(&self, handle: &str) -> Result<Option<Pid>, GramError> {
        self.mjs
            .get(handle)
            .map(|m| m.job_pid)
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))
    }

    /// Crash the MMJFS/MJS service process: every in-memory MJS instance
    /// is lost. LMJFS processes (separate processes in separate
    /// accounts), already-started job processes, and all on-disk state
    /// survive — exactly the blast radius of one service dying in the
    /// GT3 architecture. Counters are external accounting and persist.
    pub fn crash_mmjfs(&mut self) {
        self.mjs.clear();
    }

    /// Recovery: rebuild one MJS from a journal record. The GRIM
    /// credential is not serializable (private key material never
    /// leaves the process that holds it) — it is re-borrowed from the
    /// surviving LMJFS for `account`, which also re-establishes the
    /// owner binding the original submit enforced.
    pub fn restore_mjs(
        &mut self,
        handle: &str,
        account: &str,
        description: JobDescription,
        state: JobState,
        job_pid: Option<Pid>,
        mjs_id: u64,
    ) -> Result<(), GramError> {
        let lmjfs = self.lmjfs.get(account).ok_or_else(|| {
            GramError::Os(format!("no resident LMJFS for {account} during recovery"))
        })?;
        self.mjs.insert(
            handle.to_string(),
            MjsInstance {
                account: account.to_string(),
                owner: lmjfs.user_identity.clone(),
                credential: lmjfs.credential.clone(),
                description,
                state,
                job_pid,
            },
        );
        self.next_mjs_id = self.next_mjs_id.max(mjs_id);
        Ok(())
    }
}
