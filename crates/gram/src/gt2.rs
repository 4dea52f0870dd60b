//! The GT2 GRAM baseline: a **privileged, network-facing gatekeeper**.
//!
//! This is the architecture GT3 §5.2 improves on: the gatekeeper runs as
//! root and parses input straight off the network, so "logic errors,
//! buffer overflows, and the like" in it yield root. We reproduce it so
//! experiment C4 can measure the contrast: component counts, privileged
//! LoC proxies, and compromise blast radii.
//!
//! Flow: TLS-style mutual authentication with the client (over tokens,
//! as GT2 did over TCP), the gate, grid-mapfile lookup *by the root
//! process*, then a privileged fork+setuid of a per-user jobmanager which
//! runs the job.

use std::collections::HashMap;

use gridsec_authz::cas::ResourceGate;
use gridsec_authz::gridmap::GridMapFile;
use gridsec_authz::START_JOB;
use gridsec_crypto::rng::ChaChaRng;
use gridsec_gssapi::context::{AcceptorContext, InitiatorContext};
use gridsec_pki::credential::Credential;
use gridsec_pki::store::TrustStore;
use gridsec_testbed::clock::SimClock;
use gridsec_testbed::os::{FileMode, Pid, SimOs, ROOT_UID};
use gridsec_tls::handshake::TlsConfig;

use crate::types::{JobDescription, JobState};
use crate::GramError;

/// A GT2 gatekeeper installation on one host.
pub struct Gt2Gatekeeper {
    /// Host name in the simulated OS.
    pub host: String,
    os: SimOs,
    clock: SimClock,
    trust: TrustStore,
    host_credential: Credential,
    gatekeeper_pid: Pid,
    rng: ChaChaRng,
    jobs: HashMap<String, JobState>,
    next_job: u64,
    /// Jobs run.
    pub jobs_submitted: u64,
    /// The authorization decision point, asked before the fork.
    pub gate: ResourceGate,
}

impl Gt2Gatekeeper {
    /// Install the gatekeeper: writes the grid-mapfile and host
    /// credential, then starts the gatekeeper **as root, listening on the
    /// network, holding the host credential in memory** — the three
    /// properties GT3 eliminates.
    pub fn install(
        os: SimOs,
        clock: SimClock,
        host: &str,
        trust: TrustStore,
        host_credential: Credential,
        gridmap: &GridMapFile,
    ) -> Result<Self, GramError> {
        let oserr = |e: gridsec_testbed::TestbedError| GramError::Os(e.to_string());
        os.add_host(host);
        for entry in gridmap.entries() {
            for account in &entry.accounts {
                os.add_account(host, account).map_err(oserr)?;
            }
        }
        os.write_file(
            host,
            crate::resource::GRIDMAP_PATH,
            ROOT_UID,
            FileMode::world_readable(),
            gridmap.to_text().into_bytes(),
        )
        .map_err(oserr)?;
        os.write_file(
            host,
            crate::resource::HOSTCRED_PATH,
            ROOT_UID,
            FileMode::private(),
            b"host credential key material".to_vec(),
        )
        .map_err(oserr)?;

        let gatekeeper_pid = os.spawn_privileged(host, "gatekeeper").map_err(oserr)?;
        os.mark_network_facing(host, gatekeeper_pid)
            .map_err(oserr)?;
        os.grant_credential(host, gatekeeper_pid, "host credential (in memory)")
            .map_err(oserr)?;

        Ok(Gt2Gatekeeper {
            host: host.to_string(),
            os,
            clock,
            trust,
            host_credential,
            gatekeeper_pid,
            rng: ChaChaRng::from_seed_bytes(format!("gt2:{host}").as_bytes()),
            jobs: HashMap::new(),
            next_job: 0,
            jobs_submitted: 0,
            gate: ResourceGate::default(),
        })
    }

    /// Pid of the gatekeeper (for fault injection).
    pub fn gatekeeper_pid(&self) -> Pid {
        self.gatekeeper_pid
    }

    /// Shared OS handle.
    pub fn os(&self) -> &SimOs {
        &self.os
    }

    /// Submit a job: TLS mutual authentication, the gate, root-side
    /// grid-mapfile lookup, privileged fork of the jobmanager, job start.
    pub fn submit(
        &mut self,
        client_credential: &Credential,
        description: &JobDescription,
    ) -> Result<String, GramError> {
        let oserr = |e: gridsec_testbed::TestbedError| GramError::Os(e.to_string());
        let now = self.clock.now();

        // GT2 TLS mutual authentication (token loop in process).
        let client_config = TlsConfig::new(client_credential.clone(), self.trust.clone(), now);
        let server_config = TlsConfig::new(self.host_credential.clone(), self.trust.clone(), now);
        let (initiator, t1) = InitiatorContext::new(client_config, &mut self.rng);
        let (acceptor, t2) = AcceptorContext::answer_hello(&t1, server_config, &mut self.rng)
            .map_err(GramError::context)?;
        let (t3, mut client_ctx) = initiator.step(&t2).map_err(GramError::context)?;
        let mut server_ctx = acceptor.step(&t3).map_err(GramError::context)?;

        // Job description over the secured channel.
        let wire = client_ctx.wrap(description.to_element().to_xml().as_bytes());
        let received = server_ctx.unwrap(&wire).map_err(GramError::context)?;
        let parsed = gridsec_xml::Element::parse(&String::from_utf8_lossy(&received))
            .ok()
            .and_then(|el| JobDescription::from_element(&el))
            .ok_or_else(|| GramError::RequestRejected("bad job description".into()))?;

        // Authorization, then the root-side grid-mapfile lookup.
        let peer = server_ctx.peer();
        self.gate
            .permits(peer, &parsed.executable, START_JOB, now)
            .map_err(|e| GramError::NotAuthorized(e.to_string()))?;
        let user_dn = peer.base_identity.clone();
        let map_bytes = self
            .os
            .read_file(&self.host, crate::resource::GRIDMAP_PATH, ROOT_UID)
            .map_err(oserr)?;
        let gridmap = GridMapFile::parse(&String::from_utf8_lossy(&map_bytes))
            .map_err(|e| GramError::Os(e.to_string()))?;
        let account = gridmap
            .lookup(&user_dn)
            .ok_or_else(|| GramError::NoMapping(user_dn.to_string()))?
            .to_string();

        // Privileged fork: the root gatekeeper setuid-spawns the
        // jobmanager, which starts the job.
        let jobmanager_pid = self
            .os
            .setuid_spawn(
                &self.host,
                self.gatekeeper_pid,
                &format!("jobmanager-{account}"),
                &account,
            )
            .map_err(oserr)?;
        self.os
            .grant_credential(
                &self.host,
                jobmanager_pid,
                &format!("delegated proxy of {user_dn}"),
            )
            .map_err(oserr)?;
        self.os
            .spawn(&self.host, &format!("job:{}", parsed.executable), &account)
            .map_err(oserr)?;

        self.next_job += 1;
        let handle = format!("gt2:job-{}", self.next_job);
        self.jobs.insert(handle.clone(), JobState::Active);
        self.jobs_submitted += 1;
        Ok(handle)
    }

    /// Job state.
    pub fn job_state(&self, handle: &str) -> Result<JobState, GramError> {
        self.jobs
            .get(handle)
            .copied()
            .ok_or_else(|| GramError::NoSuchJob(handle.to_string()))
    }
}
