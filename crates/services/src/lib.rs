//! # gridsec-services
//!
//! The OGSA security services itemized by the paper's §4.1 (from the OGSA
//! Security Roadmap), implemented for the `gridsec` reproduction of
//! *Security for Grid Services* (Welch et al., HPDC 2003):
//!
//! * **Credential processing service** — [`credproc`]: validates
//!   authentication tokens (certificate chains) and reports the
//!   authenticated identity.
//! * **Authorization service** — [`authz_service`]: evaluates policy
//!   rules for (requestor, target, action) triples; hostable as a Grid
//!   service so hosting environments can out-call it (Figure 3 step 5).
//! * **Credential conversion service** — [`kca`] (Kerberos → GSI, the
//!   paper's KCA) and [`sslk5`] (GSI → Kerberos via PKINIT), bridging
//!   mechanism domains (Figure 3 step 2). CAS as credential conversion
//!   (a CAS assertion turned into a restricted proxy) is the
//!   `figure2_cas` scenario's inline step, not a service here.
//! * **Identity mapping service** — [`idmap_rpc`]: X.509 DN ↔
//!   Kerberos principal translation, a journaled RPC service that
//!   survives crash and restart.
//! * **Audit service** — [`audit`]: a tamper-evident, hash-chained log
//!   that hosting environments feed.
//! * **Online credential repository** — [`myproxy`]: MyProxy-style
//!   durable store backing the paper's portal single-sign-on flow;
//!   issues and renews short-lived delegated proxies with exactly-once
//!   semantics across crash/restart.

#![forbid(unsafe_code)]
#![warn(unreachable_pub)]
#![warn(missing_docs)]

pub mod audit;
pub mod authz_service;
pub mod credproc;
pub mod idmap_rpc;
pub mod kca;
pub mod myproxy;
pub mod sslk5;
