//! # gridsec-testbed
//!
//! The simulated execution environment for the `gridsec` reproduction of
//! *Security for Grid Services* (Welch et al., HPDC 2003).
//!
//! The paper's claims were demonstrated on real hosts with Unix accounts,
//! setuid binaries, and TCP. This crate substitutes (per `DESIGN.md` §2):
//!
//! * [`clock::SimClock`] — shared logical time, so certificate validity,
//!   ticket lifetimes, and CRL freshness are deterministic.
//! * [`net`] — an in-memory message network with per-link byte/message
//!   accounting (the "bytes on the wire" series in experiment C1) and a
//!   byte-stream abstraction for the TLS record layer.
//! * [`os`] — a simulated operating system: hosts, accounts, files with
//!   owners and modes, and a process table that tracks *which code runs
//!   with which privilege* — the measurement substrate for the paper's
//!   §5.2 least-privilege claims (experiment C4).
//! * [`faults`] — compromise injection: mark a process compromised and
//!   compute the blast radius (accounts, files, credentials reachable),
//!   which is how we quantify "no privileged network services".
//! * [`rpc`] — an at-most-once request/reply layer over [`net`] with
//!   retransmission and exponential backoff, so the protocol crates'
//!   client paths survive the seeded drop/duplicate/reorder faults of
//!   [`net::Network::enable_faults`].
//! * [`sched`] — a deterministic discrete-event scheduler: a run queue
//!   of resumable tasks over [`net`] and [`clock::SimClock`], so one
//!   process hosts 10⁵–10⁶ endpoints with seed-replayable
//!   interleavings. It is the only code that moves the clock while
//!   something waits: call-shaped code parks in [`sched::wait`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buckets;
pub mod clock;
pub mod faults;
pub mod names;
pub mod net;
pub mod os;
pub mod rpc;
pub mod sched;

/// Errors from testbed operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestbedError {
    /// Referenced host does not exist.
    NoSuchHost(String),
    /// Referenced account does not exist.
    NoSuchAccount(String),
    /// Referenced process does not exist.
    NoSuchProcess(u64),
    /// Referenced file does not exist.
    NoSuchFile(String),
    /// The operation requires privileges the caller lacks.
    PermissionDenied(&'static str),
    /// Network endpoint not registered.
    NoSuchEndpoint(String),
    /// Endpoint name already registered (from [`net::Network::try_register`]).
    EndpointInUse(String),
    /// The peer endpoint hung up.
    Disconnected,
    /// A receive or RPC call exceeded its deadline (SimClock seconds).
    Timeout,
}

impl core::fmt::Display for TestbedError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TestbedError::NoSuchHost(h) => write!(f, "no such host: {h}"),
            TestbedError::NoSuchAccount(a) => write!(f, "no such account: {a}"),
            TestbedError::NoSuchProcess(p) => write!(f, "no such process: {p}"),
            TestbedError::NoSuchFile(p) => write!(f, "no such file: {p}"),
            TestbedError::PermissionDenied(m) => write!(f, "permission denied: {m}"),
            TestbedError::NoSuchEndpoint(e) => write!(f, "no such endpoint: {e}"),
            TestbedError::EndpointInUse(e) => write!(f, "endpoint already registered: {e}"),
            TestbedError::Disconnected => write!(f, "peer disconnected"),
            TestbedError::Timeout => write!(f, "operation timed out"),
        }
    }
}

impl std::error::Error for TestbedError {}
