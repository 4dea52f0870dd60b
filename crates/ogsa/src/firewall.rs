//! Security-aware firewalls and WS-Routing intermediaries.
//!
//! Paper §4.4: "entities in the network can recognize whether and how an
//! interaction is secured. For example, a firewall can recognize whether
//! a connection is authenticated and allow only authenticated
//! connections." And §6 (future work): "exploiting WS-Routing to improve
//! firewall compatibility."
//!
//! Both are implemented here, key-free: the [`Firewall`] classifies
//! envelopes purely from their observable structure (security headers,
//! token-exchange actions), and [`RouterTask`] forwards envelopes along
//! their `wsr:path` through the simulated network — so a service behind
//! a perimeter is reachable without the perimeter holding any
//! credentials or terminating any security context.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

use gridsec_testbed::net::{Endpoint, Message, Network};
use gridsec_testbed::sched::{Step, Task, TaskCx};
use gridsec_wsse::routing;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::RST_ACTION;

use crate::transport::{exchange, Transport};
use crate::OgsaError;

/// What a firewall decided about one message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Message may pass.
    Allow(&'static str),
    /// Message dropped.
    Deny(&'static str),
}

/// Per-firewall counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FirewallStats {
    /// Messages allowed through.
    pub allowed: u64,
    /// Messages denied.
    pub denied: u64,
}

/// A key-free, message-inspecting firewall.
#[derive(Default)]
pub struct Firewall {
    /// Whether unsecured `getPolicy` bootstrap requests may pass.
    pub allow_policy_bootstrap: bool,
    /// Counters.
    pub stats: FirewallStats,
}

impl Firewall {
    /// A firewall with the common configuration: security required, but
    /// the unsecured policy-discovery bootstrap permitted.
    pub fn new() -> Self {
        Firewall {
            allow_policy_bootstrap: true,
            stats: FirewallStats::default(),
        }
    }

    /// Classify one message. The firewall holds no keys: the decision
    /// uses only what any network element can observe.
    pub fn inspect(&mut self, xml: &str) -> Verdict {
        let verdict = match Envelope::parse(xml) {
            Err(_) => Verdict::Deny("not a SOAP envelope"),
            Ok(env) => match env.action.as_deref() {
                Some("getPolicy") if self.allow_policy_bootstrap => {
                    Verdict::Allow("policy bootstrap")
                }
                Some(a) if a == RST_ACTION => Verdict::Allow("token exchange"),
                _ if env.is_secured() => Verdict::Allow("secured message"),
                _ => Verdict::Deny("unsecured application message"),
            },
        };
        match verdict {
            Verdict::Allow(_) => self.stats.allowed += 1,
            Verdict::Deny(_) => self.stats.denied += 1,
        }
        verdict
    }
}

/// A transport wrapper that applies a firewall to every outbound request
/// (modelling a perimeter between client and service).
pub struct FirewalledTransport<T: Transport> {
    inner: T,
    /// The perimeter firewall.
    pub firewall: Firewall,
}

impl<T: Transport> FirewalledTransport<T> {
    /// Wrap a transport behind a firewall.
    pub fn new(inner: T, firewall: Firewall) -> Self {
        FirewalledTransport { inner, firewall }
    }
}

impl<T: Transport> Transport for FirewalledTransport<T> {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        match self.firewall.inspect(&request_xml) {
            Verdict::Allow(_) => self.inner.call(request_xml),
            Verdict::Deny(reason) => Err(OgsaError::Transport(format!(
                "dropped by firewall: {reason}"
            ))),
        }
    }
}

/// A WS-Routing intermediary as a discrete-event task: drain the
/// mailbox, apply the firewall, forward allowed envelopes to their next
/// hop *without waiting*, and relay each hop's replies back to the
/// original senders. Spawn it with
/// [`Scheduler::spawn_mailbox`][gridsec_testbed::sched::Scheduler::spawn_mailbox]
/// under the router's endpoint name. The firewall is shared so a
/// harness can read its counters while the task lives on the scheduler.
pub struct RouterTask {
    endpoint: Endpoint,
    firewall: Rc<RefCell<Firewall>>,
    /// Original requesters awaiting a reply from each next hop, in
    /// forwarding order. Per-link delivery on a fault-free network is
    /// FIFO, so the first reply from a hop answers the first request
    /// forwarded to it.
    pending: HashMap<String, VecDeque<String>>,
}

impl RouterTask {
    /// Register `name` and route through `firewall`.
    pub fn new(network: &Network, name: &str, firewall: Rc<RefCell<Firewall>>) -> Self {
        RouterTask {
            endpoint: network.register(name),
            firewall,
            pending: HashMap::new(),
        }
    }

    fn handle(&mut self, msg: Message) {
        // A message from a hop we forwarded to is that hop's reply:
        // relay it to the requester at the head of the hop's queue.
        if let Some(q) = self.pending.get_mut(&msg.from) {
            if let Some(client) = q.pop_front() {
                let _ = self.endpoint.send(&client, msg.payload);
                return;
            }
        }
        let xml = String::from_utf8_lossy(&msg.payload).into_owned();
        let fault = match self.firewall.borrow_mut().inspect(&xml) {
            Verdict::Deny(reason) => crate::hosting::fault_envelope(&OgsaError::Transport(
                format!("dropped by firewall: {reason}"),
            )),
            Verdict::Allow(_) => match Envelope::parse(&xml) {
                Ok(mut env) => match routing::advance(&mut env) {
                    Ok(Some(next)) => match self.endpoint.send(&next, env.to_xml().into_bytes()) {
                        Ok(()) => {
                            self.pending.entry(next).or_default().push_back(msg.from);
                            return;
                        }
                        Err(e) => {
                            crate::hosting::fault_envelope(&OgsaError::Transport(e.to_string()))
                        }
                    },
                    _ => crate::hosting::fault_envelope(&OgsaError::Malformed(
                        "router received unrouted message",
                    )),
                },
                Err(e) => crate::hosting::fault_envelope(&OgsaError::Wsse(e)),
            },
        };
        let _ = self.endpoint.send(&msg.from, fault.to_xml().into_bytes());
    }
}

impl Task for RouterTask {
    fn step(&mut self, _cx: &TaskCx) -> Step {
        while let Some(msg) = self.endpoint.try_recv() {
            self.handle(msg);
        }
        Step::WaitMail { deadline: None }
    }
}

/// A client-side transport that sends every request via a routed path
/// (client → router(s) → service) on the simulated network.
pub struct RoutedTransport {
    endpoint: Endpoint,
    path: routing::RoutingPath,
}

impl RoutedTransport {
    /// Connect, targeting `path` (first via = the entry router).
    pub fn connect(network: &Network, client_name: &str, path: routing::RoutingPath) -> Self {
        RoutedTransport {
            endpoint: network.register(client_name),
            path,
        }
    }
}

impl Transport for RoutedTransport {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        let mut env = Envelope::parse(&request_xml)?;
        routing::set_path(&mut env, &self.path);
        // First hop: either the first via or the destination directly.
        let first = self
            .path
            .via
            .first()
            .cloned()
            .unwrap_or_else(|| self.path.to.clone());
        // Whoever receives the envelope — entry router or, going direct,
        // the service itself — must find its own hop already consumed.
        let _ = routing::advance(&mut env).map_err(OgsaError::Wsse)?;
        let reply = exchange(&self.endpoint, &first, env.to_xml().into_bytes())
            .map_err(|e| OgsaError::Transport(e.to_string()))?;
        String::from_utf8(reply.payload).map_err(|_| OgsaError::Transport("non-UTF8".into()))
    }
}
