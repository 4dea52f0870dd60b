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
//! token-exchange actions), and [`RouterTask`] — the one place a
//! perimeter sits — forwards envelopes along their `wsr:path` through
//! the simulated network, so a service behind a perimeter is reachable
//! without the perimeter holding any credentials or terminating any
//! security context. A routed call ([`RoutedTransport`]) is one
//! at-most-once RPC call end to end: every hop correlates replies by
//! call id, never by arrival order, so loss, duplication and
//! reordering on any link cost a retransmission, not a wrong reply.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use gridsec_testbed::net::{Endpoint, Message, Network};
use gridsec_testbed::rpc::{self, RpcClient};
use gridsec_testbed::sched::{Step, Task, TaskCx};
use gridsec_wsse::routing;
use gridsec_wsse::soap::Envelope;
use gridsec_wsse::wssc::RST_ACTION;

use crate::transport::Transport;
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

/// A WS-Routing intermediary as a discrete-event task, speaking the
/// at-most-once RPC frames of [`gridsec_testbed::rpc`] on both sides.
/// Each request's body passes the firewall and is forwarded to its
/// next hop *without waiting*, under a relay id of this router's own;
/// the next hop's reply goes back to the requester under the call id
/// it used. A retransmitted request reuses its relay id, so the next
/// hop's reply cache answers it and the service still executes it at
/// most once. A denied or unroutable body is answered here with a
/// fault envelope. Non-RPC frames, and replies this router did not ask
/// for, are dropped. The router keeps no timers: retransmission is the
/// client's, end to end.
///
/// Spawn it with
/// [`Scheduler::spawn_mailbox`][gridsec_testbed::sched::Scheduler::spawn_mailbox]
/// under the router's endpoint name. The firewall is shared so a
/// harness can read its counters while the task lives on the scheduler;
/// it sees every copy of a request that reaches the router.
pub struct RouterTask {
    endpoint: Endpoint,
    firewall: Rc<RefCell<Firewall>>,
    /// Relay id of each forwarded `(requester, call id)`.
    relay_ids: HashMap<(String, u64), u64>,
    /// Indexed by relay id: whom to answer, and the hop that answers.
    relays: Vec<Relay>,
}

struct Relay {
    requester: String,
    id: u64,
    hop: String,
}

impl RouterTask {
    /// Register `name` and route through `firewall`.
    pub fn new(network: &Network, name: &str, firewall: Rc<RefCell<Firewall>>) -> Self {
        RouterTask {
            endpoint: network.register(name),
            firewall,
            relay_ids: HashMap::new(),
            relays: Vec::new(),
        }
    }

    fn handle(&mut self, msg: Message) {
        if let Some((relay, body)) = rpc::decode_reply(&msg.payload) {
            let known = usize::try_from(relay).ok().and_then(|i| self.relays.get(i));
            if let Some(r) = known.filter(|r| r.hop == msg.from) {
                let _ = self
                    .endpoint
                    .send(&r.requester, rpc::encode_reply(r.id, body));
            }
            return;
        }
        let Some((id, body)) = rpc::decode_request(&msg.payload) else {
            return;
        };
        let xml = String::from_utf8_lossy(body);
        if let Err(e) = self.forward(&msg.from, id, &xml) {
            let fault = crate::hosting::fault_envelope(&e).to_xml();
            let _ = self
                .endpoint
                .send(&msg.from, rpc::encode_reply(id, fault.as_bytes()));
        }
    }

    /// Firewall `xml` and send it on to its next hop under the relay id
    /// of `(from, id)`.
    fn forward(&mut self, from: &str, id: u64, xml: &str) -> Result<(), OgsaError> {
        if let Verdict::Deny(reason) = self.firewall.borrow_mut().inspect(xml) {
            return Err(OgsaError::Transport(format!(
                "dropped by firewall: {reason}"
            )));
        }
        let mut env = Envelope::parse(xml)?;
        let Ok(Some(hop)) = routing::advance(&mut env) else {
            return Err(OgsaError::Malformed("router received unrouted message"));
        };
        let relays = &mut self.relays;
        let relay = *self
            .relay_ids
            .entry((from.to_string(), id))
            .or_insert_with(|| {
                relays.push(Relay {
                    requester: from.to_string(),
                    id,
                    hop: hop.clone(),
                });
                relays.len() as u64 - 1
            });
        self.endpoint
            .send(&hop, rpc::encode_request(relay, env.to_xml().as_bytes()))
            .map_err(|e| OgsaError::Transport(e.to_string()))
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

/// A client-side transport that sends every request along a routed path
/// (client → router(s) → service): each envelope is one call of `rpc`,
/// the caller's client of the path's first hop.
pub struct RoutedTransport {
    rpc: RpcClient,
    path: routing::RoutingPath,
}

impl RoutedTransport {
    /// Route every request along `path` through `rpc`, which must call
    /// the path's first hop: its first via, or with none its
    /// destination.
    pub fn new(rpc: RpcClient, path: routing::RoutingPath) -> Self {
        debug_assert_eq!(rpc.server(), path.via.first().unwrap_or(&path.to));
        RoutedTransport { rpc, path }
    }
}

impl Transport for RoutedTransport {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        let mut env = Envelope::parse(&request_xml)?;
        routing::set_path(&mut env, &self.path);
        // Whoever receives the envelope — entry router or, going direct,
        // the service itself — must find its own hop already consumed.
        let _ = routing::advance(&mut env).map_err(OgsaError::Wsse)?;
        Transport::call(&mut self.rpc, env.to_xml())
    }
}
