//! Message transports connecting OGSA clients to hosting environments.
//!
//! * [`InProcessTransport`] — direct function call into a shared hosting
//!   environment (single-threaded benches and tests).
//! * [`RpcClient`] — the network wire: every envelope is one
//!   at-most-once call of [`gridsec_testbed::rpc`], so a lost envelope
//!   is retransmitted with exponential backoff and a duplicated one is
//!   answered from the server's reply cache instead of re-executing a
//!   (stateful) OGSA operation like `createService`. The server side is
//!   the hosting environment itself, a [`CrashRecover`] application on a
//!   [`CrashableServer`]; a routed call rides the same frames through
//!   [`crate::firewall::RouterTask`] hops.
//!
//! [`CrashableServer`]: gridsec_testbed::faults::CrashableServer

use std::cell::RefCell;
use std::rc::Rc;

use gridsec_testbed::faults::CrashRecover;
use gridsec_testbed::rpc::RpcClient;
use gridsec_util::trace;

use crate::hosting::HostingEnvironment;
use crate::OgsaError;

/// Moves one serialized envelope to the service and returns the reply.
pub trait Transport {
    /// Perform one request/response exchange.
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError>;
}

/// Direct dispatch into a locally-shared hosting environment.
#[derive(Clone)]
pub struct InProcessTransport {
    env: Rc<RefCell<HostingEnvironment>>,
}

impl InProcessTransport {
    /// Wrap a hosting environment for in-process calls.
    pub fn new(env: Rc<RefCell<HostingEnvironment>>) -> Self {
        InProcessTransport { env }
    }
}

impl Transport for InProcessTransport {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        Ok(self.env.borrow_mut().handle_message(&request_xml))
    }
}

/// Each envelope is one RPC call: retransmitted per the client's retry
/// policy, its reply matched by call id.
impl Transport for RpcClient {
    fn call(&mut self, request_xml: String) -> Result<String, OgsaError> {
        let mut sp = trace::span_with("ogsa.envelope", &format!("bytes={}", request_xml.len()));
        trace::add("ogsa.envelopes", 1);
        let result = RpcClient::call(self, request_xml.as_bytes())
            .map_err(|e| OgsaError::Transport(e.to_string()))
            .and_then(|reply| {
                String::from_utf8(reply).map_err(|_| OgsaError::Transport("non-UTF8".into()))
            });
        if let Err(e) = &result {
            sp.fail(&e.to_string());
        }
        result
    }
}

/// A hosting environment behind an RPC endpoint: host it with
/// `CrashableServer::spawn(sched, endpoint, name, &plan, &env)`. The
/// shared environment lets test scaffolding reach in (advance clocks,
/// inspect state) between calls. It fires no kill point and keeps no
/// journal, so it never dies, and `crash` and `recover` keep their
/// defaults: nothing to drop, no commit replies to restore.
impl CrashRecover for HostingEnvironment {
    fn handle(&mut self, from: &str, _id: u64, body: &[u8]) -> Vec<u8> {
        let _sp = trace::span_with("ogsa.dispatch", &format!("from={from}"));
        let request = String::from_utf8_lossy(body);
        self.handle_message(&request).into_bytes()
    }
}
