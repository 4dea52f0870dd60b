//! At-most-once request/reply over the simulated [`crate::net`] layer.
//!
//! The fault layer ([`crate::net::Network::enable_faults`]) drops,
//! duplicates, and reorders datagrams, so a bare send-then-receive is
//! not safe. This module supplies what every protocol crate's client
//! path needs instead:
//!
//! * **Framing** — requests and replies carry a magic tag and a 64-bit
//!   call id, so duplicated or reordered datagrams can be matched to the
//!   call that sent them (and stale ones discarded).
//! * **[`PollingCall`]** — the one retransmit loop: a resumable call
//!   that retransmits with exponential backoff per a [`RetryPolicy`].
//!   A scheduler task polls it from its `step`; call-shaped code uses
//!   [`RpcClient::call`], which polls one to completion from inside
//!   [`sched::wait`].
//! * **`RpcServer`** — executes each distinct `(caller, id)` request
//!   exactly once and caches the reply, so retransmissions and network
//!   duplicates of non-idempotent operations (GSS token steps, job
//!   submission) are answered from the cache instead of re-executed.
//!   This is the classic at-most-once RPC discipline, and the one copy
//!   of it: the reply cache of [`crate::faults::CrashableServer`], the
//!   one RPC host.
//! * **[`Reply`]** — the one reply envelope every request/reply service
//!   speaks inside the frame: `status ‖ body`, with status `"ok"`,
//!   `"none"` or `"err"`.

use crate::net::Endpoint;
use crate::sched;
use crate::TestbedError;
use gridsec_util::retry::RetryPolicy;
use gridsec_util::trace;
use std::collections::HashMap;
use std::ops::ControlFlow;

const REQ_MAGIC: &[u8; 4] = b"GRQ1";
const REP_MAGIC: &[u8; 4] = b"GRP1";
/// Magic tag and big-endian call id.
const HEADER_LEN: usize = 12;

/// Frame a request payload with its call id.
pub fn encode_request(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(REQ_MAGIC);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse a request frame into `(id, payload)`; `None` if not a request.
pub fn decode_request(bytes: &[u8]) -> Option<(u64, &[u8])> {
    decode(REQ_MAGIC, bytes)
}

/// Frame a reply payload with the call id it answers.
pub fn encode_reply(id: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(REP_MAGIC);
    out.extend_from_slice(&id.to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// Parse a reply frame into `(id, payload)`; `None` if not a reply.
pub fn decode_reply(bytes: &[u8]) -> Option<(u64, &[u8])> {
    decode(REP_MAGIC, bytes)
}

fn decode<'a>(magic: &[u8; 4], bytes: &'a [u8]) -> Option<(u64, &'a [u8])> {
    if bytes.len() < HEADER_LEN || &bytes[..4] != magic {
        return None;
    }
    let mut id = [0u8; 8];
    id.copy_from_slice(&bytes[4..HEADER_LEN]);
    Some((u64::from_be_bytes(id), &bytes[HEADER_LEN..]))
}

/// A service's answer to one request: the reply envelope of every
/// request/reply service in the workspace (the GSS acceptor, CAS, the
/// credential repository, identity mapping, GRAM).
///
/// Wire layout: `status ‖ body`, each field a `u32` big-endian length
/// followed by its bytes — `pki::encoding`'s `str` and `bytes`. The
/// status is `"ok"` ([`Reply::Ok`]), `"none"` ([`Reply::Absent`]) or
/// `"err"` ([`Reply::Refused`], whose body is a UTF-8 reason). Anything
/// else is malformed: a truncated field, an unknown status, a non-UTF-8
/// reason or a trailing byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// The request succeeded; the body is the service's answer.
    Ok(Vec<u8>),
    /// The request was understood but there is nothing to return (no
    /// mapping, not a member); the body may say why.
    Absent(Vec<u8>),
    /// The service refused the request, for this reason.
    Refused(String),
}

impl Reply {
    /// The envelope's bytes.
    pub fn encode(&self) -> Vec<u8> {
        let (status, body): (&[u8], &[u8]) = match self {
            Reply::Ok(body) => (b"ok", body),
            Reply::Absent(body) => (b"none", body),
            Reply::Refused(reason) => (b"err", reason.as_bytes()),
        };
        let mut out = Vec::with_capacity(8 + status.len() + body.len());
        for field in [status, body] {
            out.extend_from_slice(&(field.len() as u32).to_be_bytes());
            out.extend_from_slice(field);
        }
        out
    }

    /// Parse an envelope; `None` if it is malformed.
    pub fn decode(bytes: &[u8]) -> Option<Reply> {
        let (status, rest) = split_field(bytes)?;
        let (body, rest) = split_field(rest)?;
        if !rest.is_empty() {
            return None;
        }
        match status {
            b"ok" => Some(Reply::Ok(body.to_vec())),
            b"none" => Some(Reply::Absent(body.to_vec())),
            b"err" => String::from_utf8(body.to_vec()).ok().map(Reply::Refused),
            _ => None,
        }
    }
}

/// A handler's outcome as a reply: `Ok` carries the body, an error its
/// message as the refusal reason.
impl<E: std::fmt::Display> From<Result<Vec<u8>, E>> for Reply {
    fn from(outcome: Result<Vec<u8>, E>) -> Self {
        match outcome {
            Ok(body) => Reply::Ok(body),
            Err(e) => Reply::Refused(e.to_string()),
        }
    }
}

/// Split one length-prefixed field off the front of `bytes`.
fn split_field(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let (len, rest) = bytes.split_first_chunk::<4>()?;
    let len = u32::from_be_bytes(*len) as usize;
    (rest.len() >= len).then(|| rest.split_at(len))
}

/// Counters describing what a client's calls cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpcCallStats {
    /// Completed `call` invocations (success or failure).
    pub calls: u64,
    /// Retransmissions beyond each call's first attempt.
    pub retransmissions: u64,
    /// Attempts that timed out waiting for a reply.
    pub timeouts: u64,
}

/// A retrying RPC client bound to one server endpoint name: the
/// call-shaped face of [`PollingCall`].
pub struct RpcClient {
    endpoint: Endpoint,
    server: String,
    policy: RetryPolicy,
    next_id: u64,
    stats: RpcCallStats,
}

impl RpcClient {
    /// Bind `endpoint` as a client of the server named `server`.
    pub fn new(endpoint: Endpoint, server: &str, policy: RetryPolicy) -> Self {
        RpcClient {
            endpoint,
            server: server.to_string(),
            policy,
            next_id: 1,
            stats: RpcCallStats::default(),
        }
    }

    /// The client's own endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The server endpoint name this client calls.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// Cumulative call statistics.
    pub fn stats(&self) -> RpcCallStats {
        self.stats
    }

    /// Issue `request` and return the server's reply: one
    /// [`PollingCall`] polled to completion from [`sched::wait`], so the
    /// server (a task on the scheduler bound to this client's network)
    /// runs inside the call. Fails with the send error if the server
    /// endpoint is gone, or [`TestbedError::Timeout`] once the policy is
    /// exhausted or nothing is left that could answer. Safe under
    /// message duplication: the call id matches replies to this call,
    /// and the server's reply cache keeps the handler at-most-once.
    pub fn call(&mut self, request: &[u8]) -> Result<Vec<u8>, TestbedError> {
        self.stats.calls += 1;
        let id = self.next_id;
        self.next_id += 1;
        let mut call = PollingCall::new(&self.server, id, request, self.policy);
        let frame_len = call.frame.len() as u64;
        let mut sp = trace::span_with("rpc.call", &format!("server={} id={id}", self.server));
        trace::add("rpc.calls", 1);
        trace::add("rpc.bytes_sent", frame_len);
        let (endpoint, policy, stats) = (&self.endpoint, self.policy, &mut self.stats);
        let timed_out = |stats: &mut RpcCallStats| {
            stats.timeouts += 1;
            trace::add("rpc.timeouts", 1);
        };
        let mut attempt = 0u32;
        let outcome = sched::wait(endpoint.network(), |now| {
            let polled = call.poll(endpoint, now);
            // Each retransmission the poll made means the attempt before
            // it timed out.
            while u64::from(attempt) < call.retransmissions {
                attempt += 1;
                timed_out(stats);
                stats.retransmissions += 1;
                trace::add("rpc.retransmissions", 1);
                trace::add("rpc.bytes_sent", frame_len);
                let timeout = policy.timeout_for(attempt);
                trace::event(
                    "rpc.retransmit",
                    &format!("id={id} attempt={attempt} timeout={timeout}"),
                );
            }
            match polled {
                CallPoll::Ready(reply) => ControlFlow::Break(Ok(reply)),
                CallPoll::Wait { deadline } => ControlFlow::Continue(Some(deadline)),
                CallPoll::Exhausted => ControlFlow::Break(Err(match call.send_error.take() {
                    Some(e) => e,
                    None => {
                        timed_out(stats);
                        TestbedError::Timeout
                    }
                })),
            }
        });
        match outcome.and_then(|done| done) {
            Ok(reply) => {
                trace::add("rpc.bytes_received", HEADER_LEN as u64 + reply.len() as u64);
                Ok(reply)
            }
            Err(TestbedError::Timeout) => {
                // Retry budget exhausted: ship the recent trace ring so
                // the failure is diagnosable without rerunning the
                // scenario.
                sp.fail("retry budget exhausted");
                trace::event("rpc.exhausted", &format!("id={id} server={}", self.server));
                trace::flight_dump(&format!(
                    "rpc retry budget exhausted (server={} id={id})",
                    self.server
                ));
                Err(TestbedError::Timeout)
            }
            Err(e) => Err(e),
        }
    }
}

/// Result of polling a [`PollingCall`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallPoll {
    /// The matching reply arrived; the call is complete.
    Ready(Vec<u8>),
    /// Every attempt in the retry schedule timed out (or the server
    /// endpoint vanished). The call failed.
    Exhausted,
    /// Still waiting on the in-flight attempt. The caller should wake
    /// when its mailbox receives mail or at `deadline` (the attempt's
    /// timeout), whichever is first — i.e. return
    /// [`Step::WaitMail`](sched::Step::WaitMail) with this deadline from
    /// a scheduled task.
    Wait {
        /// Absolute sim time at which the current attempt times out.
        deadline: u64,
    },
}

/// A non-blocking, resumable RPC call — the workspace's one
/// retransmit-with-backoff loop, as a poll-style state machine: the
/// [`RetryPolicy`] schedule, per-attempt deadlines and stale-reply
/// discarding all live here. It never touches the clock; whoever polls
/// it says what time it is. A scheduled task polls it from `step` and
/// returns [`Step::WaitMail`](sched::Step::WaitMail) with the deadline
/// it reports; [`RpcClient::call`] polls it from [`sched::wait`].
///
/// The embedding task owns the [`Endpoint`] and passes it to each
/// [`PollingCall::poll`]; calls on one endpoint must be sequential,
/// with unique ids per `(caller, id)` pair.
pub struct PollingCall {
    server: String,
    id: u64,
    frame: Vec<u8>,
    policy: RetryPolicy,
    next_attempt: usize,
    attempt_deadline: Option<u64>,
    retransmissions: u64,
    /// Why the call is [`CallPoll::Exhausted`], when it was a failed
    /// send rather than the schedule running out.
    send_error: Option<TestbedError>,
}

impl PollingCall {
    /// Prepare a call of `payload` to `server` under `policy`. Nothing
    /// is sent until the first [`PollingCall::poll`].
    pub fn new(server: &str, id: u64, payload: &[u8], policy: RetryPolicy) -> Self {
        PollingCall {
            server: server.to_string(),
            id,
            frame: encode_request(id, payload),
            policy,
            next_attempt: 0,
            attempt_deadline: None,
            retransmissions: 0,
            send_error: None,
        }
    }

    /// Retransmissions beyond the first attempt, so far.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Advance the call: drain `ep`'s mailbox for the matching reply,
    /// and (re)transmit when the current attempt's deadline has passed.
    /// Non-matching frames (stale or duplicate replies of earlier
    /// calls) are discarded. A deadline already in the past triggers
    /// the next attempt on this very poll — it never silently extends
    /// the wait.
    pub fn poll(&mut self, ep: &Endpoint, now: u64) -> CallPoll {
        while let Some(m) = ep.try_recv() {
            if decode_reply(&m.payload).is_some_and(|(rid, _)| rid == self.id) {
                let mut reply = m.payload;
                reply.drain(..HEADER_LEN);
                return CallPoll::Ready(reply);
            }
        }
        loop {
            if let Some(d) = self.attempt_deadline {
                if now < d {
                    return CallPoll::Wait { deadline: d };
                }
            }
            // First transmission, or the in-flight attempt timed out.
            let Some((attempt, timeout)) = self.policy.schedule().nth(self.next_attempt) else {
                return CallPoll::Exhausted;
            };
            self.next_attempt += 1;
            if attempt > 0 {
                self.retransmissions += 1;
            }
            if let Err(e) = ep.send(&self.server, self.frame.clone()) {
                self.send_error = Some(e);
                return CallPoll::Exhausted;
            }
            self.attempt_deadline = Some(now.saturating_add(timeout));
        }
    }
}

/// The at-most-once reply cache of a
/// [`CrashableServer`](crate::faults::CrashableServer): executes
/// each distinct `(caller, id)` once and replays the cached reply for
/// retransmissions.
pub(crate) struct RpcServer {
    endpoint: Endpoint,
    seen: HashMap<(String, u64), Vec<u8>>,
}

impl RpcServer {
    /// Wrap a registered endpoint as an RPC server.
    pub(crate) fn new(endpoint: Endpoint) -> Self {
        RpcServer {
            endpoint,
            seen: HashMap::new(),
        }
    }

    /// The server's endpoint.
    pub(crate) fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Drain the mailbox, answering every request frame: fresh
    /// `(caller, id)` pairs go through `handler`, which sees the call id
    /// too, repeats are answered from the reply cache. Non-RPC frames
    /// are ignored. `handler` returns `None` when the process died
    /// handling the request: then nothing is cached or sent, and the
    /// drain stops with the rest of the mail still queued.
    pub(crate) fn serve(&mut self, mut handler: impl FnMut(&str, u64, &[u8]) -> Option<Vec<u8>>) {
        while let Some(m) = self.endpoint.try_recv() {
            let Some((id, body)) = decode_request(&m.payload) else {
                continue;
            };
            let key = (m.from.clone(), id);
            let reply = match self.seen.get(&key) {
                Some(cached) => cached.clone(),
                None => {
                    let Some(r) = handler(&m.from, id, body) else {
                        return;
                    };
                    self.seen.insert(key, r.clone());
                    r
                }
            };
            // The caller may have unregistered; a lost reply is the
            // retransmission layer's problem, not ours.
            let _ = self.endpoint.send(&m.from, encode_reply(id, &reply));
        }
    }

    /// Replace the reply cache with `replies` (a restarted process's
    /// commit records); returns how many it now holds.
    pub(crate) fn restore(
        &mut self,
        replies: impl IntoIterator<Item = ((String, u64), Vec<u8>)>,
    ) -> usize {
        self.seen.clear();
        self.seen.extend(replies);
        self.seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::faults::{CrashPlan, CrashRecover, CrashableServer};
    use crate::net::{FaultProfile, Network};
    use crate::sched::{Scheduler, Step, TaskCx};
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    /// The policy the lossy tests share: timeout windows larger than the
    /// worst-case round trip, so an attempt only fails when a copy was
    /// actually lost.
    const PATIENT: RetryPolicy = RetryPolicy {
        max_attempts: 8,
        base_timeout: 16,
        multiplier: 2,
        max_timeout: 64,
    };

    /// An uppercase-echo service; the counter reports how many requests
    /// it actually executed.
    struct Upper(Rc<Cell<u32>>);

    impl CrashRecover for Upper {
        fn handle(&mut self, _from: &str, _id: u64, body: &[u8]) -> Vec<u8> {
            self.0.set(self.0.get() + 1);
            body.to_ascii_uppercase()
        }
    }

    /// The echo service as a task on `sched` plus a client of it.
    fn served_pair(
        net: &Network,
        sched: &mut Scheduler,
        policy: RetryPolicy,
    ) -> (RpcClient, Rc<Cell<u32>>) {
        let executed = Rc::new(Cell::new(0));
        let app = Rc::new(RefCell::new(Upper(executed.clone())));
        CrashableServer::spawn(
            sched,
            net.register("server"),
            "server",
            &CrashPlan::disabled(),
            &app,
        );
        let client = RpcClient::new(net.register("client"), "server", policy);
        (client, executed)
    }

    #[test]
    fn frame_roundtrip_and_rejection() {
        let f = encode_request(42, b"body");
        assert_eq!(decode_request(&f), Some((42, &b"body"[..])));
        assert_eq!(decode_reply(&f), None);
        let r = encode_reply(42, b"resp");
        assert_eq!(decode_request(&r), None);
        assert_eq!(decode_reply(&r), Some((42, &b"resp"[..])));
        assert_eq!(decode_request(b"short"), None);
        assert_eq!(decode_request(b"<xml>not rpc at all</xml>"), None);
    }

    /// One envelope of each status, non-empty bodies.
    fn envelopes() -> [Reply; 3] {
        [
            Reply::Ok(b"token two".to_vec()),
            Reply::Absent(b"not a VO member".to_vec()),
            Reply::Refused("bad passphrase".into()),
        ]
    }

    #[test]
    fn reply_wire_layout_is_two_length_prefixed_fields() {
        assert_eq!(
            Reply::Ok(b"hi".to_vec()).encode(),
            b"\0\0\0\x02ok\0\0\0\x02hi"
        );
        assert_eq!(
            Reply::Absent(Vec::new()).encode(),
            b"\0\0\0\x04none\0\0\0\0"
        );
        assert_eq!(
            Reply::Refused("no".into()).encode(),
            b"\0\0\0\x03err\0\0\0\x02no"
        );
    }

    #[test]
    fn reply_roundtrips_and_every_truncation_is_malformed() {
        for reply in envelopes().into_iter().chain([Reply::Ok(Vec::new())]) {
            let bytes = reply.encode();
            assert_eq!(Reply::decode(&bytes), Some(reply.clone()));
            for cut in 0..bytes.len() {
                assert_eq!(Reply::decode(&bytes[..cut]), None, "{reply:?} cut at {cut}");
            }
            let mut trailing = bytes.clone();
            trailing.push(0);
            assert_eq!(Reply::decode(&trailing), None, "{reply:?} + trailing byte");
        }
    }

    #[test]
    fn reply_with_unknown_status_or_non_utf8_reason_is_malformed() {
        let envelope = |status: &[u8], body: &[u8]| {
            let mut out = Vec::new();
            for field in [status, body] {
                out.extend_from_slice(&(field.len() as u32).to_be_bytes());
                out.extend_from_slice(field);
            }
            out
        };
        for status in [&b"OK"[..], b"ok ", b"", b"error", b"\xff\xfe", b"nonE"] {
            assert_eq!(
                Reply::decode(&envelope(status, b"body")),
                None,
                "{status:?}"
            );
        }
        assert_eq!(Reply::decode(&envelope(b"err", b"\xff")), None);
        // Only a refusal's reason must be text; bodies are bytes.
        assert_eq!(
            Reply::decode(&envelope(b"ok", b"\xff")),
            Some(Reply::Ok(vec![0xff]))
        );
        // A length prefix larger than what follows.
        assert_eq!(Reply::decode(b"\0\0\0\x02ok\xff\xff\xff\xff"), None);
    }

    #[test]
    fn handler_outcome_converts_to_ok_or_refused() {
        assert_eq!(
            Reply::from(Ok::<_, &str>(b"x".to_vec())),
            Reply::Ok(b"x".to_vec())
        );
        assert_eq!(
            Reply::from(Err::<Vec<u8>, _>("bad DN")),
            Reply::Refused("bad DN".into())
        );
    }

    #[test]
    fn call_over_perfect_network() {
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let (mut client, _) = served_pair(&net, &mut sched, RetryPolicy::default());
        assert_eq!(client.call(b"hello").unwrap(), b"HELLO");
        assert_eq!(client.stats().retransmissions, 0);
    }

    #[test]
    fn retransmits_through_heavy_loss() {
        let net = Network::new();
        net.enable_faults(
            SimClock::new(),
            0xBEEF,
            FaultProfile {
                drop: 0.25,
                min_latency: 1,
                max_latency: 3,
                ..FaultProfile::lossy_wan()
            },
        );
        let mut sched = Scheduler::new(&net);
        let (mut client, executed) = served_pair(&net, &mut sched, PATIENT);
        for i in 0..20u32 {
            let req = format!("msg-{i}");
            assert_eq!(
                client.call(req.as_bytes()).unwrap(),
                req.to_ascii_uppercase().as_bytes()
            );
        }
        // 25% drop over 20 calls forces at least one retransmission,
        // and at-most-once holds regardless.
        assert!(client.stats().retransmissions > 0);
        assert_eq!(executed.get(), 20);
    }

    #[test]
    fn duplicated_requests_execute_once() {
        let net = Network::new();
        net.enable_faults(
            SimClock::new(),
            7,
            FaultProfile {
                duplicate: 1.0,
                max_extra_copies: 2,
                ..FaultProfile::default()
            },
        );
        let mut sched = Scheduler::new(&net);
        let (mut client, executed) = served_pair(&net, &mut sched, RetryPolicy::default());
        assert_eq!(client.call(b"once").unwrap(), b"ONCE");
        // Every duplicate reached the server, but the handler ran once.
        assert!(net.fault_stats().unwrap().duplicated >= 1);
        assert_eq!(executed.get(), 1);
    }

    #[test]
    fn exhausted_policy_times_out_deterministically() {
        let net = Network::new();
        let clock = SimClock::new();
        net.enable_faults(clock.clone(), 1, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        let (mut client, _) = served_pair(&net, &mut sched, RetryPolicy::default());
        net.partition("client", "server");
        let t0 = clock.now();
        assert_eq!(client.call(b"void"), Err(TestbedError::Timeout));
        // The clock advanced by exactly the policy's worst case.
        assert_eq!(clock.now() - t0, RetryPolicy::default().worst_case_total());
        assert_eq!(
            client.stats().timeouts,
            u64::from(RetryPolicy::default().max_attempts)
        );
        // Healing lets the same client complete its next call.
        net.heal_all();
        assert_eq!(client.call(b"back").unwrap(), b"BACK");
    }

    #[test]
    fn scheduled_server_without_faults_still_works() {
        // No fault layer, so no shared clock: the scheduler's own clock
        // times the call, and the server task stays parked between
        // calls.
        let net = Network::new();
        let mut sched = Scheduler::new(&net);
        let (mut client, _) = served_pair(&net, &mut sched, RetryPolicy::default());
        for msg in ["a", "b", "c"] {
            assert_eq!(
                client.call(msg.as_bytes()).unwrap(),
                msg.to_ascii_uppercase().as_bytes()
            );
        }
        assert_eq!(client.stats().retransmissions, 0);
        assert_eq!(sched.live(), 1, "server task still waiting");
    }

    #[test]
    fn call_to_an_unserved_endpoint_times_out_instead_of_parking() {
        // The server name is registered but nothing serves it, on a
        // fault-free network: the call retransmits into the void on the
        // scheduler's clock and exhausts. With no scheduler bound at all
        // it gives up after the first transmission.
        let policy = RetryPolicy::default();
        for driven in [true, false] {
            let net = Network::new();
            let _unserved = net.register("server");
            let sched = driven.then(|| Scheduler::new(&net));
            let mut client = RpcClient::new(net.register("client"), "server", policy);
            assert_eq!(client.call(b"anyone?"), Err(TestbedError::Timeout));
            let sent = if driven { policy.max_attempts } else { 1 };
            assert_eq!(net.stats().messages, u64::from(sent));
            if let Some(sched) = sched {
                assert_eq!(sched.now(), policy.worst_case_total());
            }
        }
    }

    #[test]
    fn vanished_server_is_a_send_error_not_a_timeout() {
        let net = Network::new();
        net.enable_faults(SimClock::new(), 1, FaultProfile::default());
        let mut sched = Scheduler::new(&net);
        let (mut client, _) = served_pair(&net, &mut sched, RetryPolicy::default());
        // Gone before the first transmission.
        net.unregister("server");
        assert_eq!(
            client.call(b"x"),
            Err(TestbedError::NoSuchEndpoint("server".into()))
        );
        assert_eq!(client.stats().timeouts, 0);
        // Gone between the first transmission and its retransmission.
        let _silent = net.register("server");
        net.partition("client", "server");
        let ep = net.register("probe");
        let mut call = PollingCall::new("server", 1, b"x", RetryPolicy::default());
        assert!(matches!(call.poll(&ep, 0), CallPoll::Wait { deadline: 2 }));
        net.unregister("server");
        assert_eq!(call.poll(&ep, 2), CallPoll::Exhausted);
        assert_eq!(
            call.send_error,
            Some(TestbedError::NoSuchEndpoint("server".into()))
        );
        assert_eq!(call.retransmissions(), 1);
    }

    /// Everything the sweep compares between the two drivers of one
    /// call sequence.
    #[derive(Debug, PartialEq)]
    struct Run {
        retransmissions: u64,
        transcript: Vec<String>,
        final_clock: u64,
    }

    fn lossy_world(seed: u64, drop: f64) -> (Network, SimClock) {
        let net = Network::new();
        let clock = SimClock::new();
        let profile = FaultProfile {
            drop,
            min_latency: 1,
            max_latency: 3,
            ..FaultProfile::lossy_wan()
        };
        net.enable_faults(clock.clone(), seed, profile);
        (net, clock)
    }

    const CALLS: u64 = 12;

    /// The call sequence through foreground [`RpcClient::call`]. A call
    /// that exhausts its budget ends the sequence (both drivers stop at
    /// the same one).
    fn foreground_run(seed: u64, drop: f64, policy: RetryPolicy) -> Run {
        let (net, clock) = lossy_world(seed, drop);
        let mut sched = Scheduler::new(&net);
        let (mut client, _) = served_pair(&net, &mut sched, policy);
        for i in 0..CALLS {
            let req = format!("msg-{i}");
            match client.call(req.as_bytes()) {
                Ok(reply) => assert_eq!(reply, req.to_ascii_uppercase().as_bytes()),
                Err(e) => {
                    assert_eq!(e, TestbedError::Timeout);
                    break;
                }
            }
        }
        // Let copies still in flight land, as the task's `run` does.
        sched.run();
        Run {
            retransmissions: client.stats().retransmissions,
            transcript: net.transcript(),
            final_clock: clock.now(),
        }
    }

    /// The same sequence as [`PollingCall`]s inside a spawned task.
    fn scheduled_run(seed: u64, drop: f64, policy: RetryPolicy) -> Run {
        let (net, clock) = lossy_world(seed, drop);
        let mut sched = Scheduler::new(&net);
        let (client, _) = served_pair(&net, &mut sched, policy);
        let retransmissions = Rc::new(Cell::new(0u64));
        let total = retransmissions.clone();
        let mut call: Option<PollingCall> = None;
        let mut next = 0u64;
        sched.spawn_mailbox("client", move |cx: &TaskCx| loop {
            let ep = client.endpoint();
            let c = call.get_or_insert_with(|| {
                next += 1;
                let req = format!("msg-{}", next - 1);
                PollingCall::new("server", next, req.as_bytes(), policy)
            });
            match c.poll(ep, cx.now()) {
                CallPoll::Ready(reply) => {
                    assert_eq!(reply, format!("MSG-{}", next - 1).as_bytes());
                    total.set(total.get() + c.retransmissions());
                    call = None;
                    if next == CALLS {
                        return Step::Done;
                    }
                }
                CallPoll::Wait { deadline } => {
                    return Step::WaitMail {
                        deadline: Some(deadline),
                    };
                }
                CallPoll::Exhausted => {
                    total.set(total.get() + c.retransmissions());
                    return Step::Done;
                }
            }
        });
        sched.run();
        Run {
            retransmissions: retransmissions.get(),
            transcript: net.transcript(),
            final_clock: clock.now(),
        }
    }

    #[test]
    fn foreground_call_matches_scheduled_polling_call_across_seeds_and_loss() {
        // One retransmit loop, two drivers: the scheduler polling a
        // task's PollingCall, and `sched::wait` polling RpcClient's.
        // Fault transcript, retransmission count and final clock must
        // not depend on which. (Both policies keep every timeout above
        // the worst round trip, 12 s here. A foreground waiter is probed
        // after the tasks woken on the same tick, a task in delivery
        // order; only a timeout that fires while a reply is still in
        // flight can tell the two apart.)
        let eager = RetryPolicy {
            max_attempts: 5,
            base_timeout: 13,
            multiplier: 3,
            max_timeout: 120,
        };
        let mut retransmitted = 0;
        for seed in 0..8u64 {
            for drop in [0.0, 0.10, 0.25, 0.50] {
                for policy in [PATIENT, eager] {
                    let seed = 0xBEEF ^ (seed * 0x9E37_79B9);
                    let foreground = foreground_run(seed, drop, policy);
                    assert_eq!(
                        foreground,
                        scheduled_run(seed, drop, policy),
                        "seed={seed:#x} drop={drop} policy={policy:?}"
                    );
                    retransmitted += foreground.retransmissions;
                }
            }
        }
        assert!(retransmitted > 0, "the sweep exercised the retry path");
    }
}
