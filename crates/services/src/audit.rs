//! The audit service: "a service that securely logs relevant information
//! about events" (paper §4.1).
//!
//! Entries are hash-chained: each record carries the SHA-256 of its
//! predecessor, so truncation or in-place modification of history is
//! detectable by [`AuditLog::verify`].

use gridsec_crypto::sha256::sha256;
use gridsec_ogsa::hosting::AuditEvent;
use std::cell::RefCell;
use std::rc::Rc;

/// One chained audit record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditRecord {
    /// Sequence number.
    pub seq: u64,
    /// The recorded event.
    pub event: AuditEvent,
    /// Hash of the previous record (all zero for the first).
    pub prev_hash: [u8; 32],
    /// Hash of this record (over seq, event fields, prev_hash).
    pub hash: [u8; 32],
}

fn record_hash(seq: u64, event: &AuditEvent, prev_hash: &[u8; 32]) -> [u8; 32] {
    let mut data = Vec::new();
    data.extend_from_slice(&seq.to_be_bytes());
    data.extend_from_slice(&event.now.to_be_bytes());
    data.extend_from_slice(event.caller.as_bytes());
    data.push(0);
    data.extend_from_slice(event.operation.as_bytes());
    data.push(0);
    data.extend_from_slice(event.outcome.as_bytes());
    data.push(0);
    let reason = event.reason.as_ref().map(ToString::to_string);
    data.extend_from_slice(reason.unwrap_or_default().as_bytes());
    data.extend_from_slice(prev_hash);
    sha256(&data)
}

/// A tamper-evident audit log. Clones share one chain: every hosting
/// environment's [`AuditLog::sink`] and the tracer's
/// `AuditLog::trace_sink` append to the log the scenario verifies.
#[derive(Clone, Default)]
pub struct AuditLog {
    inner: Rc<RefCell<Vec<AuditRecord>>>,
}

impl AuditLog {
    /// Empty log.
    pub fn new() -> Self {
        AuditLog::default()
    }

    /// Append an event, chaining it to the previous record.
    pub(crate) fn append(&self, event: AuditEvent) {
        let mut log = self.inner.borrow_mut();
        let seq = log.len() as u64;
        let prev_hash = log.last().map(|r| r.hash).unwrap_or([0u8; 32]);
        let hash = record_hash(seq, &event, &prev_hash);
        log.push(AuditRecord {
            seq,
            event,
            prev_hash,
            hash,
        });
    }

    /// Snapshot of all records.
    pub fn records(&self) -> Vec<AuditRecord> {
        self.inner.borrow().clone()
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.borrow().len()
    }

    /// `true` if no records.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().is_empty()
    }

    /// Verify the whole chain; returns the index of the first bad record,
    /// or `Ok(())`.
    pub fn verify(&self) -> Result<(), usize> {
        let log = self.inner.borrow();
        let mut prev = [0u8; 32];
        for (i, rec) in log.iter().enumerate() {
            if rec.seq != i as u64
                || rec.prev_hash != prev
                || rec.hash != record_hash(rec.seq, &rec.event, &rec.prev_hash)
            {
                return Err(i);
            }
            prev = rec.hash;
        }
        Ok(())
    }

    /// An [`gridsec_ogsa::hosting::AuditSink`] feeding this log — plug it
    /// into a hosting environment with `set_audit`.
    pub fn sink(&self) -> gridsec_ogsa::hosting::AuditSink {
        let log = self.clone();
        Box::new(move |event| log.append(event))
    }

    /// A [`gridsec_util::trace::TraceSink`] mirroring every trace event
    /// into this hash chain: the span name becomes the caller, the
    /// event name the operation, and the detail the outcome. Install it
    /// with [`gridsec_util::trace::Tracer::set_sink`] so the flows'
    /// structured events land in the tamper-evident log — the paper's
    /// audit service fed by live flow data.
    pub(crate) fn trace_sink(&self) -> gridsec_util::trace::TraceSink {
        let log = self.clone();
        Box::new(move |r: gridsec_util::trace::SinkRecord| {
            log.append(AuditEvent {
                now: r.t,
                caller: r.span,
                operation: r.name,
                outcome: r.detail,
                reason: None,
            });
        })
    }

    /// Attach this log to `tracer`: every span event the tracer records
    /// is chained here.
    pub fn attach(&self, tracer: &gridsec_util::trace::Tracer) {
        tracer.set_sink(self.trace_sink());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(caller: &str, op: &str, outcome: &str) -> AuditEvent {
        AuditEvent {
            now: 100,
            caller: caller.to_string(),
            operation: op.to_string(),
            outcome: outcome.to_string(),
            reason: None,
        }
    }

    #[test]
    fn append_and_verify() {
        let log = AuditLog::new();
        log.append(ev("/O=G/CN=A", "createService echo", "permit"));
        log.append(ev("/O=G/CN=B", "invoke gsh:1 run", "deny"));
        log.append(ev("/O=G/CN=A", "destroy gsh:1", "permit"));
        assert_eq!(log.len(), 3);
        assert!(log.verify().is_ok());
        // Chain links.
        let records = log.records();
        assert_eq!(records[1].prev_hash, records[0].hash);
        assert_eq!(records[2].prev_hash, records[1].hash);
    }

    #[test]
    fn tampering_detected() {
        let log = AuditLog::new();
        log.append(ev("a", "x", "permit"));
        log.append(ev("b", "y", "deny"));
        // Rewrite history in place.
        log.inner.borrow_mut()[0].event.outcome = "deny".to_string();
        assert_eq!(log.verify(), Err(0));
        // A denial's reason is covered too.
        log.inner.borrow_mut()[0].event.outcome = "permit".to_string();
        log.inner.borrow_mut()[1].event.reason = Some(gridsec_authz::AuthzError::NotGranted);
        assert_eq!(log.verify(), Err(1));
    }

    #[test]
    fn truncation_detected() {
        let log = AuditLog::new();
        log.append(ev("a", "x", "permit"));
        log.append(ev("b", "y", "permit"));
        log.append(ev("c", "z", "permit"));
        log.inner.borrow_mut().remove(1); // drop a middle record
        assert!(log.verify().is_err());
    }

    #[test]
    fn sink_feeds_log() {
        let log = AuditLog::new();
        let mut sink = log.sink();
        sink(ev("caller", "op", "permit"));
        sink(ev("caller", "op2", "deny"));
        assert_eq!(log.len(), 2);
        assert!(log.verify().is_ok());
    }

    #[test]
    fn empty_log_verifies() {
        assert!(AuditLog::new().verify().is_ok());
    }

    #[test]
    fn trace_events_chain_into_the_log() {
        use gridsec_util::trace;
        let log = AuditLog::new();
        let tracer = trace::Tracer::new();
        log.attach(&tracer);
        let _g = trace::install(&tracer);
        {
            let _sp = trace::span("cas.issue");
            trace::event("cas.decision", "subject=/O=G/CN=Alice outcome=issued");
        }
        trace::event("orphan", "no span open");
        let records = log.records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].event.caller, "cas.issue");
        assert_eq!(records[0].event.operation, "cas.decision");
        assert_eq!(
            records[0].event.outcome,
            "subject=/O=G/CN=Alice outcome=issued"
        );
        assert_eq!(records[1].event.caller, "");
        assert!(log.verify().is_ok());
    }
}
