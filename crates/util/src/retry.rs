//! Retry/backoff policy shared by every client-side network path.
//!
//! The policy is pure arithmetic: it owns no clock and performs no
//! sleeping. Callers iterate the [`RetryPolicy::schedule`] and decide
//! themselves how to wait (the testbed advances a `SimClock`; a real
//! deployment would sleep). Keeping the math here — below every other
//! crate in the dependency graph — lets `gridsec-testbed`,
//! `gridsec-gssapi`, `gridsec-tls`, `gridsec-ogsa`, `gridsec-authz`,
//! and `gridsec-gram` all share one backoff shape without cycles.

/// An exponential-backoff retry policy (seconds, logical time).
///
/// Attempt `i` (0-based) gets a response timeout of
/// `min(base_timeout * multiplier^i, max_timeout)`; when it expires the
/// caller retransmits immediately, so the timeout sequence *is* the
/// backoff: the interval between retransmissions grows exponentially
/// and the worst-case total wait is `sum(timeouts)`
/// ([`RetryPolicy::worst_case_total`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum number of attempts (≥ 1). The first try counts.
    pub max_attempts: u32,
    /// Timeout of the first attempt, in seconds (≥ 1).
    pub base_timeout: u64,
    /// Timeout growth factor per attempt (≥ 1).
    pub multiplier: u64,
    /// Upper clamp on any single attempt's timeout, in seconds.
    pub max_timeout: u64,
}

impl Default for RetryPolicy {
    /// 5 attempts at 2s, 4s, 8s, 16s, 30s — tuned so a full exhaustion
    /// (~120s including backoff waits) stays well inside the 300s
    /// message-freshness window the OGSA pipeline enforces.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 5,
            base_timeout: 2,
            multiplier: 2,
            max_timeout: 30,
        }
    }
}

impl RetryPolicy {
    /// Timeout (seconds) for 0-based attempt `attempt`.
    pub fn timeout_for(&self, attempt: u32) -> u64 {
        let mut t = self.base_timeout.max(1);
        for _ in 0..attempt {
            t = t.saturating_mul(self.multiplier.max(1));
            if t >= self.max_timeout {
                return self.max_timeout.max(1);
            }
        }
        t.min(self.max_timeout).max(1)
    }

    /// Iterator of `(attempt, timeout_secs)` pairs, one per allowed try.
    pub fn schedule(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        (0..self.max_attempts.max(1)).map(move |i| (i, self.timeout_for(i)))
    }

    /// Worst-case total seconds a caller can spend before giving up:
    /// the sum of every attempt's timeout.
    pub fn worst_case_total(&self) -> u64 {
        self.schedule()
            .fold(0u64, |acc, (_, t)| acc.saturating_add(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_schedule_is_exponential_and_clamped() {
        let p = RetryPolicy::default();
        let sched: Vec<(u32, u64)> = p.schedule().collect();
        assert_eq!(sched, vec![(0, 2), (1, 4), (2, 8), (3, 16), (4, 30)]);
    }

    #[test]
    fn no_retry_tries_once() {
        let p = RetryPolicy {
            max_attempts: 1,
            base_timeout: 7,
            multiplier: 1,
            max_timeout: 7,
        };
        assert_eq!(p.schedule().collect::<Vec<_>>(), vec![(0, 7)]);
    }

    #[test]
    fn degenerate_values_stay_sane() {
        let p = RetryPolicy {
            max_attempts: 0,
            base_timeout: 0,
            multiplier: 0,
            max_timeout: 0,
        };
        // Clamps: at least one attempt, at least 1s timeout.
        assert_eq!(p.schedule().collect::<Vec<_>>(), vec![(0, 1)]);
        assert!(p.worst_case_total() >= 1);
    }

    #[test]
    fn worst_case_total_bounds_the_call() {
        let p = RetryPolicy::default();
        // 2 + 4 + 8 + 16 + 30 = 60
        assert_eq!(p.worst_case_total(), 60);
        assert!(p.worst_case_total() < 300, "must fit the xml-sig ttl");
    }

    #[test]
    fn huge_multipliers_do_not_overflow() {
        let p = RetryPolicy {
            max_attempts: 40,
            base_timeout: u64::MAX / 2,
            multiplier: u64::MAX,
            max_timeout: u64::MAX,
        };
        assert_eq!(p.timeout_for(39), u64::MAX);
        assert_eq!(p.worst_case_total(), u64::MAX);
    }
}
