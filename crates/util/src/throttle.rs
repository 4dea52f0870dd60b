//! Deterministic token-bucket bandwidth throttling on the sim clock.
//!
//! The striped GridFTP engine runs on the world's simulated clock, so
//! its bandwidth cap must be a pure function of the call sequence:
//! [`TokenBucket`] refills only when the caller hands it an explicit
//! `now` in sim seconds, never by reading a clock. Two runs that present
//! the same sequence of `(now, tokens)` requests observe byte-identical
//! grant times, which is what lets the chaos gates byte-compare striped
//! transcripts across processes.
//!
//! The bucket holds at most `burst` tokens and gains `rate` tokens per
//! sim second. [`TokenBucket::take_at`] returns the earliest second at
//! or after `now` when a request can be granted, and debits it — the
//! caller holds its bytes back until the clock gets there. Grants,
//! waits and waited seconds accumulate inside the bucket so the
//! transfer engine can report them.

/// A deterministic token bucket: `rate` tokens per sim second, capacity
/// `burst`, refilled lazily from an explicit caller-supplied clock.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: u64,
    burst: u64,
    tokens: u64,
    last_refill: u64,
    granted: u64,
    waits: u64,
    waited_secs: u64,
}

impl TokenBucket {
    /// Create a bucket granting `rate` tokens per second with capacity
    /// `burst`, starting full at second 0. `rate` is clamped to ≥ 1 and
    /// `burst` to ≥ `rate` so a maximal single request can always be
    /// served within one second of refill.
    pub fn new(rate: u64, burst: u64) -> Self {
        let rate = rate.max(1);
        let burst = burst.max(rate);
        TokenBucket {
            rate,
            burst,
            tokens: burst,
            last_refill: 0,
            granted: 0,
            waits: 0,
            waited_secs: 0,
        }
    }

    /// Configured refill rate (tokens per second).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Configured capacity (maximum stored tokens).
    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// Refill for the seconds elapsed since the last refill. A `now`
    /// earlier than the bucket's frontier is a no-op: the bucket is a
    /// shared serial resource, so a caller behind a grant already made
    /// for a later second is served at that frontier.
    fn advance_to(&mut self, now: u64) {
        if now <= self.last_refill {
            return;
        }
        let elapsed = now - self.last_refill;
        self.tokens = self
            .tokens
            .saturating_add(elapsed.saturating_mul(self.rate))
            .min(self.burst);
        self.last_refill = now;
    }

    /// Earliest second `>= max(now, frontier)` at which `n` tokens can be
    /// granted; the tokens are debited at that second and the grant time
    /// returned. Requests larger than `burst` are clamped to `burst`
    /// (they could never be satisfied whole).
    pub fn take_at(&mut self, now: u64, n: u64) -> u64 {
        let n = n.min(self.burst);
        let now = now.max(self.last_refill);
        self.advance_to(now);
        if n <= self.tokens {
            self.tokens -= n;
            self.granted += n;
            return now;
        }
        let deficit = n - self.tokens;
        let wait = deficit.div_ceil(self.rate);
        let at = now + wait;
        self.advance_to(at);
        self.tokens -= n;
        self.granted += n;
        self.waits += 1;
        self.waited_secs += wait;
        at
    }

    /// Total tokens granted since creation.
    pub fn granted(&self) -> u64 {
        self.granted
    }

    /// Requests that had to wait for a refill.
    pub fn waits(&self) -> u64 {
        self.waits
    }

    /// Total seconds of imposed waiting across all delayed grants.
    pub fn waited_secs(&self) -> u64 {
        self.waited_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_full_and_grants_burst_immediately() {
        let mut b = TokenBucket::new(4, 16);
        assert_eq!(b.take_at(0, 16), 0);
        assert_eq!(b.granted(), 16);
        assert_eq!(b.waits(), 0);
    }

    #[test]
    fn empty_bucket_waits_for_refill() {
        let mut b = TokenBucket::new(4, 16);
        assert_eq!(b.take_at(0, 16), 0);
        // 8 tokens need ceil(8/4)=2 seconds of refill.
        assert_eq!(b.take_at(0, 8), 2);
        assert_eq!(b.waits(), 1);
        assert_eq!(b.waited_secs(), 2);
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(10, 20);
        assert_eq!(b.take_at(0, 20), 0);
        // A long idle period cannot store more than `burst`: the full
        // burst is there at once, one token more waits a second.
        assert_eq!(b.take_at(1_000, 20), 1_000);
        assert_eq!(b.take_at(1_000, 1), 1_001);
    }

    #[test]
    fn oversized_requests_clamp_to_burst() {
        let mut b = TokenBucket::new(2, 8);
        let at = b.take_at(0, 1_000);
        assert_eq!(at, 0, "clamped to the full burst, available at t=0");
        assert_eq!(b.granted(), 8);
    }

    #[test]
    fn grant_times_are_monotone_under_greedy_draining() {
        let mut b = TokenBucket::new(3, 9);
        let mut now = 0;
        let mut last = 0;
        for _ in 0..50 {
            let at = b.take_at(now, 5);
            assert!(at >= last);
            last = at;
            now = at;
        }
    }
}
