//! Deterministic token-bucket bandwidth throttling.
//!
//! The striped GridFTP engine measures time in simulated ticks, not
//! wall clock, so its bandwidth cap must be a pure function of the
//! call sequence: [`TokenBucket`] refills only when the caller hands it
//! an explicit `now`, never by reading a clock. Two runs that present
//! the same sequence of `(now, tokens)` requests observe byte-identical
//! grant times, which is what lets the chaos gates byte-compare striped
//! transcripts across processes.
//!
//! The bucket holds at most `burst` tokens and gains `rate` tokens per
//! tick. [`TokenBucket::take_at`] is the blocking-shaped primitive: it
//! returns the earliest tick at or after `now` when the request can be
//! granted, and debits it — callers advance their own timeline to the
//! returned tick. Rate-trace counters (grants, waits, waited ticks)
//! accumulate inside the bucket so the transfer engine can mirror them
//! into its metrics snapshot.

/// A deterministic token bucket: `rate` tokens per tick, capacity
/// `burst`, refilled lazily from an explicit caller-supplied clock.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: u64,
    burst: u64,
    tokens: u64,
    last_refill: u64,
    granted: u64,
    waits: u64,
    waited_ticks: u64,
}

impl TokenBucket {
    /// Create a bucket granting `rate` tokens per tick with capacity
    /// `burst`, starting full at tick 0. `rate` is clamped to ≥ 1 and
    /// `burst` to ≥ `rate` so a maximal single request can always be
    /// served within one tick of refill.
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
            waited_ticks: 0,
        }
    }

    /// Configured refill rate (tokens per tick).
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Configured capacity (maximum stored tokens).
    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// Refill for the ticks elapsed since the last refill. A `now`
    /// earlier than the bucket's internal frontier is a no-op: the
    /// bucket is a shared serial resource, so callers on lagging
    /// per-stripe timelines observe it at its frontier time.
    pub(crate) fn advance_to(&mut self, now: u64) {
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

    /// Take `n` tokens at `now` if available; `false` leaves the bucket
    /// untouched apart from the refill.
    pub fn try_take(&mut self, now: u64, n: u64) -> bool {
        self.advance_to(now);
        if n <= self.tokens {
            self.tokens -= n;
            self.granted += n;
            true
        } else {
            false
        }
    }

    /// Earliest tick `>= max(now, frontier)` at which `n` tokens can be
    /// granted; the tokens are debited at that tick and the grant time
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
        self.waited_ticks += wait;
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

    /// Total ticks of imposed waiting across all delayed grants.
    pub fn waited_ticks(&self) -> u64 {
        self.waited_ticks
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
        // 8 tokens need ceil(8/4)=2 ticks of refill.
        assert_eq!(b.take_at(0, 8), 2);
        assert_eq!(b.waits(), 1);
        assert_eq!(b.waited_ticks(), 2);
    }

    #[test]
    fn try_take_refuses_without_side_effects() {
        let mut b = TokenBucket::new(1, 4);
        assert!(b.try_take(0, 4));
        assert!(!b.try_take(0, 1));
        assert_eq!(b.granted(), 4);
        // One tick later one token exists.
        assert!(b.try_take(1, 1));
    }

    #[test]
    fn refill_caps_at_burst() {
        let mut b = TokenBucket::new(10, 20);
        assert_eq!(b.take_at(0, 20), 0);
        // A long idle period cannot store more than `burst`.
        b.advance_to(1_000);
        assert!(b.try_take(1_000, 20));
        assert!(!b.try_take(1_000, 1));
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
