//! Property tests for the deterministic token bucket.
//!
//! Two invariants the striped-transfer engine leans on:
//!
//! 1. **Budget**: over *any* seeded schedule of `take_at` calls, the
//!    bucket never grants more than its initial store plus the refill
//!    budget up to its frontier second — and grant times are monotone
//!    even when callers hand it a non-monotone clock.
//! 2. **Convergence**: greedy draining settles onto the configured
//!    rate — total grants land within one burst-plus-rate of the exact
//!    `burst + rate * elapsed` budget line.

use gridsec_util::check::check;
use gridsec_util::throttle::TokenBucket;

#[test]
fn grants_never_exceed_the_rate_budget_on_any_schedule() {
    check("throttle_budget", 192, |g| {
        let mut b = TokenBucket::new(g.u64_in(1..64), g.u64_in(1..256));
        let (rate, burst) = (b.rate(), b.burst());
        let mut now = 0u64;
        let mut last_grant = 0u64;
        let ops = g.usize_in(1..80);
        for _ in 0..ops {
            // A deliberately messy clock: sometimes stalled, sometimes
            // jumping, sometimes replaying an older second.
            now += g.u64_in(0..4);
            let asked = if g.bool() {
                now
            } else {
                now.saturating_sub(g.u64_in(0..8))
            };
            let n = g.u64_in(1..2 * burst + 1);
            let at = b.take_at(asked, n);
            assert!(
                at >= last_grant,
                "grant times regressed: {at} after {last_grant}"
            );
            last_grant = at;
            now = now.max(at);
            let frontier = now.max(last_grant);
            assert!(
                b.granted() <= burst + rate * frontier,
                "granted {} exceeds budget {} at frontier {frontier}",
                b.granted(),
                burst + rate * frontier
            );
        }
    });
}

#[test]
fn greedy_draining_converges_to_the_configured_rate() {
    check("throttle_rate_convergence", 128, |g| {
        let mut b = TokenBucket::new(g.u64_in(1..32), g.u64_in(1..128));
        let (rate, burst) = (b.rate(), b.burst());
        let n = g.u64_in(1..burst + 1);
        let mut now = 0u64;
        for _ in 0..400 {
            now = b.take_at(now, n);
        }
        // 400 requests of ≥1 token always outrun a ≤127-token store, so
        // the bucket has gone token-limited. Waits are whole seconds, so
        // the achievable long-run rate is the quantized `n/ceil(n/rate)`
        // (equal to `rate` whenever rate divides n): greedy draining
        // must land between that floor and the exact budget line.
        assert!(now > 0, "drain never became rate-limited");
        let budget = burst + rate * now;
        assert!(
            b.granted() <= budget,
            "granted {} over budget {budget}",
            b.granted()
        );
        let round_secs = n.div_ceil(rate);
        assert!(
            b.granted() * round_secs >= n * now,
            "granted {} under quantized rate floor {}/{round_secs} per second over {now} seconds",
            b.granted(),
            n
        );
        assert!(b.waits() >= 1, "greedy drain never waited");
    });
}
