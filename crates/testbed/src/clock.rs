//! Shared logical time.
//!
//! Every component in a scenario holds a clone of one [`SimClock`];
//! advancing it moves certificate validity, ticket lifetimes, and CRL
//! freshness forward deterministically.

use std::cell::Cell;
use std::rc::Rc;

/// A shared monotonic logical clock (seconds). Clones share one time:
/// the world's scheduler advances it, and its services, clients and
/// tracer read their clones.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    seconds: Rc<Cell<u64>>,
}

impl SimClock {
    /// A clock starting at `t = 0`.
    pub fn new() -> Self {
        SimClock::default()
    }

    /// A clock starting at `start` seconds.
    pub fn starting_at(start: u64) -> Self {
        let c = SimClock::new();
        c.seconds.set(start);
        c
    }

    /// Current time in seconds.
    pub fn now(&self) -> u64 {
        self.seconds.get()
    }

    /// Advance by `secs` and return the new time.
    pub fn advance(&self, secs: u64) -> u64 {
        self.seconds.set(self.seconds.get() + secs);
        self.now()
    }

    /// Set the time to `t`, which must not move backwards.
    pub fn set(&self, t: u64) {
        let prev = self.seconds.replace(t);
        assert!(t >= prev, "SimClock must not move backwards");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(SimClock::new().now(), 0);
        assert_eq!(SimClock::starting_at(100).now(), 100);
    }

    #[test]
    fn advances() {
        let c = SimClock::new();
        assert_eq!(c.advance(10), 10);
        assert_eq!(c.advance(5), 15);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now(), 42);
    }

    #[test]
    #[should_panic(expected = "must not move backwards")]
    fn no_time_travel() {
        let c = SimClock::starting_at(100);
        c.set(50);
    }
}
