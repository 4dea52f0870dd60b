//! Order oracle for `testbed::buckets::TimeBuckets`.
//!
//! The network's pending deliveries and the scheduler's timers used to
//! be `BinaryHeap<Reverse<(time, seq, …)>>` with `seq` assigned in push
//! order; every transcript, wake order and storm render in the
//! workspace hangs off the order those heaps popped in. The heap lives
//! on here, and only here, as the reference: over seeded interleavings
//! of push / pop-due / advance the bucket queue must hand back the
//! identical sequence — including the cases a time-bucketed structure
//! could plausibly get wrong: a push at *now* while the current bucket
//! is draining, a zero-latency entry behind far-future ones, saturated
//! `u64::MAX` deadlines, and stale heads discarded before time moves.
//! A drained tick's FIFO is reused for the next new tick, so the order
//! must also hold across that hand-over: a new tick, the drained tick
//! itself again, and a push at *now* while the tick is draining.
//!
//! The queue is private to the crate, so its source file is compiled
//! into this test directly.

#[path = "../src/buckets.rs"]
#[allow(dead_code)]
mod buckets;

use buckets::TimeBuckets;
use gridsec_util::check::{check, Gen};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt::Debug;

/// The bucket queue and the heap it replaced, fed the same pushes and
/// asked the same questions; every answer is compared on the spot.
struct Pair<T> {
    buckets: TimeBuckets<(u64, T)>,
    heap: BinaryHeap<Reverse<(u64, u64, T)>>,
    seq: u64,
    popped: u64,
}

impl<T: Ord + Clone + Debug> Pair<T> {
    fn new() -> Self {
        Pair {
            buckets: TimeBuckets::default(),
            heap: BinaryHeap::new(),
            seq: 0,
            popped: 0,
        }
    }

    fn push(&mut self, at: u64, entry: T) {
        self.seq += 1;
        self.buckets.push(at, (self.seq, entry.clone()));
        self.heap.push(Reverse((at, self.seq, entry)));
    }

    fn next_at(&self) -> Option<u64> {
        let want = self.heap.peek().map(|Reverse((at, ..))| *at);
        assert_eq!(self.buckets.next_at(), want, "next_at");
        want
    }

    fn peek(&self) -> Option<&T> {
        let want = self
            .heap
            .peek()
            .map(|Reverse((_, seq, entry))| (seq, entry));
        let got = self.buckets.peek().map(|(seq, entry)| (seq, entry));
        assert_eq!(got, want, "peek");
        want.map(|(_, entry)| entry)
    }

    fn pop_due(&mut self, now: u64) -> Option<T> {
        let want = match self.heap.peek() {
            Some(Reverse((at, ..))) if *at <= now => {
                self.heap.pop().map(|Reverse((_, seq, entry))| (seq, entry))
            }
            _ => None,
        };
        assert_eq!(self.buckets.pop_due(now), want, "pop_due({now})");
        self.popped += u64::from(want.is_some());
        want.map(|(_, entry)| entry)
    }
}

/// A due time as the fault layer and the retry loop produce them:
/// zero latency, a few ticks, hours ahead, or saturated.
fn due_time(g: &mut Gen, now: u64) -> u64 {
    match g.pick(6) {
        0 => now,
        1 | 2 => now.saturating_add(g.u64_in(1..6)),
        3 => now.saturating_add(g.u64_in(1_000..1_000_000_000)),
        4 => now.saturating_add(u64::MAX - g.u64_in(0..4)),
        _ => u64::MAX,
    }
}

/// One seeded interleaving. `entry` draws a payload; `stale` says
/// whether `Core::advance` would discard a head entry given the
/// per-task epochs (never, for deliveries).
fn interleave<T: Ord + Clone + Debug>(
    g: &mut Gen,
    mut entry: impl FnMut(&mut Gen) -> T,
    stale: impl Fn(&T, &[u64]) -> bool,
) {
    let mut pair = Pair::new();
    let mut now = g.u64_in(0..1_000);
    // Per-task wake epochs, as the scheduler keeps them.
    let mut epochs = vec![0u64; 8];
    for _ in 0..g.usize_in(10..120) {
        match g.pick(8) {
            0..=3 => pair.push(due_time(g, now), entry(g)),
            4 | 5 => {
                // Drain what is due, as `pump` / `absorb_wakes` do —
                // now and then refilling the bucket being drained.
                let mut refills = g.usize_in(0..4);
                while pair.pop_due(now).is_some() {
                    if refills > 0 && g.pick(3) == 0 {
                        refills -= 1;
                        pair.push(now, entry(g));
                    }
                }
            }
            6 => {
                let task = g.pick(epochs.len());
                epochs[task] += 1;
            }
            _ => {
                // `Core::advance`: drop stale heads, then move time to
                // the next entry (or just ahead, as a deadline would).
                while pair.peek().is_some_and(|head| stale(head, &epochs)) {
                    pair.pop_due(u64::MAX);
                }
                now = match pair.next_at() {
                    Some(at) if g.pick(4) > 0 => now.max(at),
                    _ => now.saturating_add(g.u64_in(0..4)),
                };
            }
        }
    }
    // Whatever is left comes out in the same order too.
    while pair.pop_due(u64::MAX).is_some() {}
    assert_eq!(pair.next_at(), None);
    assert_eq!(pair.popped, pair.seq, "every entry came back exactly once");
}

#[test]
fn delivery_shaped_entries_pop_in_heap_order() {
    // The parent's `PendingDelivery` after `(deliver_at, seq)`: sender,
    // recipient, payload — duplicates of one send share all three.
    check("buckets.delivery_order", 10_000, |g| {
        interleave(
            g,
            |g| {
                (
                    g.u32_in(0..6),
                    g.u32_in(0..6),
                    vec![g.u8(); g.usize_in(0..3)],
                )
            },
            |_, _| false,
        );
    });
}

#[test]
fn timer_shaped_entries_pop_in_heap_order_with_stale_heads_discarded() {
    // `(task, epoch)` as `Core::timers` holds them; an entry is stale
    // once its task's epoch has moved on.
    check("buckets.timer_order", 10_000, |g| {
        interleave(
            g,
            |g| (g.pick(8), g.u64_in(0..3)),
            |&(task, epoch), epochs| epochs[task] != epoch,
        );
    });
}

#[test]
fn reused_fifos_pop_in_heap_order() {
    // Each round queues a burst over a few ticks (now and then more
    // ticks than the free list keeps), drains the tick at *now* to
    // empty while pushing at *now* into it, and then pushes once more:
    // at a new tick or at the tick just drained, both of which take a
    // FIFO off the free list.
    check("buckets.reuse_order", 2_000, |g| {
        let mut pair = Pair::new();
        let mut now = g.u64_in(0..1_000);
        for _ in 0..g.usize_in(1..60) {
            for _ in 0..g.usize_in(0..24) {
                pair.push(now + g.u64_in(0..12), g.u8());
            }
            let mut refills = g.usize_in(0..3);
            while pair.pop_due(now).is_some() {
                if refills > 0 && g.pick(2) == 0 {
                    refills -= 1;
                    pair.push(now, g.u8());
                }
            }
            match g.pick(3) {
                0 => pair.push(now + g.u64_in(1..30), g.u8()),
                1 => pair.push(now, g.u8()),
                _ => {}
            }
            now += g.u64_in(0..3);
        }
        while pair.pop_due(u64::MAX).is_some() {}
        assert_eq!(pair.next_at(), None);
        assert_eq!(pair.popped, pair.seq, "every entry came back exactly once");
    });
}
