//! Time-bucketed FIFO: the one queue behind the network's pending
//! deliveries and the scheduler's timers.
//!
//! Both used to be binary heaps ordered by `(time, seq)` with `seq`
//! handed out in push order. A sequence number that only ever grows
//! says nothing the push order does not already say, so the same total
//! order falls out of an ordered map from tick to a FIFO of that tick's
//! entries: earliest bucket first, insertion order within it. Popping
//! is a `pop_front` instead of a sift through `log n` 56-byte entries,
//! and nothing carries a `seq` any more.
//!
//! The map is a `BTreeMap`, not a ring of `horizon` slots: deadlines
//! are `saturating_add`ed (a bucket at `u64::MAX` is legal), a
//! zero-latency entry may be pushed behind entries hours ahead, and a
//! bucket may be refilled at *now* while it is being drained — all of
//! which an ordered map handles without a special case
//! (`tests/bucket_order.rs` replays each against the heap).
//!
//! A drained tick's FIFO is not freed: it goes on a short free list and
//! becomes the FIFO of the next new tick, so a steady stream of
//! messages or timers stops growing a `VecDeque` from nothing at every
//! tick. The list holds at most [`SPARE`] FIFOs; the order of entries
//! does not depend on which FIFO holds them.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};

/// Drained FIFOs kept for reuse.
const SPARE: usize = 8;

/// Entries tagged with a due time, popped in `(time, push order)` order.
pub(crate) struct TimeBuckets<T> {
    /// Per-tick FIFOs, none of them empty.
    buckets: BTreeMap<u64, VecDeque<T>>,
    /// Drained FIFOs, all of them empty, for the next new ticks.
    spare: Vec<VecDeque<T>>,
}

impl<T> Default for TimeBuckets<T> {
    fn default() -> Self {
        TimeBuckets {
            buckets: BTreeMap::new(),
            spare: Vec::new(),
        }
    }
}

impl<T> TimeBuckets<T> {
    /// Queue `item` for time `at`, behind everything already queued for
    /// that time.
    pub(crate) fn push(&mut self, at: u64, item: T) {
        match self.buckets.entry(at) {
            Entry::Occupied(tick) => tick.into_mut().push_back(item),
            Entry::Vacant(tick) => tick
                .insert(self.spare.pop().unwrap_or_default())
                .push_back(item),
        }
    }

    /// Due time of the head entry.
    pub(crate) fn next_at(&self) -> Option<u64> {
        self.buckets.first_key_value().map(|(at, _)| *at)
    }

    /// The head entry, without removing it.
    pub(crate) fn peek(&self) -> Option<&T> {
        self.buckets.first_key_value().and_then(|(_, q)| q.front())
    }

    /// Remove and return the head entry if it is due at or before `now`.
    pub(crate) fn pop_due(&mut self, now: u64) -> Option<T> {
        let mut head = self.buckets.first_entry()?;
        if *head.key() > now {
            return None;
        }
        let item = head.get_mut().pop_front();
        if head.get().is_empty() {
            let drained = head.remove();
            if self.spare.len() < SPARE {
                self.spare.push(drained);
            }
        }
        item
    }
}
