//! Shard-aware scheduling: canonical event ordering and windowed queues.
//!
//! A sharded simulation partitions its entities over several event queues and
//! drains them in parallel over bounded time windows. For the results to be
//! bit-identical for *every* shard count, event ordering must not depend on
//! which queue an event happens to sit in — so instead of insertion-order
//! tie-breaking (a global counter that encodes scheduling history) events are
//! ordered by a **canonical key** that is a pure function of the event itself:
//!
//! * `time` — the firing time (primary, as always),
//! * `class` — a small rank separating event families at equal times (e.g.
//!   query issues before periodic maintenance before deliveries, mirroring the
//!   initial-scheduling order of the sequential engine),
//! * `a`, `b` — embedding-defined discriminators (destination/source entity,
//!   per-channel FIFO sequence numbers, schedule indices) that make the order
//!   total and shard-layout-independent.
//!
//! [`ShardQueue`] is a priority queue over such keys with a *bounded pop*:
//! `pop_before(bound)` only surrenders events strictly below a window bound,
//! which is what lets a coordinator drain many shards concurrently up to a
//! common horizon and merge cross-shard traffic at the barrier.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A canonical, shard-layout-independent ordering key for one event.
///
/// Keys order lexicographically by `(time, class, a, b)`. The embedding
/// chooses the `class`/`a`/`b` encoding; the only contract is that the key is
/// derived from the event's identity (never from scheduling history), so two
/// executions that generate the same events order them identically no matter
/// how the entities are partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Firing time (primary order).
    pub time: SimTime,
    /// Event-family rank at equal times.
    pub class: u8,
    /// First embedding-defined discriminator.
    pub a: u64,
    /// Second embedding-defined discriminator.
    pub b: u64,
}

impl EventKey {
    /// The largest representable key; useful as an "unbounded" window end.
    pub const MAX: EventKey = EventKey {
        time: SimTime::MAX,
        class: u8::MAX,
        a: u64::MAX,
        b: u64::MAX,
    };

    /// Builds a key.
    pub const fn new(time: SimTime, class: u8, a: u64, b: u64) -> Self {
        EventKey { time, class, a, b }
    }

    /// The window bound that admits **every** key with `key.time < t` and
    /// none at or after `t` (all real keys at `t` compare `>=` this bound
    /// except a class-0 key with zero discriminators, which embeddings must
    /// not treat as below it — [`ShardQueue::pop_before`] uses strict `<`).
    pub const fn before_time(t: SimTime) -> Self {
        EventKey {
            time: t,
            class: 0,
            a: 0,
            b: 0,
        }
    }
}

/// One keyed event in a [`ShardQueue`]. Ordering ignores the payload.
#[derive(Debug, Clone)]
struct KeyedEvent<E> {
    key: EventKey,
    payload: E,
}

impl<E> PartialEq for KeyedEvent<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for KeyedEvent<E> {}

impl<E> PartialOrd for KeyedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for KeyedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A canonical-key-ordered event queue for one shard.
///
/// Every event carries an explicit [`EventKey`]; popping returns events in
/// key order regardless of push order, and
/// [`ShardQueue::pop_before`] bounds the drain to a window.
#[derive(Debug, Clone)]
pub struct ShardQueue<E> {
    heap: BinaryHeap<Reverse<KeyedEvent<E>>>,
}

impl<E> Default for ShardQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        ShardQueue {
            heap: BinaryHeap::new(),
        }
    }

    /// Creates an empty queue with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        ShardQueue {
            heap: BinaryHeap::with_capacity(capacity),
        }
    }

    /// Schedules `payload` under `key`.
    pub fn push(&mut self, key: EventKey, payload: E) {
        self.heap.push(Reverse(KeyedEvent { key, payload }));
    }

    /// The smallest pending key, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        self.heap.peek().map(|Reverse(ev)| ev.key)
    }

    /// Removes and returns the earliest event **strictly below** `bound`,
    /// or `None` when the earliest pending event is at or past the bound
    /// (or the queue is empty).
    pub fn pop_before(&mut self, bound: EventKey) -> Option<(EventKey, E)> {
        match self.heap.peek() {
            Some(Reverse(ev)) if ev.key < bound => {
                let Reverse(ev) = self.heap.pop().expect("peeked event must pop");
                Some((ev.key, ev.payload))
            }
            _ => None,
        }
    }

    /// Removes and returns the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.pop_before(EventKey::MAX)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(us: u64, class: u8, a: u64, b: u64) -> EventKey {
        EventKey::new(SimTime::from_micros(us), class, a, b)
    }

    #[test]
    fn keys_order_lexicographically() {
        let ordered = [
            key(1, 3, 9, 9),
            key(2, 0, 0, 0),
            key(2, 0, 0, 1),
            key(2, 0, 1, 0),
            key(2, 1, 0, 0),
            key(2, 3, 0, 0),
            key(3, 0, 0, 0),
        ];
        for pair in ordered.windows(2) {
            assert!(pair[0] < pair[1], "{:?} must precede {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn pop_order_is_key_order_not_push_order() {
        let mut q = ShardQueue::new();
        q.push(key(5, 3, 2, 0), "late");
        q.push(key(5, 0, 7, 0), "issue");
        q.push(key(1, 3, 0, 0), "early");
        q.push(key(5, 3, 1, 0), "mid");
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["early", "issue", "mid", "late"]);
    }

    #[test]
    fn pop_before_respects_the_strict_bound() {
        let mut q = ShardQueue::new();
        q.push(key(10, 0, 1, 0), "issue-at-10");
        q.push(key(10, 3, 0, 0), "deliver-at-10");
        q.push(key(9, 3, 0, 0), "deliver-at-9");

        // `before_time(10)` admits only strictly-earlier times...
        let bound = EventKey::before_time(SimTime::from_micros(10));
        assert_eq!(q.pop_before(bound).map(|(_, p)| p), Some("deliver-at-9"));
        assert_eq!(q.pop_before(bound), None);
        assert_eq!(q.len(), 2);

        // ...while a class-1 bound at t=10 additionally admits the class-0
        // issue at exactly t=10 (the "issues before maintenance" ordering).
        let ctrl = key(10, 1, 0, 0);
        assert_eq!(q.pop_before(ctrl).map(|(_, p)| p), Some("issue-at-10"));
        assert_eq!(q.pop_before(ctrl), None);
        assert_eq!(q.pop().map(|(_, p)| p), Some("deliver-at-10"));
        assert!(q.is_empty());
    }

    #[test]
    fn peek_key_matches_next_pop() {
        let mut q = ShardQueue::new();
        assert_eq!(q.peek_key(), None);
        q.push(key(7, 3, 0, 0), ());
        q.push(key(3, 3, 0, 0), ());
        assert_eq!(q.peek_key(), Some(key(3, 3, 0, 0)));
        let (k, _) = q.pop().unwrap();
        assert_eq!(k, key(3, 3, 0, 0));
    }

    #[test]
    fn max_key_bound_drains_everything() {
        let mut q = ShardQueue::with_capacity(8);
        for i in 0..8u64 {
            q.push(key(i, 3, 0, 0), i);
        }
        let mut n = 0;
        while q.pop_before(EventKey::MAX).is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
    }
}
