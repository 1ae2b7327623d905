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

use std::cmp::Reverse;
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

// The ring's geometry, fixed by the paper's link-latency range (10–500 ms per
// overlay hop): a slice is 2^13 µs = 8.192 ms, just under the 10 ms minimum,
// so an event's own sends never land in the slice being drained, and the ring
// spans 128 × 8.192 ms = 1.05 s, past the 500 ms maximum, so every delivery
// lands inside it. (Finer slices are slower: 1.024 ms × 1024 spread a burst
// over so many hot bucket tails that pushes cost more than the sifts saved.)
const SLICE_SHIFT: u32 = 13;
const SLOTS: usize = 128;
// One occupancy bit per bucket.
const _: () = assert!(SLOTS == u128::BITS as usize);

/// The time slice `time` falls into.
fn slice_of(time: SimTime) -> u64 {
    time.as_micros() >> SLICE_SHIFT
}

/// What the queue orders: an event's key, flattened so the slab slot fits in
/// the key's padding (32 bytes, where the engine's payloads are up to 96 and
/// never move once in the slab). Field order is comparison order; keys are
/// unique in the engine, so `slot` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: SimTime,
    class: u8,
    a: u64,
    b: u64,
    slot: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 32);

impl Entry {
    fn key(&self) -> EventKey {
        EventKey::new(self.time, self.class, self.a, self.b)
    }
}

/// The unsorted events of one future time slice.
#[derive(Debug, Clone)]
struct Bucket {
    entries: Vec<Entry>,
    /// The smallest key in `entries` (meaningless while it is empty), kept on
    /// push so that peeking never has to scan or sort.
    min: EventKey,
}

/// How a queue's traffic split between its two structures.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes that landed in a calendar-ring bucket.
    pub ring_pushes: u64,
    /// Pushes that fell back to the heap.
    pub fallback_pushes: u64,
    /// The largest number of events ever pending at once.
    pub peak_len: u64,
}

/// A canonical-key-ordered event queue for one shard.
///
/// Every event carries an explicit [`EventKey`]; popping returns events in
/// key order regardless of push order, and
/// [`ShardQueue::pop_before`] bounds the drain to a window.
///
/// Inside, payloads sit still in a slab and three structures order thin
/// entries that point at them: a **calendar ring** of unsorted per-slice
/// buckets for events less than a ring-length ahead of the slice being
/// drained, that slice's own events sorted once (`current`), and a binary heap
/// for everything else — far-future timers, pushes into the slice being
/// drained, pushes behind it. The earliest event is always the smaller of
/// `current`'s last entry (or, while `current` is empty, the next occupied
/// bucket's minimum) and the heap's top, whatever order pushes came in;
/// time-monotone pushes only make it fast, because then nearly every event
/// costs one `Vec::push` and a share of one sort instead of two full-depth
/// sifts.
#[derive(Debug, Clone)]
pub struct ShardQueue<E> {
    /// Payloads by slot; `None` marks a slot on the free list.
    slab: Vec<Option<E>>,
    free: Vec<u32>,
    /// Bucket `s % SLOTS` holds the ring's events of slice `s`, for
    /// `cursor < s < cursor + SLOTS`.
    buckets: Vec<Bucket>,
    /// Bit `i` is set while bucket `i` is non-empty.
    occupied: u128,
    /// The slice being drained: the one `current` was filled from or, while
    /// the ring idles, the one before the last heap pop. Only moves forward.
    cursor: u64,
    /// What is left of slice `cursor`'s bucket, sorted descending so the
    /// earliest event pops off the end.
    current: Vec<Entry>,
    /// Every event outside the ring's window at the time it was pushed.
    heap: BinaryHeap<Reverse<Entry>>,
    ring_pushes: u64,
    fallback_pushes: u64,
}

impl<E> Default for ShardQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> ShardQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events.
    pub fn with_capacity(capacity: usize) -> Self {
        let bucket = Bucket {
            entries: Vec::new(),
            min: EventKey::MAX,
        };
        ShardQueue {
            slab: Vec::with_capacity(capacity),
            free: Vec::new(),
            buckets: vec![bucket; SLOTS],
            occupied: 0,
            cursor: 0,
            current: Vec::new(),
            heap: BinaryHeap::new(),
            ring_pushes: 0,
            fallback_pushes: 0,
        }
    }

    /// Schedules `payload` under `key`.
    pub fn push(&mut self, key: EventKey, payload: E) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                self.slab.push(Some(payload));
                (self.slab.len() - 1) as u32
            }
        };
        let entry = Entry {
            time: key.time,
            class: key.class,
            a: key.a,
            b: key.b,
            slot,
        };
        let slice = slice_of(key.time);
        if self.cursor < slice && slice < self.cursor + SLOTS as u64 {
            let index = slice as usize % SLOTS;
            let bucket = &mut self.buckets[index];
            if bucket.entries.is_empty() || key < bucket.min {
                bucket.min = key;
            }
            bucket.entries.push(entry);
            self.occupied |= 1 << index;
            self.ring_pushes += 1;
        } else {
            self.heap.push(Reverse(entry));
            self.fallback_pushes += 1;
        }
    }

    /// The first occupied bucket after the cursor: its slice and smallest key.
    fn next_bucket(&self) -> Option<(u64, EventKey)> {
        if self.occupied == 0 {
            return None;
        }
        // Rotated so that bit 0 is slice `cursor + 1`'s bucket; the cursor's
        // own bucket is never occupied, so the distance is below `SLOTS`.
        let first = (self.cursor + 1) % SLOTS as u64;
        let ahead = self.occupied.rotate_right(first as u32).trailing_zeros();
        let slice = self.cursor + 1 + u64::from(ahead);
        Some((slice, self.buckets[slice as usize % SLOTS].min))
    }

    /// The earliest ring event and the earliest heap event.
    fn fronts(&self) -> (Option<EventKey>, Option<EventKey>) {
        let ring = match self.current.last() {
            Some(entry) => Some(entry.key()),
            None => self.next_bucket().map(|(_, min)| min),
        };
        (ring, self.heap.peek().map(|Reverse(entry)| entry.key()))
    }

    /// The smallest pending key, if any.
    pub fn peek_key(&self) -> Option<EventKey> {
        match self.fronts() {
            (Some(ring), Some(heap)) => Some(ring.min(heap)),
            (ring, heap) => ring.or(heap),
        }
    }

    /// Removes and returns the earliest event **strictly below** `bound`,
    /// or `None` when the earliest pending event is at or past the bound
    /// (or the queue is empty).
    pub fn pop_before(&mut self, bound: EventKey) -> Option<(EventKey, E)> {
        let (ring, heap) = self.fronts();
        let from_ring = ring.is_some_and(|ring| heap.is_none_or(|heap| ring < heap));
        let key = if from_ring { ring } else { heap }?;
        if key >= bound {
            return None;
        }
        let entry = if from_ring {
            // Only now — never ahead of an actual pop — does the cursor move
            // on: jumping early over empty slices would leave the events
            // dispatched in between pushing behind it, into the heap.
            if self.current.is_empty() {
                self.refill();
            }
            self.current.pop()?
        } else {
            let Reverse(entry) = self.heap.pop()?;
            // Anchor an idle ring at simulated now, one slice back so that
            // this event's own slice is inside the window too. Everything in
            // the ring is later than this event, so it stays inside. Without
            // this a run whose first event fires seconds after t = 0 would
            // never leave the heap.
            if self.current.is_empty() {
                self.cursor = self.cursor.max(slice_of(entry.time).saturating_sub(1));
            }
            entry
        };
        debug_assert_eq!(entry.key(), key);
        #[expect(
            clippy::expect_used,
            reason = "a slot is freed only when its entry pops"
        )]
        let payload = self.slab[entry.slot as usize]
            .take()
            .expect("a queued entry's slab slot is occupied");
        self.free.push(entry.slot);
        Some((key, payload))
    }

    /// Moves the cursor to the next occupied bucket and sorts its events
    /// into the (empty) `current`.
    fn refill(&mut self) {
        let Some((slice, _)) = self.next_bucket() else {
            return;
        };
        let index = slice as usize % SLOTS;
        debug_assert!(self.current.is_empty());
        // Swapping hands the bucket `current`'s spent allocation in return.
        std::mem::swap(&mut self.current, &mut self.buckets[index].entries);
        self.occupied &= !(1 << index);
        self.cursor = slice;
        debug_assert!(self.current.iter().all(|entry| slice_of(entry.time) == slice));
        self.current.sort_unstable_by(|a, b| b.cmp(a));
    }

    /// Removes and returns the earliest event unconditionally.
    pub fn pop(&mut self) -> Option<(EventKey, E)> {
        self.pop_before(EventKey::MAX)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every pending payload, in slab order (not key order).
    pub fn payloads(&self) -> impl Iterator<Item = &E> {
        self.slab.iter().flatten()
    }

    /// Push counts per structure and the peak depth so far.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            ring_pushes: self.ring_pushes,
            fallback_pushes: self.fallback_pushes,
            // The slab grows only when every slot is taken.
            peak_len: self.slab.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(us: u64, class: u8, a: u64, b: u64) -> EventKey {
        EventKey::new(SimTime::from_micros(us), class, a, b)
    }

    impl<E> ShardQueue<E> {
        /// Everything the three structures must agree on between calls.
        fn check_invariants(&self) {
            let mut in_ring = 0;
            for (index, bucket) in self.buckets.iter().enumerate() {
                assert_eq!(self.occupied >> index & 1 == 1, !bucket.entries.is_empty());
                for entry in &bucket.entries {
                    let slice = slice_of(entry.time);
                    assert!(self.cursor < slice && slice < self.cursor + SLOTS as u64);
                    assert_eq!(slice as usize % SLOTS, index);
                }
                if let Some(min) = bucket.entries.iter().map(Entry::key).min() {
                    assert_eq!(bucket.min, min);
                }
                in_ring += bucket.entries.len();
            }
            assert!(self.current.windows(2).all(|pair| pair[0] > pair[1]));
            assert!(self.current.iter().all(|e| slice_of(e.time) == self.cursor));
            assert_eq!(self.len(), self.current.len() + in_ring + self.heap.len());
            assert_eq!(self.len(), self.payloads().count());
        }
    }

    /// Pops the earliest event and pushes it back `delay(i)` µs later,
    /// `rounds` times; returns the keys in pop order.
    fn hold(q: &mut ShardQueue<u64>, rounds: u64, delay: impl Fn(u64) -> u64) -> Vec<EventKey> {
        let mut popped = Vec::new();
        for i in 0..rounds {
            let (k, payload) = q.pop().unwrap();
            q.push(key(k.time.as_micros() + delay(i), 3, payload, i), payload);
            q.check_invariants();
            popped.push(k);
        }
        popped
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

    #[test]
    fn hold_model_wraps_the_ring_in_key_order() {
        let mut q = ShardQueue::new();
        for i in 0..200u64 {
            q.push(key(3_000_000 + i * 997, 3, i, 0), i);
        }
        // Link-latency delays, 10–500 ms, like the engine's.
        let popped = hold(&mut q, 20_000, |i| 10_000 + i * 7_919 % 490_000);
        assert!(popped.windows(2).all(|pair| pair[0] < pair[1]));
        let slices = slice_of(popped[popped.len() - 1].time) - slice_of(popped[0].time);
        assert!(slices > 5 * SLOTS as u64, "only {slices} slices");
        // All but the initial pushes, made before the ring was anchored.
        assert_eq!(q.stats().fallback_pushes, 200);
        assert_eq!(q.stats().ring_pushes, 20_000);
        assert_eq!(q.len(), 200);
    }

    #[test]
    fn delays_shorter_than_a_slice_still_pop_in_key_order() {
        let mut q = ShardQueue::new();
        for i in 0..50u64 {
            q.push(key(i * 131, 3, i, 0), i);
        }
        // At most a tenth of a slice: most pushes land in the slice being
        // drained, which only the heap accepts.
        let popped = hold(&mut q, 20_000, |i| 1 + i * 37 % 800);
        assert!(popped.windows(2).all(|pair| pair[0] < pair[1]));
        assert!(q.stats().fallback_pushes > 10_000);
        assert_eq!(q.len(), 50);
    }

    #[test]
    fn slab_slots_are_reused_after_interleaved_pops() {
        let mut q = ShardQueue::new();
        let mut next = 0u64;
        let mut push = |q: &mut ShardQueue<u64>, n: u64| {
            for _ in 0..n {
                // Near, far and late times, so all three structures hold slots.
                q.push(key(next * 7_001 % 3_000_000, 3, next, 0), next);
                next += 1;
            }
        };
        push(&mut q, 100);
        for round in 0..50 {
            for _ in 0..60 {
                assert!(q.pop().is_some());
            }
            push(&mut q, 60);
            q.check_invariants();
            assert_eq!(q.len(), 100, "round {round}");
        }
        while q.pop().is_some() {}
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
        assert_eq!(q.stats().peak_len, 100);
        assert_eq!(q.slab.len(), 100);
    }
}
