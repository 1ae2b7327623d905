//! Cross-shard exchange: deterministic peer partitioning and the canonical
//! event key encoding that makes the barrier merge a plain batch of pushes.
//!
//! ## Canonical event order
//!
//! The sharded engine's determinism contract — same seed ⇒ bit-identical
//! reports for *every* shard count — rests on a total event order that is a
//! pure function of each event's identity, never of which queue it sat in or
//! when it was scheduled. The key *is* that identity: an issue's arrival
//! index, a delivery's receiver and sender, a deadline's query and kind are
//! read back from it by the decoder beside each encoder below, and only a
//! delivered message rides beside it in the queue. The encoding into
//! [`EventKey`]'s `(time, class, a, b)`:
//!
//! | event            | class | `a`                  | `b`             |
//! |------------------|-------|----------------------|-----------------|
//! | query issue      | 0     | arrival index        | 0               |
//! | Bloom sync round | 1     | round index          | 0               |
//! | churn transition | 2     | schedule index       | 0               |
//! | delivery or loss | 3     | `(to << 32) \| from` | sender seq      |
//! | query completion | 4     | arrival index        | 0               |
//! | DHT republish    | 5     | round index          | 0               |
//! | fault timeout    | 6     | arrival index        | [`TimeoutKind`] |
//!
//! At equal times the class ranks order arrivals, then maintenance, then
//! churn, then in-flight deliveries, then the completions they cause, then
//! republish rounds, then timeouts (each constant below says why). Deliveries
//! tie-break by destination, then source, then a send sequence number counted
//! at the sender — link latencies are fixed per pair, so two messages on one
//! link arriving simultaneously were sent simultaneously and the sender's
//! count orders them by send order.
//!
//! A **query completion** is the synthesized event marking the consumption of
//! a query's last in-flight message (see [`super::lifecycle`]): its canonical
//! position is the consuming delivery's time with class 4, so at equal times
//! it orders *after* every delivery — a query whose final message is consumed
//! at `t` is still "in flight" to any class-0 issue at `t`, exactly as in a
//! single-queue run. No physical event is queued for it: because no other
//! event class can order between a class-3 terminal delivery and its class-4
//! completion at the same time, applying the completion as a direct state
//! transition when it is detected is observationally identical to dispatching
//! it from the queue.
//!
//! ## Partitioning
//!
//! Peers are partitioned by *locality*: sorted by `(locId, peer id)` and cut
//! into contiguous, balanced chunks. The partition only affects performance,
//! never results — but locality-aligned shards push the minimum cross-shard
//! link latencies (the per-channel lookaheads, see
//! [`LinkLatencyCache::incoming_channel_mins`]) far above the global minimum
//! link latency, which is what buys long windows and real parallelism.
//!
//! [`LinkLatencyCache::incoming_channel_mins`]:
//!   locaware_net::LinkLatencyCache::incoming_channel_mins

use locaware_net::LocId;
use locaware_overlay::PeerId;
use locaware_sim::{EventKey, SimTime};

/// Event-class rank of query issues (pre-scheduled arrivals).
pub(crate) const CLASS_ISSUE: u8 = 0;
/// Event-class rank of periodic Bloom synchronisation rounds.
pub(crate) const CLASS_BLOOM_SYNC: u8 = 1;
/// Event-class rank of churn transitions.
pub(crate) const CLASS_CHURN: u8 = 2;
/// Event-class rank of message deliveries.
pub(crate) const CLASS_DELIVER: u8 = 3;
/// Event-class rank of synthesized query completions (after deliveries at
/// equal times — a query completing at `t` is still in flight to an issue
/// or delivery at `t`).
pub(crate) const CLASS_COMPLETE: u8 = 4;
/// Event-class rank of periodic DHT republish rounds (structured protocols
/// only): after completions at equal times, so a republish at `t` sees the
/// storage state every query completing at `t` left behind.
pub(crate) const CLASS_DHT_REPUBLISH: u8 = 5;
/// Event-class rank of fault-plan timeout firings (query retransmit
/// deadlines and DHT lookup step deadlines). Last at equal times, so a
/// reply delivered exactly at the deadline wins the race against the
/// timeout — the timeout handler then sees the reply's effect and stands
/// down. Timeouts are origin-local: they are scheduled into the waiting
/// peer's own shard queue and never cross a shard boundary, so they do not
/// interact with channel lookaheads.
pub(crate) const CLASS_TIMEOUT: u8 = 6;

/// The canonical key of the `index`-th query arrival firing at `at`.
pub(crate) fn issue_key(at: SimTime, index: usize) -> EventKey {
    EventKey::new(at, CLASS_ISSUE, index as u64, 0)
}

/// The arrival index an [`issue_key`] names.
pub(crate) fn issue_index(key: EventKey) -> usize {
    key.a as usize
}

/// The canonical key of query `index`'s completion, synthesized at the time
/// of the delivery that consumed its last in-flight message.
pub(crate) fn completion_key(at: SimTime, index: usize) -> EventKey {
    EventKey::new(at, CLASS_COMPLETE, index as u64, 0)
}

/// Which fault-plan deadline a timeout key names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimeoutKind {
    /// The retransmit deadline of a flooded query's 0-based `attempt`.
    Retransmit {
        /// The attempt whose deadline this is.
        attempt: u32,
    },
    /// The deadline of a DHT lookup step awaiting `peer`'s reply.
    DhtStep {
        /// The index node the step was sent to.
        peer: PeerId,
    },
}

/// The canonical key of a fault-plan deadline of kind `kind` for query
/// `index`. The kind distinguishes simultaneous timers of one query: a
/// retransmit deadline is its attempt number, a DHT step deadline its
/// awaited peer id with bit 32 set.
pub(crate) fn timeout_key(at: SimTime, index: usize, kind: TimeoutKind) -> EventKey {
    let discriminator = match kind {
        TimeoutKind::Retransmit { attempt } => u64::from(attempt),
        TimeoutKind::DhtStep { peer } => (1u64 << 32) | u64::from(peer.0),
    };
    EventKey::new(at, CLASS_TIMEOUT, index as u64, discriminator)
}

/// The query index and the deadline kind a [`timeout_key`] names.
pub(crate) fn timeout_of(key: EventKey) -> (usize, TimeoutKind) {
    let kind = match key.b >> 32 {
        0 => TimeoutKind::Retransmit { attempt: key.b as u32 },
        _ => TimeoutKind::DhtStep { peer: PeerId(key.b as u32) },
    };
    (key.a as usize, kind)
}

/// The canonical key of a message delivery: `seq` is the sender-side send
/// sequence number — monotone in the sender's event order, so it FIFO-orders
/// deliveries that tie on `(time, to, from)` (same-link ties imply the same
/// send instant).
pub(crate) fn deliver_key(at: SimTime, to: PeerId, from: PeerId, seq: u64) -> EventKey {
    EventKey::new(
        at,
        CLASS_DELIVER,
        (u64::from(to.0) << 32) | u64::from(from.0),
        seq,
    )
}

/// The receiver and the sender, `(to, from)`, a [`deliver_key`] names.
pub(crate) fn deliver_peers(key: EventKey) -> (PeerId, PeerId) {
    (PeerId((key.a >> 32) as u32), PeerId(key.a as u32))
}

/// Peer ids sorted by `(locId, id)` — the canonical locality rank order
/// (`order[s]` = the peer of locality rank `s`). Both the shard partition
/// below and the weighted-cluster workload mapping in
/// [`crate::simulation::Simulation`] cut contiguous chunks of this order, so
/// "a locality region" means the same peers to the engine and the workload.
pub(crate) fn locality_rank_order(loc_ids: &[LocId]) -> Vec<u32> {
    let mut order: Vec<u32> = (0..loc_ids.len() as u32).collect();
    order.sort_by_key(|&p| (loc_ids[p as usize].value(), p));
    order
}

/// A deterministic assignment of peers to shards.
///
/// `shard_of[p]` is peer `p`'s shard and `slot_of[p]` its dense index within
/// that shard's local state vectors — every shard owns a contiguous range of
/// the locality-sorted peer order, so per-shard state is a plain `Vec` rather
/// than a map.
#[derive(Debug, Clone)]
pub(crate) struct PeerPartition {
    /// Peer index → owning shard.
    pub shard_of: Vec<u32>,
    /// Peer index → slot within the owning shard.
    pub slot_of: Vec<u32>,
    /// Shard → number of peers it owns.
    pub sizes: Vec<usize>,
}

impl PeerPartition {
    /// Partitions `loc_ids.len()` peers into `shards` locality-aligned,
    /// balanced cells: peers sorted by `(locId, id)`, cut into contiguous
    /// chunks whose sizes differ by at most one.
    ///
    /// # Panics
    /// Panics if `shards` is zero or exceeds the peer count.
    pub(crate) fn locality(loc_ids: &[LocId], shards: usize) -> Self {
        let peers = loc_ids.len();
        assert!(shards >= 1, "at least one shard");
        assert!(shards <= peers, "at most one shard per peer");

        let order = locality_rank_order(loc_ids);

        let base = peers / shards;
        let remainder = peers % shards;
        let mut shard_of = vec![0u32; peers];
        let mut slot_of = vec![0u32; peers];
        let mut sizes = Vec::with_capacity(shards);
        let mut cursor = 0usize;
        for shard in 0..shards {
            let size = base + usize::from(shard < remainder);
            for slot in 0..size {
                let peer = order[cursor + slot] as usize;
                shard_of[peer] = shard as u32;
                slot_of[peer] = slot as u32;
            }
            sizes.push(size);
            cursor += size;
        }
        PeerPartition {
            shard_of,
            slot_of,
            sizes,
        }
    }

    /// The shard owning `peer`.
    pub(crate) fn shard(&self, peer: PeerId) -> usize {
        self.shard_of[peer.index()] as usize
    }

    /// `peer`'s slot within its owning shard.
    pub(crate) fn slot(&self, peer: PeerId) -> usize {
        self.slot_of[peer.index()] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_sim::Duration;

    #[test]
    fn locality_partition_is_balanced_and_contiguous() {
        // 10 peers in 3 locality groups, interleaved by id.
        let loc_ids: Vec<LocId> = [0u32, 1, 2, 0, 1, 2, 0, 1, 2, 0]
            .iter()
            .map(|&l| LocId(l))
            .collect();
        let partition = PeerPartition::locality(&loc_ids, 3);
        assert_eq!(partition.sizes, vec![4, 3, 3]);
        assert_eq!(partition.shard_of.len(), 10);
        // Locality group 0 = peers {0,3,6,9} fills shard 0 exactly.
        for p in [0u32, 3, 6, 9] {
            assert_eq!(partition.shard(PeerId(p)), 0, "peer {p}");
        }
        // Slots are dense 0..size within each shard.
        for shard in 0..3 {
            let mut slots: Vec<u32> = (0..10u32)
                .filter(|&p| partition.shard(PeerId(p)) == shard)
                .map(|p| partition.slot_of[p as usize])
                .collect();
            slots.sort_unstable();
            let expected: Vec<u32> = (0..partition.sizes[shard] as u32).collect();
            assert_eq!(slots, expected, "shard {shard}");
        }
    }

    #[test]
    fn single_shard_partition_owns_everything() {
        let loc_ids: Vec<LocId> = (0..5).map(|i| LocId(i % 2)).collect();
        let partition = PeerPartition::locality(&loc_ids, 1);
        assert_eq!(partition.sizes, vec![5]);
        for p in 0..5u32 {
            assert_eq!(partition.shard(PeerId(p)), 0);
        }
        // Slots follow the locality-sorted order, not the id order.
        let mut seen: Vec<u32> = (0..5u32).map(|p| partition.slot_of[p as usize]).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn canonical_keys_rank_classes_then_discriminators() {
        let t = SimTime::from_millis(5);
        let issue = issue_key(t, 7);
        let deliver = deliver_key(t, PeerId(1), PeerId(2), 0);
        assert!(issue < deliver, "issues precede deliveries at equal times");
        assert!(issue_key(t, 7) < issue_key(t, 8), "arrival order breaks ties");
        assert!(
            deliver_key(t, PeerId(1), PeerId(2), 0) < deliver_key(t, PeerId(1), PeerId(2), 1),
            "same link: sender FIFO order"
        );
        assert!(
            deliver_key(t, PeerId(1), PeerId(9), 5) < deliver_key(t, PeerId(2), PeerId(0), 0),
            "destination dominates source"
        );
        let later = t + Duration::from_micros(1);
        assert!(deliver < issue_key(later, 0), "time dominates everything");
    }

    #[test]
    fn timeouts_order_after_every_other_class_at_equal_times() {
        let t = SimTime::from_millis(5);
        let first = TimeoutKind::Retransmit { attempt: 0 };
        let timeout = timeout_key(t, 3, first);
        assert!(
            deliver_key(t, PeerId(u32::MAX), PeerId(u32::MAX), u64::MAX) < timeout,
            "a reply delivered exactly at the deadline beats the timeout"
        );
        assert!(completion_key(t, 3) < timeout, "completions precede timeouts");
        assert!(
            timeout < timeout_key(t, 3, TimeoutKind::Retransmit { attempt: 1 }),
            "the kind breaks same-query ties"
        );
        let step = TimeoutKind::DhtStep { peer: PeerId(u32::MAX) };
        assert!(timeout_key(t, 3, step) < timeout_key(t, 4, first), "query index dominates");
        let later = t + Duration::from_micros(1);
        assert!(timeout < issue_key(later, 0), "time dominates class");
    }

    #[test]
    fn completions_order_after_every_delivery_at_equal_times() {
        let t = SimTime::from_millis(5);
        let complete = completion_key(t, 3);
        assert!(
            deliver_key(t, PeerId(u32::MAX), PeerId(u32::MAX), u64::MAX) < complete,
            "a completion at t follows even the last delivery at t"
        );
        assert!(issue_key(t, 9) < complete, "issues at t still see it in flight");
        let later = t + Duration::from_micros(1);
        assert!(complete < issue_key(later, 0), "time dominates class");
        assert!(completion_key(t, 3) < completion_key(t, 4), "arrival order ties");
    }

    proptest::proptest! {
        /// Every key reads back what its encoder put in, over the whole
        /// peer range and both deadline kinds.
        #[test]
        fn keys_decode_to_what_they_encode(
            micros in 0u64..u64::MAX / 2,
            index in 0u32..u32::MAX,
            to in 0u32..=u32::MAX,
            from in 0u32..=u32::MAX,
            seq in 0u64..u64::MAX,
            attempt in 0u32..=u32::MAX,
        ) {
            let at = SimTime::from_micros(micros);
            let index = index as usize;
            proptest::prop_assert_eq!(issue_index(issue_key(at, index)), index);
            for (to, from) in [(to, from), (u32::MAX, 0), (0, u32::MAX)].map(|(t, f)| (PeerId(t), PeerId(f))) {
                proptest::prop_assert_eq!(deliver_peers(deliver_key(at, to, from, seq)), (to, from));
                for kind in [TimeoutKind::Retransmit { attempt }, TimeoutKind::DhtStep { peer: to }] {
                    proptest::prop_assert_eq!(timeout_of(timeout_key(at, index, kind)), (index, kind));
                }
            }
        }
    }
}
