//! Flat per-shard tallies and their merge into report counters.
//!
//! Every shard keeps its traffic and routing statistics as flat arrays indexed
//! by discriminant (a labelled `CounterSet<String>` would allocate and
//! tree-walk per event on the hot path). All tally fields are *commutative* —
//! sums of per-event increments — so merging the shards in any order yields
//! the same totals, which is one of the two pillars of the sharded engine's
//! bit-identical-for-every-shard-count guarantee (the other is the canonical
//! event order in [`super::exchange`]). The labelled sets reports carry are
//! materialised once, from the merged totals, when [`super::run`] finalizes.

use locaware_overlay::{ForwardDecision, MessageKind};

use crate::results::CounterSet;

/// Every message kind with its report label, in tally-array index order.
pub(super) const MESSAGE_KINDS: [(MessageKind, &str); 7] = [
    (MessageKind::Query, "query"),
    (MessageKind::QueryResponse, "query-response"),
    (MessageKind::BloomFull, "bloom-full"),
    (MessageKind::BloomDelta, "bloom-delta"),
    (MessageKind::DhtLookup, "dht-lookup"),
    (MessageKind::DhtLookupReply, "dht-lookup-reply"),
    (MessageKind::DhtStore, "dht-store"),
];

/// Every forwarding decision with its report label, in tally-array index order.
pub(super) const FORWARD_DECISIONS: [(ForwardDecision, &str); 5] = [
    (ForwardDecision::Flood, "flood"),
    (ForwardDecision::BloomMatch, "bloom-match"),
    (ForwardDecision::GidMatch, "gid-match"),
    (ForwardDecision::HighDegree, "high-degree"),
    (ForwardDecision::NotForwarded, "not-forwarded"),
];

pub(super) fn kind_index(kind: MessageKind) -> usize {
    match kind {
        MessageKind::Query => 0,
        MessageKind::QueryResponse => 1,
        MessageKind::BloomFull => 2,
        MessageKind::BloomDelta => 3,
        MessageKind::DhtLookup => 4,
        MessageKind::DhtLookupReply => 5,
        MessageKind::DhtStore => 6,
    }
}

pub(super) fn decision_index(decision: ForwardDecision) -> usize {
    match decision {
        ForwardDecision::Flood => 0,
        ForwardDecision::BloomMatch => 1,
        ForwardDecision::GidMatch => 2,
        ForwardDecision::HighDegree => 3,
        ForwardDecision::NotForwarded => 4,
    }
}

/// What became of a dispatched delivery, as an index into its kind's row of
/// [`Tallies::deliveries`]: the receiver processed it, the fault plan had
/// lost it at send time, or its receiver was offline.
pub(super) const PROCESSED: usize = 0;
pub(super) const LOST: usize = 1;
pub(super) const OFFLINE: usize = 2;

/// One shard's additive statistics.
#[derive(Debug, Clone)]
pub(super) struct Tallies {
    /// Message sends by kind discriminant.
    pub message_counts: [u64; MESSAGE_KINDS.len()],
    /// Dispatched deliveries by kind discriminant and fate ([`PROCESSED`],
    /// [`LOST`], [`OFFLINE`]). A drained run dispatched every send, so each
    /// kind's row sums to its `message_counts` entry
    /// ([`Tallies::assert_conserved`]).
    pub deliveries: [[u64; 3]; MESSAGE_KINDS.len()],
    /// Routing decisions by discriminant.
    pub decision_counts: [u64; FORWARD_DECISIONS.len()],
    /// Messages not attributable to a query (Bloom synchronisation traffic).
    pub background_messages: u64,
    /// Queries issued by this shard's peers.
    pub queries_issued: u64,
    /// Messages dropped by the fault plan at send time (loss coin or active
    /// outage window), counted in the sending shard.
    pub messages_lost: u64,
    /// DHT store transfers among the lost — the pressure the next republish
    /// round has to repair.
    pub dht_stores_lost: u64,
    /// Query retransmit deadlines that fired with the query still unanswered
    /// (including the final deadline after retries were exhausted).
    pub query_timeouts: u64,
    /// Query re-floods actually issued (bounded by the policy's max retries).
    pub query_retransmits: u64,
    /// DHT lookup step deadlines that released a stalled in-flight slot.
    pub dht_step_timeouts: u64,
    /// First sightings of a query whose keywords the receiver's storage
    /// signature covers, so a storage match has to walk the shared files —
    /// and those it does not, where the walk is skipped. Observability only
    /// (the run's `RunProfile`): neither reaches the report.
    pub storage_walks: u64,
    pub storage_skips: u64,
}

impl Tallies {
    pub(super) fn new() -> Self {
        Tallies {
            message_counts: [0; MESSAGE_KINDS.len()],
            deliveries: [[0; 3]; MESSAGE_KINDS.len()],
            decision_counts: [0; FORWARD_DECISIONS.len()],
            background_messages: 0,
            queries_issued: 0,
            messages_lost: 0,
            dht_stores_lost: 0,
            query_timeouts: 0,
            query_retransmits: 0,
            dht_step_timeouts: 0,
            storage_walks: 0,
            storage_skips: 0,
        }
    }

    /// Adds another shard's totals into this one (commutative).
    pub(super) fn merge(&mut self, other: &Tallies) {
        for (mine, theirs) in self.message_counts.iter_mut().zip(&other.message_counts) {
            *mine += theirs;
        }
        for (mine, theirs) in self.deliveries.iter_mut().flatten().zip(other.deliveries.iter().flatten()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.decision_counts.iter_mut().zip(&other.decision_counts) {
            *mine += theirs;
        }
        self.background_messages += other.background_messages;
        self.queries_issued += other.queries_issued;
        self.messages_lost += other.messages_lost;
        self.dht_stores_lost += other.dht_stores_lost;
        self.query_timeouts += other.query_timeouts;
        self.query_retransmits += other.query_retransmits;
        self.dht_step_timeouts += other.dht_step_timeouts;
        self.storage_walks += other.storage_walks;
        self.storage_skips += other.storage_skips;
    }

    /// Message conservation over a run's merged totals: every run drains its
    /// queues, so for each message kind the sends equal the deliveries
    /// dispatched — processed, lost or offline-consumed — and the lost
    /// deliveries are exactly the sends the fault plan lost.
    pub(super) fn assert_conserved(&self) {
        for (i, (_, label)) in MESSAGE_KINDS.iter().enumerate() {
            let fates = self.deliveries[i];
            let (processed, lost, offline) = (fates[PROCESSED], fates[LOST], fates[OFFLINE]);
            assert_eq!(
                self.message_counts[i],
                processed + lost + offline,
                "{label}: {} sent, {processed} processed + {lost} lost + {offline} offline",
                self.message_counts[i]
            );
        }
        let lost: u64 = self.deliveries.iter().map(|fates| fates[LOST]).sum();
        assert_eq!(lost, self.messages_lost, "lost deliveries vs sends lost");
        let stores_lost = self.deliveries[kind_index(MessageKind::DhtStore)][LOST];
        assert_eq!(stores_lost, self.dht_stores_lost, "lost store deliveries vs stores lost");
    }
}

/// Converts a tally array into the labelled counter set reports carry.
/// Untouched labels are omitted, matching incremental `CounterSet` use.
pub(super) fn labelled_counters<T: Copy>(
    table: &[(T, &'static str)],
    counts: &[u64],
) -> CounterSet<String> {
    let mut set = CounterSet::new();
    for ((_, label), &count) in table.iter().zip(counts) {
        if count > 0 {
            set.add(label.to_string(), count);
        }
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_tables_and_index_functions_agree() {
        for (i, &(kind, _)) in MESSAGE_KINDS.iter().enumerate() {
            assert_eq!(kind_index(kind), i, "MESSAGE_KINDS[{i}] out of order");
        }
        for (i, &(decision, _)) in FORWARD_DECISIONS.iter().enumerate() {
            assert_eq!(decision_index(decision), i, "FORWARD_DECISIONS[{i}] out of order");
        }
    }

    #[test]
    fn labelled_counters_omit_untouched_labels() {
        let mut counts = [0u64; MESSAGE_KINDS.len()];
        counts[kind_index(MessageKind::Query)] = 3;
        counts[kind_index(MessageKind::DhtStore)] = 1;
        let set = labelled_counters(&MESSAGE_KINDS, &counts);
        assert_eq!(set.iter().count(), 2, "zero counters must not appear in reports");
        assert_eq!(set.get(&"query".to_string()), 3);
        assert_eq!(set.get(&"dht-store".to_string()), 1);
    }

    #[test]
    fn tally_merge_is_commutative() {
        let mut a = Tallies::new();
        a.message_counts[0] = 3;
        a.decision_counts[4] = 1;
        a.background_messages = 2;
        a.queries_issued = 5;
        a.messages_lost = 4;
        a.query_timeouts = 2;
        let mut b = Tallies::new();
        b.message_counts[0] = 4;
        b.message_counts[6] = 1;
        b.queries_issued = 7;
        b.messages_lost = 1;
        b.query_retransmits = 3;
        b.dht_step_timeouts = 2;
        b.dht_stores_lost = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.message_counts, ba.message_counts);
        assert_eq!(ab.decision_counts, ba.decision_counts);
        assert_eq!(ab.background_messages, ba.background_messages);
        assert_eq!(ab.queries_issued, 12);
        assert_eq!(ab.messages_lost, 5);
        assert_eq!(ab.query_timeouts, ba.query_timeouts);
        assert_eq!(ab.query_retransmits, 3);
        assert_eq!(ab.dht_step_timeouts, 2);
        assert_eq!(ab.dht_stores_lost, 1);
    }
}
