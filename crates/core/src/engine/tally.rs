//! Flat per-shard tallies and their merge into report counters.
//!
//! Every shard keeps its traffic and routing statistics as flat arrays indexed
//! by discriminant, `kind as usize` (a labelled `CounterSet<String>` would
//! allocate and tree-walk per event on the hot path). All tally fields are
//! *commutative* — sums of per-event increments — so merging the shards in
//! any order yields the same totals, which is one of the two pillars of the
//! sharded engine's bit-identical-for-every-shard-count guarantee (the other
//! is the canonical event order in [`super::exchange`]). The labelled sets
//! reports carry are materialised once, from the merged totals, with each
//! enum's `label()`, when [`super::run`] finalizes.

use locaware_overlay::{ForwardDecision, MessageKind};

use crate::results::CounterSet;

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
    pub message_counts: [u64; MessageKind::ALL.len()],
    /// Dispatched deliveries by kind discriminant and fate ([`PROCESSED`],
    /// [`LOST`], [`OFFLINE`]). A drained run dispatched every send, so each
    /// kind's row sums to its `message_counts` entry
    /// ([`Tallies::assert_conserved`]).
    pub deliveries: [[u64; 3]; MessageKind::ALL.len()],
    /// Routing decisions by discriminant.
    pub decision_counts: [u64; ForwardDecision::ALL.len()],
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
            message_counts: [0; MessageKind::ALL.len()],
            deliveries: [[0; 3]; MessageKind::ALL.len()],
            decision_counts: [0; ForwardDecision::ALL.len()],
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
        self.query_timeouts += other.query_timeouts;
        self.query_retransmits += other.query_retransmits;
        self.dht_step_timeouts += other.dht_step_timeouts;
        self.storage_walks += other.storage_walks;
        self.storage_skips += other.storage_skips;
    }

    /// Messages not attributable to a query (Bloom synchronisation and DHT
    /// store traffic): the sends of every kind that names none.
    pub(super) fn background_messages(&self) -> u64 {
        MessageKind::ALL
            .into_iter()
            .filter(|kind| !kind.names_query())
            .map(|kind| self.message_counts[kind as usize])
            .sum()
    }

    /// Messages of `kind` the fault plan dropped (loss coin or active outage
    /// window): the deliveries dispatched as [`LOST`].
    pub(super) fn lost(&self, kind: MessageKind) -> u64 {
        self.deliveries[kind as usize][LOST]
    }

    /// Message conservation over a run's merged totals: every run drains its
    /// queues, so for each message kind the sends equal the deliveries
    /// dispatched — processed, lost or offline-consumed.
    pub(super) fn assert_conserved(&self) {
        for kind in MessageKind::ALL {
            let fates = self.deliveries[kind as usize];
            let (processed, lost, offline) = (fates[PROCESSED], fates[LOST], fates[OFFLINE]);
            let sent = self.message_counts[kind as usize];
            assert_eq!(
                sent,
                processed + lost + offline,
                "{}: {sent} sent, {processed} processed + {lost} lost + {offline} offline",
                kind.label()
            );
        }
    }
}

/// Converts a tally array into the labelled counter set reports carry,
/// `labels[i]` naming `counts[i]`. Untouched labels are omitted, matching
/// incremental `CounterSet` use.
pub(super) fn labelled_counters(labels: &[&'static str], counts: &[u64]) -> CounterSet<String> {
    let mut set = CounterSet::new();
    for (label, &count) in labels.iter().zip(counts) {
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
    fn labelled_counters_omit_untouched_labels() {
        let mut counts = [0u64; MessageKind::ALL.len()];
        counts[MessageKind::Query as usize] = 3;
        counts[MessageKind::DhtStore as usize] = 1;
        let set = labelled_counters(&MessageKind::ALL.map(MessageKind::label), &counts);
        assert_eq!(set.iter().count(), 2, "zero counters must not appear in reports");
        assert_eq!(set.get(&"query".to_string()), 3);
        assert_eq!(set.get(&"dht-store".to_string()), 1);
    }

    #[test]
    fn tally_merge_is_commutative() {
        let mut a = Tallies::new();
        a.message_counts[0] = 3;
        a.decision_counts[4] = 1;
        a.deliveries[MessageKind::Query as usize][LOST] = 4;
        a.query_timeouts = 2;
        let mut b = Tallies::new();
        b.message_counts[0] = 4;
        b.message_counts[6] = 1;
        b.deliveries[MessageKind::Query as usize][LOST] = 1;
        b.query_retransmits = 3;
        b.dht_step_timeouts = 2;
        b.deliveries[MessageKind::DhtStore as usize][LOST] = 1;

        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.message_counts, ba.message_counts);
        assert_eq!(ab.decision_counts, ba.decision_counts);
        assert_eq!(ab.deliveries, ba.deliveries);
        assert_eq!(ab.lost(MessageKind::Query), 5);
        assert_eq!(ab.query_timeouts, ba.query_timeouts);
        assert_eq!(ab.query_retransmits, 3);
        assert_eq!(ab.dht_step_timeouts, 2);
        assert_eq!(ab.lost(MessageKind::DhtStore), 1);
    }
}
