//! Overlay messages.
//!
//! The message vocabulary covers everything the evaluated protocols exchange:
//! keyword/filename queries, query responses carrying provider indexes,
//! Bloom-filter announcements (full or incremental) and the structured
//! family's DHT lookup steps and record stores.
//!
//! A message of a query carries its [`QueryId`] and only what differs from
//! copy to copy (a query's TTL, a lookup step's hop, a response's providers).
//! What every copy of one query would carry alike — its originator and the
//! originator's locId, its keywords — the simulator keeps once per query and
//! reads by the id.
//!
//! The evaluation counts *messages* (as the paper does for Figure 3), keyed by
//! [`MessageKind`].

use std::sync::Arc;

use locaware_bloom::{BloomDelta, BloomFilter};
use locaware_net::LocId;
use locaware_workload::FileId;

use crate::PeerId;

/// Globally unique identifier of a query (assigned by the simulation when the
/// query is issued; all forwarded copies share it, which is what duplicate
/// suppression keys on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QueryId(pub u64);

/// One provider index entry: the address of a peer providing the file plus its
/// location id (the paper's location-aware index entry, e.g. "(D, 1)").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderEntry {
    /// The provider peer.
    pub provider: PeerId,
    /// The provider's locId.
    pub loc_id: LocId,
}

/// The classification of a message, used by the traffic counters, which
/// index their arrays by `kind as usize`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// A query being flooded/forwarded.
    Query,
    /// A query response travelling back along the reverse path.
    QueryResponse,
    /// A full Bloom filter announcement.
    BloomFull,
    /// An incremental (changed-bits) Bloom update.
    BloomDelta,
    /// An iterative DHT lookup step (structured protocols).
    DhtLookup,
    /// The reply to a DHT lookup step.
    DhtLookupReply,
    /// A DHT record store/republish (structured-index maintenance traffic).
    DhtStore,
}

impl MessageKind {
    /// Every kind, in declaration order: `ALL[kind as usize] == kind`.
    pub const ALL: [MessageKind; 7] = [
        MessageKind::Query,
        MessageKind::QueryResponse,
        MessageKind::BloomFull,
        MessageKind::BloomDelta,
        MessageKind::DhtLookup,
        MessageKind::DhtLookupReply,
        MessageKind::DhtStore,
    ];

    /// The kind's label in report counters.
    pub fn label(self) -> &'static str {
        match self {
            MessageKind::Query => "query",
            MessageKind::QueryResponse => "query-response",
            MessageKind::BloomFull => "bloom-full",
            MessageKind::BloomDelta => "bloom-delta",
            MessageKind::DhtLookup => "dht-lookup",
            MessageKind::DhtLookupReply => "dht-lookup-reply",
            MessageKind::DhtStore => "dht-store",
        }
    }

    /// True for the kinds whose messages name a query
    /// ([`Message::query_id`]); the others are background traffic.
    pub fn names_query(self) -> bool {
        matches!(
            self,
            MessageKind::Query | MessageKind::QueryResponse | MessageKind::DhtLookup | MessageKind::DhtLookupReply
        )
    }
}

/// An overlay message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A keyword query travelling away from its originator.
    ///
    /// A real query also carries its originator's address and locId (so that
    /// a peer answering from its response index can pick providers near the
    /// originator, §4.1.2) and its keywords (1–3, drawn from the target
    /// filename). None is a field: every copy would carry the same values, so
    /// each hop reads them by the query id — the originator from the query's
    /// arrival, the keywords from the record published at issue — and a
    /// forwarded copy is a plain copy.
    Query {
        /// The query's global id (stable across forwards).
        query: QueryId,
        /// For filename-based protocols (Dicas), the exact file being searched;
        /// keyword-based protocols leave this empty and must match on keywords.
        target_filename: Option<FileId>,
        /// Remaining hops (decremented at each forward; 0 stops forwarding).
        ttl: u32,
    },
    /// A response travelling hop-by-hop back along the query's reverse path.
    ///
    /// A real response also carries two keyword lists — the file's (caching
    /// peers add them to their Bloom filters) and the query's (Dicas-Keys
    /// keys its cache on them) — and the requestor's entry, which Locaware
    /// records as a *new* provider at caching peers along the path (§4.1.2).
    /// None is a field: the simulator reads the file's keywords from the
    /// catalog, and the query's keywords and its originator by the query id.
    QueryResponse {
        /// The query this responds to.
        query: QueryId,
        /// The file satisfying the query.
        file: FileId,
        /// Provider entries: the responding provider plus, in Locaware, other
        /// known providers with their locIds.
        providers: Vec<ProviderEntry>,
    },
    /// Full Bloom filter push to a neighbour, sent by both ends of a link a
    /// rejoin creates.
    BloomFull {
        /// The sender's complete filter, shared with its export and with
        /// every other copy sent of it.
        filter: Arc<BloomFilter>,
        /// The filter's [`BloomFilter::fold`], computed once by the sender
        /// when its export changed, so no receiver computes it again.
        fold: u64,
    },
    /// Incremental Bloom update: positions of changed bits (§4.2 footnote).
    BloomDelta {
        /// The changed-bit positions.
        delta: BloomDelta,
    },
    /// One step of an iterative Kademlia-style lookup: the query's *origin*
    /// asks the receiver for the providers it stores under the record key of
    /// the query's first keyword, plus the contacts it knows closer to that
    /// key. The keyword is read by the query id, like a flooded query's (a
    /// real step carries it).
    /// Query-charged traffic: every step pays real link latency and counts
    /// against the issuing query, exactly like a forwarded unstructured query.
    DhtLookup {
        /// The query this lookup resolves.
        query: QueryId,
        /// This step's depth (1 for the origin's first round).
        hop: u32,
    },
    /// The receiver's answer to a [`Message::DhtLookup`] step (a real reply
    /// echoes the keyword too).
    DhtLookupReply {
        /// The query this lookup resolves.
        query: QueryId,
        /// The answered step's depth (echoed).
        hop: u32,
        /// Every unexpired `(file, provider)` entry of the keyword's record
        /// at the answering node.
        entries: Vec<(u32, ProviderEntry)>,
        /// The answering node's closest known contacts to the record key,
        /// nearest first (the iterative lookup's next candidates).
        closer: Vec<PeerId>,
    },
    /// A record store/republish: upsert `(file, provider)` into the
    /// receiver's record for `keyword`. Background maintenance traffic —
    /// never query-charged, but counted like Bloom sync traffic.
    DhtStore {
        /// The keyword whose record is updated.
        keyword: u32,
        /// The file provided.
        file: u32,
        /// The providing peer and its location id.
        provider: ProviderEntry,
    },
}

impl Message {
    /// The message's classification for traffic accounting.
    pub fn kind(&self) -> MessageKind {
        match self {
            Message::Query { .. } => MessageKind::Query,
            Message::QueryResponse { .. } => MessageKind::QueryResponse,
            Message::BloomFull { .. } => MessageKind::BloomFull,
            Message::BloomDelta { .. } => MessageKind::BloomDelta,
            Message::DhtLookup { .. } => MessageKind::DhtLookup,
            Message::DhtLookupReply { .. } => MessageKind::DhtLookupReply,
            Message::DhtStore { .. } => MessageKind::DhtStore,
        }
    }

    /// For query-charged messages (queries, responses and DHT lookup steps):
    /// the query id. `None` otherwise.
    #[inline]
    pub fn query_id(&self) -> Option<QueryId> {
        match self {
            Message::Query { query, .. }
            | Message::QueryResponse { query, .. }
            | Message::DhtLookup { query, .. }
            | Message::DhtLookupReply { query, .. } => Some(*query),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_query() -> Message {
        Message::Query {
            query: QueryId(42),
            target_filename: None,
            ttl: 7,
        }
    }

    #[test]
    fn kinds_are_classified_correctly() {
        assert_eq!(sample_query().kind(), MessageKind::Query);
        let filter = BloomFilter::paper_default();
        let delta = BloomDelta::between(&filter, &filter);
        assert_eq!(Message::BloomFull { filter: Arc::new(filter), fold: 0 }.kind(), MessageKind::BloomFull);
        assert_eq!(Message::BloomDelta { delta }.kind(), MessageKind::BloomDelta);
    }

    /// The traffic counters index by `kind as usize` and label by `label()`:
    /// `ALL` lists every kind at its index, under a distinct label.
    #[test]
    fn every_kind_sits_at_its_index_with_its_own_label() {
        for (i, kind) in MessageKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind:?}");
        }
        let labels: std::collections::BTreeSet<_> = MessageKind::ALL.map(MessageKind::label).into();
        assert_eq!(labels.len(), MessageKind::ALL.len());
    }

    /// `names_query` is a fact of the kind that every message of it agrees
    /// with: one message of each kind, in `ALL` order, names a query exactly
    /// when its kind says so.
    #[test]
    fn names_query_agrees_with_query_id_for_every_kind() {
        let filter = BloomFilter::paper_default();
        let query = QueryId(3);
        let entry = ProviderEntry { provider: PeerId(5), loc_id: LocId(1) };
        let messages = [
            Message::Query { query, target_filename: None, ttl: 1 },
            Message::QueryResponse { query, file: FileId(0), providers: vec![entry] },
            Message::BloomFull { filter: Arc::new(filter.clone()), fold: 0 },
            Message::BloomDelta { delta: BloomDelta::between(&filter, &filter) },
            Message::DhtLookup { query, hop: 1 },
            Message::DhtLookupReply { query, hop: 1, entries: Vec::new(), closer: Vec::new() },
            Message::DhtStore { keyword: 0, file: 0, provider: entry },
        ];
        assert_eq!(messages.each_ref().map(Message::kind), MessageKind::ALL);
        for message in &messages {
            assert_eq!(message.kind().names_query(), message.query_id().is_some(), "{:?}", message.kind());
        }
    }

    #[test]
    fn query_accessors() {
        let q = sample_query();
        assert_eq!(q.query_id(), Some(QueryId(42)));
        let bloom = Message::BloomFull {
            filter: Arc::new(BloomFilter::paper_default()),
            fold: 0,
        };
        assert_eq!(bloom.query_id(), None);
    }

    #[test]
    fn dht_messages_classify_encode_and_charge_queries() {
        let lookup = Message::DhtLookup {
            query: QueryId(9),
            hop: 3,
        };
        assert_eq!(lookup.kind(), MessageKind::DhtLookup);
        assert_eq!(lookup.query_id(), Some(QueryId(9)));

        let reply = Message::DhtLookupReply {
            query: QueryId(9),
            hop: 3,
            entries: vec![(7, ProviderEntry { provider: PeerId(5), loc_id: LocId(1) })],
            closer: vec![PeerId(1), PeerId(2)],
        };
        assert_eq!(reply.kind(), MessageKind::DhtLookupReply);
        assert_eq!(reply.query_id(), Some(QueryId(9)));

        let store = Message::DhtStore {
            keyword: 42,
            file: 7,
            provider: ProviderEntry { provider: PeerId(5), loc_id: LocId(1) },
        };
        assert_eq!(store.kind(), MessageKind::DhtStore);
        assert_eq!(store.query_id(), None, "stores are background traffic");
    }
}
