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
//! reads by the id; [`Message::wire_size`] still prices it, as a real node
//! would send it.
//!
//! The evaluation counts *messages* (as the paper does for Figure 3), keyed by
//! [`MessageKind`]. [`Message::wire_size`] additionally states what each
//! message would occupy in a compact binary encoding — the size model behind
//! the footnote-1 claim that incremental Bloom updates are negligible next to
//! full filters; no run metric reads it.

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
    /// forwarded copy is a plain copy. [`Message::wire_size`] prices them.
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
    /// [`Message::wire_size`] prices all three.
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
    },
    /// Incremental Bloom update: positions of changed bits (§4.2 footnote).
    BloomDelta {
        /// The changed-bit positions.
        delta: BloomDelta,
    },
    /// One step of an iterative Kademlia-style lookup: the query's *origin*
    /// asks the receiver for the providers it stores under the record key of
    /// the query's first keyword, plus the contacts it knows closer to that
    /// key. The keyword is read by the query id, like a flooded query's; a
    /// real step carries it, and [`Message::wire_size`] prices it.
    /// Query-charged traffic: every step pays real link latency and counts
    /// against the issuing query, exactly like a forwarded unstructured query.
    DhtLookup {
        /// The query this lookup resolves.
        query: QueryId,
        /// This step's depth (1 for the origin's first round).
        hop: u32,
    },
    /// The receiver's answer to a [`Message::DhtLookup`] step (a real reply
    /// echoes the keyword too, and [`Message::wire_size`] prices it).
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
    /// never query-charged, but counted and priced like Bloom sync traffic.
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

    /// The message's size in bytes under a compact binary encoding: a one-byte
    /// tag, fixed-width integers (`u64` query ids, `u32` peer, location, file
    /// and keyword ids, one-byte TTL/hop) and length-prefixed lists.
    ///
    /// The fields every copy of a query shares are priced at their fixed
    /// widths though the message does not store them (see [`Message::Query`]).
    /// The keyword lists a query and a response put on the wire have no fixed
    /// width, so the caller supplies their lengths: `query_keywords` for the
    /// query's list, `file_keywords` for the answered file's. Other messages
    /// carry no keyword list and ignore both.
    pub fn wire_size(&self, query_keywords: usize, file_keywords: usize) -> usize {
        match self {
            Message::Query { target_filename, .. } => {
                // tag, query, origin, origin_loc, keyword count + keywords,
                // filename flag (+ filename), ttl.
                let filename = if target_filename.is_some() { 4 } else { 0 };
                1 + 8 + 4 + 4 + 1 + 4 * query_keywords + 1 + filename + 1
            }
            Message::QueryResponse { providers, .. } => {
                // tag, query, file, two counted keyword lists, u16-counted
                // provider entries, requestor entry.
                let keyword_lists = 1 + 4 * file_keywords + 1 + 4 * query_keywords;
                1 + 8 + 4 + keyword_lists + 2 + 8 * providers.len() + 8
            }
            // tag, bit count, filter words.
            Message::BloomFull { filter } => 1 + 4 + 8 * filter.words().len(),
            // tag, position count, positions packed in ceil(log2(m)) bits each
            // with the whole payload rounded up to whole bytes.
            Message::BloomDelta { delta } => 1 + 2 + delta.encoded_bytes() as usize,
            // tag, query, keyword, hop.
            Message::DhtLookup { .. } => 1 + 8 + 4 + 1,
            // tag, query, keyword, hop, u16-counted (file, provider, loc)
            // entries, u8-counted closer contacts.
            Message::DhtLookupReply { entries, closer, .. } => {
                1 + 8 + 4 + 1 + 2 + 12 * entries.len() + 1 + 4 * closer.len()
            }
            // tag, keyword, file, provider entry.
            Message::DhtStore { .. } => 1 + 4 + 4 + 8,
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
        assert_eq!(Message::BloomFull { filter: Arc::new(filter) }.kind(), MessageKind::BloomFull);
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
            Message::BloomFull { filter: Arc::new(filter.clone()) },
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
        };
        assert_eq!(bloom.query_id(), None);
    }

    #[test]
    fn query_encoding_has_reasonable_size() {
        // Three keywords: 1 + 8 + 4 + 4 + 1 + 3*4 + 1 + 1 = 32 bytes.
        let size = sample_query().wire_size(3, 0);
        assert_eq!(size, 32);
    }

    #[test]
    fn response_encoding_grows_with_providers() {
        let small = Message::QueryResponse {
            query: QueryId(1),
            file: FileId(5),
            providers: vec![ProviderEntry {
                provider: PeerId(9),
                loc_id: LocId(0),
            }],
        };
        let large = Message::QueryResponse {
            query: QueryId(1),
            file: FileId(5),
            providers: (0..10)
                .map(|i| ProviderEntry {
                    provider: PeerId(i),
                    loc_id: LocId(0),
                })
                .collect(),
        };
        assert!(large.wire_size(1, 3) > small.wire_size(1, 3));
    }

    #[test]
    fn response_size_is_pinned() {
        let response = Message::QueryResponse {
            query: QueryId(1),
            file: FileId(5),
            providers: (0..3)
                .map(|i| ProviderEntry {
                    provider: PeerId(i),
                    loc_id: LocId(0),
                })
                .collect(),
        };
        // A one-keyword query answered with a two-keyword file:
        // 1 + 8 + 4 + 1 + 2*4 + 1 + 1*4 + 2 + 3*8 + 8.
        assert_eq!(response.wire_size(1, 2), 61);
    }

    #[test]
    fn bloom_sizes_are_pinned() {
        let mut filter = BloomFilter::paper_default();
        filter.insert("some");
        let words = filter.words().len();
        let full = Message::BloomFull {
            filter: Arc::new(filter.clone()),
        };
        assert_eq!(full.wire_size(0, 0), 1 + 4 + 8 * words);

        let mut newer = filter.clone();
        newer.insert("fresh");
        let delta = BloomDelta::between(&filter, &newer);
        assert!(!delta.is_empty());
        let payload = delta.encoded_bytes() as usize;
        assert_eq!(Message::BloomDelta { delta }.wire_size(0, 0), 1 + 2 + payload);
    }

    #[test]
    fn bloom_delta_is_much_smaller_than_full_filter() {
        let mut filter = BloomFilter::paper_default();
        filter.insert("some");
        filter.insert("keywords");
        let full = Message::BloomFull {
            filter: Arc::new(filter.clone()),
        };
        let mut newer = filter.clone();
        newer.insert("fresh");
        let delta = Message::BloomDelta {
            delta: BloomDelta::between(&filter, &newer),
        };
        assert!(
            delta.wire_size(0, 0) * 5 < full.wire_size(0, 0),
            "delta {} bytes vs full {} bytes",
            delta.wire_size(0, 0),
            full.wire_size(0, 0)
        );
    }

    #[test]
    fn dht_messages_classify_encode_and_charge_queries() {
        let lookup = Message::DhtLookup {
            query: QueryId(9),
            hop: 3,
        };
        assert_eq!(lookup.kind(), MessageKind::DhtLookup);
        assert_eq!(lookup.query_id(), Some(QueryId(9)));
        // 1 + 8 + 4 + 1.
        assert_eq!(lookup.wire_size(0, 0), 14);

        let reply = Message::DhtLookupReply {
            query: QueryId(9),
            hop: 3,
            entries: vec![(7, ProviderEntry { provider: PeerId(5), loc_id: LocId(1) })],
            closer: vec![PeerId(1), PeerId(2)],
        };
        assert_eq!(reply.kind(), MessageKind::DhtLookupReply);
        assert_eq!(reply.query_id(), Some(QueryId(9)));
        // 1 + 8 + 4 + 1 + 2 + 12 + 1 + 8.
        assert_eq!(reply.wire_size(0, 0), 37);

        let store = Message::DhtStore {
            keyword: 42,
            file: 7,
            provider: ProviderEntry { provider: PeerId(5), loc_id: LocId(1) },
        };
        assert_eq!(store.kind(), MessageKind::DhtStore);
        assert_eq!(store.query_id(), None, "stores are background traffic");
        // 1 + 4 + 4 + 8.
        assert_eq!(store.wire_size(0, 0), 17);
    }

    #[test]
    fn dicas_query_carries_the_filename() {
        let q = Message::Query {
            query: QueryId(3),
            target_filename: Some(FileId(77)),
            ttl: 7,
        };
        // 4 bytes more than the keyword-only variant (flag byte already counted).
        assert_eq!(q.wire_size(3, 0), sample_query().wire_size(3, 0) + 4);
    }
}
