//! Routing mechanism shared by every protocol.
//!
//! §3.1: queries are flooded with a bounded TTL and *"query responses follow
//! the reverse path of their corresponding q, back to the requesting peer"*.
//! Real Gnutella implements this with per-peer duplicate suppression (a query
//! seen twice is dropped) and a reverse-path table (query id → the neighbour it
//! was first received from). [`QueryRouter`] is both for one peer.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::message::QueryId;
use crate::PeerId;

/// Why a set of forwarding targets was chosen — recorded so that the metrics
/// can attribute routing decisions to the Bloom-filter match, the Gid fallback
/// or the last-resort high-degree neighbour (§4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ForwardDecision {
    /// Plain flooding to all neighbours (minus the one it came from).
    Flood,
    /// Neighbours whose Bloom filter matched every query keyword.
    BloomMatch,
    /// Neighbours whose group id matches the query.
    GidMatch,
    /// The single highest-degree neighbour, used when nothing else matched.
    HighDegree,
    /// The query was not forwarded (TTL exhausted, no neighbours, or satisfied).
    NotForwarded,
}

/// Fixed-key hasher for [`QueryId`]s: one multiply by the 64-bit golden ratio,
/// folded so the high half reaches the low bits.
///
/// `std`'s table takes its bucket index from the low bits of a hash and its
/// 7-bit control tag from the top bits. The multiply carries every input bit
/// into the top bits; the fold brings the attempt counter of a retransmit id
/// (`index | attempt << 32`) down into the bucket index. Query ids are
/// assigned by the simulator, never chosen by an adversary, so the flooding
/// protection of `RandomState` (SipHash under a per-process key) buys nothing
/// here, while costing most of what a sighting costs.
#[derive(Debug, Clone, Copy, Default)]
struct QueryIdHasher(u64);

impl Hasher for QueryIdHasher {
    fn write_u64(&mut self, id: u64) {
        let h = (self.0 ^ id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-peer routing state: duplicate suppression plus reverse paths.
///
/// Gnutella drops duplicate copies of a query that arrive over different
/// paths — without that, TTL-bounded flooding on a cyclic overlay would
/// multiply traffic and distort Figure 3 — and routes responses back through
/// the neighbour each query was *first* received from. Both are one table,
/// query id → first upstream (`None` for a query the local user issued; the
/// entry is no wider for it), so a sighting costs a single probe.
#[derive(Debug, Clone, Default)]
pub struct QueryRouter {
    upstream: HashMap<QueryId, Option<PeerId>, BuildHasherDefault<QueryIdHasher>>,
}

impl QueryRouter {
    /// Creates empty routing state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles the arrival of query `query` from `from` (or from the local user
    /// when `from` is `None`).
    ///
    /// Returns `true` if the query is new and should be processed; duplicates
    /// return `false` and leave the original reverse path untouched.
    pub fn on_query(&mut self, query: QueryId, from: Option<PeerId>) -> bool {
        match self.upstream.entry(query) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(from);
                true
            }
        }
    }

    /// The neighbour to send a response for `query` towards, if this peer is not
    /// the originator.
    pub fn response_next_hop(&self, query: QueryId) -> Option<PeerId> {
        self.upstream.get(&query).copied().flatten()
    }

    /// True if this peer has seen `query`.
    pub fn has_seen(&self, query: QueryId) -> bool {
        self.upstream.contains_key(&query)
    }

    /// Forgets everything (used when a peer rejoins after churn).
    pub fn clear(&mut self) {
        self.upstream.clear();
    }
}

/// Decrements a TTL, returning `None` when the query must stop being forwarded.
///
/// A query arriving with TTL 1 may still be *answered* locally but produces no
/// further forwards; this helper centralises that boundary condition.
pub fn decrement_ttl(ttl: u32) -> Option<u32> {
    if ttl <= 1 {
        None
    } else {
        Some(ttl - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    #[test]
    fn duplicate_queries_are_dropped() {
        let mut router = QueryRouter::new();
        assert!(router.on_query(QueryId(1), Some(PeerId(5))));
        assert!(!router.on_query(QueryId(1), Some(PeerId(6))), "second copy is a duplicate");
        // The reverse path keeps the *first* upstream.
        assert_eq!(router.response_next_hop(QueryId(1)), Some(PeerId(5)));
    }

    #[test]
    fn locally_issued_queries_have_no_upstream() {
        let mut router = QueryRouter::new();
        assert!(router.on_query(QueryId(9), None));
        assert_eq!(router.response_next_hop(QueryId(9)), None);
    }

    /// The hasher must fill both halves of what `std`'s table reads — the
    /// low bits (bucket index) and the top 7 bits (control tag) — for the two
    /// id shapes the engine produces: dense arrival indices, and retransmit
    /// ids that differ from them only above bit 32.
    #[test]
    fn hasher_spreads_dense_and_attempt_tagged_ids() {
        let hash = |id: u64| {
            let mut hasher = QueryIdHasher::default();
            QueryId(id).hash(&mut hasher);
            hasher.finish()
        };
        let dense: Vec<u64> = (0..10_000).collect();
        let tagged: Vec<u64> = (0..10_000).map(|i| i | (1 + i % 3) << 32).collect();
        for ids in [dense, tagged] {
            let mut tags = [0u32; 128];
            let mut buckets = vec![0u32; 1 << 14];
            for &id in &ids {
                let h = hash(id);
                tags[(h >> 57) as usize] += 1;
                buckets[(h & ((1 << 14) - 1)) as usize] += 1;
            }
            let used = tags.iter().filter(|&&n| n > 0).count();
            assert!(used >= 120, "only {used} of 128 control tags used");
            let max_load = buckets.iter().copied().max().unwrap_or(0);
            assert!(max_load <= 8, "a bucket of 2^14 holds {max_load} of 10^4 ids");
        }
    }

    #[test]
    fn ttl_decrement_boundaries() {
        assert_eq!(decrement_ttl(7), Some(6));
        assert_eq!(decrement_ttl(2), Some(1));
        assert_eq!(decrement_ttl(1), None);
        assert_eq!(decrement_ttl(0), None);
    }

    #[test]
    fn clear_resets_router() {
        let mut router = QueryRouter::new();
        router.on_query(QueryId(1), Some(PeerId(2)));
        router.clear();
        assert!(!router.has_seen(QueryId(1)));
        assert_eq!(router.response_next_hop(QueryId(1)), None);
        assert!(router.on_query(QueryId(1), Some(PeerId(3))));
        assert_eq!(router.response_next_hop(QueryId(1)), Some(PeerId(3)));
    }
}
