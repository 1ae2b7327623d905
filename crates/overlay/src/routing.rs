//! Routing mechanism shared by every protocol.
//!
//! §3.1: queries are flooded with a bounded TTL and *"query responses follow
//! the reverse path of their corresponding q, back to the requesting peer"*.
//! Real Gnutella implements this with per-peer duplicate suppression (a query
//! seen twice is dropped) and a reverse-path table (query id → the neighbour it
//! was first received from). [`RouteTable`] is both; [`QueryRouter`] is the
//! per-peer instantiation and [`QueryRoutes`] the per-live-query one the
//! engine runs on.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::message::QueryId;
use crate::PeerId;

/// Why a set of forwarding targets was chosen — recorded so that the metrics
/// can attribute routing decisions to the Bloom-filter match, the Gid fallback
/// or the last-resort high-degree neighbour (§4.2). The decision counters
/// index their array by `decision as usize`.
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

impl ForwardDecision {
    /// Every decision, in declaration order: `ALL[decision as usize] == decision`.
    pub const ALL: [ForwardDecision; 5] = [
        ForwardDecision::Flood,
        ForwardDecision::BloomMatch,
        ForwardDecision::GidMatch,
        ForwardDecision::HighDegree,
        ForwardDecision::NotForwarded,
    ];

    /// The decision's label in report counters.
    pub fn label(self) -> &'static str {
        match self {
            ForwardDecision::Flood => "flood",
            ForwardDecision::BloomMatch => "bloom-match",
            ForwardDecision::GidMatch => "gid-match",
            ForwardDecision::HighDegree => "high-degree",
            ForwardDecision::NotForwarded => "not-forwarded",
        }
    }
}

/// Fixed-key hasher for route-table keys: one multiply by the 64-bit golden
/// ratio, folded so the high half reaches the low bits.
///
/// `std`'s table takes its bucket index from the low bits of a hash and its
/// 7-bit control tag from the top bits. The multiply carries every input bit
/// into the top bits; the fold brings the attempt counter of a retransmit key
/// (`index | attempt << 32`, or `slot | attempt << 32` in [`QueryRoutes`])
/// down into the bucket index. Keys are assigned by the simulator, never
/// chosen by an adversary, so the flooding protection of `RandomState`
/// (SipHash under a per-process key) buys nothing here, while costing most of
/// what a sighting costs.
#[derive(Debug, Clone, Copy, Default)]
struct RouteKeyHasher(u64);

impl Hasher for RouteKeyHasher {
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

/// Duplicate suppression plus reverse paths, as one table.
///
/// Gnutella drops duplicate copies of a query that arrive over different
/// paths — without that, TTL-bounded flooding on a cyclic overlay would
/// multiply traffic and distort Figure 3 — and routes responses back through
/// the neighbour each query was *first* received from. Both are one table,
/// key → first upstream (`None` for a query the local user issued; the entry
/// is no wider for it), so a sighting costs a single probe.
///
/// What the key names is the caller's choice: [`QueryRouter`] is one peer's
/// table keyed by query id, [`QueryRoutes`] keeps one table per live query
/// keyed by the sighting peer.
#[derive(Debug, Clone)]
pub struct RouteTable<K> {
    upstream: HashMap<K, Option<PeerId>, BuildHasherDefault<RouteKeyHasher>>,
}

/// One peer's routing state: a [`RouteTable`] keyed by query id.
pub type QueryRouter = RouteTable<QueryId>;

impl<K> Default for RouteTable<K> {
    fn default() -> Self {
        RouteTable {
            upstream: HashMap::default(),
        }
    }
}

impl<K: Hash + Eq> RouteTable<K> {
    /// Creates empty routing state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Handles the arrival of query `query` from `from` (or from the local user
    /// when `from` is `None`).
    ///
    /// Returns `true` if the query is new and should be processed; duplicates
    /// return `false` and leave the original reverse path untouched.
    pub fn on_query(&mut self, query: K, from: Option<PeerId>) -> bool {
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
    pub fn response_next_hop(&self, query: K) -> Option<PeerId> {
        self.upstream.get(&query).copied().flatten()
    }

    /// True if `query` has been seen.
    pub fn has_seen(&self, query: K) -> bool {
        self.upstream.contains_key(&query)
    }

    /// Forgets everything, keeping the allocation (used when a query's table
    /// goes back to the spare list).
    pub fn clear(&mut self) {
        self.upstream.clear();
    }

    /// True if nothing has been seen since the last [`RouteTable::clear`].
    pub fn is_empty(&self) -> bool {
        self.upstream.is_empty()
    }

    /// Sightings the table can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.upstream.capacity()
    }
}

/// The routing state of every query that is currently alive, one recycled
/// [`RouteTable`] each.
///
/// The two questions TTL-bounded forwarding asks — "has this peer seen the
/// query?" and "whom did it first hear it from?" — stop being asked the moment
/// the query's last message is consumed, and a query's messages are clustered
/// in simulated time while one peer's are spread over the whole run. So the
/// state is kept with the query: a table `(peer slot, attempt) → first
/// upstream` is taken from the spare list at the query's first sighting and
/// goes back, cleared but with its capacity, when the owner calls
/// [`QueryRoutes::complete`]. Nothing accumulates: the slab holds exactly as
/// many tables as were ever alive at once.
///
/// Queries are named by a dense index (the simulator's arrival index); a
/// retransmitted attempt of the same query shares its table but not its
/// entries — attempt `n + 1` is new to a peer that suppressed attempt `n`.
///
/// A sighting is never erased before its query completes, not even when the
/// peer leaves and rejoins: every (query, attempt, peer) gets exactly one
/// upstream, one that sighted the attempt earlier, so each attempt's reverse
/// paths form a tree rooted at its origin and no response can cycle.
#[derive(Debug, Clone)]
pub struct QueryRoutes {
    /// Query index → slab position + 1 of its table (0: none).
    handles: Vec<u32>,
    /// Every table ever needed, live and spare alike.
    tables: Vec<RouteTable<u64>>,
    /// Slab positions of the cleared tables awaiting reuse.
    spare: Vec<u32>,
}

impl QueryRoutes {
    /// Creates empty routing state for query indexes below `queries`.
    pub fn new(queries: usize) -> Self {
        QueryRoutes {
            handles: vec![0; queries],
            tables: Vec::new(),
            spare: Vec::new(),
        }
    }

    fn key(slot: u32, attempt: u32) -> u64 {
        u64::from(attempt) << 32 | u64::from(slot)
    }

    /// Handles the arrival of attempt `attempt` of query `index` at peer
    /// `slot`, sent by `from` (`None`: the peer issued it), creating the
    /// query's table on its first sighting. Returns `true` if the sighting is
    /// new; duplicates return `false` and keep the original reverse path.
    pub fn on_query(&mut self, index: usize, slot: u32, attempt: u32, from: Option<PeerId>) -> bool {
        let position = match self.handles[index].checked_sub(1) {
            Some(position) => position,
            None => {
                let position = self.spare.pop().unwrap_or_else(|| {
                    self.tables.push(RouteTable::new());
                    self.tables.len() as u32 - 1
                });
                self.handles[index] = position + 1;
                position
            }
        };
        self.tables[position as usize].on_query(Self::key(slot, attempt), from)
    }

    /// The neighbour peer `slot` sends a response for attempt `attempt` of
    /// query `index` towards, if it saw the attempt and did not issue it.
    pub fn response_next_hop(&self, index: usize, slot: u32, attempt: u32) -> Option<PeerId> {
        let position = self.handles[index].checked_sub(1)?;
        self.tables[position as usize].response_next_hop(Self::key(slot, attempt))
    }

    /// Query `index` is complete — no message of any attempt is in flight and
    /// no timer is armed, so nothing can ask about it again: its table, if it
    /// has one, returns cleared to the spare list.
    pub fn complete(&mut self, index: usize) {
        if let Some(position) = std::mem::take(&mut self.handles[index]).checked_sub(1) {
            self.tables[position as usize].clear();
            self.spare.push(position);
        }
    }

    /// True if query `index` currently holds a table.
    pub fn is_live(&self, index: usize) -> bool {
        self.handles[index] != 0
    }

    /// Tables currently held by a query.
    pub fn live(&self) -> usize {
        self.tables.len() - self.spare.len()
    }

    /// The most tables ever held at once — the slab's length, since a table
    /// is only ever created when the spare list is empty.
    pub fn peak(&self) -> usize {
        self.tables.len()
    }

    /// The cleared tables awaiting reuse.
    pub fn spare_tables(&self) -> impl Iterator<Item = &RouteTable<u64>> {
        self.spare.iter().map(|&position| &self.tables[position as usize])
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

    /// The decision counters index by `decision as usize` and label by
    /// `label()`: `ALL` lists every decision at its index, under a distinct
    /// label.
    #[test]
    fn every_decision_sits_at_its_index_with_its_own_label() {
        for (i, decision) in ForwardDecision::ALL.into_iter().enumerate() {
            assert_eq!(decision as usize, i, "{decision:?}");
        }
        let labels: std::collections::BTreeSet<_> = ForwardDecision::ALL.map(ForwardDecision::label).into();
        assert_eq!(labels.len(), ForwardDecision::ALL.len());
    }

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
            let mut hasher = RouteKeyHasher::default();
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

    #[test]
    fn a_completed_query_returns_its_table_cleared_with_its_capacity() {
        let mut routes = QueryRoutes::new(4);
        for slot in 0..100 {
            assert!(routes.on_query(2, slot, 0, Some(PeerId(slot + 1))));
        }
        assert!(!routes.on_query(2, 7, 0, Some(PeerId(99))), "a duplicate");
        assert_eq!(routes.response_next_hop(2, 7, 0), Some(PeerId(8)));
        assert_eq!((routes.live(), routes.peak()), (1, 1));
        routes.complete(2);
        assert!(!routes.is_live(2));
        assert_eq!((routes.live(), routes.peak()), (0, 1));
        let spare: Vec<_> = routes.spare_tables().collect();
        assert!(spare.len() == 1 && spare[0].is_empty() && spare[0].capacity() >= 100);
        // The next query reuses it; completing twice, or a query that never
        // had a table, changes nothing.
        assert!(routes.on_query(0, 7, 0, None));
        routes.complete(2);
        routes.complete(3);
        assert_eq!((routes.live(), routes.peak()), (1, 1));
        assert_eq!(routes.response_next_hop(0, 7, 0), None, "issued here");
        assert_eq!(routes.response_next_hop(1, 7, 0), None, "no table at all");
    }

    #[test]
    fn attempts_share_a_table_but_not_their_sightings() {
        let mut routes = QueryRoutes::new(1);
        assert!(routes.on_query(0, 5, 0, Some(PeerId(1))));
        assert!(routes.on_query(0, 5, 1, Some(PeerId(2))), "attempt 1 is new to slot 5");
        assert!(!routes.on_query(0, 5, 1, Some(PeerId(3))));
        assert_eq!(routes.response_next_hop(0, 5, 0), Some(PeerId(1)));
        assert_eq!(routes.response_next_hop(0, 5, 1), Some(PeerId(2)));
        assert_eq!(routes.peak(), 1);
    }
}
