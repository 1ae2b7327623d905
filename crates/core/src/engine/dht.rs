//! The structured protocol family: everything the engine knows about the
//! keyword DHT lives here — the identity directory, the origin-side iterative
//! lookup state, and the family's handlers, which the rest of the engine
//! reaches through a handful of entry points: [`bootstrap`] at set-up,
//! [`issue`], [`deliver`] and [`step_timeout`] from a shard's event loop, and
//! [`republish`], [`on_leave`] and [`on_join`] from the coordinator's
//! barriers. The handlers are plain functions over [`ShardState`], shaped
//! like the unstructured family's in [`super::unstructured`]: both run on the
//! shard's lifecycle and transport, and keep their per-query origin state in
//! the query's tracking entry — here [`Search::Dht`], the deepest replied hop
//! and the walk.
//!
//! The directory is the run's *identity oracle*: every peer's 160-bit node id
//! and every keyword's record key, derived once from the seeded
//! [`StreamId::DhtIds`] stream. It also answers "which online nodes are
//! closest to this key" globally — the publish/republish paths use that
//! oracle directly instead of simulating their own iterative lookups, in the
//! same modelling spirit as the initial Bloom exchange ("modelled as already
//! known at start"): publisher-side maintenance is priced (every store
//! transfer is a real, latency-paying message) but not path-simulated.
//! *Query* lookups, which the paper's search-cost comparison actually
//! measures, are genuinely iterative: the origin walks the key space contact
//! by contact through [`DhtLookupState`], paying every hop.
//!
//! Churn is lazy on the record side, as it is on the unstructured side: a
//! departure removes the node from every online routing table
//! ([`on_leave`]), but the provider entries it published stay in the record
//! stores until their TTL lapses or a lookup's online filter skips them.

use std::collections::{BTreeMap, HashMap};

use locaware_overlay::{
    DhtDistance, DhtId, DhtNode, Message, MessageKind, OverlayGraph, PeerId, ProviderEntry,
    QueryId, DHT_ID_BITS, DHT_ID_BYTES,
};
use locaware_sim::{Duration, EventKey, RngFactory, SimTime, StreamId};
use locaware_workload::{FileId, KeywordId};
use rand::Rng;

use crate::peer::PeerState;
use crate::results::DhtRunStats;

use super::lifecycle::HitMark;
use super::exchange::TimeoutKind;
use super::shard::{query_index, Search, ShardState};
use super::tally::Tallies;
use super::{peer_mut, RunShared};

/// Bit `depth` of `id`, counting from the most significant (depth 0).
fn id_bit(id: &DhtId, depth: usize) -> bool {
    (id.0[depth / 8] >> (7 - depth % 8)) & 1 == 1
}

/// One pending subrange of the sorted ring during a k-closest search: every
/// id in `ring[lo..hi]` shares its first `depth` bits, and `bound` is the
/// smallest XOR distance to the search target any id in the range can have
/// (the shared-prefix XOR with the low bits zeroed).
#[derive(Clone, Copy)]
struct RangeFrame {
    bound: DhtDistance,
    lo: u32,
    hi: u32,
    depth: u16,
}

/// Caller-owned scratch for [`DhtDirectory::closest_online_into`], so the
/// lookup path performs no per-call allocation (the buffers are reused
/// across calls once warm).
#[derive(Default)]
pub(crate) struct DirectoryScratch {
    /// Deferred far-side subranges, pruned against the current k-th best.
    frontier: Vec<RangeFrame>,
    /// The k best `(distance, peer)` found so far, ascending.
    best: Vec<(DhtDistance, PeerId)>,
}

/// Subranges at or below this length are scanned linearly instead of split
/// further — past this point the partition bookkeeping costs more than the
/// scan.
const RING_LEAF_LEN: usize = 16;

/// The run-wide DHT identity oracle (immutable after construction).
pub(crate) struct DhtDirectory {
    /// Peer index → the peer's 160-bit node id.
    node_ids: Vec<DhtId>,
    /// `(id, peer)` ascending by id: the id space as an implicit binary trie
    /// (a range sharing a `d`-bit prefix is contiguous, and splitting it at
    /// bit `d` is one `partition_point`). Both the k-closest search and the
    /// bootstrap walk descend this instead of scanning all peers.
    ring: Vec<(DhtId, PeerId)>,
    /// Salt behind keyword record keys.
    keyword_salt: u64,
}

impl DhtDirectory {
    /// Derives every identity from the factory's [`StreamId::DhtIds`] stream.
    pub(super) fn new(factory: &RngFactory, peers: usize) -> Self {
        let mut rng = factory.stream(StreamId::DhtIds);
        let peer_salt: u64 = rng.gen();
        let keyword_salt: u64 = rng.gen();
        let node_ids: Vec<DhtId> = (0..peers)
            .map(|i| DhtId::derive(peer_salt, i as u64))
            .collect();
        let mut ring: Vec<(DhtId, PeerId)> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, PeerId(i as u32)))
            .collect();
        ring.sort_unstable();
        DhtDirectory {
            node_ids,
            ring,
            keyword_salt,
        }
    }

    /// The node id of `peer`.
    pub(super) fn node_id(&self, peer: PeerId) -> DhtId {
        self.node_ids[peer.index()]
    }

    /// The record key of `keyword` (the hash of `idx:{keyword}`).
    pub(super) fn keyword_key(&self, keyword: KeywordId) -> DhtId {
        DhtId::derive(self.keyword_salt, u64::from(keyword.0))
    }

    /// Replaces `out` with the `count` **online** peers closest to `target`
    /// (XOR distance, ties by peer id), nearest first — the global oracle the
    /// publish/republish paths address their stores with.
    ///
    /// Best-first over the sorted ring viewed as an implicit trie: descend
    /// the subrange matching the target's next bit (its distance lower bound
    /// is unchanged), defer the sibling with the bound's bit set, and prune
    /// deferred ranges that cannot beat the current k-th best. XOR-closest is
    /// *not* an interval of the numeric order, which is why this walks prefix
    /// ranges rather than outward from one binary-search position. With most
    /// peers online this visits O(count · log n) ids.
    pub(super) fn closest_online_into(
        &self,
        target: DhtId,
        graph: &OverlayGraph,
        count: usize,
        scratch: &mut DirectoryScratch,
        out: &mut Vec<PeerId>,
    ) {
        let DirectoryScratch { frontier, best } = scratch;
        frontier.clear();
        best.clear();
        out.clear();
        if count == 0 || self.ring.is_empty() {
            return;
        }
        frontier.push(RangeFrame {
            bound: DhtDistance([0u8; DHT_ID_BYTES]),
            lo: 0,
            hi: self.ring.len() as u32,
            depth: 0,
        });
        while let Some(frame) = frontier.pop() {
            if best.len() == count && frame.bound >= best[count - 1].0 {
                continue;
            }
            let (mut lo, mut hi) = (frame.lo as usize, frame.hi as usize);
            let mut depth = frame.depth as usize;
            let bound = frame.bound;
            // Descend the target-matching side in place; defer far siblings.
            while hi - lo > RING_LEAF_LEN && depth < DHT_ID_BITS {
                let mid =
                    lo + self.ring[lo..hi].partition_point(|&(id, _)| !id_bit(&id, depth));
                let (near_lo, near_hi, far_lo, far_hi) = if id_bit(&target, depth) {
                    (mid, hi, lo, mid)
                } else {
                    (lo, mid, mid, hi)
                };
                if far_lo < far_hi {
                    let mut far_bound = bound;
                    far_bound.0[depth / 8] |= 1 << (7 - depth % 8);
                    if !(best.len() == count && far_bound >= best[count - 1].0) {
                        frontier.push(RangeFrame {
                            bound: far_bound,
                            lo: far_lo as u32,
                            hi: far_hi as u32,
                            depth: (depth + 1) as u16,
                        });
                    }
                }
                depth += 1;
                if near_lo == near_hi {
                    lo = near_lo;
                    hi = near_hi;
                    break;
                }
                lo = near_lo;
                hi = near_hi;
            }
            for &(id, peer) in &self.ring[lo..hi] {
                if !graph.is_active(peer) {
                    continue;
                }
                let entry = (target.distance(id), peer);
                if best.len() == count {
                    if entry >= best[count - 1] {
                        continue;
                    }
                    best.pop();
                }
                let position = best.partition_point(|&b| b < entry);
                best.insert(position, entry);
            }
        }
        out.extend(best.iter().map(|&(_, peer)| peer));
    }

    /// Walks the bootstrap contact set: for every peer, the contacts its
    /// routing table converges to when each peer observes all others in
    /// peer-id order with bucket capacity `k` — i.e. for each k-bucket, the
    /// `k` lowest-id peers of the sibling subtrie at that depth. `add` is
    /// called once per `(owner, contact id, contact)` with contacts in
    /// ascending id order per bucket. Costs O(n · log n · k).
    pub(super) fn for_each_bootstrap_contact(
        &self,
        k: usize,
        mut add: impl FnMut(PeerId, DhtId, PeerId),
    ) {
        if self.ring.len() > 1 {
            self.bootstrap_range(0, self.ring.len(), 0, k, &mut add);
        }
    }

    /// Recursive step of the bootstrap walk over `ring[lo..hi]` (ids sharing
    /// their first `depth` bits). Emits cross-half contacts — every peer of
    /// one half gets the other half's k-lowest peer ids, which is that
    /// half's entire contribution to its bucket — and returns this range's
    /// own k-lowest peer ids, ascending.
    fn bootstrap_range(
        &self,
        lo: usize,
        hi: usize,
        depth: usize,
        k: usize,
        add: &mut impl FnMut(PeerId, DhtId, PeerId),
    ) -> Vec<PeerId> {
        if hi - lo == 1 {
            return vec![self.ring[lo].1];
        }
        if depth >= DHT_ID_BITS {
            // Colliding ids (astronomically unlikely): no bucket separates
            // them, so just report the range's lowest peer ids.
            let mut head: Vec<PeerId> = self.ring[lo..hi].iter().map(|&(_, p)| p).collect();
            head.sort_unstable();
            head.truncate(k);
            return head;
        }
        let mid = lo + self.ring[lo..hi].partition_point(|&(id, _)| !id_bit(&id, depth));
        if mid == lo || mid == hi {
            return self.bootstrap_range(lo, hi, depth + 1, k, add);
        }
        let left = self.bootstrap_range(lo, mid, depth + 1, k, add);
        let right = self.bootstrap_range(mid, hi, depth + 1, k, add);
        for &(_, owner) in &self.ring[lo..mid] {
            for &contact in &right {
                add(owner, self.node_ids[contact.index()], contact);
            }
        }
        for &(_, owner) in &self.ring[mid..hi] {
            for &contact in &left {
                add(owner, self.node_ids[contact.index()], contact);
            }
        }
        // The halves hold distinct peers, at most `k` each.
        let mut merged = left;
        merged.extend(right);
        merged.sort_unstable();
        merged.truncate(k);
        merged
    }
}

/// Origin-side state of one iterative lookup (lives in the query's tracking
/// entry, [`Search::Dht`], in the origin peer's shard).
///
/// The shortlist holds every candidate learned so far, sorted by
/// `(distance to the record key, peer id)` with a queried flag; the origin
/// keeps up to `alpha` steps in flight among the first `k` unqueried
/// candidates. Each in-flight step is an `awaiting` ledger entry recording
/// the queried peer and its hop depth; a reply — or, under a fault plan with
/// step timeouts, the step's deadline — settles the entry. Without step
/// timeouts a step sent to a node that departed at a later churn barrier is
/// simply lost: its consumption still retires the query's
/// outstanding-message count, so the query completes honestly, just without
/// that branch's answer. With step timeouts the deadline releases the
/// stalled slot and the walk re-issues against the next shortlist
/// candidate.
pub(super) struct DhtLookupState {
    /// The record key being walked towards.
    pub(super) key: DhtId,
    /// Shortlist: `(distance, peer, queried)`, ascending.
    candidates: Vec<(DhtDistance, PeerId, bool)>,
    /// In-flight steps: `(queried peer, hop depth)`, settled by the reply or
    /// its deadline, whichever the canonical order dispatches first.
    awaiting: Vec<(PeerId, u32)>,
}

impl DhtLookupState {
    pub(super) fn new(key: DhtId) -> Self {
        DhtLookupState {
            key,
            candidates: Vec::new(),
            awaiting: Vec::new(),
        }
    }

    /// Steps currently in flight (each either awaiting its reply or, under a
    /// fault plan, its deadline).
    pub(super) fn inflight(&self) -> usize {
        self.awaiting.len()
    }

    /// Records a step sent to `peer` at hop depth `hop`.
    pub(super) fn begin_step(&mut self, peer: PeerId, hop: u32) {
        self.awaiting.push((peer, hop));
    }

    /// Settles the in-flight step queried at `peer`, returning its hop depth.
    /// `None` when no such step is pending — a reply whose slot a step
    /// deadline already released (the reply's payload still contributes
    /// candidates, but the in-flight accounting has moved on).
    pub(super) fn finish_step(&mut self, peer: PeerId) -> Option<u32> {
        let position = self.awaiting.iter().position(|&(p, _)| p == peer)?;
        Some(self.awaiting.remove(position).1)
    }

    /// Merges a learned contact into the shortlist (deduplicated by peer,
    /// kept sorted). Returns `false` if the peer was already known.
    pub(super) fn add_candidate(&mut self, distance: DhtDistance, peer: PeerId) -> bool {
        if self.candidates.iter().any(|&(_, p, _)| p == peer) {
            return false;
        }
        let position = self
            .candidates
            .partition_point(|&(d, p, _)| (d, p) < (distance, peer));
        self.candidates.insert(position, (distance, peer, false));
        true
    }

    /// The next unqueried candidate among the `k` closest, marked queried.
    /// `None` once the `k` closest known contacts have all been asked — the
    /// Kademlia termination condition.
    pub(super) fn take_next_target(&mut self, k: usize) -> Option<PeerId> {
        for entry in self.candidates.iter_mut().take(k) {
            if !entry.2 {
                entry.2 = true;
                return Some(entry.1);
            }
        }
        None
    }
}

// --- set-up and barrier transitions (coordinator side) ------------------------

/// Brings the DHT up as already converged at simulation start, like the
/// group-id and initial Bloom exchanges: every peer has observed every
/// other's node id (bucket capacities still apply, so far buckets keep only
/// their first `k` in peer-id order), and each initially shared, DHT-indexed
/// file is stored on the `k` closest nodes to each of its keyword keys — no
/// messages charged.
pub(super) fn bootstrap(
    shared: &RunShared<'_>,
    directory: &DhtDirectory,
    graph: &OverlayGraph,
    shards: &mut [ShardState],
) {
    let config = &shared.config.dht;
    let mut nodes: Vec<DhtNode> = (0..shared.config.peers as u32)
        .map(|i| DhtNode::new(directory.node_id(PeerId(i)), config.k, config.max_record_bytes))
        .collect();
    // The converged tables (for each bucket, the k lowest-id peers of the
    // bucket's subtree) come from one O(n log n · k) range-split walk of the
    // directory's sorted ring — identical contents, in identical bucket
    // order, to inserting all n-1 others per peer.
    directory.for_each_bootstrap_contact(config.k, |owner, contact_id, contact| {
        let inserted = nodes[owner.index()].table.insert(contact_id, contact);
        debug_assert!(inserted, "bootstrap contacts are pre-capped per bucket");
    });
    for (i, node) in nodes.into_iter().enumerate() {
        peer_mut(shared, shards, PeerId(i as u32)).dht = Some(Box::new(node));
    }
    // The initial overlay has no departed peer: everyone announces.
    republish(shared, directory, shards, graph, SimTime::ZERO, true);
}

/// One republish round: every online peer sweeps expired entries from its
/// own record store, then re-announces each of its shared, DHT-indexed files
/// to the *current* `k` closest online index nodes — in peer-id order,
/// serially at the barrier. Each remote store transfer is a real background
/// message paying link latency (the receiver stamps the TTL at delivery
/// time); self-targets store locally for free. This is what re-homes records
/// whose index nodes departed and refreshes TTLs so live records outlast
/// `record_ttl_secs`. `converged` is the bootstrap's round: every record is
/// placed directly, as if the transfers had already happened.
pub(super) fn republish(
    shared: &RunShared<'_>,
    directory: &DhtDirectory,
    shards: &mut [ShardState],
    graph: &OverlayGraph,
    now: SimTime,
    converged: bool,
) {
    // The online set is fixed for the whole round (coordinator-serial), so a
    // keyword's k-closest targets are too — resolve each keyword once per
    // round no matter how many peers announce it.
    let mut targets_by_keyword: HashMap<u32, Vec<PeerId>> = HashMap::new();
    let (mut scratch, mut unmemoised) = (DirectoryScratch::default(), Vec::new());
    let mut files: Vec<FileId> = Vec::new();
    for from in graph.active_peers() {
        let peer = peer_mut(shared, shards, from);
        if let Some(node) = peer.dht.as_mut() {
            node.store.expire(now);
        }
        let provider = ProviderEntry {
            provider: from,
            loc_id: peer.loc_id,
        };
        files.clear();
        files.extend(peer.shared_files());
        for &file in &files {
            let memo = Some(&mut targets_by_keyword);
            for_each_store_target(
                shared, directory, graph, file, memo, &mut scratch, &mut unmemoised,
                |keyword, target| {
                    if converged {
                        let target = peer_mut(shared, shards, target);
                        store_record(target, shared, now, keyword, file.0, provider);
                    } else {
                        let shard = &mut shards[shared.partition.shard(from)];
                        place_record(shard, shared, now, target, keyword, file.0, provider);
                    }
                },
            );
        }
    }
}

/// Online peer `other` learns that `departed` left with goodbyes. Failure
/// detection is modelled at the barrier, like the rewiring itself: the
/// departed node leaves the routing table. Its *record entries* linger until
/// TTL expiry or a lookup's online filter skips them, which is exactly the
/// index staleness the churn-storm comparison measures.
pub(super) fn on_leave(other: &mut PeerState, departed: PeerId) {
    if let Some(node) = other.dht.as_mut() {
        node.table.remove(departed);
    }
}

/// A peer rejoined: it bootstraps a fresh routing table from the online
/// population and announces its node id to every online peer, in peer-id
/// order. Its record store restarts empty (`reset_volatile_state` cleared
/// it); records it should host migrate back at the next republish round, and
/// its own files re-announce then too.
pub(super) fn on_join(
    shared: &RunShared<'_>,
    directory: &DhtDirectory,
    shards: &mut [ShardState],
    graph: &OverlayGraph,
    peer: PeerId,
) {
    let Some(mut joiner) = peer_mut(shared, shards, peer).dht.take() else {
        return;
    };
    let joiner_id = directory.node_id(peer);
    for other in graph.active_peers().filter(|&other| other != peer) {
        joiner.table.insert(directory.node_id(other), other);
        if let Some(node) = peer_mut(shared, shards, other).dht.as_mut() {
            node.table.insert(joiner_id, peer);
        }
    }
    peer_mut(shared, shards, peer).dht = Some(joiner);
}

/// The run's DHT statistics: the lookup totals finalize folded from the
/// per-query tracking, the store traffic from the merged tallies, and the
/// record stores' end-of-run sizes and counters.
pub(super) fn run_stats<'p>(
    peers: impl Iterator<Item = &'p PeerState>,
    lookups: u64,
    lookup_depth_total: u64,
    totals: &Tallies,
) -> DhtRunStats {
    let mut stats = DhtRunStats {
        lookups,
        lookup_depth_total,
        store_messages: totals.message_counts[MessageKind::DhtStore as usize],
        records: 0,
        provider_entries: 0,
        record_bytes: 0,
        truncated_entries: 0,
        expired_entries: 0,
    };
    for node in peers.filter_map(|p| p.dht.as_ref()) {
        stats.records += node.store.records();
        stats.provider_entries += node.store.entries();
        stats.record_bytes += node.store.bytes();
        stats.truncated_entries += node.store.truncated_entries();
        stats.expired_entries += node.store.expired_entries();
    }
    stats
}

// --- record placement ------------------------------------------------------------

/// The one store-target walk behind bootstrap, republish and publish: for
/// every keyword of `file`, hands `place` each of the `k` online index nodes
/// closest to the keyword's record key. Files whose rank the protocol keeps
/// on the overlay (the hybrid's head) are skipped entirely: their discovery
/// lives in the response indexes. `memo` caches a keyword's targets across
/// calls — sound only while the caller's `graph` stays fixed; without
/// it the targets are resolved into the caller's `unmemoised` buffer, so a
/// one-off publish allocates nothing.
#[expect(
    clippy::too_many_arguments,
    reason = "store rounds lend a memo, a publish its shard's scratch buffers"
)]
fn for_each_store_target(
    shared: &RunShared<'_>,
    directory: &DhtDirectory,
    graph: &OverlayGraph,
    file: FileId,
    mut memo: Option<&mut HashMap<u32, Vec<PeerId>>>,
    scratch: &mut DirectoryScratch,
    unmemoised: &mut Vec<PeerId>,
    mut place: impl FnMut(u32, PeerId),
) {
    if !shared.dht_resolves(file) {
        return;
    }
    for &keyword in shared.catalog.filename(file).keywords() {
        let mut resolve = |out: &mut Vec<PeerId>| {
            let key = directory.keyword_key(keyword);
            directory.closest_online_into(key, graph, shared.config.dht.k, scratch, out);
        };
        let targets: &[PeerId] = match memo.as_mut() {
            Some(memo) => memo.entry(keyword.0).or_insert_with(|| {
                let mut targets = Vec::new();
                resolve(&mut targets);
                targets
            }),
            None => {
                resolve(unmemoised);
                unmemoised
            }
        };
        for &target in targets {
            place(keyword.0, target);
        }
    }
}

/// Hands one `(keyword, file, provider)` record entry to index node
/// `target`: stored in place when the target is the announcing provider
/// itself, sent as a [`Message::DhtStore`], background traffic, otherwise.
fn place_record(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    now: SimTime,
    target: PeerId,
    keyword: u32,
    file: u32,
    provider: ProviderEntry,
) {
    let from = provider.provider;
    if target == from {
        let own = &mut state.peers[shared.partition.slot(from)];
        store_record(own, shared, now, keyword, file, provider);
    } else {
        let message = Message::DhtStore {
            keyword,
            file,
            provider,
        };
        state.send(shared, now, from, target, message);
    }
}

/// Upserts a record entry at index node `peer`; its TTL clock starts `at`
/// the moment it is stored.
fn store_record(
    peer: &mut PeerState,
    shared: &RunShared<'_>,
    at: SimTime,
    keyword: u32,
    file: u32,
    provider: ProviderEntry,
) {
    let ttl = Duration::from_secs_f64(shared.config.dht.record_ttl_secs);
    if let Some(node) = peer.dht.as_mut() {
        node.store.insert(keyword, file, provider, at + ttl);
    }
}

// --- query resolution (shard side) -------------------------------------------------

/// Issues a DHT-resolved query: try the origin's own record store first
/// (the origin may itself be an index node for the keyword), then start
/// the iterative lookup with up to `alpha` parallel first steps toward
/// the keyword's record key.
pub(super) fn issue(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    directory: &DhtDirectory,
    graph: &OverlayGraph,
    key: EventKey,
    index: usize,
) {
    let Some(keyword) = lookup_keyword(shared, index) else {
        return;
    };
    let record_key = directory.keyword_key(keyword);
    let slot = shared.partition.slot(PeerId(shared.arrivals[index].peer as u32));
    let mut entries = Vec::new();
    if let Some(node) = state.peers[slot].dht.as_ref() {
        node.store.lookup_into(keyword.0, key.time, &mut entries);
    }
    if try_satisfy(state, shared, directory, graph, key, index, &entries, 0) {
        return;
    }
    let mut lookup = Box::new(DhtLookupState::new(record_key));
    let mut seeds = Vec::new();
    if let Some(node) = state.peers[slot].dht.as_ref() {
        node.table
            .closest_into(record_key, shared.config.dht.k, &mut seeds);
    }
    for peer in seeds {
        lookup.add_candidate(record_key.distance(directory.node_id(peer)), peer);
    }
    // No known contacts at all: nothing goes in flight — the caller's
    // born-complete check closes the query.
    refill(state, shared, graph, key.time, index, lookup, 1);
}

/// Handles a delivered DHT message at the online peer `to`.
pub(super) fn deliver(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    key: EventKey,
    from: PeerId,
    to: PeerId,
    message: Message,
) {
    let Some(directory) = shared.dht.as_ref() else {
        return;
    };
    let slot = shared.partition.slot(to);
    match message {
        Message::DhtLookup { query, hop } => {
            // An index-node lookup step: answer with everything the local
            // record store holds for the query's lookup keyword plus the
            // closest contacts the local routing table knows toward its key.
            // A receiver that departed never gets here — the step is consumed
            // without a reply, the structured analogue of a timed-out RPC;
            // the query's lifecycle completes through its remaining branches.
            let Some(keyword) = lookup_keyword(shared, query_index(query)) else {
                unreachable!("a lookup step is sent only for a query with a lookup keyword");
            };
            let mut entries = Vec::new();
            let mut closer = Vec::new();
            if let Some(node) = state.peers[slot].dht.as_ref() {
                node.store.lookup_into(keyword.0, key.time, &mut entries);
                let record_key = directory.keyword_key(keyword);
                node.table
                    .closest_into(record_key, shared.config.dht.k, &mut closer);
            }
            let reply = Message::DhtLookupReply { query, hop, entries, closer };
            state.send(shared, key.time, to, from, reply);
        }
        Message::DhtLookupReply { query, hop, entries, closer } => {
            let index = query_index(query);
            // Only the origin holds lookup state; a reply arriving after the
            // walk concluded (satisfied, exhausted or completed) is ignored.
            let Some((depth, walk)) = search(state, index) else {
                return;
            };
            let Some(mut lookup) = walk.take() else {
                return;
            };
            *depth = (*depth).max(hop);
            // Settle the step's ledger entry. A reply whose slot a step
            // deadline already released finds none — its payload still
            // merges below, but the in-flight accounting has moved on.
            lookup.finish_step(from);
            for &contact in closer.iter().filter(|&&c| c != to) {
                lookup.add_candidate(lookup.key.distance(directory.node_id(contact)), contact);
            }
            if !try_satisfy(state, shared, directory, graph, key, index, &entries, hop) {
                // Keep walking among the `k` closest known contacts, one hop
                // deeper.
                refill(state, shared, graph, key.time, index, lookup, hop + 1);
            }
        }
        Message::DhtStore { keyword, file, provider } => {
            // A store transfer from a publish or republish round.
            store_record(&mut state.peers[slot], shared, key.time, keyword, file, provider);
        }
        _ => unreachable!("only DHT messages are delivered to the structured family"),
    }
}

/// A DHT step deadline fired: if the step is still unanswered, release its
/// in-flight slot and re-issue against the next shortlist candidates at the
/// same hop depth. This is what recovers lookups whose step landed on an
/// index node that departed mid-walk and will never reply.
pub(super) fn step_timeout(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    key: EventKey,
    index: usize,
    peer: PeerId,
) {
    let Some((_, walk)) = search(state, index) else {
        return;
    };
    let Some(mut lookup) = walk.take() else {
        return;
    };
    // `None` means the reply won the race at this exact deadline (class
    // ordering dispatches it first) or arrived long ago: nothing stalled.
    let Some(hop) = lookup.finish_step(peer) else {
        *walk = Some(lookup);
        return;
    };
    state.tallies.dht_step_timeouts += 1;
    refill(state, shared, graph, key.time, index, lookup, hop);
}

/// Keeps query `index`'s walk going: sends lookup steps at depth `hop` to
/// the next unqueried shortlist candidates until `alpha` are in flight or
/// the `k` closest known contacts have all been asked (arming each step's
/// deadline under a fault plan with step timeouts), then parks the lookup
/// state while anything is in flight. A shortlist exhausted with nothing in
/// flight ends the walk: the state is dropped and the query completes via
/// its lifecycle. Nothing is sent past the hop budget or from an origin
/// that departed.
fn refill(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    now: SimTime,
    index: usize,
    mut lookup: Box<DhtLookupState>,
    hop: u32,
) {
    let config = &shared.config.dht;
    let origin = PeerId(shared.arrivals[index].peer as u32);
    let step_timeout = shared.faults.as_ref().and_then(|f| f.dht_step_timeout);
    if hop <= config.max_lookup_hops && graph.is_active(origin) {
        while lookup.inflight() < config.alpha {
            let Some(target) = lookup.take_next_target(config.k) else {
                break;
            };
            lookup.begin_step(target, hop);
            let step = Message::DhtLookup { query: QueryId(index as u64), hop };
            state.send(shared, now, origin, target, step);
            if let Some(timeout) = step_timeout {
                let deadline = now + timeout;
                state.schedule_timeout(shared, deadline, index, TimeoutKind::DhtStep { peer: target });
            }
        }
    }
    if lookup.inflight() > 0 {
        if let Some((_, walk)) = search(state, index) {
            *walk = Some(lookup);
        }
    }
}

/// The keyword query `index`'s lookup keys on: the smallest of the keywords
/// its issue published — generated keyword lists are sorted, so the choice
/// is canonical for every shard count. (Entries are still filtered against
/// *all* keywords.) `None` for a query without keywords, which never walks.
fn lookup_keyword(shared: &RunShared<'_>, index: usize) -> Option<KeywordId> {
    shared.digest(index).keywords().first().copied()
}

/// Query `index`'s DHT search at its origin — the deepest replied hop and the
/// walk — or `None` where this shard has no such query.
fn search(state: &mut ShardState, index: usize) -> Option<(&mut u32, &mut Option<Box<DhtLookupState>>)> {
    match &mut state.tracking.get_mut(&(index as u32))?.search {
        Search::Dht { depth, walk } => Some((depth, walk)),
        Search::Flood => None,
    }
}

/// Tries to satisfy query `index` from DHT record entries (the origin's own
/// store at hop 0, or a lookup reply's payload). Entries must match every
/// keyword the query's issue published, offer a file the origin does not
/// already hold, and name a provider that is online in this window's graph.
/// Among satisfiable files the one with the most online providers wins
/// (ties: smallest file id) — the analogue of the overlay's
/// first-answer-wins richest response.
/// On success the origin downloads and replicates through the shared
/// [`ShardState::satisfy`] and immediately publishes the new replica to the
/// keyword index.
#[expect(
    clippy::too_many_arguments,
    reason = "the mutable shard sits beside the run's borrowed parts"
)]
fn try_satisfy(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    directory: &DhtDirectory,
    graph: &OverlayGraph,
    key: EventKey,
    index: usize,
    entries: &[(u32, ProviderEntry)],
    hops: u32,
) -> bool {
    let keywords = shared.digest(index).keywords();
    let origin = &state.peers[shared.partition.slot(PeerId(shared.arrivals[index].peer as u32))];
    let replica = ProviderEntry {
        provider: origin.id,
        loc_id: origin.loc_id,
    };
    // Group the viable entries per file. A record keyed on one keyword can
    // index files missing the query's other keywords; those cannot satisfy
    // it (§3.1's all-keywords rule, same as the overlay path).
    let mut per_file: BTreeMap<FileId, Vec<ProviderEntry>> = BTreeMap::new();
    for &(file, provider) in entries {
        let file = FileId(file);
        if !origin.has_file(file)
            && graph.is_active(provider.provider)
            && shared.catalog.filename(file).matches(keywords)
        {
            per_file.entry(file).or_default().push(provider);
        }
    }
    let Some((&file, providers)) = per_file
        .iter()
        .max_by_key(|(file, providers)| (providers.len(), std::cmp::Reverse(file.0)))
    else {
        return false;
    };
    if !state.satisfy(shared, graph, index, file, providers) {
        return false;
    }
    state.ledger.record_hit(index, HitMark { key, hops, from_cache: false });
    // Announce the fresh replica to the current index nodes right away — the
    // event-driven counterpart of the periodic republish round, so it is
    // discoverable before the next round.
    let mut targets = std::mem::take(&mut state.scratch_publish_targets);
    let mut scratch = std::mem::take(&mut state.scratch_directory);
    for_each_store_target(
        shared, directory, graph, file, None, &mut scratch, &mut targets,
        |keyword, target| place_record(state, shared, key.time, target, keyword, file.0, replica),
    );
    state.scratch_publish_targets = targets;
    state.scratch_directory = scratch;
    true
}

#[cfg(test)]
mod tests {
    use super::super::prepare;
    use super::super::shard::QueryTracking;
    use super::*;
    use crate::config::{ProtocolKind, SimulationConfig};
    use crate::results::QueryOutcome;
    use crate::simulation::Simulation;

    /// A 40-peer single-shard substrate whose record cap never truncates.
    fn substrate() -> Simulation {
        let mut config = SimulationConfig::small(40);
        config.shards = 1;
        config.dht.max_record_bytes = 1 << 20;
        Simulation::try_build(config).expect("test configuration validates")
    }

    /// What `peer` holds under `keyword` at `at`.
    fn record(state: &ShardState, peer: usize, keyword: u32, at: SimTime) -> Vec<(u32, ProviderEntry)> {
        let mut entries = Vec::new();
        let node = state.peers.iter().find(|p| p.id.index() == peer).unwrap().dht.as_ref();
        node.unwrap().store.lookup_into(keyword, at, &mut entries);
        entries
    }

    /// Every peer's unexpired record entries, keyword by keyword.
    fn records(shared: &RunShared<'_>, state: &ShardState, at: SimTime) -> Vec<Vec<(u32, ProviderEntry)>> {
        let keywords = 0..shared.config.keyword_pool as u32;
        (0..shared.config.peers)
            .flat_map(|peer| keywords.clone().map(move |keyword| record(state, peer, keyword, at)))
            .collect()
    }

    #[test]
    fn memoised_and_unmemoised_store_walks_agree() {
        let sim = substrate();
        let (shared, _shards) = prepare(&sim, ProtocolKind::DhtIndex, Vec::new(), true);
        let directory = shared.dht.as_ref().unwrap();
        let mut graph = sim.overlay().clone();
        graph.depart(PeerId(3));
        let (mut scratch, mut buffer) = (DirectoryScratch::default(), Vec::new());
        let mut memo = HashMap::new();
        for _round in 0..2 {
            // The second round answers every keyword from the memo.
            for file in (0..10).map(FileId) {
                let (mut with, mut without) = (Vec::new(), Vec::new());
                for_each_store_target(
                    &shared, directory, &graph, file, Some(&mut memo), &mut scratch,
                    &mut buffer, |keyword, target| with.push((keyword, target)),
                );
                for_each_store_target(
                    &shared, directory, &graph, file, None, &mut scratch, &mut buffer,
                    |keyword, target| without.push((keyword, target)),
                );
                assert_eq!(with, without, "file {file:?}");
                let keywords = shared.catalog.filename(file).keywords().len();
                assert_eq!(with.len(), keywords * shared.config.dht.k);
                assert!(with.iter().all(|&(_, target)| target != PeerId(3)), "offline target");
            }
        }
    }

    #[test]
    fn a_self_target_is_stored_in_place_and_never_sent() {
        let sim = substrate();
        let (shared, mut shards) = prepare(&sim, ProtocolKind::DhtIndex, Vec::new(), true);
        let now = SimTime::from_millis(10);
        let provider = ProviderEntry {
            provider: PeerId(5),
            loc_id: shared.loc_ids[5],
        };
        let state = &mut shards[0];
        place_record(state, &shared, now, PeerId(5), u32::MAX, 7, provider);
        assert_eq!(record(state, 5, u32::MAX, now), [(7, provider)]);
        assert_eq!(state.tallies.background_messages(), 0);
        assert!(state.queue.peek_key().is_none());
        // A remote target costs one store message and holds nothing until it lands.
        place_record(state, &shared, now, PeerId(6), u32::MAX, 7, provider);
        assert_eq!(state.tallies.message_counts[MessageKind::DhtStore as usize], 1);
        assert!(record(state, 6, u32::MAX, now).is_empty());
        state.drain(&shared, sim.overlay());
        assert_eq!(record(state, 6, u32::MAX, now), [(7, provider)]);
    }

    #[test]
    fn a_republish_round_at_time_zero_rebuilds_the_bootstrap_records() {
        let sim = substrate();
        let (shared, mut shards) = prepare(&sim, ProtocolKind::DhtIndex, Vec::new(), true);
        let directory = shared.dht.as_ref().unwrap();
        let later = SimTime::ZERO + Duration::from_secs(60);
        let bootstrapped = records(&shared, &shards[0], later);
        assert!(bootstrapped.iter().any(|held| !held.is_empty()));
        for peer in shards[0].peers.iter_mut() {
            peer.dht.as_mut().unwrap().store.clear();
        }
        // The same round, paid for: stores travel as messages and land later.
        republish(&shared, directory, &mut shards, sim.overlay(), SimTime::ZERO, false);
        assert_ne!(records(&shared, &shards[0], later), bootstrapped);
        shards[0].drain(&shared, sim.overlay());
        assert_eq!(records(&shared, &shards[0], later), bootstrapped);
    }

    #[test]
    fn the_walk_keeps_at_most_alpha_steps_in_flight_until_its_shortlist_empties() {
        let sim = substrate();
        let (shared, mut shards) = prepare(&sim, ProtocolKind::DhtIndex, sim.arrivals(1), true);
        let directory = shared.dht.as_ref().unwrap();
        let (alpha, k) = (shared.config.dht.alpha, shared.config.dht.k);
        let graph = sim.overlay();
        let state = &mut shards[0];
        let origin = PeerId(shared.arrivals[0].peer as u32);
        let key = EventKey::new(SimTime::from_millis(5), 0, 0, 0);
        // The query counts as satisfied already, so nothing can satisfy it
        // again: the walk runs until the shortlist is exhausted.
        let mut tracking = QueryTracking::new(&shared, 0, FileId(0), Search::Dht { depth: 0, walk: None });
        tracking.record.outcome = QueryOutcome::Satisfied;
        state.tracking.insert(0, tracking);
        shared.publish_digest(0, vec![KeywordId(0)], FileId(0));
        issue(state, &shared, directory, graph, key, 0);
        let walk = |state: &ShardState| match &state.tracking[&0].search {
            Search::Dht { walk, .. } => walk.as_ref().map(|lookup| lookup.awaiting.clone()),
            Search::Flood => unreachable!("a DHT query"),
        };
        let awaiting = |state: &ShardState| walk(state).expect("the walk is live");
        assert_eq!(awaiting(state).len(), alpha);
        assert!(awaiting(state).iter().all(|&(_, hop)| hop == 1));

        // A reply frees its slot and the refill goes one hop deeper.
        let (replier, _) = awaiting(state)[0];
        let reply = Message::DhtLookupReply {
            query: QueryId(0),
            hop: 1,
            entries: Vec::new(),
            closer: Vec::new(),
        };
        deliver(state, &shared, graph, key, replier, origin, reply);
        let steps = awaiting(state);
        assert_eq!(steps.len(), alpha);
        assert!(steps.iter().all(|&(peer, _)| peer != replier));
        assert_eq!(steps[alpha - 1].1, 2, "a reply refills at hop + 1");

        // A step deadline frees its slot and the refill stays at its hop.
        let (stalled, hop) = steps[0];
        step_timeout(state, &shared, graph, key, 0, stalled);
        assert_eq!(awaiting(state).len(), alpha);
        assert_eq!(awaiting(state)[alpha - 1].1, hop, "a timeout refills at the same hop");
        step_timeout(state, &shared, graph, key, 0, stalled);
        assert_eq!(state.tallies.dht_step_timeouts, 1, "a settled step cannot time out");

        // Time every remaining step out: once the k closest have all been
        // asked the in-flight count runs down and the state is dropped.
        while let Some(steps) = walk(state) {
            assert!((1..=alpha).contains(&steps.len()));
            step_timeout(state, &shared, graph, key, 0, steps[0].0);
        }
        assert_eq!(state.tallies.message_counts[MessageKind::DhtLookup as usize], k as u64);
    }

    #[test]
    fn directory_identities_are_deterministic_and_distinct() {
        let a = DhtDirectory::new(&RngFactory::new(7), 50);
        let b = DhtDirectory::new(&RngFactory::new(7), 50);
        let c = DhtDirectory::new(&RngFactory::new(8), 50);
        for i in 0..50u32 {
            assert_eq!(a.node_id(PeerId(i)), b.node_id(PeerId(i)));
        }
        assert_ne!(a.node_id(PeerId(0)), c.node_id(PeerId(0)));
        assert_ne!(a.node_id(PeerId(0)), a.node_id(PeerId(1)));
        assert_eq!(a.keyword_key(KeywordId(3)), b.keyword_key(KeywordId(3)));
        assert_ne!(a.keyword_key(KeywordId(3)), a.keyword_key(KeywordId(4)));
        // Peer and keyword spaces use different salts: same value, different id.
        assert_ne!(a.node_id(PeerId(3)), a.keyword_key(KeywordId(3)));
    }

    #[test]
    fn closest_online_filters_and_ranks_exhaustively() {
        let directory = DhtDirectory::new(&RngFactory::new(42), 20);
        let mut graph = OverlayGraph::new(20);
        graph.depart(PeerId(3));
        graph.depart(PeerId(11));
        let target = directory.keyword_key(KeywordId(9));
        let mut got = Vec::new();
        let mut scratch = DirectoryScratch::default();
        directory.closest_online_into(target, &graph, 5, &mut scratch, &mut got);
        // Model: rank every online peer by (distance, id) and take 5.
        let mut expected: Vec<(DhtDistance, PeerId)> = (0..20u32)
            .filter(|&i| graph.is_active(PeerId(i)))
            .map(|i| (target.distance(directory.node_id(PeerId(i))), PeerId(i)))
            .collect();
        expected.sort_unstable();
        let expected: Vec<PeerId> = expected.into_iter().take(5).map(|(_, p)| p).collect();
        assert_eq!(got, expected);
        assert!(!got.contains(&PeerId(3)) && !got.contains(&PeerId(11)));
        // The buffer is replaced, not appended to.
        directory.closest_online_into(target, &graph, 2, &mut scratch, &mut got);
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn ring_search_matches_the_exhaustive_scan_across_patterns() {
        // The trie search must reproduce the old exhaustive ranking exactly,
        // across sizes spanning the leaf threshold, counts spanning the
        // population, and online patterns from dense to sparse.
        let mut got = Vec::new();
        let mut scratch = DirectoryScratch::default();
        for (seed, peers) in [(1u64, 3usize), (2, 16), (3, 17), (4, 200), (5, 1000)] {
            let directory = DhtDirectory::new(&RngFactory::new(seed), peers);
            for pattern in 0..4u32 {
                let online = |i: usize| match pattern {
                    0 => true,
                    1 => !i.is_multiple_of(3),
                    2 => i.is_multiple_of(7),
                    _ => false,
                };
                let mut graph = OverlayGraph::new(peers);
                for departed in (0..peers).filter(|&i| !online(i)) {
                    graph.depart(PeerId(departed as u32));
                }
                for keyword in 0..5u32 {
                    let target = directory.keyword_key(KeywordId(keyword));
                    for count in [0usize, 1, 8, peers + 3] {
                        directory.closest_online_into(
                            target, &graph, count, &mut scratch, &mut got,
                        );
                        let mut expected: Vec<(DhtDistance, PeerId)> = graph
                            .active_peers()
                            .map(|peer| (target.distance(directory.node_id(peer)), peer))
                            .collect();
                        expected.sort_unstable();
                        let expected: Vec<PeerId> =
                            expected.into_iter().take(count).map(|(_, p)| p).collect();
                        assert_eq!(got, expected, "peers={peers} pattern={pattern} count={count}");
                    }
                }
            }
        }
    }

    #[test]
    fn bootstrap_walk_matches_the_quadratic_insertion_loop() {
        // The recursive range-split walk must leave every routing table in
        // exactly the state the old loop produced: peer i inserting every
        // other peer in ascending peer-id order, full buckets keeping their
        // first k.
        for (seed, peers, k) in [(11u64, 40usize, 2usize), (12, 97, 8), (13, 1, 8)] {
            let directory = DhtDirectory::new(&RngFactory::new(seed), peers);
            let mut naive: Vec<locaware_overlay::RoutingTable> = (0..peers)
                .map(|i| {
                    locaware_overlay::RoutingTable::new(directory.node_id(PeerId(i as u32)), k)
                })
                .collect();
            for (i, table) in naive.iter_mut().enumerate() {
                for j in 0..peers {
                    if i != j {
                        let other = PeerId(j as u32);
                        table.insert(directory.node_id(other), other);
                    }
                }
            }
            let mut walked: Vec<locaware_overlay::RoutingTable> = (0..peers)
                .map(|i| {
                    locaware_overlay::RoutingTable::new(directory.node_id(PeerId(i as u32)), k)
                })
                .collect();
            directory.for_each_bootstrap_contact(k, |owner, contact_id, contact| {
                assert!(walked[owner.index()].insert(contact_id, contact));
            });
            for i in 0..peers {
                assert_eq!(walked[i].len(), naive[i].len(), "peer {i} table size");
                for b in 0..DHT_ID_BITS {
                    assert_eq!(walked[i].bucket_len(b), naive[i].bucket_len(b));
                }
                let probe = directory.keyword_key(KeywordId(7));
                assert_eq!(
                    walked[i].closest(probe, k + 1),
                    naive[i].closest(probe, k + 1),
                    "peer {i} ranking"
                );
            }
        }
    }

    #[test]
    fn step_ledger_settles_by_peer_once() {
        let directory = DhtDirectory::new(&RngFactory::new(2), 4);
        let key = directory.keyword_key(KeywordId(1));
        let mut state = DhtLookupState::new(key);
        assert_eq!(state.inflight(), 0);
        state.begin_step(PeerId(2), 1);
        state.begin_step(PeerId(3), 2);
        assert_eq!(state.inflight(), 2);
        assert_eq!(state.finish_step(PeerId(3)), Some(2), "returns the step's hop");
        assert_eq!(state.finish_step(PeerId(3)), None, "a settled step stays settled");
        assert_eq!(state.inflight(), 1);
        assert_eq!(state.finish_step(PeerId(2)), Some(1));
        assert_eq!(state.inflight(), 0);
    }

    #[test]
    fn lookup_state_walks_the_k_closest_once_each() {
        let directory = DhtDirectory::new(&RngFactory::new(1), 10);
        let key = directory.keyword_key(KeywordId(0));
        let mut state = DhtLookupState::new(key);
        for i in 0..10u32 {
            let peer = PeerId(i);
            assert!(state.add_candidate(key.distance(directory.node_id(peer)), peer));
            assert!(
                !state.add_candidate(key.distance(directory.node_id(peer)), peer),
                "duplicate candidate accepted"
            );
        }
        let mut asked = Vec::new();
        while let Some(target) = state.take_next_target(4) {
            asked.push(target);
        }
        assert_eq!(asked.len(), 4, "only the k closest are ever queried");
        let mut ranked: Vec<(DhtDistance, PeerId)> = (0..10u32)
            .map(|i| (key.distance(directory.node_id(PeerId(i))), PeerId(i)))
            .collect();
        ranked.sort_unstable();
        let expected: Vec<PeerId> = ranked.into_iter().take(4).map(|(_, p)| p).collect();
        assert_eq!(asked, expected, "queried nearest-first");
    }
}
