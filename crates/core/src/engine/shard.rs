//! One shard of the sharded engine: the peers it owns and what both protocol
//! families run on — the event loop, the issue's workload draw and tracking,
//! origin-side satisfaction, completion, deadlines and the transport. The
//! families' handlers live in [`super::unstructured`] and [`super::dht`];
//! what is counted per query, and when it is complete, in [`super::lifecycle`].
//!
//! [`ShardState::drain`] takes `&mut self` and shared references to
//! everything else — the immutable run context ([`RunShared`]) and the
//! coordinator's overlay graph, departed peers included — so a shard can
//! mutate only its own state while draining a window: its peers (slot-indexed
//! vectors), its query ledger and route tables, its tallies and its outboxes.
//! The signature is the whole ownership discipline; that is what lets the
//! executor hand each shard to its own thread with no locks anywhere.
//!
//! Per-query bookkeeping is keyed by arrival index (the query id *is* the
//! arrival index): `tracking` for origin-local fields, the family's search
//! state among them, `ledger` for what any shard that handles one of the
//! query's events adds — traffic, first-answer candidates and the obligation
//! count, merged commutatively in finalize and at barriers. Routing state —
//! duplicate suppression and reverse paths — is per query too, but only
//! while the query is alive: `routes` holds one recycled table per query with
//! state in this shard, for the peers of this shard.
//!
//! Every message enters a queue or an outbox through [`ShardState::send`] →
//! `route`, every deadline through [`ShardState::schedule_timeout`]; both
//! charge the ledger, and [`ShardState::drain`] retires what it dispatches.
//! A message is charged to the query [`Message::query_id`] names, the same
//! rule `drain` retires it by, so no sender can pick another query; a
//! message that names none is background traffic.

use std::collections::HashMap;

use locaware_overlay::{Message, MessageKind, OverlayGraph, PeerId, ProviderEntry, QueryId, QueryRoutes};
use locaware_sim::{EventKey, ShardQueue, SimTime, StreamId};
use locaware_workload::FileId;

use crate::peer::PeerState;
use crate::provider::select_provider;
use crate::results::{QueryOutcome, QueryRecord};

use super::dht::{self, DhtLookupState, DirectoryScratch};
use super::exchange::{deliver_key, deliver_peers, issue_index, timeout_key, timeout_of, TimeoutKind};
use super::lifecycle::QueryLedger;
use super::tally::{Tallies, LOST, OFFLINE, PROCESSED};
use super::{unstructured, RunShared};

/// A shard-local event: what its canonical key does not say. The key names
/// the event — an issue's arrival index, a delivery's receiver and sender, a
/// deadline's query and kind ([`super::exchange`] decodes each) — so only a
/// delivered message rides beside it. Periodic maintenance (Bloom sync) and
/// churn are global transitions handled serially at window barriers by the
/// coordinator, so they never appear in shard queues.
#[derive(Debug, Clone)]
pub(super) enum ShardEvent {
    /// The arrival the key names fires: its peer issues a query.
    Issue,
    /// A message arrives at the receiver the key names.
    Deliver(Message),
    /// A message the fault plan dropped at send time: its payload was freed
    /// there, and it is consumed at its canonical delivery position without
    /// being processed, retiring the query it names.
    Lost {
        /// The dropped message's kind.
        kind: MessageKind,
        /// The query the dropped message named, if any.
        query: Option<QueryId>,
    },
    /// The fault-plan deadline the key names fires. Timers live in the
    /// waiting peer's own shard queue (origin-local, never cross-shard) and
    /// are charged into the query's lifecycle like in-flight messages, so
    /// completions stay exact while a deadline is armed.
    Timeout,
}

// A queued event is written into its queue's payload slab once and moved out
// once (the queue orders 32-byte entries, not payloads), so this size no
// longer multiplies sift cost — it is the slab's footprint per pending event
// at the deepest burst, and the copy every message of every run still pays.
// No message carries a keyword list, so the largest is the DHT lookup reply
// (two `Vec`s), and the event is the message: 64 bytes, and an outbox entry
// `(EventKey, ShardEvent)` 96.
const _: () = assert!(std::mem::size_of::<ShardEvent>() <= 64, "ShardEvent grew past 64 bytes");

/// Recovers the arrival index from a query id: the low 32 bits (the
/// unstructured family counts retransmit attempts in the high bits, so every
/// attempt of a query keys the same per-query slabs).
pub(super) fn query_index(query: QueryId) -> usize {
    (query.0 & 0xffff_ffff) as usize
}

/// Origin-local per-query bookkeeping (lives in the origin peer's shard).
pub(super) struct QueryTracking {
    /// The query's report record, filled in place: the requestor at issue,
    /// the outcome, download distance, locality match and providers offered
    /// by [`ShardState::satisfy`], the completion time by
    /// [`ShardState::complete_locally`]. Finalize adds the ledger's fields.
    pub record: QueryRecord,
    /// The Zipf target the query searches for; keys the `issued` entry that
    /// the completion prunes.
    pub target: FileId,
    /// The family the query resolves through, and what it keeps here.
    pub search: Search,
}

impl QueryTracking {
    /// A fresh entry for arrival `index`, searching for `target` via `search`.
    pub(super) fn new(shared: &RunShared<'_>, index: usize, target: FileId, search: Search) -> Self {
        let origin = PeerId(shared.arrivals[index].peer as u32);
        QueryTracking {
            record: QueryRecord {
                requestor: origin.0,
                outcome: QueryOutcome::Unsatisfied,
                messages: 0,
                download_distance_ms: None,
                locality_match: false,
                providers_offered: 0,
                hops_to_hit: None,
                answered_from_cache: false,
                completion_time_ms: None,
            },
            target,
            search,
        }
    }

    /// The issuing peer.
    pub(super) fn origin(&self) -> PeerId {
        PeerId(self.record.requestor)
    }
}

/// A query's family-specific origin state, fixed when `handle_issue` picks
/// the family.
pub(super) enum Search {
    /// Flooded over the overlay ([`super::unstructured`]). A re-flood needs
    /// only the target, kept above, and the keywords the issue published.
    Flood,
    /// Resolved through the keyword DHT ([`super::dht`]): structured
    /// protocols, and for the hybrid only tail-rank targets.
    Dht {
        /// Deepest lookup hop whose reply reached the origin (0 = answered
        /// from the origin's own record store, or no reply at all).
        depth: u32,
        /// The iterative lookup — `Some` exactly while it walks:
        /// satisfaction, shortlist exhaustion and completion each end it.
        walk: Option<Box<DhtLookupState>>,
    },
}

/// Everything one shard owns.
pub(super) struct ShardState {
    /// This shard's index.
    pub shard: u32,
    /// Owned peers, indexed by partition slot.
    pub peers: Vec<PeerState>,
    /// The shard-local event queue in canonical key order.
    pub queue: ShardQueue<ShardEvent>,
    /// Cross-shard deliveries awaiting the next barrier, one bucket per
    /// destination shard (this shard's own bucket stays empty), as the
    /// destination queue will take them: the canonical key was fixed at send
    /// time, so the merge makes no ordering decision.
    pub outboxes: Vec<Vec<(EventKey, ShardEvent)>>,
    /// Arrival index → origin-local tracking, for queries issued by this
    /// shard's peers. A map rather than an arrivals-sized slab: each entry
    /// exists in exactly one shard (the origin's), and `QueryTracking` holds
    /// the query's whole report record, so slab-per-shard would cost
    /// O(shards × arrivals) memory for (shards−1)/shards empty slots. The
    /// `ledger` below stays dense: it is genuinely written by every shard
    /// and merged commutatively, and its entries are small.
    pub tracking: HashMap<u32, QueryTracking>,
    /// Arrival index → what this shard added to the query: messages charged,
    /// earliest local match, obligations charged and retired.
    pub ledger: QueryLedger,
    /// Slot → (target file → arrival index), the in-flight duplicate-query
    /// guard of the owning peer. An entry exists exactly while that query is
    /// genuinely in flight: the completion transition removes it, so the map
    /// stays bounded by the peer's concurrent-query count over any horizon.
    pub issued: Vec<HashMap<FileId, u32>>,
    /// Duplicate suppression and reverse paths of this shard's peers, one
    /// table `(slot, attempt) → first upstream` per query that currently has
    /// state here: created by the query's first sighting in this shard and
    /// returned to the spare list by its completion; no entry is erased
    /// before that.
    pub routes: QueryRoutes,
    /// The upper bound of the window this shard is currently draining, set by
    /// the coordinator at the barrier. With per-channel lookahead each shard
    /// gets its own bound.
    pub window_bound: EventKey,
    /// Slot → messages sent so far by that peer: the sender-side sequence
    /// feeding [`deliver_key`]. Monotone in the sender's (deterministic)
    /// event order, so it FIFO-orders any two deliveries that tie on
    /// `(time, to, from)` — a plain vector index on the hottest path.
    pub send_seq: Vec<u64>,
    /// Additive statistics.
    pub tallies: Tallies,
    /// Events dispatched by this shard so far.
    pub dispatched: u64,
    /// Key of the last event this shard dispatched.
    pub last_key: Option<EventKey>,
    // Scratch reused across events so neither family's hot path allocates:
    // the forward path's targets, and the publish path's trie-search buffers
    // and resolved store targets.
    pub(super) scratch_targets: Vec<PeerId>,
    pub(super) scratch_directory: DirectoryScratch,
    pub(super) scratch_publish_targets: Vec<PeerId>,
}

impl ShardState {
    pub(super) fn new(shard: u32, shards: usize, peers: Vec<PeerState>, arrivals: usize) -> Self {
        let peer_count = peers.len();
        ShardState {
            shard,
            issued: peers.iter().map(|_| HashMap::new()).collect(),
            routes: QueryRoutes::new(arrivals),
            peers,
            queue: ShardQueue::new(),
            outboxes: (0..shards).map(|_| Vec::new()).collect(),
            tracking: HashMap::new(),
            ledger: QueryLedger::new(arrivals, shards > 1),
            window_bound: EventKey::MAX,
            send_seq: vec![0; peer_count],
            tallies: Tallies::new(),
            dispatched: 0,
            last_key: None,
            scratch_targets: Vec::new(),
            scratch_directory: DirectoryScratch::default(),
            scratch_publish_targets: Vec::new(),
        }
    }

    /// Whether the planned window holds at least one of this shard's events.
    pub(super) fn has_work(&self) -> bool {
        self.queue.peek_key().is_some_and(|key| key < self.window_bound)
    }

    /// Drains every local event strictly below `self.window_bound` (set by
    /// the coordinator at the barrier). `graph` is the coordinator's,
    /// borrowed for the window.
    pub(super) fn drain(&mut self, shared: &RunShared<'_>, graph: &OverlayGraph) {
        let bound = self.window_bound;
        while let Some((key, event)) = self.queue.pop_before(bound) {
            self.dispatched += 1;
            // Strictly: canonical keys are unique, which is what lets the
            // queue's unstable bucket sort and its heap agree on one order.
            debug_assert!(Some(key) > self.last_key, "{key:?} after {:?}", self.last_key);
            self.last_key = Some(key);
            match event {
                ShardEvent::Issue => self.handle_issue(shared, graph, key, issue_index(key)),
                ShardEvent::Deliver(message) => {
                    let (to, from) = deliver_peers(key);
                    debug_assert_eq!(shared.partition.shard(to), self.shard as usize);
                    // Lifecycle accounting brackets the handler: a
                    // query-charged delivery is *retired* by being
                    // dispatched, whatever then happens to it — offline
                    // receiver, duplicate suppression or TTL exhaustion.
                    let retired = message.query_id().map(query_index);
                    if let Some(index) = retired {
                        self.ledger.retire(index, key.time);
                    }
                    // The window's graph, not a per-peer flag: an offline
                    // receiver ends here without loading a `PeerState` line.
                    let kind = message.kind();
                    let fate = if graph.is_active(to) { PROCESSED } else { OFFLINE };
                    self.tallies.deliveries[kind as usize][fate] += 1;
                    if fate == PROCESSED {
                        match kind {
                            MessageKind::DhtLookup | MessageKind::DhtLookupReply | MessageKind::DhtStore => {
                                dht::deliver(self, shared, graph, key, from, to, message)
                            }
                            _ => unstructured::deliver(self, shared, graph, key, from, to, message),
                        }
                    }
                    if let Some(index) = retired {
                        self.complete_if_drained(shared, index, key.time);
                    }
                }
                ShardEvent::Lost { kind, query } => {
                    self.tallies.deliveries[kind as usize][LOST] += 1;
                    if let Some(index) = query.map(query_index) {
                        self.ledger.retire(index, key.time);
                        self.complete_if_drained(shared, index, key.time);
                    }
                }
                ShardEvent::Timeout => {
                    let (index, kind) = timeout_of(key);
                    self.ledger.retire(index, key.time);
                    match kind {
                        TimeoutKind::Retransmit { attempt } => {
                            unstructured::retransmit(self, shared, graph, key, index, attempt)
                        }
                        TimeoutKind::DhtStep { peer } => {
                            dht::step_timeout(self, shared, graph, key, index, peer)
                        }
                    }
                    self.complete_if_drained(shared, index, key.time);
                }
            }
        }
    }

    /// Completes query `index` at `now` if the event just handled — checked
    /// only *after* its handler ran — left it with nothing this shard can see
    /// in flight. Exact in the origin shard of a query that never left it;
    /// `complete_locally` is a no-op elsewhere.
    fn complete_if_drained(&mut self, shared: &RunShared<'_>, index: usize, now: SimTime) {
        if self.ledger.drained_locally(index) {
            self.complete_locally(shared, index, now);
        }
    }

    fn handle_issue(&mut self, shared: &RunShared<'_>, graph: &OverlayGraph, key: EventKey, index: usize) {
        let origin = PeerId(shared.arrivals[index].peer as u32);
        debug_assert_eq!(shared.partition.shard(origin), self.shard as usize);
        if !graph.is_active(origin) {
            return;
        }
        let slot = shared.partition.slot(origin);
        // Peers query for files they do not already hold and are not already
        // querying (a duplicate of an in-flight query could be satisfied
        // without creating a second replica, which would break the replica
        // accounting). "In flight" is exact: an entry lives in `issued` from
        // issue until the query's completion event prunes it, so a failed
        // search may be retried the moment it actually dies — keeping the
        // effective workload Zipf-shaped. Re-draw a few times; if the Zipf
        // draws keep colliding, deterministically fall back to the most
        // popular file the requestor can still legitimately search for.
        //
        // All randomness here comes from a stream derived per arrival index,
        // so the draw sequence — including the state-dependent redraw count —
        // is independent of every other arrival and of the shard layout.
        let now = key.time;
        let excluded = |state: &PeerState, issued: &HashMap<FileId, u32>, target: FileId| {
            state.has_file(target) || issued.contains_key(&target)
        };
        let mut workload_rng = shared.rng_factory.indexed_stream(StreamId::QueryWorkload, index as u64);
        let generator = &shared.query_generator;
        let mut query = generator.generate(shared.catalog, &mut workload_rng);
        for _ in 0..16 {
            if !excluded(&self.peers[slot], &self.issued[slot], query.target) {
                break;
            }
            query = generator.generate(shared.catalog, &mut workload_rng);
        }
        if excluded(&self.peers[slot], &self.issued[slot], query.target) {
            let Some(target) = (0..shared.catalog.len())
                .map(|rank| generator.file_at_rank(rank))
                .find(|&t| !excluded(&self.peers[slot], &self.issued[slot], t))
            else {
                // The peer holds or is already querying every file in the
                // catalog (tiny catalogs, long horizons): there is nothing it
                // can meaningfully search for, so the arrival is skipped just
                // like an offline peer's.
                return;
            };
            query = generator.generate_for_target(shared.catalog, target, &mut workload_rng);
        }
        self.issued[slot].insert(query.target, index as u32);

        let structured = shared.dht.as_ref().filter(|_| shared.dht_resolves(query.target));
        let search = match structured {
            Some(_) => Search::Dht { depth: 0, walk: None },
            None => Search::Flood,
        };
        self.tracking.insert(index as u32, QueryTracking::new(shared, index, query.target, search));
        // Every later hop, relayed response, lookup step and retransmit reads
        // the query's keywords, and what its rules derive from them, here, by
        // arrival index.
        shared.publish_digest(index, query.keywords, query.target);
        if let Some(directory) = structured {
            // Structured resolution: the query never touches the overlay —
            // it walks the keyword DHT instead (no forward decision either;
            // routing-decision counters are an overlay concept).
            dht::issue(self, shared, directory, graph, key, index);
        } else {
            unstructured::issue(self, shared, graph, now, index, query.target);
        }

        // A query with no in-flight traffic is born complete — no forward
        // targets, or a DHT query answered from (or exhausted at) the
        // origin's own state: its completion event coincides with the issue
        // (class 4 at `now`, which every later event already orders after).
        self.complete_if_drained(shared, index, now);
    }

    /// Origin-side satisfaction, shared by both protocol families: offered
    /// `providers` of `file` — from a query response, or from DHT record
    /// entries — satisfy query `index` if the origin does not already hold
    /// the file and the selection policy picks one of the providers that are
    /// online. On success the origin downloads and replicates the file.
    /// Returns whether this call satisfied the query.
    pub(super) fn satisfy(
        &mut self, shared: &RunShared<'_>, graph: &OverlayGraph,
        index: usize, file: FileId, providers: &[ProviderEntry],
    ) -> bool {
        let Some(tracking) = self.tracking.get_mut(&(index as u32)) else {
            return false;
        };
        if tracking.record.is_success() {
            return false;
        }
        let origin = tracking.origin();
        let slot = shared.partition.slot(origin);
        // An offer can name a file the requestor already stores (a cached
        // index or a DHT record matches on keywords, not on the requestor's
        // Zipf target). Nothing would be downloaded, so it cannot satisfy the
        // query — this keeps the one-new-replica-per-satisfied-query
        // accounting exact.
        if self.peers[slot].has_file(file) {
            return false;
        }
        // Only online providers can actually serve the download (matters only
        // when churn is enabled; the static setup never filters anything).
        // The graph is frozen per window — churn transitions only happen at
        // barriers — so this cross-shard read is race-free.
        let online_providers: Vec<ProviderEntry> =
            providers.iter().copied().filter(|p| graph.is_active(p.provider)).collect();
        let offered = &mut tracking.record.providers_offered;
        *offered = (*offered).max(online_providers.len());
        let selection = select_provider(
            shared.kind.selection_policy(),
            shared.topology,
            shared.link_latencies,
            origin,
            shared.loc_ids[origin.index()],
            &online_providers,
            // One stream per query, drawn at most once — a drawn pick always
            // satisfies — so the pick is a pure function of (seed, arrival
            // index, the offer), never of shard layout.
            &mut shared.rng_factory.indexed_stream(StreamId::ProtocolTieBreak, index as u64),
        );
        let Some(selected) = selection else {
            return false;
        };
        let distance = shared.link_latencies.latency(shared.topology, origin, selected.provider);
        let record = &mut tracking.record;
        record.outcome = QueryOutcome::Satisfied;
        record.locality_match = selected.locality_match;
        record.download_distance_ms = Some(distance.as_millis_f64());
        // Natural replication: the requestor now stores (and later serves) the file.
        let keywords = shared.catalog.filename(file).keywords();
        self.peers[slot].share_file(file, keywords);
        if shared.kind.routes_by_bloom() {
            self.peers[slot].advertise_keywords(keywords);
        }
        true
    }

    /// Applies query `index`'s completion at simulated time `now` — but only
    /// if this shard holds its tracking (i.e. is its origin shard): records
    /// the completion time, prunes the origin's `issued` entry, making the
    /// target searchable again, and frees the query's route table. Safe to call on
    /// any zero-crossing of the local outstanding count; non-origin shards
    /// fall through (their count can touch zero while the query lives on
    /// elsewhere, so they free nothing until the coordinator's prune). Also the
    /// entry point for the coordinator's fold-detected completions of
    /// escaped queries (applied at the latest retirement time over the
    /// shards' ledgers).
    pub(super) fn complete_locally(&mut self, shared: &RunShared<'_>, index: usize, now: SimTime) {
        let Some(tracking) = self.tracking.get_mut(&(index as u32)) else {
            return;
        };
        let completion = &mut tracking.record.completion_time_ms;
        if completion.is_some() {
            return;
        }
        *completion = Some(now.duration_since(shared.arrivals[index].at).as_millis_f64());
        // Any leftover lookup state is dead — e.g. the walk's last in-flight
        // step was consumed by a departed index node that never replied.
        if let Search::Dht { walk, .. } = &mut tracking.search {
            *walk = None;
        }
        let slot = shared.partition.slot(tracking.origin());
        let target = tracking.target;
        // Remove only if the entry is still this query's: the value check
        // keeps a later re-query's fresher entry intact.
        if self.issued[slot].get(&target) == Some(&(index as u32)) {
            self.issued[slot].remove(&target);
        }
        self.routes.complete(index);
    }

    // --- fault-plan timers --------------------------------------------------

    /// Arms a fault-plan deadline for query `index`. The timer is charged
    /// into the query's lifecycle exactly like an in-flight message (+1 now,
    /// −1 when it fires), so the completion stays exact while it is armed —
    /// and since timers are class 6, a reply landing exactly at the deadline
    /// is dispatched first. Timers live in the origin's own shard queue and
    /// never cross shards, so they cannot perturb channel lookaheads.
    pub(super) fn schedule_timeout(
        &mut self, shared: &RunShared<'_>, at: SimTime, index: usize, kind: TimeoutKind,
    ) {
        debug_assert!(at <= shared.event_bound, "deadline {at:?} past the run's {:?}", shared.event_bound);
        self.ledger.charge(index);
        self.queue.push(timeout_key(at, index, kind), ShardEvent::Timeout);
    }

    // --- sending ------------------------------------------------------------

    /// Sends `message`, charging it to what it names: a message of a query
    /// ([`Message::query_id`]) is that query's traffic and obligation, and
    /// its escape when it leaves the shard; any other — a Bloom update, a
    /// record store — is background traffic, counted by its kind alone.
    pub(super) fn send(&mut self, shared: &RunShared<'_>, now: SimTime, from: PeerId, to: PeerId, message: Message) {
        self.tallies.message_counts[message.kind() as usize] += 1;
        let charged = message.query_id().map(query_index);
        if let Some(index) = charged {
            self.ledger.charge_message(index);
        }
        let escaped = self.route(shared, now, from, to, message);
        if let (true, Some(index)) = (escaped, charged) {
            self.ledger.escape(index);
        }
    }

    /// Stamps the canonical key and routes the delivery: into the local queue
    /// for same-shard destinations, into the destination's outbox bucket
    /// otherwise (returning `true` for the latter). Cross-shard latencies are
    /// at least the destination's channel lookahead by construction, so an
    /// outboxed delivery can never land inside the window that sent it.
    fn route(&mut self, shared: &RunShared<'_>, now: SimTime, from: PeerId, to: PeerId, message: Message) -> bool {
        let latency = shared.link_latencies.latency(shared.topology, from, to);
        let at = now + latency;
        debug_assert!(at <= shared.event_bound, "delivery {at:?} past the run's {:?}", shared.event_bound);
        debug_assert_eq!(shared.partition.shard(from), self.shard as usize);
        let sender_slot = shared.partition.slot(from);
        let seq = self.send_seq[sender_slot];
        self.send_seq[sender_slot] += 1;
        // The loss verdict is decided at send time in the sending shard, from
        // shard-invariant message identity (the send sequence is monotone in
        // the sender's deterministic event order). A lost message's payload
        // goes here, but its `Lost` event occupies the same canonical position
        // and is consumed there — so the query lifecycle, and therefore every
        // completion time, stays exact.
        let lost = shared.faults.as_ref().is_some_and(|plan| plan.lose(now, from, to, seq));
        let key = deliver_key(at, to, from, seq);
        let event = if lost {
            ShardEvent::Lost { kind: message.kind(), query: message.query_id() }
        } else {
            ShardEvent::Deliver(message)
        };
        let destination = shared.partition.shard(to);
        if destination == self.shard as usize {
            self.queue.push(key, event);
            false
        } else {
            debug_assert!(
                shared.channel_lookahead[destination].is_none_or(|w| latency >= w),
                "cross-shard latency {latency:?} below destination shard {destination}'s \
                 channel lookahead {:?}",
                shared.channel_lookahead[destination]
            );
            self.outboxes[destination].push((key, event));
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::exchange::issue_key;
    use super::super::{prepare, Coordinator};
    use super::*;
    use crate::config::{ProtocolKind, SimulationConfig};
    use crate::simulation::Simulation;
    use locaware_overlay::churn::ChurnEvent;
    use locaware_overlay::ChurnEventKind;

    fn substrate(shards: usize, crash_stop: bool) -> Simulation {
        let mut config = SimulationConfig::small(40);
        config.shards = shards;
        config.faults.crash_stop = crash_stop;
        Simulation::try_build(config).expect("test configuration validates")
    }

    /// First sightings of a query this shard has processed.
    fn sightings(state: &ShardState) -> u64 {
        state.tallies.storage_walks + state.tallies.storage_skips
    }

    /// A copy of arrival 0's query as flooded by its `attempt`-th attempt,
    /// on its last hop: whoever processes it forwards nothing.
    fn last_hop_copy(attempt: u32) -> Message {
        Message::Query {
            // Attempt `n` of arrival 0: the attempt rides in the high bits.
            query: QueryId(u64::from(attempt) << 32),
            target_filename: None,
            ttl: 1,
        }
    }

    /// Whether `peer` stores no file that matches the keywords arrival 0's
    /// issue published: a copy of that query is not answered there.
    fn cannot_answer(sim: &Simulation, shared: &RunShared<'_>, peer: PeerId) -> bool {
        let keywords = shared.digest(0).keywords();
        !sim.initial_shares()[peer.index()].iter().any(|&f| sim.catalog().file_matches(f, keywords))
    }

    #[test]
    fn satisfy_adds_one_replica_and_refuses_held_files_and_offline_providers() {
        let sim = substrate(1, false);
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Locaware, sim.arrivals(1), true);
        let state = &mut shards[0];
        let arrival = shared.arrivals[0];
        let everyone = sim.overlay();
        state.handle_issue(&shared, everyone, issue_key(arrival.at, 0), 0);
        let slot = shared.partition.slot(PeerId(arrival.peer as u32));
        let provider = PeerId((arrival.peer as u32 + 1) % 40);
        let offer = [ProviderEntry {
            provider,
            loc_id: shared.loc_ids[provider.index()],
        }];
        let mut provider_gone = everyone.clone();
        provider_gone.depart(provider);
        let held = state.peers[slot].shared_files().next().expect("initial shares");
        let wanted: Vec<FileId> = (0..).map(FileId).filter(|&f| !state.peers[slot].has_file(f)).take(2).collect();
        let replicas = state.peers[slot].shared_file_count();

        let file = wanted[0];
        assert!(!state.satisfy(&shared, everyone, 0, held, &offer), "nothing to download");
        assert!(!state.satisfy(&shared, &provider_gone, 0, file, &offer), "nobody to download from");
        assert!(!state.tracking[&0].record.is_success());
        assert_eq!(state.peers[slot].shared_file_count(), replicas);

        assert!(state.satisfy(&shared, everyone, 0, file, &offer));
        assert!(state.tracking[&0].record.is_success() && state.peers[slot].has_file(file));
        // One replica per satisfied query: a later offer downloads nothing.
        assert!(!state.satisfy(&shared, everyone, 0, wanted[1], &offer));
        assert_eq!(state.peers[slot].shared_file_count(), replicas + 1);
    }

    /// One `send` charges what the message names: each of the four kinds
    /// that name a query is that query's traffic and obligation, each of the
    /// other three is background traffic, and every send is counted by kind.
    #[test]
    fn send_charges_the_query_a_message_names_and_only_that() {
        use locaware_bloom::{BloomDelta, BloomFilter};
        use std::sync::Arc;

        let sim = substrate(1, false);
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Flooding, sim.arrivals(1), true);
        let state = &mut shards[0];
        let (from, at) = (PeerId(shared.arrivals[0].peer as u32), shared.arrivals[0].at);
        let to = sim.overlay().neighbors(from)[0];
        let (query, filter) = (QueryId(0), BloomFilter::paper_default());
        let entry = ProviderEntry { provider: from, loc_id: shared.loc_ids[from.index()] };
        let rows = [
            (Message::Query { query, target_filename: None, ttl: 1 }, true),
            (Message::QueryResponse { query, file: FileId(0), providers: vec![entry] }, true),
            (Message::BloomFull { filter: Arc::new(filter.clone()), fold: 0 }, false),
            (Message::BloomDelta { delta: BloomDelta::between(&filter, &filter) }, false),
            (Message::DhtLookup { query, hop: 1 }, true),
            (Message::DhtLookupReply { query, hop: 1, entries: Vec::new(), closer: Vec::new() }, true),
            (Message::DhtStore { keyword: 0, file: 0, provider: entry }, false),
        ];
        assert_eq!(rows.each_ref().map(|(message, _)| message.kind()), MessageKind::ALL);
        for (message, charged) in rows {
            let kind = message.kind();
            let before = (state.ledger.outstanding(), state.tallies.background_messages());
            state.send(&shared, at, from, to, message);
            let after = (state.ledger.outstanding(), state.tallies.background_messages());
            let expected = if charged { (before.0 + 1, before.1) } else { (before.0, before.1 + 1) };
            assert_eq!(after, expected, "{kind:?}");
        }
        assert_eq!((state.ledger.outstanding(), state.ledger.messages(0)), (4, 4));
        assert_eq!(state.tallies.background_messages(), 3);
        assert_eq!(state.tallies.message_counts, [1; 7]);
    }

    /// A message the fault plan drops is recorded once, by the `Lost` event
    /// that takes its delivery's place: its payload is freed at send, and
    /// the dispatch counts it lost without handing it to the receiver.
    #[test]
    fn a_lost_message_frees_its_payload_at_send_and_is_counted_at_dispatch() {
        use locaware_bloom::BloomFilter;
        use std::sync::Arc;

        let mut config = SimulationConfig::small(40);
        config.faults.message_loss = 1.0;
        let sim = Simulation::try_build(config).expect("full loss validates");
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Locaware, sim.arrivals(1), true);
        let state = &mut shards[0];
        // Only the delivery sent below is to be dispatched.
        while state.queue.pop_before(EventKey::MAX).is_some() {}
        let from = PeerId(0);
        let to = sim.overlay().neighbors(from)[0];
        let receiver = shared.partition.slot(to);
        let views = format!("{:?}", state.peers[receiver].bloom_views());
        let filter = Arc::new(BloomFilter::paper_default());
        state.send(&shared, SimTime::ZERO, from, to, Message::BloomFull { filter: Arc::clone(&filter), fold: 0 });
        assert_eq!(Arc::strong_count(&filter), 1, "the queued event holds no payload");
        state.drain(&shared, sim.overlay());
        assert_eq!(state.dispatched, 1);
        assert_eq!(state.tallies.deliveries[MessageKind::BloomFull as usize], [0, 1, 0]);
        assert_eq!(format!("{:?}", state.peers[receiver].bloom_views()), views, "nothing was delivered");
    }

    /// The coordinator's graph is the only record of who is online: a
    /// crash-stop leave and a join, applied through `apply_churn`, switch the
    /// peer off and on again for deliveries and for offers alike.
    #[test]
    fn a_crashed_peer_takes_no_delivery_and_serves_no_offer_until_it_rejoins() {
        let sim = substrate(1, true);
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Flooding, sim.arrivals(1), false);
        let mut coordinator = Coordinator::new(&shared, sim.overlay().clone(), &[], 1);
        let arrival = shared.arrivals[0];
        let origin = PeerId(arrival.peer as u32);
        shards[0].handle_issue(&shared, &coordinator.graph, issue_key(arrival.at, 0), 0);
        // Only the deliveries sent below are to be dispatched, not the flood.
        while shards[0].queue.pop_before(EventKey::MAX).is_some() {}

        let victim = (0..40).map(PeerId).find(|&p| p != origin && cannot_answer(&sim, &shared, p));
        let victim = victim.expect("a peer that cannot answer");
        let offer = [ProviderEntry {
            provider: victim,
            loc_id: shared.loc_ids[victim.index()],
        }];
        let origin_state = &shards[0].peers[shared.partition.slot(origin)];
        let file = (0..).map(FileId).find(|&f| !origin_state.has_file(f)).expect("a file to want");
        let query = last_hop_copy(1);
        for (kind, online) in [(ChurnEventKind::Leave, false), (ChurnEventKind::Join, true)] {
            let event = ChurnEvent { at: arrival.at, peer: victim, kind };
            coordinator.apply_churn(&shared, &mut shards, event);
            assert_eq!(coordinator.graph.is_active(victim), online);
            let state = &mut shards[0];
            let (dispatched, seen) = (state.dispatched, sightings(state));
            state.send(&shared, arrival.at, origin, victim, query.clone());
            state.drain(&shared, &coordinator.graph);
            assert_eq!(state.dispatched, dispatched + 1, "retired either way");
            assert_eq!(sightings(state) - seen, u64::from(online), "processed only while online");
            assert_eq!(state.satisfy(&shared, &coordinator.graph, 0, file, &offer), online);
        }
        assert_eq!(coordinator.crash_departures, 1);
    }

    /// A rejoin must not erase a sighting: a rejoined peer that saw the query
    /// anew would take a second upstream, possibly downstream of its first
    /// sighting, and a response could then loop around that cycle forever.
    #[test]
    fn a_rejoined_peer_keeps_its_upstream_and_completion_frees_the_table() {
        let sim = substrate(2, false);
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Flooding, sim.arrivals(1), true);
        assert_eq!(shards.len(), 2);
        let arrival = shared.arrivals[0];
        let origin = PeerId(arrival.peer as u32);
        let key = issue_key(arrival.at, 0);
        let home = shared.partition.shard(origin);
        shards[home].handle_issue(&shared, sim.overlay(), key, 0);
        assert_eq!((shards[home].routes.live(), shards[1 - home].routes.live()), (1, 0));

        // A copy reaches a peer of the other shard, twice, then once more
        // after that peer left and rejoined through the churn barrier.
        let away = |p: PeerId| shared.partition.shard(p) != home && cannot_answer(&sim, &shared, p);
        let to = (0..40).map(PeerId).find(|&p| away(p)).expect("a peer of the other shard that cannot answer");
        let slot = shared.partition.slot(to);
        let query = last_hop_copy(0);
        let deliver = |s: &mut ShardState, from: u32| {
            unstructured::deliver(s, &shared, sim.overlay(), key, PeerId(from), to, query.clone());
            (sightings(s), s.routes.response_next_hop(0, slot as u32, 0))
        };
        assert_eq!(deliver(&mut shards[1 - home], 100), (1, Some(PeerId(100))));
        assert_eq!(deliver(&mut shards[1 - home], 101), (1, Some(PeerId(100))), "a duplicate");
        let mut coordinator = Coordinator::new(&shared, sim.overlay().clone(), &[], 2);
        for kind in [ChurnEventKind::Leave, ChurnEventKind::Join] {
            coordinator.apply_churn(&shared, &mut shards, ChurnEvent { at: arrival.at, peer: to, kind });
        }
        assert!(coordinator.graph.is_active(to));
        let away = &mut shards[1 - home];
        assert_eq!(deliver(away, 102), (1, Some(PeerId(100))), "still a duplicate after the rejoin");

        // This shard's count touching zero proves nothing about the query:
        // without the tracking, `complete_locally` frees nothing. The
        // coordinator's prune does.
        away.complete_locally(&shared, 0, key.time);
        assert_eq!(away.routes.live(), 1);
        away.routes.complete(0);
        assert_eq!((away.routes.live(), away.routes.peak()), (0, 1));

        // The origin shard's completion returns the table, cleared, with its
        // capacity; a second call finds `completed_at` set and does nothing.
        let origin_shard = &mut shards[home];
        for _ in 0..2 {
            origin_shard.complete_locally(&shared, 0, key.time);
            assert_eq!((origin_shard.routes.live(), origin_shard.routes.peak()), (0, 1));
        }
        let spare: Vec<_> = origin_shard.routes.spare_tables().collect();
        assert!(spare.len() == 1 && spare[0].is_empty() && spare[0].capacity() > 0);
    }
}
