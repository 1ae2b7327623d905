//! The unstructured protocol family: queries flooded under the protocol's
//! forwarding rule — Bloom-directed for Locaware (§4.2) — responses cached
//! along the reverse path (§4.1.2), the fault plan's retransmit policy, and
//! the neighbour Bloom filters the forwarding rule reads, which must cover
//! what each neighbour stores (§5.2). Like [`super::dht`], it is plain
//! functions over [`ShardState`] that the rest of the engine reaches through
//! a handful of entry points: [`bootstrap`] at set-up, [`issue`], [`deliver`]
//! and [`retransmit`] from a shard's event loop, and [`sync`] and [`on_join`]
//! from the coordinator's barriers. The shard supplies the lifecycle and the
//! transport; what the family keeps per query is the keyword record its
//! issue publishes in [`RunShared`], and its tracking entry is marked
//! [`Search::Flood`](super::shard::Search::Flood).
//!
//! A query floods as numbered *attempts*: the issue is attempt 0, every
//! retransmit the next. The attempt rides in the high 32 bits of the query
//! id, so a re-flood gets its own duplicate-suppression and reverse-path
//! entries in the query's route table — peers that suppressed attempt `n`
//! still forward attempt `n+1` — while every per-query slab keys on the
//! arrival index in the low bits.

use std::sync::Arc;

use locaware_bloom::ElementHashes;
use locaware_overlay::routing::decrement_ttl;
use locaware_overlay::{Message, OverlayGraph, PeerId, ProviderEntry, QueryId};
use locaware_sim::{Duration, EventKey, SimTime};
use locaware_workload::{FileId, KeywordId, Query};

use crate::config::ProtocolKind;
use crate::peer::keyword_signature;
use crate::protocol::{PeerView, QueryContext, ResponseContext};

use super::lifecycle::HitMark;
use super::shard::{query_index, ShardState, TimeoutKind};
use super::tally::decision_index;
use super::{peer_mut, RunShared};

/// The 0-based attempt a query id belongs to.
fn query_attempt(query: QueryId) -> u32 {
    (query.0 >> 32) as u32
}

/// The query id of `index`'s 0-based attempt `attempt` (attempt 0 is the
/// original issue, whose id is the bare arrival index).
fn attempt_id(index: usize, attempt: u32) -> QueryId {
    QueryId(index as u64 | (u64::from(attempt) << 32))
}

// --- set-up and barrier transitions (coordinator side) ------------------------

/// The initial Bloom exchange between neighbours ("Neighboring peers
/// exchange their group Ids as well as their Bloom filters", §4.2), modelled
/// as already done at simulation start: every peer exports its filter, which
/// covers the files it stores, once and whole, no delta left pending, and
/// each of its neighbours' views of it shares that one export until a delta
/// changes the view.
pub(super) fn bootstrap(shared: &RunShared<'_>, graph: &OverlayGraph, shards: &mut [ShardState]) {
    let all_peers = || (0..shared.config.peers as u32).map(PeerId);
    let exports: Vec<_> = all_peers().map(|id| peer_mut(shared, shards, id).export_bloom()).collect();
    for id in all_peers() {
        let peer = peer_mut(shared, shards, id);
        for &n in graph.neighbors(id) {
            peer.set_neighbor_bloom(n, Arc::clone(&exports[n.index()]));
        }
    }
}

/// One Bloom synchronisation round: every online peer with a dirty filter
/// pushes the delta to its neighbours, in peer-id order.
pub(super) fn sync(shared: &RunShared<'_>, shards: &mut [ShardState], graph: &OverlayGraph, now: SimTime) {
    for from in graph.active_peers() {
        let Some(delta) = peer_mut(shared, shards, from).take_bloom_update() else {
            continue;
        };
        let shard = &mut shards[shared.partition.shard(from)];
        for &n in graph.neighbors(from) {
            let message = Message::BloomDelta { delta: delta.clone() };
            shard.send_background(shared, now, from, n, message);
        }
    }
}

/// A peer rejoined and was rewired: its filter covers its stored files again
/// (§5.2), and both ends of each of its links — all new — send their full
/// filter, as neighbours do on joining (§4.2): the peer its fresh export, the
/// neighbour its last one (the delta it still owes reaches the new link at the
/// next round). Serially at the churn barrier, in neighbour-id order.
pub(super) fn on_join(
    shared: &RunShared<'_>, shards: &mut [ShardState], graph: &OverlayGraph, now: SimTime, peer: PeerId,
) {
    if !shared.protocol.uses_bloom_sync() {
        return;
    }
    let state = peer_mut(shared, shards, peer);
    state.advertise_stored_files(shared.catalog);
    let export = state.export_bloom();
    for &n in graph.neighbors(peer) {
        let theirs = Arc::clone(peer_mut(shared, shards, n).exported_bloom());
        for (from, to, filter) in [(peer, n, Arc::clone(&export)), (n, peer, theirs)] {
            let shard = &mut shards[shared.partition.shard(from)];
            shard.send_background(shared, now, from, to, Message::BloomFull { filter });
        }
    }
}

// --- query resolution (shard side) ----------------------------------------------

/// Issues an overlay-resolved query: publishes its keywords, which every
/// later hop, relayed response and retransmit reads, and floods its first
/// attempt from the origin.
pub(super) fn issue(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    now: SimTime,
    index: usize,
    query: Query,
) {
    shared.publish_keywords(index, query.keywords);
    flood_attempt(state, shared, graph, now, index, 0, query.target);
}

/// Handles a delivered unstructured message at the online peer `to`.
pub(super) fn deliver(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    key: EventKey,
    from: PeerId,
    to: PeerId,
    mut message: Message,
) {
    let (slot, gid) = (shared.partition.slot(to), shared.group_ids[to.index()]);
    // Copy and `ref` bindings only, so a forwarded query or a relayed
    // response is the delivered message itself, not a rebuilt one.
    match message {
        Message::Query { query, origin, origin_loc, ttl, .. } => {
            let (index, attempt) = (query_index(query), query_attempt(query));
            if !state.routes.on_query(index, slot as u32, attempt, Some(from)) {
                return; // A duplicate: already seen along another path.
            }
            let keywords = shared.query_keywords(index);
            // Does the receiver's storage signature let the shared-file walk
            // happen at all? (Observability only: the protocol's matching
            // rule applies the same test for itself.)
            if state.peers[slot].may_store(keyword_signature(keywords)) {
                state.tallies.storage_walks += 1;
            } else {
                state.tallies.storage_skips += 1;
            }
            let local_match = {
                // No local-match rule reads Bloom hashes, so none are computed.
                let qctx = query_context(&message, keywords, &[]);
                shared.protocol.local_match(&view(state, graph, shared, slot), &qctx)
            };

            if let Some(hit) = local_match {
                let hops = shared.config.ttl.saturating_sub(ttl) + 1;
                // First-processed hit wins: within this shard events drain in
                // key order, so set-once keeps the shard minimum; finalize
                // merges shards by key minimum.
                state.ledger.record_hit(index, HitMark { key, hops, from_cache: hit.from_cache });
                // §4.1.2: the answering peer records the requestor as a new
                // provider of the file (subject to its caching rule).
                let requestor_entry = ProviderEntry { provider: origin, loc_id: origin_loc };
                let response_ctx = ResponseContext {
                    file: hit.file,
                    file_keywords: shared.catalog.filename(hit.file).keywords(),
                    query_keywords: keywords,
                    providers: &[],
                    requestor: requestor_entry,
                };
                shared.protocol.cache_response(&mut state.peers[slot], gid, &shared.scheme, &response_ctx);

                let response = Message::QueryResponse {
                    query,
                    file: hit.file,
                    providers: hit.providers,
                    requestor: requestor_entry,
                };
                if let Some(upstream) = state.routes.response_next_hop(index, slot as u32, attempt) {
                    state.send(shared, key.time, to, upstream, response, index);
                }
                return;
            }

            // No local hit: keep forwarding while TTL allows.
            let Some(remaining) = decrement_ttl(ttl) else {
                return;
            };
            if let Message::Query { ttl, .. } = &mut message {
                *ttl = remaining;
            }
            forward_query(state, shared, graph, key.time, to, Some(from), &message);
        }
        Message::QueryResponse { query, file, ref providers, requestor } => {
            let index = query_index(query);
            // The origin is a pure function of the query id (= arrival
            // index), so any shard can answer "am I the origin?" without
            // reading the origin shard's tracking slab.
            let origin = PeerId(shared.arrivals[index].peer as u32);
            if origin == to {
                state.satisfy(shared, graph, index, file, providers);
                return;
            }

            // Intermediate peer: cache per protocol rule, then relay. The
            // file's keywords are the catalog's, the query's its published
            // record: neither rides in the response.
            let response_ctx = ResponseContext {
                file,
                file_keywords: shared.catalog.filename(file).keywords(),
                query_keywords: shared.query_keywords(index),
                providers,
                requestor,
            };
            shared.protocol.cache_response(&mut state.peers[slot], gid, &shared.scheme, &response_ctx);
            let upstream = state.routes.response_next_hop(index, slot as u32, query_attempt(query));
            if let Some(upstream) = upstream {
                state.send(shared, key.time, to, upstream, message, index);
            }
        }
        // A filter that arrives after its link has gone creates no view.
        Message::BloomFull { .. } | Message::BloomDelta { .. } if !graph.are_neighbors(to, from) => {}
        Message::BloomFull { filter } => state.peers[slot].set_neighbor_bloom(from, filter),
        Message::BloomDelta { delta } => state.peers[slot].apply_neighbor_bloom_delta(from, &delta),
        _ => unreachable!("only unstructured messages are delivered to the unstructured family"),
    }
}

/// A retransmit deadline fired — the one armed for query `index`, whose last
/// flood was attempt `attempt`: if the query is still unanswered and has
/// retries left, re-flood it from the origin as the next attempt, which arms
/// the next, backed-off deadline. The re-flood reads the keywords the issue
/// published: repeating the workload draw would desynchronise the
/// per-arrival RNG stream.
pub(super) fn retransmit(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    key: EventKey,
    index: usize,
    attempt: u32,
) {
    let Some(tracking) = state.tracking.get(&(index as u32)) else {
        return;
    };
    if tracking.record.is_success() {
        return;
    }
    let (origin, target) = (tracking.origin(), tracking.target);
    state.tallies.query_timeouts += 1;
    let retries = shared.faults.as_ref().and_then(|f| f.query_retransmit()).map_or(0, |p| p.max_retries);
    // A departed origin has nobody left to retry for (or to receive an
    // answer); the timer's consumption lets the query complete honestly.
    if attempt < retries && graph.is_active(origin) {
        flood_attempt(state, shared, graph, key.time, index, attempt + 1, target);
    }
}

/// Floods query `index`, searching for `target`, from its origin as its
/// 0-based attempt `attempt` and arms that attempt's deadline: the one place
/// the family does either. The origin registers the attempt locally, with no
/// upstream. Dicas searches for the exact filename; every other protocol
/// sends keywords only. The deadline is armed only under a fault plan with a
/// retransmit policy, and only if the flood put messages in flight: a query
/// with no forward targets is complete as it stands, and retrying it would
/// re-flood into the same emptiness.
fn flood_attempt(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    now: SimTime,
    index: usize,
    attempt: u32,
    target: FileId,
) {
    let origin = PeerId(shared.arrivals[index].peer as u32);
    let message = Message::Query {
        query: attempt_id(index, attempt),
        origin,
        origin_loc: shared.loc_ids[origin.index()],
        target_filename: (shared.protocol.kind() == ProtocolKind::Dicas).then_some(target),
        ttl: shared.config.ttl,
    };
    state.routes.on_query(index, shared.partition.slot(origin) as u32, attempt, None);
    let sent = forward_query(state, shared, graph, now, origin, None, &message);
    if sent && attempt > 0 {
        state.tallies.query_retransmits += 1;
    }
    let policy = shared.faults.as_ref().and_then(|f| f.query_retransmit());
    let (true, Some(policy)) = (sent, policy) else {
        return;
    };
    let deadline = now + Duration::from_secs_f64(policy.delay_secs(attempt));
    state.schedule_timeout(shared, deadline, index, TimeoutKind::Retransmit { attempt });
}

/// Forwards the query `message` from peer `at` — the origin at issue or
/// retransmit time (`exclude` is `None`: there is no upstream), a relay
/// otherwise (`exclude` is the neighbour it arrived from): the protocol picks
/// the forward targets, the decision is tallied and every target is sent one
/// copy. Only a protocol that routes by Bloom filter gets the Bloom hashes of
/// the query's keywords, computed here into `scratch_hashes`. Returns whether
/// anything was sent.
fn forward_query(
    state: &mut ShardState,
    shared: &RunShared<'_>,
    graph: &OverlayGraph,
    now: SimTime,
    at: PeerId,
    exclude: Option<PeerId>,
    message: &Message,
) -> bool {
    let Message::Query { query, .. } = message else {
        unreachable!("only queries are forwarded");
    };
    let index = query_index(*query);
    let keywords = shared.query_keywords(index);
    state.scratch_hashes.clear();
    if shared.protocol.uses_bloom_sync() {
        state.scratch_hashes.extend(keywords.iter().map(|&kw| shared.keyword_hashes.of(kw)));
    }
    let mut targets = std::mem::take(&mut state.scratch_targets);
    let decision = {
        let qctx = query_context(message, keywords, &state.scratch_hashes);
        let view = view(state, graph, shared, shared.partition.slot(at));
        shared.protocol.forward_targets_into(&view, &qctx, exclude, &mut targets)
    };
    state.tallies.decision_counts[decision_index(decision)] += 1;
    let on_graph = |&n: &PeerId| graph.are_neighbors(at, n);
    debug_assert!(targets.iter().all(on_graph), "{at:?} forwards off the graph: {targets:?}");
    // The keywords are the published record, not a field, so a copy is
    // the message's plain fields.
    for &target in &targets {
        state.send(shared, now, at, target, message.clone(), index);
    }
    let sent = !targets.is_empty();
    targets.clear();
    state.scratch_targets = targets;
    sent
}

/// The protocol's view of the query `message`, whose published keywords are
/// `keywords` and their Bloom hashes `keyword_hashes` (empty where no rule
/// reads them): the one place the family builds a [`QueryContext`].
fn query_context<'m>(
    message: &Message, keywords: &'m [KeywordId], keyword_hashes: &'m [ElementHashes],
) -> QueryContext<'m> {
    let Message::Query { query, origin, origin_loc, target_filename, .. } = message else {
        unreachable!("only queries have a query context");
    };
    QueryContext {
        query: *query,
        origin: *origin,
        origin_loc: *origin_loc,
        keywords,
        keyword_hashes,
        target_filename: *target_filename,
    }
}

/// What the protocol may read of the peer in `slot` of `state`.
fn view<'v>(
    state: &'v ShardState, graph: &'v OverlayGraph, shared: &'v RunShared<'_>, slot: usize,
) -> PeerView<'v> {
    PeerView {
        state: &state.peers[slot],
        graph,
        group_ids: shared.group_ids,
        scheme: &shared.scheme,
        catalog: shared.catalog,
    }
}

#[cfg(test)]
mod tests {
    use super::super::shard::{QueryTracking, Search};
    use super::super::{prepare, Coordinator};
    use super::*;
    use crate::config::SimulationConfig;
    use crate::protocol::Protocol;
    use crate::simulation::Simulation;
    use locaware_bloom::{BloomDelta, BloomFilter};
    use locaware_overlay::{ChurnEvent, ChurnEventKind};
    use locaware_workload::{FileId, KeywordId, TimeoutPolicy};

    /// A 40-peer single-shard substrate whose fault plan re-floods an
    /// unanswered query twice: deadlines 10 s, 20 s and 40 s after each flood.
    fn retrying() -> Simulation {
        let mut config = SimulationConfig::small(40);
        config.shards = 1;
        config.faults.query_timeout = TimeoutPolicy { initial_secs: 10.0, backoff: 2.0, max_retries: 2 };
        Simulation::try_build(config).expect("test configuration validates")
    }

    /// Issues arrival 0 as a query for `keywords` over `graph` and drains
    /// the flood. Returns the issue time.
    fn flood(sim: &Simulation, graph: &OverlayGraph, keywords: Vec<KeywordId>) -> (ShardState, SimTime) {
        let (shared, shards) = prepare(sim, ProtocolKind::Flooding, sim.arrivals(1), true);
        issue_and_drain(&shared, shards, graph, keywords)
    }

    /// Issues arrival 0 of the prepared single-shard run as a query for
    /// `keywords` over `graph`, the way its issue would with the workload
    /// draw replaced, and drains the flood. Returns the issue time.
    fn issue_and_drain(
        shared: &RunShared<'_>, mut shards: Vec<ShardState>, graph: &OverlayGraph, keywords: Vec<KeywordId>,
    ) -> (ShardState, SimTime) {
        let mut state = shards.remove(0);
        // Only what the flood sends is to be dispatched, not the arrival's issue.
        while state.queue.pop_before(EventKey::MAX).is_some() {}
        let now = shared.arrivals[0].at;
        let tracking = QueryTracking::new(shared, 0, FileId(0), Search::Flood);
        state.tracking.insert(0, tracking);
        issue(&mut state, shared, graph, now, 0, Query { target: FileId(0), keywords });
        state.drain(shared, graph);
        (state, now)
    }

    #[test]
    fn an_unanswered_query_refloods_until_its_retries_run_out() {
        let sim = retrying();
        // A keyword no filename has: nobody can answer.
        let (state, issued) = flood(&sim, sim.overlay(), vec![KeywordId(u32::MAX)]);
        assert_eq!((state.tallies.query_timeouts, state.tallies.query_retransmits), (3, 2));
        let deadlines = [10.0, 20.0, 40.0].map(Duration::from_secs_f64);
        let last_deadline = deadlines.into_iter().fold(issued, |t, delay| t + delay);
        let completion = last_deadline.duration_since(issued).as_millis_f64();
        assert_eq!(state.tracking[&0].record.completion_time_ms, Some(completion), "completes at its last deadline");
        assert!(state.ledger.drained_locally(0) && state.queue.peek_key().is_none(), "no timer left charged");
        assert_eq!(state.routes.live(), 0);
    }

    #[test]
    fn a_satisfied_query_refloods_nothing() {
        let sim = retrying();
        let arrival = sim.arrivals(1)[0];
        let origin = PeerId(arrival.peer as u32);
        let initial = sim.initial_shares();
        let lacks = |file: &FileId| !initial[origin.index()].contains(file);
        // A file a neighbour of the origin stores and the origin does not.
        let mut neighbours = sim.overlay().neighbors(origin).iter();
        let file = neighbours.find_map(|n| initial[n.index()].iter().copied().find(lacks));
        let keywords = sim.catalog().filename(file.expect("a neighbour's file")).keywords().to_vec();
        let (state, _) = flood(&sim, sim.overlay(), keywords);
        assert!(state.tracking[&0].record.is_success());
        assert_eq!((state.tallies.query_timeouts, state.tallies.query_retransmits), (0, 0));
        assert!(state.ledger.drained_locally(0) && state.queue.peek_key().is_none());
    }

    #[test]
    fn a_flood_that_sends_nothing_arms_no_deadline() {
        let sim = retrying();
        let origin = PeerId(sim.arrivals(1)[0].peer as u32);
        let mut isolated = sim.overlay().clone();
        for &n in sim.overlay().neighbors(origin) {
            isolated.depart(n);
        }
        let (state, _) = flood(&sim, &isolated, vec![KeywordId(u32::MAX)]);
        assert_eq!(state.tallies.message_counts, [0; 7], "nothing sent");
        assert_eq!(state.tallies.query_timeouts, 0, "and nothing armed");
        assert!(state.ledger.drained_locally(0), "so the issue is born complete");
    }

    /// Where a slice lives: its address and length.
    type At = (usize, usize);

    fn at(keywords: &[KeywordId]) -> At {
        (keywords.as_ptr() as usize, keywords.len())
    }

    /// Whether `seen` is the very slice `keywords`, not an equal copy.
    fn is(seen: At, keywords: &[KeywordId]) -> bool {
        std::ptr::eq(std::ptr::slice_from_raw_parts(seen.0 as *const KeywordId, seen.1), keywords)
    }

    /// What the spied protocol was lent: per query context, the attempt and
    /// its keywords; per response context, the file, its keywords, the
    /// query's keywords and whether it is relayed (it offers providers; the
    /// answering peer's own context offers none).
    #[derive(Default)]
    struct Lent {
        queries: Vec<(u32, At)>,
        responses: Vec<(FileId, At, At, bool)>,
    }

    /// Flooding, recording where every context it is lent points.
    struct Spy {
        inner: Box<dyn Protocol>,
        lent: Arc<std::sync::Mutex<Lent>>,
    }

    impl Spy {
        fn lend_query(&self, query: &QueryContext<'_>) {
            let mut lent = self.lent.lock().expect("unpoisoned");
            lent.queries.push((query_attempt(query.query), at(query.keywords)));
        }
    }

    impl Protocol for Spy {
        fn kind(&self) -> ProtocolKind {
            self.inner.kind()
        }

        fn selection_policy(&self) -> crate::provider::SelectionPolicy {
            self.inner.selection_policy()
        }

        fn forward_targets_into(
            &self, view: &PeerView<'_>, query: &QueryContext<'_>, exclude: Option<PeerId>, out: &mut Vec<PeerId>,
        ) -> locaware_overlay::ForwardDecision {
            self.lend_query(query);
            self.inner.forward_targets_into(view, query, exclude, out)
        }

        fn local_match(&self, view: &PeerView<'_>, query: &QueryContext<'_>) -> Option<crate::protocol::LocalMatch> {
            self.lend_query(query);
            self.inner.local_match(view, query)
        }

        fn cache_response(
            &self, state: &mut crate::peer::PeerState, gid: crate::group::GroupId,
            scheme: &crate::group::GroupScheme, response: &ResponseContext<'_>,
        ) {
            let mut lent = self.lent.lock().expect("unpoisoned");
            let (file, relayed) = (response.file, !response.providers.is_empty());
            lent.responses.push((file, at(response.file_keywords), at(response.query_keywords), relayed));
            drop(lent);
            self.inner.cache_response(state, gid, scheme, response);
        }
    }

    /// A query's keywords exist once, published at its issue: every hop of
    /// every attempt, and every response and relay of it, is lent that one
    /// slice, and a response's file keywords are the catalog's own.
    #[test]
    fn every_hop_and_relay_reads_the_published_keywords() {
        let sim = retrying();
        let (graph, initial) = (sim.overlay(), sim.initial_shares());
        let origin = PeerId(sim.arrivals(1)[0].peer as u32);
        // A file the origin stores, so no answer satisfies it and both
        // retries re-flood, and a peer past its neighbours stores too, so
        // answers are relayed.
        let far = |p: &PeerId| *p != origin && !graph.are_neighbors(origin, *p);
        let far_holders = |file: &FileId| (0..40).map(PeerId).filter(far).any(|p| initial[p.index()].contains(file));
        let file = initial[origin.index()].iter().copied().find(far_holders).expect("a file held far away");
        let lent = Arc::new(std::sync::Mutex::new(Lent::default()));
        let (mut shared, shards) = prepare(&sim, ProtocolKind::Flooding, sim.arrivals(1), true);
        shared.protocol = Box::new(Spy { inner: shared.protocol, lent: Arc::clone(&lent) });
        let keywords = sim.catalog().filename(file).keywords().to_vec();
        let (state, _) = issue_and_drain(&shared, shards, graph, keywords);
        assert_eq!(state.tallies.query_retransmits, 2, "both retries re-flood");

        let record = shared.query_keywords(0);
        let lent = lent.lock().expect("unpoisoned");
        for attempt in 0..3 {
            assert!(lent.queries.iter().any(|&(a, _)| a == attempt), "attempt {attempt} was lent no context");
        }
        assert!(lent.queries.iter().all(|&(_, keywords)| is(keywords, record)), "a hop read a copy");
        assert!(lent.responses.iter().any(|&(.., relayed)| relayed), "no response was relayed");
        for &(file, file_keywords, query_keywords, _) in &lent.responses {
            assert!(is(query_keywords, record), "a response read a copy of the query's keywords");
            assert!(is(file_keywords, sim.catalog().filename(file).keywords()), "and of the file's");
        }
    }

    /// `viewer`'s view of `owner`'s filter.
    fn view_of(
        shared: &RunShared<'_>, shards: &mut [ShardState], viewer: PeerId, owner: PeerId,
    ) -> Option<Arc<BloomFilter>> {
        let views = peer_mut(shared, shards, viewer).bloom_views();
        views.iter().find(|view| view.neighbor() == owner).map(|view| Arc::clone(view.bloom()))
    }

    #[test]
    fn neighbour_views_share_the_export_until_their_first_delta() {
        let mut config = SimulationConfig::small(40);
        config.shards = 1;
        let sim = Simulation::try_build(config).expect("test configuration validates");
        let graph = sim.overlay();
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Locaware, sim.arrivals(1), true);

        // After the initial exchange every view is its owner's one export.
        for viewer in (0..40).map(PeerId) {
            for &owner in graph.neighbors(viewer) {
                let view = view_of(&shared, &mut shards, viewer, owner).expect("exchanged");
                assert!(Arc::ptr_eq(&view, peer_mut(&shared, &mut shards, owner).exported_bloom()));
            }
        }

        // A delta delivered to one neighbour copies that view only.
        let mut peers = (0..40).map(PeerId);
        let owner = peers.find(|&p| graph.neighbors(p).len() >= 2).expect("a peer of degree 2");
        let (a, b) = (graph.neighbors(owner)[0], graph.neighbors(owner)[1]);
        let export = Arc::clone(peer_mut(&shared, &mut shards, owner).exported_bloom());
        let words = export.words().to_vec();
        let delta = BloomDelta::from_positions(vec![0, 7], export.bits() as u32);
        let key = EventKey::before_time(SimTime::ZERO);
        deliver(&mut shards[0], &shared, graph, key, owner, a, Message::BloomDelta { delta });
        let a_view = view_of(&shared, &mut shards, a, owner).expect("still held");
        assert!(!Arc::ptr_eq(&a_view, &export));
        assert_eq!(a_view.changed_bits(&export), vec![0, 7]);
        assert_eq!(export.words(), &words[..], "the owner's export keeps its words");
        let b_view = view_of(&shared, &mut shards, b, owner).expect("still held");
        assert!(Arc::ptr_eq(&b_view, &export), "the other neighbours still share the export");

        // The owner's next update moves its export, not the views it handed out.
        let file = FileId(0);
        let keywords = sim.catalog().filename(file).keywords().to_vec();
        let peer = peer_mut(&shared, &mut shards, owner);
        peer.cache_index(file, &keywords, [(a, shared.loc_ids[a.index()])]);
        assert!(peer.take_bloom_update().is_some());
        assert!(!Arc::ptr_eq(peer.exported_bloom(), &export));
        assert_eq!(peer.exported_bloom().as_ref(), peer.current_bloom());
        assert_eq!(b_view.words(), &words[..], "b's view keeps the old export's words");
        assert_eq!(a_view.changed_bits(&export), vec![0, 7], "a's view keeps its delta");

        // A volatile reset drops the resetting peer's own views only.
        peer_mut(&shared, &mut shards, a).reset_volatile_state();
        for &n in graph.neighbors(a) {
            assert!(view_of(&shared, &mut shards, a, n).is_none());
        }
        let b_view = view_of(&shared, &mut shards, b, owner).expect("b's view survives a's reset");
        assert!(Arc::ptr_eq(&b_view, &export));
        for &n in graph.neighbors(a) {
            assert!(view_of(&shared, &mut shards, n, a).is_some(), "views of a survive a's reset");
        }
    }

    /// A leave and a rejoin as the churn barrier runs them: the peer's views
    /// and its neighbours' views of it go with its links; it comes back
    /// rewired, re-advertises its stored files, and each new link swaps full
    /// filters — its fresh export one way, the neighbour's last export the
    /// other, shared rather than copied.
    #[test]
    fn a_rejoin_readvertises_and_swaps_full_filters() {
        let mut config = SimulationConfig::small(40);
        config.shards = 1;
        let sim = Simulation::try_build(config).expect("test configuration validates");
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Locaware, sim.arrivals(1), false);
        while shards[0].queue.pop_before(EventKey::MAX).is_some() {}
        let mut coordinator = Coordinator::new(&shared, sim.overlay().clone(), &[], 1);
        let stores = |p: PeerId| !sim.initial_shares()[p.index()].is_empty();
        let peer = (0..40).map(PeerId).find(|&p| stores(p)).expect("a peer with files");
        let old = sim.overlay().neighbors(peer).to_vec();
        let at = SimTime::ZERO + Duration::from_secs_f64(1.0);
        coordinator.apply_churn(&shared, &mut shards, ChurnEvent { at, peer, kind: ChurnEventKind::Leave });
        assert!(peer_mut(&shared, &mut shards, peer).bloom_views().is_empty());
        for &n in &old {
            assert!(view_of(&shared, &mut shards, n, peer).is_none(), "{n:?} still views {peer:?}");
        }

        let mut theirs = Vec::new();
        for n in (0..40).map(PeerId) {
            theirs.push(Arc::clone(peer_mut(&shared, &mut shards, n).exported_bloom()));
        }
        coordinator.apply_churn(&shared, &mut shards, ChurnEvent { at, peer, kind: ChurnEventKind::Join });
        let graph = &coordinator.graph;
        let new = graph.neighbors(peer).to_vec();
        assert!(!new.is_empty(), "the peer is rewired");
        let state = peer_mut(&shared, &mut shards, peer);
        assert!(!state.bloom_dirty(), "the rejoined peer exported its filter whole");
        for file in state.shared_files().collect::<Vec<_>>() {
            for kw in sim.catalog().filename(file).keywords() {
                assert!(state.current_bloom().contains(&kw.canonical()), "{file:?} is advertised again");
            }
        }
        let export = Arc::clone(state.exported_bloom());
        shards[0].drain(&shared, graph);
        assert_eq!(shards[0].tallies.message_counts[2], 2 * new.len() as u64, "two full filters per new link");
        for &n in &new {
            let seen = view_of(&shared, &mut shards, n, peer).expect("the new neighbour views the peer");
            assert!(Arc::ptr_eq(&seen, &export));
            let back = view_of(&shared, &mut shards, peer, n).expect("the peer views its new neighbour");
            assert!(Arc::ptr_eq(&back, &theirs[n.index()]), "{n:?}'s last export, not a fresh one");
        }
        let views: Vec<PeerId> = peer_mut(&shared, &mut shards, peer).bloom_views().iter().map(|view| view.neighbor()).collect();
        assert_eq!(views, new, "no view without a link");
    }

    /// A full filter or a delta that arrives after its link has gone — the
    /// peers are online but no longer neighbours — creates no view.
    #[test]
    fn a_filter_over_a_dropped_link_creates_no_view() {
        let mut config = SimulationConfig::small(40);
        config.shards = 1;
        let sim = Simulation::try_build(config).expect("test configuration validates");
        let (shared, mut shards) = prepare(&sim, ProtocolKind::Locaware, sim.arrivals(1), true);
        let graph = sim.overlay();
        let (from, to) = (0..40u32)
            .flat_map(|a| (0..40u32).map(move |b| (PeerId(a), PeerId(b))))
            .find(|&(a, b)| a != b && !graph.are_neighbors(a, b))
            .expect("two peers without a link");
        let key = EventKey::before_time(SimTime::ZERO);
        let filter = Arc::clone(peer_mut(&shared, &mut shards, from).exported_bloom());
        let delta = BloomDelta::from_positions(vec![3], filter.bits() as u32);
        deliver(&mut shards[0], &shared, graph, key, from, to, Message::BloomFull { filter });
        deliver(&mut shards[0], &shared, graph, key, from, to, Message::BloomDelta { delta });
        assert!(view_of(&shared, &mut shards, to, from).is_none());
    }
}
