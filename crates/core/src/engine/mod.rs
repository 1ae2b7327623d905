//! The protocol simulation engine, sharded for deterministic intra-run
//! parallelism.
//!
//! `ProtocolEngine` wires the substrate crates together and executes one
//! run: queries arrive according to the workload's Poisson process, travel
//! over the overlay according to the protocol's routing policy with per-link
//! latencies from the physical topology, responses travel back along reverse
//! paths and are cached according to the protocol's caching rule, and the
//! requestor picks a provider according to the protocol's selection policy.
//! Every query produces one [`QueryRecord`]; Figures 2–4 are aggregations of
//! those records.
//!
//! ## Sharded execution
//!
//! Peers are deterministically partitioned into `config.effective_shards()`
//! locality-aligned shards (`exchange::PeerPartition`). Simulated time
//! advances in bounded windows, and every tick runs two phases:
//!
//! 1. **Parallel drain** — each shard drains its local events for the window
//!    concurrently (scoped threads, one per shard). A shard only mutates its
//!    own peers and slabs; the overlay graph and the peers-online snapshot
//!    are frozen for the window. Messages to peers of another shard go into
//!    per-`(src, dst)` outboxes instead of a queue.
//! 2. **Barrier merge** — outboxes are merged into the destination queues in
//!    the canonical `(time, class, destination, source, link-seq)` order of
//!    `exchange`, and global transitions (periodic Bloom synchronisation,
//!    churn) are applied serially by the coordinator at their exact canonical
//!    position.
//!
//! Window lengths are **per-destination channel lookaheads** in the classic
//! CMB (Chandy–Misra–Bryant) conservative style: shard `i` may advance to
//! `frontier + Wᵢ`, where `Wᵢ` is the minimum latency over its *incoming*
//! cross-shard overlay-link channels
//! ([`LinkLatencyCache::incoming_channel_mins`]); under churn — where
//! rewiring can connect any pair — every `Wᵢ` falls back to the configured
//! minimum pair latency. A cross-shard message sent inside a window
//! therefore always arrives past the destination's bound — in a *later*
//! window than it was sent — which makes the barrier merge exact rather
//! than approximate: every event is processed at exactly the canonical
//! position it would occupy in a single-queue run. A shard behind a
//! high-latency boundary advances further per barrier than the old global
//! `min`-over-all-channels window allowed, cutting the barrier count.
//!
//! ## Query lifecycle
//!
//! Queries have an explicit lifecycle (tracked in `shard`): outstanding-message
//! counts per arrival, folded across shards at each barrier, synthesize a
//! canonical class-4 **completion event** when the last in-flight message is
//! consumed. Duplicate suppression keys on actual completion, which adds one
//! cross-shard read the lookahead alone cannot protect: whether a peer's
//! earlier query is still in flight at a *pending* issue's position may be
//! decided by deliveries another shard has not folded yet. The coordinator
//! therefore **caps** a shard's window at the first pending issue whose
//! peer has an open (or completed-but-not-yet-pruned) query — or an earlier
//! pending same-peer issue — deferring that issue until the global frontier
//! reaches it, at which point the folded lifecycle state is exact at its
//! position. The issue at the global frontier itself is never capped, so
//! every window still makes progress. Caps are pure scheduling: they only
//! delay when an issue runs, never what it observes.
//!
//! Because the canonical order, the per-arrival RNG streams and the merge
//! rules are all pure functions of the configuration and seed, **any shard
//! count produces bit-identical [`SimulationReport`]s** — `shards = 1` is
//! simply the degenerate case with one queue, an unbounded window and no
//! threads. `tests/determinism.rs` pins the equality over shards {1, 2, 4, 8}
//! for all eight protocols, with and without churn.
//!
//! The one carve-out: if a run trips the `max_events` safety valve (a bound
//! "well-formed simulations never hit"), sharded runs stop at the next window
//! barrier rather than mid-window, so the truncation point may differ between
//! shard counts. Results below the budget are unaffected.
//!
//! [`QueryRecord`]: locaware_metrics::QueryRecord
//! [`LinkLatencyCache::incoming_channel_mins`]:
//!   locaware_net::LinkLatencyCache::incoming_channel_mins

mod dht;
mod exchange;
mod faults;
mod shard;
mod tally;

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use rand::rngs::StdRng;
use rand::Rng;

use locaware_bloom::BloomParams;
use locaware_metrics::{QueryOutcome, QueryRecord, RunMetrics};
use locaware_net::{LinkLatencyCache, LocId, PhysicalTopology};
use locaware_overlay::churn::ChurnEvent;
use locaware_overlay::{
    ChurnEventKind, DhtNode, Message, MessageKind, OverlayGraph, PeerId, ProviderEntry,
};
use locaware_sim::{Duration, EventKey, RngFactory, SimTime, StreamId};
use locaware_workload::{Arrival, Catalog, KeywordHashes, QueryGenerator};

use crate::config::{ProtocolKind, SimulationConfig};
use crate::group::GroupScheme;
use crate::peer::PeerState;
use crate::protocol::Protocol;
use crate::results::{DhtRunStats, FaultRunStats, SimulationReport};

pub(crate) use exchange::locality_rank_order;

use dht::{DhtDirectory, DirectoryScratch};
use faults::FaultPlan;
use exchange::{
    completion_key, issue_key, PeerPartition, CLASS_BLOOM_SYNC, CLASS_CHURN, CLASS_DHT_REPUBLISH,
};
use shard::{ShardEvent, ShardState};
use tally::{labelled_counters, Tallies, FORWARD_DECISIONS, MESSAGE_KINDS};

/// Read-only context shared by every shard and the coordinator during a run.
///
/// The two `RwLock`s hold the only state that crosses shard boundaries: the
/// overlay graph and the peers-online snapshot. Both are written exclusively
/// by the coordinator at barriers (churn transitions) and read-locked by each
/// shard for the duration of a window drain, so the event path never blocks.
pub(crate) struct RunShared<'a> {
    pub(crate) config: &'a SimulationConfig,
    pub(crate) protocol: &'a dyn Protocol,
    pub(crate) topology: &'a PhysicalTopology,
    pub(crate) link_latencies: &'a LinkLatencyCache,
    pub(crate) loc_ids: &'a [LocId],
    pub(crate) catalog: &'a Catalog,
    pub(crate) keyword_hashes: Arc<KeywordHashes>,
    pub(crate) scheme: GroupScheme,
    pub(crate) arrivals: &'a [Arrival],
    pub(crate) query_generator: &'a QueryGenerator,
    pub(crate) rng_factory: RngFactory,
    pub(crate) partition: &'a PeerPartition,
    /// The DHT identity oracle — `Some` exactly for structured protocols
    /// ([`Protocol::uses_dht`]). Immutable for the whole run.
    pub(crate) dht: Option<DhtDirectory>,
    pub(crate) graph: RwLock<OverlayGraph>,
    pub(crate) online: RwLock<Vec<bool>>,
    /// Per-destination-shard channel lookahead: `channel_lookahead[i]` is the
    /// minimum latency over shard `i`'s incoming cross-shard channels — no
    /// message another shard sends at or after a window's start can land in
    /// shard `i` before `start + channel_lookahead[i]`. `None` means shard
    /// `i` has no incoming cross-shard channel at all (unbounded horizon);
    /// a single-shard run is `vec![None]`.
    pub(crate) channel_lookahead: Vec<Option<Duration>>,
    /// The compiled fault plan — `Some` exactly when the configuration arms
    /// any fault axis, so fault-free runs pay one `Option` check per send.
    pub(crate) faults: Option<FaultPlan>,
}

/// Everything needed to execute one protocol run over a prepared substrate.
pub(crate) struct ProtocolEngine<'a> {
    config: &'a SimulationConfig,
    protocol: Box<dyn Protocol>,
    topology: &'a PhysicalTopology,
    link_latencies: &'a LinkLatencyCache,
    loc_ids: &'a [LocId],
    catalog: &'a Catalog,
    keyword_hashes: Arc<KeywordHashes>,
    scheme: GroupScheme,
    graph: OverlayGraph,
    peers: Vec<PeerState>,
    arrivals: Vec<Arrival>,
    churn_schedule: Vec<ChurnEvent>,
    query_generator: QueryGenerator,
    churn_rng: StdRng,
    rng_factory: RngFactory,
    dht: Option<DhtDirectory>,
}

impl<'a> ProtocolEngine<'a> {
    /// Builds an engine for one run.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        config: &'a SimulationConfig,
        kind: ProtocolKind,
        topology: &'a PhysicalTopology,
        link_latencies: &'a LinkLatencyCache,
        loc_ids: &'a [LocId],
        graph: &OverlayGraph,
        catalog: &'a Catalog,
        initial_shares: &[Vec<locaware_workload::FileId>],
        gids: &[crate::group::GroupId],
        arrivals: Vec<Arrival>,
        churn_schedule: Vec<ChurnEvent>,
        rng_factory: &RngFactory,
    ) -> Self {
        let protocol = crate::protocol::build_protocol(kind, config);
        let scheme = GroupScheme::new(config.group_count);
        let bloom_params = BloomParams::new(config.bloom_bits, config.bloom_hashes);
        let max_providers = protocol.max_providers_per_file(config);
        let keyword_hashes = catalog.keyword_hashes().clone();

        let mut peers: Vec<PeerState> = (0..config.peers)
            .map(|i| {
                let id = PeerId(i as u32);
                let mut state = PeerState::new(
                    id,
                    loc_ids[i],
                    gids[i],
                    bloom_params,
                    config.response_index_capacity,
                    max_providers,
                    keyword_hashes.clone(),
                );
                for &file in &initial_shares[i] {
                    state.share_file(file);
                    if protocol.uses_bloom_sync() {
                        // §5.2: Bloom routing must not miss results held by
                        // neighbours, so a peer's filter also covers the
                        // filenames it stores itself (see DESIGN.md).
                        state.advertise_keywords(catalog.filename(file).keywords());
                    }
                }
                state
            })
            .collect();

        // Neighbours exchange group ids on join (§4.2); modelled as already
        // known at simulation start, like the paper's static setup.
        for i in 0..config.peers {
            let id = PeerId(i as u32);
            for &n in graph.neighbors(id) {
                let gid = gids[n.index()];
                peers[i].record_neighbor(n, gid);
            }
        }

        // Initial Bloom exchange between neighbours ("Neighboring peers
        // exchange their group Ids as well as their Bloom filters", §4.2).
        if protocol.uses_bloom_sync() {
            let initial_blooms: Vec<_> = peers
                .iter_mut()
                .map(|p| {
                    let _ = p.take_bloom_update();
                    p.exported_bloom().clone()
                })
                .collect();
            for i in 0..config.peers {
                let id = PeerId(i as u32);
                for &n in graph.neighbors(id) {
                    let bloom = initial_blooms[n.index()].clone();
                    peers[i].set_neighbor_bloom(n, bloom);
                }
            }
        }

        // The base workload stream seeds only the generator's one-time
        // popularity permutation; per-query draws come from streams derived
        // per arrival index, so they are independent of processing order.
        let mut workload_rng = rng_factory.stream(StreamId::QueryWorkload);
        let query_generator = QueryGenerator::new(
            catalog,
            locaware_workload::QueryWorkloadConfig {
                zipf_exponent: config.zipf_exponent,
                min_keywords: config.min_query_keywords,
                max_keywords: config.max_query_keywords,
            },
            &mut workload_rng,
        );

        // Structured protocols: derive the run's DHT identities, install
        // per-peer DHT state, and seed routing tables and record stores.
        // Like the group-id and initial Bloom exchanges above, the bootstrap
        // is modelled as already converged at simulation start: every peer
        // has observed every other's node id (bucket capacities still apply,
        // so far buckets keep only their first `k` in peer-id order), and
        // each initially shared, DHT-indexed file is stored on the `k`
        // closest nodes to each of its keyword keys — no messages charged.
        let dht = if protocol.uses_dht() {
            let directory = DhtDirectory::new(rng_factory, config.peers);
            for (i, peer) in peers.iter_mut().enumerate() {
                peer.dht = Some(Box::new(DhtNode::new(
                    directory.node_id(PeerId(i as u32)),
                    config.dht.k,
                    config.dht.max_record_bytes,
                )));
            }
            // The converged tables (for each bucket, the k lowest-id peers of
            // the bucket's subtree) come from one O(n log n · k) range-split
            // walk of the directory's sorted ring — identical contents, in
            // identical bucket order, to inserting all n-1 others per peer.
            directory.for_each_bootstrap_contact(config.dht.k, |owner, contact_id, contact| {
                let inserted = peers[owner.index()]
                    .dht
                    .as_mut()
                    .expect("dht state installed for every peer when the protocol is structured")
                    .table
                    .insert(contact_id, contact);
                debug_assert!(inserted, "bootstrap contacts are pre-capped per bucket");
            });
            let all_online = vec![true; config.peers];
            let expiry = SimTime::ZERO + Duration::from_secs_f64(config.dht.record_ttl_secs);
            // With every peer online, the store targets depend only on the
            // keyword — resolve each keyword's k-closest once, not once per
            // (peer, file) sharing it.
            let mut scratch = DirectoryScratch::default();
            let mut targets_by_keyword: HashMap<u32, Vec<PeerId>> = HashMap::new();
            for i in 0..config.peers {
                let provider = ProviderEntry {
                    provider: PeerId(i as u32),
                    loc_id: loc_ids[i],
                };
                for &file in &initial_shares[i] {
                    let rank = query_generator.rank_of(file);
                    if !protocol.dht_resolves_rank(rank, catalog.len()) {
                        continue;
                    }
                    for &kw in catalog.filename(file).keywords() {
                        let targets = targets_by_keyword.entry(kw.0).or_insert_with(|| {
                            let key = directory.keyword_key(kw);
                            let mut targets = Vec::new();
                            directory.closest_online_into(
                                key,
                                &all_online,
                                config.dht.k,
                                &mut scratch,
                                &mut targets,
                            );
                            targets
                        });
                        for &target in targets.iter() {
                            peers[target.index()]
                                .dht
                                .as_mut()
                                .expect("dht state installed for every peer when the protocol is structured")
                                .store
                                .insert(kw.0, file.0, provider, expiry);
                        }
                    }
                }
            }
            Some(directory)
        } else {
            None
        };

        ProtocolEngine {
            config,
            protocol,
            topology,
            link_latencies,
            loc_ids,
            catalog,
            keyword_hashes,
            scheme,
            graph: graph.clone(),
            peers,
            arrivals,
            churn_schedule,
            query_generator,
            churn_rng: rng_factory.stream(StreamId::Churn),
            rng_factory: *rng_factory,
            dht,
        }
    }

    /// Executes the run and produces the report.
    pub(crate) fn run(mut self) -> SimulationReport {
        let mut shard_count = self.config.effective_shards();
        let mut partition = PeerPartition::locality(self.loc_ids, shard_count);

        // Per-destination channel lookaheads: shard `i`'s window may extend
        // `W_i` past the global frontier, where `W_i` lower-bounds the latency
        // of any message that can cross INTO shard `i`. Static overlay-only
        // runs only ever send along overlay links, so `W_i` is the minimum
        // incoming cross-shard link latency; churn can rewire any pair, and
        // DHT traffic travels arbitrary peer pairs from the start, so in
        // either case every shard falls back to the configured minimum pair
        // latency (rounding to integer microseconds is monotone, so the
        // rounded configured minimum bounds every rounded pair latency).
        // `None` means shard `i` has no incoming cross-shard channel
        // (unbounded horizon).
        let channel_lookahead = |partition: &PeerPartition, links_only: bool, shards: usize| {
            if shards == 1 {
                vec![None]
            } else if links_only {
                self.link_latencies
                    .incoming_channel_mins(&partition.shard_of, shards)
            } else {
                vec![Some(Duration::from_millis_f64(self.config.min_latency_ms)); shards]
            }
        };
        let links_only = self.churn_schedule.is_empty() && !self.protocol.uses_dht();
        let mut lookahead = channel_lookahead(&partition, links_only, shard_count);
        if shard_count > 1 && lookahead.contains(&Some(Duration::ZERO)) {
            // A zero lookahead means some cross-shard message could land in
            // the very window that sent it (sub-microsecond latencies rounding
            // to zero) — and a shard whose bound never exceeds the frontier
            // could not even admit its own frontier event. No positive
            // lookahead exists, so parallel windows cannot be exact. Fall back
            // to a single shard — a pure scheduling change, results are
            // identical by the engine's shard-count-invariance contract.
            shard_count = 1;
            partition = PeerPartition::locality(self.loc_ids, 1);
            lookahead = vec![None];
        }

        // Distribute the peers into their shards' slot-indexed vectors.
        let arrivals_len = self.arrivals.len();
        let mut slots: Vec<Vec<Option<PeerState>>> = partition
            .sizes
            .iter()
            .map(|&size| (0..size).map(|_| None).collect())
            .collect();
        for (i, peer) in std::mem::take(&mut self.peers).into_iter().enumerate() {
            slots[partition.shard_of[i] as usize][partition.slot_of[i] as usize] = Some(peer);
        }
        let shards: Vec<Mutex<ShardState>> = slots
            .into_iter()
            .enumerate()
            .map(|(index, peer_slots)| {
                let peers: Vec<PeerState> = peer_slots
                    .into_iter()
                    .map(|p| p.expect("partition covers every peer"))
                    .collect();
                Mutex::new(ShardState::new(
                    index as u32,
                    shard_count,
                    peers,
                    arrivals_len,
                ))
            })
            .collect();

        // Schedule the arrivals into their origin shards.
        for (index, arrival) in self.arrivals.iter().enumerate() {
            let origin = PeerId(arrival.peer as u32);
            shards[partition.shard(origin)]
                .lock()
                .queue
                .push(issue_key(arrival.at, index), ShardEvent::Issue(index as u32));
        }

        // Global transitions — Bloom sync rounds over the workload span (plus
        // a small drain margin so late responses still see fresh filters) and
        // the churn schedule — run serially at barriers, at their canonical
        // position in the event order.
        let last_arrival = self.arrivals.last().map(|a| a.at).unwrap_or(SimTime::ZERO);
        let mut control: Vec<(EventKey, ControlAction)> = Vec::new();
        if self.protocol.uses_bloom_sync() {
            let period = Duration::from_secs_f64(self.config.bloom_sync_period_secs);
            let horizon = last_arrival + Duration::from_secs(60);
            let mut t = SimTime::ZERO + period;
            let mut round = 0u64;
            while t <= horizon {
                control.push((
                    EventKey::new(t, CLASS_BLOOM_SYNC, round, 0),
                    ControlAction::BloomSync,
                ));
                round += 1;
                t += period;
            }
        }
        if self.protocol.uses_dht() {
            let mut period = Duration::from_secs_f64(self.config.dht.republish_period_secs);
            if period == Duration::ZERO {
                // A sub-microsecond period rounds to zero; pin it to the time
                // grid's resolution so the round loop always advances.
                period = Duration::from_micros(1);
            }
            let horizon = last_arrival + Duration::from_secs(60);
            let mut t = SimTime::ZERO + period;
            let mut round = 0u64;
            while t <= horizon {
                control.push((
                    EventKey::new(t, CLASS_DHT_REPUBLISH, round, 0),
                    ControlAction::DhtRepublish,
                ));
                round += 1;
                t += period;
            }
        }
        for (i, event) in self.churn_schedule.iter().enumerate() {
            control.push((
                EventKey::new(event.at, CLASS_CHURN, i as u64, 0),
                ControlAction::Churn(i),
            ));
        }
        control.sort_by_key(|&(key, _)| key);

        let shared = RunShared {
            config: self.config,
            protocol: &*self.protocol,
            topology: self.topology,
            link_latencies: self.link_latencies,
            loc_ids: self.loc_ids,
            catalog: self.catalog,
            keyword_hashes: self.keyword_hashes.clone(),
            scheme: self.scheme,
            arrivals: &self.arrivals,
            query_generator: &self.query_generator,
            rng_factory: self.rng_factory,
            partition: &partition,
            dht: self.dht.take(),
            graph: RwLock::new(std::mem::replace(&mut self.graph, OverlayGraph::new(0))),
            online: RwLock::new(vec![true; self.config.peers]),
            channel_lookahead: lookahead,
            faults: FaultPlan::new(&self.config.faults, &self.rng_factory),
        };

        let mut coordinator = Coordinator {
            control,
            next_control: 0,
            churn_schedule: std::mem::take(&mut self.churn_schedule),
            churn_rng: {
                let fresh = self.rng_factory.stream(StreamId::Churn);
                std::mem::replace(&mut self.churn_rng, fresh)
            },
            controls_dispatched: 0,
            control_end_time: SimTime::ZERO,
            max_events: self.config.max_events,
            query_outstanding: vec![0; arrivals_len],
            query_last: vec![None; arrivals_len],
            query_phase: vec![QueryPhase::Idle; arrivals_len],
            arrival_done: vec![false; arrivals_len],
            arrival_cursor: 0,
            inflight_by_peer: vec![0; self.config.peers],
            peer_seen: vec![0; self.config.peers],
            cap_epoch: 0,
            pending_prunes: Vec::new(),
            fold_touched: Vec::new(),
            bounds: vec![EventKey::MAX; shard_count],
            windows: 0,
            engaged_windows: 0,
            capped_windows: 0,
            prev_dispatched: vec![0; shard_count],
            critical_path_events: 0,
            crash_departures: 0,
        };

        if shard_count == 1 || !worker_threads_available() {
            // Single shard — or a single-CPU host, where worker threads can
            // only add scheduling overhead: drain the shards on this thread.
            // The state transitions are identical either way (the executor is
            // a pure scheduling choice), so results do not depend on the host.
            coordinator.drive(&shared, &shards, &mut Executor::Inline);
        } else {
            let barrier = Barrier::new(shard_count + 1);
            let cmd = Mutex::new(Cmd::Run(0));
            let panicked = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for index in 0..shard_count {
                    let shared = &shared;
                    let shards = &shards;
                    let barrier = &barrier;
                    let cmd = &cmd;
                    let panicked = &panicked;
                    scope.spawn(move || loop {
                        barrier.wait();
                        let command = *cmd.lock();
                        match command {
                            Cmd::Quit => break,
                            Cmd::Run(cap) => {
                                if !panicked.load(Ordering::SeqCst) {
                                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                                        // The per-shard window bound was set
                                        // by the coordinator at plan time.
                                        shards[index]
                                            .lock()
                                            .drain(shared, cap);
                                    }));
                                    if outcome.is_err() {
                                        panicked.store(true, Ordering::SeqCst);
                                    }
                                }
                                barrier.wait();
                            }
                        }
                    });
                }
                let mut executor = Executor::Threaded {
                    barrier: &barrier,
                    cmd: &cmd,
                    panicked: &panicked,
                    released: false,
                };
                // The coordinator itself runs protocol code (inline windows,
                // barrier transitions); if it panics while the workers are
                // parked at the barrier, the scope would join threads that
                // are still waiting — a hang instead of a test failure. Catch
                // the unwind, release the workers, then resume it.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    coordinator.drive(&shared, &shards, &mut executor)
                }));
                executor.shutdown();
                if let Err(panic) = outcome {
                    std::panic::resume_unwind(panic);
                }
            });
        }

        let shard_states: Vec<ShardState> = shards
            .into_iter()
            .map(|m| m.into_inner())
            .collect();
        coordinator.print_stats(&shard_states, &shared.channel_lookahead);
        self.finalize(&partition, shard_states, coordinator)
    }

    fn finalize(
        self,
        partition: &PeerPartition,
        shards: Vec<ShardState>,
        coordinator: Coordinator,
    ) -> SimulationReport {
        let mut totals = Tallies::new();
        for shard in &shards {
            totals.merge(&shard.tallies);
        }

        // Per-query merge: origin-local tracking lives in the origin's shard;
        // per-query message counts are summed across shards; the first local
        // match is the canonical-key minimum across shards. Arrival index
        // order is issue order (arrivals are time-sorted, canonical keys
        // tie-break by index), so records renumber contiguously in it.
        let mut metrics = RunMetrics::new();
        let mut emitted = 0u64;
        let mut dht_lookups = 0u64;
        let mut dht_depth_total = 0u64;
        for index in 0..self.arrivals.len() {
            let origin = PeerId(self.arrivals[index].peer as u32);
            let Some(tracking) = shards[partition.shard(origin)].tracking.get(&(index as u32))
            else {
                continue;
            };
            if tracking.dht_lookup {
                dht_lookups += 1;
                dht_depth_total += u64::from(tracking.dht_depth);
            }
            let messages: u64 = shards.iter().map(|s| s.messages[index]).sum();
            let hit = shards
                .iter()
                .filter_map(|s| s.hits[index])
                .min_by_key(|h| h.key);
            metrics.push(QueryRecord {
                index: emitted,
                requestor: tracking.origin.0,
                outcome: if tracking.satisfied {
                    QueryOutcome::Satisfied
                } else {
                    QueryOutcome::Unsatisfied
                },
                messages,
                download_distance_ms: tracking.download_distance_ms,
                locality_match: tracking.locality_match,
                providers_offered: tracking.providers_offered,
                hops_to_hit: hit.map(|h| h.hops),
                answered_from_cache: hit.map(|h| h.from_cache).unwrap_or(false),
                completion_time_ms: tracking
                    .completed_at
                    .map(|t| t.duration_since(self.arrivals[index].at).as_millis_f64()),
            });
            emitted += 1;
        }

        let total_replicas: usize = shards
            .iter()
            .flat_map(|s| s.peers.iter())
            .map(|p| p.shared_file_count())
            .sum();
        let total_cached: usize = shards
            .iter()
            .flat_map(|s| s.peers.iter())
            .map(|p| p.response_index.len())
            .sum();

        let dht = self.protocol.uses_dht().then(|| {
            let mut stats = DhtRunStats {
                lookups: dht_lookups,
                lookup_depth_total: dht_depth_total,
                store_messages: totals.message_counts[tally::kind_index(MessageKind::DhtStore)],
                records: 0,
                provider_entries: 0,
                record_bytes: 0,
                truncated_entries: 0,
                expired_entries: 0,
            };
            for peer in shards.iter().flat_map(|s| s.peers.iter()) {
                if let Some(node) = peer.dht.as_ref() {
                    stats.records += node.store.records();
                    stats.provider_entries += node.store.entries();
                    stats.record_bytes += node.store.bytes();
                    stats.truncated_entries += node.store.truncated_entries();
                    stats.expired_entries += node.store.expired_entries();
                }
            }
            stats
        });

        let faults = (!self.config.faults.is_disabled()).then_some(FaultRunStats {
            messages_lost: totals.messages_lost,
            dht_stores_lost: totals.dht_stores_lost,
            query_timeouts: totals.query_timeouts,
            query_retransmits: totals.query_retransmits,
            dht_step_timeouts: totals.dht_step_timeouts,
            crash_departures: coordinator.crash_departures,
        });

        let dispatched_events =
            coordinator.controls_dispatched + shards.iter().map(|s| s.dispatched).sum::<u64>();
        let end_time = shards
            .iter()
            .map(|s| s.last_event_time)
            .chain(std::iter::once(coordinator.control_end_time))
            .max()
            .unwrap_or(SimTime::ZERO);

        SimulationReport {
            protocol: self.protocol.kind(),
            queries_issued: totals.queries_issued,
            metrics,
            message_counters: labelled_counters(&MESSAGE_KINDS, &totals.message_counts),
            routing_decisions: labelled_counters(&FORWARD_DECISIONS, &totals.decision_counts),
            background_messages: totals.background_messages,
            total_file_replicas: total_replicas,
            total_cached_index_entries: total_cached,
            simulated_end_time_secs: end_time.as_secs_f64(),
            dispatched_events,
            dht,
            faults,
        }
    }
}

/// Whether spawning per-shard worker threads can possibly pay off: requires
/// more than one CPU, overridable for tests via `LOCAWARE_SHARD_THREADS`
/// (`1`/`true` forces workers even on one CPU, `0`/`false` forces the inline
/// executor). Read once per process.
fn worker_threads_available() -> bool {
    use std::sync::OnceLock;
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        match std::env::var("LOCAWARE_SHARD_THREADS").ok().as_deref() {
            Some("1") | Some("true") => return true,
            Some("0") | Some("false") => return false,
            _ => {}
        }
        std::thread::available_parallelism().is_ok_and(|n| n.get() > 1)
    })
}

/// A global transition handled serially at a barrier.
#[derive(Debug, Clone, Copy)]
enum ControlAction {
    /// One periodic Bloom synchronisation round over all peers.
    BloomSync,
    /// One periodic DHT republish round over all peers.
    DhtRepublish,
    /// The `i`-th entry of the churn schedule.
    Churn(usize),
}

/// A window command handed to the worker threads.
#[derive(Debug, Clone, Copy)]
enum Cmd {
    /// Drain the local queue up to the shard's planned `window_bound`,
    /// dispatching at most `cap` events.
    Run(u64),
    /// The run is over; exit the worker loop.
    Quit,
}

/// How a window's parallel phase is executed.
enum Executor<'e> {
    /// Drain every shard on the current thread (the `shards = 1` fast path —
    /// no barriers, no contention — and the reference execution).
    Inline,
    /// Signal the parked worker threads through the barrier. `released` is
    /// set once the workers have been told to quit, so the release happens
    /// exactly once no matter which path (normal shutdown or worker-panic
    /// propagation) gets there first.
    Threaded {
        barrier: &'e Barrier,
        cmd: &'e Mutex<Cmd>,
        panicked: &'e AtomicBool,
        released: bool,
    },
}

impl Executor<'_> {
    fn run_window(&mut self, shared: &RunShared<'_>, shards: &[Mutex<ShardState>], cap: u64) {
        match self {
            Executor::Inline => {
                for shard in shards {
                    shard
                        .lock()
                        .drain(shared, cap);
                }
            }
            Executor::Threaded {
                barrier,
                cmd,
                panicked,
                released,
            } => {
                *cmd.lock() = Cmd::Run(cap);
                barrier.wait();
                barrier.wait();
                if panicked.load(Ordering::SeqCst) {
                    // Release the workers before propagating, so the panic
                    // surfaces as a test failure instead of a barrier hang.
                    *cmd.lock() = Cmd::Quit;
                    barrier.wait();
                    *released = true;
                    panic!("a sharded-engine worker thread panicked");
                }
            }
        }
    }

    fn shutdown(&mut self) {
        if let Executor::Threaded {
            barrier,
            cmd,
            released,
            ..
        } = self
        {
            if !*released {
                *cmd.lock() = Cmd::Quit;
                barrier.wait();
                *released = true;
            }
        }
    }
}

/// Where a query is in its lifecycle, as the coordinator's barrier folds see
/// it. Transitions: `Idle → Open` when the folded outstanding count first
/// goes positive; `Open → PendingPrune` when it returns to zero for a query
/// that escaped its origin shard (completion detected, duplicate-map prune
/// deferred until the global frontier passes the completion's canonical key);
/// `Open → Closed` directly for never-escaped queries (the origin shard
/// already completed them inline, at the exact canonical position);
/// `PendingPrune → Closed` when the deferred prune is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryPhase {
    Idle,
    Open,
    PendingPrune,
    Closed,
}

/// The serial half of the sharded run: window planning, lifecycle folds,
/// barrier merges and global transitions.
struct Coordinator {
    control: Vec<(EventKey, ControlAction)>,
    next_control: usize,
    churn_schedule: Vec<ChurnEvent>,
    churn_rng: StdRng,
    controls_dispatched: u64,
    control_end_time: SimTime,
    max_events: u64,
    /// Query lifecycle fold state, all arrival-indexed: the globally folded
    /// outstanding-message count, the maximum consumption key folded so far,
    /// and the lifecycle phase.
    query_outstanding: Vec<i64>,
    query_last: Vec<Option<EventKey>>,
    query_phase: Vec<QueryPhase>,
    /// Arrival index → its issue event was dispatched by some shard; used to
    /// skip settled arrivals when scanning for window caps.
    arrival_done: Vec<bool>,
    /// First arrival index not yet known settled (all below are done).
    arrival_cursor: usize,
    /// Peer index → number of its queries that are open or pending a prune.
    /// A pending issue by such a peer must not run ahead of the global
    /// frontier: its duplicate-suppression read is not yet exact.
    inflight_by_peer: Vec<u32>,
    /// Epoch-stamped "peer has an earlier pending issue in this cap scan"
    /// marker (`peer_seen[p] == cap_epoch`); avoids clearing per window.
    peer_seen: Vec<u32>,
    cap_epoch: u32,
    /// Completions of escaped queries whose duplicate-map prune waits for the
    /// global frontier to pass the completion's canonical (class 4) key:
    /// until then a lagging shard may still hold a same-peer issue that must
    /// observe the query as in flight.
    pending_prunes: Vec<(EventKey, u32)>,
    /// Scratch: arrival indexes touched by the current fold.
    fold_touched: Vec<u32>,
    /// Scratch: per-shard window bounds planned for the current window.
    bounds: Vec<EventKey>,
    /// Parallelism profile of the run (see [`Coordinator::print_stats`]):
    /// windows run, windows with 2+ active shards, windows shortened by a
    /// lifecycle cap, per-shard dispatch counts at the last barrier, and the
    /// critical-path event count — the wall clock an ideal machine with one
    /// core per shard could not go below.
    windows: u64,
    engaged_windows: u64,
    capped_windows: u64,
    prev_dispatched: Vec<u64>,
    critical_path_events: u64,
    /// Churn departures the fault plan turned into crash-stops (no goodbyes).
    crash_departures: u64,
}

impl Coordinator {
    /// The main loop: alternate parallel windows and serial control steps
    /// until every queue is empty and the control schedule is exhausted (or
    /// the event budget trips).
    fn drive(
        &mut self,
        shared: &RunShared<'_>,
        shards: &[Mutex<ShardState>],
        executor: &mut Executor<'_>,
    ) {
        loop {
            let mut guards = lock_all(shards);
            if guards.len() > 1 {
                self.fold_lifecycle(shared, &mut guards);
            }
            let dispatched: u64 =
                self.controls_dispatched + guards.iter().map(|g| g.dispatched).sum::<u64>();
            let Some(remaining) = self.max_events.checked_sub(dispatched).filter(|&r| r > 0)
            else {
                break; // Event budget exhausted: stop at this barrier.
            };

            let next_event: Option<EventKey> =
                guards.iter().filter_map(|g| g.queue.peek_key()).min();
            let next_control = self.control.get(self.next_control).map(|&(key, _)| key);
            if guards.len() > 1 {
                // Every event strictly below the global frontier has been
                // processed (outboxes are merged), so deferred duplicate-map
                // prunes whose completion key the frontier has passed are now
                // safe: no pending issue can still order before them.
                self.apply_ready_prunes(shared, &mut guards, next_event.unwrap_or(EventKey::MAX));
            }

            match (next_event, next_control) {
                (None, None) => break,
                (event, Some(control)) if event.is_none_or(|e| control < e) => {
                    self.run_control(shared, &mut guards, control);
                }
                (Some(event), control) => {
                    // Per-shard window ends: each shard's incoming-channel
                    // lookahead past the earliest pending event, capped by the
                    // next control transition and by any lifecycle cap (a
                    // pending issue whose duplicate-suppression read is not
                    // yet exact). Jumping the window start to the earliest
                    // event skips dead time, so sparse stretches cost no
                    // barriers.
                    for (index, bound) in self.bounds.iter_mut().enumerate() {
                        let horizon = match shared.channel_lookahead[index] {
                            Some(w) => EventKey::before_time(event.time.saturating_add(w)),
                            None => EventKey::MAX,
                        };
                        *bound = control.map_or(horizon, |c| c.min(horizon));
                    }
                    let capped = guards.len() > 1 && self.cap_bounds(shared, event);
                    for (guard, &bound) in guards.iter_mut().zip(&self.bounds) {
                        guard.window_bound = bound;
                    }
                    // Windows whose pending events all sit in one shard gain
                    // nothing from waking the workers: drain that shard on
                    // this thread (identical state transitions, no barrier).
                    // Sparse stretches of a run — where a whole query burst
                    // fits inside one locality — cost no synchronisation.
                    let active = guards
                        .iter()
                        .filter(|g| g.queue.peek_key().is_some_and(|k| k < g.window_bound))
                        .count();
                    if active <= 1 {
                        for guard in guards.iter_mut() {
                            guard.drain(shared, remaining);
                        }
                    } else {
                        drop(guards);
                        executor.run_window(shared, shards, remaining);
                        guards = lock_all(shards);
                    }
                    merge_outboxes(&mut guards);
                    // Critical-path accounting: a window's parallel phase is
                    // as slow as its busiest shard.
                    self.windows += 1;
                    self.engaged_windows += u64::from(active > 1);
                    self.capped_windows += u64::from(capped);
                    let mut busiest = 0u64;
                    for (index, guard) in guards.iter().enumerate() {
                        let delta = guard.dispatched - self.prev_dispatched[index];
                        self.prev_dispatched[index] = guard.dispatched;
                        busiest = busiest.max(delta);
                    }
                    self.critical_path_events += busiest;
                }
                (None, Some(_)) => {
                    unreachable!("the guard above admits every (None, Some) pair")
                }
            }
        }
    }

    /// Folds every shard's [`tally::LifecycleFlux`] into the global lifecycle
    /// slabs and detects completions: a query whose folded outstanding count
    /// returns to zero has had its last in-flight message consumed (any
    /// not-yet-folded consumption would require a not-yet-folded send, and
    /// sends fold no later than the barrier after the window that made them —
    /// so a zero here is a true global zero). Never-escaped queries were
    /// already completed inline by their origin shard at the exact canonical
    /// position; escaped ones are handed to [`Coordinator::apply_ready_prunes`]
    /// so the duplicate-map prune waits until the frontier passes the
    /// completion key.
    fn fold_lifecycle(
        &mut self,
        shared: &RunShared<'_>,
        guards: &mut [MutexGuard<'_, ShardState>],
    ) {
        let mut touched = std::mem::take(&mut self.fold_touched);
        for guard in guards.iter_mut() {
            for index in guard.processed_arrivals.drain(..) {
                self.arrival_done[index as usize] = true;
            }
            let flux = guard.flux.as_mut().expect("multi-shard runs carry flux");
            let outstanding = &mut self.query_outstanding;
            let last = &mut self.query_last;
            flux.drain(|index, delta, consumed, _escaped| {
                let i = index as usize;
                outstanding[i] += delta;
                if let Some(key) = consumed {
                    let slot = &mut last[i];
                    *slot = Some(slot.map_or(key, |k| k.max(key)));
                }
                touched.push(index);
            });
        }
        for &index in &touched {
            let i = index as usize;
            debug_assert!(
                self.query_outstanding[i] >= 0,
                "query {i}: a consumption folded before its send"
            );
            // Duplicate touches are harmless: every transition below is
            // guarded by the current phase.
            match self.query_phase[i] {
                QueryPhase::Idle if self.query_outstanding[i] > 0 => {
                    self.query_phase[i] = QueryPhase::Open;
                    self.inflight_by_peer[shared.arrivals[i].peer] += 1;
                }
                QueryPhase::Idle => {
                    // Issued and fully consumed between two barriers: that is
                    // only possible inside one shard (a cross-shard hop lands
                    // at least one window later), so the origin completed it
                    // inline, exactly. Nothing to fold.
                    self.query_phase[i] = QueryPhase::Closed;
                }
                QueryPhase::Open if self.query_outstanding[i] == 0 => {
                    let last = self.query_last[i]
                        .expect("an opened query closes via at least one consumption");
                    let origin = PeerId(shared.arrivals[i].peer as u32);
                    let origin_shard = shared.partition.shard(origin);
                    if guards[origin_shard].escaped[i] {
                        // Completion detected, but a shard lagging behind the
                        // one that consumed the last message may still hold a
                        // same-peer issue ordering before it: keep the query
                        // counted in-flight and defer the duplicate-map prune
                        // until the frontier passes the completion key.
                        self.query_phase[i] = QueryPhase::PendingPrune;
                        self.pending_prunes
                            .push((completion_key(last.time, i), index));
                    } else {
                        // Never escaped: the origin shard completed it inline
                        // at the exact canonical position.
                        self.query_phase[i] = QueryPhase::Closed;
                        self.inflight_by_peer[shared.arrivals[i].peer] -= 1;
                    }
                }
                _ => {}
            }
        }
        touched.clear();
        self.fold_touched = touched;
    }

    /// Applies every deferred duplicate-map prune whose canonical completion
    /// key the global frontier has passed: all events below `frontier` are
    /// processed, so no issue can still observe the query as in flight.
    fn apply_ready_prunes(
        &mut self,
        shared: &RunShared<'_>,
        guards: &mut [MutexGuard<'_, ShardState>],
        frontier: EventKey,
    ) {
        let mut i = 0;
        while i < self.pending_prunes.len() {
            let (key, index) = self.pending_prunes[i];
            if key < frontier {
                self.pending_prunes.swap_remove(i);
                let idx = index as usize;
                let origin = PeerId(shared.arrivals[idx].peer as u32);
                guards[shared.partition.shard(origin)].complete_locally(shared, idx, key.time);
                self.query_phase[idx] = QueryPhase::Closed;
                self.inflight_by_peer[origin.index()] -= 1;
            } else {
                i += 1;
            }
        }
    }

    /// Shortens shard bounds so no issue runs before its duplicate-suppression
    /// read is exact, scanning pending arrivals in canonical order. An issue
    /// needs deferring when its peer has an open (or pending-prune) query —
    /// whose completion another shard may process at a smaller canonical key
    /// than the issue's — or an earlier same-peer pending issue (whose query's
    /// fate is equally unsettled). The arrival at the global frontier `start`
    /// is exempt: everything below it is processed and folded, so the
    /// lifecycle state is exact at its position — which also guarantees every
    /// window admits at least its frontier event. Returns whether any bound
    /// was shortened. Caps only delay issues, never change what they observe,
    /// so they cannot affect results.
    fn cap_bounds(&mut self, shared: &RunShared<'_>, start: EventKey) -> bool {
        while self.arrival_cursor < self.arrival_done.len()
            && self.arrival_done[self.arrival_cursor]
        {
            self.arrival_cursor += 1;
        }
        self.cap_epoch = self.cap_epoch.wrapping_add(1);
        let epoch = self.cap_epoch;
        let mut capped = false;
        // Arrivals are time-sorted and canonical keys tie-break by index, so
        // array order is canonical order. Once `max_bound` (the furthest any
        // shard may still reach) is behind an arrival, no later arrival can
        // run this window either.
        let mut max_bound = self.bounds.iter().copied().max().unwrap_or(EventKey::MAX);
        for idx in self.arrival_cursor..self.arrival_done.len() {
            if self.arrival_done[idx] {
                continue;
            }
            let arrival = &shared.arrivals[idx];
            let key = issue_key(arrival.at, idx);
            if key >= max_bound {
                break;
            }
            let shard = shared.partition.shard_of[arrival.peer] as usize;
            if key >= self.bounds[shard] {
                // Not runnable this window (natural horizon or an earlier
                // cap already excludes it) — and neither is any later
                // same-peer arrival, so it needs no marking either.
                continue;
            }
            if key > start
                && (self.inflight_by_peer[arrival.peer] > 0 || self.peer_seen[arrival.peer] == epoch)
            {
                self.bounds[shard] = key;
                capped = true;
                max_bound = self.bounds.iter().copied().max().unwrap_or(EventKey::MAX);
            } else {
                self.peer_seen[arrival.peer] = epoch;
            }
        }
        capped
    }

    /// Handles one control transition (everything strictly before its
    /// canonical key has already drained).
    fn run_control(
        &mut self,
        shared: &RunShared<'_>,
        guards: &mut [MutexGuard<'_, ShardState>],
        key: EventKey,
    ) {
        let (_, action) = self.control[self.next_control];
        self.next_control += 1;
        self.controls_dispatched += 1;
        self.critical_path_events += 1; // Controls are inherently serial.
        self.control_end_time = key.time;
        match action {
            ControlAction::BloomSync => self.bloom_sync(shared, guards, key.time),
            ControlAction::DhtRepublish => self.dht_republish(shared, guards, key.time),
            ControlAction::Churn(index) => {
                let event = self.churn_schedule[index];
                self.apply_churn(shared, guards, event);
            }
        }
        // Control transitions may send (Bloom deltas); merge immediately so
        // the next window-planning pass sees them in the destination queues.
        // Every shard has drained past `key`, so it is the merge floor.
        for guard in guards.iter_mut() {
            guard.window_bound = key;
        }
        merge_outboxes(guards);
    }

    /// When `LOCAWARE_SHARD_STATS=1`, prints the run's parallelism profile to
    /// stderr: total vs critical-path events bound how much an ideal machine
    /// with one core per shard could compress the run
    /// (`ideal_speedup = total / critical_path`). Measured, deterministic
    /// quantities — the profile is how `BENCH_prN.json` grounds multi-core
    /// projections on single-core CI hardware.
    fn print_stats(&self, shards: &[ShardState], lookahead: &[Option<Duration>]) {
        if std::env::var("LOCAWARE_SHARD_STATS").as_deref() != Ok("1") {
            return;
        }
        let dispatched: u64 =
            self.controls_dispatched + shards.iter().map(|s| s.dispatched).sum::<u64>();
        let critical = self.critical_path_events.max(1);
        let lookahead_list = lookahead
            .iter()
            .map(|w| w.map_or(0, Duration::as_micros).to_string())
            .collect::<Vec<_>>()
            .join(",");
        eprintln!(
            "shard-stats: shards={} lookahead_us={} windows={} engaged_windows={} \
             capped_windows={} events={} critical_path_events={} ideal_speedup={:.2}",
            shards.len(),
            lookahead_list,
            self.windows,
            self.engaged_windows,
            self.capped_windows,
            dispatched,
            critical,
            dispatched as f64 / critical as f64,
        );
    }

    /// One Bloom synchronisation round: every online peer with a dirty filter
    /// pushes the delta to its active neighbours, in peer-id order exactly
    /// like the sequential engine's single sync event.
    fn bloom_sync(
        &mut self,
        shared: &RunShared<'_>,
        guards: &mut [MutexGuard<'_, ShardState>],
        now: SimTime,
    ) {
        let graph = shared.graph.read();
        for i in 0..shared.config.peers {
            let from = PeerId(i as u32);
            let shard = shared.partition.shard(from);
            let slot = shared.partition.slot(from);
            if !guards[shard].peers[slot].online {
                continue;
            }
            let Some(delta) = guards[shard].peers[slot].take_bloom_update() else {
                continue;
            };
            let neighbors: Vec<PeerId> = graph
                .neighbors(from)
                .iter()
                .copied()
                .filter(|&n| graph.is_active(n))
                .collect();
            for n in neighbors {
                let message = Message::BloomDelta {
                    delta: delta.clone(),
                };
                guards[shard].send_background(shared, now, from, n, message);
            }
        }
    }

    /// One DHT republish round: every online peer sweeps expired entries from
    /// its own record store, then re-announces each of its shared,
    /// DHT-indexed files to the *current* `k` closest online index nodes —
    /// in peer-id order, serially at the barrier, exactly like a Bloom sync
    /// round. Each remote store transfer is a real background message paying
    /// link latency (the receiver stamps the TTL at delivery time);
    /// self-targets store locally for free. This is what re-homes records
    /// whose index nodes departed and refreshes TTLs so live records outlast
    /// `record_ttl_secs`.
    fn dht_republish(
        &mut self,
        shared: &RunShared<'_>,
        guards: &mut [MutexGuard<'_, ShardState>],
        now: SimTime,
    ) {
        let Some(directory) = shared.dht.as_ref() else {
            return;
        };
        let online = shared.online.read();
        let ttl = Duration::from_secs_f64(shared.config.dht.record_ttl_secs);
        // The online set is fixed for the whole round (coordinator-serial),
        // so a keyword's k-closest targets are too — resolve each keyword
        // once per round no matter how many peers re-announce it.
        let mut scratch = DirectoryScratch::default();
        let mut targets_by_keyword: HashMap<u32, Vec<PeerId>> = HashMap::new();
        for i in 0..shared.config.peers {
            let from = PeerId(i as u32);
            let shard = shared.partition.shard(from);
            let slot = shared.partition.slot(from);
            if !guards[shard].peers[slot].online {
                continue;
            }
            if let Some(node) = guards[shard].peers[slot].dht.as_mut() {
                node.store.expire(now);
            }
            let provider = ProviderEntry {
                provider: from,
                loc_id: shared.loc_ids[i],
            };
            let files: Vec<locaware_workload::FileId> =
                guards[shard].peers[slot].shared_files().collect();
            for file in files {
                let rank = shared.query_generator.rank_of(file);
                if !shared.protocol.dht_resolves_rank(rank, shared.catalog.len()) {
                    continue;
                }
                for &kw in shared.catalog.filename(file).keywords() {
                    let targets = targets_by_keyword.entry(kw.0).or_insert_with(|| {
                        let key = directory.keyword_key(kw);
                        let mut targets = Vec::new();
                        directory.closest_online_into(
                            key,
                            &online,
                            shared.config.dht.k,
                            &mut scratch,
                            &mut targets,
                        );
                        targets
                    });
                    for &target in targets.iter() {
                        if target == from {
                            guards[shard].peers[slot]
                                .dht
                                .as_mut()
                                .expect("structured peers carry DHT state")
                                .store
                                .insert(kw.0, file.0, provider, now + ttl);
                        } else {
                            let message = Message::DhtStore {
                                keyword: kw.0,
                                file: file.0,
                                provider,
                            };
                            guards[shard].send_background(shared, now, from, target, message);
                        }
                    }
                }
            }
        }
    }

    /// One churn transition, mutating the graph, the affected peers (possibly
    /// across several shards) and the online snapshot — all under the write
    /// locks the window drains read.
    fn apply_churn(
        &mut self,
        shared: &RunShared<'_>,
        guards: &mut [MutexGuard<'_, ShardState>],
        event: ChurnEvent,
    ) {
        let peer = event.peer;
        if peer.index() >= shared.config.peers {
            return;
        }
        let shard = shared.partition.shard(peer);
        let slot = shared.partition.slot(peer);
        let mut graph = shared.graph.write();
        let mut online = shared.online.write();
        match event.kind {
            ChurnEventKind::Leave => {
                if !guards[shard].peers[slot].online {
                    return;
                }
                // Under a crash-stop fault plan the peer vanishes without
                // goodbyes: the graph edges still drop (dead links carry no
                // traffic either way) and the online snapshot flips, but no
                // neighbour learns of the departure — their Bloom views, DHT
                // routing tables and provider indexes keep the ghost until
                // TTLs, lookup filters or the next sync round catch up.
                // In-flight messages to the peer are consumed as lost by the
                // ordinary offline-receiver rule.
                let crash = shared.faults.as_ref().is_some_and(|f| f.crash_stop);
                let old_neighbors = graph.depart(peer);
                guards[shard].peers[slot].online = false;
                online[peer.index()] = false;
                if crash {
                    self.crash_departures += 1;
                    return;
                }
                for n in old_neighbors {
                    let ns = shared.partition.shard(n);
                    let nslot = shared.partition.slot(n);
                    guards[ns].peers[nslot].forget_neighbor(peer);
                }
                if shared.dht.is_some() {
                    // Failure detection modelled at the barrier, like the
                    // rewiring itself: the departed node leaves every online
                    // routing table (in peer-id order). Its *record entries*
                    // are dropped only under proactive invalidation — by
                    // default they linger until TTL expiry or a lookup's
                    // online filter skips them, which is exactly the index
                    // staleness the churn-storm comparison measures.
                    for other in 0..shared.config.peers {
                        if other == peer.index() {
                            continue;
                        }
                        let other_id = PeerId(other as u32);
                        let os = shared.partition.shard(other_id);
                        let oslot = shared.partition.slot(other_id);
                        if !guards[os].peers[oslot].online {
                            continue;
                        }
                        if let Some(node) = guards[os].peers[oslot].dht.as_mut() {
                            node.table.remove(peer);
                            if shared.config.proactive_provider_invalidation {
                                node.store.remove_provider(peer);
                            }
                        }
                    }
                }
                if shared.config.proactive_provider_invalidation {
                    // CUP-style proactive invalidation, modelled as an
                    // oracle: every online peer drops its index entries for
                    // the departed provider (O(affected) each, via the
                    // provider → files postings map) and updates its Bloom
                    // filter for entries that vanish. Runs serially at the
                    // churn barrier, in peer-id order, so it is part of the
                    // canonical event order and deterministic for any shard
                    // count. Off by default: the lazy selection-time filter
                    // is the paper's (and the seed's) behaviour.
                    for other in 0..shared.config.peers {
                        if other == peer.index() {
                            continue;
                        }
                        let other_id = PeerId(other as u32);
                        let os = shared.partition.shard(other_id);
                        let oslot = shared.partition.slot(other_id);
                        if guards[os].peers[oslot].online {
                            guards[os].peers[oslot].forget_provider(peer);
                        }
                    }
                }
            }
            ChurnEventKind::Join => {
                if guards[shard].peers[slot].online {
                    return;
                }
                graph.rejoin(peer);
                guards[shard].peers[slot].online = true;
                guards[shard].peers[slot].reset_volatile_state();
                online[peer.index()] = true;
                // Re-wire to `average_degree` random online peers.
                let degree = shared.config.average_degree.round() as usize;
                let candidates: Vec<PeerId> = graph.active_peers().filter(|&p| p != peer).collect();
                for _ in 0..degree.max(1) {
                    if candidates.is_empty() {
                        break;
                    }
                    let pick = candidates[self.churn_rng.gen_range(0..candidates.len())];
                    if graph.add_edge(peer, pick) {
                        let peer_gid = guards[shard].peers[slot].gid;
                        let ps = shared.partition.shard(pick);
                        let pslot = shared.partition.slot(pick);
                        let pick_gid = guards[ps].peers[pslot].gid;
                        guards[shard].peers[slot].record_neighbor(pick, pick_gid);
                        guards[ps].peers[pslot].record_neighbor(peer, peer_gid);
                    }
                }
                if let Some(directory) = shared.dht.as_ref() {
                    // The joiner bootstraps a fresh routing table from the
                    // online population and announces its node id to every
                    // online peer, in peer-id order. Its record store
                    // restarts empty (`reset_volatile_state` cleared it);
                    // records it should host migrate back at the next
                    // republish round, and its own files re-announce then
                    // too.
                    let joiner_id = directory.node_id(peer);
                    for other in 0..shared.config.peers {
                        if other == peer.index() {
                            continue;
                        }
                        let other_id = PeerId(other as u32);
                        let os = shared.partition.shard(other_id);
                        let oslot = shared.partition.slot(other_id);
                        if !guards[os].peers[oslot].online {
                            continue;
                        }
                        if let Some(node) = guards[shard].peers[slot].dht.as_mut() {
                            node.table.insert(directory.node_id(other_id), other_id);
                        }
                        if let Some(node) = guards[os].peers[oslot].dht.as_mut() {
                            node.table.insert(joiner_id, peer);
                        }
                    }
                }
            }
        }
    }
}

fn lock_all<'g>(shards: &'g [Mutex<ShardState>]) -> Vec<MutexGuard<'g, ShardState>> {
    shards
        .iter()
        .map(|m| m.lock())
        .collect()
}

/// Moves every outboxed cross-shard delivery into its destination queue. The
/// canonical keys were fixed at send time and are never below the
/// *destination's* window bound just drained (the incoming-channel lookahead
/// guarantee), so this is a plain batch of heap insertions.
fn merge_outboxes(guards: &mut [MutexGuard<'_, ShardState>]) {
    let mut moves: Vec<(usize, exchange::Outbound)> = Vec::new();
    for guard in guards.iter_mut() {
        for (destination, bucket) in guard.take_outbound() {
            for outbound in bucket {
                moves.push((destination, outbound));
            }
        }
    }
    for (destination, outbound) in moves {
        debug_assert!(
            outbound.key >= guards[destination].window_bound,
            "cross-shard delivery {:?} would land inside the destination window bounded by {:?}",
            outbound.key,
            guards[destination].window_bound
        );
        guards[destination].queue.push(
            outbound.key,
            ShardEvent::Deliver {
                from: outbound.from,
                to: outbound.to,
                message: outbound.message,
            },
        );
    }
}
