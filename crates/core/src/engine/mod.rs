//! The protocol simulation engine, sharded for deterministic intra-run
//! parallelism.
//!
//! `run` wires the substrate crates together and executes one run:
//! queries arrive according to the workload's Poisson process, travel
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
//! 1. **Window drain** — `drain_window`, the one executor, gives every
//!    shard's `&mut ShardState` to `ShardState::drain`: in a plain loop on
//!    this thread, or — when the window is predicted to hold enough work —
//!    fanned out over scoped threads, one active shard each, joined before
//!    the phase ends. The overlay graph — which is also the record of who
//!    is online — is lent to every drain as `&OverlayGraph`, so it cannot
//!    change during a window; messages to peers of another shard go into
//!    per-`(src, dst)` outboxes instead of a queue.
//! 2. **Merge at the barrier** — outboxes are merged into the destination
//!    queues in the canonical `(time, class, destination, source, link-seq)`
//!    order of `exchange`, and global transitions (Bloom-sync and republish
//!    rounds, churn), derived one at a time, are applied serially by the
//!    coordinator at their exact canonical position.
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
//! position it would occupy in a single-queue run.
//!
//! What is counted per query, when a query is complete, and why the
//! coordinator sometimes **caps** a shard's window at a pending issue, is
//! described in one place: `lifecycle`. Caps are pure scheduling — they only
//! delay when an issue runs, never what it observes.
//!
//! Because the canonical order, the per-arrival RNG streams and the merge
//! rules are all pure functions of the configuration and seed, **any shard
//! count produces bit-identical [`SimulationReport`]s** for every validated
//! configuration: every run drains on its own, with no event budget to cut
//! it at a shard-dependent barrier. `shards = 1` is simply the degenerate
//! case with one queue, an unbounded window and no threads.
//! `tests/determinism.rs` pins the equality over shards {1, 2, 4, 8} for all
//! eight protocols, with and without churn. Whether a window drains on
//! threads is a pure scheduling choice on top of that — a threshold `run`
//! takes from the host — and either branch of `drain_window` makes the same
//! state transitions. Beside the report, `run` returns a [`RunProfile`]: the
//! run's windows, critical path, queue, route-table and storage-signature
//! counts.
//!
//! [`RunProfile`]: crate::results::RunProfile
//!
//! ## Who owns what
//!
//! There are no locks in the engine; the borrow checker holds the discipline.
//! `prepare` returns the shards as a plain `Vec<ShardState>`. The
//! `Coordinator` owns the one thing that crosses shard boundaries and changes
//! during a run — the overlay graph, departed peers included — as an
//! ordinary field: it mutates it in the churn transition, which takes
//! `&mut self`, and lends it shared to the window drains, so a write during
//! a window does not compile. Everything else shards share is `RunShared`,
//! immutable but for one write-once cell per arrival: the keywords its query
//! floods with. Only the query's origin shard sets the cell, once, at issue;
//! any other shard reads it only when a copy of the query or a response to
//! it arrives, which is in a later window, after the barrier that joined
//! the issuing drain. So no two sets can race and no read finds the cell
//! empty. At a barrier the coordinator holds `&mut [ShardState]` and may
//! touch any peer of any shard; during a window each `&mut ShardState` is
//! handed to exactly one drain.
//!
//! This file owns the run's set-up and report, the executor, window planning
//! and the barriers, and reaches each protocol family only through its entry
//! points. `shard` owns the per-shard event loop and transport (canonical
//! keys, fault marking, outboxes), the issue's workload draw and tracking.
//! Each family is one file of plain functions over a shard: `unstructured`
//! (flooding, responses, retransmits, Bloom sync, neighbour exchanges) and
//! `dht` (directory, lookups, record placement, republish, table upkeep).
//! `lifecycle` owns what is counted per query and every conclusion drawn from
//! it. `exchange` fixes the canonical event order and the partition, `faults`
//! compiles the fault plan, `tally` holds the commutative statistics. Every
//! shard count, `shards = 1` included, runs this same code path.
//!
//! [`QueryRecord`]: crate::results::QueryRecord
//! [`LinkLatencyCache::incoming_channel_mins`]:
//!   locaware_net::LinkLatencyCache::incoming_channel_mins

mod dht;
mod exchange;
mod faults;
mod lifecycle;
mod shard;
mod tally;
mod unstructured;

use std::sync::{Arc, OnceLock};

use rand::rngs::StdRng;
use rand::Rng;

use locaware_bloom::BloomParams;
use locaware_net::{LinkLatencyCache, LocId, PhysicalTopology};
use locaware_overlay::churn::ChurnEvent;
use locaware_overlay::{ChurnEventKind, OverlayGraph, PeerId};
use locaware_sim::{Duration, EventKey, RngFactory, SimTime, StreamId};
use locaware_workload::{Arrival, Catalog, KeywordHashes, KeywordId, QueryGenerator, PAPER_KEYWORDS_PER_FILE};

use crate::config::{ProtocolKind, SimulationConfig, CONTROL_DRAIN};
use crate::group::{GroupId, GroupScheme};
use crate::peer::PeerState;
use crate::protocol::Protocol;
use crate::results::{FaultRunStats, RunProfile, SimulationReport};
use crate::simulation::Simulation;

pub(crate) use exchange::locality_rank_order;

use dht::DhtDirectory;
use faults::FaultPlan;
use exchange::{issue_key, PeerPartition, CLASS_BLOOM_SYNC, CLASS_CHURN, CLASS_DHT_REPUBLISH};
use lifecycle::LifecycleFold;
use shard::{Search, ShardEvent, ShardState};
use tally::{labelled_counters, Tallies, FORWARD_DECISIONS, MESSAGE_KINDS};

/// Read-only context shared by every shard and the coordinator during a run:
/// nothing in it changes after [`prepare`] but the write-once keyword record
/// of each flooded query ([`RunShared::publish_keywords`]). The state that
/// crosses shard boundaries and *does* change — the overlay graph — belongs
/// to the [`Coordinator`].
pub(crate) struct RunShared<'a> {
    pub(crate) config: &'a SimulationConfig,
    pub(crate) protocol: Box<dyn Protocol>,
    pub(crate) topology: &'a PhysicalTopology,
    pub(crate) link_latencies: &'a LinkLatencyCache,
    pub(crate) loc_ids: &'a [LocId],
    /// Every peer's group id, fixed at set-up: the one table the group-id
    /// rules read a neighbour's gid from.
    pub(crate) group_ids: &'a [GroupId],
    pub(crate) catalog: &'a Catalog,
    pub(crate) keyword_hashes: Arc<KeywordHashes>,
    pub(crate) scheme: GroupScheme,
    pub(crate) arrivals: Vec<Arrival>,
    /// Arrival index → the keywords its query floods with, set once by the
    /// origin shard at issue and read by every later hop, relayed response
    /// and retransmit, so no message carries them. Empty for an arrival that
    /// was skipped or resolved through the DHT.
    published_keywords: Vec<OnceLock<PublishedKeywords>>,
    pub(crate) query_generator: QueryGenerator,
    pub(crate) rng_factory: RngFactory,
    pub(crate) partition: PeerPartition,
    /// The DHT identity oracle — `Some` exactly for structured protocols
    /// ([`ProtocolKind::uses_dht`]). Immutable for the whole run.
    pub(crate) dht: Option<DhtDirectory>,
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
    /// The latest time this run can put anything on the clock: the
    /// configuration's run horizon ([`SimulationConfig::horizon`]) from the
    /// later of its start and the last arrival. Debug builds assert every
    /// send, deadline and periodic round against it.
    pub(crate) event_bound: SimTime,
    /// Files stored across all peers at set-up. Each satisfied query adds
    /// exactly one replica, which debug builds check at [`finalize`].
    initial_file_replicas: usize,
}

impl RunShared<'_> {
    /// Publishes the keywords arrival `index` floods with. Called once, by
    /// the origin shard at issue; see "Who owns what" in the module docs for
    /// why no read can race it.
    pub(crate) fn publish_keywords(&self, index: usize, keywords: Vec<KeywordId>) {
        let fresh = self.published_keywords[index].set(PublishedKeywords::new(keywords)).is_ok();
        assert!(fresh, "query {index}'s keywords were published twice");
    }

    /// The keywords flooded query `index` was issued with.
    pub(crate) fn query_keywords(&self, index: usize) -> &[KeywordId] {
        match self.published_keywords[index].get() {
            Some(keywords) => keywords.as_slice(),
            None => unreachable!("query {index} travels, so its issue published its keywords"),
        }
    }
}

/// A flooded query's keywords as published at issue: inline when there are
/// at most [`PAPER_KEYWORDS_PER_FILE`] of them, as in every paper query, and
/// boxed only beyond that. A record lives until the run ends, so its size
/// is paid once per arrival: with a box per query, 8000 arrivals raised
/// `cache-warm-1k`'s peak RSS by about 1 MB, and with a 32-byte cell by
/// about 0.5 MB. The box is boxed again to keep its pointer thin, and the
/// cell at 24 bytes.
enum PublishedKeywords {
    Inline(u8, [KeywordId; PAPER_KEYWORDS_PER_FILE]),
    Boxed(Box<Box<[KeywordId]>>),
}

const _: () = assert!(std::mem::size_of::<OnceLock<PublishedKeywords>>() <= 24, "keyword cell grew");

impl PublishedKeywords {
    fn new(keywords: Vec<KeywordId>) -> Self {
        let mut inline = [KeywordId(0); PAPER_KEYWORDS_PER_FILE];
        match inline.get_mut(..keywords.len()) {
            Some(prefix) => {
                prefix.copy_from_slice(&keywords);
                PublishedKeywords::Inline(keywords.len() as u8, inline)
            }
            None => PublishedKeywords::Boxed(Box::new(keywords.into_boxed_slice())),
        }
    }

    fn as_slice(&self) -> &[KeywordId] {
        match self {
            PublishedKeywords::Inline(len, ids) => &ids[..usize::from(*len)],
            PublishedKeywords::Boxed(ids) => ids,
        }
    }
}

/// Minimum number of events the previous window dispatched *outside* its
/// busiest shard — the work scoped threads would have taken off the critical
/// path — before a multi-CPU host spawns them for the next window. Below it,
/// thread spawns cost more than the overlap wins (EXPERIMENTS.md, "Executor
/// threshold", has the measurements). A function of dispatch counts only, so
/// it cannot perturb determinism.
const PARALLEL_MIN_OFFLOADED_EVENTS: u64 = 512;

/// The threshold [`run`] drains under: [`PARALLEL_MIN_OFFLOADED_EVENTS`] on a
/// multi-CPU host, never (`u64::MAX`) on a single CPU, where threads can only
/// add scheduling overhead. Computed once per process, so no run pays the
/// cgroup read behind `available_parallelism`.
fn host_parallel_min_offloaded() -> u64 {
    static THRESHOLD: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        let multi_cpu = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
        if multi_cpu {
            PARALLEL_MIN_OFFLOADED_EVENTS
        } else {
            u64::MAX
        }
    })
}

/// Executes one run of protocol `kind` over the prepared substrate `sim` and
/// produces the report and the run's profile.
pub(crate) fn run(
    sim: &Simulation,
    kind: ProtocolKind,
    arrivals: Vec<Arrival>,
    churn_schedule: &[ChurnEvent],
) -> (SimulationReport, RunProfile) {
    run_with(sim, kind, arrivals, churn_schedule, host_parallel_min_offloaded())
}

/// [`run`], draining a window with two or more active shards on scoped
/// threads exactly when the previous window dispatched at least
/// `parallel_min_offloaded` events outside its busiest shard: `0` always
/// threads, `u64::MAX` never does. A pure scheduling choice — every
/// threshold produces the same report.
fn run_with(
    sim: &Simulation,
    kind: ProtocolKind,
    arrivals: Vec<Arrival>,
    churn_schedule: &[ChurnEvent],
    parallel_min_offloaded: u64,
) -> (SimulationReport, RunProfile) {
    let (shared, mut shards) = prepare(sim, kind, arrivals, churn_schedule.is_empty());
    let mut coordinator =
        Coordinator::new(&shared, sim.overlay().clone(), churn_schedule, shards.len());
    coordinator.drive(&shared, &mut shards, parallel_min_offloaded);
    let report = finalize(&shared, &mut shards, &coordinator);
    (report, coordinator.into_profile(&shards))
}

/// The one executor: has every shard drain its planned window through
/// `drain`, either in a loop on this thread or — `parallel` — one thread per
/// shard that has work: this thread takes the first, scoped workers the
/// rest, all joined before returning. A shard's `&mut ShardState` goes to
/// exactly one call of `drain` either way, which is the whole synchronisation
/// protocol. A worker's panic is re-raised here with its original payload.
fn drain_window(
    shards: &mut [ShardState],
    parallel: bool,
    drain: impl Fn(&mut ShardState) + Sync,
) {
    if !parallel {
        shards.iter_mut().for_each(drain);
        return;
    }
    std::thread::scope(|scope| {
        let drain = &drain;
        let mut active = shards.iter_mut().filter(|shard| shard.has_work());
        let own = active.next();
        let workers: Vec<_> = active.map(|shard| scope.spawn(move || drain(shard))).collect();
        own.into_iter().for_each(drain);
        for worker in workers {
            if let Err(payload) = worker.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// Builds the run's shared context and its shards: the shard partition with
/// its channel lookaheads, per-peer state (initial shares, neighbour Bloom
/// filters — and, for structured protocols, the bootstrapped DHT), and the
/// arrivals scheduled into their origin shards.
/// `static_overlay` says the run has no churn, i.e. overlay messages only
/// ever travel the initial overlay links.
fn prepare(
    sim: &Simulation,
    kind: ProtocolKind,
    arrivals: Vec<Arrival>,
    static_overlay: bool,
) -> (RunShared<'_>, Vec<ShardState>) {
    let config = sim.config();
    let (catalog, graph, loc_ids, gids) =
        (sim.catalog(), sim.overlay(), sim.loc_ids(), sim.group_ids());
    let protocol = crate::protocol::build_protocol(kind, config);

    // Static overlay-only runs only ever send along overlay links, so a
    // shard's lookahead is the minimum incoming cross-shard link latency;
    // churn can rewire any pair, and DHT traffic travels arbitrary peer
    // pairs from the start, so in either case every shard falls back to the
    // configured minimum pair latency (rounding to integer microseconds is
    // monotone, so the rounded configured minimum bounds every rounded pair
    // latency).
    let mut shard_count = config.effective_shards();
    let mut partition = PeerPartition::locality(loc_ids, shard_count);
    let mut channel_lookahead = if shard_count == 1 {
        vec![None]
    } else if static_overlay && !kind.uses_dht() {
        sim.link_latencies()
            .incoming_channel_mins(&partition.shard_of, shard_count)
    } else {
        vec![Some(Duration::from_millis_f64(config.min_latency_ms)); shard_count]
    };
    if shard_count > 1 && channel_lookahead.contains(&Some(Duration::ZERO)) {
        // A zero lookahead means some cross-shard message could land in
        // the very window that sent it (sub-microsecond latencies rounding
        // to zero) — and a shard whose bound never exceeds the frontier
        // could not even admit its own frontier event. No positive
        // lookahead exists, so parallel windows cannot be exact. Fall back
        // to a single shard — a pure scheduling change, results are
        // identical by the engine's shard-count-invariance contract.
        shard_count = 1;
        partition = PeerPartition::locality(loc_ids, 1);
        channel_lookahead = vec![None];
    }

    let mut shared = RunShared {
        config,
        topology: sim.topology(),
        link_latencies: sim.link_latencies(),
        loc_ids,
        group_ids: gids,
        catalog,
        keyword_hashes: catalog.keyword_hashes().clone(),
        scheme: GroupScheme::new(config.group_count),
        // The base workload stream seeds only the generator's one-time
        // popularity permutation; per-query draws come from streams derived
        // per arrival index, so they are independent of processing order.
        query_generator: QueryGenerator::new(
            catalog,
            locaware_workload::QueryWorkloadConfig {
                zipf_exponent: config.zipf_exponent,
                min_keywords: config.min_query_keywords,
                max_keywords: config.max_query_keywords,
            },
            &mut sim.rng_factory().stream(StreamId::QueryWorkload),
        ),
        rng_factory: *sim.rng_factory(),
        partition,
        dht: kind
            .uses_dht()
            .then(|| DhtDirectory::new(sim.rng_factory(), config.peers)),
        channel_lookahead,
        faults: FaultPlan::new(&config.faults, sim.rng_factory()),
        event_bound: config.horizon().event_bound(arrivals.last().map_or(SimTime::ZERO, |a| a.at)),
        published_keywords: arrivals.iter().map(|_| OnceLock::new()).collect(),
        initial_file_replicas: 0,
        arrivals,
        protocol,
    };
    let protocol = &*shared.protocol;

    let bloom_params = BloomParams::new(config.bloom_bits, config.bloom_hashes);
    let max_providers = protocol.max_providers_per_file();
    let new_peer = |id: PeerId| {
        let mut state = PeerState::new(
            id,
            loc_ids[id.index()],
            bloom_params,
            config.response_index_capacity,
            max_providers,
            shared.keyword_hashes.clone(),
        );
        for &file in &sim.initial_shares()[id.index()] {
            state.share_file(file, catalog.filename(file).keywords());
        }
        if protocol.uses_bloom_sync() {
            // §5.2: Bloom routing must not miss results held by neighbours,
            // so a peer's filter also covers the filenames it stores itself.
            state.advertise_stored_files(catalog);
        }
        state
    };
    // Every shard owns a contiguous run of the locality rank order, and a
    // peer's slot is its position within that run.
    let mut members = locality_rank_order(loc_ids).into_iter().map(PeerId);
    let mut shards: Vec<ShardState> = (shared.partition.sizes.iter().enumerate())
        .map(|(index, &size)| {
            let peers = members.by_ref().take(size).map(new_peer).collect();
            ShardState::new(index as u32, shard_count, peers, shared.arrivals.len())
        })
        .collect();
    shared.initial_file_replicas =
        shards.iter().flat_map(|s| &s.peers).map(PeerState::shared_file_count).sum();

    if shared.protocol.uses_bloom_sync() {
        unstructured::bootstrap(&shared, graph, &mut shards);
    }
    if let Some(directory) = &shared.dht {
        dht::bootstrap(&shared, directory, graph, &mut shards);
    }
    for (index, arrival) in shared.arrivals.iter().enumerate() {
        let origin = PeerId(arrival.peer as u32);
        shards[shared.partition.shard(origin)]
            .queue
            .push(issue_key(arrival.at, index), ShardEvent::Issue(index as u32));
    }
    (shared, shards)
}

fn finalize(
    shared: &RunShared<'_>,
    shards: &mut [ShardState],
    coordinator: &Coordinator<'_>,
) -> SimulationReport {
    let mut totals = Tallies::new();
    for shard in shards.iter() {
        totals.merge(&shard.tallies);
    }
    // Route state lives exactly as long as its query: a run that drained its
    // queues completed every query, so every table is back on a spare list.
    assert!(
        shards.iter().all(|s| s.routes.live() == 0),
        "route state outlived its query: {:?} tables still held per shard",
        shards.iter().map(|s| s.routes.live()).collect::<Vec<_>>()
    );

    // Per-query merge: the record lives in the origin shard's tracking,
    // filled there; per-query message counts are summed across shards; the
    // first local match is the canonical-key minimum across shards. Arrival
    // index order is issue order (arrivals are time-sorted, canonical keys
    // tie-break by index), so a record's position is its query's ordinal.
    let mut metrics = Vec::new();
    let mut lookups = 0u64;
    let mut lookup_depth_total = 0u64;
    for (index, arrival) in shared.arrivals.iter().enumerate() {
        let origin_shard = shared.partition.shard(PeerId(arrival.peer as u32));
        let tracking = shards[origin_shard].tracking.remove(&(index as u32));
        // A keyword record exists exactly for the queries issued through the
        // unstructured family: none for a skipped arrival or a DHT lookup.
        debug_assert_eq!(
            shared.published_keywords[index].get().is_some(),
            tracking.as_ref().is_some_and(|t| matches!(t.search, Search::Flood)),
            "arrival {index}: keyword record vs family"
        );
        let Some(tracking) = tracking else {
            continue;
        };
        if let Search::Dht { depth, .. } = tracking.search {
            lookups += 1;
            lookup_depth_total += u64::from(depth);
        }
        let mut record = tracking.record;
        record.messages = shards.iter().map(|s| s.ledger.messages(index)).sum();
        let hit = shards.iter().filter_map(|s| s.ledger.hit(index)).min_by_key(|h| h.key);
        record.hops_to_hit = hit.map(|h| h.hops);
        record.answered_from_cache = hit.is_some_and(|h| h.from_cache);
        metrics.push(record);
    }

    let all_peers = || shards.iter().flat_map(|s| s.peers.iter());
    let total_file_replicas = all_peers().map(|p| p.shared_file_count()).sum();
    // A satisfied query downloads a file its origin did not hold (`satisfy`
    // refuses one it does), and nothing else adds or removes a replica.
    debug_assert_eq!(
        total_file_replicas,
        shared.initial_file_replicas + metrics.iter().filter(|r| r.is_success()).count(),
        "one new replica per satisfied query"
    );
    let faults = (!shared.config.faults.is_disabled()).then_some(FaultRunStats {
        messages_lost: totals.messages_lost,
        dht_stores_lost: totals.dht_stores_lost,
        query_timeouts: totals.query_timeouts,
        query_retransmits: totals.query_retransmits,
        dht_step_timeouts: totals.dht_step_timeouts,
        crash_departures: coordinator.crash_departures,
    });
    let end_time = shards
        .iter()
        .filter_map(|s| s.last_key.map(|key| key.time))
        .chain(std::iter::once(coordinator.control_end_time))
        .max()
        .unwrap_or(SimTime::ZERO);

    SimulationReport {
        protocol: shared.protocol.kind(),
        queries_issued: totals.queries_issued,
        metrics,
        message_counters: labelled_counters(&MESSAGE_KINDS, &totals.message_counts),
        routing_decisions: labelled_counters(&FORWARD_DECISIONS, &totals.decision_counts),
        background_messages: totals.background_messages,
        total_file_replicas,
        total_cached_index_entries: all_peers().map(|p| p.response_index.len()).sum(),
        simulated_end_time_secs: end_time.as_secs_f64(),
        dispatched_events: coordinator.dispatched(shards),
        dht: shared
            .dht
            .is_some()
            .then(|| dht::run_stats(all_peers(), lookups, lookup_depth_total, &totals)),
        faults,
    }
}

/// The serial half of the sharded run: window planning, barrier merges and
/// global transitions.
struct Coordinator<'c> {
    /// The live overlay graph, whose departed set is the run's record of who
    /// is online: written only by the churn transition, lent read-only to
    /// every window drain.
    graph: OverlayGraph,
    /// The global transitions still to run, derived one key at a time.
    schedule: ControlSchedule<'c>,
    churn_rng: StdRng,
    controls_dispatched: u64,
    control_end_time: SimTime,
    /// The coordinator's half of the query lifecycle — `Some` exactly when
    /// the run has several shards: one shard completes every query inline
    /// and has no barrier to fold at.
    lifecycle: Option<LifecycleFold>,
    /// Scratch: per-shard window bounds planned for the current window.
    bounds: Vec<EventKey>,
    /// The run's profile as far as the coordinator counts it — windows and
    /// the critical path; [`Coordinator::into_profile`] adds what the
    /// shards hold.
    profile: RunProfile,
    /// Per-shard dispatch counts at the last barrier.
    prev_dispatched: Vec<u64>,
    /// Events the previous window dispatched outside its busiest shard —
    /// what [`Coordinator::drive`] holds against its threshold.
    prev_offloaded: u64,
    /// Churn departures the fault plan turned into crash-stops (no goodbyes).
    crash_departures: u64,
}

/// The run's global transitions — Bloom-sync rounds, DHT republish rounds and
/// churn — derived one key at a time: each source yields increasing keys of
/// a class of its own, so the least next key is the next control, and the
/// key names its source (for churn, its index in the schedule).
struct ControlSchedule<'c> {
    /// The next round of each periodic source with its period; `None` once
    /// past `horizon`, or for a source the run lacks.
    rounds: [Option<(EventKey, Duration)>; 2],
    horizon: SimTime,
    event_bound: SimTime,
    churn: &'c [ChurnEvent],
    next_churn: usize,
}

impl<'c> ControlSchedule<'c> {
    /// A source `(period, class)` fires every period from the first full one
    /// up to `horizon`; `churn` is sorted by `(at, peer)`, as `churn::schedule` sorts it.
    fn new(
        periodic: [Option<(Duration, u8)>; 2],
        horizon: SimTime,
        event_bound: SimTime,
        churn: &'c [ChurnEvent],
    ) -> Self {
        debug_assert!(churn.is_sorted_by_key(|e| (e.at, e.peer)), "churn schedule out of order");
        let rounds = periodic.map(|source| {
            let (period, class) = source?;
            debug_assert!(period > Duration::ZERO, "validated periods are positive");
            let first = SimTime::ZERO + period;
            (first <= horizon).then_some((EventKey::new(first, class, 0, 0), period))
        });
        ControlSchedule { rounds, horizon, event_bound, churn, next_churn: 0 }
    }

    /// The next control's key; `None` once every source is exhausted.
    fn peek(&self) -> Option<EventKey> {
        let churn = (self.churn.get(self.next_churn))
            .map(|e| EventKey::new(e.at, CLASS_CHURN, self.next_churn as u64, 0));
        self.rounds.iter().flatten().map(|&(key, _)| key).chain(churn).min()
    }

    /// Moves past `key`, the key [`ControlSchedule::peek`] returned: a round's
    /// successor is one period on, while within `horizon`.
    fn advance(&mut self, key: EventKey) {
        self.next_churn += usize::from(key.class == CLASS_CHURN);
        for slot in &mut self.rounds {
            if let Some((_, period)) = slot.filter(|&(next, _)| next == key) {
                let t = key.time + period;
                debug_assert!(t <= self.event_bound, "round {t:?} past the run's {:?}", self.event_bound);
                *slot = (t <= self.horizon).then_some((EventKey::new(t, key.class, key.a + 1, 0), period));
            }
        }
    }
}

impl<'c> Coordinator<'c> {
    fn new(
        shared: &RunShared<'_>,
        graph: OverlayGraph,
        churn_schedule: &'c [ChurnEvent],
        shard_count: usize,
    ) -> Self {
        // Rounds outlast the workload by a drain margin for late responses.
        let periodic = [
            (shared.protocol.uses_bloom_sync(), shared.config.bloom_sync_period_secs, CLASS_BLOOM_SYNC),
            (shared.dht.is_some(), shared.config.dht.republish_period_secs, CLASS_DHT_REPUBLISH),
        ]
        .map(|(on, secs, class)| on.then(|| (Duration::from_secs_f64(secs), class)));
        let horizon = shared.arrivals.last().map_or(SimTime::ZERO, |a| a.at) + CONTROL_DRAIN;
        Coordinator {
            graph,
            schedule: ControlSchedule::new(periodic, horizon, shared.event_bound, churn_schedule),
            churn_rng: shared.rng_factory.stream(StreamId::Churn),
            controls_dispatched: 0,
            control_end_time: SimTime::ZERO,
            lifecycle: (shard_count > 1)
                .then(|| LifecycleFold::new(&shared.arrivals, &shared.partition)),
            bounds: vec![EventKey::MAX; shard_count],
            profile: RunProfile {
                shards: shard_count,
                lookahead_us: (shared.channel_lookahead.iter())
                    .map(|w| w.map_or(0, Duration::as_micros))
                    .collect(),
                ..RunProfile::default()
            },
            prev_dispatched: vec![0; shard_count],
            prev_offloaded: 0,
            crash_departures: 0,
        }
    }

    /// Events dispatched so far: the coordinator's controls plus every
    /// shard's own.
    fn dispatched(&self, shards: &[ShardState]) -> u64 {
        self.controls_dispatched + shards.iter().map(|s| s.dispatched).sum::<u64>()
    }

    /// The main loop: alternate window drains and serial control steps until
    /// every queue is empty and the control schedule is exhausted.
    fn drive(
        &mut self,
        shared: &RunShared<'_>,
        shards: &mut [ShardState],
        parallel_min_offloaded: u64,
    ) {
        loop {
            let next_event: Option<EventKey> =
                shards.iter().filter_map(|s| s.queue.peek_key()).min();
            let next_control = self.schedule.peek();
            if let Some(lifecycle) = &mut self.lifecycle {
                // Every event strictly below the global frontier has been
                // processed (outboxes are merged), so the ledgers sum to the
                // exact counts, and a completion whose key the frontier has
                // passed is safe to apply: no pending issue can still order
                // before it. An escaped query left route state in other
                // shards too; its count is zero, so none is asked again.
                let mut ledgers: Vec<_> = shards.iter_mut().map(|s| &mut s.ledger).collect();
                lifecycle.fold(&mut ledgers);
                let frontier = next_event.unwrap_or(EventKey::MAX);
                lifecycle.take_ready_prunes(frontier, |index, origin_shard, at| {
                    shards[origin_shard].complete_locally(shared, index, at);
                    shards.iter_mut().for_each(|shard| shard.routes.complete(index));
                });
            }

            match (next_event, next_control) {
                (event, Some(control)) if event.is_none_or(|e| control < e) => {
                    self.run_control(shared, shards, control);
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
                    let lifecycle = self.lifecycle.as_mut();
                    let capped = lifecycle.is_some_and(|l| l.cap_bounds(&mut self.bounds, event));
                    for (shard, &bound) in shards.iter_mut().zip(&self.bounds) {
                        shard.window_bound = bound;
                    }
                    // Windows whose pending events all sit in one shard gain
                    // nothing from threads — sparse stretches of a run, where
                    // a whole query burst fits inside one locality, cost no
                    // spawn under any threshold — and neither do windows too
                    // small to repay one.
                    let active = shards.iter().filter(|s| s.has_work()).count();
                    let parallel = active > 1 && self.prev_offloaded >= parallel_min_offloaded;
                    let graph = &self.graph;
                    drain_window(shards, parallel, |shard| shard.drain(shared, graph));
                    merge_outboxes(shards);
                    // Critical-path accounting: a window's parallel phase is
                    // as slow as its busiest shard.
                    let profile = &mut self.profile;
                    profile.windows += 1;
                    profile.engaged_windows += u64::from(active > 1);
                    profile.parallel_windows += u64::from(parallel);
                    profile.capped_windows += u64::from(capped);
                    let (mut busiest, mut total) = (0u64, 0u64);
                    for (shard, prev) in shards.iter().zip(&mut self.prev_dispatched) {
                        let delta = shard.dispatched - *prev;
                        *prev = shard.dispatched;
                        busiest = busiest.max(delta);
                        total += delta;
                    }
                    profile.critical_path_events += busiest;
                    self.prev_offloaded = total - busiest;
                }
                (None, _) => break, // The first arm takes every `(None, Some)`.
            }
        }
    }

    /// Handles one control transition (everything strictly before its
    /// canonical key has already drained).
    fn run_control(&mut self, shared: &RunShared<'_>, shards: &mut [ShardState], key: EventKey) {
        self.schedule.advance(key);
        self.controls_dispatched += 1;
        self.profile.critical_path_events += 1; // Controls are inherently serial.
        self.control_end_time = key.time;
        match key.class {
            CLASS_BLOOM_SYNC => unstructured::sync(shared, shards, &self.graph, key.time),
            CLASS_DHT_REPUBLISH => {
                if let Some(directory) = &shared.dht {
                    dht::republish(shared, directory, shards, &self.graph, key.time, false);
                }
            }
            _ => {
                self.apply_churn(shared, shards, self.schedule.churn[key.a as usize]);
                if cfg!(debug_assertions) {
                    assert_adjacency(shards, &self.graph);
                }
            }
        }
        // Control transitions may send (Bloom deltas); merge immediately so
        // the next window-planning pass sees them in the destination queues.
        // Every shard has drained past `key`, so it is the merge floor.
        for shard in shards.iter_mut() {
            shard.window_bound = key;
        }
        merge_outboxes(shards);
    }

    /// The run's profile: the coordinator's window and critical-path counts
    /// plus what the shards' event queues, route tables and tallies saw.
    fn into_profile(self, shards: &[ShardState]) -> RunProfile {
        let queues = || shards.iter().map(|s| s.queue.stats());
        let routes = || shards.iter().map(|s| &s.routes);
        let tallies = || shards.iter().map(|s| &s.tallies);
        RunProfile {
            events: self.dispatched(shards),
            queue_ring: queues().map(|q| q.ring_pushes).sum(),
            queue_fallback: queues().map(|q| q.fallback_pushes).sum(),
            queue_peak: queues().map(|q| q.peak_len).max().unwrap_or(0),
            routes_peak: routes().map(|r| r.peak()).max().unwrap_or(0),
            routes_live: routes().map(|r| r.live()).sum(),
            storage_walks: tallies().map(|t| t.storage_walks).sum(),
            storage_skips: tallies().map(|t| t.storage_skips).sum(),
            ..self.profile
        }
    }

    /// One churn transition, mutating the graph and the affected peers
    /// (possibly across several shards).
    fn apply_churn(&mut self, shared: &RunShared<'_>, shards: &mut [ShardState], event: ChurnEvent) {
        let peer = event.peer;
        if peer.index() >= shared.config.peers {
            return;
        }
        let graph = &mut self.graph;
        match event.kind {
            ChurnEventKind::Leave => {
                if !graph.is_active(peer) {
                    return;
                }
                // Either way the peer leaves, its links go: the graph drops
                // every edge, and the neighbour filters held across them go
                // too. What a crash-stop withholds is what other peers would
                // learn from a goodbye: DHT routing tables keep the ghost
                // until lookup filters or step timeouts catch up. Cached
                // index entries naming the departed provider stay in both
                // modes: the paper invalidates lazily, filtering departed
                // providers at selection time (§4.1.2). In-flight messages
                // to the peer are consumed as lost by the ordinary
                // offline-receiver rule.
                for n in graph.depart(peer) {
                    peer_mut(shared, shards, n).drop_neighbor_bloom(peer);
                    peer_mut(shared, shards, peer).drop_neighbor_bloom(n);
                }
                if shared.faults.as_ref().is_some_and(|f| f.crash_stop) {
                    self.crash_departures += 1;
                } else if shared.dht.is_some() {
                    // Serially at the churn barrier in peer-id order, so it
                    // is part of the canonical event order.
                    for other in graph.active_peers() {
                        dht::on_leave(peer_mut(shared, shards, other), peer);
                    }
                }
            }
            ChurnEventKind::Join => {
                if graph.is_active(peer) {
                    return;
                }
                // Re-wire to `average_degree` random online peers, drawn
                // while the peer itself is still offline.
                let degree = shared.config.average_degree.round() as usize;
                let candidates = graph.active_count();
                for _ in 0..degree.max(1) {
                    if candidates == 0 {
                        break;
                    }
                    let Some(pick) = graph.nth_active(self.churn_rng.gen_range(0..candidates)) else {
                        break;
                    };
                    graph.add_edge(peer, pick);
                }
                graph.rejoin(peer);
                // Caches are volatile; route-table sightings are not, so
                // reverse paths stay trees (`QueryRoutes`).
                peer_mut(shared, shards, peer).reset_volatile_state();
                unstructured::on_join(shared, shards, graph, event.at, peer);
                if let Some(directory) = &shared.dht {
                    dht::on_join(shared, directory, shards, graph, peer);
                }
            }
        }
    }
}

/// The churn barrier's adjacency invariants, checked in debug builds: every
/// graph row is sorted, symmetric and holds only online peers, and every
/// neighbour filter a peer holds has an edge behind it and a current fold.
fn assert_adjacency(shards: &[ShardState], graph: &OverlayGraph) {
    for peer in shards.iter().flat_map(|shard| &shard.peers) {
        let (id, row) = (peer.id, graph.neighbors(peer.id));
        assert!(row.is_sorted_by(|a, b| a < b), "{id:?}'s row is not strictly sorted");
        for &n in row {
            assert!(graph.is_active(id) && graph.is_active(n), "edge {id:?}-{n:?} touches a departed peer");
            assert!(graph.are_neighbors(n, id), "edge {id:?}-{n:?} is one-sided");
        }
        for view in peer.bloom_views() {
            let n = view.neighbor();
            assert!(graph.are_neighbors(id, n), "{id:?} holds a view of {n:?} with no edge behind it");
            assert_eq!(view.fold(), view.bloom().fold(), "{id:?}'s view of {n:?} holds a stale fold");
        }
    }
}

/// The state of `peer`, wherever the partition put it.
fn peer_mut<'g>(
    shared: &RunShared<'_>,
    shards: &'g mut [ShardState],
    peer: PeerId,
) -> &'g mut PeerState {
    &mut shards[shared.partition.shard(peer)].peers[shared.partition.slot(peer)]
}

/// Moves every outboxed cross-shard delivery into its destination queue. The
/// canonical keys were fixed at send time and are never below the
/// *destination's* window bound just drained (the incoming-channel lookahead
/// guarantee), so this is a plain batch of queue pushes. Each bucket is
/// drained in place, so its capacity survives the barrier.
fn merge_outboxes(shards: &mut [ShardState]) {
    for source in 0..shards.len() {
        for destination in 0..shards.len() {
            let mut bucket = std::mem::take(&mut shards[source].outboxes[destination]);
            for (key, event) in bucket.drain(..) {
                debug_assert!(
                    key >= shards[destination].window_bound,
                    "cross-shard delivery {key:?} would land inside the destination window bounded by {:?}",
                    shards[destination].window_bound
                );
                shards[destination].queue.push(key, event);
            }
            shards[source].outboxes[destination] = bucket;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scenario;

    /// One run of `kind` over the faulty-network preset with churn-storm
    /// churn on top: loss, an outage window, both deadline kinds and join /
    /// leave transitions all fire.
    fn run_at(
        kind: ProtocolKind,
        shards: usize,
        parallel_min_offloaded: u64,
    ) -> (Vec<u8>, RunProfile) {
        let mut config = Scenario::faulty_network(120).config().clone();
        config.churn = Scenario::churn_storm(120).config().churn;
        config.shards = shards;
        let sim = Simulation::try_build(config).expect("test configuration validates");
        let arrivals = sim.arrivals(100);
        let churn = sim.churn_schedule(&arrivals);
        assert!(!churn.is_empty(), "the run must cross churn transitions");
        let (report, profile) = run_with(&sim, kind, arrivals, &churn, parallel_min_offloaded);
        (report.canonical_bytes(), profile)
    }

    #[test]
    fn both_executor_branches_and_a_single_shard_give_the_same_report() {
        for kind in ProtocolKind::ALL {
            let (inline, profile) = run_at(kind, 4, u64::MAX);
            assert_eq!(profile.parallel_windows, 0, "{kind:?}: never threads");
            let (threaded, profile) = run_at(kind, 4, 0);
            assert!(profile.engaged_windows > 0, "{kind:?}: no window had two active shards");
            assert_eq!(profile.parallel_windows, profile.engaged_windows, "{kind:?}: always threads");
            assert_eq!(inline, threaded, "{kind:?}: threaded");
            assert_eq!(inline, run_at(kind, 1, u64::MAX).0, "{kind:?}: one shard");
        }
    }

    /// One shard completes every query inline: there is no fold to build.
    #[test]
    fn only_a_run_with_several_shards_builds_a_lifecycle_fold() {
        for (shards, folded) in [(1, false), (2, true)] {
            let mut config = crate::config::SimulationConfig::small(40);
            config.shards = shards;
            let sim = Simulation::try_build(config).expect("test configuration validates");
            let (shared, states) = prepare(&sim, ProtocolKind::Flooding, sim.arrivals(3), true);
            let coordinator = Coordinator::new(&shared, sim.overlay().clone(), &[], states.len());
            assert_eq!((states.len(), coordinator.lifecycle.is_some()), (shards, folded));
        }
    }

    /// The control schedule as the engine once stored it: every round of each
    /// periodic source pushed up front, the churn schedule appended and the
    /// whole sorted. Each entry is a key and, for churn, its event.
    fn eager_control_schedule(
        periodic: [Option<(Duration, u8)>; 2],
        horizon: SimTime,
        churn: &[ChurnEvent],
    ) -> Vec<(EventKey, Option<ChurnEvent>)> {
        let mut control = Vec::new();
        for (period, class) in periodic.into_iter().flatten() {
            let mut t = SimTime::ZERO + period;
            let mut round = 0u64;
            while t <= horizon {
                control.push((EventKey::new(t, class, round, 0), None));
                round += 1;
                t += period;
            }
        }
        control.extend(churn.iter().enumerate().map(|(i, &event)| {
            (EventKey::new(event.at, CLASS_CHURN, i as u64, 0), Some(event))
        }));
        control.sort_by_key(|&(key, _)| key);
        control
    }

    proptest::proptest! {
        /// Either periodic source on or off, periods of 1 µs to past the
        /// horizon (equal periods half the time when both are on, so rounds
        /// of both classes tie), horizons one tick either side of an exact
        /// multiple of the first period, and 0–40 churn events, many at a
        /// round's exact time: the derived schedule yields the eager model's
        /// keys in its order, and every churn key resolves to its event.
        #[test]
        fn control_schedule_matches_the_eager_model(
            sources in 0u8..4,
            period_us in 1u64..200,
            other_us in 0u64..2 * 8_000,
            multiple in 0u64..40,
            offset in 0u64..3,
            churn in proptest::collection::vec((0u8..3, 0u64..45, 0u32..8), 0..41),
        ) {
            let period = Duration::from_micros(period_us);
            let other = match other_us % 2 {
                0 => period,
                _ => Duration::from_micros(other_us / 2 + 1),
            };
            let horizon = SimTime::from_micros((multiple * period_us + offset).saturating_sub(1));
            let periodic = [
                (sources & 1 != 0).then_some((period, CLASS_BLOOM_SYNC)),
                (sources & 2 != 0).then_some((other, CLASS_DHT_REPUBLISH)),
            ];
            let mut churn: Vec<ChurnEvent> = (churn.into_iter())
                .map(|(at, n, peer)| ChurnEvent {
                    at: SimTime::from_micros(n * [period_us, other.as_micros(), 211][usize::from(at)]),
                    peer: PeerId(peer),
                    kind: if n % 2 == 0 { ChurnEventKind::Leave } else { ChurnEventKind::Join },
                })
                .collect();
            churn.sort_by_key(|e| (e.at, e.peer));

            let bound = horizon + period.max(other);
            let mut schedule = ControlSchedule::new(periodic, horizon, bound, &churn);
            let derived: Vec<_> = std::iter::from_fn(|| {
                let key = schedule.peek()?;
                schedule.advance(key);
                Some((key, (key.class == CLASS_CHURN).then(|| schedule.churn[key.a as usize])))
            })
            .collect();
            proptest::prop_assert_eq!(derived, eager_control_schedule(periodic, horizon, &churn));
        }
    }

    /// Up to the paper's three keywords are held inline, a longer list
    /// boxed; either way the record reads back as it was published.
    #[test]
    fn published_keywords_read_back_inline_or_boxed() {
        for len in 0..=PAPER_KEYWORDS_PER_FILE + 2 {
            let keywords: Vec<KeywordId> = (0..len as u32).map(|k| KeywordId(10 + k)).collect();
            let published = PublishedKeywords::new(keywords.clone());
            let inline = matches!(published, PublishedKeywords::Inline(..));
            assert_eq!(inline, len <= PAPER_KEYWORDS_PER_FILE, "{len} keywords");
            assert_eq!(published.as_slice(), &keywords[..]);
        }
    }

    /// Not a hang, and not the scope's generic "a scoped thread panicked".
    #[test]
    #[should_panic(expected = "shard 2 failed")]
    fn a_worker_panic_reaches_the_caller_with_its_payload() {
        let mut shards: Vec<ShardState> =
            (0..3).map(|index| ShardState::new(index, 3, Vec::new(), 1)).collect();
        for shard in &mut shards {
            shard.queue.push(issue_key(SimTime::ZERO, 0), ShardEvent::Issue(0));
        }
        drain_window(&mut shards, true, |shard| {
            assert_ne!(shard.shard, 2, "shard {} failed", shard.shard);
        });
    }
}
