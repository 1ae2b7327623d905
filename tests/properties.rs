//! Property-based tests (proptest) over the core data structures and
//! invariants of the reproduction.
//!
//! These complement the unit tests in each crate by exploring randomised
//! inputs: Bloom filters never produce false negatives and deltas round-trip,
//! locIds encode/decode bijectively, the Zipf sampler is a true distribution,
//! the response index never exceeds its capacities under arbitrary operation
//! sequences, overlay generation always yields connected graphs, and the
//! simulated-time arithmetic is well behaved.

use proptest::prelude::*;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use locaware::{PeerState, ProtocolKind, ResponseIndex, Scenario, SelectionPolicy, SimulationConfig};
use locaware_bloom::{BloomDelta, BloomFilter, BloomParams};
use locaware_net::{LandmarkSet, LocId, NodeId, PhysicalTopology};
use locaware_net::brite::{BriteConfig, BriteGenerator, PlacementModel};
use locaware_overlay::{
    DhtId, DhtRecordStore, GeneratorConfig, GraphModel, PeerId, ProviderEntry, QueryId,
    QueryRouter, QueryRoutes, RoutingTable, DHT_ID_BITS,
};
use locaware_sim::{Duration, EventKey, ShardQueue, SimTime};
use locaware_workload::{
    Arrival, ArrivalConfig, ArrivalProcess, ArrivalSchedule, ClusterWeights, FaultConfig, FileId,
    KeywordHashes, KeywordId, OutageWindow, TimeoutPolicy, ZipfDistribution,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The pre-PR-5 arrival generator, reproduced verbatim: one exponential draw
/// with mean `1/rate` (including the `f64::MIN_POSITIVE` clamp), one
/// `gen_range` origin draw per arrival, times accumulated via
/// `Duration::from_secs_f64`. The `Steady` schedule must match it bit for bit.
fn legacy_arrivals(peers: usize, rate_per_peer: f64, count: usize, seed: u64) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rate = peers as f64 * rate_per_peer;
    let mut now = SimTime::ZERO;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        now += Duration::from_secs_f64(-(1.0 / rate) * u.ln());
        out.push(Arrival {
            at: now,
            peer: rng.gen_range(0..peers),
        });
    }
    out
}

/// The burst generator before segments became constant-rate, reproduced
/// verbatim: segments with a linearly interpolated multiplier, and a hazard
/// inversion that solves a quadratic on a sloped segment. A burst's segments
/// are flat, so today's one-division inversion must match it bit for bit.
fn legacy_burst_arrivals(config: &ArrivalConfig, count: usize, seed: u64) -> Vec<Arrival> {
    struct Segment {
        start_secs: f64,
        end_secs: f64,
        multiplier_start: f64,
        multiplier_end: f64,
    }
    let ArrivalSchedule::Burst { multiplier, start_secs, duration_secs } = config.schedule else {
        panic!("legacy_burst_arrivals takes a burst");
    };
    let mut segments = Vec::new();
    if start_secs > 0.0 {
        segments.push(Segment {
            start_secs: 0.0,
            end_secs: start_secs,
            multiplier_start: 1.0,
            multiplier_end: 1.0,
        });
    }
    segments.push(Segment {
        start_secs,
        end_secs: start_secs + duration_secs,
        multiplier_start: multiplier,
        multiplier_end: multiplier,
    });
    let tail_multiplier = 1.0;
    let multiplier_at = |segment: &Segment, t: f64| {
        if segment.multiplier_start == segment.multiplier_end {
            segment.multiplier_start
        } else {
            let (start, end) = (segment.multiplier_start, segment.multiplier_end);
            let progress = (t - segment.start_secs) / (segment.end_secs - segment.start_secs);
            start + (end - start) * progress
        }
    };
    let invert_hazard = |mut t_secs: f64, mut hazard: f64, base_rate: f64, index: &mut usize| {
        while *index < segments.len() {
            let segment = &segments[*index];
            if t_secs >= segment.end_secs {
                *index += 1;
                continue;
            }
            let start = t_secs.max(segment.start_secs);
            let rate_here = base_rate * multiplier_at(segment, start);
            let rate_end = base_rate * segment.multiplier_end;
            let remaining = segment.end_secs - start;
            let hazard_to_end = 0.5 * (rate_here + rate_end) * remaining;
            if hazard <= hazard_to_end {
                let slope = base_rate
                    * ((segment.multiplier_end - segment.multiplier_start)
                        / (segment.end_secs - segment.start_secs));
                let step = if slope == 0.0 {
                    hazard / rate_here
                } else {
                    ((rate_here * rate_here + 2.0 * slope * hazard).sqrt() - rate_here) / slope
                };
                return start + step.min(remaining);
            }
            hazard -= hazard_to_end;
            t_secs = segment.end_secs;
            *index += 1;
        }
        let tail_rate = base_rate * tail_multiplier;
        t_secs + hazard / tail_rate
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let rate = config.aggregate_rate();
    let (mut t_secs, mut index) = (0.0f64, 0usize);
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        // A unit-mean exponential: `-1.0 * ln(u)` is exactly `-ln(u)`.
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        t_secs = invert_hazard(t_secs, -u.ln(), rate, &mut index);
        let peer = match &config.origin_weights {
            None => rng.gen_range(0..config.peers),
            Some(weights) => {
                let cluster = weights.sample_cluster(&mut rng);
                rng.gen_range(weights.peer_range(cluster, config.peers))
            }
        };
        out.push(Arrival { at: SimTime::ZERO + Duration::from_secs_f64(t_secs), peer });
    }
    out
}

/// The id that agrees with `base` on its `shared_bits` most significant bits,
/// differs from it at the next one and continues with `tail`'s bits — so its
/// XOR distance to `base` has its highest set bit exactly there. With all 160
/// bits shared it is `base` itself.
fn sharing_prefix(base: DhtId, shared_bits: usize, tail: DhtId) -> DhtId {
    let mut bytes = tail.0;
    for bit in 0..shared_bits.min(DHT_ID_BITS) {
        let mask = 0x80u8 >> (bit % 8);
        bytes[bit / 8] = bytes[bit / 8] & !mask | base.0[bit / 8] & mask;
    }
    if shared_bits < DHT_ID_BITS {
        let mask = 0x80u8 >> (shared_bits % 8);
        bytes[shared_bits / 8] = bytes[shared_bits / 8] & !mask | !base.0[shared_bits / 8] & mask;
    }
    DhtId(bytes)
}

proptest! {
    // ----------------------------------------------------------------- Bloom

    /// Anything inserted into a Bloom filter must be found again (no false
    /// negatives), for arbitrary keyword sets and filter shapes.
    #[test]
    fn bloom_filters_never_false_negative(
        keywords in proptest::collection::vec("[a-z]{1,12}", 1..80),
        bits in 64usize..4096,
        hashes in 1usize..8,
    ) {
        let mut filter = BloomFilter::new(BloomParams::new(bits, hashes));
        for kw in &keywords {
            filter.insert(kw);
        }
        for kw in &keywords {
            prop_assert!(filter.contains(kw), "inserted keyword {kw} not found");
        }
        prop_assert!(filter.contains_all(keywords.iter().map(|s| s.as_str())));
    }

    /// A delta computed between two filter snapshots exactly reconstructs the
    /// newer snapshot, and applying it twice is the identity.
    #[test]
    fn bloom_delta_round_trips(
        base in proptest::collection::vec("[a-z]{1,10}", 0..40),
        added in proptest::collection::vec("[a-z]{1,10}", 0..20),
    ) {
        let mut old = BloomFilter::paper_default();
        for kw in &base {
            old.insert(kw);
        }
        let mut new = old.clone();
        for kw in &added {
            new.insert(kw);
        }
        let delta = BloomDelta::between(&old, &new);
        prop_assert!(delta.len() <= added.len() * 5, "at most k bits flip per insertion");

        let mut reconstructed = old.clone();
        delta.apply(&mut reconstructed);
        prop_assert_eq!(&reconstructed, &new);
        delta.apply(&mut reconstructed);
        prop_assert_eq!(&reconstructed, &old);
    }

    // ----------------------------------------------------------------- locId

    /// Lehmer encoding of landmark orderings is a bijection onto [0, k!).
    #[test]
    fn locid_encoding_is_bijective(perm in (2usize..=6).prop_flat_map(|k| Just((0..k).collect::<Vec<usize>>()).prop_shuffle())) {
        let k = perm.len();
        let id = LocId::from_ordering(&perm);
        prop_assert!(id.value() < (1..=k as u32).product::<u32>());
        prop_assert_eq!(id.to_ordering(k), perm);
    }

    // ------------------------------------------------------------------ Zipf

    /// The Zipf sampler only returns valid ranks, its pmf sums to one and is
    /// non-increasing in rank.
    #[test]
    fn zipf_is_a_well_formed_distribution(
        n in 1usize..2000,
        exponent in 0.0f64..2.5,
        seed in any::<u64>(),
    ) {
        let zipf = ZipfDistribution::new(n, exponent);
        let total: f64 = (0..n).map(|r| zipf.pmf(r)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6, "pmf sums to {total}");
        for r in 1..n.min(50) {
            prop_assert!(zipf.pmf(r) <= zipf.pmf(r - 1) + 1e-12, "pmf must be non-increasing");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(zipf.sample(&mut rng) < n);
        }
    }

    // -------------------------------------------------------- response index

    /// Under arbitrary insertion sequences the response index never exceeds
    /// its filename capacity nor its per-file provider capacity, and every
    /// reported eviction refers to a file that is no longer cached.
    #[test]
    fn response_index_respects_capacities(
        capacity in 1usize..12,
        max_providers in 1usize..6,
        ops in proptest::collection::vec((0u32..30, 0u32..40, 0u32..24), 1..200),
    ) {
        let mut index = ResponseIndex::new(capacity, max_providers);
        for (file, provider, loc) in ops {
            let keywords = [KeywordId(file * 3), KeywordId(file * 3 + 1)];
            let evictions = index.insert(
                FileId(file),
                &keywords,
                [(PeerId(provider), LocId(loc))],
            );
            prop_assert!(index.len() <= capacity, "capacity exceeded");
            for entry in index.entries() {
                prop_assert!(entry.provider_count() <= max_providers, "provider cap exceeded");
            }
            for eviction in evictions {
                prop_assert!(!index.contains(eviction.file), "evicted file still present");
            }
            prop_assert!(index.contains(FileId(file)), "just-inserted file must be cached");
        }
    }

    // ----------------------------------------------------- arrival schedules

    /// Both schedule shapes produce exactly the requested number of
    /// arrivals, in non-decreasing time order, attributed to in-range peers,
    /// and deterministically per seed.
    #[test]
    fn arrival_schedules_generate_sorted_deterministic_arrivals(
        burst in any::<bool>(),
        multiplier in 0.2f64..8.0,
        duration_secs in 20.0f64..600.0,
        start_secs in 0.0f64..300.0,
        peers in 5usize..200,
        count in 1usize..250,
        seed in any::<u64>(),
    ) {
        let schedule = if burst {
            ArrivalSchedule::Burst { multiplier, start_secs, duration_secs }
        } else {
            ArrivalSchedule::Steady
        };
        let process = ArrivalProcess::new(ArrivalConfig {
            peers,
            rate_per_peer: 0.01,
            schedule,
            origin_weights: None,
        });
        let a = process.generate_count(count, &mut StdRng::seed_from_u64(seed));
        let b = process.generate_count(count, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(&a, &b, "same seed must replay identically");
        prop_assert_eq!(a.len(), count);
        for w in a.windows(2) {
            prop_assert!(w[0].at <= w[1].at, "arrival times must be non-decreasing");
        }
        for arrival in &a {
            prop_assert!(arrival.peer < peers);
        }
    }

    /// `Steady` (the omitted-schedule default) is *bit-for-bit* the legacy
    /// constant-rate generator: same RNG draws, same floating-point
    /// operations, same microsecond timestamps — the property that keeps
    /// every historical fingerprint valid.
    #[test]
    fn steady_schedule_matches_the_legacy_generator_bit_for_bit(
        peers in 1usize..500,
        rate in 0.0001f64..5.0,
        count in 0usize..250,
        seed in any::<u64>(),
    ) {
        let process = ArrivalProcess::new(ArrivalConfig {
            peers,
            rate_per_peer: rate,
            schedule: ArrivalSchedule::Steady,
            origin_weights: None,
        });
        let modern = process.generate_count(count, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(modern, legacy_arrivals(peers, rate, count, seed));
    }

    /// A burst is *bit-for-bit* the generator it replaced, whose segments
    /// carried a slope and whose inversion solved a quadratic on a sloped
    /// one: same RNG draws, same floating-point operations, same
    /// microsecond timestamps, with uniform and with cluster-weighted
    /// origins. This keeps the flash-crowd fingerprints valid. The per-peer
    /// rate is log-uniform over seven decades, so runs end in the lead-in,
    /// in the window and in the tail after it.
    #[test]
    fn burst_schedule_matches_the_legacy_generator_bit_for_bit(
        multiplier in 1e-3f64..50.0,
        start_secs in prop_oneof![Just(0.0f64), 0.0f64..3000.0],
        duration_secs in 1.0f64..5000.0,
        rate_decades in -7.0f64..0.0,
        peers in 1usize..500,
        count in 0usize..400,
        weighted in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let config = ArrivalConfig {
            peers,
            rate_per_peer: 10f64.powf(rate_decades),
            schedule: ArrivalSchedule::Burst { multiplier, start_secs, duration_secs },
            origin_weights: (weighted && peers >= 2)
                .then(|| ClusterWeights::new(vec![3.0, 1.0]).expect("two positive weights")),
        };
        let process = ArrivalProcess::new(config.clone());
        let modern = process.generate_count(count, &mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(modern, legacy_burst_arrivals(&config, count, seed));
    }

    // ----------------------------------------------------------- overlay gen

    /// Random overlay generation always yields a connected graph with roughly
    /// the requested average degree, for any seed and population size.
    #[test]
    fn generated_overlays_are_connected(
        peers in 2usize..300,
        seed in any::<u64>(),
    ) {
        let config = GeneratorConfig {
            peers,
            average_degree: 3.0f64.min(peers as f64 - 1.0),
            model: GraphModel::Random,
        };
        let graph = config.generate(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(graph.len(), peers);
        prop_assert!(graph.is_connected(), "overlay must be connected");
    }

    // ------------------------------------------------------------- selection

    /// Provider selection always returns one of the offered providers, and the
    /// locality-aware policy returns a same-locId provider whenever one exists.
    #[test]
    fn provider_selection_picks_from_the_offer(
        offered_ids in proptest::collection::vec(1u32..50, 1..8),
        locs in proptest::collection::vec(0u32..24, 8),
        requestor_loc in 0u32..24,
        seed in any::<u64>(),
    ) {
        let topology = BriteGenerator::new(BriteConfig {
            nodes: 50,
            ..BriteConfig::default()
        })
        .generate(&mut StdRng::seed_from_u64(1));

        let offered: Vec<ProviderEntry> = offered_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| ProviderEntry {
                provider: PeerId(id),
                loc_id: LocId(locs[i % locs.len()]),
            })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for policy in [SelectionPolicy::Random, SelectionPolicy::LocalityThenRtt] {
            let selected = locaware::select_provider(
                policy,
                &topology,
                &locaware::LinkLatencyCache::empty(topology.len()),
                NodeId(0),
                LocId(requestor_loc),
                &offered,
                &mut rng,
            )
            .expect("non-empty offer must select something");
            prop_assert!(offered.iter().any(|p| p.provider == selected.provider));
            if policy == SelectionPolicy::LocalityThenRtt
                && offered.iter().any(|p| p.loc_id == LocId(requestor_loc))
            {
                prop_assert!(selected.locality_match, "must prefer the same-locality provider");
                prop_assert_eq!(selected.loc_id, LocId(requestor_loc));
            }
        }
    }

    // ------------------------------------------------------------- sim time

    /// Simulated-time arithmetic is consistent: ordering matches microsecond
    /// values and addition/subtraction round-trip.
    #[test]
    fn sim_time_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, b in 0u64..u64::MAX / 4) {
        let ta = SimTime::from_micros(a);
        let tb = SimTime::from_micros(b);
        prop_assert_eq!(ta < tb, a < b);
        let d = Duration::from_micros(b);
        prop_assert_eq!((ta + d) - ta, d);
        prop_assert_eq!(ta.duration_since(ta + d), Duration::ZERO);
    }

    // ------------------------------------------------------- query lifecycle

    /// The exact query lifecycle is shard-invariant. Random `Burst` schedules
    /// compress arrivals into dense windows — the regime that stresses the
    /// sharded engine's lifecycle machinery hardest: barrier folds of
    /// outstanding-message flux, deferred duplicate-map prunes and the window
    /// caps that hold back issues racing their own completion. A 1-shard and
    /// a 4-shard run of the same substrate must agree on every per-query
    /// record — in particular the completion times (all `Some`: every run
    /// drains every query) and the duplicate-suppression
    /// decisions (each query's target redraws depend on the pruned `issued`
    /// map, so a mistimed prune changes targets, messages and outcomes).
    #[test]
    fn query_lifecycle_is_shard_invariant_under_bursts(
        peers in 40usize..=60,
        multiplier in 1.5f64..40.0,
        start_secs in 0.0f64..2000.0,
        duration_secs in 50.0f64..2000.0,
        queries in 8usize..=30,
        seed in any::<u64>(),
    ) {
        let mut config = SimulationConfig::small(peers);
        config.seed = seed;
        config.arrival_schedule = ArrivalSchedule::Burst { multiplier, start_secs, duration_secs };
        let run = |shards: usize| {
            let mut config = config.clone();
            config.shards = shards;
            Scenario::from_config("burst-lifecycle", config)
                .expect("a burst over SimulationConfig::small is well formed")
                .substrate()
                .run(ProtocolKind::Locaware, queries)
        };
        let single = run(1);
        let sharded = run(4);
        prop_assert_eq!(single.metrics, sharded.metrics);
        prop_assert_eq!(single.fingerprint(), sharded.fingerprint());
        for (index, record) in single.metrics.iter().enumerate() {
            prop_assert!(record.completion_time_ms.is_some(), "query {index} has no completion time");
        }
    }

    /// The fault axis obeys the same contract as every other knob: any
    /// validated fault plan — loss coins, outage windows, crash-stop churn,
    /// retransmit deadlines and DHT step timeouts in arbitrary combination —
    /// produces byte-identical reports for 1 and 4 shards, every query still
    /// receives an exact completion event (lost messages *consume*, armed
    /// deadlines are lifecycle-charged), and a plan whose axes are all
    /// disabled reports no fault stats at all (so fault-free runs keep their
    /// pinned golden fingerprints, which `tests/determinism.rs` asserts
    /// against literals).
    #[test]
    fn fault_plans_are_deterministic_and_shard_invariant(
        peers in 40usize..=56,
        loss in prop_oneof![Just(0.0f64), 0.005f64..0.25],
        outage in proptest::option::weighted(0.6, (0.0f64..1500.0, 50.0f64..800.0, 0.05f64..1.0)),
        crash_stop in any::<bool>(),
        timeout_initial in prop_oneof![Just(0.0f64), 1.0f64..12.0],
        backoff in 1.0f64..3.0,
        max_retries in 0u32..3,
        step_timeout in prop_oneof![Just(0.0f64), 0.5f64..6.0],
        structured in any::<bool>(),
        queries in 8usize..=24,
        seed in any::<u64>(),
    ) {
        let mut config = SimulationConfig::small(peers);
        config.seed = seed;
        config.faults = FaultConfig {
            message_loss: loss,
            outages: outage
                .map(|(start_secs, duration_secs, fraction)| {
                    vec![OutageWindow { start_secs, duration_secs, fraction }]
                })
                .unwrap_or_default(),
            crash_stop,
            query_timeout: TimeoutPolicy {
                initial_secs: timeout_initial,
                backoff,
                max_retries,
            },
            dht_step_timeout_secs: step_timeout,
        };
        let armed = !config.faults.is_disabled();
        let protocol = if structured { ProtocolKind::DhtIndex } else { ProtocolKind::Locaware };
        let run = |shards: usize| {
            let mut config = config.clone();
            config.shards = shards;
            Scenario::from_config("fault-plan", config)
                .expect("drawn fault plans satisfy their own validation ranges")
                .substrate()
                .run(protocol, queries)
        };
        let single = run(1);
        let sharded = run(4);
        prop_assert_eq!(single.metrics, sharded.metrics);
        prop_assert_eq!(single.faults, sharded.faults);
        prop_assert_eq!(single.fingerprint(), sharded.fingerprint());
        prop_assert_eq!(single.faults.is_some(), armed, "fault stats exactly when armed");
        for (index, record) in single.metrics.iter().enumerate() {
            prop_assert!(record.completion_time_ms.is_some(), "query {index} leaked its lifecycle under faults");
        }
    }

    // ----------------------------------------------------------------- DHT

    /// Under arbitrary insert/remove interleavings a k-bucket routing table
    /// never exceeds `k` contacts per bucket, never admits the local node or
    /// a duplicate peer, and its length always equals the sum of its bucket
    /// lengths.
    #[test]
    fn routing_table_respects_bucket_capacity(
        k in 1usize..6,
        local in any::<u64>(),
        salt in any::<u64>(),
        // op 0..=5 inserts (biased — the common operation), 6..=7 removes.
        ops in proptest::collection::vec((0u32..8, 0u64..400), 1..300),
    ) {
        let local = DhtId::derive(salt, local);
        let mut table = RoutingTable::new(local, k);
        for (op, value) in ops {
            let id = DhtId::derive(salt, value);
            let peer = PeerId(value as u32);
            if op < 6 {
                let had = table.contains(peer);
                let accepted = table.insert(id, peer);
                prop_assert!(!(had && accepted), "a held contact must be rejected");
                if id == local {
                    prop_assert!(!accepted, "the local node is never a contact");
                }
            } else {
                table.remove(peer);
                prop_assert!(!table.contains(peer), "removed contact still present");
            }
            let mut total = 0;
            for bucket in 0..DHT_ID_BITS {
                prop_assert!(table.bucket_len(bucket) <= k, "bucket {bucket} over capacity");
                total += table.bucket_len(bucket);
            }
            prop_assert_eq!(table.len(), total, "length must equal the bucket sum");
        }
    }

    /// `closest_into` agrees with an exhaustive scan of the table's contents —
    /// rank every held contact by `(XOR distance, peer id)` and take the
    /// prefix — whatever the bucket walk skips. Contacts share prefixes of
    /// every length with `local` (so low buckets fill too, some past `k`) and
    /// repeat ids under distinct peers (distance ties); targets range from
    /// `local` itself through ids agreeing with it on a long prefix to the far
    /// half of the key space; `count` runs from 0 past the population.
    #[test]
    fn routing_table_closest_matches_naive_scan(
        k in prop_oneof![Just(1usize), Just(2usize), Just(8usize), Just(20usize)],
        salt in any::<u64>(),
        contacts in proptest::collection::vec(
            (prop_oneof![0usize..=DHT_ID_BITS, 0usize..8], 0u64..64),
            0..=400,
        ),
        target in (prop_oneof![0usize..=DHT_ID_BITS, Just(DHT_ID_BITS)], any::<u64>()),
        count in 0usize..450,
    ) {
        let local = DhtId::derive(salt, u64::MAX);
        let mut table = RoutingTable::new(local, k);
        let mut held: Vec<(DhtId, PeerId)> = Vec::new();
        for (index, (shared_bits, tail)) in contacts.into_iter().enumerate() {
            let id = sharing_prefix(local, shared_bits, DhtId::derive(salt, tail));
            // Descending, so contacts with equal ids sit in their bucket
            // against the tie-break order.
            let peer = PeerId(400 - index as u32);
            if table.insert(id, peer) {
                held.push((id, peer));
            }
        }
        let target = sharing_prefix(local, target.0, DhtId::derive(salt.wrapping_add(1), target.1));
        let mut expected: Vec<(locaware_overlay::DhtDistance, PeerId)> = held
            .iter()
            .map(|&(id, peer)| (target.distance(id), peer))
            .collect();
        expected.sort_unstable();
        let kept = PeerId(u32::MAX);
        let expected: Vec<PeerId> = std::iter::once(kept)
            .chain(expected.into_iter().take(count).map(|(_, p)| p))
            .collect();
        let mut out = vec![kept];
        table.closest_into(target, count, &mut out);
        prop_assert_eq!(out, expected, "the buffer is appended to, nearest first");
    }

    // ------------------------------------------------------- per-peer routing

    /// The one-table router against the two collections it replaced — a seen
    /// set plus a first-wins upstream map written only for remote sightings —
    /// over sightings and clears whose ids mix dense arrival indices,
    /// attempt-tagged retransmit ids and ids equal modulo 2¹⁶.
    #[test]
    fn query_router_matches_the_two_collection_model(
        ops in proptest::collection::vec(
            (0u32..40, 0u64..64, 0u64..9, proptest::option::of(0u32..5)),
            0..600,
        ),
    ) {
        let id = |index: u64, high: u64| QueryId(index | (high % 3) << 16 | (high / 3) << 32);
        let mut router = QueryRouter::new();
        let mut seen: HashSet<QueryId> = HashSet::new();
        let mut upstream: HashMap<QueryId, PeerId> = HashMap::new();
        for (kind, index, high, from) in ops {
            if kind == 0 {
                router.clear();
                seen.clear();
                upstream.clear();
                continue;
            }
            let query = id(index, high);
            let from = from.map(PeerId);
            let new = seen.insert(query);
            if let (true, Some(from)) = (new, from) {
                upstream.insert(query, from);
            }
            prop_assert_eq!(router.on_query(query, from), new);
            prop_assert!(router.has_seen(query));
            prop_assert_eq!(router.response_next_hop(query), upstream.get(&query).copied());
        }
        for index in 0..64u64 {
            for high in 0..9u64 {
                let query = id(index, high);
                prop_assert_eq!(router.has_seen(query), seen.contains(&query));
                prop_assert_eq!(router.response_next_hop(query), upstream.get(&query).copied());
            }
        }
    }

    /// The per-live-query route tables against what they replaced — one
    /// `QueryRouter` per peer slot, keyed by attempt-tagged query id — over
    /// sightings, reverse-path reads and completions. A completed index is
    /// never asked about again (its outstanding count is zero for good),
    /// holds no table, and the slab stays as small as the most indexes ever
    /// live at once.
    #[test]
    fn route_tables_match_the_per_peer_router_model(
        ops in proptest::collection::vec(
            (0u32..23, (0u32..5, 0usize..24, 0u32..3), proptest::option::weighted(0.85, 0u32..5)),
            0..600,
        ),
    ) {
        let id = |index: usize, attempt: u32| QueryId(index as u64 | u64::from(attempt) << 32);
        let mut routes = QueryRoutes::new(24);
        let mut model: Vec<QueryRouter> = (0..5).map(|_| QueryRouter::new()).collect();
        let mut completed: HashSet<usize> = HashSet::new();
        let mut live: HashSet<usize> = HashSet::new();
        let mut peak = 0;
        for (kind, (slot, index, attempt), from) in ops {
            match kind {
                0 => {
                    routes.complete(index);
                    completed.insert(index);
                    live.remove(&index);
                    prop_assert!(!routes.is_live(index));
                }
                _ if completed.contains(&index) => {}
                1..=4 => prop_assert_eq!(
                    routes.response_next_hop(index, slot, attempt),
                    model[slot as usize].response_next_hop(id(index, attempt))
                ),
                _ => {
                    let from = from.map(PeerId);
                    prop_assert_eq!(
                        routes.on_query(index, slot, attempt, from),
                        model[slot as usize].on_query(id(index, attempt), from)
                    );
                    live.insert(index);
                    peak = peak.max(live.len());
                }
            }
            prop_assert_eq!(routes.live(), live.len());
            prop_assert_eq!(routes.peak(), peak, "a table is created only when none is spare");
        }
        prop_assert!(routes.spare_tables().all(|table| table.is_empty()));
        for index in (0..24).filter(|index| !completed.contains(index)) {
            prop_assert_eq!(routes.is_live(index), live.contains(&index));
            for (slot, router) in model.iter().enumerate() {
                for attempt in 0..3 {
                    prop_assert_eq!(
                        routes.response_next_hop(index, slot as u32, attempt),
                        router.response_next_hop(id(index, attempt))
                    );
                }
            }
        }
    }

    /// A peer's neighbour filters against a `BTreeMap<PeerId, BloomFilter>`
    /// model under full Bloom pushes of filters holding up to six keywords,
    /// Bloom deltas from the held filter to an arbitrary one (so bits are
    /// cleared, as a counting filter's evictions clear them), drops and
    /// volatile resets: the views stay strictly id-sorted and equal to the
    /// model, and every view's stored fold is the OR of its filter's words.
    /// After every step the Bloom rule, walked against a random id-sorted
    /// graph row for a query of 1–3 keywords from the filters' pool, returns
    /// exactly the model's id-ordered answer — a neighbour with no view
    /// matches nothing, a view off the row is never a target — appending to
    /// the caller's buffer without clearing it. The query's fold mask is
    /// computed from the run's geometry, as the engine does, and must equal
    /// the mask under the peer's own counting-filter geometry.
    #[test]
    fn bloom_views_match_the_ordered_map_model(
        ops in proptest::collection::vec(
            (0u32..10, 0u32..12, (0u8..64, proptest::collection::vec(0u32..6, 1..4)), any::<u16>()),
            1..120,
        ),
    ) {
        let params = BloomParams::new(256, 3);
        let mut state = PeerState::new(
            PeerId(1000),
            LocId(0),
            params,
            4,
            3,
            Arc::new(KeywordHashes::empty()),
        );
        // The filter holding every keyword of the six-keyword pool whose bit
        // is set in `set`.
        let filter_of = |set: u8| {
            let mut bloom = BloomFilter::new(params);
            for keyword in (0..6).filter(|bit| set & 1 << bit != 0).map(KeywordId) {
                bloom.insert(&keyword.canonical());
            }
            bloom
        };
        let mut model: BTreeMap<PeerId, BloomFilter> = BTreeMap::new();
        for (kind, neighbor, (set, query), row_bits) in ops {
            let neighbor = PeerId(neighbor);
            match kind {
                0..=2 => {
                    let bloom = filter_of(set);
                    state.set_neighbor_bloom(neighbor, Arc::new(bloom.clone()), bloom.fold());
                    model.insert(neighbor, bloom);
                }
                3..=5 => {
                    let before = model.get(&neighbor).cloned().unwrap_or_else(|| BloomFilter::new(params));
                    let delta = BloomDelta::between(&before, &filter_of(set));
                    state.apply_neighbor_bloom_delta(neighbor, &delta);
                    delta.apply(model.entry(neighbor).or_insert_with(|| BloomFilter::new(params)));
                }
                6..=8 => {
                    state.drop_neighbor_bloom(neighbor);
                    model.remove(&neighbor);
                }
                _ => {
                    state.reset_volatile_state();
                    model.clear();
                }
            }

            let views = state.bloom_views();
            prop_assert!(
                views.windows(2).all(|w| w[0].neighbor() < w[1].neighbor()),
                "views must be strictly id-sorted"
            );
            for view in views {
                let words = view.bloom().words().iter().fold(0, |fold, &w| fold | w);
                prop_assert_eq!(view.fold(), words, "{:?}'s fold is stale", view.neighbor());
            }
            let views: Vec<(PeerId, BloomFilter)> =
                views.iter().map(|view| (view.neighbor(), view.bloom().as_ref().clone())).collect();
            let expected: Vec<(PeerId, BloomFilter)> =
                model.iter().map(|(&n, bloom)| (n, bloom.clone())).collect();
            prop_assert_eq!(views, expected);

            // The graph row is any id-sorted subset of the ids in play, and
            // the neighbour just touched is the one the query came from.
            let row: Vec<PeerId> = (0..12).filter(|bit| row_bits & 1 << bit != 0).map(PeerId).collect();
            let query: Vec<KeywordId> = query.into_iter().map(KeywordId).collect();
            let kept = PeerId(u32::MAX);
            let mut out = vec![kept];
            let hashes: Vec<_> = query.iter().map(|&kw| state.keyword_hashes().of(kw)).collect();
            // The engine folds under the run's geometry, the one every
            // peer's own filter has.
            let run_mask = params.fold_mask(&hashes);
            prop_assert_eq!(run_mask, state.current_bloom().params().fold_mask(&hashes));
            state.neighbors_matching_bloom_into(&row, &query, run_mask, Some(neighbor), &mut out);
            let mut expected = vec![kept];
            expected.extend(row.iter().copied().filter(|&n| {
                n != neighbor
                    && model.get(&n).is_some_and(|b| query.iter().all(|kw| b.contains(&kw.canonical())))
            }));
            prop_assert_eq!(out, expected);
        }
    }

    /// The event queue (slab + calendar ring + fallback heap) against a
    /// `BTreeMap` model under interleaved `push` / `pop` / `pop_before`, with
    /// `peek_key` / `len` compared after every step. Push times are aimed,
    /// relative to the last popped event, at each case the ring treats
    /// differently: the slice being drained, the next one, both sides of the
    /// ring's far edge, one link latency ahead, the far future, behind the
    /// cursor right after a `peek_key` (what a barrier merge does),
    /// `SimTime::MAX`, and a time already queued under other discriminators.
    #[test]
    fn shard_queue_matches_the_ordered_map_model(
        ops in proptest::collection::vec((0u32..10, 0u32..9, any::<u64>(), 0u32..60), 1..400),
    ) {
        // Mirrors of the queue's private geometry. They only aim the cases
        // above; the comparison with the model holds whatever they are.
        const SLICE_US: u64 = 1 << 13;
        const SLOTS: u64 = 128;

        let mut queue = ShardQueue::new();
        let mut model: BTreeMap<EventKey, usize> = BTreeMap::new();
        let mut now = 0u64;
        let mut last_pushed = 0u64;
        for (payload, (op, aim, offset, disc)) in ops.into_iter().enumerate() {
            let slice_start = now / SLICE_US * SLICE_US;
            let within = offset % SLICE_US;
            let time = match aim {
                0 => slice_start.saturating_add(within),
                1 => slice_start.saturating_add(SLICE_US + within),
                // `cursor + SLOTS - 1` and `cursor + SLOTS`, whether the
                // cursor sits on the last pop's slice or one behind it.
                2 => slice_start.saturating_add((SLOTS - 2 + offset % 4) * SLICE_US + within),
                3 => now.saturating_add(10_000 + offset % 490_000),
                4 => now.saturating_add(2_000_000 + offset % 100_000_000),
                5 => {
                    prop_assert_eq!(queue.peek_key(), model.keys().next().copied());
                    now.saturating_sub(offset % (3 * SLICE_US))
                }
                6 => u64::MAX,
                _ => last_pushed,
            };
            let key = EventKey::new(
                SimTime::from_micros(time),
                (disc % 5) as u8,
                u64::from(disc / 5 % 3),
                u64::from(disc / 15),
            );
            let popped = match op {
                0..=4 => {
                    if let std::collections::btree_map::Entry::Vacant(vacant) = model.entry(key) {
                        vacant.insert(payload);
                        queue.push(key, payload);
                        last_pushed = time;
                    }
                    None
                }
                5..=6 => {
                    let popped = queue.pop();
                    prop_assert_eq!(popped, model.pop_first());
                    popped
                }
                7..=8 => {
                    let popped = queue.pop_before(key);
                    let expected = model.first_entry().filter(|first| *first.key() < key);
                    prop_assert_eq!(popped, expected.map(|first| first.remove_entry()));
                    popped
                }
                _ => None,
            };
            if let Some((key, _)) = popped {
                now = key.time.as_micros();
            }
            prop_assert_eq!(queue.peek_key(), model.keys().next().copied());
            prop_assert_eq!(queue.len(), model.len());
            prop_assert_eq!(queue.is_empty(), model.is_empty());
        }
        while let Some(expected) = model.pop_first() {
            prop_assert_eq!(queue.pop(), Some(expected));
        }
        prop_assert_eq!(queue.pop(), None);
        prop_assert!(queue.is_empty());
    }

    /// A record's contents are a pure function of the *set* of inserts
    /// applied — any permutation of the same upserts yields byte-identical
    /// lookups, sizes and truncation counts, the property the sharded
    /// engine's bit-identical contract rests on. The byte cap always holds.
    #[test]
    fn record_store_truncation_is_insertion_order_independent(
        capacity_entries in 1usize..6,
        // (keyword, file) packed as keyword * 12 + file — the in-tree
        // proptest shim implements `Strategy` for tuples of at most 4.
        inserts in proptest::collection::vec((0u32..48, 0u32..10, 0u32..20, 1u64..1000), 1..60),
        seed in any::<u64>(),
    ) {
        use locaware_overlay::dht::{RECORD_ENTRY_BYTES, RECORD_KEY_BYTES};

        let cap = RECORD_KEY_BYTES + capacity_entries * RECORD_ENTRY_BYTES;
        let apply = |order: &[(u32, u32, u32, u64)]| {
            let mut store = DhtRecordStore::new(cap);
            for &(kw_file, provider, loc, expiry_secs) in order {
                let provider = ProviderEntry {
                    provider: PeerId(provider),
                    loc_id: LocId(loc),
                };
                store.insert(
                    kw_file / 12,
                    kw_file % 12,
                    provider,
                    SimTime::ZERO + Duration::from_secs(expiry_secs),
                );
            }
            let mut snapshot = Vec::new();
            for keyword in 0u32..4 {
                snapshot.push(0xffff_ffffu32); // record separator
                let mut out = Vec::new();
                store.lookup_into(keyword, SimTime::ZERO, &mut out);
                for (file, entry) in out {
                    snapshot.extend([file, entry.provider.0, entry.loc_id.value()]);
                }
            }
            (snapshot, store.records(), store.entries(), store.bytes())
        };

        let baseline = apply(&inserts);
        prop_assert!(baseline.3 <= 4 * cap, "every record must respect the byte cap");
        let mut shuffled = inserts.clone();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        prop_assert_eq!(
            apply(&shuffled),
            baseline,
            "a permutation of the same upserts must be indistinguishable"
        );
    }

    // ------------------------------------------------------------ landmarks

    /// Landmark RTT orderings always produce valid locIds, and identical
    /// positions produce identical locIds.
    #[test]
    fn landmark_binning_is_deterministic(seed in any::<u64>(), nodes in 2usize..100) {
        let topology: PhysicalTopology = BriteGenerator::new(BriteConfig {
            nodes,
            placement: PlacementModel { clusters: 6, sigma: 0.02 },
            ..BriteConfig::default()
        })
        .generate(&mut StdRng::seed_from_u64(seed));
        let landmarks = LandmarkSet::spread(4);
        let a = landmarks.assign_all(&topology);
        let b = landmarks.assign_all(&topology);
        prop_assert_eq!(&a, &b);
        for loc in a {
            prop_assert!(loc.value() < 24);
        }
    }
}
