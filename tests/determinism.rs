//! The reproduction's comparability contract, as tests.
//!
//! The paper's Figures 2–4 compare protocols on *identical substrates*: the
//! same underlay, overlay, catalog, placement and workload, with only the
//! protocol swapped. That comparison is only meaningful if (a) a substrate is
//! a pure function of its configuration (same seed ⇒ bit-for-bit identical
//! runs) and (b) running one protocol leaves the substrate untouched for the
//! next. These tests pin both properties down to the byte level, plus the
//! RNG stream-isolation contract they rest on and the configuration
//! validation that guards the substrate builder's inputs.

use locaware::{
    ConfigError, ExperimentPlan, ProtocolKind, Runner, Scenario, Simulation, SimulationConfig,
    SimulationReport,
};
use locaware_sim::{RngFactory, StreamId};
use rand::{Rng, RngCore};

/// Every evaluated protocol — the paper's four, the two ablations and the two
/// structured (DHT) kinds — sourced from the centralised enumeration so a new
/// protocol joins every matrix below by construction.
const ALL_PROTOCOLS: [ProtocolKind; 8] = ProtocolKind::ALL;

fn substrate(peers: usize, seed: u64) -> Simulation {
    Scenario::small(peers).with_seed(seed).substrate()
}

// ------------------------------------------------------- seed determinism

#[test]
fn same_seed_produces_byte_identical_reports_for_every_protocol() {
    for protocol in ALL_PROTOCOLS {
        let a = substrate(60, 42).run(protocol, 40);
        let b = substrate(60, 42).run(protocol, 40);
        assert_eq!(
            a.canonical_bytes(),
            b.canonical_bytes(),
            "{protocol}: two builds from the same seed must agree bit-for-bit"
        );
    }
}

#[test]
fn same_seed_builds_identical_substrates() {
    let a = substrate(80, 7);
    let b = substrate(80, 7);
    assert_eq!(a.loc_ids(), b.loc_ids(), "locId assignment must be seed-determined");
    assert_eq!(
        a.group_ids(),
        b.group_ids(),
        "group assignment must be seed-determined"
    );
    assert_eq!(
        a.initial_shares(),
        b.initial_shares(),
        "file placement must be seed-determined"
    );
    assert_eq!(
        a.arrivals(30),
        b.arrivals(30),
        "the arrival process must be seed-determined"
    );
}

#[test]
fn different_seeds_produce_different_reports() {
    let a = substrate(60, 1).run(ProtocolKind::Locaware, 40);
    let b = substrate(60, 2).run(ProtocolKind::Locaware, 40);
    assert_ne!(
        a.canonical_bytes(),
        b.canonical_bytes(),
        "distinct seeds collapsing to one run would hide seed-plumbing bugs"
    );
}

// -------------------------------------------------- substrate comparability

#[test]
fn all_protocols_run_over_the_same_substrate() {
    let simulation = substrate(80, 5);
    let loc_ids_before = simulation.loc_ids().to_vec();
    let shares_before = simulation.initial_shares().to_vec();

    let reports: Vec<SimulationReport> = ALL_PROTOCOLS
        .iter()
        .map(|&p| simulation.run(p, 50))
        .collect();

    // Running a protocol must not mutate the shared substrate — otherwise
    // later protocols would be compared on a different system.
    assert_eq!(simulation.loc_ids(), &loc_ids_before[..]);
    assert_eq!(simulation.initial_shares(), &shares_before[..]);

    // The workload side of the substrate is shared too: every protocol sees
    // the same queries from the same requestors in the same order.
    let requestors: Vec<Vec<u32>> = reports
        .iter()
        .map(|r| r.metrics.iter().map(|rec| rec.requestor).collect())
        .collect();
    for (report, reqs) in reports.iter().zip(&requestors) {
        assert_eq!(
            report.queries_issued, 50,
            "{}: every protocol answers the full workload",
            report.protocol
        );
        assert_eq!(
            reqs, &requestors[0],
            "{}: all protocols must serve the identical requestor sequence",
            report.protocol
        );
    }
}

#[test]
fn rerunning_one_protocol_on_one_substrate_is_pure() {
    let simulation = substrate(60, 9);
    let first = simulation.run(ProtocolKind::DicasKeys, 30);
    let second = simulation.run(ProtocolKind::DicasKeys, 30);
    assert_eq!(
        first.canonical_bytes(),
        second.canonical_bytes(),
        "run() must be a pure function of (substrate, protocol, query count)"
    );
}

#[test]
fn tiny_catalog_exhaustion_keeps_replica_accounting_exact() {
    // SimulationConfig::small(10) has a 30-file pool; 400 queries over 10
    // peers drive each peer towards holding or having queried most of the
    // catalog. Peers with nothing left to search for skip their arrivals
    // rather than issuing unsatisfiable queries, and the replica accounting
    // must stay exact throughout.
    let simulation = Scenario::small(10).with_seed(13).substrate();
    let initial_replicas = simulation.config().peers * simulation.config().files_per_peer;
    for protocol in [ProtocolKind::Flooding, ProtocolKind::Locaware] {
        let report = simulation.run(protocol, 400);
        assert!(report.queries_issued <= 400);
        assert_eq!(report.metrics.len() as u64, report.queries_issued);
        let satisfied = report
            .metrics
            .iter()
            .filter(|r| r.is_success())
            .count();
        assert_eq!(
            report.total_file_replicas - initial_replicas,
            satisfied,
            "{protocol}: every satisfied query downloads exactly one new replica"
        );
    }
}

// ------------------------------------------------------ RNG stream contract

#[test]
fn rng_streams_replay_identically() {
    let factory = RngFactory::new(0xfeed);
    for stream in [
        StreamId::PhysicalTopology,
        StreamId::OverlayGraph,
        StreamId::QueryWorkload,
        StreamId::Custom(17),
    ] {
        let a: Vec<u64> = (0..32).map(|_| factory.stream(stream).next_u64()).collect();
        let mut rng = factory.stream(stream);
        let b: Vec<u64> = (0..32).map(|_| rng.gen::<u64>()).collect();
        assert_eq!(a[0], b[0], "{stream:?}: stream restart must replay");
        let mut rng2 = factory.stream(stream);
        let c: Vec<u64> = (0..32).map(|_| rng2.gen::<u64>()).collect();
        assert_eq!(b, c, "{stream:?}: same stream id must give the same sequence");
    }
}

#[test]
fn rng_streams_are_pairwise_independent() {
    let factory = RngFactory::new(1234);
    let streams = [
        StreamId::PhysicalTopology,
        StreamId::Landmarks,
        StreamId::OverlayGraph,
        StreamId::GroupAssignment,
        StreamId::Catalog,
        StreamId::FilePlacement,
        StreamId::QueryWorkload,
        StreamId::Arrivals,
        StreamId::ProtocolTieBreak,
        StreamId::Churn,
        StreamId::Faults,
        StreamId::Custom(0),
        StreamId::Custom(1),
    ];
    let sequences: Vec<Vec<u64>> = streams
        .iter()
        .map(|&s| {
            let mut rng = factory.stream(s);
            (0..16).map(|_| rng.gen::<u64>()).collect()
        })
        .collect();
    for i in 0..sequences.len() {
        for j in i + 1..sequences.len() {
            assert_ne!(
                sequences[i], sequences[j],
                "streams {:?} and {:?} must not collide",
                streams[i], streams[j]
            );
        }
    }
}

#[test]
fn adding_a_consumer_does_not_perturb_other_streams() {
    // The whole point of per-component streams: drawing extra values from one
    // stream must not shift any other stream (unlike a single shared RNG).
    let factory = RngFactory::new(77);
    let baseline: Vec<u64> = {
        let mut rng = factory.stream(StreamId::Arrivals);
        (0..16).map(|_| rng.gen::<u64>()).collect()
    };
    let mut greedy = factory.stream(StreamId::QueryWorkload);
    for _ in 0..1000 {
        greedy.next_u64();
    }
    let after: Vec<u64> = {
        let mut rng = factory.stream(StreamId::Arrivals);
        (0..16).map(|_| rng.gen::<u64>()).collect()
    };
    assert_eq!(baseline, after);
}

// ----------------------------------------------------- config validation

#[test]
fn small_configs_validate_across_the_supported_range() {
    for peers in [10, 40, 60, 100, 200, 500, 1000] {
        let config = SimulationConfig::small(peers);
        assert!(
            config.validate().is_ok(),
            "SimulationConfig::small({peers}) must be internally consistent: {:?}",
            config.validate()
        );
        assert!(config.file_pool >= 30, "file pool floor must hold");
        assert!(config.keyword_pool >= 60, "keyword pool floor must hold");
        assert!(
            config.files_per_peer <= config.file_pool,
            "placement must be satisfiable"
        );
        assert!(
            config.max_query_keywords <= config.keywords_per_file,
            "queries must be drawable from filenames"
        );
    }
}

#[test]
fn invalid_configurations_are_rejected_with_typed_errors() {
    let base = SimulationConfig::small(60);

    let knob = |c: &SimulationConfig| match c.validate() {
        Err(ConfigError::OutOfRange { knob, .. }) => knob,
        other => panic!("expected OutOfRange, got {other:?}"),
    };

    let mut c = base.clone();
    c.peers = 0;
    assert_eq!(knob(&c), "peers");

    let mut c = base.clone();
    c.ttl = 0;
    assert_eq!(knob(&c), "ttl");

    let mut c = base.clone();
    c.landmarks = 9;
    assert!(matches!(
        c.validate(),
        Err(ConfigError::OutOfRange { knob: "landmarks", value, .. }) if value == 9.0
    ));

    let mut c = base.clone();
    c.average_degree = base.peers as f64;
    assert!(matches!(c.validate(), Err(ConfigError::DegreeOutOfRange { .. })));

    let mut c = base.clone();
    c.files_per_peer = c.file_pool + 1;
    assert!(matches!(c.validate(), Err(ConfigError::PlacementUnsatisfiable { .. })));

    let mut c = base.clone();
    c.min_query_keywords = c.max_query_keywords + 1;
    assert!(matches!(c.validate(), Err(ConfigError::QueryKeywordBounds { .. })));

    let mut c = base;
    c.bloom_bits = 0;
    assert_eq!(knob(&c), "bloom_bits");

    // The same errors flow through `Scenario::from_config`, carry human-readable
    // messages, and box as std errors.
    let config = SimulationConfig { ttl: 0, ..SimulationConfig::small(60) };
    let err = Scenario::from_config("broken", config).unwrap_err();
    assert!(matches!(err, ConfigError::OutOfRange { knob: "ttl", .. }));
    let err: Box<dyn std::error::Error> = Box::new(err);
    assert!(err.to_string().contains("ttl"));
}

// --------------------------------------------------- named scenario presets

/// The scaled-down presets (everything except the 1000-peer paper setup),
/// instantiated small enough to run end to end in a test.
fn small_presets() -> Vec<Scenario> {
    vec![
        Scenario::small(60),
        Scenario::flash_crowd(60),
        Scenario::churn_storm(60),
        Scenario::regional_hotspot(60),
        Scenario::faulty_network(60),
    ]
}

#[test]
fn every_named_preset_builds_and_validates() {
    assert!(Scenario::paper_defaults().config().validate().is_ok());
    for scenario in small_presets() {
        assert!(
            scenario.config().validate().is_ok(),
            "{}: preset must validate",
            scenario.name()
        );
        let substrate = scenario.substrate();
        assert_eq!(substrate.topology().len(), 60);
        assert_eq!(substrate.overlay().len(), 60);
        assert!(substrate.overlay().is_connected(), "{}: overlay must connect", scenario.name());
    }
}

#[test]
fn every_named_preset_is_seed_deterministic() {
    for scenario in small_presets() {
        let a = scenario.substrate().run(ProtocolKind::Locaware, 40);
        let b = scenario.substrate().run(ProtocolKind::Locaware, 40);
        assert_eq!(
            a.canonical_bytes(),
            b.canonical_bytes(),
            "{}: same preset, same seed must agree bit-for-bit",
            scenario.name()
        );
    }
}

/// The rebuilt flash-crowd preset must *demonstrably* use the burst
/// primitive: a count-bounded run's arrivals concentrate inside the burst
/// window instead of spreading at a scaled constant rate.
#[test]
fn flash_crowd_arrivals_concentrate_inside_the_burst_window() {
    use locaware::experiment::{FLASH_CROWD_BURST_DURATION_SECS, FLASH_CROWD_BURST_START_SECS};

    let scenario = Scenario::flash_crowd(100);
    assert!(
        !scenario.config().arrival_schedule.is_steady(),
        "flash-crowd must carry a non-steady schedule"
    );
    let substrate = scenario.substrate();
    let arrivals = substrate.arrivals(400);
    assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at), "time-sorted");
    let burst_end = FLASH_CROWD_BURST_START_SECS + FLASH_CROWD_BURST_DURATION_SECS;
    let inside = arrivals
        .iter()
        .filter(|a| {
            let t = a.at.as_secs_f64();
            t >= FLASH_CROWD_BURST_START_SECS && t < burst_end
        })
        .count();
    // 100 peers × 0.00083 q/s barely produce ~50 queries during the 600 s
    // lead-in; at 25× the burst absorbs everything else.
    assert!(
        inside * 10 >= arrivals.len() * 8,
        "only {inside} of {} arrivals fell inside the burst window",
        arrivals.len()
    );
}

/// The rebuilt regional-hotspot preset must *demonstrably* use weighted
/// clusters: the hot (locality-sorted) third of the population issues ~75%
/// of the queries and holds ~75% of the initial replicas.
#[test]
fn regional_hotspot_concentrates_storage_and_origins() {
    let scenario = Scenario::regional_hotspot(90);
    let substrate = scenario.substrate();

    // The hot cluster is the first third of the *locality-sorted* order.
    let mut by_locality: Vec<usize> = (0..90).collect();
    by_locality.sort_by_key(|&p| (substrate.loc_ids()[p], p));
    let hot: std::collections::BTreeSet<usize> = by_locality[..30].iter().copied().collect();

    let hot_replicas: usize = hot
        .iter()
        .map(|&p| substrate.initial_shares()[p].len())
        .sum();
    let total_replicas: usize = substrate.initial_shares().iter().map(Vec::len).sum();
    assert_eq!(total_replicas, 270, "the share budget is conserved");
    assert!(
        hot_replicas * 100 >= total_replicas * 70,
        "hot region must hold ~75% of initial replicas, got {hot_replicas}/{total_replicas}"
    );

    let arrivals = substrate.arrivals(2000);
    let hot_origins = arrivals.iter().filter(|a| hot.contains(&a.peer)).count();
    let share = hot_origins as f64 / arrivals.len() as f64;
    assert!(
        (0.68..0.82).contains(&share),
        "hot region must issue ~75% of queries, got {share:.3}"
    );

    // And none of this applies to the uniform preset.
    let uniform = Scenario::small(90).substrate();
    let uniform_hot: usize = hot.iter().map(|&p| uniform.initial_shares()[p].len()).sum();
    assert_eq!(uniform_hot, 90, "uniform placement shares 3 files per peer");
}

#[test]
fn preset_regimes_produce_distinct_workloads() {
    // The three new regimes must actually differ from the plain scaled-down
    // setup — otherwise they are presets in name only. Compare them to
    // `small` under the *same seed* so the only difference is the regime.
    let seed = 17;
    let base = Scenario::small(60).with_seed(seed);
    let base_report = base.substrate().run(ProtocolKind::Locaware, 40);
    for scenario in [
        Scenario::flash_crowd(60).with_seed(seed),
        Scenario::churn_storm(60).with_seed(seed),
        Scenario::regional_hotspot(60).with_seed(seed),
        Scenario::faulty_network(60).with_seed(seed),
    ] {
        let report = scenario.substrate().run(ProtocolKind::Locaware, 40);
        assert_ne!(
            base_report.canonical_bytes(),
            report.canonical_bytes(),
            "{}: regime must change the measured system",
            scenario.name()
        );
    }
}

// --------------------------------------------------- legacy fingerprint pins

/// Golden fingerprints for the constant-rate (`Steady`) scenarios, pinning the
/// exact per-query report bytes across refactors that must not change
/// observable behaviour.
///
/// Re-baselined once in PR 6 (from the PR 4 values captured at commit
/// ffbf08c): the fingerprint definition widened to cover the new
/// `completion_time_ms` field, and the query-lifecycle tracking made
/// completion times exact — both intentional observable changes. Every field
/// that existed before PR 6 was verified byte-identical against the old tree
/// before re-pinning. The churn-storm Locaware pin moved once more
/// (0x7bdf5a9e8dfcc14d → 0x944bbd9eb814a776) when the overlay graph became
/// the one record of adjacency: Bloom and group-id routing stopped
/// forwarding over links a departure had dropped, a rejoined peer
/// re-advertises its stored files, and a new link swaps full filters. Every
/// other pin, the churn-storm Flooding one included, stayed byte-identical.
/// The Dicas-Keys and ablation rows, and churn-storm Dicas, were captured
/// later, before the protocol policies became functions of the kind, so that
/// refactor could not move a kind without a pin to show it.
#[test]
fn legacy_steady_scenarios_reproduce_pr4_fingerprints() {
    let cases: [(Scenario, ProtocolKind, usize, u64); 13] = [
        (Scenario::small(60), ProtocolKind::Locaware, 40, 0x5ec9f1b53ec68b39),
        (Scenario::small(60), ProtocolKind::Flooding, 40, 0x44da88c3c6b3b41d),
        (Scenario::small(60), ProtocolKind::Dicas, 40, 0x18818846c97c281e),
        (Scenario::small(120), ProtocolKind::Locaware, 80, 0x7a4cbf46ddeedf62),
        (Scenario::churn_storm(60), ProtocolKind::Locaware, 40, 0x944bbd9eb814a776),
        (Scenario::churn_storm(60), ProtocolKind::Flooding, 40, 0x04da57ae76c7ea16),
        (Scenario::small(60), ProtocolKind::DicasKeys, 40, 0xc93bbea79b8d7032),
        (Scenario::small(60), ProtocolKind::LocawareNoLocality, 40, 0x63fe3268bfd197e3),
        (Scenario::small(60), ProtocolKind::LocawareNoBloom, 40, 0x2c7d8cada1ec53dd),
        (Scenario::churn_storm(60), ProtocolKind::Dicas, 40, 0xf0bff654277bf749),
        (Scenario::churn_storm(60), ProtocolKind::DicasKeys, 40, 0xa0eb11c2a3524a49),
        (Scenario::churn_storm(60), ProtocolKind::LocawareNoLocality, 40, 0xf928fe2850dc6d1b),
        (Scenario::churn_storm(60), ProtocolKind::LocawareNoBloom, 40, 0xb691c2e4668ecf5c),
    ];
    for (scenario, protocol, queries, expected) in cases {
        let report = scenario.substrate().run(protocol, queries);
        assert_eq!(
            report.fingerprint(),
            expected,
            "{}/{protocol}/{queries}q: legacy fingerprint must not move",
            scenario.name()
        );
    }
}

/// Golden fingerprints for the structured protocols introduced with the DHT
/// subsystem, captured at their introduction. These cover the DHT statistics
/// block of the encoding (lookup depths, store traffic, end-of-run index
/// size), so any change to identity derivation, routing-table seeding, the
/// iterative lookup walk or the republish cadence moves them. The
/// churn-storm Hybrid pin was re-baselined (0x54886a541d2f576f →
/// 0xa15c579bf08410ac) with the churn-storm Locaware one, for the same
/// change to its Locaware head; the DHT-only pins did not move.
#[test]
fn structured_protocol_fingerprints_are_pinned() {
    let cases: [(Scenario, ProtocolKind, usize, u64); 4] = [
        (Scenario::small(60), ProtocolKind::DhtIndex, 40, 0x1564cd1f44b01de6),
        (Scenario::small(60), ProtocolKind::Hybrid, 40, 0x54586dd9a1d28f81),
        (Scenario::churn_storm(60), ProtocolKind::DhtIndex, 40, 0xe4a724f24553623b),
        (Scenario::churn_storm(60), ProtocolKind::Hybrid, 40, 0xa15c579bf08410ac),
    ];
    for (scenario, protocol, queries, expected) in cases {
        let report = scenario.substrate().run(protocol, queries);
        assert!(report.dht.is_some(), "{protocol}: structured runs carry DHT stats");
        assert_eq!(
            report.fingerprint(),
            expected,
            "{}/{protocol}/{queries}q: structured fingerprint must not move",
            scenario.name()
        );
    }
}

// ------------------------------------------------ sharded-engine determinism

/// The tentpole invariant of the sharded engine: for a fixed seed, **every**
/// shard count produces byte-identical reports — the canonical event order,
/// per-arrival RNG streams and barrier merges make the parallel execution
/// semantically equal to the single-queue one. The matrix covers all eight
/// protocols over a static scenario, a churn storm (churn exercises the
/// serial barrier transitions and the all-pairs latency lookahead) and the
/// two rebuilt non-homogeneous regimes: flash-crowd (burst schedule — dense
/// event windows) and regional-hotspot (weighted-cluster workload — skewed
/// per-shard load). Arrivals stay pre-generated and time-sorted, so the
/// engine's invariance must be untouched by the new workload primitives.
/// The faulty-network row extends the invariant to the fault plan: loss
/// coins, outage membership and timeout deadlines are pure functions of
/// shard-invariant message identity, never of shard-local execution order.
#[test]
fn shard_counts_produce_byte_identical_reports() {
    type Preset = fn(usize) -> Scenario;
    let scenarios: [(&str, Preset); 5] = [
        ("small", Scenario::small as Preset),
        ("churn-storm", Scenario::churn_storm as Preset),
        ("flash-crowd", Scenario::flash_crowd as Preset),
        ("regional-hotspot", Scenario::regional_hotspot as Preset),
        // Every fault axis armed: losses, an outage window, retransmit
        // deadlines and DHT step timeouts must all be shard-invariant.
        ("faulty-network", Scenario::faulty_network as Preset),
    ];
    for (name, make) in scenarios {
        for protocol in ALL_PROTOCOLS {
            let baseline = {
                let scenario = make(60).with_seed(21).tweak_shards(1);
                scenario.substrate().run(protocol, 40)
            };
            // Under churn some arrivals land on offline peers and are
            // skipped, so the issued count may fall below the request.
            assert!(
                baseline.queries_issued > 0 && baseline.queries_issued <= 40,
                "{name}/{protocol}: issued {}",
                baseline.queries_issued
            );
            for shards in [2usize, 4, 8] {
                let scenario = make(60).with_seed(21).tweak_shards(shards);
                let report = scenario.substrate().run(protocol, 40);
                assert_eq!(
                    baseline.canonical_bytes(),
                    report.canonical_bytes(),
                    "{name}/{protocol}: {shards} shards must reproduce the single-shard bytes"
                );
            }
        }
    }
}

/// Duplicate suppression and reverse paths are kept per live query and
/// recycled at its completion — in the origin shard inline, in every shard
/// an escaped query touched at the coordinator's prune. The engine checks
/// the consequence itself when it builds the report (`assert!` in
/// `engine::finalize`: every shard ends an untruncated run holding zero
/// tables, in release builds too); this drives the three shapes that could
/// leak one — a flood that reaches most peers, rejoins erasing entries
/// mid-query, and retransmit attempts sharing their query's table.
#[test]
fn no_route_state_outlives_its_query() {
    type Preset = fn(usize) -> Scenario;
    let runs: [(ProtocolKind, &str, Preset); 3] = [
        (ProtocolKind::Flooding, "flash-crowd", Scenario::flash_crowd as Preset),
        (ProtocolKind::Locaware, "churn-storm", Scenario::churn_storm as Preset),
        (ProtocolKind::Flooding, "faulty-network", Scenario::faulty_network as Preset),
    ];
    for (protocol, name, make) in runs {
        let run = |shards| make(80).with_seed(5).tweak_shards(shards).substrate().run(protocol, 60);
        let (one, four) = (run(1), run(4));
        assert!(one.queries_issued > 0, "{protocol}/{name}: nothing ran");
        assert_eq!(one.canonical_bytes(), four.canonical_bytes(), "{protocol}/{name}");
        if let Some(faults) = one.faults {
            assert!(faults.query_retransmits > 0, "{name}: no attempt past the first");
        }
    }
}

/// Sharding helper: rebuild the scenario with an explicit shard count.
trait TweakShards {
    fn tweak_shards(self, shards: usize) -> Scenario;
}

impl TweakShards for Scenario {
    fn tweak_shards(self, shards: usize) -> Scenario {
        let name = self.name().to_string();
        let mut config = self.config().clone();
        config.shards = shards;
        Scenario::from_config(name, config).expect("shard count does not affect validity")
    }
}

/// The event queue's calendar ring is tuned to the paper's 10–500 ms links:
/// nothing an event sends lands in the time slice being drained. With every
/// link inside one 8 ms slice the opposite holds — most sends land in that
/// slice and take the queue's fallback heap — and the order, hence the
/// report, must not notice. Faults on, so timers past the ring's horizon
/// are queued as well.
#[test]
fn sub_slice_link_latencies_keep_shard_counts_byte_identical() {
    let run = |protocol, shards| {
        let mut config = Scenario::faulty_network(60).with_seed(33).config().clone();
        config.min_latency_ms = 0.5;
        config.max_latency_ms = 5.0;
        config.shards = shards;
        let scenario = Scenario::from_config("sub-slice-links", config).expect("valid latency range");
        scenario.substrate().run(protocol, 40)
    };
    for protocol in [ProtocolKind::Flooding, ProtocolKind::Locaware, ProtocolKind::DhtIndex] {
        let baseline = run(protocol, 1);
        assert!(baseline.queries_issued > 0, "{protocol}: nothing ran");
        assert_eq!(
            baseline.fingerprint(),
            run(protocol, 4).fingerprint(),
            "{protocol}: 4 shards must reproduce the single-shard fingerprint"
        );
    }
}

// ------------------------------------------------- experiment runner contract

#[test]
fn a_multi_protocol_grid_point_builds_its_substrate_exactly_once() {
    let plan = ExperimentPlan::new()
        .scenario(Scenario::small(60).with_seed(3))
        .protocols(ALL_PROTOCOLS)
        .query_counts([20, 40]);
    let outcome = Runner::new()
        .with_threads(4)
        .run(&plan)
        .expect("plan lists every dimension");
    assert_eq!(
        outcome.len(),
        ALL_PROTOCOLS.len() * 2,
        "every (protocol, query count) must run"
    );
    assert_eq!(
        outcome.substrates_built, 1,
        "all protocols at two query counts must share one substrate build"
    );
}

#[test]
fn runner_reports_match_direct_runs_bit_for_bit() {
    let scenario = Scenario::small(60).with_seed(42);
    let plan = ExperimentPlan::new()
        .scenario(scenario.clone())
        .protocols(ALL_PROTOCOLS)
        .query_count(40);
    let outcome = Runner::new().run(&plan).expect("plan lists every dimension");
    for protocol in ALL_PROTOCOLS {
        let direct = scenario.substrate().run(protocol, 40);
        let shared = outcome
            .report(scenario.name(), protocol, 40, 0)
            .expect("every protocol ran");
        assert_eq!(
            direct.canonical_bytes(),
            shared.canonical_bytes(),
            "{protocol}: sharing the substrate must not change the run"
        );
    }
}
