//! Integration tests of the churn extension: peers leaving and rejoining while
//! queries are in flight.
//!
//! The paper's evaluation is static; churn is the reproduction's extension
//! exercising the staleness concerns §4.1.2 raises. These tests check that the
//! engine stays consistent under churn (no panics, metrics still well formed),
//! that Locaware's multi-provider indexes degrade more gracefully than a
//! single-provider cache, that the churn horizon covers the arrival
//! schedule's full span, that DHT lookups into crashed peers still
//! complete, that a rejoin never sends a response round a cycle, and that
//! Bloom and group-id routing forward only over links the overlay graph has.

use locaware::{ProtocolKind, Scenario, Simulation, SimulationConfig, SimulationReport};
use locaware_overlay::ChurnConfig;
use locaware_workload::{ArrivalSchedule, FaultConfig};

/// One configuration's substrate at one and at four engine shards. Every run
/// of this suite goes through [`Sharded::run`], so it covers the sharded
/// engine as well as the single queue.
struct Sharded {
    one: Simulation,
    four: Simulation,
}

impl Sharded {
    fn new(config: SimulationConfig) -> Self {
        let at = |shards| {
            Simulation::try_build(SimulationConfig { shards, ..config.clone() })
                .expect("churn, faults and shard counts never invalidate a small config")
        };
        Sharded { one: at(1), four: at(4) }
    }

    /// Runs `protocol` at both shard counts, checks that the fingerprints
    /// agree and returns the one-shard report.
    fn run(&self, protocol: ProtocolKind, queries: usize) -> SimulationReport {
        let one = self.one.run(protocol, queries);
        let four = self.four.run(protocol, queries);
        assert_eq!(one.fingerprint(), four.fingerprint(), "{protocol}: 1 vs 4 shards");
        one
    }
}

fn churny_sim(peers: usize, seed: u64, churn: ChurnConfig) -> Sharded {
    Sharded::new(SimulationConfig { seed, churn, ..SimulationConfig::small(peers) })
}

#[test]
fn runs_complete_under_heavy_churn() {
    let churn = ChurnConfig {
        mean_session_secs: 300.0,
        mean_offline_secs: 300.0,
        churning_fraction: 0.5,
    };
    let simulation = churny_sim(100, 11, churn);
    for protocol in ProtocolKind::PAPER_SET {
        let report = simulation.run(protocol, 80);
        assert_eq!(report.metrics.len(), report.queries_issued as usize);
        assert!(report.queries_issued <= 80, "offline requestors skip their queries");
        assert!(report.success_rate() <= 1.0);
        for record in &report.metrics {
            if record.is_success() {
                assert!(record.download_distance_ms.is_some());
            }
        }
    }
}

#[test]
fn churn_reduces_success_compared_to_a_static_overlay() {
    let seed = 12;
    let static_sim = churny_sim(150, seed, ChurnConfig::disabled());
    let churny = churny_sim(
        150,
        seed,
        ChurnConfig {
            mean_session_secs: 400.0,
            mean_offline_secs: 800.0,
            churning_fraction: 0.6,
        },
    );
    let queries = 150;
    let static_report = static_sim.run(ProtocolKind::Locaware, queries);
    let churny_report = churny.run(ProtocolKind::Locaware, queries);
    assert!(
        churny_report.success_rate() <= static_report.success_rate(),
        "churn must not improve success ({:.3} churny vs {:.3} static)",
        churny_report.success_rate(),
        static_report.success_rate()
    );
}

#[test]
fn churn_schedule_is_generated_and_deterministic() {
    let churn = ChurnConfig {
        mean_session_secs: 200.0,
        mean_offline_secs: 200.0,
        churning_fraction: 0.8,
    };
    let simulation = churny_sim(80, 13, churn).one;
    let arrivals = simulation.arrivals(200);
    let a = simulation.churn_schedule(&arrivals);
    let b = simulation.churn_schedule(&arrivals);
    assert_eq!(a, b, "churn schedule must be reproducible");
    assert!(!a.is_empty(), "with 80% churners there must be transitions");
    let horizon = arrivals.last().unwrap().at;
    for event in &a {
        assert!(event.at <= horizon);
        assert!(event.peer.index() < 80);
    }
}

/// The churn horizon must cover the arrival schedule's *span*, not just the
/// last arrival: a busy lead-in followed by a long near-silent burst window
/// keeps churning through the window. (For steady schedules the horizon is the last
/// arrival, exactly as before — pinned by the legacy fingerprints.)
#[test]
fn churn_horizon_covers_trailing_quiet_schedule_phases() {
    let churn = ChurnConfig {
        mean_session_secs: 200.0,
        mean_offline_secs: 200.0,
        churning_fraction: 0.8,
    };
    // The 300 s lead-in runs at 200× the paper's rate; the window after it
    // is near-silent for an hour. A count-bounded run's arrivals all land in
    // the lead-in.
    let config = SimulationConfig {
        seed: 21,
        churn,
        query_rate_per_peer: 200.0 * 0.00083,
        arrival_schedule: ArrivalSchedule::Burst {
            multiplier: 1e-9,
            start_secs: 300.0,
            duration_secs: 3600.0,
        },
        ..SimulationConfig::small(60)
    };
    let simulation = Scenario::from_config("quiet-tail", config)
        .expect("schedule validates")
        .substrate();
    let arrivals = simulation.arrivals(100);
    let last_arrival = arrivals.last().unwrap().at;
    assert!(
        last_arrival.as_secs_f64() < 310.0,
        "the whole workload must land in the hot phase, last at {}s",
        last_arrival.as_secs_f64()
    );
    let events = simulation.churn_schedule(&arrivals);
    let last_event = events.last().unwrap().at;
    assert!(
        last_event > last_arrival,
        "churn must keep churning through the quiet tail ({}s vs {}s)",
        last_event.as_secs_f64(),
        last_arrival.as_secs_f64()
    );
    let span_secs = 300.0 + 3600.0;
    assert!(
        last_event.as_secs_f64() <= span_secs,
        "churn must still respect the schedule span"
    );
    // With a horizon >10× the mean session, churn transitions vastly
    // outnumber what the 300 s arrival window alone would generate.
    let within_arrivals = events.iter().filter(|e| e.at <= last_arrival).count();
    assert!(
        events.len() > within_arrivals * 4,
        "most transitions happen after the last arrival ({} of {})",
        within_arrivals,
        events.len()
    );
}

/// Regression: sessions and offline gaps short enough that a peer leaves and
/// rejoins while a query it relayed is still in flight. A rejoin that erased
/// the peer's sightings let it sight the query again from a peer downstream
/// of its first sighting, and the response then looped between them until
/// an event budget stopped the run. Every run must now drain on its own,
/// every query complete, and one and four shards agree.
#[test]
fn short_offline_gaps_cannot_make_a_response_cycle() {
    let cases = [
        (1, 30.0, 0.5, ProtocolKind::Flooding),
        (3, 5.0, 0.05, ProtocolKind::Flooding),
        (3, 5.0, 0.05, ProtocolKind::Locaware),
        (3, 5.0, 0.05, ProtocolKind::Dicas),
    ];
    for (seed, mean_session_secs, mean_offline_secs, protocol) in cases {
        let report = Sharded::new(SimulationConfig {
            seed,
            query_rate_per_peer: 0.05,
            churn: ChurnConfig { mean_session_secs, mean_offline_secs, churning_fraction: 0.75 },
            ..SimulationConfig::small(150)
        })
        .run(protocol, 300);
        for (index, record) in report.metrics.iter().enumerate() {
            assert!(
                record.completion_time_ms.is_some(),
                "{protocol} seed {seed}: query {index} never completed"
            );
        }
        assert!(
            report.dispatched_events < 150_000,
            "{protocol} seed {seed}: {} events",
            report.dispatched_events
        );
    }
}

/// The overlay graph is the one record of adjacency, in both departure modes:
/// the Bloom and group-id rules forward only to graph neighbours, graph rows
/// are symmetric and hold only online peers, and no neighbour filter
/// outlives its link. Debug builds check all of it on every forward and at
/// every churn barrier; these runs reach those checks through every
/// rejoin's full-filter swap, at one and at four shards.
#[test]
fn routing_follows_the_graph_through_churn() {
    let storm = Scenario::churn_storm(120).config().clone();
    let mut crash_stop = FaultConfig::disabled();
    crash_stop.crash_stop = true;
    for faults in [FaultConfig::disabled(), crash_stop] {
        let simulation = Sharded::new(SimulationConfig { faults: faults.clone(), ..storm.clone() });
        for protocol in [ProtocolKind::Locaware, ProtocolKind::Dicas, ProtocolKind::DicasKeys] {
            let report = simulation.run(protocol, 200);
            let crashes = report.faults.map_or(0, |stats| stats.crash_departures);
            assert_eq!(crashes > 0, faults.crash_stop, "{protocol}: departures take the configured path");
            let full_filters = report.message_counters.get(&"bloom-full".to_string());
            let syncs = protocol == ProtocolKind::Locaware;
            assert_eq!(full_filters > 0, syncs, "{protocol}: rejoins swap full filters iff Bloom sync runs");
            for (index, record) in report.metrics.iter().enumerate() {
                assert!(record.completion_time_ms.is_some(), "{protocol}: query {index} never completed");
            }
        }
    }
}

/// Regression: a DHT lookup step addressed to a peer that has already
/// departed must not strand the query. Under crash-stop churn the departed
/// peer stays in every routing table (no goodbyes), so lookups keep walking
/// into it; the per-step deadline must fire, re-issue against the next
/// shortlist candidate and — crucially — keep the completion-event ledger
/// exact: every query ends with `completion_time_ms = Some(_)`, satisfied
/// or not. Before the timeout machinery existed such steps leaked an
/// outstanding-message charge and the query never completed.
#[test]
fn dht_lookups_to_departed_peers_complete_via_step_timeouts() {
    let mut faults = FaultConfig::disabled();
    faults.crash_stop = true;
    faults.dht_step_timeout_secs = 2.0;
    let config = SimulationConfig {
        seed: 23,
        churn: ChurnConfig {
            mean_session_secs: 200.0,
            mean_offline_secs: 400.0,
            churning_fraction: 0.75,
        },
        faults,
        ..SimulationConfig::small(80)
    };
    let simulation = Sharded::new(config);
    for protocol in [ProtocolKind::DhtIndex, ProtocolKind::Hybrid] {
        let report = simulation.run(protocol, 120);
        let stats = report.faults.expect("armed fault plan reports statistics");
        assert!(
            stats.crash_departures > 0,
            "{protocol}: churn-storm departures must take the crash path"
        );
        assert!(
            stats.dht_step_timeouts > 0,
            "{protocol}: lookups into crashed peers must trip step deadlines"
        );
        for (index, record) in report.metrics.iter().enumerate() {
            assert!(
                record.completion_time_ms.is_some(),
                "{protocol}: query {index} never completed (requestor {})",
                record.requestor
            );
        }
    }
}
