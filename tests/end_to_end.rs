//! Cross-crate integration tests: build a full substrate and run every
//! protocol end to end, checking the qualitative shapes the paper reports.
//!
//! Scales are reduced (≈100 peers) so the suite runs quickly in debug builds;
//! the paper-scale numbers live in EXPERIMENTS.md and are produced by the
//! `locaware-bench` binaries.

use locaware_suite::prelude::*;
use locaware::ProtocolKind;

/// One scenario's substrate at one and at four engine shards. Every run of
/// this suite goes through [`Sharded::run`], so it covers the sharded engine
/// as well as the single queue.
struct Sharded {
    one: Simulation,
    four: Simulation,
}

impl Sharded {
    /// Runs `protocol` at both shard counts, checks that the fingerprints
    /// agree and returns the one-shard report.
    fn run(&self, protocol: ProtocolKind, queries: usize) -> SimulationReport {
        let one = self.one.run(protocol, queries);
        let four = self.four.run(protocol, queries);
        assert_eq!(one.fingerprint(), four.fingerprint(), "{protocol}: 1 vs 4 shards");
        one
    }
}

fn substrate(peers: usize, seed: u64) -> Sharded {
    let at = |shards| {
        let config = SimulationConfig { shards, seed, ..SimulationConfig::small(peers) };
        Simulation::try_build(config).expect("the small preset validates at every shard count")
    };
    Sharded { one: at(1), four: at(4) }
}

#[test]
fn every_protocol_completes_and_accounts_for_every_query() {
    let simulation = substrate(80, 1);
    for protocol in ProtocolKind::ALL {
        let report = simulation.run(protocol, 60);
        assert_eq!(report.queries_issued, 60, "{protocol}: every arrival issues a query");
        assert_eq!(report.metrics.len(), 60, "{protocol}: one record per query");
        assert!(report.dispatched_events > 0, "{protocol}: the engine must do work");
        assert!(
            report.success_rate() >= 0.0 && report.success_rate() <= 1.0,
            "{protocol}: success rate must be a proportion"
        );
        // Satisfied queries must report a download distance within the
        // configured latency bounds.
        for record in &report.metrics {
            if let Some(distance) = record.download_distance_ms {
                assert!(
                    distance >= 0.0 && distance <= simulation.one.config().max_latency_ms,
                    "{protocol}: download distance {distance}ms out of bounds"
                );
            } else {
                assert!(
                    !record.is_success(),
                    "{protocol}: satisfied queries must have a download distance"
                );
            }
        }
    }
}

#[test]
fn per_query_message_counts_reconcile_with_global_counters() {
    let simulation = substrate(80, 2);
    for protocol in ProtocolKind::PAPER_SET {
        let report = simulation.run(protocol, 50);
        let per_query_total: u64 = report.metrics.iter().map(|r| r.messages).sum();
        let query_msgs = report.message_counters.get(&"query".to_string());
        let response_msgs = report.message_counters.get(&"query-response".to_string());
        assert_eq!(
            per_query_total,
            query_msgs + response_msgs,
            "{protocol}: per-query counts must reconcile with the global counters"
        );
        let bloom_msgs = report.message_counters.get(&"bloom-delta".to_string())
            + report.message_counters.get(&"bloom-full".to_string());
        assert_eq!(
            report.background_messages, bloom_msgs,
            "{protocol}: background messages are exactly the Bloom traffic"
        );
    }
}

#[test]
fn figure_3_shape_flooding_floods_and_caching_protocols_do_not() {
    let simulation = substrate(120, 3);
    let flooding = simulation.run(ProtocolKind::Flooding, 80);
    let dicas = simulation.run(ProtocolKind::Dicas, 80);
    let locaware = simulation.run(ProtocolKind::Locaware, 80);

    assert!(
        flooding.avg_messages_per_query() > 3.0 * locaware.avg_messages_per_query(),
        "flooding ({:.1}) must massively out-message locaware ({:.1})",
        flooding.avg_messages_per_query(),
        locaware.avg_messages_per_query()
    );
    assert!(
        flooding.avg_messages_per_query() > 3.0 * dicas.avg_messages_per_query(),
        "flooding ({:.1}) must massively out-message dicas ({:.1})",
        flooding.avg_messages_per_query(),
        dicas.avg_messages_per_query()
    );
}

#[test]
fn figure_4_shape_flooding_highest_success_locaware_beats_dicas_variants() {
    let simulation = substrate(150, 4);
    let queries = 200;
    let flooding = simulation.run(ProtocolKind::Flooding, queries);
    let dicas = simulation.run(ProtocolKind::Dicas, queries);
    let dicas_keys = simulation.run(ProtocolKind::DicasKeys, queries);
    let locaware = simulation.run(ProtocolKind::Locaware, queries);

    assert!(
        flooding.success_rate() > locaware.success_rate(),
        "flooding ({:.3}) must have the highest success rate (locaware {:.3})",
        flooding.success_rate(),
        locaware.success_rate()
    );
    assert!(
        locaware.success_rate() > dicas.success_rate(),
        "locaware ({:.3}) must beat dicas ({:.3})",
        locaware.success_rate(),
        dicas.success_rate()
    );
    assert!(
        locaware.success_rate() >= dicas_keys.success_rate(),
        "locaware ({:.3}) must at least match dicas-keys ({:.3})",
        locaware.success_rate(),
        dicas_keys.success_rate()
    );
}

#[test]
fn figure_2_shape_locaware_downloads_from_closer_providers() {
    let simulation = substrate(150, 5);
    let queries = 250;
    let flooding = simulation.run(ProtocolKind::Flooding, queries);
    let locaware = simulation.run(ProtocolKind::Locaware, queries);

    assert!(
        locaware.avg_download_distance_ms() < flooding.avg_download_distance_ms(),
        "locaware ({:.1}ms) must download from closer providers than flooding ({:.1}ms)",
        locaware.avg_download_distance_ms(),
        flooding.avg_download_distance_ms()
    );
    assert!(
        locaware.locality_match_rate() > flooding.locality_match_rate(),
        "locaware ({:.2}) must hit same-locality providers more often than flooding ({:.2})",
        locaware.locality_match_rate(),
        flooding.locality_match_rate()
    );
}

#[test]
fn runs_are_deterministic_and_independent_of_execution_order() {
    let simulation = substrate(70, 6);
    let a1 = simulation.run(ProtocolKind::Locaware, 40);
    let b = simulation.run(ProtocolKind::Dicas, 40);
    let a2 = simulation.run(ProtocolKind::Locaware, 40);
    assert_eq!(a1.metrics, a2.metrics);
    assert_eq!(a1.success_rate(), a2.success_rate());
    // The interleaved Dicas run must not perturb Locaware's results.
    assert!(b.queries_issued == 40);
}

#[test]
fn different_seeds_produce_different_but_valid_runs() {
    let a = substrate(70, 100).run(ProtocolKind::Locaware, 40);
    let b = substrate(70, 101).run(ProtocolKind::Locaware, 40);
    assert_ne!(
        a.metrics,
        b.metrics,
        "different seeds should give different runs"
    );
    for report in [&a, &b] {
        assert_eq!(report.metrics.len(), 40);
    }
}

#[test]
fn natural_replication_grows_the_replica_pool() {
    let simulation = substrate(100, 7);
    let config = simulation.one.config();
    let initial_replicas = config.peers * config.files_per_peer;
    let report = simulation.run(ProtocolKind::Locaware, 150);
    assert!(
        report.total_file_replicas > initial_replicas,
        "satisfied queries must add replicas ({} vs initial {})",
        report.total_file_replicas,
        initial_replicas
    );
    let satisfied = report
        .metrics
        .iter()
        .filter(|r| r.is_success())
        .count();
    assert_eq!(
        report.total_file_replicas - initial_replicas,
        satisfied,
        "every satisfied query downloads exactly one new replica"
    );
}

#[test]
fn caching_protocols_actually_populate_response_indexes() {
    let simulation = substrate(120, 8);
    let flooding = simulation.run(ProtocolKind::Flooding, 120);
    let locaware = simulation.run(ProtocolKind::Locaware, 120);
    let dicas_keys = simulation.run(ProtocolKind::DicasKeys, 120);

    assert_eq!(flooding.total_cached_index_entries, 0, "flooding never caches");
    assert!(locaware.total_cached_index_entries > 0, "locaware must cache indexes");
    assert!(dicas_keys.total_cached_index_entries > 0, "dicas-keys must cache indexes");
    assert_eq!(flooding.cache_hit_share(), 0.0);
}

#[test]
fn ablations_bracket_the_full_protocol() {
    let simulation = substrate(150, 9);
    let queries = 200;
    let full = simulation.run(ProtocolKind::Locaware, queries);
    let no_locality = simulation.run(ProtocolKind::LocawareNoLocality, queries);

    // Removing locality-aware selection must not *reduce* download distance.
    assert!(
        full.avg_download_distance_ms() <= no_locality.avg_download_distance_ms() + 1e-9,
        "locality-aware selection should shorten downloads ({:.1} vs {:.1})",
        full.avg_download_distance_ms(),
        no_locality.avg_download_distance_ms()
    );
    // And the locality match rate must drop without it.
    assert!(
        full.locality_match_rate() >= no_locality.locality_match_rate(),
        "locality match rate should drop without locality-aware selection"
    );
}

/// A dense workload whose peers issue again while their earlier queries are
/// still in flight: at four shards the coordinator must cap windows at such
/// issues, or their duplicate-query guard reads a stale answer and the report
/// differs from the single queue's. The assert on `capped_windows` keeps the
/// rule exercised here.
#[test]
fn capped_windows_keep_four_shards_equal_to_one() {
    let at = |shards| {
        let mut config = SimulationConfig { shards, seed: 1, ..SimulationConfig::small(60) };
        config.query_rate_per_peer = 0.5;
        config.zipf_exponent = 2.0;
        Simulation::try_build(config).expect("a dense small config validates")
    };
    let (one, four) = (at(1), at(4));
    for protocol in [ProtocolKind::Flooding, ProtocolKind::Locaware, ProtocolKind::DicasKeys] {
        let (single, _) = one.run_profiled(protocol, 300);
        let (sharded, profile) = four.run_profiled(protocol, 300);
        assert_eq!(single.fingerprint(), sharded.fingerprint(), "{protocol}: 1 vs 4 shards");
        assert!(profile.capped_windows > 0, "{protocol}: no window was capped");
    }
}

/// At 100% loss every send is dropped, and each drop is counted once: the
/// report's lost messages are all its sends, and its lost stores all its
/// `dht-store` sends.
#[test]
fn at_full_loss_every_send_is_counted_lost_once() {
    let at = |shards| {
        let mut config = SimulationConfig { shards, ..SimulationConfig::small(40) };
        config.faults.message_loss = 1.0;
        Simulation::try_build(config).expect("full loss validates")
    };
    let simulation = Sharded { one: at(1), four: at(4) };
    for protocol in [ProtocolKind::Flooding, ProtocolKind::DhtIndex] {
        let report = simulation.run(protocol, 30);
        let faults = report.faults.expect("an armed fault plan reports its stats");
        let sends = report.message_counters.total();
        assert!(sends > 0, "{protocol}: the run must send");
        assert_eq!(faults.messages_lost, sends, "{protocol}: lost vs sent");
        let stores = report.message_counters.get(&"dht-store".to_string());
        assert_eq!(stores > 0, protocol == ProtocolKind::DhtIndex, "{protocol}: only the DHT stores");
        assert_eq!(faults.dht_stores_lost, stores, "{protocol}: stores lost vs stores sent");
    }
}
