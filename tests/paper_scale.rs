//! Paper-scale smoke tier: the 1000-peer §5.1 setup, end to end.
//!
//! Everything else in the suite runs at ≤200 peers so the harness stays fast;
//! nothing there would catch a regression that only appears at the published
//! scale (event-queue growth, Bloom saturation, provider-selection cost over
//! the full all-pairs latency matrix). These tests run the real
//! `paper-defaults` scenario and are `#[ignore]`d by default:
//!
//! ```text
//! cargo test --release --test paper_scale -- --ignored
//! ```

use locaware::{ExperimentPlan, ProtocolKind, Runner, Scenario};

#[test]
#[ignore = "paper scale (1000 peers); run with: cargo test --release --test paper_scale -- --ignored"]
fn paper_defaults_run_locaware_end_to_end() {
    let scenario = Scenario::paper_defaults();
    assert_eq!(scenario.config().peers, 1000);

    let queries = 1000usize;
    let report = scenario.substrate().run(ProtocolKind::Locaware, queries);

    assert_eq!(report.queries_issued as usize, queries);
    assert_eq!(report.metrics.len(), queries);
    assert!(report.dispatched_events > 0);
    assert!(
        report.success_rate() > 0.0 && report.success_rate() <= 1.0,
        "paper-scale Locaware must satisfy some queries (got {:.4})",
        report.success_rate()
    );
    for record in &report.metrics {
        if let Some(distance) = record.download_distance_ms {
            assert!(
                distance >= 0.0 && distance <= scenario.config().max_latency_ms,
                "download distance {distance}ms out of the configured latency bounds"
            );
        }
    }
}

#[test]
#[ignore = "paper scale (1000 peers); run with: cargo test --release --test paper_scale -- --ignored"]
fn sharded_engine_reproduces_single_shard_results_at_paper_scale() {
    // The determinism matrix pins shard-count invariance at 60 peers; this
    // smoke re-pins it at the published scale, where the locality partition,
    // the window planner and the barrier merge all see realistic pressure
    // (24 locIds, thousands of cross-shard links, ~10⁵ events).
    let queries = 300usize;
    let reports: Vec<_> = [1usize, 4]
        .iter()
        .map(|&shards| {
            let mut config = Scenario::paper_defaults().config().clone();
            config.shards = shards;
            let scenario = locaware::Scenario::from_config(format!("paper-s{shards}"), config)
                .expect("shard count does not affect validity");
            scenario.substrate().run(ProtocolKind::Locaware, queries)
        })
        .collect();

    let (single, sharded) = (&reports[0], &reports[1]);
    assert_eq!(single.metrics, sharded.metrics);
    assert_eq!(single.queries_issued, sharded.queries_issued);
    assert_eq!(single.dispatched_events, sharded.dispatched_events);
    assert_eq!(single.background_messages, sharded.background_messages);
    assert_eq!(single.total_file_replicas, sharded.total_file_replicas);
    assert_eq!(
        single.total_cached_index_entries,
        sharded.total_cached_index_entries
    );
    assert_eq!(
        single.simulated_end_time_secs.to_bits(),
        sharded.simulated_end_time_secs.to_bits()
    );
}

#[test]
#[ignore = "frontier scale (10000 peers); run with: cargo test --release --test paper_scale -- --ignored"]
fn large_10k_substrate_builds_and_is_shard_invariant() {
    // The scale-frontier smoke: the `large-10k` preset at its nominal
    // population must build (exercising the CSR overlay and the O(log n)
    // directory bootstrap at 10× the published scale) and the sharded engine
    // must stay bit-identical to the single-shard run there.
    let queries = 200usize;
    let reports: Vec<_> = [1usize, 4]
        .iter()
        .map(|&shards| {
            let mut config = Scenario::large_10k(10_000).config().clone();
            config.shards = shards;
            let scenario = locaware::Scenario::from_config(format!("large-10k-s{shards}"), config)
                .expect("shard count does not affect validity");
            scenario.substrate().run(ProtocolKind::Locaware, queries)
        })
        .collect();

    let (single, sharded) = (&reports[0], &reports[1]);
    assert_eq!(single.fingerprint(), sharded.fingerprint());
    assert_eq!(single.metrics, sharded.metrics);
    assert_eq!(single.dispatched_events, sharded.dispatched_events);
    assert!(single.dispatched_events > 0);
}

#[test]
#[ignore = "paper scale (1000 peers); run with: cargo test --release --test paper_scale -- --ignored"]
fn paper_defaults_grid_point_shares_one_substrate_across_protocols() {
    let queries = 500usize;
    let plan = ExperimentPlan::new()
        .scenario(Scenario::paper_defaults())
        .protocols(ProtocolKind::PAPER_SET)
        .query_count(queries);
    let outcome = Runner::new().run(&plan).expect("plan lists every dimension");

    assert_eq!(outcome.substrates_built, 1, "one 1000-peer build for all four curves");
    assert_eq!(outcome.len(), ProtocolKind::PAPER_SET.len());

    let flooding = outcome
        .report("paper-defaults", ProtocolKind::Flooding, queries, 0)
        .expect("flooding ran");
    let locaware = outcome
        .report("paper-defaults", ProtocolKind::Locaware, queries, 0)
        .expect("locaware ran");
    assert!(
        flooding.avg_messages_per_query() > locaware.avg_messages_per_query(),
        "the paper's Figure 3 ordering must hold at full scale ({:.1} vs {:.1})",
        flooding.avg_messages_per_query(),
        locaware.avg_messages_per_query()
    );
}
