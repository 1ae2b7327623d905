//! Integration tests over the prepared substrate: the pieces built once per
//! simulation (underlay, localities, overlay, catalog, placement, groups) must
//! be mutually consistent and must honour the paper's §5.1 parameters.

use locaware::{GroupScheme, ProtocolKind, Scenario, Simulation, SimulationConfig};
use locaware_net::LocId;

fn paper_small(seed: u64) -> Simulation {
    Scenario::small(200).with_seed(seed).substrate()
}

#[test]
fn paper_default_configuration_is_the_published_setup() {
    let config = SimulationConfig::paper_defaults();
    assert_eq!(config.peers, 1000);
    assert_eq!(config.average_degree, 3.0);
    assert_eq!(config.ttl, 7);
    assert_eq!(config.landmarks, 4);
    assert_eq!(config.file_pool, 3000);
    assert_eq!(config.keyword_pool, 9000);
    assert_eq!(config.files_per_peer, 3);
    assert_eq!(config.bloom_bits, 1200);
    assert_eq!(config.response_index_capacity, 50);
    assert!(config.validate().is_ok());
}

#[test]
fn localities_use_the_landmark_cardinality() {
    let simulation = paper_small(1);
    let landmarks = simulation.landmarks().len() as u32;
    let cardinality: u32 = (1..=landmarks).product();
    assert_eq!(cardinality, 24, "4 landmarks give 4! = 24 locIds");
    for &loc in simulation.loc_ids() {
        assert!(loc.value() < cardinality, "locId {loc} out of range");
    }
    // Clustered placement must produce real locality structure: several
    // distinct locIds, and peers sharing a locId are physically close.
    let distinct: std::collections::HashSet<LocId> =
        simulation.loc_ids().iter().copied().collect();
    assert!(distinct.len() > 1, "expected more than one locality");

    let topo = simulation.topology();
    let locs = simulation.loc_ids();
    let mut same_loc = Vec::new();
    let mut diff_loc = Vec::new();
    for a in topo.nodes() {
        for b in topo.nodes() {
            if a >= b {
                continue;
            }
            let rtt = topo.rtt(a, b).as_millis_f64();
            if locs[a.index()] == locs[b.index()] {
                same_loc.push(rtt);
            } else {
                diff_loc.push(rtt);
            }
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    assert!(
        mean(&same_loc) < mean(&diff_loc),
        "same-locId pairs must be closer on average ({:.1}ms vs {:.1}ms)",
        mean(&same_loc),
        mean(&diff_loc)
    );
}

#[test]
fn overlay_matches_the_configured_degree_and_is_connected() {
    let simulation = paper_small(2);
    let overlay = simulation.overlay();
    assert!(overlay.is_connected());
    let avg = overlay.average_degree();
    assert!(
        (avg - simulation.config().average_degree).abs() < 0.5,
        "average degree {avg} should be close to the configured {}",
        simulation.config().average_degree
    );
    // TTL-7 flooding from a random peer must reach a large share of the
    // overlay — this is the reach that gives flooding its high success rate.
    let reach = overlay.peers_within(locaware::PeerId(0), simulation.config().ttl);
    assert!(
        reach.len() > overlay.len() / 5,
        "TTL-{} reach {} of {} peers is implausibly small",
        simulation.config().ttl,
        reach.len(),
        overlay.len()
    );
}

#[test]
fn catalog_and_placement_are_consistent() {
    let simulation = paper_small(3);
    let catalog = simulation.catalog();
    let config = simulation.config();
    assert_eq!(catalog.len(), config.file_pool);
    assert_eq!(catalog.keyword_pool().len(), config.keyword_pool);

    for (peer, files) in simulation.initial_shares().iter().enumerate() {
        assert_eq!(
            files.len(),
            config.files_per_peer,
            "peer {peer} must initially share {} files",
            config.files_per_peer
        );
        for file in files {
            assert!(file.index() < catalog.len(), "shared file out of catalog range");
            assert_eq!(catalog.filename(*file).len(), config.keywords_per_file);
        }
    }
}

#[test]
fn group_assignment_respects_the_modulus_and_is_spread() {
    let simulation = paper_small(4);
    let modulus = simulation.config().group_count;
    let mut counts = vec![0usize; modulus as usize];
    for gid in simulation.group_ids() {
        assert!(gid.value() < modulus);
        counts[gid.value() as usize] += 1;
    }
    // No group should be empty on a 200-peer population with M = 4.
    assert!(counts.iter().all(|&c| c > 0), "group assignment left a group empty: {counts:?}");

    // The scheme's file hashing agrees between an independently constructed
    // scheme and the one the simulation used (pure function of M).
    let scheme = GroupScheme::new(modulus);
    for f in simulation.catalog().files().take(20) {
        assert_eq!(scheme.group_of_file(f), GroupScheme::new(modulus).group_of_file(f));
    }
}

#[test]
fn arrival_schedule_is_monotone_and_respects_the_rate() {
    let simulation = paper_small(5);
    let arrivals = simulation.arrivals(500);
    assert_eq!(arrivals.len(), 500);
    for pair in arrivals.windows(2) {
        assert!(pair[0].at <= pair[1].at);
    }
    for arrival in &arrivals {
        assert!(arrival.peer < simulation.config().peers);
    }
    // Mean inter-arrival time ≈ 1 / (peers × per-peer rate).
    let span = arrivals.last().unwrap().at.as_secs_f64();
    let expected_gap =
        1.0 / (simulation.config().peers as f64 * simulation.config().query_rate_per_peer);
    let mean_gap = span / arrivals.len() as f64;
    assert!(
        (mean_gap - expected_gap).abs() < expected_gap * 0.25,
        "mean inter-arrival {mean_gap:.2}s should be close to {expected_gap:.2}s"
    );
}

#[test]
fn substrate_is_shared_identically_across_protocol_runs() {
    let simulation = paper_small(6);
    // The arrival schedule handed to every protocol must be identical.
    let a = simulation.arrivals(100);
    let b = simulation.arrivals(100);
    assert_eq!(a, b);

    // And two protocols run over it must see the same number of queries from
    // the same requestors (the per-record requestor sequence is identical).
    let flooding = simulation.run(ProtocolKind::Flooding, 60);
    let locaware = simulation.run(ProtocolKind::Locaware, 60);
    let requestors = |r: &locaware::SimulationReport| {
        r.metrics.iter().map(|q| q.requestor).collect::<Vec<_>>()
    };
    assert_eq!(requestors(&flooding), requestors(&locaware));
}
