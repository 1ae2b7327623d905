//! Tests of the `Hybrid` kind: Locaware's rules on the overlay for the most
//! popular `head_fraction` of the catalog, the keyword DHT for its tail.

#[cfg(test)]
mod tests {
    use super::super::test_support::{response, Fixture};
    use super::super::{cache_response, forward_targets_into, local_match};
    use crate::config::{ProtocolKind, SimulationConfig};
    use locaware_net::LocId;
    use locaware_overlay::{PeerId, ProviderEntry};
    use locaware_workload::FileId;

    const HYBRID: ProtocolKind = ProtocolKind::Hybrid;

    #[test]
    fn head_stays_on_the_overlay_and_the_tail_goes_structured() {
        // 100-file catalog: ranks 0..=9 are the head, 10..=99 the tail.
        assert!(!HYBRID.dht_resolves_rank(0, 100, 0.1));
        assert!(!HYBRID.dht_resolves_rank(9, 100, 0.1));
        assert!(HYBRID.dht_resolves_rank(10, 100, 0.1));
        assert!(HYBRID.dht_resolves_rank(99, 100, 0.1));
    }

    #[test]
    fn degenerate_fractions_collapse_to_pure_protocols() {
        for rank in [0, 1, 50, 99] {
            assert!(HYBRID.dht_resolves_rank(rank, 100, 0.0));
            assert!(!HYBRID.dht_resolves_rank(rank, 100, 1.0));
            assert_eq!(
                HYBRID.dht_resolves_rank(rank, 100, 0.0),
                ProtocolKind::DhtIndex.dht_resolves_rank(rank, 100, 0.0)
            );
            assert_eq!(
                HYBRID.dht_resolves_rank(rank, 100, 1.0),
                ProtocolKind::Locaware.dht_resolves_rank(rank, 100, 1.0)
            );
        }
    }

    /// On the overlay a hybrid peer is a Locaware peer: the same per-run
    /// facts, and the same forward, cache and answer at every hop.
    #[test]
    fn delegates_overlay_policy_to_locaware() {
        let config = SimulationConfig::small(20);
        let locaware = ProtocolKind::Locaware;
        assert_eq!(HYBRID.selection_policy(), locaware.selection_policy());
        assert_eq!(HYBRID.routes_by_bloom(), locaware.routes_by_bloom());
        assert_eq!(HYBRID.searches_by_filename(), locaware.searches_by_filename());
        assert_eq!(HYBRID.max_providers_per_file(&config), locaware.max_providers_per_file(&config));

        let file = FileId(0); // keywords {0,1,2}
        let offered = [
            ProviderEntry { provider: PeerId(7), loc_id: LocId(1) },
            ProviderEntry { provider: PeerId(8), loc_id: LocId(2) },
        ];
        let run = |kind| {
            let mut fx = Fixture::new(4);
            let query = fx.query(&[0, 1], None);
            let mut targets = Vec::new();
            let decision = forward_targets_into(kind, &fx.view(0), &query.context(), Some(PeerId(1)), &mut targets);
            let scheme = fx.scheme;
            let response = response(&fx.catalog, file, query.digest.keywords(), &offered);
            cache_response(kind, &mut fx.peers[2], scheme.group_of_file(file), &scheme, &response);
            let hit = local_match(kind, &fx.view(2), &query.context());
            (decision, targets, hit)
        };
        let (hybrid, locaware) = (run(HYBRID), run(locaware));
        assert!(hybrid.2.as_ref().is_some_and(|hit| hit.from_cache), "the cached index answers");
        assert_eq!(hybrid, locaware);
    }
}
