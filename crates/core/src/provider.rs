//! Provider selection: which of the offered providers the requestor downloads
//! from.
//!
//! §4.1.2 and §5.1: a Locaware requestor prefers a provider *in its own
//! locality* (same locId); if none of the offered providers matches, *"it
//! measures its RTT to the set of available providers and chooses the one with
//! the smallest RTT"*. The compared approaches carry no location information,
//! so they pick blindly among the providers they were offered — modelled here
//! as a uniformly random pick, which keeps their expected download distance at
//! the population average (the flat curves of Figure 2).

use rand::Rng;

use locaware_net::{LinkLatencyCache, LocId, PhysicalTopology};
use locaware_overlay::{PeerId, ProviderEntry};
use locaware_sim::Duration;

/// How a requestor chooses among offered providers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionPolicy {
    /// Uniformly random choice (location-oblivious baselines).
    Random,
    /// Locaware: same-locId provider first, then smallest probed RTT.
    LocalityThenRtt,
}

/// The outcome of a provider selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectedProvider {
    /// The chosen provider.
    pub provider: PeerId,
    /// The provider's advertised locId.
    pub loc_id: LocId,
    /// True if the provider shares the requestor's locId.
    pub locality_match: bool,
}

/// Selects a provider among `offered` for a requestor at `requestor` with
/// location `requestor_loc`. Returns `None` if no provider was offered.
///
/// RTT probes are answered through `latencies` (precomputed per-link values
/// with a transparent fallback to `topology`), so repeated selections do not
/// recompute latencies the substrate already knows; pass
/// [`LinkLatencyCache::empty`] to probe the topology directly.
pub fn select_provider<R: Rng + ?Sized>(
    policy: SelectionPolicy,
    topology: &PhysicalTopology,
    latencies: &LinkLatencyCache,
    requestor: PeerId,
    requestor_loc: LocId,
    offered: &[ProviderEntry],
    rng: &mut R,
) -> Option<SelectedProvider> {
    if offered.is_empty() {
        return None;
    }
    match policy {
        SelectionPolicy::Random => {
            let pick = offered[rng.gen_range(0..offered.len())];
            Some(SelectedProvider {
                provider: pick.provider,
                loc_id: pick.loc_id,
                locality_match: pick.loc_id == requestor_loc,
            })
        }
        SelectionPolicy::LocalityThenRtt => {
            // 1. Same-locality providers, deterministically the lowest peer id
            //    (all of them are "close" by construction of the locId).
            if let Some(local) = offered
                .iter()
                .filter(|p| p.loc_id == requestor_loc)
                .min_by_key(|p| p.provider)
            {
                return Some(SelectedProvider {
                    provider: local.provider,
                    loc_id: local.loc_id,
                    locality_match: true,
                });
            }
            // 2. Fallback of §5.1: probe every offered provider and take the
            //    smallest RTT, ties broken by the lower peer id.
            let mut best: Option<(Duration, &ProviderEntry)> = None;
            for entry in offered {
                let rtt = latencies.rtt(topology, requestor, entry.provider);
                let better = match best {
                    None => true,
                    Some((best_rtt, best_entry)) => {
                        (rtt, entry.provider) < (best_rtt, best_entry.provider)
                    }
                };
                if better {
                    best = Some((rtt, entry));
                }
            }
            let (_, entry) = best?;
            Some(SelectedProvider {
                provider: entry.provider,
                loc_id: entry.loc_id,
                locality_match: false,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_net::{BriteConfig, BriteGenerator, LandmarkSet};
    use locaware_net::brite::PlacementModel;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (PhysicalTopology, Vec<LocId>) {
        let gen = BriteGenerator::new(BriteConfig {
            nodes: 50,
            placement: PlacementModel {
                clusters: 4,
                sigma: 0.02,
            },
            ..BriteConfig::default()
        });
        let topo = gen.generate(&mut StdRng::seed_from_u64(11));
        let locs = LandmarkSet::spread(4).assign_all(&topo);
        (topo, locs)
    }

    #[test]
    fn empty_offer_selects_nothing() {
        let (topo, locs) = setup();
        let cache = LinkLatencyCache::empty(topo.len());
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(
            select_provider(
                SelectionPolicy::LocalityThenRtt,
                &topo,
                &cache,
                PeerId(0),
                locs[0],
                &[],
                &mut rng
            ),
            None
        );
    }

    #[test]
    fn locality_match_is_preferred_over_everything() {
        let (topo, locs) = setup();
        let cache = LinkLatencyCache::empty(topo.len());
        let mut rng = StdRng::seed_from_u64(2);
        let requestor = PeerId(0);
        let my_loc = locs[0];
        // Find a peer with the same locId and one with a different locId.
        let same = (1..50).find(|&i| locs[i] == my_loc).map(|i| PeerId(i as u32));
        let diff = (1..50).find(|&i| locs[i] != my_loc).map(|i| PeerId(i as u32));
        let (Some(same), Some(diff)) = (same, diff) else {
            // Extremely unlikely with a clustered topology; nothing to test then.
            return;
        };
        let offered = vec![
            ProviderEntry {
                provider: diff,
                loc_id: locs[diff.index()],
            },
            ProviderEntry {
                provider: same,
                loc_id: my_loc,
            },
        ];
        let sel = select_provider(
            SelectionPolicy::LocalityThenRtt,
            &topo,
            &cache,
            requestor,
            my_loc,
            &offered,
            &mut rng,
        )
        .unwrap();
        assert_eq!(sel.provider, same);
        assert!(sel.locality_match);
    }

    #[test]
    fn rtt_fallback_picks_the_closest_offered_provider() {
        let (topo, locs) = setup();
        let cache = LinkLatencyCache::empty(topo.len());
        let mut rng = StdRng::seed_from_u64(3);
        let requestor = PeerId(0);
        // Build an offer that intentionally excludes same-locId providers.
        let my_loc = locs[0];
        let offered: Vec<ProviderEntry> = (1..50)
            .filter(|&i| locs[i] != my_loc)
            .take(5)
            .map(|i| ProviderEntry {
                provider: PeerId(i as u32),
                loc_id: locs[i],
            })
            .collect();
        assert!(offered.len() >= 2, "need at least two remote providers");
        let sel = select_provider(
            SelectionPolicy::LocalityThenRtt,
            &topo,
            &cache,
            requestor,
            my_loc,
            &offered,
            &mut rng,
        )
        .unwrap();
        assert!(!sel.locality_match);
        // It must indeed be the minimum-RTT candidate.
        let best_rtt = offered
            .iter()
            .map(|p| topo.rtt(requestor, p.provider))
            .min()
            .unwrap();
        assert_eq!(topo.rtt(requestor, sel.provider), best_rtt);
    }

    #[test]
    fn random_policy_covers_all_offers_and_is_probe_free() {
        let (topo, locs) = setup();
        let cache = LinkLatencyCache::empty(topo.len());
        let mut rng = StdRng::seed_from_u64(4);
        let offered: Vec<ProviderEntry> = (1..5)
            .map(|i| ProviderEntry {
                provider: PeerId(i),
                loc_id: locs[i as usize],
            })
            .collect();
        let mut chosen = std::collections::HashSet::new();
        for _ in 0..200 {
            let sel = select_provider(
                SelectionPolicy::Random,
                &topo,
                &cache,
                PeerId(0),
                locs[0],
                &offered,
                &mut rng,
            )
            .unwrap();
            chosen.insert(sel.provider);
        }
        assert_eq!(chosen.len(), 4, "random selection should hit every offer eventually");
    }
}
