//! Hybrid structured/unstructured search: split the Zipf popularity curve.
//!
//! Caching overlays like Locaware thrive on the Zipf *head* — popular files
//! are queried often enough that their index entries stay hot in response
//! indexes near every requestor — and struggle on the *tail*, where a rare
//! file's only index entry may sit many hops from the next requestor. A DHT
//! inverts the trade-off: every file is reachable in `O(log n)` hops
//! regardless of popularity, but lookups pay those hops even for files the
//! overlay would have answered from a neighbour's cache.
//!
//! This protocol takes each side's strong half. Targets in the most popular
//! `hybrid_head_fraction` of the catalog resolve through the full Locaware
//! machinery (Bloom-directed forwarding, response-index caching,
//! locality-aware selection); everything below that rank is indexed in — and
//! resolved through — the keyword DHT. The popularity rank comes from the
//! workload's ground-truth permutation, standing in for the rank estimate a
//! deployed peer would maintain from observed query frequencies.

use locaware_overlay::{ForwardDecision, PeerId};

use crate::config::{ProtocolKind, SimulationConfig};
use crate::group::{GroupId, GroupScheme};
use crate::peer::PeerState;
use crate::provider::SelectionPolicy;

use super::locaware::Locaware;
use super::{LocalMatch, PeerView, Protocol, QueryContext, ResponseContext};

/// The hybrid head/tail protocol: Locaware for the popular head, the DHT for
/// the rare tail.
#[derive(Debug, Clone)]
pub struct Hybrid {
    /// The unstructured side, with all its switches at paper settings.
    overlay: Locaware,
    /// Fraction of the catalog (by popularity rank) the overlay keeps.
    head_fraction: f64,
}

impl Hybrid {
    /// Creates the hybrid policy from the run configuration.
    pub fn new(config: &SimulationConfig) -> Self {
        Hybrid {
            overlay: Locaware::new(config),
            head_fraction: config.dht.hybrid_head_fraction,
        }
    }
}

impl Protocol for Hybrid {
    fn kind(&self) -> ProtocolKind {
        ProtocolKind::Hybrid
    }

    fn selection_policy(&self) -> SelectionPolicy {
        self.overlay.selection_policy()
    }

    fn uses_bloom_sync(&self) -> bool {
        self.overlay.uses_bloom_sync()
    }

    fn dht_resolves_rank(&self, rank: usize, catalog_len: usize) -> bool {
        // Ranks [0, head_fraction * len) stay on the overlay; the tail is the
        // DHT's. With fraction 0 everything is structured, with 1 nothing is.
        (rank as f64) >= self.head_fraction * catalog_len as f64
    }

    fn max_providers_per_file(&self) -> usize {
        self.overlay.max_providers_per_file()
    }

    fn forward_targets_into(
        &self,
        view: &PeerView<'_>,
        query: &QueryContext<'_>,
        exclude: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) -> ForwardDecision {
        self.overlay.forward_targets_into(view, query, exclude, out)
    }

    fn local_match(&self, view: &PeerView<'_>, query: &QueryContext<'_>) -> Option<LocalMatch> {
        self.overlay.local_match(view, query)
    }

    fn cache_response(
        &self,
        state: &mut PeerState,
        gid: GroupId,
        scheme: &GroupScheme,
        response: &ResponseContext<'_>,
    ) {
        self.overlay.cache_response(state, gid, scheme, response);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hybrid_with_fraction(fraction: f64) -> Hybrid {
        let mut config = SimulationConfig::small(20);
        config.dht.hybrid_head_fraction = fraction;
        Hybrid::new(&config)
    }

    #[test]
    fn head_stays_on_the_overlay_and_the_tail_goes_structured() {
        let hybrid = hybrid_with_fraction(0.1);
        // 100-file catalog: ranks 0..=9 are the head, 10..=99 the tail.
        assert!(!hybrid.dht_resolves_rank(0, 100));
        assert!(!hybrid.dht_resolves_rank(9, 100));
        assert!(hybrid.dht_resolves_rank(10, 100));
        assert!(hybrid.dht_resolves_rank(99, 100));
    }

    #[test]
    fn degenerate_fractions_collapse_to_pure_protocols() {
        let all_dht = hybrid_with_fraction(0.0);
        let all_overlay = hybrid_with_fraction(1.0);
        for rank in [0, 1, 50, 99] {
            assert!(all_dht.dht_resolves_rank(rank, 100));
            assert!(!all_overlay.dht_resolves_rank(rank, 100));
        }
    }

    #[test]
    fn delegates_overlay_policy_to_locaware() {
        let config = SimulationConfig::small(20);
        let hybrid = Hybrid::new(&config);
        let locaware = Locaware::new(&config);
        assert_eq!(hybrid.kind(), ProtocolKind::Hybrid);
        assert_eq!(hybrid.selection_policy(), locaware.selection_policy());
        assert_eq!(hybrid.uses_bloom_sync(), locaware.uses_bloom_sync());
        assert_eq!(hybrid.max_providers_per_file(), locaware.max_providers_per_file());
    }
}
