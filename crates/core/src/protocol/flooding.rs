//! Blind flooding (the Gnutella baseline).
//!
//! §3.1: *"Query routing is done by blindly flooding q over the P2P network and
//! is bounded by a fixed TTL."* There is no index caching at all: only peers
//! that actually store a satisfying file answer. Flooding is the upper bound on
//! success rate and the (very high) baseline for search traffic in Figures 3–4.

use locaware_overlay::{ForwardDecision, PeerId};

use super::{all_neighbors_except_into, PeerView};

/// Flooding's routing rule: every neighbour but the sender.
pub(super) fn forward_targets_into(
    view: &PeerView<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) -> ForwardDecision {
    all_neighbors_except_into(view, exclude, out);
    if out.is_empty() {
        ForwardDecision::NotForwarded
    } else {
        ForwardDecision::Flood
    }
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{response, Fixture};
    use super::super::{cache_response, local_match};
    use super::*;
    use crate::config::ProtocolKind;
    use locaware_net::LocId;
    use locaware_overlay::ProviderEntry;
    use locaware_workload::FileId;

    #[test]
    fn forwards_to_every_neighbor_except_the_sender() {
        let fx = Fixture::new(4);
        let mut targets = Vec::new();
        let decision = forward_targets_into(&fx.view(0), Some(PeerId(3)), &mut targets);
        assert_eq!(targets, vec![PeerId(1), PeerId(2), PeerId(4)]);
        assert_eq!(decision, ForwardDecision::Flood);
    }

    #[test]
    fn leaf_with_only_the_sender_does_not_forward() {
        let fx = Fixture::new(4);
        let mut targets = Vec::new();
        let decision = forward_targets_into(&fx.view(3), Some(PeerId(0)), &mut targets);
        assert!(targets.is_empty());
        assert_eq!(decision, ForwardDecision::NotForwarded);
    }

    #[test]
    fn answers_only_from_its_own_storage() {
        let mut fx = Fixture::new(4);
        let query = fx.query(&[0, 1], None);
        assert!(local_match(ProtocolKind::Flooding, &fx.view(0), &query.context()).is_none());

        fx.share(0, FileId(0)); // keywords {0,1,2}
        let hit = local_match(ProtocolKind::Flooding, &fx.view(0), &query.context()).unwrap();
        assert_eq!(hit.file, FileId(0));
        assert!(!hit.from_cache);
        assert_eq!(hit.providers.len(), 1);
        assert_eq!(hit.providers[0].provider, PeerId(0));
    }

    #[test]
    fn never_caches_passing_responses() {
        let mut fx = Fixture::new(4);
        let offered = [ProviderEntry { provider: PeerId(3), loc_id: LocId(0) }];
        let response = response(&fx.catalog, FileId(0), &[], &offered);
        let scheme = fx.scheme;
        cache_response(ProtocolKind::Flooding, &mut fx.peers[0], fx.group_ids[0], &scheme, &response);
        assert!(fx.peers[0].response_index.is_empty());
        assert!(!fx.peers[0].bloom_dirty());
    }
}
