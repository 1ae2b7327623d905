//! Tests of the structured `DhtIndex` kind. It has no overlay policy: its
//! arms of the parent module's per-hop rules forward, match and cache
//! nothing, and its queries resolve through the keyword DHT.

#[cfg(test)]
mod tests {
    use super::super::test_support::{response, Fixture};
    use super::super::{cache_response, forward_targets_into, local_match};
    use crate::config::ProtocolKind;
    use locaware_net::LocId;
    use locaware_overlay::{ForwardDecision, PeerId, ProviderEntry};
    use locaware_workload::FileId;

    #[test]
    fn expresses_no_overlay_policy() {
        let mut fx = Fixture::new(4);
        let kind = ProtocolKind::DhtIndex;
        let query = fx.query(&[0, 1], None);

        let mut targets = Vec::new();
        let decision = forward_targets_into(kind, &fx.view(0), &query.context(), None, &mut targets);
        assert!(targets.is_empty());
        assert_eq!(decision, ForwardDecision::NotForwarded);

        // Even a peer storing a satisfying file does not answer overlay-side.
        fx.share(0, FileId(0));
        assert!(local_match(kind, &fx.view(0), &query.context()).is_none());

        // Nor does a passing response fill the overlay's index.
        let offered = [ProviderEntry { provider: PeerId(3), loc_id: LocId(0) }];
        let response = response(&fx.catalog, FileId(0), &[], &offered);
        let scheme = fx.scheme;
        let gid = scheme.group_of_file(FileId(0));
        cache_response(kind, &mut fx.peers[1], gid, &scheme, &response);
        assert!(fx.peers[1].response_index.is_empty());
    }
}
