//! Dicas: distributed index caching with filename-hash groups.
//!
//! As summarised in §2/§3.2 of the Locaware paper (from Wang et al., IEEE TPDS
//! 2006): query responses are cached only at peers whose group id matches
//! `hash(filename) mod M`, and queries are routed "towards peers which are
//! likely to have the desired indexes", i.e. towards neighbours whose group id
//! matches the searched filename. Dicas is designed for **filename search**:
//! the query identifies the exact file, so the routing hash is well-defined.
//!
//! Differences from Locaware that the paper calls out (and that this
//! implementation preserves):
//! * a single provider is cached per filename (no provider list),
//! * no location information is kept or used (random provider selection),
//! * no keyword support — a keyword query can only be routed once it is mapped
//!   to a concrete filename, which is why the paper evaluates the separate
//!   Dicas-Keys variant for keyword workloads.

use locaware_overlay::{ForwardDecision, PeerId};

use crate::group::{GroupId, GroupScheme};
use crate::peer::PeerState;

use super::{
    cached_hit, dicas_keys, first_storage_match, high_degree_fallback_into, stored_hit, LocalMatch,
    PeerView, QueryContext, ResponseContext,
};

/// Dicas' routing rule.
pub(super) fn forward_targets_into(
    view: &PeerView<'_>,
    query: &QueryContext<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) -> ForwardDecision {
    // Filename search: the query names the exact file, so route towards
    // neighbours whose Gid matches hash(f) mod M, the one group the digest
    // of a filename search holds, and failing that to the high-degree
    // neighbour: the Dicas-Keys rule over that group. Without a filename
    // Dicas cannot compute the routing hash; fall back to the high-degree
    // neighbour so the query is not dropped.
    if query.target_filename.is_none() {
        return high_degree_fallback_into(view, exclude, out);
    }
    dicas_keys::forward_targets_into(view, query, exclude, out)
}

/// Dicas' matching rule.
pub(super) fn local_match(view: &PeerView<'_>, query: &QueryContext<'_>) -> Option<LocalMatch> {
    match query.target_filename {
        // Exact filename search: either this peer stores the file, or it has
        // a cached index for it.
        Some(target) if view.state.has_file(target) => Some(stored_hit(view, target)),
        Some(target) => cached_hit(view, target),
        // Keyword query reaching a Dicas peer: it can still serve a file it
        // physically stores, but its index is keyed by filename and cannot
        // be searched by keyword.
        None => first_storage_match(view, query.digest).map(|file| stored_hit(view, file)),
    }
}

/// Dicas' caching rule.
pub(super) fn cache_response(
    state: &mut PeerState,
    gid: GroupId,
    scheme: &GroupScheme,
    response: &ResponseContext<'_>,
) {
    // Cache only at peers whose Gid matches hash(f) mod M, and keep only
    // the responding provider (a single index per filename).
    if !scheme.gid_matches_file(gid, response.file) {
        return;
    }
    let Some(provider) = response.providers.first() else {
        return;
    };
    state.cache_index(response.file, response.file_keywords, [(provider.provider, provider.loc_id)]);
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{response, Fixture};
    use super::*;
    use locaware_net::LocId;
    use locaware_overlay::ProviderEntry;
    use locaware_workload::FileId;

    #[test]
    fn routes_towards_matching_gid_neighbors() {
        let fx = Fixture::new(4);
        // Peer 0's neighbours have gids 1, 2, 3, 0 (peer id mod 4).
        // Pick a target file and find which neighbour gid it maps to.
        let target = FileId(1);
        let wanted = fx.scheme.group_of_file(target);
        let query = fx.query(&[3, 4], Some(1));
        let mut targets = Vec::new();
        let decision = forward_targets_into(&fx.view(0), &query.context(), None, &mut targets);
        assert_eq!(decision, ForwardDecision::GidMatch);
        for t in &targets {
            assert_eq!(fx.scheme.group_of_file(target), wanted);
            assert_eq!(t.0 % 4, wanted.value(), "every target's gid must match the file");
        }
        assert!(!targets.is_empty());
    }

    #[test]
    fn falls_back_to_the_high_degree_neighbor() {
        let fx = Fixture::new(4);
        // From leaf peer 3, the only neighbour is the hub 0 (gid 0). Choose a
        // file whose group is not 0 so the gid match fails.
        let target = (0..4u32)
            .map(FileId)
            .find(|&f| fx.scheme.group_of_file(f).value() != 0)
            .expect("some file must hash outside group 0");
        let query = fx.query(&[0], Some(target.0));
        let mut targets = Vec::new();
        let decision = forward_targets_into(&fx.view(3), &query.context(), None, &mut targets);
        assert_eq!(targets, vec![PeerId(0)]);
        assert_eq!(decision, ForwardDecision::HighDegree);
    }

    #[test]
    fn matches_exact_filename_from_storage_and_from_cache() {
        let mut fx = Fixture::new(4);
        let query = fx.query(&[0, 1], Some(0));

        // Nothing known: no match.
        assert!(local_match(&fx.view(0), &query.context()).is_none());

        // From storage.
        fx.share(0, FileId(0));
        let hit = local_match(&fx.view(0), &query.context()).unwrap();
        assert_eq!(hit.file, FileId(0));
        assert!(!hit.from_cache);

        // From cache (on a peer that does not store the file).
        fx.peers[1].cache_index(
            FileId(0),
            fx.catalog.filename(FileId(0)).keywords(),
            [(PeerId(9), LocId(5))],
        );
        let hit = local_match(&fx.view(1), &query.context()).unwrap();
        assert!(hit.from_cache);
        assert_eq!(hit.providers.len(), 1);
        assert_eq!(hit.providers[0].provider, PeerId(9));
    }

    #[test]
    fn caches_single_provider_only_at_matching_gid_peers() {
        let mut fx = Fixture::new(4);
        let file = FileId(2);
        let matching_gid = fx.scheme.group_of_file(file);
        let offered = [ProviderEntry { provider: PeerId(7), loc_id: LocId(2) }];
        let response = response(&fx.catalog, file, &[], &offered);
        let scheme = fx.scheme;

        for i in 0..5usize {
            cache_response(&mut fx.peers[i], fx.group_ids[i], &scheme, &response);
        }
        for (i, peer) in fx.peers.iter().enumerate() {
            let should_cache = fx.group_ids[i] == matching_gid;
            assert_eq!(
                peer.response_index.contains(file),
                should_cache,
                "peer {i} gid {:?} matching {:?}",
                fx.group_ids[i],
                matching_gid
            );
            if should_cache {
                let entry = peer.response_index.entry(file).unwrap();
                assert_eq!(entry.provider_count(), 1);
                assert_eq!(entry.providers()[0].peer, PeerId(7));
            }
        }
    }

    #[test]
    fn keyword_query_without_filename_uses_storage_only() {
        let mut fx = Fixture::new(4);
        let query = fx.query(&[0], None);
        // A cached index for a matching file is *not* found via keywords.
        fx.peers[0].cache_index(
            FileId(0),
            fx.catalog.filename(FileId(0)).keywords(),
            [(PeerId(9), LocId(5))],
        );
        assert!(local_match(&fx.view(0), &query.context()).is_none());
        // But a stored file is.
        fx.share(0, FileId(2)); // keywords {0,6,7} contains 0
        let hit = local_match(&fx.view(0), &query.context()).unwrap();
        assert_eq!(hit.file, FileId(2));
    }
}
