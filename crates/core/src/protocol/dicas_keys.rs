//! Dicas-Keys: the Dicas variant for keyword search.
//!
//! §2 of the Locaware paper: *"some proposed strategy consists in caching
//! indexes based on hashing query keywords instead of the whole filename, which
//! causes a large amount of duplicated cached indexes."* §5.1 evaluates this
//! variant as "Dicas-Keys (designed for keyword search)".
//!
//! Concretely: routing and caching apply the group rule to the *keywords* —
//! a query is forwarded to neighbours whose Gid matches `hash(kw) mod M` for
//! some query keyword, and a response is cached at peers whose Gid matches one
//! of the filename's keywords. Because a filename has several keywords mapping
//! to several groups, the same index ends up duplicated across groups (the
//! storage overhead the paper criticises), and routing by a keyword hash often
//! walks towards peers caching *other* files that share that keyword (the
//! "misleads keyword queries" effect behind its low success rate in Figure 4).

use locaware_overlay::{ForwardDecision, PeerId};

use crate::group::{GroupId, GroupScheme};
use crate::peer::PeerState;

use super::{
    cached_hit, first_storage_match, high_degree_fallback_into, neighbors_matching_gid_into,
    stored_hit, LocalMatch, PeerView, QueryContext, ResponseContext,
};

/// Dicas-Keys' routing rule, which Locaware falls back on when no
/// neighbour's Bloom filter matches (and `LocawareNoBloom` routes by alone):
/// the neighbours whose Gid is one of the query digest's groups, else the
/// high-degree neighbour.
pub(super) fn forward_targets_into(
    view: &PeerView<'_>,
    query: &QueryContext<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) -> ForwardDecision {
    neighbors_matching_gid_into(view, query.digest.groups(), exclude, out);
    if !out.is_empty() {
        return ForwardDecision::GidMatch;
    }
    high_degree_fallback_into(view, exclude, out)
}

/// Dicas-Keys' matching rule: own storage first, then cached indexes matched
/// by keywords.
pub(super) fn local_match(view: &PeerView<'_>, query: &QueryContext<'_>) -> Option<LocalMatch> {
    if let Some(file) = first_storage_match(view, query.digest) {
        return Some(stored_hit(view, file));
    }
    let file = view.state.response_index.lookup_signed(query.digest.keywords(), query.digest.signature()).into_iter().next()?;
    cached_hit(view, file)
}

/// Dicas-Keys' caching rule.
pub(super) fn cache_response(
    state: &mut PeerState,
    gid: GroupId,
    scheme: &GroupScheme,
    response: &ResponseContext<'_>,
) {
    // Keyword-hash caching: the index is keyed on the *query's* keywords
    // (whatever subset of the filename the original requestor typed) and
    // cached wherever any of those keywords maps to this peer's group.
    // This is the strategy the paper criticises: the same file ends up
    // duplicated across keyword groups, yet a later query using a
    // different keyword subset neither routes to the same groups nor
    // matches the partially-keyed entry.
    let keying = if response.query_keywords.is_empty() {
        response.file_keywords
    } else {
        response.query_keywords
    };
    if !scheme.gid_matches_any_keyword(gid, keying) {
        return;
    }
    let Some(provider) = response.providers.first() else {
        return;
    };
    state.cache_index(response.file, keying, [(provider.provider, provider.loc_id)]);
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{response, Fixture};
    use super::*;
    use locaware_net::LocId;
    use locaware_overlay::ProviderEntry;
    use locaware_workload::FileId;

    #[test]
    fn routes_by_keyword_group() {
        let fx = Fixture::new(4);
        let query = fx.query(&[0, 1], None);
        let mut targets = Vec::new();
        let decision = forward_targets_into(&fx.view(0), &query.context(), None, &mut targets);
        match decision {
            ForwardDecision::GidMatch => {
                for t in &targets {
                    let gid = fx.group_ids[t.index()];
                    assert!(fx.scheme.gid_matches_any_keyword(gid, query.digest.keywords()));
                }
            }
            ForwardDecision::HighDegree => {
                // Legitimate when no neighbour's gid matches either keyword.
                assert_eq!(targets.len(), 1);
            }
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn caching_is_duplicated_across_keyword_groups() {
        // With M = 2 groups and 3 keywords per filename, a filename almost
        // always maps to both groups, so *every* peer caches it — the
        // duplication the paper criticises.
        let mut fx = Fixture::new(2);
        let scheme = fx.scheme;
        let offered = [ProviderEntry { provider: PeerId(7), loc_id: LocId(2) }];
        let response = response(&fx.catalog, FileId(0), &[], &offered);
        let groups: std::collections::HashSet<u32> = fx
            .catalog
            .filename(FileId(0))
            .keywords()
            .iter()
            .map(|&kw| scheme.group_of_keyword(kw).value())
            .collect();

        let mut cached = 0usize;
        for i in 0..5usize {
            cache_response(&mut fx.peers[i], fx.group_ids[i], &scheme, &response);
            if fx.peers[i].response_index.contains(FileId(0)) {
                cached += 1;
                assert!(groups.contains(&fx.group_ids[i].value()));
            }
        }
        // Every peer whose gid is in the filename's keyword-group set caches.
        let eligible = fx.group_ids.iter().filter(|gid| groups.contains(&gid.value())).count();
        assert_eq!(cached, eligible);
        assert!(cached >= 2, "keyword hashing should spread the index widely");
    }

    #[test]
    fn matches_from_storage_and_keyword_indexed_cache() {
        let mut fx = Fixture::new(4);
        let query = fx.query(&[0, 6], None); // matches file 2 = {0,6,7}

        assert!(local_match(&fx.view(1), &query.context()).is_none());

        // Cache hit by keywords.
        fx.peers[1].cache_index(
            FileId(2),
            fx.catalog.filename(FileId(2)).keywords(),
            [(PeerId(8), LocId(4))],
        );
        let hit = local_match(&fx.view(1), &query.context()).unwrap();
        assert_eq!(hit.file, FileId(2));
        assert!(hit.from_cache);
        assert_eq!(hit.providers[0].provider, PeerId(8));

        // Storage hit takes precedence.
        fx.share(1, FileId(2));
        let hit = local_match(&fx.view(1), &query.context()).unwrap();
        assert!(!hit.from_cache);
        assert_eq!(hit.providers[0].provider, PeerId(1));
    }

    #[test]
    fn no_keyword_match_means_no_cache() {
        let mut fx = Fixture::new(4);
        let scheme = fx.scheme;
        let offered = [ProviderEntry { provider: PeerId(7), loc_id: LocId(2) }];
        let response = response(&fx.catalog, FileId(3), &[], &offered);
        // Find a peer whose gid matches none of file 3's keyword groups.
        let groups: std::collections::HashSet<u32> = fx
            .catalog
            .filename(FileId(3))
            .keywords()
            .iter()
            .map(|&kw| scheme.group_of_keyword(kw).value())
            .collect();
        if let Some(i) = (0..5usize).find(|&i| !groups.contains(&fx.group_ids[i].value())) {
            cache_response(&mut fx.peers[i], fx.group_ids[i], &scheme, &response);
            assert!(!fx.peers[i].response_index.contains(FileId(3)));
        }
    }
}
