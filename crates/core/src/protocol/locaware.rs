//! Locaware: location-aware index caching with Bloom-filter keyword routing —
//! the paper's contribution (§4).
//!
//! The four ingredients, and where they live here:
//!
//! 1. **Location-aware response index** (§4.1.1): every cached provider entry
//!    carries its locId; responses assembled from the index put a provider in
//!    the requestor's locality first ([`local_match`]).
//! 2. **Leveraging natural replication** (§4.1.2): caching peers also record
//!    the *requestor* as a new provider, and a peer answering from its index
//!    adds the new requestor too ([`cache_response`]).
//! 3. **Bloom-filter keyword routing** (§4.2): a query is forwarded to the
//!    neighbours whose (last known) Bloom filter contains every query keyword;
//!    if none matches, to neighbours whose Gid matches a query keyword; as a
//!    last resort to the highest-degree neighbour ([`forward_targets_into`]).
//! 4. **Location-aware provider selection** (§5.1): same-locId provider first,
//!    else the smallest probed RTT
//!    ([`SelectionPolicy::LocalityThenRtt`](crate::provider::SelectionPolicy::LocalityThenRtt)).
//!
//! The ablation kinds switch off ingredient 4 (`LocawareNoLocality` selects
//! at random) or 3 (`LocawareNoBloom` routes by the Dicas-Keys rule alone);
//! the ablation benchmarks use them to attribute the gains of Figure 2 and
//! Figure 4 to the individual mechanisms.

use locaware_net::LocId;
use locaware_overlay::{ForwardDecision, PeerId, ProviderEntry};

use crate::group::{GroupId, GroupScheme};
use crate::index::ProviderRecord;
use crate::peer::PeerState;

use super::{dicas_keys, first_storage_match, LocalMatch, PeerView, QueryContext, ResponseContext};

/// Assembles the provider list for a response, putting a same-locality
/// provider (w.r.t. the query originator) first, then the freshest others,
/// capped at `cap`. This is the "(D, 1) … also includes IP addresses of some
/// other providers" behaviour of §4.1.2.
fn assemble_providers(
    entry_providers: &[ProviderRecord],
    origin_loc: LocId,
    always_include: Option<ProviderEntry>,
    cap: usize,
) -> Vec<ProviderEntry> {
    let mut ordered: Vec<&ProviderRecord> = entry_providers.iter().collect();
    // Most recent first; the paper keeps the most recent entries as the
    // freshest (least likely to be stale).
    ordered.sort_by_key(|p| std::cmp::Reverse(p.freshness));
    // Stable partition: same-locality providers first.
    let (local, remote): (Vec<&ProviderRecord>, Vec<&ProviderRecord>) =
        ordered.into_iter().partition(|p| p.loc_id == origin_loc);

    let mut out: Vec<ProviderEntry> = Vec::new();
    if let Some(extra) = always_include {
        out.push(extra);
    }
    for record in local.into_iter().chain(remote) {
        if out.len() >= cap {
            break;
        }
        if out.iter().any(|p| p.provider == record.peer) {
            continue;
        }
        out.push(ProviderEntry {
            provider: record.peer,
            loc_id: record.loc_id,
        });
    }
    out
}

/// Locaware's routing rule (§4.2).
pub(super) fn forward_targets_into(
    view: &PeerView<'_>,
    query: &QueryContext<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) -> ForwardDecision {
    // 1. Neighbours whose Bloom filter matches every query keyword: the
    //    digest's fold mask screens each neighbour's filter, and only a
    //    filter that passes is probed.
    let row = view.graph.neighbors(view.state.id);
    let digest = query.digest;
    view.state.neighbors_matching_bloom_into(row, digest.keywords(), digest.fold_mask(), exclude, out);
    if !out.is_empty() {
        return ForwardDecision::BloomMatch;
    }
    // 2. Neighbours whose Gid matches the query ("matched Gid wrt q"), and
    // 3. as a last resort a highly connected neighbour: the Dicas-Keys rule.
    dicas_keys::forward_targets_into(view, query, exclude, out)
}

/// Locaware's matching rule (§4.1.1).
pub(super) fn local_match(view: &PeerView<'_>, query: &QueryContext<'_>) -> Option<LocalMatch> {
    let cap = view.max_providers_per_response;
    // 1. The peer's own storage: it is itself a provider; enrich with any
    //    additional providers it has cached for the same file.
    if let Some(file) = first_storage_match(view, query.digest) {
        let own = ProviderEntry {
            provider: view.state.id,
            loc_id: view.state.loc_id,
        };
        let cached = view
            .state
            .response_index
            .entry(file)
            .map(|e| assemble_providers(e.providers(), query.origin_loc, Some(own), cap))
            .unwrap_or_else(|| vec![own]);
        return Some(LocalMatch {
            file,
            providers: cached,
            from_cache: false,
        });
    }
    // 2. The response index, matched by keywords. Prefer the cached file
    //    that can offer a provider in the originator's locality.
    let candidates = view.state.response_index.lookup_signed(query.digest.keywords(), query.digest.signature());
    let best = candidates
        .iter()
        .copied()
        .max_by_key(|&f| {
            let entry = view.state.response_index.entry(f);
            let local_providers = entry
                .map(|e| {
                    e.providers()
                        .iter()
                        .filter(|p| p.loc_id == query.origin_loc)
                        .count()
                })
                .unwrap_or(0);
            let total = entry.map(|e| e.provider_count()).unwrap_or(0);
            (local_providers, total, std::cmp::Reverse(f.0))
        })?;
    let entry = view.state.response_index.entry(best)?;
    let providers = assemble_providers(entry.providers(), query.origin_loc, None, cap);
    if providers.is_empty() {
        return None;
    }
    Some(LocalMatch {
        file: best,
        providers,
        from_cache: true,
    })
}

/// Locaware's caching rule (§4.1.2).
pub(super) fn cache_response(
    state: &mut PeerState,
    gid: GroupId,
    scheme: &GroupScheme,
    response: &ResponseContext<'_>,
) {
    // Cache only at peers whose Gid matches hash(f) mod M (§4.1.2 keeps the
    // Dicas placement rule), but cache *all* advertised providers plus the
    // requestor as a new provider.
    if !scheme.gid_matches_file(gid, response.file) {
        return;
    }
    let providers = response
        .providers
        .iter()
        .map(|p| (p.provider, p.loc_id))
        .chain(std::iter::once((
            response.requestor.provider,
            response.requestor.loc_id,
        )));
    state.cache_index(response.file, response.file_keywords, providers);
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{response, Fixture};
    use super::*;
    use crate::config::ProtocolKind;
    use locaware_bloom::BloomFilter;
    use locaware_workload::{FileId, KeywordId};
    use std::sync::Arc;

    #[test]
    fn bloom_match_takes_priority_over_gid_and_degree() {
        let mut fx = Fixture::new(4);
        let query = fx.query(&[0, 1], None);

        // Teach peer 0 that neighbour 3's filter contains keywords 0 and 1.
        let mut bloom = BloomFilter::default();
        bloom.insert(&KeywordId(0).canonical());
        bloom.insert(&KeywordId(1).canonical());
        let fold = bloom.fold();
        fx.peers[0].set_neighbor_bloom(PeerId(3), Arc::new(bloom), fold);

        let mut targets = Vec::new();
        let decision =
            forward_targets_into(&fx.view(0), &query.context(), None, &mut targets);
        assert_eq!(targets, vec![PeerId(3)]);
        assert_eq!(decision, ForwardDecision::BloomMatch);

        // Excluding the only bloom match falls back to the Gid rule (or the
        // high-degree fallback when no gid matches).
        let mut targets2 = Vec::new();
        let decision2 = forward_targets_into(
            &fx.view(0),
            &query.context(),
            Some(PeerId(3)),
            &mut targets2,
        );
        assert!(!targets2.contains(&PeerId(3)));
        assert!(matches!(
            decision2,
            ForwardDecision::GidMatch | ForwardDecision::HighDegree
        ));
    }

    #[test]
    fn no_bloom_variant_skips_bloom_routing() {
        let mut fx = Fixture::new(4);
        let query = fx.query(&[0, 1], None);
        let mut bloom = BloomFilter::default();
        bloom.insert(&KeywordId(0).canonical());
        bloom.insert(&KeywordId(1).canonical());
        let fold = bloom.fold();
        fx.peers[0].set_neighbor_bloom(PeerId(3), Arc::new(bloom), fold);

        let (kind, view) = (ProtocolKind::LocawareNoBloom, fx.view(0));
        let decision = super::super::forward_targets_into(kind, &view, &query.context(), None, &mut Vec::new());
        assert_ne!(decision, ForwardDecision::BloomMatch);
        assert!(!kind.routes_by_bloom());
    }

    #[test]
    fn caching_records_providers_and_the_requestor() {
        let mut fx = Fixture::new(4);
        let scheme = fx.scheme;
        let file = FileId(0);
        let matching_gid = scheme.group_of_file(file);

        let offered = [
            ProviderEntry { provider: PeerId(7), loc_id: LocId(3) },
            ProviderEntry { provider: PeerId(8), loc_id: LocId(1) },
        ];
        let response = response(&fx.catalog, file, &[], &offered);
        // A peer of the file's group caches it.
        cache_response(&mut fx.peers[0], matching_gid, &scheme, &response);
        let entry = fx.peers[0].response_index.entry(file).unwrap();
        let providers: Vec<u32> = entry.providers().iter().map(|p| p.peer.0).collect();
        assert!(providers.contains(&7));
        assert!(providers.contains(&8));
        assert!(providers.contains(&4), "the requestor becomes a provider (§4.1.2)");

        // A non-matching peer does not cache.
        let other_gid = GroupId((matching_gid.value() + 1) % 4);
        cache_response(&mut fx.peers[1], other_gid, &scheme, &response);
        assert!(!fx.peers[1].response_index.contains(file));
    }

    #[test]
    fn index_answers_prefer_the_originators_locality() {
        let mut fx = Fixture::new(4);
        let file = FileId(0); // keywords {0,1,2}
        fx.peers[2].cache_index(
            file,
            fx.catalog.filename(file).keywords(),
            [
                (PeerId(7), LocId(0)),
                (PeerId(8), LocId(1)), // same locality as the query origin
                (PeerId(9), LocId(2)),
            ],
        );
        let query = fx.query(&[0, 2], None); // origin_loc = LocId(1)
        let hit = local_match(&fx.view(2), &query.context()).unwrap();
        assert!(hit.from_cache);
        assert_eq!(hit.file, file);
        assert_eq!(
            hit.providers.first().unwrap().provider,
            PeerId(8),
            "the same-locality provider must come first"
        );
        assert!(hit.providers.len() >= 2, "other providers are included too");
    }

    #[test]
    fn storage_answers_include_cached_providers() {
        let mut fx = Fixture::new(4);
        let file = FileId(2); // keywords {0,6,7}
        fx.share(1, file);
        fx.peers[1].cache_index(
            file,
            fx.catalog.filename(file).keywords(),
            [(PeerId(9), LocId(1))],
        );
        let query = fx.query(&[6, 7], None);
        let hit = local_match(&fx.view(1), &query.context()).unwrap();
        assert!(!hit.from_cache);
        assert_eq!(hit.providers[0].provider, PeerId(1), "the serving peer itself first");
        assert!(hit.providers.iter().any(|p| p.provider == PeerId(9)));
    }

    #[test]
    fn provider_list_is_capped_per_response() {
        let mut fx = Fixture::new(4);
        fx.max_providers_per_response = 2;
        let file = FileId(3);
        fx.peers[2].cache_index(
            file,
            fx.catalog.filename(file).keywords(),
            (0..4u32).map(|i| (PeerId(10 + i), LocId(0))),
        );
        let query = fx.query(&[8, 9], None);
        let hit = local_match(&fx.view(2), &query.context()).unwrap();
        assert_eq!(hit.providers.len(), 2);
    }

    #[test]
    fn no_match_when_nothing_is_known() {
        let fx = Fixture::new(4);
        let query = fx.query(&[0, 1], None);
        assert!(local_match(&fx.view(0), &query.context()).is_none());
        // Empty keyword lists never match anything.
        let empty = fx.query(&[], None);
        assert!(local_match(&fx.view(0), &empty.context()).is_none());
    }
}
