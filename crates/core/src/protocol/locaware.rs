//! Locaware: location-aware index caching with Bloom-filter keyword routing —
//! the paper's contribution (§4).
//!
//! The four ingredients, and where they live here:
//!
//! 1. **Location-aware response index** (§4.1.1): every cached provider entry
//!    carries its locId; responses assembled from the index put a provider in
//!    the requestor's locality first ([`Locaware::local_match`]).
//! 2. **Leveraging natural replication** (§4.1.2): caching peers also record
//!    the *requestor* as a new provider, and a peer answering from its index
//!    adds the new requestor too ([`Locaware::cache_response`]).
//! 3. **Bloom-filter keyword routing** (§4.2): a query is forwarded to the
//!    neighbours whose (last known) Bloom filter contains every query keyword;
//!    if none matches, to neighbours whose Gid matches a query keyword; as a
//!    last resort to the highest-degree neighbour
//!    ([`Locaware::forward_targets_into`]).
//! 4. **Location-aware provider selection** (§5.1): same-locId provider first,
//!    else the smallest probed RTT ([`SelectionPolicy::LocalityThenRtt`]).
//!
//! The `without_locality` / `without_bloom` constructors switch off ingredient
//! 4 or 3 respectively; the ablation benchmarks use them to attribute the gains
//! of Figure 2 and Figure 4 to the individual mechanisms.

use locaware_overlay::{ForwardDecision, PeerId, ProviderEntry};

use crate::config::{ProtocolKind, SimulationConfig};
use crate::group::{GroupId, GroupScheme};
use crate::peer::PeerState;
use crate::provider::SelectionPolicy;

use super::{
    first_storage_match, high_degree_fallback_into, neighbors_matching_gid_into, LocalMatch,
    PeerView, Protocol, QueryContext, ResponseContext,
};

/// The Locaware policy (and its ablation variants).
#[derive(Debug, Clone, Copy)]
pub struct Locaware {
    kind: ProtocolKind,
    /// Use Bloom filters for routing (ingredient 3). When off, routing falls
    /// straight back to the Gid rule.
    use_bloom_routing: bool,
    /// Use locality-aware provider selection (ingredient 4). When off,
    /// selection is uniformly random like the baselines.
    use_locality_selection: bool,
    /// Maximum provider entries returned in one response.
    max_providers_per_response: usize,
    /// Maximum provider entries kept per cached filename.
    max_providers_per_file: usize,
}

impl Locaware {
    /// The full protocol as described in the paper.
    pub fn new(config: &SimulationConfig) -> Self {
        Locaware {
            kind: ProtocolKind::Locaware,
            use_bloom_routing: true,
            use_locality_selection: true,
            max_providers_per_response: config.max_providers_per_response,
            max_providers_per_file: config.max_providers_per_file,
        }
    }

    /// Ablation: multiple providers are cached and returned, but the requestor
    /// picks among them at random (no locality awareness).
    pub fn without_locality(config: &SimulationConfig) -> Self {
        Locaware {
            kind: ProtocolKind::LocawareNoLocality,
            use_locality_selection: false,
            ..Self::new(config)
        }
    }

    /// Ablation: no Bloom-filter routing; queries fall back to the Gid rule
    /// (like Dicas-Keys) while caching and selection stay location-aware.
    pub fn without_bloom(config: &SimulationConfig) -> Self {
        Locaware {
            kind: ProtocolKind::LocawareNoBloom,
            use_bloom_routing: false,
            ..Self::new(config)
        }
    }

    /// Assembles the provider list for a response, putting a same-locality
    /// provider (w.r.t. the query originator) first, then the freshest others,
    /// capped at `max_providers_per_response`. This is the "(D, 1) …
    /// also includes IP addresses of some other providers" behaviour of §4.1.2.
    fn assemble_providers(
        &self,
        entry_providers: &[crate::index::ProviderRecord],
        origin_loc: locaware_net::LocId,
        always_include: Option<ProviderEntry>,
    ) -> Vec<ProviderEntry> {
        let mut ordered: Vec<&crate::index::ProviderRecord> = entry_providers.iter().collect();
        // Most recent first; the paper keeps the most recent entries as the
        // freshest (least likely to be stale).
        ordered.sort_by_key(|p| std::cmp::Reverse(p.freshness));
        // Stable partition: same-locality providers first.
        let (local, remote): (
            Vec<&crate::index::ProviderRecord>,
            Vec<&crate::index::ProviderRecord>,
        ) = ordered.into_iter().partition(|p| p.loc_id == origin_loc);

        let mut out: Vec<ProviderEntry> = Vec::new();
        if let Some(extra) = always_include {
            out.push(extra);
        }
        for record in local.into_iter().chain(remote) {
            if out.len() >= self.max_providers_per_response {
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
}

impl Protocol for Locaware {
    fn kind(&self) -> ProtocolKind {
        self.kind
    }

    fn selection_policy(&self) -> SelectionPolicy {
        if self.use_locality_selection {
            SelectionPolicy::LocalityThenRtt
        } else {
            SelectionPolicy::Random
        }
    }

    fn uses_bloom_sync(&self) -> bool {
        self.use_bloom_routing
    }

    fn max_providers_per_file(&self) -> usize {
        self.max_providers_per_file
    }

    fn forward_targets_into(
        &self,
        view: &PeerView<'_>,
        query: &QueryContext<'_>,
        exclude: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) -> ForwardDecision {
        out.clear();
        // 1. Neighbours whose Bloom filter matches every query keyword. The
        //    query's keywords are hashed once (at the catalog) and probed
        //    against each neighbour's filter words directly.
        if self.use_bloom_routing {
            debug_assert_eq!(query.keyword_hashes.len(), query.keywords.len(), "Bloom routing needs the hashes");
            let row = view.graph.neighbors(view.state.id);
            view.state.neighbors_matching_bloom_into(
                row,
                query.keyword_hashes,
                query.keyword_fold_mask,
                exclude,
                out,
            );
            if !out.is_empty() {
                return ForwardDecision::BloomMatch;
            }
        }
        // 2. Neighbours whose Gid matches the query ("matched Gid wrt q").
        let scheme = view.scheme;
        let matches = |gid| scheme.gid_matches_any_keyword(gid, query.keywords);
        neighbors_matching_gid_into(view, matches, exclude, out);
        if !out.is_empty() {
            return ForwardDecision::GidMatch;
        }
        // 3. Last resort: a highly connected neighbour.
        high_degree_fallback_into(view, exclude, out)
    }

    fn local_match(&self, view: &PeerView<'_>, query: &QueryContext<'_>) -> Option<LocalMatch> {
        // 1. The peer's own storage: it is itself a provider; enrich with any
        //    additional providers it has cached for the same file.
        if let Some(file) = first_storage_match(view, query.keywords) {
            let own = ProviderEntry {
                provider: view.state.id,
                loc_id: view.state.loc_id,
            };
            let cached = view
                .state
                .response_index
                .entry(file)
                .map(|e| self.assemble_providers(e.providers(), query.origin_loc, Some(own)))
                .unwrap_or_else(|| vec![own]);
            return Some(LocalMatch {
                file,
                providers: cached,
                from_cache: false,
            });
        }
        // 2. The response index, matched by keywords. Prefer the cached file
        //    that can offer a provider in the originator's locality.
        let candidates = view.state.response_index.lookup_by_keywords(query.keywords);
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
        let providers = self.assemble_providers(entry.providers(), query.origin_loc, None);
        if providers.is_empty() {
            return None;
        }
        Some(LocalMatch {
            file: best,
            providers,
            from_cache: true,
        })
    }

    fn cache_response(
        &self,
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
}

#[cfg(test)]
mod tests {
    use super::super::test_support::{response, Fixture};
    use super::*;
    use locaware_bloom::BloomFilter;
    use locaware_net::LocId;
    use locaware_workload::{FileId, KeywordId};
    use std::sync::Arc;

    fn config() -> SimulationConfig {
        SimulationConfig::small(20)
    }

    fn kws(ids: &[u32]) -> Vec<KeywordId> {
        ids.iter().map(|&i| KeywordId(i)).collect()
    }

    #[test]
    fn bloom_match_takes_priority_over_gid_and_degree() {
        let mut fx = Fixture::new(4);
        let protocol = Locaware::new(&config());
        let query = fx.query(&[0, 1], None);

        // Teach peer 0 that neighbour 3's filter contains keywords 0 and 1.
        let mut bloom = BloomFilter::default();
        bloom.insert(&KeywordId(0).canonical());
        bloom.insert(&KeywordId(1).canonical());
        fx.peers[0].set_neighbor_bloom(PeerId(3), Arc::new(bloom));

        let mut targets = Vec::new();
        let decision =
            protocol.forward_targets_into(&fx.view(0), &query.context(), None, &mut targets);
        assert_eq!(targets, vec![PeerId(3)]);
        assert_eq!(decision, ForwardDecision::BloomMatch);

        // Excluding the only bloom match falls back to the Gid rule (or the
        // high-degree fallback when no gid matches).
        let mut targets2 = Vec::new();
        let decision2 = protocol.forward_targets_into(
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
        let protocol = Locaware::without_bloom(&config());
        let query = fx.query(&[0, 1], None);
        let mut bloom = BloomFilter::default();
        bloom.insert(&KeywordId(0).canonical());
        bloom.insert(&KeywordId(1).canonical());
        fx.peers[0].set_neighbor_bloom(PeerId(3), Arc::new(bloom));

        let decision =
            protocol.forward_targets_into(&fx.view(0), &query.context(), None, &mut Vec::new());
        assert_ne!(decision, ForwardDecision::BloomMatch);
        assert!(!protocol.uses_bloom_sync());
    }

    #[test]
    fn caching_records_providers_and_the_requestor() {
        let mut fx = Fixture::new(4);
        let protocol = Locaware::new(&config());
        let scheme = fx.scheme;
        let file = FileId(0);
        let matching_gid = scheme.group_of_file(file);

        let offered = [
            ProviderEntry { provider: PeerId(7), loc_id: LocId(3) },
            ProviderEntry { provider: PeerId(8), loc_id: LocId(1) },
        ];
        let response = response(&fx.catalog, file, &[], &offered);
        // A peer of the file's group caches it.
        protocol.cache_response(&mut fx.peers[0], matching_gid, &scheme, &response);
        let entry = fx.peers[0].response_index.entry(file).unwrap();
        let providers: Vec<u32> = entry.providers().iter().map(|p| p.peer.0).collect();
        assert!(providers.contains(&7));
        assert!(providers.contains(&8));
        assert!(providers.contains(&4), "the requestor becomes a provider (§4.1.2)");

        // A non-matching peer does not cache.
        let other_gid = GroupId((matching_gid.value() + 1) % 4);
        protocol.cache_response(&mut fx.peers[1], other_gid, &scheme, &response);
        assert!(!fx.peers[1].response_index.contains(file));
    }

    #[test]
    fn index_answers_prefer_the_originators_locality() {
        let mut fx = Fixture::new(4);
        let protocol = Locaware::new(&config());
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
        let hit = protocol.local_match(&fx.view(2), &query.context()).unwrap();
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
        let protocol = Locaware::new(&config());
        let file = FileId(2); // keywords {0,6,7}
        fx.share(1, file);
        fx.peers[1].cache_index(
            file,
            fx.catalog.filename(file).keywords(),
            [(PeerId(9), LocId(1))],
        );
        let query = fx.query(&[6, 7], None);
        let hit = protocol.local_match(&fx.view(1), &query.context()).unwrap();
        assert!(!hit.from_cache);
        assert_eq!(hit.providers[0].provider, PeerId(1), "the serving peer itself first");
        assert!(hit.providers.iter().any(|p| p.provider == PeerId(9)));
    }

    #[test]
    fn provider_list_is_capped_per_response() {
        let mut fx = Fixture::new(4);
        let mut cfg = config();
        cfg.max_providers_per_response = 2;
        let protocol = Locaware::new(&cfg);
        let file = FileId(3);
        fx.peers[2].cache_index(
            file,
            fx.catalog.filename(file).keywords(),
            (0..4u32).map(|i| (PeerId(10 + i), LocId(0))),
        );
        let query = fx.query(&[8, 9], None);
        let hit = protocol.local_match(&fx.view(2), &query.context()).unwrap();
        assert_eq!(hit.providers.len(), 2);
    }

    #[test]
    fn ablation_flags_and_selection_policies() {
        let cfg = config();
        let full = Locaware::new(&cfg);
        assert_eq!(full.kind(), ProtocolKind::Locaware);
        assert_eq!(full.selection_policy(), SelectionPolicy::LocalityThenRtt);
        assert!(full.uses_bloom_sync());

        let no_loc = Locaware::without_locality(&cfg);
        assert_eq!(no_loc.kind(), ProtocolKind::LocawareNoLocality);
        assert_eq!(no_loc.selection_policy(), SelectionPolicy::Random);
        assert!(no_loc.uses_bloom_sync());

        let no_bloom = Locaware::without_bloom(&cfg);
        assert_eq!(no_bloom.kind(), ProtocolKind::LocawareNoBloom);
        assert_eq!(no_bloom.selection_policy(), SelectionPolicy::LocalityThenRtt);
        assert!(!no_bloom.uses_bloom_sync());

        assert_eq!(full.max_providers_per_file(), cfg.max_providers_per_file);
    }

    #[test]
    fn no_match_when_nothing_is_known() {
        let fx = Fixture::new(4);
        let protocol = Locaware::new(&config());
        let query = fx.query(&[0, 1], None);
        assert!(protocol.local_match(&fx.view(0), &query.context()).is_none());
        // Empty keyword lists never match anything.
        let empty = fx.query(&[], None);
        assert!(protocol.local_match(&fx.view(0), &empty.context()).is_none());
        let _ = kws(&[0]);
    }
}
