//! Search/caching protocol policies.
//!
//! The simulation engine (in [`crate::engine`]) provides the mechanism shared
//! by every approach — event-driven message delivery, TTL handling, duplicate
//! suppression, reverse-path responses, metric collection. What differs between
//! the compared approaches is *policy*, captured by the [`Protocol`] trait:
//!
//! 1. **Routing** — which neighbours a query is forwarded to
//!    ([`Protocol::forward_targets_into`]),
//! 2. **Matching** — whether a peer can answer a query locally, and with which
//!    provider entries ([`Protocol::local_match`]),
//! 3. **Caching** — whether/how a peer intercepting a response updates its
//!    response index ([`Protocol::cache_response`]),
//! 4. **Selection** — how the requestor chooses among offered providers
//!    ([`Protocol::selection_policy`]).
//!
//! Four policies are implemented, matching the curves of Figures 2–4:
//! [`flooding::Flooding`], [`dicas::Dicas`], [`dicas_keys::DicasKeys`] and
//! [`locaware::Locaware`] (whose ablation switches also cover the
//! `LocawareNoLocality` / `LocawareNoBloom` variants). Two further protocols
//! are *structured*: [`dht_index::DhtIndex`] resolves every query through the
//! Kademlia-style keyword-index DHT (see [`crate::engine`] and
//! [`locaware_overlay::dht`]) instead of overlay forwarding, and
//! [`hybrid::Hybrid`] splits the Zipf popularity curve — head targets use
//! Locaware's caching overlay, tail targets the DHT.

pub mod dht_index;
pub mod dicas;
pub mod dicas_keys;
pub mod flooding;
pub mod hybrid;
pub mod locaware;

use locaware_bloom::{BloomParams, ElementHashes};
use locaware_net::LocId;
use locaware_overlay::{ForwardDecision, OverlayGraph, PeerId, ProviderEntry, QueryId};
use locaware_workload::{Catalog, FileId, KeywordHashes, KeywordId};

use crate::config::{ProtocolKind, SimulationConfig};
use crate::group::{GroupId, GroupScheme};
use crate::peer::{keyword_signature, PeerState};
use crate::provider::SelectionPolicy;

/// A read-only view of everything a protocol may consult when making a
/// decision at one peer.
#[derive(Debug, Clone, Copy)]
pub struct PeerView<'a> {
    /// The deciding peer's state.
    pub state: &'a PeerState,
    /// The overlay graph (for neighbour lists and degrees). Its rows hold
    /// only online peers: a departure removes every edge of the peer.
    pub graph: &'a OverlayGraph,
    /// Every peer's group id, by peer index (for the group-id rules).
    pub group_ids: &'a [GroupId],
    /// The group scheme in force.
    pub scheme: &'a GroupScheme,
    /// The global catalog (for filename keyword lookups).
    pub catalog: &'a Catalog,
}

/// The protocol-relevant content of a query.
///
/// Keywords come in two parallel views: the ids themselves and their
/// pre-computed Bloom hashes (`keyword_hashes[i]` hashes `keywords[i]`), so
/// the §4.2 routing test probes neighbour filters without re-hashing a keyword
/// per neighbour. Both slices borrow from the caller — the engine lends the
/// query's keywords as published at its issue and a per-shard hash scratch
/// buffer, so building a context allocates nothing; tests and benches can use
/// [`QueryBuffer`] as an owned backing store. The engine computes the hashes
/// only where a rule reads them: for [`Protocol::forward_targets_into`] of a
/// protocol that routes by Bloom filter ([`Protocol::uses_bloom_sync`]); every
/// other context gets an empty slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryContext<'a> {
    /// The query id.
    pub query: QueryId,
    /// The originating peer.
    pub origin: PeerId,
    /// The originator's location id.
    pub origin_loc: LocId,
    /// The query keywords.
    pub keywords: &'a [KeywordId],
    /// The pre-computed Bloom hashes of `keywords`, index-aligned; empty
    /// where no rule reads them (see above).
    pub keyword_hashes: &'a [ElementHashes],
    /// [`BloomParams::fold_mask`] of `keyword_hashes` under the run's filter
    /// geometry, the one-word test in front of each neighbour probe; 0
    /// wherever `keyword_hashes` is empty.
    pub keyword_fold_mask: u64,
    /// For filename-search protocols (Dicas): the exact file searched.
    pub target_filename: Option<FileId>,
}

/// An owned backing store for a [`QueryContext`].
///
/// The engine builds contexts from reusable scratch buffers; everything else
/// (tests, benches, examples) can own the keyword storage here and borrow a
/// context view with [`QueryBuffer::context`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryBuffer {
    /// The query id.
    pub query: QueryId,
    /// The originating peer.
    pub origin: PeerId,
    /// The originator's location id.
    pub origin_loc: LocId,
    /// For filename-search protocols (Dicas): the exact file searched.
    pub target_filename: Option<FileId>,
    keywords: Vec<KeywordId>,
    keyword_hashes: Vec<ElementHashes>,
    keyword_fold_mask: u64,
}

impl QueryBuffer {
    /// Builds a query with its keyword hashes, and their fold mask under the
    /// filter geometry `bloom`, computed up front.
    pub fn new(
        query: QueryId,
        origin: PeerId,
        origin_loc: LocId,
        keywords: Vec<KeywordId>,
        target_filename: Option<FileId>,
        bloom: BloomParams,
    ) -> Self {
        let hasher = KeywordHashes::empty();
        let keyword_hashes: Vec<ElementHashes> = keywords.iter().map(|&kw| hasher.of(kw)).collect();
        let keyword_fold_mask = bloom.fold_mask(&keyword_hashes);
        QueryBuffer {
            query,
            origin,
            origin_loc,
            target_filename,
            keywords,
            keyword_hashes,
            keyword_fold_mask,
        }
    }

    /// The borrowed view protocols consume.
    pub fn context(&self) -> QueryContext<'_> {
        QueryContext {
            query: self.query,
            origin: self.origin,
            origin_loc: self.origin_loc,
            keywords: &self.keywords,
            keyword_hashes: &self.keyword_hashes,
            keyword_fold_mask: self.keyword_fold_mask,
            target_filename: self.target_filename,
        }
    }
}

/// A local hit: the answering peer found a satisfying file either in its own
/// storage or in its response index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocalMatch {
    /// The satisfying file.
    pub file: FileId,
    /// Provider entries to return to the requestor (at least one).
    pub providers: Vec<ProviderEntry>,
    /// True if the hit came from the response index rather than file storage.
    pub from_cache: bool,
}

/// The protocol-relevant content of a response being cached at an intermediate
/// peer. The engine lends the catalog's keywords for the file and the query's
/// published keywords, neither of which the response message carries, so
/// building a context allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseContext<'a> {
    /// The file the response is about.
    pub file: FileId,
    /// The full keyword list of the file's filename.
    pub file_keywords: &'a [KeywordId],
    /// The keywords the original query was expressed with (a subset of
    /// `file_keywords`). Dicas-Keys keys its cache on these, which is exactly
    /// the source of the duplication/mismatch the paper criticises.
    pub query_keywords: &'a [KeywordId],
    /// The providers advertised by the response.
    pub providers: &'a [ProviderEntry],
    /// The original requestor (Locaware records it as a new provider, §4.1.2).
    pub requestor: ProviderEntry,
}

/// A search/caching policy. Implementations are stateless (all mutable state
/// lives in [`PeerState`]) so one instance is shared across every peer.
pub trait Protocol: Send + Sync {
    /// Which protocol this is (used for labels and reports).
    fn kind(&self) -> ProtocolKind;

    /// How the requestor chooses among offered providers.
    fn selection_policy(&self) -> SelectionPolicy;

    /// Whether the engine should run the periodic Bloom synchronisation
    /// process for this protocol.
    fn uses_bloom_sync(&self) -> bool {
        false
    }

    /// For DHT-running protocols ([`ProtocolKind::uses_dht`]): whether a
    /// file at popularity `rank` (0 = most popular of `catalog_len` files) is
    /// indexed in — and resolved through — the DHT. The pure DHT protocol
    /// says yes to everything; the hybrid protocol only to the Zipf tail.
    /// Never called for the unstructured protocols.
    fn dht_resolves_rank(&self, rank: usize, catalog_len: usize) -> bool {
        let _ = (rank, catalog_len);
        false
    }

    /// Maximum provider entries a peer keeps per cached filename.
    fn max_providers_per_file(&self) -> usize {
        1
    }

    /// Appends the neighbours `view.state` should forward the query to into
    /// `out` (cleared first), excluding `exclude` (the neighbour the query
    /// arrived from). Returns *why* those targets were chosen, for the
    /// routing-decision statistics. Taking the target buffer from the caller
    /// keeps the per-event forward path allocation-free: the engine reuses one
    /// buffer across every event of a run.
    fn forward_targets_into(
        &self,
        view: &PeerView<'_>,
        query: &QueryContext<'_>,
        exclude: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) -> ForwardDecision;

    /// Attempts to answer the query at `view.state` from local knowledge.
    fn local_match(&self, view: &PeerView<'_>, query: &QueryContext<'_>) -> Option<LocalMatch>;

    /// Lets an intermediate peer cache a passing response according to the
    /// protocol's caching rule; `gid` is the peer's group id, from the run's
    /// table.
    fn cache_response(
        &self,
        state: &mut PeerState,
        gid: GroupId,
        scheme: &GroupScheme,
        response: &ResponseContext<'_>,
    );
}

/// Creates the protocol implementation for a [`ProtocolKind`].
pub fn build_protocol(kind: ProtocolKind, config: &SimulationConfig) -> Box<dyn Protocol> {
    match kind {
        ProtocolKind::Flooding => Box::new(flooding::Flooding::new()),
        ProtocolKind::Dicas => Box::new(dicas::Dicas::new()),
        ProtocolKind::DicasKeys => Box::new(dicas_keys::DicasKeys::new()),
        ProtocolKind::Locaware => Box::new(locaware::Locaware::new(config)),
        ProtocolKind::LocawareNoLocality => Box::new(locaware::Locaware::without_locality(config)),
        ProtocolKind::LocawareNoBloom => Box::new(locaware::Locaware::without_bloom(config)),
        ProtocolKind::DhtIndex => Box::new(dht_index::DhtIndex::new()),
        ProtocolKind::Hybrid => Box::new(hybrid::Hybrid::new(config)),
    }
}

/// Shared helper: appends every neighbour except the one the query came from,
/// in id order (plain flooding).
pub(crate) fn all_neighbors_except_into(
    view: &PeerView<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) {
    out.extend(view.graph.neighbors(view.state.id).iter().copied().filter(|&n| Some(n) != exclude));
}

/// Shared helper: appends (in id order) every neighbour except `exclude`
/// whose group id satisfies `predicate`.
pub(crate) fn neighbors_matching_gid_into(
    view: &PeerView<'_>,
    predicate: impl Fn(GroupId) -> bool,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) {
    for &n in view.graph.neighbors(view.state.id) {
        if Some(n) != exclude && predicate(view.group_ids[n.index()]) {
            out.push(n);
        }
    }
}

/// Shared helper: the single highest-degree neighbour (excluding `exclude`),
/// used as the last-resort forwarding rule of §4.2 "to avoid blocking the query
/// forwarding".
pub(crate) fn high_degree_fallback(
    view: &PeerView<'_>,
    exclude: Option<PeerId>,
) -> Option<PeerId> {
    view.graph
        .neighbors(view.state.id)
        .iter()
        .copied()
        .filter(|&n| Some(n) != exclude)
        .max_by_key(|&n| (view.graph.degree(n), std::cmp::Reverse(n.0)))
}

/// Shared helper: appends the high-degree fallback to `out` and classifies the
/// decision (the common tail of every non-flooding routing rule).
pub(crate) fn high_degree_fallback_into(
    view: &PeerView<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) -> ForwardDecision {
    match high_degree_fallback(view, exclude) {
        Some(n) => {
            out.push(n);
            ForwardDecision::HighDegree
        }
        None => ForwardDecision::NotForwarded,
    }
}

/// Files in the peer's own storage whose filename satisfies the query
/// keywords, in id order — the exhaustive model for [`first_storage_match`],
/// which the hot path uses instead (tests pin their agreement).
#[cfg(test)]
pub(crate) fn storage_matches(view: &PeerView<'_>, keywords: &[KeywordId]) -> Vec<FileId> {
    if keywords.is_empty() {
        return Vec::new();
    }
    view.state
        .shared_files()
        .filter(|&f| view.catalog.file_matches(f, keywords))
        .collect()
}

/// Shared helper: the first (lowest-id) stored file satisfying the query —
/// the hot-path form of [`storage_matches`], returning as soon as one stored
/// filename matches instead of materialising the full list, and without
/// looking at the files at all when the peer's storage signature rules a
/// match out (most first sightings: the typical peer stores a few files).
pub(crate) fn first_storage_match(view: &PeerView<'_>, keywords: &[KeywordId]) -> Option<FileId> {
    if keywords.is_empty() || !view.state.may_store(keyword_signature(keywords)) {
        return None;
    }
    view.state
        .shared_files()
        .find(|&f| view.catalog.file_matches(f, keywords))
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Small fixtures shared by the protocol unit tests.

    use super::*;
    use locaware_overlay::OverlayGraph;
    use locaware_workload::{Catalog, Filename, KeywordPool};

    /// A response about `file` as a relay sees it: the catalog's keywords for
    /// the file, the query's keywords and the offered providers all borrowed,
    /// requested by peer 4 at locality 1.
    pub fn response<'a>(
        catalog: &'a Catalog,
        file: FileId,
        query_keywords: &'a [KeywordId],
        providers: &'a [ProviderEntry],
    ) -> ResponseContext<'a> {
        ResponseContext {
            file,
            file_keywords: catalog.filename(file).keywords(),
            query_keywords,
            providers,
            requestor: ProviderEntry { provider: PeerId(4), loc_id: LocId(1) },
        }
    }

    /// A deterministic 5-peer fixture:
    ///
    /// * overlay: star around peer 0 (neighbours 1–4), plus edge 1–2,
    /// * catalog: 4 files over 12 keywords,
    /// * peer 0 is the deciding peer; its gid and locId are configurable.
    pub struct Fixture {
        pub graph: OverlayGraph,
        pub catalog: Catalog,
        pub scheme: GroupScheme,
        pub group_ids: Vec<GroupId>,
        pub peers: Vec<PeerState>,
    }

    impl Fixture {
        pub fn new(modulus: u32) -> Self {
            let filenames = vec![
                Filename::new(vec![KeywordId(0), KeywordId(1), KeywordId(2)]),
                Filename::new(vec![KeywordId(3), KeywordId(4), KeywordId(5)]),
                Filename::new(vec![KeywordId(0), KeywordId(6), KeywordId(7)]),
                Filename::new(vec![KeywordId(8), KeywordId(9), KeywordId(10)]),
            ];
            Self::with_filenames(modulus, 12, filenames)
        }

        /// The same overlay and peers over a catalog of the caller's
        /// `filenames`, drawn from a pool of `keywords` keyword ids.
        pub fn with_filenames(modulus: u32, keywords: usize, filenames: Vec<Filename>) -> Self {
            let mut graph = OverlayGraph::new(5);
            for n in 1..5u32 {
                graph.add_edge(PeerId(0), PeerId(n));
            }
            graph.add_edge(PeerId(1), PeerId(2));

            let catalog = Catalog::from_filenames(KeywordPool::new(keywords), filenames);
            let scheme = GroupScheme::new(modulus);

            let group_ids: Vec<GroupId> = (0..5u32).map(|i| GroupId(i % modulus)).collect();
            let peers = (0..5u32)
                .map(|i| {
                    PeerState::new(
                        PeerId(i),
                        LocId(i % 3),
                        BloomParams::default(),
                        8,
                        4,
                        catalog.keyword_hashes().clone(),
                    )
                })
                .collect();

            Fixture {
                graph,
                catalog,
                scheme,
                group_ids,
                peers,
            }
        }

        /// Peer `peer` stores `file` under its catalog filename.
        pub fn share(&mut self, peer: usize, file: FileId) {
            self.peers[peer].share_file(file, self.catalog.filename(file).keywords());
        }

        pub fn view(&self, peer: usize) -> PeerView<'_> {
            PeerView {
                state: &self.peers[peer],
                graph: &self.graph,
                group_ids: &self.group_ids,
                scheme: &self.scheme,
                catalog: &self.catalog,
            }
        }

        pub fn query(&self, keywords: &[u32], target: Option<u32>) -> QueryBuffer {
            QueryBuffer::new(
                QueryId(1),
                PeerId(4),
                LocId(1),
                keywords.iter().map(|&k| KeywordId(k)).collect(),
                target.map(FileId),
                BloomParams::default(),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::Fixture;
    use super::*;
    use locaware_workload::Filename;

    #[test]
    fn all_neighbors_except_filters_the_sender() {
        let fx = Fixture::new(4);
        let view = fx.view(0);
        let mut all = Vec::new();
        all_neighbors_except_into(&view, None, &mut all);
        assert_eq!(all, vec![PeerId(1), PeerId(2), PeerId(3), PeerId(4)]);
        let mut without_2 = Vec::new();
        all_neighbors_except_into(&view, Some(PeerId(2)), &mut without_2);
        assert_eq!(without_2, vec![PeerId(1), PeerId(3), PeerId(4)]);
    }

    /// A neighbour's group id is read from the run's table, and the sender
    /// is never a target.
    #[test]
    fn gid_rule_reads_the_run_table() {
        let mut fx = Fixture::new(4);
        fx.group_ids[2] = GroupId(3);
        let mut out = Vec::new();
        neighbors_matching_gid_into(&fx.view(0), |gid| gid == GroupId(3), None, &mut out);
        assert_eq!(out, vec![PeerId(2), PeerId(3)]);
        out.clear();
        neighbors_matching_gid_into(&fx.view(0), |gid| gid == GroupId(3), Some(PeerId(2)), &mut out);
        assert_eq!(out, vec![PeerId(3)]);
    }

    #[test]
    fn high_degree_fallback_prefers_the_hub() {
        let fx = Fixture::new(4);
        // From peer 3, the only neighbour is peer 0 (degree 4).
        let view = fx.view(3);
        assert_eq!(high_degree_fallback(&view, None), Some(PeerId(0)));
        assert_eq!(high_degree_fallback(&view, Some(PeerId(0))), None);
        // From peer 0, neighbours 1 and 2 have degree 2 (> 1); lowest id wins the tie.
        let view0 = fx.view(0);
        assert_eq!(high_degree_fallback(&view0, None), Some(PeerId(1)));
    }

    /// Three signature bits with eight keyword ids each: a universe in which
    /// distinct keywords collide on a bit all the time, so the signature says
    /// "maybe" for keywords the peer does not store and "no" only when a
    /// whole bit is missing.
    fn colliding_keywords() -> Vec<KeywordId> {
        let bits = [0, 1, 2].map(|id| keyword_signature(&[KeywordId(id)]));
        assert!(bits[0] != bits[1] && bits[1] != bits[2] && bits[0] != bits[2]);
        bits.iter()
            .flat_map(|&bit| {
                let on_bit = move |kw: &KeywordId| keyword_signature(&[*kw]) == bit;
                (0..).map(KeywordId).filter(on_bit).take(8)
            })
            .collect()
    }

    proptest::proptest! {
        /// The signature in front of the walk never changes the answer:
        /// over random catalogs, share sets and 0–3-keyword queries from the
        /// colliding universe, the hot-path match is the first element of
        /// the exhaustive one — and every stored filename stays covered by
        /// the signature `share_file` maintains.
        #[test]
        fn first_storage_match_agrees_with_storage_matches(
            files in proptest::collection::vec(proptest::collection::vec(0usize..24, 1..=3), 1..12),
            shares in proptest::collection::vec(0usize..12, 0..6),
            queries in proptest::collection::vec(proptest::collection::vec(0usize..24, 0..=3), 1..20),
        ) {
            let universe = colliding_keywords();
            let pool = universe.iter().map(|kw| kw.0 as usize + 1).max().unwrap_or(0);
            let pick = |ids: &[usize]| ids.iter().map(|&i| universe[i]).collect::<Vec<_>>();
            let filenames = files.iter().map(|ids| Filename::new(pick(ids))).collect();
            let mut fx = Fixture::with_filenames(4, pool, filenames);
            for share in shares {
                fx.share(0, FileId((share % files.len()) as u32));
                for stored in fx.peers[0].shared_files() {
                    let bits = keyword_signature(fx.catalog.filename(stored).keywords());
                    proptest::prop_assert!(fx.peers[0].may_store(bits), "{stored:?} fell out");
                }
            }
            let view = fx.view(0);
            for query in queries.iter().map(|ids| pick(ids)) {
                proptest::prop_assert_eq!(
                    first_storage_match(&view, &query),
                    storage_matches(&view, &query).first().copied(),
                    "query {:?}", query
                );
            }
        }
    }

    #[test]
    fn storage_matches_respects_the_all_keywords_rule() {
        let mut fx = Fixture::new(4);
        fx.share(0, FileId(0)); // keywords {0,1,2}
        fx.share(0, FileId(2)); // keywords {0,6,7}
        let view = fx.view(0);
        assert_eq!(
            storage_matches(&view, &[KeywordId(0)]),
            vec![FileId(0), FileId(2)]
        );
        assert_eq!(
            storage_matches(&view, &[KeywordId(0), KeywordId(1)]),
            vec![FileId(0)]
        );
        assert!(storage_matches(&view, &[KeywordId(11)]).is_empty());
        assert!(storage_matches(&view, &[]).is_empty());
    }

    /// Each caching rule, fed a context whose lists are all borrowed, leaves
    /// the index entry (keywords, providers in order) and exactly the Bloom
    /// bits its rule prescribes.
    #[test]
    fn caching_rules_over_a_borrowed_response_fill_the_index_and_the_filter() {
        use locaware_bloom::BloomFilter;
        use test_support::response;

        let config = SimulationConfig::small(20);
        let file = FileId(2); // keywords {0, 6, 7}
        let filename = [KeywordId(0), KeywordId(6), KeywordId(7)];
        let asked = [KeywordId(6)];
        let offered = [
            ProviderEntry { provider: PeerId(7), loc_id: LocId(3) },
            ProviderEntry { provider: PeerId(8), loc_id: LocId(1) },
        ];
        let first = [(PeerId(7), LocId(3))];
        let all_and_requestor = [(PeerId(7), LocId(3)), (PeerId(8), LocId(1)), (PeerId(4), LocId(1))];
        let scheme = GroupScheme::new(4);
        let (by_file, by_keyword) = (scheme.group_of_file(file), scheme.group_of_keyword(asked[0]));
        // A peer of group `gid` caches a response to `query_keywords`: which
        // keywords key the entry, and which providers does it list?
        let check = |protocol: &dyn Protocol,
                     gid: crate::group::GroupId,
                     query_keywords: &[KeywordId],
                     keywords: &[KeywordId],
                     providers: &[(PeerId, LocId)]| {
            let mut fx = Fixture::new(4);
            let context = response(&fx.catalog, file, query_keywords, &offered);
            protocol.cache_response(&mut fx.peers[0], gid, &fx.scheme, &context);

            let kind = protocol.kind();
            let entry = fx.peers[0].response_index.entry(file).expect("cached");
            assert_eq!(entry.keywords, keywords, "{kind:?}");
            let cached: Vec<_> = entry.providers().iter().map(|p| (p.peer, p.loc_id)).collect();
            assert_eq!(cached, providers, "{kind:?}");
            let mut bits = BloomFilter::default();
            for keyword in keywords {
                bits.insert(&keyword.canonical());
            }
            assert_eq!(fx.peers[0].current_bloom().words(), bits.words(), "{kind:?}");
        };
        check(&dicas::Dicas::new(), by_file, &asked, &filename, &first);
        check(&dicas_keys::DicasKeys::new(), by_keyword, &asked, &asked, &first);
        check(&dicas_keys::DicasKeys::new(), by_keyword, &[], &filename, &first);
        check(&locaware::Locaware::new(&config), by_file, &asked, &filename, &all_and_requestor);
    }

    #[test]
    fn build_protocol_covers_every_kind() {
        let config = SimulationConfig::small(20);
        for &kind in ProtocolKind::all() {
            let protocol = build_protocol(kind, &config);
            assert_eq!(protocol.kind(), kind);
        }
    }
}
