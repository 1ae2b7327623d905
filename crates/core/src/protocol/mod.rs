//! Search/caching protocol policies.
//!
//! The simulation engine (in [`crate::engine`]) provides the mechanism shared
//! by every approach — event-driven message delivery, TTL handling, duplicate
//! suppression, reverse-path responses, metric collection. What differs between
//! the compared approaches is *policy*, and a protocol is nothing but its
//! [`ProtocolKind`]: each of the paper's four axes is a function of the kind.
//!
//! 1. **Routing** — which neighbours a query is forwarded to
//!    (`forward_targets_into`),
//! 2. **Matching** — whether a peer can answer a query locally, and with which
//!    provider entries (`local_match`),
//! 3. **Caching** — whether/how a peer intercepting a response updates its
//!    response index (`cache_response`),
//! 4. **Selection** — how the requestor chooses among offered providers
//!    ([`ProtocolKind::selection_policy`]).
//!
//! The three per-hop rules match on the kind and call the plain functions of
//! one family: flooding, Dicas, Dicas-Keys or Locaware, the curves of
//! Figures 2–4. The Locaware family also serves its two ablations
//! (`LocawareNoLocality` selects at random, `LocawareNoBloom` routes by the
//! Dicas-Keys rule) and the overlay side of `Hybrid`. The per-run facts —
//! selection, Bloom routing, filename search, providers kept per file and the
//! DHT's share of the catalog — are methods of [`ProtocolKind`]. The
//! structured `DhtIndex` has no overlay policy at all: its queries never
//! forward, match or cache on the overlay but resolve through the keyword DHT
//! (see [`crate::engine`] and [`locaware_overlay::dht`]), as do the Zipf-tail
//! queries of `Hybrid` ([`ProtocolKind::dht_resolves_rank`]).

mod dicas;
mod dicas_keys;
#[cfg(test)]
mod dht_index;
mod flooding;
#[cfg(test)]
mod hybrid;
mod locaware;

use locaware_bloom::BloomParams;
use locaware_net::LocId;
use locaware_overlay::{ForwardDecision, OverlayGraph, PeerId, ProviderEntry};
use locaware_workload::{Catalog, FileId, KeywordHashes, KeywordId, PAPER_KEYWORDS_PER_FILE};

use crate::config::ProtocolKind;
use crate::group::{GroupId, GroupScheme};
use crate::peer::{keyword_signature, PeerState};

/// A read-only view of everything a protocol may consult when making a
/// decision at one peer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PeerView<'a> {
    /// The deciding peer's state.
    pub(crate) state: &'a PeerState,
    /// The overlay graph (for neighbour lists and degrees). Its rows hold
    /// only online peers: a departure removes every edge of the peer.
    pub(crate) graph: &'a OverlayGraph,
    /// Every peer's group id, by peer index (for the group-id rules).
    pub(crate) group_ids: &'a [GroupId],
    /// The global catalog (for filename keyword lookups).
    pub(crate) catalog: &'a Catalog,
    /// The run's cap on provider entries in one response.
    pub(crate) max_providers_per_response: usize,
}

/// What every routing and matching rule reads of a query's keywords, derived
/// once, when the query is issued, and shared by every hop, relay and
/// retransmit of it: the keywords themselves, their [`keyword_signature`],
/// their Bloom fold mask under the run's filter geometry, and the group ids
/// a Gid rule tests a neighbour's against. A filename search (Dicas) tests
/// the one group of the file it names, `hash(f) mod M`; every other search
/// the group of each keyword, `hash(kw) mod M`.
///
/// Up to [`PAPER_KEYWORDS_PER_FILE`] keywords, as in every paper query, are
/// held inline with their groups; a longer list is boxed.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct QueryDigest {
    signature: u64,
    fold_mask: u64,
    terms: Terms,
}

/// A digest's keywords and the groups its Gid rule tests.
#[derive(Debug, PartialEq, Eq)]
enum Terms {
    Inline {
        keywords: u8,
        groups: u8,
        keyword_ids: [KeywordId; PAPER_KEYWORDS_PER_FILE],
        group_ids: [GroupId; PAPER_KEYWORDS_PER_FILE],
    },
    Boxed(Box<(Vec<KeywordId>, Vec<GroupId>)>),
}

impl QueryDigest {
    /// The digest of a query for `keywords`, naming the file `filename` if
    /// it is a filename search, under the run's group `scheme` and filter
    /// geometry `bloom`; `hashes` gives each keyword's Bloom hashes.
    pub(crate) fn new(
        keywords: Vec<KeywordId>,
        filename: Option<FileId>,
        scheme: &GroupScheme,
        bloom: BloomParams,
        hashes: &KeywordHashes,
    ) -> Self {
        let signature = keyword_signature(&keywords);
        let fold_mask = (keywords.iter())
            .fold(0, |mask, &kw| mask | hashes.of(kw).fold_mask(bloom.hashes, bloom.bits));
        let groups = if filename.is_some() { 1 } else { keywords.len() };
        let group = |i: usize| match filename {
            Some(file) => scheme.group_of_file(file),
            None => scheme.group_of_keyword(keywords[i]),
        };
        let terms = if keywords.len() <= PAPER_KEYWORDS_PER_FILE {
            let mut keyword_ids = [KeywordId(0); PAPER_KEYWORDS_PER_FILE];
            let mut group_ids = [GroupId(0); PAPER_KEYWORDS_PER_FILE];
            keyword_ids[..keywords.len()].copy_from_slice(&keywords);
            for (i, id) in group_ids[..groups].iter_mut().enumerate() {
                *id = group(i);
            }
            Terms::Inline { keywords: keywords.len() as u8, groups: groups as u8, keyword_ids, group_ids }
        } else {
            let group_ids = (0..groups).map(group).collect();
            Terms::Boxed(Box::new((keywords, group_ids)))
        };
        QueryDigest { signature, fold_mask, terms }
    }

    /// The query's keywords, as generated.
    pub(crate) fn keywords(&self) -> &[KeywordId] {
        match &self.terms {
            Terms::Inline { keywords, keyword_ids, .. } => &keyword_ids[..usize::from(*keywords)],
            Terms::Boxed(terms) => &terms.0,
        }
    }

    /// The groups a neighbour's Gid must be one of to match the query.
    pub(crate) fn groups(&self) -> &[GroupId] {
        match &self.terms {
            Terms::Inline { groups, group_ids, .. } => &group_ids[..usize::from(*groups)],
            Terms::Boxed(terms) => &terms.1,
        }
    }

    /// [`keyword_signature`] of the keywords.
    pub(crate) fn signature(&self) -> u64 {
        self.signature
    }

    /// The keywords' Bloom fold mask under the run's filter geometry, the
    /// one-word test in front of each neighbour filter probe.
    pub(crate) fn fold_mask(&self) -> u64 {
        self.fold_mask
    }
}

/// The protocol-relevant content of a query: the digest its issue published
/// and the copy's own fields. The engine lends the digest, so building a
/// context allocates and derives nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct QueryContext<'a> {
    /// The originator's location id.
    pub(crate) origin_loc: LocId,
    /// The query's keywords and what the rules derive from them.
    pub(crate) digest: &'a QueryDigest,
    /// For filename-search protocols (Dicas): the exact file searched.
    pub(crate) target_filename: Option<FileId>,
}

/// A local hit: the answering peer found a satisfying file either in its own
/// storage or in its response index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LocalMatch {
    /// The satisfying file.
    pub(crate) file: FileId,
    /// Provider entries to return to the requestor (at least one).
    pub(crate) providers: Vec<ProviderEntry>,
    /// True if the hit came from the response index rather than file storage.
    pub(crate) from_cache: bool,
}

/// The protocol-relevant content of a response being cached at an intermediate
/// peer. The engine lends the catalog's keywords for the file and the query's
/// published keywords, neither of which the response message carries, so
/// building a context allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResponseContext<'a> {
    /// The file the response is about.
    pub(crate) file: FileId,
    /// The full keyword list of the file's filename.
    pub(crate) file_keywords: &'a [KeywordId],
    /// The keywords the original query was expressed with (a subset of
    /// `file_keywords`). Dicas-Keys keys its cache on these, which is exactly
    /// the source of the duplication/mismatch the paper criticises.
    pub(crate) query_keywords: &'a [KeywordId],
    /// The providers advertised by the response.
    pub(crate) providers: &'a [ProviderEntry],
    /// The original requestor (Locaware records it as a new provider, §4.1.2).
    pub(crate) requestor: ProviderEntry,
}

/// Appends the neighbours `view.state` forwards `query` to under `kind`'s
/// routing rule into `out` (cleared first), never `exclude` (the neighbour
/// the query arrived from), and returns *why* those targets were chosen, for
/// the routing-decision statistics. The engine lends one target buffer to
/// every forward of a run, so the forward path allocates nothing.
pub(crate) fn forward_targets_into(
    kind: ProtocolKind,
    view: &PeerView<'_>,
    query: &QueryContext<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) -> ForwardDecision {
    out.clear();
    match kind {
        ProtocolKind::Flooding => flooding::forward_targets_into(view, exclude, out),
        ProtocolKind::Dicas => dicas::forward_targets_into(view, query, exclude, out),
        ProtocolKind::DicasKeys | ProtocolKind::LocawareNoBloom => {
            dicas_keys::forward_targets_into(view, query, exclude, out)
        }
        ProtocolKind::Locaware | ProtocolKind::LocawareNoLocality | ProtocolKind::Hybrid => {
            locaware::forward_targets_into(view, query, exclude, out)
        }
        // Queries travel the DHT, never the unstructured overlay.
        ProtocolKind::DhtIndex => ForwardDecision::NotForwarded,
    }
}

/// Answers `query` at `view.state` from local knowledge under `kind`'s
/// matching rule, if it can.
pub(crate) fn local_match(
    kind: ProtocolKind,
    view: &PeerView<'_>,
    query: &QueryContext<'_>,
) -> Option<LocalMatch> {
    match kind {
        // Flooding caches nothing: only the peer's own storage answers.
        ProtocolKind::Flooding => {
            first_storage_match(view, query.digest).map(|file| stored_hit(view, file))
        }
        ProtocolKind::Dicas => dicas::local_match(view, query),
        ProtocolKind::DicasKeys => dicas_keys::local_match(view, query),
        ProtocolKind::Locaware
        | ProtocolKind::LocawareNoLocality
        | ProtocolKind::LocawareNoBloom
        | ProtocolKind::Hybrid => locaware::local_match(view, query),
        // Hits come from the DHT record stores, never overlay-side.
        ProtocolKind::DhtIndex => None,
    }
}

/// Lets an intermediate peer cache a passing response under `kind`'s caching
/// rule; `gid` is the peer's group id, from the run's table.
pub(crate) fn cache_response(
    kind: ProtocolKind,
    state: &mut PeerState,
    gid: GroupId,
    scheme: &GroupScheme,
    response: &ResponseContext<'_>,
) {
    match kind {
        // Flooding keeps no index; the DHT record store is the DHT's only one.
        ProtocolKind::Flooding | ProtocolKind::DhtIndex => {}
        ProtocolKind::Dicas => dicas::cache_response(state, gid, scheme, response),
        ProtocolKind::DicasKeys => dicas_keys::cache_response(state, gid, scheme, response),
        ProtocolKind::Locaware
        | ProtocolKind::LocawareNoLocality
        | ProtocolKind::LocawareNoBloom
        | ProtocolKind::Hybrid => locaware::cache_response(state, gid, scheme, response),
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
/// whose group id is one of `groups`.
pub(crate) fn neighbors_matching_gid_into(
    view: &PeerView<'_>,
    groups: &[GroupId],
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) {
    for &n in view.graph.neighbors(view.state.id) {
        if Some(n) != exclude && groups.contains(&view.group_ids[n.index()]) {
            out.push(n);
        }
    }
}

/// Shared helper: the last-resort forwarding rule of §4.2 "to avoid blocking
/// the query forwarding" and the common tail of every non-flooding routing
/// rule. Appends the single highest-degree neighbour other than `exclude`
/// (the lowest id on a tie) to `out` and classifies the decision.
pub(crate) fn high_degree_fallback_into(
    view: &PeerView<'_>,
    exclude: Option<PeerId>,
    out: &mut Vec<PeerId>,
) -> ForwardDecision {
    let hub = (view.graph.neighbors(view.state.id).iter().copied())
        .filter(|&n| Some(n) != exclude)
        .max_by_key(|&n| (view.graph.degree(n), std::cmp::Reverse(n.0)));
    match hub {
        Some(n) => {
            out.push(n);
            ForwardDecision::HighDegree
        }
        None => ForwardDecision::NotForwarded,
    }
}

/// Shared helper: a hit on `file` in the deciding peer's own storage, which
/// it serves itself.
pub(crate) fn stored_hit(view: &PeerView<'_>, file: FileId) -> LocalMatch {
    let own = ProviderEntry { provider: view.state.id, loc_id: view.state.loc_id };
    LocalMatch { file, providers: vec![own], from_cache: false }
}

/// Shared helper: a hit on `file` in the deciding peer's response index,
/// offering the last provider the entry lists — the only one under the
/// Dicas baselines, which keep a single provider per file.
pub(crate) fn cached_hit(view: &PeerView<'_>, file: FileId) -> Option<LocalMatch> {
    let provider = view.state.response_index.entry(file)?.providers().last()?;
    let entry = ProviderEntry { provider: provider.peer, loc_id: provider.loc_id };
    Some(LocalMatch { file, providers: vec![entry], from_cache: true })
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
pub(crate) fn first_storage_match(view: &PeerView<'_>, query: &QueryDigest) -> Option<FileId> {
    let keywords = query.keywords();
    if keywords.is_empty() || !view.state.may_store(query.signature()) {
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
    use locaware_workload::KeywordPool;

    /// An owned query, from which [`QueryBuffer::context`] lends a view the
    /// way the engine does from its published digest.
    pub(crate) struct QueryBuffer {
        pub origin_loc: LocId,
        pub target_filename: Option<FileId>,
        pub digest: QueryDigest,
    }

    impl QueryBuffer {
        /// The borrowed view the rules consume.
        pub(crate) fn context(&self) -> QueryContext<'_> {
            QueryContext { origin_loc: self.origin_loc, digest: &self.digest, target_filename: self.target_filename }
        }
    }

    /// The digest of a query for `keywords` (a filename search for `target`
    /// if there is one) under `scheme` and the default filter geometry,
    /// hashing on the fly.
    pub(crate) fn digest(keywords: Vec<KeywordId>, target: Option<FileId>, scheme: &GroupScheme) -> QueryDigest {
        QueryDigest::new(keywords, target, scheme, BloomParams::default(), &KeywordHashes::empty())
    }

    /// A response about `file` as a relay sees it: the catalog's keywords for
    /// the file, the query's keywords and the offered providers all borrowed,
    /// requested by peer 4 at locality 1.
    pub(crate) fn response<'a>(
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
    /// * peer 0 is the deciding peer; its gid and locId are configurable,
    /// * a response carries at most 5 providers (the paper's setting).
    pub(crate) struct Fixture {
        pub graph: OverlayGraph,
        pub catalog: Catalog,
        pub scheme: GroupScheme,
        pub group_ids: Vec<GroupId>,
        pub peers: Vec<PeerState>,
        pub max_providers_per_response: usize,
    }

    impl Fixture {
        pub(crate) fn new(modulus: u32) -> Self {
            let filenames = vec![
                vec![KeywordId(0), KeywordId(1), KeywordId(2)],
                vec![KeywordId(3), KeywordId(4), KeywordId(5)],
                vec![KeywordId(0), KeywordId(6), KeywordId(7)],
                vec![KeywordId(8), KeywordId(9), KeywordId(10)],
            ];
            Self::with_filenames(modulus, 12, filenames)
        }

        /// The same overlay and peers over a catalog of the caller's
        /// `filenames`, drawn from a pool of `keywords` keyword ids.
        pub(crate) fn with_filenames(modulus: u32, keywords: usize, filenames: Vec<Vec<KeywordId>>) -> Self {
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
                max_providers_per_response: 5,
            }
        }

        /// Peer `peer` stores `file` under its catalog filename.
        pub(crate) fn share(&mut self, peer: usize, file: FileId) {
            self.peers[peer].share_file(file, self.catalog.filename(file).keywords());
        }

        pub(crate) fn view(&self, peer: usize) -> PeerView<'_> {
            PeerView {
                state: &self.peers[peer],
                graph: &self.graph,
                group_ids: &self.group_ids,
                catalog: &self.catalog,
                max_providers_per_response: self.max_providers_per_response,
            }
        }

        /// A query for `keywords` (and, for Dicas, the file `target`) from
        /// locality 1, under the fixture's group scheme.
        pub(crate) fn query(&self, keywords: &[u32], target: Option<u32>) -> QueryBuffer {
            let keywords = keywords.iter().map(|&k| KeywordId(k)).collect();
            let target_filename = target.map(FileId);
            let digest = digest(keywords, target_filename, &self.scheme);
            QueryBuffer { origin_loc: LocId(1), target_filename, digest }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{digest, Fixture};
    use super::*;
    use crate::config::SimulationConfig;

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
        neighbors_matching_gid_into(&fx.view(0), &[GroupId(3)], None, &mut out);
        assert_eq!(out, vec![PeerId(2), PeerId(3)]);
        out.clear();
        neighbors_matching_gid_into(&fx.view(0), &[GroupId(3)], Some(PeerId(2)), &mut out);
        assert_eq!(out, vec![PeerId(3)]);
    }

    #[test]
    fn high_degree_fallback_prefers_the_hub() {
        let fx = Fixture::new(4);
        let fallback = |peer: usize, exclude: Option<PeerId>| {
            let mut out = Vec::new();
            let decision = high_degree_fallback_into(&fx.view(peer), exclude, &mut out);
            (decision, out)
        };
        // From peer 3, the only neighbour is peer 0 (degree 4).
        assert_eq!(fallback(3, None), (ForwardDecision::HighDegree, vec![PeerId(0)]));
        assert_eq!(fallback(3, Some(PeerId(0))), (ForwardDecision::NotForwarded, vec![]));
        // From peer 0, neighbours 1 and 2 have degree 2 (> 1); lowest id wins the tie.
        assert_eq!(fallback(0, None), (ForwardDecision::HighDegree, vec![PeerId(1)]));
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
            let filenames = files.iter().map(|ids| pick(ids)).collect();
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
                    first_storage_match(&view, &digest(query.clone(), None, &fx.scheme)),
                    storage_matches(&view, &query).first().copied(),
                    "query {:?}", query
                );
            }
        }
    }

    proptest::proptest! {
        /// The query digest against the per-hop derivation it replaced, kept
        /// here as the model. Over 0–6 keywords (past the three held
        /// inline), group counts on both sides of one 64-bit word and far
        /// past it, filter geometries of 1–4096 bits and 1–8 hashes, random
        /// neighbour gids, views and senders, and every kind: the digest's
        /// fields equal their derivation, every Gid test decides as
        /// `gid_matches_any_keyword` / `group_of_file` do, the Bloom test
        /// that reads keyword hashes only behind a passing fold picks the
        /// neighbours the eagerly hashed test picks, and every kind forwards
        /// to the targets, for the reason, the derivation gives.
        #[test]
        fn query_digest_decides_as_the_per_hop_derivation(
            keywords in proptest::collection::vec(0u32..12, 0..=6),
            modulus in proptest::prop_oneof![
                proptest::strategy::Just(1u32),
                proptest::strategy::Just(4u32),
                proptest::strategy::Just(64u32),
                proptest::strategy::Just(65u32),
                proptest::strategy::Just(1000u32),
                1u32..=u32::MAX,
            ],
            target in 0u32..4,
            // A third of the filters fit one word, where the fold is the
            // filter; a third are a few words, where folds fill up.
            geometry in (proptest::prop_oneof![1usize..=64, 65usize..=512, 1usize..=4096], 1usize..=8),
            gids in proptest::collection::vec((0u32..3, 0u32..12, proptest::strategy::any::<u32>()), 5),
            views in proptest::collection::vec(
                proptest::option::of((proptest::strategy::any::<u8>(), proptest::collection::vec(0u32..12, 0..=8))),
                4,
            ),
            exclude in proptest::option::of(1u32..=4),
        ) {
            use locaware_bloom::{BloomFilter, ElementHashes};
            use std::sync::Arc;

            let keywords: Vec<KeywordId> = keywords.into_iter().map(KeywordId).collect();
            let (bloom, exclude) = (BloomParams::new(geometry.0, geometry.1), exclude.map(PeerId));
            let mut fx = Fixture::new(modulus);
            let scheme = fx.scheme;
            // A gid is a keyword's group, a file's group or any group.
            fx.group_ids = (gids.iter())
                .map(|&(pick, id, any)| match pick {
                    0 => scheme.group_of_keyword(KeywordId(id)),
                    1 => scheme.group_of_file(FileId(id % 4)),
                    _ => GroupId(any % modulus),
                })
                .collect();
            // Peer 0's neighbours 1–4, each with no view or a view holding
            // the query keywords its mask picks (all of them now and then,
            // most of them often) and a few others.
            let hashes_of = KeywordHashes::empty();
            for (n, held) in (1..).map(PeerId).zip(&views) {
                let Some((picked, others)) = held else { continue };
                let picked = keywords.iter().enumerate().filter(|&(i, _)| picked >> i & 1 == 1).map(|(_, &kw)| kw);
                let mut filter = BloomFilter::new(bloom);
                for kw in picked.chain(others.iter().map(|&kw| KeywordId(kw))) {
                    filter.insert_hashes(&hashes_of.of(kw));
                }
                let fold = filter.fold();
                fx.peers[0].set_neighbor_bloom(n, Arc::new(filter), fold);
            }
            let row = fx.graph.neighbors(PeerId(0)).to_vec();
            let others: Vec<PeerId> = row.iter().copied().filter(|&n| Some(n) != exclude).collect();

            // The per-hop derivation.
            let hashes: Vec<ElementHashes> = keywords.iter().map(|&kw| hashes_of.of(kw)).collect();
            let mask = bloom.fold_mask(&hashes);
            let eager: Vec<PeerId> = if hashes.is_empty() {
                Vec::new()
            } else {
                let views = fx.peers[0].bloom_views();
                let holds = |n: PeerId| {
                    let view = views.iter().find(|view| view.neighbor() == n);
                    view.is_some_and(|v| v.fold() & mask == mask && v.bloom().contains_all_hashes(&hashes))
                };
                others.iter().copied().filter(|&n| holds(n)).collect()
            };
            let hub = others.iter().copied().max_by_key(|&n| (fx.graph.degree(n), std::cmp::Reverse(n.0)));
            let by_gid = |matches: &dyn Fn(GroupId) -> bool| {
                let targets: Vec<PeerId> =
                    others.iter().copied().filter(|n| matches(fx.group_ids[n.index()])).collect();
                match (targets.is_empty(), hub) {
                    (false, _) => (ForwardDecision::GidMatch, targets),
                    (true, Some(hub)) => (ForwardDecision::HighDegree, vec![hub]),
                    (true, None) => (ForwardDecision::NotForwarded, Vec::new()),
                }
            };
            let by_keyword = |gid| scheme.gid_matches_any_keyword(gid, &keywords);

            for kind in ProtocolKind::ALL {
                let filename = kind.searches_by_filename().then_some(FileId(target));
                let digest = QueryDigest::new(keywords.clone(), filename, &scheme, bloom, fx.catalog.keyword_hashes());
                proptest::prop_assert_eq!(digest.keywords(), &keywords[..]);
                proptest::prop_assert_eq!(digest.signature(), keyword_signature(&keywords));
                proptest::prop_assert_eq!(digest.fold_mask(), mask);
                let gid_model = |gid: GroupId| match filename {
                    Some(file) => gid == scheme.group_of_file(file),
                    None => by_keyword(gid),
                };
                let spread = (0..modulus.min(70)).map(GroupId);
                for gid in fx.group_ids.iter().chain(digest.groups()).copied().chain(spread) {
                    proptest::prop_assert_eq!(digest.groups().contains(&gid), gid_model(gid), "{} {:?}", kind, gid);
                }

                let mut lazy = Vec::new();
                fx.peers[0].neighbors_matching_bloom_into(&row, digest.keywords(), digest.fold_mask(), exclude, &mut lazy);
                proptest::prop_assert_eq!(&lazy, &eager, "{}", kind);

                let expected = match kind {
                    ProtocolKind::Flooding if others.is_empty() => (ForwardDecision::NotForwarded, Vec::new()),
                    ProtocolKind::Flooding => (ForwardDecision::Flood, others.clone()),
                    ProtocolKind::Dicas => by_gid(&|gid| gid == scheme.group_of_file(FileId(target))),
                    ProtocolKind::DicasKeys | ProtocolKind::LocawareNoBloom => by_gid(&by_keyword),
                    ProtocolKind::Locaware | ProtocolKind::LocawareNoLocality | ProtocolKind::Hybrid
                        if !eager.is_empty() => (ForwardDecision::BloomMatch, eager.clone()),
                    ProtocolKind::Locaware | ProtocolKind::LocawareNoLocality | ProtocolKind::Hybrid => {
                        by_gid(&by_keyword)
                    }
                    ProtocolKind::DhtIndex => (ForwardDecision::NotForwarded, Vec::new()),
                };
                let context = QueryContext { origin_loc: LocId(1), digest: &digest, target_filename: filename };
                let mut targets = Vec::new();
                let decision = forward_targets_into(kind, &fx.view(0), &context, exclude, &mut targets);
                proptest::prop_assert_eq!((decision, targets), expected, "{}", kind);
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
        let check = |kind: ProtocolKind,
                     gid: GroupId,
                     query_keywords: &[KeywordId],
                     keywords: &[KeywordId],
                     providers: &[(PeerId, LocId)]| {
            let mut fx = Fixture::new(4);
            let context = response(&fx.catalog, file, query_keywords, &offered);
            cache_response(kind, &mut fx.peers[0], gid, &fx.scheme, &context);

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
        check(ProtocolKind::Dicas, by_file, &asked, &filename, &first);
        check(ProtocolKind::DicasKeys, by_keyword, &asked, &asked, &first);
        check(ProtocolKind::DicasKeys, by_keyword, &[], &filename, &first);
        check(ProtocolKind::Locaware, by_file, &asked, &filename, &all_and_requestor);
    }

    /// Every kind's facts, one row each: its selection policy, whether it
    /// routes by Bloom filter and searches by filename, the providers it
    /// keeps per file under a config allowing 5, whether it runs a keyword
    /// DHT, whether it acts on the overlay at all (the fixture's hub forwards
    /// a query, and answers it from a file it stores), and — at head
    /// fractions 0, 0.1 and 1 — which
    /// of the ranks 0, 9, 10 and 99 of a 100-file catalog the DHT resolves:
    /// the first, the last of the 0.1 head, the first of its tail, the last.
    #[test]
    fn every_kind_spells_out_its_facts() {
        use crate::provider::SelectionPolicy::{LocalityThenRtt as Local, Random};
        use ProtocolKind::*;
        let (none, all) = ([[false; 4]; 3], [[true; 4]; 3]);
        let tail = [[true; 4], [false, false, true, true], [false; 4]];
        let rows = [
            (Flooding, Random, false, false, 1, false, true, none),
            (Dicas, Random, false, true, 1, false, true, none),
            (DicasKeys, Random, false, false, 1, false, true, none),
            (Locaware, Local, true, false, 5, false, true, none),
            (LocawareNoLocality, Random, true, false, 5, false, true, none),
            (LocawareNoBloom, Local, false, false, 5, false, true, none),
            (DhtIndex, Random, false, false, 1, true, false, all),
            (Hybrid, Local, true, false, 5, true, true, tail),
        ];
        assert_eq!(rows.map(|row| row.0), ProtocolKind::ALL);
        let config = SimulationConfig { max_providers_per_file: 5, ..SimulationConfig::small(20) };
        let mut fx = Fixture::new(4);
        fx.share(0, FileId(0)); // keywords {0,1,2}
        let query = fx.query(&[0, 1], Some(0));
        for (kind, selection, bloom, filename, providers, uses_dht, overlay, dht) in rows {
            assert_eq!(kind.selection_policy(), selection, "{kind}");
            assert_eq!(kind.routes_by_bloom(), bloom, "{kind}");
            assert_eq!(kind.searches_by_filename(), filename, "{kind}");
            assert_eq!(kind.max_providers_per_file(&config), providers, "{kind}");
            assert_eq!(kind.uses_dht(), uses_dht, "{kind}");
            let (view, mut out) = (fx.view(0), Vec::new());
            let decision = forward_targets_into(kind, &view, &query.context(), None, &mut out);
            let answers = local_match(kind, &view, &query.context()).is_some();
            let acts = [decision != ForwardDecision::NotForwarded, !out.is_empty(), answers];
            assert_eq!(acts, [overlay; 3], "{kind}");
            for (fraction, ranks) in [0.0, 0.1, 1.0].into_iter().zip(dht) {
                for (rank, resolves) in [0, 9, 10, 99].into_iter().zip(ranks) {
                    assert_eq!(kind.dht_resolves_rank(rank, 100, fraction), resolves, "{kind} {rank} {fraction}");
                }
            }
        }
    }
}
