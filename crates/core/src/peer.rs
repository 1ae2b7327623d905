//! Per-peer protocol state.
//!
//! Each peer owns: the files it shares (its "file storage"), its response index
//! (`RI`, §3.2/§4.1), the Bloom filter summarising the keywords of its cached
//! filenames (§4.2) and the latest copy of each neighbour's filter it has
//! received. What a real peer would also hold is kept where the engine's
//! accesses are local: duplicate suppression and reverse paths live with the
//! live query ([`locaware_overlay::QueryRoutes`], one per shard), and who its
//! neighbours are, whether they are online and their group ids are the run's
//! to say (the coordinator's overlay graph and the run's group-id table).

use std::collections::BTreeSet;
use std::sync::Arc;

use locaware_bloom::{BloomDelta, BloomFilter, BloomParams, CountingBloomFilter};
use locaware_net::LocId;
use locaware_overlay::PeerId;
use locaware_workload::{Catalog, FileId, KeywordHashes, KeywordId};

use crate::index::ResponseIndex;

/// A 64-bit summary of a keyword set: one bit per keyword, chosen by a
/// multiplicative hash of its id. A filename containing every keyword of a
/// query has every bit of the query's signature set in its own — the
/// one-sided test [`PeerState::may_store`] runs in front of the storage walk,
/// and [`ResponseIndex::lookup_by_keywords`] in front of each cached entry.
pub(crate) fn keyword_signature(keywords: &[KeywordId]) -> u64 {
    keywords
        .iter()
        .fold(0, |bits, kw| bits | 1 << (kw.0.wrapping_mul(0x9E37_79B9) >> 26))
}

/// A neighbour's filter as this peer last received it, with its
/// [`BloomFilter::fold`] kept beside the pointer: the routing test compares
/// the fold with the query's fold mask and reads the filter itself only when
/// that passes, which on the Bloom-routed benchmark workloads is 0.4–9% of
/// the views tested.
#[derive(Debug, Clone)]
pub struct BloomView {
    neighbor: PeerId,
    /// Always `bloom.fold()`: the pushed export's own on a full push,
    /// recomputed on a delta, since a delta can clear bits.
    fold: u64,
    bloom: Arc<BloomFilter>,
}

impl BloomView {
    fn new(neighbor: PeerId, bloom: Arc<BloomFilter>, fold: u64) -> Self {
        debug_assert_eq!(fold, bloom.fold(), "{neighbor:?}'s filter arrived with a stale fold");
        BloomView { neighbor, fold, bloom }
    }

    /// The neighbour whose filter this is.
    pub fn neighbor(&self) -> PeerId {
        self.neighbor
    }

    /// The stored fold of the filter.
    pub fn fold(&self) -> u64 {
        self.fold
    }

    /// The filter, shared with its owner's export until a delta changes it.
    pub fn bloom(&self) -> &Arc<BloomFilter> {
        &self.bloom
    }
}

/// The full protocol-visible state of one peer.
///
/// Laid out for the delivery path: a peer's state starts a cache line of its
/// own (`align(64)`), and that line holds what an unstructured delivery
/// reads first — the storage signature, the neighbour Bloom views, the id
/// and locId and the response index's entry vector, whose header sits first
/// in [`ResponseIndex`]. A first sighting that the signature and the index
/// turn away, and a forward the Bloom folds decide, then touch one line of
/// `PeerState`; the cold fields follow. The asserts below the struct pin the
/// head inside the first 64 bytes.
#[derive(Debug, Clone)]
#[repr(C, align(64))]
pub struct PeerState {
    /// [`keyword_signature`] of every stored filename, OR-ed together: a
    /// query whose own signature is not covered cannot match any stored file,
    /// so the storage walk is skipped without touching the shared-file set.
    storage_signature: u64,
    /// The neighbour filters this peer has received, strictly ascending by
    /// neighbour id. A neighbour with no view has an empty filter: the state
    /// before the first exchange and after a volatile reset, kept unallocated
    /// because empty filters dominated per-peer memory at scale. A view's
    /// filter is shared with its owner's export (and the other neighbours'
    /// views of it) until a delta changes it; its 64-bit fold is held inline,
    /// so a routing test that the fold rejects reads nothing behind the
    /// pointer.
    bloom_views: Vec<BloomView>,
    /// This peer's id (identical at overlay and underlay layers).
    pub id: PeerId,
    /// This peer's location id.
    pub loc_id: LocId,
    /// The response index.
    pub response_index: ResponseIndex,
    /// Files this peer can serve (initial shares plus completed downloads).
    shared_files: BTreeSet<FileId>,
    /// Counting filter tracking the keywords of everything in the response
    /// index (private; supports deletions).
    counting_bloom: CountingBloomFilter,
    /// The last filter version pushed to neighbours; the initial exchange
    /// shares it with every neighbour's view.
    exported_bloom: Arc<BloomFilter>,
    /// `exported_bloom.fold()`, recomputed wherever the export changes, so a
    /// full push carries it and no receiving view computes it.
    exported_fold: u64,
    /// The peer's DHT half — XOR-metric routing table plus keyword record
    /// store. `Some` only when the run's protocol uses the structured index
    /// (the engine installs it at setup); the six unstructured protocols
    /// never allocate it. Boxed: the node is cold relative to the routing
    /// fields around it, and boxing keeps `PeerState` small for the
    /// unstructured majority of runs.
    pub dht: Option<Box<locaware_overlay::DhtNode>>,
    /// Interned Bloom hashes per keyword, shared with the catalog so filter
    /// maintenance never re-hashes (and never re-spells) a pool keyword.
    keyword_hashes: Arc<KeywordHashes>,
    /// True if the response index changed since the last export.
    bloom_dirty: bool,
}

// The head: each field's last byte inside the first 64. The response
// index's entry vector is its first field (asserted in `index.rs`).
const _: () = {
    use std::mem::{offset_of, size_of};
    assert!(offset_of!(PeerState, storage_signature) + size_of::<u64>() <= 64);
    assert!(offset_of!(PeerState, bloom_views) + size_of::<Vec<BloomView>>() <= 64);
    assert!(offset_of!(PeerState, id) + size_of::<PeerId>() <= 64);
    assert!(offset_of!(PeerState, loc_id) + size_of::<LocId>() <= 64);
    assert!(offset_of!(PeerState, response_index) + size_of::<Vec<crate::index::IndexEntry>>() <= 64);
};

impl PeerState {
    /// Creates a fresh peer with an empty cache.
    ///
    /// `keyword_hashes` is the interned per-keyword hash table (normally
    /// [`locaware_workload::Catalog::keyword_hashes`], cloned cheaply via
    /// `Arc`); pass [`KeywordHashes::empty`] to hash on the fly, which is
    /// semantically identical but slower.
    pub fn new(
        id: PeerId,
        loc_id: LocId,
        bloom_params: BloomParams,
        index_capacity: usize,
        max_providers_per_file: usize,
        keyword_hashes: Arc<KeywordHashes>,
    ) -> Self {
        PeerState {
            storage_signature: 0,
            bloom_views: Vec::new(),
            id,
            loc_id,
            response_index: ResponseIndex::new(index_capacity, max_providers_per_file),
            shared_files: BTreeSet::new(),
            counting_bloom: CountingBloomFilter::new(bloom_params),
            exported_bloom: Arc::new(BloomFilter::new(bloom_params)),
            exported_fold: 0,
            dht: None,
            keyword_hashes,
            bloom_dirty: false,
        }
    }

    /// The interned keyword-hash table this peer hashes through.
    pub fn keyword_hashes(&self) -> &Arc<KeywordHashes> {
        &self.keyword_hashes
    }

    // --- file storage ---------------------------------------------------------

    /// Adds a file to this peer's storage (initial share or completed
    /// download); `keywords` are its filename's. Returns `true` if the file
    /// was not already stored.
    pub fn share_file(&mut self, file: FileId, keywords: &[KeywordId]) -> bool {
        self.storage_signature |= keyword_signature(keywords);
        self.shared_files.insert(file)
    }

    /// Whether a stored filename *can* contain every keyword of a query with
    /// [`keyword_signature`] `query`: `false` is exact (no stored file
    /// matches), `true` means the files have to be looked at.
    pub(crate) fn may_store(&self, query: u64) -> bool {
        self.storage_signature & query == query
    }

    /// True if the peer stores `file`.
    pub fn has_file(&self, file: FileId) -> bool {
        self.shared_files.contains(&file)
    }

    /// The files this peer stores, in id order.
    pub fn shared_files(&self) -> impl Iterator<Item = FileId> + '_ {
        self.shared_files.iter().copied()
    }

    /// Number of files stored.
    pub fn shared_file_count(&self) -> usize {
        self.shared_files.len()
    }

    // --- response index + Bloom maintenance ------------------------------------

    /// Inserts providers for `file` into the response index and keeps the
    /// Bloom filter consistent (new filename keywords inserted, evicted
    /// filename keywords removed). Marks the exported filter dirty when the set
    /// of cached filenames changes.
    pub fn cache_index(
        &mut self,
        file: FileId,
        keywords: &[KeywordId],
        providers: impl IntoIterator<Item = (PeerId, LocId)>,
    ) {
        let was_cached = self.response_index.contains(file);
        let evictions = self.response_index.insert(file, keywords, providers);
        if !was_cached {
            for &kw in keywords {
                self.counting_bloom.insert_hashes(&self.keyword_hashes.of(kw));
            }
            self.bloom_dirty = true;
        }
        for eviction in evictions {
            for &kw in &eviction.keywords {
                self.counting_bloom.remove_hashes(&self.keyword_hashes.of(kw));
            }
            self.bloom_dirty = true;
        }
    }

    /// Advertises extra keywords in this peer's Bloom filter without going
    /// through the response index.
    ///
    /// Locaware uses this for the keywords of the peer's *own shared files*:
    /// §5.2 credits Locaware with "avoid\[ing\] missing results held by
    /// neighbors", which requires neighbours' filters to cover locally stored
    /// files as well as cached indexes. Shared files are never evicted, so no
    /// matching removal is needed.
    pub fn advertise_keywords(&mut self, keywords: &[KeywordId]) {
        for &kw in keywords {
            self.counting_bloom.insert_hashes(&self.keyword_hashes.of(kw));
        }
        if !keywords.is_empty() {
            self.bloom_dirty = true;
        }
    }

    /// Advertises the keywords of every stored file, as
    /// [`PeerState::advertise_keywords`] does for one: at set-up, and again
    /// after a rejoin's volatile reset has cleared the filter.
    pub fn advertise_stored_files(&mut self, catalog: &Catalog) {
        let files = std::mem::take(&mut self.shared_files);
        for &file in &files {
            self.advertise_keywords(catalog.filename(file).keywords());
        }
        self.shared_files = files;
    }

    /// The peer's current Bloom filter (the counting filter's projection).
    pub fn current_bloom(&self) -> &BloomFilter {
        self.counting_bloom.bloom()
    }

    /// The last filter version exported to neighbours.
    pub fn exported_bloom(&self) -> &Arc<BloomFilter> {
        &self.exported_bloom
    }

    /// The [`BloomFilter::fold`] of [`PeerState::exported_bloom`].
    pub fn exported_fold(&self) -> u64 {
        self.exported_fold
    }

    /// Exports the current filter whole, as the initial exchange hands it to
    /// every neighbour, and returns it to be shared, with its fold; no delta
    /// is left pending.
    pub fn export_bloom(&mut self) -> (Arc<BloomFilter>, u64) {
        if self.bloom_dirty {
            Arc::make_mut(&mut self.exported_bloom).clone_from(self.counting_bloom.bloom());
            self.exported_fold = self.exported_bloom.fold();
            self.bloom_dirty = false;
        }
        (Arc::clone(&self.exported_bloom), self.exported_fold)
    }

    /// True if the exported filter is stale.
    pub fn bloom_dirty(&self) -> bool {
        self.bloom_dirty
    }

    /// If the filter changed since the last export, returns the incremental
    /// update to push to neighbours (§4.2 footnote) and records the new export.
    /// Returns `None` when nothing changed.
    pub fn take_bloom_update(&mut self) -> Option<BloomDelta> {
        if !self.bloom_dirty {
            return None;
        }
        self.bloom_dirty = false;
        let delta = BloomDelta::between(&self.exported_bloom, self.counting_bloom.bloom());
        if delta.is_empty() {
            return None;
        }
        // A copy only while neighbours' views still share the old export.
        delta.apply(Arc::make_mut(&mut self.exported_bloom));
        self.exported_fold = self.exported_bloom.fold();
        Some(delta)
    }

    /// Clears all cached protocol state (used when a peer rejoins after churn:
    /// caches are volatile, stored files are not).
    pub fn reset_volatile_state(&mut self) {
        self.response_index.clear();
        self.counting_bloom.clear();
        Arc::make_mut(&mut self.exported_bloom).clear();
        self.exported_fold = 0;
        self.bloom_dirty = false;
        self.bloom_views.clear();
        // The DHT half is volatile too: a rejoining node has lost its stored
        // records and its routing table (the engine rebuilds the table from
        // the current online population; records return via republish).
        if let Some(dht) = &mut self.dht {
            dht.table.clear();
            dht.store.clear();
        }
    }

    // --- neighbour filters -------------------------------------------------------

    /// The neighbour filters this peer holds, in neighbour-id order.
    pub fn bloom_views(&self) -> &[BloomView] {
        &self.bloom_views
    }

    fn view_position(&self, neighbor: PeerId) -> Result<usize, usize> {
        self.bloom_views.binary_search_by_key(&neighbor, |view| view.neighbor)
    }

    /// Replaces the stored copy of a neighbour's filter (full push); `fold`
    /// is the filter's [`BloomFilter::fold`], computed once by its exporter.
    pub fn set_neighbor_bloom(&mut self, neighbor: PeerId, bloom: Arc<BloomFilter>, fold: u64) {
        let view = BloomView::new(neighbor, bloom, fold);
        match self.view_position(neighbor) {
            Ok(pos) => self.bloom_views[pos] = view,
            Err(pos) => self.bloom_views.insert(pos, view),
        }
    }

    /// Applies an incremental update to the stored copy of a neighbour's
    /// filter: a view still shared with the neighbour's export (or another
    /// peer's view of it) is copied first, and a missing view starts from the
    /// empty filter (every peer in a run shares one filter geometry, so the
    /// local export's parameters are the neighbour's too). The view's fold is
    /// recomputed, not ORed into: a delta clears bits as well as setting them.
    pub fn apply_neighbor_bloom_delta(&mut self, neighbor: PeerId, delta: &BloomDelta) {
        let pos = match self.view_position(neighbor) {
            Ok(pos) => pos,
            Err(pos) => {
                let empty = Arc::new(BloomFilter::new(self.exported_bloom.params()));
                self.bloom_views.insert(pos, BloomView::new(neighbor, empty, 0));
                pos
            }
        };
        let view = &mut self.bloom_views[pos];
        delta.apply(Arc::make_mut(&mut view.bloom));
        view.fold = view.bloom.fold();
    }

    /// Drops the stored copy of a neighbour's filter (the link is gone).
    pub fn drop_neighbor_bloom(&mut self, neighbor: PeerId) {
        if let Ok(pos) = self.view_position(neighbor) {
            self.bloom_views.remove(pos);
        }
    }

    /// The §4.2 routing test: appends (in id order) every neighbour in the
    /// id-sorted `row` other than `exclude` whose stored filter contains all
    /// query `keywords`. Views are walked in step with the row, and a
    /// neighbour with no view matches nothing, like the empty filter. A view
    /// whose fold lacks a bit of `fold_mask` — the keywords'
    /// [`BloomParams::fold_mask`] under the run's filter geometry, which
    /// every peer shares — cannot contain them, so only a filter whose fold
    /// passes is probed, and only then are the keywords' interned hashes
    /// read. No keywords match nothing (empty queries are never routed). The
    /// caller's buffer is appended to, not cleared, so it can be reused
    /// across events.
    pub fn neighbors_matching_bloom_into(
        &self,
        row: &[PeerId],
        keywords: &[KeywordId],
        fold_mask: u64,
        exclude: Option<PeerId>,
        out: &mut Vec<PeerId>,
    ) {
        if keywords.is_empty() {
            return;
        }
        let mut views = self.bloom_views.iter().peekable();
        for &n in row {
            while views.next_if(|view| view.neighbor < n).is_some() {}
            let Some(view) = views.next_if(|view| view.neighbor == n) else {
                continue;
            };
            if Some(n) != exclude
                && view.fold & fold_mask == fold_mask
                && keywords.iter().all(|&kw| view.bloom.contains_hashes(&self.keyword_hashes.of(kw)))
            {
                out.push(n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use locaware_bloom::ElementHashes;

    fn peer(id: u32) -> PeerState {
        PeerState::new(
            PeerId(id),
            LocId(0),
            BloomParams::default(),
            4,
            3,
            Arc::new(KeywordHashes::empty()),
        )
    }

    fn kws(ids: &[u32]) -> Vec<KeywordId> {
        ids.iter().map(|&i| KeywordId(i)).collect()
    }

    /// The neighbours in the graph row `{2, 3}` whose views match `keywords`,
    /// tested under the run geometry's fold mask — which must be the mask of
    /// the peer's own counting-filter geometry.
    fn bloom_matches(p: &PeerState, keywords: &[KeywordId]) -> Vec<PeerId> {
        let hashes: Vec<ElementHashes> = keywords.iter().map(|&kw| p.keyword_hashes.of(kw)).collect();
        let run_mask = BloomParams::default().fold_mask(&hashes);
        assert_eq!(run_mask, p.counting_bloom.params().fold_mask(&hashes), "one geometry per run");
        let mut out = Vec::new();
        p.neighbors_matching_bloom_into(&[PeerId(2), PeerId(3)], keywords, run_mask, None, &mut out);
        out
    }

    #[test]
    fn file_storage_grows_with_downloads() {
        let mut p = peer(1);
        assert!(p.share_file(FileId(10), &kws(&[1, 2])));
        assert!(!p.share_file(FileId(10), &kws(&[1, 2])), "duplicate share is a no-op");
        assert!(p.has_file(FileId(10)));
        assert!(!p.has_file(FileId(11)));
        assert_eq!(p.shared_file_count(), 1);
        assert_eq!(p.shared_files().collect::<Vec<_>>(), vec![FileId(10)]);
    }

    #[test]
    fn caching_updates_the_bloom_filter() {
        let mut p = peer(1);
        assert!(!p.bloom_dirty());
        p.cache_index(FileId(5), &kws(&[100, 200, 300]), [(PeerId(9), LocId(2))]);
        assert!(p.bloom_dirty());
        let bloom = p.current_bloom();
        for kw in kws(&[100, 200, 300]) {
            assert!(bloom.contains(&kw.canonical()));
        }
        // Taking the update clears the dirty flag and exports the new filter.
        let delta = p.take_bloom_update().expect("there should be an update");
        assert!(!delta.is_empty());
        assert!(!p.bloom_dirty());
        assert_eq!(p.exported_bloom().as_ref(), p.current_bloom());
        assert!(p.take_bloom_update().is_none(), "no further change, no update");
    }

    /// A whole export is written in place while nobody else holds it, and
    /// leaves a view that still shares the old one untouched.
    #[test]
    fn export_bloom_copies_only_a_shared_export() {
        let mut p = peer(1);
        p.cache_index(FileId(5), &kws(&[1, 2]), [(PeerId(9), LocId(2))]);
        let before = Arc::as_ptr(p.exported_bloom());
        let (first, fold) = p.export_bloom();
        assert_eq!(fold, first.fold(), "the export carries its own fold");
        assert_eq!(Arc::as_ptr(&first), before, "unshared: rewritten in place");
        assert_eq!(first.as_ref(), p.current_bloom());
        p.cache_index(FileId(6), &kws(&[3]), [(PeerId(9), LocId(2))]);
        let (second, fold) = p.export_bloom();
        assert_eq!(fold, second.fold());
        assert!(!Arc::ptr_eq(&first, &second), "shared: copied");
        assert_eq!(second.as_ref(), p.current_bloom());
        assert!(!first.contains(&KeywordId(3).canonical()), "the held view keeps its bits");
    }

    #[test]
    fn adding_providers_to_cached_file_does_not_dirty_the_bloom() {
        let mut p = peer(1);
        p.cache_index(FileId(5), &kws(&[1, 2, 3]), [(PeerId(9), LocId(2))]);
        let _ = p.take_bloom_update();
        p.cache_index(FileId(5), &kws(&[1, 2, 3]), [(PeerId(10), LocId(3))]);
        assert!(
            !p.bloom_dirty(),
            "the filename set did not change, so the filter must not change"
        );
    }

    #[test]
    fn eviction_removes_keywords_from_the_bloom() {
        let mut p = peer(1); // capacity 4 filenames
        for f in 0..5u32 {
            p.cache_index(
                FileId(f),
                &kws(&[f * 10, f * 10 + 1, f * 10 + 2]),
                [(PeerId(50 + f), LocId(0))],
            );
        }
        // File 0 was the least recently touched and must have been evicted.
        assert!(!p.response_index.contains(FileId(0)));
        let bloom = p.current_bloom();
        for kw in kws(&[0, 1, 2]) {
            assert!(
                !bloom.contains(&kw.canonical()),
                "evicted filename keywords must leave the filter"
            );
        }
        for kw in kws(&[40, 41, 42]) {
            assert!(bloom.contains(&kw.canonical()));
        }
    }

    #[test]
    fn neighbor_bloom_bookkeeping_and_matching() {
        let mut p = peer(1);

        // Neighbour 2 announces a filter containing keywords {7, 8}.
        let mut remote = BloomFilter::default();
        remote.insert(&KeywordId(7).canonical());
        remote.insert(&KeywordId(8).canonical());
        let fold = remote.fold();
        p.set_neighbor_bloom(PeerId(2), Arc::new(remote), fold);

        assert_eq!(bloom_matches(&p, &kws(&[7])), vec![PeerId(2)]);
        assert_eq!(bloom_matches(&p, &kws(&[7, 8])), vec![PeerId(2)]);
        assert!(bloom_matches(&p, &kws(&[7, 9])).is_empty());
        assert!(bloom_matches(&p, &[]).is_empty());

        // A view outside the row is never a target.
        let mut off_row = BloomFilter::default();
        off_row.insert(&KeywordId(7).canonical());
        let fold = off_row.fold();
        p.set_neighbor_bloom(PeerId(5), Arc::new(off_row), fold);
        assert_eq!(bloom_matches(&p, &kws(&[7])), vec![PeerId(2)]);

        p.drop_neighbor_bloom(PeerId(2));
        assert!(bloom_matches(&p, &kws(&[7])).is_empty());
    }

    #[test]
    fn neighbor_delta_updates_apply() {
        let mut p = peer(1);

        // The neighbour's filter gains keyword 42; we receive only the delta.
        let empty = BloomFilter::default();
        let mut updated = BloomFilter::default();
        updated.insert(&KeywordId(42).canonical());
        let delta = BloomDelta::between(&empty, &updated);
        p.apply_neighbor_bloom_delta(PeerId(2), &delta);
        assert_eq!(bloom_matches(&p, &kws(&[42])), vec![PeerId(2)], "a missing view starts empty");
        p.apply_neighbor_bloom_delta(PeerId(3), &delta);
        assert_eq!(bloom_matches(&p, &kws(&[42])), vec![PeerId(2), PeerId(3)]);
    }

    #[test]
    fn stored_files_are_advertised_again_after_a_reset() {
        let filenames = vec![kws(&[1, 2, 3]), kws(&[4, 5, 6])];
        let catalog = Catalog::from_filenames(locaware_workload::KeywordPool::new(8), filenames);
        let mut p = peer(1);
        p.share_file(FileId(1), catalog.filename(FileId(1)).keywords());
        p.cache_index(FileId(0), &kws(&[1, 2, 3]), [(PeerId(9), LocId(2))]);
        p.reset_volatile_state();
        p.advertise_stored_files(&catalog);
        assert!(p.bloom_dirty());
        let mut stored = BloomFilter::default();
        for kw in kws(&[4, 5, 6]) {
            stored.insert(&kw.canonical());
        }
        assert_eq!(p.current_bloom().words(), stored.words(), "stored files only, no cached name");
    }

    #[test]
    fn reset_volatile_state_keeps_files_drops_caches() {
        let mut p = peer(1);
        p.share_file(FileId(3), &kws(&[7]));
        p.cache_index(FileId(5), &kws(&[1, 2]), [(PeerId(9), LocId(2))]);
        p.set_neighbor_bloom(PeerId(2), Arc::new(BloomFilter::default()), 0);
        p.reset_volatile_state();
        assert!(p.has_file(FileId(3)) && p.may_store(keyword_signature(&kws(&[7]))));
        assert!(p.response_index.is_empty());
        assert!(p.current_bloom().is_empty());
        assert!(!p.bloom_dirty());
        assert!(p.bloom_views().is_empty(), "neighbour filters are volatile too");
    }
}
