//! The response index (`RI`): Locaware's location-aware index cache.
//!
//! §3.2: *"each peer n maintains a cache of file indexes called response index
//! and noted RI_n"*, where an index of `f` contains the filename and the
//! address of a provider. §4.1 extends each entry with the provider's `locId`
//! and allows *several* providers per file. §4.1.2 fixes the replacement rule:
//! *"peer n constantly updates the list of providers of f in its RI_n as new
//! queries for f pass by n: the most recent p_f entries replace the oldest
//! ones"*, and the cache capacity is bounded by the peer's storage (the paper
//! sizes its Bloom filter for 50 filenames).
//!
//! [`ResponseIndex`] implements exactly that: a bounded map from file to a
//! bounded, recency-ordered provider list, with least-recently-updated filename
//! eviction and explicit eviction reporting so the owning peer can keep its
//! Bloom filter in sync.
//!
//! Two auxiliary structures keep the per-query cost flat as the index grows:
//! a recency set ordered by `(last_touched, file)` makes eviction an ordered
//! first-element pop instead of an O(n) min-scan, and an inverted keyword →
//! files postings map lets [`ResponseIndex::lookup_by_keywords`] touch only
//! the entries sharing a query keyword instead of scanning every cached
//! filename. Both are maintained incrementally on insert/touch/evict and are
//! pure functions of the entry map, so observable behaviour is identical to
//! the naive scans (pinned by the model-based property test against the
//! test-only `naive` reference model).
//!
//! Invalidation is lazy, as in the paper: a departed provider's records stay
//! until newer providers replace them (§4.1.2), and the engine filters
//! departed providers at selection time. [`ResponseIndex::remove_provider`]
//! is the eager alternative — a scan of the whole cache, which no simulation
//! run calls.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};

use locaware_net::LocId;
use locaware_overlay::PeerId;
use locaware_workload::{FileId, KeywordId};

/// One provider entry in the index: address + location id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderRecord {
    /// The provider peer.
    pub peer: PeerId,
    /// The provider's locId.
    pub loc_id: LocId,
    /// Recency stamp (larger = more recent); used by the replacement rule.
    pub freshness: u64,
}

/// A cached filename with its known providers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexEntry {
    /// The file this entry indexes.
    pub file: FileId,
    /// All keywords of the filename (needed for keyword matching and for
    /// Bloom-filter maintenance on eviction).
    pub keywords: Vec<KeywordId>,
    /// Known providers, oldest first, newest last.
    providers: Vec<ProviderRecord>,
    /// Recency stamp of the last touch of this entry (insert or provider add).
    last_touched: u64,
}

impl IndexEntry {
    /// Known providers, oldest first.
    pub fn providers(&self) -> &[ProviderRecord] {
        &self.providers
    }

    /// Number of providers currently recorded.
    pub fn provider_count(&self) -> usize {
        self.providers.len()
    }

    /// True if the entry's keywords contain every keyword of `query` (the §3.1
    /// satisfaction rule applied to a cached index).
    pub fn matches(&self, query: &[KeywordId]) -> bool {
        !query.is_empty() && query.iter().all(|kw| self.keywords.contains(kw))
    }
}

/// A filename evicted from the index, reported so the owner can update its
/// Bloom filter (remove the evicted filename's keywords).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted file.
    pub file: FileId,
    /// The keywords of its filename.
    pub keywords: Vec<KeywordId>,
}

/// The bounded, location-aware response index of one peer.
#[derive(Debug, Clone)]
pub struct ResponseIndex {
    entries: HashMap<FileId, IndexEntry>,
    /// Maximum number of distinct filenames (paper: 50).
    capacity: usize,
    /// Maximum providers kept per filename.
    max_providers: usize,
    /// Monotonic recency counter.
    clock: u64,
    /// Entries ordered by `(last_touched, file)`: the first element is always
    /// the next eviction victim. `last_touched` values are unique per touch
    /// (the clock ticks on every insert), so membership is one exact key.
    recency: BTreeSet<(u64, FileId)>,
    /// Inverted index: keyword → cached files whose filename contains it
    /// (each list sorted by file id, matching the entry's keyword *set*).
    postings: HashMap<KeywordId, PostingsList>,
}

/// The file list of one postings-map keyword.
///
/// With a 9000-keyword pool and ~50 cached filenames of 3 keywords, almost
/// every keyword maps to exactly one file; storing that case inline avoids a
/// heap allocation per keyword on the insert/evict path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PostingsList {
    /// A single file (no heap allocation).
    One(FileId),
    /// Two or more files, sorted by id.
    Many(Vec<FileId>),
}

impl PostingsList {
    /// The files as a sorted slice.
    fn as_slice(&self) -> &[FileId] {
        match self {
            PostingsList::One(file) => std::slice::from_ref(file),
            PostingsList::Many(files) => files,
        }
    }

    /// Adds `file`, keeping the list sorted and duplicate-free.
    fn add(&mut self, file: FileId) {
        match self {
            PostingsList::One(existing) if *existing == file => {}
            PostingsList::One(existing) => {
                let mut files = vec![*existing, file];
                files.sort_unstable();
                *self = PostingsList::Many(files);
            }
            PostingsList::Many(files) => {
                if let Err(pos) = files.binary_search(&file) {
                    files.insert(pos, file);
                }
            }
        }
    }

    /// Removes `file`; returns true when the list is now empty (the caller
    /// drops the postings key).
    fn remove(&mut self, file: FileId) -> bool {
        match self {
            PostingsList::One(existing) => *existing == file,
            PostingsList::Many(files) => {
                if let Ok(pos) = files.binary_search(&file) {
                    files.remove(pos);
                }
                if files.is_empty() {
                    return true;
                }
                if files.len() == 1 {
                    let only = files[0];
                    *self = PostingsList::One(only);
                }
                false
            }
        }
    }
}

/// Equality is over observable contents (entries and capacities); the recency
/// set and postings map are derived structures and the clock is internal, so
/// two indexes that hold the same entries compare equal.
impl PartialEq for ResponseIndex {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
            && self.capacity == other.capacity
            && self.max_providers == other.max_providers
    }
}

impl Eq for ResponseIndex {}

impl ResponseIndex {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics if either capacity is zero.
    pub fn new(capacity: usize, max_providers: usize) -> Self {
        assert!(capacity > 0, "response index capacity must be positive");
        assert!(max_providers > 0, "provider capacity must be positive");
        ResponseIndex {
            // Allocated on first insert: most peers of a large run never
            // cache an entry, and a table pre-sized to `capacity` for each of
            // them is memory the run pays for and never touches.
            entries: HashMap::new(),
            capacity,
            max_providers,
            clock: 0,
            recency: BTreeSet::new(),
            postings: HashMap::new(),
        }
    }

    /// Number of cached filenames.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum number of filenames this index holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Maximum providers per filename.
    pub fn max_providers(&self) -> usize {
        self.max_providers
    }

    /// The entry for `file`, if cached.
    pub fn entry(&self, file: FileId) -> Option<&IndexEntry> {
        self.entries.get(&file)
    }

    /// True if `file` is cached.
    pub fn contains(&self, file: FileId) -> bool {
        self.entries.contains_key(&file)
    }

    /// Iterator over all entries, least-recently-touched first. Served from
    /// the recency set so the order is deterministic — the backing hash map's
    /// is not, and must never escape this module.
    pub fn entries(&self) -> impl Iterator<Item = &IndexEntry> {
        self.recency.iter().map(|&(_, file)| &self.entries[&file])
    }

    /// Every cached filename's keywords (with multiplicity across files), used
    /// to rebuild a Bloom filter from scratch. Recency order, like
    /// [`ResponseIndex::entries`].
    pub fn all_keywords(&self) -> impl Iterator<Item = KeywordId> + '_ {
        self.entries().flat_map(|e| e.keywords.iter().copied())
    }

    /// Cached files whose filename matches every keyword of `query`.
    ///
    /// Served from the inverted postings map: only the files sharing the
    /// query's rarest keyword are examined, so a miss costs one (or a few)
    /// hash lookups instead of a scan over every cached entry. Results are
    /// in file-id order, exactly as the naive full scan would produce.
    pub fn lookup_by_keywords(&self, query: &[KeywordId]) -> Vec<FileId> {
        if query.is_empty() {
            return Vec::new();
        }
        // Seed candidates from the keyword with the shortest postings list;
        // if any query keyword has no postings, nothing can match.
        let mut shortest: Option<&[FileId]> = None;
        for kw in query {
            match self.postings.get(kw) {
                None => return Vec::new(),
                Some(list) => {
                    let files = list.as_slice();
                    if shortest.is_none_or(|s| files.len() < s.len()) {
                        shortest = Some(files);
                    }
                }
            }
        }
        let candidates = shortest.unwrap_or(&[]);
        // Postings lists are kept in file-id order, so the result is too.
        candidates
            .iter()
            .copied()
            .filter(|&f| self.entries[&f].matches(query))
            .collect()
    }

    /// Records providers for `file`, creating the entry if needed. Returns any
    /// filename evicted to make room (so the caller can update its Bloom
    /// filter). `keywords` must be the full keyword list of `file`'s filename.
    ///
    /// Existing providers are refreshed (their freshness bumped and locId
    /// updated); when the provider list overflows, the oldest entries are
    /// dropped, per §4.1.2.
    pub fn insert(
        &mut self,
        file: FileId,
        keywords: &[KeywordId],
        providers: impl IntoIterator<Item = (PeerId, LocId)>,
    ) -> Vec<Eviction> {
        self.clock += 1;
        let now = self.clock;
        let mut evictions = Vec::new();

        if !self.entries.contains_key(&file) && self.entries.len() >= self.capacity {
            evictions.extend(self.evict_least_recent());
        }
        let entry = match self.entries.entry(file) {
            Entry::Occupied(slot) => {
                // Touch: move the entry to the most-recent end of the
                // recency order.
                let entry = slot.into_mut();
                let was = self.recency.remove(&(entry.last_touched, file));
                debug_assert!(was, "every entry has a recency key");
                entry.last_touched = now;
                entry
            }
            Entry::Vacant(slot) => {
                for &kw in keywords {
                    match self.postings.entry(kw) {
                        Entry::Vacant(list) => {
                            list.insert(PostingsList::One(file));
                        }
                        Entry::Occupied(mut list) => list.get_mut().add(file),
                    }
                }
                slot.insert(IndexEntry {
                    file,
                    keywords: keywords.to_vec(),
                    providers: Vec::new(),
                    last_touched: now,
                })
            }
        };
        self.recency.insert((now, file));

        for (peer, loc_id) in providers {
            match entry.providers.iter_mut().find(|p| p.peer == peer) {
                Some(existing) => {
                    existing.loc_id = loc_id;
                    existing.freshness = now;
                }
                None => entry.providers.push(ProviderRecord {
                    peer,
                    loc_id,
                    freshness: now,
                }),
            }
        }
        // Keep only the most recent `max_providers` entries (oldest dropped).
        if entry.providers.len() > self.max_providers {
            entry.providers.sort_by_key(|p| p.freshness);
            let overflow = entry.providers.len() - self.max_providers;
            entry.providers.drain(0..overflow);
        }
        evictions
    }

    /// Removes every provider record pointing at `peer` (eager invalidation
    /// of a departed provider). Entries left with no providers are dropped
    /// and reported as evictions, in file-id order.
    ///
    /// A scan of the whole cache: the simulation invalidates lazily and never
    /// calls this, so no structure is kept to make it cheaper.
    pub fn remove_provider(&mut self, peer: PeerId) -> Vec<Eviction> {
        let mut emptied: Vec<FileId> = Vec::new();
        for &(_, file) in &self.recency {
            if let Some(entry) = self.entries.get_mut(&file) {
                entry.providers.retain(|p| p.peer != peer);
                if entry.providers.is_empty() {
                    emptied.push(file);
                }
            }
        }
        emptied.sort_unstable();
        emptied
            .into_iter()
            .filter_map(|file| self.remove_entry(file))
            .collect()
    }

    /// The filename the next capacity overflow would evict (the
    /// least-recently-touched entry), if any is cached. O(1): the recency
    /// set's first element, where the naive implementation min-scans.
    pub fn eviction_candidate(&self) -> Option<FileId> {
        self.recency.iter().next().map(|&(_, file)| file)
    }

    /// Drops everything (used when a peer leaves and rejoins: its cache is lost).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.postings.clear();
    }

    fn evict_least_recent(&mut self) -> Option<Eviction> {
        // The recency set is ordered by (last_touched, file), so its first
        // element *is* the least-recently-touched entry the naive min-scan
        // would find.
        let &(_, victim) = self.recency.iter().next()?;
        self.remove_entry(victim)
    }

    /// Removes one entry and keeps the recency set and the postings map in
    /// sync.
    fn remove_entry(&mut self, file: FileId) -> Option<Eviction> {
        let entry = self.entries.remove(&file)?;
        let was = self.recency.remove(&(entry.last_touched, file));
        debug_assert!(was, "every entry has a recency key");
        for &kw in &entry.keywords {
            if let Some(list) = self.postings.get_mut(&kw) {
                if list.remove(file) {
                    self.postings.remove(&kw);
                }
            }
        }
        Some(Eviction {
            file,
            keywords: entry.keywords,
        })
    }
}

#[cfg(test)]
mod naive {
    //! The pre-optimization reference implementation of the response index.
    //!
    //! [`NaiveResponseIndex`] keeps the exact observable semantics of
    //! [`super::ResponseIndex`] with the simplest possible data layout: one
    //! entry map, O(n) min-scan eviction and full-scan keyword lookup. It
    //! is the model of the property test at the end of this module, which
    //! asserts that the optimized index and this model produce identical
    //! evictions and lookup results under arbitrary operation sequences.

    use super::{Eviction, IndexEntry, ProviderRecord, ResponseIndex};
    use locaware_net::LocId;
    use locaware_overlay::PeerId;
    use locaware_workload::{FileId, KeywordId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The unoptimized model: same behaviour as [`super::ResponseIndex`],
    /// naive scans everywhere.
    #[derive(Debug, Clone)]
    pub struct NaiveResponseIndex {
        entries: BTreeMap<FileId, IndexEntry>,
        capacity: usize,
        max_providers: usize,
        clock: u64,
    }

    impl NaiveResponseIndex {
        /// Creates an empty index (same contract as [`super::ResponseIndex::new`]).
        ///
        /// # Panics
        /// Panics if either capacity is zero.
        pub fn new(capacity: usize, max_providers: usize) -> Self {
            assert!(capacity > 0, "response index capacity must be positive");
            assert!(max_providers > 0, "provider capacity must be positive");
            NaiveResponseIndex {
                entries: BTreeMap::new(),
                capacity,
                max_providers,
                clock: 0,
            }
        }

        /// Number of cached filenames.
        pub fn len(&self) -> usize {
            self.entries.len()
        }

        /// The entry for `file`, if cached.
        pub fn entry(&self, file: FileId) -> Option<&IndexEntry> {
            self.entries.get(&file)
        }

        /// Full-scan keyword lookup (the model for
        /// [`super::ResponseIndex::lookup_by_keywords`]).
        pub fn lookup_by_keywords(&self, query: &[KeywordId]) -> Vec<FileId> {
            self.entries
                .values()
                .filter(|e| e.matches(query))
                .map(|e| e.file)
                .collect()
        }

        /// Insert with min-scan eviction (the model for
        /// [`super::ResponseIndex::insert`]).
        pub fn insert(
            &mut self,
            file: FileId,
            keywords: &[KeywordId],
            providers: impl IntoIterator<Item = (PeerId, LocId)>,
        ) -> Vec<Eviction> {
            self.clock += 1;
            let now = self.clock;
            let mut evictions = Vec::new();

            if !self.entries.contains_key(&file) && self.entries.len() >= self.capacity {
                if let Some(evicted) = self.evict_least_recent() {
                    evictions.push(evicted);
                }
            }

            let entry = self.entries.entry(file).or_insert_with(|| IndexEntry {
                file,
                keywords: keywords.to_vec(),
                providers: Vec::new(),
                last_touched: now,
            });
            entry.last_touched = now;

            for (peer, loc_id) in providers {
                match entry.providers.iter_mut().find(|p| p.peer == peer) {
                    Some(existing) => {
                        existing.loc_id = loc_id;
                        existing.freshness = now;
                    }
                    None => entry.providers.push(ProviderRecord {
                        peer,
                        loc_id,
                        freshness: now,
                    }),
                }
            }
            if entry.providers.len() > self.max_providers {
                entry.providers.sort_by_key(|p| p.freshness);
                let overflow = entry.providers.len() - self.max_providers;
                entry.providers.drain(0..overflow);
            }
            evictions
        }

        /// Provider removal (the model for
        /// [`super::ResponseIndex::remove_provider`]).
        pub fn remove_provider(&mut self, peer: PeerId) -> Vec<Eviction> {
            let mut evictions = Vec::new();
            // In file-id order, the map's.
            let emptied: Vec<FileId> = self
                .entries
                .iter_mut()
                .filter_map(|(&file, entry)| {
                    entry.providers.retain(|p| p.peer != peer);
                    if entry.providers.is_empty() {
                        Some(file)
                    } else {
                        None
                    }
                })
                .collect();
            for file in emptied {
                if let Some(entry) = self.entries.remove(&file) {
                    evictions.push(Eviction {
                        file,
                        keywords: entry.keywords,
                    });
                }
            }
            evictions
        }

        /// Drops everything (the model for [`super::ResponseIndex::clear`]).
        pub fn clear(&mut self) {
            self.entries.clear();
        }

        /// The next eviction victim, by O(n) min-scan (the model for
        /// [`super::ResponseIndex::eviction_candidate`]).
        pub fn eviction_candidate(&self) -> Option<FileId> {
            self.entries
                .values()
                .min_by_key(|e| (e.last_touched, e.file))
                .map(|e| e.file)
        }

        fn evict_least_recent(&mut self) -> Option<Eviction> {
            let victim = self
                .entries
                .values()
                .min_by_key(|e| (e.last_touched, e.file))
                .map(|e| e.file)?;
            self.entries.remove(&victim).map(|entry| Eviction {
                file: victim,
                keywords: entry.keywords,
            })
        }
    }

    proptest! {
        /// Model-based equivalence: the optimized response index (recency set +
        /// inverted keyword postings) behaves *identically* to the naive
        /// reference implementation under arbitrary interleavings of single-
        /// and multi-provider inserts, provider removals and clears — same
        /// evictions in the same order, same keyword-lookup results, same
        /// eviction candidate, same contents.
        #[test]
        fn optimized_response_index_matches_the_naive_model(
            capacity in 1usize..14,
            max_providers in 1usize..5,
            // op, file, provider, loc: ops 0..=7 insert one provider (biased —
            // the common operation), 8 removes a provider, 9 clears, 10..=11
            // insert three providers at once (exercising the provider-overflow
            // drop and providers shared across files).
            ops in proptest::collection::vec((0u32..12, 0u32..24, 0u32..12, 0u32..24), 1..250),
        ) {
            let mut optimized = ResponseIndex::new(capacity, max_providers);
            let mut model = NaiveResponseIndex::new(capacity, max_providers);
            for (op, file, provider, loc) in ops {
                match op {
                    8 => {
                        let a = optimized.remove_provider(PeerId(provider));
                        let b = model.remove_provider(PeerId(provider));
                        prop_assert_eq!(a, b, "remove_provider evictions diverged");
                    }
                    9 => {
                        optimized.clear();
                        model.clear();
                    }
                    10 | 11 => {
                        let keywords = [KeywordId(file), KeywordId(file + 1), KeywordId(file / 2)];
                        let providers: Vec<(PeerId, LocId)> = (0..3)
                            .map(|i| (PeerId((provider + i) % 12), LocId(loc)))
                            .collect();
                        let a = optimized.insert(FileId(file), &keywords, providers.clone());
                        let b = model.insert(FileId(file), &keywords, providers);
                        prop_assert_eq!(a, b, "multi-provider insert evictions diverged");
                    }
                    _ => {
                        // Overlapping keyword sets across files exercise postings
                        // lists with more than one file.
                        let keywords = [KeywordId(file), KeywordId(file + 1), KeywordId(file / 2)];
                        let a = optimized.insert(FileId(file), &keywords, [(PeerId(provider), LocId(loc))]);
                        let b = model.insert(FileId(file), &keywords, [(PeerId(provider), LocId(loc))]);
                        prop_assert_eq!(a, b, "insert evictions diverged");
                    }
                }
                prop_assert_eq!(optimized.len(), model.len());
                prop_assert_eq!(optimized.eviction_candidate(), model.eviction_candidate());
                // Every observable lookup agrees: per-file entries (keywords,
                // providers, order) and keyword queries (results + order).
                for probe in 0u32..26 {
                    prop_assert_eq!(optimized.entry(FileId(probe)), model.entry(FileId(probe)));
                }
                for kw in 0u32..26 {
                    let single = [KeywordId(kw)];
                    prop_assert_eq!(
                        optimized.lookup_by_keywords(&single),
                        model.lookup_by_keywords(&single)
                    );
                    let pair = [KeywordId(kw), KeywordId(kw + 1)];
                    prop_assert_eq!(
                        optimized.lookup_by_keywords(&pair),
                        model.lookup_by_keywords(&pair)
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kws(ids: &[u32]) -> Vec<KeywordId> {
        ids.iter().map(|&i| KeywordId(i)).collect()
    }

    fn provider(p: u32, loc: u32) -> (PeerId, LocId) {
        (PeerId(p), LocId(loc))
    }

    #[test]
    fn insert_and_lookup_by_keywords() {
        let mut ri = ResponseIndex::new(10, 3);
        ri.insert(FileId(1), &kws(&[10, 20, 30]), [provider(5, 2)]);
        ri.insert(FileId(2), &kws(&[10, 40, 50]), [provider(6, 1)]);

        assert_eq!(ri.len(), 2);
        assert!(ri.contains(FileId(1)));
        assert_eq!(ri.lookup_by_keywords(&kws(&[10])), vec![FileId(1), FileId(2)]);
        assert_eq!(ri.lookup_by_keywords(&kws(&[10, 30])), vec![FileId(1)]);
        assert!(ri.lookup_by_keywords(&kws(&[99])).is_empty());
        assert!(ri.lookup_by_keywords(&[]).is_empty(), "empty queries match nothing");
    }

    #[test]
    fn providers_are_refreshed_not_duplicated() {
        let mut ri = ResponseIndex::new(10, 3);
        ri.insert(FileId(1), &kws(&[1, 2, 3]), [provider(5, 2)]);
        ri.insert(FileId(1), &kws(&[1, 2, 3]), [provider(5, 7)]);
        let entry = ri.entry(FileId(1)).unwrap();
        assert_eq!(entry.provider_count(), 1);
        assert_eq!(entry.providers()[0].loc_id, LocId(7), "locId refreshed to the latest");
    }

    #[test]
    fn most_recent_providers_replace_the_oldest() {
        let mut ri = ResponseIndex::new(10, 3);
        for p in 0..5u32 {
            ri.insert(FileId(1), &kws(&[1, 2, 3]), [provider(p, p)]);
        }
        let entry = ri.entry(FileId(1)).unwrap();
        assert_eq!(entry.provider_count(), 3);
        let kept: Vec<u32> = entry.providers().iter().map(|p| p.peer.0).collect();
        assert_eq!(kept, vec![2, 3, 4], "the three most recent providers survive");
    }

    #[test]
    fn filename_capacity_evicts_least_recently_touched() {
        let mut ri = ResponseIndex::new(2, 2);
        ri.insert(FileId(1), &kws(&[1]), [provider(1, 0)]);
        ri.insert(FileId(2), &kws(&[2]), [provider(2, 0)]);
        // Touch file 1 so file 2 becomes the least-recently-used entry.
        ri.insert(FileId(1), &kws(&[1]), [provider(9, 0)]);
        let evictions = ri.insert(FileId(3), &kws(&[3]), [provider(3, 0)]);
        assert_eq!(evictions.len(), 1);
        assert_eq!(evictions[0].file, FileId(2));
        assert_eq!(evictions[0].keywords, kws(&[2]));
        assert!(ri.contains(FileId(1)));
        assert!(ri.contains(FileId(3)));
        assert!(!ri.contains(FileId(2)));
        assert_eq!(ri.len(), 2);
    }

    #[test]
    fn remove_provider_drops_empty_entries() {
        let mut ri = ResponseIndex::new(10, 3);
        ri.insert(FileId(1), &kws(&[1, 2]), [provider(5, 0)]);
        ri.insert(FileId(2), &kws(&[3, 4]), [provider(5, 0), provider(6, 1)]);
        let evictions = ri.remove_provider(PeerId(5));
        assert_eq!(evictions.len(), 1);
        assert_eq!(evictions[0].file, FileId(1));
        assert!(!ri.contains(FileId(1)));
        assert_eq!(ri.entry(FileId(2)).unwrap().provider_count(), 1);
        assert!(ri.remove_provider(PeerId(5)).is_empty(), "already removed");
    }

    #[test]
    fn all_keywords_reflects_contents() {
        let mut ri = ResponseIndex::new(10, 3);
        ri.insert(FileId(1), &kws(&[1, 2]), [provider(5, 0)]);
        ri.insert(FileId(2), &kws(&[2, 3]), [provider(6, 0)]);
        let mut all: Vec<u32> = ri.all_keywords().map(|k| k.0).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 2, 2, 3]);
        ri.clear();
        assert!(ri.is_empty());
        assert_eq!(ri.all_keywords().count(), 0);
    }

    #[test]
    fn entry_matching_rule() {
        let mut ri = ResponseIndex::new(10, 3);
        ri.insert(FileId(1), &kws(&[1, 2, 3]), [provider(5, 0)]);
        let entry = ri.entry(FileId(1)).unwrap();
        assert!(entry.matches(&kws(&[1])));
        assert!(entry.matches(&kws(&[1, 3])));
        assert!(!entry.matches(&kws(&[1, 9])));
        assert!(!entry.matches(&[]));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_is_rejected() {
        let _ = ResponseIndex::new(0, 1);
    }
}
