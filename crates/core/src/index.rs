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
//! [`ResponseIndex`] implements exactly that: one vector of entries ordered
//! least recently touched first, each with a bounded, recency-ordered provider
//! list. An insert moves its entry to the back, so eviction takes the front,
//! and every eviction is reported so the owning peer can keep its Bloom filter
//! in sync. The cache is small (at most 50 filenames, usually a handful), so
//! every lookup is a scan: by file id, or for a keyword query behind each
//! entry's 64-bit keyword signature, the same one-word prefilter the storage
//! walk uses. The model-based property test pins it against the test-only
//! `naive` reference model.
//!
//! Invalidation is lazy, as in the paper: a departed provider's records stay
//! until newer providers replace them (§4.1.2), and the engine filters
//! departed providers at selection time. [`ResponseIndex::remove_provider`]
//! is the eager alternative — a scan of the whole cache, which no simulation
//! run calls.

use locaware_net::LocId;
use locaware_overlay::PeerId;
use locaware_workload::{FileId, KeywordId};

use crate::peer::keyword_signature;

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
    /// [`keyword_signature`] of `keywords`: a query whose own signature it
    /// does not cover cannot match, so the keyword comparison is skipped.
    signature: u64,
    /// Known providers, oldest first, newest last.
    providers: Vec<ProviderRecord>,
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
///
/// `repr(C)` with the entry vector first: a keyword lookup reads the vector's
/// header before anything else, and [`crate::PeerState`] keeps that header in
/// its first cache line.
#[derive(Debug, Clone)]
#[repr(C)]
pub struct ResponseIndex {
    /// The cached filenames, least recently touched first: the front is the
    /// next eviction victim. Unallocated until the first insert, since most
    /// peers of a large run never cache an entry.
    entries: Vec<IndexEntry>,
    /// Maximum number of distinct filenames (paper: 50).
    capacity: usize,
    /// Maximum providers kept per filename.
    max_providers: usize,
    /// Monotonic recency counter, the providers' freshness stamps.
    clock: u64,
}

const _: () = assert!(std::mem::offset_of!(ResponseIndex, entries) == 0);

impl ResponseIndex {
    /// Creates an empty index.
    ///
    /// # Panics
    /// Panics if either capacity is zero.
    pub fn new(capacity: usize, max_providers: usize) -> Self {
        assert!(capacity > 0, "response index capacity must be positive");
        assert!(max_providers > 0, "provider capacity must be positive");
        ResponseIndex {
            entries: Vec::new(),
            capacity,
            max_providers,
            clock: 0,
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

    /// The entry for `file`, if cached.
    pub fn entry(&self, file: FileId) -> Option<&IndexEntry> {
        self.entries.iter().find(|e| e.file == file)
    }

    /// True if `file` is cached.
    pub fn contains(&self, file: FileId) -> bool {
        self.entry(file).is_some()
    }

    /// Iterator over all entries, least-recently-touched first.
    pub fn entries(&self) -> impl Iterator<Item = &IndexEntry> {
        self.entries.iter()
    }

    /// Cached files whose filename matches every keyword of `query`, in
    /// file-id order. Entries whose signature does not cover the query's are
    /// skipped without comparing keywords.
    pub fn lookup_by_keywords(&self, query: &[KeywordId]) -> Vec<FileId> {
        self.lookup_signed(query, keyword_signature(query))
    }

    /// [`ResponseIndex::lookup_by_keywords`] for a query whose
    /// [`keyword_signature`] is already known: `wanted`, from its digest.
    pub(crate) fn lookup_signed(&self, query: &[KeywordId], wanted: u64) -> Vec<FileId> {
        let mut hits: Vec<FileId> = self
            .entries
            .iter()
            .filter(|e| e.signature & wanted == wanted && e.matches(query))
            .map(|e| e.file)
            .collect();
        hits.sort_unstable();
        hits
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

        match self.entries.iter().position(|e| e.file == file) {
            // Touch: move the entry to the most-recent end.
            Some(at) => self.entries[at..].rotate_left(1),
            None => {
                if self.entries.len() >= self.capacity {
                    let victim = self.entries.remove(0);
                    evictions.push(Eviction {
                        file: victim.file,
                        keywords: victim.keywords,
                    });
                }
                self.entries.push(IndexEntry {
                    file,
                    keywords: keywords.to_vec(),
                    signature: keyword_signature(keywords),
                    providers: Vec::new(),
                });
            }
        }
        let last = self.entries.len() - 1;
        let entry = &mut self.entries[last];

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
        debug_assert!(self.entries.len() <= self.capacity, "filename cap exceeded");
        debug_assert!(
            self.entries.iter().all(|e| e.providers.len() <= self.max_providers),
            "provider cap exceeded"
        );
        evictions
    }

    /// Removes every provider record pointing at `peer` (eager invalidation
    /// of a departed provider). Entries left with no providers are dropped
    /// and reported as evictions, in file-id order.
    pub fn remove_provider(&mut self, peer: PeerId) -> Vec<Eviction> {
        let mut evictions = Vec::new();
        self.entries.retain_mut(|entry| {
            entry.providers.retain(|p| p.peer != peer);
            let emptied = entry.providers.is_empty();
            if emptied {
                evictions.push(Eviction {
                    file: entry.file,
                    keywords: std::mem::take(&mut entry.keywords),
                });
            }
            !emptied
        });
        evictions.sort_unstable_by_key(|e| e.file);
        evictions
    }

    /// Drops everything (used when a peer leaves and rejoins: its cache is lost).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod naive {
    //! The simplest reference model of the response index.
    //!
    //! [`NaiveResponseIndex`] keeps the exact observable semantics of
    //! [`super::ResponseIndex`] with explicit recency stamps instead of a
    //! vector order: one entry map keyed by file, O(n) min-scan eviction and
    //! a full-scan keyword lookup with no signature. It is the model of the
    //! property test at the end of this module, which asserts that the index
    //! and this model produce identical evictions, lookup results and recency
    //! order under arbitrary operation sequences.

    use super::{Eviction, IndexEntry, ProviderRecord, ResponseIndex};
    use crate::peer::keyword_signature;
    use locaware_net::LocId;
    use locaware_overlay::PeerId;
    use locaware_workload::{FileId, KeywordId};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The model: same behaviour as [`super::ResponseIndex`], each entry
    /// stamped with the clock tick of its last touch.
    #[derive(Debug, Clone)]
    pub(crate) struct NaiveResponseIndex {
        entries: BTreeMap<FileId, (u64, IndexEntry)>,
        capacity: usize,
        max_providers: usize,
        clock: u64,
    }

    impl NaiveResponseIndex {
        /// Creates an empty index (same contract as [`super::ResponseIndex::new`]).
        ///
        /// # Panics
        /// Panics if either capacity is zero.
        pub(crate) fn new(capacity: usize, max_providers: usize) -> Self {
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
        pub(crate) fn len(&self) -> usize {
            self.entries.len()
        }

        /// The entry for `file`, if cached.
        pub(crate) fn entry(&self, file: FileId) -> Option<&IndexEntry> {
            self.entries.get(&file).map(|(_, entry)| entry)
        }

        /// The cached files ordered by `(last touch, file)`: the order
        /// [`super::ResponseIndex::entries`] must follow, oldest first.
        pub(crate) fn recency_order(&self) -> Vec<FileId> {
            let mut stamped: Vec<(u64, FileId)> =
                self.entries.iter().map(|(&file, &(touched, _))| (touched, file)).collect();
            stamped.sort_unstable();
            stamped.into_iter().map(|(_, file)| file).collect()
        }

        /// Full-scan keyword lookup (the model for
        /// [`super::ResponseIndex::lookup_by_keywords`]).
        pub(crate) fn lookup_by_keywords(&self, query: &[KeywordId]) -> Vec<FileId> {
            self.entries
                .values()
                .filter(|(_, e)| e.matches(query))
                .map(|(_, e)| e.file)
                .collect()
        }

        /// Insert with min-scan eviction (the model for
        /// [`super::ResponseIndex::insert`]).
        pub(crate) fn insert(
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

            let (touched, entry) = self.entries.entry(file).or_insert_with(|| {
                let entry = IndexEntry {
                    file,
                    keywords: keywords.to_vec(),
                    signature: keyword_signature(keywords),
                    providers: Vec::new(),
                };
                (now, entry)
            });
            *touched = now;

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
        pub(crate) fn remove_provider(&mut self, peer: PeerId) -> Vec<Eviction> {
            let mut evictions = Vec::new();
            // In file-id order, the map's.
            let emptied: Vec<FileId> = self
                .entries
                .iter_mut()
                .filter_map(|(&file, (_, entry))| {
                    entry.providers.retain(|p| p.peer != peer);
                    if entry.providers.is_empty() {
                        Some(file)
                    } else {
                        None
                    }
                })
                .collect();
            for file in emptied {
                if let Some((_, entry)) = self.entries.remove(&file) {
                    evictions.push(Eviction {
                        file,
                        keywords: entry.keywords,
                    });
                }
            }
            evictions
        }

        /// Drops everything (the model for [`super::ResponseIndex::clear`]).
        pub(crate) fn clear(&mut self) {
            self.entries.clear();
        }

        fn evict_least_recent(&mut self) -> Option<Eviction> {
            let victim = *self.recency_order().first()?;
            self.entries.remove(&victim).map(|(_, entry)| Eviction {
                file: victim,
                keywords: entry.keywords,
            })
        }
    }

    proptest! {
        /// Model-based equivalence: the response index (one recency-ordered
        /// vector, signature-filtered keyword scans) behaves *identically* to
        /// the naive reference model under arbitrary interleavings of single-
        /// and multi-provider inserts, provider removals and clears — same
        /// evictions in the same order, same keyword-lookup results, same
        /// recency order, same contents.
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
                        // Overlapping keyword sets across files: a keyword
                        // query can match more than one cached file.
                        let keywords = [KeywordId(file), KeywordId(file + 1), KeywordId(file / 2)];
                        let a = optimized.insert(FileId(file), &keywords, [(PeerId(provider), LocId(loc))]);
                        let b = model.insert(FileId(file), &keywords, [(PeerId(provider), LocId(loc))]);
                        prop_assert_eq!(a, b, "insert evictions diverged");
                    }
                }
                prop_assert_eq!(optimized.len(), model.len());
                let order: Vec<FileId> = optimized.entries().map(|e| e.file).collect();
                prop_assert_eq!(order, model.recency_order(), "recency order diverged");
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
        ri.clear();
        assert!(ri.is_empty());
        assert!(ri.lookup_by_keywords(&kws(&[10])).is_empty());
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
