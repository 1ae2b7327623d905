//! The file catalog: filenames, their keywords and the ground-truth match
//! relation between queries and files.
//!
//! §3.3 defines the matching rule: a query `q = {kw_i ∈ f}` (1 ≤ |q| ≤ K) "can
//! be satisfied by any file f which filename contains all keywords of q"
//! (§3.1). [`Filename::matches`] is that rule, and [`Catalog::file_matches`]
//! applies it by file id, so both the protocols (matching a query against
//! locally stored files) and the metrics (was a returned file actually a
//! correct answer?) agree on one definition of satisfaction.

use std::sync::Arc;

use rand::Rng;

use crate::keywords::{KeywordHashes, KeywordId, KeywordPool};

/// Identifies a file (and its filename) in the global pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u32);

impl FileId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for FileId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// A filename: the ordered list of keywords composing it, borrowed from the
/// catalog's keyword arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Filename<'a> {
    keywords: &'a [KeywordId],
}

impl<'a> Filename<'a> {
    /// The keywords of this filename, in order.
    pub fn keywords(&self) -> &'a [KeywordId] {
        self.keywords
    }

    /// Number of keywords (the paper's `K`).
    pub fn len(&self) -> usize {
        self.keywords.len()
    }

    /// True if the filename has no keywords (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.keywords.is_empty()
    }

    /// True if this filename contains every keyword in `query_keywords`
    /// (the §3.1 satisfaction rule).
    pub fn matches(&self, query_keywords: &[KeywordId]) -> bool {
        query_keywords.iter().all(|kw| self.keywords.contains(kw))
    }

    /// Human-readable rendering, e.g. `"beso42 lurim17 tona8.mp3"`.
    pub fn display(&self) -> String {
        let words: Vec<String> = self.keywords.iter().map(|k| k.canonical()).collect();
        format!("{}.mp3", words.join(" "))
    }
}

/// Configuration of catalog generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CatalogConfig {
    /// Number of files (paper: 3000).
    pub files: usize,
    /// Number of keywords in the pool (paper: 9000).
    pub keywords: usize,
    /// Keywords per filename (paper: 3).
    pub keywords_per_file: usize,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            files: crate::PAPER_FILE_POOL,
            keywords: crate::PAPER_KEYWORD_POOL,
            keywords_per_file: crate::PAPER_KEYWORDS_PER_FILE,
        }
    }
}

/// The global catalog of files and their filenames.
#[derive(Debug, Clone)]
pub struct Catalog {
    pool: KeywordPool,
    /// Every filename's keywords, file by file, in one arena.
    keywords: Vec<KeywordId>,
    /// File `f`'s keywords are `keywords[offsets[f]..offsets[f + 1]]`;
    /// one entry more than there are files, the first 0.
    offsets: Vec<u32>,
    /// Bloom hashes interned once per filename keyword (shared with peer
    /// state so the routing and cache-maintenance hot paths never re-hash a
    /// keyword).
    keyword_hashes: Arc<KeywordHashes>,
}

impl Catalog {
    /// Generates a catalog according to `config`, drawing from `rng`
    /// (typically the `StreamId::Catalog` stream).
    ///
    /// Each filename's keywords are a partial Fisher–Yates shuffle of the
    /// pool, drawn straight into the arena: the same `gen_range(i..pool)`
    /// sequence, and the same keywords, as `choose_multiple` over a slice of
    /// every pool id.
    ///
    /// # Panics
    /// Panics if the configuration is inconsistent (zero files, or more
    /// keywords per file than the pool holds).
    pub fn generate<R: Rng + ?Sized>(config: CatalogConfig, rng: &mut R) -> Self {
        assert!(config.files > 0, "catalog must contain at least one file");
        assert!(
            config.keywords_per_file > 0 && config.keywords_per_file <= config.keywords,
            "keywords per file must be in 1..=pool size"
        );
        let pool = KeywordPool::new(config.keywords);
        let per_file = config.keywords_per_file;
        let mut keywords = Vec::with_capacity(config.files * per_file);
        // The shuffle's positions that differ from the identity, as
        // (position, keyword now there); the latest entry for a position wins.
        let mut moved: Vec<(usize, KeywordId)> = Vec::with_capacity(per_file);
        for _ in 0..config.files {
            moved.clear();
            for i in 0..per_file {
                let j = rng.gen_range(i..pool.len());
                let at = |position: usize| {
                    moved
                        .iter()
                        .rev()
                        .find(|&&(p, _)| p == position)
                        .map_or(KeywordId(position as u32), |&(_, kw)| kw)
                };
                let (picked, displaced) = (at(j), at(i));
                keywords.push(picked);
                moved.push((j, displaced));
            }
        }
        let offsets = (0..=config.files).map(|f| (f * per_file) as u32).collect();
        Self::from_arena(pool, keywords, offsets)
    }

    /// Builds a catalog from explicit filenames, each a list of keywords.
    ///
    /// # Panics
    /// Panics if a filename is empty.
    pub fn from_filenames(pool: KeywordPool, filenames: Vec<Vec<KeywordId>>) -> Self {
        let mut keywords = Vec::new();
        let mut offsets = vec![0];
        for filename in filenames {
            assert!(!filename.is_empty(), "a filename needs at least one keyword");
            keywords.extend(filename);
            offsets.push(keywords.len() as u32);
        }
        Self::from_arena(pool, keywords, offsets)
    }

    fn from_arena(pool: KeywordPool, keywords: Vec<KeywordId>, offsets: Vec<u32>) -> Self {
        assert!(keywords.len() <= u32::MAX as usize, "too many filename keywords for u32 offsets");
        let keyword_hashes = Arc::new(KeywordHashes::for_keywords(&pool, &keywords));
        Catalog {
            pool,
            keywords,
            offsets,
            keyword_hashes,
        }
    }

    /// Number of files in the catalog.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if the catalog holds no files.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keyword pool the catalog draws from.
    pub fn keyword_pool(&self) -> &KeywordPool {
        &self.pool
    }

    /// The interned Bloom hashes of every filename keyword, built once with
    /// the catalog and shared (via `Arc`) with every peer of a simulation.
    pub fn keyword_hashes(&self) -> &Arc<KeywordHashes> {
        &self.keyword_hashes
    }

    /// The filename of `file`.
    ///
    /// # Panics
    /// Panics if the file id is out of range.
    pub fn filename(&self, file: FileId) -> Filename<'_> {
        let (start, end) = (self.offsets[file.index()], self.offsets[file.index() + 1]);
        Filename {
            keywords: &self.keywords[start as usize..end as usize],
        }
    }

    /// Iterator over all file ids.
    pub fn files(&self) -> impl Iterator<Item = FileId> {
        (0..self.len() as u32).map(FileId)
    }

    /// True if `file` satisfies the query (contains **all** its keywords):
    /// the ground truth the protocols and the metrics both apply.
    pub fn file_matches(&self, file: FileId, query_keywords: &[KeywordId]) -> bool {
        self.filename(file).matches(query_keywords)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_catalog() -> Catalog {
        // f0 = {0,1,2}, f1 = {2,3,4}, f2 = {0,2,4}
        let pool = KeywordPool::new(5);
        Catalog::from_filenames(
            pool,
            vec![
                vec![KeywordId(0), KeywordId(1), KeywordId(2)],
                vec![KeywordId(2), KeywordId(3), KeywordId(4)],
                vec![KeywordId(0), KeywordId(2), KeywordId(4)],
            ],
        )
    }

    #[test]
    fn generated_catalog_matches_paper_dimensions() {
        let catalog = Catalog::generate(CatalogConfig::default(), &mut StdRng::seed_from_u64(1));
        assert_eq!(catalog.len(), 3000);
        assert_eq!(catalog.keyword_pool().len(), 9000);
        for f in catalog.files().take(50) {
            let fname = catalog.filename(f);
            assert_eq!(fname.len(), 3);
            // Keywords inside one filename are distinct (choose_multiple).
            let mut kws = fname.keywords().to_vec();
            kws.sort_unstable();
            kws.dedup();
            assert_eq!(kws.len(), 3);
        }
    }

    /// The arena's draws are `choose_multiple`'s: at sizes no golden pins,
    /// every filename equals what `choose_multiple` over a slice of the pool
    /// draws from the same seed, and both take the same number of draws.
    /// The second size draws 6 of 8, so most draws land on a position an
    /// earlier one displaced.
    #[test]
    fn arena_draws_match_choose_multiple() {
        use rand::seq::SliceRandom;

        for (files, keywords, keywords_per_file) in [(500, 700, 4), (200, 8, 6)] {
            let config = CatalogConfig { files, keywords, keywords_per_file };
            let mut drawn = StdRng::seed_from_u64(9);
            let catalog = Catalog::generate(config, &mut drawn);
            let all: Vec<KeywordId> = catalog.keyword_pool().iter().collect();
            let mut chosen = StdRng::seed_from_u64(9);
            assert_eq!(catalog.len(), files);
            for f in catalog.files() {
                let expected: Vec<KeywordId> = all.choose_multiple(&mut chosen, keywords_per_file).copied().collect();
                assert_eq!(catalog.filename(f).keywords(), expected, "{f} of {config:?}");
            }
            assert_eq!(drawn.gen::<u64>(), chosen.gen::<u64>(), "{config:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Catalog::generate(CatalogConfig::default(), &mut StdRng::seed_from_u64(5));
        let b = Catalog::generate(CatalogConfig::default(), &mut StdRng::seed_from_u64(5));
        for f in a.files().take(100) {
            assert_eq!(a.filename(f), b.filename(f));
        }
    }

    fn small_generated_catalog() -> Catalog {
        Catalog::generate(
            CatalogConfig {
                files: 200,
                keywords: 300,
                keywords_per_file: 3,
            },
            &mut StdRng::seed_from_u64(2),
        )
    }

    #[test]
    fn every_file_matches_each_of_its_own_keywords() {
        let catalog = small_generated_catalog();
        for f in catalog.files() {
            let keywords = catalog.filename(f).keywords();
            assert!(catalog.file_matches(f, keywords), "{f} must match its own filename");
            for &kw in keywords {
                assert!(catalog.file_matches(f, &[kw]), "{f} must match {kw}");
            }
        }
    }

    #[test]
    fn matching_follows_the_all_keywords_rule() {
        let c = tiny_catalog();
        let matching = |q: &[KeywordId]| -> Vec<FileId> {
            c.files().filter(|&f| c.file_matches(f, q)).collect()
        };
        // Single keyword 2 appears in every file.
        assert_eq!(matching(&[KeywordId(2)]).len(), 3);
        // {0, 2} appears in f0 and f2.
        assert_eq!(matching(&[KeywordId(0), KeywordId(2)]), vec![FileId(0), FileId(2)]);
        // {1, 3} appears in no single file.
        assert!(matching(&[KeywordId(1), KeywordId(3)]).is_empty());
        // A keyword outside every filename matches nothing.
        assert!(matching(&[KeywordId(0), KeywordId(99)]).is_empty());
    }

    #[test]
    fn file_matches_agrees_with_posting_list_intersection() {
        // Independent model: keyword → files posting lists built from the
        // filenames; a query's answers are the intersection of its
        // keywords' lists.
        let c = small_generated_catalog();
        let mut postings: Vec<Vec<FileId>> = vec![Vec::new(); c.keyword_pool().len()];
        for f in c.files() {
            for &kw in c.filename(f).keywords() {
                postings[kw.index()].push(f);
            }
        }
        let queries: Vec<Vec<KeywordId>> = c
            .files()
            .take(40)
            .flat_map(|f| {
                let kws = c.filename(f).keywords();
                [vec![kws[0]], vec![kws[1], kws[2]], kws.to_vec(), vec![kws[0], KeywordId(299)]]
            })
            .collect();
        for q in &queries {
            let expected: Vec<FileId> = postings[q[0].index()]
                .iter()
                .copied()
                .filter(|f| q[1..].iter().all(|kw| postings[kw.index()].contains(f)))
                .collect();
            let actual: Vec<FileId> = c.files().filter(|&f| c.file_matches(f, q)).collect();
            assert_eq!(actual, expected, "query {q:?}");
            assert!(!actual.is_empty() || q.contains(&KeywordId(299)));
        }
    }

    #[test]
    fn interned_hashes_cover_the_pool() {
        use locaware_bloom::ElementHashes;
        let c = tiny_catalog();
        assert_eq!(c.keyword_hashes().len(), c.keyword_pool().len());
        for kw in c.keyword_pool().iter() {
            assert_eq!(
                c.keyword_hashes().of(kw),
                ElementHashes::of_str(&kw.canonical())
            );
        }
    }

    #[test]
    fn filename_display_is_readable() {
        let c = Catalog::from_filenames(KeywordPool::new(3), vec![vec![KeywordId(1), KeywordId(2)]]);
        let s = c.filename(FileId(0)).display();
        assert!(s.ends_with(".mp3"));
        assert!(s.contains(' '));
    }

    #[test]
    #[should_panic(expected = "at least one keyword")]
    fn empty_filename_is_rejected() {
        let _ = Catalog::from_filenames(KeywordPool::new(3), vec![vec![KeywordId(0)], vec![]]);
    }

    #[test]
    #[should_panic(expected = "keywords per file")]
    fn too_many_keywords_per_file_is_rejected() {
        let _ = Catalog::generate(
            CatalogConfig {
                files: 10,
                keywords: 2,
                keywords_per_file: 3,
            },
            &mut StdRng::seed_from_u64(0),
        );
    }
}
