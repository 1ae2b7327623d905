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

use rand::seq::SliceRandom;
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

/// A filename: the ordered list of keywords composing it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filename {
    keywords: Box<[KeywordId]>,
}

impl Filename {
    /// Creates a filename from its keywords.
    ///
    /// # Panics
    /// Panics if the keyword list is empty.
    pub fn new(keywords: impl Into<Box<[KeywordId]>>) -> Self {
        let keywords = keywords.into();
        assert!(!keywords.is_empty(), "a filename needs at least one keyword");
        Filename { keywords }
    }

    /// The keywords of this filename, in order.
    pub fn keywords(&self) -> &[KeywordId] {
        &self.keywords
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
    filenames: Vec<Filename>,
    /// Bloom hashes interned once per pool keyword (shared with peer state so
    /// the routing and cache-maintenance hot paths never re-hash a keyword).
    keyword_hashes: Arc<KeywordHashes>,
}

impl Catalog {
    /// Generates a catalog according to `config`, drawing from `rng`
    /// (typically the `StreamId::Catalog` stream).
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
        let all_keywords: Vec<KeywordId> = pool.iter().collect();
        let filenames = (0..config.files)
            .map(|_| {
                let draw = all_keywords.choose_multiple(rng, config.keywords_per_file);
                Filename::new(draw.copied().collect::<Box<[KeywordId]>>())
            })
            .collect();
        Self::from_filenames(pool, filenames)
    }

    /// Builds a catalog from explicit filenames.
    pub fn from_filenames(pool: KeywordPool, filenames: Vec<Filename>) -> Self {
        let keyword_hashes = Arc::new(KeywordHashes::for_pool(&pool));
        Catalog {
            pool,
            filenames,
            keyword_hashes,
        }
    }

    /// Number of files in the catalog.
    pub fn len(&self) -> usize {
        self.filenames.len()
    }

    /// True if the catalog holds no files.
    pub fn is_empty(&self) -> bool {
        self.filenames.is_empty()
    }

    /// The keyword pool the catalog draws from.
    pub fn keyword_pool(&self) -> &KeywordPool {
        &self.pool
    }

    /// The interned Bloom hashes of every pool keyword, built once with the
    /// catalog and shared (via `Arc`) with every peer of a simulation.
    pub fn keyword_hashes(&self) -> &Arc<KeywordHashes> {
        &self.keyword_hashes
    }

    /// The filename of `file`.
    ///
    /// # Panics
    /// Panics if the file id is out of range.
    pub fn filename(&self, file: FileId) -> &Filename {
        &self.filenames[file.index()]
    }

    /// Iterator over all file ids.
    pub fn files(&self) -> impl Iterator<Item = FileId> {
        (0..self.filenames.len() as u32).map(FileId)
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
                Filename::new(vec![KeywordId(0), KeywordId(1), KeywordId(2)]),
                Filename::new(vec![KeywordId(2), KeywordId(3), KeywordId(4)]),
                Filename::new(vec![KeywordId(0), KeywordId(2), KeywordId(4)]),
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
        let f = Filename::new(vec![KeywordId(1), KeywordId(2)]);
        let s = f.display();
        assert!(s.ends_with(".mp3"));
        assert!(s.contains(' '));
    }

    #[test]
    #[should_panic(expected = "at least one keyword")]
    fn empty_filename_is_rejected() {
        let _ = Filename::new(vec![]);
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
