//! Query generation.
//!
//! §5.1: queries target files drawn from a Zipf popularity distribution; each
//! query is expressed with *"1 to 3 keywords from the queried filename"*. §3.3
//! formalises it: `q = {kw_i ∈ f}` with `1 ≤ X ≤ K` keywords.
//!
//! [`QueryGenerator`] draws the target file (Zipf over a random popularity
//! permutation of the catalog — the popular files should not accidentally be
//! the low-numbered ids everywhere), picks how many keywords to use, and which.

use rand::seq::SliceRandom;
use rand::Rng;

use crate::catalog::{Catalog, FileId};
use crate::keywords::KeywordId;
use crate::zipf::ZipfDistribution;

/// A generated query: the keywords actually sent, plus the ground-truth target
/// used only by the metrics (never by the protocols, except Dicas' filename
/// search, which the paper defines as searching for the exact filename).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The file whose filename the keywords were drawn from.
    pub target: FileId,
    /// The query keywords (a non-empty subset of the target filename's keywords).
    pub keywords: Vec<KeywordId>,
}

impl Query {
    /// Number of keywords in the query (the paper's `X`).
    pub fn keyword_count(&self) -> usize {
        self.keywords.len()
    }
}

/// Configuration of query generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryWorkloadConfig {
    /// Zipf exponent of file popularity (≈1 for Gnutella-like traces).
    pub zipf_exponent: f64,
    /// Minimum number of keywords per query (paper: 1).
    pub min_keywords: usize,
    /// Maximum number of keywords per query (paper: 3, the filename length).
    pub max_keywords: usize,
}

impl Default for QueryWorkloadConfig {
    fn default() -> Self {
        QueryWorkloadConfig {
            zipf_exponent: 1.0,
            min_keywords: 1,
            max_keywords: crate::PAPER_KEYWORDS_PER_FILE,
        }
    }
}

/// Generates queries over a catalog.
#[derive(Debug, Clone)]
pub struct QueryGenerator {
    config: QueryWorkloadConfig,
    zipf: ZipfDistribution,
    /// Maps popularity rank → file id, so popularity is decoupled from id order.
    rank_to_file: Vec<FileId>,
    /// The inverse permutation: file id index → popularity rank.
    rank_of_file: Vec<usize>,
}

impl QueryGenerator {
    /// Creates a generator for `catalog`.
    ///
    /// The popularity permutation is drawn from `rng` once at construction;
    /// subsequent [`Self::generate`] calls only consume randomness for the
    /// per-query decisions.
    ///
    /// # Panics
    /// Panics if the keyword bounds are inconsistent (`min > max` or `min == 0`).
    pub fn new<R: Rng + ?Sized>(catalog: &Catalog, config: QueryWorkloadConfig, rng: &mut R) -> Self {
        assert!(
            config.min_keywords >= 1 && config.min_keywords <= config.max_keywords,
            "keyword count bounds must satisfy 1 <= min <= max"
        );
        let zipf = ZipfDistribution::new(catalog.len(), config.zipf_exponent);
        let mut rank_to_file: Vec<FileId> = catalog.files().collect();
        rank_to_file.shuffle(rng);
        let mut rank_of_file = vec![0usize; rank_to_file.len()];
        for (rank, file) in rank_to_file.iter().enumerate() {
            rank_of_file[file.index()] = rank;
        }
        QueryGenerator {
            config,
            zipf,
            rank_to_file,
            rank_of_file,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &QueryWorkloadConfig {
        &self.config
    }

    /// The file occupying popularity rank `rank` (0 = most popular).
    pub fn file_at_rank(&self, rank: usize) -> FileId {
        self.rank_to_file[rank]
    }

    /// The popularity rank of `file` (0 = most popular) — the inverse of
    /// [`Self::file_at_rank`]. The hybrid structured protocol keys its
    /// head/tail split on this.
    pub fn rank_of(&self, file: FileId) -> usize {
        self.rank_of_file[file.index()]
    }

    /// Generates one query against `catalog`.
    pub fn generate<R: Rng + ?Sized>(&self, catalog: &Catalog, rng: &mut R) -> Query {
        let rank = self.zipf.sample(rng);
        self.generate_for_target(catalog, self.rank_to_file[rank], rng)
    }

    /// Generates a query for a caller-chosen target file (keyword selection
    /// still randomised).
    ///
    /// The simulation engine uses this as the deterministic fallback when the
    /// Zipf draw keeps landing on files the requestor already stores: peers
    /// only search for files they lack, which is what keeps the
    /// one-download-one-replica accounting exact.
    pub fn generate_for_target<R: Rng + ?Sized>(
        &self,
        catalog: &Catalog,
        target: FileId,
        rng: &mut R,
    ) -> Query {
        let filename = catalog.filename(target);
        let max = self.config.max_keywords.min(filename.len());
        let min = self.config.min_keywords.min(max);
        let count = if min == max {
            min
        } else {
            rng.gen_range(min..=max)
        };
        let mut keywords: Vec<KeywordId> = filename
            .keywords()
            .choose_multiple(rng, count)
            .copied()
            .collect();
        keywords.sort_unstable();
        Query { target, keywords }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::CatalogConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::BTreeMap;

    fn setup() -> (Catalog, QueryGenerator) {
        let mut rng = StdRng::seed_from_u64(1);
        let catalog = Catalog::generate(
            CatalogConfig {
                files: 300,
                keywords: 900,
                keywords_per_file: 3,
            },
            &mut rng,
        );
        let generator = QueryGenerator::new(&catalog, QueryWorkloadConfig::default(), &mut rng);
        (catalog, generator)
    }

    #[test]
    fn queries_use_keywords_of_their_target() {
        let (catalog, generator) = setup();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..500 {
            let q = generator.generate(&catalog, &mut rng);
            let filename = catalog.filename(q.target);
            assert!(
                (1..=3).contains(&q.keyword_count()),
                "keyword count out of the paper's 1..=3 range"
            );
            for kw in &q.keywords {
                assert!(
                    filename.keywords().contains(kw),
                    "query keyword {kw:?} not in target filename"
                );
            }
            // The target must, by construction, satisfy its own query.
            assert!(catalog.file_matches(q.target, &q.keywords));
        }
    }

    #[test]
    fn keyword_counts_span_the_full_range() {
        let (catalog, generator) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = [0usize; 4];
        for _ in 0..1000 {
            let q = generator.generate(&catalog, &mut rng);
            seen[q.keyword_count()] += 1;
        }
        assert!(seen[1] > 0 && seen[2] > 0 && seen[3] > 0, "counts {seen:?}");
    }

    #[test]
    fn popularity_is_skewed_towards_few_files() {
        let (catalog, generator) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        let mut counts: BTreeMap<FileId, usize> = BTreeMap::new();
        let n = 20_000;
        for _ in 0..n {
            let q = generator.generate(&catalog, &mut rng);
            *counts.entry(q.target).or_default() += 1;
        }
        let mut by_count: Vec<usize> = counts.values().copied().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top30: usize = by_count.iter().take(30).sum();
        assert!(
            top30 as f64 / n as f64 > 0.5,
            "top-10% files should draw most queries (got {})",
            top30 as f64 / n as f64
        );
        // And the most popular file should match the generator's rank-0 file.
        let most_queried = counts.iter().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(*most_queried, generator.file_at_rank(0));
    }

    #[test]
    fn rank_of_inverts_file_at_rank() {
        let (catalog, generator) = setup();
        for rank in 0..catalog.len() {
            assert_eq!(generator.rank_of(generator.file_at_rank(rank)), rank);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let (catalog, generator) = setup();
        let batch = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..50).map(|_| generator.generate(&catalog, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(batch(9), batch(9));
        assert_ne!(batch(9), batch(10));
    }

    #[test]
    fn fixed_keyword_count_configuration() {
        let mut rng = StdRng::seed_from_u64(5);
        let catalog = Catalog::generate(
            CatalogConfig {
                files: 50,
                keywords: 200,
                keywords_per_file: 3,
            },
            &mut rng,
        );
        let generator = QueryGenerator::new(
            &catalog,
            QueryWorkloadConfig {
                min_keywords: 3,
                max_keywords: 3,
                ..QueryWorkloadConfig::default()
            },
            &mut rng,
        );
        for _ in 0..100 {
            assert_eq!(generator.generate(&catalog, &mut rng).keyword_count(), 3);
        }
    }

    #[test]
    #[should_panic(expected = "bounds")]
    fn inconsistent_keyword_bounds_are_rejected() {
        let mut rng = StdRng::seed_from_u64(6);
        let catalog = Catalog::generate(
            CatalogConfig {
                files: 10,
                keywords: 30,
                keywords_per_file: 3,
            },
            &mut rng,
        );
        let _ = QueryGenerator::new(
            &catalog,
            QueryWorkloadConfig {
                min_keywords: 0,
                max_keywords: 3,
                ..QueryWorkloadConfig::default()
            },
            &mut rng,
        );
    }
}
