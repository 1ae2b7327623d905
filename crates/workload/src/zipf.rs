//! Zipf-distributed sampling of file popularity.
//!
//! §5.1: *"Queries are generated according to Zipf distribution"*. Measurement
//! studies of Gnutella traffic (Sripanidkulchai, cited as \[15\]) report query
//! popularity following a Zipf-like law with exponent close to 1; the exponent
//! is configurable so sensitivity experiments can flatten or sharpen the skew.
//!
//! The sampler pre-computes the cumulative distribution over ranks and samples
//! by binary search on a uniform draw — O(log n) per sample, exact, and free of
//! the rejection loops that `rand_distr`'s sampler uses (that crate is outside
//! the allowed dependency set anyway).

use rand::Rng;

/// A Zipf distribution over ranks `0..n` (rank 0 being the most popular).
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfDistribution {
    /// Cumulative probabilities, `cdf[i]` = P(rank ≤ i). Last entry is 1.0.
    cdf: Vec<f64>,
}

impl ZipfDistribution {
    /// Creates a Zipf(α) distribution over `n` ranks.
    ///
    /// # Panics
    /// Panics if `n == 0` or the exponent is negative or non-finite.
    pub fn new(n: usize, exponent: f64) -> Self {
        assert!(n > 0, "Zipf distribution needs at least one rank");
        assert!(
            exponent >= 0.0 && exponent.is_finite(),
            "Zipf exponent must be finite and non-negative"
        );
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(exponent)).collect();
        let total: f64 = weights.iter().sum();
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for w in &weights {
            acc += w / total;
            cdf.push(acc);
        }
        // Guard against floating-point drift so the last bucket always catches.
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        ZipfDistribution { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// True if the distribution is over zero ranks (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank >= self.cdf.len() {
            return 0.0;
        }
        if rank == 0 {
            self.cdf[0]
        } else {
            self.cdf[rank] - self.cdf[rank - 1]
        }
    }

    /// Samples a rank in `0..n` (0 = most popular).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        // First index whose cdf value is >= u. Both lie in [0, 1] (never
        // -0.0), where `total_cmp` is the numeric order.
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = ZipfDistribution::new(500, 1.0);
        let total: f64 = (0..500).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert_eq!(z.pmf(9999), 0.0);
    }

    #[test]
    fn lower_ranks_are_more_popular() {
        let z = ZipfDistribution::new(100, 1.0);
        assert!(z.pmf(0) > z.pmf(1));
        assert!(z.pmf(1) > z.pmf(10));
        assert!(z.pmf(10) > z.pmf(99));
    }

    #[test]
    fn samples_follow_the_distribution() {
        let z = ZipfDistribution::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let n = 100_000;
        let mut counts = vec![0usize; 1000];
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        // Empirical frequency of rank 0 should be close to its pmf.
        let f0 = counts[0] as f64 / n as f64;
        assert!((f0 - z.pmf(0)).abs() < 0.01, "rank-0 frequency {f0} vs pmf {}", z.pmf(0));
        // The top 10% of ranks should attract well over half the queries (skew).
        let head: usize = counts[..100].iter().sum();
        assert!(
            head as f64 / n as f64 > 0.6,
            "Zipf(1.0) head mass too small: {}",
            head as f64 / n as f64
        );
    }

    #[test]
    fn exponent_zero_is_uniform() {
        let z = ZipfDistribution::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_exponent_means_more_skew() {
        let gentle = ZipfDistribution::new(100, 0.6);
        let sharp = ZipfDistribution::new(100, 1.4);
        assert!(sharp.pmf(0) > gentle.pmf(0));
        assert!(sharp.pmf(99) < gentle.pmf(99));
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let z = ZipfDistribution::new(50, 1.0);
        let a: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        let b: Vec<usize> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..100).map(|_| z.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = ZipfDistribution::new(1, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            assert_eq!(z.sample(&mut rng), 0);
        }
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zero_ranks_is_rejected() {
        let _ = ZipfDistribution::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn negative_exponent_is_rejected() {
        let _ = ZipfDistribution::new(10, -1.0);
    }
}
