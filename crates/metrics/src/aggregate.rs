//! Basic statistical aggregation used by the figures and the tests.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Sample standard deviation (n − 1 denominator); 0.0 for fewer than 2 values.
pub fn std_dev(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let var = values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (values.len() - 1) as f64;
    var.sqrt()
}

/// The `p`-th percentile (0 ≤ p ≤ 100) using nearest-rank on a sorted copy.
/// Returns 0.0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    #[expect(
        clippy::expect_used,
        reason = "callers pass finite samples; a NaN is a bug the panic names"
    )]
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile input must not contain NaN"));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank]
}

/// A compact numeric summary of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Minimum observation.
    pub min: f64,
    /// Median (50th percentile).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum observation.
    pub max: f64,
}

impl Summary {
    /// Summarises a sample. All fields are 0 for an empty sample.
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Summary {
                count: 0,
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                median: 0.0,
                p95: 0.0,
                max: 0.0,
            };
        }
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Summary {
            count: values.len(),
            mean: mean(values),
            std_dev: std_dev(values),
            min,
            median: percentile(values, 50.0),
            p95: percentile(values, 95.0),
            max,
        }
    }

    /// Half-width of the 95 % confidence interval of the mean (normal
    /// approximation, 1.96 σ/√n).
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.std_dev / (self.count as f64).sqrt()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_dev_of_known_sample() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        // Sample std dev of this classic example is ~2.138.
        assert!((std_dev(&v) - 2.138089935).abs() < 1e-6);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.ci95_half_width(), 0.0);
    }

    #[test]
    fn percentiles_on_sorted_data() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert!((percentile(&v, 50.0) - 50.0).abs() <= 1.0);
        assert!((percentile(&v, 95.0) - 95.0).abs() <= 1.0);
        // Percentile is order-independent.
        let mut shuffled = v.clone();
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 95.0), percentile(&v, 95.0));
    }

    #[test]
    fn summary_is_internally_consistent() {
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        let s = Summary::of(&v);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 50.0);
        assert_eq!(s.median, 30.0);
        assert!((s.mean - 30.0).abs() < 1e-12);
        assert!(s.ci95_half_width() > 0.0);
        assert!(s.min <= s.median && s.median <= s.max);
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -10.0), 1.0);
        assert_eq!(percentile(&v, 1000.0), 3.0);
    }
}
