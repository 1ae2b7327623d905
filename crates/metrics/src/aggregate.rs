//! Mean and nearest-rank percentile of a sample.

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The `p`-th percentile (0 ≤ p ≤ 100) using nearest-rank on a sorted copy.
/// Returns 0.0 for an empty slice.
///
/// Numbers sort numerically (a stable sort, so `-0.0` and `0.0` keep their
/// input order); a NaN sorts by [`f64::total_cmp`], after every number if
/// its sign bit is clear (as `f64::NAN`'s is) and before them if set.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or_else(|| a.total_cmp(b)));
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * (sorted.len() as f64 - 1.0)).round() as usize;
    sorted[rank]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_known_sample() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_edge_cases() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[3.0]), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
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
    fn nan_sorts_after_every_number() {
        let v = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 3.0, "rank 2 of [1, 2, 3, NaN]");
        assert!(percentile(&v, 100.0).is_nan());
        assert_eq!(percentile(&[-f64::NAN, 5.0], 0.0).to_bits(), (-f64::NAN).to_bits());
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
    }

    #[test]
    fn signed_zeros_keep_their_input_order() {
        assert_eq!(percentile(&[0.0, -0.0], 0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(percentile(&[-0.0, 0.0], 0.0).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn percentile_clamps_out_of_range_p() {
        let v = [1.0, 2.0, 3.0];
        assert_eq!(percentile(&v, -10.0), 1.0);
        assert_eq!(percentile(&v, 1000.0), 3.0);
    }
}
